import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdrlab.synth import (KAPPA_MAX, KAPPA_MIN, NoiseSpec, TimeGrid,
                          _apply_ar1, make_distance_field,
                          make_kernel_features, sample_noise_matrix)


def noise_row(spec, count, seed):
    """One noise row of `count` values: the first row of the seed's stream."""
    return sample_noise_matrix(spec, seed, 1, count)[0]


def test_grid_times():
    g = TimeGrid(stride=2.0, num_positions=5)
    assert np.array_equal(g.times(), [0, 2, 4, 6, 8])


def test_grid_validation():
    for stride in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            TimeGrid(stride=stride, num_positions=10)
    with pytest.raises(ValueError):
        TimeGrid(stride=1.0, num_positions=1)


def test_distance_field_single_boundary():
    g = TimeGrid(stride=1.0, num_positions=100)
    d = make_distance_field(g, [25.0])
    assert d[20] == -5.0
    assert d[30] == 5.0
    assert d[25] == 0.0


def test_distance_field_tie_goes_to_earlier_boundary():
    g = TimeGrid(stride=1.0, num_positions=100)
    d = make_distance_field(g, [25.0, 75.0])
    assert d[50] == 25.0  # equidistant; measured from the earlier boundary


def test_distance_field_empty_boundaries():
    g = TimeGrid(stride=1.0, num_positions=10)
    with pytest.raises(ValueError, match="no boundaries"):
        make_distance_field(g, [])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_distance_field_rejects_non_finite_boundaries(bad):
    g = TimeGrid(stride=1.0, num_positions=10)
    with pytest.raises(ValueError, match="finite"):
        make_distance_field(g, [3.0, bad])


@given(st.lists(st.floats(5.0, 95.0), min_size=1, max_size=5),
       st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=50, deadline=None)
def test_distance_field_unit_slope_between_switches(bounds, stride):
    g = TimeGrid(stride=stride, num_positions=100)
    b = np.sort(np.asarray(bounds))
    d = make_distance_field(g, b)
    t = g.times()
    idx = np.abs(t[:, None] - b[None, :]).argmin(axis=1)
    inc = np.diff(d)
    same = idx[1:] == idx[:-1]
    assert np.allclose(np.abs(inc[same]), stride)


def test_kernel_peak_and_width():
    g = TimeGrid(stride=1.0, num_positions=100)
    phi = make_kernel_features(g, 25.0, 2.0)
    assert phi[25] == 1.0
    assert phi[23] == pytest.approx(np.exp(-0.5))
    assert phi[27] == pytest.approx(np.exp(-0.5))
    # doubling kappa doubles the region above exp(-0.5)
    w1 = np.sum(phi > np.exp(-0.5) - 1e-12)
    phi2 = make_kernel_features(g, 25.0, 4.0)
    w2 = np.sum(phi2 > np.exp(-0.5) - 1e-12)
    assert w2 == pytest.approx(2 * w1, abs=2)


def test_kernel_features_one_row_per_center():
    g = TimeGrid(stride=2.0, num_positions=60)
    centers = np.random.default_rng(4).uniform(0.0, 120.0, 9)
    rows = make_kernel_features(g, centers, 3.5)
    assert rows.shape == (9, 60)
    for c, row in zip(centers, rows):
        assert np.array_equal(row, make_kernel_features(g, c, 3.5))
    assert make_kernel_features(g, 25.0, 3.5).shape == (60,)


@pytest.mark.parametrize("cols", [slice(0, 1), slice(0, 17), slice(23, 41),
                                  slice(52, 60), slice(30, 30), slice(None)])
def test_kernel_feature_columns_equal_the_full_rows(cols):
    g = TimeGrid(stride=2.0, num_positions=60)
    centers = np.random.default_rng(6).uniform(0.0, 120.0, 5)
    for center, kappa in ((centers, 3.5), (centers[0], 0.3), (81.25, 12.0)):
        full = make_kernel_features(g, center, kappa)
        assert np.array_equal(make_kernel_features(g, center, kappa, cols),
                              full[..., cols])


def test_kernel_kappa_validation():
    g = TimeGrid(stride=1.0, num_positions=10)
    # 2 kappa^2 is finite up to KAPPA_MAX and overflows past it; it is a
    # normal float from KAPPA_MIN up, where every off-center quotient
    # overflows and gives 0 without a warning
    assert np.all(make_kernel_features(g, 5.0, KAPPA_MAX) == 1.0)
    assert np.array_equal(make_kernel_features(g, 5.0, KAPPA_MIN),
                          np.arange(10) == 5)
    for kappa in (0.0, float("nan"), float("inf"),
                  np.nextafter(KAPPA_MAX, np.inf), 1e200,
                  np.nextafter(KAPPA_MIN, 0.0), 1e-200, 5e-324):
        with pytest.raises(ValueError, match="kappa"):
            make_kernel_features(g, 5.0, kappa)
    with pytest.raises(ValueError, match="finite"):
        make_kernel_features(g, [5.0, float("nan")], 2.0)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(family="poisson")
    with pytest.raises(ValueError):
        NoiseSpec(rho=1.0)
    with pytest.raises(ValueError):
        NoiseSpec(scale=-0.1)
    for field, bad in [("scale", float("nan")), ("scale", float("inf")),
                       ("nu", float("nan")), ("nu", float("inf")),
                       ("nu", 0.0), ("nu", -1.0)]:
        with pytest.raises(ValueError, match=field):
            NoiseSpec(family="student_t", **{field: bad})


def test_laplace_variance():
    x = noise_row(NoiseSpec(family="laplace", scale=1.0), 10**6, 7)
    assert np.var(x) == pytest.approx(2.0, rel=0.02)


def test_ar1_lag1_autocorrelation():
    x = noise_row(NoiseSpec(scale=1.0, rho=0.9), 10**6, 3)
    r = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert r == pytest.approx(0.9, abs=0.02)


@pytest.mark.parametrize("rho", [0.0, 0.3, 0.6, 0.9])
@pytest.mark.parametrize("family", ["laplace", "gaussian"])
def test_ar1_preserves_marginal_variance(family, rho):
    base = np.var(noise_row(NoiseSpec(family=family, scale=1.0), 10**5, 11))
    corr = np.var(noise_row(NoiseSpec(family=family, scale=1.0, rho=rho),
                            10**5, 11))
    assert corr == pytest.approx(base, rel=0.03)


def test_zero_scale_gaussian_is_all_zero():
    x = noise_row(NoiseSpec(family="gaussian", scale=0.0), 100, 5)
    assert np.all(x == 0.0)


def test_noise_determinism():
    spec = NoiseSpec(family="student_t", scale=0.7, rho=0.4)
    a = sample_noise_matrix(spec, 123, 3, 500)
    b = sample_noise_matrix(spec, 123, 3, 500)
    assert np.array_equal(a, b)


def test_noise_matrix_rows_are_a_prefix_of_a_longer_draw():
    # row k is the k-th row of the seed's stream whatever the row count;
    # a row cannot be drawn on its own, so chunks are prefixes, not slices
    for family in ("laplace", "gaussian", "student_t"):
        spec = NoiseSpec(family=family, rho=0.5)
        full = sample_noise_matrix(spec, (9, 1), 6, 50)
        for rows in (1, 3, 6):
            assert np.array_equal(sample_noise_matrix(spec, (9, 1), rows, 50),
                                  full[:rows])


@pytest.mark.parametrize("rho", [0.0, 0.6])
@pytest.mark.parametrize("rows", [0, 1, 2, 5])
def test_noise_matrix_of_no_columns_is_empty(rows, rho):
    spec = NoiseSpec(rho=rho)
    assert sample_noise_matrix(spec, 4, rows, 0).shape == (rows, 0)


@pytest.mark.parametrize("shape", [(1, 3, 50), (2, 1, 50), (1, 1, 50)])
def test_ar1_runs_along_the_last_axis_of_any_shape(shape):
    # a leading axis of length 1 does not join the rows under it into one
    # series
    eta = np.random.default_rng(8).normal(size=shape)
    got = _apply_ar1(eta, 0.6)
    assert got.shape == shape
    for index in np.ndindex(shape[:-1]):
        assert np.array_equal(got[index], _apply_ar1(eta[index], 0.6))
