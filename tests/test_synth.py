import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdrlab.synth import (NoiseSpec, TimeGrid, feature_gradient,
                          make_distance_field, make_kernel_features,
                          sample_noise, sample_noise_matrix)


def test_grid_times_and_duration():
    g = TimeGrid(stride=2.0, num_positions=5)
    assert np.array_equal(g.times(), [0, 2, 4, 6, 8])
    assert g.duration == 10.0


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


def test_kernel_kappa_validation():
    g = TimeGrid(stride=1.0, num_positions=10)
    with pytest.raises(ValueError):
        make_kernel_features(g, 5.0, 0.0)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(family="poisson")
    with pytest.raises(ValueError):
        NoiseSpec(rho=1.0)
    with pytest.raises(ValueError):
        NoiseSpec(scale=-0.1)


def test_laplace_variance():
    x = sample_noise(NoiseSpec(family="laplace", scale=1.0), 10**6, 7)
    assert np.var(x) == pytest.approx(2.0, rel=0.02)


def test_ar1_lag1_autocorrelation():
    x = sample_noise(NoiseSpec(scale=1.0, rho=0.9), 10**6, 3)
    r = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert r == pytest.approx(0.9, abs=0.02)


@pytest.mark.parametrize("rho", [0.0, 0.3, 0.6, 0.9])
@pytest.mark.parametrize("family", ["laplace", "gaussian"])
def test_ar1_preserves_marginal_variance(family, rho):
    base = np.var(sample_noise(NoiseSpec(family=family, scale=1.0), 10**5, 11))
    corr = np.var(sample_noise(NoiseSpec(family=family, scale=1.0, rho=rho),
                               10**5, 11))
    assert corr == pytest.approx(base, rel=0.03)


def test_zero_scale_gaussian_is_all_zero():
    x = sample_noise(NoiseSpec(family="gaussian", scale=0.0), 100, 5)
    assert np.all(x == 0.0)


def test_noise_determinism():
    spec = NoiseSpec(family="student_t", scale=0.7, rho=0.4)
    a = sample_noise(spec, 500, 123)
    b = sample_noise(spec, 500, 123)
    assert np.array_equal(a, b)


def test_noise_matrix_rows_match_chunking_invariance():
    spec = NoiseSpec(rho=0.5)
    seeds = [np.random.SeedSequence((9, 1, k)) for k in range(6)]
    full = sample_noise_matrix(spec, seeds, 50)
    part = sample_noise_matrix(spec, seeds[2:5], 50)
    assert np.allclose(full[2:5], part)


def test_feature_gradient_ramp_and_constant():
    assert np.all(feature_gradient(np.full(10, 3.0)) == 0.0)
    g = feature_gradient(np.arange(10.0))
    assert np.all(g[1:-1] == 2.0)
    assert g[0] == 1.0 and g[-1] == 1.0


def test_feature_gradient_kernel_shape():
    grid = TimeGrid(stride=1.0, num_positions=60)
    phi = make_kernel_features(grid, 25.0, 2.0)
    g = feature_gradient(phi)
    assert g[25] == pytest.approx(0.0, abs=1e-12)
    # derivative magnitude peaks near center +/- kappa
    assert np.argmax(np.abs(g[:25])) in (22, 23, 24)


def test_feature_gradient_too_short():
    with pytest.raises(ValueError):
        feature_gradient([1.0, 2.0])
