import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdrlab.estimators import (BDRLossConfig, ExtractConfig, FitConfig,
                               PeakConfig, bdr_loss, bdr_loss_smoothed,
                               bdr_loss_smoothed_grad, classification_peak,
                               extract_boundaries, fit_distance,
                               moving_average, nms_1d, quadratic_peak_offset)
from bdrlab.synth import (NoiseSpec, TimeGrid, make_distance_field,
                          make_kernel_features, sample_noise)


# --- loss -------------------------------------------------------------------

def test_loss_perfect_prediction_is_zero():
    d = np.arange(-5.0, 5.0)
    assert bdr_loss(d, d) == 0.0


def test_loss_constant_offset():
    d = np.arange(-5.0, 5.0)
    assert bdr_loss(d, d + 1.0) == pytest.approx(1.0)


def test_loss_single_jump_penalty():
    T = 20
    d = np.arange(T, dtype=float)  # slope 1 at stride 1
    dh = d.copy()
    dh[10:] += 2.0  # one adjacent pair jumps by 3
    cfg = BDRLossConfig(alpha=0.1)
    expected = np.mean(np.abs(d - dh)) + cfg.alpha * (3 - 1) ** 2 / (T - 1)
    assert bdr_loss(d, dh, cfg=cfg) == pytest.approx(expected)


def test_loss_length_mismatch():
    with pytest.raises(ValueError):
        bdr_loss(np.zeros(5), np.zeros(6))


def test_loss_stride_scaled_reference():
    # slope-2 series at stride 2 is at the unit-slope reference: no penalty
    d = 2.0 * np.arange(10.0)
    assert bdr_loss(d, d, stride=2.0) == 0.0
    assert bdr_loss(d, d, stride=1.0) > 0.0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    cfg = BDRLossConfig(alpha=0.3, huber_delta=0.05)
    d = rng.normal(0, 2, 30)
    dh = rng.normal(0, 2, 30)
    g = bdr_loss_smoothed_grad(d, dh, cfg=cfg)
    eps = 1e-5
    checked = 0
    for i in rng.choice(30, size=100):
        e = np.zeros(30)
        e[i] = eps
        num = (bdr_loss_smoothed(d, dh + e, cfg=cfg)
               - bdr_loss_smoothed(d, dh - e, cfg=cfg)) / (2 * eps)
        if abs(num) > 1e-8:
            assert abs(g[i] - num) / abs(num) < 1e-4
            checked += 1
    assert checked > 50


# --- fitter -----------------------------------------------------------------

def test_fit_noiseless_is_fixed_point():
    grid = TimeGrid(stride=1.0, num_positions=50)
    d = make_distance_field(grid, [25.0])
    fitted = fit_distance(d, grid)
    assert bdr_loss(d, fitted) < 1e-6


def test_fit_alpha_zero_tracks_observations():
    grid = TimeGrid(stride=1.0, num_positions=30)
    obs = np.linspace(-3, 3, 30) + 0.3 * np.sin(np.arange(30))
    cfg = FitConfig(loss=BDRLossConfig(alpha=0.0, huber_delta=0.01))
    fitted = fit_distance(obs, grid, cfg)
    assert np.max(np.abs(fitted - obs)) <= 0.02


def test_fit_improves_over_raw_observations():
    grid = TimeGrid(stride=1.0, num_positions=100)
    clean = make_distance_field(grid, [50.0])
    cfg = FitConfig(loss=BDRLossConfig(alpha=4.0))
    wins = 0
    for seed in range(100):
        obs = clean + sample_noise(NoiseSpec(scale=0.5), 100, seed)
        fitted = fit_distance(obs, grid, cfg)
        if bdr_loss(clean, fitted) < bdr_loss(clean, obs):
            wins += 1
    assert wins >= 95


def test_fit_loss_monotone_batch_matches_single():
    grid = TimeGrid(stride=2.0, num_positions=40)
    rng = np.random.default_rng(5)
    obs = rng.normal(0, 1, (3, 40)).cumsum(axis=1)
    batch = fit_distance(obs, grid)
    for k in range(3):
        single = fit_distance(obs[k], grid)
        assert np.allclose(batch[k], single)


def test_fit_rejects_non_finite():
    grid = TimeGrid(stride=1.0, num_positions=10)
    obs = np.zeros(10)
    obs[3] = np.nan
    with pytest.raises(ValueError):
        fit_distance(obs, grid)


def test_fit_offset_equivariance():
    grid = TimeGrid(stride=1.0, num_positions=60)
    clean = make_distance_field(grid, [30.0])
    obs = clean + sample_noise(NoiseSpec(scale=0.3), 60, 9)
    f0 = fit_distance(obs, grid)
    f1 = fit_distance(obs + 2.0, grid)
    assert np.max(np.abs((f1 - f0) - 2.0)) < 0.05


# --- extraction -------------------------------------------------------------

def test_extraction_interpolation_example():
    grid = TimeGrid(stride=1.0, num_positions=4)
    out = extract_boundaries(np.array([-2.0, -1.0, 0.5, 1.5]), grid)
    assert out.shape == (1,)
    assert out[0] == pytest.approx(1 + 1 / 1.5, abs=1e-4)


def test_extraction_exact_on_grid():
    grid = TimeGrid(stride=1.0, num_positions=100)
    d = make_distance_field(grid, [25.0])
    out = extract_boundaries(d, grid)
    assert np.allclose(out, [25.0], atol=1e-12)


def test_extraction_threshold_rejects_weak_crossing():
    grid = TimeGrid(stride=1.0, num_positions=4)
    out = extract_boundaries(np.array([-0.3, -0.2, 0.2, 0.3]), grid)
    assert out.size == 0


def test_extraction_multi_boundary_exactness():
    grid = TimeGrid(stride=1.0, num_positions=200)
    bounds = [20.0, 61.5, 103.0, 144.25, 185.0]
    d = make_distance_field(grid, bounds)
    out = extract_boundaries(d, grid)
    assert out.shape == (5,)
    assert np.max(np.abs(out - bounds)) < 1e-9


def test_extraction_stride_scaling():
    grid = TimeGrid(stride=4.0, num_positions=50)
    d = make_distance_field(grid, [100.0])
    out = extract_boundaries(d, grid)
    assert np.allclose(out, [100.0], atol=1e-9)


def test_nms_suppression_and_ties():
    assert nms_1d([(10, 2.0), (12, 1.0)], 5) == [10.0]
    assert nms_1d([(10, 2.0), (20, 1.0)], 5) == [10.0, 20.0]
    assert nms_1d([(12, 2.0), (10, 2.0)], 5) == [10.0]  # tie -> earlier


def test_nms_window_validation():
    with pytest.raises(ValueError):
        nms_1d([(0, 1.0)], 0)


@given(st.lists(st.tuples(st.floats(0, 100), st.floats(0.1, 5)),
                min_size=1, max_size=15))
@settings(max_examples=100, deadline=None)
def test_nms_spacing_property(cands):
    kept = nms_1d(cands, 5)
    for a, b in zip(kept, kept[1:]):
        assert b - a > 5


# --- classification peak ----------------------------------------------------

def test_peak_noiseless_kernel():
    grid = TimeGrid(stride=1.0, num_positions=60)
    phi = make_kernel_features(grid, 25.0, 2.0)
    assert classification_peak(phi, grid) == pytest.approx(25.0, abs=1e-9)


def test_peak_three_point_vertex():
    grid = TimeGrid(stride=1.0, num_positions=3)
    assert classification_peak([0.0, 1.0, 0.0], grid) == pytest.approx(1.0)


def test_peak_symmetric_five_points():
    grid = TimeGrid(stride=1.0, num_positions=5)
    out = classification_peak([0.0, 0.8, 1.0, 0.8, 0.0], grid)
    assert out == pytest.approx(2.0)


def test_peak_all_equal_raises():
    grid = TimeGrid(stride=1.0, num_positions=5)
    with pytest.raises(ValueError, match="no unique peak"):
        classification_peak(np.ones(5), grid)


def test_peak_smoothing_window_must_be_odd():
    with pytest.raises(ValueError):
        PeakConfig(smoothing_window=4)


def test_moving_average_simple():
    out = moving_average(np.array([0.0, 3.0, 0.0, 0.0]), 3)
    assert np.allclose(out, [1.0, 1.0, 1.0, 0.0])


def test_quadratic_peak_offset_clip_and_flat():
    assert quadratic_peak_offset(0.0, 0.0, 0.0) == 0.0
    assert abs(quadratic_peak_offset(0.9999, 1.0, 0.9)) <= 0.5


@pytest.mark.parametrize("window", range(1, 15))
def test_moving_average_batch_matches_per_row_convolve(window):
    rows = np.clip(np.random.default_rng(window).laplace(0.5, 0.5, (70, 40)),
                   0.0, 1.0)
    want = np.stack([np.convolve(r, np.ones(window) / window, mode="same")
                     for r in rows])
    got = moving_average(rows, window)
    assert got.shape == rows.shape
    assert np.max(np.abs(got - want)) <= 1e-15
    # one row alone gives the same values as the same row of the batch
    assert np.array_equal(moving_average(rows[3], window), got[3])


def test_quadratic_peak_offset_elementwise_over_arrays():
    rng = np.random.default_rng(12)
    ym, y0, yp = rng.uniform(0.0, 1.0, (3, 500))
    ym[:50] = y0[:50] = yp[:50] = 0.7  # flat: offset 0
    got = quadratic_peak_offset(ym, y0, yp)
    want = [quadratic_peak_offset(a, b, c) for a, b, c in zip(ym, y0, yp)]
    assert got.shape == (500,)
    assert np.array_equal(got, want)
    assert np.all(got[:50] == 0.0)
    assert type(quadratic_peak_offset(0.2, 1.0, 0.4)) is float
