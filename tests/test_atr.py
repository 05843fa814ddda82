import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdrlab.atr import (HysteresisConfig, apply_hysteresis, blend_residual,
                        calibrate_tau_offset, expected_tau, flip_rate,
                        per_layer_pruned_cost, prune_mask, sparsity_penalties,
                        surrogate_tau, total_flops)
from bdrlab.synth import TimeGrid

traces = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=60).map(np.array)


# --- blending ---------------------------------------------------------------

def test_blend_endpoints_and_midpoint():
    s = np.zeros(4)
    d = np.full(4, 10.0)
    assert np.allclose(blend_residual(s, d, np.zeros(4)), s)
    assert np.allclose(blend_residual(s, d, np.ones(4)), d)
    assert np.allclose(blend_residual(s, d, np.full(4, 0.16)), 1.6)


def test_blend_length_mismatch():
    with pytest.raises(ValueError):
        blend_residual(np.zeros(3), np.zeros(4), np.zeros(3))


def test_blend_derivative_is_deep_minus_shallow():
    rng = np.random.default_rng(1)
    s, d, t = rng.normal(size=(3, 20))
    t = 1 / (1 + np.exp(-t))
    eps = 1e-6
    num = (blend_residual(s, d, t + eps) - blend_residual(s, d, t - eps)) / (2 * eps)
    assert np.max(np.abs(num - (d - s))) < 1e-8


@given(traces, traces.map(lambda x: x))
@settings(max_examples=50, deadline=None)
def test_blend_boundedness(s, t):
    n = min(len(s), len(t))
    s, t = s[:n], t[:n]
    d = 1.0 - s
    out = blend_residual(s, d, t)
    assert np.all(out >= -1e-12) and np.all(out <= 1 + 1e-12)


# --- hysteresis -------------------------------------------------------------

def test_hold_previous_worked_example():
    out = apply_hysteresis(np.array([0.30, 0.33, 0.40]),
                           HysteresisConfig(gamma=0.05))
    assert np.allclose(out, [0.30, 0.30, 0.40])


def test_gamma_zero_is_identity():
    x = np.array([0.1, 0.5, 0.9, 0.2])
    for mode in ("hold_previous", "deadzone_half"):
        out = apply_hysteresis(x, HysteresisConfig(gamma=0.0, mode=mode))
        assert np.array_equal(out, x)


def test_deadzone_snaps_to_half():
    out = apply_hysteresis(np.array([0.46, 0.54, 0.7]),
                           HysteresisConfig(gamma=0.05, mode="deadzone_half"))
    assert np.allclose(out, [0.5, 0.5, 0.7])


@given(traces, st.floats(0.0, 0.3))
@settings(max_examples=200, deadline=None)
def test_hysteresis_idempotent_both_modes(x, gamma):
    for mode in ("hold_previous", "deadzone_half"):
        cfg = HysteresisConfig(gamma=gamma, mode=mode)
        once = apply_hysteresis(x, cfg)
        assert np.array_equal(apply_hysteresis(once, cfg), once)


@given(traces, st.floats(0.0, 0.3))
@settings(max_examples=200, deadline=None)
def test_hold_previous_never_increases_flips(x, gamma):
    # deadzone_half has no such guarantee: snapping a sub-0.5 value onto 0.5
    # moves it to the high side (0.5 counts as high) and can create a flip
    # against an out-of-band low neighbour, e.g. [0.48, 0.40] with gamma=0.05
    cfg = HysteresisConfig(gamma=gamma, mode="hold_previous")
    assert flip_rate(apply_hysteresis(x, cfg)) <= flip_rate(x) + 1e-12


def test_deadzone_flip_increase_counterexample():
    x = np.array([0.48, 0.40])
    cfg = HysteresisConfig(gamma=0.05, mode="deadzone_half")
    assert flip_rate(x) == 0.0
    assert flip_rate(apply_hysteresis(x, cfg)) == 1.0


def test_flip_rate_examples():
    assert flip_rate(np.full(10, 0.3)) == 0.0
    assert flip_rate(np.array([0.4, 0.6] * 5)) == 1.0
    assert flip_rate(np.array([0.4, 0.6, 0.6, 0.4])) == pytest.approx(2 / 3)
    # 0.5 counts as the high side
    assert flip_rate(np.array([0.5, 0.6])) == 0.0
    assert flip_rate(np.array([0.49, 0.5])) == 1.0


def test_flip_rate_length_check():
    with pytest.raises(ValueError):
        flip_rate(np.array([0.5]))


def test_hysteresis_config_validation():
    with pytest.raises(ValueError):
        HysteresisConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        HysteresisConfig(mode="other")


# --- tau surrogate ----------------------------------------------------------

def test_surrogate_scale_zero_constant():
    tau = surrogate_tau(np.array([0.1, 1.0, 10.0]), 0.0, 0.3)
    assert np.allclose(tau, 1 / (1 + np.exp(-0.3)))


def test_surrogate_monotone_in_uncertainty():
    u = np.array([1.0, 2.0, 1.0])
    tau = surrogate_tau(u, 0.7, 0.0)
    assert tau[1] > tau[0]


def test_surrogate_rejects_nonpositive():
    with pytest.raises(ValueError):
        surrogate_tau(np.array([1.0, 0.0]), 1.0, 0.0)


def test_calibrated_offset_hits_target_mean():
    rng = np.random.default_rng(2)
    u = np.exp(rng.normal(0, 1, 5000))
    off = calibrate_tau_offset(u, 0.8, 0.16)
    assert np.mean(surrogate_tau(u, 0.8, off)) == pytest.approx(0.16, abs=1e-3)


# --- pruning ----------------------------------------------------------------

def test_prune_keep_all():
    g = TimeGrid(stride=1.0, num_positions=10)
    m = prune_mask(np.arange(10.0), 1.0, [], g)
    assert np.all(m)


def test_prune_equal_importance_earliest_ties():
    g = TimeGrid(stride=1.0, num_positions=10)
    m = prune_mask(np.ones(10), 0.8, [], g)
    assert np.array_equal(np.nonzero(m)[0], np.arange(8))


def test_prune_guard_overrides_importance():
    g = TimeGrid(stride=1.0, num_positions=100)
    imp = np.zeros(100)
    imp[:50] = 1.0  # low importance everywhere near the boundary
    m = prune_mask(imp, 0.5, [50.0], g)
    assert np.all(m[38:63])


@given(st.lists(st.integers(0, 99), min_size=0, max_size=4),
       st.sampled_from([0.5, 0.8, 1.0]), st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_prune_guard_exhaustive(bounds, keep, seed):
    g = TimeGrid(stride=1.0, num_positions=100)
    imp = np.random.default_rng(seed).normal(size=100)
    m = prune_mask(imp, keep, bounds, g)
    assert np.count_nonzero(m) >= int(np.floor(keep * 100))
    t = g.times()
    for b in bounds:
        assert np.all(m[np.abs(t - b) <= 12.0])


def test_sparsity_penalties():
    # lambda_c = 0.05, lambda_p = 0.01
    assert sparsity_penalties(np.zeros(5), np.ones(5)) == (0.0, 0.01)
    c, _ = sparsity_penalties(np.ones(5), np.ones(5))
    assert c == pytest.approx(0.05)
    c, _ = sparsity_penalties(np.full(5, 0.16), np.ones(5))
    assert c == pytest.approx(0.008)


# --- cost model -------------------------------------------------------------

def test_expected_tau_paper_buckets():
    buckets = [(1247, 0.24), (2103, 0.16), (891, 0.09), (327, 0.05)]
    assert expected_tau(buckets) == pytest.approx(0.160, abs=5e-4)
    assert expected_tau([(7, 0.42)]) == pytest.approx(0.42)
    assert expected_tau([(3, 0.0), (3, 1.0)]) == pytest.approx(0.5)


def test_expected_tau_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        expected_tau([(0, 0.5)])


def test_per_layer_pruned_cost():
    assert per_layer_pruned_cost(0.8) == pytest.approx(8.68, abs=0.01)
    assert per_layer_pruned_cost(1.0) == pytest.approx(12.33)
    assert per_layer_pruned_cost(0.0) == 0.0


def test_total_flops():
    assert total_flops(0.8, 0.16) == pytest.approx(156.2, abs=0.5)
    assert total_flops(0.8, 0.0) == pytest.approx(146.5, abs=0.1)
    nine_layer = 124.0 + 9 * 12.33 + 5.0 + 0.12
    assert total_flops(1.0, 1.0) == pytest.approx(nine_layer)


def test_total_flops_monotone():
    taus = np.linspace(0, 1, 11)
    vals = [total_flops(0.8, t) for t in taus]
    assert np.all(np.diff(vals) > 0)
    keeps = np.linspace(0.1, 1.0, 10)
    vals = [total_flops(k, 0.16) for k in keeps]
    assert np.all(np.diff(vals) > 0)


def test_total_flops_tau_range():
    with pytest.raises(ValueError):
        total_flops(0.8, 1.5)


@pytest.mark.parametrize("keep", [-1.0, -1e-9, 1.0 + 1e-9, 2.0, float("nan")])
def test_flops_model_rejects_keep_ratio_outside_unit_interval(keep):
    with pytest.raises(ValueError, match="keep_ratio"):
        per_layer_pruned_cost(keep)
    with pytest.raises(ValueError, match="keep_ratio"):
        total_flops(keep, 0.16)
    # pruning needs a positive quota, so it also refuses a keep ratio of 0
    g = TimeGrid(stride=1.0, num_positions=10)
    for bad in (keep, 0.0):
        with pytest.raises(ValueError, match="keep_ratio"):
            prune_mask(np.ones(10), bad, [], g)
