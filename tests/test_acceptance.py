"""End-to-end acceptance gates for the estimation lab.

The Monte-Carlo checks share one full-scale sweep (10^4 trials per cell),
computed once per session, and carry the `slow` marker: they take about
16 s on a 2-core VM (Python 3.11, numpy 2.4), the shared sweep 1.9 s of
that, and the rest of the file under 1 s. `pytest -m "not slow"` skips
them.
"""

import numpy as np
import pytest

from bdrlab.atr import (HysteresisConfig, apply_hysteresis, blend_residual,
                        expected_tau, flip_rate, per_layer_pruned_cost,
                        prune_mask, total_flops)
from bdrlab.calib import heteroscedastic_loss, r_ece
from bdrlab.cli import main as cli_main, tau_scenario
from bdrlab.estimators import (BDRLossConfig, bdr_loss_smoothed,
                               bdr_loss_smoothed_grad, extract_boundaries)
from bdrlab.stats import (ExperimentSpec, blocked_bootstrap,
                          cls_variance_kappa_slope, correlation_robustness,
                          finite_sample_variance_check, holm_bonferroni,
                          run_trials, scaling_sweep, variance_ratio,
                          width_stratified_R)
from bdrlab.synth import NoiseSpec, TimeGrid, make_distance_field

KAPPAS = [1.0, 2.0, 4.0, 8.0]
STRIDES = [1.0, 2.0, 4.0, 8.0]
TRIALS = 10_000


@pytest.fixture(scope="module")
def full_sweep():
    return scaling_sweep(KAPPAS, STRIDES, 200, NoiseSpec(), TRIALS,
                         master_seed=1000)


@pytest.mark.slow
def test_variance_ratio_scaling_law(full_sweep):
    cells, slope, _, r2, _ = full_sweep
    assert len(cells) == 16
    assert 0.8 <= slope <= 1.3
    assert r2 >= 0.6


@pytest.mark.slow
def test_width_stratified_monotonicity(full_sweep):
    cells, *_ = full_sweep
    rows = [(2 * c["kappa"], c["stride"], c["R"]) for c in cells]
    # the powers-of-2 sweep never lands in the third bin (2dt < W <= 3dt);
    # two extra cells with W/dt = 3 populate it
    for i, (kappa, dt) in enumerate([(3.0, 2.0), (6.0, 4.0)]):
        spec = ExperimentSpec(
            grid=TimeGrid(stride=dt, num_positions=200), kappa=kappa,
            boundary=100 * dt, noise=NoiseSpec(), num_trials=TRIALS,
            master_seed=2000 + i)
        errs = run_trials(spec)
        rep = variance_ratio(errs.bdr, errs.cls, seed=spec.master_seed)
        rows.append((2 * kappa, dt, rep.ratio_R))
    bins = width_stratified_R(rows)
    assert all(b is not None for b in bins)
    assert 0.8 <= bins[0] <= 1.2
    assert bins[0] > bins[1] > bins[2] > bins[3]


@pytest.mark.slow
def test_variance_scaling_in_sequence_length_and_kappa():
    base = ExperimentSpec(grid=TimeGrid(stride=1.0, num_positions=200),
                          kappa=4.0, boundary=100.0, noise=NoiseSpec(),
                          num_trials=4000, master_seed=300)
    slope_T, _ = finite_sample_variance_check(base, [50, 100, 200, 400])
    assert -1.3 <= slope_T <= -0.7

    base_cls = ExperimentSpec(grid=TimeGrid(stride=1.0, num_positions=200),
                              kappa=1.0, boundary=100.0, noise=NoiseSpec(),
                              num_trials=6000, master_seed=70)
    slope_k, _ = cls_variance_kappa_slope(base_cls, KAPPAS)
    assert 0.7 <= slope_k <= 1.3


@pytest.mark.slow
def test_correlation_robustness():
    base = ExperimentSpec(grid=TimeGrid(stride=1.0, num_positions=200),
                          kappa=4.0, boundary=100.0, noise=NoiseSpec(),
                          num_trials=TRIALS, master_seed=4000)
    R = correlation_robustness(base, [0.0, 0.3, 0.6, 0.9])
    assert abs(R[0.3] / R[0.0] - 1) < 0.25
    assert abs(R[0.6] / R[0.0] - 1) < 0.25
    assert R[0.9] > R[0.6]


def test_cost_model_arithmetic():
    assert per_layer_pruned_cost(0.8) == pytest.approx(8.68, abs=0.01)
    assert total_flops(0.8, 0.16) == pytest.approx(156.2, abs=0.5)
    buckets = [(1247, 0.24), (2103, 0.16), (891, 0.09), (327, 0.05)]
    assert expected_tau(buckets) == pytest.approx(0.160, abs=5e-4)


def test_zero_crossing_extraction_exactness():
    grid = TimeGrid(stride=1.0, num_positions=300)
    bounds = [30.0, 88.5, 151.25, 210.0, 272.75]
    out = extract_boundaries(make_distance_field(grid, bounds), grid)
    assert out.shape == (5,)
    assert np.max(np.abs(out - bounds)) < 1e-9
    small = TimeGrid(stride=1.0, num_positions=4)
    out = extract_boundaries(np.array([-2.0, -1.0, 0.5, 1.5]), small)
    assert out[0] == pytest.approx(1.6667, abs=1e-4)


def test_hysteresis_stability():
    cfg = HysteresisConfig(gamma=0.05, mode="hold_previous")
    tau = tau_scenario(10_000, 0.84, 0.2, seed=123)
    raw = flip_rate(tau)
    stab = apply_hysteresis(tau, cfg)
    assert flip_rate(stab) <= 0.7 * raw
    assert abs(np.mean(stab) - np.mean(tau)) < 0.02
    assert np.array_equal(apply_hysteresis(stab, cfg), stab)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x = rng.uniform(0, 1, rng.integers(2, 40))
        assert flip_rate(apply_hysteresis(x, cfg)) <= flip_rate(x)


def test_pruning_guard_retention():
    grid = TimeGrid(stride=1.0, num_positions=200)
    t = grid.times()
    rng = np.random.default_rng(11)
    for keep in (0.5, 0.8, 1.0):
        for _ in range(50):
            bounds = rng.uniform(0, 199, size=rng.integers(1, 5))
            imp = rng.normal(size=200)
            mask = prune_mask(imp, keep, bounds, grid)
            for b in bounds:
                assert np.all(mask[np.abs(t - b) <= 12.0])


def test_calibration_identities():
    rng = np.random.default_rng(21)
    s = np.exp(rng.uniform(np.log(0.2), np.log(5.0), 10**5))
    e = rng.normal(0.0, s)
    assert r_ece(e, s) < 0.01
    assert r_ece(e, 2.0 * s) == pytest.approx(0.273, abs=0.01)
    # per-position optimum of the heteroscedastic loss at sigma^2 = residual^2
    r = 1.7
    grid = np.linspace(0.05 * r**2, 8 * r**2, 20_000)
    vals = [heteroscedastic_loss([r], [0.0], [v]) for v in grid]
    assert grid[int(np.argmin(vals))] == pytest.approx(r**2, rel=0.01)


def test_loss_and_blend_gradients():
    rng = np.random.default_rng(31)
    cfg = BDRLossConfig(alpha=0.25, huber_delta=0.05)
    d = rng.normal(0, 2, 40)
    dh = rng.normal(0, 2, 40)
    g = bdr_loss_smoothed_grad(d, dh, cfg=cfg)
    eps = 1e-5
    for i in rng.choice(40, size=100):
        e = np.zeros(40)
        e[i] = eps
        num = (bdr_loss_smoothed(d, dh + e, cfg=cfg)
               - bdr_loss_smoothed(d, dh - e, cfg=cfg)) / (2 * eps)
        assert abs(g[i] - num) <= 1e-4 * max(abs(num), 1e-3)
    s, dp, t = rng.normal(size=(3, 25))
    t = 1 / (1 + np.exp(-t))
    num = (blend_residual(s, dp, t + eps) - blend_residual(s, dp, t - eps)) / (2 * eps)
    assert np.max(np.abs(num - (dp - s))) < 1e-8


def test_statistics_utilities():
    assert np.allclose(holm_bonferroni([0.01, 0.04]), [0.02, 0.04])
    rng = np.random.default_rng(99)
    hits = 0
    meta = 500
    for m in range(meta):
        groups = [rng.normal(0.0, 1.0, 1) for _ in range(50)]
        lo, hi = blocked_bootstrap([[g.sum(), g.size] for g in groups], 1000,
                                   seed=m)
        hits += (lo <= 0.0 <= hi)
    assert abs(hits / meta - 0.95) <= 0.03


def test_cli_determinism(tmp_path):
    outs = []
    for name in ("run", "rerun"):
        path = tmp_path / f"{name}.csv"
        code = cli_main(["scaling", "--kappas", "1,2", "--strides", "1,2",
                         "--trials", "80", "--seed", "17",
                         "--num-positions", "80", "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    rerun = tmp_path / "rerun.json"
    for _ in range(2):
        assert cli_main(["calib", "--seed", "3", "--samples", "3000",
                         "--format", "json", "--out", str(rerun)]) == 0
        outs.append(rerun.read_bytes())
    assert outs[2] == outs[3]


@pytest.mark.slow
def test_bdr_estimator_bias_is_negligible():
    # unbiasedness at desk scale: over one stride-1 cell's 10^4 trials the
    # mean distance error, failures left out, is within 0.05 frames of 0
    spec = ExperimentSpec(grid=TimeGrid(stride=1.0, num_positions=200),
                          kappa=2.0, boundary=100.0, noise=NoiseSpec(),
                          num_trials=TRIALS, master_seed=55)
    errs = run_trials(spec)
    e = errs.bdr[np.isfinite(errs.bdr)]
    assert abs(np.mean(e)) < 0.05
