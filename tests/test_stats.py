import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bdrlab import stats
from bdrlab.stats import (ExperimentSpec, blocked_bootstrap,
                          cls_variance_kappa_slope,
                          correlation_robustness, finite_sample_variance_check,
                          holm_bonferroni, loglog_slope,
                          pooled_boundary_estimate, run_trials, scaling_sweep,
                          variance_ratio, width_stratified_R)
from bdrlab.synth import NoiseSpec, TimeGrid


def _spec(**kw):
    base = dict(grid=TimeGrid(stride=1.0, num_positions=100), kappa=2.0,
                boundary=50.0, noise=NoiseSpec(scale=0.5), num_trials=50,
                master_seed=0)
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(num_trials=1)
    with pytest.raises(ValueError):
        _spec(boundary=500.0)
    for kappa in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="kappa"):
            _spec(kappa=kappa)
    # the peak search needs an interior sample with a neighbour on each side
    with pytest.raises(ValueError, match="num_positions"):
        _spec(grid=TimeGrid(stride=1.0, num_positions=2), boundary=1.0)


def test_run_trials_zero_noise_on_grid_is_exact():
    spec = _spec(noise=NoiseSpec(family="gaussian", scale=0.0))
    errs = run_trials(spec)
    # the fit and the zero crossing recover every sub-stride phase exactly
    assert np.array_equal(errs.bdr, np.zeros(spec.num_trials))
    # the peak search is exact when the truth lies on a grid sample
    on_grid = spec.boundary + np.arange(-5.0, 5.0)
    noise = np.zeros((len(on_grid), spec.grid.num_positions))
    assert np.allclose(stats._cls_errors(spec, on_grid, noise, 0), 0.0,
                       atol=1e-9)


def test_run_trials_deterministic():
    a = run_trials(_spec(master_seed=7))
    b = run_trials(_spec(master_seed=7))
    assert np.array_equal(a.bdr, b.bdr, equal_nan=True)
    assert np.array_equal(a.cls, b.cls)


def test_run_trials_is_a_prefix_of_a_longer_run():
    # trial k takes the k-th draw of each stream, so n trials are exactly
    # the first n trials of a 2n-trial run
    base = dict(noise=NoiseSpec(family="student_t"), master_seed=1)
    short = run_trials(_spec(num_trials=60, **base))
    long = run_trials(_spec(num_trials=120, **base))
    assert np.array_equal(short.bdr, long.bdr[:60], equal_nan=True)
    assert np.array_equal(short.cls, long.cls[:60])
    assert np.isnan(short.bdr).any()


def test_cls_errors_do_not_depend_on_chunk_size(monkeypatch):
    spec = _spec(kappa=4.0, num_trials=150, master_seed=5)
    truths, noise = stats._truths(spec), stats._noise_rows(spec, 2)
    a0, _ = stats._cls_band(spec)
    want = stats._cls_errors(spec, truths, noise, a0)
    # kappa 4 at stride 1 has a 32-column band: 7 trials per chunk
    monkeypatch.setattr(stats, "CLS_CHUNK_VALUES", 7 * 32)
    assert np.array_equal(stats._cls_errors(spec, truths, noise, a0), want)


@pytest.mark.parametrize("kappa", [0.25, 2.0, 16.0])
def test_cls_noise_columns_depend_on_neither_trials_nor_seed(kappa):
    spec = _spec(grid=TimeGrid(stride=2.0, num_positions=200), kappa=kappa,
                 boundary=200.0)
    a0, b0 = stats._cls_band(spec)
    for n in (2, 7, 500):
        for seed in (0, 1, 12345):
            rows = stats._noise_rows(replace(spec, num_trials=n,
                                             master_seed=seed), 2)
            assert rows.shape == (n, b0 - a0)


# kappa / dt of 1/8, 1 and 8 mid-grid, then bands cut by column 0 and T - 1
@pytest.mark.parametrize("kappa, boundary, band", [
    (0.25, 100.0, (49, 53)), (2.0, 100.0, (46, 56)), (16.0, 100.0, (20, 82)),
    (16.0, 1.0, (0, 32)), (16.0, 197.0, (69, 100))])
def test_cls_side_is_a_prefix_of_a_longer_run(kappa, boundary, band):
    grid = TimeGrid(stride=2.0, num_positions=100)
    spec = _spec(grid=grid, kappa=kappa, boundary=boundary,
                 noise=NoiseSpec(rho=0.6), num_trials=60, master_seed=4)
    assert stats._cls_band(spec) == band
    short = run_trials(spec)
    long = run_trials(replace(spec, num_trials=120))
    assert np.array_equal(short.cls, long.cls[:60])


@pytest.mark.parametrize("rho", [0.0, 0.6])
def test_band_rows_keep_the_noise_distribution(rho):
    # a band row starts stationary at its first column, so its values have
    # the variance and lag-1 correlation of those columns of full rows;
    # per-row statistics are independent across rows, which gives each
    # mean its Monte-Carlo standard error
    spec = _spec(grid=TimeGrid(stride=1.0, num_positions=200), kappa=8.0,
                 boundary=100.0, noise=NoiseSpec(rho=rho), num_trials=4000,
                 master_seed=6)
    a0, b0 = stats._cls_band(spec)
    band = stats._noise_rows(spec, 2)
    full = stats.sample_noise_matrix(spec.noise, (7, 2), spec.num_trials,
                                     200)[:, a0:b0]

    def per_row(x):
        var = np.mean(x ** 2, axis=1)
        lag1 = np.mean(x[:, 1:] * x[:, :-1], axis=1) / var
        return var, lag1

    for got, want in zip(per_row(band), per_row(full)):
        se = np.hypot(got.std(), want.std()) / np.sqrt(spec.num_trials)
        assert abs(got.mean() - want.mean()) <= 5 * se
    # and the variance is the Laplace family's 2 b^2 = 0.5 at b = 0.5
    var, _ = per_row(band)
    assert abs(var.mean() - 0.5) <= 5 * var.std() / np.sqrt(spec.num_trials)


@pytest.mark.parametrize("cells", [[(1.0, 1.0), (2.0, 2.0), (4.0, 4.0),
                                    (8.0, 8.0)],
                                   [(1.0, 2.0), (2.0, 8.0)]])
def test_cls_errors_depend_only_on_kappa_over_stride(cells):
    # in grid units the kernel, smoothing window and search radius read
    # kappa / dt alone, and every kappa <= dt/2 cell searches one sample,
    # so on the same draws the errors / dt agree bit for bit
    unit = _spec(grid=TimeGrid(stride=1.0, num_positions=200),
                 boundary=100.0, num_trials=300, master_seed=23)
    # the unit spec's kappa / dt of 2 has the widest band of these cells
    truths, noise = stats._truths(unit), stats._noise_rows(unit, 2)
    a0, _ = stats._cls_band(unit)
    scaled = [stats._cls_errors(
        replace(unit, grid=TimeGrid(stride=dt, num_positions=200),
                kappa=kappa, boundary=100.0 * dt), truths * dt, noise, a0) / dt
        for kappa, dt in cells]
    for errors in scaled[1:]:
        assert np.array_equal(errors, scaled[0])


def test_run_trials_seed_changes_results():
    a = run_trials(_spec(master_seed=7))
    b = run_trials(_spec(master_seed=8))
    assert not np.array_equal(a.cls, b.cls)


def test_variance_ratio_identities():
    e = np.random.default_rng(0).normal(0, 1, 200)
    rep = variance_ratio(e, e)
    assert rep.ratio_R == pytest.approx(1.0)
    assert rep.ci_low <= rep.ratio_R <= rep.ci_high
    rep = variance_ratio(0.5 * e, e)
    assert rep.ratio_R == pytest.approx(0.25)


def test_variance_ratio_degenerate_denominator():
    with pytest.raises(ValueError, match="degenerate"):
        variance_ratio(np.ones(40), np.zeros(40))


def test_blocked_bootstrap_identical_groups():
    groups = [np.full(10, 2.0)] * 5
    lo, hi = blocked_bootstrap([[g.sum(), g.size] for g in groups], 200, seed=0)
    assert lo == hi == pytest.approx(2.0)


def test_blocked_bootstrap_deterministic_and_validated():
    groups = [np.random.default_rng(k).normal(size=10) for k in range(8)]
    totals = [[g.sum(), g.size] for g in groups]
    a = blocked_bootstrap(totals, 500, seed=3)
    b = blocked_bootstrap(totals, 500, seed=3)
    assert a == b
    with pytest.raises(ValueError):
        blocked_bootstrap(totals[:1], 100, seed=0)


def test_holm_bonferroni():
    assert np.allclose(holm_bonferroni([0.01, 0.04]), [0.02, 0.04])
    assert np.allclose(holm_bonferroni([0.2]), [0.2])
    assert np.allclose(holm_bonferroni([1.0, 1.0, 1.0]), 1.0)
    # monotonicity enforcement: adjusted values keep the input ordering
    adj = holm_bonferroni([0.01, 0.011, 0.012, 0.5])
    assert np.all(np.diff(adj[np.argsort([0.01, 0.011, 0.012, 0.5])]) >= 0)
    with pytest.raises(ValueError):
        holm_bonferroni([1.2])


def test_holm_bonferroni_rejects_nan():
    with pytest.raises(ValueError):
        holm_bonferroni([0.1, np.nan])


def test_loglog_slope_exact_power_laws():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    s, _, r2 = loglog_slope(x, x)
    assert s == pytest.approx(1.0) and r2 == pytest.approx(1.0)
    s, _, _ = loglog_slope(x, 3.0 * x**2)
    assert s == pytest.approx(2.0)
    with pytest.raises(ValueError):
        loglog_slope([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        loglog_slope([1.0, -1.0, 2.0], [1.0, 1.0, 1.0])


def test_loglog_slope_needs_two_distinct_x():
    # a rank-1 fit would report a slope with r^2 = 1
    for x in ([2.0, 2.0, 2.0], [1.0, 1.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match="distinct"):
            loglog_slope(x, [1.0, 2.0, 3.0, 4.0][:len(x)])
    s, _, r2 = loglog_slope([2.0, 2.0, 4.0], [1.0, 1.0, 2.0])
    assert s == pytest.approx(1.0) and r2 == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_loglog_slope_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        loglog_slope([1.0, 2.0, 4.0], [1.0, bad, 3.0])
    with pytest.raises(ValueError, match="finite"):
        loglog_slope([1.0, bad, 4.0], [1.0, 2.0, 3.0])


def test_width_stratified_bins():
    rows = [(1.0, 2.0, 0.9), (3.0, 2.0, 0.5), (5.0, 2.0, 0.4), (9.0, 2.0, 0.2)]
    out = width_stratified_R(rows)
    assert out == [0.9, 0.5, 0.4, 0.2]
    out = width_stratified_R([(1.0, 2.0, 0.7)])
    assert out == [0.7, None, None, None]
    with pytest.raises(ValueError):
        width_stratified_R([(0.0, 1.0, 0.5)])


@pytest.mark.parametrize("row", [(np.nan, 1.0, 1.0), (1.0, np.nan, 1.0),
                                 (1.0, 1.0, np.nan), (np.inf, 1.0, 1.0)])
def test_width_stratified_rejects_non_finite(row):
    with pytest.raises(ValueError, match="finite"):
        width_stratified_R([row])


def test_correlation_rho_zero_matches_baseline():
    spec = _spec(num_trials=200, kappa=4.0)
    out = correlation_robustness(spec, [0.0])
    errs = run_trials(spec)
    rep = variance_ratio(errs.bdr, errs.cls, seed=spec.master_seed)
    assert out[0.0] == pytest.approx(rep.ratio_R)


def test_pooled_estimate_recovers_boundary_exactly_without_noise():
    grid = TimeGrid(stride=1.0, num_positions=50)
    t = grid.times()
    est = pooled_boundary_estimate(t - 20.25, grid)
    assert est == pytest.approx(20.25)


def test_finite_sample_degenerate_sentinel():
    spec = _spec(noise=NoiseSpec(family="gaussian", scale=0.0), num_trials=20)
    out, variances = finite_sample_variance_check(spec, [50, 100, 200])
    assert out == "degenerate"
    assert all(v == 0 for v in variances.values())


@pytest.mark.parametrize("dt", [2.0, 4.0, 8.0])
def test_distance_errors_scale_with_stride_bit_for_bit(dt):
    # the grid-unit problem does not depend on the stride, which is what
    # lets sweep_errors fit the distance side once, on a stride-1 grid: at
    # a power-of-two stride a fit on the cell's own grid gives the same
    # errors
    spec = _spec(grid=TimeGrid(stride=dt, num_positions=100),
                 boundary=50.0 * dt, noise=NoiseSpec(family="student_t"),
                 num_trials=60, master_seed=1)
    truths, dhat = stats._fit_distance_side(spec)
    own_grid = stats._nearest_crossing_errors(dhat, truths, spec.grid)
    assert np.isnan(own_grid).any()
    assert np.array_equal(run_trials(spec).bdr, own_grid, equal_nan=True)


# a resolved cell and one whose window holds one sample (kappa <= dt/2)
@pytest.mark.parametrize("kappa, dt", [(3.0, 2.0), (0.5, 1.0)])
def test_run_trials_depends_only_on_kappa_over_stride(kappa, dt):
    # doubling kappa and the stride together doubles every error on both
    # sides, so R and its CI stay the same bit for bit
    def cell(k, s):
        spec = _spec(grid=TimeGrid(stride=s, num_positions=100), kappa=k,
                     boundary=50.0 * s, noise=NoiseSpec(family="student_t"),
                     num_trials=400, master_seed=5)
        errs = run_trials(spec)
        return errs, variance_ratio(errs.bdr, errs.cls, seed=5)

    (a, rep_a), (b, rep_b) = cell(kappa, dt), cell(2 * kappa, 2 * dt)
    assert np.isnan(a.bdr).any()
    assert np.array_equal(b.bdr, 2 * a.bdr, equal_nan=True)
    assert np.array_equal(b.cls, 2 * a.cls)
    assert (rep_b.ratio_R, rep_b.ci_low, rep_b.ci_high) == (
        rep_a.ratio_R, rep_a.ci_low, rep_a.ci_high)


def test_sweep_shares_the_distance_side_across_cells():
    cells, *_ = scaling_sweep([1.0, 2.0], [1.0, 2.0, 4.0], 80,
                              NoiseSpec(family="student_t"), 60,
                              master_seed=11)
    unit = {c["kappa"]: c for c in cells if c["stride"] == 1.0}
    for c in cells:
        want = c["stride"] ** 2 * unit[c["kappa"]]["var_bdr"]
        assert c["var_bdr"] == pytest.approx(want, rel=1e-12)
    assert len({c["failures"] for c in cells}) == 1
    assert cells[0]["failures"] > 0
    # the classification side still draws its own noise per cell
    assert unit[1.0]["var_cls"] != unit[2.0]["var_cls"]


def test_kappa_slope_draws_the_noise_once(monkeypatch):
    drawn = []
    sample = stats.sample_noise_matrix
    monkeypatch.setattr(stats, "sample_noise_matrix",
                        lambda *args: drawn.append(1) or sample(*args))
    base = _spec(num_trials=300, master_seed=9)
    _, variances = cls_variance_kappa_slope(base, [2.0, 8.0, 1.0, 4.0])
    assert len(drawn) == 1
    # the one draw is the widest kappa's band, so that kappa matches
    # run_trials, and every kappa reads its errors off the shared draw
    widest = replace(base, kappa=8.0)
    assert variances[8.0] == np.mean(run_trials(widest).cls ** 2)
    truths, noise = stats._truths(base), stats._noise_rows(widest, 2)
    a0, _ = stats._cls_band(widest)
    for kappa, v in variances.items():
        errs = stats._cls_errors(replace(base, kappa=kappa), truths, noise, a0)
        assert v == np.mean(errs ** 2)


@pytest.mark.parametrize("kappas", [[], [1.0, 2.0]])
def test_kappa_slope_needs_three_kappas(kappas):
    with pytest.raises(ValueError, match="3 kappas"):
        cls_variance_kappa_slope(_spec(), kappas)


def test_classification_side_memory_stays_chunked():
    # the batched classification side holds a few chunk-sized temporaries,
    # never copies of the whole (trials, positions) matrix
    spec = _spec(grid=TimeGrid(stride=1.0, num_positions=200), kappa=8.0,
                 boundary=100.0, num_trials=10_000)
    truths, noise = stats._truths(spec), stats._noise_rows(spec, 2)
    tracemalloc.start()
    try:
        stats._cls_errors(spec, truths, noise, stats._cls_band(spec)[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < noise.nbytes + 2 * 2**20
