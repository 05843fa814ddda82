import re
import tracemalloc
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest

from bdrlab import stats
from bdrlab.estimators import EXTRACT_THETA_GRAD
from bdrlab.stats import (ExperimentSpec, blocked_bootstrap,
                          cls_variance_kappa_slope,
                          correlation_robustness, finite_sample_variance_check,
                          holm_bonferroni, loglog_slope,
                          pooled_boundary_estimate, run_trials, scaling_sweep,
                          sweep_errors, variance_ratio, variance_ratios,
                          width_stratified_R)
from bdrlab.synth import KAPPA_MAX, KAPPA_MIN, NoiseSpec, TimeGrid


def _spec(**kw):
    base = dict(grid=TimeGrid(stride=1.0, num_positions=100), kappa=2.0,
                boundary=50.0, noise=NoiseSpec(scale=0.5), num_trials=50,
                master_seed=0)
    base.update(kw)
    return ExperimentSpec(**base)


def _cls_noise(spec):
    """The spec's classification noise: stream 2 over its _cls_band."""
    return stats._cls_draw(spec)[0]


def _recorded_distance_side(spec):
    """(fits, truths, errors): the spec's distance side as sweep_errors
    reads it, with the fitted rows its readout was given."""
    fits = []

    def readout(dhat, truths, grid):
        fits.append(dhat)
        return stats._nearest_crossing(dhat, truths, grid)
    truths, errors = stats._distance_errors(spec, readout)
    return fits[0], truths, errors


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(num_trials=1)
    with pytest.raises(ValueError):
        _spec(boundary=500.0)
    # the kappas make_kernel_features takes, so one it refuses fails
    # before any fit
    assert _spec(kappa=KAPPA_MIN).kappa == KAPPA_MIN
    assert _spec(kappa=KAPPA_MAX).kappa == KAPPA_MAX
    for kappa in (0.0, -1.0, float("inf"), float("nan"),
                  float(np.nextafter(KAPPA_MIN, 0.0)),
                  float(np.nextafter(KAPPA_MAX, np.inf))):
        with pytest.raises(ValueError, match=re.escape(
                "kappa must be in [1.05e-154, 9.48e+153]")):
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
    truths, (noise, a0) = stats._truths(spec), stats._cls_draw(spec)
    want = stats._cls_errors(spec, truths, noise, a0)
    # kappa 4 at stride 1 has a 32-column band: 7 trials per chunk
    monkeypatch.setattr(stats, "CLS_CHUNK_VALUES", 7 * 32)
    assert np.array_equal(stats._cls_errors(spec, truths, noise, a0), want)


@pytest.mark.parametrize("kappa", [0.25, 2.0, 16.0])
def test_cls_noise_columns_depend_on_neither_trials_nor_seed(kappa):
    spec = _spec(grid=TimeGrid(stride=2.0, num_positions=200), kappa=kappa,
                 boundary=100.0)
    a0, b0 = stats._cls_band(spec)
    for n in (2, 7, 500):
        for seed in (0, 1, 12345):
            rows = _cls_noise(replace(spec, num_trials=n, master_seed=seed))
            assert rows.shape == (n, b0 - a0)


# kappa / dt of 1/8, 1 and 8 mid-grid, then bands cut by column 0 and T - 1;
# each id names its case by kappa and the frame its prior support starts at,
# boundary * dt
@pytest.mark.parametrize("kappa, boundary, band", [
    pytest.param(0.25, 50.0, (49, 53), id="0.25-100.0-band0"),
    pytest.param(2.0, 50.0, (46, 56), id="2.0-100.0-band1"),
    pytest.param(16.0, 50.0, (20, 82), id="16.0-100.0-band2"),
    pytest.param(16.0, 0.5, (0, 32), id="16.0-1.0-band3"),
    pytest.param(16.0, 98.5, (69, 100), id="16.0-197.0-band4")])
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
    band = _cls_noise(spec)
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
    base = _spec(grid=TimeGrid(stride=1.0, num_positions=200),
                 boundary=100.0, num_trials=300, master_seed=23)
    # the base spec's kappa / dt of 2 has the widest band of these cells
    truths, (noise, a0) = stats._truths(base), stats._cls_draw(base)
    scaled = [stats._cls_errors(
        replace(base, grid=TimeGrid(stride=dt, num_positions=200),
                kappa=kappa), truths * dt, noise, a0) / dt
        for kappa, dt in cells]
    for errors in scaled[1:]:
        assert np.array_equal(errors, scaled[0])


def _spy_cls_work(monkeypatch):
    """(drawn, built): the master seed of every stream-2 draw and the kappa
    of every feature build that stats makes from now on."""
    drawn, built = [], []
    sample, features = stats.sample_noise_matrix, stats.make_kernel_features

    def spy_sample(noise, seed, *args):
        if seed[1] == 2:
            drawn.append(seed[0])
        return sample(noise, seed, *args)

    def spy_features(grid, center, kappa, cols):
        built.append(kappa)
        return features(grid, center, kappa, cols)

    monkeypatch.setattr(stats, "sample_noise_matrix", spy_sample)
    monkeypatch.setattr(stats, "make_kernel_features", spy_features)
    return drawn, built


@pytest.mark.parametrize("dt, noise", [
    (2.0, NoiseSpec()),
    (0.7, NoiseSpec(family="student_t", nu=1.2, scale=1.0, rho=0.6))])
def test_one_sample_sweep_cells_draw_and_build_nothing(monkeypatch, dt,
                                                       noise):
    # kappa <= dt/2 searches one sample per truth, whose first maximum is
    # that sample whatever the noise, so those cells skip stream 2 and the
    # features and still give _cls_errors' errors on a real draw
    kappas = [0.25 * dt, 0.5 * dt, 2.0 * dt]
    specs = [_spec(grid=TimeGrid(stride=dt, num_positions=100), kappa=kappa,
                   noise=noise, num_trials=200, master_seed=40 + i)
             for i, kappa in enumerate(kappas)]
    drawn, built = _spy_cls_work(monkeypatch)
    errors = sweep_errors(specs)
    assert drawn == [42] and set(built) == {2.0 * dt}
    truths = stats._truths(specs[0])
    for spec, errs in zip(specs, errors):
        lo, hi = stats._windows(spec, truths, stats._readout(spec)[1])
        assert np.all(hi - lo == 1) == (spec.kappa <= dt / 2)
        want = stats._cls_errors(spec, truths, *stats._cls_draw(spec))
        assert errs.cls.tobytes() == want.tobytes()


def test_a_drawing_sweep_cell_computes_its_readout_once(monkeypatch):
    # the windows, the band, each chunk's reach and the readout all take
    # the cell's one (m, r); five calls per cell before
    spec = _spec(num_trials=300, master_seed=5)
    truths = stats._truths(spec)
    want = stats._cls_errors(spec, truths, *stats._cls_draw(spec))
    real, calls = stats._readout, []
    monkeypatch.setattr(stats, "_readout",
                        lambda s: calls.append(s) or real(s))
    monkeypatch.setattr(stats, "CLS_CHUNK_VALUES", 500)  # several chunks
    got = stats._sweep_cls_errors(spec, truths)
    assert calls == [spec]
    assert got.tobytes() == want.tobytes()


def test_a_truth_on_a_half_stride_searches_two_samples_and_draws(
        monkeypatch):
    # (50.5 - 0.5) * 2 / 2 and (50.5 + 0.5) * 2 / 2 are exact, so the
    # window of truth 7 holds samples 50 and 51, and its cell draws
    spec = _spec(grid=TimeGrid(stride=2.0, num_positions=100), kappa=1.0,
                 num_trials=200, master_seed=8)
    truths = stats._truths(spec)
    truths[7] = 50.5 * 2.0
    lo, hi = stats._windows(spec, truths, stats._readout(spec)[1])
    assert (hi - lo)[7] == 2 and np.all(np.delete(hi - lo, 7) == 1)
    drawn, built = _spy_cls_work(monkeypatch)
    got = stats._sweep_cls_errors(spec, truths)
    assert drawn == [8] and built == [1.0]
    want = stats._cls_errors(spec, truths, *stats._cls_draw(spec))
    assert got.tobytes() == want.tobytes()


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
    lo, hi = blocked_bootstrap([[g.sum(), g.size] for g in groups], 200, 0)
    assert lo == hi == pytest.approx(2.0)


def test_blocked_bootstrap_deterministic_and_validated():
    groups = [np.random.default_rng(k).normal(size=10) for k in range(8)]
    totals = [[g.sum(), g.size] for g in groups]
    a = blocked_bootstrap(totals, 500, 3)
    b = blocked_bootstrap(totals, 500, 3)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError, match="2 groups"):
        blocked_bootstrap(totals[:1], 100, 0)


def test_constant_columns_sum_as_np_sum_does():
    # the resampled sums a statistic reads equal np.sum over each column's
    # picked totals, constant columns too: at 7 groups n * c would differ
    # from np.sum for the fraction, the negative zero and the integer past
    # 2^53 / n
    n = 7
    cols = [np.full(n, 20.0), np.full(n, 0.0), np.full(n, 0.1),
            np.full(n, -0.0), np.full(n, -3.0), np.full(n, 2.0**52 + 1),
            np.arange(n, dtype=float)]
    seen = []
    blocked_bootstrap(np.column_stack(cols), 500, 3,
                      lambda s: seen.append(s.copy()) or s[:, 0])
    picks = np.random.default_rng(3).integers(0, n, size=(500, n))
    want = np.stack([col[picks].sum(axis=1) for col in cols], axis=-1)
    assert seen[0].tobytes() == want.tobytes()


def test_variance_ratios_takes_one_length_per_side():
    rng = np.random.default_rng(0)
    cells = [stats.TrialErrors(rng.normal(size=400), rng.normal(size=n))
             for n in (400, 333)]
    with pytest.raises(ValueError, match="one length per side"):
        variance_ratios(cells)
    assert variance_ratios([]) == []
    # the sides may differ in length from each other
    cells[1] = stats.TrialErrors(cells[1].bdr, rng.normal(size=400))
    reps = variance_ratios(cells[::-1])
    assert reps == [variance_ratio(c.bdr, c.cls) for c in cells[::-1]]


def _formula_ci(eb, ec):
    """The delta-method 95% CI on log R of one cell, term by term."""
    fb, fc = np.isfinite(eb), np.isfinite(ec)
    b2, c2 = eb[fb] ** 2, ec[fc] ** 2
    mb, mc = np.mean(b2), np.mean(c2)
    k = min(len(eb), len(ec))
    both = fb[:k] & fc[:k]
    pb, pc = eb[:k][both] ** 2, ec[:k][both] ** 2
    cov = np.cov(pb, pc, ddof=1)[0, 1] if both.sum() >= 2 else 0.0
    var = (np.var(b2, ddof=1) / (b2.size * mb**2)
           + np.var(c2, ddof=1) / (c2.size * mc**2)
           - 2 * cov * both.sum() / (b2.size * c2.size * mb * mc))
    sd = np.sqrt(max(var, 0.0))
    z = 1.959963984540054
    return mb / mc * np.exp(-z * sd), mb / mc * np.exp(z * sd)


# equal and unequal lengths (the longer side's extra trials have no
# partner), NaN failures on either side, and distance errors tied to the
# classification errors, which the covariance term narrows
@pytest.mark.parametrize("n_bdr, n_cls, fail_rate, tie", [
    (400, 400, 0.0, 0.0), (410, 400, 0.05, 0.0), (400, 410, 0.3, 0.0),
    (333, 400, 0.05, 0.9), (400, 400, 0.0, 0.5)])
def test_variance_ratios_match_the_formula_cell_by_cell(n_bdr, n_cls,
                                                         fail_rate, tie):
    rng = np.random.default_rng(n_bdr + n_cls)
    cells = []
    for scale in (0.7, 1.5, 0.2):
        ec = rng.normal(0.0, 1.0, n_cls)
        eb = rng.laplace(0.0, scale, n_bdr)
        k = min(n_bdr, n_cls)
        eb[:k] = tie * scale * ec[:k] + (1 - tie) * eb[:k]
        eb[rng.uniform(size=n_bdr) < fail_rate] = np.nan
        ec[rng.uniform(size=n_cls) < fail_rate / 2] = np.nan
        cells.append(stats.TrialErrors(eb, ec))
    for cell, rep in zip(cells, variance_ratios(cells)):
        lo, hi = _formula_ci(cell.bdr, cell.cls)
        assert rep.ci_low == pytest.approx(lo, rel=1e-12)
        assert rep.ci_high == pytest.approx(hi, rel=1e-12)
        assert rep.ci_low < rep.ratio_R < rep.ci_high


def test_covariance_pairs_only_the_trials_both_series_hold():
    # the 10 distance errors past the classification series and the trials
    # where either error failed take no part in the covariance: changing
    # them moves the CI only through the distance side's own variance, which
    # a copy with those errors swapped among themselves keeps
    rng = np.random.default_rng(3)
    ec = rng.normal(0.0, 1.0, 400)
    eb = 0.5 * ec + rng.normal(0.0, 0.1, 400)
    eb = np.append(eb, rng.normal(0.0, 3.0, 10))
    eb[[5, 17]] = np.nan
    ec[[9, 17]] = np.nan
    swapped = eb.copy()
    moved = [400, 409, 9]  # unpaired, unpaired, paired with a failure
    swapped[moved] = eb[moved[::-1]]
    a, b = variance_ratio(eb, ec), variance_ratio(swapped, ec)
    assert (a.ci_low, a.ci_high) == pytest.approx((b.ci_low, b.ci_high),
                                                  rel=1e-12)
    # ...while swapping two paired errors moves it
    swapped[[0, 1]] = eb[[1, 0]]
    c = variance_ratio(swapped, ec)
    assert c.ci_low != pytest.approx(a.ci_low, rel=1e-6)
    assert c.ratio_R == a.ratio_R


def test_all_zero_distance_side_gives_a_zero_interval():
    # R = 0; the variance term divides by no zero MSE, so no RuntimeWarning
    ec = np.random.default_rng(0).normal(size=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = variance_ratio(np.zeros(100), ec)
    assert (rep.ratio_R, rep.ci_low, rep.ci_high) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("eb, ec", [
    ([np.nan, 2.0, np.nan], [1.0, 2.0, 3.0]),   # one finite distance error
    ([1.0, 2.0, 3.0], [np.nan, np.nan, 2.0]),   # one finite cls error
    ([5.0], [1.0])])                            # one trial
def test_a_side_with_fewer_than_two_errors_gives_the_ratio(eb, ec):
    rep = variance_ratio(np.array(eb), np.array(ec))
    assert rep.ci_low == rep.ratio_R == rep.ci_high
    assert np.isfinite(rep.ratio_R)


def test_a_nan_ratio_gives_nan_bounds():
    # every extraction failed: no distance MSE, so no R and no interval
    rep = variance_ratio(np.full(50, np.nan), np.ones(50))
    assert np.isnan([rep.var_bdr, rep.ratio_R, rep.ci_low, rep.ci_high]).all()


def test_variance_ratios_is_variance_ratio_per_cell_bit_for_bit():
    rng = np.random.default_rng(11)
    bdr = [rng.laplace(0.0, 0.7, 300), np.zeros(300), np.full(300, np.nan),
           rng.standard_t(1.5, 300)]
    bdr[3][::9] = np.nan
    bdr[0][299] = np.nan
    cells = [stats.TrialErrors(b, rng.normal(0.0, 1.0, 280)) for b in bdr]
    got = np.array([astuple(r) for r in variance_ratios(cells)])
    want = np.array([astuple(variance_ratio(c.bdr, c.cls)) for c in cells])
    assert got.tobytes() == want.tobytes()


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
    rep = variance_ratio(errs.bdr, errs.cls)
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
                 boundary=50.0, noise=NoiseSpec(family="student_t"),
                 num_trials=60, master_seed=1)
    _, own_grid = stats._distance_errors(spec, stats._nearest_crossing)
    assert np.isnan(own_grid).any()
    assert np.array_equal(run_trials(spec).bdr, own_grid, equal_nan=True)


# a resolved cell and one whose window holds one sample (kappa <= dt/2)
@pytest.mark.parametrize("kappa, dt", [(3.0, 2.0), (0.5, 1.0)])
def test_run_trials_depends_only_on_kappa_over_stride(kappa, dt):
    # doubling kappa and the stride together doubles every error on both
    # sides, so R and its CI stay the same bit for bit
    def cell(k, s):
        spec = _spec(grid=TimeGrid(stride=s, num_positions=100), kappa=k,
                     boundary=50.0, noise=NoiseSpec(family="student_t"),
                     num_trials=400, master_seed=5)
        errs = run_trials(spec)
        return errs, variance_ratio(errs.bdr, errs.cls)

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


def test_sweep_refuses_a_subnormal_variance():
    # every dt^2/kappa is a normal float, but at dt = 1e-154 var_bdr is dt^2
    # times the stride-1 value, about 7.8e-310: a subnormal with two or
    # three significant digits, which the sweep refuses after its reports
    with pytest.raises(ValueError, match=re.escape(
            "cell (kappa=0.001, dt=1e-154) has a variance of 7.80451e-310, "
            "below 2.23e-308")):
        scaling_sweep([1e-3, 1e-2], [1e-154, 1], 60, NoiseSpec(), 200, 1)


def test_failed_extractions_are_shallow_crossings():
    # the sweep's stride-1 distance side at seed 1000 fails on some rows;
    # each such row holds one ascending sign change within a frame of its
    # truth, dropped only because its forward difference is below the
    # extraction threshold
    spec = _spec(grid=TimeGrid(stride=1.0, num_positions=200),
                 boundary=100.0, num_trials=2000, master_seed=1000)
    fits, truths, errors = _recorded_distance_side(spec)
    failed = np.flatnonzero(np.isnan(errors))
    assert failed.size > 0
    for d, truth in zip(fits[failed], truths[failed]):
        up = np.flatnonzero((np.sign(d[:-1]) != np.sign(d[1:]))
                            & (d[:-1] < d[1:]))
        assert up.size == 1
        j = up[0]
        fwd = d[j + 1] - d[j]
        assert abs(j - d[j] / fwd - truth) < 1.0
        assert fwd <= EXTRACT_THETA_GRAD


def test_sweep_cell_is_run_trials_on_its_spec():
    # the cell's spec holds its boundary in grid positions, so run_trials
    # on it reads the sweep's truths bit for bit, also at a stride where
    # (30 * 0.7) / 0.7 != 30
    cells, *_ = scaling_sweep([0.75, 1.5, 3], [0.7, 1, 2], 60, NoiseSpec(),
                              400, 9)
    spec = ExperimentSpec(grid=TimeGrid(stride=0.7, num_positions=60),
                          kappa=0.75, boundary=30.0, noise=NoiseSpec(),
                          num_trials=400, master_seed=9)
    errs = run_trials(spec)
    rep = variance_ratio(errs.bdr, errs.cls)
    assert [cells[0][k] for k in ("var_bdr", "var_cls", "R", "ci_low",
                                  "ci_high")] == [
        rep.var_bdr, rep.var_cls, rep.ratio_R, rep.ci_low, rep.ci_high]


# the benchmark's 100 trials, and 2010 trials at a short T; heavy tails leave
# NaN distance errors
@pytest.mark.parametrize("trials, positions", [(100, 200), (2010, 80)])
def test_every_sweep_cell_is_variance_ratio_of_its_errors(trials, positions):
    # the one variance_ratios call gives each cell the report of its own
    # errors alone, its CI holding R; cell 0's errors are run_trials on its
    # spec
    noise = NoiseSpec(family="student_t", nu=1.2, scale=1.0)
    kappas, strides = [1.0, 2.0, 4.0, 8.0], [1.0, 2.0, 4.0, 8.0]
    cells, *_ = scaling_sweep(kappas, strides, positions, noise, trials, 21)
    specs = [ExperimentSpec(grid=TimeGrid(stride=dt, num_positions=positions),
                            kappa=kappa, boundary=float(positions // 2),
                            noise=noise, num_trials=trials,
                            master_seed=21 + i)
             for i, (kappa, dt) in enumerate(
                 (k, s) for k in kappas for s in strides)]
    errors = sweep_errors(specs)
    alone = run_trials(specs[0])
    assert np.array_equal(errors[0].bdr, alone.bdr, equal_nan=True)
    assert np.array_equal(errors[0].cls, alone.cls)
    assert np.isnan(alone.bdr).any()
    for cell, spec, errs in zip(cells, specs, errors):
        rep = variance_ratio(errs.bdr, errs.cls)
        assert [cell[k] for k in ("var_bdr", "var_cls", "R", "ci_low",
                                  "ci_high")] == [
            rep.var_bdr, rep.var_cls, rep.ratio_R, rep.ci_low, rep.ci_high]
        assert cell["ci_low"] <= cell["R"] <= cell["ci_high"]
        assert cell["ci_low"] < cell["ci_high"]
        assert cell["x_dt2_over_kappa"] == spec.grid.stride**2 / spec.kappa


def test_sweep_errors_of_no_specs_is_empty():
    assert sweep_errors([]) == []


@pytest.mark.parametrize("field", ["num_positions", "boundary", "noise",
                                   "num_trials"])
def test_sweep_errors_refuses_specs_that_do_not_share_a_field(monkeypatch,
                                                               field):
    # the cells share one distance side, so every field it reads must agree;
    # at a stride and a kappa of its own, the second spec differs from the
    # first in `field` alone
    first = _spec()
    second = replace(first, grid=TimeGrid(stride=2.0, num_positions=100),
                     kappa=3.0, master_seed=1)
    second = replace(second, **{
        "num_positions": {"grid": TimeGrid(stride=2.0, num_positions=120)},
        "boundary": {"boundary": 40.0},
        "noise": {"noise": NoiseSpec(scale=0.8)},
        "num_trials": {"num_trials": 60}}[field])
    drawn = []
    monkeypatch.setattr(stats, "_truths", lambda spec: drawn.append(spec))
    monkeypatch.setattr(stats, "sample_noise_matrix",
                        lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match="specs must share num_positions, "
                       "boundary, noise and num_trials"):
        sweep_errors([first, second])
    assert drawn == []


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
    truths, (noise, a0) = stats._truths(base), stats._cls_draw(widest)
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
    truths, (noise, a0) = stats._truths(spec), stats._cls_draw(spec)
    tracemalloc.start()
    try:
        stats._cls_errors(spec, truths, noise, a0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < noise.nbytes + 2 * 2**20


@pytest.mark.parametrize("T", [60, 200])
@pytest.mark.parametrize("stride", [1e-9, 5e-324])
def test_readout_width_stops_at_the_whole_row(T, stride):
    # from 2T - 1 columns on every smoothed column sums the whole row, so a
    # small stride widens the smoothing no further; 1.5 kappa / 5e-324 is inf
    spec = _spec(grid=TimeGrid(stride=stride, num_positions=T),
                 boundary=T / 2)
    assert stats._readout(spec)[0] == 2 * T - 1


def test_nearest_crossing_errors_match_the_per_row_rule():
    # each row's crossing nearest its truth, by np.argmin over the row's own
    # extraction: ties to the earlier crossing, NaN for a row with none
    spec = _spec(grid=TimeGrid(stride=1.0, num_positions=120), boundary=60.0,
                 noise=NoiseSpec(family="student_t", nu=1.2, scale=1.0),
                 num_trials=600, master_seed=3)
    fits, truths, errors = _recorded_distance_side(spec)
    tie = -np.ones(120)
    tie[41:43] = tie[51:53] = 1.0  # crossings at 40.5 and 50.5
    dhat = np.vstack([fits, tie, -np.ones(120)])
    truths = np.append(truths, [45.5, 60.0])
    want = np.full(len(truths), np.nan)
    for k, truth in enumerate(truths):
        cands = stats.extract_boundaries(dhat[k], spec.grid)
        if cands.size:
            want[k] = cands[np.argmin(np.abs(cands - truth))] - truth
    got = stats._nearest_crossing(dhat, truths, spec.grid) - truths
    assert np.array_equal(got, want, equal_nan=True)
    assert got[-2] == -5.0 and np.isnan(got[-1])
    assert np.isnan(got[:-2]).any()
    # the fitted rows' errors are those _distance_errors returns
    assert np.array_equal(got[:-2], errors, equal_nan=True)


@pytest.mark.parametrize("dt", [3.0, 0.7])
def test_truths_are_the_grid_unit_truths_times_the_stride(dt):
    # every path builds a truth as (boundary + phase) * dt, so the kappa
    # slope's widest kappa reads run_trials' classification errors at any
    # stride, near-tie peaks included (boundary 73.3 has many)
    spec = _spec(grid=TimeGrid(stride=dt, num_positions=100),
                 boundary=73.3, num_trials=400, master_seed=5)
    _, variances = cls_variance_kappa_slope(spec, [dt, 2 * dt, 4 * dt])
    widest = replace(spec, kappa=4 * dt)
    assert variances[4 * dt] == np.mean(run_trials(widest).cls ** 2)
