"""Rewritten code paths against straightforward references.

The references are the earlier implementations: a bootstrap that draws and
evaluates one resample at a time on the raw per-group data, a fitter whose
Huber term and accept step use np.where over whole fresh arrays on every
step, the finite-sample check with its own seeding and fitting loop, the
AR(1) recursions that indexed numpy arrays step by step, and the
classification-peak loop that smoothed, searched and refined one trial at
a time.
"""

from dataclasses import replace

import numpy as np
import pytest

from bdrlab.cli import tau_scenario
from bdrlab.estimators import BDRLossConfig, FitConfig, fit_distance
from bdrlab.stats import (CLS_SMOOTH_FACTOR, CLS_WINDOW_FACTOR,
                          SWEEP_FIT, SWEEP_FIT_ALPHA, ExperimentSpec,
                          _cls_errors, _noise_rows, _truths, blocked_bootstrap,
                          finite_sample_variance_check, loglog_slope,
                          variance_ratio)
from bdrlab.synth import NoiseSpec, TimeGrid, sample_noise_matrix


def reference_bootstrap(groups, num_resamples, seed, statistic=None):
    if statistic is None:
        statistic = lambda gs: float(np.mean(np.concatenate(gs)))
    rng = np.random.default_rng(seed)
    n = len(groups)
    stats = np.empty(num_resamples)
    for i in range(num_resamples):
        pick = rng.integers(0, n, size=n)
        stats[i] = statistic([groups[j] for j in pick])
    return float(np.percentile(stats, 2.5)), float(np.percentile(stats, 97.5))


def reference_ratio_ci(eb, ec, block_size=20, num_resamples=2000, seed=0):
    nblocks = max(len(eb), len(ec)) // block_size
    pairs = [(eb[i * block_size:(i + 1) * block_size],
              ec[i * block_size:(i + 1) * block_size]) for i in range(nblocks)]

    def stat(gs):
        b = np.concatenate([g[0] for g in gs])
        c = np.concatenate([g[1] for g in gs])
        b, c = b[np.isfinite(b)], c[np.isfinite(c)]
        denom = np.mean(c**2)
        return float(np.mean(b**2) / denom) if denom > 0 else np.nan

    return reference_bootstrap(pairs, num_resamples, seed, stat)


def _reference_loss_and_grad(o, d, alpha, delta):
    T = o.shape[-1]
    r = d - o
    a = np.abs(r)
    hub = np.where(a <= delta, 0.5 * r * r / delta, a - 0.5 * delta)
    inc = np.diff(d, axis=-1)
    excess = np.maximum(0.0, np.abs(inc) - 1.0)
    loss = np.mean(hub, axis=-1) + alpha / (T - 1) * np.sum(excess * excess, axis=-1)
    g = np.clip(r / delta, -1.0, 1.0) / T
    pg = 2.0 * alpha / (T - 1) * excess * np.sign(inc)
    g[..., :-1] -= pg
    g[..., 1:] += pg
    return loss, g


def reference_fit(observations, grid, cfg):
    """The fit and the number of row-steps the loop rejected."""
    o = np.atleast_2d(np.asarray(observations, dtype=float)) / grid.stride
    alpha, delta = cfg.loss.alpha, cfg.loss.huber_delta
    d = o.copy()
    loss, g = _reference_loss_and_grad(o, d, alpha, delta)
    step = np.full(o.shape[0], cfg.step)
    rejected = 0
    for _ in range(cfg.iterations):
        cand = d - step[:, None] * g
        cand_loss, cand_g = _reference_loss_and_grad(o, cand, alpha, delta)
        ok = cand_loss <= loss
        rejected += int(np.count_nonzero(~ok))
        d = np.where(ok[:, None], cand, d)
        g = np.where(ok[:, None], cand_g, g)
        loss = np.where(ok, cand_loss, loss)
        step = np.where(ok, step, 0.5 * step)
    return d * grid.stride, rejected


@pytest.mark.parametrize("n", [5, 10, 50, 500])
def test_one_draw_gives_the_per_resample_picks(n):
    rng = np.random.default_rng(42)
    loop = np.stack([rng.integers(0, n, size=n) for _ in range(300)])
    once = np.random.default_rng(42).integers(0, n, size=(300, n))
    assert np.array_equal(loop, once)


def test_bootstrap_mean_matches_reference():
    rng = np.random.default_rng(5)
    groups = [rng.normal(1.0, 2.0, rng.integers(1, 30)) for _ in range(40)]
    want = reference_bootstrap(groups, 1000, seed=9)
    got = blocked_bootstrap([[g.sum(), g.size] for g in groups], 1000, seed=9)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("fail_rate", [0.0, 0.05, 0.3])
@pytest.mark.parametrize("n_bdr,n_cls", [(400, 400), (410, 400), (333, 400)])
def test_variance_ratio_ci_matches_reference(fail_rate, n_bdr, n_cls):
    rng = np.random.default_rng(17)
    eb = rng.laplace(0.0, 0.7, n_bdr)
    eb[rng.uniform(size=n_bdr) < fail_rate] = np.nan  # failed extractions
    ec = rng.normal(0.0, 1.0, n_cls)
    rep = variance_ratio(eb, ec, seed=3)
    lo, hi = reference_ratio_ci(eb, ec, seed=3)
    assert rep.ci_low == pytest.approx(lo, rel=1e-12)
    assert rep.ci_high == pytest.approx(hi, rel=1e-12)


def test_variance_ratio_ci_with_an_all_failed_block_matches_reference():
    rng = np.random.default_rng(8)
    eb = rng.laplace(0.0, 0.7, 100)
    eb[20:40] = np.nan
    ec = rng.normal(0.0, 1.0, 100)
    rep = variance_ratio(eb, ec, seed=1)
    lo, hi = reference_ratio_ci(eb, ec, seed=1)
    assert rep.ci_low == pytest.approx(lo, rel=1e-12)
    assert rep.ci_high == pytest.approx(hi, rel=1e-12)


def _noisy_rows(T, noise, stride, rows, seed):
    grid = TimeGrid(stride=stride, num_positions=T)
    noise = sample_noise_matrix(noise, (seed, 1), rows, T)
    truth = (T // 2 + np.random.default_rng(seed).uniform(size=rows)) * stride
    clean = grid.times()[None, :] - truth[:, None]
    return grid, clean + stride * noise


SHORT_ROWS = 50  # rows this short reject steps at the default step size


def _check_fit_against_reference(T, noise, stride, rows):
    grid, obs = _noisy_rows(T, noise, stride, rows, seed=T)
    cfg = FitConfig(loss=BDRLossConfig(alpha=SWEEP_FIT_ALPHA))
    want, rejected = reference_fit(obs, grid, cfg)
    # The reference's Huber term rounds differently inside the band, but the
    # loss only decides which steps are accepted, and the gradient and step
    # arithmetic are the same, so the fits agree bit for bit.
    assert np.array_equal(fit_distance(obs, grid, cfg), want)
    if T <= SHORT_ROWS:
        assert rejected > 0  # the step-rejection branch ran


@pytest.mark.parametrize("T,rho,stride,rows", [(200, 0.0, 2.0, 160),
                                               (800, 0.6, 1.0, 40),
                                               (50, 0.0, 1.0, 25),
                                               (50, 0.6, 1.0, 25)])
def test_fit_matches_reference(T, rho, stride, rows):
    _check_fit_against_reference(T, NoiseSpec(rho=rho), stride, rows)


def test_student_t_fit_matches_reference():
    _check_fit_against_reference(50, NoiseSpec(family="student_t"), 1.0, 25)


def reference_finite_sample(base_spec, lengths):
    seed, n = base_spec.master_seed, base_spec.num_trials
    noise_spec = base_spec.noise
    variances = {}
    for T in lengths:
        grid = TimeGrid(stride=base_spec.grid.stride, num_positions=T)
        phases = np.random.default_rng((seed, 0)).uniform(0.0, 1.0, n)
        truths = (T // 2) * grid.stride + phases * grid.stride
        eta = np.random.default_rng((seed, 1)).laplace(
            0.0, noise_spec.scale, (n, T))
        noise = (np.array([reference_ar1_loop(row, noise_spec.rho)
                           for row in eta]) if noise_spec.rho else eta)
        t = grid.times()
        dhat = fit_distance(t[None, :] - truths[:, None] + grid.stride * noise,
                            grid, SWEEP_FIT)
        est = np.median(t[None, :] - dhat, axis=-1)
        variances[T] = float(np.mean((est - truths) ** 2))
    slope, _, _ = loglog_slope(list(variances), list(variances.values()))
    return slope, variances


@pytest.mark.parametrize("seed", [4, 91])
@pytest.mark.parametrize("rho", [0.0, 0.6])
def test_finite_sample_check_matches_reference(seed, rho):
    base = ExperimentSpec(grid=TimeGrid(stride=1.0, num_positions=200),
                          kappa=4.0, boundary=100.0,
                          noise=NoiseSpec(rho=rho), num_trials=12,
                          master_seed=seed)
    lengths = [50, 100, 200]
    assert (finite_sample_variance_check(base, lengths)
            == reference_finite_sample(base, lengths))


def reference_ar1_loop(eta, rho):
    x = np.empty(len(eta))
    x[0] = eta[0]
    c = np.sqrt(1.0 - rho**2)
    for i in range(1, len(eta)):
        x[i] = rho * x[i - 1] + c * eta[i]
    return x


def reference_sample_noise(spec, count, seed):
    rng = np.random.default_rng(seed)
    if spec.family == "laplace":
        eta = rng.laplace(0.0, spec.scale, size=count)
    else:
        eta = spec.scale * rng.standard_t(spec.nu, size=count)
    if spec.rho == 0.0:
        return eta
    out = np.empty_like(eta)
    out[..., 0] = eta[..., 0]
    c = np.sqrt(1.0 - spec.rho**2)
    for i in range(1, eta.shape[-1]):
        out[..., i] = spec.rho * out[..., i - 1] + c * eta[..., i]
    return out


@pytest.mark.parametrize("seed", [0, 5, 123])
@pytest.mark.parametrize("rho", [0.0, 0.6, 0.84])
def test_tau_scenario_matches_reference_loop(seed, rho):
    eta = np.random.default_rng(seed).normal(0.0, 1.0, 3000)
    want = 1.0 / (1.0 + np.exp(-0.2 * reference_ar1_loop(eta, rho)))
    assert np.array_equal(tau_scenario(3000, rho, 0.2, seed), want)


@pytest.mark.parametrize("seed", [1, 7, np.random.SeedSequence((3, 1, 4))])
@pytest.mark.parametrize("rho", [0.0, 0.6, 0.84])
@pytest.mark.parametrize("family", ["laplace", "student_t"])
def test_sample_noise_matches_reference(seed, rho, family):
    spec = NoiseSpec(family=family, scale=0.7, rho=rho)
    assert np.array_equal(sample_noise_matrix(spec, seed, 1, 2000)[0],
                          reference_sample_noise(spec, 2000, seed))


def reference_cls_errors(spec, truths, noise):
    """The per-trial classification loop: per-row np.convolve smoothing, an
    argmax over the sliced search window and a scalar quadratic refinement.

    Also returns, per trial, whether the window's two largest smoothed
    values lie within 1e-12 of each other (a near tie)."""
    grid, kappa = spec.grid, spec.kappa
    stride, T = grid.stride, grid.num_positions
    m = max(1, int(round(CLS_SMOOTH_FACTOR * kappa / stride)) | 1)
    t = grid.times()
    errors = np.empty(len(truths))
    near_tie = np.zeros(len(truths), dtype=bool)
    for k, truth in enumerate(truths):
        phi = np.exp(-((t - truth) ** 2) / (2.0 * kappa**2))
        p = np.clip(phi + noise[k], 0.0, 1.0)
        ps = np.convolve(p, np.ones(m) / m, mode="same") if m > 1 else p
        r = 0.5 * stride + CLS_WINDOW_FACTOR * max(0.0, kappa - 0.5 * stride)
        lo = max(int(np.ceil((truth - r) / stride)), 1)
        hi = min(int(np.floor((truth + r) / stride)) + 1, T - 1)
        if hi <= lo:
            lo = min(max(int(round(truth / stride)), 1), T - 2)
            hi = lo + 1
        i = lo + int(np.argmax(ps[lo:hi]))
        off = 0.0
        if hi - lo >= 3:
            ym, y0, yp = ps[i - 1], ps[i], ps[i + 1]
            den = ym - 2.0 * y0 + yp
            if abs(den) >= 1e-12:
                off = float(np.clip(0.5 * (ym - yp) / den, -0.5, 0.5))
        errors[k] = (i + off) * stride - truth
        top = np.sort(ps[lo:hi])[-2:]
        near_tie[k] = top.size == 2 and top[1] - top[0] <= 1e-12
    return errors, near_tie


CLS_NOISES = {"laplace": NoiseSpec(), "ar1": NoiseSpec(rho=0.6)}
MOVED_LIMIT = 1e-3  # share of a test's trials whose maximum may move


def _check_cls_against_reference(spec, truths, noise):
    got = _cls_errors(spec, truths, noise)
    want, near_tie = reference_cls_errors(spec, truths, noise)
    m = max(1, int(round(CLS_SMOOTH_FACTOR * spec.kappa / spec.grid.stride)) | 1)
    if m <= 7:
        assert np.array_equal(got, want)
        return 0
    # Wider windows: the shifted adds round differently from np.convolve in
    # the last bit, which may move the first maximum between near-tied values.
    moved = np.abs(got - want) > 1e-12
    assert np.all(near_tie[moved])
    return int(moved.sum())


@pytest.mark.parametrize("noise", CLS_NOISES)
@pytest.mark.parametrize("seed", [3, 70, 811])
def test_cls_kappa_errors_match_reference(noise, seed):
    base = ExperimentSpec(grid=TimeGrid(stride=1.0, num_positions=200),
                          kappa=1.0, boundary=100.0, noise=CLS_NOISES[noise],
                          num_trials=1000, master_seed=seed)
    truths, rows = _truths(base), _noise_rows(base, 2)
    moved = sum(_check_cls_against_reference(replace(base, kappa=k),
                                             truths, rows)
                for k in (1.0, 2.0, 4.0, 8.0))
    assert moved <= MOVED_LIMIT * 4 * base.num_trials


@pytest.mark.parametrize("noise", CLS_NOISES)
@pytest.mark.parametrize("seed", [21, 1000])
def test_sweep_cell_cls_errors_match_reference(noise, seed):
    T, n = 200, 400
    unit = ExperimentSpec(grid=TimeGrid(stride=1.0, num_positions=T),
                          kappa=1.0, boundary=float(T // 2),
                          noise=CLS_NOISES[noise], num_trials=n,
                          master_seed=seed)
    moved = 0
    for cell, (kappa, dt) in enumerate(
            (k, dt) for k in (1.0, 2.0, 4.0, 8.0) for dt in (1.0, 2.0, 4.0, 8.0)):
        spec = replace(unit, grid=TimeGrid(stride=dt, num_positions=T),
                       kappa=kappa, boundary=(T // 2) * dt,
                       master_seed=seed + cell)
        moved += _check_cls_against_reference(spec, _truths(unit) * dt,
                                              _noise_rows(spec, 2))
    assert moved <= MOVED_LIMIT * 16 * n
