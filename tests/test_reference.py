"""Rewritten code paths against straightforward references.

The references are the earlier implementations: a bootstrap that draws and
evaluates one resample at a time on the raw per-group data, the fused
kernel that computed the smoothed loss and its gradient in one pass over
two scratch arrays, a fitter whose Huber term and accept step use np.where
over whole fresh arrays on every step and which rejected and halved steps
per row, the same loop with the one step the curvature bound allows,
scaling each gradient by the step separately, the finite-sample check with
its own seeding and fitting loop, the AR(1) recursions that indexed numpy
arrays step by step (one series, and a batch of rows a column at a time),
the classification peak loop that smoothed, searched and refined one trial
at a time, the batched classification side that computed every column of
each row, the hold_previous hysteresis loop that indexed the numpy array,
r_ece with a stable argsort that gathered both errors and sigmas, the calib
scenario's rng.normal(0, sigma) draw, the bootstrap's two percentile calls
and Holm's adjustment as a loop over the ranks.

The kernel's Huber gradient is a multiply and a clip, r * 1/(delta T)
clipped to +-1/T, not the quotient clip(r/delta, -1, 1)/T; the two round
differently inside the band. The loss and fit references take that gradient
from huber_grad, the multiply-and-clip form, and still match bit for bit.
The quotient form stays as division_huber_grad: outside the band the kernel
matches it bit for bit, inside the band within 4 ULP, with cases that do
differ.

r_ece builds no permutation: one sort ranks sigma^2 and the hits are
counted per bin, with a run of equal sigma^2 that crosses a bin edge split
in index order. It is compared with the stable argsort where ties decide
the bins (sigmas rounded to few decimals, all sigmas equal, a tie run over
several bins, one pair per bin) and at the benchmark's 500 000 samples.

Stream 2 draws only the band of columns the classification readout can
reach. The classification references read that draw placed in all T
columns with NaN in every other column, so a column the band omits would
turn an error into NaN.

The fitter steps the residual of the fit from the observations in float32.
Its fits are compared bit for bit with the same steps written as whole-array
numpy expressions in float32 (reference_residual_fit), and within 1e-5
frames with the float64 fitter that stepped the fit itself
(reference_fixed_step_fit), at row lengths up to 10^4. It builds its
gradient kernel once per chunk of FIT_CHUNK_VALUES values, 256 rows at
T = 200, so fits are compared on one series and on batches that fill a
chunk exactly, cross chunk edges or end on a one-row chunk.

One AR(1) series and the hold_previous sweep run as synth._blocked_scan,
which steps overlapping blocks of a long series together and redoes with
the scalar loop every block whose warm-up ends on other bits than the block
before it. They are compared byte for byte with the step-by-step loops at
the lengths where that scan changes shape (its cutoff and a whole number of
rows, each -1, +0 and +1) and over many blocks; a spy on the scalar loop
shows which blocks were redone. Constant stretches force one mid-series
block to be redone, signed zeros and hold_previous above the trace's range
force every block, and NaN, infinities and overflow run through both.
"""

import json
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from bdrlab import atr, estimators, stats, synth
from bdrlab.atr import HOLD_WARMUP, HysteresisConfig, apply_hysteresis
from bdrlab.calib import CalibrationConfig, r_ece
from bdrlab.cli import _calib_scenario, main, tau_scenario
from bdrlab.estimators import (BDRLossConfig, FitConfig, bdr_loss_smoothed,
                               bdr_loss_smoothed_grad, fit_distance,
                               moving_average, quadratic_peak_offset)
from bdrlab.stats import (CLS_SMOOTH_FACTOR, CLS_WINDOW_FACTOR,
                          SWEEP_FIT, SWEEP_FIT_ALPHA, ExperimentSpec,
                          _cls_band, _cls_draw, _cls_errors, _truths,
                          blocked_bootstrap,
                          finite_sample_variance_check, holm_bonferroni,
                          loglog_slope)
from bdrlab.synth import (SCAN_BLOCK, SCAN_MIN_ROWS, NoiseSpec, TimeGrid,
                          _apply_ar1, _ar1_warmup, make_kernel_features,
                          sample_noise_matrix)


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


def ratio_block_totals(eb, ec, block_size=20):
    """Per block of block_size consecutive trials, [sum b^2, n_b, sum c^2,
    n_c] over the block's finite errors, one row per block."""
    nblocks = max(len(eb), len(ec)) // block_size
    rows = []
    for i in range(nblocks):
        row = []
        for e in (eb, ec):
            g = e[i * block_size:(i + 1) * block_size]
            g = g[np.isfinite(g)]
            row += [np.sum(g**2), g.size]
        rows.append(row)
    return np.array(rows, dtype=float)


def ratio_of_mse(sums):
    """MSE ratio per resample from [sum b^2, n_b, sum c^2, n_c]; NaN unless
    the denominator is positive."""
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = sums[:, 2] / sums[:, 3]
        return np.where(denom > 0, sums[:, 0] / sums[:, 1] / denom, np.nan)


def huber_grad(r, delta, T):
    """The Huber term's gradient clip(r/delta, -1, 1)/T as a multiply and a
    clip in r's dtype: r times 1/(delta T), that multiplier rounded up while
    delta times it falls short of 1/T, clipped to +-1/T, every constant
    rounded to r's dtype."""
    dtype = np.asarray(r).dtype.type
    bound, mul, delta = dtype(1.0 / T), dtype(1.0 / (delta * T)), dtype(delta)
    while delta * mul < bound:
        mul = np.nextafter(mul, dtype(np.inf))
    return np.clip(r * mul, -bound, bound)


def division_huber_grad(r, delta, T, scale=1.0):
    """The Huber gradient as the kernel computed it before it went
    division-free: clip(r/delta, -1, 1) divided by T/scale."""
    return np.clip(r / delta, -1.0, 1.0) / (T / scale)


def reference_smoothed_loss_and_grad(target, prediction, stride, alpha,
                                     delta):
    """The fused kernel, its gradient's hinge in the residual order: the
    Huber terms c*r - delta*c^2/2 summed in one scratch array, which then
    takes the prediction's increments over the flattened rows for the
    loss's hinge, the hinge excess in the other; the Huber gradient
    (huber_grad) taken from the residual r = prediction - target into the
    gradient first, and the gradient's hinge excess taken from the
    increments of r plus the target's."""
    prediction = np.asarray(prediction, dtype=float)
    shape = np.broadcast_shapes(prediction.shape, np.shape(target))
    prediction = np.broadcast_to(prediction, shape)
    target = np.broadcast_to(np.asarray(target, dtype=float), shape)
    grad, r, q = np.empty(shape), np.empty(shape), np.empty(shape)
    T = prediction.shape[-1]
    np.subtract(prediction, target, out=r)
    residual = r.copy()
    grad[...] = huber_grad(r, delta, T)
    c = np.clip(r / delta, -1.0, 1.0)
    np.multiply(c, r, out=r)
    h = np.multiply(0.5 * delta, c, out=q)
    h *= c
    r -= h
    data = np.add.reduce(r, axis=-1) / T
    inc = r
    flat_p, flat_inc, flat_q, flat_g = (
        a.reshape(-1) for a in (prediction, inc, q, grad))
    np.subtract(flat_p[1:], flat_p[:-1], out=flat_inc[:-1])
    np.subtract(inc, np.clip(inc, -stride, stride, out=q), out=q)
    q[..., -1] = 0.0
    sq = np.multiply(q, q, out=inc)
    loss = data + alpha / (T - 1) * np.add.reduce(sq[..., :-1], axis=-1)
    flat_e = residual.reshape(-1)
    np.subtract(flat_e[1:], flat_e[:-1], out=flat_inc[:-1])
    inc[..., :-1] += np.diff(target, axis=-1)
    np.subtract(inc, np.clip(inc, -stride, stride, out=q), out=q)
    q[..., -1] = 0.0
    q *= 2.0 * alpha / (T - 1)
    flat_g[:-1] -= flat_q[:-1]
    flat_g[1:] += flat_q[:-1]
    return loss, grad


def _loss_inputs(layout, stride, seed):
    """Targets and predictions whose residuals fall inside and outside the
    Huber band and whose increments fall below and above the stride."""
    rng = np.random.default_rng(seed)
    n, T = 6, 37
    target = rng.normal(0.0, 1.2 * stride, (n, 2 * T)).cumsum(axis=1)
    scale = np.array([0.002, 0.005, 0.3, 1.0, 2.0, 5.0])[:, None] * stride
    pred = target + scale * rng.normal(0.0, 1.0, (n, 2 * T))
    if layout == "strided":
        return target[:, ::2], pred[:, ::2]
    target, pred = target[:, :T].copy(), pred[:, :T].copy()
    if layout == "1-D":
        return target[2], pred[2]
    if layout == "broadcast":
        return target, pred[0]
    return target, pred


@pytest.mark.parametrize("layout", ["2-D", "strided", "1-D", "broadcast"])
@pytest.mark.parametrize("stride", [1.0, 2.0])
@pytest.mark.parametrize("alpha", [0.0, 0.1, 4.0])
def test_smoothed_loss_and_grad_match_fused_reference(layout, stride, alpha):
    cfg = BDRLossConfig(alpha=alpha)
    for seed in range(3):
        target, pred = _loss_inputs(layout, stride, seed)
        loss, grad = reference_smoothed_loss_and_grad(
            target, pred, stride, alpha, cfg.huber_delta * stride)
        got_loss = bdr_loss_smoothed(target, pred, stride, cfg)
        got_grad = bdr_loss_smoothed_grad(target, pred, stride, cfg)
        assert np.shape(got_loss) == np.shape(loss)
        assert np.array_equal(got_loss, loss)
        assert np.array_equal(got_grad, grad)


def prediction_order_grad(target, prediction, stride, alpha, delta):
    """The gradient as the kernel computed it before it stepped residuals:
    the hinge excess taken from the prediction's own increments."""
    prediction = np.asarray(prediction, dtype=float)
    shape = np.broadcast_shapes(prediction.shape, np.shape(target))
    prediction = np.broadcast_to(prediction, shape)
    T = shape[-1]
    grad = huber_grad(prediction - target, delta, T)
    inc = np.diff(prediction, axis=-1)
    q = (inc - np.clip(inc, -stride, stride)) * (2.0 * alpha / (T - 1))
    grad[..., :-1] -= q
    grad[..., 1:] += q
    return grad


@pytest.mark.parametrize("layout", ["2-D", "strided", "1-D", "broadcast"])
@pytest.mark.parametrize("stride", [1.0, 2.0])
@pytest.mark.parametrize("alpha", [0.0, 0.1, 4.0])
def test_smoothed_grad_within_rounding_of_the_prediction_order(layout, stride,
                                                               alpha):
    # The Huber term reads the same residual in both orders, the hinge the
    # increment p1 - p0 of two positions: as diff(p) rounded once, or as
    # diff(p - t) + diff(t), which rounds each residual r, their difference,
    # the target's increment and the sum. The two differ by at most
    # eps/2 (2|r0| + 2|r1| + |diff(t)| + 2|inc|), so by rounding at the size
    # of the residual, not of p or t. The excess q and its product with
    # 2 alpha/(T-1) round once more each, by at most eps |inc|, and an entry
    # reads two such terms, then sums them and the Huber term in the same
    # two roundings in both orders, each by at most one ULP of the terms.
    # Where the terms cancel that is many ULP of the entry: over these rows
    # the orders differ by up to 928 ULP of an entry, 1.1% of the entries by
    # more than 4 ULP.
    cfg = BDRLossConfig(alpha=alpha)
    eps = np.finfo(float).eps
    for seed in range(3):
        target, pred = _loss_inputs(layout, stride, seed)
        got = bdr_loss_smoothed_grad(target, pred, stride, cfg)
        want = prediction_order_grad(target, pred, stride, alpha,
                                     cfg.huber_delta * stride)
        p = np.broadcast_to(pred, got.shape)
        t = np.broadcast_to(target, got.shape)
        T, hinge_mul = got.shape[-1], 2 * alpha / (got.shape[-1] - 1)
        r, inc = np.abs(p - t), np.diff(p, axis=-1)
        per_inc = hinge_mul * eps * (2 * r[..., 1:] + 2 * r[..., :-1]
                                     + np.abs(np.diff(t, axis=-1))
                                     + 2 * np.abs(inc))
        terms = np.abs(huber_grad(p - t, cfg.huber_delta * stride, T))
        q = hinge_mul * np.abs(inc - np.clip(inc, -stride, stride))
        terms[..., :-1] += q
        terms[..., 1:] += q
        slack = 2 * np.spacing(terms)
        slack[..., :-1] += per_inc
        slack[..., 1:] += per_inc
        assert got.dtype == np.float64
        assert np.all(np.abs(got - want) <= slack)


def _huber_kernel_grad(r, delta, scale):
    """The kernel's Huber gradient alone (alpha 0) at residuals r, rows of
    T, the target's increments zero."""
    residual, step = estimators._smoothed_grad_kernel(
        np.zeros(r.shape[:-1] + (r.shape[-1] - 1,)), r.dtype, 1.0, 0.0, delta,
        scale)
    residual[...] = r
    return step()


def _residuals_around_the_band(rng, delta, T):
    """Rows of T residuals: delta and the three floats above and below it,
    both signs, then uniform draws over +-3 delta."""
    up, down = [delta], [delta]
    for _ in range(3):
        up.append(np.nextafter(up[-1], np.inf))
        down.append(np.nextafter(down[-1], 0.0))
    edge = np.array(up + down[1:])
    r = np.concatenate([edge, -edge, rng.uniform(-3 * delta, 3 * delta, 200)])
    r = np.concatenate([r, rng.uniform(-3 * delta, 3 * delta, -r.size % T)])
    return r.reshape(-1, T)


def test_huber_grad_within_4_ulp_of_the_division_form():
    # outside the band the multiply-and-clip gradient is the division form
    # bit for bit, inside it within 4 ULP; the cases include in-band entries
    # that differ and (T, delta) whose multiplier is rounded up
    rng = np.random.default_rng(20)
    differ = rounded_up = 0
    for T in (2, 3, 37, 50, 133, 200, 800, 1000):
        for delta in (0.005, 0.007, 0.01, 0.02, 0.03, 0.3, 0.7, 1.0):
            rounded_up += delta * (1.0 / (delta * T)) < 1.0 / T
            for scale in (0.25, 0.5, 1.0, 2.0):
                r = _residuals_around_the_band(rng, delta, T)
                got = _huber_kernel_grad(r, delta, scale)
                want = division_huber_grad(r, delta, T, scale)
                out = np.abs(r) >= delta
                assert got[out].tobytes() == want[out].tobytes()
                assert np.all(np.abs(got - want)
                              <= 4 * np.spacing(np.abs(want)))
                differ += np.count_nonzero(got[~out] != want[~out])
    assert differ > 0 and rounded_up > 0


def _reference_loss_and_grad(o, d, alpha, delta):
    T = o.shape[-1]
    r = d - o
    a = np.abs(r)
    hub = np.where(a <= delta, 0.5 * r * r / delta, a - 0.5 * delta)
    inc = np.diff(d, axis=-1)
    excess = np.maximum(0.0, np.abs(inc) - 1.0)
    loss = np.mean(hub, axis=-1) + alpha / (T - 1) * np.sum(excess * excess, axis=-1)
    g = huber_grad(r, delta, T)
    pg = 2.0 * alpha / (T - 1) * excess * np.sign(inc)
    g[..., :-1] -= pg
    g[..., 1:] += pg
    return loss, g


def reference_fit(observations, grid, loss_cfg):
    """The fit and the number of row-steps the loop rejected: the earlier
    fitter, which tried step 2 on every row, rejected a step that raised
    the row's loss and halved that row's step."""
    o = np.atleast_2d(np.asarray(observations, dtype=float)) / grid.stride
    alpha, delta = loss_cfg.alpha, loss_cfg.huber_delta
    d = o.copy()
    loss, g = _reference_loss_and_grad(o, d, alpha, delta)
    step = np.full(o.shape[0], 2.0)
    rejected = 0
    for _ in range(300):
        cand = d - step[:, None] * g
        cand_loss, cand_g = _reference_loss_and_grad(o, cand, alpha, delta)
        ok = cand_loss <= loss
        rejected += int(np.count_nonzero(~ok))
        d = np.where(ok[:, None], cand, d)
        g = np.where(ok[:, None], cand_g, g)
        loss = np.where(ok, cand_loss, loss)
        step = np.where(ok, step, 0.5 * step)
    return d * grid.stride, rejected


def _fixed_step(T, alpha, delta):
    """2, halved while step * L >= 2 for the gradient's Lipschitz bound
    L = 1/(delta T) + 8 alpha/(T - 1)."""
    step = 2.0
    while step * (1.0 / (delta * T) + 8.0 * alpha / (T - 1)) >= 2.0:
        step *= 0.5
    return step


def reference_fixed_step_fit(observations, grid, loss_cfg):
    """300 steps of one size (_fixed_step) on the fit itself, in float64."""
    o = np.atleast_2d(np.asarray(observations, dtype=float)) / grid.stride
    alpha, delta = loss_cfg.alpha, loss_cfg.huber_delta
    step = _fixed_step(o.shape[-1], alpha, delta)
    d = o.copy()
    for _ in range(300):
        d = d - step * _reference_loss_and_grad(o, d, alpha, delta)[1]
    return d * grid.stride


def reference_residual_fit(observations, grid, loss_cfg, dtype=np.float32):
    """The same 300 steps taken on the residual e = d - o in `dtype`, from
    e = 0: the Huber gradient reads e, the hinge the increments
    diff(e) + diff(o), with diff(o) formed in float64 and rounded once to
    `dtype`. Returns (o + e) * stride in float64."""
    o = np.atleast_2d(np.asarray(observations, dtype=float)) / grid.stride
    alpha, delta = loss_cfg.alpha, loss_cfg.huber_delta
    T = o.shape[-1]
    step = _fixed_step(T, alpha, delta)
    o_inc = np.diff(o, axis=-1).astype(dtype)
    hinge = dtype(2.0 * alpha / (T - 1))
    e = np.zeros(o.shape, dtype)
    for _ in range(300):
        inc = np.diff(e, axis=-1) + o_inc
        excess = np.maximum(dtype(0.0), np.abs(inc) - dtype(1.0))
        pg = hinge * excess * np.sign(inc)
        g = huber_grad(e, delta, T)
        g[..., :-1] -= pg
        g[..., 1:] += pg
        e = e - dtype(step) * g
    return (o + e) * grid.stride


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
    got = blocked_bootstrap([[g.sum(), g.size] for g in groups], 1000, 9)
    assert tuple(got) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("nan_share", [0.0, 0.01, 0.5, 1.0])
@pytest.mark.parametrize("seed", range(5))
def test_bootstrap_bounds_match_two_percentile_calls(nan_share, seed):
    # the one np.percentile call gives the bounds of one call per bound, bit
    # for bit, NaN resample statistics included
    rng = np.random.default_rng(seed)
    totals = np.column_stack([rng.normal(5.0, 2.0, 30), rng.integers(1, 9, 30)])
    drawn = []

    def statistic(sums):
        stat = sums[:, 0] / sums[:, 1]
        stat[rng.random(stat.size) < nan_share] = np.nan
        drawn.append(stat)
        return stat

    got = blocked_bootstrap(totals, 2000, seed, statistic=statistic)
    (stat,) = drawn
    want = (float(np.percentile(stat, 2.5)), float(np.percentile(stat, 97.5)))
    assert np.array(got).tobytes() == np.array(want).tobytes()


def reference_cell_bootstrap(totals, num_resamples, seed, statistic):
    """A one-cell blocked bootstrap written out: (low, high) of one
    (n_groups, k) array of group totals, its column sums stacked as a
    (num_resamples, k) array and its bounds from one percentile call."""
    n = len(totals)
    picks = np.random.default_rng(seed).integers(0, n, size=(num_resamples, n))
    sums = np.stack([col[picks].sum(axis=1) for col in totals.T], axis=-1)
    return np.percentile(statistic(sums), [2.5, 97.5])


# 5 and 7 groups, which np.sum adds in order, 8 and 100, which it adds
# pairwise; the first NaN share gives none, the last all NaN statistics
@pytest.mark.parametrize("n", [5, 7, 8, 100])
@pytest.mark.parametrize("nan_share", [0.0, 0.3, 1.0])
def test_one_cell_bootstrap_matches_the_reference(n, nan_share):
    rng = np.random.default_rng(n)
    totals = np.stack([
        np.column_stack([rng.laplace(0.0, 3.0, n) ** 2, rng.integers(15, 21, n),
                         rng.normal(0.0, 1.0, n) ** 2, np.full(n, 20.0)])
        for _ in range(4)])
    seeds = [7, 8, 7, 1000]

    def statistic(sums):
        ratio = ratio_of_mse(sums)
        ratio[sums[:, 0] < np.quantile(sums[:, 0], nan_share)] = np.nan
        return ratio

    for cell, seed in zip(totals, seeds):
        got = blocked_bootstrap(cell, 2000, seed, statistic)
        want = reference_cell_bootstrap(cell, 2000, seed, statistic)
        assert got.tobytes() == want.tobytes()


# the blocked bootstrap CI of the MSE ratio over 20-trial blocks, from the
# blocks' totals, against the loop over resamples of the raw blocks
@pytest.mark.parametrize("fail_rate", [0.0, 0.05, 0.3])
@pytest.mark.parametrize("n_bdr,n_cls", [(400, 400), (410, 400), (333, 400)])
def test_variance_ratio_ci_matches_reference(fail_rate, n_bdr, n_cls):
    rng = np.random.default_rng(17)
    eb = rng.laplace(0.0, 0.7, n_bdr)
    eb[rng.uniform(size=n_bdr) < fail_rate] = np.nan  # failed extractions
    ec = rng.normal(0.0, 1.0, n_cls)
    got = blocked_bootstrap(ratio_block_totals(eb, ec), 2000, 3, ratio_of_mse)
    lo, hi = reference_ratio_ci(eb, ec, seed=3)
    assert got[0] == pytest.approx(lo, rel=1e-12)
    assert got[1] == pytest.approx(hi, rel=1e-12)


def test_variance_ratio_ci_with_an_all_failed_block_matches_reference():
    rng = np.random.default_rng(8)
    eb = rng.laplace(0.0, 0.7, 100)
    eb[20:40] = np.nan
    ec = rng.normal(0.0, 1.0, 100)
    got = blocked_bootstrap(ratio_block_totals(eb, ec), 2000, 1, ratio_of_mse)
    lo, hi = reference_ratio_ci(eb, ec, seed=1)
    assert got[0] == pytest.approx(lo, rel=1e-12)
    assert got[1] == pytest.approx(hi, rel=1e-12)


def reference_holm_bonferroni(p_values):
    """Holm's step-down adjustment as a loop over the ranks: the running
    maximum of (n - rank) p, clipped at 1."""
    p = np.asarray(p_values, dtype=float)
    n = p.size
    adj = np.empty(n)
    running = 0.0
    for rank, idx in enumerate(np.argsort(p, kind="stable")):
        running = max(running, (n - rank) * p[idx])
        adj[idx] = min(running, 1.0)
    return adj


@pytest.mark.parametrize("seed", range(20))
def test_holm_bonferroni_matches_the_loop(seed):
    # ties from p-values rounded to 2 decimals, exact 0 and 1, and sizes
    # where (n - rank) p crosses 1
    rng = np.random.default_rng(seed)
    for n in (0, 1, 2, 3, 10, 50):
        for p in (rng.random(n), rng.random(n).round(2),
                  rng.choice([0.0, 0.01, 0.5, 1.0], n), rng.random(n) / n):
            got = holm_bonferroni(p)
            assert got.tobytes() == reference_holm_bonferroni(p).tobytes()


def _noisy_rows(T, noise, stride, rows, seed):
    grid = TimeGrid(stride=stride, num_positions=T)
    noise = sample_noise_matrix(noise, (seed, 1), rows, T)
    truth = (T // 2 + np.random.default_rng(seed).uniform(size=rows)) * stride
    clean = grid.times()[None, :] - truth[:, None]
    return grid, clean + stride * noise


# How far, in frames, a float32 fit may lie from the same steps taken in
# float64 on the fit itself
FIT_FLOAT64_FRAMES = 1e-5


def _check_fit_against_reference(T, noise, stride, rows,
                                 alpha=SWEEP_FIT_ALPHA):
    grid, obs = _noisy_rows(T, noise, stride, rows, seed=T)
    loss = BDRLossConfig(alpha=alpha)
    got = fit_distance(obs, grid, FitConfig(loss=loss))
    # The reference scales each gradient by the step after computing it,
    # where the fitter folds the power-of-two step into the gradient's
    # constants; the rounding is the same, so the fits agree bit for bit.
    assert np.array_equal(got, reference_residual_fit(obs, grid, loss))
    want = reference_fixed_step_fit(obs, grid, loss)
    assert np.max(np.abs(got - want)) <= FIT_FLOAT64_FRAMES
    if T >= 133 and alpha == SWEEP_FIT_ALPHA:
        # at alpha 4 the bound keeps step 2 from T = 133 on, where the
        # earlier reject-and-halve fitter rejected no step
        earlier, rejected = reference_fit(obs, grid, loss)
        assert rejected == 0
        assert np.array_equal(earlier, want)


# (T, rho, stride, rows, alpha); at T = 200 a chunk holds 256 rows, so 256
# rows fill one chunk exactly and 513 cross two chunk edges and end on a
# one-row chunk
FIT_CASES = [(200, 0.0, 2.0, 160, 4.0), (800, 0.6, 1.0, 40, 4.0),
             (133, 0.0, 1.0, 40, 4.0), (133, 0.6, 1.0, 40, 4.0),
             (50, 0.0, 1.0, 25, 4.0), (50, 0.6, 1.0, 25, 4.0),
             (132, 0.0, 1.0, 25, 4.0), (132, 0.6, 1.0, 25, 4.0),
             (133, 0.6, 1.0, 300, 4.0), (200, 0.0, 4.0, 40, 4.0),
             (50, 0.0, 1.0, 25, 0.0), (200, 0.6, 1.0, 40, 0.0),
             (50, 0.6, 2.0, 25, 0.1), (400, 0.0, 4.0, 40, 0.1),
             (50, 0.6, 1.0, 1, 4.0), (200, 0.0, 1.0, 128, 4.0),
             (200, 0.6, 1.0, 129, 4.0), (200, 0.0, 1.0, 256, 4.0),
             (200, 0.6, 1.0, 513, 4.0)]


@pytest.mark.parametrize(
    "T,rho,stride,rows,alpha", FIT_CASES,
    ids=["-".join(map(str, case[:4]))
         + ("" if case[4] == SWEEP_FIT_ALPHA else f"-alpha{case[4]}")
         for case in FIT_CASES])
def test_fit_matches_reference(T, rho, stride, rows, alpha):
    _check_fit_against_reference(T, NoiseSpec(rho=rho), stride, rows, alpha)


@pytest.mark.parametrize("T", [50, 200])
def test_one_series_fit_matches_reference(T):
    grid, obs = _noisy_rows(T, NoiseSpec(rho=0.6), 1.0, 1, seed=T)
    loss = BDRLossConfig(alpha=SWEEP_FIT_ALPHA)
    got = fit_distance(obs[0], grid, FitConfig(loss=loss))
    assert got.shape == (T,)
    assert np.array_equal(got, reference_residual_fit(obs[0], grid, loss)[0])
    want = reference_fixed_step_fit(obs[0], grid, loss)[0]
    assert np.max(np.abs(got - want)) <= FIT_FLOAT64_FRAMES


def test_student_t_fit_matches_reference():
    for T in (50, 132, 133):
        _check_fit_against_reference(T, NoiseSpec(family="student_t"), 1.0, 25)


@pytest.mark.parametrize("T", [50, 200, 800, 10_000])
@pytest.mark.parametrize("rho", [0.0, 0.6])
def test_fit_tracks_the_float64_fit_at_any_length(T, rho):
    # the rows' values reach T/2 strides, but the residual the fitter steps
    # stays the size of the noise, so float32 keeps its accuracy at any T;
    # a float32 fit of the values themselves drifts by about 0.06 frames
    # at T = 10^4
    grid, obs = _noisy_rows(T, NoiseSpec(rho=rho), 1.0, 4, seed=T)
    loss = BDRLossConfig(alpha=SWEEP_FIT_ALPHA)
    got = fit_distance(obs, grid, FitConfig(loss=loss))
    want = reference_fixed_step_fit(obs, grid, loss)
    assert np.max(np.abs(got - want)) <= FIT_FLOAT64_FRAMES


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


def reference_sample_noise(spec, shape, seed):
    """One draw of `shape`, then the AR(1) recursion column by column."""
    rng = np.random.default_rng(seed)
    if spec.family == "laplace":
        eta = rng.laplace(0.0, spec.scale, size=shape)
    elif spec.family == "gaussian":
        eta = rng.normal(0.0, spec.scale, size=shape)
    else:
        eta = spec.scale * rng.standard_t(spec.nu, size=shape)
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
@pytest.mark.parametrize("family", ["laplace", "gaussian", "student_t"])
def test_sample_noise_matches_reference(seed, rho, family):
    spec = NoiseSpec(family=family, scale=0.7, rho=rho)
    assert np.array_equal(sample_noise_matrix(spec, seed, 1, 2000)[0],
                          reference_sample_noise(spec, 2000, seed))


@pytest.mark.parametrize("rho", [0.6, 0.84])
@pytest.mark.parametrize("family", ["laplace", "gaussian", "student_t"])
def test_one_long_noise_row_matches_reference(rho, family):
    # one row of 25 000 values runs the blocked scan, not the scalar loop
    spec = NoiseSpec(family=family, scale=0.7, rho=rho)
    assert np.array_equal(sample_noise_matrix(spec, 9, 1, 25_000)[0],
                          reference_sample_noise(spec, 25_000, 9))


@pytest.mark.parametrize("count", [2, 3, 800])
@pytest.mark.parametrize("rows", [2, 25, 129])
@pytest.mark.parametrize("rho", [0.0, 0.6, 0.84])
@pytest.mark.parametrize("family", ["laplace", "gaussian", "student_t"])
def test_noise_rows_match_reference(family, rho, rows, count):
    # two rows or more take the batched column step, not the 1-D scan
    spec = NoiseSpec(family=family, scale=0.7, rho=rho)
    assert np.array_equal(sample_noise_matrix(spec, (rows, count), rows, count),
                          reference_sample_noise(spec, (rows, count),
                                                 (rows, count)))


# --- the blocked scan: one AR(1) series and hold_previous ------------------

@pytest.fixture
def scans(monkeypatch):
    """(start, stop) of every call of the two scalar loops, in order."""
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def recorded(x, start, stop, **params):
            calls.append((start, stop))
            real(x, start, stop, **params)
        monkeypatch.setattr(module, name, recorded)
    spy(synth, "_ar1_scan")
    spy(atr, "_hold_scan")
    return calls


def redone_rows(calls, n, warmup):
    """The rows whose blocks the blocked scan redid, from the scalar loop's
    calls; None when that loop ran the whole series instead."""
    if calls == [(1, n)]:
        return None
    rows = (n - warmup) // SCAN_BLOCK
    assert calls[-1] == (warmup + rows * SCAN_BLOCK, n)  # the tail
    starts = [start - warmup for start, _ in calls[:-1]]
    assert all(start % SCAN_BLOCK == 0 for start in starts)
    assert all(stop - start == SCAN_BLOCK for start, stop in calls[:-1])
    return [start // SCAN_BLOCK for start in starts]


def edge_lengths(warmup):
    """Series lengths at the blocked scan's edges: the cutoff below which the
    scalar loop runs the whole series, and 40 whole rows, each -1, +0 and +1
    (a tail of B-1, none and one value), then a length of many blocks."""
    cutoff = warmup + SCAN_MIN_ROWS * SCAN_BLOCK
    rows40 = warmup + 40 * SCAN_BLOCK
    return [cutoff - 1, cutoff, cutoff + 1, rows40 - 1, rows40, rows40 + 1,
            warmup + 100 * SCAN_BLOCK + 123]


def check_ar1(eta, rho):
    got = _apply_ar1(eta, rho)
    # inf - inf and overflow, silent in the scan too
    with np.errstate(invalid="ignore", over="ignore"):
        want = reference_ar1_loop(eta, rho)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rho", [0.84, 0.3, -0.5, -0.84])
@pytest.mark.parametrize("edge", range(7))
def test_one_series_ar1_matches_reference_at_block_edges(scans, rho, edge):
    n = edge_lengths(_ar1_warmup(rho))[edge]
    check_ar1(np.random.default_rng(n).normal(0.0, 1.0, n), rho)
    # the cutoff - 1 runs the scalar loop alone; every longer series is
    # blocked, and these Gaussian series need no block redone
    assert redone_rows(scans, n, _ar1_warmup(rho)) == (None if edge == 0 else [])


@pytest.mark.parametrize("rho", [0.95, 0.99])
def test_ar1_warmup_longer_than_a_block_runs_the_scalar_loop(scans, rho):
    assert _ar1_warmup(rho) > SCAN_BLOCK
    n = 100 * SCAN_BLOCK
    check_ar1(np.random.default_rng(1).normal(0.0, 1.0, n), rho)
    assert scans == [(1, n)]


def test_ar1_zero_stretch_redoes_the_one_block_it_covers(scans):
    # a row that starts inside a stretch of zero innovations holds exactly 0
    # through its warm-up, while the true series decays by rho^W but stays
    # above 0
    rho, row = 0.84, 20
    W = _ar1_warmup(rho)
    n = W + 40 * SCAN_BLOCK + 7
    eta = np.random.default_rng(2).normal(0.0, 1.0, n)
    eta[row * SCAN_BLOCK - 5:row * SCAN_BLOCK + W + 5] = 0.0
    check_ar1(eta, rho)
    assert redone_rows(scans, n, W) == [row]


def test_ar1_signed_zeros_redo_every_block(scans):
    # rho(+0) + (-0) = +0 but rho(-0) + (-0) = -0: rows guessed from -0 keep
    # -0 while the series keeps +0, equal under == but not in bits
    rho = 0.84
    W = _ar1_warmup(rho)
    n = W + 40 * SCAN_BLOCK + 7
    eta = np.full(n, -0.0)
    eta[0] = 0.0
    check_ar1(eta, rho)
    assert redone_rows(scans, n, W) == list(range(1, 40))


@pytest.mark.parametrize("bad", [{10_000: np.nan}, {6_000: np.inf},
                                 {6_000: -np.inf},
                                 {6_000: np.inf, 14_000: -np.inf},
                                 {10_000: np.inf, 10_001: -np.inf},
                                 {10_000: 1.7e308, 10_001: 1.7e308,
                                  10_002: 1.7e308},
                                 {0: np.nan, -1: np.inf}])
@pytest.mark.parametrize("rho", [0.84, -0.5])
def test_one_series_ar1_with_non_finite_values_matches_reference(rho, bad):
    n = _ar1_warmup(rho) + 40 * SCAN_BLOCK + 7
    eta = np.random.default_rng(3).normal(0.0, 1.0, n)
    for where, value in bad.items():
        eta[where] = value
    check_ar1(eta, rho)


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


def _band_draw(spec):
    """(band rows, a0, padded): the spec's classification noise as
    _cls_errors reads it, and the same rows in all T columns with NaN in
    every column outside the band, so that a reference reading a column
    the band omits gets NaN."""
    band, a0 = _cls_draw(spec)
    padded = np.full((len(band), spec.grid.num_positions), np.nan)
    padded[:, a0:a0 + band.shape[1]] = band
    return band, a0, padded


def _full_rows(spec):
    """(rows, 0, rows): stream 2 drawn in all T columns, for truths that
    spread beyond the prior support and so beyond the band."""
    rows = sample_noise_matrix(spec.noise, (spec.master_seed, 2),
                               spec.num_trials, spec.grid.num_positions)
    return rows, 0, rows


def _check_cls_against_reference(spec, truths, band, a0, padded):
    got = _cls_errors(spec, truths, band, a0)
    want, near_tie = reference_cls_errors(spec, truths, padded)
    assert np.all(np.isfinite(want))
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
    # one draw for the widest kappa, as cls_variance_kappa_slope draws it
    truths, draw = _truths(base), _band_draw(replace(base, kappa=8.0))
    moved = sum(_check_cls_against_reference(replace(base, kappa=k),
                                             truths, *draw)
                for k in (1.0, 2.0, 4.0, 8.0))
    assert moved <= MOVED_LIMIT * 4 * base.num_trials


@pytest.mark.parametrize("noise", CLS_NOISES)
@pytest.mark.parametrize("seed", [21, 1000])
def test_sweep_cell_cls_errors_match_reference(noise, seed):
    T, n = 200, 400
    base = ExperimentSpec(grid=TimeGrid(stride=1.0, num_positions=T),
                          kappa=1.0, boundary=float(T // 2),
                          noise=CLS_NOISES[noise], num_trials=n,
                          master_seed=seed)
    moved = 0
    for cell, (kappa, dt) in enumerate(
            (k, dt) for k in (1.0, 2.0, 4.0, 8.0) for dt in (1.0, 2.0, 4.0, 8.0)):
        spec = replace(base, grid=TimeGrid(stride=dt, num_positions=T),
                       kappa=kappa, master_seed=seed + cell)
        moved += _check_cls_against_reference(spec, _truths(base) * dt,
                                              *_band_draw(spec))
    assert moved <= MOVED_LIMIT * 16 * n


def reference_full_width_cls_errors(spec, truths, noise):
    """The batched classification side that built, smoothed and searched
    all T columns of each row, in chunks of 64 trials."""
    grid, kappa = spec.grid, spec.kappa
    stride, T = grid.stride, grid.num_positions
    m = max(1, int(round(CLS_SMOOTH_FACTOR * kappa / stride)) | 1)
    r = 0.5 * stride + CLS_WINDOW_FACTOR * max(0.0, kappa - 0.5 * stride)
    cols = np.arange(T)
    errors = np.empty(len(truths))
    for start in range(0, len(truths), 64):
        rows = slice(start, start + 64)
        truth = truths[rows]
        ps = make_kernel_features(grid, truth, kappa)
        ps += noise[rows]
        ps = moving_average(np.clip(ps, 0.0, 1.0, out=ps), m)
        lo = np.maximum(np.ceil((truth - r) / stride), 1)
        hi = np.minimum(np.floor((truth + r) / stride) + 1, T - 1)
        empty = hi <= lo
        lo[empty] = np.clip(np.round(truth[empty] / stride), 1, T - 2)
        hi[empty] = lo[empty] + 1
        inside = (cols >= lo[:, None]) & (cols < hi[:, None])
        i = np.argmax(np.where(inside, ps, -np.inf), axis=1)
        k = np.arange(len(i))
        off = quadratic_peak_offset(ps[k, i - 1], ps[k, i], ps[k, i + 1])
        off[hi - lo < 3] = 0.0
        errors[rows] = (i + off) * stride - truth
    return errors


ALL_CLS_NOISES = dict(CLS_NOISES, student_t=NoiseSpec(family="student_t"))
CLS_KAPPAS = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 8.0, 30.0, 300.0)


def _band_width(spec):
    """The width of the spec's band, which _cls_errors sizes its chunks by."""
    a0, b0 = _cls_band(spec)
    return b0 - a0


def _check_cls_against_full_width(spec, truths, band, a0, padded):
    assert np.array_equal(_cls_errors(spec, truths, band, a0),
                          reference_full_width_cls_errors(spec, truths, padded))


@pytest.mark.parametrize("noise", ALL_CLS_NOISES)
@pytest.mark.parametrize("seed", [21, 1000])
def test_sweep_cells_match_full_width_reference(noise, seed):
    T, n = 200, 400
    base = ExperimentSpec(grid=TimeGrid(stride=1.0, num_positions=T),
                          kappa=1.0, boundary=float(T // 2),
                          noise=ALL_CLS_NOISES[noise], num_trials=n,
                          master_seed=seed)
    for cell, (kappa, dt) in enumerate(
            (k, dt) for k in (1.0, 2.0, 4.0, 8.0) for dt in (1.0, 2.0, 4.0, 8.0)):
        spec = replace(base, grid=TimeGrid(stride=dt, num_positions=T),
                       kappa=kappa, master_seed=seed + cell)
        _check_cls_against_full_width(spec, _truths(base) * dt,
                                      *_band_draw(spec))


@pytest.mark.parametrize("noise", ALL_CLS_NOISES)
@pytest.mark.parametrize("kappa", CLS_KAPPAS)
def test_kappas_match_full_width_reference(noise, kappa):
    spec = ExperimentSpec(grid=TimeGrid(stride=1.0, num_positions=200),
                          kappa=kappa, boundary=100.0,
                          noise=ALL_CLS_NOISES[noise], num_trials=1000,
                          master_seed=70)
    _check_cls_against_full_width(spec, _truths(spec), *_band_draw(spec))


# bands cut by column 0 and by column T - 1 (stride 2, T = 60)
EDGE_BOUNDARIES = {"first column": 0.5, "last column": 58.5}


@pytest.mark.parametrize("noise", ALL_CLS_NOISES)
@pytest.mark.parametrize("kappa", CLS_KAPPAS)
@pytest.mark.parametrize("where", ["middle", *EDGE_BOUNDARIES])
def test_band_draw_is_all_the_readout_reads(noise, kappa, where):
    # the NaN-padded draw read at a0 = 0 gives the band draw's errors, bit
    # for bit and finite, so no chunk reads a column outside the band
    T, dt = 60, 2.0
    spec = ExperimentSpec(grid=TimeGrid(stride=dt, num_positions=T),
                          kappa=kappa * dt,
                          boundary=EDGE_BOUNDARIES.get(where, T / 2),
                          noise=ALL_CLS_NOISES[noise], num_trials=300,
                          master_seed=int(8 * kappa))
    band, a0, padded = _band_draw(spec)
    a0, b0 = _cls_band(spec)
    assert {"first column": a0 == 0, "last column": b0 == T}.get(where, True)
    truths = _truths(spec)
    got = _cls_errors(spec, truths, band, a0)
    assert np.all(np.isfinite(got))
    assert np.array_equal(_cls_errors(spec, truths, padded, 0), got)


def test_readout_outside_the_drawn_columns_raises():
    spec = ExperimentSpec(grid=TimeGrid(stride=1.0, num_positions=200),
                          kappa=2.0, boundary=100.0, noise=NoiseSpec(),
                          num_trials=50, master_seed=3)
    band, a0, _ = _band_draw(spec)
    for shift in (-5.0, 5.0):
        with pytest.raises(ValueError, match="columns"):
            _cls_errors(spec, _truths(spec) + shift, band, a0)


def _spy_chunk_rows(monkeypatch):
    rows = []
    features = stats.make_kernel_features
    monkeypatch.setattr(stats, "make_kernel_features",
                        lambda grid, c, kappa, cols: rows.append(len(c))
                        or features(grid, c, kappa, cols))
    return rows


@pytest.mark.parametrize("noise", ALL_CLS_NOISES)
@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("truths", ["first column", "last column",
                                    "whole grid"])
def test_edges_and_spread_match_full_width_reference(monkeypatch, noise,
                                                     chunk, truths):
    # windows cut by column 0 or T - 1, where the band reaches the zero
    # padding, and chunks whose truths spread over the whole grid, whose
    # band is then every column; chunk rows 1, 7 or all trials
    T, dt, n = 60, 2.0, 90
    phases = np.random.default_rng(12).uniform(0.0, 1.0, n)
    spread = {"first column": 0.25 + phases,
              "last column": T - 1.75 + phases,
              "whole grid": 0.05 + (T - 0.1) * phases}[truths] * dt
    size, rows = chunk or n, _spy_chunk_rows(monkeypatch)
    for kappa in CLS_KAPPAS:
        spec = ExperimentSpec(grid=TimeGrid(stride=dt, num_positions=T),
                              kappa=kappa * dt, boundary=T / 2,
                              noise=ALL_CLS_NOISES[noise], num_trials=n,
                              master_seed=int(4 * kappa))
        rows.clear()
        monkeypatch.setattr(stats, "CLS_CHUNK_VALUES",
                            size * _band_width(spec))
        _check_cls_against_full_width(spec, spread, *_full_rows(spec))
        assert rows == [min(size, n - s) for s in range(0, n, size)]


def reference_hold_previous(tau, gamma):
    t = np.asarray(tau, dtype=float).copy()
    for i in range(1, t.shape[-1]):
        if abs(t[i] - t[i - 1]) < gamma:
            t[i] = t[i - 1]
    return t


def _check_hold_previous(tau, gamma):
    got = apply_hysteresis(tau, HysteresisConfig(gamma=gamma))
    # inf - inf and overflow, silent in the scan too
    with np.errstate(invalid="ignore", over="ignore"):
        want = reference_hold_previous(tau, gamma)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 9, 44])
@pytest.mark.parametrize("gamma", [0.0, 0.05, 0.1, 0.3])
def test_hold_previous_matches_reference_loop(seed, gamma):
    rng = np.random.default_rng(seed)
    _check_hold_previous(rng.uniform(0.0, 1.0, 2000), gamma)
    _check_hold_previous(np.round(rng.uniform(0.0, 1.0, 2000), 1), gamma)
    _check_hold_previous(tau_scenario(2000, 0.84, 0.2, seed), gamma)


def test_hold_previous_steps_of_exactly_gamma_match_reference():
    # quarters are exact in binary, so each step is exactly gamma or not
    tau = np.array([0.0, 0.25, 0.5, 0.25, 0.375, 0.5, 0.75, 0.5, 0.625])
    _check_hold_previous(tau, 0.25)
    assert np.array_equal(apply_hysteresis(tau, HysteresisConfig(gamma=0.25)),
                          [0.0, 0.25, 0.5, 0.25, 0.25, 0.5, 0.75, 0.5, 0.5])


@pytest.mark.parametrize("tau", [[], [0.3], [0.3, 0.32], [0.3, 0.9]])
def test_hold_previous_short_traces_match_reference(tau):
    for gamma in (0.0, 0.05):
        _check_hold_previous(tau, gamma)


@pytest.mark.parametrize("gamma", [0.0, 0.05, 0.1])
@pytest.mark.parametrize("edge", range(7))
def test_hold_previous_matches_reference_at_block_edges(scans, gamma, edge):
    n = edge_lengths(HOLD_WARMUP)[edge]
    tau = tau_scenario(n, 0.84, 0.2, edge)
    scans.clear()
    _check_hold_previous(tau, gamma)
    redone = redone_rows(scans, n, HOLD_WARMUP)
    assert (redone is None) == (edge == 0)
    if gamma == 0.05:
        assert redone in (None, [])


def test_hold_previous_above_the_trace_range_redoes_every_block(scans):
    # gamma 0.3 spans the whole trace, so every row holds its own first value
    n = edge_lengths(HOLD_WARMUP)[-1]
    tau = tau_scenario(n, 0.84, 0.2, 4)
    scans.clear()
    _check_hold_previous(tau, 0.3)
    assert redone_rows(scans, n, HOLD_WARMUP) == list(range(1, 100))


def test_hold_previous_constant_stretch_redoes_the_one_block_it_covers(scans):
    # after a jump to 0.5 the trace holds 0.5 through a stretch of 0.52; a row
    # that starts inside the stretch holds 0.52 through its whole warm-up
    row, n = 20, HOLD_WARMUP + 40 * SCAN_BLOCK + 7
    tau = np.random.default_rng(5).uniform(0.0, 1.0, n)
    jump = row * SCAN_BLOCK - 6
    tau[jump - 1:jump + 1] = 0.0, 0.5
    tau[jump + 1:row * SCAN_BLOCK + HOLD_WARMUP + 5] = 0.52
    _check_hold_previous(tau, 0.05)
    assert redone_rows(scans, n, HOLD_WARMUP) == [row]


def test_hold_previous_signed_zeros_redo_every_block(scans):
    # the trace holds its first +0.0; rows guessed from -0.0 hold -0.0, equal
    # under == but not in bits
    n = HOLD_WARMUP + 40 * SCAN_BLOCK + 7
    tau = np.full(n, -0.0)
    tau[0] = 0.0
    _check_hold_previous(tau, 0.05)
    assert redone_rows(scans, n, HOLD_WARMUP) == list(range(1, 40))


@pytest.mark.parametrize("bad", [{10_000: np.nan},
                                 {6_000: np.inf, 14_000: -np.inf},
                                 {10_000: np.inf, 10_001: np.inf},
                                 {10_000: 1.7e308, 10_001: -1.7e308},
                                 {0: np.nan, -1: np.inf}])
@pytest.mark.parametrize("gamma", [0.05, 0.3])
def test_hold_previous_with_non_finite_values_matches_reference(gamma, bad):
    n = HOLD_WARMUP + 40 * SCAN_BLOCK + 7
    tau = tau_scenario(n, 0.84, 0.2, 6)
    for where, value in bad.items():
        tau[where] = value
    _check_hold_previous(tau, gamma)


TOOLKIT_LENGTH = 250_000  # perfbench's toolkit atr-sim trace


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_toolkit_trace_redoes_no_block(scans, seed):
    # every block redone would still be exact, but slower than the scalar
    # loop alone; the benchmark's trace at the default gamma needs none
    n = TOOLKIT_LENGTH
    tau = tau_scenario(n, 0.84, 0.2, seed)
    assert redone_rows(scans, n, _ar1_warmup(0.84)) == []
    scans.clear()
    apply_hysteresis(tau, HysteresisConfig(gamma=0.05))
    assert redone_rows(scans, n, HOLD_WARMUP) == []


def test_toolkit_trace_matches_reference():
    n = TOOLKIT_LENGTH
    eta = np.random.default_rng(7).normal(0.0, 1.0, n)
    want = 1.0 / (1.0 + np.exp(-0.2 * reference_ar1_loop(eta, 0.84)))
    tau = tau_scenario(n, 0.84, 0.2, 7)
    assert tau.tobytes() == want.tobytes()
    for gamma in (0.05, 0.3):
        _check_hold_previous(tau, gamma)


# --- the blocked scan's tile ------------------------------------------------

# AR(1) coefficients whose warm-up is one step and exactly one block
RHO_WARMUP_ONE, RHO_WARMUP_BLOCK = 1e-30, 0.8972


def test_tile_rhos_have_the_edge_warmups():
    assert _ar1_warmup(RHO_WARMUP_ONE) == 1
    assert _ar1_warmup(RHO_WARMUP_BLOCK) == SCAN_BLOCK


def tile_widths(warmup):
    """Columns of every row a tile is set to hold: one, two, the warm-up's
    length -1, +0 and +1, and a whole row of W + B. At a warm-up of 1, W - 1
    = 0 leaves the tile its least, one column."""
    return [1, 2, warmup - 1, warmup, warmup + 1, warmup + SCAN_BLOCK]


@pytest.fixture
def steps(monkeypatch):
    """The length of every tile the two column steps were given, in order."""
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def recorded(cols, **params):
            calls.append(len(cols))
            real(cols, **params)
        monkeypatch.setattr(module, name, recorded)
    spy(synth, "_ar1_columns")
    spy(atr, "_hold_columns")
    return calls


def tiles(n, warmup, columns):
    """The tile lengths the blocked scan steps: none when the scalar loop
    runs the whole series; else C columns first, then each later run of up
    to C columns below the last column stepped before them."""
    if (n - warmup) // SCAN_BLOCK < SCAN_MIN_ROWS:
        return []
    C, span = max(1, columns), warmup + SCAN_BLOCK
    return [min(C, span)] + [min(C, span - j) + 1 for j in range(C, span, C)]


def check_tiles(monkeypatch, steps, scans, run, want, warmup, redone):
    """run() gives the bytes `want` and redoes the rows `redone` (None: the
    scalar loop alone) in a tile of each of tile_widths(warmup) columns of
    every row."""
    n = len(want)
    rows = (n - warmup) // SCAN_BLOCK
    for columns in tile_widths(warmup):
        monkeypatch.setattr(synth, "BLOCK_VALUES", columns * rows)
        steps.clear()
        scans.clear()
        assert run().tobytes() == want.tobytes(), columns
        assert steps == tiles(n, warmup, columns), columns
        assert redone_rows(scans, n, warmup) == redone, columns


@pytest.mark.parametrize("rho", [0.84, -0.5, RHO_WARMUP_ONE, RHO_WARMUP_BLOCK])
@pytest.mark.parametrize("edge", range(7))
def test_one_series_ar1_matches_reference_in_tiles_of_any_width(
        monkeypatch, steps, scans, rho, edge):
    W = _ar1_warmup(rho)
    n = edge_lengths(W)[edge]
    eta = np.random.default_rng(n).normal(0.0, 1.0, n)
    check_tiles(monkeypatch, steps, scans, lambda: _apply_ar1(eta, rho),
                reference_ar1_loop(eta, rho), W, None if edge == 0 else [])


@pytest.mark.parametrize("edge", range(7))
def test_hold_previous_matches_reference_in_tiles_of_any_width(
        monkeypatch, steps, scans, edge):
    n = edge_lengths(HOLD_WARMUP)[edge]
    tau = tau_scenario(n, 0.84, 0.2, edge)
    check_tiles(monkeypatch, steps, scans, lambda: apply_hysteresis(tau),
                reference_hold_previous(tau, 0.05), HOLD_WARMUP,
                None if edge == 0 else [])


def signed_zeros(n):
    """+0.0, then n - 1 values of -0.0."""
    x = np.full(n, -0.0)
    x[:1] = 0.0
    return x


def forced_redo_series(case):
    """(series, AR(1) rho or None, hold_previous gamma or None, redone rows)
    of each series above whose blocks the scan must redo."""
    B, W = SCAN_BLOCK, _ar1_warmup(0.84)
    if case == "ar1 zero stretch":
        eta = np.random.default_rng(2).normal(0.0, 1.0, W + 40 * B + 7)
        eta[20 * B - 5:20 * B + W + 5] = 0.0
        return eta, 0.84, None, [20]
    if case == "ar1 signed zeros":
        return signed_zeros(W + 40 * B + 7), 0.84, None, list(range(1, 40))
    n = HOLD_WARMUP + 40 * B + 7
    if case == "hold constant stretch":
        tau = np.random.default_rng(5).uniform(0.0, 1.0, n)
        jump = 20 * B - 6
        tau[jump - 1:jump + 1] = 0.0, 0.5
        tau[jump + 1:20 * B + HOLD_WARMUP + 5] = 0.52
        return tau, None, 0.05, [20]
    if case == "hold signed zeros":
        return signed_zeros(n), None, 0.05, list(range(1, 40))
    tau = tau_scenario(edge_lengths(HOLD_WARMUP)[-1], 0.84, 0.2, 4)
    return tau, None, 0.3, list(range(1, 100))  # above the trace's range


@pytest.mark.parametrize("case", ["ar1 zero stretch", "ar1 signed zeros",
                                  "hold constant stretch", "hold signed zeros",
                                  "hold above the range"])
def test_forced_redos_match_reference_in_tiles_of_any_width(
        monkeypatch, steps, scans, case):
    x, rho, gamma, redone = forced_redo_series(case)
    if rho is None:
        run = lambda: apply_hysteresis(x, HysteresisConfig(gamma=gamma))
        want, W = reference_hold_previous(x, gamma), HOLD_WARMUP
    else:
        run = lambda: _apply_ar1(x, rho)
        want, W = reference_ar1_loop(x, rho), _ar1_warmup(rho)
    check_tiles(monkeypatch, steps, scans, run, want, W, redone)


def plain_ar1_loop(u, rho):
    """x[0] = u[0], x[i] = rho x[i-1] + u[i]: the AR(1) scan, unscaled."""
    x = np.array(u)
    for i in range(1, len(x)):
        x[i] = rho * x[i - 1] + x[i]
    return x


@pytest.mark.parametrize("n", [1, 5_000, edge_lengths(HOLD_WARMUP)[-1]])
@pytest.mark.parametrize("zeros", [False, True])
def test_blocked_scan_reads_its_input_and_never_writes_it(n, zeros):
    # the input is a strided view of a read-only array, so any write would
    # raise; signed zeros make the scan redo every block from the input
    base = (signed_zeros(2 * n) if zeros
            else np.random.default_rng(n).uniform(0.0, 1.0, 2 * n))
    base.flags.writeable = False
    u = base[::2]
    before = u.tobytes()
    for warmup, params, step, scan, want in (
            (HOLD_WARMUP, dict(gamma=0.05), atr._hold_columns, atr._hold_scan,
             reference_hold_previous(u, 0.05)),
            (_ar1_warmup(0.84), dict(rho=0.84), synth._ar1_columns,
             synth._ar1_scan, plain_ar1_loop(u, 0.84))):
        y = synth._blocked_scan(u, warmup, partial(step, **params),
                                partial(scan, **params))
        assert y.tobytes() == want.tobytes()
        assert not np.may_share_memory(y, base)
    assert u.tobytes() == before


@pytest.mark.parametrize("mode", ["hold_previous", "deadzone_half"])
def test_hysteresis_reads_a_strided_view_or_a_list_and_leaves_it(mode):
    base = tau_scenario(2 * edge_lengths(HOLD_WARMUP)[-1], 0.84, 0.2, 8)
    before = base.copy()
    trace = base[::2]
    if mode == "hold_previous":
        want = reference_hold_previous(trace, 0.05)
    else:
        want = np.where(np.abs(trace - 0.5) <= 0.05, 0.5, trace)
    values = trace.tolist()
    cfg = HysteresisConfig(gamma=0.05, mode=mode)
    for tau in (trace, values):
        assert apply_hysteresis(tau, cfg).tobytes() == want.tobytes()
    assert base.tobytes() == before.tobytes()
    assert values == trace.tolist()


def reference_r_ece(errors, sigmas, num_bins):
    e = np.asarray(errors, dtype=float)
    s = np.asarray(sigmas, dtype=float)
    n = e.shape[-1]
    order = np.argsort(s**2, kind="stable")
    e, s = e[order], s[order]
    hit = np.abs(e) <= CalibrationConfig().one_sigma_quantile * s
    total = 0.0
    rows = []
    # array_split gives the remainder to the earliest bins, as r_ece does
    for idx in np.array_split(np.arange(n), num_bins):
        cov = float(np.mean(hit[idx]))
        total += len(idx) / n * abs(cov - 0.68)
        rows.append((len(idx), float(np.mean(s[idx] ** 2)), cov))
    return total, rows


def _r_ece_bins(errors, sigmas, num_bins):
    return r_ece(errors, sigmas, CalibrationConfig(num_bins=num_bins),
                 return_bins=True)


@pytest.mark.parametrize("num_bins", [2, 10, 37])
@pytest.mark.parametrize("decimals", [0, 1, 2, None])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_r_ece_matches_stable_sort_reference(num_bins, decimals, seed):
    # sigmas rounded to a few decimals tie often, and runs of equal sigma^2
    # cross bin edges
    rng = np.random.default_rng(seed)
    n = int(rng.integers(num_bins, 3000))
    s = np.exp(rng.uniform(np.log(0.2), np.log(5.0), n))
    if decimals is not None:
        s = np.maximum(np.round(s, decimals), 10.0**-decimals)
    e = rng.normal(0.0, s)
    assert _r_ece_bins(e, s, num_bins) == reference_r_ece(e, s, num_bins)


def test_r_ece_tie_run_across_a_bin_edge_keeps_index_order():
    # 200 each of sigma 1, 2 and 3 in shuffled order: the sigma = 2 run takes
    # sorted places 200-399 and crosses the edge at 300 between two bins.
    # The first 100 of the run by index are hits and the last 100 misses,
    # so each bin's coverage depends on which 100 of the run come first.
    s = np.random.default_rng(5).permutation(np.repeat([1.0, 2.0, 3.0], 200))
    e = np.zeros(600)
    e[np.flatnonzero(s == 2.0)[100:]] = 10.0
    total, rows = _r_ece_bins(e, s, 2)
    assert (total, rows) == reference_r_ece(e, s, 2)
    assert [cov for _, _, cov in rows] == [1.0, 200 / 300]


@pytest.mark.parametrize("num_bins", [2, 3, 10])
@pytest.mark.parametrize("n", [1000, 1003])
def test_r_ece_all_sigmas_equal(num_bins, n):
    # one tie run covers every rank, so every bin is an index range
    rng = np.random.default_rng(n + num_bins)
    s = np.full(n, 1.3)
    e = rng.normal(0.0, 1.3, n)
    assert _r_ece_bins(e, s, num_bins) == reference_r_ece(e, s, num_bins)


def test_r_ece_tie_run_over_several_bins_keeps_index_order():
    # 100 each of sigma 1 and 3 and 500 of sigma 2, shuffled, in 7 bins of
    # 100: the sigma = 2 run takes ranks 100-599, covers bins 1-5 and
    # crosses the four edges inside it. Its pairs are hits in alternating
    # index blocks of 100, so bins 1-5 hold all, none, all, none, all hits.
    s = np.random.default_rng(8).permutation(
        np.repeat([1.0, 2.0, 3.0], [100, 500, 100]))
    e = np.zeros(700)
    run = np.flatnonzero(s == 2.0)
    for block in (1, 3):
        e[run[block * 100:(block + 1) * 100]] = 10.0
    total, rows = _r_ece_bins(e, s, 7)
    assert (total, rows) == reference_r_ece(e, s, 7)
    assert [cov for _, _, cov in rows] == [1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0]


@pytest.mark.parametrize("seed", range(4))
def test_r_ece_one_pair_per_bin(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    s = rng.integers(1, 4, n).astype(float)
    e = rng.normal(0.0, 2.0, n)
    assert _r_ece_bins(e, s, n) == reference_r_ece(e, s, n)


@pytest.mark.parametrize("seed", [0, 181])
def test_r_ece_matches_reference_at_benchmark_size(seed):
    e, s = _calib_scenario("sigma_x2", 500_000, seed)
    assert _r_ece_bins(e, s, 10) == reference_r_ece(e, s, 10)


def reference_calib_scenario(name, samples, seed):
    rng = np.random.default_rng(seed)
    sigma = np.exp(rng.uniform(np.log(0.2), np.log(5.0), samples))
    errors = rng.normal(0.0, sigma)
    if name == "sigma_x2":
        sigma = 2.0 * sigma
    return errors, sigma


@pytest.mark.parametrize("name", ["well_calibrated", "sigma_x2"])
@pytest.mark.parametrize("seed", [0, 181])
def test_calib_scenario_matches_reference_draw(name, seed):
    got = _calib_scenario(name, 50_000, seed)
    want = reference_calib_scenario(name, 50_000, seed)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_calib_json_records_match_reference(tmp_path):
    out = tmp_path / "calib.json"
    assert main(["calib", "--scenario", "sigma_x2", "--samples", "20000",
                 "--bins", "7", "--seed", "3", "--format", "json",
                 "--out", str(out)]) == 0
    total, rows = reference_r_ece(
        *reference_calib_scenario("sigma_x2", 20000, 3), 7)
    want = [{"bin": i, "count": c, "mean_sigma_sq": m, "coverage": cov}
            for i, (c, m, cov) in enumerate(rows)]
    want.append({"bin": "r_ece", "count": "", "mean_sigma_sq": "",
                 "coverage": total})
    assert json.loads(out.read_text())["records"] == want
