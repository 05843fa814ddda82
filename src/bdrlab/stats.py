"""Monte-Carlo harness for estimator-variance scaling, plus statistics utilities.

Determinism contract: each random stream has one generator,
np.random.default_rng((master_seed, stream_label)), which draws every trial's
values in one call; trial k gets the k-th value (phase) or row (noise) of its
stream. The stream labels are 0 for the boundary phase, 1 for the distance
noise and 2 for the classification noise. A distance noise row holds all T
columns; a classification noise row holds only the spec's band of columns
(_cls_band), every column its readout can reach for a truth in the prior
support, and an AR(1) row starts stationary at the band's first column. The
band depends on the spec alone, not on num_trials or the seed. So results do
not depend on how trials are chunked, and a run of n trials is exactly the
first n trials of any longer run with the same seed. Aggregation is always
in trial order.

A spec's boundary is in grid positions: trial k's truth is
(boundary + phase_k) x stride frames, built by _truths, and the prior support
_cls_band reads is (boundary + [0, 1]) x stride. No other code converts it.

Each estimator side has one path, which every entry point takes. The
distance side is _distance_errors(spec, readout): it draws streams 0 and 1,
fits them with SWEEP_FIT on the spec's grid and returns the truths and the
errors of a readout, which returns one estimate per row (NaN where a row
has none). The classification side is _cls_draw(spec), the one stream-2
draw over the spec's band, read by _cls_errors.

sweep_errors runs both sides on a list of cells that share streams 0 and 1
(common random numbers): _distance_errors with the _nearest_crossing
readout runs once, on the stride-1 copy of the first cell, and each cell
takes those errors times its stride, which is valid because the distance
side never reads kappa and runs in grid units. Each cell makes its own
_cls_draw, and _cls_errors searches the plateau window of each of the
cell's truths, through _sweep_cls_errors, which computes the cell's band
and its truths' windows once. A cell in which every window holds one
sample, as a kappa <= dt/2 cell's do, draws no stream 2 and builds no
features: that sample is its estimate whatever the data. run_trials is
the one-cell sweep. scaling_sweep runs the (kappa, stride) grid through sweep_errors and adds a report per cell and
the slope fit. finite_sample_variance_check runs _distance_errors with the
pooled_boundary_estimate readout once per length. cls_variance_kappa_slope
makes one _cls_draw, for its widest kappa, and reads every kappa off it
with the same truths.

The classification side is batched: features, smoothing, the windowed
argmax and the quadratic refinement each run once per chunk of trials, and
only on the band of columns the chunk's readout can reach (its search
windows, one neighbour each side and their smoothing support). A chunk
holds as many trials as fit CLS_CHUNK_VALUES band values, which bounds its
working memory.

The distance side's readout and the reports are batched too: one
extract_boundaries call finds the crossings of every fitted row, and
variance_ratios reports every cell of a sweep in one pass, each cell's CI
on R in closed form (the delta method on log R), so no report draws a
random number. variance_ratio is the one-cell case.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from .estimators import (BDRLossConfig, FitConfig, extract_boundaries,
                         fit_distance, moving_average, quadratic_peak_offset)
from .synth import (KAPPA_MAX, KAPPA_MIN, NoiseSpec, TimeGrid,
                    make_kernel_features, sample_noise_matrix)

# Fit/search settings used by the variance experiments. The distance fitter
# gets a stronger slope prior than the loss default: with free per-position
# values (no function class tying positions together) alpha=0.1 barely
# smooths, and the resulting estimator is far from the regression setting the
# scaling analysis assumes. The peak search runs over the plateau
# neighbourhood of the true boundary (local estimation regime), never the
# whole sequence, where under heavy noise the global argmax measures only
# far-field clutter.
SWEEP_FIT_ALPHA = 4.0
SWEEP_FIT = FitConfig(loss=BDRLossConfig(alpha=SWEEP_FIT_ALPHA))
CLS_WINDOW_FACTOR = 3.0
CLS_SMOOTH_FACTOR = 1.5
# Values (trials x band columns) per batched pass of the classification
# side. Each pass holds a few temporaries of this size; batching every
# trial at once would hold several copies of the whole noise matrix.
CLS_CHUNK_VALUES = 64 * 200
# The standard normal's 97.5% quantile: variance_ratio's CI is 95%.
Z_95 = 1.959963984540054


@dataclass(frozen=True)
class ExperimentSpec:
    """One Monte-Carlo condition: grid, kernel width, noise, trial budget.

    `boundary` is in grid positions, the start of the prior support of
    every trial's truth: trial k's truth is (boundary + phase_k) x stride
    frames, phase_k uniform in [0, 1).
    """

    grid: TimeGrid
    kappa: float
    boundary: float
    noise: NoiseSpec
    num_trials: int
    master_seed: int

    def __post_init__(self):
        if self.grid.num_positions < 3:
            raise ValueError("num_positions must be >= 3")
        if not KAPPA_MIN <= self.kappa <= KAPPA_MAX:  # as make_kernel_features
            raise ValueError(
                f"kappa must be in [{KAPPA_MIN:.3g}, {KAPPA_MAX:.3g}]")
        if self.num_trials < 2:
            raise ValueError("num_trials must be >= 2")
        if not 0.0 < self.boundary < self.grid.num_positions:
            raise ValueError("boundary must be interior to the grid")


@dataclass(frozen=True)
class TrialErrors:
    """Signed per-trial errors (frames); NaN marks a failed extraction."""

    bdr: np.ndarray
    cls: np.ndarray


@dataclass(frozen=True)
class VarianceReport:
    var_bdr: float
    var_cls: float
    ratio_R: float
    ci_low: float
    ci_high: float


def _truths(spec: ExperimentSpec) -> np.ndarray:
    """Per-trial boundary positions in frames, (boundary + phase) x stride,
    each phase uniform in [0, 1) from stream 0. So they are the truths of
    the spec's stride-1 copy times the stride, bit for bit, as sweep_errors
    reads them."""
    phases = np.random.default_rng((spec.master_seed, 0)).uniform(
        0.0, 1.0, spec.num_trials)
    return (spec.boundary + phases) * spec.grid.stride


def _noise_rows(spec: ExperimentSpec, label: int, count: int) -> np.ndarray:
    """One noise row of `count` values per trial from stream `label`: all T
    columns of the distance noise (1) for _distance_errors, or the b0 - a0
    columns of the classification noise's band _cls_band(spec) (2) for
    _cls_draw."""
    return sample_noise_matrix(spec.noise, (spec.master_seed, label),
                               spec.num_trials, count)


def _distance_errors(spec: ExperimentSpec, readout):
    """(truths, errors) in frames of the spec's distance side: the one
    place that draws streams 0 and 1 and fits them.

    The observations are the clean signed-distance field plus noise in
    stride units (one noise unit per grid step), matching the regression
    error model the scaling analysis is phrased in. They are fitted with
    SWEEP_FIT on the spec's own grid, and each row's error is
    readout(fits, truths, grid) - truths. Every readout returns one
    estimate per row, NaN where a row has none: _nearest_crossing for
    sweep_errors, pooled_boundary_estimate for finite_sample_variance_check.
    """
    grid = spec.grid
    truths, noise = _truths(spec), _noise_rows(spec, 1, grid.num_positions)
    clean = grid.times()[None, :] - truths[:, None]
    fits = fit_distance(clean + grid.stride * noise, grid, SWEEP_FIT)
    return truths, readout(fits, truths, grid) - truths


def _nearest_crossing(dhat: np.ndarray, truths: np.ndarray,
                      grid: TimeGrid) -> np.ndarray:
    """The crossing nearest each truth, ties going to the earlier crossing;
    NaN where a row has no crossing. One extract_boundaries call reads
    every row."""
    row, cands = extract_boundaries(dhat, grid)
    # lexsort is stable: within a row, equal distances keep crossing order
    order = np.lexsort((np.abs(cands - truths[row]), row))
    first = order[np.diff(row[order], prepend=-1) != 0]
    estimates = np.full(len(truths), np.nan)
    estimates[row[first]] = cands[first]
    return estimates


def _readout(spec: ExperimentSpec):
    """(m, r) of the spec's peak readout: the smoothing width m in columns
    and the search radius r in frames, half a stride plus CLS_WINDOW_FACTOR
    times the part of kappa that resolves beyond half a stride.

    m is round(CLS_SMOOTH_FACTOR kappa / stride) | 1, at most 2T - 1 for
    rows of T columns. From that width on, every smoothed column sums the
    whole row in the same order, so a wider m would give the same first
    maximum, the same zero quadratic offset and the same band, at a cost
    that grows as 1/stride."""
    stride, kappa = spec.grid.stride, spec.kappa
    # 2T - 1 is odd, so capping the width before rounding gives the same m
    # as capping m, and an infinite width never reaches int()
    width = min(CLS_SMOOTH_FACTOR * kappa / stride,
                2 * spec.grid.num_positions - 1)
    m = max(1, int(round(width)) | 1)
    r = 0.5 * stride + CLS_WINDOW_FACTOR * max(0.0, kappa - 0.5 * stride)
    return m, r


def _windows(spec: ExperimentSpec, truth: np.ndarray, r: float):
    """(lo, hi): each truth's search window [lo, hi), in grid columns.

    A window holds the samples within r of its truth, r being the search
    radius of _readout(spec), or the nearest interior sample if that holds
    none. lo and hi never decrease as the truth grows. Each truth's window
    depends on that truth alone, so the windows of a slice of truths are
    that slice of the windows.
    """
    stride, T = spec.grid.stride, spec.grid.num_positions
    lo = np.maximum(np.ceil((truth - r) / stride), 1)
    hi = np.minimum(np.floor((truth + r) / stride) + 1, T - 1)
    empty = hi <= lo
    lo[empty] = np.clip(np.round(truth[empty] / stride), 1, T - 2)
    hi[empty] = lo[empty] + 1
    return lo, hi


def _reach(spec: ExperimentSpec, lo: np.ndarray, hi: np.ndarray, m: int):
    """[a, b): the band of columns the spec's readout of the windows
    [lo, hi) reads, m being the smoothing width of _readout(spec). Smoothed
    column j (h = m // 2) sums inputs j - h .. j + m-1-h, and the readout
    uses columns lo-1 .. hi, so a = min(lo) - 1 - h and
    b = max(hi) + 1 + (m-1-h), cut to [0, T)."""
    h = m // 2
    return (max(0, int(lo.min()) - 1 - h),
            min(spec.grid.num_positions, int(hi.max()) + 1 + (m - 1 - h)))


def _cls_band(spec: ExperimentSpec, readout=None):
    """[a0, b0): every column the readout of _cls_errors can reach for a
    truth in the prior support (boundary + [0, 1]) x stride, the band
    stream 2 draws. The support's ends follow _truths' formula, whose
    rounding is monotone, so every truth lies between them; window ends
    never decrease as the truth grows, so the two ends bound them. The band
    grows with kappa. `readout` is _readout(spec), where the caller has
    it."""
    m, r = _readout(spec) if readout is None else readout
    support = (spec.boundary + np.array([0.0, 1.0])) * spec.grid.stride
    return _reach(spec, *_windows(spec, support, r), m)


def _cls_draw(spec: ExperimentSpec, readout=None):
    """(noise, a0): the spec's classification noise, stream 2 over its band
    [a0, b0) = _cls_band(spec), one row of b0 - a0 values per trial, as
    _cls_errors reads it. The one classification draw: a sweep cell makes
    it unless every window of the cell holds one sample
    (_sweep_cls_errors), cls_variance_kappa_slope once, for its widest
    kappa. `readout` is _readout(spec), where the caller has it."""
    a0, b0 = _cls_band(spec, readout)
    return _noise_rows(spec, 2, b0 - a0), a0


def _cls_errors(spec: ExperimentSpec, truths: np.ndarray, noise: np.ndarray,
                a0: int, band=None, windows=None,
                readout=None) -> np.ndarray:
    """Signed classification-peak error per trial, one noise row per truth.

    Row k of `noise` holds the classification noise of grid columns
    a0 .. a0 + noise.shape[1] - 1 for truth k: the draw of _cls_draw with
    its a0, or full rows with a0 = 0. A chunk whose band falls outside
    those columns raises ValueError. `band`, `windows` and `readout`, where
    the caller has computed them, are _cls_band(spec), the truths' windows
    (_windows) and _readout(spec).

    A trial's estimate is the first maximum of its clipped, smoothed feature
    row within the search window of its truth (_windows). Quadratic
    refinement is only meaningful when the window holds at least three
    samples.

    The windows of all truths are computed once, and each chunk computes
    only the band [a, b) of columns its readout reads (_reach). Those
    columns get the same float operations, in the same order, on the same
    inputs as on full rows, and a band cut at a sequence edge gets the same
    zero padding, so the errors are those of the full rows bit for bit. A
    chunk holds CLS_CHUNK_VALUES // w trials, w being the width b0 - a0 of
    the spec's band _cls_band, which holds the band of every chunk whose
    truths lie in the prior support, as those of sweep_errors and
    cls_variance_kappa_slope do; truths that spread wider widen the chunk's
    band with them.
    """
    grid, kappa = spec.grid, spec.kappa
    readout = m, r = _readout(spec) if readout is None else readout
    a, b = _cls_band(spec, readout) if band is None else band
    lo_all, hi_all = _windows(spec, truths, r) if windows is None else windows
    chunk = max(1, CLS_CHUNK_VALUES // (b - a))
    errors = np.empty(len(truths))
    for start in range(0, len(truths), chunk):
        rows = slice(start, start + chunk)
        truth, lo, hi = truths[rows], lo_all[rows], hi_all[rows]
        a, b = _reach(spec, lo, hi, m)
        if a < a0 or b > a0 + noise.shape[1]:
            raise ValueError(f"the readout reads columns [{a}, {b}), the "
                             f"noise holds [{a0}, {a0 + noise.shape[1]})")
        ps = make_kernel_features(grid, truth, kappa, cols=slice(a, b))
        ps += noise[rows, a - a0:b - a0]
        ps = moving_average(np.clip(ps, 0.0, 1.0, out=ps), m)
        cols = np.arange(a, b)
        inside = (cols >= lo[:, None]) & (cols < hi[:, None])
        i = np.argmax(np.where(inside, ps, -np.inf), axis=1)
        k = np.arange(len(i))
        off = quadratic_peak_offset(ps[k, i - 1], ps[k, i], ps[k, i + 1])
        off[hi - lo < 3] = 0.0
        errors[rows] = (i + a + off) * grid.stride - truth
    return errors


def _sweep_cls_errors(spec: ExperimentSpec, truths: np.ndarray) -> np.ndarray:
    """One sweep cell's classification errors: _cls_errors on the cell's
    own _cls_draw, with the cell's readout, band and its truths' windows
    computed once.

    A cell in which every truth's window holds one sample, as every cell
    with kappa <= dt/2 whose truths miss the half-strides does, draws
    nothing and builds no features: its errors are lo * stride - truths,
    those of _cls_errors bit for bit whatever the noise. A one-sample
    window's first maximum is that sample, as every other column is -inf,
    and its quadratic offset is set to 0. Each cell draws stream 2 from its
    own generator, so no other cell's draw moves. Truths that overflowed to
    inf take _cls_errors, whose features refuse them.
    """
    readout = _readout(spec)
    windows = lo, hi = _windows(spec, truths, readout[1])
    if np.all(hi - lo == 1) and np.isfinite(truths).all():
        return lo * spec.grid.stride - truths
    noise, a0 = _cls_draw(spec, readout)  # its rows span the band [a0, b0)
    return _cls_errors(spec, truths, noise, a0, (a0, a0 + noise.shape[1]),
                       windows, readout)


def sweep_errors(specs) -> list:
    """Signed errors in frames, one TrialErrors per spec, in spec order;
    no specs give no errors.

    The specs must share num_positions, boundary, noise and num_trials, or
    ValueError is raised before any draw. Every cell shares the distance
    side of the stride-1 copy of specs[0]: one _distance_errors call with
    the _nearest_crossing readout draws its phases (stream 0) and distance
    noise (stream 1), fits them and reads them out, in grid units. A cell
    of stride dt takes those errors times dt, and runs _sweep_cls_errors on
    those truths times dt, its own _truths at specs[0]'s master_seed: its
    own _cls_draw, from its own master_seed, read by _cls_errors, or no
    draw where every window holds one sample. This is valid because the
    distance estimator never reads kappa and fits and extracts in grid
    units, so at a power-of-two stride a fit on the cell's own grid gives
    the same errors times dt bit for bit. Failed extractions are recorded
    as NaN, not raised.
    """
    if not specs:
        return []
    if len({(s.grid.num_positions, s.boundary, s.noise, s.num_trials)
            for s in specs}) > 1:
        raise ValueError("specs must share num_positions, boundary, noise "
                         "and num_trials")
    unit = replace(specs[0], grid=replace(specs[0].grid, stride=1.0))
    truths, e_unit = _distance_errors(unit, _nearest_crossing)
    return [TrialErrors(bdr=e_unit * spec.grid.stride,
                        cls=_sweep_cls_errors(spec,
                                              truths * spec.grid.stride))
            for spec in specs]


def run_trials(spec: ExperimentSpec) -> TrialErrors:
    """Signed errors in frames of both estimators on one condition (NaN
    marks a failed extraction): the one-cell sweep_errors."""
    return sweep_errors([spec])[0]


def _mse(errors: np.ndarray) -> float:
    """Mean square of the finite errors; NaN if there are none."""
    e = errors[np.isfinite(errors)]
    return float(np.mean(e**2)) if e.size else np.nan


def blocked_bootstrap(totals, num_resamples: int, seed, statistic=None):
    """95% CI from resampling whole groups with replacement.

    `totals` is an (n_groups, k) array of per-group totals; one resample
    sums the totals of its picked groups. `statistic` maps the
    (num_resamples, k) resampled sums to one value per resample (default:
    column 0 / column 1, a mean from a sum and a count). Returns (low, high).

    All picks come from default_rng(seed) in one call, which gives the same
    picks as one draw per resample. A NaN statistic gives NaN bounds.
    """
    totals = np.asarray(totals, dtype=float)
    n = len(totals)
    if n < 2:
        raise ValueError("need at least 2 groups")
    if statistic is None:
        statistic = lambda s: s[:, 0] / s[:, 1]
    picks = np.random.default_rng(seed).integers(0, n, size=(num_resamples, n))
    sums = np.stack([col[picks].sum(axis=1) for col in totals.T], axis=-1)
    return np.percentile(statistic(sums), [2.5, 97.5])


def _relative_squares(errors: np.ndarray, mse: np.ndarray):
    """(x^2 / m, finite) of a (cells, n) stack of errors x and each cell's
    MSE m: 0 where an error is not finite or m is not positive."""
    finite = np.isfinite(errors)
    x = np.where(finite, errors, 0.0)
    m = mse[:, None]
    return np.divide(x * x, m, out=np.zeros_like(x), where=m > 0), finite


def _cov(x: np.ndarray, y: np.ndarray, mask: np.ndarray):
    """(covariance with ddof 1, count) of each row of the finite x and y
    over the row's masked entries; the covariance is 0 in a row with fewer
    than 2."""
    n = mask.sum(axis=1, keepdims=True)
    xc, yc = ((v - (v * mask).sum(axis=1, keepdims=True) / np.maximum(n, 1))
              * mask for v in (x, y))
    return (xc * yc).sum(axis=1) / np.maximum(n[:, 0] - 1, 1), n[:, 0]


def _log_ratio_variance(eb: np.ndarray, ec: np.ndarray, mb: np.ndarray,
                        mc: np.ndarray) -> np.ndarray:
    """Delta-method variance of log(m_b / m_c) per cell of the (cells, n_b)
    and (cells, n_c) error stacks, clamped at 0:

        s2(b2) / (n_b m_b^2) + s2(c2) / (n_c m_c^2)
        - 2 cov(b2, c2) n_bc / (n_b n_c m_b m_c)

    over each side's n finite squared errors, s2 and cov with ddof 1, and
    the covariance over the n_bc trials both series hold with both errors
    finite. Each term is read off the squares over their side's MSE, so an
    all-zero side (m = 0) adds 0 and divides nothing. A cell with a side of
    fewer than 2 finite errors gives 0."""
    u, fb = _relative_squares(eb, mb)
    v, fc = _relative_squares(ec, mc)
    var_u, nb = _cov(u, u, fb)
    var_v, nc = _cov(v, v, fc)
    k = min(u.shape[1], v.shape[1])
    cov, nbc = _cov(u[:, :k], v[:, :k], fb[:, :k] & fc[:, :k])
    nb1, nc1 = np.maximum(nb, 1), np.maximum(nc, 1)
    var = var_u / nb1 + var_v / nc1 - 2.0 * cov * nbc / (nb1 * nc1)
    return np.where((nb >= 2) & (nc >= 2), np.maximum(var, 0.0), 0.0)


def variance_ratios(errors) -> list:
    """One VarianceReport per TrialErrors cell of `errors`, in order: the
    variances about the truth (MSE form), their ratio R and its 95% CI.

    The CI is the delta-method interval on log R: R exp(-+Z_95 sd) with sd
    from _log_ratio_variance, so it always holds R, draws nothing and
    needs no seed. The trials of a cell are independent, and the two series
    of a cell may differ in length. The cells' bdr series share one length,
    and so do their cls series, so every cell's interval comes from one
    (cells, n) stack per side. A NaN R gives NaN bounds; no cells give no
    reports.
    """
    if not errors:
        return []
    sides = []
    for side in ([e.bdr for e in errors], [e.cls for e in errors]):
        side = [np.asarray(e, dtype=float) for e in side]
        if len({e.size for e in side}) != 1:
            raise ValueError("error series must have one length per side")
        if side[0].size == 0:
            raise ValueError("error series must be non-empty")
        sides.append(np.stack(side))
    eb, ec = sides
    mb = np.array([_mse(e) for e in eb])
    mc = np.array([_mse(e) for e in ec])
    if not np.all(mc > 0):
        raise ValueError("degenerate denominator")
    ratio = mb / mc
    half = Z_95 * np.sqrt(_log_ratio_variance(eb, ec, mb, mc))
    return [VarianceReport(*row) for row in zip(
        mb.tolist(), mc.tolist(), ratio.tolist(),
        (ratio * np.exp(-half)).tolist(), (ratio * np.exp(half)).tolist())]


def variance_ratio(errors_bdr, errors_cls) -> VarianceReport:
    """The VarianceReport of one pair of error series: the one-cell
    variance_ratios."""
    return variance_ratios([TrialErrors(errors_bdr, errors_cls)])[0]


def holm_bonferroni(p_values):
    """Step-down multiple-comparison adjustment, clipped at 1."""
    p = np.asarray(p_values, dtype=float)
    if not np.all((p >= 0) & (p <= 1)):
        raise ValueError("p-values must be in [0, 1]")
    order = np.argsort(p, kind="stable")
    adj = np.empty(p.size)
    # the running maximum of (n - rank) p over the ranks
    adj[order] = np.minimum(
        np.maximum.accumulate(np.arange(p.size, 0, -1) * p[order]), 1.0)
    return adj


def loglog_slope(x, y):
    """OLS on (log x, log y); returns (slope, intercept, r_squared)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("need at least 3 paired values")
    if not np.all(np.isfinite(x) & np.isfinite(y) & (x > 0) & (y > 0)):
        raise ValueError("values must be finite and positive")
    if np.all(x == x[0]):
        raise ValueError("need at least 2 distinct x values")
    lx, ly = np.log(x), np.log(y)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    ss = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(res[0]) / ss if res.size and ss > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


WIDTH_BIN_LABELS = ("W<=dt", "dt<W<=2dt", "2dt<W<=3dt", "W>3dt")


def width_stratified_R(results):
    """Mean R per bin of the plateau-width ratio W/dt; None marks an empty bin.

    `results` holds (W, dt, R) tuples; the bins are WIDTH_BIN_LABELS.
    """
    sums = [[] for _ in range(4)]
    for W, dt, R in results:
        if not all(np.isfinite(v) and v > 0 for v in (W, dt, R)):
            raise ValueError("W, dt and R must be finite and positive")
        q = W / dt
        b = 0 if q <= 1 else (1 if q <= 2 else (2 if q <= 3 else 3))
        sums[b].append(R)
    return [float(np.mean(v)) if v else None for v in sums]


def scaling_sweep(kappas, strides, num_positions: int, noise: NoiseSpec,
                  num_trials: int, master_seed: int):
    """Run the (kappa, stride) grid and fit the variance-ratio scaling law.

    Returns (cells, slope, intercept, r2, bin_means) where cells is a list of
    dicts in deterministic (kappa-major) order.

    Seeding: every cell has the boundary num_positions // 2, and the cells'
    errors come from sweep_errors, which draws the boundary phases (stream
    0) and the distance noise (stream 1) once, from master_seed, the seed
    of the first cell, so a cell of stride dt reads the truths
    (num_positions // 2 + phase) * dt. So var_bdr is exactly dt^2 times the
    stride-1 value and every cell reports the same failures, the count of
    its NaN distance errors. Cell i draws its classification noise (stream
    2) from master_seed + i, so the classification side stays independent
    per cell. One variance_ratios call reports every cell, each CI in
    closed form, so the reports draw nothing. Every cell's spec is built,
    and so validated, and the cells are checked for a finite dt^2/kappa
    each, at least the smallest normal float, and two distinct ones, which
    the slope fit needs, before any fitting. A cell whose R is not finite
    and positive, which the slope fit cannot take, or whose var_bdr or
    var_cls is subnormal, and so holds too few digits, raises ValueError
    naming that cell.

    Known limitation: in a cell with kappa <= dt/2 the peak-search window
    holds one sample, so the classification error is the phase's rounding
    error times dt, whatever the noise and kappa, and such a cell draws no
    stream 2. With shared phases all such cells (six of the 4x4 grid)
    therefore share one classification error in grid units, hence one
    var_cls / dt^2 and one R: they are one estimate, not several
    independent ones.
    """
    conds = [(float(k), float(dt)) for k in kappas for dt in strides]
    if len(conds) < 3:
        raise ValueError("need at least 3 sweep cells")
    specs = [ExperimentSpec(
        grid=TimeGrid(stride=dt, num_positions=num_positions),
        kappa=kappa, boundary=float(num_positions // 2),
        noise=noise, num_trials=num_trials,
        master_seed=master_seed + cell_index)
        for cell_index, (kappa, dt) in enumerate(conds)]
    try:
        xs = [dt**2 / kappa for kappa, dt in conds]
    except OverflowError:  # a float's ** raises where * and / give inf
        xs = [np.inf]
    if not np.isfinite(xs).all():
        raise ValueError("stride must keep every dt^2/kappa finite")
    if min(xs) < sys.float_info.min:  # dt^2 is subnormal or underflows to 0
        raise ValueError("stride must keep every dt^2/kappa at least "
                         f"{sys.float_info.min:.3g}")
    if len(set(xs)) < 2:
        raise ValueError("need at least 2 distinct dt^2/kappa values")
    errors = sweep_errors(specs)
    reports = variance_ratios(errors)
    cells = []
    for (kappa, dt), x, errs, rep in zip(conds, xs, errors, reports):
        if not 0 < rep.ratio_R < np.inf:  # the slope fit takes log R
            raise ValueError(f"cell (kappa={kappa:g}, dt={dt:g}) has R = "
                             f"{rep.ratio_R:g}, not finite and positive")
        low = min(rep.var_bdr, rep.var_cls)
        if low < sys.float_info.min:  # a subnormal holds too few digits
            raise ValueError(f"cell (kappa={kappa:g}, dt={dt:g}) has a "
                             f"variance of {low:g}, below "
                             f"{sys.float_info.min:.3g}")
        cells.append({"kappa": kappa, "stride": dt, "x_dt2_over_kappa": x,
                      "var_bdr": rep.var_bdr, "var_cls": rep.var_cls,
                      "R": rep.ratio_R, "ci_low": rep.ci_low,
                      "ci_high": rep.ci_high,
                      "failures": int(np.isnan(errs.bdr).sum())})
    slope, intercept, r2 = loglog_slope(
        [c["x_dt2_over_kappa"] for c in cells], [c["R"] for c in cells])
    bin_means = width_stratified_R(
        [(2 * c["kappa"], c["stride"], c["R"]) for c in cells])
    return cells, slope, intercept, r2, bin_means


def correlation_robustness(base_spec: ExperimentSpec, rhos):
    """R per AR(1) coefficient, everything else held fixed; one
    variance_ratios call reports every coefficient."""
    rhos = [float(rho) for rho in rhos]
    errors = [run_trials(replace(base_spec, noise=replace(base_spec.noise,
                                                          rho=rho)))
              for rho in rhos]
    reports = variance_ratios(errors)
    return {rho: rep.ratio_R for rho, rep in zip(rhos, reports)}


def pooled_boundary_estimate(dhat: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Structural location estimate pooling every position: median of t - d̂(t).

    Under the unit-slope model d(t) = t - b, each position gives an
    independent reading t_i - d̂(t_i) of b; the median aggregates all T of
    them, so its variance shrinks with the sequence length.
    """
    t = grid.times()
    return np.median(t[None, :] - np.atleast_2d(dhat), axis=-1)


def _variance_slope(variances: dict):
    """(log-log slope, variances), or ("degenerate", variances) if all are 0."""
    if all(v == 0 for v in variances.values()):
        return "degenerate", variances
    slope, _, _ = loglog_slope(list(variances.keys()), list(variances.values()))
    return slope, variances


def _distinct(name: str, values: list) -> list:
    """values, refused before any draw when two are equal: each is one key
    of the variances, and the slope needs one point per value."""
    if len(set(values)) < len(values):
        raise ValueError(f"{name} must be distinct, not {values}")
    return values


def finite_sample_variance_check(base_spec: ExperimentSpec, lengths):
    """Slope of log Var[pooled boundary estimate] vs log T.

    Each length T runs _distance_errors with the pooled_boundary_estimate
    readout on base_spec's grid cut to T positions, boundary T // 2, and
    takes the MSE of its errors. Returns (slope, {T: variance}), or
    ("degenerate", variances) when the noise-free setup leaves nothing to
    measure. The lengths must be distinct whole numbers (50.0 is 50); other
    lengths are refused before any draw.
    """
    if len(lengths) < 3:
        raise ValueError("need at least 3 sequence lengths")
    if not all(float(T).is_integer() for T in lengths):
        raise ValueError("lengths must be whole numbers, not "
                         f"{[float(T) for T in lengths]}")
    specs = [replace(base_spec, grid=replace(base_spec.grid, num_positions=T),
                     boundary=float(T // 2))
             for T in _distinct("lengths", [int(T) for T in lengths])]
    pooled = lambda fits, _, grid: pooled_boundary_estimate(fits, grid)
    return _variance_slope({
        spec.grid.num_positions: _mse(_distance_errors(spec, pooled)[1])
        for spec in specs})


def cls_variance_kappa_slope(base_spec: ExperimentSpec, kappas):
    """Slope of log Var[classification peak] vs log kappa.

    The phases and the classification noise do not depend on kappa, so
    they are drawn once and every kappa reuses them. The noise is the
    _cls_draw of the widest kappa, whose band holds every narrower one's, so
    that kappa's errors equal the classification errors of run_trials at
    that kappa bit for bit, at any stride, as both build the truths with
    _truths' formula, and every kappa's errors equal _cls_errors on the
    shared draw. Equal kappas are refused before any draw.
    """
    if len(kappas) < 3:
        raise ValueError("need at least 3 kappas")
    specs = [replace(base_spec, kappa=k)
             for k in _distinct("kappas", [float(k) for k in kappas])]
    truths = _truths(base_spec)
    noise, a0 = _cls_draw(max(specs, key=lambda spec: spec.kappa))
    return _variance_slope({
        spec.kappa: _mse(_cls_errors(spec, truths, noise, a0))
        for spec in specs})
