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

sweep_errors runs both estimators on a list of cells that share streams 0
and 1 (common random numbers): the distance side fits with SWEEP_FIT and
extracts its zero crossings once, on a stride-1 grid, and each cell takes
those errors times its stride, which is valid because the distance side
never reads kappa and runs in grid units. The classification side searches
the plateau window of each of the cell's truths, with stream 2 per cell.
run_trials is the one-cell sweep. scaling_sweep runs the (kappa, stride)
grid through sweep_errors and adds a bootstrap per cell and the slope fit.
cls_variance_kappa_slope draws streams 0 and 2 once per call, stream 2 for
its widest kappa, and reuses them for every kappa.

The classification side is batched: features, smoothing, the windowed
argmax and the quadratic refinement each run once per chunk of trials, and
only on the band of columns the chunk's readout can reach (its search
windows, one neighbour each side and their smoothing support). A chunk
holds as many trials as fit CLS_CHUNK_VALUES band values, which bounds its
working memory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .estimators import (BDRLossConfig, FitConfig, extract_boundaries,
                         fit_distance, moving_average, quadratic_peak_offset)
from .synth import NoiseSpec, TimeGrid, make_kernel_features, sample_noise_matrix

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
# variance_ratio's CI: consecutive trials per bootstrap block, and resamples.
BOOTSTRAP_BLOCK = 20
BOOTSTRAP_RESAMPLES = 2000


@dataclass(frozen=True)
class ExperimentSpec:
    """One Monte-Carlo condition: grid, kernel width, noise, trial budget."""

    grid: TimeGrid
    kappa: float
    boundary: float
    noise: NoiseSpec
    num_trials: int
    master_seed: int

    def __post_init__(self):
        if self.grid.num_positions < 3:
            raise ValueError("num_positions must be >= 3")
        if not (np.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError("kappa must be finite and positive")
        if self.num_trials < 2:
            raise ValueError("num_trials must be >= 2")
        if not 0.0 < self.boundary < self.grid.duration:
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
    """Per-trial boundary positions: the spec's boundary + phase x stride,
    each phase uniform in [0, 1) from stream 0."""
    phases = np.random.default_rng((spec.master_seed, 0)).uniform(
        0.0, 1.0, spec.num_trials)
    return spec.boundary + phases * spec.grid.stride


def _noise_rows(spec: ExperimentSpec, label: int) -> np.ndarray:
    """One noise row per trial from stream `label`: all T columns of the
    distance noise (1), the _cls_band columns of the classification noise
    (2)."""
    a0, b0 = _cls_band(spec) if label == 2 else (0, spec.grid.num_positions)
    return sample_noise_matrix(spec.noise, (spec.master_seed, label),
                               spec.num_trials, b0 - a0)


def _fit_distance_side(spec: ExperimentSpec):
    """(truths, fitted rows) of the spec's distance side.

    The observations are the clean signed-distance field plus noise in
    stride units (one noise unit per grid step), matching the regression
    error model the scaling analysis is phrased in.
    """
    grid = spec.grid
    truths, noise = _truths(spec), _noise_rows(spec, 1)
    clean = grid.times()[None, :] - truths[:, None]
    return truths, fit_distance(clean + grid.stride * noise, grid, SWEEP_FIT)


def _nearest_crossing_errors(dhat: np.ndarray, truths: np.ndarray,
                             grid: TimeGrid) -> np.ndarray:
    """Signed error of the crossing nearest each truth; NaN where a row has
    no crossing."""
    errors = np.full(len(truths), np.nan)
    for k, truth in enumerate(truths):
        cands = extract_boundaries(dhat[k], grid)
        if cands.size:
            errors[k] = cands[np.argmin(np.abs(cands - truth))] - truth
    return errors


def _readout(spec: ExperimentSpec):
    """(m, r) of the spec's peak readout: the smoothing width m in columns
    and the search radius r in frames, half a stride plus CLS_WINDOW_FACTOR
    times the part of kappa that resolves beyond half a stride."""
    stride, kappa = spec.grid.stride, spec.kappa
    m = max(1, int(round(CLS_SMOOTH_FACTOR * kappa / stride)) | 1)
    r = 0.5 * stride + CLS_WINDOW_FACTOR * max(0.0, kappa - 0.5 * stride)
    return m, r


def _windows(spec: ExperimentSpec, truth: np.ndarray, m: int, r: float):
    """(lo, hi, a, b): each truth's search window [lo, hi) and the band
    [a, b) of columns the readout of those windows reads.

    A window holds the samples within r of its truth, or the nearest
    interior sample if that holds none. Smoothed column j (width m,
    h = m // 2) sums inputs j - h .. j + m-1-h, and the readout uses columns
    lo-1 .. hi, so a = min(lo) - 1 - h and b = max(hi) + 1 + (m-1-h), cut
    to [0, T). lo and hi never decrease as the truth grows.
    """
    stride, T = spec.grid.stride, spec.grid.num_positions
    lo = np.maximum(np.ceil((truth - r) / stride), 1)
    hi = np.minimum(np.floor((truth + r) / stride) + 1, T - 1)
    empty = hi <= lo
    lo[empty] = np.clip(np.round(truth[empty] / stride), 1, T - 2)
    hi[empty] = lo[empty] + 1
    h = m // 2
    a = max(0, int(lo.min()) - 1 - h)
    b = min(T, int(hi.max()) + 1 + (m - 1 - h))
    return lo, hi, a, b


def _cls_band(spec: ExperimentSpec):
    """[a0, b0): every column the readout of _cls_errors can reach for a
    truth in the prior support [boundary, boundary + stride], the band
    stream 2 draws. Window ends never decrease as the truth grows, so the
    support's two ends bound them. The band grows with kappa."""
    m, r = _readout(spec)
    support = np.array([spec.boundary, spec.boundary + spec.grid.stride])
    _, _, a0, b0 = _windows(spec, support, m, r)
    return a0, b0


def _cls_errors(spec: ExperimentSpec, truths: np.ndarray, noise: np.ndarray,
                a0: int) -> np.ndarray:
    """Signed classification-peak error per trial, one noise row per truth.

    Row k of `noise` holds the classification noise of grid columns
    a0 .. a0 + noise.shape[1] - 1 for truth k: the _cls_band draw of
    _noise_rows with its a0, or full rows with a0 = 0. A chunk whose band
    falls outside those columns raises ValueError.

    A trial's estimate is the first maximum of its clipped, smoothed feature
    row within the search window of its truth (_windows). Quadratic
    refinement is only meaningful when the window holds at least three
    samples.

    Each chunk computes only the band [a, b) of columns its readout reads
    (_windows). Those columns get the same float operations, in the same
    order, on the same inputs as on full rows, and a band cut at a sequence
    edge gets the same zero padding, so the errors are those of the full
    rows bit for bit. A chunk holds CLS_CHUNK_VALUES // w trials, w being
    one row's band width plus one column for truths that spread within a
    stride, as those of sweep_errors and cls_variance_kappa_slope do; truths
    that spread wider widen the chunk's band with them.
    """
    grid, kappa = spec.grid, spec.kappa
    stride, T = grid.stride, grid.num_positions
    m, r = _readout(spec)
    # widest window (floor(2r / stride) + 1 columns), its two neighbours,
    # m - 1 columns of smoothing support and one of spread
    width = min(T, int(2 * r / stride) + m + 3)
    chunk = max(1, CLS_CHUNK_VALUES // width)
    errors = np.empty(len(truths))
    for start in range(0, len(truths), chunk):
        rows = slice(start, start + chunk)
        truth = truths[rows]
        lo, hi, a, b = _windows(spec, truth, m, r)
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
        errors[rows] = (i + a + off) * stride - truth
    return errors


def sweep_errors(specs, unit: ExperimentSpec) -> list:
    """Signed errors in frames, one TrialErrors per spec, in spec order.

    `unit` is the stride-1 spec whose distance side every cell shares; the
    specs share its num_positions, noise and num_trials. Its phases (stream
    0) and distance noise (stream 1) are drawn once, fitted once and read
    out once, in grid units. A cell of stride dt takes those errors times
    dt, and runs _cls_errors on the unit truths times dt with stream 2
    drawn from its own master_seed. This is valid because the distance
    estimator never reads kappa and fits and extracts in grid units, so at
    a power-of-two stride a fit on the cell's own grid gives the same
    errors times dt bit for bit. Failed extractions are recorded as NaN,
    not raised.
    """
    truths, dhat = _fit_distance_side(unit)
    e_unit = _nearest_crossing_errors(dhat, truths, unit.grid)
    return [TrialErrors(bdr=e_unit * spec.grid.stride,
                        cls=_cls_errors(spec, truths * spec.grid.stride,
                                        _noise_rows(spec, 2),
                                        _cls_band(spec)[0]))
            for spec in specs]


def run_trials(spec: ExperimentSpec) -> TrialErrors:
    """Signed errors in frames of both estimators on one condition (NaN
    marks a failed extraction): the one-cell sweep_errors, whose unit is the
    spec on a stride-1 grid with its boundary in grid units."""
    unit = replace(spec, grid=replace(spec.grid, stride=1.0),
                   boundary=spec.boundary / spec.grid.stride)
    return sweep_errors([spec], unit)[0]


def _mse(errors: np.ndarray) -> float:
    """Mean square of the finite errors; NaN if there are none."""
    e = errors[np.isfinite(errors)]
    return float(np.mean(e**2)) if e.size else np.nan


def blocked_bootstrap(totals, num_resamples: int, seed: int, statistic=None):
    """95% CI from resampling whole groups with replacement.

    `totals` is an (n_groups, k) array of per-group totals; one resample
    sums the totals of its picked groups. `statistic` maps the
    (num_resamples, k) resampled sums to one value per resample (default:
    column 0 / column 1, a mean from a sum and a count). All picks come from
    one draw, which gives the same picks as one draw per resample.
    """
    totals = np.asarray(totals, dtype=float)
    n = len(totals)
    if n < 2:
        raise ValueError("need at least 2 groups")
    if statistic is None:
        statistic = lambda s: s[:, 0] / s[:, 1]
    picks = np.random.default_rng(seed).integers(0, n, size=(num_resamples, n))
    sums = np.stack([col[picks].sum(axis=1) for col in totals.T], axis=-1)
    lo, hi = np.percentile(statistic(sums), [2.5, 97.5])
    return float(lo), float(hi)


def _block_totals(errors: np.ndarray, nblocks: int) -> list:
    """Per-block [sum of squares, count] over the finite errors."""
    blocks = (errors[i * BOOTSTRAP_BLOCK:(i + 1) * BOOTSTRAP_BLOCK]
              for i in range(nblocks))
    return [[np.sum(b[np.isfinite(b)] ** 2), np.isfinite(b).sum()] for b in blocks]


def _ratio_of_mse(sums: np.ndarray) -> np.ndarray:
    """MSE ratio per resample from [Σb², n_b, Σc², n_c]; NaN unless positive."""
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = sums[:, 2] / sums[:, 3]
        return np.where(denom > 0, sums[:, 0] / sums[:, 1] / denom, np.nan)


def variance_ratio(errors_bdr, errors_cls, seed: int = 0) -> VarianceReport:
    """Variances about the truth (MSE form), their ratio, and a bootstrap CI.

    The CI resamples blocks of BOOTSTRAP_BLOCK consecutive trials jointly for
    both estimators, playing the role of exchangeable groups.
    """
    eb = np.asarray(errors_bdr, dtype=float)
    ec = np.asarray(errors_cls, dtype=float)
    if eb.size == 0 or ec.size == 0:
        raise ValueError("error series must be non-empty")
    vb, vc = _mse(eb), _mse(ec)
    if not vc > 0:
        raise ValueError("degenerate denominator")
    ratio = vb / vc
    nblocks = max(len(eb), len(ec)) // BOOTSTRAP_BLOCK
    if nblocks >= 2:
        totals = np.hstack([_block_totals(eb, nblocks), _block_totals(ec, nblocks)])
        lo, hi = blocked_bootstrap(totals, BOOTSTRAP_RESAMPLES, seed,
                                   _ratio_of_mse)
    else:
        lo = hi = ratio
    return VarianceReport(vb, vc, ratio, lo, hi)


def holm_bonferroni(p_values):
    """Step-down multiple-comparison adjustment, clipped at 1."""
    p = np.asarray(p_values, dtype=float)
    if not np.all((p >= 0) & (p <= 1)):
        raise ValueError("p-values must be in [0, 1]")
    n = p.size
    order = np.argsort(p, kind="stable")
    adj = np.empty(n)
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, (n - rank) * p[idx])
        adj[idx] = min(running, 1.0)
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

    Seeding: the cells' errors come from sweep_errors, whose unit spec has
    master_seed and the boundary num_positions // 2 on a stride-1 grid, so
    the boundary phases (stream 0) and the distance noise (stream 1) are
    shared by every cell, and a cell of stride dt reads the truths
    (num_positions // 2 + phase) * dt. So var_bdr is exactly dt^2 times the
    stride-1 value and every cell reports the same failures, the count of
    its NaN distance errors. Cell i draws its classification noise (stream
    2) and its bootstrap from master_seed + i, so the classification side
    stays independent per cell. Every cell's spec is built, and so
    validated, and the cells are checked for two distinct dt^2/kappa, which
    the slope fit needs, before any fitting; a cell whose R is not finite
    and positive, which the slope fit cannot take, raises ValueError naming
    that cell.

    Known limitation: in a cell with kappa <= dt/2 the peak-search window
    holds one sample, so the classification error is the phase's rounding
    error times dt, whatever the noise and kappa. With shared phases all
    such cells (six of the 4x4 grid) therefore share one classification
    error in grid units, hence one var_cls / dt^2 and one R: they are one
    estimate, not several independent ones.
    """
    conds = [(float(k), float(dt)) for k in kappas for dt in strides]
    if len(conds) < 3:
        raise ValueError("need at least 3 sweep cells")
    specs = [ExperimentSpec(
        grid=TimeGrid(stride=dt, num_positions=num_positions),
        kappa=kappa, boundary=(num_positions // 2) * dt,
        noise=noise, num_trials=num_trials,
        master_seed=master_seed + cell_index)
        for cell_index, (kappa, dt) in enumerate(conds)]
    if len({dt**2 / kappa for kappa, dt in conds}) < 2:
        raise ValueError("need at least 2 distinct dt^2/kappa values")
    unit = replace(specs[0], grid=TimeGrid(1.0, num_positions),
                   boundary=float(num_positions // 2), master_seed=master_seed)
    cells = []
    for spec, errs in zip(specs, sweep_errors(specs, unit)):
        kappa, dt = spec.kappa, spec.grid.stride
        rep = variance_ratio(errs.bdr, errs.cls, seed=spec.master_seed)
        if not 0 < rep.ratio_R < np.inf:  # the slope fit takes log R
            raise ValueError(f"cell (kappa={kappa:g}, dt={dt:g}) has R = "
                             f"{rep.ratio_R:g}, not finite and positive")
        cells.append({"kappa": kappa, "stride": dt,
                      "x_dt2_over_kappa": dt**2 / kappa,
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
    """R per AR(1) coefficient, everything else held fixed."""
    out = {}
    for rho in rhos:
        spec = replace(base_spec, noise=replace(base_spec.noise, rho=float(rho)))
        errs = run_trials(spec)
        rep = variance_ratio(errs.bdr, errs.cls, seed=spec.master_seed)
        out[float(rho)] = rep.ratio_R
    return out


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


def finite_sample_variance_check(base_spec: ExperimentSpec, lengths):
    """Slope of log Var[pooled boundary estimate] vs log T.

    Returns (slope, {T: variance}), or ("degenerate", variances) when the
    noise-free setup leaves nothing to measure.
    """
    if len(lengths) < 3:
        raise ValueError("need at least 3 sequence lengths")
    variances = {}
    for T in lengths:
        grid = TimeGrid(stride=base_spec.grid.stride, num_positions=int(T))
        spec = replace(base_spec, grid=grid,
                       boundary=(int(T) // 2) * grid.stride)
        truths, dhat = _fit_distance_side(spec)
        est = pooled_boundary_estimate(dhat, grid)
        variances[int(T)] = float(np.mean((est - truths) ** 2))
    return _variance_slope(variances)


def cls_variance_kappa_slope(base_spec: ExperimentSpec, kappas):
    """Slope of log Var[classification peak] vs log kappa.

    The phases and the classification noise do not depend on kappa, so
    they are drawn once and every kappa reuses them. The noise is the band
    of the widest kappa, which holds the band of every narrower one, so
    that kappa's errors equal the classification errors of run_trials at
    that kappa (bit for bit at a power-of-two stride; run_trials builds its
    truths in grid units), and every kappa's errors equal _cls_errors on
    the shared draw.
    """
    if len(kappas) < 3:
        raise ValueError("need at least 3 kappas")
    specs = [replace(base_spec, kappa=float(k)) for k in kappas]
    widest = max(specs, key=lambda spec: spec.kappa)
    truths, noise = _truths(base_spec), _noise_rows(widest, 2)
    a0, _ = _cls_band(widest)
    return _variance_slope({
        spec.kappa: _mse(_cls_errors(spec, truths, noise, a0))
        for spec in specs})
