"""Monte-Carlo harness for estimator-variance scaling, plus statistics utilities.

Determinism contract: each random stream has one generator,
np.random.default_rng((master_seed, stream_label)), which draws every trial's
values in one call; trial k gets the k-th value (phase) or row (noise) of its
stream. So results do not depend on how trials are chunked, and a run of n
trials is exactly the first n trials of any longer run with the same seed.
Aggregation is always in trial order. The stream labels are 0 for the
boundary phase, 1 for the distance noise and 2 for the classification noise.

run_trials runs both estimators on one condition: the distance side fits
with SWEEP_FIT and extracts its zero crossings, the classification side
searches the plateau window of each truth.

scaling_sweep shares streams 0 and 1 across its cells (common random
numbers): the distance side never reads kappa and runs in grid units, so one
stride-1 fit, scaled by each cell's stride, serves every cell. Stream 2 and
the bootstrap stay per cell. cls_variance_kappa_slope draws streams 0 and 2
once per call and reuses them for every kappa.

The classification side is batched: features, smoothing, the windowed
argmax and the quadratic refinement each run once per chunk of at most
CLS_CHUNK_ROWS trials, which bounds its working memory.
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
# Trials per batched pass of the classification side. Each pass holds a few
# (rows, T) temporaries; batching every trial at once would hold several
# copies of the whole noise matrix.
CLS_CHUNK_ROWS = 64
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
    bdr_failures: int


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
    """One noise row per trial from stream `label` (1 distance, 2 cls)."""
    return sample_noise_matrix(spec.noise, (spec.master_seed, label),
                               spec.num_trials, spec.grid.num_positions)


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
                             grid: TimeGrid):
    """Signed error of the crossing nearest each truth; NaN (and counted in
    the returned failures) where a row has no crossing."""
    errors = np.full(len(truths), np.nan)
    failures = 0
    for k, truth in enumerate(truths):
        cands = extract_boundaries(dhat[k], grid)
        if cands.size:
            errors[k] = cands[np.argmin(np.abs(cands - truth))] - truth
        else:
            failures += 1
    return errors, failures


def _cls_errors(spec: ExperimentSpec, truths: np.ndarray,
                noise: np.ndarray) -> np.ndarray:
    """Signed classification-peak error per trial, one noise row per truth.

    A trial's estimate is the first maximum of its clipped, smoothed feature
    row within the plateau neighbourhood [lo, hi) of its truth: half a stride
    plus CLS_WINDOW_FACTOR times the part of kappa that resolves beyond half
    a stride, or the nearest interior sample if that holds none. Quadratic
    refinement is only meaningful when the window holds at least three
    samples. Trials run in chunks of CLS_CHUNK_ROWS rows.
    """
    grid, kappa = spec.grid, spec.kappa
    stride, T = grid.stride, grid.num_positions
    m = max(1, int(round(CLS_SMOOTH_FACTOR * kappa / stride)) | 1)
    r = 0.5 * stride + CLS_WINDOW_FACTOR * max(0.0, kappa - 0.5 * stride)
    cols = np.arange(T)
    errors = np.empty(len(truths))
    for start in range(0, len(truths), CLS_CHUNK_ROWS):
        rows = slice(start, start + CLS_CHUNK_ROWS)
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


def run_trials(spec: ExperimentSpec) -> TrialErrors:
    """Run the Monte-Carlo condition; signed errors in frames per estimator.

    Failed extractions are recorded as NaN and counted, not raised.
    """
    truths, dhat = _fit_distance_side(spec)
    e_bdr, failures = _nearest_crossing_errors(dhat, truths, spec.grid)
    e_cls = _cls_errors(spec, truths, _noise_rows(spec, 2))
    return TrialErrors(bdr=e_bdr, cls=e_cls, bdr_failures=failures)


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
    stats = statistic(sums)
    return float(np.percentile(stats, 2.5)), float(np.percentile(stats, 97.5))


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
    if np.any((p < 0) | (p > 1)):
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
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("values must be positive")
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
        if W <= 0 or dt <= 0 or R <= 0:
            raise ValueError("W, dt and R must be positive")
        q = W / dt
        b = 0 if q <= 1 else (1 if q <= 2 else (2 if q <= 3 else 3))
        sums[b].append(R)
    return [float(np.mean(v)) if v else None for v in sums]


def scaling_sweep(kappas, strides, num_positions: int, noise: NoiseSpec,
                  num_trials: int, master_seed: int):
    """Run the (kappa, stride) grid and fit the variance-ratio scaling law.

    Returns (cells, slope, intercept, r2, bin_means) where cells is a list of
    dicts in deterministic (kappa-major) order.

    Seeding: the boundary phases (stream 0) and the distance noise (stream 1)
    come from master_seed and are shared by every cell. The distance side is
    fitted and extracted once, on a stride-1 grid; a cell of stride dt takes
    those grid-unit errors times dt and the stride-1 truths times dt, i.e.
    (num_positions // 2) * dt + phase * dt. This is valid because the
    distance estimator never reads kappa and its fit and extraction run in
    grid units, so at a power-of-two stride the per-cell fit would give the
    same errors times dt bit for bit. So var_bdr is exactly dt^2 times the
    stride-1 value and every cell reports the same failures. Cell i draws
    its classification noise (stream 2) and its bootstrap from
    master_seed + i, so the classification side stays independent per cell.
    Every cell's spec is built, and so validated, and the cells are checked
    for two distinct dt^2/kappa, which the slope fit needs, before any
    fitting.

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
    unit = replace(specs[0], master_seed=master_seed,
                   grid=TimeGrid(stride=1.0, num_positions=num_positions),
                   boundary=float(num_positions // 2))
    truths, dhat = _fit_distance_side(unit)
    e_unit, failures = _nearest_crossing_errors(dhat, truths, unit.grid)
    cells = []
    for spec in specs:
        dt = spec.grid.stride
        e_bdr = e_unit * dt
        e_cls = _cls_errors(spec, truths * dt, _noise_rows(spec, 2))
        rep = variance_ratio(e_bdr, e_cls, seed=spec.master_seed)
        cells.append({"kappa": spec.kappa, "stride": dt,
                      "x": dt**2 / spec.kappa,
                      "var_bdr": rep.var_bdr, "var_cls": rep.var_cls,
                      "R": rep.ratio_R, "ci_low": rep.ci_low,
                      "ci_high": rep.ci_high, "failures": failures})
    slope, intercept, r2 = loglog_slope([c["x"] for c in cells],
                                        [c["R"] for c in cells])
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
    they are drawn once and every kappa reuses them; each kappa's errors
    equal the classification errors of run_trials at that kappa.
    """
    specs = [replace(base_spec, kappa=float(k)) for k in kappas]
    truths, noise = _truths(base_spec), _noise_rows(base_spec, 2)
    return _variance_slope({spec.kappa: _mse(_cls_errors(spec, truths, noise))
                            for spec in specs})
