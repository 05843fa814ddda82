"""Distance-field regression loss/fitter, zero-crossing extraction, peak-search helpers.

fit_distance descends the smoothed loss on the residual of the fit from the
observations, in float32, and returns the fit in float64. The residual stays
the size of the noise, so the fit tracks the same steps taken in float64
within 1e-5 strides at unit-scale noise, whatever the rows' length. It fits
rows in chunks of FIT_CHUNK_VALUES values, each in one pass, and refuses a
chunk whose increments exceed FIT_MAX_INCREMENT strides, under which no
float32 value overflows, before stepping it. One gradient kernel, which owns
its residual, serves the fitter and bdr_loss_smoothed_grad, which runs it in
float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .synth import TimeGrid


@dataclass(frozen=True)
class BDRLossConfig:
    """Loss weights for the distance-regression objective.

    alpha weighs the squared hinge on prediction increments that exceed the
    unit-slope reference (one stride per step). huber_delta is the smoothing
    width, in grid units, used for the L1 term while fitting.
    """

    alpha: float = 0.1
    huber_delta: float = 0.01

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be finite and >= 0")
        if not (np.isfinite(self.huber_delta) and self.huber_delta > 0):
            raise ValueError("huber_delta must be finite and positive")


@dataclass(frozen=True)
class FitConfig:
    """Loss settings for fit_distance; its step size and step count follow
    from FIT_STEP and FIT_ITERATIONS."""

    loss: BDRLossConfig = BDRLossConfig()


# Gradient descent in grid units: the largest step tried, and the step count.
FIT_STEP = 2.0
FIT_ITERATIONS = 300
# The largest grid-unit increment of the observations that fit_distance
# takes, so that no float32 value overflows (fit_distance derives it).
FIT_MAX_INCREMENT = float(np.finfo(np.float32).max) / (8 * FIT_ITERATIONS)
# Values (rows x positions) per chunk of rows the fitter steps together.
FIT_CHUNK_VALUES = 256 * 200


EXTRACT_THETA_GRAD = 0.5
EXTRACT_NMS_WINDOW = 5.0


def _check_positions(what: str, *arrays) -> None:
    """Raise ValueError unless the arrays broadcast to a shape whose last axis
    holds at least 2 positions."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays))
    if len(shape) == 0 or shape[-1] < 2:
        raise ValueError(f"{what} need at least 2 positions")


def _smoothed_grad_kernel(target_inc, dtype, stride: float, alpha: float,
                          delta: float, scale: float):
    """(residual, step), both in `dtype`: the residual e, zeroed, with one
    more column than the target's increments `target_inc`, and a
    zero-argument step that returns `scale` times the gradient of
    bdr_loss_smoothed (batched rows, Huber width `delta`) at the prediction
    target + e.

    The caller writes e in place, once or between steps. The kernel reads
    the prediction only through e and `target_inc`, rounded once to
    `dtype`: the Huber term reads e, the hinge the prediction's increments
    diff(e) + target_inc. Every value it holds is then the size of the
    residual, not of the target, which is what lets the fitter step in
    float32.

    The Huber term's gradient is the clipped residual clip(e/delta, -1, 1)
    over T, computed as e * (scale/(delta T)) clipped to +-scale/T: one
    multiply and a clip, no divide. Both constants are in `dtype`, and the
    multiplier is rounded up there, one ULP at a time, while delta times it
    falls short of scale/T, so every |e| >= delta lands on the bound. In
    float64 that bound is the quotient form's 1/(T/scale) bit for bit, and
    inside the band the two forms differ by rounding, at most 3 ULP. The
    hinge's gradient is 2 alpha/(T-1) * q for the signed excess
    q = inc - clip(inc, -stride, stride) of each increment, exactly,
    because q is the excess times sign(inc). `scale` is folded into the
    constants; for a power of two, as the fitter's step is, that rounds
    exactly like scaling the gradient afterwards.

    Everything that does not change between steps is made here, once: the
    residual, the gradient, the target's increments laid out like the
    residual and the two scratch arrays, increments and hinge gradient,
    their flat views and slices, and the constants. The increments and the
    hinge gradient run over the flattened rows, with each row's last
    column, the one that would straddle two rows, set to zero. The step
    itself makes only ufunc calls that write into those arrays, so it
    allocates nothing; each call returns the same gradient array,
    overwritten. Its constants, the clips' bounds of both signs and the
    zero among them, are 0-d arrays in `dtype` and every output is passed
    by position, so no call converts a scalar or parses a keyword: the
    same operations in the same order, with less of numpy's per-call work.
    """
    dtype = np.dtype(dtype).type
    shape = target_inc.shape[:-1] + (target_inc.shape[-1] + 1,)
    # the increments' last entry only ever adds two zeros, so stays finite
    residual, grad, inc, q, t_inc = (np.zeros(shape, dtype) for _ in range(5))
    t_inc[..., :-1] = target_inc
    flat_e, flat_inc, flat_q, flat_g = (a.reshape(-1)
                                        for a in (residual, inc, q, grad))
    e_next, e_prev, inc_head = flat_e[1:], flat_e[:-1], flat_inc[:-1]
    q_head, q_last = flat_q[:-1], q[..., -1]
    g_head, g_tail = flat_g[:-1], flat_g[1:]
    T = shape[-1]
    huber_bound = dtype(scale / T)
    huber_mul, delta = dtype(scale / (delta * T)), dtype(delta)
    while delta * huber_mul < huber_bound:
        huber_mul = np.nextafter(huber_mul, dtype(np.inf))
    hinge_mul = dtype(2.0 * alpha / (T - 1) * scale)
    stride = dtype(stride)
    huber_mul, hinge_mul, low, high, inc_low, inc_high, zero = (
        np.array(c, dtype) for c in (huber_mul, hinge_mul, -huber_bound,
                                     huber_bound, -stride, stride, 0.0))
    multiply, subtract, add = np.multiply, np.subtract, np.add
    clip_grad, clip_inc = grad.clip, inc.clip

    def step():
        multiply(residual, huber_mul, grad)
        clip_grad(low, high, grad)
        subtract(e_next, e_prev, inc_head)
        add(inc, t_inc, inc)
        subtract(inc, clip_inc(inc_low, inc_high, q), q)
        q_last[...] = zero
        multiply(q, hinge_mul, q)
        subtract(g_head, q_head, g_head)
        add(g_tail, q_head, g_tail)
        return grad

    return residual, step


def bdr_loss_smoothed(target, prediction, stride: float = 1.0,
                      cfg: BDRLossConfig = BDRLossConfig()):
    """Per-row distance-regression loss, the objective fit_distance descends;
    prediction and target broadcast.

    The data term is the mean Huber loss of the residual r, with width
    delta = huber_delta * stride: c*r - delta*c^2/2 with c = clip(r/delta,
    -1, 1), so r^2/(2 delta) inside the band and |r| - delta/2 outside. The
    penalty is alpha/(T-1) times the sum of q^2 over the signed excess
    q = inc - clip(inc, -stride, stride) of each increment: increments of
    at most one stride per grid step are free.
    """
    _check_positions("target and prediction", target, prediction)
    delta = cfg.huber_delta * stride
    dh = np.asarray(prediction, dtype=float)
    r = dh - target
    T = r.shape[-1]
    c = np.clip(r / delta, -1.0, 1.0)
    data = np.add.reduce(c * r - 0.5 * delta * c * c, axis=-1) / T
    inc = np.diff(dh, axis=-1)
    q = inc - np.clip(inc, -stride, stride)
    return data + cfg.alpha / (T - 1) * np.add.reduce(q * q, axis=-1)


def bdr_loss_smoothed_grad(target, prediction, stride: float = 1.0,
                           cfg: BDRLossConfig = BDRLossConfig()) -> np.ndarray:
    """Analytic gradient of bdr_loss_smoothed with respect to the prediction,
    in float64: the kernel stepped once on the residual prediction - target."""
    _check_positions("target and prediction", target, prediction)
    target = np.asarray(target, dtype=float)
    # one prediction scored against a batch of targets, or the other way
    # round, is broadcast into the kernel's residual
    shape = np.broadcast_shapes(np.shape(prediction), target.shape)
    target_inc = np.diff(np.broadcast_to(target, shape), axis=-1)
    residual, grad = _smoothed_grad_kernel(target_inc, np.float64, stride,
                                           cfg.alpha, cfg.huber_delta * stride,
                                           1.0)
    np.subtract(prediction, target, out=residual)
    return grad()


def _curvature_bound(T: int, alpha: float, delta: float) -> float:
    """Lipschitz constant of the grid-unit smoothed loss's gradient: the Huber
    mean's curvature 1/(delta T) plus the hinge's 2 alpha/(T-1) ||D^T D||,
    where D takes the increments and ||D^T D|| <= 4."""
    return 1.0 / (delta * T) + 8.0 * alpha / (T - 1)


def fit_distance(observations, grid: TimeGrid, cfg: FitConfig = FitConfig()) -> np.ndarray:
    """Fit a distance series to noisy observations by descending the smoothed loss.

    Works on a single series or a batch (trials stacked on the first axis).
    Optimisation runs in grid units so behaviour is stride-independent. It
    takes FIT_ITERATIONS steps of one size, FIT_STEP halved while at least
    2/L for L = _curvature_bound, so by the descent lemma every step lowers
    every row's loss in exact arithmetic (unless the row is at a minimum).
    The loss itself is never evaluated: each step is the step-scaled
    gradient of _smoothed_grad_kernel, the kernel bdr_loss_smoothed_grad
    runs too, subtracted from the fit. The step is a power of two, so
    folding it into the gradient's constants gives the same bits as scaling
    afterwards. The Huber term's gradient is a multiply and a clip, with
    no divide: inside the band it rounds within 3 ULP of
    clip(e/delta, -1, 1)/T, outside the band it is that bit for bit.

    The fitter steps the residual e = d - o of the fit d from the
    observations o, both in grid units, in float32, starting from e = 0,
    and returns (o + e) * stride in float64. The kernel reads e and the
    increments diff(e) + diff(o), diff(o) formed once per chunk in float64
    and rounded once to float32, so every value it holds is the size of the
    noise whatever the row's length or offset: at unit-scale noise the fit
    stays within 1e-5 grid units of the same steps taken in float64 (at
    most 8.3e-6 over rows of 10 to 10^4 positions), where a float32 fit of
    d itself drifts by 0.06 at T = 10^4.

    Observations whose grid-unit increments exceed FIT_MAX_INCREMENT =
    float32 max / (8 FIT_ITERATIONS), about 1.4e35 strides, raise
    ValueError before their chunk steps: under that bound no float32 value
    can overflow in FIT_ITERATIONS steps. Because step L < 2, the Huber
    multiplier step/(delta T) and the hinge multiplier 2 step alpha/(T-1)
    are below 2 and 1/2. A step of the hinge then never raises the largest
    increment |diff(d)| of a row, and the Huber term moves each value by at
    most step/T <= 1, so after k steps every increment is at most M + 2k,
    for M the largest |diff(o)|, and every residual at most k (M + k). The
    largest value the step holds, twice a residual plus M, stays below
    (2k + 1)(M + k), a quarter of float32's range at the bound; the rest
    is slack for rounding.

    Rows are fitted in chunks of FIT_CHUNK_VALUES // T rows, at least one,
    each from start to finish in one pass: its increments are formed and
    checked, the kernel is built on them, the kernel's residual takes
    FIT_ITERATIONS steps in place and (o + e) * stride is written back into
    that chunk of the output. So the arrays, views, slices and constants of
    the kernel are made once per chunk, not on every step, and beside the
    output the fit holds only one chunk's arrays. Rows are independent, so
    the fit does not depend on the chunk size; a refused row raises after
    the chunks before it have stepped, and no output is returned.
    """
    obs = np.asarray(observations, dtype=float)
    if not np.all(np.isfinite(obs)):
        raise ValueError("observations must be finite")
    _check_positions("observations", obs)
    T = obs.shape[-1]
    alpha, delta = cfg.loss.alpha, cfg.loss.huber_delta
    step, bound = FIT_STEP, _curvature_bound(T, alpha, delta)
    while step * bound >= 2.0:
        step *= 0.5
    # rows are independent; chunks of a fixed number of values keep the
    # kernel's working set in cache on long batches and short rows alike
    chunk = max(1, FIT_CHUNK_VALUES // T)
    # an overflow here gives inf or NaN increments, which the check refuses
    with np.errstate(over="ignore", invalid="ignore"):
        full = obs.reshape(-1, T) / grid.stride
    for start in range(0, len(full), chunk):
        d = full[start:start + chunk]
        with np.errstate(over="ignore", invalid="ignore"):
            inc = np.diff(d, axis=-1)
        # NaN fails both comparisons
        if not (inc.max() <= FIT_MAX_INCREMENT
                and inc.min() >= -FIT_MAX_INCREMENT):
            raise ValueError("observations must change by at most "
                             f"{FIT_MAX_INCREMENT:.3g} strides per grid step")
        e, scaled_grad = _smoothed_grad_kernel(inc, np.float32, 1.0, alpha,
                                               delta, step)
        for _ in range(FIT_ITERATIONS):
            np.subtract(e, scaled_grad(), e)
        d += e
        d *= grid.stride
    return full.reshape(obs.shape)


def nms_1d(positions, scores, window: float) -> list:
    """Greedy 1D non-maximum suppression over candidate positions and scores.

    Accept by descending score (ties to the earlier position), suppressing
    anything within `window` of an accepted position. Returns accepted
    positions sorted ascending.
    """
    if not window >= 1:  # NaN fails the comparison too
        raise ValueError("window must be >= 1")
    pos = np.asarray(positions, dtype=float)
    score = np.asarray(scores, dtype=float)
    order = np.lexsort((pos, -score))
    accepted = []
    for i in order:
        if all(abs(pos[i] - pos[j]) > window for j in accepted):
            accepted.append(i)
    return sorted(float(pos[i]) for i in accepted)


def extract_boundaries(prediction, grid: TimeGrid):
    """Zero crossings of the fitted series, refined by linear interpolation.

    Sign changes are kept when the forward difference exceeds
    EXTRACT_THETA_GRAD strides; 1D non-maximum suppression keeps the
    strongest candidate within EXTRACT_NMS_WINDOW grid positions, ties going
    to the earlier one. For one series, returns its boundary positions in
    frames, sorted ascending. For a 2-D batch of series, returns the arrays
    (row, position) of every row's boundaries, in row order and ascending
    within a row.

    A batch runs each step once over all rows; nms_1d runs only on rows
    with two or more candidates, as it keeps a lone candidate unchanged.
    """
    d = np.asarray(prediction, dtype=float)
    if d.ndim not in (1, 2):
        raise ValueError("prediction must be one series or a 2-D batch")
    batch = np.atleast_2d(d)
    s = np.sign(batch)
    # boundaries are ascending zeros (negative before, positive after); a
    # descending jump is the hand-off between two boundaries' basins, not a
    # boundary
    row, cross = np.nonzero((s[:, :-1] != s[:, 1:])
                            & (batch[:, :-1] < batch[:, 1:]))
    fwd = batch[row, cross + 1] - batch[row, cross]
    keep = np.abs(fwd) > EXTRACT_THETA_GRAD * grid.stride
    row, cross, fwd = row[keep], cross[keep], fwd[keep]
    # grid positions, sub-sample refined; ascending within a row
    pos = cross + (-batch[row, cross]) / fwd
    counts = np.bincount(row, minlength=len(batch))
    starts = np.cumsum(counts) - counts
    keep = np.ones(len(pos), dtype=bool)
    for k in np.flatnonzero(counts >= 2):
        span = slice(starts[k], starts[k] + counts[k])
        kept = nms_1d(pos[span], np.abs(fwd[span]), EXTRACT_NMS_WINDOW)
        keep[span] = False
        # candidates at one position are within the window of each other,
        # so each kept value marks its first candidate
        keep[starts[k] + np.searchsorted(pos[span], kept)] = True
    pos = pos[keep] * grid.stride
    return pos if d.ndim == 1 else (row[keep], pos)


def moving_average(series, window: int) -> np.ndarray:
    """Moving average along the last axis with zero padding at the edges.

    Aligned like np.convolve(row, np.ones(window) / window, "same"), even
    windows included, and the output keeps the input's shape. All rows are
    smoothed in one pass: the sum of `window` shifted copies of the
    zero-padded rows, each weighted 1/window, added left to right.
    """
    x = np.asarray(series, dtype=float)
    if window <= 1:
        return x
    T = x.shape[-1]
    pad = np.zeros(x.shape[:-1] + (T + window - 1,))
    pad[..., window // 2:window // 2 + T] = x
    pad *= 1.0 / window
    out = pad[..., :T].copy()
    for j in range(1, window):
        out += pad[..., j:j + T]
    return out


def quadratic_peak_offset(ym, y0, yp):
    """Sub-sample offset of the vertex through three points, clipped to ±0.5.

    Elementwise over arrays. The offset is 0 where the curvature term is
    below 1e-12 in magnitude.
    """
    ym, y0, yp = (np.asarray(v, dtype=float) for v in (ym, y0, yp))
    den = ym - 2.0 * y0 + yp
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(den) < 1e-12, 0.0,
                        np.clip(0.5 * (ym - yp) / den, -0.5, 0.5))
