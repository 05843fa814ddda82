"""Distance-field regression loss/fitter, zero-crossing extraction, peak-search helpers."""

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


EXTRACT_THETA_GRAD = 0.5
EXTRACT_NMS_WINDOW = 5.0


def _check_positions(what: str, *arrays) -> None:
    """Raise ValueError unless the arrays broadcast to a shape whose last axis
    holds at least 2 positions."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays))
    if len(shape) == 0 or shape[-1] < 2:
        raise ValueError(f"{what} need at least 2 positions")


def _smoothed_grad_kernel(target, prediction, stride: float, alpha: float,
                          delta: float, scale: float, grad, inc, q):
    """A zero-argument step that writes `scale` times the gradient of
    bdr_loss_smoothed (batched rows, Huber width `delta`) at the current
    `prediction` into `grad` and returns it.

    The Huber term's gradient is the clipped residual clip(r/delta, -1, 1)
    over T, computed as r * (scale/(delta T)) clipped to +-scale/T: one
    multiply and a clip, no divide. The multiplier is rounded up, one ULP at
    a time, while delta times it falls short of scale/T, so every
    |r| >= delta lands on the bound, which is the quotient form's
    1/(T/scale) bit for bit; inside the band the two forms differ by
    rounding, at most 3 ULP. The hinge's gradient is 2 alpha/(T-1) * q for
    the signed excess q = inc - clip(inc, -stride, stride) of each
    increment, exactly, because q is the excess times sign(inc). `scale` is
    folded into the constants; for a power of two, as the fitter's step is,
    that rounds exactly like scaling the gradient afterwards.

    Everything that does not change between steps is made here, once: the
    flat views, their slices and the constants. The step itself makes
    only ufunc calls that write into `grad` and the two scratch arrays `inc`
    (increments) and `q` (hinge gradient), so a caller that steps many
    times, reading the prediction afresh each time, allocates nothing per
    step. The prediction and the three arrays must be C-contiguous and of
    one shape, and the target must broadcast to it: the increments and the
    hinge gradient run over the flattened rows, with each row's last column,
    the one that would straddle two rows, set to zero. The increments' last
    entry is never written, so it must hold a finite value.
    """
    arrays = prediction, inc, q, grad
    # a reshape of any other array copies, and the step would read or write
    # the copy instead of the caller's buffer
    if not all(a.flags.c_contiguous for a in arrays):
        raise ValueError("kernel arrays must be C-contiguous")
    flat_p, flat_inc, flat_q, flat_g = (a.reshape(-1) for a in arrays)
    p_next, p_prev, inc_head = flat_p[1:], flat_p[:-1], flat_inc[:-1]
    q_head, q_last = flat_q[:-1], q[..., -1]
    g_head, g_tail = flat_g[:-1], flat_g[1:]
    T = prediction.shape[-1]
    huber_bound = scale / T
    huber_mul = scale / (delta * T)
    while delta * huber_mul < huber_bound:
        huber_mul = float(np.nextafter(huber_mul, np.inf))
    hinge_mul = 2.0 * alpha / (T - 1) * scale
    subtract, multiply, add = np.subtract, np.multiply, np.add
    clip_grad, clip_inc = grad.clip, inc.clip

    def step():
        subtract(prediction, target, out=grad)
        multiply(grad, huber_mul, out=grad)
        clip_grad(-huber_bound, huber_bound, out=grad)
        subtract(p_next, p_prev, out=inc_head)
        subtract(inc, clip_inc(-stride, stride, out=q), out=q)
        q_last[...] = 0.0
        multiply(q, hinge_mul, out=q)
        subtract(g_head, q_head, out=g_head)
        add(g_tail, q_head, out=g_tail)
        return grad

    return step


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
    """Analytic gradient of bdr_loss_smoothed with respect to the prediction."""
    _check_positions("target and prediction", target, prediction)
    prediction = np.asarray(prediction, dtype=float)
    shape = np.broadcast_shapes(prediction.shape, np.shape(target))
    # one prediction scored against a batch of targets is broadcast, and a
    # strided one copied, into the contiguous layout the kernel steps on
    prediction = np.ascontiguousarray(np.broadcast_to(prediction, shape))
    grad = _smoothed_grad_kernel(target, prediction, stride, cfg.alpha,
                                 cfg.huber_delta * stride, 1.0,
                                 np.empty(shape), np.zeros(shape),
                                 np.empty(shape))
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
    clip(r/delta, -1, 1)/T, outside the band it is that bit for bit.

    Rows are fitted in chunks of 128, each stepped in place in the output,
    which starts as a copy of the observations. The kernel's gradient and
    two scratch arrays are allocated once per call, sized for one chunk. The
    kernel is built once per chunk, on that chunk's rows, so its views,
    slices and constants are made once, not on every step.
    """
    obs = np.asarray(observations, dtype=float)
    if not np.all(np.isfinite(obs)):
        raise ValueError("observations must be finite")
    _check_positions("observations", obs)
    single = obs.ndim == 1
    full = np.atleast_2d(obs) / grid.stride
    alpha, delta = cfg.loss.alpha, cfg.loss.huber_delta
    step, bound = FIT_STEP, _curvature_bound(full.shape[-1], alpha, delta)
    while step * bound >= 2.0:
        step *= 0.5
    out = full.copy()
    # rows are independent; small chunks keep the iteration working set in
    # cache, which is worth ~1.6x on long batches
    chunk = 128
    shape = (min(chunk, full.shape[0]),) + full.shape[1:]
    # gradient, increments, hinge gradient; the increments' last entry is
    # never written, and zeros keep it finite
    bufs = [np.empty(shape), np.zeros(shape), np.empty(shape)]
    for start in range(0, full.shape[0], chunk):
        # a block of whole rows of `out`, so C-contiguous as the kernel needs
        d = out[start:start + chunk]
        work = (b[:d.shape[0]] for b in bufs)
        scaled_grad = _smoothed_grad_kernel(full[start:start + chunk], d, 1.0,
                                            alpha, delta, step, *work)
        for _ in range(FIT_ITERATIONS):
            d -= scaled_grad()
    out *= grid.stride
    return out[0] if single else out


def nms_1d(positions, scores, window: float) -> list:
    """Greedy 1D non-maximum suppression over candidate positions and scores.

    Accept by descending score (ties to the earlier position), suppressing
    anything within `window` of an accepted position. Returns accepted
    positions sorted ascending.
    """
    if window < 1:
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
