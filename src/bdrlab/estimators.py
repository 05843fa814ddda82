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
    """Gradient-descent settings for fit_distance."""

    loss: BDRLossConfig = BDRLossConfig()
    step: float = 2.0
    iterations: int = 300

    def __post_init__(self):
        if not (np.isfinite(self.step) and self.step > 0):
            raise ValueError("step must be finite and positive")
        if (isinstance(self.iterations, bool)
                or not isinstance(self.iterations, (int, np.integer))
                or self.iterations < 0):
            raise ValueError("iterations must be an integer >= 0")


EXTRACT_THETA_GRAD = 0.5
EXTRACT_NMS_WINDOW = 5.0


def bdr_loss(target, prediction, stride: float = 1.0,
             cfg: BDRLossConfig = BDRLossConfig()) -> float:
    """Mean absolute error plus hinge-squared penalty on over-unit slopes.

    The slope reference is one stride per grid step: increments whose
    magnitude stays below `stride` are free, the excess is squared.
    """
    d = np.asarray(target, dtype=float)
    dh = np.asarray(prediction, dtype=float)
    if d.shape != dh.shape:
        raise ValueError("target and prediction lengths differ")
    T = d.shape[-1]
    data = np.mean(np.abs(d - dh), axis=-1)
    inc = np.diff(dh, axis=-1)
    excess = np.maximum(0.0, np.abs(inc) - stride)
    penalty = cfg.alpha / (T - 1) * np.sum(excess**2, axis=-1)
    return data + penalty


def _smoothed_loss_and_grad(target, prediction, stride: float, alpha: float,
                            delta: float, grad=None, work=None):
    """Huber-smoothed loss and its gradient in one pass (batched rows).

    The Huber term is c*r - delta*c^2/2 with c = clip(r/delta, -1, 1), the
    clipped residual the gradient needs anyway: r^2/(2 delta) inside the
    band, |r| - delta/2 outside. The hinge uses the signed excess
    q = inc - clip(inc, -stride, stride) of each increment: q^2 is the
    squared excess and 2 alpha/(T-1) * q its gradient, exactly, because q is
    the excess times sign(inc).

    The gradient is written into `grad`, and `work` holds two scratch
    arrays, so a caller that evaluates many times allocates nothing per
    call. All three must be C-contiguous and of the prediction's shape: the
    increments and the hinge gradient run over the flattened rows, with each
    row's last column, the one that would straddle two rows, set to zero.
    Without them the kernel allocates its own, of the shape that the
    prediction and target broadcast to, so one prediction can be scored
    against a batch of targets.
    """
    prediction = np.asarray(prediction, dtype=float)
    if work is None:
        shape = np.broadcast_shapes(prediction.shape, np.shape(target))
        prediction = np.broadcast_to(prediction, shape)
        grad = np.empty(shape)
        work = np.empty(shape), np.empty(shape)
    r, q = work
    T = prediction.shape[-1]
    np.subtract(prediction, target, out=r)
    c = np.clip(np.divide(r, delta, out=grad), -1.0, 1.0, out=grad)
    np.multiply(c, r, out=r)
    h = np.multiply(0.5 * delta, c, out=q)
    h *= c
    r -= h
    data = np.add.reduce(r, axis=-1) / T
    inc = r  # the Huber terms are summed: r now takes the increments
    flat_p, flat_inc, flat_q, flat_g = (
        a.reshape(-1) for a in (prediction, inc, q, grad))
    np.subtract(flat_p[1:], flat_p[:-1], out=flat_inc[:-1])
    np.subtract(inc, np.clip(inc, -stride, stride, out=q), out=q)
    q[..., -1] = 0.0
    sq = np.multiply(q, q, out=inc)
    loss = data + alpha / (T - 1) * np.add.reduce(sq[..., :-1], axis=-1)
    c /= T  # the clipped residual becomes the gradient in place
    q *= 2.0 * alpha / (T - 1)
    flat_g[:-1] -= flat_q[:-1]
    flat_g[1:] += flat_q[:-1]
    return loss, grad


def bdr_loss_smoothed(target, prediction, stride: float = 1.0,
                      cfg: BDRLossConfig = BDRLossConfig()):
    """Huber-smoothed variant of bdr_loss used by the fitter (same minimiser)."""
    return _smoothed_loss_and_grad(target, prediction, stride, cfg.alpha,
                                   cfg.huber_delta * stride)[0]


def bdr_loss_smoothed_grad(target, prediction, stride: float = 1.0,
                           cfg: BDRLossConfig = BDRLossConfig()) -> np.ndarray:
    """Analytic gradient of bdr_loss_smoothed with respect to the prediction."""
    return _smoothed_loss_and_grad(target, prediction, stride, cfg.alpha,
                                   cfg.huber_delta * stride)[1]


def fit_distance(observations, grid: TimeGrid, cfg: FitConfig = FitConfig()) -> np.ndarray:
    """Fit a distance series to noisy observations by descending the smoothed loss.

    Works on a single series or a batch (trials stacked on the first axis).
    Optimisation runs in grid units so behaviour is stride-independent; steps
    that would increase a row's loss are rejected and that row's step size is
    halved, which keeps the per-row loss monotone non-increasing.

    Rows are fitted in chunks of 128. The work arrays are allocated once per
    call, sized for one chunk: the current and candidate fits and gradients,
    which swap roles after each step, the step sizes, and the two scratch
    arrays of the one loss-and-gradient kernel that bdr_loss_smoothed and
    bdr_loss_smoothed_grad run too. Every step updates them in place.
    """
    obs = np.asarray(observations, dtype=float)
    if not np.all(np.isfinite(obs)):
        raise ValueError("observations must be finite")
    if obs.ndim == 0 or obs.shape[-1] < 2:
        raise ValueError("observations need at least 2 positions")
    single = obs.ndim == 1
    full = np.atleast_2d(obs) / grid.stride
    alpha, delta = cfg.loss.alpha, cfg.loss.huber_delta
    out = np.empty_like(full)
    # rows are independent; small chunks keep the iteration working set in
    # cache, which is worth ~1.6x on long batches
    chunk = 128
    shape = (min(chunk, full.shape[0]),) + full.shape[1:]
    bufs = [np.empty(shape) for _ in range(7)]
    for start in range(0, full.shape[0], chunk):
        o = full[start:start + chunk]
        n = o.shape[0]
        # step holds each row's step size repeated along the row, so the
        # step multiply runs over contiguous memory instead of broadcasting
        d, cand, g, cand_g, step, *w = (b[:n] for b in bufs)
        d[...] = o
        step[...] = cfg.step
        loss = _smoothed_loss_and_grad(o, d, 1.0, alpha, delta, g, w)[0]
        for _ in range(cfg.iterations):
            np.subtract(d, np.multiply(step, g, out=cand), out=cand)
            cand_loss = _smoothed_loss_and_grad(o, cand, 1.0, alpha, delta,
                                                cand_g, w)[0]
            # rejected rows keep their previous state and halve their step
            bad = ~(cand_loss <= loss)
            if bad.any():
                cand[bad] = d[bad]
                cand_g[bad] = g[bad]
                cand_loss[bad] = loss[bad]
                step[bad] *= 0.5
            d, cand, g, cand_g, loss = cand, d, cand_g, g, cand_loss
        out[start:start + n] = d
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


def extract_boundaries(prediction, grid: TimeGrid) -> np.ndarray:
    """Zero crossings of the fitted series, refined by linear interpolation.

    Sign changes are kept when the forward difference exceeds
    EXTRACT_THETA_GRAD strides; 1D non-maximum suppression keeps the
    strongest candidate within EXTRACT_NMS_WINDOW grid positions, ties going
    to the earlier one. Returns boundary positions in frames, sorted
    ascending.
    """
    d = np.asarray(prediction, dtype=float)
    s = np.sign(d)
    # boundaries are ascending zeros (negative before, positive after); a
    # descending jump is the hand-off between two boundaries' basins, not a
    # boundary
    cross = np.nonzero((s[:-1] != s[1:]) & (d[:-1] < d[1:]))[0]
    fwd = d[cross + 1] - d[cross]
    keep = np.abs(fwd) > EXTRACT_THETA_GRAD * grid.stride
    cross, fwd = cross[keep], fwd[keep]
    if cross.size == 0:
        return np.empty(0)
    pos = cross + (-d[cross]) / fwd  # grid positions, sub-sample refined
    kept = nms_1d(pos, np.abs(fwd), EXTRACT_NMS_WINDOW)
    return np.asarray(kept) * grid.stride


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
