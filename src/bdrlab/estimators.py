"""Distance-field regression loss/fitter, zero-crossing extraction, peak baseline."""

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


@dataclass(frozen=True)
class FitConfig:
    """Gradient-descent settings for fit_distance."""

    loss: BDRLossConfig = BDRLossConfig()
    step: float = 2.0
    iterations: int = 300


@dataclass(frozen=True)
class ExtractConfig:
    """Zero-crossing extraction settings.

    theta_grad is the forward-difference threshold in grid units (i.e. the
    raw difference is compared against theta_grad * stride). nms_window is
    the suppression radius in grid positions. centered=True thresholds on
    the centred difference instead of the forward one.
    """

    theta_grad: float = 0.5
    nms_window: float = 5.0
    centered: bool = False


@dataclass(frozen=True)
class PeakConfig:
    """Classification-peak settings: optional odd moving-average window."""

    smoothing_window: int = 1

    def __post_init__(self):
        if self.smoothing_window < 1 or self.smoothing_window % 2 == 0:
            raise ValueError("smoothing_window must be odd and >= 1")


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
                            delta: float):
    """Huber-smoothed loss and its gradient in one pass (batched rows).

    The Huber term is c*r - delta*c^2/2 with c = clip(r/delta, -1, 1), the
    clipped residual the gradient needs anyway: r^2/(2 delta) inside the
    band, |r| - delta/2 outside.
    """
    prediction = np.asarray(prediction, dtype=float)
    T = prediction.shape[-1]
    r = prediction - target
    c = np.clip(r / delta, -1.0, 1.0)
    inc = np.diff(prediction, axis=-1)
    excess = np.maximum(0.0, np.abs(inc) - stride)
    loss = (np.mean(c * r - 0.5 * delta * c * c, axis=-1)
            + alpha / (T - 1) * np.sum(excess * excess, axis=-1))
    g = c / T
    pg = 2.0 * alpha / (T - 1) * excess * np.sign(inc)
    g[..., :-1] -= pg
    g[..., 1:] += pg
    return loss, g


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
    """
    obs = np.asarray(observations, dtype=float)
    if not np.all(np.isfinite(obs)):
        raise ValueError("observations must be finite")
    single = obs.ndim == 1
    full = np.atleast_2d(obs) / grid.stride
    alpha, delta = cfg.loss.alpha, cfg.loss.huber_delta
    out = np.empty_like(full)
    # rows are independent; small chunks keep the iteration working set in
    # cache, which is worth ~1.6x on long batches
    chunk = 128
    for start in range(0, full.shape[0], chunk):
        o = full[start:start + chunk]
        d = o.copy()
        loss, g = _smoothed_loss_and_grad(o, d, 1.0, alpha, delta)
        step = np.full(o.shape[0], cfg.step)
        for _ in range(cfg.iterations):
            cand = d - step[:, None] * g
            cand_loss, cand_g = _smoothed_loss_and_grad(o, cand, 1.0, alpha, delta)
            # rejected rows keep their previous state
            bad = ~(cand_loss <= loss)
            cand[bad] = d[bad]
            cand_g[bad] = g[bad]
            cand_loss[bad] = loss[bad]
            step[bad] *= 0.5
            d, g, loss = cand, cand_g, cand_loss
        out[start:start + chunk] = d
    out *= grid.stride
    return out[0] if single else out


def nms_1d(candidates, window: float) -> list:
    """Greedy 1D non-maximum suppression.

    candidates: iterable of (position, score). Accept by descending score
    (ties to the earlier position), suppressing anything within `window` of
    an accepted position. Returns accepted positions sorted ascending.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    cand = list(candidates)
    pos = np.array([p for p, _ in cand], dtype=float)
    score = np.array([s for _, s in cand], dtype=float)
    order = np.lexsort((pos, -score))
    accepted = []
    for i in order:
        if all(abs(pos[i] - pos[j]) > window for j in accepted):
            accepted.append(i)
    return sorted(float(pos[i]) for i in accepted)


def extract_boundaries(prediction, grid: TimeGrid,
                       cfg: ExtractConfig = ExtractConfig()) -> np.ndarray:
    """Zero crossings of the fitted series, refined by linear interpolation.

    Sign changes are kept when the (forward, or optionally centred)
    difference exceeds the threshold; 1D non-maximum suppression keeps the
    strongest candidate per window, ties going to the earlier one. Returns
    boundary positions in frames, sorted ascending.
    """
    d = np.asarray(prediction, dtype=float)
    s = np.sign(d)
    # boundaries are ascending zeros (negative before, positive after); a
    # descending jump is the hand-off between two boundaries' basins, not a
    # boundary
    cross = np.nonzero((s[:-1] != s[1:]) & (d[:-1] < d[1:]))[0]
    fwd = d[cross + 1] - d[cross]
    if cfg.centered:
        hi = np.minimum(cross + 2, d.shape[-1] - 1)
        lo = np.maximum(cross - 1, 0)
        gate = np.abs(d[hi] - d[lo]) / 2.0
    else:
        gate = np.abs(fwd)
    keep = gate > cfg.theta_grad * grid.stride
    cross, fwd = cross[keep], fwd[keep]
    if cross.size == 0:
        return np.empty(0)
    pos = cross + (-d[cross]) / fwd  # grid positions, sub-sample refined
    kept = nms_1d(zip(pos, np.abs(fwd)), cfg.nms_window)
    return np.asarray(kept) * grid.stride


def moving_average(series, window: int) -> np.ndarray:
    """Odd-window moving average with zero padding at the edges."""
    if window <= 1:
        return np.asarray(series, dtype=float)
    ker = np.ones(window) / window
    x = np.atleast_2d(np.asarray(series, dtype=float))
    out = np.empty_like(x)
    for k in range(x.shape[0]):
        out[k] = np.convolve(x[k], ker, mode="same")
    return out[0] if np.asarray(series).ndim == 1 else out


def quadratic_peak_offset(ym: float, y0: float, yp: float) -> float:
    """Sub-sample offset of the vertex through three points, clipped to ±0.5."""
    den = ym - 2.0 * y0 + yp
    if abs(den) < 1e-12:
        return 0.0
    return float(np.clip(0.5 * (ym - yp) / den, -0.5, 0.5))


def classification_peak(series, grid: TimeGrid,
                        cfg: PeakConfig = PeakConfig()) -> float:
    """Argmax of the (optionally smoothed) series with quadratic refinement.

    Returns the estimated peak location in frames; ties go to the earliest
    maximum. Raises on an all-equal series, which has no unique peak.
    """
    p = np.asarray(series, dtype=float)
    if np.all(p == p[0]):
        raise ValueError("no unique peak")
    ps = moving_average(p, cfg.smoothing_window)
    i = int(np.argmax(ps))
    i = min(max(i, 1), p.shape[-1] - 2)
    off = quadratic_peak_offset(ps[i - 1], ps[i], ps[i + 1])
    return (i + off) * grid.stride
