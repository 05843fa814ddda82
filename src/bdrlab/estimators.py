"""Distance-field regression loss/fitter, zero-crossing extraction, peak-search helpers.

fit_distances descends the smoothed loss on the residual of the fit from
the observations, in float32, and returns the fit in float64, for blocks
of rows of any lengths and strides in one pass; fit_distance is its
one-block case. The residual stays the size of the noise, so the fit
tracks the same steps taken in float64 within 1e-5 strides at unit-scale
noise, whatever the rows' length. It packs rows in block order into chunks
of FIT_CHUNK_VALUES values, each fitted in one pass, and refuses a chunk
whose increments exceed FIT_MAX_INCREMENT strides, under which no float32
value overflows, before stepping it. One gradient kernel, which owns its
residual, serves the fitter and bdr_loss_smoothed_grad, which runs it in
float64. A step of the kernel makes once the calls that carry no
per-length constant and once per length of its rows the four that do, so
rows of several lengths share each step, and each block's fit is the fit
of that block alone, bit for bit.
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


def _smoothed_grad_kernel(target_incs, dtype, stride: float, alpha: float,
                          delta: float, scales):
    """(residual, views, step), all in `dtype`: the flat residual e of
    every run, zeroed, its view per run, and a zero-argument step that
    returns the gradient of bdr_loss_smoothed (batched rows, Huber width
    `delta`) at the prediction target + e, laid out like e.

    Run k is rows of the target whose increments are `target_incs[k]`, a
    (rows, T - 1) array; views[k] is their (rows, T) residual, and their
    gradient is scaled by `scales[k]`. The kernel lays the runs of one
    length and scale back to back in e, so that each such group is one
    slice.

    The caller writes e in place, once or between steps. The kernel reads
    the prediction only through e and the target's increments, rounded once
    to `dtype`: the Huber term reads e, the hinge the prediction's
    increments diff(e) + target_inc. Every value it holds is then the size
    of the residual, not of the target, which is what lets the fitter step
    in float32.

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
    their slices, and the constants. The increments and the hinge gradient
    run over all the rows back to back, with each row's last column, the
    one that would straddle two rows, set to zero. So a step makes once the
    seven calls that carry no per-length constant: the increments' subtract
    and add, the dead-zone clip and subtract, the adjoint's subtract and
    add, and the caller's update of e. Each group makes on its slice the
    four that do: the Huber multiply and clip, the straddle zeroing and the
    hinge multiply. Rows never read each other, so each row gets the bits
    it would get alone, and one group makes the 11 calls of a one-length
    step in their order.

    The step makes only ufunc calls that write into those arrays, so it
    allocates nothing; each call returns the same gradient array,
    overwritten. Its constants, the clips' bounds of both signs and the
    zero among them, are 0-d arrays in `dtype` and every output is passed
    by position, so no call converts a scalar or parses a keyword.
    """
    dtype = np.dtype(dtype).type
    groups = {}  # (T, scale): the runs of that length and scale
    for k, (target_inc, scale) in enumerate(zip(target_incs, scales)):
        groups.setdefault((target_inc.shape[-1] + 1, scale), []).append(k)
    size = sum(a.size + len(a) for a in target_incs)
    # the increments' last entry only ever adds two zeros, so stays finite
    residual, grad, inc, q, t_inc = (np.zeros(size, dtype) for _ in range(5))
    e_next, e_prev, inc_head = residual[1:], residual[:-1], inc[:-1]
    q_head, g_head, g_tail = q[:-1], grad[:-1], grad[1:]
    band, stride = dtype(delta), dtype(stride)
    views, huber, hinge, end = [None] * len(target_incs), [], [], 0
    for (T, scale), runs in groups.items():
        start = end
        for k in runs:
            rows = len(target_incs[k])
            views[k] = residual[end:end + rows * T].reshape(rows, T)
            t_inc[end:end + rows * T].reshape(rows, T)[:, :-1] = target_incs[k]
            end += rows * T
        huber_bound = dtype(scale / T)
        huber_mul = dtype(scale / (delta * T))
        while band * huber_mul < huber_bound:
            huber_mul = np.nextafter(huber_mul, dtype(np.inf))
        huber_mul, hinge_mul, low, high = (
            np.array(c, dtype) for c in (huber_mul,
                                         2.0 * alpha / (T - 1) * scale,
                                         -huber_bound, huber_bound))
        e_run, g_run, q_run = (a[start:end] for a in (residual, grad, q))
        huber.append((e_run, huber_mul, g_run.clip, low, high, g_run))
        hinge.append((q_run.reshape(-1, T)[:, -1], q_run, hinge_mul))
    inc_low, inc_high, zero = (np.array(c, dtype)
                               for c in (-stride, stride, 0.0))
    multiply, subtract, add = np.multiply, np.subtract, np.add
    clip_inc = inc.clip

    def step():
        for e_run, huber_mul, clip_run, low, high, g_run in huber:
            multiply(e_run, huber_mul, g_run)
            clip_run(low, high, g_run)
        subtract(e_next, e_prev, inc_head)
        add(inc, t_inc, inc)
        subtract(inc, clip_inc(inc_low, inc_high, q), q)
        for q_last, q_run, hinge_mul in hinge:
            q_last[...] = zero
            multiply(q_run, hinge_mul, q_run)
        subtract(g_head, q_head, g_head)
        add(g_tail, q_head, g_tail)
        return grad

    return residual, views, step


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
    _, (residual,), grad = _smoothed_grad_kernel(
        [target_inc.reshape(-1, shape[-1] - 1)], np.float64, stride,
        cfg.alpha, cfg.huber_delta * stride, [1.0])
    np.subtract(prediction, target, out=residual.reshape(shape))
    return grad().reshape(shape)


def _curvature_bound(T: int, alpha: float, delta: float) -> float:
    """Lipschitz constant of the grid-unit smoothed loss's gradient: the Huber
    mean's curvature 1/(delta T) plus the hinge's 2 alpha/(T-1) ||D^T D||,
    where D takes the increments and ||D^T D|| <= 4."""
    return 1.0 / (delta * T) + 8.0 * alpha / (T - 1)


def fit_distance(observations, grid: TimeGrid, cfg: FitConfig = FitConfig()) -> np.ndarray:
    """Fit a distance series to noisy observations by descending the smoothed
    loss: the one-block fit_distances.

    Works on a single series or a batch (trials stacked on the first axis),
    and returns the fit in the observations' shape.
    """
    return fit_distances([observations], [grid], cfg)[0]


def _chunks(shapes):
    """Each chunk of rows the fitter steps together, as a list of
    (block, first row, end row), for blocks of the (rows, T) `shapes`.

    The rows are packed in block order, as many as hold at most
    FIT_CHUNK_VALUES values and at least one, so rows of one length T come
    FIT_CHUNK_VALUES // T to a chunk, or one."""
    chunk, values = [], 0
    for k, (rows, T) in enumerate(shapes):
        start = 0
        while start < rows:
            if chunk and values + T > FIT_CHUNK_VALUES:
                yield chunk
                chunk, values = [], 0
            # a row longer than a chunk is a chunk of its own
            end = min(rows, start + max(1, (FIT_CHUNK_VALUES - values) // T))
            chunk.append((k, start, end))
            values += (end - start) * T
            start = end
    if chunk:
        yield chunk


def fit_groups(sizes) -> list:
    """The blocks to fit together, as lists of block indices in order, for
    blocks of `sizes` values each: consecutive blocks share one
    fit_distances pass while they hold at most FIT_CHUNK_VALUES values in
    all. Past that, sharing the steps saves no chunk and only holds more
    memory."""
    groups, held = [], 0  # held: the values of the last group's blocks
    for k, values in enumerate(sizes):
        if groups and held + values <= FIT_CHUNK_VALUES:
            groups[-1].append(k)
            held += values
        else:
            groups.append([k])
            held = values
    return groups


def fit_distances(observations, grids, cfg: FitConfig = FitConfig()) -> list:
    """The fit of each block of observations on its grid, in one pass over
    all blocks: blocks of rows of different lengths and strides share each
    step. observations[k] is a single series or a batch on grids[k], and
    fit k has its shape; no blocks give no fits.

    Optimisation runs in grid units so behaviour is stride-independent. A
    block of T positions takes FIT_ITERATIONS steps of one size, FIT_STEP
    halved while at least 2/L for L = _curvature_bound(T), so by the
    descent lemma every step lowers every row's loss in exact arithmetic
    (unless the row is at a minimum). The loss itself is never evaluated:
    each step is the step-scaled gradient of _smoothed_grad_kernel, the
    kernel bdr_loss_smoothed_grad runs too, subtracted from the fit. The
    step is a power of two, so folding it into the gradient's constants
    gives the same bits as scaling afterwards. The Huber term's gradient is
    a multiply and a clip, with no divide: inside the band it rounds within
    3 ULP of clip(e/delta, -1, 1)/T, outside the band it is that bit for
    bit.

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

    Rows are fitted in chunks of at most FIT_CHUNK_VALUES values (_chunks),
    packed in block order, each from start to finish in one pass: its
    increments are formed and checked, the kernel is built on them, the
    kernel's residual takes FIT_ITERATIONS steps in place and (o + e) *
    stride is written back into that chunk of the output. So the arrays,
    views, slices and constants of the kernel are made once per chunk, not
    on every step, and beside the output the fit holds only one chunk's
    arrays. A step of a chunk makes once the calls that carry no
    per-length constant and once per length the four that do, so one
    length makes the 11 calls of one fit and five lengths 27, not 55. Rows
    are independent, so the fit of a row does not depend on the chunk
    size or on the rows it shares a chunk with: each block's fit is the
    fit of that block alone, bit for bit. A refused row raises after the
    chunks before it have stepped, and no output is returned.
    """
    if len(observations) != len(grids):
        raise ValueError(f"{len(observations)} blocks of observations and "
                         f"{len(grids)} grids")
    obs = [np.asarray(o, dtype=float) for o in observations]
    for o in obs:
        if not np.all(np.isfinite(o)):
            raise ValueError("observations must be finite")
        _check_positions("observations", o)
    alpha, delta = cfg.loss.alpha, cfg.loss.huber_delta
    full, steps = [], []
    for o, grid in zip(obs, grids):
        T = o.shape[-1]
        step, bound = FIT_STEP, _curvature_bound(T, alpha, delta)
        while step * bound >= 2.0:
            step *= 0.5
        steps.append(step)
        # an overflow here gives inf or NaN increments, which the check
        # refuses
        with np.errstate(over="ignore", invalid="ignore"):
            full.append(o.reshape(-1, T) / grid.stride)
    subtract = np.subtract
    # rows are independent; chunks of a fixed number of values keep the
    # kernel's working set in cache on long batches and short rows alike
    for chunk in _chunks([f.shape for f in full]):
        rows = [full[k][start:end] for k, start, end in chunk]
        with np.errstate(over="ignore", invalid="ignore"):
            incs = [np.diff(d, axis=-1) for d in rows]
        for inc in incs:
            # NaN fails both comparisons
            if not (inc.max() <= FIT_MAX_INCREMENT
                    and inc.min() >= -FIT_MAX_INCREMENT):
                raise ValueError("observations must change by at most "
                                 f"{FIT_MAX_INCREMENT:.3g} strides per grid "
                                 "step")
        e, views, scaled_grad = _smoothed_grad_kernel(
            incs, np.float32, 1.0, alpha, delta,
            [steps[k] for k, _, _ in chunk])
        for _ in range(FIT_ITERATIONS):
            subtract(e, scaled_grad(), e)
        for d, view, (k, _, _) in zip(rows, views, chunk):
            d += view
            d *= grids[k].stride
    return [f.reshape(o.shape) for f, o in zip(full, obs)]


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
