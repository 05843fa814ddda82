"""Synthetic 1D signal generation: signed distance fields, kernel features, noise.

Everything here is pure given (inputs, seed). Positions live on a uniform
grid t_i = i * stride (frames); all widths and distances are in frames.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: T positions spaced stride frames apart."""

    stride: float
    num_positions: int

    def __post_init__(self):
        if not (np.isfinite(self.stride) and self.stride > 0):
            raise ValueError("stride must be finite and positive")
        if self.num_positions < 2:
            raise ValueError("num_positions must be >= 2")

    def times(self) -> np.ndarray:
        return np.arange(self.num_positions) * self.stride


NOISE_FAMILIES = ("laplace", "gaussian", "student_t")


@dataclass(frozen=True)
class NoiseSpec:
    """Marginal noise family plus optional AR(1) temporal correlation.

    family: "laplace" (scale b), "gaussian" (sigma), "student_t" (nu, scale).
    The AR(1) recursion is variance preserving, so rho only changes the
    dependence structure, not the marginal power.
    """

    family: str = "laplace"
    scale: float = 0.5
    rho: float = 0.0
    nu: float = 3.0

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family: {self.family}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must be in [0, 1)")
        if not (np.isfinite(self.scale) and self.scale >= 0):
            raise ValueError("scale must be finite and >= 0")
        if not (np.isfinite(self.nu) and self.nu > 0):
            raise ValueError("nu must be finite and positive")


def make_distance_field(grid: TimeGrid, boundaries) -> np.ndarray:
    """Signed distance d(t_i) = t_i - (nearest boundary).

    Ties at equidistant points resolve to the earlier boundary.
    """
    b = np.sort(np.asarray(boundaries, dtype=float))
    if b.size == 0:
        raise ValueError("no boundaries")
    if not np.all(np.isfinite(b)):
        raise ValueError("boundaries must be finite")
    t = grid.times()
    # argmin returns the first minimal index; with boundaries sorted this
    # realises the earlier-boundary tie rule.
    idx = np.abs(t[:, None] - b[None, :]).argmin(axis=1)
    return t - b[idx]


# The largest kernel width whose 2 kappa^2 is a finite float, and the width
# from which up 2 kappa^2 is a normal float; below about 1.5e-162 it is 0.
KAPPA_MAX = math.sqrt(sys.float_info.max / 2)
KAPPA_MIN = math.sqrt(sys.float_info.min / 2)


def make_kernel_features(grid: TimeGrid, center, kappa: float,
                         cols: slice = slice(None)) -> np.ndarray:
    """Gaussian bump exp(-(t-center)^2 / (2 kappa^2)), peak 1 at the center.

    A scalar center gives one row of T values; an array of centers gives
    one row per center. `cols` keeps only those grid columns; they equal
    the same columns of the full rows bit for bit. A kappa above KAPPA_MAX
    counts as not finite: its 2 kappa^2 overflows. A kappa below KAPPA_MIN
    counts as not positive: its 2 kappa^2 may be subnormal, and is 0 below
    about 1.5e-162, where the center's 0 / 0 would be NaN. Far from the
    center, where the exponent's quotient overflows to inf, the feature is
    exp(-inf) = 0, the bump's value there.
    """
    if not KAPPA_MIN <= kappa <= KAPPA_MAX:  # NaN fails the comparison too
        raise ValueError(f"kappa must be in [{KAPPA_MIN:.3g}, {KAPPA_MAX:.3g}]")
    c = np.asarray(center, dtype=float)[..., None]
    if not np.all(np.isfinite(c)):
        raise ValueError("centers must be finite")
    t = grid.times()[cols]
    with np.errstate(over="ignore"):
        return np.exp(-((t - c) ** 2) / (2.0 * kappa**2))


# Block length of the blocked scan: each row of its block matrix steps a
# warm-up, then this many values of its own.
SCAN_BLOCK = 512
# A series takes the blocked scan only from this many rows on. Below it the
# fixed cost of the numpy calls per column outweighs what the scalar loop
# saves: on a 2-core VM both cost the same at about 20 rows for AR(1) and 32
# for hold_previous.
SCAN_MIN_ROWS = 32


def _blocked_scan(u: np.ndarray, warmup: int, step_columns, scan) -> np.ndarray:
    """The first-order scan y[0] = u[0], y[i] = f(y[i-1], u[i]) over the 1-D
    float series u, for a recurrence f whose whole state is its last value.
    u is the caller's own copy: the result may be u itself, stepped in place.

    step_columns(cols) steps f down axis 0 of a 2-D array in place, every
    column at once, cols[j] = f(cols[j-1], cols[j]); scan(x, start, stop) is
    the scalar loop, stepping f in place over memoryview x from the state
    x[start-1] through x[stop-1].

    A short series, or a warm-up longer than SCAN_BLOCK, runs the scalar
    loop once. A long one is cut into overlapping rows: row k holds the
    values at [kB, kB + W + B), a warm-up of W values, then its own block of
    B = SCAN_BLOCK. Row 0 starts from the true state u[0]; every other row
    takes its first value as a guessed state, and all rows step together,
    one column at a time. Row k's warm-up ends on the position row k-1 ends
    on. Where the two rows hold the same bits there, they hold the same
    state, and with the same inputs ahead the same values from then on, so
    row k's block is exact. The check compares bits, not values: +0.0 == -0.0
    although their sums can differ later, and NaN != NaN. A row that fails
    the check is redone by the scalar loop from the exact value before its
    block, in order, so the next row is checked against the redone values.
    The output is therefore bit for bit the scalar loop's, whatever the
    warm-up; the warm-up only decides how often a block is redone. The
    values past the last whole row run the scalar loop too.
    """
    n, W, B = len(u), warmup, SCAN_BLOCK
    rows = (n - W) // B if W <= B else 0
    if rows < SCAN_MIN_ROWS:
        if n:
            scan(memoryview(u), 1, n)
        return u
    windows = np.lib.stride_tricks.sliding_window_view(u, W + B)[::B][:rows]
    cols = np.ascontiguousarray(windows.T)
    with np.errstate(invalid="ignore", over="ignore"):  # silent, as in floats
        step_columns(cols)
    y = np.empty_like(u)
    y[:W + B] = cols[:, 0]
    y[W + B:W + rows * B].reshape(rows - 1, B)[...] = cols[W:, 1:].T
    # miss[k - 1]: row k's warm-up ends on other bits than row k-1 ends on
    y_bits, col_bits = y.view(np.int64), cols.view(np.int64)
    miss = col_bits[W - 1, 1:] != col_bits[-1, :-1]
    x, k = memoryview(y), 0
    while (left := np.flatnonzero(miss[k:])).size:
        k += int(left[0]) + 1
        start = k * B + W
        y[start:start + B] = u[start:start + B]
        scan(x, start, start + B)
        if k < rows - 1:
            miss[k] = col_bits[W - 1, k + 1] != y_bits[start + B - 1]
    start = rows * B + W
    y[start:] = u[start:]
    scan(x, start, n)
    return y


def _ar1_warmup(rho: float) -> int:
    """Steps after which a difference in the AR(1) state has shrunk by 2^-64,
    |rho|^W <= 2^-64, plus a quarter for margin: 319 at rho = 0.84, where
    on five 250000-value series two rows met after 256 steps at most."""
    return math.ceil(1.25 * 64.0 / -math.log2(abs(rho)))


def _ar1_columns(cols: np.ndarray, rho: float):
    """x[j] = rho x[j-1] + x[j] down axis 0 of cols, in place, two ufunc calls
    per step over every column at once. rho is a 0-d float64 array and the
    outputs are passed by position, so no call converts a scalar or parses
    a keyword; the products are those of the Python float."""
    tmp = np.empty(cols.shape[1:])
    rho = np.array(rho, np.float64)
    multiply, add = np.multiply, np.add
    for prev, cur in zip(cols, cols[1:]):
        add(multiply(prev, rho, tmp), cur, cur)


def _ar1_scan(x: memoryview, start: int, stop: int, rho: float):
    """x[i] = rho x[i-1] + x[i] for i in [start, stop), in place. The
    memoryview reads and writes plain Python floats; indexing the array
    would build a numpy scalar per step, which costs far more than the
    arithmetic."""
    prev = x[start - 1]
    for i in range(start, stop):
        prev = x[i] = rho * prev + x[i]


def _apply_ar1(eta: np.ndarray, rho: float) -> np.ndarray:
    """Variance-preserving AR(1) along the last axis:
    x[0] = eta[0], x[i] = rho x[i-1] + sqrt(1 - rho^2) eta[i].

    Every innovation is scaled in one pass first, in float64; products are
    commutative in floating point, so c eta[i] has the recursion's bits. One
    series then takes _blocked_scan; a batch of rows steps all rows one
    column at a time. A series of no values comes back empty at any rho.
    """
    if rho == 0.0:
        return eta
    rho = float(rho)
    c = float(np.sqrt(1.0 - rho**2))
    out = np.multiply(eta, c, dtype=float)
    out[..., :1] = eta[..., :1]
    if out.size == out.shape[-1]:
        return _blocked_scan(out.reshape(-1), _ar1_warmup(rho),
                             partial(_ar1_columns, rho=rho),
                             partial(_ar1_scan, rho=rho)).reshape(out.shape)
    _ar1_columns(np.moveaxis(out, -1, 0), rho)
    return out


def sample_noise_matrix(spec: NoiseSpec, seed, rows: int, count: int) -> np.ndarray:
    """`rows` independent noise rows of `count` values, drawn row-major in one
    call by np.random.default_rng(seed) before AR(1) runs along each row.

    Row k is the k-th row of the seed's stream, so fewer rows are a prefix of
    more; a row cannot be drawn without the rows before it.
    """
    rng, shape = np.random.default_rng(seed), (rows, count)
    if spec.family == "laplace":
        eta = rng.laplace(0.0, spec.scale, size=shape)
    elif spec.family == "gaussian":
        eta = rng.normal(0.0, spec.scale, size=shape)
    else:
        eta = spec.scale * rng.standard_t(spec.nu, size=shape)
    return _apply_ar1(eta, spec.rho)
