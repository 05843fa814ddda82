"""Heteroscedastic regression loss and the regression calibration error metric."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BLOCK_VALUES, blocks


@dataclass(frozen=True)
class CalibrationConfig:
    num_bins: int = 10
    # P(|Z| <= 0.9945) = 0.680 for a standard normal Z, the coverage r_ece
    # targets (z = 1 gives 0.6827); not annotated, so a constant, not a field
    one_sigma_quantile = 0.9945

    def __post_init__(self):
        if (isinstance(self.num_bins, bool)
                or not isinstance(self.num_bins, (int, np.integer))
                or self.num_bins < 2):
            raise ValueError("num_bins must be an integer >= 2")


def heteroscedastic_loss(target, prediction, variance) -> float:
    """Sum over positions of (residual^2 / (2 sigma^2) + 0.5 log sigma^2)."""
    d = np.asarray(target, dtype=float)
    dh = np.asarray(prediction, dtype=float)
    v = np.asarray(variance, dtype=float)
    if d.shape != dh.shape or d.shape != v.shape:
        raise ValueError("series lengths differ")
    if np.any(v <= 0):
        raise ValueError("variance must be positive")
    r = d - dh
    return float(np.sum(r**2 / (2.0 * v) + 0.5 * np.log(v)))


def equal_mass_edges(n: int, num_bins: int) -> np.ndarray:
    """The num_bins + 1 edges of equal-mass bins over n ranks; remainders go
    to the earliest bins."""
    base, rem = divmod(n, num_bins)
    return np.cumsum([0] + [base + (1 if m < rem else 0)
                            for m in range(num_bins)])


def _hit_key(e: np.ndarray, s: np.ndarray, q: float) -> np.ndarray:
    """r_ece's sort key of each pair: the bits of sigma^2, as s**2 gives
    it, read as an unsigned integer and shifted up one, with the hit bit,
    |e| <= q * sigma, below them. sigma^2 >= 0 sorts as its bits do, so the
    hit bit orders only pairs of equal sigma^2. The key is built a block at
    a time, with work arrays of one block."""
    n = len(e)
    key = np.empty(n, np.uint64)
    work = np.empty((2, min(n, BLOCK_VALUES)))
    hit = np.empty(work.shape[1], bool)
    for b in blocks(n):
        k = b.stop - b.start
        absolute, scaled, h = work[0, :k], work[1, :k], hit[:k]
        np.less_equal(np.abs(e[b], out=absolute),
                      np.multiply(q, s[b], out=scaled), out=h)
        np.left_shift(np.square(s[b], out=scaled).view(np.uint64), 1,
                      out=key[b])
        key[b] |= h
    return key


def r_ece(errors, sigmas, cfg: CalibrationConfig = CalibrationConfig(),
          return_bins: bool = False):
    """Regression expected calibration error.

    Pairs are ranked by sigma^2, ties in index order, and split into
    equal-mass bins; each bin's coverage is the fraction of errors within
    z * sigma of zero, and the metric is the mass-weighted absolute deviation
    of coverage from 0.68.

    No permutation is built. One sort of the pairs' keys (_hit_key) gives
    sigma^2 in rank order, with each rank's hit carried along in the lowest
    bit, and a bin's coverage is its hit count over its size. The hits
    among the first E ranks are the hits with sigma^2 below x, the sigma^2
    at rank E, and, if lo < E pairs have sigma^2 below x, the hits among the
    first E - lo pairs by index whose sigma^2 equals x. A run of equal
    sigma^2 is read once, however many edges it crosses.

    Every long pass runs in blocks of blocks.BLOCK_VALUES values or over
    one bin, so the one full-size array is the key. Each edge's sigma^2,
    the search for its first rank, the hit counts and each bin's mean
    sigma^2 are read off the sorted key. Only a run of equal sigma^2 that
    crosses a bin edge makes a temporary span more than a bin: the ranks
    it holds, and a full-size sigma^2 to find its pairs in index order.
    """
    e = np.asarray(errors, dtype=float)
    s = np.asarray(sigmas, dtype=float)
    if e.shape != s.shape:
        raise ValueError("series lengths differ")
    if e.ndim != 1:
        raise ValueError("errors and sigmas must be 1-D")
    n = len(e)
    if not all(np.isfinite(e[b]).all() for b in blocks(n)):
        raise ValueError("errors must be finite")
    if not all((np.isfinite(s[b]) & (s[b] > 0)).all() for b in blocks(n)):
        raise ValueError("sigmas must be finite and positive")
    if n < cfg.num_bins:
        raise ValueError("need at least num_bins samples")
    q = cfg.one_sigma_quantile
    key = _hit_key(e, s, q)
    key.sort()
    edges = equal_mass_edges(n, cfg.num_bins)
    hits_upto = [0]  # hits among the first E ranks, per bin edge E
    below, lo_done = 0, 0  # hits among the first lo_done ranks
    run_lo, run_hits = -1, None  # the last tie run read, by its first rank
    for edge in edges[1:-1]:
        x = key[edge] >> 1  # the bits of the sigma^2 at rank `edge`
        # the first rank whose sigma^2 is x: its key is x's bits, shifted
        lo = int(np.searchsorted(key, x << 1, side="left"))
        below += np.count_nonzero(key[lo_done:lo] & 1)
        lo_done = lo
        tied = 0
        if edge > lo:  # a run of ties crosses the edge: index order
            if lo != run_lo:  # its hits, counted up in index order
                run = np.flatnonzero(s**2 == x.view(np.float64))
                run_lo, run_hits = lo, np.cumsum(
                    np.abs(e[run]) <= q * s[run])
            tied = int(run_hits[edge - lo - 1])
        hits_upto.append(below + tied)
    hits_upto.append(below + np.count_nonzero(key[lo_done:] & 1))
    total = 0.0
    rows = []
    for m in range(cfg.num_bins):
        a, b = int(edges[m]), int(edges[m + 1])
        cov = float((hits_upto[m + 1] - hits_upto[m]) / (b - a))
        total += (b - a) / n * abs(cov - 0.68)
        svar = (key[a:b] >> 1).view(np.float64)
        rows.append((b - a, float(np.mean(svar)), cov))
    if return_bins:
        return total, rows
    return total
