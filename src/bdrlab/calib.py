"""Heteroscedastic regression loss and the regression calibration error metric."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CalibrationConfig:
    num_bins: int = 10
    # P(|Z| <= 0.9945) = 0.680 for a standard normal Z, the coverage r_ece
    # targets (z = 1 gives 0.6827)
    one_sigma_quantile: float = 0.9945

    def __post_init__(self):
        if self.num_bins < 2:
            raise ValueError("num_bins must be >= 2")
        if self.one_sigma_quantile <= 0:
            raise ValueError("one_sigma_quantile must be positive")


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


def equal_mass_bins(n: int, num_bins: int) -> list[np.ndarray]:
    """Index ranges for M equal-mass bins; remainders go to the earliest bins."""
    base, rem = divmod(n, num_bins)
    sizes = [base + (1 if m < rem else 0) for m in range(num_bins)]
    edges = np.cumsum([0] + sizes)
    return [np.arange(edges[m], edges[m + 1]) for m in range(num_bins)]


def r_ece(errors, sigmas, cfg: CalibrationConfig = CalibrationConfig(),
          return_bins: bool = False):
    """Regression expected calibration error.

    Pairs are sorted by sigma^2 and split into equal-mass bins; each bin's
    coverage is the fraction of errors within z * sigma of zero, and the
    metric is the mass-weighted absolute deviation of coverage from 0.68.
    """
    e = np.asarray(errors, dtype=float)
    s = np.asarray(sigmas, dtype=float)
    if e.shape != s.shape:
        raise ValueError("series lengths differ")
    if not np.all(np.isfinite(e)):
        raise ValueError("errors must be finite")
    if not np.all(np.isfinite(s) & (s > 0)):
        raise ValueError("sigmas must be finite and positive")
    n = e.shape[-1]
    if n < cfg.num_bins:
        raise ValueError("need at least num_bins samples")
    order = np.argsort(s**2, kind="stable")
    e, s = e[order], s[order]
    hit = np.abs(e) <= cfg.one_sigma_quantile * s
    total = 0.0
    rows = []
    for idx in equal_mass_bins(n, cfg.num_bins):
        cov = float(np.mean(hit[idx]))
        total += len(idx) / n * abs(cov - 0.68)
        rows.append((len(idx), float(np.mean(s[idx] ** 2)), cov))
    if return_bins:
        return total, rows
    return total
