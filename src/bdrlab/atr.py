"""Adaptive depth allocation: tau blending, hysteresis, pruning, FLOPs model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HysteresisConfig:
    gamma: float = 0.05
    mode: str = "hold_previous"  # or "deadzone_half"

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError("gamma must be finite and >= 0")
        if self.mode not in ("hold_previous", "deadzone_half"):
            raise ValueError(f"unknown hysteresis mode: {self.mode}")


# Analytic inference-cost model, all costs in GFLOPs: a backbone, a shallow
# stack that always runs, a deep stack that runs with probability tau, heads
# and the tau/uncertainty predictors. Token pruning scales each stack layer
# quadratically in the keep ratio for its attention share, linearly for the
# rest.
BACKBONE_G = 124.0
SHALLOW_LAYERS = 2
DEEP_LAYERS = 7
PER_LAYER_FULL_G = 12.33
HEADS_G = 5.0
PREDICTORS_G = 0.12
ATTENTION_FRACTION = 0.6
# Pruning keeps every position within this many frames of a predicted boundary.
GUARD_RADIUS = 12.0
# Weights of the compute (mean tau) and prune (mean keep mask) penalties.
LAMBDA_C = 0.05
LAMBDA_P = 0.01


def blend_residual(shallow, deep, tau) -> np.ndarray:
    """out_t = shallow_t + tau_t * (deep_t - shallow_t)."""
    s = np.asarray(shallow, dtype=float)
    d = np.asarray(deep, dtype=float)
    t = np.asarray(tau, dtype=float)
    if s.shape != d.shape or s.shape != t.shape:
        raise ValueError("shallow, deep and tau lengths differ")
    return s + t * (d - s)


def apply_hysteresis(tau, cfg: HysteresisConfig = HysteresisConfig()) -> np.ndarray:
    """Stabilise a tau trace against small fluctuations.

    hold_previous: sweeping left to right, a value inside the band around the
    already-stabilised previous value is replaced by it. deadzone_half snaps
    values within gamma of 0.5 to exactly 0.5.
    """
    t = np.asarray(tau, dtype=float).copy()
    if cfg.mode == "deadzone_half":
        t[np.abs(t - 0.5) <= cfg.gamma] = 0.5
        return t
    for i in range(1, t.shape[-1]):
        if abs(t[i] - t[i - 1]) < cfg.gamma:
            t[i] = t[i - 1]
    return t


def flip_rate(tau) -> float:
    """Fraction of adjacent pairs whose side of 0.5 differs (0.5 counts as high)."""
    t = np.asarray(tau, dtype=float)
    if t.shape[-1] < 2:
        raise ValueError("trace must have length >= 2")
    side = t >= 0.5
    return float(np.mean(side[1:] != side[:-1]))


def surrogate_tau(uncertainty, scale: float, offset: float) -> np.ndarray:
    """tau = logistic(scale * log(sigma^2) + offset).

    Stands in for a learned depth gate: monotone in the uncertainty when
    scale > 0, bounded in (0, 1).
    """
    u = np.asarray(uncertainty, dtype=float)
    if np.any(u <= 0):
        raise ValueError("uncertainty values must be positive")
    z = scale * np.log(u) + offset
    return 1.0 / (1.0 + np.exp(-z))


def calibrate_tau_offset(uncertainty, scale: float, target_mean: float,
                         tol: float = 1e-6) -> float:
    """Bisect the offset so the mean of surrogate_tau hits target_mean."""
    lo, hi = -50.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(np.mean(surrogate_tau(uncertainty, scale, mid))) < target_mean:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def prune_mask(importance, keep_ratio: float, predicted_boundaries,
               grid) -> np.ndarray:
    """Top-k keep mask with a hard guard band around predicted boundaries.

    Keeps the floor(keep_ratio * T) highest-importance positions (ties to the
    earlier position), keep_ratio in (0, 1], then force-keeps everything
    within GUARD_RADIUS frames of any predicted boundary, so the kept count
    may exceed the quota.
    """
    if not 0.0 < keep_ratio <= 1.0:
        raise ValueError("keep_ratio must be in (0, 1]")
    imp = np.asarray(importance, dtype=float)
    T = imp.shape[-1]
    k = int(np.floor(keep_ratio * T))
    mask = np.zeros(T, dtype=bool)
    if k > 0:
        # stable sort on (-importance, index) keeps earlier positions on ties
        order = np.lexsort((np.arange(T), -imp))
        mask[order[:k]] = True
    t = grid.times()
    for b in np.asarray(predicted_boundaries, dtype=float).ravel():
        mask[np.abs(t - b) <= GUARD_RADIUS] = True
    return mask


def sparsity_penalties(tau, keep_mask):
    """Compute and prune penalties: LAMBDA_C * mean(tau), LAMBDA_P * mean(w)."""
    t = np.asarray(tau, dtype=float)
    w = np.asarray(keep_mask, dtype=float)
    return LAMBDA_C * float(np.mean(t)), LAMBDA_P * float(np.mean(w))


def expected_tau(buckets) -> float:
    """Count-weighted mean of per-bucket tau values."""
    counts = np.array([c for c, _ in buckets], dtype=float)
    taus = np.array([x for _, x in buckets], dtype=float)
    if np.any(counts <= 0):
        raise ValueError("bucket counts must be positive")
    return float(np.sum(counts * taus) / np.sum(counts))


def per_layer_pruned_cost(keep_ratio: float) -> float:
    """Per-layer cost after token pruning, keep_ratio in [0, 1]: quadratic in
    the keep ratio for the attention share, linear for the rest."""
    if not 0.0 <= keep_ratio <= 1.0:
        raise ValueError("keep_ratio must be in [0, 1]")
    return PER_LAYER_FULL_G * (ATTENTION_FRACTION * keep_ratio**2
                               + (1.0 - ATTENTION_FRACTION) * keep_ratio)


def total_flops(keep_ratio: float, exp_tau: float) -> float:
    """Backbone + shallow stack + expected deep stack + heads + predictors."""
    if not 0.0 <= exp_tau <= 1.0:
        raise ValueError("expected tau must be in [0, 1]")
    plp = per_layer_pruned_cost(keep_ratio)
    return (BACKBONE_G
            + SHALLOW_LAYERS * plp
            + exp_tau * DEEP_LAYERS * plp
            + HEADS_G
            + PREDICTORS_G)
