"""Adaptive depth allocation: tau blending, hysteresis, pruning, FLOPs model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HysteresisConfig:
    gamma: float = 0.05
    mode: str = "hold_previous"  # or "deadzone_half"

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.mode not in ("hold_previous", "deadzone_half"):
            raise ValueError(f"unknown hysteresis mode: {self.mode}")


@dataclass(frozen=True)
class PruneConfig:
    keep_ratio: float = 0.8
    guard_radius: float = 12.0

    def __post_init__(self):
        if not 0.0 < self.keep_ratio <= 1.0:
            raise ValueError("keep_ratio must be in (0, 1]")
        if self.guard_radius < 0:
            raise ValueError("guard_radius must be >= 0")


@dataclass(frozen=True)
class FlopsModel:
    """Analytic inference-cost model; all costs in GFLOPs."""

    backbone_g: float = 124.0
    shallow_layers: int = 2
    deep_layers: int = 7
    per_layer_full_g: float = 12.33
    heads_g: float = 5.0
    predictors_g: float = 0.12
    attention_fraction: float = 0.6
    keep_ratio: float = 0.8

    def __post_init__(self):
        if not 0.0 <= self.attention_fraction <= 1.0:
            raise ValueError("attention_fraction must be in [0, 1]")
        if not 0.0 <= self.keep_ratio <= 1.0:
            raise ValueError("keep_ratio must be in [0, 1]")


@dataclass(frozen=True)
class PenaltyConfig:
    lambda_c: float = 0.05
    lambda_p: float = 0.01


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


def prune_mask(importance, cfg: PruneConfig, predicted_boundaries, grid) -> np.ndarray:
    """Top-k keep mask with a hard guard band around predicted boundaries.

    Keeps the floor(keep_ratio * T) highest-importance positions (ties to the
    earlier position), then force-keeps everything within guard_radius frames
    of any predicted boundary, so the kept count may exceed the quota.
    """
    imp = np.asarray(importance, dtype=float)
    T = imp.shape[-1]
    k = int(np.floor(cfg.keep_ratio * T))
    mask = np.zeros(T, dtype=bool)
    if k > 0:
        # stable sort on (-importance, index) keeps earlier positions on ties
        order = np.lexsort((np.arange(T), -imp))
        mask[order[:k]] = True
    t = grid.times()
    for b in np.asarray(predicted_boundaries, dtype=float).ravel():
        mask[np.abs(t - b) <= cfg.guard_radius] = True
    return mask


def sparsity_penalties(tau, keep_mask, cfg: PenaltyConfig = PenaltyConfig()):
    """Compute and prune penalties: lambda_c * mean(tau), lambda_p * mean(w)."""
    t = np.asarray(tau, dtype=float)
    w = np.asarray(keep_mask, dtype=float)
    return cfg.lambda_c * float(np.mean(t)), cfg.lambda_p * float(np.mean(w))


def expected_tau(buckets) -> float:
    """Count-weighted mean of per-bucket tau values."""
    counts = np.array([c for c, _ in buckets], dtype=float)
    taus = np.array([x for _, x in buckets], dtype=float)
    if np.any(counts <= 0):
        raise ValueError("bucket counts must be positive")
    return float(np.sum(counts * taus) / np.sum(counts))


def per_layer_pruned_cost(model: FlopsModel) -> float:
    """Per-layer cost after token pruning: quadratic in the keep ratio for the
    attention share, linear for the rest."""
    k = model.keep_ratio
    return model.per_layer_full_g * (model.attention_fraction * k**2
                                     + (1.0 - model.attention_fraction) * k)


def total_flops(model: FlopsModel, exp_tau: float) -> float:
    """Backbone + shallow stack + expected deep stack + heads + predictors."""
    if not 0.0 <= exp_tau <= 1.0:
        raise ValueError("expected tau must be in [0, 1]")
    plp = per_layer_pruned_cost(model)
    return (model.backbone_g
            + model.shallow_layers * plp
            + exp_tau * model.deep_layers * plp
            + model.heads_g
            + model.predictors_g)
