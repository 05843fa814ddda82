"""Adaptive depth allocation: tau blending, hysteresis, pruning, FLOPs model."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .blocks import BLOCK_VALUES, blocks
from .synth import _blocked_scan


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


def blend_residual(shallow, deep, tau) -> np.ndarray:
    """out_t = shallow_t + tau_t * (deep_t - shallow_t)."""
    s = np.asarray(shallow, dtype=float)
    d = np.asarray(deep, dtype=float)
    t = np.asarray(tau, dtype=float)
    if s.shape != d.shape or s.shape != t.shape:
        raise ValueError("shallow, deep and tau lengths differ")
    return s + t * (d - s)


# Warm-up of the blocked hold_previous scan. The stabilised trace forgets
# its start once a step of at least gamma resets it: on five 250000-value
# tau_scenario traces at gamma = 0.05, two rows met after 8 steps at the
# median and 125 at most.
HOLD_WARMUP = 256


def _hold_columns(cols: np.ndarray, gamma: float):
    """hold_previous down axis 0 of cols, in place, every column at once.
    gamma is a 0-d float64 array and the ufuncs' outputs are passed by
    position, so no call converts a scalar or parses a keyword."""
    tmp = np.empty(cols.shape[1:])
    near = np.empty(cols.shape[1:], dtype=bool)
    gamma = np.array(gamma, np.float64)
    subtract, absolute, less, copyto = np.subtract, np.abs, np.less, np.copyto
    for prev, cur in zip(cols, cols[1:]):
        less(absolute(subtract(cur, prev, tmp), tmp), gamma, near)
        copyto(cur, prev, where=near)


def _hold_scan(x: memoryview, start: int, stop: int, gamma: float):
    """hold_previous over x[start:stop] in place, from the stabilised value
    x[start-1], reading and writing plain Python floats."""
    held = x[start - 1]
    for i, v in enumerate(x[start:stop], start):
        if abs(v - held) < gamma:
            x[i] = held
        else:
            held = v


def apply_hysteresis(tau, cfg: HysteresisConfig = HysteresisConfig()) -> np.ndarray:
    """Stabilise a tau trace against small fluctuations.

    The caller's trace is read, never written; the result is a new array.

    hold_previous: sweeping left to right, a value inside the band around the
    already-stabilised previous value is replaced by it; the sweep runs as
    synth._blocked_scan, bit for bit the left-to-right loop, straight from
    the trace, any float64 view of it included. A long trace's only
    full-size array is the result, besides one tile of about
    blocks.BLOCK_VALUES values; a short one costs one copy. deadzone_half
    snaps values within gamma of 0.5 to exactly 0.5, in place on the copy
    it returns, a block of blocks.BLOCK_VALUES values at a time: its work
    arrays hold one block, whatever the trace's length.
    """
    t = np.asarray(tau, dtype=float)
    if t.ndim != 1:
        raise ValueError("tau trace must be 1-D")
    if cfg.mode == "deadzone_half":
        t = t.copy()
        gap = np.empty(min(len(t), BLOCK_VALUES))
        near = np.empty(len(gap), bool)
        for b in blocks(len(t)):
            g, k = gap[:b.stop - b.start], near[:b.stop - b.start]
            np.less_equal(np.abs(np.subtract(t[b], 0.5, out=g), out=g),
                          cfg.gamma, out=k)
            np.copyto(t[b], 0.5, where=k)
        return t
    gamma = cfg.gamma
    return _blocked_scan(t, HOLD_WARMUP, partial(_hold_columns, gamma=gamma),
                         partial(_hold_scan, gamma=gamma))


def flip_rate(tau) -> float:
    """Fraction of adjacent pairs whose side of 0.5 differs (0.5 counts as high)."""
    t = np.asarray(tau, dtype=float)
    if t.ndim != 1:
        raise ValueError("tau trace must be 1-D")
    if t.shape[0] < 2:
        raise ValueError("trace must have length >= 2")
    side = t >= 0.5
    # an exact count over an exact length: np.mean's quotient, without its
    # cast of every pair to float64
    return int(np.count_nonzero(side[1:] != side[:-1])) / (len(t) - 1)


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


def expected_tau(buckets) -> float:
    """Count-weighted mean of per-bucket tau values."""
    counts = np.array([c for c, _ in buckets], dtype=float)
    taus = np.array([x for _, x in buckets], dtype=float)
    if counts.size == 0 or np.any(counts <= 0):
        raise ValueError("need at least one bucket, every count positive")
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
        raise ValueError("expected_tau must be in [0, 1]")
    plp = per_layer_pruned_cost(keep_ratio)
    return (BACKBONE_G
            + SHALLOW_LAYERS * plp
            + exp_tau * DEEP_LAYERS * plp
            + HEADS_G
            + PREDICTORS_G)
