"""Measure how often a 95% CI on the variance ratio R holds the pooled R.

    PYTHONPATH=src python3 tools/ci_coverage.py [--seeds K] [--trials N,...]

For each trial count n, the tool runs K independent sweeps of the cells
(kappa, dt) in CELLS at T = 200 under Laplace noise of scale 0.5, n trials
per cell. Sweep k has master seed k * len(CELLS), and cell i of it
master_seed + i, as in `scaling`. A cell's pooled R is the R of all K
sweeps' errors of that cell taken together, which has K times the trials of
one sweep. Each rule's coverage in a cell is the share of the K sweeps
whose CI holds that cell's pooled R. Two rules are compared:

- delta method: the CI that `variance_ratio` reports, closed form on log R.
- blocked bootstrap: `blocked_bootstrap` over blocks of BLOCK consecutive
  trials, RESAMPLES resamples drawn from the cell's master seed, each
  resample giving the ratio of the two MSEs of its picked blocks.

The tool prints one table row per trial count: the lowest and highest
coverage over the cells for each rule and the median, over every cell and
sweep, of each rule's relative CI half-width (high - low) / 2R. A
coverage's standard error is about sqrt(0.95 * 0.05 / K), 0.011 at
K = 400.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from bdrlab.stats import (ExperimentSpec, blocked_bootstrap, sweep_errors,
                          variance_ratio)
from bdrlab.synth import NoiseSpec, TimeGrid

CELLS = [(1.0, 1.0), (4.0, 1.0), (8.0, 1.0), (1.0, 2.0)]
NUM_POSITIONS = 200
NOISE = NoiseSpec(family="laplace", scale=0.5)
BLOCK = 20
RESAMPLES = 2000


def block_totals(errors: np.ndarray) -> np.ndarray:
    """[sum of squares, count] over the finite errors of each whole block
    of BLOCK consecutive trials, one row per block."""
    blocks = errors[:len(errors) // BLOCK * BLOCK].reshape(-1, BLOCK)
    finite = np.isfinite(blocks)
    squares = np.where(finite, blocks, 0.0) ** 2
    return np.column_stack([squares.sum(axis=1), finite.sum(axis=1)])


def ratio_of_mse(sums: np.ndarray) -> np.ndarray:
    """MSE ratio per resample from [sum b^2, n_b, sum c^2, n_c]; NaN unless
    the denominator is positive."""
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = sums[:, 2] / sums[:, 3]
        return np.where(denom > 0, sums[:, 0] / sums[:, 1] / denom, np.nan)


def bootstrap_ci(bdr: np.ndarray, cls: np.ndarray, seed: int):
    """The blocked-bootstrap 95% CI of one cell's MSE ratio."""
    totals = np.hstack([block_totals(bdr), block_totals(cls)])
    return tuple(blocked_bootstrap(totals, RESAMPLES, seed, ratio_of_mse))


def coverage_row(num_trials: int, num_sweeps: int) -> dict:
    """{rule: (lowest coverage, highest coverage, median relative
    half-width)} over CELLS at num_trials per cell."""
    cells = [[] for _ in CELLS]  # per cell, (bdr, cls, seed) of each sweep
    for k in range(num_sweeps):
        specs = [ExperimentSpec(
            grid=TimeGrid(stride=dt, num_positions=NUM_POSITIONS),
            kappa=kappa, boundary=float(NUM_POSITIONS // 2), noise=NOISE,
            num_trials=num_trials, master_seed=k * len(CELLS) + i)
            for i, (kappa, dt) in enumerate(CELLS)]
        for cell, errs, spec in zip(cells, sweep_errors(specs), specs):
            cell.append((errs.bdr, errs.cls, spec.master_seed))
    hits = {"bootstrap": [], "delta": []}
    widths = {"bootstrap": [], "delta": []}
    for cell in cells:
        pooled = variance_ratio(np.concatenate([b for b, _, _ in cell]),
                                np.concatenate([c for _, c, _ in cell]))
        held = {"bootstrap": [], "delta": []}
        for bdr, cls, seed in cell:
            rep = variance_ratio(bdr, cls)
            cis = {"bootstrap": bootstrap_ci(bdr, cls, seed),
                   "delta": (rep.ci_low, rep.ci_high)}
            for rule, (lo, hi) in cis.items():
                held[rule].append(lo <= pooled.ratio_R <= hi)
                widths[rule].append((hi - lo) / 2 / rep.ratio_R)
        for rule in hits:
            hits[rule].append(np.mean(held[rule]))
    return {rule: (min(hits[rule]), max(hits[rule]),
                   float(np.median(widths[rule]))) for rule in hits}


def _counts(text: str) -> list:
    counts = [int(v) for v in text.split(",")]
    if any(n < 2 * BLOCK for n in counts):
        raise argparse.ArgumentTypeError(
            f"every trial count must be >= {2 * BLOCK} (two bootstrap blocks)")
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=400,
                    help="independent sweeps per trial count (K)")
    ap.add_argument("--trials", type=_counts, default=[100, 200, 1000],
                    help="comma list of trials per cell (default 100,200,1000)")
    args = ap.parse_args(argv)
    if args.seeds < 2:
        ap.error("--seeds must be >= 2")
    print("| trials per cell (blocks) | K | blocked bootstrap | delta method "
          "| median half-width, bootstrap / delta |")
    print("|---|---|---|---|---|")
    for n in args.trials:
        row = coverage_row(n, args.seeds)
        (blo, bhi, bw), (dlo, dhi, dw) = row["bootstrap"], row["delta"]
        print(f"| {n} ({n // BLOCK}) | {args.seeds} | {blo:.3f}-{bhi:.3f} "
              f"| {dlo:.3f}-{dhi:.3f} | {bw:.3f} / {dw:.3f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
