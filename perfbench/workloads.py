"""The four benchmark workloads and their correctness checks.

Each workload turns the run seed into a stream of per-call seeds, makes one
call into bdrlab's public entry points per `invoke()`, and checks the output
with tolerances derived from the statistics of the result, never from exact
output bits, so a valid reseeding of the program still passes. README.md
says why each workload exists and which layers it bypasses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bdrlab import cli, stats
from bdrlab.calib import CalibrationConfig
from bdrlab.stats import ExperimentSpec
from bdrlab.synth import NoiseSpec, TimeGrid

HERE = Path(__file__).resolve().parent
SWEEP_TRIALS_PER_CELL = 100
SWEEP_AXIS = (1, 2, 4, 8)  # both kappa and stride
SWEEP_TOLERANCE = 5.0  # allowed |R - R_ref| in combined CI half-widths
CLS_TRIALS = 1000
CLS_KAPPAS = (1.0, 2.0, 4.0, 8.0)
CLS_BAND = (0.7, 1.3)
LONG_TRIALS = 25
LONG_LENGTHS = (50, 100, 200, 400, 800)
LONG_RHO = 0.6
LONG_BAND = (-1.3, -0.7)
ATR_LENGTH = 250_000
CALIB_SAMPLES = 500_000
FLOPS_POINTS = "0.16:0.8,1:1"
# total_g of the analytic cost model at the default layer costs, worked by
# hand: 124 + (2 + 7*tau) * 12.33 * (0.6*k^2 + 0.4*k) + 5 + 0.12
FLOPS_EXPECTED = {(0.16, 0.8): 156.2025984, (1.0, 1.0): 240.09}
FLIP_REDUCTION = 0.7
CALIB_TOLERANCE = 0.005


@dataclass
class Outcome:
    """What one call produced: trials tried and usable, and any problems."""

    trials: int
    usable: int
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)  # for check_run and metrics

    @property
    def ok(self) -> bool:
        return not self.problems


def call_seeds(seed: int):
    """Endless stream of per-call master seeds, fixed by the run seed.

    Seeds leave room for the sweep's per-cell offsets (master_seed + cell).
    """
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(0, 2**31 - 64))


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def sweep_cells(payload: dict) -> list:
    """The per-cell records of a `scaling --format json` output."""
    return [r for r in payload["records"]
            if isinstance(r.get("kappa"), (int, float))]


def check_sweep_cells(cells, reference) -> list:
    """Problems in one sweep output (empty = ok): exactly the reference's
    cells, each with finite positive variances and ci_low <= R <= ci_high."""
    want = {(c["kappa"], c["stride"]) for c in reference}
    got = {(c["kappa"], c["stride"]) for c in cells}
    if len(cells) != len(want) or got != want:
        return [f"expected cells {sorted(want)}, got {sorted(got)}"]
    problems = []
    for c in cells:
        key = (c["kappa"], c["stride"])
        r, lo, hi = c["R"], c["ci_low"], c["ci_high"]
        if not (_finite(r, lo, hi, c["var_bdr"], c["var_cls"])
                and c["var_bdr"] > 0 and c["var_cls"] > 0):
            problems.append(f"cell {key}: non-finite or non-positive values")
        elif not lo <= r <= hi:
            problems.append(f"cell {key}: R={r} outside CI [{lo}, {hi}]")
    return problems


def check_pooled_sweep(outcomes, reference, tolerance=SWEEP_TOLERANCE) -> list:
    """Each cell's R, pooled over the run's good calls, against the reference.

    One 100-trial cell has heavy tails: of about 1000 cells, one lay 4.2
    combined CI half-widths from the reference. Pooling the calls'
    variances is the same estimator with n_calls times the trials; its
    half-width is taken as the calls' median half-width / sqrt(n_calls).
    """
    runs = [o.values["cells"] for o in outcomes if o.ok]
    if not runs:
        return ["no call produced cells"]
    problems = []
    for ref in reference:
        key = (ref["kappa"], ref["stride"])
        cells = [c for run in runs for c in run
                 if (c["kappa"], c["stride"]) == key]
        r = (np.mean([c["var_bdr"] for c in cells])
             / np.mean([c["var_cls"] for c in cells]))
        half = np.median([(c["ci_high"] - c["ci_low"]) / 2 for c in cells])
        allowed = tolerance * math.hypot(half / math.sqrt(len(cells)),
                                         (ref["ci_high"] - ref["ci_low"]) / 2)
        if not abs(r - ref["R"]) <= allowed:
            problems.append(f"cell {key}: pooled R={r:.4g} vs reference "
                            f"{ref['R']:.4g} (allowed {allowed:.3g})")
    return problems


def time_to_1pct(wall_s: float, cells) -> float:
    """Projected wall time for a +-1% answer: cost grows with (width / 1%)^2,
    width being the median over cells of the relative 95% CI half-width."""
    width = np.median([(c["ci_high"] - c["ci_low"]) / 2 / c["R"] for c in cells])
    return float(wall_s * (width / 0.01) ** 2)


def loglog_fit_slope(variances: dict) -> float:
    x = np.log(np.array(list(variances.keys()), dtype=float))
    y = np.log(np.array(list(variances.values()), dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def check_slope_output(result, expected_keys) -> list:
    """Problems in a (slope, {x: variance}) result of the stats checks."""
    slope, variances = result
    if not _finite(slope):
        return [f"slope is {slope!r}"]
    if sorted(variances) != sorted(float(k) for k in expected_keys):
        return [f"variances for {sorted(variances)}"]
    if not all(_finite(v) and v > 0 for v in variances.values()):
        return [f"non-positive or non-finite variance in {variances}"]
    return []


def check_pooled_slope(outcomes, band) -> list:
    """The slope of the variances pooled over every good call, within band.

    A single call's slope carries Monte-Carlo noise; the band is checked on
    the run's pooled answer, which has far less.
    """
    good = [o.values["variances"] for o in outcomes if o.ok]
    if not good:
        return ["no call produced variances"]
    pooled = {k: float(np.mean([v[k] for v in good])) for k in good[0]}
    slope = loglog_fit_slope(pooled)
    if not band[0] <= slope <= band[1]:
        return [f"pooled slope {slope:.4f} outside {band}"]
    return []


def check_flops(records) -> list:
    problems = []
    got = {(r["expected_tau"], r["keep_ratio"]): r for r in records}
    if set(got) != set(FLOPS_EXPECTED):
        return [f"flops rows {sorted(got)}"]
    for key, want in FLOPS_EXPECTED.items():
        r = got[key]
        parts = (r["backbone_g"] + r["shallow_g"] + r["deep_g"] + r["heads_g"]
                 + r["predictors_g"])
        if abs(r["total_g"] - want) > 1e-3 or abs(parts - r["total_g"]) > 1e-9:
            problems.append(f"flops {key}: total_g {r['total_g']} != {want}")
    return problems


def check_atr(records) -> list:
    rows = [r for r in records if r["mode"] == "hold_previous"]
    if len(rows) != 1:
        return ["no hold_previous row"]
    raw, stab = rows[0]["flip_rate_raw"], rows[0]["flip_rate_stabilized"]
    if not (_finite(raw, stab) and raw > 0 and stab <= FLIP_REDUCTION * raw):
        return [f"flip rate {stab} not <= {FLIP_REDUCTION} x raw {raw}"]
    return []


def calib_oracle() -> float:
    """r_ece when every sigma is reported twice too large: each bin's coverage
    is P(|Z| <= 2z) for the configured one-sigma quantile z."""
    z = CalibrationConfig().one_sigma_quantile
    return abs(math.erf(2 * z / math.sqrt(2)) - 0.68)


def check_calib(records) -> list:
    rows = [r for r in records if r["bin"] == "r_ece"]
    if len(rows) != 1 or not _finite(rows[0]["coverage"]):
        return ["no finite r_ece row"]
    value = rows[0]["coverage"]
    if abs(value - calib_oracle()) > CALIB_TOLERANCE:
        return [f"r_ece {value} vs oracle {calib_oracle()}"]
    return []


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Sweep:
    """The paper's 16-cell scaling sweep, through the CLI, in-process."""

    name = "sweep"
    trials_per_call = SWEEP_TRIALS_PER_CELL * len(SWEEP_AXIS) ** 2

    def __init__(self, seed: int, workdir: Path):
        self.seeds = call_seeds(seed)
        self.out = workdir / "sweep.json"
        self.reference = _read_json(HERE / "reference_sweep.json")["cells"]
        axis = ",".join(str(v) for v in SWEEP_AXIS)
        self.argv = ["scaling", "--kappas", axis, "--strides", axis,
                     "--num-positions", "200", "--noise-family", "laplace",
                     "--noise-scale", "0.5", "--trials",
                     str(SWEEP_TRIALS_PER_CELL), "--format", "json",
                     "--out", str(self.out)]

    def invoke(self):
        return cli.main(self.argv + ["--seed", str(next(self.seeds))])

    def check(self, rc, wall_s: float) -> Outcome:
        if rc != 0:
            return Outcome(self.trials_per_call, 0, [f"exit code {rc}"])
        cells = sweep_cells(_read_json(self.out))
        problems = check_sweep_cells(cells, self.reference)
        if problems:
            return Outcome(self.trials_per_call, 0, problems)
        failures = sum(c["failures"] for c in cells)
        return Outcome(self.trials_per_call, self.trials_per_call - failures,
                       values={"cells": cells,
                               "time_to_1pct_s": time_to_1pct(wall_s, cells)})

    def check_run(self, outcomes) -> list:
        return check_pooled_sweep(outcomes, self.reference)


class _SlopeWorkload:
    """A stats-layer check whose answer is a log-log variance slope."""

    keys: tuple
    band: tuple

    def __init__(self, seed: int, workdir: Path):
        self.seeds = call_seeds(seed)

    def check(self, result, wall_s: float) -> Outcome:
        problems = check_slope_output(result, self.keys)
        usable = 0 if problems else self.trials_per_call
        return Outcome(self.trials_per_call, usable, problems,
                       {"variances": result[1]})

    def check_run(self, outcomes) -> list:
        return check_pooled_slope(outcomes, self.band)


class ClsKappa(_SlopeWorkload):
    """Classification-peak variance against kappa: the per-trial Python path."""

    name = "cls_kappa"
    keys = CLS_KAPPAS
    band = CLS_BAND
    trials_per_call = CLS_TRIALS * len(CLS_KAPPAS)

    def invoke(self):
        base = ExperimentSpec(grid=TimeGrid(stride=1.0, num_positions=200),
                              kappa=1.0, boundary=100.0, noise=NoiseSpec(),
                              num_trials=CLS_TRIALS,
                              master_seed=next(self.seeds))
        return stats.cls_variance_kappa_slope(base, CLS_KAPPAS)


class LongAr1(_SlopeWorkload):
    """Pooled distance-fit variance against T under AR(1) noise: long rows."""

    name = "long_ar1"
    keys = LONG_LENGTHS
    band = LONG_BAND
    trials_per_call = LONG_TRIALS * len(LONG_LENGTHS)

    def invoke(self):
        base = ExperimentSpec(grid=TimeGrid(stride=1.0, num_positions=200),
                              kappa=4.0, boundary=100.0,
                              noise=NoiseSpec(rho=LONG_RHO),
                              num_trials=LONG_TRIALS,
                              master_seed=next(self.seeds))
        return stats.finite_sample_variance_check(base, LONG_LENGTHS)


class Toolkit:
    """atr-sim, calib and flops through the CLI; one trial is one CLI call."""

    name = "toolkit"
    trials_per_call = 3

    def __init__(self, seed: int, workdir: Path):
        self.seeds = call_seeds(seed)
        self.paths = {k: workdir / f"{k}.json" for k in ("atr", "calib", "flops")}

    def invoke(self):
        seed = str(next(self.seeds))
        common = ["--format", "json", "--seed", seed]
        return (
            cli.main(["atr-sim", "--length", str(ATR_LENGTH), *common,
                      "--out", str(self.paths["atr"])]),
            cli.main(["calib", "--scenario", "sigma_x2", "--samples",
                      str(CALIB_SAMPLES), *common,
                      "--out", str(self.paths["calib"])]),
            cli.main(["flops", "--points", FLOPS_POINTS, *common,
                      "--out", str(self.paths["flops"])]),
        )

    def check(self, rcs, wall_s: float) -> Outcome:
        if any(rc != 0 for rc in rcs):
            return Outcome(self.trials_per_call, 0, [f"exit codes {rcs}"])
        problems = []
        for key, check in (("atr", check_atr), ("calib", check_calib),
                           ("flops", check_flops)):
            problems += check(_read_json(self.paths[key])["records"])
        usable = 0 if problems else self.trials_per_call
        return Outcome(self.trials_per_call, usable, problems)

    def check_run(self, outcomes) -> list:
        return []


WORKLOADS = {w.name: w for w in (Sweep, ClsKappa, LongAr1, Toolkit)}

# Layers each workload bypasses by design: the traced run must find them
# idle, or the workload no longer isolates what it was built to isolate.
BYPASSED = {
    "sweep": ("cli.tau_scenario_s", "calib.samples"),
    "cls_kappa": ("estimators.fit_rows", "estimators.extract_calls",
                  "stats.bootstrap_resamples"),
    "long_ar1": ("synth.features_calls", "stats.bootstrap_resamples",
                 "estimators.peak_calls"),
    "toolkit": ("estimators.fit_rows", "stats.run_trials_calls"),
}
