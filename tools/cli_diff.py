"""Check that two source trees give the same CLI output.

    python3 tools/cli_diff.py PARENT_TREE CHANGE_TREE [--rtol R]

Each tree is a checkout of this repository (it holds `src/bdrlab`). Every
command of COMMANDS runs in both trees as `python3 -m bdrlab.cli` with
PYTHONPATH=<tree>/src, once with `--format csv` and once with
`--format json`, writing to stdout. A dict in a command stands for a config
file and a CsvFile for an input file: the tool writes the dict as JSON, or
the CsvFile's text, to a temporary directory and passes its path, the same
path to both trees. The tool prints each run whose exit
code, standard output bytes or standard error bytes differ between the
trees, naming which of the three differ, and exits 1 if any run differs and
0 otherwise.

With --rtol R, a run whose exit code and standard error match but whose
standard output bytes differ is compared by value: both outputs are parsed,
as JSON or as CSV, and the tool prints the largest relative difference
between their floats and every other field that differs. The run passes
when every float is within R of its partner and every other field, integers
and strings included, is equal. A CSV float is printed to a few digits, so
its relative difference counts only what is left of the gap between the two
printed values after half a unit in each one's last digit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from decimal import Decimal
from pathlib import Path
from typing import NamedTuple

class CsvFile(NamedTuple):
    """An input file of a command, written as its text."""

    text: str


def tied_run_csv() -> CsvFile:
    """70 000 error,sigma rows for `calib --input`. Rows 30 000-35 999
    share sigma 1.5, a run of equal sigma^2 that crosses index 32 768 =
    2^15, where a block of r_ece's key ends, and at the default 10 bins the
    bin edge at rank 35 000. The other sigmas, in [1, 2), repeat every
    10 007 rows, so short tie runs cross other edges too."""
    rows = ["error,sigma"]
    for i in range(70_000):
        sigma = 1.5 if 30_000 <= i < 36_000 else 1 + i * 7919 % 10_007 / 10_007
        error = (i * 104_729 % 2001 - 1000) / 400
        rows.append(f"{error!r},{sigma!r}")
    return CsvFile("\n".join(rows) + "\n")


SEEDS = range(1, 6)
COMMANDS = [
    ["scaling", "--trials", "10000", "--seed", "1000"],
    ["scaling", "--trials", "2000", "--num-positions", "800", "--rho", "0.6",
     "--seed", "7"],
    # long rows, whose values reach 5000 strides: a float32 fit of the values
    # themselves would drift by 0.06 frames here
    ["scaling", "--num-positions", "10000", "--trials", "20", "--seed", "3"],
    # small sweeps, where the CIs are widest: the benchmark's 100 trials
    # per cell, and 150
    ["scaling", "--trials", "100", "--seed", "3"],
    ["scaling", "--trials", "150", "--seed", "4"],
    # fractional and non-power-of-two strides: every truth is
    # (boundary + phase) * dt with the boundary in grid positions, and
    # (30 * 0.7) / 0.7 != 30, so these sweeps move if a boundary passes
    # through frames; the second has an odd T and a first stride of 1.1
    ["scaling", "--kappas", "0.75,1.5,3", "--strides", "0.7,1.5,3",
     "--trials", "400", "--num-positions", "60", "--seed", "9"],
    ["scaling", "--kappas", "0.75,1.5,3", "--strides", "1.1,0.7,3",
     "--trials", "400", "--num-positions", "61", "--seed", "9"],
    # a stride so small that the peak readout's smoothing width is capped at
    # the whole row
    ["scaling", "--kappas", "1,2", "--strides", "1e-3,1", "--trials", "400",
     "--num-positions", "60", "--seed", "2"],
    # sweeps whose kappa <= dt/2 cells search one sample per truth and draw
    # no classification noise: every cell, at non-power-of-two strides, and
    # cells whose kappa is exactly dt/2 beside cells that draw
    ["scaling", "--kappas", "0.1,0.3", "--strides", "0.7,3", "--trials",
     "400", "--num-positions", "60", "--seed", "5"],
    ["scaling", "--kappas", "0.35,1,3", "--strides", "0.7,2", "--trials",
     "400", "--num-positions", "60", "--seed", "6"],
    # heavy tails: many fitted rows hold two or more crossings before
    # suppression and some none, so NaN distance errors enter every
    # cell's report
    ["scaling", "--noise-family", "student_t", "--nu", "1.2",
     "--noise-scale", "1.0", "--trials", "2010", "--seed", "11"],
    *(["atr-sim", "--length", "250000", "--seed", str(s)] for s in SEEDS),
    *(["calib", "--scenario", "sigma_x2", "--samples", "500000",
       "--seed", str(s)] for s in SEEDS),
    ["flops", "--points", "0.16:0.8,1:1"],
    ["synth", "--series", "noisy", "--seed", "4", "--rho", "0.5"],
    ["synth", "--series", "features"],
    # each subcommand with its flags in a config file; "-5,30" must stay a
    # value, not read as an option
    ["scaling", "--config", {"kappas": "0.75,1.5,3", "strides": "0.7,1.5,3",
                             "trials": 400, "num_positions": 60, "rho": 0.6,
                             "gate": True, "seed": 9}],
    ["atr-sim", "--config", {"length": 250000, "trace_rho": 0.5,
                             "gain": 0.3, "gamma": 0.1, "seed": 1}],
    ["calib", "--config", {"scenario": "sigma_x2", "samples": 100000,
                           "bins": 12, "seed": 2}],
    ["flops", "--config", {"points": "0.16:0.8,1:1"}],
    ["synth", "--config", {"series": "noisy", "boundaries": "-5,30",
                           "noise_family": "student_t", "seed": 4}],
    # a command-line flag beats the file's value
    ["calib", "--config", {"samples": 100000, "bins": 5, "seed": 3},
     "--bins", "7"],
    # lengths at the edges of the 2^15-value blocks the long passes of calib
    # and atr-sim run in, and a tie run across a block and a bin edge
    ["calib", "--input", tied_run_csv()],
    ["calib", "--scenario", "well_calibrated", "--samples", "32769",
     "--bins", "7", "--seed", "5"],
    ["atr-sim", "--length", "98305", "--gain", "0.7", "--gamma", "0.2",
     "--seed", "2"],
    # a saturated logistic: exp overflows, and the trace holds exact 0s
    ["atr-sim", "--gain", "1000", "--length", "1000", "--seed", "1"],
    # bad values, compared by exit code, the empty stdout and the error
    # message: a config value, a kappa below and one above the kernel's
    # range, a subnormal dt^2/kappa, a cell whose variance is subnormal
    # although every dt^2/kappa is normal, one bad value each for scaling,
    # calib, flops and atr-sim, noise beyond the fitter's range, synth
    # output that overflows, and an unknown config key
    ["calib", "--config", {"bins": "ten", "seed": 3}],
    ["scaling", "--kappas", "1e-200,1", "--strides", "1,2", "--trials", "2000",
     "--seed", "1"],
    ["scaling", "--kappas", "1e200,1", "--strides", "1,2", "--trials", "20",
     "--num-positions", "60", "--seed", "1"],
    ["scaling", "--strides", "1e-160,1", "--kappas", "1,2", "--trials", "200",
     "--num-positions", "60", "--seed", "1"],
    ["scaling", "--kappas", "0.001,0.01", "--strides", "1e-154,1",
     "--trials", "200", "--num-positions", "60", "--seed", "1"],
    ["scaling", "--trials", "1", "--seed", "1"],
    ["calib", "--bins", "1", "--seed", "1"],
    ["flops", "--points", "0.5:2"],
    ["atr-sim", "--length", "1", "--seed", "1"],
    ["scaling", "--trials", "50", "--seed", "1", "--noise-scale", "1e39"],
    # synth times and values that overflow although every flag is finite
    ["synth", "--series", "noisy", "--seed", "1", "--num-positions", "4",
     "--noise-scale", "1e308"],
    ["synth", "--series", "distance", "--num-positions", "4", "--stride",
     "1e308"],
    ["calib", "--config", {"bins": 12, "colour": "red", "seed": 1}],
]
FORMATS = ("csv", "json")
# what run_cli returns, in order
STREAMS = ("exit code", "stdout", "stderr")


def run_cli(tree: Path, argv: list) -> tuple:
    """(exit code, stdout bytes, stderr bytes) of the tree's CLI on argv."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "bdrlab.cli", *argv],
                          cwd=tree, env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def with_config_files(command: list, path: Path) -> list:
    """The command with its dict, if any, written to path as JSON and its
    CsvFile, if any, written to path with the suffix .csv, each replaced by
    its file's path."""
    argv = []
    for arg in command:
        if isinstance(arg, dict):
            path.write_text(json.dumps(arg), encoding="utf-8")
            arg = str(path)
        elif isinstance(arg, CsvFile):
            csv_path = path.with_suffix(".csv")
            csv_path.write_text(arg.text, encoding="utf-8")
            arg = str(csv_path)
        argv.append(arg)
    return argv


class Printed(NamedTuple):
    """A float read from an output: its value, and one unit in the last
    digit printed (0 for JSON, which prints every float in full)."""

    value: float
    unit: float


def _csv_cell(cell: str):
    """An int, a Printed float or the string itself."""
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        value = float(cell)
    except ValueError:
        return cell
    exponent = Decimal(cell).as_tuple().exponent
    return Printed(value, 10.0 ** exponent if math.isfinite(value) else 0.0)


def parse_output(stdout: bytes, fmt: str):
    """A run's standard output as JSON, or as CSV rows of cells, every float
    a Printed."""
    text = stdout.decode("utf-8")
    if fmt == "json":
        full = lambda s: Printed(float(s), 0.0)
        return json.loads(text, parse_float=full, parse_constant=full)
    return [[_csv_cell(cell) for cell in row]
            for row in csv.reader(io.StringIO(text))]


def relative_difference(a: Printed, b: Printed) -> float:
    """|a - b| less half a printed unit of each, over the larger magnitude;
    0 for equal values or two NaNs, inf where only one is finite."""
    if a.value == b.value or (math.isnan(a.value) and math.isnan(b.value)):
        return 0.0
    if not (math.isfinite(a.value) and math.isfinite(b.value)):
        return math.inf
    gap = abs(a.value - b.value) - (a.unit + b.unit) / 2
    return max(gap, 0.0) / max(abs(a.value), abs(b.value))


def compare(parent, change, where: str = "output") -> tuple:
    """(largest relative difference between the floats of two parsed
    outputs, every other difference as a "where: parent -> change" line)."""
    if isinstance(parent, Printed) and isinstance(change, Printed):
        return relative_difference(parent, change), []
    if (isinstance(parent, dict) and isinstance(change, dict)
            and parent.keys() == change.keys()):
        pairs = [(f"{where}.{k}", parent[k], change[k]) for k in parent]
    elif (isinstance(parent, list) and isinstance(change, list)
            and len(parent) == len(change)):
        pairs = [(f"{where}[{i}]", p, c)
                 for i, (p, c) in enumerate(zip(parent, change))]
    elif type(parent) is type(change) and parent == change:
        return 0.0, []
    else:
        return 0.0, [f"{where}: {parent!r} -> {change!r}"]
    worst, other = 0.0, []
    for at, p, c in pairs:
        diff, lines = compare(p, c, at)
        worst, other = max(worst, diff), other + lines
    return worst, other


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--rtol", type=float, default=None,
                    help="compare differing outputs by value: floats within "
                         "this relative difference, every other field equal")
    args = ap.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "bdrlab").is_dir():
            ap.error(f"{tree} holds no src/bdrlab")
    differ = close = 0
    with tempfile.TemporaryDirectory() as tmp:
        runs = [[*with_config_files(command, Path(tmp) / f"config{i}.json"),
                 "--format", fmt]
                for i, command in enumerate(COMMANDS) for fmt in FORMATS]
        for run in runs:
            parent, change = (run_cli(tree, run) for tree in
                              (args.parent, args.change))
            if parent == change:
                continue
            which = [name for name, p, c in zip(STREAMS, parent, change)
                     if p != c]
            if args.rtol is None or which != ["stdout"]:
                differ += 1
                print(f"differs: {' '.join(run)} ({', '.join(which)}: exit "
                      f"{parent[0]} -> {change[0]}, stdout {len(parent[1])} "
                      f"-> {len(change[1])} bytes, stderr {len(parent[2])} "
                      f"-> {len(change[2])} bytes)")
                continue
            try:
                worst, other = compare(*(parse_output(side[1], run[-1])
                                         for side in (parent, change)))
            except ValueError as exc:  # JSON and Unicode errors among them
                worst, other = 0.0, [f"output does not parse: {exc}"]
            if worst <= args.rtol and not other:
                close += 1
                print(f"within --rtol: {' '.join(run)} (largest relative "
                      f"difference {worst:.2g})")
                continue
            differ += 1
            print(f"differs: {' '.join(run)} (largest relative difference "
                  f"{worst:.2g}, {len(other)} other fields differ)")
            for line in other:
                print(f"  {line}")
    same = len(runs) - differ - close
    summary = f"{same} of {len(runs)} runs byte-identical"
    if args.rtol is not None:
        summary += f", {close} more within --rtol {args.rtol:g}"
    print(summary)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
