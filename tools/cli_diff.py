"""Check that two source trees give byte-identical CLI output.

    python3 tools/cli_diff.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository (it holds `src/bdrlab`). Every
command of COMMANDS runs in both trees as `python3 -m bdrlab.cli` with
PYTHONPATH=<tree>/src, once with `--format csv` and once with
`--format json`, writing to stdout. A dict in a command stands for a config
file: the tool writes it as JSON to a temporary directory and passes its
path, the same path to both trees. The tool prints each run whose exit
code, standard output bytes or standard error bytes differ between the
trees, naming which of the three differ, and exits 1 if any run differs and
0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = range(1, 6)
COMMANDS = [
    ["scaling", "--trials", "10000", "--seed", "1000"],
    ["scaling", "--trials", "2000", "--num-positions", "800", "--rho", "0.6",
     "--seed", "7"],
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
    # bad values, compared by exit code, the empty stdout and the error
    # message: a config value, a kappa below the kernel's range, one bad
    # value each for scaling, calib, flops and atr-sim, and an unknown
    # config key
    ["calib", "--config", {"bins": "ten", "seed": 3}],
    ["scaling", "--kappas", "1e-200,1", "--strides", "1,2", "--trials", "2000",
     "--seed", "1"],
    ["scaling", "--trials", "1", "--seed", "1"],
    ["calib", "--bins", "1", "--seed", "1"],
    ["flops", "--points", "0.5:2"],
    ["atr-sim", "--length", "1", "--seed", "1"],
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
    """The command with its dict, if any, written to path as JSON and
    replaced by the path."""
    argv = []
    for arg in command:
        if isinstance(arg, dict):
            path.write_text(json.dumps(arg), encoding="utf-8")
            arg = str(path)
        argv.append(arg)
    return argv


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "bdrlab").is_dir():
            ap.error(f"{tree} holds no src/bdrlab")
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        runs = [[*with_config_files(command, Path(tmp) / f"config{i}.json"),
                 "--format", fmt]
                for i, command in enumerate(COMMANDS) for fmt in FORMATS]
        for run in runs:
            parent, change = (run_cli(tree, run) for tree in
                              (args.parent, args.change))
            if parent != change:
                differ += 1
                which = [name for name, p, c in zip(STREAMS, parent, change)
                         if p != c]
                print(f"differs: {' '.join(run)} ({', '.join(which)}: exit "
                      f"{parent[0]} -> {change[0]}, stdout {len(parent[1])} "
                      f"-> {len(change[1])} bytes, stderr {len(parent[2])} "
                      f"-> {len(change[2])} bytes)")
    print(f"{len(runs) - differ} of {len(runs)} runs byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
