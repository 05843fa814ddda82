"""Check that two source trees give byte-identical CLI output.

    python3 tools/cli_diff.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository (it holds `src/bdrlab`). Every
command of COMMANDS runs in both trees as `python3 -m bdrlab.cli` with
PYTHONPATH=<tree>/src, once with `--format csv` and once with
`--format json`, writing to stdout. The tool prints each run whose exit code
or output bytes differ between the trees, and exits 1 if any differ and 0
otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

SEEDS = range(1, 6)
COMMANDS = [
    ["scaling", "--trials", "10000", "--seed", "1000"],
    ["scaling", "--trials", "2000", "--num-positions", "800", "--rho", "0.6",
     "--seed", "7"],
    # fractional and non-power-of-two strides: the shared stride-1 truths
    # are exact only when built from num_positions // 2, as
    # (30 * 0.7) / 0.7 != 30, so this sweep moves if they are not
    ["scaling", "--kappas", "0.75,1.5,3", "--strides", "0.7,1.5,3",
     "--trials", "400", "--num-positions", "60", "--seed", "9"],
    # heavy tails: many fitted rows hold two or more crossings before
    # suppression and some none, and 2010 trials end in a partial
    # bootstrap block
    ["scaling", "--noise-family", "student_t", "--nu", "1.2",
     "--noise-scale", "1.0", "--trials", "2010", "--seed", "11"],
    *(["atr-sim", "--length", "250000", "--seed", str(s)] for s in SEEDS),
    *(["calib", "--scenario", "sigma_x2", "--samples", "500000",
       "--seed", str(s)] for s in SEEDS),
    ["flops", "--points", "0.16:0.8,1:1"],
    ["synth", "--series", "noisy", "--seed", "4", "--rho", "0.5"],
    ["synth", "--series", "features"],
]
FORMATS = ("csv", "json")


def run_cli(tree: Path, argv: list) -> tuple:
    """(exit code, stdout bytes) of the tree's CLI on argv."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "bdrlab.cli", *argv],
                          cwd=tree, env=env, capture_output=True)
    return proc.returncode, proc.stdout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "bdrlab").is_dir():
            ap.error(f"{tree} holds no src/bdrlab")
    differ = 0
    runs = [[*command, "--format", fmt]
            for command in COMMANDS for fmt in FORMATS]
    for run in runs:
        (p_code, p_out), (c_code, c_out) = (run_cli(tree, run) for tree in
                                            (args.parent, args.change))
        if (p_code, p_out) != (c_code, c_out):
            differ += 1
            print(f"differs: {' '.join(run)} (exit {p_code} -> {c_code}, "
                  f"{len(p_out)} -> {len(c_out)} bytes)")
    print(f"{len(runs) - differ} of {len(runs)} runs byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
