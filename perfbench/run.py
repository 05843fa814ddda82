"""bdrlab benchmark: one workload in a closed loop, checked, with metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the repository root. One caller makes one call into bdrlab's public
entry points at a time, the next only after the previous returns, until
--seconds have passed; every call's output is checked. --trace 0 prints the
end-to-end metrics named in BENCHMARK.json. --trace 1 alternates untraced
calls with calls traced by perfbench/tracing.py, writes the spans to
perfbench/out/ and prints the per-layer metrics computed from that file. The
last line of stdout is the JSON result; perfbench/out/ also keeps it, with
the machine it ran on.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 10  # spread over the run, so a slow spell of the machine
# shifts a few of them rather than all


def use_sources():
    """Import bdrlab from the checkout's src/, the code under test."""
    src = ROOT / "src"
    if not (src / "bdrlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bdrlab sources under {src}")
    sys.path[:0] = [str(ROOT), str(src)]


def metric_units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def probe_setup(workload: str, seed: int):
    """(wall, cpu) seconds from spawning a fresh interpreter until it has
    imported numpy and bdrlab and built the workload's inputs, ready for its
    first call. cpu is the child's own CPU time, all threads, up to then."""
    start = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    ready, cpu = (float(x) for x in proc.stdout.split()[-2:])
    return ready - start, cpu


CALIBRATION_ROUNDS = 400_000
CALIBRATION_WARMUP = 3
CALIBRATION_SHARE = 0.05
# A typical time of calibrate() on the 2-core VM of the README's baseline:
# timings are reported as if the machine always ran at this speed.
CALIBRATION_NOMINAL_S = 0.030


def calibrate(after_s: float = 0.0):
    """(wall, cpu) seconds of a fixed pure-Python loop that touches no bdrlab
    code: a probe of how fast the machine is running right now.

    The loop is repeated until the repeats add up to CALIBRATION_SHARE of
    `after_s`, the measurement just taken, and their mean is returned: a
    long call averages the machine's speed over seconds, and so must its
    calibration.
    """
    runs = []
    while not runs or sum(w for w, _ in runs) < CALIBRATION_SHARE * after_s:
        cpu0, t0 = time.process_time(), time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_ROUNDS):
            acc += i * i
        runs.append((time.perf_counter() - t0, time.process_time() - cpu0))
    return tuple(sum(x) / len(runs) for x in zip(*runs))


@dataclass
class Sample:
    traced: bool
    wall_s: float
    cpu_s: float
    outcome: object
    # calibrate() times around the call, averaged over the one before and
    # the one after
    cal_wall_s: float = CALIBRATION_NOMINAL_S
    cal_cpu_s: float = CALIBRATION_NOMINAL_S

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * CALIBRATION_NOMINAL_S / self.cal_wall_s

    @property
    def scaled_cpu_s(self) -> float:
        return self.cpu_s * CALIBRATION_NOMINAL_S / self.cal_cpu_s


def measure(wl, seconds: float, recorder=None, probe=None):
    """Closed loop for `seconds`. With a recorder, every second call is
    traced. With a probe, set-up is timed before the first call and then
    between calls, about SETUP_PROBES times in all. calibrate() runs
    before the first call and after each call and probe.

    Returns the per-call samples and the set-up samples (the probe's wall
    and CPU time; no outcome).
    """
    from perfbench.workloads import Outcome
    samples, setup = [], []
    for _ in range(CALIBRATION_WARMUP):
        cal = calibrate()
    start = time.perf_counter()
    deadline = start + seconds
    min_calls = 2 if recorder else 1
    while len(samples) < min_calls or time.perf_counter() < deadline:
        if probe and time.perf_counter() >= start + len(setup) * (
                seconds / SETUP_PROBES):
            wall, cpu = probe()
            after = calibrate(wall)
            setup.append(Sample(False, wall, cpu, None,
                                (cal[0] + after[0]) / 2, (cal[1] + after[1]) / 2))
            cal = after
        traced = recorder is not None and len(samples) % 2 == 1
        if traced:
            recorder.call = len(samples)
        with recorder.installed() if traced else nullcontext():
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                result = wl.invoke()
                raised = None
            except Exception as exc:  # a raising call is a failed call
                raised = exc
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        after = calibrate(wall)
        if raised is not None:
            traceback.print_exception(raised, file=sys.stderr)
            outcome = Outcome(wl.trials_per_call, 0, [repr(raised)])
        else:
            try:
                outcome = wl.check(result, wall)
            except (KeyError, TypeError, ValueError, OSError) as exc:
                outcome = Outcome(wl.trials_per_call, 0,
                                  [f"unreadable output: {exc!r}"])
        for problem in outcome.problems:
            print(f"call {len(samples)}: {problem}", file=sys.stderr)
        samples.append(Sample(traced, wall, cpu, outcome,
                              (cal[0] + after[0]) / 2, (cal[1] + after[1]) / 2))
        cal = after
    return samples, setup


def end_to_end(samples, setup, trials_per_call) -> dict:
    """Medians of the calls' and probes' times, each scaled to the nominal
    machine speed by the calibrate() runs around it.

    On a shared host other tenants slow the whole machine for spells of
    seconds to minutes, which moves every timing of a run together. Over
    five 25 s cls_kappa runs, the runs' median call time had a quartile
    spread of 0.24 and its ratio to the calibration loop 0.05. Set-up is
    the probe's CPU time: its wall time also waits on the other core and
    the disk, and drifted by 40% over minutes in which the scaled CPU time
    drifted by 12%.
    """
    wall = statistics.median(s.scaled_wall_s for s in samples)
    trials = sum(s.outcome.trials for s in samples)
    return {
        "setup_s": statistics.median(s.scaled_cpu_s for s in setup),
        "wall_s": wall,
        "trials_per_s": trials_per_call / wall,
        "cpu_s": statistics.median(s.scaled_cpu_s for s in samples),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "success_rate": sum(s.outcome.usable for s in samples) / trials,
    }


def per_layer(samples, spans) -> dict:
    from perfbench import tracing
    per_call = tracing.per_call_metrics(spans)
    metrics = {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}
    plain = [s for s in samples if not s.traced]
    traced = [s for s in samples if s.traced]
    metrics["stats.cpu_per_wall"] = statistics.median(
        s.cpu_s / s.wall_s for s in plain)
    metrics["trace.overhead_ratio"] = (
        statistics.median(s.scaled_wall_s for s in traced)
        / statistics.median(s.scaled_wall_s for s in plain))
    ttp = [s.outcome.values["time_to_1pct_s"] for s in plain
           if "time_to_1pct_s" in s.outcome.values]
    metrics["e2e.time_to_1pct_s"] = statistics.median(ttp) if ttp else 0.0
    return metrics


def layer_problems(workload: str, metrics: dict) -> list:
    """Layers the workload bypasses by design that did work anyway."""
    from perfbench.workloads import BYPASSED
    return [f"{k} = {metrics[k]}, expected 0" for k in BYPASSED[workload]
            if metrics[k] != 0]


def git_commit():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine(seed: int) -> dict:
    import numpy
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bdrlab").glob("*.py")):
        sources.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "BDRLAB_THREADS": os.environ.get("BDRLAB_THREADS"),
            "seed": seed, "git_commit": git_commit(),
            "source_sha256": sources.hexdigest()[:16],
            "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    use_sources()
    from perfbench import tracing, workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        if args.setup_probe:
            print(repr(time.time()), repr(time.process_time()))
            return 0
        units = metric_units("per_layer" if args.trace else "end_to_end")
        recorder = probe = None
        if args.trace:
            recorder = tracing.Recorder()
        else:
            probe = functools.partial(probe_setup, args.workload, args.seed)
        samples, setup = measure(wl, args.seconds, recorder, probe)

    problems = wl.check_run([s.outcome for s in samples])
    if problems:
        for s in samples:
            s.outcome.usable = 0
            s.outcome.problems += problems
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        recorder.write(spans_path)
        metrics = per_layer(samples, tracing.read_spans(spans_path))
        problems += layer_problems(args.workload, metrics)
    else:
        metrics = end_to_end(samples, setup, wl.trials_per_call)
    for problem in problems:
        print(f"run: {problem}", file=sys.stderr)
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))}"
                         " differ from BENCHMARK.json")

    failed = sum(not s.outcome.ok for s in samples)
    result = {"correct": not problems and failed == 0,
              "attempted": len(samples), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "machine": machine(args.seed),
              "calls": [{"traced": s.traced, "wall_s": s.wall_s,
                         "cpu_s": s.cpu_s, "cal_wall_s": s.cal_wall_s,
                         "cal_cpu_s": s.cal_cpu_s,
                         "problems": s.outcome.problems} for s in samples],
              "setup": [{"wall_s": s.wall_s, "cpu_s": s.cpu_s,
                         "cal_wall_s": s.cal_wall_s, "cal_cpu_s": s.cal_cpu_s}
                        for s in setup],
              "result": result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name in units:
        print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]}")
    if not args.trace:
        med = statistics.median
        print(f"{args.workload} unscaled medians: wall_s "
              f"{med(s.wall_s for s in samples):.6g} cpu_s "
              f"{med(s.cpu_s for s in samples):.6g} setup wall "
              f"{med(s.wall_s for s in setup):.6g} setup cpu "
              f"{med(s.cpu_s for s in setup):.6g} calibrate "
              f"{med(s.cal_wall_s for s in samples):.6g} (nominal "
              f"{CALIBRATION_NOMINAL_S})")
    print("machine " + json.dumps(record["machine"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
