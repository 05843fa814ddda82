"""Turn paired perfbench runs of a parent and a change into a BENCH_<n>.json.

    python3 tools/bench_record.py PARENT_DIR CHANGE_DIR --out BENCH_7.json \
        --what "one line on the change" [--claim sweep:wall_s]

PARENT_DIR and CHANGE_DIR each hold the `result-<workload>-seed<S>-trace0.json`
files that `perfbench/run.py --trace 0` wrote (its `perfbench/out/`), one
side each, run with the same seeds and --seconds. The record gives, per
workload and end-to-end metric, each side's median and quartiles over the
runs, `change_wins`, the number of seed pairs in which the change is
strictly better, and the metric's `bound` from BENCHMARK.json. Without
--claim the record's "claimed" is null.

When both directories also hold `result-<workload>-seed<S>-trace1.json`
files, the runs of `perfbench/run.py --trace 1`, the record's "traced" block
gives the same per workload and per-layer metric, paired by (workload,
seed); otherwise "traced" is null.

It refuses to write anything when a side mixes source hashes or holds a run
that is not correct, when a seed, traced or not, has no partner, when both
sides ran the same sources, or when the runs differ in machine or run length.
It prints, per workload and metric, whether the change's median is within
the bound of the parent's, and whether the claim, if one is made, holds by
the benchmark's rule: the change wins at least nine tenths of the pairs, and
the medians differ by more than the parent's quartile spread. Each
end-to-end metric is flagged "unresolved" in the record when the parent's
quartile spread, over the parent's median, is wider than the bound, unless
every change run beats every parent run: such runs cannot tell a change
within the bound from none, so it is printed as unresolved, not within.
Traced metrics are printed with their medians and wins; they have no bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("nproc", "python", "numpy", "platform")
PROTOCOL = "parent and change alternated per seed, first side swapped each pair"


class RecordError(Exception):
    """The runs cannot make one honest record."""


def load_side(directory: Path, side: str, trace: int = 0) -> dict:
    """{(workload, seed): run} of one side's results of `--trace <trace>`.
    Untraced results must exist; traced ones may not, giving {}."""
    runs = {}
    for path in sorted(directory.glob(f"result-*-trace{trace}.json")):
        run = json.loads(path.read_text(encoding="utf-8"))
        if not run["result"]["correct"]:
            raise RecordError(f"{side}: {path.name} is not correct")
        runs[run["workload"], run["machine"]["seed"]] = run
    if not runs and not trace:
        raise RecordError(f"{side}: no result-*-trace0.json in {directory}")
    hashes = {r["machine"]["source_sha256"] for r in runs.values()}
    if len(hashes) > 1:
        raise RecordError(f"{side}: runs of several sources {sorted(hashes)}")
    return runs


def one_value(runs, key, what: str):
    values = {json.dumps(key(r), sort_keys=True) for r in runs}
    if len(values) != 1:
        raise RecordError(f"runs differ in {what}: {sorted(values)}")
    return key(runs[0])


def quartiles(values) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(parent: dict, change: dict, metric_spec: dict, order) -> dict:
    """Per workload, the paired seeds and, per metric of `metric_spec`, each
    side's median and quartiles and the pairs the change wins."""
    if set(parent) != set(change):
        raise RecordError("unpaired runs (workload, seed): "
                          f"{sorted(set(parent) ^ set(change))}")
    workloads = {}
    for name in sorted({w for w, _ in parent}, key=order.index):
        seeds = sorted(s for w, s in parent if w == name)
        pairs = [(parent[name, s], change[name, s]) for s in seeds]
        metrics = {}
        for metric, m in metric_spec.items():
            sense = m["better"]
            values = [(p["result"]["metrics"][metric]["value"],
                       c["result"]["metrics"][metric]["value"])
                      for p, c in pairs]
            sign = 1.0 if sense == "lower" else -1.0
            parent_q = quartiles([p for p, _ in values])
            metrics[metric] = {
                "unit": pairs[0][0]["result"]["metrics"][metric]["unit"],
                "better": sense,
                **({"bound": m["bound"]} if "bound" in m else {}),
                "parent": parent_q,
                "change": quartiles([c for _, c in values]),
                "change_wins": sum(sign * (c - p) < 0 for p, c in values)}
            if "bound" in m:
                beats_all = (max(sign * c for _, c in values)
                             < min(sign * p for p, _ in values))
                spread = parent_q["q3"] - parent_q["q1"]
                metrics[metric]["unresolved"] = (
                    spread > m["bound"] * parent_q["median"]
                    and not beats_all)
        workloads[name] = {"seeds": seeds, "pairs": len(seeds),
                           "all_correct": True, "metrics": metrics}
    return workloads


def build(parent: dict, change: dict, what: str, claim, traced) -> dict:
    """The record of paired runs; `claim` is (workload, metric) or None,
    `traced` the two sides' traced runs, each {} when there are none."""
    first = next(iter(parent.values()))["machine"]
    last = next(iter(change.values()))["machine"]
    if first["source_sha256"] == last["source_sha256"]:
        raise RecordError("parent and change ran the same sources")
    for side, runs, machine in zip(("parent", "change"), traced, (first, last)):
        hashes = {r["machine"]["source_sha256"] for r in runs.values()}
        if hashes - {machine["source_sha256"]}:
            raise RecordError(f"{side}: traced runs of other sources "
                              f"{sorted(hashes)}")
    runs = [*parent.values(), *change.values(), *traced[0].values(),
            *traced[1].values()]
    machine = one_value(runs, lambda r: {k: r["machine"][k]
                                         for k in MACHINE_KEYS}, "machine")
    seconds = one_value(runs, lambda r: r["seconds"], "--seconds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    order = [w["name"] for w in spec["workloads"]]
    workloads = summarise(parent, change,
                          {m["name"]: m for m in spec["end_to_end"]}, order)
    if claim is not None:
        workload, metric = claim
        if metric not in workloads.get(workload, {}).get("metrics", {}):
            raise RecordError(f"no runs for the claimed {workload} {metric}")
        claim = {"workload": workload, "metric": metric}
    command = ("python3 perfbench/run.py --workload W --seed S "
               f"--seconds {seconds:g} --trace")
    return {
        "what": what,
        "parent_commit": first.get("git_commit"),
        "command": f"{command} 0",
        "protocol": PROTOCOL,
        "claimed": claim,
        "machine": machine,
        "source_sha256": {
            "parent": first["source_sha256"],
            "change": last["source_sha256"]},
        "workloads": workloads,
        "traced": {
            "command": f"{command} 1",
            "workloads": summarise(*traced, {m["name"]: m for m in
                                             spec["per_layer"]}, order),
        } if traced[0] or traced[1] else None,
    }


def claim_holds(record: dict) -> bool:
    """The benchmark's rule for a claimed gain, on the record's numbers."""
    claim = record["claimed"]
    w = record["workloads"][claim["workload"]]
    m = w["metrics"][claim["metric"]]
    spread = m["parent"]["q3"] - m["parent"]["q1"]
    gain = m["parent"]["median"] - m["change"]["median"]
    if m["better"] == "higher":
        gain = -gain
    return m["change_wins"] >= 0.9 * w["pairs"] and gain > spread


def within_bound(m: dict) -> bool:
    """The change's median is no worse than the parent's by more than the
    metric's relative bound."""
    parent, change = m["parent"]["median"], m["change"]["median"]
    if m["better"] == "lower":
        return change <= parent * (1 + m["bound"])
    return change >= parent * (1 - m["bound"])


def verdict(m: dict) -> str:
    """How the change's median of an end-to-end metric stands to its bound."""
    if not within_bound(m):
        return "WORSE than bound"
    if m["unresolved"]:
        return "unresolved: parent quartile spread wider than bound"
    return "within bound"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--what", required=True)
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC")
    args = ap.parse_args(argv)
    claim = tuple(args.claim.partition(":")[::2]) if args.claim else None
    try:
        record = build(load_side(args.parent, "parent"),
                       load_side(args.change, "change"), args.what, claim,
                       (load_side(args.parent, "parent", trace=1),
                        load_side(args.change, "change", trace=1)))
    except RecordError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, w in record["workloads"].items():
        for metric_name, m in w["metrics"].items():
            print(f"{name} {metric_name}: parent {m['parent']['median']:.6g} "
                  f"change {m['change']['median']:.6g} {m['unit']} "
                  f"(change wins {m['change_wins']}/{w['pairs']}; "
                  f"{verdict(m)} {m['bound']:g})")
    traced = record["traced"]["workloads"] if record["traced"] else {}
    for name, w in traced.items():
        for metric_name, m in w["metrics"].items():
            print(f"traced {name} {metric_name}: parent "
                  f"{m['parent']['median']:.6g} change "
                  f"{m['change']['median']:.6g} {m['unit']} "
                  f"(change wins {m['change_wins']}/{w['pairs']})")
    if claim is not None:
        print(f"claim {args.claim}: "
              f"{'holds' if claim_holds(record) else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
