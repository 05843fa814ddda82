"""tools/bench_record.py on synthetic perfbench result files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

SPEC = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())
METRICS = SPEC["end_to_end"]


def write_run(directory: Path, seed: int, sha: str, wall_s: float,
              workload: str = "sweep", correct: bool = True, trace: int = 0):
    """One `result-*-trace<trace>.json` whose metrics all read 1 except the
    first, wall_s untraced and cli.self_s traced, which reads `wall_s`."""
    directory.mkdir(exist_ok=True)
    metrics = SPEC["per_layer" if trace else "end_to_end"]
    values = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in metrics}
    values["cli.self_s" if trace else "wall_s"]["value"] = wall_s
    run = {"workload": workload, "trace": trace, "seconds": 25.0,
           "machine": {"nproc": 2, "python": "3.11", "numpy": "2.4",
                       "platform": "linux", "seed": seed,
                       "git_commit": "abc", "source_sha256": sha},
           "result": {"correct": correct, "metrics": values}}
    path = directory / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(run))


def sides(tmp_path, parent_wall, change_wall):
    """Paired parent and change directories, seed i on both sides."""
    for seed, (p, c) in enumerate(zip(parent_wall, change_wall)):
        write_run(tmp_path / "parent", seed, "p0", p)
        write_run(tmp_path / "change", seed, "c0", c)
    return tmp_path / "parent", tmp_path / "change"


def record(parent, change, claim=("sweep", "wall_s")):
    return bench_record.build(bench_record.load_side(parent, "parent"),
                              bench_record.load_side(change, "change"),
                              "test", claim,
                              (bench_record.load_side(parent, "parent", 1),
                               bench_record.load_side(change, "change", 1)))


def test_refuses_mixed_source_hashes(tmp_path):
    write_run(tmp_path, 1, "a", 1.0)
    write_run(tmp_path, 2, "b", 1.0)
    with pytest.raises(bench_record.RecordError, match="several sources"):
        bench_record.load_side(tmp_path, "parent")


def test_refuses_an_incorrect_run(tmp_path):
    write_run(tmp_path, 1, "a", 1.0, correct=False)
    with pytest.raises(bench_record.RecordError, match="not correct"):
        bench_record.load_side(tmp_path, "parent")


def test_refuses_an_unpaired_seed(tmp_path):
    parent, change = sides(tmp_path, [1.0, 1.0], [1.0, 1.0])
    write_run(change, 7, "c0", 1.0)
    with pytest.raises(bench_record.RecordError, match="unpaired"):
        record(parent, change)


def test_refuses_the_same_sources_on_both_sides(tmp_path):
    for seed in (1, 2):
        write_run(tmp_path / "parent", seed, "same", 1.0)
        write_run(tmp_path / "change", seed, "same", 0.5)
    with pytest.raises(bench_record.RecordError, match="same sources"):
        record(tmp_path / "parent", tmp_path / "change")


PARENT_WALL = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


@pytest.mark.parametrize("change_wall, holds", [
    ([0.5] * 10, True),                    # 10/10 wins, gain far past spread
    ([0.5] * 8 + [1.5] * 2, False),        # 8/10 wins: too few
    ([w - 0.005 for w in PARENT_WALL], False),  # 10/10 but inside the spread
])
def test_claim_holds_by_the_benchmark_rule(tmp_path, change_wall, holds):
    rec = record(*sides(tmp_path, PARENT_WALL, change_wall))
    assert rec["claimed"] == {"workload": "sweep", "metric": "wall_s"}
    assert bench_record.claim_holds(rec) is holds


def test_no_claim_records_null_and_prints_each_bound(tmp_path, capsys):
    parent, change = sides(tmp_path, [1.0] * 3, [1.2, 1.3, 1.3])
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(parent), str(change), "--out", str(out),
                              "--what", "no gain"]) == 0
    rec = json.loads(out.read_text())
    assert rec["claimed"] is None
    assert rec["workloads"]["sweep"]["metrics"]["wall_s"]["bound"] == 0.25
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(METRICS)
    # wall_s reads 30% worse, past its 0.25 bound; every other metric is level
    assert [ln.split(":")[0] for ln in lines if "WORSE than bound" in ln] == [
        "sweep wall_s"]
    assert not any("claim" in ln for ln in lines)


WIDE = [0.6, 0.8, 1.0, 1.2, 1.4]  # quartiles 0.8-1.2: 0.4 of the median


@pytest.mark.parametrize("parent_wall, change_wall, unresolved, verdict", [
    (WIDE, WIDE[::-1], True, "unresolved"),       # level, spread past 0.25
    (WIDE, [w - 0.1 for w in WIDE], True, "unresolved"),  # wins 5/5 pairs
    (WIDE, [0.55] * 5, False, "within"),  # beats every parent run
    (PARENT_WALL, PARENT_WALL[::-1], False, "within"),  # spread 0.02
    (WIDE, [1.3] * 5, True, "WORSE than"),
])
def test_a_parent_spread_wider_than_the_bound_reads_unresolved(
        tmp_path, capsys, parent_wall, change_wall, unresolved, verdict):
    parent, change = sides(tmp_path, parent_wall, change_wall)
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(parent), str(change), "--out", str(out),
                              "--what", "no gain"]) == 0
    metrics = json.loads(out.read_text())["workloads"]["sweep"]["metrics"]
    assert metrics["wall_s"]["unresolved"] is unresolved
    # every other metric reads 1 on every run: no spread
    assert not any(m["unresolved"] for m in metrics.values()
                   if m is not metrics["wall_s"])
    lines = capsys.readouterr().out.splitlines()
    assert f"; {verdict}" in next(ln for ln in lines
                                  if ln.startswith("sweep wall_s:"))
    assert sum("unresolved" in ln for ln in lines) == (verdict == "unresolved")


def traced_sides(tmp_path, parent_self, change_self, workload="toolkit"):
    """Untraced pairs as in sides(), plus traced pairs of `workload` whose
    cli.self_s reads parent_self and change_self, seed 100 + i."""
    parent, change = sides(tmp_path, [1.0] * 3, [0.5] * 3)
    for i, (p, c) in enumerate(zip(parent_self, change_self)):
        write_run(parent, 100 + i, "p0", p, workload, trace=1)
        write_run(change, 100 + i, "c0", c, workload, trace=1)
    return parent, change


def test_traced_pairs_give_per_layer_quartiles_and_wins(tmp_path, capsys):
    parent, change = traced_sides(tmp_path, [0.030, 0.032, 0.034],
                                  [0.020, 0.035, 0.021])
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(parent), str(change), "--out", str(out),
                              "--what", "traced"]) == 0
    traced = json.loads(out.read_text())["traced"]
    assert traced["command"].endswith("--seconds 25 --trace 1")
    toolkit = traced["workloads"]["toolkit"]
    assert toolkit["seeds"] == [100, 101, 102] and toolkit["pairs"] == 3
    assert set(toolkit["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    self_s = toolkit["metrics"]["cli.self_s"]
    assert self_s["parent"] == {"median": 0.032, "q1": 0.031, "q3": 0.033}
    assert self_s["change"]["median"] == 0.021
    assert self_s["change_wins"] == 2 and "bound" not in self_s
    # a level metric is won by neither side
    assert toolkit["metrics"]["atr.hysteresis_s"]["change_wins"] == 0
    printed = [ln for ln in capsys.readouterr().out.splitlines()
               if ln.startswith("traced toolkit cli.self_s:")]
    assert printed == ["traced toolkit cli.self_s: parent 0.032 change 0.021 "
                       "s (change wins 2/3)"]


def test_no_traced_runs_record_null(tmp_path):
    assert record(*sides(tmp_path, [1.0] * 2, [0.5] * 2))["traced"] is None


def test_refuses_traced_runs_on_one_side_only(tmp_path):
    parent, change = sides(tmp_path, [1.0] * 2, [0.5] * 2)
    write_run(change, 100, "c0", 0.02, "toolkit", trace=1)
    with pytest.raises(bench_record.RecordError, match="unpaired"):
        record(parent, change)


def test_refuses_an_unpaired_traced_seed(tmp_path):
    parent, change = traced_sides(tmp_path, [0.03] * 2, [0.02] * 2)
    write_run(change, 107, "c0", 0.02, "toolkit", trace=1)
    with pytest.raises(bench_record.RecordError, match="unpaired"):
        record(parent, change)


def test_refuses_an_incorrect_traced_run(tmp_path):
    parent, change = traced_sides(tmp_path, [0.03] * 2, [0.02] * 2)
    write_run(parent, 101, "p0", 0.03, "toolkit", correct=False, trace=1)
    with pytest.raises(bench_record.RecordError, match="not correct"):
        record(parent, change)


@pytest.mark.parametrize("shas, match", [(("p0", "p1"), "several sources"),
                                         (("p1", "p1"), "other sources")])
def test_refuses_traced_runs_of_other_sources(tmp_path, shas, match):
    parent, change = traced_sides(tmp_path, [0.03] * 2, [0.02] * 2)
    for seed, sha in zip((100, 101), shas):
        write_run(parent, seed, sha, 0.03, "toolkit", trace=1)
    with pytest.raises(bench_record.RecordError, match=match):
        record(parent, change)
