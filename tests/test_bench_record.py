"""tools/bench_record.py on synthetic perfbench result files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

METRICS = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())[
    "end_to_end"]


def write_run(directory: Path, seed: int, sha: str, wall_s: float,
              workload: str = "sweep", correct: bool = True):
    """One `result-*-trace0.json` whose metrics all read 1 except wall_s."""
    directory.mkdir(exist_ok=True)
    values = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in METRICS}
    values["wall_s"]["value"] = wall_s
    run = {"workload": workload, "trace": 0, "seconds": 25.0,
           "machine": {"nproc": 2, "python": "3.11", "numpy": "2.4",
                       "platform": "linux", "seed": seed,
                       "git_commit": "abc", "source_sha256": sha},
           "result": {"correct": correct, "metrics": values}}
    path = directory / f"result-{workload}-seed{seed}-trace0.json"
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
                              "test", claim)


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
