"""Unit tests for the benchmark's own arithmetic and correctness checks.

They run no workload, so they take well under a second.
"""

import json
import math
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run, tracing, workloads  # noqa: E402
from perfbench.workloads import Outcome  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(id, start, end, parent=None, thread=1, call=0, counts=None, name="x"):
    return {"id": id, "name": name, "start": start, "end": end,
            "thread": thread, "parent": parent, "call": call,
            "counts": counts or {}}


def test_self_time_nested_in_one_thread():
    spans = [span(0, 0.0, 10.0), span(1, 2.0, 5.0, parent=0),
             span(2, 3.0, 4.0, parent=1), span(3, 6.0, 7.0, parent=0)]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_counts_overlapping_thread_children_once():
    # two pool threads overlap on [4, 6]; a third child runs past the parent
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 6.0, parent=0, thread=2),
             span(2, 4.0, 9.0, parent=0, thread=3),
             span(3, 9.5, 12.0, parent=0, thread=2)]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 8.0 - 0.5)


def test_covered_length_disjoint_and_touching():
    assert tracing.covered_length([]) == 0.0
    assert tracing.covered_length([(0, 1), (1, 2), (5, 6)]) == 3.0
    assert tracing.covered_length([(0, 4), (1, 2)]) == 4.0


def test_worker_thread_spans_take_the_open_span_as_parent():
    rec = tracing.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1)

    def outer_fn():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(inner, range(4)))

    outer = rec.wrap("outer", outer_fn)
    assert outer() == [1, 2, 3, 4]
    spans = [dict(zip(tracing.SPAN_FIELDS, s)) for s in rec.spans]
    (top,) = [s for s in spans if s["name"] == "outer"]
    workers = [s for s in spans if s["name"] == "inner"]
    assert len(workers) == 4
    assert top["parent"] is None
    assert all(s["parent"] == top["id"] for s in workers)
    assert all(s["thread"] != threading.get_ident() for s in workers)


def test_installed_wrappers_are_removed_and_spans_round_trip(tmp_path):
    from bdrlab import stats
    original = stats.loglog_slope
    rec = tracing.Recorder()
    targets = (("bdrlab.stats", "loglog_slope", "stats.loglog_slope", None),)
    with rec.installed(targets):
        assert stats.loglog_slope is not original
        stats.loglog_slope([1, 2, 4], [1, 2, 4])
    assert stats.loglog_slope is original
    path = tmp_path / "spans.jsonl"
    rec.write(path)
    (only,) = list(tracing.read_spans(path))
    assert only["name"] == "stats.loglog_slope" and only["end"] >= only["start"]


def test_layer_metrics_sums_counts_per_call():
    spans = [
        span(0, 0.0, 4.0, name="stats.run_trials", call=1),
        span(1, 0.5, 2.5, parent=0, name="estimators.fit_distance", call=1,
             counts={"rows": 3, "positions": 30, "grad_max": [1e-4, 3e-4]}),
        span(2, 2.5, 3.0, parent=0, name="estimators.extract_boundaries",
             call=1, counts={"found": 1}),
        span(3, 3.0, 3.5, parent=0, name="estimators.extract_boundaries",
             call=1, counts={"found": 0}),
        span(4, 0.0, 1.0, name="stats.run_trials", call=3),
    ]
    first, second = tracing.per_call_metrics(spans)
    assert first["stats.run_trials_self_s"] == pytest.approx(1.0)
    assert first["estimators.fit_s"] == pytest.approx(2.0)
    assert first["estimators.fit_rows"] == 3
    assert first["estimators.fit_row_positions"] == 30
    assert first["estimators.fit_grad_norm"] == pytest.approx(2e-4)
    assert first["estimators.extract_found_ratio"] == 0.5
    assert second["stats.run_trials_calls"] == 1
    assert second["estimators.extract_found_ratio"] == 0.0


def test_time_to_1pct_formula():
    cells = [{"R": 1.0, "ci_low": 0.9, "ci_high": 1.1},
             {"R": 2.0, "ci_low": 1.6, "ci_high": 2.4},
             {"R": 0.5, "ci_low": 0.49, "ci_high": 0.51}]
    # relative half-widths 0.1, 0.2, 0.02: the median 0.1 is 10x of 1%
    assert workloads.time_to_1pct(3.0, cells) == pytest.approx(300.0)


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_are_well_formed_and_match_the_code():
    spec = _benchmark_spec()
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    for name in e2e + layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(e2e + layer)) == len(e2e + layer)
    computed = set(tracing.layer_metrics([])) | {
        "stats.cpu_per_wall", "trace.overhead_ratio", "e2e.time_to_1pct_s"}
    assert computed == set(layer)
    sample = run.Sample(False, 1.0, 1.0, Outcome(4, 3))
    probe = run.Sample(False, 0.5, 0.5, None)
    assert set(run.end_to_end([sample], [probe], 4)) == set(e2e)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        workloads.WORKLOADS)
    assert set(workloads.BYPASSED) == set(workloads.WORKLOADS)
    assert all(k in layer for keys in workloads.BYPASSED.values() for k in keys)


def test_timings_are_scaled_by_the_calibration_around_them():
    nominal = run.CALIBRATION_NOMINAL_S
    # the machine ran at half speed around the first call, at full speed
    # around the second: both calls cost the program 1 s
    slow = run.Sample(False, 2.0, 1.8, Outcome(4, 4), 2 * nominal, 1.8 * nominal)
    fast = run.Sample(False, 1.0, 1.0, Outcome(4, 4), nominal, nominal)
    probe = run.Sample(False, 0.6, 0.6, None, 3 * nominal, 3 * nominal)
    metrics = run.end_to_end([slow, fast, fast], [probe], 4)
    assert metrics["wall_s"] == pytest.approx(1.0)
    assert metrics["cpu_s"] == pytest.approx(1.0)
    assert metrics["trials_per_s"] == pytest.approx(4.0)
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["success_rate"] == 1.0


@pytest.fixture
def reference_cells():
    path = workloads.HERE / "reference_sweep.json"
    return json.loads(path.read_text(encoding="utf-8"))["cells"]


def sweep_output(reference, scale_r=1.0):
    """Cells shaped like a scaling JSON output, with the reference's R."""
    return [{**c, "R": c["R"] * scale_r, "ci_low": c["ci_low"] * scale_r,
             "ci_high": c["ci_high"] * scale_r, "var_bdr": c["R"] * scale_r,
             "var_cls": 1.0} for c in reference]


def test_sweep_checks_accept_the_reference(reference_cells):
    cells = sweep_output(reference_cells)
    assert workloads.check_sweep_cells(cells, reference_cells) == []
    outcomes = [Outcome(1, 1, values={"cells": cells})] * 3
    assert workloads.check_pooled_sweep(outcomes, reference_cells) == []


@pytest.mark.parametrize("corrupt", [
    lambda c: c.update(R=math.nan),
    lambda c: c.update(ci_low=c["ci_high"], ci_high=c["ci_low"]),
    lambda c: c.update(var_cls=0.0),
    lambda c: c.update(kappa=16.0),
])
def test_sweep_check_rejects_a_corrupted_cell(reference_cells, corrupt):
    cells = sweep_output(reference_cells)
    corrupt(cells[5])
    assert workloads.check_sweep_cells(cells, reference_cells)


def test_sweep_check_rejects_a_missing_cell(reference_cells):
    cells = sweep_output(reference_cells)[1:]
    assert workloads.check_sweep_cells(cells, reference_cells)


def test_pooled_sweep_check_rejects_a_shifted_ratio(reference_cells):
    shifted = sweep_output(reference_cells, scale_r=2.0)
    outcomes = [Outcome(1, 1, values={"cells": shifted})] * 6
    assert workloads.check_pooled_sweep(outcomes, reference_cells)
    assert workloads.check_pooled_sweep([Outcome(1, 0, ["raised"])],
                                        reference_cells)


def test_slope_checks():
    keys = workloads.CLS_KAPPAS
    good = (1.1, {k: 0.1 * k for k in keys})
    assert workloads.check_slope_output(good, keys) == []
    assert workloads.check_slope_output(("degenerate", good[1]), keys)
    assert workloads.check_slope_output((math.nan, good[1]), keys)
    assert workloads.check_slope_output((1.0, {**good[1], 8.0: math.nan}), keys)
    assert workloads.check_slope_output((1.0, {1.0: 0.1, 2.0: 0.2}), keys)

    def outcome(variances):
        return Outcome(1, 1, values={"variances": variances})

    linear = [outcome({k: 0.1 * k for k in keys})] * 3
    assert workloads.check_pooled_slope(linear, workloads.CLS_BAND) == []
    steep = [outcome({k: 0.1 * k**2 for k in keys})]
    assert workloads.check_pooled_slope(steep, workloads.CLS_BAND)
    failed = [Outcome(1, 0, ["raised"])]
    assert workloads.check_pooled_slope(failed, workloads.CLS_BAND)


def _flops_rows(total_at_016=156.2025984):
    rows = []
    for (tau, keep), total in workloads.FLOPS_EXPECTED.items():
        if tau == 0.16:
            total = total_at_016
        rows.append({"expected_tau": tau, "keep_ratio": keep,
                     "backbone_g": total - 3.0, "shallow_g": 1.0,
                     "deep_g": 1.0, "heads_g": 0.5, "predictors_g": 0.5,
                     "total_g": total})
    return rows


def test_toolkit_checks():
    assert workloads.check_flops(_flops_rows()) == []
    assert workloads.check_flops(_flops_rows(156.3))
    assert workloads.check_flops(_flops_rows()[:1])
    atr = [{"mode": "hold_previous", "flip_rate_raw": 0.18,
            "flip_rate_stabilized": 0.05},
           {"mode": "deadzone_half", "flip_rate_raw": 0.18,
            "flip_rate_stabilized": 0.2}]
    assert workloads.check_atr(atr) == []
    atr[0]["flip_rate_stabilized"] = 0.15
    assert workloads.check_atr(atr)
    oracle = workloads.calib_oracle()
    assert 0.27 < oracle < 0.28
    assert workloads.check_calib([{"bin": "r_ece", "coverage": oracle}]) == []
    assert workloads.check_calib([{"bin": "r_ece", "coverage": oracle + 0.01}])
    assert workloads.check_calib([{"bin": "r_ece", "coverage": math.nan}])
