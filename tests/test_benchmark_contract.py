"""The benchmark's hold on bdrlab: the names perfbench wraps, and one traced
call of each workload.

perfbench imports bdrlab's modules and wraps functions by name, so renaming
one of them breaks the benchmark while every test of bdrlab itself still
passes. These tests make the same calls the benchmark makes, once each,
which takes about a second.
"""

import importlib
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import tracing, workloads  # noqa: E402


@pytest.mark.parametrize("module, attr",
                         [(m, a) for m, a, _, _ in tracing.TARGETS])
def test_every_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_traced_call_per_workload_passes_its_check(name, tmp_path):
    wl = workloads.WORKLOADS[name](1, tmp_path)
    rec = tracing.Recorder()
    with rec.installed():
        start = time.perf_counter()
        result = wl.invoke()
        outcome = wl.check(result, time.perf_counter() - start)
    assert outcome.ok, outcome.problems
    # the layers the workload is built to bypass stay idle
    metrics = tracing.layer_metrics(
        [dict(zip(tracing.SPAN_FIELDS, span)) for span in rec.spans])
    assert all(metrics[key] == 0 for key in workloads.BYPASSED[name])
