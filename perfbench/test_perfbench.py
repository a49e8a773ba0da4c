"""Tests of the benchmark's own parts: span arithmetic, wrapping, digests, names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from perfbench import run, tracer
from perfbench.workloads import WORKLOADS, RowCapture, digest_json, digest_training

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(name, start, end, parent=-1, phase="run", pid=None):
    return [name, start, end, parent, phase, pid]


# ---------------------------------------------------------------------- #
# Self-time arithmetic
# ---------------------------------------------------------------------- #
def test_self_time_subtracts_nested_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.inner", 2.0, 3.0, parent=1),
        span("b", 5.0, 6.0, parent=0),
    ]
    assert tracer.self_times(spans) == pytest.approx([10.0 - 4.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # Two pool workers run cells concurrently under one map span.
    spans = [
        span("map", 0.0, 10.0),
        span("cell", 1.0, 6.0, parent=0, pid=11),
        span("cell", 2.0, 8.0, parent=0, pid=12),
        span("cell", 9.5, 12.0, parent=0, pid=11),  # clipped to the parent
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 0.5)


def test_layer_totals_split_by_phase():
    spans = [
        span("plan", 0.0, 1.0, phase="setup"),
        span("run", 2.0, 6.0),
        span("tick", 2.5, 3.0, parent=1),
        span("tick", 3.0, 4.0, parent=1),
    ]
    run_totals = tracer.layer_totals(spans, "run")
    assert run_totals["tick"] == {"calls": 2, "self_s": pytest.approx(1.5),
                                  "total_s": pytest.approx(1.5)}
    assert run_totals["run"]["self_s"] == pytest.approx(2.5)
    assert set(tracer.layer_totals(spans, "setup")) == {"plan"}


def test_coverage_over_timed_windows_ignores_worker_spans():
    spans = [
        span("registry", 0.0, 1.0),
        span("registry", 2.0, 2.5),
        span("cell", 1.0, 2.0, pid=7),
    ]
    assert tracer.coverage(spans, [(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(0.75)


def test_span_wrapper_records_parents_and_phase():
    recorder = tracer.Recorder()
    recorder.phase = "run"

    def inner():
        return 3

    wrapped_inner = tracer.span_wrapper(recorder, "inner", inner)
    outer = tracer.span_wrapper(recorder, "outer", lambda: wrapped_inner() + 1)
    assert outer() == 4
    names = [(record[tracer.NAME], record[tracer.PARENT], record[tracer.PHASE])
             for record in recorder.spans]
    assert names == [("outer", -1, "run"), ("inner", 0, "run")]
    assert recorder.stack == []


# ---------------------------------------------------------------------- #
# Wrapping from outside and restoring
# ---------------------------------------------------------------------- #
def _attributes(targets):
    return [(owner, attribute, vars(owner)[attribute]) for owner, attribute, _ in targets]


def test_traced_run_restores_every_original(tmp_path):
    from repro.harness.models import clear_model_cache, get_trained_model
    from repro.harness.registry import REGISTRY, ExperimentRegistry
    from repro.harness.store import RunStore

    targets = tracer.trace_targets()
    before = _attributes(targets)
    finalize = vars(ExperimentRegistry)["finalize"]
    capture = RowCapture()
    capture.install()
    recorder = tracer.Recorder()
    recorder.phase = "run"
    try:
        with tracer.traced(recorder, targets):
            clear_model_cache()
            get_trained_model("canopy-shallow", training_steps=20, seed=3)
            REGISTRY.run("workload_stress", {"schemes": "cubic,bbr", "topology": "chain(2)",
                                             "workload": "static", "duration": "1.0"},
                         n_jobs=2, store=RunStore(tmp_path / "store"))
    finally:
        capture.restore()
        clear_model_cache()
    assert all(vars(owner)[attribute] is original for owner, attribute, original in before)
    assert vars(ExperimentRegistry)["finalize"] is finalize
    assert tracer._ACTIVE is None

    totals = tracer.layer_totals(recorder.spans, "run")
    assert totals["core.trainer.train"]["calls"] == 1
    assert totals["rl.td3.update"]["calls"] == 20
    assert totals["harness.store.put"]["calls"] == 2
    assert totals[tracer.CELL_SPAN]["calls"] == 2
    # Cells run in pool workers (or serially, if the pool is unavailable)
    # and always hang under the map span.
    maps = [index for index, record in enumerate(recorder.spans)
            if record[tracer.NAME] == tracer.MAP_SPAN]
    cells = [record for record in recorder.spans if record[tracer.NAME] == tracer.CELL_SPAN]
    assert all(record[tracer.PARENT] == maps[-1] for record in cells)
    ticks = [record for record in recorder.spans if record[tracer.NAME] == "cc.netsim.tick"
             and record[tracer.PID] is not None]
    for record in ticks:
        assert recorder.spans[record[tracer.PARENT]][tracer.NAME] == tracer.CELL_SPAN


# ---------------------------------------------------------------------- #
# Digests
# ---------------------------------------------------------------------- #
def test_digest_json_ignores_key_order_but_not_values():
    assert digest_json([{"a": 1, "b": [1.5, None]}]) == digest_json([{"b": [1.5, None], "a": 1}])
    assert digest_json([{"a": 1}]) != digest_json([{"a": 2}])


def test_training_digest_is_stable_and_sensitive():
    from repro.harness.models import clear_model_cache, get_trained_model

    digests = []
    for _ in range(2):
        clear_model_cache()
        digests.append(digest_training(
            get_trained_model("canopy-shallow", training_steps=20, seed=5).training))
    clear_model_cache()
    other = digest_training(get_trained_model("canopy-shallow", training_steps=20, seed=6).training)
    clear_model_cache()
    assert digests[0] == digests[1]
    assert other != digests[0]


# ---------------------------------------------------------------------- #
# Names and the benchmark description
# ---------------------------------------------------------------------- #
def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [workload["name"] for workload in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        [(name, unit, better) for name, unit, better in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better in run.PER_LAYER]
    assert any(m["name"] == "setup_s" and m["bound"] == max(n["bound"] for n in spec["end_to_end"])
               for m in spec["end_to_end"])


def test_every_name_is_well_formed_and_unique():
    names = list(WORKLOADS) + [name for name, _, _ in run.END_TO_END + run.PER_LAYER]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(set(names)) == len(names)


def test_parse_importtime_reads_top_level_and_nested_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       120 |        120 |   repro",
        "import time:      5000 |     130000 |                 numpy",
        "import time:     20000 |     390000 | repro.cli",
    ])
    assert run.parse_importtime(stderr) == (0.39, 0.13)
