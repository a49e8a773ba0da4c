"""In-memory span recorder that traces the program from outside.

The traced benchmark run replaces public functions of ``repro`` -- class
attributes, or module attributes at the name the calling module binds them
to -- with thin wrappers that record one span per call: name, start, end,
parent and phase.  Nothing under ``src/`` is edited, and :func:`traced`
puts every original back when it exits.

Spans recorded inside forked pool workers are shipped back to the parent
next to each cell's row (see :func:`_traced_cell`), so the parent holds one
span list for the whole run.  Timestamps come from ``time.perf_counter``,
which reads the system-wide monotonic clock, so worker and parent spans
share one time axis.

This module imports nothing from ``repro`` at import time: the set-up
probe times the first ``repro`` import, which must not happen before it.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

# Field positions of one span record: [name, start, end, parent, phase, pid].
# ``parent`` is the index of the enclosing span in the same list (-1 for a
# root); ``pid`` is None for spans of the recording process and the worker
# pid for spans shipped back from a pool worker.
NAME, START, END, PARENT, PHASE, PID = range(6)

#: Name of the span around one grid cell, opened by the ParallelRunner.map wrapper.
CELL_SPAN = "harness.parallel.cell"
#: Name of the span around one ParallelRunner.map call.
MAP_SPAN = "harness.parallel.map"

# The recorder of the traced run in this process.  Forked pool workers
# inherit it, which is how a cell running in a worker finds the recorder to
# write into before its spans are shipped back.
_ACTIVE: Optional["Recorder"] = None


class Recorder:
    """Holds the spans of one traced run in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.phase = "setup"
        self.pid = os.getpid()
        #: Per-call worker counts of every ParallelRunner.map span, by span index.
        self.map_workers: Dict[int, int] = {}

    def open(self, name: str) -> list:
        """Start a span as a child of the innermost open span."""
        record = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
                  self.phase, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[END] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        record = self.open(name)
        try:
            yield record
        finally:
            self.close(record)

    def absorb(self, shipped: "ShippedCell") -> None:
        """Append spans a pool worker recorded, re-indexing their parents.

        Parents below ``shipped.base`` are spans the worker inherited at fork
        time (the registry run and map spans), whose indices are the same in
        this list; parents at or above it are relocated.
        """
        offset = len(self.spans) - shipped.base
        for name, start, end, parent, phase, _ in shipped.spans:
            if parent >= shipped.base:
                parent += offset
            self.spans.append([name, start, end, parent, phase, shipped.pid])


class ShippedCell:
    """A pool worker's row plus the spans it recorded for that cell."""

    def __init__(self, row, spans: List[list], base: int, pid: int) -> None:
        self.row = row
        self.spans = spans
        self.base = base
        self.pid = pid


# ---------------------------------------------------------------------- #
# Wrappers
# ---------------------------------------------------------------------- #
def span_wrapper(recorder: Recorder, name: str, fn: Callable) -> Callable:
    """``fn`` with one span per call recorded into ``recorder``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(record)

    return wrapper


def _traced_cell(fn: Callable, item):
    """Run one grid cell under a cell span (module-level, so it pickles).

    In the recording process the spans land in the recorder directly; in a
    forked worker they are cut from the worker's copy of the recorder and
    returned with the row, for the parent to absorb.
    """
    recorder = _ACTIVE
    if recorder is None:
        return fn(item)
    base = len(recorder.spans)
    with recorder.span(CELL_SPAN):
        row = fn(item)
    pid = os.getpid()
    if pid == recorder.pid:
        return row
    shipped = recorder.spans[base:]
    del recorder.spans[base:]
    return ShippedCell(row, shipped, base, pid)


def map_wrapper(recorder: Recorder, original: Callable) -> Callable:
    """Wrap ``ParallelRunner.map``: a map span, a span per cell, shipped worker spans."""

    @functools.wraps(original)
    def wrapper(self, fn, items, on_result=None):
        items = list(items)

        def unwrap(index, item, result):
            if isinstance(result, ShippedCell):
                recorder.absorb(result)
                result = result.row
            if on_result is not None:
                on_result(index, item, result)

        with recorder.span(MAP_SPAN):
            recorder.map_workers[recorder.stack[-1]] = min(self.n_jobs, len(items))
            results = original(self, functools.partial(_traced_cell, fn), items,
                               on_result=unwrap)
        return [result.row if isinstance(result, ShippedCell) else result
                for result in results]

    return wrapper


# ---------------------------------------------------------------------- #
# Installing and restoring
# ---------------------------------------------------------------------- #
def trace_targets() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, span name)`` of every public function the run traces.

    Owners are classes (wrapped as class attributes) or modules (wrapped at
    the name the calling module binds them to).
    """
    import repro.core.verifier as verifier_module
    import repro.harness.registry as registry_module
    from repro.abstract.box import Box
    from repro.cc.netsim import NetworkSimulator
    from repro.core.reward import CanopyRewardShaper
    from repro.core.trainer import CanopyTrainer
    from repro.core.verifier import Verifier
    from repro.harness.parallel import ParallelRunner
    from repro.harness.registry import ExperimentRegistry
    from repro.harness.store import RunStore
    from repro.orca.env import OrcaNetworkEnv
    from repro.rl.td3 import TD3Agent

    return [
        (NetworkSimulator, "tick", "cc.netsim.tick"),
        (OrcaNetworkEnv, "step", "orca.env.step"),
        (Verifier, "certify", "core.verifier.certify"),
        (CanopyRewardShaper, "shape", "core.reward.shape"),
        (verifier_module, "propagate_mlp_batched", "abstract.propagate"),
        (Box, "split_batched", "abstract.split"),
        (TD3Agent, "update", "rl.td3.update"),
        (TD3Agent, "policy", "rl.td3.policy"),
        (CanopyTrainer, "train", "core.trainer.train"),
        (ExperimentRegistry, "run", "harness.registry.run"),
        (ExperimentRegistry, "plan", "harness.registry.plan"),
        (registry_module, "pretrain_models", "harness.models.pretrain"),
        (RunStore, "put", "harness.store.put"),
        (RunStore, "load", "harness.store.load"),
        (ParallelRunner, "map", MAP_SPAN),
    ]


@contextmanager
def traced(recorder: Recorder, targets: Sequence[Tuple[object, str, str]]) -> Iterator[Recorder]:
    """Install a span wrapper on every target; restore all originals on exit."""
    global _ACTIVE
    originals = []
    try:
        for owner, attribute, name in targets:
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            if name == MAP_SPAN:
                setattr(owner, attribute, map_wrapper(recorder, original))
            else:
                setattr(owner, attribute, span_wrapper(recorder, name, original))
        _ACTIVE = recorder
        yield recorder
    finally:
        _ACTIVE = None
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------- #
# Self time and per-layer totals
# ---------------------------------------------------------------------- #
def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per span: its duration minus the part of it its child spans cover.

    Children of one parent may overlap (pool workers run cells
    concurrently under one map span), so the covered part is the union of
    the children's intervals clipped to the parent, not their sum.
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = covered_length(
            (max(spans[child][START], start), min(spans[child][END], end))
            for child in children.get(index, ()))
        result.append(end - start - covered)
    return result


def layer_totals(spans: Sequence[Sequence], phase: str) -> Dict[str, Dict[str, float]]:
    """``{span name: {"calls", "self_s", "total_s"}}`` over the spans of one phase."""
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span, self_s in zip(spans, selfs):
        if span[PHASE] != phase:
            continue
        entry = totals.setdefault(span[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["total_s"] += span[END] - span[START]
    return totals


def coverage(spans: Sequence[Sequence], windows: Sequence[Tuple[float, float]]) -> float:
    """Share of the (disjoint) timed ``windows`` covered by spans of this process."""
    own = [(span[START], span[END]) for span in spans if span[PID] is None]
    covered = sum(covered_length((max(begin, start), min(end, stop)) for begin, end in own)
                  for start, stop in windows)
    length = sum(stop - start for start, stop in windows)
    return covered / length if length > 0 else 0.0


def parallel_efficiency(recorder: Recorder, phase: str) -> float:
    """Sum of cell seconds over (map seconds x workers), over the maps of one phase."""
    spans = recorder.spans
    capacity = sum((spans[index][END] - spans[index][START]) * workers
                   for index, workers in recorder.map_workers.items()
                   if workers > 0 and spans[index][PHASE] == phase)
    busy = sum(span[END] - span[START] for span in spans
               if span[NAME] == CELL_SPAN and span[PHASE] == phase)
    return busy / capacity if capacity > 0 else 0.0
