"""Benchmark of the certified-cell stack: end-to-end and per-layer metrics.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload certified_grid --seed 3 --seconds 10 --trace 0

``--trace 0`` measures untraced and reports the end-to-end metrics;
``--trace 1`` makes a traced run and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is a
readable summary; the full result, with the seed, the output digest and the
calibration loop's time, is written to ``.perfbench_out/results/`` and the
spans of a traced run to ``.perfbench_out/spans/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"

#: Operations every timed run makes at least, however long they take.
MIN_OPS = 3
#: Set-ups per untraced run; setup_s is their median.
SETUP_SAMPLES = 3
#: ``python -X importtime`` probes per traced run.
IMPORT_PROBES = 3

#: ``(name, unit, better)`` of every end-to-end metric, reported by ``--trace 0``.
END_TO_END = [
    ("items_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: ``(name, unit, better)`` of every per-layer metric, reported by ``--trace 1``.
PER_LAYER = [
    ("cc.netsim.ticks", "count", "lower"),
    ("cc.netsim.tick_s", "s", "lower"),
    ("cc.netsim.ticks_per_s", "1/s", "higher"),
    ("cc.netsim.phase.inject_s", "s", "lower"),
    ("cc.netsim.phase.enqueue_s", "s", "lower"),
    ("cc.netsim.phase.transit_s", "s", "lower"),
    ("cc.netsim.phase.drain_s", "s", "lower"),
    ("cc.netsim.phase.acks_s", "s", "lower"),
    ("orca.env.step_s", "s", "lower"),
    ("orca.env.steps", "count", "lower"),
    ("core.verifier.certify_s", "s", "lower"),
    ("core.verifier.certify_calls", "count", "lower"),
    ("core.verifier.certs_per_s", "1/s", "higher"),
    ("core.reward.shape_s", "s", "lower"),
    ("abstract.propagate_s", "s", "lower"),
    ("abstract.split_s", "s", "lower"),
    ("rl.td3.update_s", "s", "lower"),
    ("rl.td3.updates", "count", "lower"),
    ("rl.td3.policy_s", "s", "lower"),
    ("core.trainer.self_s", "s", "lower"),
    ("harness.registry.run_s", "s", "lower"),
    ("harness.registry.plan_s", "s", "lower"),
    ("harness.models.pretrain_s", "s", "lower"),
    ("harness.store.put_s", "s", "lower"),
    ("harness.store.puts", "count", "lower"),
    ("harness.store.bytes", "bytes", "lower"),
    ("harness.store.load_s", "s", "lower"),
    ("harness.parallel.map_s", "s", "lower"),
    ("harness.parallel.cell_s", "s", "lower"),
    ("harness.parallel.efficiency", "ratio", "higher"),
    ("telemetry.events", "count", "higher"),
    ("import.repro_s", "s", "lower"),
    ("import.numpy_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
]

#: Span name -> self-time metric, over the run phase.
SELF_TIME_METRICS = {
    "cc.netsim.tick": "cc.netsim.tick_s",
    "orca.env.step": "orca.env.step_s",
    "core.verifier.certify": "core.verifier.certify_s",
    "core.reward.shape": "core.reward.shape_s",
    "abstract.propagate": "abstract.propagate_s",
    "abstract.split": "abstract.split_s",
    "rl.td3.update": "rl.td3.update_s",
    "rl.td3.policy": "rl.td3.policy_s",
    "core.trainer.train": "core.trainer.self_s",
    "harness.registry.run": "harness.registry.run_s",
    "harness.store.put": "harness.store.put_s",
    "harness.store.load": "harness.store.load_s",
    "harness.parallel.cell": "harness.parallel.cell_s",
}
#: Span name -> call-count metric, over the run phase.
CALL_METRICS = {
    "cc.netsim.tick": "cc.netsim.ticks",
    "orca.env.step": "orca.env.steps",
    "core.verifier.certify": "core.verifier.certify_calls",
    "rl.td3.update": "rl.td3.updates",
    "harness.store.put": "harness.store.puts",
}
#: Span name -> total-time metric, over the set-up phase (these move setup_s;
#: pre-training's own layers are in the set-up table of the results file).
SETUP_TOTAL_METRICS = {
    "harness.registry.plan": "harness.registry.plan_s",
    "harness.models.pretrain": "harness.models.pretrain_s",
}


# ---------------------------------------------------------------------- #
# Small measurements
# ---------------------------------------------------------------------- #
def calibrate(repeats: int = 7) -> float:
    """Median seconds of a fixed pure-Python + NumPy loop (cross-machine factor)."""
    import numpy as np

    samples = []
    for _ in range(repeats):
        start = perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value % 7
        array = np.arange(50_000, dtype=np.float64)
        for _ in range(100):
            array = np.sqrt(array * array + 1.0)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def parse_importtime(stderr: str) -> Tuple[float, float]:
    """``(repro.cli, numpy)`` cumulative seconds from ``-X importtime`` output."""
    repro_us = numpy_us = 0
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+\d+\s*\|\s*(\d+)\s*\|( +)(\S+)$", line)
        if not match:
            continue
        cumulative, indent, module = int(match.group(1)), len(match.group(2)), match.group(3)
        if module == "repro.cli" and indent == 1:
            repro_us = cumulative
        elif module == "numpy":
            numpy_us = max(numpy_us, cumulative)
    return repro_us / 1e6, numpy_us / 1e6


def import_probe() -> Tuple[float, float]:
    """Median ``(import.repro_s, import.numpy_s)`` over fresh interpreters."""
    probes = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import repro.cli"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"import probe failed: {done.stderr[-500:]}")
        probes.append(parse_importtime(done.stderr))
    return (statistics.median(probe[0] for probe in probes),
            statistics.median(probe[1] for probe in probes))


def setup_probe(workload: str, seed: int) -> float:
    """Seconds of one set-up of ``workload`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                           "--workload", workload, "--seed", str(seed)],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------- #
# Runs
# ---------------------------------------------------------------------- #
class Tally:
    """Attempted / failed work items and the digests of every operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: List[str] = []
        self.violations: List[str] = []

    def op(self, workload, label: str, **kwargs):
        """Run one operation; record it; return its OpResult or None on error."""
        try:
            result = workload.op(**kwargs)
        except Exception:  # the benchmark keeps going and reports the failure
            traceback.print_exc()
            self.attempted += workload.attempts_per_op()
            self.failed += workload.attempts_per_op()
            self.violations.append(f"{label}: operation raised")
            return None
        self.attempted += result.attempts
        self.digests.append(result.digest)
        if result.violations:
            self.failed += result.attempts
            self.violations.extend(f"{label}: {violation}" for violation in result.violations)
        return result

    def finish(self) -> None:
        if len(set(self.digests)) > 1:
            self.violations.append(f"operations disagree on the output digest: "
                                   f"{sorted(set(self.digests))}")
            self.failed = max(self.failed, 1)

    @property
    def correct(self) -> bool:
        return not self.violations and self.failed == 0


def timed_ops(workload, seconds: float, tally: Tally) -> List:
    """Repeat the operation for ``seconds`` (and at least MIN_OPS times)."""
    results = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if elapsed >= seconds and len(results) >= MIN_OPS:
            break
        if elapsed >= 3 * seconds and results:
            break
        result = tally.op(workload, f"op {len(results)}")
        if result is None:
            break
        results.append(result)
    return results


def untraced_run(workload_type, seed: int, seconds: float,
                 workdir: Path) -> Tuple[Dict, Tally, Dict]:
    setups = [setup_probe(workload_type.name, seed) for _ in range(SETUP_SAMPLES - 1)]
    workload = workload_type(seed, workdir)
    start = perf_counter()
    workload.load()
    workload.prepare()
    setups.append(perf_counter() - start)
    calibration = calibrate()
    tally = Tally()
    try:
        results = timed_ops(workload, seconds, tally)
    finally:
        workload.close()
    tally.finish()
    op_seconds = [result.seconds for result in results]
    items = results[0].items if results else 0
    metrics = {
        "items_per_s": items / statistics.median(op_seconds) if results else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {"calibration_s": calibration, "setup_samples_s": setups,
             "op_seconds": op_seconds, "items_per_op": items,
             "digest": tally.digests[0] if tally.digests else None}
    return metrics, tally, extra


def traced_op(workload, recorder, tally: Tally, index: int):
    label = f"traced op {index}"
    if workload.op_span is None:
        return tally.op(workload, label, profile=True)
    with recorder.span(workload.op_span):
        return tally.op(workload, label, profile=True)


def traced_run(workload_type, seed: int, workdir: Path) -> Tuple[Dict, Tally, Dict, list]:
    from perfbench import tracer

    workload = workload_type(seed, workdir)
    recorder = tracer.Recorder()
    start = perf_counter()
    workload.load()
    try:
        targets = tracer.trace_targets()
        with tracer.traced(recorder, targets):
            workload.prepare()
        setup_s = perf_counter() - start
        calibration = calibrate()
        tally = Tally()
        untraced = [tally.op(workload, "untraced op 0")]
        recorder.phase = "run"
        with tracer.traced(recorder, targets):
            traced = [traced_op(workload, recorder, tally, index)
                      for index in range(workload.traced_ops)]
        untraced.append(tally.op(workload, "untraced op 1"))
    finally:
        workload.close()
    tally.finish()
    untraced = [result for result in untraced if result is not None]
    traced = [result for result in traced if result is not None]

    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    run = tracer.layer_totals(recorder.spans, "run")
    setup = tracer.layer_totals(recorder.spans, "setup")
    for span, metric in SELF_TIME_METRICS.items():
        metrics[metric] = run.get(span, {}).get("self_s", 0.0)
    for span, metric in CALL_METRICS.items():
        metrics[metric] = run.get(span, {}).get("calls", 0)
    for span, metric in SETUP_TOTAL_METRICS.items():
        metrics[metric] = setup.get(span, {}).get("total_s", 0.0)
    for span, metric in (("cc.netsim.tick", "cc.netsim.ticks_per_s"),
                         ("core.verifier.certify", "core.verifier.certs_per_s")):
        entry = run.get(span)
        if entry and entry["total_s"] > 0:
            metrics[metric] = entry["calls"] / entry["total_s"]
    metrics["harness.parallel.map_s"] = run.get(tracer.MAP_SPAN, {}).get("total_s", 0.0)
    metrics["harness.parallel.efficiency"] = tracer.parallel_efficiency(recorder, "run")
    for result in traced:
        for phase, seconds in result.phases.items():
            metrics[f"cc.netsim.phase.{phase}_s"] += seconds
    metrics["telemetry.events"] = sum(result.events for result in traced)
    metrics["harness.store.bytes"] = sum(result.store_bytes for result in traced)
    metrics["import.repro_s"], metrics["import.numpy_s"] = import_probe()
    if traced and untraced:
        metrics["trace.overhead_s"] = (statistics.median(r.seconds for r in traced)
                                       - statistics.median(r.seconds for r in untraced))
    metrics["trace.coverage"] = tracer.coverage(
        recorder.spans, [(result.start, result.end) for result in traced])

    extra = {"calibration_s": calibration, "setup_s": setup_s,
             "traced_op_seconds": [result.seconds for result in traced],
             "untraced_op_seconds": [result.seconds for result in untraced],
             "digest": tally.digests[0] if tally.digests else None,
             "layers": {"setup": setup, "run": run}}
    return metrics, tally, extra, recorder.spans


def write_json(path: Path, payload, indent: Optional[int] = 1) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=indent, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # one timed set-up, used by the parent run
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    # The benchmark pins its own inputs: a shared model zoo or a default job
    # count from the environment would change what is measured.
    for name in ("REPRO_MODEL_ZOO", "REPRO_JOBS"):
        os.environ.pop(name, None)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload_type = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            workload = workload_type(args.seed, workdir)
            start = perf_counter()
            workload.load()
            workload.prepare()
            seconds = perf_counter() - start
            workload.close()
            print(repr(seconds))
            return 0
        if args.trace:
            metrics, tally, extra, spans = traced_run(workload_type, args.seed, workdir)
            catalogue = PER_LAYER
        else:
            metrics, tally, extra = untraced_run(workload_type, args.seed, args.seconds, workdir)
            spans = None
            catalogue = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    units = {name: unit for name, unit, _ in catalogue}
    result = {
        "correct": tally.correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name, _, _ in catalogue},
    }
    write_json(OUT / "results" / f"{stem}.json",
               dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                    seconds=args.seconds, item=workload_type.item,
                    violations=tally.violations, **extra))
    if spans is not None:
        write_json(OUT / "spans" / f"{stem}.json",
                   {"fields": ["name", "start", "end", "parent", "phase", "pid"],
                    "spans": spans}, indent=None)
    for violation in tally.violations:
        print(f"perfbench: CHECK FAILED: {violation}", file=sys.stderr)
    summary = ", ".join(f"{name}={metrics[name]:.6g}" for name, _, _ in catalogue[:3])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {summary}, "
          f"calibration_s={extra['calibration_s']:.6g}, digest={extra['digest']}")
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
