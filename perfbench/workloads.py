"""The benchmark's workloads: set-up, one timed operation, output checks.

Each workload drives ``repro`` serially from this process through public
entry points only.  A run sets the workload up once, then repeats its
operation; every operation returns an :class:`OpResult` carrying its wall
clock, the number of work items it completed, a digest of its output and
any invariant it broke.  See ``perfbench/README.md`` for why each workload
exists and which layers it exercises.

Nothing here imports ``repro`` at import time (see ``tracer``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

#: Training steps of one ``train`` operation.
TRAIN_STEPS = 300
#: Worker processes of the pooled ``classical_churn`` and ``resume`` grids.
POOL_JOBS = 2
#: Property family certified by ``certified_grid``.
PROPERTY_FAMILY = "shallow"

CERTIFIED_AXES = {
    "schemes": "canopy-shallow",
    "topology": "single_bottleneck,fan_in(3),shared_segment",
    "workload": "static,responsive(cubic),poisson(0.25)",
    "property_family": PROPERTY_FAMILY,
    "n_components": "50",
    "telemetry": "off",
    "training_steps": "200",
    "duration": "5.0",
}

CLASSICAL_AXES = {
    "schemes": "cubic,bbr,newreno,vegas",
    "topology": "chain(3),fan_in(3),parking_lot(3)",
    "workload": "poisson(1.0:cubic),responsive(cubic:2)",
    "telemetry": "on(10)",
    "duration": "4.0",
}


@dataclass
class OpResult:
    """One timed operation of a workload."""

    #: ``perf_counter`` readings around the timed region.
    start: float
    end: float
    #: Work items completed (training steps, cells, CLI starts).
    items: int
    digest: str
    violations: List[str] = field(default_factory=list)
    #: Units counted in attempted/failed: cells, CLI starts, or 1 training run.
    attempts: int = 0
    #: Telemetry events carried by the rows this operation computed.
    events: int = 0
    #: Bytes this operation appended to a run store.
    store_bytes: int = 0
    #: TickProfiler seconds per simulator tick phase (profiled grid runs only).
    phases: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.attempts:
            self.attempts = self.items

    @property
    def seconds(self) -> float:
        return self.end - self.start


def digest_json(payload) -> str:
    """sha256 of the canonical (sorted-key) JSON text of ``payload``."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def digest_training(training) -> str:
    """sha256 of the final actor weights and the per-window reward curve."""
    digest = hashlib.sha256()
    for array in training.agent.actor.get_weights():
        digest.update(array.tobytes())
    for name, curve in sorted(training.reward_curves().items()):
        digest.update(name.encode("utf-8"))
        digest.update(curve.tobytes())
    return digest.hexdigest()


class RowCapture:
    """Keeps the rows each ``ExperimentRegistry.finalize`` call receives.

    ``finalize`` gets every cell's canonical row in plan order, fresh or
    served from the store, so its argument is the grid's output.  Only the
    reference is kept inside the timed region; hashing happens after it.
    """

    def __init__(self) -> None:
        self.rows: Optional[List] = None
        self.original = None

    def install(self) -> None:
        from repro.harness.registry import ExperimentRegistry

        self.original = vars(ExperimentRegistry)["finalize"]
        original, capture = self.original, self

        def finalize(registry, plan, rows, *args, **kwargs):
            capture.rows = rows
            return original(registry, plan, rows, *args, **kwargs)

        ExperimentRegistry.finalize = finalize

    def restore(self) -> None:
        from repro.harness.registry import ExperimentRegistry

        if self.original is not None:
            ExperimentRegistry.finalize = self.original
            self.original = None

    def take(self) -> List:
        rows, self.rows = self.rows, None
        return rows if rows is not None else []


class Workload:
    """Base: ``load`` imports the stack, ``prepare`` sets up, ``op`` is timed."""

    name = ""
    #: What one work item is, for the human-readable summary.
    item = ""
    #: Operations of the traced run (a fixed count, so span counts repeat).
    traced_ops = 1
    #: Span the traced run opens around each operation, when no traced
    #: function of the program runs in this process.
    op_span: Optional[str] = None

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def load(self) -> None:
        """Import what set-up and the operation need (part of set-up time)."""

    def prepare(self) -> None:
        """The rest of set-up, after imports (traced as the set-up phase)."""

    def op(self, profile: bool = False) -> OpResult:
        """One timed operation; ``profile`` asks for simulator phase times."""
        raise NotImplementedError

    def attempts_per_op(self) -> int:
        return 1

    def close(self) -> None:
        """Release what set-up created."""


class TrainWorkload(Workload):
    name = "train"
    item = "training step"

    def load(self) -> None:
        from repro.harness import models

        self.models = models

    def prepare(self) -> None:
        from repro.core.config import CanopyConfig
        from repro.core.trainer import CanopyTrainer, TrainerConfig

        # Set-up builds the trainer the operation builds, so a later change
        # that moves work into construction shows in setup_s.
        CanopyTrainer(CanopyConfig.shallow(seed=self.seed), TrainerConfig(total_steps=TRAIN_STEPS))

    def op(self, profile: bool = False) -> OpResult:
        self.models.clear_model_cache()
        start = perf_counter()
        model = self.models.get_trained_model("canopy-shallow", training_steps=TRAIN_STEPS,
                                              seed=self.seed)
        end = perf_counter()
        training = model.training
        violations = []
        if training.env_steps != TRAIN_STEPS:
            violations.append(f"trained {training.env_steps} steps, asked for {TRAIN_STEPS}")
        curves = training.reward_curves()
        if not curves["total"].size or not all(
                math.isfinite(value) for curve in curves.values() for value in curve):
            violations.append("reward curve is empty or not finite")
        return OpResult(start, end, TRAIN_STEPS, digest_training(training), violations,
                        attempts=1)


class GridWorkload(Workload):
    """``REGISTRY.run("workload_stress")`` into a fresh run store per operation."""

    axes: Dict[str, str] = {}
    jobs = 1

    def load(self) -> None:
        import repro.harness.registry as registry
        from repro.harness.spec import PROPERTY_FAMILIES
        from repro.harness.store import RunStore, current_commit

        self.registry = registry
        self.store_type = RunStore
        self.n_properties = len(PROPERTY_FAMILIES[PROPERTY_FAMILY]())
        # Records are stamped with the commit, looked up once per process.
        current_commit()
        self.capture = RowCapture()
        self.capture.install()

    def overrides(self) -> Dict[str, str]:
        return dict(self.axes, seeds=str(self.seed))

    def prepare(self) -> None:
        plan = self.registry.REGISTRY.plan("workload_stress", self.overrides())
        self.cells = len(plan.tasks)
        self.registry.pretrain_models(plan.tasks)

    def _fresh_store(self):
        path = self.workdir / "store"
        shutil.rmtree(path, ignore_errors=True)
        return self.store_type(path)

    def _run(self, store, resume: bool = False, profile: bool = False):
        start = perf_counter()
        result = self.registry.REGISTRY.run("workload_stress", self.overrides(),
                                            n_jobs=self.jobs, store=store, resume=resume,
                                            profile=profile)
        return result, start, perf_counter()

    @staticmethod
    def _phases(result) -> Dict[str, float]:
        from repro.telemetry.profiler import TICK_PHASES

        report = result.get("profile")
        return {phase: report[f"{phase}_s"] for phase in TICK_PHASES} if report else {}

    def op(self, profile: bool = False) -> OpResult:
        store = self._fresh_store()
        result, start, end = self._run(store, profile=profile)
        rows = self.capture.take()
        violations = self.check(result, rows)
        outcome = OpResult(start, end, self.cells, digest_json(rows), violations,
                           events=sum(len(row.get("telemetry_events", ())) for row in rows),
                           store_bytes=store.records_path.stat().st_size,
                           phases=self._phases(result))
        shutil.rmtree(store.path, ignore_errors=True)
        return outcome

    def attempts_per_op(self) -> int:
        return self.cells

    def check(self, result, rows) -> List[str]:
        violations = []
        if len(rows) != self.cells or any(row is None for row in rows):
            violations.append(f"{len(rows)} rows for {self.cells} cells")
        if result["computed_cells"] != self.cells:
            violations.append(f"computed {result['computed_cells']} of {self.cells} cells")
        return violations

    def close(self) -> None:
        self.capture.restore()


class CertifiedGridWorkload(GridWorkload):
    name = "certified_grid"
    item = "certified cell"
    axes = CERTIFIED_AXES

    def check(self, result, rows) -> List[str]:
        violations = super().check(result, rows)
        for row in rows:
            if row is None:
                continue
            if not 0.0 <= row["qcsat"] <= 1.0:
                violations.append(f"qcsat {row['qcsat']} outside [0, 1] in {row['topology']}")
            if row["n_certificates"] != row["n_decisions"] * self.n_properties:
                violations.append(f"{row['n_certificates']} certificates for "
                                  f"{row['n_decisions']} decisions x {self.n_properties} "
                                  f"properties in {row['topology']}")
        return violations


class ClassicalChurnWorkload(GridWorkload):
    name = "classical_churn"
    item = "classical cell"
    axes = CLASSICAL_AXES
    jobs = POOL_JOBS

    def check(self, result, rows) -> List[str]:
        violations = super().check(result, rows)
        for row in rows:
            if row is not None and not row.get("telemetry_events"):
                violations.append(f"no telemetry events in {row['scheme']} {row['topology']}")
        return violations


class ResumeWorkload(GridWorkload):
    name = "resume"
    item = "cached cell"
    axes = CLASSICAL_AXES
    jobs = POOL_JOBS
    traced_ops = 20

    def prepare(self) -> None:
        super().prepare()
        self.store_path = self.workdir / "resume-store"
        shutil.rmtree(self.store_path, ignore_errors=True)
        result, _, _ = self._run(self.store_type(self.store_path))
        fresh = self.capture.take()
        self.fresh_digest = digest_json(fresh)
        self.fresh_violations = GridWorkload.check(self, result, fresh)

    def op(self, profile: bool = False) -> OpResult:
        result, start, end = self._run(self.store_type(self.store_path), resume=True,
                                       profile=profile)
        rows = self.capture.take()
        digest = digest_json(rows)
        violations = list(self.fresh_violations)
        if result["cached_cells"] != self.cells or result["computed_cells"] != 0:
            violations.append(f"resume served {result['cached_cells']} of {self.cells} cells "
                              f"from the store and computed {result['computed_cells']}")
        if digest != self.fresh_digest:
            violations.append("resumed rows differ from the fresh rows")
        return OpResult(start, end, self.cells, digest, violations)


class CliStartWorkload(Workload):
    name = "cli_start"
    item = "CLI start"
    traced_ops = 5
    op_span = "cli.process"

    def load(self) -> None:
        root = Path(__file__).resolve().parents[1]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.cwd = root

    def prepare(self) -> None:
        # One untimed start warms the page cache the timed starts read.
        self.op()

    def op(self, profile: bool = False) -> OpResult:
        start = perf_counter()
        done = subprocess.run([sys.executable, "-m", "repro", "--help"], cwd=self.cwd,
                              env=self.env, capture_output=True, timeout=60)
        end = perf_counter()
        violations = []
        if done.returncode != 0 or b"usage:" not in done.stdout:
            violations.append(f"repro --help exited {done.returncode}: "
                              f"{done.stderr.decode(errors='replace')[-300:]}")
        return OpResult(start, end, 1, hashlib.sha256(done.stdout).hexdigest(), violations)


WORKLOADS = {workload.name: workload for workload in (
    TrainWorkload, CertifiedGridWorkload, ClassicalChurnWorkload, ResumeWorkload,
    CliStartWorkload)}
