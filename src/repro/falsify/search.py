"""Budgeted falsification search over scenario mutations.

A campaign starts from a registered experiment's template cell (every
sequence axis collapsed to its first value, ``--set`` overrides applied
through the registry's own coercion), reshaped by
:func:`~repro.falsify.scenario.prepare_template` for the objective, and then
spends its budget proposing mutated cells through one of two strategies
behind a single ``propose`` interface:

``random``
    Seeded random baseline: every candidate is 1–3 fresh mutations of the
    template.  The control arm every smarter strategy must beat.

``evolve``
    Evolutionary hill-climb: candidates mutate the worst-scoring (most
    violating) cells seen so far — an elite pool of the top scorers — with an
    ε of fresh template mutations for exploration.

Determinism contract (pinned by tests and the CI smoke job): the candidate
sequence is a pure function of the campaign seed (all RNG derives via
:func:`repro.seeding.derive_seed`), proposals are generated in fixed-size
*generations* whose membership never depends on ``--jobs``, and the journal
(``campaign.jsonl``: one header, one line per candidate, one line per shrink
attempt, one per promotion) is written from canonical rows only — so serial,
sharded, and fully-cached re-runs of the same campaign produce byte-identical
journals.  Every evaluated cell is persisted to the campaign's
:class:`~repro.harness.store.RunStore`, which doubles as the resume cache.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.falsify.objective import STRATEGY_NAMES, Objective
from repro.falsify.promote import promote_counterexample
from repro.falsify.scenario import mutate_task, prepare_template
from repro.falsify.shrink import shrink_counterexample
from repro.harness.parallel import ExperimentTask, ParallelRunner, run_task
from repro.harness.registry import REGISTRY, pretrain_models
from repro.harness.store import RunRecord, RunStore, canonical_json
from repro.seeding import derive_seed
from repro.telemetry import log

__all__ = [
    "Candidate",
    "CampaignConfig",
    "EvolveStrategy",
    "JOURNAL_FILENAME",
    "RandomStrategy",
    "STRATEGIES",
    "SUMMARY_FILENAME",
    "resolve_strategy",
    "run_campaign",
]

#: The deterministic campaign journal (header + candidate/shrink/promote lines).
JOURNAL_FILENAME = "campaign.jsonl"

#: Campaign statistics (wall-clock, throughput) — deliberately *outside* the
#: journal so byte-identity claims never meet a timestamp.
SUMMARY_FILENAME = "campaign_summary.json"

#: Candidates proposed per generation.  Fixed independently of ``--jobs`` so
#: what the strategy sees between proposals (generation boundaries) — and
#: hence the candidate sequence — is identical serial vs sharded.
GENERATION_SIZE = 6


@dataclass
class Candidate:
    """One proposed cell: its task, provenance, and (once evaluated) score."""

    index: int
    generation: int
    task: ExperimentTask
    key: str
    actions: List[str]
    parent: Optional[str] = None
    score: Optional[float] = None
    violated: bool = False


# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #
class RandomStrategy:
    """Seeded random baseline: fresh 1–3-step mutations of the template."""

    name = STRATEGY_NAMES[0]

    def propose(self, rng, count: int, template: ExperimentTask,
                scored: Sequence[Candidate]) -> List[Tuple[ExperimentTask, List[str], Optional[str]]]:
        proposals = []
        for _ in range(count):
            task, actions = mutate_task(template, rng, 1 + int(rng.integers(3)))
            proposals.append((task, actions, None))
        return proposals


class EvolveStrategy:
    """Evolutionary hill-climb: mutate the worst-scoring cells seen so far."""

    name = STRATEGY_NAMES[1]
    #: Elite pool size (top scorers by violation score, ties by discovery order).
    elite_size = 4
    #: Fraction of proposals that explore fresh template mutations instead.
    explore = 0.25

    def propose(self, rng, count: int, template: ExperimentTask,
                scored: Sequence[Candidate]) -> List[Tuple[ExperimentTask, List[str], Optional[str]]]:
        elites = sorted(scored, key=lambda c: (-c.score, c.index))[:self.elite_size]
        proposals = []
        for _ in range(count):
            if not elites or rng.random() < self.explore:
                task, actions = mutate_task(template, rng, 1 + int(rng.integers(3)))
                proposals.append((task, actions, None))
            else:
                parent = elites[int(rng.integers(len(elites)))]
                task, actions = mutate_task(parent.task, rng, 1 + int(rng.integers(2)))
                proposals.append((task, actions, parent.key))
        return proposals


STRATEGIES = {strategy.name: strategy for strategy in (RandomStrategy, EvolveStrategy)}


def resolve_strategy(name: str):
    try:
        return STRATEGIES[name]()
    except KeyError:
        raise ValueError(f"unknown search strategy {name!r}; "
                         f"known: {', '.join(sorted(STRATEGIES))}") from None


# ---------------------------------------------------------------------- #
# Campaign
# ---------------------------------------------------------------------- #
@dataclass
class CampaignConfig:
    """One falsification campaign, fully declarative (and hence replayable)."""

    experiment: str
    objective: Objective
    budget: int = 40
    strategy: str = "evolve"
    campaign_seed: int = 1
    jobs: int = 1
    generation_size: int = GENERATION_SIZE
    overrides: Dict[str, object] = field(default_factory=dict)
    #: Monitor veto threshold installed on the template for ``monitor``
    #: objectives (ignored when the experiment already sets one).
    monitor_threshold: float = 0.8
    #: Telemetry spec installed for ``telemetry`` objectives.
    telemetry: str = "on(10)"
    #: How many distinct violating cells to shrink and promote.
    max_counterexamples: int = 3
    #: Evaluation budget of each shrink (attempted reductions).
    shrink_budget: int = 48
    #: Regression store for promoted counterexamples (default:
    #: ``<campaign store>/counterexamples``).
    promote_to: Optional[Path] = None


class _Evaluator:
    """Store-backed, deduplicating cell evaluation shared by search and shrink.

    Rows live in the campaign's RunStore keyed by ``cell_key()``; a key
    already stored (this run or a previous one — that is what makes campaigns
    resumable) is never recomputed.  Fresh rows are canonicalized before
    scoring so cached and computed paths score identical bytes.
    """

    def __init__(self, store: RunStore, experiment: str, jobs: int):
        self.store = store
        self.experiment = experiment
        self.rows: Dict[str, Dict] = {key: record.row
                                      for key, record in store.load().items()}
        self.runner = ParallelRunner(jobs)
        self.producer = ("falsify-serial" if self.runner.n_jobs <= 1
                         else "falsify-pool")
        self.computed = 0
        self.cached = 0
        # Campaigns stream the same metric frames the serve daemon does (one
        # per computed cell, cumulative counters) into the campaign store's
        # metrics.jsonl — observability only, never part of the rows.
        # Imported lazily so search stays importable without the obs plane.
        from repro.obs.metrics import MetricsJournal, MetricsSampler

        self.sampler = MetricsSampler("falsify")
        self.metrics = MetricsJournal(store.path)

    def evaluate(self, tasks: Sequence[ExperimentTask]) -> List[Dict]:
        pending: List[ExperimentTask] = []
        seen = set()
        for task in tasks:
            key = task.cell_key()
            if key in self.rows:
                self.cached += 1
            elif key not in seen:
                seen.add(key)
                pending.append(task)

        def on_result(index: int, task: ExperimentTask, row: Dict) -> None:
            row = canonical_json(row)
            self.rows[task.cell_key()] = row
            self.store.put(RunRecord.for_task(
                task, row, experiment=f"falsify:{self.experiment}",
                producer=self.producer))
            self.sampler.note_cell_done(row)
            self.metrics.append(self.sampler.sample(current_key=task.cell_key()))

        if pending:
            self.runner.map(run_task, pending, on_result=on_result)
            self.computed += len(pending)
        return [self.rows[task.cell_key()] for task in tasks]

    def evaluate_one(self, task: ExperimentTask) -> Dict:
        return self.evaluate([task])[0]


def _campaign_template(config: CampaignConfig) -> ExperimentTask:
    """The experiment's first cell under the overrides, reshaped for the objective."""
    # Planning the whole override grid first rejects one that repeats a cell.
    resolved = REGISTRY.plan(config.experiment, config.overrides).axes
    collapsed = {axis: value[:1] if isinstance(value, tuple) else value
                 for axis, value in resolved.items()}
    plan = REGISTRY.plan(config.experiment, collapsed)
    if not plan.tasks:
        raise ValueError(f"experiment {config.experiment!r} built no tasks to seed "
                         "the falsification template from")
    template = plan.tasks[0]
    if not isinstance(template, ExperimentTask):
        raise ValueError(f"experiment {config.experiment!r} builds "
                         f"{type(template).__name__} cells; falsification "
                         "campaigns need ExperimentTask grids")
    return prepare_template(template, config.objective,
                            monitor_threshold=config.monitor_threshold,
                            telemetry=config.telemetry)


def run_campaign(config: CampaignConfig, store: RunStore) -> Dict:
    """Run one falsification campaign end to end; returns the summary dict.

    Search, shrink, and promotion all journal into
    ``<store>/campaign.jsonl`` (deterministic) and persist cells into the
    store (resumable); wall-clock statistics land in
    ``<store>/campaign_summary.json`` and the returned summary.
    """
    objective = config.objective
    strategy = resolve_strategy(config.strategy)
    template = _campaign_template(config)
    pretrain_models([template])
    rng = np.random.default_rng(derive_seed(
        config.campaign_seed, "falsify", config.experiment,
        objective.name, strategy.name))
    evaluator = _Evaluator(store, config.experiment, config.jobs)
    log.info("falsify_start", logger="falsify", experiment=config.experiment,
             objective=objective.name, strategy=strategy.name,
             budget=config.budget, template=template.cell_key())

    start = time.perf_counter()
    candidates: List[Candidate] = []
    counterexamples: List[Dict] = []
    promote_dir = Path(config.promote_to) if config.promote_to is not None \
        else store.path / "counterexamples"
    journal_path = store.path / JOURNAL_FILENAME
    with journal_path.open("w") as journal:

        def emit(payload: Dict) -> None:
            journal.write(json.dumps(payload, sort_keys=True) + "\n")

        emit({"phase": "campaign", "experiment": config.experiment,
              "objective": objective.name, "threshold": objective.threshold,
              "strategy": strategy.name, "budget": config.budget,
              "campaign_seed": config.campaign_seed,
              "generation_size": config.generation_size,
              "template": template.cell_key()})

        generation = 0
        while len(candidates) < config.budget:
            count = min(config.generation_size, config.budget - len(candidates))
            scored = [candidate for candidate in candidates
                      if candidate.score is not None]
            proposals = strategy.propose(rng, count, template, scored)
            batch = [Candidate(index=len(candidates) + offset, generation=generation,
                               task=task, key=task.cell_key(), actions=actions,
                               parent=parent)
                     for offset, (task, actions, parent) in enumerate(proposals)]
            rows = evaluator.evaluate([candidate.task for candidate in batch])
            for candidate, row in zip(batch, rows):
                candidate.score = objective(row)
                candidate.violated = objective.violated(row)
                emit({"phase": "candidate", "index": candidate.index,
                      "generation": candidate.generation, "key": candidate.key,
                      "actions": candidate.actions, "parent": candidate.parent,
                      "score": candidate.score, "violated": candidate.violated})
            candidates.extend(batch)
            log.info("falsify_generation", logger="falsify", generation=generation,
                     candidates=len(candidates),
                     violations=sum(candidate.violated for candidate in candidates))
            generation += 1

        violations = [candidate for candidate in candidates if candidate.violated]
        # Shrink the worst few *distinct* violating cells (score desc, then
        # discovery order for determinism among ties).
        targets: List[Candidate] = []
        seen_keys = set()
        for candidate in sorted(violations, key=lambda c: (-c.score, c.index)):
            if candidate.key in seen_keys:
                continue
            seen_keys.add(candidate.key)
            targets.append(candidate)
            if len(targets) >= config.max_counterexamples:
                break

        promoted_keys = set()
        for candidate in targets:
            shrunk, trail = shrink_counterexample(
                candidate.task, objective, evaluator.evaluate_one,
                emit=emit, budget=config.shrink_budget)
            # Distinct violations can shrink to the same minimal cell; promote
            # (and journal) each minimal cell once per campaign.
            if shrunk.cell_key() in promoted_keys:
                continue
            promoted_keys.add(shrunk.cell_key())
            row = evaluator.evaluate_one(shrunk)
            entry = promote_counterexample(
                promote_dir, shrunk, row,
                experiment=config.experiment, objective=objective,
                score=objective(row),
                source={"key": candidate.key, "index": candidate.index,
                        "score": candidate.score, "actions": candidate.actions,
                        "shrink_attempts": len(trail),
                        "shrink_accepted": sum(step["accepted"] for step in trail)})
            counterexamples.append(entry)
            emit({"phase": "promote", "id": entry["id"], "key": entry["key"],
                  "from": candidate.key, "score": entry["score"],
                  "shrink_attempts": len(trail),
                  "shrink_accepted": sum(step["accepted"] for step in trail)})

    wall_clock_s = time.perf_counter() - start
    summary = {
        "experiment": config.experiment,
        "objective": objective.name,
        "threshold": objective.threshold,
        "strategy": strategy.name,
        "budget": config.budget,
        "campaign_seed": config.campaign_seed,
        "candidates": len(candidates),
        "unique_cells": len({candidate.key for candidate in candidates}),
        "violations_found": len(violations),
        "best_score": max((candidate.score for candidate in candidates), default=0.0),
        "counterexamples": [{"id": entry["id"], "key": entry["key"],
                             "score": entry["score"], "source": entry["source"]}
                            for entry in counterexamples],
        "computed_cells": evaluator.computed,
        "cached_cells": evaluator.cached,
        "wall_clock_s": wall_clock_s,
        "falsify_cells_per_sec": (evaluator.computed / wall_clock_s
                                  if wall_clock_s > 0 else 0.0),
        "store": str(store.path),
        "counterexample_store": str(promote_dir),
        "journal": str(journal_path),
    }
    (store.path / SUMMARY_FILENAME).write_text(
        json.dumps(canonical_json(summary), indent=2, sort_keys=True) + "\n")
    log.info("falsify_done", logger="falsify", experiment=config.experiment,
             violations=len(violations), counterexamples=len(counterexamples),
             computed=evaluator.computed, cached=evaluator.cached,
             wall_clock_s=wall_clock_s)
    return summary
