"""Falsification objectives: what counts as "broken", scored from result rows.

An :class:`Objective` maps one completed cell's row — the plain dict a
:class:`~repro.harness.store.RunRecord` carries, including the ``tele_*``
telemetry summary columns when the cell ran traced — to a scalar *violation
score*.  Higher is more broken; a cell is a counterexample when the score
exceeds the objective's threshold.  Scores are pure functions of the row, so
the search can re-score cached rows without re-running anything, and the
``--check`` regression gate can re-assert a promoted counterexample from a
fresh replay.

Built-in objectives
-------------------

``qc_violation``
    QC_sat shortfall of a certified cell: ``1 - qcsat``.  Finds scenarios
    where the certificate confidence itself collapses.

``qc_gap``
    The certified-vs-empirical safety gap: high certificate confidence
    *while* the run empirically drops packets.  A cell scores positive only
    when QC_sat exceeds what the observed loss rate warrants — the
    "certified safe but actually breaking" cells the paper's story depends
    on never existing.

``fallback_storm``
    Longest contiguous runtime-monitor fallback episode (seconds, from
    ``tele_fallback_longest_s``; falls back to ``fallback_fraction`` for
    untraced rows).  Finds scenarios that pin the monitor into its fallback
    controller.

``loss_burst``
    Plain empirical loss rate above a threshold.  Scheme-agnostic (works for
    classical schemes — the cheap objective CI smoke campaigns use).

``conservation``
    Worst packet-conservation imbalance over the run's telemetry snapshots:
    ``|acked + lost + queued + in-transit + pending - sent|``.  Positive
    scores mean the simulator itself leaked or minted packets — a harness
    bug, which is exactly why it is falsifiable.

``requires`` declares what a candidate cell must be shaped like for the
objective to be measurable (``certify`` — certified learned cell, ``monitor``
— runtime-monitored learned cell, ``telemetry`` — event trace enabled);
:func:`repro.falsify.scenario.prepare_template` reshapes the experiment's
template cell accordingly before the search starts.

This module imports no NumPy, so it also holds the campaign names the CLI
parser lists: :data:`STRATEGY_NAMES` and :data:`DEFAULT_COUNTEREXAMPLES_DIR`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional

__all__ = ["DEFAULT_COUNTEREXAMPLES_DIR", "OBJECTIVES", "Objective", "STRATEGY_NAMES",
           "objective_names", "resolve_objective"]

#: The search strategies of :mod:`repro.falsify.search`, ``random`` then
#: ``evolve`` (the keys of its ``STRATEGIES``).
STRATEGY_NAMES = ("random", "evolve")

#: Where ``python -m repro falsify --check`` looks when given no directory.
DEFAULT_COUNTEREXAMPLES_DIR = Path("counterexamples")


def _float(row: Dict, column: str, default: float = 0.0) -> float:
    value = row.get(column, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        return default


@dataclass(frozen=True)
class Objective:
    """One falsification objective: a violation score plus its threshold."""

    name: str
    description: str
    score: Callable[[Dict], float]
    threshold: float
    requires: FrozenSet[str] = field(default_factory=frozenset)

    def __call__(self, row: Dict) -> float:
        return float(self.score(row))

    def violated(self, row: Dict) -> bool:
        """Whether this row is a counterexample (score strictly above threshold)."""
        return self(row) > self.threshold


# ---------------------------------------------------------------------- #
# Score functions
# ---------------------------------------------------------------------- #
def _qc_violation(row: Dict) -> float:
    return 1.0 - _float(row, "qcsat", 1.0)


def _qc_gap(row: Dict) -> float:
    # loss_rate is mapped onto [0, 1] "empirical badness" (5% loss saturates);
    # the gap is how much certificate confidence exceeds what the empirical
    # run warrants.  qcsat=0.98 with 5% loss scores 0.98; qcsat=0.98 with no
    # loss scores ~0.
    badness = min(1.0, _float(row, "loss_rate") * 20.0)
    return _float(row, "qcsat", 0.0) - (1.0 - badness)


def _fallback_storm(row: Dict) -> float:
    if "tele_fallback_longest_s" in row:
        return _float(row, "tele_fallback_longest_s")
    return _float(row, "fallback_fraction")


def _loss_burst(row: Dict) -> float:
    return _float(row, "loss_rate")


def _conservation(row: Dict) -> float:
    worst = 0.0
    for event in row.get("telemetry_events") or []:
        if event.get("kind") != "conservation":
            continue
        queued = sum(float(occupancy) for occupancy in (event.get("hops") or {}).values())
        balance = (_float(event, "acked") + _float(event, "lost") + queued
                   + _float(event, "transit") + _float(event, "pending")
                   - _float(event, "sent"))
        worst = max(worst, abs(balance))
    return worst


#: The built-in objective registry (name → :class:`Objective`).
OBJECTIVES: Dict[str, Objective] = {
    objective.name: objective
    for objective in (
        Objective(
            name="qc_violation",
            description="QC_sat shortfall of a certified cell (1 - qcsat)",
            score=_qc_violation,
            threshold=0.05,
            requires=frozenset({"certify"}),
        ),
        Objective(
            name="qc_gap",
            description="certified-vs-empirical gap: high QC_sat while the run drops packets",
            score=_qc_gap,
            threshold=0.0,
            requires=frozenset({"certify"}),
        ),
        Objective(
            name="fallback_storm",
            description="longest contiguous runtime-monitor fallback episode (seconds)",
            score=_fallback_storm,
            threshold=0.0,
            requires=frozenset({"monitor", "telemetry"}),
        ),
        Objective(
            name="loss_burst",
            description="empirical loss rate above threshold (scheme-agnostic)",
            score=_loss_burst,
            threshold=0.05,
            requires=frozenset(),
        ),
        Objective(
            name="conservation",
            description="worst packet-conservation imbalance across telemetry snapshots",
            score=_conservation,
            threshold=1e-6,
            requires=frozenset({"telemetry"}),
        ),
    )
}


def objective_names() -> List[str]:
    return sorted(OBJECTIVES)


def resolve_objective(name: str, threshold: Optional[float] = None) -> Objective:
    """Look up an objective by name, optionally overriding its threshold."""
    try:
        objective = OBJECTIVES[name]
    except KeyError:
        raise ValueError(f"unknown objective {name!r}; "
                         f"known: {', '.join(objective_names())}") from None
    if threshold is not None:
        objective = replace(objective, threshold=float(threshold))
    return objective
