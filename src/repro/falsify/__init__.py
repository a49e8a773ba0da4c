"""Falsification: adversarial search for scenarios where the guarantees break.

The harness can *run* any point of the scenario space (spec × topology ×
workload × trace × seed); this package *searches* that space for the points
where a certified model's story falls apart — certified-safe cells that drop
packets, runtime-monitor fallback storms, QC_sat collapses, conservation
drift — then reduces each find to a minimal replayable scenario and promotes
it into a regression store the CI replays forever after.

Lifecycle (one campaign)::

    objective   what "broken" means, scored from RunRecord rows   (objective)
    search      budgeted mutation search over scenario cells      (search)
    shrink      delta-debug the hits down to minimal cells        (shrink)
    promote     counterexamples/ regression store + --check gate  (promote)
    report      human/bench summary of a campaign store           (report)

Everything flows through the existing machinery: candidates are
:class:`~repro.harness.parallel.ExperimentTask` mutations of a registered
experiment's first cell (``REGISTRY.plan``), evaluated by
:func:`~repro.harness.parallel.run_task` under a
:class:`~repro.harness.parallel.ParallelRunner`, persisted as
:class:`~repro.harness.store.RunRecord`\\ s — so campaigns are resumable,
shardable via ``--jobs``, and byte-identically replayable from the campaign
seed (all RNG derives via :func:`repro.seeding.derive_seed`).

Front door: ``python -m repro falsify <experiment> --objective qc_gap
--budget N --store DIR [--strategy random|evolve] [--jobs N]``, then
``python -m repro falsify report <store>`` and ``python -m repro falsify
--check <counterexamples>``.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".objective": ("OBJECTIVES", "Objective", "resolve_objective"),
    ".search": ("STRATEGIES", "CampaignConfig", "run_campaign"),
    ".promote": ("check_counterexamples", "load_counterexamples"),
    ".shrink": ("shrink_counterexample",),
})
