"""Evaluation harness regenerating the paper's tables and figures.

* :mod:`repro.harness.models` — trains (and caches) the Canopy / Orca models
  used across experiments.
* :mod:`repro.harness.kinds` — the model kinds and default training budget,
  NumPy-free so the CLI parser can list them.
* :mod:`repro.harness.evaluate` — runs a congestion-control scheme over a
  trace and computes the empirical metrics and QC_sat.
* :mod:`repro.harness.experiments` — the evaluation's experiments: every
  grid figure (5, 7, 9, 10, 12–15 and the topology/workload grids) is a
  registry experiment, the rest (1, 2, 6/8, 11, 16, 17, Table 4) are plain
  driver functions.
* :mod:`repro.harness.spec` — :class:`~repro.harness.spec.ScenarioSpec`, the
  declarative scenario identity (scheme × trace × topology × seed × model ×
  property family × certify) with canonical string/JSON round-trips — the
  single currency flowing through tasks, shard keys, run records, and CLI
  flags.
* :mod:`repro.harness.registry` — the declarative experiment registry
  (named axes → grid expansion → per-cell runner → aggregators) behind
  ``python -m repro run``.
* :mod:`repro.harness.store` — the resumable
  :class:`~repro.harness.store.RunStore` writing one provenance-stamped
  :class:`~repro.harness.store.RunRecord` per completed cell.
* :mod:`repro.harness.parallel` — :class:`~repro.harness.parallel.ParallelRunner`,
  which shards (scheme × trace × seed) experiment grids across a process pool
  with deterministic seeding and in-order merged reporting.
* :mod:`repro.harness.fairness` — the multi-flow friendliness and fairness
  experiments (Figures 14 and 15).
* :mod:`repro.harness.reporting` — plain-text rendering of result tables.
"""

from repro.lazy import lazy_exports

# Names resolve on first access, so importing one harness module (or the CLI)
# does not import the whole evaluation stack.  REGISTRY in turn imports
# repro.harness.experiments on first lookup.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".checkpoints": ("SavedModel", "save_model", "load_model"),
    ".evaluate": ("EvaluationSettings", "QCSatResult", "SchemeResult", "evaluate_qcsat",
                  "run_scheme_on_trace", "run_schemes_sharded", "scheme_factory"),
    ".models": ("TrainedModel", "get_trained_model", "clear_model_cache"),
    ".parallel": ("ExperimentTask", "GridResult", "ParallelRunner"),
    "repro.seeding": ("derive_seed",),
    ".spec": ("ScenarioSpec",),
    ".store": ("RunRecord", "RunStore"),
    ".registry": ("REGISTRY",),
})
