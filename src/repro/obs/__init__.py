"""The fleet observability plane: metric frames, rollups, HTTP, retention.

Everything in this package is *wall-clock observability* layered over the
serve/run subsystems, behind a hard wall from the deterministic row/journal
contract: nothing here ever writes ``records.jsonl`` or ``leases.jsonl``,
touches cell keys, or alters a metrics row — serial == pooled == served ==
resumed stays byte-identical with observability fully on or fully off
(``benchjson --store-diff`` enforced in CI).  Four layers:

* :mod:`repro.obs.metrics` — the metric *frame*: a compact cumulative-counter
  snapshot (cells/s, ticks, :class:`~repro.telemetry.profiler.TickProfiler`
  phase seconds, telemetry-event counts) each worker samples on an interval
  and pushes over the existing worker→daemon queue; the daemon appends frames
  to ``metrics.jsonl`` next to the lease journal.
* :mod:`repro.obs.aggregate` — folds frames into per-worker and fleet-wide
  rollups (p50/p99 per-tick phase latencies, throughput trend) and merges
  per-cell profiler reports into the ``--profile`` phase table.
* :mod:`repro.obs.http` — the stdlib HTTP surface inside the serve daemon
  (``serve --http PORT``): ``GET /status`` (the lease-journal replay as
  JSON), ``GET /metrics`` (Prometheus text exposition), ``GET /cells/<key>``
  (one record plus its ``tele_*`` summary).
* :mod:`repro.obs.retention` — store compaction
  (``python -m repro.harness.store compact``): drop raw event traces by age
  or size budget (never ``tele_*`` summaries, never counterexample-referenced
  cells), downsample old metric frames into rollup segments, and journal
  every compaction so retention is auditable.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".aggregate": ("fleet_rollup", "format_phase_table", "merge_phase_reports"),
    ".metrics": ("METRIC_FRAME_SCHEMA", "METRICS_FILENAME", "MetricsJournal",
                 "MetricsSampler", "validate_frame"),
    ".retention": ("RetentionPolicy", "compact_store"),
})
