"""Structured simulation telemetry: events, logging, summaries, profiling.

The observability spine of the reproduction (ISSUE 7), in four layers:

* :mod:`repro.telemetry.events` — the :class:`EventTrace` recorder: schema'd,
  sim-time-stamped, append-only event records emitted from the hot seams
  (simulator conservation/drops, QC monitor decisions and fallback storms,
  workload arrivals/departures, transit high-water marks).  No wall clock,
  so serial == sharded == resumed traces are byte-identical.
* :mod:`repro.telemetry.summary` — reduces a trace to canonical ``tele_*``
  metric rows (fallback episodes, per-hop queue-delay percentiles, drop
  attribution, churn overlap) stored in each RunRecord and folded into
  ``BENCH_ci.json``.
* :mod:`repro.telemetry.profiler` — wall-clock per-phase tick timing
  (:class:`TickProfiler`), reported separately from sim events so the
  determinism guarantees are untouched.
* :mod:`repro.telemetry.log` — the structured ``repro`` logger and the one
  sanctioned :func:`~repro.telemetry.log.console` emitter behind the CLI
  (ruff bans bare ``print`` everywhere else in ``src/repro/``).

Enablement rides on ``EvaluationSettings.telemetry`` (``off`` | ``on`` |
``on(stride)``); disabled telemetry is the default and keeps every hot path
and every existing store key bit-identical.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".events": ("DEFAULT_STRIDE", "DEFAULT_TELEMETRY", "EVENT_KINDS", "EVENT_SCHEMA",
                "EventTrace", "TelemetryConfig", "canonical_telemetry", "parse_telemetry",
                "validate_events"),
    ".profiler": ("TICK_PHASES", "TickProfiler", "activate_profiler", "active_profiler",
                  "deactivate_profiler"),
    ".render": ("EVENT_GROUPS", "render_summary", "render_timeline"),
    ".summary": ("fallback_episodes", "summarize_events"),
})
