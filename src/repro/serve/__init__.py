"""Fleet-scale experiment serving: lease-based scheduling over the run store.

The package grows :class:`~repro.harness.store.RunStore` + the experiment
registry from a single-machine process pool into a small serving system:

* :mod:`repro.serve.lease` — cell leases with heartbeat-renewed TTLs, the
  in-flight dedupe table, and the append-only ``leases.jsonl`` journal;
* :mod:`repro.serve.worker` — the disposable worker process (compute a
  leased cell, heartbeat while doing so, hand the row back; never writes);
* :mod:`repro.serve.daemon` — the scheduler that owns the store, leases
  cells, reclaims them from dead/wedged workers, respawns the fleet, and
  streams completed records to disk;
* :mod:`repro.serve.status` — `python -m repro status <store>`, replayed
  from the journal while the daemon runs.

Entry points: ``python -m repro serve <experiment> --store DIR --workers N``
and :func:`repro.serve.daemon.serve_experiment`.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".lease": ("LEASES_FILENAME", "Lease", "LeaseJournal", "LeaseTable"),
    ".status": ("format_status", "read_status"),
    ".daemon": ("serve_experiment",),
})
