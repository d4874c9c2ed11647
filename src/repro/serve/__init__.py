"""Simulation-as-a-service: persistent daemon, fair-share queue, client.

The one-shot orchestration of :mod:`repro.exp` (``repro grid`` and
friends) builds a backend, drains a spec list and exits.  This package
keeps the pool alive instead::

    repro serve --listen 127.0.0.1:7070 --workers 4 --cache-dir /shared/cache
    repro submit --connect 127.0.0.1:7070 --benchmarks swaptions --threads 2,4
    repro watch <job> --connect 127.0.0.1:7070

* :class:`~repro.serve.daemon.SimulationService` — the daemon: accepts
  protocol-v5 ``submit``/``status``/``watch``/``cancel``/``stats`` frames,
  journals jobs for crash recovery, deduplicates specs against the store
  and across in-flight jobs, and reports queue/store/dispatch statistics.
* :class:`~repro.serve.queue.FairShareQueue` — multi-tenant scheduling
  (weighted fair queueing, per-tenant in-flight caps, starvation-free
  priority aging) behind the exact ``asyncio.Queue`` surface the dispatch
  slots of :mod:`repro.exp.distributed` already consume.
* :class:`~repro.serve.client.ServiceClient` — blocking client library;
  one connection per call, so watchers can drop and re-attach freely.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.serve.queue": ["AGING_TICKS", "FairShareQueue", "ServiceJob"],
    "repro.serve.daemon": [
        "JobRecord",
        "SimulationService",
        "job_id_for",
        "results_digest",
        "store_digest",
    ],
    "repro.serve.client": ["ServiceClient", "ServiceError"],
})
