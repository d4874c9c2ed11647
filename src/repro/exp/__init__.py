"""Unified experiment orchestration.

Every evaluation in this repository — accuracy grids, parameter sweeps,
variation analyses, benchmark harnesses, the CLI — is a set of independent
experiments: simulate one workload on one architecture with one thread count
under one sampling configuration.  This package is the single substrate that
describes, schedules, executes and caches those experiments:

* :mod:`repro.exp.spec` — :class:`ExperimentSpec`, a frozen, hashable,
  JSON-serialisable experiment descriptor with a stable content key,
  :class:`ExperimentResult`, its serialisable outcome, and
  :class:`ExperimentFailure`, the serialisable record of a spec that raised,
* :mod:`repro.exp.backends` — pluggable execution backends
  (:class:`SerialBackend`, :class:`ProcessPoolBackend`) and the
  :func:`run_experiments` driver with automatic baseline deduplication and
  per-spec failure isolation,
* :mod:`repro.exp.distributed` — :class:`AsyncWorkerBackend`, an asyncio
  supervisor dispatching specs to ``repro.exp.worker`` subprocesses over a
  length-prefixed JSON frame protocol (:mod:`repro.exp.protocol`), with
  heartbeats, bounded retry/requeue on worker death, graceful cancellation
  and batched dispatch (``batch=``: several specs per ``run_batch`` frame,
  per-spec result acks, adaptive sizing via :class:`AdaptiveBatchSizer`),
* :mod:`repro.exp.hosts` — :class:`MultiHostBackend`, the multi-host
  transport on top of it: a TCP listener (:class:`HostPool`) accepting
  connect-back workers launched locally or via SSH, per-host worker
  budgets, host-level quarantine of crash-looping machines and zlib frame
  compression for high-latency links,
* :mod:`repro.exp.store` — the persistent on-disk :class:`ResultStore`
  (content-hash keyed, shard-per-key-prefix, advisory file locking for
  concurrent multi-process writers, size-bounded LRU compaction with
  pinning and hit/miss/eviction counters for the service daemon) and its
  in-memory sibling.

Typical use::

    from repro.exp import AsyncWorkerBackend, ExperimentSpec, ResultStore, run_experiments
    from repro.core.config import lazy_config

    specs = [
        ExperimentSpec("cholesky", num_threads=t, scale=0.05, config=lazy_config())
        for t in (8, 16, 32, 64)
    ]
    specs += [spec.baseline() for spec in specs]       # shared detailed runs
    results = run_experiments(
        specs,
        backend=AsyncWorkerBackend(num_workers=4),
        store=ResultStore("~/.cache/repro"),
    )

The names above are imported lazily: ``from repro.exp import ResultStore``
loads the store and the spec layer, not asyncio or the transports, and
``from repro.exp import AsyncWorkerBackend`` loads those only then.  So a
serial ``repro grid`` never imports :mod:`repro.exp.distributed`,
:mod:`repro.exp.hosts` or the worker protocol.
"""

from repro._lazy import lazy_exports

#: Backend names accepted by :func:`make_named_backend` and the CLI.  Defined
#: here, not in :mod:`repro.exp.backends`, so the CLI parser can read them
#: without loading the simulation stack.
BACKEND_NAMES = ("auto", "serial", "pool", "async", "multihost")

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.exp.spec": ["ExperimentSpec", "ExperimentResult", "ExperimentFailure"],
    "repro.exp.backends": [
        "ExperimentExecutionError",
        "ExecutionBackend",
        "SerialBackend",
        "ProcessPoolBackend",
        "parse_batch",
        "make_named_backend",
        "run_experiments",
    ],
    "repro.exp.distributed": ["AsyncWorkerBackend", "AdaptiveBatchSizer"],
    "repro.exp.hosts": [
        "MultiHostBackend",
        "HostPool",
        "HostSpec",
        "parse_hosts",
        "parse_listen",
    ],
    "repro.exp.runner": ["run_spec", "get_trace"],
    "repro.exp.store": [
        "ResultStore",
        "MemoryResultStore",
        "DirectoryLayout",
        "default_store",
        "CACHE_DIR_ENV",
    ],
})
__all__.append("BACKEND_NAMES")
