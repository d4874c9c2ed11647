"""Pluggable execution backends and the ``run_experiments`` driver.

A backend executes a list of *unique* :class:`ExperimentSpec` objects and
returns their results in the same order.  :func:`run_experiments` is the
entry point every consumer goes through: it deduplicates the submitted specs
by content key (so the detailed baselines a grid shares are simulated exactly
once no matter how many sampled experiments reference them), satisfies what
it can from an optional result store, dispatches only the misses to the
backend, persists the fresh results and returns them in submission order.

Failure isolation: a spec whose workload raises does not poison its batch.
Every backend runs the remaining specs to completion and reports the broken
one as an :class:`~repro.exp.spec.ExperimentFailure`; ``run_experiments``
records failures in the store (as ``<key>.error.json`` diagnostics) and then
either raises one aggregated :class:`ExperimentExecutionError` (default) or,
with ``on_error="record"``, returns ``None`` at the failed positions.

Three backends ship with the repository:

* :class:`SerialBackend` — in-process, one spec after another,
* :class:`ProcessPoolBackend` — ``concurrent.futures`` process pool; where
  it forks (Linux) its workers skip the interpreter start and imports a
  spawned worker pays, which makes it the fastest same-host choice for
  short runs,
* :class:`~repro.exp.distributed.AsyncWorkerBackend` — asyncio supervisor
  over worker subprocesses speaking the length-prefixed JSON protocol, with
  heartbeats, retry/requeue on worker death and graceful cancellation; its
  workers run on one or many hosts, started locally or through ``ssh``.

All three are result-identical: the same spec grid produces bit-identical
results (and byte-identical store entries) regardless of the backend, worker
count or completion order.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Union

from repro.exp import BACKEND_NAMES
from repro.exp.runner import active_trace_cache, run_spec, use_trace_cache
from repro.exp.spec import ExperimentFailure, ExperimentResult, ExperimentSpec
from repro.exp.store import MemoryResultStore, ResultStore

Store = Union[ResultStore, MemoryResultStore]

#: What a backend produces per spec: a result, or a failure record.
Outcome = Union[ExperimentResult, ExperimentFailure]

#: Batch cap used when ``batch="adaptive"`` names no explicit cap.
DEFAULT_BATCH_CAP = 16


def parse_batch(raw: "Union[None, int, str]") -> "tuple[int, bool]":
    """Parse a batch knob into ``(cap, adaptive)``.

    Accepts ``None``/``1`` (no batching — one spec per dispatch frame, the
    historical behaviour), a positive integer (fixed batch size), or the
    strings ``"adaptive"`` / ``"adaptive:CAP"`` (grow from 1 toward the cap
    based on observed per-spec wall-time).
    """
    if raw is None:
        return 1, False
    if isinstance(raw, bool):  # bool is an int subclass; reject it explicitly
        raise ValueError(f"invalid batch size {raw!r}")
    if not isinstance(raw, int):
        text = str(raw).strip()
        if text.startswith("adaptive"):
            name, sep, cap_text = text.partition(":")
            try:
                if name != "adaptive":
                    raise ValueError(text)
                cap = int(cap_text) if sep else DEFAULT_BATCH_CAP
            except ValueError as exc:
                raise ValueError(
                    f"invalid batch spec {text!r} "
                    "(expected N, 'adaptive' or 'adaptive:N')"
                ) from exc
            if cap < 1:
                raise ValueError("adaptive batch cap must be >= 1")
            return cap, True
        try:
            raw = int(text)
        except ValueError as exc:
            raise ValueError(
                f"invalid batch spec {text!r} "
                "(expected N, 'adaptive' or 'adaptive:N')"
            ) from exc
    if raw < 1:
        raise ValueError("batch size must be >= 1")
    return raw, False


class ExperimentExecutionError(RuntimeError):
    """One or more specs of a batch failed (after the rest completed)."""

    def __init__(self, failures: Sequence[ExperimentFailure]) -> None:
        self.failures = list(failures)
        lines = [failure.describe() for failure in self.failures[:5]]
        if len(self.failures) > 5:
            lines.append(f"... and {len(self.failures) - 5} more")
        super().__init__(
            f"{len(self.failures)} experiment(s) failed:\n  " + "\n  ".join(lines)
        )


def run_spec_outcome(spec: ExperimentSpec) -> Outcome:
    """Execute one spec, condensing any exception into a failure record.

    Module-level so process-pool workers can pickle it by reference.
    """
    try:
        return run_spec(spec)
    except Exception as error:
        return ExperimentFailure.from_exception(spec.content_key(), error)


def _raise_on_failure(outcomes: Sequence[Outcome]) -> List[ExperimentResult]:
    failures = [o for o in outcomes if isinstance(o, ExperimentFailure)]
    if failures:
        raise ExperimentExecutionError(failures)
    return list(outcomes)


def map_unique(
    specs: Sequence[ExperimentSpec],
    runner: "Callable[[List[ExperimentSpec]], Sequence[Outcome]]",
) -> List[Outcome]:
    """Run ``runner`` over the unique specs, remapped to submission positions.

    The defensive dedup shared by the parallel backends: run_experiments
    already submits unique specs, but a directly-driven backend must still
    simulate shared baselines once.
    """
    unique: Dict[str, ExperimentSpec] = {}
    for spec in specs:
        unique.setdefault(spec.content_key(), spec)
    outcomes = runner(list(unique.values()))
    by_key = dict(zip(unique.keys(), outcomes))
    return [by_key[spec.content_key()] for spec in specs]


class ExecutionBackend(Protocol):
    """Executes unique experiment specs; results in submission order."""

    def run(self, specs: Sequence[ExperimentSpec]) -> List[ExperimentResult]:
        """Execute ``specs`` and return one result per spec, in order."""
        ...


class SerialBackend:
    """Runs every experiment in the calling process, one after another."""

    def run_outcomes(self, specs: Sequence[ExperimentSpec]) -> List[Outcome]:
        """Per-spec outcomes; a raising spec does not stop the batch."""
        return [run_spec_outcome(spec) for spec in specs]

    def run(self, specs: Sequence[ExperimentSpec]) -> List[ExperimentResult]:
        return _raise_on_failure(self.run_outcomes(specs))


class ProcessPoolBackend:
    """Shards experiments across worker processes.

    Each spec is one unit of work; ``concurrent.futures`` maps them over the
    pool and returns results in submission order, so the output is
    deterministic and identical to :class:`SerialBackend` regardless of the
    worker count or completion order.  Specs are self-contained (workers
    regenerate traces from the spec), so nothing but the spec crosses the
    process boundary on the way in.

    Parameters
    ----------
    max_workers:
        Size of the process pool; defaults to the host's CPU count.
    chunksize:
        Number of specs handed to a worker per dispatch; larger chunks
        amortise IPC for big grids of small experiments.  Per batch the
        effective chunk is additionally capped at the workers' fair share
        of the specs, so a large chunksize cannot serialise a small grid
        onto a fraction of the pool.
    """

    def __init__(self, max_workers: Optional[int] = None, chunksize: int = 1) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        self.max_workers = max_workers
        self.chunksize = chunksize

    def run_outcomes(self, specs: Sequence[ExperimentSpec]) -> List[Outcome]:
        """Per-spec outcomes; a raising spec does not poison the pool batch."""
        if not specs:
            return []

        def runner(unique_specs: List[ExperimentSpec]) -> List[Outcome]:
            workers = self.max_workers or os.cpu_count() or 1
            share = -(-len(unique_specs) // workers)  # ceil division
            chunksize = max(1, min(self.chunksize, share))
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
                return list(
                    pool.map(run_spec_outcome, unique_specs,
                             chunksize=chunksize)
                )

        return map_unique(specs, runner)

    def run(self, specs: Sequence[ExperimentSpec]) -> List[ExperimentResult]:
        return _raise_on_failure(self.run_outcomes(specs))


def make_named_backend(
    name: str,
    workers: Optional[int] = None,
    store: Optional[Store] = None,
    hosts: Optional[str] = None,
    batch: Union[None, int, str] = None,
) -> ExecutionBackend:
    """Backend selected by name: ``auto``, ``serial``, ``pool`` or ``async``.

    ``auto`` is a pool when ``workers`` > 1 and serial otherwise — unless
    ``hosts`` is given, which selects ``async``.  ``async`` builds an
    :class:`~repro.exp.distributed.AsyncWorkerBackend` over the ``hosts``
    budget string (``"host1:4,host2:8"``) or, without one, over ``workers``
    local workers (``local:N``, default 2).  When ``store`` is an on-disk
    :class:`ResultStore` it is attached so completed experiments are
    streamed into it as they finish (and survive a cancelled run).

    ``batch`` (``N``, ``"adaptive"`` or ``"adaptive:N"``) bounds how many
    specs one dispatch carries.  For ``async`` it is the
    protocol-level ``run_batch`` frame size (adaptive sizing grows it from 1
    as specs prove cheap); for ``pool`` the cap maps onto the executor's
    ``chunksize`` (its native amortisation knob, with no adaptivity); a
    serial backend executes in-process, where there is no round-trip to
    amortise, so the knob is accepted and ignored.
    """
    batch_cap, batch_adaptive = parse_batch(batch)  # validate for every name
    if name == "auto" and hosts:
        name = "async"
    if name != "async" and hosts:
        # Silently dropping a host list would run single-host while the
        # caller (e.g. REPRO_BENCH_BACKEND=pool REPRO_BENCH_HOSTS=...)
        # believes the grid fanned out across machines.
        raise ValueError(
            f"hosts only apply to the async backend (got backend {name!r})"
        )
    if name == "auto":
        if workers is None or workers <= 1:
            return SerialBackend()
        return ProcessPoolBackend(max_workers=workers, chunksize=batch_cap)
    if name == "serial":
        return SerialBackend()  # in-process: no round-trip, batch is moot
    if name == "pool":
        return ProcessPoolBackend(max_workers=workers, chunksize=batch_cap)
    if name == "async":
        from repro.exp.distributed import AsyncWorkerBackend

        # None defaults to 2; anything else (including 0) goes through the
        # host parser's validation instead of being silently reinterpreted.
        return AsyncWorkerBackend(
            hosts or (2 if workers is None else workers),
            batch=batch,
            store=store if isinstance(store, ResultStore) else None,
        )
    raise ValueError(f"unknown backend {name!r} (choose from {BACKEND_NAMES})")


def _backend_outcomes(
    backend: ExecutionBackend, specs: Sequence[ExperimentSpec]
) -> List[Outcome]:
    """Run ``specs``, preferring the failure-isolating ``run_outcomes`` hook."""
    run_outcomes = getattr(backend, "run_outcomes", None)
    if run_outcomes is not None:
        return run_outcomes(specs)
    return list(backend.run(specs))


def run_experiments(
    specs: Sequence[ExperimentSpec],
    backend: Optional[ExecutionBackend] = None,
    store: Optional[Store] = None,
    on_error: str = "raise",
) -> List[Optional[ExperimentResult]]:
    """Execute ``specs`` and return their results in submission order.

    Parameters
    ----------
    specs:
        Experiments to run.  Duplicates (by content key) are executed once
        and their shared result is returned at every submission position.
    backend:
        Execution backend; defaults to :class:`SerialBackend`.
    store:
        Optional result store consulted before execution and updated after;
        a warm store turns an unchanged grid into a pure cache hit.  Failed
        specs are recorded as ``<key>.error.json`` diagnostics (never served
        as cached results, so a re-run retries them).  An on-disk store's
        trace cache serves the traces of the executed specs, here and in
        the backend's worker processes.
    on_error:
        ``"raise"`` (default) raises one :class:`ExperimentExecutionError`
        aggregating every failure — after all other specs completed and were
        persisted.  ``"record"`` returns ``None`` at the failed positions
        instead.
    """
    if on_error not in ("raise", "record"):
        raise ValueError("on_error must be 'raise' or 'record'")
    backend = backend if backend is not None else SerialBackend()
    keys = [spec.content_key() for spec in specs]
    unique: Dict[str, ExperimentSpec] = {}
    for spec, key in zip(specs, keys):
        unique.setdefault(key, spec)

    results: Dict[str, Optional[ExperimentResult]] = {}
    missing: List[ExperimentSpec] = []
    for key, spec in unique.items():
        cached = store.get(spec) if store is not None else None
        if cached is not None:
            results[key] = cached
        else:
            missing.append(spec)

    failures: List[ExperimentFailure] = []
    if missing:
        traces = store.traces if isinstance(store, ResultStore) else active_trace_cache()
        with use_trace_cache(traces):
            outcomes = _backend_outcomes(backend, missing)
        # A backend with this store attached (e.g. a streaming
        # AsyncWorkerBackend) already persisted each outcome on completion;
        # put_if_absent then only pays a validation read instead of
        # re-serialising and rewriting every entry.
        streamed = getattr(backend, "store", None) is store and store is not None
        for spec, outcome in zip(missing, outcomes):
            key = spec.content_key()
            if isinstance(outcome, ExperimentFailure):
                failures.append(outcome)
                results[key] = None
                if store is not None and not streamed:
                    store.record_failure(spec, outcome)
            else:
                results[key] = outcome
                if store is not None:
                    if streamed:
                        store.put_if_absent(spec, outcome)
                    else:
                        store.put(spec, outcome)

    if failures and on_error == "raise":
        raise ExperimentExecutionError(failures)
    return [results[key] for key in keys]
