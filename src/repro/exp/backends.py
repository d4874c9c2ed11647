"""Execution backends, the one result writer and the ``run_experiments`` driver.

A backend executes a list of :class:`ExperimentSpec` objects and returns
their outcomes in the same order.  :func:`run_experiments` is the entry point
every consumer goes through: it deduplicates the submitted specs by content
key (so the detailed baselines a grid shares are simulated exactly once no
matter how many sampled experiments reference them), satisfies what it can
from an optional result store, dispatches only the misses to the backend and
returns the results in submission order.

Every backend's ``run_outcomes(specs, on_outcome=None)`` calls
``on_outcome(spec, outcome)`` once per spec, as soon as that outcome exists.
``run_experiments`` passes :func:`write_outcome` bound to its store as that
hook, so each finished spec is stored while the run goes on, and an
interrupted run (Ctrl-C) keeps every spec it finished, on every backend.
:func:`write_outcome` is the one function that moves an outcome into a store;
the service daemon calls it too.

Failure isolation: a spec whose workload raises does not poison its batch.
Every backend runs the remaining specs to completion and reports the broken
one as an :class:`~repro.exp.spec.ExperimentFailure`; the store records it
as a ``<key>.error.json`` diagnostic, and ``run_experiments`` then either
raises one aggregated :class:`ExperimentExecutionError` (default) or, with
``on_error="record"``, returns ``None`` at the failed positions.

Two backends ship with the repository:

* :class:`SerialBackend` — in-process, one spec after another,
* :class:`~repro.exp.distributed.AsyncWorkerBackend` — asyncio supervisor
  over worker subprocesses speaking the length-prefixed JSON protocol, with
  heartbeats, retry/requeue on worker death and graceful cancellation; its
  workers run on one or many hosts, started locally or through ``ssh``.
  ``--jobs N`` runs it on the host list ``local:N``.

Both are result-identical: the same spec grid produces bit-identical results
(and byte-identical store entries) regardless of the backend, worker count
or completion order.
"""

from __future__ import annotations

import functools
import sys
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Union

from repro.exp import BACKEND_NAMES
from repro.exp.runner import active_trace_cache, run_spec, use_trace_cache
from repro.exp.spec import ExperimentFailure, ExperimentResult, ExperimentSpec
from repro.exp.store import MemoryResultStore, ResultStore

Store = Union[ResultStore, MemoryResultStore]

#: What a backend produces per spec: a result, or a failure record.
Outcome = Union[ExperimentResult, ExperimentFailure]

#: The per-outcome hook of ``run_outcomes``: called with each spec and its
#: outcome as soon as the outcome exists.
OnOutcome = Callable[[ExperimentSpec, Outcome], None]

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


def write_outcome(store: Store, spec: ExperimentSpec, outcome: Outcome) -> None:
    """Store one outcome: a result once, a failure as a diagnostic.

    A result goes through ``put_if_absent``, so writers racing on one key
    (two supervisors, or a daemon and a grid sharing a store) leave the
    first entry alone; a failure goes through ``record_failure``.  A write
    that raises is reported on stderr and the run goes on: the caller still
    holds the outcome, and a missing entry is only computed again next time.
    """
    try:
        if isinstance(outcome, ExperimentFailure):
            store.record_failure(spec, outcome)
        else:
            store.put_if_absent(spec, outcome)
    except Exception as exc:
        print(f"repro.exp: store write failed for {spec.label()}: {exc}",
              file=sys.stderr)


def _raise_on_failure(outcomes: Sequence[Outcome]) -> List[ExperimentResult]:
    failures = [o for o in outcomes if isinstance(o, ExperimentFailure)]
    if failures:
        raise ExperimentExecutionError(failures)
    return list(outcomes)


class ExecutionBackend(Protocol):
    """Executes experiment specs, reporting each outcome as soon as it exists."""

    def run_outcomes(
        self,
        specs: Sequence[ExperimentSpec],
        on_outcome: Optional[OnOutcome] = None,
    ) -> List[Outcome]:
        """One outcome per spec, in order; ``on_outcome`` sees each as it ends."""
        ...


class SerialBackend:
    """Runs every experiment in the calling process, one after another."""

    def run_outcomes(
        self,
        specs: Sequence[ExperimentSpec],
        on_outcome: Optional[OnOutcome] = None,
    ) -> List[Outcome]:
        """Per-spec outcomes; a raising spec does not stop the batch."""
        outcomes: List[Outcome] = []
        for spec in specs:
            try:
                outcome = run_spec(spec)
            except Exception as error:
                outcome = ExperimentFailure.from_exception(spec.content_key(), error)
            if on_outcome is not None:
                on_outcome(spec, outcome)
            outcomes.append(outcome)
        return outcomes

    def run(self, specs: Sequence[ExperimentSpec]) -> List[ExperimentResult]:
        return _raise_on_failure(self.run_outcomes(specs))


def make_named_backend(
    name: str,
    workers: Optional[int] = None,
    hosts: Optional[str] = None,
    batch: Union[None, int, str] = None,
) -> ExecutionBackend:
    """Backend selected by name: ``auto``, ``serial`` or ``async``.

    ``auto`` is ``async`` when ``workers`` > 1 or ``hosts`` is given, and
    serial otherwise.  ``async`` builds an
    :class:`~repro.exp.distributed.AsyncWorkerBackend` over the ``hosts``
    budget string (``"host1:4,host2:8"``) or, without one, over ``workers``
    local workers (``local:N``, default 2).

    ``batch`` (``N``, ``"adaptive"`` or ``"adaptive:N"``) bounds how many
    specs one ``run_batch`` dispatch frame of the async backend carries
    (adaptive sizing grows it from 1 as specs prove cheap); a serial backend
    executes in-process, where there is no round-trip to amortise, so the
    knob is accepted and ignored.
    """
    parse_batch(batch)  # validate for every name
    if name == "auto":
        name = "async" if hosts or (workers or 1) > 1 else "serial"
    if name not in BACKEND_NAMES:
        raise ValueError(f"unknown backend {name!r} (choose from {BACKEND_NAMES})")
    if name == "serial":
        if hosts:
            # Silently dropping a host list would run in-process while the
            # caller (e.g. REPRO_BENCH_BACKEND=serial REPRO_BENCH_HOSTS=...)
            # believes the grid fanned out across machines.
            raise ValueError("hosts only apply to the async backend")
        return SerialBackend()  # in-process: no round-trip, batch is moot
    from repro.exp.distributed import AsyncWorkerBackend

    # None defaults to 2; anything else (including 0) goes through the
    # host parser's validation instead of being silently reinterpreted.
    return AsyncWorkerBackend(
        hosts or (2 if workers is None else workers), batch=batch
    )


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
        Optional result store consulted before execution and written by
        :func:`write_outcome` as each outcome arrives, so an interrupted run
        keeps what it finished and a warm store turns an unchanged grid into
        a pure cache hit.  Failed specs are recorded as ``<key>.error.json``
        diagnostics (never served as cached results, so a re-run retries
        them).  An on-disk store's trace cache serves the traces of the
        executed specs, here and in the backend's worker processes.
    on_error:
        ``"raise"`` (default) raises one :class:`ExperimentExecutionError`
        aggregating every failure — after all other specs completed and were
        stored.  ``"record"`` returns ``None`` at the failed positions
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
        hook = functools.partial(write_outcome, store) if store is not None else None
        with use_trace_cache(traces):
            outcomes = backend.run_outcomes(missing, on_outcome=hook)
        for spec, outcome in zip(missing, outcomes):
            if isinstance(outcome, ExperimentFailure):
                failures.append(outcome)
                outcome = None
            results[spec.content_key()] = outcome

    if failures and on_error == "raise":
        raise ExperimentExecutionError(failures)
    return [results[key] for key in keys]
