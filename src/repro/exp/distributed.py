"""Distributed async execution backend for the experiment orchestrator.

:class:`AsyncWorkerBackend` dispatches :class:`~repro.exp.spec.ExperimentSpec`
batches over an asyncio work queue to ``repro.exp.worker`` subprocesses
speaking the length-prefixed JSON protocol of :mod:`repro.exp.protocol` over
their stdin/stdout pipes.  The supervisor is transport-agnostic: a
:class:`_Worker` is just a pair of asyncio streams plus kill/wait handles, so
the same dispatch loop drives local pipe workers here and connect-back TCP
workers on other machines in :class:`repro.exp.hosts.MultiHostBackend`,
which subclasses this backend and overrides only how workers are acquired.

Fault model
-----------
* **Poison specs** — a spec that raises inside the worker comes back as an
  ``error`` frame; the worker stays alive, the failure is recorded as an
  :class:`~repro.exp.spec.ExperimentFailure` and the queue keeps draining.
  Deterministic failures are *not* retried.
* **Worker death** — a worker that exits or is killed mid-job has its job
  requeued (``max_retries`` times, then recorded as a failure) and the slot
  respawns a fresh worker.  A slot whose workers die repeatedly without ever
  completing a job gives up; when every slot has given up the remaining jobs
  are failed instead of waiting forever.  (The multi-host backend adds a
  second, host-level layer of this accounting: a *host* whose workers
  crash-loop is quarantined and its slots retire, leaving its jobs to the
  healthy hosts.)
* **Hung workers** — the supervisor pings every worker on a heartbeat
  interval; the worker's reader thread pongs even while a simulation is
  running, so a silence longer than ``heartbeat_timeout`` means the process
  is stopped or deadlocked (not merely busy) and it is killed, which routes
  into the worker-death path above.
* **Cancellation** — SIGINT (or cancelling the supervising task) shuts the
  pool down gracefully: workers are terminated and reaped, no orphan
  processes remain, and — with a streaming ``store`` attached — every
  experiment that finished before the interrupt is already persisted.

Batched dispatch
----------------
At cluster scale the sampled simulations themselves are cheap — TaskPoint's
whole premise — so the per-spec dispatch round-trip becomes the bottleneck.
``batch=`` bounds how many specs one dispatch frame may carry: a slot drains
up to that many jobs from the queue (never blocking to fill a batch) and
ships them in a single ``run_batch`` frame — every dispatch is one, even a
single spec; the worker answers each job with its own ``result``/``error``
frame, in order, as it completes.
Those per-spec answers double as acknowledgements: when a worker dies
mid-batch, exactly the unacknowledged jobs are requeued and the acknowledged
ones keep their outcomes, so nothing runs twice and the result store stays
byte-identical to a serial run.  ``batch="adaptive"`` starts every batch at
one spec and grows toward a cap based on the observed per-spec wall-time
(:class:`AdaptiveBatchSizer`), so sub-second specs amortise round-trips
while long specs keep one-spec retry granularity.

Determinism: results are collected by job index and returned in submission
order, and the workers funnel through the same
:func:`~repro.exp.runner.run_spec` as every other backend, so the output is
bit-identical to :class:`~repro.exp.backends.SerialBackend` regardless of
worker count, batch size, scheduling or retries (see
``tests/test_exp_distributed.py``, ``tests/test_exp_multihost.py`` and
``tests/test_exp_batching.py``).
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
from pathlib import Path
from typing import (
    Awaitable,
    Callable,
    Coroutine,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exp import protocol
from repro.exp.backends import (
    DEFAULT_BATCH_CAP,
    Outcome,
    Store,
    _raise_on_failure,
    map_unique,
    parse_batch,
)
from repro.exp.spec import ExperimentFailure, ExperimentResult, ExperimentSpec


#: Minimum time a freshly spawned worker gets to send its ``hello`` frame
#: before the heartbeat monitor may declare it wedged — interpreter startup
#: plus importing the simulation stack can take seconds on a loaded host.
_STARTUP_GRACE = 30.0

#: Adaptive sizing aims for batches of roughly this much work: sub-second
#: specs are packed until a batch is worth a couple of seconds (amortising
#: the dispatch round-trip), while specs at or above it stay unbatched so a
#: worker death never forfeits more than one spec's worth of progress.
ADAPTIVE_TARGET_SECONDS = 2.0


class AdaptiveBatchSizer:
    """Grows the dispatch batch size from 1 toward a cap as specs prove cheap.

    The sizer keeps an exponentially weighted mean of the observed per-spec
    wall-time and targets batches worth :data:`ADAPTIVE_TARGET_SECONDS` of
    work.  Growth is bounded to doubling per observation so a single
    misleading sample cannot jump straight to the cap, while shrinking (specs
    turned out slow) takes effect immediately — retry granularity is the
    side that must never lag behind reality.
    """

    def __init__(
        self,
        cap: int = DEFAULT_BATCH_CAP,
        target_seconds: float = ADAPTIVE_TARGET_SECONDS,
    ) -> None:
        if cap < 1:
            raise ValueError("cap must be >= 1")
        if target_seconds <= 0:
            raise ValueError("target_seconds must be positive")
        self.cap = cap
        self.target_seconds = target_seconds
        self._mean: Optional[float] = None
        self._size = 1

    @property
    def size(self) -> int:
        """Batch size the next dispatch should use."""
        return self._size

    def record(self, per_spec_seconds: float) -> None:
        """Feed one observed per-spec wall-time into the sizer."""
        per_spec_seconds = max(per_spec_seconds, 1e-6)
        if self._mean is None:
            self._mean = per_spec_seconds
        else:
            self._mean = 0.5 * self._mean + 0.5 * per_spec_seconds
        ideal = int(self.target_seconds / self._mean)
        self._size = max(1, min(self.cap, ideal, self._size * 2))


class WorkerDied(RuntimeError):
    """The worker process holding a job exited before answering it."""


class SpawnError(OSError):
    """A worker could not be brought up (spawn, connect-back or version)."""


def worker_environment(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Environment for a worker process that can import this repro package.

    Workers must import the same ``repro`` as the supervisor even when it
    only lives on the supervisor's ``sys.path`` (src checkouts), so the
    package root is prepended to ``PYTHONPATH``.  Shared by the local
    subprocess transport here and the launchers of :mod:`repro.exp.hosts`.
    """
    env = dict(os.environ)
    import repro

    package_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    if package_root not in (existing or "").split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    if extra:
        env.update(extra)
    return env


class _Job:
    __slots__ = ("index", "spec", "key", "attempts")

    def __init__(self, index: int, spec: ExperimentSpec, key: str) -> None:
        self.index = index
        self.spec = spec
        self.key = key
        self.attempts = 0  # completed dispatch attempts that ended in death


class _Worker:
    """One live worker and its supervisor-side state, transport-agnostic.

    A worker is a frame source (``reader``, an ``asyncio.StreamReader``), a
    frame sink (``writer``, anything with ``write``/``drain``/``close``) and
    a pair of process handles (``kill_process``, ``wait_process``).  The
    subprocess transport builds one from a pipe pair
    (:meth:`from_process`); the multi-host transport builds one from an
    accepted TCP connection plus its launcher handle
    (:meth:`from_connection`).
    """

    def __init__(
        self,
        reader: "asyncio.StreamReader",
        writer,
        pid: int,
        kill_process: Callable[[], None],
        wait_process: Callable[[], Awaitable[object]],
        host: Optional[str] = None,
        compress_out: bool = False,
        handshaked: bool = False,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.pid = pid
        self._kill_process = kill_process
        self._wait_process = wait_process
        self.host = host
        #: Whether frames *to* this worker are compressed.
        self.compress_out = compress_out
        self.alive = True
        self.spawned_at = asyncio.get_running_loop().time()
        self.last_seen = self.spawned_at
        self.handshaked = handshaked  # True once any frame (hello) arrived
        self.pending: Dict[int, "asyncio.Future[Outcome]"] = {}
        self.completed = 0
        self.reader_task: Optional["asyncio.Task"] = None
        self.monitor_task: Optional["asyncio.Task"] = None

    @classmethod
    def from_process(cls, proc: "asyncio.subprocess.Process") -> "_Worker":
        """Worker over a subprocess's stdin/stdout pipe pair."""
        return cls(
            reader=proc.stdout,
            writer=proc.stdin,
            pid=proc.pid,
            kill_process=proc.kill,
            wait_process=proc.wait,
        )

    @classmethod
    def from_connection(
        cls,
        reader: "asyncio.StreamReader",
        writer: "asyncio.StreamWriter",
        pid: int,
        kill_process: Callable[[], None],
        wait_process: Callable[[], Awaitable[object]],
        host: str,
        compress_out: bool = False,
    ) -> "_Worker":
        """Worker over an accepted connect-back TCP stream pair.

        The hello frame was already consumed by the acceptor, so the worker
        starts handshaked: heartbeat staleness applies immediately instead
        of the startup grace.
        """
        return cls(
            reader=reader,
            writer=writer,
            pid=pid,
            kill_process=kill_process,
            wait_process=wait_process,
            host=host,
            compress_out=compress_out,
            handshaked=True,
        )

    # ------------------------------------------------------------------
    async def send(self, message: Dict[str, object]) -> None:
        if self.writer is None or not self.alive:
            raise WorkerDied(f"worker {self.pid} is gone")
        try:
            self.writer.write(
                protocol.encode_frame(message, compress=self.compress_out)
            )
            await self.writer.drain()
        except (OSError, ConnectionResetError, BrokenPipeError) as exc:
            raise WorkerDied(f"worker {self.pid} pipe closed: {exc}") from exc

    def kill(self) -> None:
        """Forcefully terminate the worker process (best effort)."""
        try:
            self._kill_process()
        except (OSError, ProcessLookupError):
            pass

    async def wait(self) -> None:
        """Reap the worker process (or its launcher)."""
        await self._wait_process()

    def close_gracefully(self) -> None:
        """Ask the worker to exit: shutdown frame, then close its input."""
        if self.writer is None:
            return
        try:
            self.writer.write(protocol.encode_frame({"type": "shutdown"}))
            self.writer.close()
        except (OSError, RuntimeError):
            pass


class AsyncWorkerBackend:
    """Asyncio supervisor sharding experiments over worker subprocesses.

    Parameters
    ----------
    num_workers:
        Number of worker subprocesses (and of concurrent experiments).
    max_retries:
        How many times a job is requeued after the worker holding it died
        before it is recorded as a failure.  Failures *reported* by a live
        worker (the spec raised) are deterministic and never retried.
    heartbeat_interval / heartbeat_timeout:
        Ping cadence and the silence threshold after which a worker is
        declared hung and killed.  The timeout defaults to four intervals.
    spawn_retries:
        Consecutive worker deaths (without a completed job in between) a
        slot tolerates before giving up.
    batch:
        Specs per dispatch frame: ``None``/``1`` (default, one spec at a
        time), a fixed size ``N``, or ``"adaptive"`` / ``"adaptive:N"``
        (grow from 1 toward the cap as observed per-spec wall-times prove
        cheap).  Batches are drained from the queue without blocking — a
        slot never waits for a batch to fill — and a worker death requeues
        only the batch's unacknowledged specs.
    store:
        Optional result store (on-disk or in-memory) that completed
        experiments are streamed into as they finish (via
        ``put_if_absent``, so concurrent supervisors sharing an on-disk
        store do not rewrite each other's entries).  A cancelled run then
        loses only the in-flight experiments.
    worker_env:
        Extra environment variables for the worker processes (tests use
        this for ``PYTHONHASHSEED`` and fault injection).
    python:
        Interpreter to launch workers with; defaults to ``sys.executable``.

    The backend is synchronous to its callers (it owns its event loop via
    ``asyncio.run``), so it drops into :func:`repro.exp.run_experiments`
    exactly like the serial and pool backends.
    """

    def __init__(
        self,
        num_workers: int = 2,
        *,
        max_retries: int = 2,
        heartbeat_interval: float = 5.0,
        heartbeat_timeout: Optional[float] = None,
        spawn_retries: int = 2,
        batch: Union[None, int, str] = None,
        store: Optional[Store] = None,
        worker_env: Optional[Dict[str, str]] = None,
        python: Optional[str] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if heartbeat_timeout is not None and heartbeat_timeout <= heartbeat_interval:
            # The monitor wakes every interval and checks staleness before
            # pinging; a timeout at or below the interval would kill every
            # healthy worker on its first wakeup.
            raise ValueError("heartbeat_timeout must exceed heartbeat_interval")
        self.num_workers = num_workers
        self.max_retries = max_retries
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (
            heartbeat_timeout if heartbeat_timeout is not None
            else 4.0 * heartbeat_interval
        )
        self.spawn_retries = spawn_retries
        self.batch_cap, self.batch_adaptive = parse_batch(batch)
        self.store = store
        self.worker_env = dict(worker_env) if worker_env else {}
        self.python = python
        self.stats: Dict[str, int] = {}
        self._pids: set = set()
        self._workers: List[_Worker] = []
        self._sizer: Optional[AdaptiveBatchSizer] = None
        self._live_slots = 0
        #: Service mode (the persistent daemon): slots never give up — a
        #: crash-looping slot backs off and retries instead of retiring,
        #: because an idle service must recover when the machine heals.
        self._service_mode = False
        self._service_tasks: List["asyncio.Task"] = []

    # ------------------------------------------------------------------
    def active_pids(self) -> List[int]:
        """PIDs of the currently live worker processes (for tests/monitoring)."""
        return sorted(self._pids)

    def run_outcomes(self, specs: Sequence[ExperimentSpec]) -> List[Outcome]:
        """Per-spec outcomes; worker deaths and raising specs do not stall."""
        if self._service_mode:
            raise RuntimeError(
                "backend is running as a persistent service; "
                "submit jobs through its queue instead of run_outcomes()"
            )
        if not specs:
            return []

        def runner(unique_specs: List[ExperimentSpec]) -> List[Outcome]:
            try:
                return asyncio.run(self._supervise(unique_specs))
            finally:
                self._kill_leftovers()

        return map_unique(specs, runner)

    def run(self, specs: Sequence[ExperimentSpec]) -> List[ExperimentResult]:
        """Execute ``specs``; raises if any spec ultimately failed."""
        return _raise_on_failure(self.run_outcomes(specs))

    # ------------------------------------------------------------------
    def _kill_leftovers(self) -> None:
        """Last-resort synchronous cleanup once the event loop is gone."""
        for pid in list(self._pids):
            try:
                os.kill(pid, getattr(signal, "SIGKILL", signal.SIGTERM))
            except (OSError, ProcessLookupError):
                pass
            self._pids.discard(pid)
        self._workers.clear()

    def _worker_environment(self) -> Dict[str, str]:
        return worker_environment(self.worker_env)

    async def _spawn_worker(self) -> _Worker:
        proc = await asyncio.create_subprocess_exec(
            self.python or sys.executable,
            "-m", "repro.exp.worker",
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=self._worker_environment(),
        )
        worker = _Worker.from_process(proc)
        self._register_worker(worker)
        return worker

    def _register_worker(self, worker: _Worker) -> None:
        """Track a freshly acquired worker and start its reader + monitor."""
        self._count("spawns")
        self._pids.add(worker.pid)
        self._workers.append(worker)
        worker.reader_task = asyncio.ensure_future(self._read_worker(worker))
        worker.monitor_task = asyncio.ensure_future(self._monitor_worker(worker))

    def _release_worker(self, worker: _Worker) -> None:
        worker.alive = False
        self._pids.discard(worker.pid)
        if worker in self._workers:
            self._workers.remove(worker)

    async def _read_worker(self, worker: _Worker) -> None:
        """Parse frames from one worker until its stream closes."""
        loop = asyncio.get_running_loop()
        try:
            while True:
                message = await protocol.read_frame_async(worker.reader)
                worker.last_seen = loop.time()
                worker.handshaked = True
                kind = message.get("type")
                if kind in ("result", "error"):
                    future = worker.pending.get(message.get("job"))
                    if future is not None and not future.done():
                        if kind == "result":
                            future.set_result(
                                ExperimentResult.from_dict(message["result"])
                            )
                        else:
                            future.set_result(
                                ExperimentFailure.from_dict(message["error"])
                            )
                # hello/pong only refresh last_seen, handled above
        except asyncio.CancelledError:
            pass  # supervisor-initiated shutdown; it owns process cleanup
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            OSError,
            protocol.ProtocolError,
            KeyError,
            TypeError,
            ValueError,
        ):
            # Torn or malformed stream.  The process may well still be alive
            # (e.g. something wrote to the real stdout and desynchronised the
            # frames); kill it so a requeued job is not silently duplicated
            # by an orphan twin.
            worker.kill()
        finally:
            self._release_worker(worker)
            for future in list(worker.pending.values()):
                if not future.done():
                    future.set_exception(
                        WorkerDied(f"worker {worker.pid} died mid-job")
                    )

    async def _monitor_worker(self, worker: _Worker) -> None:
        """Heartbeat one worker; kill it when it goes silent."""
        loop = asyncio.get_running_loop()
        sequence = 0
        while worker.alive:
            await asyncio.sleep(self.heartbeat_interval)
            if not worker.alive:
                return
            # Cold start (importing the simulation stack) does not count
            # against the heartbeat; before the hello frame only the far
            # more generous startup deadline applies.
            if worker.handshaked:
                silent = loop.time() - worker.last_seen > self.heartbeat_timeout
            else:
                silent = (
                    loop.time() - worker.spawned_at
                    > max(self.heartbeat_timeout, _STARTUP_GRACE)
                )
            if silent:
                self._count("heartbeat_kills")
                worker.kill()
                return  # the reader's EOF turns this into the death path
            if not worker.handshaked:
                continue
            sequence += 1
            try:
                await worker.send({"type": "ping", "seq": sequence})
            except WorkerDied:
                return

    def _batch_limit(self, available: int) -> int:
        """How many of the ``available`` jobs the next dispatch may carry.

        The configured batch size (or the adaptive sizer's current one) is
        additionally capped at this slot's fair share of the remaining
        work: amortisation must not cost parallelism, and without the cap a
        fixed ``--batch 16`` on a 20-spec grid would let the first slot
        swallow 16 specs while its siblings idle.
        """
        limit = self._sizer.size if self._sizer is not None else self.batch_cap
        if limit <= 1:
            return 1
        # Divide among the slots still running, not the configured total:
        # retired slots (quarantined hosts, crash-looped spawns) must not
        # shrink the survivors' batches for the rest of the run.
        slots = self._live_slots or self.num_workers
        share = -(-available // max(1, slots))  # ceil division
        return max(1, min(limit, share))

    def _count(self, key: str, value: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + value

    async def _execute_batch(
        self,
        worker: _Worker,
        jobs: List[_Job],
        finish: Callable[[_Job, Outcome], None],
        host,
    ) -> "Tuple[List[_Job], bool]":
        """Dispatch ``jobs`` to one live worker; ``(died_jobs, any_completed)``.

        The jobs go out as one ``run_batch`` frame.  The worker's per-spec
        ``result``/``error`` frames are the acknowledgements, and each job is
        ``finish``\\ ed — persisted, when a streaming store is attached —
        *the moment its answer arrives*, not when the batch completes: a
        cancellation (SIGINT) mid-batch therefore keeps every acknowledged
        result, exactly as unbatched dispatch would.  Jobs whose answer
        never arrives before the worker dies are returned for the caller to
        requeue, in dispatch order (the first was the one executing).
        """
        loop = asyncio.get_running_loop()
        futures: "List[asyncio.Future[Outcome]]" = []
        for job in jobs:
            future: "asyncio.Future[Outcome]" = loop.create_future()
            worker.pending[job.index] = future
            futures.append(future)
        died: List[_Job] = []
        completed = 0
        started = loop.time()
        try:
            try:
                await worker.send({
                    "type": "run_batch",
                    "jobs": [
                        {"job": job.index, "spec": job.spec.to_dict()}
                        for job in jobs
                    ],
                })
                self._count("dispatch_frames")
                self.stats["max_batch"] = max(
                    self.stats.get("max_batch", 0), len(jobs)
                )
            except WorkerDied as lost:
                # The pipe broke mid-send, so the worker never held the
                # whole frame and answered none of its jobs: every one is
                # unacknowledged.  (The reader's exit handler may already
                # have run, before these futures were registered.)
                worker.kill()
                for future in futures:
                    if not future.done():
                        future.set_exception(
                            WorkerDied(f"worker {worker.pid} died: {lost}")
                        )
            for job, future in zip(jobs, futures):
                try:
                    outcome = await future
                except WorkerDied:
                    died.append(job)
                    continue
                completed += 1
                worker.completed += 1
                if host is not None:
                    host.record_success()
                if isinstance(outcome, ExperimentFailure):
                    outcome.attempts = job.attempts + 1
                finish(job, outcome)
        finally:
            for job in jobs:
                worker.pending.pop(job.index, None)
            if self._sizer is not None and completed:
                self._sizer.record((loop.time() - started) / completed)
        return died, completed > 0

    async def _worker_slot(
        self,
        queue: "asyncio.Queue[_Job]",
        finish: Callable[[_Job, Outcome], None],
        spawn: Optional[Callable[[], Awaitable[_Worker]]] = None,
        host=None,
    ) -> None:
        """One dispatch loop: owns (at most) one live worker at a time.

        ``spawn`` acquires a fresh worker (defaults to the local subprocess
        transport) and ``host`` is the optional host-accounting object of
        the multi-host backend: its ``record_death``/``record_success``
        methods aggregate failures across every slot of one machine, and a
        quarantined host retires its slots (requeueing any job in hand) so
        the remaining hosts drain the queue.
        """
        spawn = spawn if spawn is not None else self._spawn_worker
        try:
            await self._dispatch_loop(queue, finish, spawn, host)
        finally:
            # However this slot ends (retirement, give-up, cancellation),
            # the fair-share denominator follows the surviving slots.
            self._live_slots = max(0, self._live_slots - 1)

    async def _dispatch_loop(
        self,
        queue: "asyncio.Queue[_Job]",
        finish: Callable[[_Job, Outcome], None],
        spawn: Callable[[], Awaitable[_Worker]],
        host,
    ) -> None:
        """The body of one slot: spawn, dispatch batches, handle deaths."""
        worker: Optional[_Worker] = None
        consecutive_deaths = 0
        while True:
            job = await queue.get()
            jobs = [job]
            # Opportunistic batching: drain whatever is already waiting, up
            # to the batch limit, without ever blocking to fill a batch — an
            # emptying queue degrades gracefully to one-spec dispatches.
            limit = self._batch_limit(queue.qsize() + 1)
            while len(jobs) < limit:
                try:
                    jobs.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            if host is not None and host.quarantined:
                for requeued in jobs:
                    queue.put_nowait(requeued)
                # A sibling slot's deaths quarantined the host while this
                # slot's worker was healthy and idle: ask it to exit now
                # rather than hold a process (or SSH channel) until the end
                # of the batch.  Its reader's EOF does the bookkeeping.
                if worker is not None and worker.alive:
                    worker.close_gracefully()
                return
            if worker is None or not worker.alive:
                try:
                    worker = await spawn()
                except (OSError, ValueError) as exc:
                    print(f"repro.exp.distributed: {exc}", file=sys.stderr)
                    consecutive_deaths += 1
                    for requeued in jobs:  # spawn failure is not the jobs' fault
                        queue.put_nowait(requeued)
                    if self._record_host_death(host):
                        return
                    if consecutive_deaths > self.spawn_retries:
                        if not self._service_mode:
                            return
                        # A service slot never retires on spawn failures: it
                        # backs off (bounded) and keeps trying, so the pool
                        # heals itself when the machine does.
                        self._count("slot_backoffs")
                        await asyncio.sleep(self._backoff_delay(consecutive_deaths))
                        continue
                    await asyncio.sleep(0.05 * consecutive_deaths)
                    continue
            try:
                died, completed_any = await self._execute_batch(
                    worker, jobs, finish, host
                )
            except Exception as exc:  # supervisor bug: fail the jobs, stay live
                # Jobs already finished before the exception are protected
                # by finish()'s exactly-once guard.  Unserialisable specs
                # cannot land here (content_key() JSON-dumped every spec
                # before it became a job), so this is a genuine-bug backstop
                # where failing the batch beats requeueing it forever.
                for failed in jobs:
                    finish(failed, ExperimentFailure.from_exception(failed.key, exc))
                continue
            if completed_any:
                consecutive_deaths = 0
            if not died:
                continue
            # One worker death, however many unacknowledged jobs it held:
            # host/slot health accounting counts processes, not specs.
            self._count("worker_deaths")
            consecutive_deaths += 1
            worker = None
            # Jobs execute and are acknowledged in dispatch order, so only
            # the *first* unacknowledged job can have been executing when
            # the worker died — it alone consumes retry budget.  The rest
            # of the tail was merely co-batched (possibly never even sent)
            # and requeues with its budget intact, so a poisonous spec
            # cannot burn its batch-mates' max_retries from the head of
            # the queue.
            for position, lost in enumerate(died):
                if position == 0:
                    lost.attempts += 1
                if lost.attempts > self.max_retries:
                    finish(lost, ExperimentFailure(
                        spec_key=lost.key,
                        error_type="WorkerDied",
                        message=(
                            f"worker died {lost.attempts} time(s) while running "
                            f"{lost.spec.label()}"
                        ),
                        attempts=lost.attempts,
                    ))
                else:
                    self._count("requeues")
                    queue.put_nowait(lost)
            if self._record_host_death(host):
                return
            if consecutive_deaths > self.spawn_retries:
                if not self._service_mode:
                    return  # crash-looping; let the remaining slots (if any) work
                # Service mode: back off instead of retiring — queued work
                # must eventually run once workers stop dying, and retry
                # budgets above already bound how often one spec recycles.
                self._count("slot_backoffs")
                await asyncio.sleep(self._backoff_delay(consecutive_deaths))

    def _record_host_death(self, host) -> bool:
        """Feed one worker death into ``host``; True when the slot must retire."""
        if host is None:
            return False
        if host.record_death():
            self._count("hosts_quarantined")
        return host.quarantined

    def _backoff_delay(self, consecutive_deaths: int) -> float:
        """Service-mode retry delay once a slot exceeds its spawn budget.

        Doubles from 0.5 s and saturates at 30 s: fast enough that a healed
        machine resumes promptly, slow enough that a broken interpreter does
        not fork-bomb the host while the daemon idles.
        """
        over = max(0, consecutive_deaths - self.spawn_retries - 1)
        return min(30.0, 0.5 * (2 ** min(over, 6)))

    def absolve_stall(self, started: float, ended: float) -> None:
        """Forgive a supervisor-side event-loop stall of ``ended - started``.

        A synchronous call on the event loop (a shard-locked store write on
        a slow filesystem, say) freezes frame reading: no pongs or hellos
        arrive while it runs.  When the stall exceeded half a heartbeat
        interval, restart every worker's staleness and startup clock so
        healthy workers are not killed for the supervisor's own pause.  Used
        by the streaming ``finish`` here and by the service daemon's.
        """
        if ended - started > self.heartbeat_interval / 2:
            for other in self._workers:
                other.last_seen = max(other.last_seen, ended)
                other.spawned_at = max(other.spawned_at, ended)

    # ------------------------------------------------------------------
    # Service mode: a persistent daemon (repro.serve) runs the pool against
    # an external queue forever instead of supervising one finite spec list.
    # ------------------------------------------------------------------
    async def start_service(
        self,
        queue,
        finish: Callable[[_Job, Outcome], None],
    ) -> None:
        """Start the worker slots against an external (long-lived) queue.

        ``queue`` must offer the ``asyncio.Queue`` surface the dispatch
        loops consume (``get``/``get_nowait``/``put_nowait``/``qsize``) —
        the service's fair-share queue does.  ``finish(job, outcome)`` is
        called exactly once per completed job, on the event loop.  Slots
        run until :meth:`stop_service`; in service mode they back off on
        crash-loops instead of giving up, and ``run_outcomes`` is refused
        while the service owns the pool.
        """
        if self._service_tasks:
            raise RuntimeError("service already started")
        self._service_mode = True
        self.stats = {}
        self._workers = []
        self._pids = set()
        self._sizer = (
            AdaptiveBatchSizer(self.batch_cap) if self.batch_adaptive else None
        )
        await self._startup()
        coroutines = self._slot_coroutines(queue, finish, self.num_workers)
        self._service_tasks = [
            asyncio.ensure_future(coroutine) for coroutine in coroutines
        ]
        self._live_slots = len(self._service_tasks)

    async def stop_service(self) -> None:
        """Stop the slots, reap every worker and release the transport."""
        tasks, self._service_tasks = self._service_tasks, []
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except BaseException:
                pass
        try:
            await self._shutdown_workers()
            await self._teardown()
        finally:
            self._service_mode = False

    def dispatch_snapshot(self) -> Dict[str, object]:
        """Live dispatch counters for the service's ``stats`` frame."""
        return {
            "live_workers": len(self._workers),
            "live_slots": self._live_slots,
            "counters": dict(self.stats),
        }

    # ------------------------------------------------------------------
    async def _startup(self) -> None:
        """Transport setup before any slot runs (multi-host: the listener)."""

    async def _teardown(self) -> None:
        """Transport cleanup after every worker was reaped."""

    def _slot_coroutines(
        self,
        queue: "asyncio.Queue[_Job]",
        finish: Callable[[_Job, Outcome], None],
        num_jobs: int,
    ) -> List[Coroutine]:
        """Dispatch-loop coroutines to run; one per concurrent worker."""
        return [
            self._worker_slot(queue, finish)
            for _ in range(min(self.num_workers, num_jobs))
        ]

    async def _shutdown_workers(self) -> None:
        """Terminate and reap every live worker; tolerate cancellation.

        The reader tasks are deliberately left running until each worker is
        reaped: a worker holding a deep batch may have many unread result
        frames in flight, and with nobody consuming them the stream's flow
        control pauses the pipe transport before its EOF — after which the
        process's ``wait()`` can never resolve.  The readers drain those
        frames (harmlessly: the futures are already settled) and see the
        EOF that lets the transport close.
        """
        workers = list(self._workers)
        for worker in workers:
            worker.alive = False
            if worker.monitor_task is not None:
                worker.monitor_task.cancel()
            worker.close_gracefully()
        for worker in workers:
            try:
                await asyncio.wait_for(worker.wait(), timeout=2.0)
            except BaseException:
                worker.kill()
                try:
                    # Bounded: a SIGKILLed worker's EOF arrives promptly,
                    # but an unreachable transport must not wedge shutdown.
                    await asyncio.wait_for(worker.wait(), timeout=5.0)
                except BaseException:
                    pass
            self._pids.discard(worker.pid)
            if worker.reader_task is not None:
                worker.reader_task.cancel()  # EOF normally ended it already
        self._workers = [w for w in self._workers if w not in workers]

    async def _supervise(self, specs: Sequence[ExperimentSpec]) -> List[Outcome]:
        """Run unique ``specs`` to completion; one outcome per spec, in order."""
        loop = asyncio.get_running_loop()
        self.stats = {}
        self._workers = []
        self._pids = set()
        self._sizer = (
            AdaptiveBatchSizer(self.batch_cap) if self.batch_adaptive else None
        )
        self._live_slots = 0

        queue: "asyncio.Queue[_Job]" = asyncio.Queue()
        jobs = [
            _Job(index, spec, spec.content_key())
            for index, spec in enumerate(specs)
        ]
        for job in jobs:
            queue.put_nowait(job)
        outcomes: List[Optional[Outcome]] = [None] * len(jobs)
        remaining = len(jobs)
        done = asyncio.Event()
        if not jobs:
            done.set()

        def finish(job: _Job, outcome: Outcome) -> None:
            nonlocal remaining
            if outcomes[job.index] is not None:
                return  # defensive: a job finishes exactly once
            outcomes[job.index] = outcome
            remaining -= 1
            self._count("finished_jobs")
            # Streaming is best-effort durability: no store problem may wedge
            # the supervisor (done must always be reachable), and the caller
            # still holds every outcome in memory either way.
            if self.store is not None:
                write_started = loop.time()
                try:
                    if isinstance(outcome, ExperimentFailure):
                        self.store.record_failure(job.spec, outcome)
                    else:
                        self.store.put_if_absent(job.spec, outcome)
                except Exception as exc:
                    print(
                        f"repro.exp.distributed: store write failed: {exc}",
                        file=sys.stderr,
                    )
                # The synchronous write (shard flock on a contended or slow
                # filesystem) freezes the event loop; forgive the stall so
                # healthy workers are not heartbeat-killed for it.
                self.absolve_stall(write_started, loop.time())
            if remaining == 0:
                done.set()

        interrupted = False
        shutting_down = False
        supervise_task = asyncio.current_task()

        def on_sigint() -> None:
            nonlocal interrupted
            interrupted = True
            if supervise_task is not None:
                supervise_task.cancel()

        sigint_installed = False
        try:
            loop.add_signal_handler(signal.SIGINT, on_sigint)
            sigint_installed = True
        except (ValueError, NotImplementedError, RuntimeError):
            pass  # non-main thread or platform without signal support

        slots: List["asyncio.Task"] = []

        def on_slot_done(_task: "asyncio.Task") -> None:
            if shutting_down or done.is_set():
                return  # cancellation, not exhaustion: leave jobs unwritten
            if not all(task.done() for task in slots):
                return
            # Every slot gave up (crash-looping workers): fail what is left.
            while not queue.empty():
                job = queue.get_nowait()
                if outcomes[job.index] is None:
                    finish(job, ExperimentFailure(
                        spec_key=job.key,
                        error_type="WorkerPoolExhausted",
                        message="every worker slot gave up before this spec ran",
                        attempts=job.attempts,
                    ))
            done.set()

        try:
            await self._startup()
            slots.extend(
                asyncio.ensure_future(coroutine)
                for coroutine in self._slot_coroutines(queue, finish, len(jobs))
            )
            self._live_slots = len(slots)
            for slot in slots:
                slot.add_done_callback(on_slot_done)
            await done.wait()
        except asyncio.CancelledError:
            if not interrupted:
                raise
        finally:
            shutting_down = True
            if sigint_installed:
                loop.remove_signal_handler(signal.SIGINT)
            for slot in slots:
                slot.cancel()
            for slot in slots:
                try:
                    await slot
                except BaseException:
                    pass
            await self._shutdown_workers()
            await self._teardown()

        if interrupted:
            raise KeyboardInterrupt
        return [
            outcome if outcome is not None else ExperimentFailure(
                spec_key=job.key,
                error_type="Unexecuted",
                message="supervisor exited before this spec ran",
                attempts=job.attempts,
            )
            for job, outcome in zip(jobs, outcomes)
        ]
