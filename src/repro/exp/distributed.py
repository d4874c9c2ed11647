"""Distributed async execution backend for the experiment orchestrator.

:class:`AsyncWorkerBackend` dispatches :class:`~repro.exp.spec.ExperimentSpec`
batches over an asyncio work queue to ``repro.exp.worker`` subprocesses
speaking the length-prefixed JSON protocol of :mod:`repro.exp.protocol` over
their stdin/stdout pipes.  Every dispatch slot is bound to a host
(:mod:`repro.exp.hosts`) and every worker is a child process: a local
``python -m repro.exp.worker`` on a ``local*`` host, or an ``ssh`` client
whose pipes carry a remote worker's on any other host.  ``hosts=N`` is the
host ``local`` with N slots.

Fault model
-----------
* **Poison specs** — a spec that raises inside the worker comes back as an
  ``error`` frame; the worker stays alive, the failure is recorded as an
  :class:`~repro.exp.spec.ExperimentFailure` and the queue keeps draining.
  Deterministic failures are *not* retried.
* **Worker death** — a worker that exits or is killed mid-job has its job
  requeued (``max_retries`` times, then recorded as a failure) and the slot
  respawns a fresh worker.  Deaths and failed launches count against the
  slot's *host*: one whose workers die more than ``spawn_retries`` times in
  a row without completing a job is crash-looping and quarantined.  Its
  slots retire, leaving its jobs to the healthy hosts; when every slot has
  retired the remaining jobs are failed instead of waiting forever.  In
  service mode (the daemon) the slots back off and retry instead, and the
  host's next completed job clears the quarantine.
* **Hung workers** — the supervisor pings every worker on a heartbeat
  interval; the worker's reader thread pongs even while a simulation is
  running, so a silence longer than ``heartbeat_timeout`` means the process
  is stopped or deadlocked (not merely busy) and it is killed, which routes
  into the worker-death path above.
* **Cancellation** — SIGINT (or cancelling the supervising task) shuts the
  workers down gracefully: they are terminated and reaped, no orphan
  processes remain, and every experiment that finished before the
  interrupt has already been handed to the ``on_outcome`` hook (which
  :func:`~repro.exp.backends.run_experiments` uses to store it).

Batched dispatch
----------------
At cluster scale the sampled simulations themselves are cheap — TaskPoint's
whole premise — so the per-spec dispatch round-trip becomes the bottleneck.
``batch=`` bounds how many specs one dispatch frame may carry: a slot drains
up to that many jobs from the queue (never blocking to fill a batch) and
ships them in a single ``run_batch`` frame — every dispatch is one, even a
single spec; the worker answers each job with its own ``result``/``error``
frame, in order, as it completes.
Those per-spec answers double as acknowledgements: each one reaches the
``on_outcome`` hook as it arrives, and when a worker dies mid-batch exactly
the unacknowledged jobs are requeued while the acknowledged ones keep their
outcomes, so nothing runs twice and the result store stays byte-identical
to a serial run.  ``batch="adaptive"`` starts every batch at
one spec and grows toward a cap based on the observed per-spec wall-time
(:class:`AdaptiveBatchSizer`), so sub-second specs amortise round-trips
while long specs keep one-spec retry granularity.

Determinism: results are collected by job index and returned in submission
order, and the workers funnel through the same
:func:`~repro.exp.runner.run_spec` as every other backend, so the output is
bit-identical to :class:`~repro.exp.backends.SerialBackend` regardless of
worker count, batch size, scheduling or retries (see
``tests/test_exp_distributed.py``, ``tests/test_exp_multihost.py`` and
``tests/test_exp_batching.py``).  Frames are zlib-compressed exactly when a
host is reached over SSH; the store bytes do not depend on it.
"""

from __future__ import annotations

import asyncio
import os
import shlex
import signal
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.exp import protocol
from repro.exp.backends import (
    DEFAULT_BATCH_CAP,
    OnOutcome,
    Outcome,
    _raise_on_failure,
    parse_batch,
)
from repro.exp.hosts import Hosts, HostSpec, HostState, parse_hosts
from repro.exp.spec import ExperimentFailure, ExperimentResult, ExperimentSpec


#: Seconds a freshly launched worker gets to send its ``hello`` frame —
#: interpreter startup plus importing the simulation stack (and, for a
#: remote host, the SSH session) can take seconds on a loaded host.
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
    """A worker could not be brought up (launch, hello or version)."""


def worker_environment(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Environment for a local worker process that can import this repro.

    Workers must import the same ``repro`` as the supervisor even when it
    only lives on the supervisor's ``sys.path`` (src checkouts), so the
    package root is prepended to ``PYTHONPATH``.
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
    """One live worker process and its supervisor-side state.

    Frames travel over the process's stdin (``writer``) and stdout
    (``reader``) pipes.  For a remote host the process is the local ``ssh``
    client, whose pipes carry the remote worker's; killing it tears the
    session down.
    """

    def __init__(
        self, proc: "asyncio.subprocess.Process", compress_out: bool
    ) -> None:
        self.proc = proc
        self.reader = proc.stdout
        self.writer = proc.stdin
        self.pid = proc.pid
        #: Whether frames *to* this worker are compressed.
        self.compress_out = compress_out
        self.alive = True
        self.last_seen = asyncio.get_running_loop().time()
        self.pending: Dict[int, "asyncio.Future[Outcome]"] = {}
        self.completed = 0
        self.reader_task: Optional["asyncio.Task"] = None
        self.monitor_task: Optional["asyncio.Task"] = None

    # ------------------------------------------------------------------
    async def send(self, message: Dict[str, object]) -> None:
        if not self.alive:
            raise WorkerDied(f"worker {self.pid} is gone")
        try:
            self.writer.write(
                protocol.encode_frame(message, compress=self.compress_out)
            )
            await self.writer.drain()
        except (OSError, ConnectionResetError, BrokenPipeError) as exc:
            raise WorkerDied(f"worker {self.pid} pipe closed: {exc}") from exc

    def kill(self) -> None:
        """Forcefully terminate the worker process (best effort).

        Signals the pid directly: ``Process.kill`` polls the child first,
        and a poll racing the event loop's child watcher can reap an
        exiting worker, which the watcher then logs as an unknown pid.
        """
        if self.proc.returncode is None:
            try:
                os.kill(self.pid, getattr(signal, "SIGKILL", signal.SIGTERM))
            except (OSError, ProcessLookupError):
                pass

    async def wait(self) -> None:
        """Reap the worker process."""
        await self.proc.wait()

    def close_gracefully(self) -> None:
        """Ask the worker to exit: shutdown frame, then close its input."""
        try:
            self.writer.write(protocol.encode_frame({"type": "shutdown"}))
            self.writer.close()
        except (OSError, RuntimeError):
            pass


class AsyncWorkerBackend:
    """Asyncio supervisor sharding experiments over worker subprocesses.

    Parameters
    ----------
    hosts:
        Where the workers run: ``"host1:4,host2:8"``, a sequence of such
        strings or :class:`~repro.exp.hosts.HostSpec` objects, or an int
        ``N`` meaning ``local:N`` (see :func:`~repro.exp.hosts.parse_hosts`).
        Each unit of a host's budget is one dispatch slot, and so one
        concurrent experiment; :attr:`num_workers` is their sum.
    max_retries:
        How many times a job is requeued after the worker holding it died
        before it is recorded as a failure.  Failures *reported* by a live
        worker (the spec raised) are deterministic and never retried.
    heartbeat_interval / heartbeat_timeout:
        Ping cadence and the silence threshold after which a worker is
        declared hung and killed.  The timeout defaults to four intervals.
    spawn_retries:
        Consecutive worker deaths, failed launches included, that a host
        tolerates without a completed job in between.  One more quarantines
        it: its slots retire in a finite run and back off in service mode.
    batch:
        Specs per dispatch frame: ``None``/``1`` (default, one spec at a
        time), a fixed size ``N``, or ``"adaptive"`` / ``"adaptive:N"``
        (grow from 1 toward the cap as observed per-spec wall-times prove
        cheap).  Batches are drained from the queue without blocking — a
        slot never waits for a batch to fill — and a worker death requeues
        only the batch's unacknowledged specs.
    worker_env:
        Extra environment variables for the worker processes (tests use
        this for ``PYTHONHASHSEED`` and fault injection).
    python:
        Interpreter to launch local workers with, unless their
        :class:`~repro.exp.hosts.HostSpec` names one; defaults to
        ``sys.executable``.
    ssh_command:
        SSH client argv prefix for remote hosts; the host name and the
        remote command follow it.
    remote_python:
        Interpreter remote hosts start workers with, unless their
        :class:`~repro.exp.hosts.HostSpec` names one.

    The backend is synchronous to its callers (it owns its event loop via
    ``asyncio.run``), so it drops into :func:`repro.exp.run_experiments`
    exactly like the serial backend.
    """

    def __init__(
        self,
        hosts: Hosts = 2,
        *,
        max_retries: int = 2,
        heartbeat_interval: float = 5.0,
        heartbeat_timeout: Optional[float] = None,
        spawn_retries: int = 2,
        batch: Union[None, int, str] = None,
        worker_env: Optional[Dict[str, str]] = None,
        python: Optional[str] = None,
        ssh_command: Sequence[str] = ("ssh", "-T", "-o", "BatchMode=yes"),
        remote_python: str = "python3",
    ) -> None:
        self.host_specs = parse_hosts(hosts)
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if heartbeat_timeout is not None and heartbeat_timeout <= heartbeat_interval:
            # The monitor wakes every interval and checks staleness before
            # pinging; a timeout at or below the interval would kill every
            # healthy worker on its first wakeup.
            raise ValueError("heartbeat_timeout must exceed heartbeat_interval")
        self.max_retries = max_retries
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (
            heartbeat_timeout if heartbeat_timeout is not None
            else 4.0 * heartbeat_interval
        )
        self.spawn_retries = spawn_retries
        self.batch_cap, self.batch_adaptive = parse_batch(batch)
        self.worker_env = dict(worker_env) if worker_env else {}
        self.python = python
        self.ssh_command = tuple(ssh_command)
        self.remote_python = remote_python
        #: Service mode (the persistent daemon): slots never give up — a
        #: crash-looping host's slots back off and retry instead of
        #: retiring, because an idle service must recover when it heals.
        self._service_mode = False
        self._service_tasks: List["asyncio.Task"] = []
        self._reset()

    def _reset(self) -> None:
        """Fresh counters, host accounting and batch sizer for one run."""
        self.stats: Dict[str, int] = {}
        self._pids: set = set()
        self._workers: List[_Worker] = []
        #: Workers let go during the run whose exit is not yet awaited.
        self._released: List[_Worker] = []
        self._hosts = [
            HostState(spec, self.spawn_retries) for spec in self.host_specs
        ]
        self._sizer = (
            AdaptiveBatchSizer(self.batch_cap) if self.batch_adaptive else None
        )
        self._live_slots = 0

    @property
    def num_workers(self) -> int:
        """Concurrent workers: the sum of the host budgets."""
        return sum(spec.workers for spec in self.host_specs)

    # ------------------------------------------------------------------
    def active_pids(self) -> List[int]:
        """PIDs of the currently live worker processes (for tests/monitoring)."""
        return sorted(self._pids)

    def run_outcomes(
        self,
        specs: Sequence[ExperimentSpec],
        on_outcome: Optional[OnOutcome] = None,
    ) -> List[Outcome]:
        """Per-spec outcomes; worker deaths and raising specs do not stall.

        ``on_outcome(spec, outcome)`` runs on the event loop as each
        worker's answer arrives, once per distinct spec.  It must not raise.
        """
        if self._service_mode:
            raise RuntimeError(
                "backend is running as a persistent service; "
                "submit jobs through its queue instead of run_outcomes()"
            )
        if not specs:
            return []
        # run_experiments submits unique specs, but a directly driven
        # backend must still simulate shared baselines once.
        unique: Dict[str, ExperimentSpec] = {}
        for spec in specs:
            unique.setdefault(spec.content_key(), spec)
        try:
            outcomes = asyncio.run(
                self._supervise(list(unique.values()), on_outcome)
            )
        finally:
            self._kill_leftovers()
        by_key = dict(zip(unique, outcomes))
        return [by_key[spec.content_key()] for spec in specs]

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

    def _worker_command(
        self, spec: HostSpec
    ) -> Tuple[List[str], Optional[Dict[str, str]]]:
        """``(argv, env)`` that starts one worker on ``spec``'s host.

        A local host gets the supervisor's environment (plus the extra
        variables); an SSH host inherits it for the ``ssh`` client, and the
        extra variables travel as an ``env KEY=VALUE ...`` prefix of the
        remote command, since SSH does not forward a client's environment.
        """
        extra = dict(self.worker_env)
        extra.update(spec.env or {})
        if spec.is_local:
            python = spec.python or self.python or sys.executable
            return [python, "-m", "repro.exp.worker"], worker_environment(extra)
        remote = [spec.python or self.remote_python, "-m", "repro.exp.worker"]
        if extra:
            remote[:0] = ["env"] + [
                f"{key}={value}" for key, value in sorted(extra.items())
            ]
        return [*self.ssh_command, spec.name, shlex.join(remote)], None

    async def _spawn_worker(self, host: HostState) -> _Worker:
        """Launch a worker on ``host`` and admit it once it says hello.

        The process speaks frames on its stdin/stdout.  Its ``hello`` must
        arrive within :data:`_STARTUP_GRACE` seconds and name this
        supervisor's protocol version; otherwise the launch fails with a
        :class:`SpawnError`, which the slot's spawn-failure path handles
        (jobs requeued, retry budgets untouched).  A host reached over SSH
        gets a ``hello_ack`` granting the worker compressed frames, and
        frames to it are compressed too.
        """
        argv, env = self._worker_command(host.spec)
        compress = not host.spec.is_local
        where = f"on host {host.name!r}"
        try:
            proc = await asyncio.create_subprocess_exec(
                *argv,
                stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE,
                env=env,
            )
        except (OSError, ValueError) as exc:
            raise SpawnError(f"cannot launch a worker {where}: {exc}") from exc
        worker = _Worker(proc, compress_out=compress)
        self._pids.add(worker.pid)
        try:
            try:
                hello = await asyncio.wait_for(
                    protocol.read_frame_async(proc.stdout), _STARTUP_GRACE
                )
            except (
                asyncio.TimeoutError,
                asyncio.IncompleteReadError,
                protocol.ProtocolError,
                OSError,
            ) as exc:
                raise SpawnError(f"worker launched {where} sent no hello") from exc
            worker.last_seen = asyncio.get_running_loop().time()
            version = hello.get("protocol") if hello.get("type") == "hello" else None
            if version != protocol.PROTOCOL_VERSION:
                raise SpawnError(
                    f"worker launched {where} speaks protocol {version!r}, "
                    f"this supervisor speaks protocol {protocol.PROTOCOL_VERSION}"
                )
            if compress:
                try:
                    await worker.send({"type": "hello_ack", "compress": True})
                except WorkerDied as exc:
                    raise SpawnError(
                        f"worker launched {where} hung up before its hello_ack"
                    ) from exc
        except BaseException:
            # Failed launch or shutdown mid-handshake: leave no process behind.
            worker.kill()
            try:
                await asyncio.wait_for(worker.wait(), timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover - pipe held open
                pass
            self._pids.discard(worker.pid)
            raise
        self._count("spawns")
        host.spawns += 1
        self._workers.append(worker)
        worker.reader_task = asyncio.ensure_future(self._read_worker(worker))
        worker.monitor_task = asyncio.ensure_future(self._monitor_worker(worker))
        return worker

    def _release_worker(self, worker: _Worker) -> None:
        """Let go of a worker whose stream closed (death, kill, retirement).

        Its process is awaited at shutdown (:meth:`_shutdown_workers`).
        Workers already reaped by then are dropped here, so a long-lived
        service does not accumulate them.
        """
        worker.alive = False
        self._pids.discard(worker.pid)
        if worker in self._workers:
            self._workers.remove(worker)
        self._released = [
            other for other in self._released if other.proc.returncode is None
        ]
        self._released.append(worker)

    async def _read_worker(self, worker: _Worker) -> None:
        """Parse frames from one worker until its stream closes."""
        loop = asyncio.get_running_loop()
        try:
            while True:
                message = await protocol.read_frame_async(worker.reader)
                worker.last_seen = loop.time()
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
                # pong only refreshes last_seen, handled above
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
            if loop.time() - worker.last_seen > self.heartbeat_timeout:
                self._count("heartbeat_kills")
                worker.kill()
                return  # the reader's EOF turns this into the death path
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
        host: HostState,
    ) -> List[_Job]:
        """Dispatch ``jobs`` to one live worker; return those it died holding.

        The jobs go out as one ``run_batch`` frame.  The worker's per-spec
        ``result``/``error`` frames are the acknowledgements, and each job is
        ``finish``\\ ed — handed to the ``on_outcome`` hook — *the moment its
        answer arrives*, not when the batch completes: a cancellation
        (SIGINT) mid-batch therefore keeps every acknowledged result,
        exactly as unbatched dispatch would.  Jobs whose answer
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
                host.record_success()
                if isinstance(outcome, ExperimentFailure):
                    outcome.attempts = job.attempts + 1
                finish(job, outcome)
        finally:
            for job in jobs:
                worker.pending.pop(job.index, None)
            if self._sizer is not None and completed:
                self._sizer.record((loop.time() - started) / completed)
        return died

    async def _worker_slot(
        self,
        queue: "asyncio.Queue[_Job]",
        finish: Callable[[_Job, Outcome], None],
        host: HostState,
    ) -> None:
        """One dispatch loop on ``host``: owns at most one live worker at a time."""
        try:
            await self._dispatch_loop(queue, finish, host)
        finally:
            # However this slot ends (retirement, cancellation), the
            # fair-share denominator follows the surviving slots.
            self._live_slots = max(0, self._live_slots - 1)

    async def _dispatch_loop(
        self,
        queue: "asyncio.Queue[_Job]",
        finish: Callable[[_Job, Outcome], None],
        host: HostState,
    ) -> None:
        """The body of one slot: spawn, dispatch batches, handle deaths."""
        worker: Optional[_Worker] = None
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
            if host.quarantined and not self._service_mode:
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
                    worker = await self._spawn_worker(host)
                except (OSError, ValueError) as exc:
                    print(f"repro.exp.distributed: {exc}", file=sys.stderr)
                    for requeued in jobs:  # spawn failure is not the jobs' fault
                        queue.put_nowait(requeued)
                    if not await self._survive_death(host, launch_failed=True):
                        return
                    continue
            try:
                died = await self._execute_batch(worker, jobs, finish, host)
            except Exception as exc:  # supervisor bug: fail the jobs, stay live
                # Jobs already finished before the exception are protected
                # by finish()'s exactly-once guard.  Unserialisable specs
                # cannot land here (content_key() JSON-dumped every spec
                # before it became a job), so this is a genuine-bug backstop
                # where failing the batch beats requeueing it forever.
                for failed in jobs:
                    finish(failed, ExperimentFailure.from_exception(failed.key, exc))
                continue
            if not died:
                continue
            # One worker death, however many unacknowledged jobs it held:
            # host health accounting counts processes, not specs.
            self._count("worker_deaths")
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
            if not await self._survive_death(host):
                return

    async def _survive_death(
        self, host: HostState, launch_failed: bool = False
    ) -> bool:
        """Count one worker death against ``host``; ``False`` retires the slot.

        A quarantined (crash-looping) host retires its slots in a finite
        run, leaving the queue to the other hosts.  A service slot backs off
        instead and keeps trying, so the pool heals itself when the machine
        does; retry budgets already bound how often one spec recycles.
        Below the quarantine a failed launch pauses briefly, since a missing
        interpreter fails at once.
        """
        if host.record_death():
            self._count("hosts_quarantined")
        if host.quarantined:
            if not self._service_mode:
                return False
            self._count("slot_backoffs")
            await asyncio.sleep(self._backoff_delay(host.consecutive_deaths))
        elif launch_failed:
            await asyncio.sleep(0.05 * host.consecutive_deaths)
        return True

    def _backoff_delay(self, consecutive_deaths: int) -> float:
        """Service-mode retry delay once a host exceeds its spawn budget.

        Doubles from 0.5 s and saturates at 30 s: fast enough that a healed
        machine resumes promptly, slow enough that a broken interpreter does
        not fork-bomb the host while the daemon idles.
        """
        over = max(0, consecutive_deaths - self.spawn_retries - 1)
        return min(30.0, 0.5 * (2 ** min(over, 6)))

    def absolve_stall(self, started: float, ended: float) -> None:
        """Forgive a supervisor-side event-loop stall of ``ended - started``.

        A synchronous call on the event loop (a shard-locked store write on
        a slow filesystem, say) freezes frame reading: no pongs arrive while
        it runs.  When the stall exceeded half a heartbeat interval, restart
        every worker's staleness clock so healthy workers are not killed for
        the supervisor's own pause.  Brackets the ``on_outcome`` hook here
        and the service daemon's store writes.
        """
        if ended - started > self.heartbeat_interval / 2:
            for other in self._workers:
                other.last_seen = max(other.last_seen, ended)

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
        self._reset()
        self._service_tasks = self._start_slots(queue, finish)

    async def stop_service(self) -> None:
        """Stop the slots and reap every worker."""
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
        finally:
            self._service_mode = False

    def dispatch_snapshot(self) -> Dict[str, object]:
        """Live dispatch counters for the service's ``stats`` frame."""
        return {
            "live_workers": len(self._workers),
            "live_slots": self._live_slots,
            "counters": dict(self.stats),
        }

    def host_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-host health accounting: live while running, final after."""
        return {host.name: host.snapshot() for host in self._hosts}

    @property
    def host_stats(self) -> Dict[str, Dict[str, object]]:
        """Spawns, completed jobs and quarantine of each host."""
        return {
            name: {key: snapshot[key]
                   for key in ("spawns", "completed", "quarantined")}
            for name, snapshot in self.host_snapshot().items()
        }

    # ------------------------------------------------------------------
    def _start_slots(
        self,
        queue: "asyncio.Queue[_Job]",
        finish: Callable[[_Job, Outcome], None],
    ) -> List["asyncio.Task"]:
        """One dispatch-loop task per unit of every host's budget."""
        slots = [
            asyncio.ensure_future(self._worker_slot(queue, finish, host))
            for host in self._hosts
            for _ in range(host.budget)
        ]
        self._live_slots = len(slots)
        return slots

    async def _shutdown_workers(self) -> None:
        """Terminate and reap every worker; tolerate cancellation.

        The reader tasks are deliberately left running until each worker is
        reaped: a worker holding a deep batch may have many unread result
        frames in flight, and with nobody consuming them the stream's flow
        control pauses the pipe transport before its EOF — after which the
        process's ``wait()`` can never resolve.  The readers drain those
        frames (harmlessly: the futures are already settled) and see the
        EOF that lets the transport close.

        Workers released during the run (dead, heartbeat-killed or retired)
        are awaited too.  Otherwise ``asyncio.run`` can close the loop
        before the child watcher reports their exit, and the garbage
        collector then closes their transports on a closed loop.
        """
        workers = list(self._workers)
        for worker in workers:
            worker.alive = False
            if worker.monitor_task is not None:
                worker.monitor_task.cancel()
            worker.close_gracefully()
        for worker in workers:
            await self._reap(worker)
            self._pids.discard(worker.pid)
            if worker.reader_task is not None:
                worker.reader_task.cancel()  # EOF normally ended it already
        self._workers = [w for w in self._workers if w not in workers]
        released, self._released = self._released, []
        for worker in released:
            await self._reap(worker)

    @staticmethod
    async def _reap(worker: _Worker) -> None:
        """Await ``worker``'s exit, killing it if it takes over 2 s."""
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

    async def _supervise(
        self,
        specs: Sequence[ExperimentSpec],
        on_outcome: Optional[OnOutcome],
    ) -> List[Outcome]:
        """Run unique ``specs`` to completion; one outcome per spec, in order."""
        loop = asyncio.get_running_loop()
        self._reset()

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
            if remaining == 0:
                done.set()
            if on_outcome is not None:
                # The hook (a store write under a shard flock, say) freezes
                # the event loop; forgive the stall so healthy workers are
                # not heartbeat-killed for it.
                hook_started = loop.time()
                on_outcome(job.spec, outcome)
                self.absolve_stall(hook_started, loop.time())

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
            # Every slot retired (crash-looping hosts): fail what is left.
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
            slots.extend(self._start_slots(queue, finish))
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

        if interrupted:
            raise KeyboardInterrupt
        for job, outcome in zip(jobs, outcomes):
            if outcome is None:
                finish(job, ExperimentFailure(
                    spec_key=job.key,
                    error_type="Unexecuted",
                    message="supervisor exited before this spec ran",
                    attempts=job.attempts,
                ))
        return outcomes
