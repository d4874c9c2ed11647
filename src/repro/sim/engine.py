"""Discrete-event simulation engine.

The engine drives the co-simulation of the runtime system and the
architecture model: idle worker threads request ready task instances from the
runtime, the mode controller decides how each instance is simulated, and the
engine advances simulated time from task completion to task completion.

Mode switching happens only at task-instance boundaries, exactly as in the
paper: when the controller switches from sampling to fast-forward, instances
that already started in detailed mode run to completion in detailed mode
while newly dispatched instances start in burst mode, so short mixed phases
occur naturally.

Dispatch is index based: detailed execution resolves a task instance by its
record index on the columnar trace backbone, and results accumulate into a
columnar :class:`~repro.sim.results.InstanceTable`.  The per-record
:class:`~repro.sim.reference.ReferenceEngine` is the oracle this engine must
match bit for bit; the equivalence tests and the hot-path microbenchmark
compare against it.

Deferred grouped dispatch
-------------------------
A dispatched instance's cycle count is only *consumed* when that instance
could be the next completion on the heap.  The engine therefore defers the
detailed evaluation of instances that commute with all other deferred
instances (different cores, no shared-data writes — see
:mod:`repro.arch.vector`; same-set accesses at shared levels are serialised
in-kernel, so set aliasing does not break a group): as long as an
already-known completion provably precedes every deferred instance's
completion (its end time is bounded below by the dispatch cycle plus the
precomputed contention-free dispatch floor), the engine keeps popping known
completions and dispatching further work.  When the bound no longer
separates them, the whole deferred group is evaluated at once — in dispatch
order, so results and statistics are bit-identical to immediate
evaluation — and pushed onto the heap.  In steady state this yields groups
close to ``num_threads`` even though the simulated schedule dispatches one
instance per completion; one thread runs as groups of one.  Shared-data
writers never defer: they drain the group and run alone.

Groups execute through one of two backends: the scalar walk of
:meth:`~repro.arch.batch.BatchedCoreExecutor.execute_many` or the vectorised
walk kernel (:class:`~repro.arch.vector.VectorWalkEngine`).  The kernel pays
a fixed cost per group that only wide, event-rich groups amortise, so the
choice follows the group structure alone: the scalar walk runs until the
first group with at least :data:`KERNEL_MIN_GROUP` members and
:data:`KERNEL_MIN_EVENTS` memory events per private cache level for every
cache level (768 on the high-performance hierarchy, 1024 on the low-power
one), and the kernel runs every later group and writer.  Both backends are
bit-identical, so the choice affects wall time only, and it is the same on
every run of the same configuration.  Per-run coverage is reported in
:attr:`SimulationEngine.vector_stats`, along with a per-phase wall-time
breakdown when ``$REPRO_PROFILE`` is set.
"""

from __future__ import annotations

import functools
import gc
import heapq
import os
import time
from typing import Callable, Dict, List, Optional

from repro.arch.batch import BatchedCoreExecutor
from repro.arch.vector import VectorWalkEngine
from repro.arch.config import ArchitectureConfig
from repro.arch.hierarchy import MemorySystem
from repro.arch.rob import RobModel
from repro.runtime.runtime import RuntimeSystem
from repro.runtime.scheduler import Scheduler
from repro.runtime.task import TaskInstance, TaskState
from repro.sim.cost import SimulationCost
from repro.sim.modes import (
    DETAILED_DECISION,
    AlwaysDetailedController,
    CompletionInfo,
    ModeController,
    SimulationMode,
)
from repro.sim.results import InstanceTable, SimulationResult
from repro.trace.trace import ApplicationTrace

#: Type of the optional per-instance noise callback: maps a task instance to a
#: multiplicative factor applied to its detailed-mode cycle count.
NoiseModel = Callable[[TaskInstance], float]

#: Kernel engagement floors (see the module docstring): the first group with
#: at least ``KERNEL_MIN_GROUP`` members and ``KERNEL_MIN_EVENTS`` memory
#: events per private level for every cache level switches the run to the
#: vector kernel for good.  The kernel pays a fixed cost per group and per
#: member (argsort, masked gathers, statistics scatter) that sparse groups
#: never earn back.  The event floor rises with the share of the walk spent
#: at shared levels, where the kernel serialises members that touch the
#: same set.  The width floor guards narrow groups; on the measured
#: workloads the event floor already excludes them.  Calibrated in
#: EXPERIMENTS.md.
KERNEL_MIN_GROUP = 16
KERNEL_MIN_EVENTS = 512


class DeadlockError(RuntimeError):
    """Raised when no task is ready, none is running, but work remains."""


def _cyclic_gc_paused(method):
    """Run ``method`` with Python's cyclic garbage collector paused.

    Building and running a machine allocates millions of short-lived objects
    next to a large long-lived heap (tag-store sets, compiled plan blocks),
    and the allocation-triggered collections kept re-scanning that heap: at
    scale 0.05 they took ~40% of the wall time of the 19 detailed runs.  A
    machine holds no reference cycles (acyclic garbage is freed at once by
    reference counting, and a dropped machine with it), so the collector is
    paused while an engine is built and run, and resumed as it was
    afterwards.  Results do not depend on it.
    """

    @functools.wraps(method)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return method(*args, **kwargs)
        gc.disable()
        try:
            return method(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def _timed(phases: Dict[str, float], phase: str, function):
    """``function``, adding its wall time to ``phases[phase]`` on each call."""

    def timed(*args):
        start = time.perf_counter()
        try:
            return function(*args)
        finally:
            phases[phase] += time.perf_counter() - start

    return timed


#: Completion-queue entries are plain tuples
#: ``(end_cycle, sequence, worker_id, instance, decision, ipc)`` — ordered by
#: time then dispatch sequence; the unique sequence number guarantees the
#: comparison never reaches the non-orderable payload fields, and tuple
#: comparison stays in C.


class SimulationEngine:
    """Simulates one application trace on one machine configuration.

    Parameters
    ----------
    trace:
        Application trace to replay.
    architecture:
        Architecture configuration (see :mod:`repro.arch.config`).
    num_threads:
        Number of simulated worker threads (one per simulated core).
    scheduler:
        Dynamic task scheduler; defaults to the runtime's FIFO scheduler.
    controller:
        Mode controller; defaults to full detailed simulation.
    noise_model:
        Optional multiplicative noise applied to detailed-mode cycle counts
        (used by the native-execution substitute).
    """

    @_cyclic_gc_paused
    def __init__(
        self,
        trace: ApplicationTrace,
        architecture: ArchitectureConfig,
        num_threads: int,
        scheduler: Optional[Scheduler] = None,
        controller: Optional[ModeController] = None,
        noise_model: Optional[NoiseModel] = None,
    ) -> None:
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        self.trace = trace
        self.architecture = architecture
        self.num_threads = num_threads
        self.runtime = RuntimeSystem(trace, scheduler)
        self.controller: ModeController = (
            controller if controller is not None else AlwaysDetailedController()
        )
        self.noise_model = noise_model
        self.memory_system = MemorySystem(architecture, num_threads)
        rob = RobModel(architecture.core, l1_latency=architecture.l1.latency_cycles)
        # Per-phase wall-time breakdown (static precompute / scalar walk /
        # kernel / lazy export), recorded when ``$REPRO_PROFILE`` is set and
        # surfaced as ``vector_stats["phase_wall_s"]`` after a run.
        self._phase_wall: Optional[Dict[str, float]] = (
            {"static": 0.0, "scalar_walk": 0.0, "kernel": 0.0, "export": 0.0}
            if os.environ.get("REPRO_PROFILE")
            else None
        )
        static_start = time.perf_counter() if self._phase_wall is not None else 0.0
        self.batched = BatchedCoreExecutor(
            trace.columns, architecture, self.memory_system, rob
        )
        if self._phase_wall is not None:
            self._phase_wall["static"] = time.perf_counter() - static_start
            for store in self.memory_system.stores:
                store.profile = True
        self.vector = VectorWalkEngine(self.batched)
        #: Coverage counters of the grouped-dispatch path (vector-walked vs
        #: scalar-executed detailed instances, group count and sizes).  Kept
        #: on the engine — never in :class:`SimulationResult` — so stored
        #: experiment payloads stay byte-identical across backends.
        self.vector_stats = {
            "vector_instances": 0,
            "scalar_instances": 0,
            "groups": 0,
            "max_group": 0,
        }
        self.cost = SimulationCost()

    # ------------------------------------------------------------------
    def _execute_burst(self, instance: TaskInstance, ipc: float) -> tuple:
        """Advance ``instance`` in burst mode at ``ipc``; return (cycles, ipc)."""
        cycles = max(1.0, instance.instructions / ipc)
        self.cost.charge_burst()
        return cycles, instance.instructions / cycles

    def _result(self, total_cycles: float, instances: InstanceTable) -> SimulationResult:
        return SimulationResult(
            benchmark=self.trace.name,
            architecture=self.architecture.name,
            num_threads=self.num_threads,
            total_cycles=total_cycles,
            instances=instances,
            cost=self.cost,
            metadata={"scheduler": type(self.runtime.scheduler).__name__},
        )

    def _deadlock(self) -> DeadlockError:
        return DeadlockError(
            f"no runnable tasks but {self.runtime.num_instances - self.runtime.num_completed}"
            " instances remain; the trace's dependency graph cannot progress"
        )

    # ------------------------------------------------------------------
    @_cyclic_gc_paused
    def run(self) -> SimulationResult:
        """Simulate the complete application and return the result.

        Detailed instances that commute are evaluated in deferred groups
        (see the module docstring); control flow, float operation order and
        heap semantics are those of evaluating every instance at dispatch,
        as :class:`~repro.sim.reference.ReferenceEngine` does.
        """
        current_cycle = 0.0
        # Min-heap of idle worker ids (ascending, so already a heap):
        # dispatch always picks the lowest id first.
        idle_workers: List[int] = list(range(self.num_threads))
        completions: List[tuple] = []
        running: set = set()
        results = InstanceTable()

        vector = self.vector
        plan = self.batched.plan
        noise_model = self.noise_model
        cycles_floor = plan.cycles_floor_list
        shared_writer = plan.has_shared_write_list
        detail_events = plan.detail_events
        stats = self.vector_stats
        controller = self.controller
        # The default controller's decision is a singleton constant and its
        # completion callback is a no-op: skip both calls (and the
        # CompletionInfo construction) in the hot loop.
        fast_detailed = type(controller) is AlwaysDetailedController
        scalar_walk = self.batched.execute_many
        kernel_walk = vector.execute_group
        kernel_writer = vector.execute_writer
        phase_wall = self._phase_wall
        if phase_wall is not None:
            scalar_walk = _timed(phase_wall, "scalar_walk", scalar_walk)
            kernel_walk = _timed(phase_wall, "kernel", kernel_walk)
            kernel_writer = _timed(phase_wall, "kernel", kernel_writer)
        hierarchy = self.memory_system.hierarchy(0)
        min_group = KERNEL_MIN_GROUP
        min_events = (KERNEL_MIN_EVENTS * len(hierarchy.caches)
                      / max(1, len(hierarchy.private_caches)))
        kernel = False

        # Hot-loop bindings: method lookups are hoisted and the checked
        # READY->RUNNING->COMPLETED transitions are inlined (the instances
        # handed out by ``next_task`` are READY by construction).
        runtime = self.runtime
        runtime_finished = runtime.finished
        next_task = runtime.next_task
        runtime_notify = runtime.notify_completion
        cost = self.cost
        charge_detailed = cost.charge_detailed
        results_append = results.append
        heappush = heapq.heappush
        heappop = heapq.heappop
        choose_mode = controller.choose_mode
        running_state = TaskState.RUNNING
        completed_state = TaskState.COMPLETED
        detailed_mode = SimulationMode.DETAILED
        sequence = 0

        # Deferred entries: (dispatch_cycle, sequence, worker_id, instance,
        # decision, active_workers, noise, record_index), in dispatch order.
        deferred: List[tuple] = []
        deferred_bound = float("inf")
        deferred_events = 0

        def flush_deferred() -> None:
            nonlocal deferred_bound, deferred_events, kernel
            size = len(deferred)
            stats["groups"] += 1
            if size > stats["max_group"]:
                stats["max_group"] = size
            group = [(e[7], e[2], e[5], e[6]) for e in deferred]
            if not kernel and size >= min_group and deferred_events >= min_events:
                kernel = True
            if kernel:
                outcomes = kernel_walk(group)
                stats["vector_instances"] += size
            else:
                outcomes = scalar_walk(group)
                stats["scalar_instances"] += size
            instructions_sum = 0
            for entry, (cycles, ipc) in zip(deferred, outcomes):
                cycle0, seq, worker, instance, decision, _a, _n, _i = entry
                instructions_sum += instance.instructions
                heappush(
                    completions,
                    (cycle0 + cycles, seq, worker, instance, decision, ipc),
                )
            # Batched cost charging: integer sums, so the aggregate update
            # leaves the cost counters exactly as per-instance charging
            # would (``deferred_events`` is the group's event total).
            cost.detailed_instructions += instructions_sum
            cost.detailed_instances += size
            cost.detailed_memory_events += deferred_events
            deferred.clear()
            deferred_bound = float("inf")
            deferred_events = 0

        while not runtime_finished():
            # Dispatch ready instances to idle workers.  Assignments are
            # collected first so every instance dispatched at this simulated
            # instant sees the same active-worker count (they will execute
            # concurrently, so they contend with each other).
            assignments: List[tuple] = []
            while idle_workers:
                worker_id = idle_workers[0]
                instance = next_task(worker_id)
                if instance is None:
                    break
                heappop(idle_workers)
                assignments.append((worker_id, instance))
            active_workers = len(running) + len(assignments)
            for worker_id, instance in assignments:
                decision = (
                    DETAILED_DECISION
                    if fast_detailed
                    else choose_mode(
                        instance, worker_id, active_workers, current_cycle
                    )
                )
                # READY -> RUNNING (inlined mark_running).
                instance.state = running_state
                instance.worker_id = worker_id
                instance.start_cycle = current_cycle
                sequence += 1
                if decision.mode is detailed_mode:
                    noise = (
                        noise_model(instance) if noise_model is not None else None
                    )
                    index = instance.instance_id
                    if not shared_writer[index] and (noise is None or noise > 0.0):
                        deferred.append(
                            (
                                current_cycle,
                                sequence,
                                worker_id,
                                instance,
                                decision,
                                active_workers,
                                noise,
                                index,
                            )
                        )
                        deferred_events += detail_events[index]
                        bound = cycles_floor[index]
                        if noise is not None:
                            bound *= noise
                        bound += current_cycle
                        if bound < deferred_bound:
                            deferred_bound = bound
                        running.add(worker_id)
                        continue
                    # Shared-data writer (or non-positive noise, which voids
                    # the completion bound): order matters against
                    # everything — drain the group first, then run alone.
                    if deferred:
                        flush_deferred()
                    if kernel:
                        cycles, ipc = kernel_writer(
                            index, worker_id, active_workers, noise
                        )
                        stats["vector_instances"] += 1
                    else:
                        ((cycles, ipc),) = scalar_walk(
                            ((index, worker_id, active_workers, noise),)
                        )
                        stats["scalar_instances"] += 1
                    charge_detailed(
                        instructions=instance.instructions,
                        memory_events=detail_events[index],
                    )
                else:
                    cycles, ipc = self._execute_burst(instance, decision.ipc)
                heappush(
                    completions,
                    (current_cycle + cycles, sequence, worker_id, instance,
                     decision, ipc),
                )
                running.add(worker_id)

            # A known completion can be popped only while it strictly
            # precedes every deferred instance's completion (the bound is a
            # lower bound on deferred end times, so ``< bound`` suffices);
            # on ties or overshoot, flush — heap order then decides.
            if deferred and (
                not completions or completions[0][0] >= deferred_bound
            ):
                flush_deferred()
            if not completions:
                if runtime_finished():
                    break
                raise self._deadlock()

            # Advance to the next completion.
            current_cycle, _, worker_id, instance, decision, completion_ipc = (
                heappop(completions)
            )
            running.remove(worker_id)
            # RUNNING -> COMPLETED (inlined mark_completed).
            instance.state = completed_state
            instance.end_cycle = current_cycle
            start_cycle = instance.start_cycle
            if not fast_detailed:
                controller.notify_completion(
                    CompletionInfo(
                        instance,
                        decision.mode,
                        current_cycle - start_cycle,
                        completion_ipc,
                        decision.is_warmup,
                        start_cycle,
                        current_cycle,
                        worker_id,
                        len(running) + 1,
                    )
                )
            runtime_notify(instance, worker_id)
            heappush(idle_workers, worker_id)
            results_append(
                instance.instance_id,
                instance.task_type.name,
                worker_id,
                decision.mode is detailed_mode,
                instance.instructions,
                start_cycle,
                current_cycle,
                completion_ipc,
                decision.is_warmup,
            )

        # Drain the kernel's deferred integer statistics into the cache
        # counters.  Tag-store contents stay plane-resident — nothing in
        # the production path reads the OrderedDicts after a run; callers
        # that do inspect them (the equivalence tests) call
        # ``flush_state()``, and any later scalar reader materialises rows
        # lazily.
        vector.flush_statistics()
        if phase_wall is not None:
            phase_wall["export"] = sum(
                store.export_seconds for store in self.memory_system.stores
            )
            stats["phase_wall_s"] = dict(phase_wall)
        return self._result(current_cycle, results)
