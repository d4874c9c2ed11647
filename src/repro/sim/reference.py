"""Per-record reference engine: the oracle of the detailed path.

:class:`ReferenceEngine` replays a trace with the plainest loop there is:
every dispatched instance runs at once through its core's
:class:`~repro.arch.core.DetailedCoreModel`, one record view and one memory
event at a time, with no deferral, no plan and no kernel.  It is several
times slower than :class:`~repro.sim.engine.SimulationEngine` and exists
for that comparison only: the equivalence tests require the production
engine to reproduce its results, cache statistics and final tag stores bit
for bit, and the hot-path microbenchmark times the production engine
against it.
"""

from __future__ import annotations

import heapq
from typing import List

from repro.arch.core import DetailedCoreModel
from repro.sim.engine import SimulationEngine, _cyclic_gc_paused
from repro.sim.modes import (
    DETAILED_DECISION,
    AlwaysDetailedController,
    CompletionInfo,
    SimulationMode,
)
from repro.sim.results import InstanceTable, SimulationResult


class ReferenceEngine(SimulationEngine):
    """:class:`SimulationEngine` with every detailed instance run per record.

    Takes the same parameters; the machine state (memory system, runtime,
    controller, cost counters) is built the same way, so the two engines'
    results and memory statistics compare field by field.
    """

    @_cyclic_gc_paused
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cores = [
            DetailedCoreModel(core_id, self.memory_system, self.batched.rob_model)
            for core_id in range(self.num_threads)
        ]

    @_cyclic_gc_paused
    def run(self) -> SimulationResult:
        """Simulate the complete application and return the result."""
        current_cycle = 0.0
        idle_workers: List[int] = list(range(self.num_threads))
        completions: List[tuple] = []
        running: set = set()
        results = InstanceTable()
        controller = self.controller
        fast_detailed = type(controller) is AlwaysDetailedController
        sequence = 0

        while not self.runtime.finished():
            assignments: List[tuple] = []
            while idle_workers:
                worker_id = idle_workers[0]
                instance = self.runtime.next_task(worker_id)
                if instance is None:
                    break
                heapq.heappop(idle_workers)
                assignments.append((worker_id, instance))
            active_workers = len(running) + len(assignments)
            for worker_id, instance in assignments:
                decision = (
                    DETAILED_DECISION
                    if fast_detailed
                    else controller.choose_mode(
                        instance, worker_id, active_workers, current_cycle
                    )
                )
                instance.mark_running(worker_id, current_cycle)
                if decision.mode is SimulationMode.DETAILED:
                    noise = (
                        self.noise_model(instance)
                        if self.noise_model is not None
                        else None
                    )
                    execution = self.cores[worker_id].execute(
                        instance.record, active_cores=active_workers, noise=noise
                    )
                    self.cost.charge_detailed(
                        instructions=instance.instructions,
                        memory_events=execution.memory_events,
                    )
                    cycles, ipc = execution.cycles, execution.ipc
                else:
                    cycles, ipc = self._execute_burst(instance, decision.ipc)
                sequence += 1
                heapq.heappush(
                    completions,
                    (current_cycle + cycles, sequence, worker_id, instance,
                     decision, ipc),
                )
                running.add(worker_id)

            if not completions:
                if self.runtime.finished():
                    break
                raise self._deadlock()

            current_cycle, _, worker_id, instance, decision, completion_ipc = (
                heapq.heappop(completions)
            )
            running.remove(worker_id)
            instance.mark_completed(current_cycle)
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
            self.runtime.notify_completion(instance, worker_id)
            heapq.heappush(idle_workers, worker_id)
            results.append(
                instance.instance_id,
                instance.task_type.name,
                worker_id,
                decision.mode is SimulationMode.DETAILED,
                instance.instructions,
                start_cycle,
                current_cycle,
                completion_ipc,
                decision.is_warmup,
            )

        return self._result(current_cycle, results)
