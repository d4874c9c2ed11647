"""Lazily compiled plan blocks, and what a detailed run leaves behind.

``ExecutionPlan.record_blocks`` compiles a record's walk streams on its
first detailed execution instead of when the plan is built: the compiled
tuples must equal a straightforward per-record construction, whatever the
access order, and a sampled run must compile only a small part of the
trace.  A run also pauses the cyclic garbage collector and leaves no
reference cycles, so a finished machine is freed by reference counting.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.arch.config import high_performance_config, low_power_config
from repro.core.config import periodic_config
from repro.core.controller import TaskPointController
from repro.sim.engine import SimulationEngine
from repro.sim.reference import ReferenceEngine
from repro.workloads.registry import get_workload

_ARCHITECTURES = {"highperf": high_performance_config, "lowpower": low_power_config}


def _reference_blocks(plan, columns, record: int) -> tuple:
    """Record ``record``'s walk streams, built one event at a time."""
    l1_set, l1_tag = plan.level_set_list[0], plan.level_tag_list[0]
    write = columns.event_is_write.tolist()
    shared = columns.event_shared.tolist()
    offsets = columns.event_offsets.tolist()
    blocks = []
    for block in range(plan.block_offsets[record], plan.block_offsets[record + 1]):
        events = tuple(
            (l1_set[event], l1_tag[event], write[event],
             write[event] and shared[event], event)
            for event in range(offsets[block], offsets[block + 1])
        )
        blocks.append((events, plan.block_dispatch_list[block], plan.block_repeat_list[block]))
    return tuple(blocks)


@pytest.mark.parametrize("arch_name", sorted(_ARCHITECTURES))
@pytest.mark.parametrize("workload", ["cholesky", "histogram", "dedup"])
def test_compiled_blocks_match_the_reference_in_any_order(workload, arch_name):
    trace = get_workload(workload).generate(scale=0.01, seed=2)
    plan = SimulationEngine(trace, _ARCHITECTURES[arch_name](), 4).batched.plan
    records = trace.columns.num_records
    order = np.random.default_rng(0).permutation(records).tolist()
    compiled = {record: plan.record_blocks[record] for record in order}
    assert len(plan.record_blocks) == records
    for record in range(records):
        assert compiled[record] == _reference_blocks(plan, trace.columns, record)


def test_lookups_outside_the_trace_raise_key_error():
    trace = get_workload("swaptions").generate(scale=0.004, seed=1)
    blocks = SimulationEngine(trace, high_performance_config(), 2).batched.plan.record_blocks
    for record in (-1, trace.columns.num_records, trace.columns.num_records + 40):
        with pytest.raises(KeyError):
            blocks[record]
    assert len(blocks) == 0


def test_sampled_run_compiles_a_small_part_of_the_trace():
    trace = get_workload("cholesky").generate(scale=0.05, seed=1)
    engine = SimulationEngine(trace, high_performance_config(), 4,
                              controller=TaskPointController(config=periodic_config()))
    result = engine.run()
    compiled = len(engine.batched.plan.record_blocks)
    assert 0 < result.cost.detailed_instances <= compiled
    assert compiled < trace.columns.num_records / 4

    detailed = SimulationEngine(trace, high_performance_config(), 4)
    detailed.run()
    assert len(detailed.batched.plan.record_blocks) == trace.columns.num_records


# ----------------------------------------------------------------------
def test_run_pauses_and_restores_the_cycle_collector(uniform_trace, high_perf):
    states = []

    def record_state(instance):
        states.append(gc.isenabled())
        return 1.0

    assert gc.isenabled()
    SimulationEngine(uniform_trace, high_perf, 2, noise_model=record_state).run()
    assert states and not any(states)
    assert gc.isenabled()

    gc.disable()
    try:
        SimulationEngine(uniform_trace, high_perf, 2).run()
        assert not gc.isenabled()  # a caller's choice is left alone
    finally:
        gc.enable()

    def fail(instance):
        raise RuntimeError("noise model failed")

    with pytest.raises(RuntimeError):
        SimulationEngine(uniform_trace, high_perf, 2, noise_model=fail).run()
    assert gc.isenabled()


@pytest.mark.parametrize("threads,sampled,planes,batched", [
    (4, False, False, True),   # detailed, grouped scalar walk
    (4, True, False, True),    # sampled
    (32, False, True, True),   # wide groups, rows moved through the planes
    (2, False, False, False),  # per-record reference engine
])
def test_finished_machine_is_freed_by_reference_counting(threads, sampled, planes, batched):
    trace = get_workload("blackscholes").generate(scale=0.01, seed=1)
    controller = TaskPointController(config=periodic_config()) if sampled else None
    engine_class = SimulationEngine if batched else ReferenceEngine
    engine = engine_class(trace, high_performance_config(), threads,
                          controller=controller)
    engine.run()
    memory = engine.memory_system
    if planes:  # move every row into the tag-store planes, then back
        for store in memory.stores:
            store.ensure_planes()
            store.adopt(np.arange(store.num_rows))
            store.export_all()
    caches = memory.hierarchy(0).caches
    alive = [weakref.ref(memory), weakref.ref(engine.batched)]
    alive += [weakref.ref(cache._sets) for cache in caches]
    del memory, caches
    gc.disable()
    try:
        del engine
        assert [ref() for ref in alive] == [None] * len(alive)
    finally:
        gc.enable()
