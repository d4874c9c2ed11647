"""Unit and integration tests for the simulation engine and simulator facade."""

import pytest

from repro.sim.engine import DeadlockError, SimulationEngine
from repro.sim.modes import FixedIpcController, SimulationMode
from repro.sim.simulator import TaskSimSimulator, simulate
from repro.trace.generator import TraceBuilder
from repro.trace.records import MemoryEvent

from tests.conftest import build_chain_trace, build_two_type_trace, build_uniform_trace


class TestEngineBasics:
    def test_all_instances_complete(self, uniform_trace, high_perf):
        result = SimulationEngine(uniform_trace, high_perf, num_threads=4).run()
        assert result.num_instances == len(uniform_trace)
        assert result.total_cycles > 0
        completed_ids = sorted(i.instance_id for i in result.instances)
        assert completed_ids == list(range(len(uniform_trace)))

    def test_invalid_thread_count(self, uniform_trace, high_perf):
        with pytest.raises(ValueError):
            SimulationEngine(uniform_trace, high_perf, num_threads=0)

    def test_serial_chain_executes_in_order(self, chain_trace, high_perf):
        result = SimulationEngine(chain_trace, high_perf, num_threads=4).run()
        ordered = sorted(result.instances, key=lambda i: i.start_cycle)
        assert [i.instance_id for i in ordered] == list(range(len(chain_trace)))
        # A serial chain gains nothing from extra threads.
        for earlier, later in zip(ordered, ordered[1:]):
            assert later.start_cycle >= earlier.end_cycle

    def test_parallel_trace_scales_with_threads(self, high_perf):
        trace = build_uniform_trace(num_instances=64)
        single = SimulationEngine(trace, high_perf, num_threads=1).run()
        trace2 = build_uniform_trace(num_instances=64)
        multi = SimulationEngine(trace2, high_perf, num_threads=8).run()
        assert multi.total_cycles < single.total_cycles
        assert multi.total_cycles > single.total_cycles / 16

    def test_more_threads_than_tasks(self, high_perf):
        trace = build_uniform_trace(num_instances=3)
        result = SimulationEngine(trace, high_perf, num_threads=16).run()
        assert result.num_instances == 3
        used_workers = {i.worker_id for i in result.instances}
        assert len(used_workers) <= 3

    def test_dependencies_respected(self, high_perf):
        builder = TraceBuilder("dep-test")
        region = builder.allocator.allocate(4096)
        a = builder.add_task("a", instructions=2_000,
                             memory_events=[MemoryEvent(address=region.base)])
        b = builder.add_task("b", instructions=2_000, depends_on=[a])
        builder.add_task("c", instructions=2_000, depends_on=[a, b])
        result = SimulationEngine(builder.build(), high_perf, num_threads=4).run()
        by_id = {i.instance_id: i for i in result.instances}
        assert by_id[1].start_cycle >= by_id[0].end_cycle
        assert by_id[2].start_cycle >= by_id[1].end_cycle

    def test_cost_accumulated(self, uniform_trace, high_perf):
        result = SimulationEngine(uniform_trace, high_perf, num_threads=2).run()
        assert result.cost.detailed_instances == len(uniform_trace)
        assert result.cost.burst_instances == 0
        assert result.cost.total_units > 0


class TestModeControllerIntegration:
    def test_fixed_ipc_controller_burst_durations(self, uniform_trace, high_perf):
        controller = FixedIpcController(ipc=2.0)
        result = SimulationEngine(
            uniform_trace, high_perf, num_threads=2, controller=controller
        ).run()
        assert all(i.mode is SimulationMode.BURST for i in result.instances)
        for instance in result.instances:
            assert instance.cycles == pytest.approx(instance.instructions / 2.0)
        assert result.cost.detailed_instances == 0

    def test_burst_faster_than_detailed_in_cost(self, high_perf):
        trace_a = build_uniform_trace(num_instances=30)
        trace_b = build_uniform_trace(num_instances=30)
        detailed = SimulationEngine(trace_a, high_perf, num_threads=2).run()
        burst = SimulationEngine(
            trace_b, high_perf, num_threads=2, controller=FixedIpcController(ipc=2.0)
        ).run()
        assert burst.cost.total_units < detailed.cost.total_units

    def test_noise_model_applied(self, high_perf):
        trace_a = build_uniform_trace(num_instances=20)
        trace_b = build_uniform_trace(num_instances=20)
        base = SimulationEngine(trace_a, high_perf, num_threads=2).run()
        noisy = SimulationEngine(
            trace_b, high_perf, num_threads=2, noise_model=lambda instance: 2.0
        ).run()
        assert noisy.total_cycles == pytest.approx(base.total_cycles * 2.0, rel=0.01)


class TestSimulatorFacade:
    def test_run_records_wall_time(self, uniform_trace):
        simulator = TaskSimSimulator()
        result = simulator.run(uniform_trace, num_threads=2)
        assert result.wall_seconds is not None and result.wall_seconds > 0
        result = simulator.run(uniform_trace2(), num_threads=2, measure_wall_time=False)
        assert result.wall_seconds is None

    def test_simulate_convenience(self, two_type_trace, low_power):
        result = simulate(two_type_trace, num_threads=2, architecture=low_power)
        assert result.architecture == "low-power"
        assert result.benchmark == "two-type"
        assert result.num_threads == 2

    def test_scheduler_seed_changes_assignment(self):
        trace_a = build_two_type_trace(num_instances=40)
        trace_b = build_two_type_trace(num_instances=40)
        first = simulate(trace_a, num_threads=4, scheduler="random", scheduler_seed=1)
        second = simulate(trace_b, num_threads=4, scheduler="random", scheduler_seed=2)
        order_first = [i.instance_id for i in first.instances]
        order_second = [i.instance_id for i in second.instances]
        assert order_first != order_second

    def test_metadata_records_scheduler(self, uniform_trace):
        result = simulate(uniform_trace, num_threads=1, scheduler="locality")
        assert result.metadata["scheduler"] == "LocalityScheduler"


def uniform_trace2():
    """A fresh uniform trace (fixtures cannot be reused across runs)."""
    return build_uniform_trace(num_instances=60)


class TestPhaseProfile:
    """The $REPRO_PROFILE per-phase wall-time breakdown in vector_stats."""

    def test_phase_breakdown_recorded_when_profiling(self, monkeypatch, high_perf):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        # One thread runs the same grouped loop, as groups of one.
        for threads in (1, 4):
            trace = build_uniform_trace(num_instances=60)
            engine = SimulationEngine(trace, high_perf, num_threads=threads)
            engine.run()
            phases = engine.vector_stats["phase_wall_s"]
            assert set(phases) == {"static", "scalar_walk", "kernel", "export"}
            assert all(value >= 0.0 for value in phases.values())
            # The run executed detailed instances, so at least one of the
            # walk phases must have accumulated wall time.
            assert phases["scalar_walk"] + phases["kernel"] > 0.0

    def test_phase_breakdown_absent_by_default(self, monkeypatch, high_perf):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        trace = build_uniform_trace(num_instances=60)
        engine = SimulationEngine(trace, high_perf, num_threads=4)
        engine.run()
        assert "phase_wall_s" not in engine.vector_stats
