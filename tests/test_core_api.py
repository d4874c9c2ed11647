"""Tests for the high-level TaskPoint API (sampled_simulation, comparisons)."""

import pytest

from repro.core.api import compare_with_detailed, sampled_simulation
from repro.core.config import TaskPointConfig, lazy_config, periodic_config
from repro.core.controller import TaskPointStatistics
from repro.core.fidelity import FidelityConfig, FidelityStatistics
from repro.core.stratified import StratifiedConfig, StratifiedStatistics
from repro.sim.modes import SimulationMode
from repro.sim.simulator import simulate
from repro.workloads.registry import get_workload

from tests.conftest import build_two_type_trace, build_uniform_trace


class TestSampledSimulation:
    def test_attaches_taskpoint_statistics(self):
        trace = build_uniform_trace(num_instances=80)
        result = sampled_simulation(trace, num_threads=2, config=lazy_config())
        stats = result.metadata["taskpoint"]
        assert isinstance(stats, TaskPointStatistics)
        assert stats.total_instances == len(trace)
        assert stats.fast_forwarded > 0

    def test_mixes_detailed_and_burst_instances(self):
        trace = build_uniform_trace(num_instances=100)
        result = sampled_simulation(trace, num_threads=2, config=lazy_config())
        modes = {instance.mode for instance in result.instances}
        assert modes == {SimulationMode.DETAILED, SimulationMode.BURST}

    def test_taskpoint_results_carry_no_confidence(self):
        trace = build_uniform_trace(num_instances=40)
        result = sampled_simulation(trace, num_threads=2, config=lazy_config())
        assert "confidence" not in result.metadata

    @pytest.mark.parametrize("config,stats_type", [
        (StratifiedConfig(), StratifiedStatistics),
        (FidelityConfig(), FidelityStatistics),
    ], ids=["stratified", "fidelity"])
    def test_config_type_picks_the_engine(self, config, stats_type):
        trace = build_two_type_trace(num_instances=80)
        result = sampled_simulation(trace, num_threads=2, config=config)
        stats = result.metadata["taskpoint"]
        assert type(stats) is stats_type
        assert stats.total_instances == len(trace)
        assert result.metadata["confidence"] == stats.confidence_summary(
            result.total_cycles
        )


class TestClockTypes:
    """Every engine runs the simulated clock on Python floats."""

    @pytest.fixture(scope="class")
    def trace(self):
        return get_workload("swaptions").generate(scale=0.004, seed=1)

    @pytest.mark.parametrize("config", [
        None, periodic_config(), lazy_config(), StratifiedConfig(), FidelityConfig(),
    ], ids=["detailed", "periodic", "lazy", "stratified", "fidelity"])
    def test_cycles_and_ipc_are_floats(self, trace, config):
        if config is None:
            result = simulate(trace, num_threads=2)
        else:
            result = sampled_simulation(trace, num_threads=2, config=config)
        assert type(result.total_cycles) is float
        assert {type(instance.cycles) for instance in result.instances} == {float}
        assert {type(instance.ipc) for instance in result.instances} == {float}


class TestCompareWithDetailed:
    def test_comparison_fields(self):
        trace = build_uniform_trace(num_instances=120)
        comparison = compare_with_detailed(trace, num_threads=2, config=lazy_config())
        assert comparison.benchmark == trace.name
        assert comparison.num_threads == 2
        assert comparison.detailed.cost.burst_instances == 0
        assert comparison.sampled.cost.burst_instances > 0
        assert comparison.speedup > 1.0
        assert comparison.error >= 0.0
        assert comparison.error_percent == pytest.approx(comparison.error * 100.0)

    def test_uniform_workload_low_error(self):
        trace = build_uniform_trace(num_instances=150, events_per_instance=4)
        comparison = compare_with_detailed(trace, num_threads=4, config=lazy_config())
        # Identical instances of a single type: sampling should be very accurate.
        assert comparison.error_percent < 3.0
        assert comparison.speedup > 2.0

    def test_wall_speedup_present(self):
        trace = build_uniform_trace(num_instances=60)
        comparison = compare_with_detailed(trace, num_threads=2, config=lazy_config())
        assert comparison.wall_speedup is None or comparison.wall_speedup > 0.0

    def test_periodic_not_slower_error_than_detailed_fraction(self):
        trace = build_two_type_trace(num_instances=120)
        comparison = compare_with_detailed(
            trace, num_threads=2, config=TaskPointConfig(sampling_period=20)
        )
        assert 0.0 < comparison.sampled.cost.detailed_fraction <= 1.0
        assert comparison.taskpoint_stats.resamples >= 1

    @pytest.mark.parametrize("config", [StratifiedConfig(), FidelityConfig()],
                             ids=["stratified", "fidelity"])
    def test_every_engine_config_is_compared(self, config):
        trace = build_two_type_trace(num_instances=80)
        comparison = compare_with_detailed(trace, num_threads=2, config=config)
        sampled = sampled_simulation(trace, num_threads=2, config=config)
        assert comparison.sampled.total_cycles == sampled.total_cycles
        assert comparison.sampled.metadata["confidence"] is not None
        assert comparison.taskpoint_stats is comparison.sampled.metadata["taskpoint"]
