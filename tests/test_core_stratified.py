"""Tests for the two-phase stratified sampling engine.

Covers phase 1 (signature extraction and stratification), phase 2 (pilot,
Neyman allocation, fast-forward, confidence intervals), the resampling
triggers — parametrised against the other sampling modes, so every
controller resets its state coherently — and the spec/serialisation wiring.
"""

import math

import numpy as np
import pytest

from repro.core.config import TaskPointConfig, lazy_config, periodic_config
from repro.core.controller import ResampleReason, SamplingPhase, TaskPointController
from repro.core.stratified import (
    StratifiedConfig,
    StratifiedController,
    StratifiedStatistics,
    StratumState,
    build_strata,
)
from repro.exp.runner import run_spec
from repro.exp.spec import ExperimentResult, ExperimentSpec
from repro.runtime.task import TaskInstance, TaskType
from repro.sim.modes import AlwaysDetailedController, CompletionInfo, SimulationMode
from repro.sim.simulator import TaskSimSimulator
from repro.trace.records import make_record
from repro.trace.trace import ApplicationTrace


def make_trace(num_per_type=40, types=("alpha", "beta")):
    """A synthetic trace with deliberately heterogeneous instance sizes."""
    records = []
    instance_id = 0
    for type_index, task_type in enumerate(types):
        for i in range(num_per_type):
            records.append(
                make_record(
                    instance_id,
                    task_type,
                    instructions=500 + 400 * type_index + 37 * (i % 7),
                    blocks_hint=1 + (i % 3),
                )
            )
            instance_id += 1
    return ApplicationTrace(name="synthetic", records=records)


def make_instance(trace, instance_id, task_type=None):
    """A TaskInstance consistent with ``trace``'s columns (or a foreign one)."""
    columns = trace.columns
    if task_type is None and 0 <= instance_id < columns.num_records:
        type_id = int(columns.task_type_id[instance_id])
        name = columns.types.names[type_id]
        record = make_record(
            instance_id, name, int(columns.instructions[instance_id])
        )
        return TaskInstance(record=record, task_type=TaskType(name=name, type_id=type_id))
    name = task_type or "unseen-type"
    record = make_record(instance_id, name, 1000)
    return TaskInstance(record=record, task_type=TaskType(name=name, type_id=999))


def complete(controller, instance, decision, ipc=2.0, worker_id=0, active=1):
    controller.notify_completion(
        CompletionInfo(
            instance=instance,
            mode=decision.mode,
            cycles=instance.instructions / ipc,
            ipc=ipc if decision.mode is SimulationMode.DETAILED else decision.ipc,
            is_warmup=decision.is_warmup,
            start_cycle=0.0,
            end_cycle=instance.instructions / ipc,
            worker_id=worker_id,
            active_workers=active,
        )
    )


class TestStratifiedConfig:
    def test_defaults(self):
        config = StratifiedConfig()
        assert 0.0 < config.budget <= 1.0
        assert config.strata_per_type >= 1
        assert config.pilot_samples >= 2
        assert config.resample_on_new_task_type
        assert config.resample_on_thread_change

    def test_validation(self):
        with pytest.raises(ValueError):
            StratifiedConfig(budget=0.0)
        with pytest.raises(ValueError):
            StratifiedConfig(budget=1.5)
        with pytest.raises(ValueError):
            StratifiedConfig(strata_per_type=0)
        with pytest.raises(ValueError):
            StratifiedConfig(min_stratum_size=0)
        with pytest.raises(ValueError):
            StratifiedConfig(pilot_samples=1)
        with pytest.raises(ValueError):
            StratifiedConfig(warmup_instances=-1)
        with pytest.raises(ValueError):
            StratifiedConfig(thread_change_persistence=0)


class TestSignatures:
    def test_shape_and_memoisation(self):
        trace = make_trace()
        columns = trace.columns
        signatures = columns.instance_signatures()
        assert signatures.shape == (columns.num_records, len(columns.SIGNATURE_FIELDS))
        assert signatures.dtype == np.float64
        # Memoised in the plan cache: the same array object comes back.
        assert columns.instance_signatures() is signatures

    def test_instruction_column_matches_trace(self):
        trace = make_trace()
        signatures = trace.columns.instance_signatures()
        np.testing.assert_array_equal(
            signatures[:, 0], trace.columns.instructions.astype(np.float64)
        )

    def test_fan_in_counts_dependencies(self):
        records = [
            make_record(0, "t", 100),
            make_record(1, "t", 100),
            make_record(2, "t", 100, depends_on=(0, 1)),
            make_record(3, "t", 100, depends_on=(2,)),
        ]
        trace = ApplicationTrace(name="deps", records=records)
        signatures = trace.columns.instance_signatures()
        # fan_in = how many records this one feeds; fan_out = dependency count.
        np.testing.assert_array_equal(signatures[:, 4], [1.0, 1.0, 1.0, 0.0])
        np.testing.assert_array_equal(signatures[:, 5], [0.0, 0.0, 2.0, 1.0])


class TestBuildStrata:
    def test_strata_never_span_types(self):
        trace = make_trace()
        columns = trace.columns
        stratum_of = build_strata(columns, strata_per_type=3, min_stratum_size=4)
        for stratum_id in np.unique(stratum_of):
            members = np.nonzero(stratum_of == stratum_id)[0]
            assert len(set(columns.task_type_id[members].tolist())) == 1

    def test_equal_frequency_bins(self):
        trace = make_trace(num_per_type=30, types=("only",))
        stratum_of = build_strata(trace.columns, strata_per_type=3, min_stratum_size=4)
        sizes = np.bincount(stratum_of)
        assert len(sizes) == 3
        assert sizes.max() - sizes.min() <= 1

    def test_small_types_get_fewer_strata(self):
        trace = make_trace(num_per_type=5, types=("tiny",))
        stratum_of = build_strata(trace.columns, strata_per_type=4, min_stratum_size=8)
        assert np.unique(stratum_of).size == 1

    def test_deterministic(self):
        trace = make_trace()
        first = build_strata(trace.columns, strata_per_type=3, min_stratum_size=4)
        second = build_strata(trace.columns, strata_per_type=3, min_stratum_size=4)
        np.testing.assert_array_equal(first, second)


class TestStratumState:
    def test_harmonic_mean_fast_forward(self):
        stratum = StratumState(0, "t", size=10, pilot_target=2)
        stratum.observe(1.0)
        stratum.observe(3.0)
        # Arithmetic mean of CPI (1.0, 1/3) is 2/3 -> harmonic-mean IPC 1.5.
        assert stratum.fast_forward_ipc() == pytest.approx(1.5)

    def test_std_is_unbiased(self):
        stratum = StratumState(0, "t", size=10, pilot_target=2)
        for ipc in (1.0, 2.0, 4.0):
            stratum.observe(ipc)
        cpis = [1.0, 0.5, 0.25]
        mean = sum(cpis) / 3
        expected = math.sqrt(sum((c - mean) ** 2 for c in cpis) / 2)  # ddof=1
        assert stratum.std() == pytest.approx(expected)

    def test_below_two_samples(self):
        stratum = StratumState(0, "t", size=10, pilot_target=2)
        assert stratum.fast_forward_ipc() is None
        assert stratum.std() == 0.0
        assert stratum.relative_standard_error() is None
        stratum.observe(2.0)
        assert stratum.fast_forward_ipc() == pytest.approx(2.0)
        assert stratum.relative_standard_error() is None

    def test_reset_keeps_identity_and_ff_cycles(self):
        stratum = StratumState(3, "t", size=10, pilot_target=2)
        stratum.observe(2.0)
        stratum.observe(4.0)
        stratum.target = 7
        stratum.decided_detailed = 5
        stratum.ff_cycles = 123.0
        stratum.reset_samples()
        assert stratum.count == 0
        assert stratum.target == stratum.pilot_target
        assert stratum.decided_detailed == 0
        assert stratum.ff_cycles == 123.0  # already-simulated cycles are real


class TestConfidenceSummary:
    def test_none_without_fast_forward(self):
        stats = StratifiedStatistics()
        assert stats.confidence_summary(1000.0) is None

    def test_halfwidth_scales_with_ff_cycles(self):
        def summary(ff_cycles):
            stratum = StratumState(0, "t", size=100, pilot_target=3)
            for ipc in (1.8, 2.0, 2.2):
                stratum.observe(ipc)
            stratum.ff_cycles = ff_cycles
            stats = StratifiedStatistics(num_strata=1, strata=[stratum])
            return stats.confidence_summary(10_000.0)

        narrow = summary(1_000.0)
        wide = summary(4_000.0)
        assert wide["half_width_cycles"] == pytest.approx(
            4 * narrow["half_width_cycles"]
        )
        assert narrow["level"] == 0.95
        assert narrow["lower_cycles"] < 10_000.0 < narrow["upper_cycles"]

    def test_unsampled_stratum_falls_back_conservatively(self):
        sampled = StratumState(0, "t", size=100, pilot_target=3)
        for ipc in (1.0, 2.0, 4.0):
            sampled.observe(ipc)
        sampled.ff_cycles = 1_000.0
        bare = StratumState(1, "t", size=100, pilot_target=3)
        bare.ff_cycles = 1_000.0  # fast-forwarded without its own samples
        with_bare = StratifiedStatistics(num_strata=2, strata=[sampled, bare])
        without = StratifiedStatistics(num_strata=1, strata=[sampled])
        assert (
            with_bare.confidence_summary(10_000.0)["half_width_cycles"]
            > without.confidence_summary(10_000.0)["half_width_cycles"]
        )


class TestControllerEndToEnd:
    def test_tracks_detailed_within_bounds(self):
        trace = make_trace(num_per_type=60)
        simulator = TaskSimSimulator()
        detailed = simulator.run(trace, num_threads=2,
                                 controller=AlwaysDetailedController())
        controller = StratifiedController(trace)
        sampled = simulator.run(trace, num_threads=2, controller=controller)
        error = abs(sampled.total_cycles - detailed.total_cycles) / detailed.total_cycles
        assert error < 0.10
        stats = controller.stats
        assert stats.fast_forwarded > 0
        assert stats.detailed_instances < trace.columns.num_records
        assert stats.allocations >= 1
        confidence = stats.confidence_summary(sampled.total_cycles)
        assert confidence is not None
        # The deterministic cost model can make within-stratum CPI exactly
        # constant, so the half-width may be zero but never negative.
        assert confidence["half_width_cycles"] >= 0
        assert confidence["lower_cycles"] <= sampled.total_cycles
        assert sampled.total_cycles <= confidence["upper_cycles"]

    def test_accounting_is_consistent(self):
        trace = make_trace(num_per_type=60)
        controller = StratifiedController(trace)
        TaskSimSimulator().run(trace, num_threads=2, controller=controller)
        stats = controller.stats
        # Every instance got exactly one decision and one completion.
        assert stats.total_instances == trace.columns.num_records
        assert stats.fast_forwarded == sum(s.fast_forwarded for s in stats.strata)
        assert stats.valid_samples == sum(s.count for s in stats.strata)

    def test_full_budget_is_detailed_everywhere(self):
        trace = make_trace(num_per_type=20)
        # warmup_instances=0 so the whole budget lands on stratum targets.
        controller = StratifiedController(
            trace, StratifiedConfig(budget=1.0, warmup_instances=0)
        )
        result = TaskSimSimulator().run(trace, num_threads=2, controller=controller)
        assert controller.stats.fast_forwarded == 0
        # Nothing estimated: no confidence interval to report.
        assert controller.stats.confidence_summary(result.total_cycles) is None

    def test_zero_ipc_completions_end_warmup_and_are_counted(self):
        # Regression: a completion that measured no forward progress used to
        # return before the warm-up accounting, so the worker was handed
        # warm-up decisions forever and none of its completions was counted.
        trace = make_trace(num_per_type=10, types=("alpha",))
        controller = StratifiedController(trace, StratifiedConfig(warmup_instances=1))
        decisions = []
        for instance_id in range(10):
            instance = make_instance(trace, instance_id)
            decision = controller.choose_mode(instance, worker_id=0,
                                              active_workers=1,
                                              current_cycle=float(instance_id))
            decisions.append(decision)
            controller.notify_completion(
                CompletionInfo(
                    instance=instance, mode=decision.mode, cycles=0.0,
                    ipc=0.0 if decision.mode is SimulationMode.DETAILED else decision.ipc,
                    is_warmup=decision.is_warmup, start_cycle=0.0,
                    end_cycle=0.0, worker_id=0, active_workers=1,
                )
            )
        assert decisions[0].is_warmup
        assert not decisions[1].is_warmup
        detailed = sum(d.mode is SimulationMode.DETAILED for d in decisions)
        assert controller.stats.detailed_instances == detailed
        # A zero-IPC sample feeds no estimator.
        assert controller.stats.valid_samples == 0
        assert all(s.count == 0 for s in controller.strata)


class TestExperimentWiring:
    def test_run_spec_dispatches_stratified(self):
        spec = ExperimentSpec(
            benchmark="swaptions", num_threads=2, scale=0.02,
            config=StratifiedConfig(),
        )
        result = run_spec(spec)
        assert result.taskpoint is not None
        assert "confidence" in result.taskpoint
        confidence = result.taskpoint["confidence"]
        assert confidence is None or confidence["level"] == 0.95

    def test_taskpoint_results_have_no_confidence_key(self):
        spec = ExperimentSpec(
            benchmark="swaptions", num_threads=2, scale=0.02,
            config=TaskPointConfig(),
        )
        result = run_spec(spec)
        assert result.taskpoint is not None
        assert "confidence" not in result.taskpoint

    def test_spec_round_trip_and_distinct_keys(self):
        stratified = ExperimentSpec(
            benchmark="cholesky", num_threads=4, config=StratifiedConfig()
        )
        taskpoint = ExperimentSpec(
            benchmark="cholesky", num_threads=4, config=TaskPointConfig()
        )
        assert stratified.content_key() != taskpoint.content_key()
        rebuilt = ExperimentSpec.from_dict(stratified.to_dict())
        assert rebuilt == stratified
        assert rebuilt.content_key() == stratified.content_key()
        assert isinstance(rebuilt.config, StratifiedConfig)
        assert stratified.label().endswith("[stratified]")

    def test_unknown_config_kind_rejected(self):
        data = ExperimentSpec(
            benchmark="cholesky", num_threads=4, config=StratifiedConfig()
        ).to_dict()
        data["config"]["kind"] = "mystery"
        with pytest.raises(ValueError, match="mystery"):
            ExperimentSpec.from_dict(data)

    def test_result_round_trip_preserves_confidence(self):
        spec = ExperimentSpec(
            benchmark="swaptions", num_threads=2, scale=0.02,
            config=StratifiedConfig(),
        )
        result = run_spec(spec)
        rebuilt = ExperimentResult.from_dict(result.to_dict())
        assert rebuilt.taskpoint.get("confidence") == result.taskpoint["confidence"]


def _allocate_controller(trace, active_workers=4):
    """Drive a stratified controller through pilot into an allocation."""
    controller = StratifiedController(
        trace,
        StratifiedConfig(
            budget=0.3, strata_per_type=2, min_stratum_size=4,
            pilot_samples=2, warmup_instances=0,
        ),
    )
    for instance_id in range(trace.columns.num_records):
        instance = make_instance(trace, instance_id)
        decision = controller.choose_mode(
            instance, worker_id=0, active_workers=active_workers,
            current_cycle=float(instance_id),
        )
        complete(controller, instance, decision,
                 ipc=2.0 + 0.1 * (instance_id % 5), active=active_workers)
        if controller.allocated:
            return controller
    raise AssertionError("controller never allocated")


MODES = ["detailed", "periodic", "lazy", "stratified"]


def _make_controller(mode, trace):
    if mode == "detailed":
        return AlwaysDetailedController()
    if mode == "periodic":
        return TaskPointController(periodic_config(sampling_period=50))
    if mode == "lazy":
        return TaskPointController(lazy_config())
    return StratifiedController(trace)


class TestResampleInterplay:
    """Satellite: resampling triggers must leave every mode's state coherent."""

    @pytest.mark.parametrize("mode", MODES)
    def test_new_task_type_resets_state(self, mode):
        trace = make_trace(num_per_type=60)
        controller = _make_controller(mode, trace)
        TaskSimSimulator().run(trace, num_threads=2, controller=controller)
        foreign = make_instance(trace, trace.columns.num_records + 10,
                                task_type="unseen-type")
        decision = controller.choose_mode(foreign, worker_id=0,
                                          active_workers=2, current_cycle=1e6)
        assert decision.mode is SimulationMode.DETAILED
        if mode == "detailed":
            return  # baseline controller keeps no sampling state
        stats = controller.stats
        assert stats.resample_reasons[ResampleReason.NEW_TASK_TYPE] >= 1
        if mode == "stratified":
            # No stale Neyman allocation: back to the pilot everywhere.
            assert controller.allocated is False
            assert all(s.count == 0 for s in controller.strata)
            assert all(s.target == s.pilot_target for s in controller.strata)
        else:
            assert controller.phase is SamplingPhase.SAMPLING
            assert all(s.valid.is_empty for s in controller.histories.states)

    @pytest.mark.parametrize("mode", ["periodic", "lazy", "stratified"])
    def test_thread_change_resets_state(self, mode):
        trace = make_trace(num_per_type=60)
        if mode == "stratified":
            controller = _allocate_controller(trace, active_workers=4)
            persistence = controller.config.thread_change_persistence
            assert controller._sampled_thread_count == 4
        else:
            controller = _make_controller(mode, trace)
            TaskSimSimulator().run(trace, num_threads=4, controller=controller)
            persistence = controller.config.thread_change_persistence
            if controller._sampled_thread_count is None:
                pytest.skip("run ended while sampling; no fast-forward state")
        reasons = controller.stats.resample_reasons
        before = reasons[ResampleReason.THREAD_COUNT_CHANGE]
        # Persistently collapse the active-thread count far outside the
        # tolerance band until the trigger fires.
        for step in range(persistence + 1):
            instance = make_instance(trace, step % trace.columns.num_records)
            controller.choose_mode(instance, worker_id=0, active_workers=1,
                                   current_cycle=1e6 + step)
            if reasons[ResampleReason.THREAD_COUNT_CHANGE] > before:
                break
        assert reasons[ResampleReason.THREAD_COUNT_CHANGE] == before + 1
        assert controller._sampled_thread_count is None  # trigger disarmed
        if mode == "stratified":
            assert controller.allocated is False
            assert all(s.count == 0 for s in controller.strata)
            assert all(s.target == s.pilot_target for s in controller.strata)
        else:
            assert controller.phase is SamplingPhase.SAMPLING
            assert all(s.valid.is_empty for s in controller.histories.states)

    def test_stratified_reallocates_after_resample(self):
        trace = make_trace(num_per_type=60)
        controller = _allocate_controller(trace, active_workers=4)
        assert controller.stats.allocations == 1
        controller._trigger_resample(ResampleReason.THREAD_COUNT_CHANGE)
        # Re-drive the pilot: a fresh allocation must be recomputed from the
        # new samples rather than reusing the discarded one.
        for instance_id in range(trace.columns.num_records):
            instance = make_instance(trace, instance_id)
            decision = controller.choose_mode(instance, worker_id=0,
                                              active_workers=2,
                                              current_cycle=2e6 + instance_id)
            complete(controller, instance, decision, ipc=3.0, active=2)
            if controller.allocated:
                break
        assert controller.allocated
        assert controller.stats.allocations == 2
        assert controller._sampled_thread_count == 2

    def test_inflight_detailed_sample_across_resample_is_invalid(self):
        trace = make_trace(num_per_type=60)
        controller = _allocate_controller(trace, active_workers=4)
        instance = make_instance(trace, 0)
        decision = controller.choose_mode(instance, worker_id=0,
                                          active_workers=4, current_cycle=1e6)
        assert decision.mode is SimulationMode.DETAILED
        valid_before = controller.stats.valid_samples
        controller._trigger_resample(ResampleReason.THREAD_COUNT_CHANGE)
        complete(controller, instance, decision, ipc=2.0, active=4)
        assert controller.stats.valid_samples == valid_before
        assert controller.stats.invalid_samples >= 1
        assert all(s.count == 0 for s in controller.strata)
