"""Tests for the online error-budget fidelity controller.

Covers the configuration surface, the per-type cost model and residual
criterion, the commit / probe / drift-re-open lifecycle, the per-worker
warm-up budgets, the thread-count trigger, the statistics summaries and the
experiment-spec wiring (serialisation round trips and ``run_spec``
dispatch).
"""

import json
import math

import pytest

from repro.core.controller import ResampleReason
from repro.core.fidelity import (
    FidelityConfig,
    FidelityController,
    FidelityStatistics,
    FidelityTypeState,
)
from repro.core.stratified import StratifiedConfig
from repro.exp.runner import run_spec
from repro.exp.spec import ExperimentResult, ExperimentSpec
from repro.runtime.task import TaskInstance, TaskType
from repro.sim.modes import AlwaysDetailedController, CompletionInfo, SimulationMode
from repro.sim.simulator import TaskSimSimulator
from repro.trace.records import make_record
from repro.trace.trace import ApplicationTrace


def uniform_trace(count=60, instructions=1000, task_type="alpha"):
    """A trace whose instances all share one signature: predictions are exact."""
    records = [
        make_record(i, task_type, instructions=instructions, blocks_hint=1)
        for i in range(count)
    ]
    return ApplicationTrace(name="uniform", records=records)


def mixed_trace(num_per_type=40, types=("alpha", "beta")):
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


def drive(controller, trace, ids, ipc=2.0, worker_id=0, active=1):
    """Dispatch and complete the given instance ids in order; return decisions."""
    decisions = []
    for instance_id in ids:
        instance = make_instance(trace, instance_id)
        decision = controller.choose_mode(
            instance, worker_id=worker_id, active_workers=active,
            current_cycle=float(instance_id),
        )
        complete(controller, instance, decision, ipc=ipc,
                 worker_id=worker_id, active=active)
        decisions.append(decision)
    return decisions


def quick_config(**overrides):
    """A config that commits after three exact samples (no warm-up)."""
    defaults = dict(
        error_budget=0.02, min_samples=2, min_residuals=2, residual_window=4,
        probe_period=100, warmup_instances=0,
    )
    defaults.update(overrides)
    return FidelityConfig(**defaults)


class TestFidelityConfig:
    def test_defaults(self):
        config = FidelityConfig()
        assert 0.0 < config.error_budget < 1.0
        assert config.min_samples >= 1
        assert config.min_residuals >= 2
        assert config.residual_window >= config.min_residuals
        assert config.max_probe_period >= config.probe_period
        assert config.reopen_factor >= 1.0
        assert config.resample_on_thread_change

    @pytest.mark.parametrize("kwargs", [
        {"error_budget": 0.0},
        {"error_budget": 1.0},
        {"min_samples": 0},
        {"min_residuals": 1},
        {"min_residuals": 8, "residual_window": 4},
        {"probe_period": 0},
        {"probe_period": 50, "max_probe_period": 25},
        {"reopen_factor": 0.9},
        {"share_floor": 0.0},
        {"allowance_cap": 0.5},
        {"warmup_instances": -1},
        {"resample_warmup_instances": -1},
        {"thread_change_tolerance": -0.1},
        {"thread_change_persistence": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FidelityConfig(**kwargs)


class TestTypeState:
    def test_no_prediction_before_any_sample(self):
        trace = uniform_trace(count=4)
        controller = FidelityController(trace, quick_config())
        state = controller._state("alpha")
        assert state.predict_cycles(controller._features[0], 1000.0) is None

    def test_model_degenerates_to_mean_cpi(self):
        # With one signature the min-norm fit reproduces the observed CPI.
        trace = uniform_trace(count=8)
        controller = FidelityController(trace, quick_config())
        drive(controller, trace, [0, 1], ipc=2.0)
        state = controller._state("alpha")
        predicted = state.predict_cycles(controller._features[2],
                                         controller._instructions[2])
        assert predicted == pytest.approx(1000.0 / 2.0)

    def test_criterion_needs_two_residuals(self):
        state = FidelityTypeState("alpha")
        assert state.criterion() is None

    def test_criterion_is_t_based(self):
        from collections import deque

        state = FidelityTypeState("alpha")
        state.residuals = deque([0.01, -0.01, 0.02, 0.0], maxlen=8)
        mean_abs, half_width = state.criterion()
        values = [0.01, -0.01, 0.02, 0.0]
        mean = sum(values) / len(values)
        assert mean_abs == pytest.approx(abs(mean))
        # t_crit(df=3) * s / sqrt(n) with ddof=1.
        variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        expected = 3.182 * math.sqrt(variance) / math.sqrt(len(values))
        assert half_width == pytest.approx(expected, rel=1e-3)


class TestCommitLifecycle:
    def test_commits_then_fast_forwards(self):
        trace = uniform_trace(count=30)
        controller = FidelityController(trace, quick_config())
        decisions = drive(controller, trace, range(10), ipc=2.0)
        # First samples are detailed; once the residual window certifies the
        # model the type commits and the rest fast-forward at the exact IPC.
        assert decisions[0].mode is SimulationMode.DETAILED
        assert decisions[-1].mode is SimulationMode.BURST
        assert decisions[-1].ipc == pytest.approx(2.0)
        state = controller._state("alpha")
        assert state.committed
        assert state.commits == 1
        assert controller.stats.transitions_to_fast == 1
        assert controller.stats.fast_forwarded > 0

    def test_warmup_instances_excluded_from_model(self):
        trace = uniform_trace(count=10)
        controller = FidelityController(trace, quick_config(warmup_instances=2))
        decisions = drive(controller, trace, range(4), ipc=2.0)
        assert [d.is_warmup for d in decisions] == [True, True, False, False]
        assert controller.stats.warmup_instances == 2
        assert controller._state("alpha").samples == 2

    def test_unseen_type_stays_detailed_without_global_resample(self):
        trace = uniform_trace(count=30)
        controller = FidelityController(trace, quick_config())
        drive(controller, trace, range(10), ipc=2.0)
        assert controller._state("alpha").committed
        foreign = make_instance(trace, trace.columns.num_records + 5,
                                task_type="unseen-type")
        decision = controller.choose_mode(foreign, worker_id=0,
                                          active_workers=1, current_cycle=1e6)
        assert decision.mode is SimulationMode.DETAILED
        complete(controller, foreign, decision, ipc=2.0)
        # Per-type isolation: the committed type stays committed and no
        # global resample fires; the off-trace completion is invalid.
        assert controller._state("alpha").committed
        assert controller.stats.resamples == 0
        assert controller.stats.invalid_samples == 1

    def test_zero_cycle_completion_is_floored(self):
        trace = uniform_trace(count=10)
        controller = FidelityController(trace, quick_config())
        instance = make_instance(trace, 0)
        decision = controller.choose_mode(instance, 0, 1, 0.0)
        controller.notify_completion(
            CompletionInfo(
                instance=instance, mode=decision.mode, cycles=0.0, ipc=0.0,
                is_warmup=decision.is_warmup, start_cycle=0.0, end_cycle=0.0,
                worker_id=0, active_workers=1,
            )
        )
        state = controller._state("alpha")
        assert state.samples == 1
        assert state.work_cycles >= 1.0
        assert controller.stats.valid_samples == 1


class TestProbesAndDrift:
    def test_probe_issued_and_spacing_stretches(self):
        trace = uniform_trace(count=60)
        controller = FidelityController(
            trace, quick_config(probe_period=4, max_probe_period=16)
        )
        drive(controller, trace, range(20), ipc=2.0)
        state = controller._state("alpha")
        assert state.committed
        assert state.probes >= 1
        # Clean probes double the spacing (up to the ceiling).
        assert state.probe_period > 4
        assert state.probe_period <= 16

    def test_drift_reopens_type_and_keeps_model(self):
        trace = uniform_trace(count=60)
        controller = FidelityController(trace, quick_config(probe_period=1))
        drive(controller, trace, range(6), ipc=2.0)
        state = controller._state("alpha")
        assert state.committed
        samples_before = state.samples
        # The workload shifts: probes now measure half the IPC the model was
        # fitted at, so the residual window walks outside the allowance.
        drift_ids = range(6, 20)
        drive(controller, trace, drift_ids, ipc=1.0)
        assert state.reopens >= 1
        assert controller.stats.resample_reasons[ResampleReason.DRIFT] >= 1
        # The drift re-open keeps the model: history is corrected, not
        # discarded.
        assert state.samples > samples_before
        assert state.theta is not None

    def test_reopened_type_recommits_at_new_regime(self):
        trace = uniform_trace(count=120)
        controller = FidelityController(trace, quick_config(probe_period=1))
        drive(controller, trace, range(6), ipc=2.0)
        drive(controller, trace, range(6, 40), ipc=1.0)
        state = controller._state("alpha")
        assert state.reopens >= 1
        # Continued sampling at the new IPC steers the fit back inside the
        # budget and the type commits again.
        drive(controller, trace, range(40, 110), ipc=1.0)
        assert state.committed
        assert state.commits >= 2


class TestThreadChange:
    def test_thread_change_reopens_all_types_keeping_models(self):
        trace = uniform_trace(count=60)
        controller = FidelityController(
            trace, quick_config(thread_change_persistence=2)
        )
        drive(controller, trace, range(10), ipc=2.0, active=4)
        state = controller._state("alpha")
        assert state.committed
        reasons = controller.stats.resample_reasons
        for step in range(3):
            instance = make_instance(trace, 10 + step)
            decision = controller.choose_mode(instance, worker_id=0,
                                              active_workers=1,
                                              current_cycle=1e6 + step)
            if reasons[ResampleReason.THREAD_COUNT_CHANGE]:
                break
        assert reasons[ResampleReason.THREAD_COUNT_CHANGE] == 1
        assert not state.committed
        # Model kept, residual window cleared: the new contention regime
        # must be re-certified from fresh residuals.
        assert state.theta is not None
        assert state.samples > 0
        assert not state.residuals
        assert controller._sampled_thread_count is None
        assert decision.mode is SimulationMode.DETAILED

    def test_warmup_budgets_after_thread_change(self):
        trace = uniform_trace(count=60)
        controller = FidelityController(
            trace,
            quick_config(warmup_instances=2, resample_warmup_instances=1),
        )
        drive(controller, trace, range(8), ipc=2.0, worker_id=0, active=1)
        controller._trigger_resample(ResampleReason.THREAD_COUNT_CHANGE)
        # Already-warmed worker 0 re-warms with the short budget...
        warm = drive(controller, trace, [20], worker_id=0)
        assert warm[0].is_warmup
        after = drive(controller, trace, [21], worker_id=0)
        assert not after[0].is_warmup
        # ...while a worker first participating now still warms with the
        # full initial W.
        late = drive(controller, trace, [30, 31, 32], worker_id=7)
        assert [d.is_warmup for d in late] == [True, True, False]


class TestStatistics:
    def test_confidence_none_without_fast_forwarding(self):
        stats = FidelityStatistics(error_budget=0.02)
        assert stats.confidence_summary(1000.0) is None

    def test_summaries_are_json_friendly(self):
        trace = uniform_trace(count=40)
        controller = FidelityController(trace, quick_config())
        drive(controller, trace, range(40), ipc=2.0)
        result_cycles = controller._total_work
        confidence = controller.stats.confidence_summary(result_cycles)
        assert confidence is not None
        json.dumps(confidence)
        assert confidence["level"] == 0.95
        assert confidence["lower_cycles"] <= result_cycles <= confidence["upper_cycles"]
        assert confidence["committed_types"] == 1
        summary = controller.stats.fidelity_summary()
        json.dumps(summary)
        assert summary["error_budget"] == controller.config.error_budget
        assert summary["num_types"] == 1
        assert summary["commits"] >= 1

    def test_statistics_shape_matches_taskpoint(self):
        # Every consumer of TaskPointStatistics must accept the subclass.
        trace = uniform_trace(count=20)
        controller = FidelityController(trace, quick_config())
        drive(controller, trace, range(20), ipc=2.0)
        stats = controller.stats
        assert stats.total_instances == 20
        assert stats.detailed_instances + stats.fast_forwarded == 20
        assert 0.0 < stats.detailed_fraction < 1.0


class TestSimulatorIntegration:
    def test_tracks_detailed_run_within_loose_bound(self):
        trace = mixed_trace(num_per_type=60)
        detailed = TaskSimSimulator().run(
            trace, num_threads=2, controller=AlwaysDetailedController()
        )
        controller = FidelityController(
            trace,
            FidelityConfig(error_budget=0.05, min_samples=4, min_residuals=4,
                           residual_window=8, probe_period=10,
                           warmup_instances=1),
        )
        sampled = TaskSimSimulator().run(trace, num_threads=2, controller=controller)
        assert controller.stats.total_instances == trace.columns.num_records
        error = abs(sampled.total_cycles - detailed.total_cycles) / detailed.total_cycles
        assert error < 0.20
        # The controller must actually have fast-forwarded something.
        assert controller.stats.fast_forwarded > 0
        assert controller.stats.detailed_fraction < 1.0


class TestExperimentWiring:
    def test_run_spec_dispatches_fidelity(self):
        spec = ExperimentSpec(
            benchmark="swaptions", num_threads=2, scale=0.02,
            config=FidelityConfig(),
        )
        result = run_spec(spec)
        assert result.taskpoint is not None
        assert "fidelity" in result.taskpoint
        fidelity = result.taskpoint["fidelity"]
        assert fidelity["error_budget"] == pytest.approx(0.02)
        assert fidelity["num_types"] >= 1
        confidence = result.taskpoint.get("confidence")
        assert confidence is None or confidence["level"] == 0.95

    def test_spec_round_trip_and_distinct_keys(self):
        fidelity = ExperimentSpec(
            benchmark="cholesky", num_threads=4, config=FidelityConfig()
        )
        stratified = ExperimentSpec(
            benchmark="cholesky", num_threads=4, config=StratifiedConfig()
        )
        assert fidelity.content_key() != stratified.content_key()
        rebuilt = ExperimentSpec.from_dict(fidelity.to_dict())
        assert rebuilt == fidelity
        assert rebuilt.content_key() == fidelity.content_key()
        assert isinstance(rebuilt.config, FidelityConfig)
        assert fidelity.label().endswith("[fidelity]")

    def test_budget_changes_content_key(self):
        base = ExperimentSpec(
            benchmark="cholesky", num_threads=4, config=FidelityConfig()
        )
        other = ExperimentSpec(
            benchmark="cholesky", num_threads=4,
            config=FidelityConfig(error_budget=0.05),
        )
        assert base.content_key() != other.content_key()

    def test_result_round_trip_preserves_fidelity_block(self):
        spec = ExperimentSpec(
            benchmark="swaptions", num_threads=2, scale=0.02,
            config=FidelityConfig(),
        )
        result = run_spec(spec)
        rebuilt = ExperimentResult.from_dict(result.to_dict())
        assert rebuilt.taskpoint.get("fidelity") == result.taskpoint["fidelity"]
        assert rebuilt.taskpoint.get("confidence") == result.taskpoint.get("confidence")
