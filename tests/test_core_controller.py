"""Unit tests for the TaskPoint controller (sampling mechanism)."""

import pytest

from repro.core.config import TaskPointConfig
from repro.core.controller import ResampleReason, SamplingPhase, TaskPointController
from repro.runtime.task import TaskInstance, TaskType
from repro.sim.modes import CompletionInfo, SimulationMode
from repro.trace.records import make_record


def make_instance(instance_id, task_type="work", instructions=1000):
    record = make_record(instance_id, task_type, instructions)
    return TaskInstance(record=record, task_type=TaskType(name=task_type, type_id=0))


def complete(controller, instance, decision, ipc=2.0, worker_id=0, active=1):
    """Feed a completion notification matching a previous decision."""
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


def drive_single_thread(controller, count, task_type="work", ipc=2.0, start_id=0):
    """Dispatch and complete ``count`` instances on worker 0; return decisions."""
    decisions = []
    for offset in range(count):
        instance = make_instance(start_id + offset, task_type)
        decision = controller.choose_mode(instance, worker_id=0, active_workers=1,
                                          current_cycle=float(offset))
        complete(controller, instance, decision, ipc=ipc)
        decisions.append(decision)
    return decisions


class TestWarmupAndSampling:
    def test_initial_warmup_then_valid_samples(self):
        config = TaskPointConfig(warmup_instances=2, history_size=3, sampling_period=None)
        controller = TaskPointController(config)
        decisions = drive_single_thread(controller, 5)
        assert all(d.mode is SimulationMode.DETAILED for d in decisions)
        assert [d.is_warmup for d in decisions] == [True, True, False, False, False]
        assert controller.stats.warmup_instances == 2
        assert controller.stats.valid_samples == 3

    def test_transition_to_fast_forward_when_history_full(self):
        config = TaskPointConfig(warmup_instances=1, history_size=2, sampling_period=None)
        controller = TaskPointController(config)
        drive_single_thread(controller, 3)  # 1 warmup + 2 valid samples
        assert controller.phase is SamplingPhase.SAMPLING
        instance = make_instance(10)
        decision = controller.choose_mode(instance, 0, 1, 10.0)
        assert controller.phase is SamplingPhase.FAST_FORWARD
        assert decision.mode is SimulationMode.BURST
        assert decision.ipc == pytest.approx(2.0)

    def test_zero_warmup_samples_immediately(self):
        config = TaskPointConfig(warmup_instances=0, history_size=1, sampling_period=None)
        controller = TaskPointController(config)
        decisions = drive_single_thread(controller, 1)
        assert decisions[0].is_warmup is False
        assert controller.stats.valid_samples == 1

    def test_fast_forward_ipc_scales_with_instructions(self):
        config = TaskPointConfig(warmup_instances=0, history_size=1, sampling_period=None)
        controller = TaskPointController(config)
        drive_single_thread(controller, 1, ipc=4.0)
        small = make_instance(5, instructions=400)
        large = make_instance(6, instructions=4000)
        decision_small = controller.choose_mode(small, 0, 1, 0.0)
        decision_large = controller.choose_mode(large, 0, 1, 0.0)
        assert decision_small.ipc == decision_large.ipc == pytest.approx(4.0)

    def test_detailed_instance_finishing_in_fast_forward_is_invalid(self):
        config = TaskPointConfig(warmup_instances=0, history_size=2,
                                 sampling_period=None)
        controller = TaskPointController(config)
        # Take a detailed decision but leave it in flight...
        inflight = make_instance(0)
        inflight_decision = controller.choose_mode(inflight, 1, 2, 0.0)
        assert inflight_decision.mode is SimulationMode.DETAILED
        # ...fill the history on worker 0 and transition to fast-forward...
        for index, ipc in enumerate((2.0, 3.0)):
            instance = make_instance(1 + index)
            decision = controller.choose_mode(instance, 0, 2, float(index))
            complete(controller, instance, decision, ipc=ipc, active=2)
        burst = controller.choose_mode(make_instance(10), 0, 2, 10.0)
        assert burst.mode is SimulationMode.BURST
        # ...then the in-flight instance completes: an invalid sample, which
        # only the history of all samples records.
        complete(controller, inflight, inflight_decision, ipc=9.0,
                 worker_id=1, active=2)
        assert controller.stats.valid_samples == 2
        assert controller.stats.invalid_samples == 1
        state = controller.histories.state("work")
        assert state.valid.samples == [2.0, 3.0]
        assert state.all.samples == [3.0, 9.0]


class TestRareTypeCutoff:
    def test_cutoff_triggers_fast_forward_despite_rare_type(self):
        # "rare" appears once; the cutoff should stop sampling after 5
        # consecutive non-rare instances even though rare's history never fills.
        config = TaskPointConfig(warmup_instances=0, history_size=2,
                                 sampling_period=None, rare_type_cutoff=5)
        controller = TaskPointController(config)
        drive_single_thread(controller, 1, task_type="rare")
        drive_single_thread(controller, 2, task_type="common", start_id=1)
        assert controller.phase is SamplingPhase.SAMPLING
        drive_single_thread(controller, 5, task_type="common", start_id=3)
        decision = controller.choose_mode(make_instance(20, "common"), 0, 1, 0.0)
        assert decision.mode is SimulationMode.BURST

    def test_rare_type_uses_all_history_fallback(self):
        config = TaskPointConfig(warmup_instances=1, history_size=2,
                                 sampling_period=None, rare_type_cutoff=3)
        controller = TaskPointController(config)
        # The single rare instance is consumed as warm-up (all-history only).
        drive_single_thread(controller, 1, task_type="rare", ipc=1.5)
        drive_single_thread(controller, 6, task_type="common", start_id=1)
        # Now in a position to fast-forward; a rare instance must use the
        # history of all samples.
        decision = controller.choose_mode(make_instance(30, "rare"), 0, 1, 0.0)
        assert decision.mode is SimulationMode.BURST
        assert decision.ipc == pytest.approx(1.5)
        assert controller.stats.fallback_estimates == 1


class TestResamplingTriggers:
    def _fast_forwarding_controller(self, **overrides):
        defaults = dict(warmup_instances=0, history_size=1, sampling_period=None)
        defaults.update(overrides)
        controller = TaskPointController(TaskPointConfig(**defaults))
        drive_single_thread(controller, 1)
        # Force the transition by asking for one more decision.
        instance = make_instance(100)
        decision = controller.choose_mode(instance, 0, 1, 0.0)
        assert decision.mode is SimulationMode.BURST
        complete(controller, instance, decision)
        return controller

    def test_new_task_type_triggers_resample(self):
        controller = self._fast_forwarding_controller()
        decision = controller.choose_mode(make_instance(200, "brand-new"), 0, 1, 0.0)
        assert decision.mode is SimulationMode.DETAILED
        assert controller.phase is SamplingPhase.SAMPLING
        assert controller.stats.resample_reasons[ResampleReason.NEW_TASK_TYPE] == 1

    def test_new_type_trigger_can_be_disabled(self):
        controller = self._fast_forwarding_controller(resample_on_new_task_type=False)
        decision = controller.choose_mode(make_instance(200, "brand-new"), 0, 1, 0.0)
        # Without the trigger, the empty history forces detailed simulation
        # through the empty-history resample instead.
        assert decision.mode is SimulationMode.DETAILED
        assert controller.stats.resample_reasons[ResampleReason.NEW_TASK_TYPE] == 0
        assert controller.stats.resample_reasons[ResampleReason.EMPTY_HISTORY] == 1

    def test_periodic_policy_triggers_resample(self):
        controller = TaskPointController(
            TaskPointConfig(warmup_instances=0, history_size=1, sampling_period=3)
        )
        drive_single_thread(controller, 1)
        burst_count = 0
        resampled = False
        for index in range(10):
            instance = make_instance(50 + index)
            decision = controller.choose_mode(instance, 0, 1, 0.0)
            if decision.mode is SimulationMode.BURST:
                burst_count += 1
            else:
                resampled = True
                break
            complete(controller, instance, decision)
        assert resampled
        assert burst_count == 3
        assert controller.stats.resample_reasons[ResampleReason.PERIOD_ELAPSED] == 1

    def test_lazy_policy_never_period_resamples(self):
        controller = self._fast_forwarding_controller()
        for index in range(50):
            instance = make_instance(300 + index)
            decision = controller.choose_mode(instance, 0, 1, 0.0)
            assert decision.mode is SimulationMode.BURST
            complete(controller, instance, decision)
        assert controller.stats.resamples == 0

    def test_thread_change_triggers_after_persistence(self):
        controller = self._fast_forwarding_controller(
            thread_change_tolerance=0.5, thread_change_persistence=3
        )
        # Sampled at 1 active worker; now pretend 4 workers are active.
        decisions = []
        for index in range(4):
            instance = make_instance(400 + index)
            decision = controller.choose_mode(instance, 0, 4, 0.0)
            decisions.append(decision)
            if decision.mode is SimulationMode.BURST:
                complete(controller, instance, decision, active=4)
        assert [d.mode for d in decisions[:2]] == [SimulationMode.BURST] * 2
        assert decisions[2].mode is SimulationMode.DETAILED
        assert controller.stats.resample_reasons[ResampleReason.THREAD_COUNT_CHANGE] == 1

    def test_transient_thread_dip_does_not_resample(self):
        controller = self._fast_forwarding_controller(
            thread_change_tolerance=0.5, thread_change_persistence=3
        )
        # Two decisions at a different count, then back to the sampled count.
        for index, active in enumerate((4, 4, 1, 1)):
            instance = make_instance(500 + index)
            decision = controller.choose_mode(instance, 0, active, 0.0)
            assert decision.mode is SimulationMode.BURST
            complete(controller, instance, decision, active=active)
        assert controller.stats.resamples == 0

    def test_thread_change_trigger_can_be_disabled(self):
        controller = self._fast_forwarding_controller(resample_on_thread_change=False)
        for index in range(10):
            instance = make_instance(600 + index)
            decision = controller.choose_mode(instance, 0, 8, 0.0)
            assert decision.mode is SimulationMode.BURST
            complete(controller, instance, decision, active=8)
        assert controller.stats.resamples == 0

    def test_resample_discards_valid_histories_and_rewarms(self):
        controller = self._fast_forwarding_controller()
        state = controller.histories.state("work")
        assert not state.valid.is_empty
        decision = controller.choose_mode(make_instance(700, "brand-new"), 0, 1, 0.0)
        assert decision.is_warmup is True  # resample warm-up of 1 instance
        assert state.valid.is_empty
        assert not state.all.is_empty


class TestZeroIpcCompletions:
    """Satellite: ``ipc <= 0`` completions must not cause a resample storm."""

    def _complete_with_ipc(self, controller, instance, decision, ipc,
                           worker_id=0, active=1):
        controller.notify_completion(
            CompletionInfo(
                instance=instance,
                mode=decision.mode,
                cycles=1000.0,
                ipc=ipc,
                is_warmup=decision.is_warmup,
                start_cycle=0.0,
                end_cycle=1000.0,
                worker_id=worker_id,
                active_workers=active,
            )
        )

    def test_zero_ipc_records_floor_sample(self):
        from repro.core.controller import ZERO_IPC_FLOOR

        config = TaskPointConfig(warmup_instances=0, history_size=1,
                                 sampling_period=None)
        controller = TaskPointController(config)
        instance = make_instance(0, "zero-instr")
        decision = controller.choose_mode(instance, 0, 1, 0.0)
        assert decision.mode is SimulationMode.DETAILED
        self._complete_with_ipc(controller, instance, decision, ipc=0.0)
        # The completion lands as a valid floor sample, not a drop.
        assert controller.stats.valid_samples == 1
        state = controller.histories.state("zero-instr")
        assert not state.valid.is_empty
        assert state.valid.mean() == pytest.approx(ZERO_IPC_FLOOR)

    def test_no_resample_storm_from_zero_instruction_type(self):
        # Regression: dropping ipc<=0 completions left the type's history
        # empty, so every later fast-forward attempt fired an EMPTY_HISTORY
        # resample and the run degraded to fully detailed simulation.
        config = TaskPointConfig(warmup_instances=0, history_size=1,
                                 sampling_period=None)
        controller = TaskPointController(config)
        instance = make_instance(0, "zero-instr")
        decision = controller.choose_mode(instance, 0, 1, 0.0)
        self._complete_with_ipc(controller, instance, decision, ipc=0.0)
        for index in range(20):
            follower = make_instance(1 + index, "zero-instr")
            decision = controller.choose_mode(follower, 0, 1, float(index))
            assert decision.mode is SimulationMode.BURST
        assert controller.stats.fast_forwarded == 20
        assert controller.stats.resamples == 0
        assert controller.stats.resample_reasons[ResampleReason.EMPTY_HISTORY] == 0


class TestWarmupBudgets:
    """Satellite: initial-vs-resample warm-up budgets are per worker."""

    def _resampled_controller(self, warmup_instances=3):
        config = TaskPointConfig(warmup_instances=warmup_instances,
                                 history_size=1, sampling_period=None,
                                 resample_warmup_instances=1)
        controller = TaskPointController(config)
        drive_single_thread(controller, warmup_instances + 1)
        instance = make_instance(50)
        decision = controller.choose_mode(instance, 0, 1, 0.0)
        assert decision.mode is SimulationMode.BURST
        complete(controller, instance, decision)
        # A brand-new task type triggers the resample under test.
        decision = controller.choose_mode(make_instance(60, "brand-new"), 0, 1, 0.0)
        assert controller.stats.resamples == 1
        assert decision.is_warmup  # worker 0 re-warms with the short budget
        complete(controller, make_instance(60, "brand-new"), decision)
        return controller

    def test_late_joining_worker_gets_full_initial_warmup(self):
        # Regression: the resample used to swap the warm-up defaultdict's
        # factory, so a worker whose *first* participation came after a
        # resample warmed with the short resample budget instead of W.
        controller = self._resampled_controller(warmup_instances=3)
        warmups = []
        for index in range(5):
            instance = make_instance(70 + index)
            decision = controller.choose_mode(instance, worker_id=5,
                                              active_workers=2,
                                              current_cycle=float(index))
            warmups.append(decision.is_warmup)
            complete(controller, instance, decision, worker_id=5, active=2)
        assert warmups == [True, True, True, False, False]

    def test_warmed_worker_rewarms_with_short_budget(self):
        controller = self._resampled_controller(warmup_instances=3)
        # Worker 0 already consumed its one resample warm-up instance in the
        # fixture; its next decisions are plain detailed samples.
        instance = make_instance(90)
        decision = controller.choose_mode(instance, 0, 1, 0.0)
        assert decision.mode is SimulationMode.DETAILED
        assert not decision.is_warmup

    def test_thread_count_increase_gives_new_workers_full_warmup(self):
        config = TaskPointConfig(warmup_instances=2, history_size=1,
                                 sampling_period=None,
                                 resample_warmup_instances=1,
                                 thread_change_tolerance=0.5,
                                 thread_change_persistence=1)
        controller = TaskPointController(config)
        # Worker 0 warms and samples alone, then fast-forwards.
        drive_single_thread(controller, 3)
        instance = make_instance(10)
        decision = controller.choose_mode(instance, 0, 1, 0.0)
        assert decision.mode is SimulationMode.BURST
        complete(controller, instance, decision)
        # The thread count doubles persistently: resample.
        decision = controller.choose_mode(make_instance(11), 0, 2, 0.0)
        assert controller.stats.resample_reasons[ResampleReason.THREAD_COUNT_CHANGE] == 1
        assert decision.is_warmup  # worker 0: short re-warm-up
        complete(controller, make_instance(11), decision, active=2)
        follow_up = controller.choose_mode(make_instance(12), 0, 2, 0.0)
        assert not follow_up.is_warmup
        # The worker that joined with the increase warms with the full W.
        warmups = []
        for index in range(3):
            instance = make_instance(20 + index)
            decision = controller.choose_mode(instance, worker_id=1,
                                              active_workers=2,
                                              current_cycle=float(index))
            warmups.append(decision.is_warmup)
            complete(controller, instance, decision, worker_id=1, active=2)
        assert warmups == [True, True, False]


class TestTriggerOrdering:
    """Satellite: resample triggers fire in the paper's priority order."""

    def _fast_forwarding_controller(self, **overrides):
        defaults = dict(warmup_instances=0, history_size=1, sampling_period=None)
        defaults.update(overrides)
        controller = TaskPointController(TaskPointConfig(**defaults))
        drive_single_thread(controller, 1)
        instance = make_instance(100)
        decision = controller.choose_mode(instance, 0, 1, 0.0)
        assert decision.mode is SimulationMode.BURST
        complete(controller, instance, decision)
        return controller

    def test_new_task_type_beats_thread_count_change(self):
        controller = self._fast_forwarding_controller(
            thread_change_tolerance=0.5, thread_change_persistence=1
        )
        # Both triggers hold: unseen type AND an 8x thread-count change.
        decision = controller.choose_mode(make_instance(200, "brand-new"),
                                          worker_id=0, active_workers=8,
                                          current_cycle=0.0)
        assert decision.mode is SimulationMode.DETAILED
        reasons = controller.stats.resample_reasons
        assert reasons[ResampleReason.NEW_TASK_TYPE] == 1
        assert reasons[ResampleReason.THREAD_COUNT_CHANGE] == 0
        assert controller.stats.resamples == 1

    def test_thread_count_change_beats_period_elapsed(self):
        controller = self._fast_forwarding_controller(
            sampling_period=1, thread_change_tolerance=0.5,
            thread_change_persistence=1,
        )
        # Worker 0 already fast-forwarded one instance, so the periodic
        # policy would fire too; the thread-count trigger has priority.
        decision = controller.choose_mode(make_instance(201), worker_id=0,
                                          active_workers=8, current_cycle=0.0)
        assert decision.mode is SimulationMode.DETAILED
        reasons = controller.stats.resample_reasons
        assert reasons[ResampleReason.THREAD_COUNT_CHANGE] == 1
        assert reasons[ResampleReason.PERIOD_ELAPSED] == 0
        assert controller.stats.resamples == 1

    def test_all_three_triggers_resolve_to_new_task_type(self):
        controller = self._fast_forwarding_controller(
            sampling_period=1, thread_change_tolerance=0.5,
            thread_change_persistence=1,
        )
        decision = controller.choose_mode(make_instance(202, "brand-new"),
                                          worker_id=0, active_workers=8,
                                          current_cycle=0.0)
        assert decision.mode is SimulationMode.DETAILED
        reasons = controller.stats.resample_reasons
        assert reasons[ResampleReason.NEW_TASK_TYPE] == 1
        assert reasons[ResampleReason.THREAD_COUNT_CHANGE] == 0
        assert reasons[ResampleReason.PERIOD_ELAPSED] == 0


class TestStatistics:
    def test_counters_consistent(self):
        config = TaskPointConfig(warmup_instances=1, history_size=2, sampling_period=None)
        controller = TaskPointController(config)
        total = 30
        for index in range(total):
            instance = make_instance(index)
            decision = controller.choose_mode(instance, 0, 1, float(index))
            complete(controller, instance, decision)
        stats = controller.stats
        assert stats.total_instances == total
        assert stats.detailed_instances + stats.fast_forwarded == total
        assert 0.0 < stats.detailed_fraction < 1.0
        assert stats.transitions_to_fast >= 1
