"""Unit tests for TaskPoint configuration, sample histories and fast-forward."""

import math

import pytest

from repro.core.config import TaskPointConfig, lazy_config, periodic_config
from repro.core.fastforward import FastForwardEstimator
from repro.core.history import (
    ConfidenceInterval,
    HistoryTable,
    SampleHistory,
    TaskTypeState,
    mean_confidence_interval,
    t_critical_95,
    unbiased_coefficient_of_variation,
    unbiased_std,
    unbiased_variance,
)
from repro.trace.records import make_record


class TestTaskPointConfig:
    def test_paper_defaults(self):
        config = TaskPointConfig()
        assert config.warmup_instances == 2
        assert config.history_size == 4
        assert config.sampling_period == 250
        assert config.rare_type_cutoff == 5
        assert not config.is_lazy

    def test_lazy_config(self):
        config = lazy_config()
        assert config.sampling_period is None
        assert config.is_lazy

    def test_periodic_config(self):
        assert periodic_config(sampling_period=100).sampling_period == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            TaskPointConfig(warmup_instances=-1)
        with pytest.raises(ValueError):
            TaskPointConfig(history_size=0)
        with pytest.raises(ValueError):
            TaskPointConfig(sampling_period=0)
        with pytest.raises(ValueError):
            TaskPointConfig(rare_type_cutoff=0)
        with pytest.raises(ValueError):
            TaskPointConfig(thread_change_persistence=0)


class TestSampleHistory:
    def test_fifo_eviction(self):
        history = SampleHistory(capacity=3)
        for value in (1.0, 2.0, 3.0, 4.0):
            history.add(value)
        assert history.samples == [2.0, 3.0, 4.0]
        assert history.is_full
        assert len(history) == 3

    def test_mean(self):
        history = SampleHistory(capacity=4)
        assert history.mean() is None
        history.add(2.0)
        history.add(4.0)
        assert history.mean() == pytest.approx(3.0)

    def test_clear(self):
        history = SampleHistory(capacity=2)
        history.add(1.0)
        history.clear()
        assert history.is_empty
        assert history.mean() is None

    def test_rejects_non_positive_ipc(self):
        history = SampleHistory(capacity=2)
        with pytest.raises(ValueError):
            history.add(0.0)
        with pytest.raises(ValueError):
            history.add(-1.0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SampleHistory(capacity=0)


class TestTaskTypeState:
    def test_valid_and_all_histories(self):
        state = TaskTypeState.create("gemm", history_size=2)
        state.record_detailed(1.0, valid=False)
        assert state.all.samples == [1.0]
        assert state.valid.is_empty
        state.record_detailed(2.0, valid=True)
        assert state.valid.samples == [2.0]
        assert state.all.samples == [1.0, 2.0]

    def test_rare_until_valid_history_full(self):
        state = TaskTypeState.create("gemm", history_size=2)
        assert state.is_rare
        state.record_detailed(1.0, valid=True)
        assert state.is_rare
        state.record_detailed(1.0, valid=True)
        assert not state.is_rare
        assert state.is_fully_sampled


class TestHistoryTable:
    def test_state_created_on_demand(self):
        table = HistoryTable(history_size=4)
        assert not table.known("a")
        state = table.state("a")
        assert table.known("a")
        assert table.state("a") is state

    def test_all_fully_sampled(self):
        table = HistoryTable(history_size=1)
        assert not table.all_fully_sampled()  # no types observed yet
        table.state("a").record_detailed(1.0, valid=True)
        assert table.all_fully_sampled()
        table.state("b")
        assert not table.all_fully_sampled()

    def test_clear_valid_preserves_all(self):
        table = HistoryTable(history_size=2)
        table.state("a").record_detailed(2.0, valid=True)
        table.clear_valid()
        assert table.state("a").valid.is_empty
        assert not table.state("a").all.is_empty

    def test_invalid_history_size(self):
        with pytest.raises(ValueError):
            HistoryTable(history_size=0)


class TestFastForwardEstimator:
    def test_estimate_uses_type_mean_and_instructions(self):
        table = HistoryTable(history_size=2)
        table.state("work").record_detailed(2.0, valid=True)
        estimator = FastForwardEstimator(table)
        record = make_record(0, "work", instructions=1000)
        estimate = estimator.estimate(record)
        assert estimate.ipc == pytest.approx(2.0)
        assert estimate.cycles == pytest.approx(500.0)
        assert estimate.used_fallback is False

    def test_estimate_prefers_valid_history(self):
        table = HistoryTable(history_size=2)
        table.state("gemm").record_detailed(1.0, valid=False)
        table.state("gemm").record_detailed(3.0, valid=True)
        estimate = FastForwardEstimator(table).estimate(make_record(0, "gemm", 300))
        assert estimate.ipc == pytest.approx(3.0)
        assert estimate.used_fallback is False

    def test_estimate_falls_back_to_all_history(self):
        table = HistoryTable(history_size=2)
        table.state("rare").record_detailed(4.0, valid=False)
        estimate = FastForwardEstimator(table).estimate(make_record(0, "rare", 400))
        assert estimate.used_fallback is True
        assert estimate.cycles == pytest.approx(100.0)

    def test_estimate_none_when_no_samples(self):
        table = HistoryTable(history_size=2)
        assert FastForwardEstimator(table).estimate(make_record(0, "new", 10)) is None

    def test_cycles_at_least_one(self):
        table = HistoryTable(history_size=2)
        table.state("tiny").record_detailed(100.0, valid=True)
        estimate = FastForwardEstimator(table).estimate(make_record(0, "tiny", 1))
        assert estimate.cycles >= 1.0


class TestUnbiasedEstimators:
    def test_unbiased_variance_uses_ddof_1(self):
        assert unbiased_variance([1.0, 3.0]) == pytest.approx(2.0)
        assert unbiased_std([1.0, 3.0]) == pytest.approx(math.sqrt(2.0))

    def test_unbiased_variance_requires_two_samples(self):
        with pytest.raises(ValueError):
            unbiased_variance([1.0])

    def test_unbiased_cov_mirrors_sentinel_policy(self):
        assert unbiased_coefficient_of_variation([]) is None
        assert unbiased_coefficient_of_variation([2.0]) is None
        assert unbiased_coefficient_of_variation([-1.0, 1.0]) == math.inf
        assert unbiased_coefficient_of_variation([1.0, 3.0]) == pytest.approx(
            math.sqrt(2.0) / 2.0
        )

    def test_biased_vs_unbiased_differ_by_bessel(self):
        values = [1.0, 2.0, 4.0]
        mean = sum(values) / len(values)
        population_std = math.sqrt(
            sum((value - mean) ** 2 for value in values) / len(values)
        )
        biased = population_std / mean
        unbiased = unbiased_coefficient_of_variation(values)
        assert unbiased == pytest.approx(biased * math.sqrt(3 / 2))


class TestConfidenceIntervals:
    def test_t_table_reference_values(self):
        assert t_critical_95(1) == pytest.approx(12.706, abs=1e-3)
        assert t_critical_95(4) == pytest.approx(2.776, abs=1e-3)
        assert t_critical_95(30) == pytest.approx(2.042, abs=1e-3)
        # Beyond the table: the normal quantile.
        assert t_critical_95(1000) == pytest.approx(1.960, abs=1e-3)

    def test_t_table_monotone_decreasing(self):
        values = [t_critical_95(df) for df in range(1, 40)]
        assert values == sorted(values, reverse=True)

    def test_t_requires_positive_df(self):
        with pytest.raises(ValueError):
            t_critical_95(0)

    def test_interval_bounds_and_covers(self):
        interval = ConfidenceInterval(mean=10.0, half_width=2.0)
        assert interval.lower == 8.0
        assert interval.upper == 12.0
        assert interval.covers(8.0) and interval.covers(12.0)
        assert not interval.covers(7.999)
        assert interval.level == 0.95

    def test_mean_confidence_interval(self):
        values = [1.0, 2.0, 3.0]
        interval = mean_confidence_interval(values)
        assert interval.mean == pytest.approx(2.0)
        expected = t_critical_95(2) * unbiased_std(values) / math.sqrt(3)
        assert interval.half_width == pytest.approx(expected)
        assert interval.covers(2.0)

    def test_mean_confidence_interval_requires_two_samples(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([5.0])
