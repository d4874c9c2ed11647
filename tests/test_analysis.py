"""Tests for the analysis package: variation, native model, accuracy, reporting."""

import pytest

from repro.analysis.accuracy import (
    evaluate_benchmark,
    evaluate_grid,
    group_by_threads,
    summarize,
)
from repro.analysis.native import NativeExecutionModel, native_execution
from repro.analysis.reporting import (
    format_table,
    render_accuracy_table,
    render_variation_report,
)
from repro.analysis.variation import (
    BoxPlotStats,
    classification_agreement,
    ipc_variation,
    normalized_deviations,
    variation_grid,
)
from repro.core.config import lazy_config
from repro.core.fidelity import FidelityConfig
from repro.core.stratified import StratifiedConfig
from repro.exp import MemoryResultStore
from repro.sim.simulator import simulate
from repro.workloads.registry import get_workload

from tests.conftest import build_two_type_trace, build_uniform_trace


class TestBoxPlotStats:
    def test_from_values(self):
        values = [-10.0, -5.0, 0.0, 5.0, 10.0]
        stats = BoxPlotStats.from_values(values)
        assert stats.minimum == -10.0
        assert stats.maximum == 10.0
        assert stats.median == 0.0
        assert stats.count == 5
        assert stats.whisker_range > 0

    def test_within_5_percent(self):
        tight = BoxPlotStats.from_values([-1.0, 0.0, 1.0])
        wide = BoxPlotStats.from_values([-20.0, 0.0, 20.0])
        assert tight.within_5_percent is True
        assert wide.within_5_percent is False

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxPlotStats.from_values([])


class TestIpcVariation:
    def test_normalized_deviations_centred_on_zero(self):
        trace = build_two_type_trace(num_instances=60)
        result = simulate(trace, num_threads=2)
        deviations = normalized_deviations(result)
        assert len(deviations) == 60
        assert abs(sum(deviations) / len(deviations)) < 5.0

    def test_report_structure(self):
        trace = build_two_type_trace(num_instances=60)
        result = simulate(trace, num_threads=2)
        report = ipc_variation(result)
        assert report.benchmark == trace.name
        assert report.num_threads == 2
        assert {tv.task_type for tv in report.per_type} == {"small", "large"}
        for type_variation in report.per_type:
            assert type_variation.mean_ipc > 0
            assert type_variation.count == 30

    def test_uniform_workload_within_5_percent(self):
        trace = build_uniform_trace(num_instances=80)
        report = ipc_variation(simulate(trace, num_threads=2))
        assert report.within_5_percent

    def test_variation_grid_matches_direct_analysis(self):
        trace = get_workload("swaptions").generate(scale=0.004, seed=1)
        direct = ipc_variation(simulate(trace, num_threads=2))
        store = MemoryResultStore()
        reports = variation_grid(["swaptions"], num_threads=2, scale=0.004, seed=1,
                                 store=store)
        assert set(reports) == {"swaptions"}
        assert reports["swaptions"] == direct
        # The detailed run is cached under its spec key and reused on rerun.
        rerun = variation_grid(["swaptions"], num_threads=2, scale=0.004, seed=1,
                               store=store)
        assert rerun == reports
        assert store.hits == 1

    def test_classification_agreement(self):
        trace = build_uniform_trace(num_instances=60)
        simulated = {"bench": ipc_variation(simulate(trace, num_threads=2))}
        native = {"bench": ipc_variation(native_execution(trace, num_threads=2))}
        agreement = classification_agreement(native, simulated)
        assert 0.0 <= agreement <= 1.0
        with pytest.raises(ValueError):
            classification_agreement({}, {})


class TestNativeExecutionModel:
    def test_noise_factors_positive_and_near_one(self):
        model = NativeExecutionModel(seed=1)
        factors = [model(None) for _ in range(200)]
        assert all(factor > 0.5 for factor in factors)
        assert 0.95 < sum(factors) / len(factors) < 1.15

    def test_zero_noise_is_identity(self):
        model = NativeExecutionModel(jitter_sigma=0.0, os_noise_probability=0.0)
        assert all(model(None) == 1.0 for _ in range(10))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NativeExecutionModel(jitter_sigma=-0.1)
        with pytest.raises(ValueError):
            NativeExecutionModel(os_noise_probability=1.5)
        with pytest.raises(ValueError):
            NativeExecutionModel(os_noise_magnitude=-1)

    def test_native_execution_more_variable_than_simulation(self):
        trace = build_uniform_trace(num_instances=100)
        simulated = ipc_variation(simulate(trace, num_threads=2))
        native = ipc_variation(
            native_execution(trace, num_threads=2,
                             noise=NativeExecutionModel(jitter_sigma=0.05, seed=3))
        )
        assert native.box.whisker_range > simulated.box.whisker_range


class TestAccuracy:
    def test_evaluate_benchmark_fields(self):
        trace = get_workload("swaptions").generate(scale=0.005, seed=1)
        result = evaluate_benchmark(trace, num_threads=2, config=lazy_config())
        assert result.benchmark == "swaptions"
        assert result.error_percent >= 0.0
        assert result.speedup > 0.0
        assert 0.0 < result.detailed_fraction <= 1.0

    def test_evaluate_grid_and_summaries(self):
        results = evaluate_grid(
            benchmarks=["swaptions", "vector-operation"],
            thread_counts=[1, 2],
            scale=0.004,
            config=lazy_config(),
        )
        assert len(results) == 4
        summary = summarize(results)
        assert summary.count == 4
        assert summary.max_error_percent >= summary.average_error_percent
        by_threads = group_by_threads(results)
        assert set(by_threads) == {1, 2}
        assert all(s.count == 2 for s in by_threads.values())

    #: The fields only the interval-reporting engines fill.
    CI_AND_BUDGET_FIELDS = (
        "ci_half_width_percent",
        "ci_lower_cycles",
        "ci_upper_cycles",
        "ci_covers_detailed",
        "error_budget_percent",
        "within_budget",
    )

    @pytest.mark.parametrize("config", [StratifiedConfig(), FidelityConfig()],
                             ids=["stratified", "fidelity"])
    def test_evaluate_benchmark_reports_the_grid_rows_interval_and_budget(
        self, config
    ):
        trace = get_workload("swaptions").generate(scale=0.004, seed=1)
        single = evaluate_benchmark(trace, num_threads=2, config=config)
        (row,) = evaluate_grid(["swaptions"], [2], config=config,
                               scale=0.004, seed=1)
        assert single.sampled_cycles == row.sampled_cycles
        assert row.ci_half_width_percent is not None
        for name in self.CI_AND_BUDGET_FIELDS:
            assert getattr(single, name) == getattr(row, name), name

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_evaluate_grid_reuses_cached_results(self):
        store = MemoryResultStore()
        results = evaluate_grid(
            benchmarks=["swaptions"], thread_counts=[2],
            scale=0.004, seed=7, config=lazy_config(), store=store,
        )
        assert results[0].benchmark == "swaptions"
        assert len(store) == 2  # one sampled run plus its detailed baseline
        rerun = evaluate_grid(
            benchmarks=["swaptions"], thread_counts=[2],
            scale=0.004, seed=7, config=lazy_config(), store=store,
        )
        assert rerun == results
        assert store.hits == 2


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.2345], ["long-name", 2]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "1.23" in lines[2]

    def test_format_table_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_render_accuracy_table(self):
        trace = get_workload("swaptions").generate(scale=0.004, seed=1)
        results = [evaluate_benchmark(trace, num_threads=2, config=lazy_config())]
        text = render_accuracy_table(results, title="Figure 7")
        assert "Figure 7" in text
        assert "swaptions" in text
        assert "overall" in text

    def test_render_variation_report(self):
        trace = build_uniform_trace(num_instances=60)
        reports = {"uniform": ipc_variation(simulate(trace, num_threads=2))}
        text = render_variation_report(reports, title="Figure 5")
        assert "Figure 5" in text
        assert "uniform" in text
        assert "within +/-5%" in text
