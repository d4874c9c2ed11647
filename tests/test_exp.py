"""Tests for the experiment orchestration layer (``repro.exp``)."""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis.accuracy import evaluate_benchmark, evaluate_grid
from repro.analysis.sweep import warmup_sweep
from repro.arch.config import high_performance_config, low_power_config
from repro.core.config import TaskPointConfig, lazy_config, periodic_config
from repro.core.fidelity import FidelityConfig
from repro.core.stratified import StratifiedConfig
from repro.exp import (
    AsyncWorkerBackend,
    ExperimentExecutionError,
    ExperimentFailure,
    ExperimentResult,
    ExperimentSpec,
    MemoryResultStore,
    ResultStore,
    SerialBackend,
    run_experiments,
    run_spec,
)
from repro.serve import store_digest
from repro.workloads.registry import get_workload

from exp_helpers import deterministic_fields

SCALE = 0.004


def small_spec(benchmark="swaptions", threads=2, config=lazy_config(), **kwargs):
    return ExperimentSpec(
        benchmark=benchmark, num_threads=threads, scale=SCALE, trace_seed=1,
        config=config, **kwargs,
    )


class CountingBackend:
    """Serial backend that records how many specs it actually executed."""

    def __init__(self):
        self.executed = 0
        self._serial = SerialBackend()

    def run_outcomes(self, specs, on_outcome=None):
        self.executed += len(specs)
        return self._serial.run_outcomes(specs, on_outcome)


class FailingBackend:
    """Backend that must never be reached (warm-cache assertions)."""

    def run_outcomes(self, specs, on_outcome=None):
        raise AssertionError(f"backend was asked to run {len(specs)} specs")


class TestExperimentSpec:
    def test_frozen_and_hashable(self):
        spec = small_spec()
        assert spec == small_spec()
        assert hash(spec) == hash(small_spec())
        assert len({spec, small_spec(), spec.baseline()}) == 2
        with pytest.raises(AttributeError):
            spec.num_threads = 4

    def test_default_architecture_normalised(self):
        explicit = small_spec(architecture=high_performance_config())
        implicit = small_spec(architecture=None)
        assert explicit == implicit
        assert explicit.content_key() == implicit.content_key()
        assert implicit.architecture.name == "high-performance"

    def test_baseline_and_sampled(self):
        spec = small_spec(config=periodic_config())
        baseline = spec.baseline()
        assert not spec.is_detailed
        assert baseline.is_detailed
        assert baseline.baseline() == baseline
        assert baseline.sampled(periodic_config()) == spec

    def test_json_round_trip_preserves_key(self):
        for spec in (
            small_spec(),
            small_spec(config=None),
            small_spec(architecture=low_power_config(), threads=3),
            small_spec(scheduler="random", scheduler_seed=7),
        ):
            payload = json.loads(json.dumps(spec.to_dict()))
            restored = ExperimentSpec.from_dict(payload)
            assert restored == spec
            assert restored.content_key() == spec.content_key()

    def test_from_dict_rejects_shared_l1(self):
        # Specs sent to `repro submit` arrive through from_dict.
        payload = json.loads(json.dumps(small_spec().to_dict()))
        payload["architecture"]["l1"]["shared"] = True
        with pytest.raises(ValueError, match="L1 must be private"):
            ExperimentSpec.from_dict(payload)

    def test_content_key_distinguishes_experiments(self):
        base = small_spec()
        variants = [
            base.baseline(),
            small_spec(threads=4),
            small_spec(benchmark="vector-operation"),
            small_spec(config=periodic_config()),
            small_spec(architecture=low_power_config()),
            small_spec(scheduler_seed=3),
            ExperimentSpec("swaptions", num_threads=2, scale=0.005, trace_seed=1,
                           config=lazy_config()),
        ]
        keys = {spec.content_key() for spec in variants}
        assert base.content_key() not in keys
        assert len(keys) == len(variants)

    def test_content_key_stability(self):
        # Golden digest: guards the content-key scheme itself.  If a spec or
        # config field changes meaning, bump SPEC_SCHEMA_VERSION (which
        # invalidates on-disk caches) and regenerate this constant.
        expected = {
            lazy_config():
                "af759e1b6427c93819939c3afcf85e7d8f34f30a7b3891c32eec413a89b4603f",
            StratifiedConfig():
                "d64a91998df7c67868eb6624a1361d45d49f17fa052c12c7477c8a9e0342236e",
            FidelityConfig():
                "1ca5239f8260492642b801d1e358c8d10659f8bae3488f708d96cc67fbcca7fd",
        }
        for config, key in expected.items():
            spec = ExperimentSpec(
                "swaptions", num_threads=2, scale=0.004, trace_seed=1,
                architecture=high_performance_config(), config=config,
            )
            assert spec.content_key() == key, config

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec("swaptions", num_threads=0)
        with pytest.raises(ValueError):
            ExperimentSpec("swaptions", num_threads=1, scale=0.0)


class TestRunSpec:
    def test_detailed_and_sampled(self):
        sampled = run_spec(small_spec())
        detailed = run_spec(small_spec().baseline())
        assert sampled.benchmark == detailed.benchmark == "swaptions"
        assert sampled.taskpoint is not None
        assert detailed.taskpoint is None
        assert sampled.resamples >= 0
        assert detailed.total_cycles > 0
        assert sampled.speedup_versus(detailed) > 1.0
        assert 0.0 <= sampled.error_versus(detailed) < 1.0
        assert sampled.ipc_by_type()  # measured samples exist

    def test_result_json_round_trip(self):
        result = run_spec(small_spec())
        payload = json.loads(json.dumps(result.to_dict()))
        restored = ExperimentResult.from_dict(payload)
        assert restored == result

    def test_resampling_result_json_round_trip(self):
        # Regression: resample_reasons used to be keyed by ResampleReason
        # enum members, which json.dumps rejects — so any resampling run
        # crashed the store and the worker wire format.
        config = TaskPointConfig(warmup_instances=1, history_size=2,
                                 sampling_period=5)
        result = run_spec(small_spec(benchmark="cholesky", config=config))
        assert result.resamples > 0, "config was meant to force resampling"
        payload = json.loads(json.dumps(result.to_dict()))
        restored = ExperimentResult.from_dict(payload)
        assert restored == result
        assert all(
            isinstance(reason, str)
            for reason in restored.taskpoint["resample_reasons"]
        )

    def test_matches_direct_comparison(self):
        """run_spec pairs reproduce compare_with_detailed exactly."""
        trace = get_workload("swaptions").generate(scale=SCALE, seed=1)
        reference = evaluate_benchmark(trace, num_threads=2, config=lazy_config())
        sampled = run_spec(small_spec())
        detailed = run_spec(small_spec().baseline())
        assert sampled.error_versus(detailed) * 100.0 == reference.error_percent
        assert sampled.speedup_versus(detailed) == reference.speedup
        assert detailed.total_cycles == reference.detailed_cycles
        assert sampled.total_cycles == reference.sampled_cycles


class TestWarmedTraceMemo:
    def test_memo_returns_one_warmed_instance(self):
        from repro.exp.runner import get_trace

        first = get_trace("swaptions", SCALE, 1)
        second = get_trace("swaptions", SCALE, 1)
        assert second is first
        # Running a spec on the memoised trace warms its plan cache, and the
        # warmed state is visible through later get_trace calls — the whole
        # point of the worker-side memo.
        run_spec(small_spec().baseline())
        assert any(
            isinstance(key, tuple) and key and key[0] == "batched-executor"
            for key in get_trace("swaptions", SCALE, 1).columns.plan_cache
        )
        assert "runtime-lists" in get_trace("swaptions", SCALE, 1).columns.plan_cache

    def test_memo_env_knob_disables_reuse(self, monkeypatch):
        from repro.exp.runner import TRACE_MEMO_ENV, get_trace

        warmed = get_trace("swaptions", SCALE, 1)
        monkeypatch.setenv(TRACE_MEMO_ENV, "0")
        fresh = get_trace("swaptions", SCALE, 1)
        assert fresh is not warmed
        assert fresh is not get_trace("swaptions", SCALE, 1)
        # Results stay identical either way; only the warm-up cost differs.
        cold = run_spec(small_spec().baseline())
        monkeypatch.delenv(TRACE_MEMO_ENV)
        warm = run_spec(small_spec().baseline())
        assert deterministic_fields(cold) == deterministic_fields(warm)


class TestBackendEquivalence:
    def grid(self):
        specs = []
        for benchmark in ("swaptions", "vector-operation"):
            for threads in (1, 2):
                spec = small_spec(benchmark=benchmark, threads=threads)
                specs.extend([spec, spec.baseline()])
        return specs

    def test_duplicate_specs_executed_once(self):
        spec = small_spec()
        backend = CountingBackend()
        results = run_experiments(
            [spec, spec.baseline(), spec, spec.baseline()], backend=backend
        )
        assert backend.executed == 2
        assert results[0] == results[2]
        assert results[1] == results[3]


class TestFailureIsolation:
    """A raising spec is reported per-spec; the rest of the batch finishes."""

    def poison(self):
        return small_spec(benchmark="no-such-benchmark")

    def batch(self):
        good = small_spec()
        return [good, self.poison(), good.baseline()]

    @pytest.mark.parametrize("make_backend_under_test", [
        SerialBackend,
        lambda: AsyncWorkerBackend(hosts=2),
    ], ids=["serial", "async"])
    def test_remaining_specs_finish(self, make_backend_under_test):
        backend = make_backend_under_test()
        outcomes = backend.run_outcomes(self.batch())
        assert isinstance(outcomes[0], ExperimentResult)
        assert isinstance(outcomes[1], ExperimentFailure)
        assert isinstance(outcomes[2], ExperimentResult)
        assert outcomes[1].error_type == "KeyError"
        assert outcomes[1].spec_key == self.poison().content_key()
        assert "no-such-benchmark" in outcomes[1].message
        assert outcomes[1].traceback  # the full traceback is preserved

    @pytest.mark.parametrize("make_backend_under_test", [
        SerialBackend,
        lambda: AsyncWorkerBackend(hosts=2),
    ], ids=["serial", "async"])
    def test_run_raises_aggregate_after_completion(self, make_backend_under_test):
        with pytest.raises(ExperimentExecutionError) as excinfo:
            make_backend_under_test().run(self.batch())
        assert len(excinfo.value.failures) == 1
        assert "no-such-benchmark" in str(excinfo.value)

    def test_run_experiments_records_failures_in_store(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = self.batch()
        results = run_experiments(
            specs, backend=SerialBackend(), store=store, on_error="record",
        )
        assert results[1] is None
        assert results[0] is not None and results[2] is not None
        assert len(store) == 2  # both healthy specs persisted
        failure = store.get_failure(self.poison())
        assert failure is not None and failure.error_type == "KeyError"
        # The failure is a diagnostic, not a cache entry: a re-run retries.
        assert store.get(self.poison()) is None

    def test_failure_round_trips_through_json(self):
        try:
            raise ValueError("broken workload")
        except ValueError as error:
            failure = ExperimentFailure.from_exception("abc123", error, attempts=2)
        restored = ExperimentFailure.from_dict(
            json.loads(json.dumps(failure.to_dict()))
        )
        assert restored == failure
        assert "broken workload" in restored.traceback

    def test_on_error_validation(self):
        with pytest.raises(ValueError):
            run_experiments([small_spec()], on_error="ignore")


class TestInterruptAndResume:
    """Ctrl-C keeps every finished result; a re-run computes only the rest."""

    def grid(self):
        specs = []
        for benchmark in ("swaptions", "vector-operation"):
            spec = small_spec(benchmark=benchmark)
            specs += [spec, spec.baseline()]
        return specs

    def test_serial_run_keeps_the_results_it_finished(self, tmp_path, monkeypatch):
        import repro.exp.backends as backends

        specs = self.grid()
        calls = []

        def interrupted_on_third_call(spec):
            calls.append(spec)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return run_spec(spec)

        monkeypatch.setattr(backends, "run_spec", interrupted_on_third_call)
        store = ResultStore(tmp_path / "resumed")
        with pytest.raises(KeyboardInterrupt):
            run_experiments(specs, backend=SerialBackend(), store=store)
        assert len(store) == 2
        assert store.get(specs[0]) is not None and store.get(specs[1]) is not None

        executed = []

        def counting(spec):
            executed.append(spec)
            return run_spec(spec)

        monkeypatch.setattr(backends, "run_spec", counting)
        run_experiments(specs, backend=SerialBackend(), store=store)
        assert executed == specs[2:]

        monkeypatch.setattr(backends, "run_spec", run_spec)
        run_experiments(specs, backend=SerialBackend(),
                        store=ResultStore(tmp_path / "fresh"))
        assert store_digest(tmp_path / "resumed") == store_digest(tmp_path / "fresh")


class TestResultStore:
    def test_cold_then_warm(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        specs = [small_spec(), small_spec().baseline()]
        cold = run_experiments(specs, store=store)
        assert store.misses == 2 and store.hits == 0
        assert len(store) == 2
        # Warm rerun: zero new simulations — the backend must not be reached.
        # Served results carry no wall-clock time (cross-session provenance);
        # everything deterministic is identical.
        warm = run_experiments(specs, backend=FailingBackend(), store=store)
        assert [deterministic_fields(r) for r in warm] == [
            deterministic_fields(r) for r in cold
        ]
        assert all(result.wall_seconds is None for result in warm)
        assert store.hits == 2

    def test_persistence_across_store_instances(self, tmp_path):
        directory = tmp_path / "cache"
        spec = small_spec()
        first = run_experiments([spec], store=ResultStore(directory))
        second = run_experiments(
            [spec], backend=FailingBackend(), store=ResultStore(directory)
        )
        assert deterministic_fields(first[0]) == deterministic_fields(second[0])

    def test_len_ignores_leftover_temp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = small_spec()
        store.put(spec, run_spec(spec))
        (tmp_path / ".tmp-crashed.json").write_text("{}")
        assert len(store) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = small_spec()
        result = run_spec(spec)
        store.put(spec, result)
        key = spec.content_key()
        (tmp_path / ResultStore.shard(key) / f"{key}.json").write_text("not json")
        assert store.get(spec) is None
        store.put(spec, result)
        assert deterministic_fields(store.get(spec)) == deterministic_fields(result)

    def test_root_level_entry_is_a_miss(self, tmp_path):
        # Only the shards hold entries: a flat <key>.json in the root (as
        # stores written before sharding kept them) is neither served nor
        # counted, and a put leaves it alone.  The spec is just recomputed.
        store = ResultStore(tmp_path)
        spec = small_spec()
        result = run_spec(spec)
        store.put(spec, result)
        key = spec.content_key()
        sharded_path = tmp_path / ResultStore.shard(key) / f"{key}.json"
        flat_path = tmp_path / f"{key}.json"
        flat_path.write_bytes(sharded_path.read_bytes())
        sharded_path.unlink()
        assert store.get(spec) is None
        assert len(store) == 0
        assert store.put_if_absent(spec, result) is True
        assert len(store) == 1
        assert flat_path.is_file()

    def test_memory_store(self):
        store = MemoryResultStore()
        spec = small_spec()
        assert store.get(spec) is None
        result = run_spec(spec)
        store.put(spec, result)
        assert store.get(spec) == result
        assert (store.hits, store.misses) == (1, 1)
        store.clear()
        assert len(store) == 0

    def test_memory_store_put_if_absent(self):
        store = MemoryResultStore()
        spec = small_spec()
        result = run_spec(spec)
        assert store.put_if_absent(spec, result) is True
        assert store.put_if_absent(spec, result) is False
        assert len(store) == 1

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = small_spec()
        store.put(spec, run_spec(spec))
        # The service journal shares the directory but is not a result.
        journal = tmp_path / ".serve" / "jobs" / "0123456789abcdef.json"
        journal.parent.mkdir(parents=True)
        journal.write_text("{}", encoding="utf-8")
        assert len(store) == 1
        assert store.clear() == 1
        assert len(store) == 0
        assert journal.is_file()

    def _failure(self, spec):
        return ExperimentFailure(
            spec_key=spec.content_key(), error_type="RuntimeError",
            message="transient breakage",
        )

    def test_put_removes_stale_failure_record(self, tmp_path):
        # Regression: a spec that failed once left its <key>.error.json
        # behind forever, even after a later run succeeded and stored the
        # real entry — every successful write must clear the diagnostic.
        store = ResultStore(tmp_path)
        spec = small_spec()
        store.record_failure(spec, self._failure(spec))
        assert store.get_failure(spec) is not None
        store.put(spec, run_spec(spec))
        assert store.get_failure(spec) is None
        key = spec.content_key()
        assert not (tmp_path / ResultStore.shard(key)
                    / f"{key}.error.json").exists()
        assert store.get(spec) is not None

    def test_put_if_absent_removes_stale_failure_record(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = small_spec()
        result = run_spec(spec)
        store.record_failure(spec, self._failure(spec))
        assert store.put_if_absent(spec, result) is True
        assert store.get_failure(spec) is None
        # The subtler residue path: the entry already exists (a sibling
        # writer won the race), a stale diagnostic appears afterwards, and
        # the losing put_if_absent must still clean it up on its False path.
        store.record_failure(spec, self._failure(spec))
        assert store.put_if_absent(spec, result) is False
        assert store.get_failure(spec) is None

    def test_memory_store_put_if_absent_removes_stale_failure(self):
        store = MemoryResultStore()
        spec = small_spec()
        result = run_spec(spec)
        store.record_failure(spec, self._failure(spec))
        assert store.put_if_absent(spec, result) is True
        assert store.get_failure(spec) is None
        store.record_failure(spec, self._failure(spec))
        assert store.put_if_absent(spec, result) is False
        assert store.get_failure(spec) is None


class TestCrossProcessDeterminism:
    """A spec must mean the same experiment in every process.

    The persistent result store and the async worker backend both rely on
    trace generation being deterministic in (benchmark, scale, seed) alone —
    in particular it must not depend on the per-process string-hash
    randomisation (PYTHONHASHSEED).
    """

    SNIPPET = (
        "from repro.exp import run_spec, ExperimentSpec\n"
        "from repro.core.config import lazy_config\n"
        "spec = ExperimentSpec('histogram', num_threads=2, scale=0.004,"
        " trace_seed=1, config=lazy_config())\n"
        "r = run_spec(spec)\n"
        "print(repr(r.total_cycles), repr(r.cost.total_units))\n"
    )

    def _run_in_subprocess(self, hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in (env.get("PYTHONPATH"),) if p] + list(sys.path)
        )
        output = subprocess.run(
            [sys.executable, "-c", self.SNIPPET],
            capture_output=True, text=True, check=True, env=env,
        )
        return output.stdout.strip()

    def test_results_independent_of_hash_seed(self):
        first = self._run_in_subprocess(1)
        second = self._run_in_subprocess(4242)
        assert first == second


class TestSeedRegression:
    """The orchestrated grids reproduce the seed implementation's numbers."""

    def test_evaluate_grid_matches_seed_loop(self):
        benchmarks = ["swaptions", "vector-operation"]
        threads = [1, 2]
        new = evaluate_grid(benchmarks, threads, scale=SCALE, config=lazy_config())
        reference = []
        for name in benchmarks:
            trace = get_workload(name).generate(scale=SCALE, seed=1)
            for count in threads:
                reference.append(
                    evaluate_benchmark(trace, num_threads=count, config=lazy_config())
                )
        assert len(new) == len(reference)
        for ours, seed in zip(new, reference):
            assert (ours.benchmark, ours.num_threads) == (seed.benchmark, seed.num_threads)
            assert ours.error_percent == seed.error_percent
            assert ours.speedup == seed.speedup
            assert ours.detailed_cycles == seed.detailed_cycles
            assert ours.sampled_cycles == seed.sampled_cycles
            assert ours.detailed_fraction == seed.detailed_fraction
            assert ours.resamples == seed.resamples

    def test_warmup_sweep_matches_seed_loop(self):
        values = (0, 2)
        benchmarks = ("swaptions",)
        threads = (1, 2)
        points = warmup_sweep(
            warmup_values=values, benchmarks=benchmarks, thread_counts=threads,
            scale=SCALE,
        )
        trace = get_workload("swaptions").generate(scale=SCALE, seed=1)
        for point, value in zip(points, values):
            config = TaskPointConfig(
                warmup_instances=value, history_size=10, sampling_period=None
            )
            rows = [
                evaluate_benchmark(trace, num_threads=count, config=config)
                for name in benchmarks for count in threads
            ]
            errors = [row.error_percent for row in rows]
            speedups = [row.speedup for row in rows]
            assert point.value == value
            assert point.experiments == len(rows)
            assert point.average_error_percent == sum(errors) / len(errors)
            assert point.average_speedup == sum(speedups) / len(speedups)

    def test_sweep_shares_baselines(self):
        backend = CountingBackend()
        warmup_sweep(
            warmup_values=(0, 1, 2), benchmarks=("swaptions",), thread_counts=(1, 2),
            scale=SCALE, backend=backend,
        )
        # 3 values x 1 benchmark x 2 thread counts sampled runs, but only
        # 2 shared detailed baselines (one per thread count).
        assert backend.executed == 3 * 2 + 2


class TestTraceMemoBound:
    """The worker-side memo is a bounded LRU with observable counters."""

    def make_memo(self, capacity=2):
        from repro.exp.runner import TraceMemo

        return TraceMemo(capacity=capacity)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            self.make_memo(capacity=0)

    def test_bounded_with_lru_eviction(self):
        memo = self.make_memo(capacity=2)
        memo.get("swaptions", SCALE, 1)
        memo.get("vector-operation", SCALE, 1)
        memo.get("swaptions", SCALE, 1)  # refresh: swaptions is now newest
        memo.get("cholesky", SCALE, 1)   # evicts vector-operation, not swaptions
        assert len(memo) == 2
        assert memo.evictions == 1
        before = memo.hits
        memo.get("swaptions", SCALE, 1)
        assert memo.hits == before + 1
        memo.get("vector-operation", SCALE, 1)  # regenerated: a miss
        assert memo.misses == 4

    def test_stats_snapshot(self):
        memo = self.make_memo(capacity=2)
        memo.get("swaptions", SCALE, 1)
        memo.get("swaptions", SCALE, 1)
        stats = memo.stats()
        assert stats == {
            "capacity": 2, "entries": 1, "hits": 1, "misses": 1, "evictions": 0,
        }

    def test_clear_keeps_counters(self):
        memo = self.make_memo(capacity=2)
        memo.get("swaptions", SCALE, 1)
        memo.clear()
        assert len(memo) == 0
        assert memo.stats()["misses"] == 1

    def test_module_stats_exposed(self):
        from repro.exp.runner import get_trace, trace_memo_stats

        before = trace_memo_stats()
        get_trace("swaptions", SCALE, 1)
        after = trace_memo_stats()
        assert after["hits"] + after["misses"] > before["hits"] + before["misses"]
        assert set(after) == {"capacity", "entries", "hits", "misses", "evictions"}


class TestFailureDiagnostics:
    """A failed spec's diagnostics must carry the originating traceback.

    Regression tests for the broad ``except Exception`` handlers in the
    backends and the worker: condensing an exception into a message string
    alone made worker-side failures undebuggable.
    """

    def poison_spec(self):
        return ExperimentSpec(benchmark="no-such-benchmark", num_threads=2,
                              scale=SCALE, config=lazy_config())

    def test_failure_record_has_full_traceback(self, tmp_path):
        store = ResultStore(tmp_path)
        results = run_experiments(
            [self.poison_spec()], store=store, on_error="record"
        )
        assert results == [None]
        error_files = list(tmp_path.rglob("*.error.json"))
        assert len(error_files) == 1
        data = json.loads(error_files[0].read_text())["error"]
        assert data["error_type"] == "KeyError"
        assert "no-such-benchmark" in data["message"]
        # The traceback must reach the originating frame, not just repeat
        # the message: the registry lookup inside the runner.
        assert "get_workload" in data["traceback"]
        assert "Traceback (most recent call last)" in data["traceback"]
        # And the stored record round-trips through the typed accessor.
        failure = store.get_failure(self.poison_spec())
        assert failure is not None
        assert "get_workload" in failure.traceback

    def test_failure_round_trips_through_store(self, tmp_path):
        store = ResultStore(tmp_path)
        run_experiments([self.poison_spec()], store=store, on_error="record")

        class CountingOutcomeBackend:
            def __init__(self):
                self.executed = 0
                self._serial = SerialBackend()

            def run_outcomes(self, specs, on_outcome=None):
                self.executed += len(specs)
                return self._serial.run_outcomes(specs, on_outcome)

        # Failures are diagnostics, not cached results: a re-run retries.
        backend = CountingOutcomeBackend()
        results = run_experiments(
            [self.poison_spec()], store=store, backend=backend, on_error="record"
        )
        assert results == [None]
        assert backend.executed == 1
