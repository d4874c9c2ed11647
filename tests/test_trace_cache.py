"""The on-disk trace cache beside the result store.

A cached trace must be column-for-column the generated one, so every result
computed on it is bit-identical; a damaged, foreign or evicted entry must
degrade to regeneration; and every process that runs a store's specs —
in-process, async workers on one host or several, later CLI calls — must share
the store's ``traces/`` directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.exp.tracecache as tracecache
from repro.core.config import lazy_config
from repro.exp import (
    AsyncWorkerBackend,
    ExperimentSpec,
    ResultStore,
    SerialBackend,
    run_experiments,
)
from repro.exp.distributed import worker_environment
from repro.exp.runner import (
    TRACE_CACHE_ENV,
    TRACE_MEMO_ENV,
    active_trace_cache,
    get_trace,
    run_spec,
    use_trace_cache,
)
from repro.exp.tracecache import TraceCache, trace_key
from repro.trace.io import _COLUMN_KEYS, save_trace
from repro.workloads.base import GENERATOR_VERSION, Workload
from repro.workloads.registry import get_workload, list_workloads

SCALE = 0.004
SRC = Path(__file__).resolve().parent.parent / "src"

#: Digest of every workload's trace at scale 0.004, seed 1, captured at
#: GENERATOR_VERSION 1.  A generator change that alters any trace fails
#: here; bump GENERATOR_VERSION (so no cache serves the old traces) and
#: re-pin the digests with ``_digest`` below.
PINNED_VERSION = 1
PINNED_DIGESTS = {
    "2d-convolution": "b0b4209657fdaf72",
    "3d-stencil": "173d9f535b6db768",
    "atomic-monte-carlo-dynamics": "34dd98b911a721fe",
    "dense-matrix-multiplication": "d00eb3db3e4ebd82",
    "histogram": "1b24a2f8959b953c",
    "n-body": "8ee27ea2ee6b7755",
    "reduction": "f0b09c19f76b63a4",
    "sparse-matrix-vector-multiplication": "e0cd96289117435c",
    "vector-operation": "c04d30bb7e8e1fde",
    "checkSparseLU": "b17aa297460f5466",
    "cholesky": "566121943ab47a99",
    "kmeans": "ebbed04b63aec8cc",
    "knn": "422d0a30e0b3848c",
    "blackscholes": "6cd7882935466619",
    "bodytrack": "4d91110e1dc35db6",
    "canneal": "7e3004a80576b916",
    "dedup": "8fc57a1e378b08d4",
    "freqmine": "4c84d5f55b95f4e3",
    "swaptions": "ef30a4f613284bfb",
}


def _digest(trace) -> str:
    digest = hashlib.sha256(json.dumps(list(trace.columns.types.names)).encode())
    for key in _COLUMN_KEYS:
        array = getattr(trace.columns, key)
        digest.update(key.encode())
        digest.update(array.dtype.str.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def _assert_same_trace(loaded, generated) -> None:
    assert loaded.name == generated.name
    assert loaded.metadata == generated.metadata
    assert loaded.columns.types.names == generated.columns.types.names
    for key in _COLUMN_KEYS:
        ours, theirs = getattr(loaded.columns, key), getattr(generated.columns, key)
        assert ours.dtype == theirs.dtype, key
        assert np.array_equal(ours, theirs), key


def _refuse_generation(self, scale=1.0, seed=0):
    """Stands in for ``Workload.generate`` where a trace must be loaded."""
    raise AssertionError(f"generated {self.name} instead of loading it")


def _spec(benchmark="swaptions", seed=1, sampled=True):
    spec = ExperimentSpec(benchmark, 2, scale=SCALE, trace_seed=seed, config=lazy_config())
    return spec if sampled else spec.baseline()


def _payloads(results):
    """Result dicts without the host wall time (the one nondeterministic field)."""
    return [dict(result.to_dict(), wall_seconds=None) for result in results]


# ----------------------------------------------------------------------
class TestGeneratorVersion:
    def test_traces_match_the_pinned_generator_version(self):
        assert GENERATOR_VERSION == PINNED_VERSION, (
            "GENERATOR_VERSION changed: re-pin PINNED_DIGESTS for the new generators"
        )
        assert sorted(PINNED_DIGESTS) == sorted(list_workloads())
        drifted = {
            name: _digest(get_workload(name).generate(scale=SCALE, seed=1))
            for name in PINNED_DIGESTS
        }
        drifted = {name: d for name, d in drifted.items() if d != PINNED_DIGESTS[name]}
        assert not drifted, (
            f"trace generation changed for {sorted(drifted)}: bump "
            "repro.workloads.base.GENERATOR_VERSION and re-pin PINNED_DIGESTS"
        )

    def test_key_covers_benchmark_scale_seed_and_version(self, monkeypatch):
        key = trace_key("swaptions", SCALE, 1)
        assert key == trace_key("swaptions", SCALE, 1)
        others = {
            trace_key("cholesky", SCALE, 1),
            trace_key("swaptions", 0.005, 1),
            trace_key("swaptions", SCALE, 2),
        }
        monkeypatch.setattr(tracecache, "GENERATOR_VERSION", GENERATOR_VERSION + 1)
        others.add(trace_key("swaptions", SCALE, 1))
        assert len(others) == 4 and key not in others


class TestTraceCache:
    def test_round_trip_is_column_identical(self, tmp_path):
        cache = TraceCache(tmp_path / "traces")
        assert cache.load("cholesky", SCALE, 3) is None
        generated = get_workload("cholesky").generate(scale=SCALE, seed=3)
        cache.save(generated, "cholesky", SCALE, 3)
        loaded = cache.load("cholesky", SCALE, 3)
        _assert_same_trace(loaded, generated)
        assert (cache.hits, cache.misses, cache.writes) == (1, 1, 1)
        # Nothing but the entry is left behind.
        assert [p.name for p in cache.directory.iterdir()] == [
            cache.path("cholesky", SCALE, 3).name
        ]

    def test_results_on_a_loaded_trace_are_bit_identical(self, tmp_path, monkeypatch):
        spec = _spec("cholesky", seed=3)
        cache = TraceCache(tmp_path)
        monkeypatch.setenv(TRACE_MEMO_ENV, "0")
        with use_trace_cache(cache):
            generated = run_spec(spec)
            monkeypatch.setattr(Workload, "generate", _refuse_generation)
            loaded = run_spec(spec)
        assert (cache.writes, cache.hits) == (1, 1)
        assert _payloads([loaded]) == _payloads([generated])

    @pytest.mark.parametrize("damage", ["truncate", "garbage", "empty"])
    def test_damaged_entry_is_a_miss_and_is_rewritten(self, tmp_path, damage):
        cache = TraceCache(tmp_path)
        trace = get_workload("swaptions").generate(scale=SCALE, seed=1)
        cache.save(trace, "swaptions", SCALE, 1)
        path = cache.path("swaptions", SCALE, 1)
        data = path.read_bytes()
        path.write_bytes({"truncate": data[: len(data) // 2],
                          "garbage": b"not a zip archive" * 8,
                          "empty": b""}[damage])
        assert cache.load("swaptions", SCALE, 1) is None
        cache.save(trace, "swaptions", SCALE, 1)
        _assert_same_trace(cache.load("swaptions", SCALE, 1), trace)

    def test_entry_of_another_trace_is_a_miss(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.save(get_workload("swaptions").generate(scale=SCALE, seed=2),
                   "swaptions", SCALE, 2)
        os.replace(cache.path("swaptions", SCALE, 2), cache.path("swaptions", SCALE, 1))
        assert cache.load("swaptions", SCALE, 1) is None

    def test_unwritable_directory_degrades_to_no_cache(self, tmp_path):
        blocker = tmp_path / "traces"
        blocker.write_text("a file where the directory should be")
        cache = TraceCache(blocker)
        cache.save(get_workload("swaptions").generate(scale=SCALE, seed=1),
                   "swaptions", SCALE, 1)
        assert cache.writes == 0
        assert cache.load("swaptions", SCALE, 1) is None

    def test_entries_follow_the_umask(self, tmp_path):
        cache = TraceCache(tmp_path)
        trace = get_workload("swaptions").generate(scale=SCALE, seed=1)
        previous = os.umask(0o022)
        try:
            cache.save(trace, "swaptions", SCALE, 1)
            exported = save_trace(trace, tmp_path / "exported.npz")
        finally:
            os.umask(previous)
        for path in (cache.path("swaptions", SCALE, 1), exported):
            assert path.stat().st_mode & 0o777 == 0o644

    def test_clear_and_stats(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.save(get_workload("swaptions").generate(scale=SCALE, seed=1),
                   "swaptions", SCALE, 1)
        (tmp_path / ".stale.npz.abc.tmp").write_bytes(b"partial")
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["bytes"] > 0 and stats["writes"] == 1
        assert cache.clear() == 1
        assert list(tmp_path.iterdir()) == []
        assert cache.stats()["entries"] == 0


class TestRunnerTier:
    def test_memo_miss_loads_instead_of_generating(self, tmp_path, monkeypatch):
        cache = TraceCache(tmp_path)
        trace = get_workload("knn").generate(scale=SCALE, seed=7)
        cache.save(trace, "knn", SCALE, 7)
        monkeypatch.setenv(TRACE_MEMO_ENV, "0")
        monkeypatch.setattr(Workload, "generate", _refuse_generation)
        with use_trace_cache(cache):
            _assert_same_trace(get_trace("knn", SCALE, 7), trace)
        assert cache.hits == 1

    def test_generated_traces_are_written_back(self, tmp_path, monkeypatch):
        cache = TraceCache(tmp_path)
        monkeypatch.setenv(TRACE_MEMO_ENV, "0")
        monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
        with use_trace_cache(cache) as active:
            assert active is cache and active_trace_cache() is cache
            get_trace("knn", SCALE, 8)
        assert active_trace_cache() is None
        assert cache.misses == 1 and cache.writes == 1
        assert cache.path("knn", SCALE, 8).exists()


class TestStoreIntegration:
    def test_run_experiments_shares_the_stores_trace_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_MEMO_ENV, "0")
        specs = [_spec(seed=11), _spec(seed=11, sampled=False)]
        store = ResultStore(tmp_path)
        first = run_experiments(specs, backend=SerialBackend(), store=store)
        # One generation serves both specs through the cache.
        assert (store.traces.writes, store.traces.hits) == (1, 1)
        assert store.stats()["traces"]["entries"] == 1

        # A later run on the same directory whose results are gone runs the
        # specs again, on the cached trace.
        for path in list(store.layout.iter_entries(store.directory)):
            path.unlink()
        monkeypatch.setattr(Workload, "generate", _refuse_generation)
        again = run_experiments(specs, backend=SerialBackend(), store=ResultStore(tmp_path))
        assert _payloads(again) == _payloads(first)

    def test_clear_removes_cached_traces(self, tmp_path):
        store = ResultStore(tmp_path)
        run_experiments([_spec(seed=12)], store=store)
        assert store.traces.stats()["entries"] == 1
        store.clear()
        assert store.traces.stats()["entries"] == 0

    def test_scope_exports_and_restores_the_directory(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
        assert TRACE_CACHE_ENV not in worker_environment()
        outer = TraceCache(tmp_path / "outer")
        with use_trace_cache(outer):
            assert worker_environment()[TRACE_CACHE_ENV] == str(outer.directory)
            with use_trace_cache(None):
                assert TRACE_CACHE_ENV not in os.environ
                assert active_trace_cache() is None
            assert os.environ[TRACE_CACHE_ENV] == str(outer.directory)
            assert active_trace_cache() is outer
        assert TRACE_CACHE_ENV not in os.environ

    def test_a_process_that_inherits_the_directory_uses_it(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
        monkeypatch.setenv(TRACE_MEMO_ENV, "0")
        cache = active_trace_cache()
        assert cache.directory == tmp_path and active_trace_cache() is cache
        get_trace("knn", SCALE, 9)
        assert cache.writes == 1 and cache.path("knn", SCALE, 9).exists()

    def test_budget_bounds_results_and_traces_together(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_MEMO_ENV, "0")
        probe = ResultStore(tmp_path / "probe")
        run_experiments([_spec(seed=20), _spec(seed=20, sampled=False)], store=probe)
        per_seed = probe.total_bytes() + probe.traces.total_bytes()

        store = ResultStore(tmp_path / "store", max_bytes=int(2.5 * per_seed))
        for seed in range(20, 26):
            run_experiments([_spec(seed=seed), _spec(seed=seed, sampled=False)],
                            store=store)
            assert store.total_bytes() + store.traces.total_bytes() <= store.max_bytes
        assert store.evictions > 0
        # The newest seed's results and trace survive; the oldest are gone.
        assert store.get(_spec(seed=25)) is not None
        assert store.traces.path("swaptions", SCALE, 25).exists()
        assert store.get(_spec(seed=20)) is None
        assert not store.traces.path("swaptions", SCALE, 20).exists()

    @pytest.mark.parametrize("hosts", [1, "local0:1,local1:1"],
                             ids=["async", "hosts"])
    def test_worker_processes_write_the_stores_cache(self, tmp_path, hosts):
        specs = [_spec(seed=13), _spec(seed=13, sampled=False)]
        store = ResultStore(tmp_path / "store")
        runner = AsyncWorkerBackend(hosts)
        results = run_experiments(specs, backend=runner, store=store)
        # The trace was generated in the worker process, not here.
        assert store.traces.hits == store.traces.misses == 0
        assert store.traces.stats()["entries"] == 1
        assert _payloads(results) == _payloads(run_experiments(specs))


def test_successive_cli_calls_load_the_first_calls_traces(tmp_path):
    """``repro grid`` on one store: the second engine loads every trace."""
    cache_dir = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(TRACE_CACHE_ENV, None)
    for policy in ("periodic", "lazy"):
        argv = [sys.executable, "-m", "repro", "grid", "--benchmarks",
                "swaptions,cholesky", "--threads", "2", "--scale", str(SCALE),
                "--policy", policy, "--cache-dir", str(cache_dir)]
        completed = subprocess.run(argv, env=env, capture_output=True, text=True,
                                   timeout=300)
        assert completed.returncode == 0, completed.stderr
        entries = sorted((cache_dir / "traces").glob("*.npz"))
        assert len(entries) == 2
        if policy == "periodic":
            for path in entries:  # age them: a load refreshes the mtime
                os.utime(path, (1_000, 1_000))
    assert all(path.stat().st_mtime > 1_000 for path in entries)
