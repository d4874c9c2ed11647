"""Concurrent multi-process ``ResultStore`` tests (locking + sharding).

Simulates the multi-writer scenario the advisory locking and key-prefix
sharding exist for: several processes hammering the same store directory —
same keys, disjoint key prefixes, racing ``run_experiments`` drivers — must
produce a store that is byte-identical to a serial run of the same specs,
with no lost updates, no duplicate entries and no torn files.
"""

import json
import multiprocessing
import os
import pathlib
import time

from repro.core.config import lazy_config, periodic_config
from repro.exp import (
    ExperimentSpec,
    ResultStore,
    SerialBackend,
    run_experiments,
    run_spec,
)

from exp_helpers import store_result_bytes

SCALE = 0.004


def small_spec(benchmark="swaptions", threads=2, config=lazy_config(), **kwargs):
    return ExperimentSpec(
        benchmark=benchmark, num_threads=threads, scale=SCALE, trace_seed=1,
        config=config, **kwargs,
    )


def shared_grid():
    specs = []
    for benchmark in ("swaptions", "vector-operation"):
        for config in (lazy_config(), periodic_config()):
            spec = small_spec(benchmark=benchmark, config=config)
            specs.extend([spec, spec.baseline()])
    return specs


def no_temp_files(directory):
    return not list(pathlib.Path(directory).rglob(".tmp-*"))


# ----------------------------------------------------------------------
# Module-level worker functions (forked children resolve them by reference).

def _hammer_same_key(directory, barrier, iterations, payload):
    spec, result = payload
    store = ResultStore(directory)
    barrier.wait()
    for _ in range(iterations):
        store.put(spec, result)


def _put_disjoint(directory, barrier, payloads):
    store = ResultStore(directory)
    barrier.wait()
    for spec, result in payloads:
        store.put(spec, result)


def _put_if_absent_racer(directory, barrier, payload, wins):
    spec, result = payload
    store = ResultStore(directory)
    barrier.wait()
    if store.put_if_absent(spec, result):
        wins.put(result.num_instances)


def _run_grid(directory, barrier):
    barrier.wait()
    run_experiments(shared_grid(), backend=SerialBackend(),
                    store=ResultStore(directory))


def _count_executions(directory, counter_file):
    class CountingBackend:
        def __init__(self):
            self.executed = 0
            self._serial = SerialBackend()

        def run_outcomes(self, specs, on_outcome=None):
            self.executed += len(specs)
            return self._serial.run_outcomes(specs, on_outcome)

        def run(self, specs):
            self.executed += len(specs)
            return self._serial.run(specs)

    backend = CountingBackend()
    run_experiments(shared_grid(), backend=backend, store=ResultStore(directory))
    pathlib.Path(counter_file).write_text(str(backend.executed))


def _hold_lock(directory, key, events_file, barrier, hold_seconds):
    store = ResultStore(directory)
    with store.lock(key):
        _append_event(events_file, "A-acquired")
        barrier.wait()  # let B start contending while we hold the lock
        time.sleep(hold_seconds)
        _append_event(events_file, "A-releasing")


def _wait_lock(directory, key, events_file, barrier):
    store = ResultStore(directory)
    barrier.wait()
    time.sleep(0.1)  # ensure A is inside its critical section
    with store.lock(key):
        _append_event(events_file, "B-acquired")


def _append_event(path, label):
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"{label} {time.monotonic():.6f}\n")


def _start(target, *args):
    process = multiprocessing.Process(target=target, args=args)
    process.start()
    return process


def _join_all(processes, timeout=120):
    for process in processes:
        process.join(timeout=timeout)
        assert process.exitcode == 0


# ----------------------------------------------------------------------
class TestConcurrentWriters:
    def test_same_key_hammering_yields_one_clean_entry(self, tmp_path):
        spec = small_spec()
        result = run_spec(spec)
        barrier = multiprocessing.Barrier(4)
        processes = [
            _start(_hammer_same_key, str(tmp_path), barrier, 30, (spec, result))
            for _ in range(4)
        ]
        _join_all(processes)
        store = ResultStore(tmp_path)
        assert len(store) == 1
        assert no_temp_files(tmp_path)
        # The surviving entry is exactly what one serial put produces.
        reference_dir = tmp_path.parent / "reference"
        ResultStore(reference_dir).put(spec, result)
        assert store_result_bytes(tmp_path) == store_result_bytes(reference_dir)

    def test_disjoint_prefixes_no_lost_updates(self, tmp_path):
        # Four processes write disjoint spec sets (scattered across shards);
        # every single entry must survive.
        grids = []
        for threads in (1, 2, 3, 4):
            payloads = []
            for benchmark in ("swaptions", "histogram"):
                spec = small_spec(benchmark=benchmark, threads=threads)
                payloads.append((spec, run_spec(spec)))
            grids.append(payloads)
        barrier = multiprocessing.Barrier(len(grids))
        processes = [
            _start(_put_disjoint, str(tmp_path), barrier, payloads)
            for payloads in grids
        ]
        _join_all(processes)
        store = ResultStore(tmp_path)
        assert len(store) == sum(len(payloads) for payloads in grids)
        for payloads in grids:
            for spec, result in payloads:
                served = store.get(spec)
                assert served is not None
                assert served.total_cycles == result.total_cycles
        assert no_temp_files(tmp_path)

    def test_put_if_absent_has_exactly_one_winner(self, tmp_path):
        spec = small_spec()
        base = run_spec(spec)
        barrier = multiprocessing.Barrier(4)
        wins = multiprocessing.Queue()
        processes = []
        for marker in range(4):
            # Give each racer a distinguishable payload so the file tells us
            # who won; exactly one marker may reach the disk.
            result = run_spec(spec)
            result.num_instances = 10_000 + marker
            processes.append(
                _start(_put_if_absent_racer, str(tmp_path), barrier,
                       (spec, result), wins)
            )
        _join_all(processes)
        winners = []
        while not wins.empty():
            winners.append(wins.get())
        assert len(winners) == 1
        stored = ResultStore(tmp_path).get(spec)
        assert stored.num_instances == winners[0]
        assert base.num_instances not in winners  # sanity: markers applied

    def test_racing_drivers_byte_identical_to_serial(self, tmp_path):
        # Two whole run_experiments drivers race on one store; the result
        # must be indistinguishable from one serial run in a fresh store.
        shared_dir = tmp_path / "shared"
        barrier = multiprocessing.Barrier(2)
        processes = [
            _start(_run_grid, str(shared_dir), barrier) for _ in range(2)
        ]
        _join_all(processes)
        reference_dir = tmp_path / "reference"
        run_experiments(shared_grid(), backend=SerialBackend(),
                        store=ResultStore(reference_dir))
        shared_bytes = store_result_bytes(shared_dir)
        assert shared_bytes  # non-vacuous
        assert shared_bytes == store_result_bytes(reference_dir)
        unique = {spec.content_key() for spec in shared_grid()}
        assert len(ResultStore(shared_dir)) == len(unique)
        assert no_temp_files(shared_dir)

    def test_warm_store_is_shared_across_processes(self, tmp_path):
        # Process A fills the store; process B then re-runs the same grid
        # and must execute zero experiments (cross-process dedup).
        store_dir = tmp_path / "store"
        counter = tmp_path / "executed.txt"
        first = _start(_count_executions, str(store_dir), str(counter))
        _join_all([first])
        assert int(counter.read_text()) == len(
            {spec.content_key() for spec in shared_grid()}
        )
        second = _start(_count_executions, str(store_dir), str(counter))
        _join_all([second])
        assert int(counter.read_text()) == 0


class TestAdvisoryLock:
    def test_lock_is_exclusive_across_processes(self, tmp_path):
        key = small_spec().content_key()
        events_file = tmp_path / "events.log"
        events_file.touch()
        barrier = multiprocessing.Barrier(2)
        holder = _start(_hold_lock, str(tmp_path), key, str(events_file),
                        barrier, 0.5)
        waiter = _start(_wait_lock, str(tmp_path), key, str(events_file),
                        barrier)
        _join_all([holder, waiter])
        events = {}
        for line in events_file.read_text().splitlines():
            label, stamp = line.rsplit(" ", 1)
            events[label] = float(stamp)
        assert set(events) == {"A-acquired", "A-releasing", "B-acquired"}
        # B could not enter the critical section while A held the lock.
        assert events["B-acquired"] >= events["A-releasing"]

    def test_lock_reuses_one_file_per_shard(self, tmp_path):
        store = ResultStore(tmp_path)
        key = small_spec().content_key()
        with store.lock(key):
            pass
        with store.lock(key):
            pass
        lock_files = list((tmp_path / ".locks").iterdir())
        assert [path.name for path in lock_files] == [
            f"{ResultStore.shard(key)}.lock"
        ]
        # Lock files never masquerade as cache entries.
        assert len(store) == 0


class TestPutIfAbsentEdgeCases:
    def test_corrupt_entry_counts_as_absent(self, tmp_path):
        # get() treats a damaged file as a miss, so put_if_absent must be
        # willing to replace it — otherwise the store wedges on recomputing
        # a spec whose entry can never be served.
        store = ResultStore(tmp_path)
        spec = small_spec()
        result = run_spec(spec)
        store.put(spec, result)
        key = spec.content_key()
        entry = tmp_path / ResultStore.shard(key) / f"{key}.json"
        entry.write_text("not json")
        assert store.put_if_absent(spec, result) is True
        assert store.get(spec) is not None


class TestShardedLayout:
    def test_entries_land_in_key_prefix_shards(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = small_spec()
        store.put(spec, run_spec(spec))
        key = spec.content_key()
        entry = tmp_path / key[:2] / f"{key}.json"
        assert entry.is_file()
        payload = json.loads(entry.read_text(encoding="utf-8"))
        assert payload["result"]["spec_key"] == key
        # Normalisation: the persisted entry never carries host wall time.
        assert payload["result"]["wall_seconds"] is None

    def test_failure_records_live_next_to_their_entry(self, tmp_path):
        from repro.exp import ExperimentFailure

        store = ResultStore(tmp_path)
        spec = small_spec()
        failure = ExperimentFailure(
            spec_key=spec.content_key(), error_type="ValueError",
            message="boom",
        )
        store.record_failure(spec, failure)
        assert store.get(spec) is None  # failures are never served
        assert store.get_failure(spec).message == "boom"
        assert len(store) == 0  # diagnostics are not cache entries
        # A successful put supersedes the stale diagnostic.
        store.put(spec, run_spec(spec))
        assert store.get_failure(spec) is None
        assert len(store) == 1
