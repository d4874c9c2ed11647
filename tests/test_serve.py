"""Lifecycle, fairness and dedup tests for the simulation service.

Covers the `repro.serve` daemon end to end over real sockets — submit /
status / watch / cancel / stats against an in-process `SimulationService`
owning a live `AsyncWorkerBackend` pool — plus the `FairShareQueue`
scheduling discipline in isolation:

* weighted fair sharing, per-tenant in-flight caps and starvation-free
  priority aging (deterministic pop orders, no daemon involved),
* requeue safety: death-requeued units keep their place, cancelled
  in-flight units are dropped and never re-run,
* submit -> poll -> watch job lifecycle, re-attach to identical
  submissions, cross-job spec dedup (one execution, both jobs served),
* two tenants submitting concurrently produce a store byte-identical to
  the same grid run serially,
* a flooding tenant cannot starve a light tenant (acceptance criterion),
* warm-cache resubmission reports all-cached with zero executions and the
  hit counters to prove it (the stats-frame regression test),
* a host whose workers cannot start backs off instead of retiring its
  slots, and serves the queued job once it heals.
"""

import asyncio
import contextlib
import sys
import threading
import time

import pytest

from repro.core.config import lazy_config
from repro.exp import (
    AsyncWorkerBackend,
    ExperimentSpec,
    HostSpec,
    ResultStore,
    SerialBackend,
    run_experiments,
)
from repro.serve import (
    FairShareQueue,
    ServiceClient,
    ServiceError,
    ServiceJob,
    SimulationService,
    job_id_for,
    store_digest,
)

from exp_helpers import store_result_bytes

SCALE = 0.004


def small_spec(benchmark="swaptions", threads=2, seed=1, **kwargs):
    return ExperimentSpec(
        benchmark=benchmark, num_threads=threads, scale=SCALE,
        trace_seed=seed, config=lazy_config(), **kwargs,
    )


def small_grid(seed=1):
    specs = []
    for benchmark in ("swaptions", "vector-operation"):
        for threads in (1, 2):
            spec = small_spec(benchmark=benchmark, threads=threads, seed=seed)
            specs.extend([spec, spec.baseline()])
    return specs


# ======================================================================
# FairShareQueue in isolation
# ======================================================================
def unit(index, tenant, priority=0, seed=None):
    spec = small_spec(seed=seed if seed is not None else index)
    return ServiceJob(index, spec, spec.content_key(), tenant, priority)


class TestFairShareQueue:
    def drain_order(self, queue, count):
        """Pop ``count`` units, completing each immediately; tenant names."""
        order = []
        for _ in range(count):
            job = queue.get_nowait()
            order.append(job.tenant)
            queue.task_done(job)
        return order

    def test_weighted_interleave(self):
        queue = FairShareQueue()
        queue.configure_tenant("heavy", weight=2.0)
        for index in range(12):
            queue.submit(unit(index, "heavy" if index % 2 else "light"))
        order = self.drain_order(queue, 9)
        # Under backlog a weight-2 tenant receives twice the pops.
        assert order.count("heavy") == 6
        assert order.count("light") == 3

    def test_single_tenant_fifo_and_priority(self):
        queue = FairShareQueue()
        queue.submit(unit(0, "t", priority=0))
        queue.submit(unit(1, "t", priority=0))
        queue.submit(unit(2, "t", priority=5))
        popped = [queue.get_nowait().index for _ in range(3)]
        # Priority wins now; equal priorities keep submission order.
        assert popped == [2, 0, 1]

    def test_priority_aging_prevents_starvation(self):
        queue = FairShareQueue(aging_ticks=2)
        queue.submit(unit(0, "t", priority=0))  # age_key 0 at pops=0
        popped = []
        for index in range(1, 6):
            queue.submit(unit(index, "t", priority=1))
            job = queue.get_nowait()
            popped.append(job.index)
            queue.task_done(job)
            if job.index == 0:
                break
        # The low-priority unit ages to the front within aging_ticks pops of
        # higher-priority arrivals; it is never starved.
        assert 0 in popped
        assert len(popped) <= 3

    def test_in_flight_cap_gates_pops(self):
        queue = FairShareQueue()
        queue.configure_tenant("capped", cap=1)
        for index in range(3):
            queue.submit(unit(index, "capped"))
        first = queue.get_nowait()
        with pytest.raises(asyncio.QueueEmpty):
            queue.get_nowait()  # at cap: queued units are ineligible
        queue.task_done(first)
        second = queue.get_nowait()
        assert second.index != first.index

    def test_requeue_keeps_age_key(self):
        queue = FairShareQueue()
        queue.submit(unit(0, "t"))
        job = queue.get_nowait()
        original_age = job.age_key
        queue.put_nowait(job)  # death requeue
        again = queue.get_nowait()
        assert again is job
        assert again.age_key == original_age
        assert queue.stats()["tenants"]["t"]["in_flight"] == 1

    def test_cancelled_in_flight_dropped_on_requeue(self):
        dropped = []
        queue = FairShareQueue(on_drop=dropped.append)
        queue.submit(unit(0, "t"))
        job = queue.get_nowait()
        assert queue.cancel({job.index}) == []  # in flight, not queued
        queue.put_nowait(job)  # the worker died unacknowledged
        assert dropped == [job]
        assert queue.dropped == 1
        assert queue.empty()  # the cancelled unit never re-entered

    def test_cancel_removes_queued_units(self):
        queue = FairShareQueue()
        for index in range(3):
            queue.submit(unit(index, "t"))
        removed = queue.cancel({1})
        assert [job.index for job in removed] == [1]
        remaining = [queue.get_nowait().index for _ in range(2)]
        assert remaining == [0, 2]

    def test_idle_tenant_gets_no_catchup_burst(self):
        queue = FairShareQueue()
        for index in range(8):
            queue.submit(unit(index, "busy"))
        self.drain_order(queue, 6)
        # "late" was idle the whole time; it re-enters at the current
        # virtual time, so service alternates instead of bursting late.
        queue.submit(unit(100, "late"))
        queue.submit(unit(101, "late"))
        order = self.drain_order(queue, 4)
        assert order.count("late") == 2
        assert order.count("busy") == 2
        assert order != ["late", "late", "busy", "busy"]

    def test_stats_snapshot(self):
        queue = FairShareQueue(default_cap=4)
        queue.submit(unit(0, "t"))
        job = queue.get_nowait()
        stats = queue.stats()
        assert stats["in_flight"] == 1
        assert stats["pops"] == 1
        assert stats["tenants"]["t"]["cap"] == 4
        queue.task_done(job)
        assert queue.stats()["tenants"]["t"]["completed"] == 1


# ======================================================================
# In-process daemon harness (real sockets, live worker pool)
# ======================================================================
class Harness:
    """Run a `SimulationService` on a background event-loop thread."""

    def __init__(self, cache_dir, *, workers=2, backend=None, tenants=None,
                 **service_kwargs):
        self.cache_dir = cache_dir
        self.workers = workers
        self.backend = backend
        self.tenants = tenants or {}
        self.service_kwargs = service_kwargs
        self.service = None
        self.error = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by __exit__ / client calls
            self.error = exc
            self._ready.set()

    async def _main(self):
        backend = self.backend or AsyncWorkerBackend(
            hosts=self.workers, heartbeat_interval=0.5
        )
        store = None
        if self.cache_dir is not None:
            store = ResultStore(self.cache_dir)
        service = SimulationService(backend, store=store, **self.service_kwargs)
        for name, settings in self.tenants.items():
            service.configure_tenant(name, **settings)
        await service.start("127.0.0.1", 0)
        self.service = service
        self._ready.set()
        await service.serve_until_stopped()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=60), "daemon failed to start"
        if self.error is not None:
            raise self.error
        return self

    def __exit__(self, *exc_info):
        if self.service is not None:
            with contextlib.suppress(Exception):
                self.client().stop()
        self._thread.join(timeout=60)
        assert not self._thread.is_alive(), "daemon failed to stop"

    def client(self, timeout=120.0):
        return ServiceClient(
            self.service.host, self.service.port, timeout=timeout
        )


def wait_status(client, job_id, wanted, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        snapshot = client.status(job_id)
        if snapshot["status"] in wanted:
            return snapshot
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never reached {wanted}")


class TestServiceLifecycle:
    def test_submit_poll_watch(self, tmp_path):
        specs = [small_spec(threads=1), small_spec(threads=2)]
        with Harness(tmp_path / "cache") as harness:
            client = harness.client()
            submitted = client.submit(specs, tenant="alice")
            assert submitted["type"] == "submitted"
            assert submitted["total"] == 2
            assert submitted["cached"] == 0
            assert not submitted["attached"]
            job_id = submitted["job"]
            assert job_id == job_id_for(
                "alice", [spec.content_key() for spec in specs]
            )

            updates = []
            done = client.watch(job_id, on_update=updates.append)
            assert done["type"] == "job_done"
            assert done["status"] == "done"
            assert len(done["results"]) == 2
            assert done["failures"] == []
            assert updates[0]["type"] == "job_status"  # initial snapshot

            # Polling a finished job and the service-wide listing agree.
            snapshot = wait_status(client, job_id, {"done"})
            assert snapshot["counts"]["done"] == 2
            listing = client.status()
            assert [job["job"] for job in listing["jobs"]] == [job_id]

            # The reported digest is exactly the store's bytes.
            assert done["digest"] == store_digest(
                tmp_path / "cache",
                keys=[spec.content_key() for spec in specs],
            )

    def test_error_frames(self, tmp_path):
        with Harness(tmp_path / "cache") as harness:
            client = harness.client()
            with pytest.raises(ServiceError, match="unknown job"):
                client.status("no-such-job")
            with pytest.raises(ServiceError, match="unknown job"):
                client.cancel("no-such-job")
            with pytest.raises(ServiceError, match="unknown frame type"):
                client._roundtrip({"type": "frobnicate"})
            with pytest.raises(ServiceError, match="bad submit frame"):
                client._roundtrip({"type": "submit", "tenant": "t", "specs": []})

    def test_identical_submission_attaches(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EXP_WORKER_DELAY", "0.2")
        specs = [small_spec(seed=7), small_spec(seed=8)]
        with Harness(tmp_path / "cache") as harness:
            client = harness.client()
            first = client.submit(specs, tenant="alice")
            second = client.submit(list(reversed(specs)), tenant="alice")
            assert second["job"] == first["job"]  # same (tenant, spec-set)
            assert second["attached"]
            other_tenant = client.submit(specs, tenant="bob")
            assert other_tenant["job"] != first["job"]
            client.wait(first["job"])
            client.wait(other_tenant["job"])

    def test_cross_job_dedup_single_execution(self, tmp_path, monkeypatch):
        exec_log = tmp_path / "exec.log"
        monkeypatch.setenv("REPRO_EXP_WORKER_EXECLOG", str(exec_log))
        monkeypatch.setenv("REPRO_EXP_WORKER_DELAY", "0.2")
        spec = small_spec(seed=11)
        with Harness(tmp_path / "cache", workers=2) as harness:
            client = harness.client()
            job_a = client.submit([spec], tenant="alice")["job"]
            job_b = client.submit([spec], tenant="bob")["job"]
            assert job_a != job_b
            done_a = client.wait(job_a)
            done_b = client.wait(job_b)
            assert done_a["status"] == done_b["status"] == "done"
            assert done_a["digest"] == done_b["digest"]
        # The shared spec ran exactly once; the second job subscribed to the
        # in-flight key instead of enqueueing a duplicate unit.
        executed = exec_log.read_text().split()
        assert executed.count(spec.content_key()) == 1


class TestServiceEquivalence:
    def test_concurrent_tenants_match_serial_store(self, tmp_path):
        grid = small_grid()
        half = len(grid) // 2
        batches = {"alice": grid[:half], "bob": grid[half:]}

        serial_dir = tmp_path / "serial"
        run_experiments(
            grid, backend=SerialBackend(), store=ResultStore(serial_dir)
        )

        served_dir = tmp_path / "served"
        with Harness(served_dir, workers=2) as harness:
            errors = []

            def run_tenant(tenant, specs):
                try:
                    client = harness.client()
                    job = client.submit(specs, tenant=tenant)["job"]
                    done = client.wait(job)
                    assert done["status"] == "done", done
                except BaseException as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=run_tenant, args=(tenant, specs))
                for tenant, specs in batches.items()
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors

            stats = harness.client().stats()
            tenants = stats["queue"]["tenants"]
            assert set(tenants) >= {"alice", "bob"}
            assert stats["jobs"]["done"] == 2

        # Byte-for-byte: the served store equals the serial store.
        assert store_result_bytes(served_dir) == store_result_bytes(serial_dir)
        assert store_digest(served_dir) == store_digest(serial_dir)

    def test_warm_resubmit_reports_hits_not_executions(
        self, tmp_path, monkeypatch
    ):
        """Satellite: warm-cache reruns are 0 executions and N store hits."""
        exec_log = tmp_path / "exec.log"
        monkeypatch.setenv("REPRO_EXP_WORKER_EXECLOG", str(exec_log))
        specs = [small_spec(threads=1, seed=21), small_spec(threads=2, seed=21)]
        with Harness(tmp_path / "cache") as harness:
            client = harness.client()
            cold = client.submit(specs, tenant="alice")
            client.wait(cold["job"])
            executed_cold = exec_log.read_text().split()
            assert sorted(executed_cold) == sorted(
                spec.content_key() for spec in specs
            )
            before = client.stats()["store"]

            # Different tenant => different job id => genuinely resubmitted.
            warm = client.submit(specs, tenant="bob")
            assert warm["cached"] == len(specs)
            done = client.wait(warm["job"])
            assert done["status"] == "done"
            assert all(entry["cached"] for entry in done["results"])
            assert done["digest"] == store_digest(
                tmp_path / "cache",
                keys=[spec.content_key() for spec in specs],
            )

            after = client.stats()["store"]
            assert after["hits"] == before["hits"] + len(specs)
            assert after["misses"] == before["misses"]
        # No further executions happened for the warm job.
        assert exec_log.read_text().split() == executed_cold


class TestFairnessAndCancel:
    def test_flooder_cannot_starve_light_tenant(self, tmp_path, monkeypatch):
        """Acceptance criterion: fair share under a flooding tenant."""
        monkeypatch.setenv("REPRO_EXP_WORKER_DELAY", "0.15")
        flood = [small_spec(seed=100 + index) for index in range(10)]
        light = [small_spec(seed=500)]
        tenants = {"flooder": {"cap": 1}}
        with Harness(tmp_path / "cache", workers=2, tenants=tenants) as harness:
            client = harness.client()
            flood_job = client.submit(flood, tenant="flooder")["job"]
            light_job = client.submit(light, tenant="light")["job"]
            done = client.wait(light_job)
            assert done["status"] == "done"
            # The light tenant finished while the flooder still has backlog:
            # its cap kept it from occupying the whole pool.
            flood_snapshot = client.status(flood_job)
            assert flood_snapshot["counts"]["pending"] > 0
            client.wait(flood_job)  # drain before teardown

    def test_cancel_mid_batch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EXP_WORKER_DELAY", "0.2")
        specs = [small_spec(seed=300 + index) for index in range(8)]
        with Harness(tmp_path / "cache", workers=2) as harness:
            client = harness.client()
            job_id = client.submit(specs, tenant="alice")["job"]
            # Let some units finish so the cancel is genuinely mid-batch.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                snapshot = client.status(job_id)
                if snapshot["counts"]["done"] >= 1:
                    break
                time.sleep(0.05)
            ack = client.cancel(job_id)
            assert ack["type"] == "cancel_ack"
            assert ack["cancelled"] > 0

            done = client.wait(job_id)
            assert done["status"] == "cancelled"
            counts = client.status(job_id)["counts"]
            assert counts["pending"] == 0
            assert counts["cancelled"] == ack["cancelled"]
            assert counts["done"] + counts["cancelled"] == len(specs)

            # Identical resubmission re-attaches to the cancelled record
            # (deterministic job ids) rather than forking a duplicate.
            again = client.submit(specs, tenant="alice")
            assert again["job"] == job_id
            assert again["attached"]

            # The queue dropped or completed everything it popped; nothing
            # cancelled is left in flight.
            queue_stats = client.stats()["queue"]
            assert queue_stats["queued"] == 0
            # Cancelled-but-done store entries are warm for future jobs.
            done_keys = [
                entry["key"]
                for entry in done["results"]
                if entry["state"] == "done"
            ]
            if done_keys:
                rerun = client.submit(
                    [s for s in specs if s.content_key() in done_keys[:1]],
                    tenant="bob",
                )
                assert rerun["cached"] == 1
                client.wait(rerun["job"])


class TestServiceStats:
    def test_stats_frame_shape(self, tmp_path):
        with Harness(tmp_path / "cache") as harness:
            client = harness.client()
            client.wait(client.submit([small_spec(seed=42)], tenant="t")["job"])
            stats = client.stats()
            assert stats["type"] == "stats_report"
            assert stats["protocol"] >= 4
            assert stats["uptime_seconds"] > 0
            assert stats["jobs"] == {"total": 1, "done": 1}
            assert stats["completions"] == 1
            assert stats["recovered_jobs"] == 0
            assert stats["store"]["layout"] == "directory"
            assert stats["store"]["entries"] == 1
            assert stats["store"]["pinned"] == 0  # all pins released
            assert stats["dispatch"]["live_workers"] >= 1
            assert stats["queue"]["in_flight"] == 0
            # Two local workers are the host list local:2.
            assert stats["hosts"]["local"]["budget"] == 2
            assert stats["hosts"]["local"]["completed"] == 1

    def test_crash_looping_host_backs_off_and_heals(self, tmp_path):
        # A service never retires a slot: a host whose workers cannot start
        # backs off and keeps trying, and serves the queued job once its
        # interpreter works again.
        healed = tmp_path / "healed"
        python = tmp_path / "python"
        python.write_text(
            f'#!/bin/sh\n[ -e "{healed}" ] || exit 1\n'
            f'exec "{sys.executable}" "$@"\n'
        )
        python.chmod(0o755)
        backend = AsyncWorkerBackend(
            [HostSpec("local-broken", workers=2, python=str(python))],
            heartbeat_interval=0.5,
        )
        with Harness(tmp_path / "cache", backend=backend) as harness:
            client = harness.client()
            job_id = client.submit([small_spec(seed=43)], tenant="t")["job"]
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                stats = client.stats()
                if stats["dispatch"]["counters"].get("slot_backoffs", 0) >= 2:
                    break
                time.sleep(0.05)
            assert stats["dispatch"]["counters"].get("slot_backoffs", 0) >= 2
            assert stats["dispatch"]["live_slots"] == 2
            assert stats["hosts"]["local-broken"]["quarantined"] is True
            assert client.status(job_id)["status"] == "active"
            healed.touch()
            assert client.wait(job_id)["status"] == "done"
            stats = client.stats()
            assert stats["dispatch"]["live_slots"] == 2
            # The completed job cleared the host's crash-loop count.
            assert stats["hosts"]["local-broken"]["quarantined"] is False
            assert stats["hosts"]["local-broken"]["completed"] == 1
