"""Fault-injection tests for the simulation service daemon.

Runs ``repro serve`` as a real subprocess and breaks it the way
deployments break:

* SIGKILL mid-job, then restart on the same cache directory: the journal
  re-submits the unfinished job, every result persisted before the kill is
  a warm hit (exactly one execution ever — the write-ahead store ordering
  and the per-spec ack protocol make acknowledged results durable), no
  torn store entries exist, and the recovered store is byte-identical to
  a serial run of the same specs.
* A client that disconnects mid-``watch`` leaves the job running and can
  re-attach later for the full ``job_done`` frame.
* SIGTERM shuts the daemon down gracefully with exit code 0.
* ``--store-max-bytes`` bounds the store's results and the workers' cached
  traces together.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.core.config import lazy_config
from repro.exp import ExperimentSpec, ResultStore, SerialBackend, run_experiments
from repro.exp import protocol
from repro.serve import ServiceClient, store_digest

SCALE = 0.004


def small_spec(benchmark="swaptions", threads=2, seed=1):
    return ExperimentSpec(
        benchmark=benchmark, num_threads=threads, scale=SCALE,
        trace_seed=seed, config=lazy_config(),
    )


def subprocess_env(**overrides):
    env = dict(os.environ)
    package_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    if package_root not in (existing or "").split(os.pathsep):
        env["PYTHONPATH"] = package_root + (
            os.pathsep + existing if existing else ""
        )
    env.update(overrides)
    return env


class Daemon:
    """One ``repro serve`` subprocess; parses its address from stdout."""

    def __init__(self, cache_dir, *, workers=2, env=None, args=()):
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--listen", "127.0.0.1:0",
                "--workers", str(workers),
                "--cache-dir", str(cache_dir),
                *args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env or subprocess_env(),
        )
        line = self.proc.stdout.readline()
        assert "listening on" in line, f"unexpected banner: {line!r}"
        address = line.split("listening on", 1)[1].split()[0]
        host, _, port = address.partition(":")
        self.host, self.port = host, int(port)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.terminate()

    def client(self, timeout=120.0):
        return ServiceClient(self.host, self.port, timeout=timeout)

    def sigkill(self):
        self.proc.kill()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()

    def terminate(self):
        """Stop the daemon if it still runs, close its pipe, return its code."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover - safety net
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        return self.proc.returncode


def torn_files(cache_dir):
    return [
        path
        for path in pathlib.Path(cache_dir).rglob(".tmp-*")
        if path.is_file()
    ]


def wait_for(predicate, timeout=60.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition never became true")


class TestSigkillRecovery:
    def test_restart_recovers_without_rerunning_acked_work(self, tmp_path):
        cache = tmp_path / "cache"
        exec_log = tmp_path / "exec.log"
        specs = [small_spec(seed=1000 + index) for index in range(8)]
        keys = [spec.content_key() for spec in specs]
        env = subprocess_env(
            REPRO_EXP_WORKER_DELAY="0.3",
            REPRO_EXP_WORKER_EXECLOG=str(exec_log),
        )

        daemon = Daemon(cache, env=env)
        try:
            client = daemon.client()
            job_id = client.submit(specs, tenant="alice")["job"]

            # Kill only once the job is genuinely mid-flight: some units
            # acknowledged and persisted, others still pending.
            snapshot = wait_for(lambda: (
                lambda s: s if 0 < s["counts"]["done"] < len(specs) else None
            )(client.status(job_id)))
            assert snapshot["counts"]["pending"] > 0
        finally:
            daemon.sigkill()

        stored_at_kill = {
            key for key in keys
            if ResultStore(cache)._key_path(key).is_file()
        }
        assert stored_at_kill, "kill landed before any result was stored"
        assert len(stored_at_kill) < len(specs), "kill landed after the job"
        assert torn_files(cache) == []

        journal = json.loads(
            (cache / ".serve" / "jobs" / f"{job_id}.json").read_text()
        )
        assert journal["state"] == "active"

        # Restart on the same cache: the journal re-submits the job, warm
        # keys resolve instantly, only unfinished specs re-enter the queue.
        daemon = Daemon(cache, env=env)
        try:
            client = daemon.client()
            stats = client.stats()
            assert stats["recovered_jobs"] == 1
            done = client.wait(job_id)
            assert done["status"] == "done"
            assert len(done["results"]) == len(specs)
            recovered_hits = [
                entry for entry in done["results"] if entry["cached"]
            ]
            assert {e["key"] for e in recovered_hits} == stored_at_kill
        finally:
            assert daemon.terminate() == 0

        # Every result acknowledged before the kill was executed exactly
        # once, ever: durability means no acked work is re-run.  (Specs in
        # flight at the kill may legitimately show a second started-line.)
        executed = exec_log.read_text().split()
        for key in stored_at_kill:
            assert executed.count(key) == 1, key
        assert set(executed) >= set(keys) - stored_at_kill
        assert torn_files(cache) == []

        # The recovered store is byte-identical to a serial run.
        serial_dir = tmp_path / "serial"
        run_experiments(
            specs, backend=SerialBackend(), store=ResultStore(serial_dir)
        )
        assert store_digest(cache, keys=keys) == store_digest(
            serial_dir, keys=keys
        )

    def test_journal_marks_finished_jobs_terminal(self, tmp_path):
        cache = tmp_path / "cache"
        daemon = Daemon(cache)
        try:
            client = daemon.client()
            job_id = client.submit([small_spec(seed=2000)], tenant="t")["job"]
            client.wait(job_id)
        finally:
            assert daemon.terminate() == 0
        journal = json.loads(
            (cache / ".serve" / "jobs" / f"{job_id}.json").read_text()
        )
        assert journal["state"] == "done"
        # The worker cached the job's trace beside the store.
        assert len(list((cache / "traces").glob("*.npz"))) == 1

        # A fresh daemon does not resurrect terminal jobs.
        daemon = Daemon(cache)
        try:
            assert daemon.client().stats()["recovered_jobs"] == 0
        finally:
            assert daemon.terminate() == 0


class TestClientDisconnect:
    def test_disconnect_mid_watch_leaves_job_running(self, tmp_path):
        cache = tmp_path / "cache"
        env = subprocess_env(REPRO_EXP_WORKER_DELAY="0.2")
        daemon = Daemon(cache, env=env)
        try:
            client = daemon.client()
            specs = [small_spec(seed=3000 + index) for index in range(6)]
            job_id = client.submit(specs, tenant="alice")["job"]

            # Open a watch, read the initial snapshot, then vanish rudely.
            import socket

            sock = socket.create_connection(
                (daemon.host, daemon.port), timeout=30
            )
            stream = sock.makefile("rwb")
            protocol.write_frame(stream, {"type": "watch", "job": job_id})
            first = protocol.read_frame(stream)
            assert first["type"] == "job_status"
            sock.close()

            # The job is unaffected: still listed, still progressing, and a
            # re-attached watcher gets the full completion frame.
            snapshot = client.status(job_id)
            assert snapshot["status"] in ("active", "done")
            done = client.wait(job_id)
            assert done["status"] == "done"
            assert len(done["results"]) == len(specs)
            counts = client.status(job_id)["counts"]
            assert counts["done"] == len(specs)  # exactly once each
        finally:
            assert daemon.terminate() == 0


class TestGracefulShutdown:
    def test_sigterm_exits_zero(self, tmp_path):
        with Daemon(tmp_path / "cache") as daemon:
            daemon.proc.send_signal(signal.SIGTERM)
            assert daemon.proc.wait(timeout=30) == 0
            output = daemon.proc.stdout.read()
        assert "repro serve: stopped" in output

    def test_stop_frame_exits_zero(self, tmp_path):
        with Daemon(tmp_path / "cache") as daemon:
            reply = daemon.client().stop()
            assert reply["type"] == "stopping"
            assert daemon.proc.wait(timeout=30) == 0


class TestStoreBudget:
    def test_store_max_bytes_bounds_results_and_traces(self, tmp_path):
        cache = tmp_path / "cache"
        # A swaptions trace at this scale is ~27 KB and a result ~2.5 KB, so
        # eight fresh seeds (~240 KB) overflow the budget several times.
        budget = 100_000
        daemon = Daemon(
            cache, workers=1, args=("--store-max-bytes", str(budget))
        )
        try:
            client = daemon.client()
            for seed in range(4000, 4008):
                spec = small_spec(seed=seed)
                job_id = client.submit([spec, spec.baseline()], tenant="t")["job"]
                assert client.wait(job_id)["status"] == "done"
            store_stats = client.stats()["store"]
        finally:
            assert daemon.terminate() == 0
        assert store_stats["evictions"] > 0
        assert store_stats["traces"]["entries"] >= 1
        store = ResultStore(cache)
        assert store.total_bytes() + store.traces.total_bytes() <= budget
