"""Fault-injection and equivalence tests for the distributed backend.

Covers the `repro.exp.distributed` supervisor and the `repro.exp.worker`
protocol: bit-exact equivalence with the serial backend (results and store
bytes), deterministic worker-kill/requeue convergence, poison specs that are
recorded without stalling the queue, SIGINT shutdown with no orphan
processes or half-written store entries, heartbeat detection of stopped
workers, and the worker's frames on its stdin/stdout.
"""

import contextlib
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import tempfile
import textwrap
import threading
import time

import pytest

import repro
from repro.core.config import lazy_config, periodic_config
from repro.exp import (
    AsyncWorkerBackend,
    ExperimentExecutionError,
    ExperimentFailure,
    ExperimentSpec,
    MemoryResultStore,
    ResultStore,
    SerialBackend,
    run_experiments,
    run_spec,
    write_outcome,
)
from repro.exp import protocol
from repro.exp.worker import FAULT_ENV
from repro.serve import store_digest

from exp_helpers import deterministic_fields, pipe_worker, store_result_bytes

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional test dep
    HAVE_HYPOTHESIS = False

SCALE = 0.004


def small_spec(benchmark="swaptions", threads=2, config=lazy_config(), **kwargs):
    return ExperimentSpec(
        benchmark=benchmark, num_threads=threads, scale=SCALE, trace_seed=1,
        config=config, **kwargs,
    )


def small_grid():
    specs = []
    for benchmark in ("swaptions", "vector-operation"):
        for threads in (1, 2):
            spec = small_spec(benchmark=benchmark, threads=threads)
            specs.extend([spec, spec.baseline()])
    # A config that actually resamples, so resample_reasons is non-empty and
    # must survive the JSON wire format (regression: enum keys crashed it).
    from repro.core.config import TaskPointConfig

    resampling = small_spec(
        benchmark="cholesky",
        config=TaskPointConfig(warmup_instances=1, history_size=2,
                               sampling_period=5),
    )
    specs.extend([resampling, resampling.baseline()])
    return specs


def fast_backend(**kwargs):
    kwargs.setdefault("hosts", 2)
    kwargs.setdefault("heartbeat_interval", 0.5)
    return AsyncWorkerBackend(**kwargs)


def subprocess_env(**overrides):
    """Environment for driver/worker subprocesses that can import repro."""
    env = dict(os.environ)
    package_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    if package_root not in (existing or "").split(os.pathsep):
        env["PYTHONPATH"] = package_root + (
            os.pathsep + existing if existing else ""
        )
    env.update(overrides)
    return env


class TestAsyncEquivalence:
    def test_matches_serial_results(self):
        specs = small_grid()
        serial = run_experiments(specs, backend=SerialBackend())
        distributed = run_experiments(specs, backend=fast_backend())
        assert len(serial) == len(distributed) == len(specs)
        for left, right in zip(serial, distributed):
            assert deterministic_fields(left) == deterministic_fields(right)

    def test_store_byte_identical_to_serial(self, tmp_path):
        # Acceptance criterion: same spec grid => same bytes in the store.
        specs = small_grid()
        run_experiments(specs, backend=SerialBackend(),
                        store=ResultStore(tmp_path / "serial"))
        run_experiments(specs, backend=fast_backend(),
                        store=ResultStore(tmp_path / "async"))
        serial_bytes = store_result_bytes(tmp_path / "serial")
        async_bytes = store_result_bytes(tmp_path / "async")
        assert serial_bytes  # the comparison is not vacuous
        assert serial_bytes == async_bytes

    def test_streaming_store_matches_driver_store(self, tmp_path):
        # The hook sees each distinct spec once, as its answer arrives, and
        # writing each outcome from there gives a serial driver's bytes.
        specs = small_grid()
        streamed = ResultStore(tmp_path / "streamed")
        seen = []

        def on_outcome(spec, outcome):
            seen.append(spec.content_key())
            write_outcome(streamed, spec, outcome)

        fast_backend().run_outcomes(specs + specs[:2], on_outcome=on_outcome)
        assert sorted(seen) == sorted({spec.content_key() for spec in specs})
        run_experiments(specs, backend=SerialBackend(),
                        store=ResultStore(tmp_path / "serial"))
        assert (store_result_bytes(tmp_path / "streamed")
                == store_result_bytes(tmp_path / "serial"))

    def test_duplicate_specs_share_results(self):
        spec = small_spec()
        results = fast_backend().run([spec, spec.baseline(), spec])
        assert deterministic_fields(results[0]) == deterministic_fields(results[2])
        assert results[1].taskpoint is None

    def test_empty_batch(self):
        assert fast_backend().run([]) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            AsyncWorkerBackend(hosts=0)
        with pytest.raises(ValueError):
            AsyncWorkerBackend(max_retries=-1)
        with pytest.raises(ValueError):
            AsyncWorkerBackend(heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            # A timeout at or below the interval would kill every healthy
            # worker on the monitor's first wakeup.
            AsyncWorkerBackend(heartbeat_interval=5.0, heartbeat_timeout=2.0)

    def test_memory_store_streaming(self):
        # A MemoryResultStore fed by the async backend's hook must fill, not
        # wedge.
        store = MemoryResultStore()
        specs = [small_spec(), small_spec().baseline()]
        results = run_experiments(specs, backend=fast_backend(), store=store)
        assert len(store) == 2
        assert deterministic_fields(store.get(specs[0])) == deterministic_fields(
            results[0]
        )

    def test_no_workers_outlive_the_run(self):
        backend = fast_backend()
        backend.run([small_spec()])
        assert backend.active_pids() == []


class TestFaultInjection:
    def test_worker_killed_mid_batch_requeues_and_converges(self, tmp_path):
        # Acceptance criterion: a worker is SIGKILLed mid-batch (the fault
        # hook makes exactly one worker die, once, upon receiving the target
        # spec) and the batch still converges to serial-identical results.
        specs = small_grid()
        target_key = specs[0].content_key()
        flag = tmp_path / "died-once"
        backend = fast_backend(
            worker_env={FAULT_ENV: f"{target_key[:16]}:{flag}"},
        )
        results = backend.run(specs)
        assert flag.exists(), "the fault hook never fired"
        assert backend.stats.get("worker_deaths", 0) >= 1
        assert backend.stats.get("requeues", 0) >= 1
        reference = SerialBackend().run(specs)
        for left, right in zip(reference, results):
            assert deterministic_fields(left) == deterministic_fields(right)

    def test_every_spawned_worker_is_reaped(self, tmp_path, monkeypatch):
        # A worker let go mid-run (here one that died) must be awaited before
        # the event loop closes; otherwise the garbage collector later closes
        # its transport on the closed loop ("Event loop is closed").
        spawned = []
        spawn = AsyncWorkerBackend._spawn_worker

        async def recording_spawn(self, host):
            worker = await spawn(self, host)
            spawned.append(worker)
            return worker

        monkeypatch.setattr(AsyncWorkerBackend, "_spawn_worker", recording_spawn)
        specs = small_grid()
        flag = tmp_path / "died-once"
        backend = fast_backend(
            worker_env={FAULT_ENV: f"{specs[-1].content_key()[:16]}:{flag}"},
        )
        backend.run_outcomes(specs)
        assert flag.exists(), "the fault hook never fired"
        assert backend.stats.get("worker_deaths", 0) == 1
        assert len(spawned) >= 3  # two slots, and one respawn after the death
        for worker in spawned:
            assert worker.proc.returncode is not None, worker.pid
            assert worker.proc._transport.is_closing(), worker.pid

    def test_repeated_death_is_a_bounded_failure(self, tmp_path):
        # With max_retries=0 a single death exhausts the job's budget: the
        # spec is recorded as failed and the rest of the batch completes.
        specs = small_grid()
        target_key = specs[0].content_key()
        flag = tmp_path / "died-once"
        backend = fast_backend(
            max_retries=0,
            worker_env={FAULT_ENV: f"{target_key[:16]}:{flag}"},
        )
        outcomes = backend.run_outcomes(specs)
        assert isinstance(outcomes[0], ExperimentFailure)
        assert outcomes[0].error_type == "WorkerDied"
        assert outcomes[0].attempts == 1
        reference = SerialBackend().run(specs[1:])
        for left, right in zip(reference, outcomes[1:]):
            assert deterministic_fields(left) == deterministic_fields(right)

    def test_poison_spec_recorded_without_stalling_the_queue(self, tmp_path):
        poison = small_spec(benchmark="no-such-benchmark")
        specs = small_grid() + [poison]
        store = ResultStore(tmp_path / "store")
        results = run_experiments(
            specs, backend=fast_backend(), store=store, on_error="record"
        )
        # Every healthy spec completed and was persisted...
        assert results[-1] is None
        assert all(result is not None for result in results[:-1])
        assert len(store) == len({s.content_key() for s in specs}) - 1
        # ... and the poison spec left a diagnostic, not a cache entry.
        failure = store.get_failure(poison)
        assert failure is not None
        assert failure.error_type == "KeyError"
        assert "no-such-benchmark" in failure.message
        assert store.get(poison) is None

    def test_poison_spec_raises_aggregate_error_by_default(self):
        poison = small_spec(benchmark="no-such-benchmark")
        with pytest.raises(ExperimentExecutionError) as excinfo:
            run_experiments([small_spec(), poison], backend=fast_backend())
        assert len(excinfo.value.failures) == 1
        assert excinfo.value.failures[0].error_type == "KeyError"

    def test_stopped_worker_is_detected_by_heartbeat(self):
        # SIGSTOP a worker: the process is alive but silent, so only the
        # heartbeat can notice.  The supervisor must kill it and converge.
        # One worker slot, and the stop lands only after a job finished, so
        # the stopped process has provably completed its handshake (startup
        # grace does not apply) and holds a job mid-batch.
        specs = [
            ExperimentSpec("cholesky", num_threads=threads, scale=0.2,
                           trace_seed=seed)
            for threads in (1, 2) for seed in (1, 2, 3)
        ]
        backend = AsyncWorkerBackend(
            hosts=1, heartbeat_interval=0.2, heartbeat_timeout=0.8,
        )
        results = {}

        def run():
            results["outcome"] = backend.run(specs)

        thread = threading.Thread(target=run)
        thread.start()
        stopped = None
        deadline = time.time() + 20.0
        while stopped is None and time.time() < deadline and thread.is_alive():
            pids = backend.active_pids()
            if backend.stats.get("finished_jobs", 0) >= 1 and pids:
                stopped = pids[0]
                os.kill(stopped, signal.SIGSTOP)
            else:
                time.sleep(0.01)
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "supervisor deadlocked on a stopped worker"
        assert stopped is not None, "no worker ever spawned"
        assert backend.stats.get("heartbeat_kills", 0) >= 1
        reference = SerialBackend().run(specs)
        for left, right in zip(reference, results["outcome"]):
            assert deterministic_fields(left) == deterministic_fields(right)


SIGINT_DRIVER = textwrap.dedent("""
    import sys, threading, time
    from repro.exp import (AsyncWorkerBackend, ExperimentSpec, ResultStore,
                           run_experiments)

    store = ResultStore(sys.argv[1])
    specs = [
        ExperimentSpec("cholesky", num_threads=threads, scale=0.2, trace_seed=seed)
        for threads in (1, 2, 3, 4) for seed in (1, 2, 3, 4, 5)
    ]
    backend = AsyncWorkerBackend(hosts=2, heartbeat_interval=0.5)

    def announce():
        while True:
            pids = backend.active_pids()
            if len(pids) >= 2:
                print("PIDS " + " ".join(map(str, pids)), flush=True)
                return
            time.sleep(0.02)

    threading.Thread(target=announce, daemon=True).start()
    try:
        run_experiments(specs, backend=backend, store=store)
    except KeyboardInterrupt:
        print("LIVE " + " ".join(map(str, backend.active_pids())), flush=True)
        print("INTERRUPTED", flush=True)
        sys.exit(3)
    print("COMPLETED", flush=True)
""")


class TestCliAsyncBackend:
    # Lives here (not tests/test_cli.py) so the subprocess-spawning CLI path
    # runs inside CI's hard-timeout distributed step, not the tier-1 step.
    def test_compare_async_backend(self, capsys):
        from repro.cli import main

        code = main([
            "compare", "swaptions", "--scale", "0.004", "--threads", "2",
            "--policy", "lazy", "--backend", "async", "--jobs", "2",
        ])
        assert code == 0
        assert "execution-time error" in capsys.readouterr().out


class TestSigintShutdown:
    def test_sigint_clean_shutdown_no_orphans_no_torn_entries(self, tmp_path):
        store_dir = tmp_path / "store"
        process = subprocess.Popen(
            [sys.executable, "-c", SIGINT_DRIVER, str(store_dir)],
            stdout=subprocess.PIPE, text=True, env=subprocess_env(),
        )
        try:
            worker_pids = None
            for line in process.stdout:
                if line.startswith("PIDS "):
                    worker_pids = [int(part) for part in line.split()[1:]]
                    break
                if line.startswith("COMPLETED"):
                    break
            assert worker_pids, "driver finished before any worker spawned"
            time.sleep(0.3)  # let experiments be genuinely in flight
            process.send_signal(signal.SIGINT)
            remaining = process.stdout.read()
            returncode = process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
        assert returncode == 3, f"driver output: {remaining!r}"
        assert "INTERRUPTED" in remaining
        # The supervisor reported an empty live-worker set on the way out...
        live_lines = [l.strip() for l in remaining.splitlines()
                      if l.startswith("LIVE")]
        assert live_lines == ["LIVE"]
        # ... and the worker processes are actually gone.
        deadline = time.time() + 5.0
        while time.time() < deadline:
            alive = [pid for pid in worker_pids if _pid_alive(pid)]
            if not alive:
                break
            time.sleep(0.05)
        assert not alive, f"orphan worker processes: {alive}"
        # No half-written store entries: no temp files, every entry parses.
        leftovers = [
            path for path in pathlib.Path(store_dir).rglob(".tmp-*")
        ]
        assert leftovers == []
        for path in pathlib.Path(store_dir).rglob("*.json"):
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert "result" in payload and "spec" in payload


class TestStoreWriteFailure:
    @pytest.mark.parametrize("make_backend", [SerialBackend, fast_backend],
                             ids=["serial", "async"])
    def test_failed_write_is_reported_and_the_run_goes_on(
        self, tmp_path, capsys, make_backend
    ):
        class FullDisk(ResultStore):
            def put_if_absent(self, spec, result):
                raise OSError("no space left on device")

        specs = [small_spec(), small_spec().baseline()]
        results = run_experiments(specs, backend=make_backend(),
                                  store=FullDisk(tmp_path))
        reference = SerialBackend().run(specs)
        assert ([deterministic_fields(result) for result in results]
                == [deterministic_fields(result) for result in reference])
        err = capsys.readouterr().err
        for spec in specs:
            assert f"store write failed for {spec.label()}" in err
        assert "no space left on device" in err
        assert len(ResultStore(tmp_path)) == 0


GRID = ["-m", "repro", "grid", "--benchmarks", "all", "--scale", "0.02",
        "--threads", "4,8", "--policy", "lazy"]


class TestGridInterruptAndResume:
    def test_double_ctrl_c_keeps_results_and_a_rerun_finishes_the_grid(
        self, tmp_path
    ):
        # Two SIGINTs to the whole process group, 50 ms apart: what a second
        # Ctrl-C (or `timeout -s INT`) does to `repro grid --jobs 2` and its
        # workers.
        env = subprocess_env()
        for name in ("REPRO_CACHE_DIR", "REPRO_TRACE_CACHE"):
            env.pop(name, None)
        interrupted = tmp_path / "interrupted"
        # A file, not a pipe: a surviving worker would hold a pipe open.
        with open(tmp_path / "stderr", "wb") as stderr:
            process = subprocess.Popen(
                [sys.executable, *GRID, "--jobs", "2",
                 "--cache-dir", str(interrupted)],
                stdout=subprocess.DEVNULL, stderr=stderr, env=env,
                start_new_session=True,
            )
        try:
            deadline = time.monotonic() + 120.0
            while len(ResultStore(interrupted)) == 0:
                assert process.poll() is None, "the grid ended before storing"
                assert time.monotonic() < deadline, "no result was ever stored"
                time.sleep(0.01)
            for _ in range(2):
                os.killpg(process.pid, signal.SIGINT)
                time.sleep(0.05)
            returncode = process.wait(timeout=15)
            group_empty = _group_is_empty(process.pid, timeout=5.0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(process.pid, signal.SIGKILL)  # whatever is left
            process.wait()
        errors = (tmp_path / "stderr").read_text(errors="replace")
        assert returncode in (130, -signal.SIGINT), errors[-2000:]
        assert group_empty, "a process of the grid outlived it"
        assert "Traceback" not in errors
        kept = len(ResultStore(interrupted))
        assert kept >= 1

        resumed = subprocess.run(
            [sys.executable, *GRID, "--jobs", "2", "--cache-dir", str(interrupted)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        fresh = subprocess.run(
            [sys.executable, *GRID, "--cache-dir", str(tmp_path / "fresh")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert resumed.returncode == fresh.returncode == 0, resumed.stderr
        assert resumed.stdout == fresh.stdout
        assert kept < len(ResultStore(tmp_path / "fresh"))
        assert store_digest(interrupted) == store_digest(tmp_path / "fresh")


def _group_is_empty(pgid, timeout):
    """Whether process group ``pgid`` has no live member within ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - different-user pid reuse
        return True
    return True


class TestWorkerTransport:
    """The worker's frames on its stdin/stdout (what an SSH session carries)."""

    def test_pipe_worker_round_trip(self):
        spec = small_spec()
        with pipe_worker() as worker:
            hello = protocol.read_frame(worker.stdout)
            assert hello["type"] == "hello"
            assert hello["protocol"] == protocol.PROTOCOL_VERSION
            assert hello["pid"] == worker.pid
            protocol.write_frame(worker.stdin, {
                "type": "run_batch",
                "jobs": [{"job": 7, "spec": spec.to_dict()}],
            })
            message = protocol.read_frame(worker.stdout)
            assert message["type"] == "result"
            assert message["job"] == 7
            local = deterministic_fields(run_spec(spec))
            remote = dict(message["result"])
            remote.pop("wall_seconds")
            assert remote == local
            protocol.write_frame(worker.stdin, {"type": "shutdown"})
            assert worker.wait(timeout=30) == 0

    def test_worker_pongs_while_simulating(self):
        # The reader thread answers pings mid-job, so supervisor heartbeats
        # measure liveness, not job length.
        busy_spec = ExperimentSpec("cholesky", num_threads=2, scale=1.0,
                                   trace_seed=1)
        with pipe_worker() as worker:
            assert protocol.read_frame(worker.stdout)["type"] == "hello"
            protocol.write_frame(worker.stdin, {
                "type": "run_batch",
                "jobs": [{"job": 0, "spec": busy_spec.to_dict()}],
            })
            time.sleep(0.2)  # the simulation is now running
            protocol.write_frame(worker.stdin, {"type": "ping", "seq": 42})
            message = protocol.read_frame(worker.stdout)
            assert message["type"] == "pong"
            assert message["seq"] == 42
            # Pongs carry the worker's trace-memo counters; the running
            # job's trace was generated, so exactly one miss.
            memo = message["memo"]
            assert memo["misses"] >= 1
            assert memo["hits"] >= 0
            assert memo["entries"] <= memo["capacity"]
            assert protocol.read_frame(worker.stdout)["type"] == "result"
            protocol.write_frame(worker.stdin, {"type": "shutdown"})
            assert worker.wait(timeout=30) == 0

    def test_worker_error_frame_carries_originating_traceback(self):
        # A poison spec's error frame must ship the full traceback — the
        # supervisor's .error.json diagnostic is all a user gets when a
        # remote worker fails, so "message only" makes failures undebuggable.
        from repro.exp.worker import serve

        poison = ExperimentSpec("no-such-benchmark", num_threads=2,
                                scale=0.004, config=lazy_config())
        to_worker, commands = socket.socketpair()
        from_worker, answers = socket.socketpair()
        with to_worker, commands, from_worker, answers, \
                to_worker.makefile("rb") as worker_in, \
                answers.makefile("wb") as worker_out, \
                commands.makefile("wb") as writer, \
                from_worker.makefile("rb") as reader:
            server = threading.Thread(
                target=serve, args=(worker_in, worker_out), daemon=True
            )
            server.start()
            assert protocol.read_frame(reader)["type"] == "hello"
            protocol.write_frame(writer, {
                "type": "run_batch",
                "jobs": [{"job": 3, "spec": poison.to_dict()}],
            })
            message = protocol.read_frame(reader)
            protocol.write_frame(writer, {"type": "shutdown"})
            server.join(timeout=10)
            assert not server.is_alive()
        assert message["type"] == "error"
        assert message["job"] == 3
        failure = ExperimentFailure.from_dict(message["error"])
        assert failure.error_type == "KeyError"
        assert "no-such-benchmark" in failure.message
        assert "get_workload" in failure.traceback
        assert "Traceback (most recent call last)" in failure.traceback


HASHSEED_SNIPPET = textwrap.dedent("""
    import hashlib, pathlib, tempfile
    from repro.core.config import lazy_config, periodic_config
    from repro.exp import (AsyncWorkerBackend, ExperimentSpec, ResultStore,
                           SerialBackend, run_experiments)

    specs = []
    for benchmark in ("histogram", "swaptions"):
        for config in (lazy_config(), periodic_config()):
            spec = ExperimentSpec(benchmark, num_threads=2, scale=0.004,
                                  config=config)
            specs += [spec, spec.baseline()]

    def digest(directory):
        root = pathlib.Path(directory)
        accumulator = hashlib.sha256()
        for path in sorted(root.rglob("*.json")):
            if path.name.startswith(".") or path.name.endswith(".error.json"):
                continue
            accumulator.update(path.relative_to(root).as_posix().encode())
            accumulator.update(path.read_bytes())
        return accumulator.hexdigest()

    digests = []
    backends = (
        SerialBackend(),
        AsyncWorkerBackend(hosts=2, heartbeat_interval=0.5),
    )
    for backend in backends:
        with tempfile.TemporaryDirectory() as directory:
            run_experiments(specs, backend=backend,
                            store=ResultStore(directory))
            digests.append(digest(directory))
    assert len(set(digests)) == 1, digests
    print(digests[0])
""")


class TestCrossBackendDeterminism:
    def test_all_backends_identical_across_hash_seeds(self):
        """Serial and async-worker stores are byte-identical, and that
        shared digest is independent of PYTHONHASHSEED."""
        digests = {}
        for hash_seed in ("1", "4242"):
            output = subprocess.run(
                [sys.executable, "-c", HASHSEED_SNIPPET],
                capture_output=True, text=True, check=True,
                env=subprocess_env(PYTHONHASHSEED=hash_seed),
            )
            digests[hash_seed] = output.stdout.strip()
        assert digests["1"] == digests["4242"]
        assert len(digests["1"]) == 64


if HAVE_HYPOTHESIS:

    GRID_POINTS = st.tuples(
        st.sampled_from(("swaptions", "vector-operation", "histogram")),
        st.integers(min_value=1, max_value=2),
        st.sampled_from((0, 1, 2)),  # index into CONFIG_CHOICES
    )
    CONFIG_CHOICES = (None, lazy_config(), periodic_config())

    class TestPropertyEquivalence:
        @settings(
            max_examples=4, deadline=None, derandomize=True,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(grid=st.lists(GRID_POINTS, min_size=1, max_size=3, unique=True))
        def test_random_grids_equivalent_across_backends(self, grid):
            specs = []
            for benchmark, threads, config_index in grid:
                spec = ExperimentSpec(
                    benchmark, num_threads=threads, scale=SCALE,
                    config=CONFIG_CHOICES[config_index],
                )
                specs.append(spec)
                specs.append(spec.baseline())
            backends = (SerialBackend(), fast_backend())
            snapshots = []
            for backend in backends:
                with tempfile.TemporaryDirectory() as directory:
                    run_experiments(specs, backend=backend,
                                    store=ResultStore(directory))
                    snapshots.append(store_result_bytes(directory))
            assert snapshots[0]  # non-vacuous
            assert snapshots[0] == snapshots[1]
