"""Fault injection and equivalence tests for workers on many hosts.

Covers :mod:`repro.exp.hosts` (host parsing and accounting), the per-host
worker commands of :class:`AsyncWorkerBackend`, the compressed frame
protocol and the worker handshake on stdin/stdout: byte-exact store
equivalence with the serial backend over local hosts and over SSH (a
stand-in ``ssh`` client), a worker killed mid-spec with requeue
convergence, truncated and oversized frame handling, the hello/hello_ack
handshake (compressed or raw frames, a worker speaking another protocol
version or never saying hello failing its launch), quarantine of a
crash-looping host, and a randomized-kill soak (``-m soak``, excluded from
tier-1).
"""

import asyncio
import io
import os
import pathlib
import random
import signal
import socket
import struct
import sys
import tempfile
import textwrap
import threading
import zlib

import pytest

from repro.core.config import lazy_config, periodic_config
from repro.exp import (
    AsyncWorkerBackend,
    ExperimentSpec,
    HostSpec,
    ResultStore,
    SerialBackend,
    make_named_backend,
    parse_hosts,
    parse_listen,
    run_experiments,
    run_spec,
)
from repro.exp import protocol
from repro.exp.distributed import SpawnError
from repro.exp.worker import EXEC_LOG_ENV, FAULT_ENV

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
    return specs


def local_backend(hosts="local0:1,local1:1", **kwargs):
    kwargs.setdefault("heartbeat_interval", 0.5)
    return AsyncWorkerBackend(hosts, **kwargs)


def fake_python(path, code):
    """An executable standing in for a host's Python: it runs ``code``."""
    path.write_text(f"#!{sys.executable}\n{code}")
    path.chmod(0o755)
    return str(path)


def read_raw_frame(stream):
    """(compressed_bit, message) of one frame, bypassing transparent decode."""
    header = stream.read(4)
    assert len(header) == 4
    (word,) = struct.unpack(">I", header)
    compressed = bool(word & 0x80000000)
    length = word & 0x7FFFFFFF
    payload = b""
    while len(payload) < length:
        chunk = stream.read(length - len(payload))
        assert chunk, "stream closed mid-frame"
        payload += chunk
    return compressed, protocol.decode_payload(payload, compressed=compressed)


class TestProtocolCompression:
    def test_large_frame_round_trips_compressed(self):
        message = {"type": "run_batch", "blob": "taskpoint " * 400}
        frame = protocol.encode_frame(message, compress=True)
        raw = protocol.encode_frame(message)
        assert len(frame) < len(raw)
        (word,) = struct.unpack(">I", frame[:4])
        assert word & 0x80000000
        assert protocol.read_frame(io.BytesIO(frame)) == message

    def test_small_frames_stay_raw(self):
        message = {"type": "ping", "seq": 7}
        assert protocol.encode_frame(message, compress=True) == \
            protocol.encode_frame(message)

    def test_unprofitable_compression_stays_raw(self, monkeypatch):
        # When zlib cannot shrink the payload the encoder must fall back to
        # the raw form rather than ship an inflated frame.
        monkeypatch.setattr(
            protocol.zlib, "compress", lambda data, level=6: data + b"\0" * 16
        )
        message = {"b": "taskpoint " * 200}
        frame = protocol.encode_frame(message, compress=True)
        (word,) = struct.unpack(">I", frame[:4])
        assert not word & 0x80000000
        assert protocol.read_frame(io.BytesIO(frame)) == message

    def test_truncated_frame_raises(self):
        frame = protocol.encode_frame({"type": "hello"})
        with pytest.raises(protocol.ProtocolError):
            protocol.read_frame(io.BytesIO(frame[:-3]))
        with pytest.raises(protocol.ProtocolError):
            protocol.read_frame(io.BytesIO(frame[:2]))

    def test_oversized_header_raises(self):
        header = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(protocol.ProtocolError):
            protocol.read_frame(io.BytesIO(header))
        # The compressed bit does not smuggle an oversized length through.
        header = struct.pack(
            ">I", (protocol.MAX_FRAME_BYTES + 1) | 0x80000000
        )
        with pytest.raises(protocol.ProtocolError):
            protocol.read_frame(io.BytesIO(header))

    def test_corrupt_compressed_payload_raises(self):
        payload = b"this is not zlib data"
        frame = struct.pack(">I", len(payload) | 0x80000000) + payload
        with pytest.raises(protocol.ProtocolError):
            protocol.read_frame(io.BytesIO(frame))

    def test_decompression_bomb_rejected(self):
        # A tiny compressed payload announcing itself honestly but inflating
        # past MAX_FRAME_BYTES must be refused, not materialised.
        bomb = zlib.compress(b"x" * (protocol.MAX_FRAME_BYTES + 1), 9)
        assert len(bomb) < protocol.MAX_FRAME_BYTES
        frame = struct.pack(">I", len(bomb) | 0x80000000) + bomb
        with pytest.raises(protocol.ProtocolError):
            protocol.read_frame(io.BytesIO(frame))


class TestHostParsing:
    def test_parse_hosts(self):
        specs = parse_hosts("alpha:4, beta:8,local0")
        assert [(s.name, s.workers) for s in specs] == [
            ("alpha", 4), ("beta", 8), ("local0", 1)
        ]
        assert not specs[0].is_local and specs[2].is_local
        # An int N is the host "local" with a budget of N.
        assert parse_hosts(3) == [HostSpec("local", workers=3)]

    def test_parse_hosts_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_hosts("")
        with pytest.raises(ValueError):
            parse_hosts("host:zero")
        with pytest.raises(ValueError):
            parse_hosts("host:0")
        with pytest.raises(ValueError):
            parse_hosts(0)
        with pytest.raises(ValueError):
            parse_hosts(":4")
        # One host named twice would split its budget and health
        # accounting over two records reported under one name.
        with pytest.raises(ValueError, match="'local0'"):
            parse_hosts("local0:1,local0:2")

    def test_parse_listen(self):
        assert parse_listen(None) == ("127.0.0.1", 0)
        assert parse_listen("9000") == ("127.0.0.1", 9000)
        assert parse_listen("0.0.0.0:9000") == ("0.0.0.0", 9000)

    def test_make_named_backend_multihost(self):
        backend = make_named_backend("async", hosts="local0:1,local1:2")
        assert [spec.name for spec in backend.host_specs] == ["local0", "local1"]
        assert backend.num_workers == 3
        # --hosts implies async under the default backend name.
        backend = make_named_backend("auto", hosts="local0:1")
        assert isinstance(backend, AsyncWorkerBackend)
        # Without a host list the async workers run on the host "local".
        backend = make_named_backend("async", workers=4)
        assert backend.host_specs == [HostSpec("local", workers=4)]
        with pytest.raises(ValueError):
            make_named_backend("multihost")
        # A host list with a backend that runs no hosts is a conflict, not
        # something to ignore silently (REPRO_BENCH_BACKEND=serial +
        # REPRO_BENCH_HOSTS=... must not quietly run in-process).
        with pytest.raises(ValueError):
            make_named_backend("serial", hosts="local0:1")


class TestWorkerNegotiation:
    """Worker-side hello/hello_ack handshake on the worker's pipes."""

    def handshake(self, ack_compress):
        spec = small_spec()
        with pipe_worker() as worker:
            compressed, hello = read_raw_frame(worker.stdout)
            assert not compressed  # the hello precedes the hello_ack
            assert hello["type"] == "hello"
            assert hello["protocol"] == protocol.PROTOCOL_VERSION
            if ack_compress is not None:
                protocol.write_frame(
                    worker.stdin, {"type": "hello_ack", "compress": ack_compress}
                )
            protocol.write_frame(
                worker.stdin,
                {"type": "run_batch", "jobs": [{"job": 3, "spec": spec.to_dict()}]},
                compress=bool(ack_compress),
            )
            compressed, message = read_raw_frame(worker.stdout)
            assert message["type"] == "result"
            assert message["job"] == 3
            local = deterministic_fields(run_spec(spec))
            remote = dict(message["result"])
            remote.pop("wall_seconds")
            assert remote == local
            protocol.write_frame(worker.stdin, {"type": "shutdown"})
            assert worker.wait(timeout=30) == 0
        return compressed

    def test_ack_enables_compressed_results(self):
        assert self.handshake(ack_compress=True) is True

    def test_ack_can_decline_compression(self):
        assert self.handshake(ack_compress=False) is False

    def test_no_ack_means_uncompressed(self):
        # A supervisor that does not compress sends no ack: raw frames.
        assert self.handshake(ack_compress=None) is False


#: A worker of an older release: its hello names protocol 4, and it then
#: waits for the supervisor to hang up.
OLD_WORKER = textwrap.dedent("""
    import sys
    from repro.exp import protocol
    protocol.write_frame(sys.stdout.buffer,
                         {"type": "hello", "pid": 1, "protocol": 4})
    sys.stdin.buffer.read(1)
""")


class TestProtocolVersionCheck:
    def test_other_protocol_fails_the_launch_at_once(self, tmp_path):
        # An SSH host runs whatever repro it has installed.  A hello naming
        # another protocol must fail that launch promptly, naming both
        # versions, instead of waiting out the startup grace.
        python = fake_python(tmp_path / "old-python", OLD_WORKER)

        async def main():
            backend = local_backend([HostSpec("local0", python=python)])
            loop = asyncio.get_running_loop()
            started = loop.time()
            with pytest.raises(SpawnError) as failure:
                await backend._spawn_worker(backend._hosts[0])
            assert backend.active_pids() == []  # killed and reaped
            return loop.time() - started, str(failure.value)

        elapsed, message = asyncio.run(main())
        assert elapsed < 20.0
        assert "protocol 4" in message
        assert f"protocol {protocol.PROTOCOL_VERSION}" in message


class TestSpawnHandshake:
    @pytest.mark.parametrize("first_bytes", [
        struct.pack(">I", protocol.MAX_FRAME_BYTES + 1) + b"garbage",
        protocol.encode_frame({"type": "hello", "pid": 1,
                               "protocol": protocol.PROTOCOL_VERSION})[:-4],
        protocol.encode_frame({"type": "pong", "seq": 1,
                               "protocol": protocol.PROTOCOL_VERSION}),
    ], ids=["oversized-header", "truncated-hello", "not-a-hello"])
    def test_bad_first_frame_fails_the_launch_at_once(
        self, first_bytes, tmp_path
    ):
        # Whatever a process writes first must be a whole hello frame; any
        # other opening fails its launch without waiting out the grace.
        python = fake_python(
            tmp_path / "python",
            f"import sys; sys.stdout.buffer.write({first_bytes!r})",
        )

        async def main():
            backend = AsyncWorkerBackend([HostSpec("local", python=python)])
            loop = asyncio.get_running_loop()
            started = loop.time()
            with pytest.raises(SpawnError):
                await backend._spawn_worker(backend._hosts[0])
            assert backend.active_pids() == []
            return loop.time() - started

        assert asyncio.run(main()) < 20.0

    def test_silent_worker_is_a_spawn_failure_not_a_job_death(
        self, tmp_path, monkeypatch
    ):
        # A host whose "worker" never says hello fails each launch after
        # the startup grace.  That is the slot's spawn-failure path: the
        # jobs requeue without spending their retry budget (max_retries=0
        # would fail them at the first death), and the host is quarantined.
        import repro.exp.distributed as distributed

        monkeypatch.setattr(distributed, "_STARTUP_GRACE", 0.5)
        silent = tmp_path / "silent-python"
        silent.write_text("#!/bin/sh\nexec sleep 60\n")
        silent.chmod(0o755)
        backend = AsyncWorkerBackend(
            [HostSpec("local-silent", workers=1, python=str(silent)),
             HostSpec("local-good", workers=1)],
            heartbeat_interval=0.5,
            max_retries=0,
            spawn_retries=0,
        )
        # Two specs on two slots: the silent host's slot holds one until
        # its launch fails, so exactly that one failure quarantines it.
        specs = [small_spec(), small_spec().baseline()]
        results = backend.run(specs)
        for left, right in zip(SerialBackend().run(specs), results):
            assert deterministic_fields(left) == deterministic_fields(right)
        assert backend.host_stats["local-silent"] == {
            "spawns": 0, "completed": 0, "quarantined": True,
        }
        assert backend.host_stats["local-good"]["completed"] == 2
        assert backend.active_pids() == []


class TestMultiHostEquivalence:
    def test_matches_serial_results(self):
        specs = small_grid()
        serial = run_experiments(specs, backend=SerialBackend())
        multihost = run_experiments(specs, backend=local_backend())
        assert len(serial) == len(multihost) == len(specs)
        for left, right in zip(serial, multihost):
            assert deterministic_fields(left) == deterministic_fields(right)

    def test_store_byte_identical_to_serial(self, tmp_path):
        # Acceptance criterion: the multi-host path writes the same bytes.
        specs = small_grid()
        run_experiments(specs, backend=SerialBackend(),
                        store=ResultStore(tmp_path / "serial"))
        run_experiments(specs, backend=local_backend(),
                        store=ResultStore(tmp_path / "multihost"))
        serial_bytes = store_result_bytes(tmp_path / "serial")
        multihost_bytes = store_result_bytes(tmp_path / "multihost")
        assert serial_bytes  # the comparison is not vacuous
        assert serial_bytes == multihost_bytes

    def test_work_is_spread_across_hosts(self):
        backend = local_backend("local0:1,local1:1")
        backend.run(small_grid())
        completed = {name: stats["completed"]
                     for name, stats in backend.host_stats.items()}
        assert sum(completed.values()) == len({
            spec.content_key() for spec in small_grid()
        })
        assert all(stats["spawns"] >= 1 for stats in backend.host_stats.values())

    def test_no_workers_or_handles_outlive_the_run(self):
        backend = local_backend()
        spawned = []
        spawn = backend._spawn_worker

        async def recording_spawn(*args, **kwargs):
            worker = await spawn(*args, **kwargs)
            spawned.append(worker.pid)
            return worker

        backend._spawn_worker = recording_spawn
        backend.run([small_spec()])
        assert backend.active_pids() == []
        assert spawned  # the check below is not vacuous
        for pid in spawned:  # every worker process was reaped
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_opens_no_listening_socket(self, monkeypatch):
        # Workers talk over their pipes: nothing binds a port for them.
        def refuse(*args, **kwargs):
            raise AssertionError("the worker backend opened a listener")

        monkeypatch.setattr(asyncio, "start_server", refuse)
        monkeypatch.setattr(socket.socket, "listen", refuse)
        specs = small_grid()
        results = local_backend().run(specs)
        for left, right in zip(SerialBackend().run(specs), results):
            assert deterministic_fields(left) == deterministic_fields(right)


#: Stand-in ``ssh`` client: drops the options, then runs the remote command
#: the way sshd does, as one string through a shell.
FAKE_SSH = """#!/bin/sh
while [ "${1#-}" != "$1" ]; do
    if [ "$1" = "-o" ]; then shift; fi
    shift
done
shift
exec sh -c "$*"
"""


class TestSSHHosts:
    """Non-local host names launch their workers through ``ssh``."""

    def test_fake_ssh_run_matches_serial(self, tmp_path, monkeypatch):
        ssh = tmp_path / "bin" / "ssh"
        ssh.parent.mkdir()
        ssh.write_text(FAKE_SSH)
        ssh.chmod(0o755)
        # The remote interpreter path and an env value both need quoting
        # on the remote shell: a space in one, a space and a quote in the
        # other (the execution log, which proves the value arrived intact).
        python = tmp_path / "my env" / "python3"
        python.parent.mkdir()
        python.write_text(f'#!/bin/sh\nexec "{sys.executable}" "$@"\n')
        python.chmod(0o755)
        log = tmp_path / "exec log's file"
        src = str(pathlib.Path(protocol.__file__).resolve().parents[2])
        env = {"PYTHONPATH": src, EXEC_LOG_ENV: str(log)}
        frames_compressed = []
        decode = protocol.decode_payload

        def spy(payload, *, compressed=False):
            frames_compressed.append(compressed)
            return decode(payload, compressed=compressed)

        monkeypatch.setattr(protocol, "decode_payload", spy)
        backend = AsyncWorkerBackend(
            [HostSpec("alpha", workers=1, env=env),
             HostSpec("beta", workers=1, env=env)],
            ssh_command=(str(ssh), "-T", "-o", "BatchMode=yes"),
            remote_python=str(python),
            heartbeat_interval=0.5,
        )
        specs = small_grid()
        unique = {spec.content_key() for spec in specs}
        run_experiments(specs, backend=backend,
                        store=ResultStore(tmp_path / "ssh"))
        run_experiments(specs, backend=SerialBackend(),
                        store=ResultStore(tmp_path / "serial"))
        serial_bytes = store_result_bytes(tmp_path / "serial")
        assert serial_bytes
        assert store_result_bytes(tmp_path / "ssh") == serial_bytes
        assert any(frames_compressed), "no compressed frame crossed SSH"
        assert set(log.read_text(encoding="utf-8").split()) == unique
        assert set(backend.host_stats) == {"alpha", "beta"}
        assert sum(stats["completed"]
                   for stats in backend.host_stats.values()) == len(unique)
        assert all(stats["spawns"] >= 1 and not stats["quarantined"]
                   for stats in backend.host_stats.values())

    def test_remote_command_is_one_quoted_shell_string(self):
        backend = AsyncWorkerBackend(
            [HostSpec("alpha", python="/opt/my env/bin/python3",
                      env={"NOTE": "it's here"})],
            worker_env={"PYTHONHASHSEED": "0"},
        )
        argv, env = backend._worker_command(backend.host_specs[0])
        assert argv == [
            "ssh", "-T", "-o", "BatchMode=yes", "alpha",
            "env 'NOTE=it'\"'\"'s here' PYTHONHASHSEED=0 "
            "'/opt/my env/bin/python3' -m repro.exp.worker",
        ]
        assert env is None  # the ssh client inherits; SSH forwards nothing


class TestCliMultiHost:
    # Lives here (not tests/test_cli.py) so the subprocess-spawning CLI path
    # runs inside CI's hard-timeout multi-host step, not the tier-1 step.
    def test_compare_with_hosts_flag(self, capsys):
        from repro.cli import main

        code = main([
            "compare", "swaptions", "--scale", "0.004", "--threads", "2",
            "--policy", "lazy", "--hosts", "local0:1,local1:1",
        ])
        assert code == 0
        assert "execution-time error" in capsys.readouterr().out

    def test_hosts_flag_conflicts_with_other_backends(self, capsys):
        from repro.cli import main

        code = main([
            "compare", "swaptions", "--scale", "0.004", "--threads", "2",
            "--backend", "serial", "--hosts", "local0:1",
        ])
        assert code == 2
        assert "--hosts requires" in capsys.readouterr().err

    def test_listen_without_hosts_is_rejected(self, capsys):
        # Workers need no listener, so compare has no --listen or
        # --connect-host flag at all, with or without --hosts.
        from repro.cli import main

        for flag in ("--listen", "--connect-host"):
            for hosts in ([], ["--hosts", "local0:1"]):
                with pytest.raises(SystemExit) as exit_info:
                    main([
                        "compare", "swaptions", "--scale", "0.004",
                        "--threads", "2", flag, "9000", *hosts,
                    ])
                assert exit_info.value.code == 2
                assert f"unrecognized arguments: {flag}" in \
                    capsys.readouterr().err


class TestNetworkFaults:
    def test_severed_connection_mid_spec_requeues_and_converges(self, tmp_path):
        # The fault hook SIGKILLs exactly one worker upon receiving the
        # target spec: its pipes to the supervisor are severed with the
        # spec in flight.  The supervisor must requeue the spec onto a
        # fresh worker and still produce a store byte-identical to serial.
        specs = small_grid()
        target_key = specs[0].content_key()
        flag = tmp_path / "died-once"
        backend = local_backend(
            worker_env={FAULT_ENV: f"{target_key[:16]}:{flag}"},
        )
        run_experiments(specs, backend=backend,
                        store=ResultStore(tmp_path / "multihost"))
        assert flag.exists(), "the fault hook never fired"
        assert backend.stats.get("worker_deaths", 0) >= 1
        assert backend.stats.get("requeues", 0) >= 1
        run_experiments(specs, backend=SerialBackend(),
                        store=ResultStore(tmp_path / "serial"))
        assert (store_result_bytes(tmp_path / "multihost")
                == store_result_bytes(tmp_path / "serial"))

    def test_quarantined_host_does_not_stall_the_batch(self, tmp_path):
        # Every worker of the bad host dies on every spec (the die-always
        # fault hook): the host crash-loops, is quarantined, and the healthy
        # host drains the whole queue with results identical to serial.
        flag = tmp_path / "crash-loop"
        bad = HostSpec("local-bad", workers=1,
                       env={FAULT_ENV: f":{flag}:always"})
        good = HostSpec("local-good", workers=1)
        specs = small_grid()
        backend = AsyncWorkerBackend(
            [bad, good],
            heartbeat_interval=0.5,
            max_retries=100,
            spawn_retries=1,
        )
        results = backend.run(specs)
        assert flag.exists(), "the crash-loop hook never fired"
        reference = SerialBackend().run(specs)
        for left, right in zip(reference, results):
            assert deterministic_fields(left) == deterministic_fields(right)
        assert backend.stats.get("hosts_quarantined", 0) == 1
        assert backend.host_stats["local-bad"]["quarantined"] is True
        assert backend.host_stats["local-bad"]["completed"] == 0
        assert backend.host_stats["local-good"]["quarantined"] is False
        assert backend.host_stats["local-good"]["completed"] == len({
            spec.content_key() for spec in specs
        })

    def test_all_hosts_quarantined_fails_remaining_specs(self, tmp_path):
        flag_a = tmp_path / "crash-a"
        flag_b = tmp_path / "crash-b"
        hosts = [
            HostSpec("local-a", workers=1,
                     env={FAULT_ENV: f":{flag_a}:always"}),
            HostSpec("local-b", workers=1,
                     env={FAULT_ENV: f":{flag_b}:always"}),
        ]
        backend = AsyncWorkerBackend(
            hosts,
            heartbeat_interval=0.5,
            max_retries=1000,
            spawn_retries=0,
        )
        outcomes = backend.run_outcomes([small_spec(), small_spec().baseline()])
        assert backend.stats.get("hosts_quarantined", 0) == 2
        from repro.exp import ExperimentFailure

        assert all(isinstance(outcome, ExperimentFailure)
                   for outcome in outcomes)


if HAVE_HYPOTHESIS:

    GRID_POINTS = st.tuples(
        st.sampled_from(("swaptions", "vector-operation", "histogram")),
        st.integers(min_value=1, max_value=2),
        st.sampled_from((0, 1, 2)),  # index into CONFIG_CHOICES
    )
    CONFIG_CHOICES = (None, lazy_config(), periodic_config())

    class TestPropertyEquivalence:
        @settings(
            max_examples=3, deadline=None, derandomize=True,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(grid=st.lists(GRID_POINTS, min_size=1, max_size=2, unique=True))
        def test_random_grids_equivalent_across_all_backends(self, grid):
            specs = []
            for benchmark, threads, config_index in grid:
                spec = ExperimentSpec(
                    benchmark, num_threads=threads, scale=SCALE,
                    config=CONFIG_CHOICES[config_index],
                )
                specs.append(spec)
                specs.append(spec.baseline())
            backends = (
                SerialBackend(),
                AsyncWorkerBackend(hosts=2, heartbeat_interval=0.5),
                local_backend(),
            )
            snapshots = []
            for backend in backends:
                with tempfile.TemporaryDirectory() as directory:
                    run_experiments(specs, backend=backend,
                                    store=ResultStore(directory))
                    snapshots.append(store_result_bytes(directory))
            assert snapshots[0]  # non-vacuous
            assert all(snapshot == snapshots[0] for snapshot in snapshots[1:])


@pytest.mark.soak
class TestSoak:
    """200-spec grid under randomized worker kills (run with ``-m soak``)."""

    @staticmethod
    def _soak_specs():
        benchmarks = ("swaptions", "vector-operation", "histogram",
                      "blackscholes", "reduction")
        specs = []
        for benchmark in benchmarks:
            for threads in (1, 2):
                for seed in range(1, 11):
                    spec = ExperimentSpec(
                        benchmark, num_threads=threads, scale=0.002,
                        trace_seed=seed, config=lazy_config(),
                    )
                    specs.extend([spec, spec.baseline()])
        assert len({spec.content_key() for spec in specs}) == 200
        return specs

    def _run_soak(self, tmp_path, **backend_kwargs):
        rng = random.Random(1234)
        specs = self._soak_specs()
        store_dir = tmp_path / "multihost"
        backend = AsyncWorkerBackend(
            "local0:2,local1:2",
            heartbeat_interval=0.5,
            max_retries=10_000,
            spawn_retries=10_000,
            store=ResultStore(store_dir),
            **backend_kwargs,
        )
        stop = threading.Event()
        kills = []

        def killer():
            while not stop.is_set():
                pids = backend.active_pids()
                if pids:
                    pid = rng.choice(pids)
                    try:
                        os.kill(pid, signal.SIGKILL)
                        kills.append(pid)
                    except (OSError, ProcessLookupError):
                        pass
                stop.wait(rng.uniform(0.2, 0.5))

        thread = threading.Thread(target=killer, daemon=True)
        thread.start()
        try:
            results = run_experiments(specs, backend=backend,
                                      store=ResultStore(store_dir))
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert all(result is not None for result in results)
        assert kills, "the killer thread never fired"
        assert backend.stats.get("worker_deaths", 0) >= 1

        # Zero torn entries: no temp files, every entry parses, and the
        # store is byte-identical to a serial run (*.error.json excluded
        # from byte comparison, per store convention).
        assert list(pathlib.Path(store_dir).rglob(".tmp-*")) == []
        run_experiments(specs, backend=SerialBackend(),
                        store=ResultStore(tmp_path / "serial"))
        multihost_bytes = store_result_bytes(store_dir)
        assert len(multihost_bytes) == 200
        assert multihost_bytes == store_result_bytes(tmp_path / "serial")
        return specs, backend

    def test_randomized_kills_converge_with_clean_store(self, tmp_path):
        self._run_soak(tmp_path)

    def test_randomized_kills_batched_no_duplicate_executions(self, tmp_path):
        # Same soak in batched mode, plus the per-spec execution-count
        # probe: with batches in flight, an acknowledged spec must never be
        # executed again.  Re-executions are legitimate only for specs that
        # were in a dead worker's hands — each of those is a recorded
        # requeue — so any execution beyond unique+requeues is a duplicate.
        from repro.exp.worker import EXEC_LOG_ENV

        log = tmp_path / "execlog"
        specs, backend = self._run_soak(
            tmp_path, batch=8, worker_env={EXEC_LOG_ENV: str(log)},
        )
        assert backend.stats["max_batch"] >= 2
        counts = {}
        for line in log.read_text(encoding="utf-8").splitlines():
            if line:
                counts[line] = counts.get(line, 0) + 1
        unique_keys = {spec.content_key() for spec in specs}
        assert set(counts) == unique_keys  # every spec ran at least once
        extra = sum(count - 1 for count in counts.values())
        assert extra <= backend.stats.get("requeues", 0), (
            f"{extra} re-executions exceed the "
            f"{backend.stats.get('requeues', 0)} recorded requeues: "
            "an acknowledged spec was executed twice"
        )
