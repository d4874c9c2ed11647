"""Batched-dispatch harness: amortisation, partial-batch faults, equivalence.

The headline suite for ``run_batch`` dispatch.  Covers:

* round-trip amortisation under a simulated per-frame link latency (the
  worker-side ``REPRO_EXP_WORKER_DELAY`` hook): batching measurably reduces
  both the dispatch frame count (>= 2x at batch >= 4) and the wall-clock,
* SIGKILL mid-batch with **partial-batch requeue**: only the unacknowledged
  specs of the dead worker's batch re-run (proved by the per-spec
  execution-count probe), and the result store stays byte-identical to a
  serial run,
* store byte-identity for batch sizes {1, 4, 16, adaptive} across the
  serial and async backends, async on one host and on two (parametrised +
  hypothesis grids),
* frame compression behaviour around the 512-byte threshold, and
* the user-facing surfaces: ``make_named_backend(batch=...)``, the CLI
  ``--batch`` flag, ``scripts/dispatch_bench.py`` (which records
  ``BENCH_dispatch.json``) and the ``scripts/multihost_sweep_demo.py``
  argument handling.
"""

import io
import json
import pathlib
import struct
import subprocess
import sys
import tempfile
import textwrap
import time
from collections import Counter

import pytest

from repro.core.config import lazy_config, periodic_config
from repro.exp import (
    AdaptiveBatchSizer,
    AsyncWorkerBackend,
    ExperimentFailure,
    ExperimentSpec,
    ResultStore,
    SerialBackend,
    make_named_backend,
    parse_batch,
    run_experiments,
    run_spec,
)
from repro.exp import protocol
from repro.exp.distributed import DEFAULT_BATCH_CAP
from repro.exp.worker import DELAY_ENV, EXEC_LOG_ENV, FAULT_ENV

from exp_helpers import deterministic_fields, pipe_worker, store_result_bytes

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional test dep
    HAVE_HYPOTHESIS = False

SCALE = 0.004

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

BATCH_MODES = (1, 4, 16, "adaptive")


def small_spec(benchmark="swaptions", threads=2, config=lazy_config(), **kwargs):
    return ExperimentSpec(
        benchmark=benchmark, num_threads=threads, scale=SCALE, trace_seed=1,
        config=config, **kwargs,
    )


def unique_grid(count=8):
    """``count`` unique sub-second specs (the batching regime), in order."""
    benchmarks = ("swaptions", "vector-operation", "histogram", "reduction")
    specs = []
    seed = 0
    while len(specs) < count:
        seed += 1
        for benchmark in benchmarks:
            if len(specs) >= count:
                break
            specs.append(ExperimentSpec(
                benchmark, num_threads=2, scale=SCALE, trace_seed=seed,
                config=lazy_config(),
            ))
    assert len({spec.content_key() for spec in specs}) == count
    return specs


def fast_backend(**kwargs):
    kwargs.setdefault("hosts", 2)
    kwargs.setdefault("heartbeat_interval", 0.5)
    return AsyncWorkerBackend(**kwargs)


def subprocess_env(**overrides):
    """Environment for worker/driver subprocesses that can import repro."""
    from repro.exp.distributed import worker_environment

    return worker_environment(overrides)


def execution_counts(log_path):
    """Per-content-key started-execution counts from the probe file."""
    text = pathlib.Path(log_path).read_text(encoding="utf-8")
    return Counter(line for line in text.splitlines() if line)


class TestParseBatch:
    def test_defaults_and_integers(self):
        assert parse_batch(None) == (1, False)
        assert parse_batch(1) == (1, False)
        assert parse_batch(4) == (4, False)
        assert parse_batch("16") == (16, False)

    def test_adaptive(self):
        assert parse_batch("adaptive") == (DEFAULT_BATCH_CAP, True)
        assert parse_batch("adaptive:8") == (8, True)

    def test_rejects_garbage(self):
        for bad in (0, -2, "0", "adaptive:0", "adaptive:x", "many", "4.5",
                    "adaptively", True):
            with pytest.raises(ValueError):
                parse_batch(bad)

    def test_backend_validates_batch(self):
        with pytest.raises(ValueError):
            AsyncWorkerBackend(hosts=1, batch="bogus")
        with pytest.raises(ValueError):
            AsyncWorkerBackend(hosts=1, batch=0)


class TestAdaptiveBatchSizer:
    def test_starts_at_one(self):
        assert AdaptiveBatchSizer(cap=16).size == 1

    def test_sub_second_specs_grow_to_the_cap(self):
        sizer = AdaptiveBatchSizer(cap=16)
        sizes = []
        for _ in range(8):
            sizer.record(0.05)
            sizes.append(sizer.size)
        assert sizes[-1] == 16
        # Growth is bounded to doubling per observation: 2, 4, 8, 16 ...
        assert sizes[:4] == [2, 4, 8, 16]

    def test_long_specs_keep_fine_grained_retries(self):
        sizer = AdaptiveBatchSizer(cap=16)
        for _ in range(5):
            sizer.record(10.0)
        assert sizer.size == 1

    def test_slowdown_shrinks_immediately(self):
        sizer = AdaptiveBatchSizer(cap=16)
        for _ in range(6):
            sizer.record(0.01)
        assert sizer.size == 16
        sizer.record(60.0)  # one pathological spec: back off at once
        assert sizer.size == 1

    def test_cap_is_respected(self):
        sizer = AdaptiveBatchSizer(cap=3)
        for _ in range(10):
            sizer.record(0.001)
        assert sizer.size == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveBatchSizer(cap=0)
        with pytest.raises(ValueError):
            AdaptiveBatchSizer(target_seconds=0.0)


class TestMakeNamedBackendBatch:
    def test_async_and_multihost_receive_the_knob(self):
        backend = make_named_backend("async", workers=2, batch=4)
        assert (backend.batch_cap, backend.batch_adaptive) == (4, False)
        backend = make_named_backend("async", workers=2, batch="adaptive:8")
        assert (backend.batch_cap, backend.batch_adaptive) == (8, True)
        backend = make_named_backend(
            "auto", hosts="local0:1", batch="adaptive"
        )
        assert isinstance(backend, AsyncWorkerBackend)
        assert (backend.batch_cap, backend.batch_adaptive) == (
            DEFAULT_BATCH_CAP, True
        )
        # --jobs 2 under the default backend name runs async workers.
        backend = make_named_backend("auto", workers=2, batch=8)
        assert isinstance(backend, AsyncWorkerBackend)
        assert (backend.batch_cap, backend.batch_adaptive) == (8, False)

    def test_serial_accepts_and_ignores_batch(self):
        assert isinstance(
            make_named_backend("serial", batch=16), SerialBackend
        )
        assert isinstance(make_named_backend("auto", batch=16), SerialBackend)

    def test_invalid_batch_rejected_for_every_name(self):
        for name in ("serial", "async"):
            with pytest.raises(ValueError):
                make_named_backend(name, workers=2, batch="bogus")
        with pytest.raises(ValueError):
            make_named_backend("async", hosts="local0:1", batch="bogus")


class TestBatchedDispatchProtocol:
    """Protocol-level run_batch behaviour against a real worker process."""

    def test_hello_advertises_batch_and_run_batch_streams_answers(self):
        specs = [small_spec(), small_spec(benchmark="vector-operation")]
        with pipe_worker() as worker:
            hello = protocol.read_frame(worker.stdout)
            assert hello["type"] == "hello"
            # The version is the whole advertisement: every worker of this
            # protocol version takes run_batch frames.
            assert hello["protocol"] == protocol.PROTOCOL_VERSION
            protocol.write_frame(worker.stdin, {
                "type": "run_batch",
                "jobs": [
                    {"job": index, "spec": spec.to_dict()}
                    for index, spec in enumerate(specs)
                ],
            })
            # One result frame per job, in batch order: the per-spec
            # acknowledgements batching's requeue logic relies on.
            for index, spec in enumerate(specs):
                message = protocol.read_frame(worker.stdout)
                assert message["type"] == "result"
                assert message["job"] == index
                local = deterministic_fields(run_spec(spec))
                remote = dict(message["result"])
                remote.pop("wall_seconds")
                assert remote == local
            protocol.write_frame(worker.stdin, {"type": "shutdown"})
            assert worker.wait(timeout=30) == 0


class TestBatchedEquivalence:
    @pytest.mark.parametrize("batch", BATCH_MODES)
    def test_async_store_byte_identical_to_serial(self, tmp_path, batch):
        # Acceptance criterion: same bytes for every batch mode.
        specs = unique_grid(8)
        run_experiments(specs, backend=SerialBackend(),
                        store=ResultStore(tmp_path / "serial"))
        run_experiments(specs, backend=fast_backend(batch=batch),
                        store=ResultStore(tmp_path / "async"))
        serial_bytes = store_result_bytes(tmp_path / "serial")
        assert serial_bytes  # non-vacuous
        assert serial_bytes == store_result_bytes(tmp_path / "async")

    @pytest.mark.parametrize("batch", (4, "adaptive"))
    def test_multihost_store_byte_identical_to_serial(self, tmp_path, batch):
        specs = unique_grid(6)
        run_experiments(specs, backend=SerialBackend(),
                        store=ResultStore(tmp_path / "serial"))
        backend = AsyncWorkerBackend(
            "local0:1,local1:1", heartbeat_interval=0.5, batch=batch,
        )
        run_experiments(specs, backend=backend,
                        store=ResultStore(tmp_path / "multihost"))
        serial_bytes = store_result_bytes(tmp_path / "serial")
        assert serial_bytes
        assert serial_bytes == store_result_bytes(tmp_path / "multihost")
        assert backend.stats["max_batch"] >= 2

    def test_batching_actually_batches(self):
        specs = unique_grid(8)
        backend = fast_backend(hosts=1, batch=4)
        backend.run(specs)
        assert backend.stats["dispatch_frames"] == 2
        assert backend.stats["max_batch"] == 4

    def test_fixed_batch_does_not_starve_sibling_slots(self):
        # A fixed batch larger than the grid must not let the first slot
        # swallow everything while its siblings idle: the drain is capped at
        # the slot's fair share of the remaining work.
        specs = unique_grid(12)
        backend = fast_backend(hosts=3, batch=16)
        backend.run(specs)
        assert backend.stats["max_batch"] <= 4  # ceil(12 / 3)
        assert backend.stats["spawns"] == 3  # every slot actually worked

    def test_fair_share_follows_surviving_slots(self):
        # Retired slots (quarantined hosts, crash-looped spawns) must not
        # shrink the survivors' batches for the rest of the run.
        backend = fast_backend(hosts=4, batch=16)
        backend._live_slots = 4
        assert backend._batch_limit(16) == 4
        backend._live_slots = 2  # two slots retired mid-run
        assert backend._batch_limit(16) == 8
        backend._live_slots = 0  # defensive fallback to the configured total
        assert backend._batch_limit(16) == 4

    def test_adaptive_sizer_engages_for_cheap_specs(self):
        specs = unique_grid(10)
        backend = fast_backend(hosts=1, batch="adaptive")
        backend.run(specs)
        # Starts at 1, then grows: strictly fewer dispatches than specs.
        assert backend.stats["max_batch"] > 1
        assert backend.stats["dispatch_frames"] < len(specs)

    def test_acked_specs_execute_exactly_once_without_faults(self, tmp_path):
        log = tmp_path / "execlog"
        specs = unique_grid(8)
        backend = fast_backend(batch=4, worker_env={EXEC_LOG_ENV: str(log)})
        backend.run(specs)
        counts = execution_counts(log)
        assert set(counts) == {spec.content_key() for spec in specs}
        assert all(count == 1 for count in counts.values())


class TestRoundTripAmortisation:
    """Batching amortises frame round-trips under simulated link latency."""

    DELAY = 0.25  # big enough that the saving dwarfs CI scheduling jitter
    SPECS = 8

    def _measure(self, batch):
        specs = unique_grid(self.SPECS)
        backend = AsyncWorkerBackend(
            hosts=1,
            heartbeat_interval=30.0,  # no ping frames during the run
            batch=batch,
            worker_env={DELAY_ENV: str(self.DELAY)},
        )
        started = time.monotonic()
        results = backend.run(specs)
        wall = time.monotonic() - started
        return results, backend.stats, wall

    def test_batching_reduces_frames_and_wall_clock(self):
        serial_results, serial_stats, serial_wall = self._measure(1)
        batched_results, batched_stats, batched_wall = self._measure(4)
        for left, right in zip(serial_results, batched_results):
            assert deterministic_fields(left) == deterministic_fields(right)
        # Acceptance criterion: >= 2x dispatch-frame reduction at batch >= 4
        # (it is exactly 4x here: 8 run frames versus 2 run_batch frames).
        assert serial_stats["dispatch_frames"] == self.SPECS
        assert batched_stats["dispatch_frames"] * 2 <= serial_stats[
            "dispatch_frames"
        ]
        # Wall-clock: per-spec dispatch pays a read delay per run frame that
        # batching avoids (6 frames * 0.25 s = 1.5 s here); assert with
        # generous slack so a loaded CI host cannot flake the comparison.
        saved = (serial_stats["dispatch_frames"]
                 - batched_stats["dispatch_frames"]) * self.DELAY
        assert serial_wall - batched_wall > saved * 0.3, (
            f"serial {serial_wall:.2f}s vs batched {batched_wall:.2f}s "
            f"(expected >= {saved * 0.3:.2f}s saved)"
        )


class TestPartialBatchFaultInjection:
    def test_sigkill_mid_batch_requeues_only_unacked_specs(self, tmp_path):
        # One worker, one batch holding the entire grid.  The fault hook
        # SIGKILLs the worker when it starts the third spec: the first two
        # answers were already streamed (acknowledged), so only the dying
        # spec and the ones behind it may re-run.
        specs = unique_grid(8)
        keys = [spec.content_key() for spec in specs]
        target = keys[2]
        flag = tmp_path / "died-once"
        log = tmp_path / "execlog"
        backend = fast_backend(
            hosts=1,
            batch=len(specs),
            worker_env={
                FAULT_ENV: f"{target[:16]}:{flag}",
                EXEC_LOG_ENV: str(log),
            },
        )
        run_experiments(specs, backend=backend,
                        store=ResultStore(tmp_path / "batched"))
        assert flag.exists(), "the fault hook never fired"
        assert backend.stats.get("worker_deaths", 0) == 1
        # Exactly the unacknowledged tail of the batch was requeued...
        assert backend.stats.get("requeues", 0) == len(specs) - 2
        counts = execution_counts(log)
        # ... the acknowledged specs never ran again ...
        assert counts[keys[0]] == 1
        assert counts[keys[1]] == 1
        # ... the dying spec ran twice (killed mid-first-attempt), the rest
        # of the tail was dispatched-but-unstarted and ran once.
        assert counts[target] == 2
        assert sum(counts.values()) == len(specs) + 1
        # And the store is byte-identical to a serial run regardless.
        run_experiments(specs, backend=SerialBackend(),
                        store=ResultStore(tmp_path / "serial"))
        assert (store_result_bytes(tmp_path / "batched")
                == store_result_bytes(tmp_path / "serial"))

    def test_poisonous_spec_does_not_burn_cobatched_retry_budgets(
        self, tmp_path
    ):
        # A spec that reliably kills its worker (die-always fault) exhausts
        # *its own* max_retries, not those of the specs co-batched behind
        # it: jobs execute in dispatch order, so only the first
        # unacknowledged job of a dead worker's batch was ever executing.
        specs = unique_grid(8)
        target = specs[0].content_key()
        flag = tmp_path / "crash-always"
        backend = fast_backend(
            hosts=1,
            batch=8,
            max_retries=1,
            spawn_retries=100,
            worker_env={FAULT_ENV: f"{target[:16]}:{flag}:always"},
        )
        outcomes = backend.run_outcomes(specs)
        assert flag.exists(), "the fault hook never fired"
        assert isinstance(outcomes[0], ExperimentFailure)
        assert outcomes[0].error_type == "WorkerDied"
        assert outcomes[0].attempts == 2  # max_retries=1 exhausted by itself
        # Every co-batched spec survived with its retry budget intact.
        reference = SerialBackend().run(specs[1:])
        for left, right in zip(reference, outcomes[1:]):
            assert deterministic_fields(left) == deterministic_fields(right)

    def test_mid_batch_kill_on_multihost_converges(self, tmp_path):
        specs = unique_grid(6)
        target = specs[0].content_key()
        flag = tmp_path / "died-once"
        backend = AsyncWorkerBackend(
            "local0:1,local1:1",
            heartbeat_interval=0.5,
            batch=4,
            worker_env={FAULT_ENV: f"{target[:16]}:{flag}"},
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


BATCHED_SIGINT_DRIVER = textwrap.dedent("""
    import os, pathlib, signal, sys, threading, time
    from repro.exp import (AsyncWorkerBackend, ExperimentSpec, ResultStore,
                           run_experiments)

    store_dir = sys.argv[1]
    specs = [
        ExperimentSpec("cholesky", num_threads=2, scale=0.2, trace_seed=seed)
        for seed in range(1, 13)
    ]
    backend = AsyncWorkerBackend(
        hosts=1, heartbeat_interval=0.5, batch=len(specs),
    )

    def interrupt_once_streaming():
        # Fire SIGINT as soon as results stream into the store while the
        # one big batch is still in flight on the single worker.
        while True:
            entries = [p for p in pathlib.Path(store_dir).rglob("*.json")
                       if not p.name.startswith(".")]
            if len(entries) >= 3:
                os.kill(os.getpid(), signal.SIGINT)
                return
            time.sleep(0.02)

    threading.Thread(target=interrupt_once_streaming, daemon=True).start()
    try:
        run_experiments(specs, backend=backend, store=ResultStore(store_dir))
    except KeyboardInterrupt:
        print("INTERRUPTED", flush=True)
        sys.exit(3)
    print("COMPLETED", flush=True)
""")


class TestBatchedSigintStreaming:
    def test_acked_results_persist_across_sigint_mid_batch(self, tmp_path):
        # The fault-model invariant must survive batching: results are
        # finished (and streamed into the store) as each ack arrives, not
        # when the whole batch resolves — so an interrupt mid-batch keeps
        # every acknowledged experiment.  The driver's watcher thread can
        # only ever fire because of that: it waits for entries to appear
        # while the single worker still holds the one 12-spec batch.
        store_dir = tmp_path / "store"
        completed = subprocess.run(
            [sys.executable, "-c", BATCHED_SIGINT_DRIVER, str(store_dir)],
            env=subprocess_env(), capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode == 3, (
            completed.stdout + completed.stderr
        )
        assert "INTERRUPTED" in completed.stdout
        entries = [p for p in pathlib.Path(store_dir).rglob("*.json")
                   if not p.name.startswith(".")]
        assert len(entries) >= 3  # the acked prefix survived the interrupt
        for path in entries:
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert "result" in payload and "spec" in payload


class TestCompressionThreshold:
    """Frame compression around the 512-byte threshold (satellite)."""

    @staticmethod
    def _frame_of_exact_payload_size(size):
        # {"b":"xxx...x"} -> payload length is len(filler) + 8 overhead.
        filler = "x" * (size - 8)
        message = {"b": filler}
        raw = json.dumps(message, separators=(",", ":")).encode("utf-8")
        assert len(raw) == size
        return message

    def test_below_threshold_never_compressed(self):
        for size in range(500, protocol.COMPRESS_MIN_BYTES):
            message = self._frame_of_exact_payload_size(size)
            frame = protocol.encode_frame(message, compress=True)
            (word,) = struct.unpack(">I", frame[:4])
            assert not word & 0x80000000, f"size {size} was compressed"
            assert protocol.read_frame(io.BytesIO(frame)) == message

    def test_at_and_above_threshold_compressible_payloads_shrink(self):
        for size in range(protocol.COMPRESS_MIN_BYTES, 525):
            message = self._frame_of_exact_payload_size(size)
            frame = protocol.encode_frame(message, compress=True)
            (word,) = struct.unpack(">I", frame[:4])
            assert word & 0x80000000, f"size {size} stayed raw"
            assert len(frame) < 4 + size
            assert protocol.read_frame(io.BytesIO(frame)) == message

    def test_incompressible_payloads_stay_raw(self, monkeypatch):
        # zlib cannot shrink these (simulated: JSON text of high-entropy
        # data still deflates, so force the no-win case): the encoder must
        # ship the raw form, and the round trip stays exact.
        monkeypatch.setattr(
            protocol.zlib, "compress", lambda data, level=6: data + b"pad"
        )
        for size in range(500, 525):
            message = self._frame_of_exact_payload_size(size)
            frame = protocol.encode_frame(message, compress=True)
            (word,) = struct.unpack(">I", frame[:4])
            assert not word & 0x80000000
            assert protocol.read_frame(io.BytesIO(frame)) == message

    if HAVE_HYPOTHESIS:

        @settings(max_examples=25, deadline=None, derandomize=True)
        @given(size=st.integers(min_value=500, max_value=524),
               compress=st.booleans())
        def test_round_trip_exact_around_threshold(self, size, compress):
            message = self._frame_of_exact_payload_size(size)
            frame = protocol.encode_frame(message, compress=compress)
            assert protocol.read_frame(io.BytesIO(frame)) == message
            if not compress or size < protocol.COMPRESS_MIN_BYTES:
                (word,) = struct.unpack(">I", frame[:4])
                assert not word & 0x80000000


class TestCliBatch:
    # Lives here (not tests/test_cli.py) so the subprocess-spawning CLI path
    # runs inside CI's hard-timeout batching step, not the tier-1 step.
    def test_compare_with_batch_flag(self, capsys):
        from repro.cli import main

        code = main([
            "compare", "swaptions", "--scale", "0.004", "--threads", "2",
            "--policy", "lazy", "--backend", "async", "--jobs", "2",
            "--batch", "4",
        ])
        assert code == 0
        assert "execution-time error" in capsys.readouterr().out

    def test_invalid_batch_is_a_usage_error(self, capsys):
        from repro.cli import main

        code = main([
            "compare", "swaptions", "--scale", "0.004", "--threads", "2",
            "--batch", "bogus",
        ])
        assert code == 2
        assert "batch" in capsys.readouterr().err


class TestDispatchBenchScript:
    def test_smoke_records_frame_reduction(self, tmp_path):
        output = tmp_path / "BENCH_dispatch.json"
        completed = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "dispatch_bench.py"),
             "--smoke", "--output", str(output)],
            env=subprocess_env(), capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        payload = json.loads(output.read_text(encoding="utf-8"))
        (entry,) = payload["entries"]
        modes = {mode["batch"]: mode for mode in entry["modes"]}
        assert set(modes) == {"1", "4", "16", "adaptive"}
        assert modes["1"]["frames_per_spec"] == 1.0
        # Acceptance criterion, as recorded in BENCH_dispatch.json: >= 2x
        # frame reduction for sub-second specs at batch >= 4 (exactly 4x).
        assert modes["4"]["frames_per_spec"] * 2 <= modes["1"][
            "frames_per_spec"
        ]
        assert modes["16"]["frames_per_spec"] <= modes["4"]["frames_per_spec"]
        for mode in entry["modes"]:
            assert mode["specs_per_s"] > 0

    def test_entries_accumulate_as_a_trajectory(self, tmp_path):
        output = tmp_path / "BENCH_dispatch.json"
        for _ in range(2):
            completed = subprocess.run(
                [sys.executable,
                 str(REPO_ROOT / "scripts" / "dispatch_bench.py"),
                 "--smoke", "--specs", "4", "--batches", "1,4",
                 "--output", str(output)],
                env=subprocess_env(), capture_output=True, text=True,
                timeout=300,
            )
            assert completed.returncode == 0, completed.stderr
        payload = json.loads(output.read_text(encoding="utf-8"))
        assert len(payload["entries"]) == 2


class TestMultihostDemoScript:
    def test_smoke_sweep_passes_with_subset_and_batch(self, tmp_path):
        completed = subprocess.run(
            [sys.executable,
             str(REPO_ROOT / "scripts" / "multihost_sweep_demo.py"),
             "--scale", "0.002",
             "--benchmarks", "swaptions,vector-operation",
             "--threads-highperf", "1", "--threads-lowpower", "1",
             "--hosts", "local0:1,local1:1", "--batch", "4",
             "--keep", str(tmp_path / "stores")],
            env=subprocess_env(), capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "PASS" in completed.stdout
        # --keep persisted both stores for the digest comparison path.
        assert (tmp_path / "stores" / "serial").is_dir()
        assert (tmp_path / "stores" / "multihost").is_dir()
        assert store_result_bytes(tmp_path / "stores" / "serial") == \
            store_result_bytes(tmp_path / "stores" / "multihost")

    def test_unknown_benchmark_rejected_before_any_sweep(self):
        # Whitespace is stripped and typos die at argparse level, not deep
        # inside the serial sweep with a registry KeyError.
        completed = subprocess.run(
            [sys.executable,
             str(REPO_ROOT / "scripts" / "multihost_sweep_demo.py"),
             "--benchmarks", "swaptions, no-such-bench"],
            env=subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 2
        assert "unknown benchmark" in completed.stderr

    def test_invalid_batch_rejected_before_any_sweep(self):
        completed = subprocess.run(
            [sys.executable,
             str(REPO_ROOT / "scripts" / "multihost_sweep_demo.py"),
             "--benchmarks", "swaptions", "--batch", "bogus"],
            env=subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 2
        assert "batch" in completed.stderr

    def test_bad_host_budget_fails(self):
        completed = subprocess.run(
            [sys.executable,
             str(REPO_ROOT / "scripts" / "multihost_sweep_demo.py"),
             "--scale", "0.002", "--benchmarks", "swaptions",
             "--hosts", "local0:0"],
            env=subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode != 0


if HAVE_HYPOTHESIS:

    GRID_POINTS = st.tuples(
        st.sampled_from(("swaptions", "vector-operation", "histogram")),
        st.integers(min_value=1, max_value=2),
        st.sampled_from((0, 1, 2)),  # index into CONFIG_CHOICES
    )
    CONFIG_CHOICES = (None, lazy_config(), periodic_config())

    class TestBatchGridEquivalence:
        """Hypothesis: any batch mode x any backend -> the same store bytes."""

        @settings(
            max_examples=3, deadline=None, derandomize=True,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(
            grid=st.lists(GRID_POINTS, min_size=1, max_size=2, unique=True),
            batch=st.sampled_from(BATCH_MODES),
        )
        def test_random_grids_equivalent_across_backends_and_batches(
            self, grid, batch
        ):
            specs = []
            for benchmark, threads, config_index in grid:
                spec = ExperimentSpec(
                    benchmark, num_threads=threads, scale=SCALE,
                    config=CONFIG_CHOICES[config_index],
                )
                specs.append(spec)
                specs.append(spec.baseline())
            backends = (
                make_named_backend("serial", batch=batch),
                fast_backend(batch=batch),
                fast_backend(hosts="local0:1,local1:1", batch=batch),
            )
            snapshots = []
            for backend in backends:
                with tempfile.TemporaryDirectory() as directory:
                    run_experiments(specs, backend=backend,
                                    store=ResultStore(directory))
                    snapshots.append(store_result_bytes(directory))
            assert snapshots[0]  # non-vacuous
            assert all(snapshot == snapshots[0] for snapshot in snapshots[1:])
