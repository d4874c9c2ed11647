"""Experiment worker process (``python -m repro.exp.worker``).

A worker speaks the length-prefixed JSON protocol of
:mod:`repro.exp.protocol` over its stdin/stdout pipes, and only there.  The
same entrypoint runs on a remote host behind ``ssh -T HOST python3 -m
repro.exp.worker``: the SSH session carries the pipes, so a remote worker
needs no other transport.  It opens with a ``hello`` frame naming its pid and
protocol version.

Two threads cooperate:

* the **reader thread** parses incoming frames: ``ping`` is answered with
  ``pong`` immediately — even while a simulation is running, so supervisor
  heartbeats measure process liveness rather than job length; each pong
  carries the worker's trace-memo counters as a ``memo`` field —
  ``hello_ack`` records whether the supervisor wants compressed frames, the
  jobs of a ``run_batch`` frame are handed to the main thread in order and
  ``shutdown``/EOF ends the process;
* the **main thread** executes jobs one at a time through
  :func:`repro.exp.runner.run_spec` (sharing its per-process trace memo, so a
  worker that receives many specs of one benchmark generates the trace once)
  and answers each with exactly one ``result`` or ``error`` frame.  A spec
  that raises produces an ``error`` frame and the worker stays alive.

Stray ``print`` calls anywhere in the simulation stack cannot corrupt the
frame stream: ``sys.stdout`` is rebound to stderr before any job runs, and
all frame writes go through one lock-guarded writer.  SIGINT keeps its
default action, so a Ctrl-C on the supervisor's process group ends a worker
without a traceback; the supervisor handles the shutdown.

Fault injection (tests only): the ``REPRO_EXP_WORKER_FAULT`` environment
variable, formatted ``<key-prefix>:<flag-file>[:<mode>]``, makes the worker
SIGKILL itself when it receives a spec whose content key starts with the
prefix.  In the default (die-once) mode the flag file is created first with
``O_EXCL``, so exactly one worker dies once per flag file — the supervisor's
requeue path.  With mode ``always`` every worker holding a matching spec
dies every time (the flag file is still touched, without exclusivity) — the
crash-looping-host path that exercises quarantine.

Two more test/benchmark-only hooks share that spirit:

* ``REPRO_EXP_WORKER_EXECLOG=<path>`` appends one ``<content-key>`` line to
  the file whenever a spec *starts executing* (``O_APPEND``, so concurrent
  workers interleave whole lines).  The batching suite counts these lines to
  prove that acknowledged specs are never executed twice.
* ``REPRO_EXP_WORKER_DELAY=<seconds>`` sleeps before every frame write and
  after every frame read — a simulated per-frame link latency, which is what
  makes round-trip amortisation measurable on a loopback pipe.
"""

from __future__ import annotations

import argparse
import os
import queue
import signal
import sys
import threading
import time
from typing import BinaryIO, Dict, Optional, Sequence

from repro.exp import protocol
from repro.exp.runner import run_spec, trace_memo_stats
from repro.exp.spec import ExperimentFailure, ExperimentSpec

#: Test-only fault hook; see the module docstring.
FAULT_ENV = "REPRO_EXP_WORKER_FAULT"

#: Test-only execution-count probe; see the module docstring.
EXEC_LOG_ENV = "REPRO_EXP_WORKER_EXECLOG"

#: Test/benchmark-only simulated per-frame link latency (seconds).
DELAY_ENV = "REPRO_EXP_WORKER_DELAY"


class _FrameWriter:
    """Serialises frame writes from the main and reader threads.

    ``compress`` starts off and is flipped by the reader thread when the
    supervisor's ``hello_ack`` grants it; a plain bool
    assignment is atomic under the GIL, and frame ordering guarantees the ack
    is processed before any job whose answer could be compressed.
    """

    def __init__(self, stream: BinaryIO, delay: float = 0.0) -> None:
        self._stream = stream
        self._lock = threading.Lock()
        self._delay = delay
        self.compress = False

    def send(self, message: Dict[str, object]) -> None:
        with self._lock:
            if self._delay:
                time.sleep(self._delay)
            protocol.write_frame(self._stream, message, compress=self.compress)


def _frame_delay() -> float:
    """Simulated per-frame link latency (0 outside tests/benchmarks)."""
    try:
        return max(0.0, float(os.environ.get(DELAY_ENV, "") or 0.0))
    except ValueError:
        return 0.0


def _log_execution(spec_key: str) -> None:
    """Append one started-execution line to the probe file, if configured."""
    path = os.environ.get(EXEC_LOG_ENV)
    if not path:
        return
    fd = os.open(path, os.O_CREAT | os.O_APPEND | os.O_WRONLY, 0o644)
    try:
        os.write(fd, (spec_key + "\n").encode("utf-8"))
    finally:
        os.close(fd)


def _maybe_inject_fault(spec_key: str) -> None:
    raw = os.environ.get(FAULT_ENV)
    if not raw:
        return
    prefix, _, rest = raw.partition(":")
    flag_file, _, mode = rest.partition(":")
    if not flag_file or not spec_key.startswith(prefix):
        return
    if mode == "always":
        with open(flag_file, "a", encoding="utf-8"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    try:
        fd = os.open(flag_file, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return  # some worker already died on this spec; run it normally
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def serve(reader_stream: BinaryIO, writer_stream: BinaryIO) -> None:
    """Serve the worker protocol until ``shutdown`` or EOF."""
    delay = _frame_delay()
    out = _FrameWriter(writer_stream, delay=delay)
    out.send({
        "type": "hello",
        "pid": os.getpid(),
        "protocol": protocol.PROTOCOL_VERSION,
    })
    jobs: "queue.Queue[Optional[Dict[str, object]]]" = queue.Queue()
    # Set on shutdown/EOF: the main thread stops *before* the next job, so
    # a worker holding a deep run_batch queue exits after the job in hand
    # instead of grinding through work whose answers nobody wants anymore.
    closing = threading.Event()

    def read_loop() -> None:
        while True:
            try:
                message = protocol.read_frame(reader_stream)
            except (protocol.ProtocolError, OSError):
                message = None
            if message is None:  # EOF or torn stream: drain and exit
                closing.set()
                jobs.put(None)
                return
            if delay:
                time.sleep(delay)
            kind = message.get("type")
            if kind == "ping":
                try:
                    # Heartbeat answers double as a status channel: the
                    # worker's trace-memo counters ride along, so a
                    # supervisor can observe cache behaviour (hit rate,
                    # evictions) without a dedicated stats frame.
                    out.send({
                        "type": "pong",
                        "seq": message.get("seq"),
                        "memo": trace_memo_stats(),
                    })
                except OSError:
                    jobs.put(None)
                    return
            elif kind == "run_batch":
                # One queue entry per job, in batch order; the main thread
                # answers each with its own result/error frame, which is
                # what lets the supervisor requeue only unacknowledged
                # specs when this process dies mid-batch.
                for entry in message.get("jobs") or []:
                    if isinstance(entry, dict):
                        jobs.put(entry)
            elif kind == "hello_ack":
                out.compress = bool(message.get("compress"))
            elif kind == "shutdown":
                closing.set()
                jobs.put(None)
                return
            # unknown frame types are ignored

    threading.Thread(target=read_loop, daemon=True).start()
    while True:
        job = jobs.get()
        if job is None or closing.is_set():
            return
        job_id = job.get("job")
        spec_key = ""
        try:
            spec = ExperimentSpec.from_dict(job["spec"])
            spec_key = spec.content_key()
            _log_execution(spec_key)
            _maybe_inject_fault(spec_key)
            result = run_spec(spec)
            out.send({"type": "result", "job": job_id, "result": result.to_dict()})
        except Exception as error:
            failure = ExperimentFailure.from_exception(spec_key, error)
            out.send({"type": "error", "job": job_id, "error": failure.to_dict()})


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Worker entry point; returns a process exit code."""
    argparse.ArgumentParser(
        prog="repro.exp.worker",
        description="experiment worker speaking the repro.exp frame protocol "
                    "on stdin/stdout",
    ).parse_args(argv)
    reader_stream = sys.stdin.buffer
    writer_stream = sys.stdout.buffer
    # Frames own the real stdout; reroute stray prints to stderr.
    sys.stdout = sys.stderr
    # A Ctrl-C reaches the whole process group, and the supervisor owns the
    # shutdown: die of it quietly instead of printing a traceback.
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    serve(reader_stream, writer_stream)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised in subprocesses
    sys.exit(main())
