"""Workload ``served-two-tenant``: ``repro serve`` under two closed-loop tenants.

Set-up starts ``repro serve`` (no more workers than cores, a new cache
directory) and waits for a first job to finish.  One client process then
drives two tenants, each a closed loop with one job outstanding:

* ``batch``       — all 19 benchmarks x (lazy + detailed baseline),
* ``interactive`` — one such compare pair per job,

at scale 0.004 and 2 threads, every job with a fresh trace seed so every
spec misses the store.  The simulations are tiny, so dispatch, protocol,
worker, fair-share queue, daemon bookkeeping and store writes do most of
the work.  Afterwards up to five finished batch jobs are submitted again
under another tenant; all their specs hit the store.

Checks: every job finishes ``done``; the digests of the first
``CHECKED_BATCH`` batch jobs, the first ``CHECKED_INTERACTIVE`` interactive
jobs and the set-up job equal those of the same specs run through
``run_experiments`` with ``SerialBackend`` into a fresh store (the later
jobs would cost more to re-run serially than the timed window itself); every
resubmission's digest equals its first submission's.
"""

from __future__ import annotations

import itertools
import os
import re
import select
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from common import Report, children_peak_rss_mb, env, fresh_dir, repro_argv
from layers import layer_metrics, unattributed
from measure import count_failed, tail_percentile
from spans import SpanRecorder, take_over

SCALE = 0.004
THREADS = 2
WORKERS = max(1, min(2, len(os.sched_getaffinity(0))))
RESUBMITS = 5
CHECKED_BATCH = 2
CHECKED_INTERACTIVE = 20
READY_TIMEOUT_S = 60
BANNER = re.compile(rb"listening on ([0-9.]+):(\d+)")


@dataclass
class Job:
    tenant: str
    specs: list
    submitted: float
    accepted: float = 0.0
    first_update: Optional[float] = None
    finished: float = 0.0
    status: str = "unfinished"
    digest: str = ""
    reference: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.finished - self.submitted


def compare_pair(benchmark: str, trace_seed: int) -> list:
    from repro.core.config import TaskPointConfig
    from repro.exp.spec import ExperimentSpec

    lazy = ExperimentSpec(benchmark, THREADS, scale=SCALE, trace_seed=trace_seed,
                          config=TaskPointConfig(sampling_period=None))
    return [lazy, lazy.baseline()]


class Daemon:
    """One ``repro serve`` process with its own cache directory."""

    def __init__(self, work: Path, spans_out: Optional[Path] = None) -> None:
        from repro.serve.client import ServiceClient

        self.cache = fresh_dir(work, "serve-")
        self.client: Optional[ServiceClient] = None
        argv = repro_argv(
            ["serve", "--listen", "127.0.0.1:0", "--workers", str(WORKERS),
             "--cache-dir", str(self.cache)],
            spans_out,
        )
        self.log = open(self.cache.with_suffix(".log"), "wb")
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            argv, env=env(PERFBENCH_SPAWN_T0=repr(self.spawned)),
            stdout=subprocess.PIPE, stderr=self.log,
        )
        host, port = self._await_banner()
        self.ready = time.perf_counter()
        self.client = ServiceClient(host, port, timeout=60.0)

    def _await_banner(self) -> "tuple[str, int]":
        deadline = time.perf_counter() + READY_TIMEOUT_S
        seen = b""
        while time.perf_counter() < deadline:
            readable, _, _ = select.select([self.process.stdout], [], [], 0.5)
            if readable:
                line = self.process.stdout.readline()
                if not line:
                    break
                seen += line
                match = BANNER.search(line)
                if match:
                    return match.group(1).decode(), int(match.group(2))
        self.stop()
        raise RuntimeError(f"repro serve did not start: {seen!r}")

    def stop(self) -> None:
        """Stop the daemon (and its workers) and wait for it to exit."""
        if self.process.poll() is None:
            try:
                if self.client is None:
                    raise ConnectionError("daemon never listened")
                self.client.stop()
            except (OSError, RuntimeError):  # dead or wedged: terminate it
                self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


def run_job(client, tenant: str, specs: list,
            recorder: Optional[SpanRecorder] = None) -> Job:
    """Submit one job and watch it to completion (closed loop: one at a time)."""
    job = Job(tenant, specs, time.perf_counter())
    span = recorder.open("serve.submit") if recorder is not None else None
    reply = client.submit(specs, tenant=tenant)
    job.accepted = time.perf_counter()
    if recorder is not None:
        recorder.rows[span][4] = reply["job"]
        recorder.close(span)
        span = recorder.open("serve.watch", reply["job"])

    def on_update(frame) -> None:
        if job.first_update is None and frame.get("type") == "job_update":
            job.first_update = time.perf_counter()

    done = client.watch(reply["job"], on_update=on_update)
    job.finished = time.perf_counter()
    if recorder is not None:
        recorder.close(span)
    if job.first_update is None:
        job.first_update = job.finished
    job.status, job.digest = done["status"], done["digest"]
    return job


def closed_loop(daemon: Daemon, seed: int, seconds: float,
                recorder: Optional[SpanRecorder], report: Report) -> "tuple[List[Job], float]":
    """Drive both tenants until ``seconds`` pass; returns (jobs, window wall)."""
    from repro.workloads.registry import list_workloads

    benchmarks = list_workloads()
    # Each tenant draws fresh trace seeds from its own sequence, so what a
    # tenant submits does not depend on how the two threads interleave.
    batch_seeds = itertools.count(seed * 1_000_000 + 2, 2)
    interactive_seeds = itertools.count(seed * 1_000_000 + 1, 2)

    def batch_job(_: int) -> list:
        trace_seed = next(batch_seeds)
        return [spec for name in benchmarks for spec in compare_pair(name, trace_seed)]

    def interactive_job(count: int) -> list:
        return compare_pair(benchmarks[count % len(benchmarks)], next(interactive_seeds))

    tenants: Dict[str, Callable[[int], list]] = {
        "batch": batch_job, "interactive": interactive_job,
    }
    jobs: List[Job] = []
    errors: List[str] = []
    start = time.perf_counter()
    deadline = start + seconds

    def loop(tenant: str) -> None:
        root = recorder.open(f"bench.{tenant}") if recorder is not None else None
        try:
            count = 0
            while time.perf_counter() < deadline:
                jobs.append(run_job(daemon.client, tenant, tenants[tenant](count), recorder))
                count += 1
        except Exception as error:  # reported as a failed operation below
            errors.append(f"{tenant} client: {type(error).__name__}: {error}")
        finally:
            if recorder is not None:
                recorder.close(root)

    threads = [threading.Thread(target=loop, args=(name,)) for name in tenants]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for error in errors:
        report.attempted += 1
        report.fail(error)
    return jobs, time.perf_counter() - start


def resubmit(daemon: Daemon, jobs: List[Job], recorder: Optional[SpanRecorder],
             report: Report) -> List[Job]:
    """Submit finished batch jobs again under another tenant: all store hits."""
    again = []
    root = recorder.open("bench.resubmit") if recorder is not None else None
    for original in [job for job in jobs if job.tenant == "batch"][:RESUBMITS]:
        job = run_job(daemon.client, "resubmit", original.specs, recorder)
        job.reference = original.digest
        again.append(job)
    if recorder is not None:
        recorder.close(root)
    if not again:
        report.fail("no batch job finished inside the window to resubmit")
    return again


def check_references(jobs: List[Job], work: Path) -> None:
    """Run the checked jobs' specs serially into a fresh store; set references."""
    from repro.exp.backends import SerialBackend, run_experiments
    from repro.exp.store import ResultStore
    from repro.serve.daemon import store_digest

    checked = (
        [job for job in jobs if job.tenant == "setup"]
        + [job for job in jobs if job.tenant == "batch"][:CHECKED_BATCH]
        + [job for job in jobs if job.tenant == "interactive"][:CHECKED_INTERACTIVE]
    )
    directory = fresh_dir(work, "reference-")
    specs = [spec for job in checked for spec in job.specs]
    run_experiments(specs, backend=SerialBackend(), store=ResultStore(directory))
    for job in checked:
        job.reference = store_digest(
            directory, keys=[spec.content_key() for spec in job.specs])


def start_daemon(work: Path, seed: int, spans_out: Optional[Path] = None) -> "tuple[Daemon, Job]":
    """Start a daemon and run one small job; the job's end marks set-up done."""
    daemon = Daemon(work, spans_out)
    try:
        job = run_job(daemon.client, "setup", compare_pair("swaptions", seed * 1_000_000))
    except Exception:
        daemon.stop()
        raise
    return daemon, job


def _daemon_rows(rows: list) -> list:
    """The daemon's spans minus its whole-process ones, which are harness time."""
    renamed = {"cli.startup": "bench.daemon_startup", "cli.main": "bench.daemon"}
    return [[renamed.get(row[0], row[0]), *row[1:]] for row in rows]


def _window(daemon: Daemon, seed: int, seconds: float, work: Path,
            recorder: Optional[SpanRecorder], report: Report) -> Dict[str, object]:
    jobs, window = closed_loop(daemon, seed, seconds, recorder, report)
    resubmitted = resubmit(daemon, jobs, recorder, report)
    stats = daemon.client.stats()
    return {"jobs": jobs, "window": window, "resubmitted": resubmitted, "stats": stats}


def _latencies(jobs: List[Job], tenant: str) -> List[float]:
    return [job.latency for job in jobs if job.tenant == tenant and job.status == "done"]


def run(seed: int, seconds: float, traced: bool, work: Path) -> Report:
    report = Report()
    setup_jobs: List[Job] = []
    daemons: List[Daemon] = []
    try:
        setups, readies = [], []
        for _ in range(3):
            if daemons:
                daemons.pop().stop()
            daemon, job = start_daemon(work, seed)
            daemons.append(daemon)
            setups.append(job.finished - daemon.spawned)
            readies.append(daemon.ready - daemon.spawned)
            setup_jobs.append(job)
        report.metrics["setup_s"] = statistics.median(setups)
        window_seconds = seconds / 2 if traced else seconds
        plain = _window(daemons[0], seed, window_seconds, work, None, report)
        daemons.pop().stop()

        if traced:
            recorder = SpanRecorder()
            spans_out = work / "daemon-spans.bin"
            daemon, job = start_daemon(work, seed, spans_out)
            daemons.append(daemon)
            setup_jobs.append(job)
            traced_run = _window(daemon, seed, window_seconds, work, recorder, report)
            daemons.pop().stop()
    finally:
        for daemon in daemons:
            daemon.stop()

    report.metrics["peak_rss_mb"] = children_peak_rss_mb()
    jobs = plain["jobs"]
    all_jobs = setup_jobs + jobs + plain["resubmitted"]
    if traced:
        all_jobs += traced_run["jobs"] + traced_run["resubmitted"]
    check_references(setup_jobs + jobs, work)
    report.attempted += len(all_jobs)
    failed = count_failed((job.status, job.digest, job.reference) for job in all_jobs)
    if failed:
        report.failed += failed
        report.problems.append(f"{failed} served job(s) failed or returned a wrong digest")

    interactive = _latencies(jobs, "interactive")
    batch = _latencies(jobs, "batch")
    if not interactive or not batch:
        report.fail("a tenant finished no job inside the window")
        return report
    report.metrics["wall_s"] = statistics.median(interactive)
    report.metrics["specs_per_s"] = sum(len(job.specs) for job in jobs) / plain["window"]
    tail = tail_percentile(interactive)
    report.summary.update({
        "interactive_p50_s": (statistics.median(interactive), "s"),
        "interactive_jobs": (len(interactive), "count"),
        "batch_job_s": (statistics.median(batch), "s"),
        "batch_jobs": (len(batch), "count"),
        "warm_resubmit_s": (
            statistics.median(job.latency for job in plain["resubmitted"]), "s"),
    })
    if tail is not None:
        percentile, value, count = tail
        report.summary[f"interactive_tail_s (p{percentile:g} of {count})"] = (value, "s")

    if traced:
        traced_jobs = traced_run["jobs"]
        client_wall = sum(row[2] - row[1] for row in recorder.rows if row[3] < 0)
        metrics = unattributed(recorder.rows, client_wall)
        daemon_rows, daemon_counts = take_over(spans_out)
        recorder.merge(_daemon_rows(daemon_rows), daemon_counts)
        metrics.update(layer_metrics(recorder.rows, recorder.counts))
        done = [job for job in traced_jobs if job.status == "done"]
        metrics["serve.submit_rtt_s"] = statistics.median(
            job.accepted - job.submitted for job in done)
        metrics["serve.first_update_s"] = statistics.median(
            job.first_update - job.submitted for job in done)
        traced_interactive = _latencies(traced_jobs, "interactive")
        metrics["bench.trace_overhead_pct"] = 100.0 * (
            statistics.median(traced_interactive) / report.metrics["wall_s"] - 1.0)
        metrics["daemon.ready_s"] = statistics.median(readies)
        stats = traced_run["stats"]
        counters = stats["dispatch"]["counters"]
        frames = counters.get("dispatch_frames", 0)
        metrics["dispatch.frames"] = frames
        metrics["dispatch.spawns"] = counters.get("spawns", 0)
        metrics["dispatch.specs_per_frame"] = (
            stats["queue"]["pops"] / frames if frames else 0.0)
        for tenant in ("batch", "interactive"):
            metrics[f"queue.pops.{tenant}"] = (
                stats["queue"]["tenants"].get(tenant, {}).get("served", 0))
        report.metrics.update(metrics)
        report.recorder = recorder
    return report
