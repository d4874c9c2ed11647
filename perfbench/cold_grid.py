"""Workload ``cold-grid-session``: four fresh ``repro grid`` processes.

One session is what a user waits on when evaluating the four sampling
engines: four fresh-interpreter ``repro grid`` calls over all 19 benchmarks
(4 threads, scale 0.05, serial backend) sharing a new, empty cache
directory.  The first call (periodic) also runs the 19 detailed baselines;
the lazy, stratified and fidelity calls find those in the store and miss on
their own sampled specs.  Nothing is shared between the processes, so trace
generation and plan building are paid on every call.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    Report, children_peak_rss_mb, env, fresh_dir, import_probe_seconds,
    repro_argv,
)
from layers import layer_metrics, unattributed
from spans import SpanRecorder, take_over

POLICIES = ("periodic", "lazy", "stratified", "fidelity")
SCALE = 0.05
THREADS = 4
BENCHMARKS = 19
SPECS_PER_SESSION = BENCHMARKS * (1 + len(POLICIES))
CALL_TIMEOUT_S = 150


def _grid_args(policy: str, seed: int, cache_dir: Path) -> List[str]:
    return [
        "grid", "--threads", str(THREADS), "--scale", str(SCALE),
        "--seed", str(seed), "--backend", "serial",
        "--cache-dir", str(cache_dir), "--policy", policy,
    ]


def session(seed: int, work: Path, report: Report,
            recorder: Optional[SpanRecorder] = None) -> "tuple[float, List[float], Path]":
    """Run the four calls; returns (session wall, call walls, cache dir).

    With ``recorder`` each call runs under ``traced.py`` and its spans are
    merged under a harness span ``bench.call`` covering spawn to exit; the
    time from the end of ``cli.main`` to the exit (interpreter teardown) is
    the span ``cli.exit``.
    """
    cache_dir = fresh_dir(work, "cache-")
    walls = []
    for policy in POLICIES:
        spans_out = work / f"spans-{policy}.json" if recorder is not None else None
        argv = repro_argv(_grid_args(policy, seed, cache_dir), spans_out)
        start = time.perf_counter()
        completed = subprocess.run(
            argv, env=env(PERFBENCH_SPAWN_T0=repr(start)),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=CALL_TIMEOUT_S,
        )
        end = time.perf_counter()
        walls.append(end - start)
        report.attempted += 1
        if completed.returncode != 0:
            report.fail(
                f"repro grid --policy {policy} exited {completed.returncode}: "
                f"{completed.stderr.decode(errors='replace')[-400:]}"
            )
        elif recorder is not None:
            call = recorder.add("bench.call", start, end)
            rows, counts = take_over(spans_out)
            main_end = max(row[2] for row in rows if row[0] == "cli.main")
            recorder.merge(rows, counts, parent=call)
            recorder.add("cli.exit", main_end, end, parent=call)
    return sum(walls), walls, cache_dir


def store_summary(cache_dir: Path) -> Dict[str, object]:
    """Sampled-vs-detailed error and detailed fraction read from a session store."""
    from repro.exp.spec import ExperimentResult, ExperimentSpec
    from repro.exp.store import ResultStore
    from repro.serve.daemon import store_digest

    store = ResultStore(cache_dir)
    entries = {}
    for path in store.layout.iter_entries(store.directory):
        payload = json.loads(path.read_text(encoding="utf-8"))
        spec = ExperimentSpec.from_dict(payload["spec"])
        entries[spec.content_key()] = (spec, ExperimentResult.from_dict(payload["result"]))
    errors = []
    detailed = fast_forwarded = 0
    for spec, result in entries.values():
        if spec.is_detailed:
            continue
        baseline = entries.get(spec.baseline().content_key())
        if baseline is None:
            continue
        errors.append(100.0 * result.error_versus(baseline[1]))
        detailed += result.cost.detailed_instances
        fast_forwarded += result.cost.burst_instances
    return {
        "entries": len(entries),
        "sampled": len(errors),
        "avg_error_pct": statistics.fmean(errors) if errors else float("nan"),
        "max_error_pct": max(errors) if errors else float("nan"),
        "detailed_fraction": (
            detailed / (detailed + fast_forwarded) if errors else float("nan")
        ),
        "digest": store_digest(cache_dir),
    }


def _check_store(summary: Dict[str, object], reference: Optional[Dict[str, object]],
                 report: Report) -> None:
    if summary["entries"] != SPECS_PER_SESSION:
        report.fail(
            f"session store holds {summary['entries']} results, "
            f"expected {SPECS_PER_SESSION}"
        )
    if summary["sampled"] != BENCHMARKS * len(POLICIES):
        report.fail(
            f"{summary['sampled']} sampled results have a detailed baseline, "
            f"expected {BENCHMARKS * len(POLICIES)}"
        )
    if reference is not None and summary["digest"] != reference["digest"]:
        report.fail("session stores differ between sessions")


def run(seed: int, seconds: float, traced: bool, work: Path) -> Report:
    report = Report()
    setup = [import_probe_seconds() for _ in range(5)]
    report.metrics["setup_s"] = statistics.median(setup)

    walls: List[float] = []
    call_walls: List[List[float]] = []
    summaries = []
    started = time.perf_counter()
    # Start a session only if it should end inside the window: a run then
    # measures about ``seconds`` however fast the host is (at least one).
    while not walls or time.perf_counter() - started + statistics.fmean(walls) <= seconds:
        wall, calls, cache_dir = session(seed, work, report)
        walls.append(wall)
        call_walls.append(calls)
        summaries.append(store_summary(cache_dir))
        _check_store(summaries[-1], summaries[0], report)
        if traced:
            break
    first = summaries[0]
    report.metrics["wall_s"] = statistics.median(walls)
    report.metrics["specs_per_s"] = SPECS_PER_SESSION / report.metrics["wall_s"]
    report.metrics["peak_rss_mb"] = children_peak_rss_mb()
    report.summary.update({
        "sessions": (len(walls), "count"),
        "first_call_s": (statistics.median(c[0] for c in call_walls), "s"),
        "sampled_call_s": (
            statistics.median(w for c in call_walls for w in c[1:]), "s"),
        "avg_error_pct": (first["avg_error_pct"], "%"),
        "max_error_pct": (first["max_error_pct"], "%"),
        "detailed_fraction": (first["detailed_fraction"], "ratio"),
    })

    if traced:
        recorder = SpanRecorder()
        traced_wall, _, cache_dir = session(seed, work, report, recorder)
        summary = store_summary(cache_dir)
        _check_store(summary, first, report)
        metrics = layer_metrics(recorder.rows, recorder.counts)
        metrics.update(unattributed(recorder.rows, traced_wall))
        metrics["bench.trace_overhead_pct"] = 100.0 * (traced_wall / walls[0] - 1.0)
        metrics["controller.avg_error_pct"] = summary["avg_error_pct"]
        metrics["controller.max_error_pct"] = summary["max_error_pct"]
        metrics["controller.detailed_fraction"] = summary["detailed_fraction"]
        report.metrics.update(metrics)
        report.recorder = recorder
    return report
