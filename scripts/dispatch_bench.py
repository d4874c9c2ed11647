#!/usr/bin/env python
"""Dispatch round-trip amortisation microbenchmark (``BENCH_dispatch.json``).

TaskPoint makes each simulation cheap, so at cluster scale the orchestrator's
per-spec dispatch round-trips — not the simulations — become the bottleneck.
This benchmark quantifies that: it runs one grid of sub-second specs through
the :class:`~repro.exp.distributed.AsyncWorkerBackend` under a **simulated
per-frame link latency** (the worker-side ``REPRO_EXP_WORKER_DELAY`` hook
sleeps around every frame read/write, standing in for a real network RTT)
once per batch mode — ``1`` (one spec per dispatch frame), fixed
sizes, and ``adaptive`` — and records, per mode:

* **dispatch frames per spec** (how many supervisor->worker round-trips the
  grid cost; 1.0 unbatched, 1/N at a fixed batch of N),
* **wall-clock seconds and specs/second throughput**, and
* the speedup over the unbatched dispatch.

A second section measures the worker-side **warmed-trace memo**: a grid of
specs that revisit the same (benchmark, scale, seed) traces under varying
thread counts — the normal shape of a ``run_batch`` frame — run once with
the per-process memo enabled (default) and once with it disabled
(``REPRO_EXP_TRACE_MEMO=0``, every spec regenerates and re-warms its trace
and plan caches from scratch).  The delta is the per-spec warm-up cost the
memo removes; no link latency is simulated here, so the measurement
isolates worker-side compute.

Every run appends one entry to the repository-root ``BENCH_dispatch.json``
trajectory file (``--output`` overrides the path) and prints the
frames-per-spec table quoted in ``EXPERIMENTS.md``.  ``--smoke`` shrinks the
grid and delay for CI, where the point is exercising the path, not the
numbers.

Usage::

    PYTHONPATH=src python scripts/dispatch_bench.py
    PYTHONPATH=src python scripts/dispatch_bench.py --delay 0.1 --specs 64
    PYTHONPATH=src python scripts/dispatch_bench.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time
from datetime import datetime, timezone

from repro.core.config import lazy_config
from repro.exp import AsyncWorkerBackend, ExperimentSpec, parse_batch
from repro.exp.runner import TRACE_MEMO_ENV
from repro.exp.worker import DELAY_ENV

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_dispatch.json"

#: Cheap, structurally different workloads; cycled over seeds so every spec
#: is unique (no dedup) and each costs well under a second at the bench scale.
BENCHMARKS = ("swaptions", "vector-operation", "histogram", "reduction")

SCALE = 0.004


def build_specs(count: int):
    """``count`` unique sub-second sampled specs (the amortisation regime)."""
    specs = []
    seed = 0
    while len(specs) < count:
        seed += 1
        for benchmark in BENCHMARKS:
            if len(specs) >= count:
                break
            specs.append(ExperimentSpec(
                benchmark, num_threads=2, scale=SCALE, trace_seed=seed,
                config=lazy_config(),
            ))
    return specs


def build_repeated_specs(count: int):
    """``count`` unique specs revisiting the same four warmed traces.

    The thread count varies per lap while (benchmark, scale, seed) repeat,
    so with the memo on only the first lap generates traces; every later
    spec reuses the warmed columns (including their plan caches).
    """
    specs = []
    threads = 1
    while len(specs) < count:
        threads += 1
        for benchmark in BENCHMARKS:
            if len(specs) >= count:
                break
            specs.append(ExperimentSpec(
                benchmark, num_threads=threads, scale=SCALE, trace_seed=1,
                config=lazy_config(),
            ))
    return specs


def measure_trace_memo(specs, workers: int, batch):
    """Run ``specs`` with the warmed-trace memo on and off; return the record."""
    record = {"specs": len(specs), "batch": str(batch)}
    for label, env in (("memo_on", {}), ("memo_off", {TRACE_MEMO_ENV: "0"})):
        backend = AsyncWorkerBackend(
            num_workers=workers, batch=batch, worker_env=dict(env),
        )
        started = time.monotonic()
        backend.run(specs)
        wall = time.monotonic() - started
        record[label] = {
            "wall_s": wall,
            "wall_per_spec_ms": wall * 1000.0 / len(specs),
            "specs_per_s": len(specs) / wall,
        }
    record["memo_speedup"] = (
        record["memo_off"]["wall_s"] / record["memo_on"]["wall_s"]
    )
    return record


def measure_mode(batch, specs, workers: int, delay: float):
    """Run ``specs`` once with ``batch`` dispatch; return the mode record."""
    backend = AsyncWorkerBackend(
        num_workers=workers,
        batch=batch,
        worker_env={DELAY_ENV: str(delay)},
    )
    started = time.monotonic()
    backend.run(specs)
    wall = time.monotonic() - started
    dispatch_frames = backend.stats.get("dispatch_frames", 0)
    return {
        "batch": str(batch),
        "dispatch_frames": dispatch_frames,
        "max_batch": backend.stats.get("max_batch", 0),
        "frames_per_spec": dispatch_frames / len(specs),
        "wall_s": wall,
        "specs_per_s": len(specs) / wall,
    }


def append_entry(path: pathlib.Path, entry) -> None:
    """Append ``entry`` to the trajectory file (created on first run)."""
    payload = {"benchmark": "dispatch", "entries": []}
    if path.exists():
        try:
            existing = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(existing.get("entries"), list):
                payload = existing
        except (ValueError, OSError):
            pass  # a corrupt trajectory file starts over rather than wedging
    payload["entries"].append(entry)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--specs", type=int, default=32,
                        help="unique sub-second specs in the grid (default 32)")
    parser.add_argument("--delay", type=float, default=0.05,
                        help="simulated per-frame link latency in seconds "
                             "(default 0.05)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (default 1: the per-worker "
                             "round-trip cost is what is being measured)")
    parser.add_argument("--batches", default="1,4,16,adaptive",
                        help="comma-separated batch modes to measure "
                             "(default '1,4,16,adaptive')")
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT),
                        help="trajectory JSON to append to "
                             "(default: repo-root BENCH_dispatch.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: tiny grid and delay, same code path")
    args = parser.parse_args(argv)

    if args.smoke:
        args.specs = min(args.specs, 8)
        args.delay = min(args.delay, 0.02)

    batches = []
    for part in args.batches.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            parse_batch(part)  # usage error now, not mid-measurement
        except ValueError as exc:
            parser.error(str(exc))
        batches.append(part if part.startswith("adaptive") else int(part))
    if not batches:
        print("error: no batch modes to measure", file=sys.stderr)
        return 2

    specs = build_specs(args.specs)
    print(f"dispatch bench: {len(specs)} unique specs, "
          f"{args.workers} worker(s), {args.delay * 1000:.0f} ms/frame "
          f"simulated link latency")

    modes = []
    for batch in batches:
        mode = measure_mode(batch, specs, args.workers, args.delay)
        modes.append(mode)
        print(f"  batch={mode['batch']:<10s} "
              f"dispatch_frames={mode['dispatch_frames']:<4d} "
              f"frames/spec={mode['frames_per_spec']:.3f}  "
              f"wall={mode['wall_s']:.2f}s  "
              f"throughput={mode['specs_per_s']:.1f} specs/s")

    # Warmed-trace memo: repeated-workload grid, no simulated link latency
    # (the point is worker-side warm-up compute, not round-trips).
    memo_specs = build_repeated_specs(args.specs)
    trace_memo = measure_trace_memo(memo_specs, args.workers, batch=16)
    print(f"  warmed-trace memo ({trace_memo['specs']} repeated-workload "
          f"specs, batch=16):")
    for label in ("memo_on", "memo_off"):
        mode = trace_memo[label]
        print(f"    {label:<9s} wall={mode['wall_s']:.2f}s  "
              f"{mode['wall_per_spec_ms']:.1f} ms/spec  "
              f"throughput={mode['specs_per_s']:.1f} specs/s")
    print(f"    memo speedup: {trace_memo['memo_speedup']:.2f}x "
          f"({trace_memo['memo_off']['wall_per_spec_ms'] - trace_memo['memo_on']['wall_per_spec_ms']:.1f} "
          f"ms/spec warm-up removed)")

    # The speedup column only means what its name says when the unbatched
    # mode was actually measured; without it the field is omitted (null)
    # rather than silently re-baselined onto some batched mode.
    baseline = next((m for m in modes if m["batch"] == "1"), None)
    for mode in modes:
        mode["speedup_vs_unbatched"] = (
            baseline["wall_s"] / mode["wall_s"] if baseline is not None
            else None
        )

    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "smoke": bool(args.smoke),
        "delay_s": args.delay,
        "specs": len(specs),
        "workers": args.workers,
        "scale": SCALE,
        "modes": modes,
        "trace_memo": trace_memo,
    }
    output = pathlib.Path(args.output)
    append_entry(output, entry)
    print(f"recorded -> {output}")

    if baseline is not None:
        best = max((m for m in modes if m["batch"] != "1"),
                   key=lambda m: m["speedup_vs_unbatched"], default=None)
        if best is not None:
            reduction = baseline["frames_per_spec"] / max(
                best["frames_per_spec"], 1e-9
            )
            print(f"best mode batch={best['batch']}: "
                  f"{reduction:.1f}x fewer dispatch frames, "
                  f"{best['speedup_vs_unbatched']:.2f}x wall-clock speedup "
                  f"over spec-at-a-time dispatch")
    return 0


if __name__ == "__main__":
    sys.exit(main())
