#!/usr/bin/env python3
"""Gate CI on the hot-path speedup trajectory.

Compares the detailed-mode speedup of the *fresh* hot-path measurement
(``benchmarks/results/perf_hotpath.json``, written by
``benchmarks/bench_perf_hotpath.py`` on every run, including smoke runs)
against the *last committed* entry of the ``BENCH_hotpath.json`` trajectory,
and fails when a fresh number falls below ``slack * committed``.

Two gates run, both over the same slack:

* the geometric mean across all configurations shared with the committed
  entry, and
* every individual configuration, keyed by ``(workload, architecture,
  num_threads)`` — so a floor regression on one workload cannot hide behind
  the average.  Configurations added since the previous entry (no committed
  counterpart) are reported but not gated; configurations the committed
  entry had but the fresh measurement lacks are skipped likewise (subset
  runs already bail out earlier).

The slack is deliberately generous (default 0.4): CI runners are shared,
single-core and noisy, and the smoke measurement runs at a smaller scale
with three repeats — so absolute throughput is not comparable run-to-run.
The *ratio* (batched engine over the per-record baseline on the same host,
in the same process, interleaved; each configuration's speedup is the median
of its paired ratios) is far more stable, and a catastrophic
regression — grouped dispatch silently disabled, plan memoisation broken —
drags it toward 1x, far through any reasonable slack.  Tightening beyond
~0.6 trades signal for flakes.

Usage::

    python scripts/check_hotpath_regression.py [--slack 0.4] \
        [--measurement benchmarks/results/perf_hotpath.json] \
        [--trajectory BENCH_hotpath.json]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _config_key(config: dict, default_threads) -> tuple:
    """``(workload, architecture, num_threads)`` identity of one config.

    Entries recorded before per-config thread counts existed carry the
    entry-level ``num_threads`` for every config.
    """
    return (
        config["workload"],
        config["architecture"],
        config.get("num_threads", default_threads),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--measurement",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "results" / "perf_hotpath.json",
        help="fresh measurement JSON written by bench_perf_hotpath.py",
    )
    parser.add_argument(
        "--trajectory",
        type=Path,
        default=REPO_ROOT / "BENCH_hotpath.json",
        help="committed trajectory file (last entry is the reference)",
    )
    parser.add_argument(
        "--slack",
        type=float,
        default=0.4,
        help="fail when a fresh speedup < slack * its committed counterpart",
    )
    args = parser.parse_args(argv)

    measurement = json.loads(args.measurement.read_text(encoding="utf-8"))
    trajectory = json.loads(args.trajectory.read_text(encoding="utf-8"))
    entries = trajectory.get("entries", [])
    if not entries:
        print("trajectory has no entries; nothing to gate against")
        return 0
    if measurement.get("workload_subset"):
        print("measurement is a --workloads subset run; not comparable, skipping")
        return 0

    reference = entries[-1]
    committed_configs = {
        _config_key(config, reference.get("num_threads")): config
        for config in reference.get("configs", ())
    }
    fresh_configs = {
        _config_key(config, measurement.get("num_threads")): config
        for config in measurement.get("configs", ())
    }

    failures = []

    # Geomean gate over the shared config set: comparing a fresh geomean
    # that includes configs the committed entry never measured (or vice
    # versa) would mix apples and oranges.
    shared = sorted(set(committed_configs) & set(fresh_configs))
    if shared:
        fresh_gm = math.exp(
            sum(
                math.log(fresh_configs[key]["detailed_speedup"])
                for key in shared
            )
            / len(shared)
        )
        committed_gm = math.exp(
            sum(
                math.log(committed_configs[key]["detailed_speedup"])
                for key in shared
            )
            / len(shared)
        )
    else:
        # Pre-per-config trajectories: fall back to the recorded geomeans.
        fresh_gm = measurement["detailed_speedup_geomean"]
        committed_gm = reference["detailed_speedup_geomean"]
    floor = args.slack * committed_gm
    verdict = "OK" if fresh_gm >= floor else "REGRESSION"
    if fresh_gm < floor:
        failures.append("geomean")
    print(
        f"hot-path detailed-speedup geomean ({len(shared) or 'all'} shared "
        f"configs): fresh {fresh_gm:.2f}x vs committed {committed_gm:.2f}x "
        f"({reference.get('date', '?')}); floor {floor:.2f}x "
        f"(slack {args.slack}) -> {verdict}"
    )

    # Per-config gate.
    for key in sorted(fresh_configs):
        workload, architecture, num_threads = key
        fresh_speedup = fresh_configs[key]["detailed_speedup"]
        coverage = fresh_configs[key].get("vector_coverage", 0.0)
        label = f"{workload}/{architecture}/t{num_threads}"
        committed = committed_configs.get(key)
        if committed is None:
            print(
                f"  {label}: {fresh_speedup:.2f}x, vector coverage "
                f"{coverage:.0%} (new config, not gated)"
            )
            continue
        committed_speedup = committed["detailed_speedup"]
        config_floor = args.slack * committed_speedup
        ok = fresh_speedup >= config_floor
        if not ok:
            failures.append(label)
        print(
            f"  {label}: fresh {fresh_speedup:.2f}x vs committed "
            f"{committed_speedup:.2f}x, floor {config_floor:.2f}x, vector "
            f"coverage {coverage:.0%} -> {'OK' if ok else 'REGRESSION'}"
        )
    for key in sorted(set(committed_configs) - set(fresh_configs)):
        workload, architecture, num_threads = key
        print(
            f"  {workload}/{architecture}/t{num_threads}: in committed entry "
            "but not measured; skipped"
        )

    if failures:
        print(
            f"hot-path regression in: {', '.join(failures)} — the grouped/"
            "vectorised detailed path regressed far beyond runner noise; "
            "profile with REPRO_PROFILE (per-phase wall breakdown in "
            "vector_stats) and see EXPERIMENTS.md for the trajectory",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
