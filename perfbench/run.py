"""End-to-end benchmark of the TaskPoint reproduction, with a per-layer split.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/WORKLOADS.md`` for why each exists):

* ``cold-grid-session``  — four fresh ``repro grid`` processes, one per engine;
* ``warm-detailed-walk`` — repeated detailed passes over five warm configs;
* ``served-two-tenant``  — ``repro serve`` under a batch and an interactive
  closed-loop tenant, then an all-hit resubmission.

With ``--trace 0`` the last stdout line is a JSON object holding every
``end_to_end`` metric of ``BENCHMARK.json``; with ``--trace 1`` the run also
replays the work with spans around each layer and reports every
``per_layer`` metric instead (a layer the workload does not exercise reads
0).  The lines before it print the workload's own figures by name and unit.
``--workload all`` runs the three in turn and ends with one JSON object
keyed by workload.
Spans are written to ``.perfbench/spans-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from pathlib import Path

from common import ROOT, WORK, program_present, use_program, workdir

WORKLOADS = {
    "cold-grid-session": "cold_grid",
    "warm-detailed-walk": "warm_walk",
    "served-two-tenant": "served",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1; 2 is held out for confirming claims)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _measure(name: str, args, declared: dict):
    """Run one workload, print its figures; returns its JSON result or None."""
    workload = importlib.import_module(WORKLOADS[name])
    with workdir() as work:
        report = workload.run(args.seed, args.seconds, bool(args.trace), Path(work))

    metrics = {}
    for entry in declared["per_layer" if args.trace else "end_to_end"]:
        metric = entry["name"]
        value = report.metrics.get(metric, 0.0 if args.trace else None)
        if value is None or not math.isfinite(value):
            print(f"error: {name} measured no {metric}: {report.problems}", file=sys.stderr)
            return None
        metrics[metric] = {"value": value, "unit": entry["unit"]}

    print(f"workload {name}, seed {args.seed}, trace {args.trace}")
    for entry in declared["end_to_end"]:
        print(f"  {entry['name']:28s} {report.metrics[entry['name']]:.6g} {entry['unit']}")
    for metric, (value, unit) in report.summary.items():
        print(f"  {metric:28s} {value:.6g} {unit}")
    failed_frac = report.failed / report.attempted if report.attempted else 1.0
    print(f"  {'failed_frac':28s} {failed_frac:.6g} ratio "
          f"({report.failed} of {report.attempted})")
    for problem in report.problems:
        print(f"  check failed: {problem}")
    if report.recorder is not None:
        spans_path = WORK / f"spans-{name}-seed{args.seed}.json"
        report.recorder.dump(spans_path)
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    return {
        "correct": report.failed == 0 and not report.problems,
        "attempted": max(1, report.attempted),
        "failed": report.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seed < 1:
        print("error: --seed must be >= 1", file=sys.stderr)
        return 2
    if not program_present():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    use_program()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = _measure(name, args, declared)
        if result is None:
            return 1
        results[name] = result
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
