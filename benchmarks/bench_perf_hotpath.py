"""Hot-path performance microbenchmark (simulator throughput trajectory).

Unlike the figure harnesses, this benchmark measures the *simulator itself*:
wall-clock throughput (task instances per second) of

* **detailed simulation** on :class:`~repro.sim.engine.SimulationEngine`
  versus the per-record :class:`~repro.sim.reference.ReferenceEngine` (the
  pre-refactor hot path, kept in-tree as the oracle), and
* **TaskPoint sampled simulation** (lazy policy) on the production engine.

Both variants are bit-identical in results (asserted here on the makespan),
so the ratio is a pure implementation speedup.  The measurements are written
as machine-readable JSON to ``benchmarks/results/perf_hotpath.json`` on
every run; set ``REPRO_BENCH_RECORD=1`` to also append a datapoint to the
repository-root ``BENCH_hotpath.json`` trajectory file (the committed record
of simulator performance across PRs).

Each configuration also records the grouped-dispatch coverage of the run:
which fraction of detailed instances went through the vector kernel versus
the scalar walk.  The engine switches to the kernel at the first group that
clears its width and event floors, so the coverage is a property of the
configuration and is the same on every run; both backends are
bit-identical.

Environment knobs: ``REPRO_BENCH_SMOKE=1`` shrinks the workload, runs three
paired repeats per configuration instead of five and skips the speedup
threshold (CI containers are too noisy for timing assertions);
``REPRO_BENCH_SCALE``/``REPRO_BENCH_SEED`` are honoured as everywhere else.
``--workloads=a,b`` (or ``REPRO_BENCH_WORKLOADS``) restricts the measured
configurations to a workload subset for quick iteration; subset runs never
assert the speedup floor nor append to the trajectory file, whose entries
must stay comparable across PRs.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import time
from datetime import datetime, timezone
from pathlib import Path

from common import (
    HIGH_PERFORMANCE,
    LOW_POWER,
    RESULTS_DIR,
    bench_scale,
    bench_seed,
    write_result,
)
from repro.core.config import lazy_config
from repro.core.controller import TaskPointController
from repro.sim.engine import SimulationEngine
from repro.sim.reference import ReferenceEngine
from repro.workloads.registry import get_workload

#: Measured configurations ``(workload, architecture, num_threads)``: two
#: mid-size, structurally different workloads (Cholesky's dependency-rich
#: wavefront; blackscholes' wide fork-join) on both Table II architectures
#: at 8 simulated threads, plus 32/64-thread configurations where dispatch
#: groups widen past the vector kernel's amortisation point — the committed
#: record of the kernel's engagement region (``vector_coverage`` > 0 on the
#: high-performance configs; on the low-power hierarchy, one level shorter,
#: the kernel gains less over the scalar walk, and the 64-thread config
#: records where that balance lies).  Cholesky appears only
#: at 8 threads: its wavefront parallelism saturates below 32 workers at
#: the bench scale, so wider configs would measure scheduler idle time
#: rather than walk throughput.  Histogram at 32 threads records the
#: shared-writer path: every record writes shared data, so it forms no
#: groups, and each write's coherence invalidation visits the cores the
#: holder record names.
HOTPATH_CONFIGS = [
    ("cholesky", "high-performance", 8),
    ("cholesky", "low-power", 8),
    ("blackscholes", "high-performance", 8),
    ("blackscholes", "low-power", 8),
    ("blackscholes", "high-performance", 32),
    ("blackscholes", "low-power", 64),
    ("blackscholes", "high-performance", 64),
    ("histogram", "high-performance", 32),
]

#: Hard regression floor for the geometric-mean detailed-mode speedup of the
#: batched executor over the per-record baseline, asserted outside smoke
#: mode (and only for full-config runs).  The grouped-dispatch engine
#: measures 4.2-4.9x depending on host load (see BENCH_hotpath.json); the
#: asserted floor is set well below that so host contention does not flake
#: the suite while a genuine hot-path regression still fails it.
MIN_DETAILED_SPEEDUP = 2.5

TRAJECTORY_PATH = Path(__file__).parent.parent / "BENCH_hotpath.json"

_ARCHITECTURES = {
    "high-performance": HIGH_PERFORMANCE,
    "low-power": LOW_POWER,
}


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _wall(make_engine):
    engine = make_engine()
    # Collect before starting the clock: otherwise the previous variant's
    # garbage (the per-record baseline churns far more objects than the
    # batched engine) is collected inside this run's timed region, and the
    # interleaved pairs stop being independent measurements.
    gc.collect()
    start = time.perf_counter()
    result = engine.run()
    return time.perf_counter() - start, result, engine


def _measure_config(
    workload: str, arch_name: str, scale: float, seed: int, num_threads: int,
    repeats: int,
) -> dict:
    trace = get_workload(workload).generate(scale=scale, seed=seed)
    len(trace.records)  # materialise record views so the baseline pays no one-off cost
    architecture = _ARCHITECTURES[arch_name]

    def legacy():
        return ReferenceEngine(trace, architecture, num_threads=num_threads)

    def batched():
        return SimulationEngine(trace, architecture, num_threads=num_threads)

    # Interleaved pairs: host-load drift hits both variants of a pair alike,
    # so the per-pair ratio is far more stable than two separate medians.
    _wall(legacy)
    _wall(batched)
    legacy_walls, batched_walls, ratios = [], [], []
    legacy_result = batched_result = batched_engine = None
    for _ in range(repeats):
        legacy_wall, legacy_result, _ = _wall(legacy)
        batched_wall, batched_result, batched_engine = _wall(batched)
        legacy_walls.append(legacy_wall)
        batched_walls.append(batched_wall)
        ratios.append(legacy_wall / batched_wall)
    assert batched_result.total_cycles == legacy_result.total_cycles, (
        f"batched and per-record detailed simulation diverged on {workload}/"
        f"{arch_name}: {batched_result.total_cycles!r} != {legacy_result.total_cycles!r}"
    )

    # Grouped-dispatch coverage of the batched run: the fraction of detailed
    # instances the kernel rule sent through the vector kernel rather than
    # the scalar walk (identical on every repeat).
    coverage = batched_engine.vector_stats
    detailed_total = coverage["vector_instances"] + coverage["scalar_instances"]

    instances = len(trace)
    legacy_wall = statistics.median(legacy_walls)
    batched_wall = statistics.median(batched_walls)
    return {
        "workload": workload,
        "architecture": arch_name,
        "num_threads": num_threads,
        "instances": instances,
        "detailed_legacy_wall_s": legacy_wall,
        "detailed_legacy_instances_per_s": instances / legacy_wall,
        "detailed_batched_wall_s": batched_wall,
        "detailed_batched_instances_per_s": instances / batched_wall,
        "detailed_speedup": statistics.median(ratios),
        "vector_instances": coverage["vector_instances"],
        "scalar_instances": coverage["scalar_instances"],
        "vector_coverage": (
            coverage["vector_instances"] / detailed_total if detailed_total else 0.0
        ),
        "dispatch_groups": coverage["groups"],
        "max_group": coverage["max_group"],
    }


def _measure(
    scale: float, seed: int, num_threads: int, repeats: int, hotpath_configs
) -> dict:
    configs = [
        _measure_config(
            workload, arch_name, scale, seed, config_threads, repeats
        )
        for workload, arch_name, config_threads in hotpath_configs
    ]
    speedups = [config["detailed_speedup"] for config in configs]
    geomean = statistics.geometric_mean(speedups)

    # Sampled-mode throughput (TaskPoint lazy policy) on the first config,
    # at the default thread count.
    workload, arch_name, _ = hotpath_configs[0]
    trace = get_workload(workload).generate(scale=scale, seed=seed)

    def sampled():
        return SimulationEngine(
            trace,
            _ARCHITECTURES[arch_name],
            num_threads=num_threads,
            controller=TaskPointController(config=lazy_config()),
        )

    _wall(sampled)
    sampled_wall = statistics.median([_wall(sampled)[0] for _ in range(repeats)])

    return {
        "scale": scale,
        "seed": seed,
        "num_threads": num_threads,
        "repeats": repeats,
        "configs": configs,
        "detailed_speedup_geomean": geomean,
        "detailed_speedup_min": min(speedups),
        "sampled_workload": workload,
        "sampled_architecture": arch_name,
        "sampled_wall_s": sampled_wall,
        "sampled_instances_per_s": len(trace) / sampled_wall,
    }


def _record_trajectory(measurement: dict) -> None:
    """Append a datapoint to the committed BENCH_hotpath.json trajectory."""
    if TRAJECTORY_PATH.exists():
        trajectory = json.loads(TRAJECTORY_PATH.read_text(encoding="utf-8"))
    else:
        trajectory = {"schema": 1, "benchmark": "hotpath", "entries": []}
    entry = dict(measurement)
    entry["date"] = datetime.now(timezone.utc).strftime("%Y-%m-%d")
    entry["python"] = platform.python_version()
    entry["machine"] = platform.machine()
    trajectory["entries"].append(entry)
    TRAJECTORY_PATH.write_text(
        json.dumps(trajectory, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def test_hotpath_throughput(benchmark, workloads_subset):
    """Measure detailed + sampled simulator throughput; write the JSON."""
    smoke = _smoke()
    scale = bench_scale() if not smoke else min(bench_scale(), 0.02)
    num_threads = 8
    # Three paired repeats even in smoke runs: every per-config speedup the
    # CI gate reads is then a median, not one noisy sample.
    repeats = 3 if smoke else 5
    hotpath_configs = HOTPATH_CONFIGS
    if workloads_subset is not None:
        unknown = set(workloads_subset) - {w for w, _, _ in HOTPATH_CONFIGS}
        assert not unknown, (
            f"--workloads names {sorted(unknown)} not in the hot-path config "
            f"set {sorted({w for w, _, _ in HOTPATH_CONFIGS})}"
        )
        hotpath_configs = [
            config for config in HOTPATH_CONFIGS if config[0] in workloads_subset
        ]
    subset = hotpath_configs != HOTPATH_CONFIGS
    measurement = benchmark.pedantic(
        _measure,
        args=(scale, bench_seed(), num_threads, repeats, hotpath_configs),
        rounds=1,
        iterations=1,
    )
    measurement["smoke"] = smoke
    measurement["workload_subset"] = subset

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "perf_hotpath.json").write_text(
        json.dumps(measurement, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    lines = [
        f"Hot-path microbenchmark (scale={scale}, "
        f"paired medians of {measurement['repeats']})"
    ]
    for config in measurement["configs"]:
        lines.append(
            f"{config['workload']}/{config['architecture']}"
            f"/t{config['num_threads']}: per-record "
            f"{config['detailed_legacy_wall_s']:.3f} s "
            f"({config['detailed_legacy_instances_per_s']:.0f} inst/s) | batched "
            f"{config['detailed_batched_wall_s']:.3f} s "
            f"({config['detailed_batched_instances_per_s']:.0f} inst/s) | "
            f"speedup {config['detailed_speedup']:.2f}x | vector coverage "
            f"{config['vector_coverage']:.0%} "
            f"({config['dispatch_groups']} groups, max {config['max_group']})"
        )
    lines.append(
        f"detailed speedup geomean: {measurement['detailed_speedup_geomean']:.2f}x "
        f"(min {measurement['detailed_speedup_min']:.2f}x)"
    )
    lines.append(
        f"sampled lazy ({measurement['sampled_workload']}/"
        f"{measurement['sampled_architecture']}): "
        f"{measurement['sampled_wall_s']:.3f} s "
        f"({measurement['sampled_instances_per_s']:.0f} inst/s)"
    )
    text = "\n".join(lines)
    write_result("perf_hotpath", text)
    print(text)

    # Trajectory entries and the speedup floor are defined over the full
    # config set only; a --workloads subset run is for iteration, not record.
    if os.environ.get("REPRO_BENCH_RECORD", "") not in ("", "0") and not subset:
        _record_trajectory(measurement)

    if not smoke and not subset:
        assert measurement["detailed_speedup_geomean"] >= MIN_DETAILED_SPEEDUP, (
            "batched detailed path only "
            f"{measurement['detailed_speedup_geomean']:.2f}x (geomean) over the "
            f"per-record baseline (target {MIN_DETAILED_SPEEDUP}x)"
        )
