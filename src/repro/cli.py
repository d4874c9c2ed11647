"""Command-line interface for the TaskPoint reproduction.

The CLI exposes the most common workflows without writing any Python:

* ``python -m repro list`` — list the 19 benchmarks of Table I,
* ``python -m repro simulate <benchmark>`` — run a full detailed or
  TaskPoint-sampled simulation of one benchmark,
* ``python -m repro compare <benchmark>`` — run both and report the
  execution-time error and the simulation speedup,
* ``python -m repro grid`` — a whole accuracy grid (benchmarks × thread
  counts) through the experiment orchestrator,
* ``python -m repro sweep {W,H,P}`` — a Figure 6 parameter sensitivity sweep,
* ``python -m repro variation <benchmark>`` — per-task-type IPC variation
  (the Figure 1 / Figure 5 analysis) of one benchmark,
* ``python -m repro serve --listen HOST:PORT`` — the persistent simulation
  service daemon (:mod:`repro.serve`): a long-lived worker pool behind a
  submit/poll/watch API with multi-tenant fair-share queues, a journalled
  restart-recovery path and a serving-grade result store,
* ``python -m repro submit/status/watch/cancel --connect HOST:PORT`` — the
  matching client commands (``submit`` builds the same spec grids as
  ``repro grid``, so a served run's store stays byte-identical to a serial
  one).

The experiment-driven commands (``compare``, ``grid``, ``sweep``) accept
``--jobs N`` to shard their experiments over N worker processes,
``--backend {auto,serial,async}`` to pick the execution backend
explicitly (``auto`` is ``async`` when ``--jobs`` > 1 and serial otherwise;
``async`` is the distributed asyncio supervisor over ``repro.exp.worker``
subprocesses, with heartbeats and retry on worker death, where ``--jobs N``
means the host list ``local:N``),
``--hosts host1:4,host2:8`` to shard a grid over async workers on many hosts
(local subprocesses, or started through ``ssh``),
``--batch {N,adaptive[:N]}`` to pack several specs into one dispatch frame
(amortising per-spec round-trips for sub-second experiments), and
``--cache-dir DIR`` to persist every result on disk, keyed by experiment
content hash — re-running an unchanged grid is then a pure cache hit.
Each result is stored as soon as it exists, on every backend, so a grid
interrupted with Ctrl-C keeps what it finished and a re-run computes only
the rest.
``$REPRO_CACHE_DIR`` provides a default cache directory.  The directory also
caches the generated traces (``DIR/traces``), so a later call on the same
store — another sampling engine over the same benchmarks, say — loads
them instead of generating them again.

``compare``, ``grid`` and ``sweep`` also accept ``--profile FILE`` (or the
``$REPRO_PROFILE`` environment variable) to run the simulation phase under
:mod:`cProfile` and dump the binary stats to ``FILE`` for inspection with
``python -m pstats FILE`` — table rendering and argument parsing stay
outside the profile, so the dump shows where simulation time actually goes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.config import FidelityConfig, StratifiedConfig, TaskPointConfig
from repro.exp import BACKEND_NAMES
from repro.workloads import SENSITIVITY_SUBSET

if TYPE_CHECKING:
    from repro.exp.spec import ExperimentSpec
    from repro.serve.client import ServiceClient

# Each command handler imports the layers it runs, so a process loads only
# those: ``repro watch`` never imports numpy, and only ``repro serve`` and
# the async backend import asyncio.


def _architecture(name: str):
    from repro.arch.config import high_performance_config, low_power_config

    if name == "high-performance":
        return high_performance_config()
    if name == "low-power":
        return low_power_config()
    raise ValueError(f"unknown architecture {name!r}")


def _fraction(flag: str, *, max_inclusive: bool):
    """An argparse ``type=`` callable enforcing a fraction range.

    ``max_inclusive=True`` accepts ``0 < value <= 1`` (detail budgets — 1
    means "simulate everything in detail"); ``max_inclusive=False`` accepts
    ``0 < value < 1`` (error budgets — a 100% error budget is meaningless).
    """

    def parse(raw: str) -> float:
        try:
            value = float(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag} must be a number, got {raw!r}")
        in_range = 0 < value <= 1 if max_inclusive else 0 < value < 1
        if not in_range:
            bound = "(0, 1]" if max_inclusive else "(0, 1)"
            raise argparse.ArgumentTypeError(
                f"{flag} must be a fraction in {bound}, got {raw}"
            )
        return value

    return parse


def _bounded_int(flag: str, minimum: int):
    """An argparse ``type=`` callable enforcing an integer lower bound."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag} must be an integer, got {raw!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"{flag} must be >= {minimum}, got {value}"
            )
        return value

    return parse


#: The sampling engines ``--policy``/``--mode`` select; the first is the
#: default.  Each gives its config class, the config fields it fixes, and the
#: sampling flags it takes: the config field each flag sets and its label in
#: the grid title, engine-specific parameters first.  A config is built from
#: the flags the user passed; every other field keeps its dataclass default.
_ENGINES = {
    "periodic": (TaskPointConfig, {}, {
        "period": ("sampling_period", "P"),
        "warmup": ("warmup_instances", "W"),
        "history": ("history_size", "H"),
    }),
    "lazy": (TaskPointConfig, {"sampling_period": None}, {
        "warmup": ("warmup_instances", "W"),
        "history": ("history_size", "H"),
    }),
    "stratified": (StratifiedConfig, {}, {"budget": ("budget", "budget")}),
    "fidelity": (FidelityConfig, {}, {
        "error_budget": ("error_budget", "error-budget"),
        "warmup": ("warmup_instances", "W"),
    }),
}

_DEFAULT_ENGINE = next(iter(_ENGINES))

#: Every sampling flag's ``dest``, each once.
_SAMPLING_FLAGS = list(dict.fromkeys(
    flag for _, _, flags in _ENGINES.values() for flag in flags
))


def _spelling(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def _resolve_sampling_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Resolve the sampling engine and reject the flags it does not take.

    Stores the engine ``--mode``/``--policy`` select in ``args.policy``
    (``None`` for ``--mode detailed``) and rejects, via ``parser.error``
    (exit code 2), any sampling flag that engine does not consume.
    """
    mode = getattr(args, "mode", None)
    if mode == "detailed":
        engine = None
        if args.policy is not None:
            parser.error("--policy does not apply to --mode detailed")
    elif mode in (None, "sampled"):
        engine = args.policy or _DEFAULT_ENGINE
    else:  # an explicit engine mode: stratified / fidelity
        engine = mode
        if args.policy is not None and args.policy != engine:
            parser.error(
                f"--policy {args.policy} conflicts with --mode {engine}"
            )
    taken = _ENGINES[engine][2] if engine else {}
    for flag in _SAMPLING_FLAGS:
        if getattr(args, flag) is not None and flag not in taken:
            target = f"--mode {mode}" if engine is None else f"the {engine} engine"
            parser.error(f"{_spelling(flag)} does not apply to {target}")
    args.policy = engine


def _sampling_config(args: argparse.Namespace):
    """The config of the engine ``args.policy``, set by the flags passed."""
    config_class, fixed, flags = _ENGINES[args.policy]
    passed = {
        field: getattr(args, flag)
        for flag, (field, _) in flags.items()
        if getattr(args, flag) is not None
    }
    return config_class(**fixed, **passed)


def _engine_title(engine: str, config) -> str:
    """``engine`` and the parameters it consumes, as ``config`` holds them."""
    params = [
        f"{label}={getattr(config, field)}"
        for field, label in _ENGINES[engine][2].values()
    ]
    return f"{engine} {', '.join(params)}"


def _int_list(raw: str) -> List[int]:
    return [int(part) for part in raw.split(",") if part]


def _benchmark_list(raw: str) -> List[str]:
    if raw == "all":
        from repro.workloads.registry import list_workloads

        return list_workloads()
    return [part for part in raw.split(",") if part]


def _backend_and_store(args: argparse.Namespace):
    from repro.exp.backends import make_named_backend
    from repro.exp.store import ResultStore, default_store

    store = ResultStore(args.cache_dir) if args.cache_dir else default_store()
    if args.hosts and args.backend not in ("auto", "async"):
        raise ValueError("--hosts requires --backend async (or auto)")
    if args.jobs is not None and (args.hosts or args.backend == "serial"):
        raise ValueError(
            "--jobs requires --backend auto or async "
            "(with --hosts the budgets live in the host list)"
        )
    backend = make_named_backend(
        args.backend, workers=args.jobs or 1, hosts=args.hosts,
        batch=args.batch,
    )
    return backend, store


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.05,
                        help="workload scale relative to Table I (default 0.05)")
    parser.add_argument("--seed", type=int, default=1, help="trace-generation seed")
    parser.add_argument("--architecture", choices=["high-performance", "low-power"],
                        default="high-performance")


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("benchmark", help="benchmark name (see 'repro list')")
    parser.add_argument("--threads", type=int, default=8, help="simulated threads")
    _add_workload_arguments(parser)


def _add_grid_arguments(
    parser: argparse.ArgumentParser,
    benchmarks: str = "all",
    threads: str = "8,16,32,64",
) -> None:
    """The spec-grid flags shared by ``grid``, ``sweep`` and ``submit``."""
    parser.add_argument("--benchmarks", default=benchmarks,
                        help="comma-separated benchmark names, or 'all' "
                             "(default: %(default)s)")
    parser.add_argument("--threads", default=threads,
                        help="comma-separated simulated thread counts "
                             "(default: %(default)s)")
    _add_workload_arguments(parser)


def _add_taskpoint_arguments(parser: argparse.ArgumentParser) -> None:
    """``--policy`` and the sampling flags, their defaults read off the configs.

    The flags parse to ``None`` unless passed, so the resolution step can
    tell a passed flag from an omitted one.
    """
    parser.add_argument("--policy", choices=list(_ENGINES), default=None,
                        help="sampling engine: TaskPoint periodic/lazy, "
                             "two-phase stratified sampling with confidence "
                             "intervals, or the online error-budget fidelity "
                             f"controller (default: {_DEFAULT_ENGINE})")
    for flag, parse, meaning in (
        ("period", _bounded_int("--period", 1), "sampling period P"),
        ("warmup", _bounded_int("--warmup", 0), "warm-up instances W"),
        ("history", _bounded_int("--history", 1), "history size H"),
        ("budget", _fraction("--budget", max_inclusive=True),
         "target fraction of task instances simulated in detail, in (0, 1]"),
        ("error_budget", _fraction("--error-budget", max_inclusive=False),
         "relative execution-time error budget, in (0, 1)"),
    ):
        takers = [name for name, (_, _, flags) in _ENGINES.items() if flag in flags]
        config_class, fixed, flags = _ENGINES[takers[0]]
        field, _ = flags[flag]
        default = getattr(config_class(**fixed), field)
        parser.add_argument(_spelling(flag), type=parse, default=None,
                            help=f"{'/'.join(takers)}: {meaning} "
                                 f"(default {default})")


def _add_mode_alias(parser: argparse.ArgumentParser) -> None:
    """Add ``--mode`` as an alias of ``--policy`` (for compare/grid).

    ``simulate`` has its own ``--mode`` (which also offers ``detailed``);
    the experiment commands take the engine name through either spelling —
    the acceptance workflows use ``--mode fidelity``.
    """
    parser.add_argument("--mode", dest="policy", choices=list(_ENGINES),
                        default=None, help="alias for --policy")


def _add_orchestrator_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_bounded_int("--jobs", 1), default=None,
                        help="parallel worker processes of the auto or async "
                             "backend: the host list local:N (default 1)")
    parser.add_argument("--backend", choices=list(BACKEND_NAMES), default="auto",
                        help="execution backend (default: auto — async "
                             "workers when --jobs > 1, serial otherwise; "
                             "'async' is the distributed asyncio worker "
                             "backend)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent experiment result store, which "
                             "also caches the generated traces in DIR/traces "
                             "(default: $REPRO_CACHE_DIR if set)")
    parser.add_argument("--hosts", default=None,
                        help="async worker budgets per host, e.g. "
                             "'host1:4,host2:8' (names starting with "
                             "'local' run subprocesses, others SSH; "
                             "implies --backend async)")
    parser.add_argument("--batch", default=None,
                        help="specs per dispatch: N, 'adaptive' or "
                             "'adaptive:N' (async sends that many "
                             "specs per run_batch frame, amortising per-spec "
                             "round-trips; serial ignores it; "
                             "default: one spec at a time)")
    parser.add_argument("--profile", default=None, metavar="FILE",
                        help="run the simulation phase under cProfile and "
                             "dump binary stats to FILE (default: "
                             "$REPRO_PROFILE if set; inspect with "
                             "'python -m pstats FILE')")


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TaskPoint: sampled simulation of task-based programs (reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    listing = subparsers.add_parser("list", help="list the available benchmarks")
    listing.set_defaults(handler=_command_list)

    sim = subparsers.add_parser("simulate", help="simulate one benchmark")
    sim.set_defaults(handler=_command_simulate)
    _add_common_arguments(sim)
    sim.add_argument("--mode",
                     choices=["detailed", "sampled", "stratified", "fidelity"],
                     default="sampled",
                     help="detailed baseline, TaskPoint sampling, two-phase "
                          "stratified sampling, or the online error-budget "
                          "fidelity controller (stratified/fidelity are "
                          "equivalent to --mode sampled --policy <engine>)")
    _add_taskpoint_arguments(sim)

    cmp = subparsers.add_parser("compare", help="sampled versus detailed simulation")
    cmp.set_defaults(handler=_command_compare)
    _add_common_arguments(cmp)
    _add_taskpoint_arguments(cmp)
    _add_mode_alias(cmp)
    _add_orchestrator_arguments(cmp)

    grid = subparsers.add_parser(
        "grid", help="accuracy grid (benchmarks x thread counts) via the orchestrator"
    )
    grid.set_defaults(handler=_command_grid)
    _add_grid_arguments(grid)
    _add_taskpoint_arguments(grid)
    _add_mode_alias(grid)
    _add_orchestrator_arguments(grid)

    sweep = subparsers.add_parser(
        "sweep", help="parameter sensitivity sweep (Figure 6) via the orchestrator"
    )
    sweep.set_defaults(handler=_command_sweep)
    sweep.add_argument("parameter", choices=["W", "H", "P"],
                       help="swept parameter: warm-up, history size or period")
    sweep.add_argument("--values", default=None,
                       help="comma-separated parameter values (paper defaults if omitted)")
    _add_grid_arguments(sweep, benchmarks=",".join(SENSITIVITY_SUBSET),
                        threads="32,64")
    _add_orchestrator_arguments(sweep)

    var = subparsers.add_parser("variation", help="per-task-type IPC variation")
    var.set_defaults(handler=_command_variation)
    _add_common_arguments(var)

    serve = subparsers.add_parser(
        "serve", help="persistent simulation service daemon (submit/poll/watch API)"
    )
    serve.set_defaults(handler=_command_serve)
    serve.add_argument("--listen", default="127.0.0.1:0",
                       help="client API bind address, PORT or HOST:PORT "
                            "(default: an ephemeral loopback port, printed "
                            "on startup)")
    serve.add_argument("--workers", type=_bounded_int("--workers", 1), default=2,
                       help="local worker subprocesses, the host list "
                            "local:N (ignored with --hosts; default 2)")
    serve.add_argument("--hosts", default=None,
                       help="worker budgets per host, e.g. 'host1:4,host2:8' "
                            "(names starting with 'local' run subprocesses, "
                            "others SSH)")
    serve.add_argument("--batch", default=None,
                       help="specs per dispatch frame: N, 'adaptive' or "
                            "'adaptive:N'")
    serve.add_argument("--cache-dir", default=None,
                       help="result store directory — enables warm serving, "
                            "write-ahead durability, restart recovery and "
                            "the workers' shared trace cache "
                            "(default: $REPRO_CACHE_DIR if set)")
    serve.add_argument("--store-max-bytes",
                       type=_bounded_int("--store-max-bytes", 1), default=None,
                       help="LRU byte budget of the store, its cached traces "
                            "included; compaction evicts cold entries past it "
                            "(in-flight and failure entries are never evicted)")
    serve.add_argument("--fair-cap", type=_bounded_int("--fair-cap", 1),
                       default=None,
                       help="default per-tenant in-flight cap (default: "
                            "uncapped)")
    serve.add_argument("--tenant", action="append", default=None,
                       metavar="NAME:WEIGHT[:CAP]",
                       help="configure one tenant's fair-share weight and "
                            "optional in-flight cap (repeatable)")
    serve.add_argument("--no-journal", action="store_true",
                       help="disable the job journal (no restart recovery)")

    submit = subparsers.add_parser(
        "submit", help="submit a spec grid to a running 'repro serve' daemon"
    )
    submit.set_defaults(handler=_command_submit)
    submit.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="daemon address (the --listen of 'repro serve')")
    _add_grid_arguments(submit)
    _add_taskpoint_arguments(submit)
    _add_mode_alias(submit)
    submit.add_argument("--tenant", default="default",
                        help="tenant id for fair-share scheduling "
                             "(default: 'default')")
    submit.add_argument("--priority", type=int, default=0,
                        help="within-tenant priority (higher runs sooner, "
                             "aged so lower priorities are never starved)")
    submit.add_argument("--no-baselines", action="store_true",
                        help="submit only the sampled specs, without their "
                             "detailed baselines (the default matches "
                             "'repro grid', which runs both)")
    submit.add_argument("--watch", action="store_true",
                        help="stay attached and stream progress until the "
                             "job finishes")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="socket timeout per connection/frame in seconds")

    status = subparsers.add_parser(
        "status", help="query a job (or the whole daemon) by id"
    )
    status.set_defaults(handler=_command_status)
    status.add_argument("job", nargs="?", default=None,
                        help="job id (omit to list every job)")
    status.add_argument("--connect", required=True, metavar="HOST:PORT")
    status.add_argument("--stats", action="store_true",
                        help="print the daemon's stats_report (queue depths, "
                             "store hit/miss/eviction counters, dispatch "
                             "stats) as JSON")
    status.add_argument("--timeout", type=float, default=60.0,
                        help="socket timeout in seconds")

    watch = subparsers.add_parser(
        "watch", help="stream a job's progress until it finishes"
    )
    watch.set_defaults(handler=_command_watch)
    watch.add_argument("job", help="job id (from 'repro submit')")
    watch.add_argument("--connect", required=True, metavar="HOST:PORT")
    watch.add_argument("--timeout", type=float, default=600.0,
                       help="socket timeout per frame in seconds")

    cancel = subparsers.add_parser(
        "cancel", help="cancel a job's pending specs (running specs finish)"
    )
    cancel.set_defaults(handler=_command_cancel)
    cancel.add_argument("job", help="job id")
    cancel.add_argument("--connect", required=True, metavar="HOST:PORT")
    cancel.add_argument("--timeout", type=float, default=60.0,
                        help="socket timeout in seconds")
    return parser


def _command_list(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_table
    from repro.workloads.registry import get_workload, list_workloads

    rows = []
    for name in list_workloads():
        info = get_workload(name).info()
        rows.append([name, info.category, info.paper_task_types,
                     info.paper_task_instances, info.properties])
    print(format_table(
        ["benchmark", "category", "task types", "task instances", "properties"], rows
    ))
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    from repro.core.api import sampled_simulation
    from repro.sim.simulator import simulate
    from repro.workloads.registry import get_workload

    trace = get_workload(args.benchmark).generate(scale=args.scale, seed=args.seed)
    architecture = _architecture(args.architecture)
    if args.policy is None:  # --mode detailed
        result = simulate(trace, num_threads=args.threads, architecture=architecture)
    else:
        result = sampled_simulation(
            trace, num_threads=args.threads, architecture=architecture,
            config=_sampling_config(args),
        )
    summary = result.summary()
    for key, value in summary.items():
        print(f"{key:20s}: {value}")
    confidence = result.metadata.get("confidence")
    if confidence:
        print(f"{'ci95 halfwidth':20s}: {confidence['half_width_percent']:.2f} %")
        print(f"{'ci95 cycles':20s}: [{confidence['lower_cycles']:,.0f}, "
              f"{confidence['upper_cycles']:,.0f}]")
    stats = result.metadata.get("taskpoint")
    fidelity = getattr(stats, "fidelity_summary", None)
    if callable(fidelity):
        info = fidelity()
        print(f"{'error budget':20s}: {info['error_budget'] * 100:.1f} %")
        print(f"{'committed types':20s}: {info['committed_types']}/{info['num_types']}"
              f" (commits {info['commits']}, reopens {info['reopens']},"
              f" probes {info['probes']})")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    from repro.exp.backends import run_experiments
    from repro.exp.spec import ExperimentSpec

    spec = ExperimentSpec(
        benchmark=args.benchmark,
        num_threads=args.threads,
        scale=args.scale,
        trace_seed=args.seed,
        architecture=_architecture(args.architecture),
        config=_sampling_config(args),
    )
    backend, store = _backend_and_store(args)
    with _maybe_profile(args):
        sampled, detailed = run_experiments(
            [spec, spec.baseline()], backend=backend, store=store
        )
    print(f"benchmark            : {sampled.benchmark}")
    print(f"architecture         : {sampled.architecture}")
    print(f"threads              : {sampled.num_threads}")
    print(f"detailed cycles      : {detailed.total_cycles:,.0f}")
    print(f"sampled cycles       : {sampled.total_cycles:,.0f}")
    print(f"execution-time error : {sampled.error_versus(detailed) * 100.0:.2f} %")
    print(f"simulation speedup   : {sampled.speedup_versus(detailed):.1f}x")
    stats = sampled.taskpoint or {}
    print(f"warm-up / valid / fast-forwarded: "
          f"{stats.get('warmup_instances', 0)} / {stats.get('valid_samples', 0)}"
          f" / {stats.get('fast_forwarded', 0)}")
    print(f"resamples            : {stats.get('resamples', 0)}")
    confidence = stats.get("confidence")
    if confidence:
        covered = (confidence["lower_cycles"] <= detailed.total_cycles
                   <= confidence["upper_cycles"])
        print(f"ci95                 : +/-{confidence['half_width_percent']:.2f} %"
              f" [{confidence['lower_cycles']:,.0f}, "
              f"{confidence['upper_cycles']:,.0f}]"
              f" ({'covers' if covered else 'misses'} detailed)")
    return 0


@contextlib.contextmanager
def _maybe_profile(args: argparse.Namespace):
    """Profile the wrapped simulation phase when requested.

    ``--profile FILE`` wins over ``$REPRO_PROFILE``; with neither set this
    is a no-op.  The binary :mod:`cProfile` stats land in ``FILE`` on exit
    (including on error), ready for ``python -m pstats FILE`` or any
    pstats-compatible viewer.
    """
    path = getattr(args, "profile", None) or os.environ.get("REPRO_PROFILE")
    if not path:
        yield
        return
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        profiler.dump_stats(path)
        print(f"profile: simulation-phase cProfile stats written to {path}",
              file=sys.stderr)


def _command_grid(args: argparse.Namespace) -> int:
    from repro.analysis.accuracy import evaluate_grid
    from repro.analysis.reporting import render_accuracy_table

    backend, store = _backend_and_store(args)
    config = _sampling_config(args)
    with _maybe_profile(args):
        results = evaluate_grid(
            _benchmark_list(args.benchmarks),
            _int_list(args.threads),
            architecture=_architecture(args.architecture),
            config=config,
            scale=args.scale,
            seed=args.seed,
            backend=backend,
            store=store,
        )
    print(render_accuracy_table(
        results,
        title=(f"Accuracy grid: {_engine_title(args.policy, config)}, "
               f"{args.architecture} architecture, scale={args.scale}"),
    ))
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_table
    from repro.analysis.sweep import history_sweep, period_sweep, warmup_sweep

    backend, store = _backend_and_store(args)
    kwargs = dict(
        benchmarks=_benchmark_list(args.benchmarks),
        thread_counts=_int_list(args.threads),
        architecture=_architecture(args.architecture),
        scale=args.scale,
        seed=args.seed,
        backend=backend,
        store=store,
    )
    if args.parameter == "W":
        sweep, values_key = warmup_sweep, "warmup_values"
    elif args.parameter == "H":
        sweep, values_key = history_sweep, "history_values"
    else:
        sweep, values_key = period_sweep, "period_values"
    if args.values:
        kwargs[values_key] = tuple(_int_list(args.values))
    with _maybe_profile(args):
        points = sweep(**kwargs)
    rows = [
        [point.value, point.average_error_percent, point.average_speedup,
         point.experiments]
        for point in points
    ]
    print(f"sensitivity sweep over {args.parameter} "
          f"({args.architecture} architecture, scale={args.scale})")
    print(format_table([args.parameter, "avg error [%]", "avg speedup", "experiments"],
                       rows))
    return 0


def _command_variation(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_table
    from repro.analysis.variation import ipc_variation
    from repro.sim.simulator import simulate
    from repro.workloads.registry import get_workload

    trace = get_workload(args.benchmark).generate(scale=args.scale, seed=args.seed)
    result = simulate(trace, num_threads=args.threads,
                      architecture=_architecture(args.architecture))
    report = ipc_variation(result)
    box = report.box
    print(f"benchmark     : {report.benchmark} ({args.threads} threads)")
    print(f"instances     : {box.count}")
    print(f"p5 / q1 / median / q3 / p95 [%]: "
          f"{box.percentile_5:.2f} / {box.quartile_1:.2f} / {box.median:.2f} / "
          f"{box.quartile_3:.2f} / {box.percentile_95:.2f}")
    print(f"within +/-5%  : {'yes' if report.within_5_percent else 'no'}")
    rows = [[tv.task_type, tv.count, f"{tv.mean_ipc:.3f}",
             f"{tv.coefficient_of_variation * 100:.2f}"] for tv in report.per_type]
    print(format_table(["task type", "instances", "mean IPC", "CV [%]"], rows))
    return 0


def _client(args: argparse.Namespace) -> ServiceClient:
    """A client of the daemon at ``--connect HOST:PORT``."""
    from repro.serve.client import ServiceClient

    host, sep, port = args.connect.rpartition(":")
    if not sep or not host:
        raise ValueError(f"--connect expects HOST:PORT, got {args.connect!r}")
    return ServiceClient(host, int(port), timeout=args.timeout)


def _parse_tenant_configs(raw_list: Optional[List[str]]):
    tenants = {}
    for raw in raw_list or []:
        parts = raw.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"invalid --tenant {raw!r} (expected NAME:WEIGHT[:CAP])"
            )
        weight = float(parts[1])
        cap = int(parts[2]) if len(parts) == 3 else None
        tenants[parts[0]] = (weight, cap)
    return tenants


async def _serve_async(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.exp.backends import make_named_backend
    from repro.exp.hosts import parse_listen
    from repro.exp.runner import use_trace_cache
    from repro.exp.store import CACHE_DIR_ENV, ResultStore
    from repro.serve.daemon import SimulationService

    host, port = parse_listen(args.listen)
    tenants = _parse_tenant_configs(args.tenant)
    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV)
    store = (
        ResultStore(cache_dir, max_bytes=args.store_max_bytes)
        if cache_dir
        else None
    )
    backend = make_named_backend(
        "async", workers=args.workers, hosts=args.hosts, batch=args.batch,
    )
    service = SimulationService(
        backend,
        store=store,
        default_cap=args.fair_cap,
        journal=not args.no_journal,
    )
    for name, (weight, cap) in tenants.items():
        service.configure_tenant(name, weight=weight, cap=cap)
    # Handlers go in before the "listening" banner: anyone who has seen the
    # banner may signal us, and the default SIGTERM action would skip the
    # graceful (journal-preserving) shutdown path.
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(ValueError, NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, service.request_stop)
    # Local workers are spawned (and respawned) for the daemon's whole life;
    # each inherits the store's trace cache while it is set here.
    with use_trace_cache(store.traces if store is not None else None):
        await service.start(host, port)
        pool = args.hosts if args.hosts else f"{args.workers} local workers"
        print(
            f"repro serve: listening on {service.host}:{service.port} "
            f"({pool}, store={cache_dir or 'none'})",
            flush=True,
        )
        await service.serve_until_stopped()
    print("repro serve: stopped", flush=True)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    return asyncio.run(_serve_async(args))


def _submit_specs(args: argparse.Namespace) -> List[ExperimentSpec]:
    """The same specs a ``repro grid`` with these flags would execute."""
    from repro.analysis.accuracy import grid_specs

    specs = grid_specs(
        _benchmark_list(args.benchmarks),
        _int_list(args.threads),
        architecture=_architecture(args.architecture),
        config=_sampling_config(args),
        scale=args.scale,
        seed=args.seed,
    )
    if not args.no_baselines:
        specs = [s for spec in specs for s in (spec, spec.baseline())]
    return specs


def _watch_to_completion(client: ServiceClient, job_id: str) -> int:
    def on_update(frame) -> None:
        if frame.get("type") == "job_update":
            cached = " (cached)" if frame.get("cached") else ""
            print(
                f"  [{frame['seq']}] unit {frame['unit']} "
                f"{frame['state']}{cached}",
                flush=True,
            )

    done = client.watch(job_id, on_update=on_update)
    print(f"status : {done['status']}")
    print(f"digest : {done['digest']}")
    for failure in done.get("failures", []):
        error = failure.get("error") or {}
        print(
            f"failed : {failure['key']} "
            f"{error.get('error_type')}: {error.get('message')}",
            file=sys.stderr,
        )
    return 0 if done["status"] == "done" else 2


def _command_submit(args: argparse.Namespace) -> int:
    client = _client(args)
    reply = client.submit(
        _submit_specs(args), tenant=args.tenant, priority=args.priority
    )
    print(f"job    : {reply['job']}")
    print(f"specs  : {reply['total']} ({reply['cached']} cached)")
    if reply.get("attached"):
        print("attached to an already-submitted identical job")
    if args.watch:
        return _watch_to_completion(client, reply["job"])
    return 0


def _command_status(args: argparse.Namespace) -> int:
    client = _client(args)
    if args.stats:
        print(json.dumps(client.stats(), indent=2, sort_keys=True))
        return 0
    if args.job is None:
        reply = client.status()
        from repro.analysis.reporting import format_table

        rows = [
            [job["job"], job["tenant"], job["status"],
             f"{job['counts']['done']}/{job['total']}", job["cached"]]
            for job in reply["jobs"]
        ]
        print(format_table(["job", "tenant", "status", "done", "cached"], rows))
        return 0
    job = client.status(args.job)
    for key in ("job", "tenant", "priority", "status", "total", "cached"):
        print(f"{key:8s}: {job[key]}")
    counts = job["counts"]
    print(f"{'units':8s}: " + ", ".join(
        f"{state}={counts[state]}" for state in sorted(counts)
    ))
    return 0


def _command_watch(args: argparse.Namespace) -> int:
    return _watch_to_completion(_client(args), args.job)


def _command_cancel(args: argparse.Namespace) -> int:
    reply = _client(args).cancel(args.job)
    print(f"cancelled {reply['cancelled']} pending spec(s) of job {args.job}")
    return 0


def _reported_errors() -> tuple:
    """The errors ``main`` reports as one ``error:`` line and exit code 2.

    ``ExperimentExecutionError`` and ``ServiceError`` are read off the loaded
    modules: a class can only have been raised once its module is loaded, so
    a command never imports a layer just to catch its error.
    """
    loaded = [
        getattr(sys.modules[module], name)
        for module, name in (("repro.exp.backends", "ExperimentExecutionError"),
                             ("repro.serve.client", "ServiceError"))
        if module in sys.modules
    ]
    return (KeyError, ValueError, ConnectionError, *loaded)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if "policy" in args:  # the subcommand takes the sampling flags
        _resolve_sampling_args(parser, args)
    try:
        return args.handler(args)
    except _reported_errors() as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Every backend stores each result as it finishes, so a cache-dir
        # store already holds every completed experiment; the async backend
        # has also shut its workers down.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
