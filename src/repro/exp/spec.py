"""Experiment descriptors and their persistent result records.

An :class:`ExperimentSpec` fully describes one simulation experiment — which
workload trace to generate, which architecture to simulate it on, with how
many threads, under which sampling configuration (or none, for the detailed
baseline) and which scheduler.  Specs are frozen, hashable and round-trip
through JSON, and every spec has a stable *content key* (a SHA-256 digest of
its canonical JSON form) used for deduplication and as the key of the
persistent :class:`repro.exp.store.ResultStore`.

An :class:`ExperimentResult` is the serialisable outcome of running one spec:
the simulated execution time, the deterministic simulation-cost counters, the
per-task-type IPC samples needed by the variation analysis, and — for sampled
runs — the TaskPoint controller statistics.  It deliberately stores only what
the analysis layer consumes, not the per-instance records, so a cached grid
of hundreds of experiments stays small on disk.
"""

from __future__ import annotations

import hashlib
import json
import traceback as traceback_module
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Union

from repro.arch.config import (
    ArchitectureConfig,
    CacheConfig,
    CoreConfig,
    MemoryConfig,
    high_performance_config,
)
from repro.core.config import FidelityConfig, StratifiedConfig, TaskPointConfig
from repro.core.controller import TaskPointStatistics

#: The sampling configurations a spec can carry.  ``None`` marks a detailed
#: baseline run.
SamplingConfig = Union[TaskPointConfig, StratifiedConfig, FidelityConfig]
from repro.sim.cost import SimulationCost
from repro.sim.results import SimulationResult

#: Version tag mixed into every content key.  Bump it whenever the semantics
#: of a spec field or of the stored result change, so stale on-disk caches
#: can never be mistaken for current results.
SPEC_SCHEMA_VERSION = 1


def _architecture_to_dict(architecture: ArchitectureConfig) -> Dict[str, object]:
    return asdict(architecture)


def _architecture_from_dict(data: Dict[str, object]) -> ArchitectureConfig:
    def cache(level: Optional[Dict[str, object]]) -> Optional[CacheConfig]:
        return CacheConfig(**level) if level is not None else None

    return ArchitectureConfig(
        name=data["name"],
        core=CoreConfig(**data["core"]),
        l1=cache(data["l1"]),
        l2=cache(data["l2"]),
        l3=cache(data.get("l3")),
        memory=MemoryConfig(**data["memory"]),
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """Frozen, hashable description of one simulation experiment.

    Attributes
    ----------
    benchmark:
        Workload name (a Table I name, see ``repro list``).
    scale:
        Workload scale passed to the trace generator.
    trace_seed:
        Trace-generation seed.
    architecture:
        Architecture configuration; ``None`` selects the paper's
        high-performance configuration and is normalised to it, so the two
        spellings produce the same content key.
    num_threads:
        Number of simulated worker threads.
    config:
        Sampling configuration — a :class:`TaskPointConfig` (periodic/lazy
        sampling), a :class:`StratifiedConfig` (two-phase stratified
        sampling) or a :class:`FidelityConfig` (online error-budget
        controller) — or ``None`` to mark the experiment as a full
        **detailed baseline** run.
    scheduler:
        Dynamic scheduler name (``"fifo"``, ``"locality"`` or ``"random"``).
    scheduler_seed:
        Seed of randomised schedulers.
    """

    benchmark: str
    num_threads: int
    scale: float = 0.08
    trace_seed: int = 1
    architecture: Optional[ArchitectureConfig] = None
    config: Optional[SamplingConfig] = None
    scheduler: str = "fifo"
    scheduler_seed: int = 0

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.architecture is None:
            object.__setattr__(self, "architecture", high_performance_config())

    # ------------------------------------------------------------------
    @property
    def is_detailed(self) -> bool:
        """``True`` when the spec describes a detailed baseline run."""
        return self.config is None

    def baseline(self) -> "ExperimentSpec":
        """The detailed-baseline spec this sampled experiment compares against.

        Sampled experiments of one (benchmark, architecture, threads, ...)
        point all share the same baseline, which is what lets the orchestrator
        simulate each baseline exactly once per grid.
        """
        return replace(self, config=None)

    def sampled(self, config: SamplingConfig) -> "ExperimentSpec":
        """A copy of this spec running under ``config`` instead."""
        return replace(self, config=config)

    # ------------------------------------------------------------------
    def _config_to_dict(self) -> Optional[Dict[str, object]]:
        """Serialise the sampling config with a ``kind`` discriminator.

        TaskPoint configs serialise as a plain field dict — exactly the bytes
        they always produced, so every pre-stratified content key (and with
        it the on-disk result cache) is unchanged.  Stratified configs add a
        ``"kind": "stratified"`` discriminator, which also guarantees their
        keys can never collide with a TaskPoint config's.
        """
        if self.config is None:
            return None
        if isinstance(self.config, StratifiedConfig):
            return {"kind": "stratified", **asdict(self.config)}
        if isinstance(self.config, FidelityConfig):
            return {"kind": "fidelity", **asdict(self.config)}
        return asdict(self.config)

    @staticmethod
    def _config_from_dict(data: Optional[Dict[str, object]]) -> Optional[SamplingConfig]:
        if data is None:
            return None
        kind = data.get("kind")
        if kind == "stratified":
            fields = {key: value for key, value in data.items() if key != "kind"}
            return StratifiedConfig(**fields)
        if kind == "fidelity":
            fields = {key: value for key, value in data.items() if key != "kind"}
            return FidelityConfig(**fields)
        if kind is not None:
            raise ValueError(f"unknown sampling config kind: {kind!r}")
        return TaskPointConfig(**data)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable canonical form."""
        return {
            "schema": SPEC_SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "num_threads": self.num_threads,
            "scale": self.scale,
            "trace_seed": self.trace_seed,
            "architecture": _architecture_to_dict(self.architecture),
            "config": self._config_to_dict(),
            "scheduler": self.scheduler,
            "scheduler_seed": self.scheduler_seed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            benchmark=data["benchmark"],
            num_threads=data["num_threads"],
            scale=data["scale"],
            trace_seed=data["trace_seed"],
            architecture=_architecture_from_dict(data["architecture"]),
            config=cls._config_from_dict(data.get("config")),
            scheduler=data.get("scheduler", "fifo"),
            scheduler_seed=data.get("scheduler_seed", 0),
        )

    def content_key(self) -> str:
        """Stable SHA-256 content key of this spec.

        Two specs have equal keys iff they describe the same experiment, so
        the key doubles as the deduplication key of the execution backends
        and as the filename of the persistent result store.  The digest is
        memoised on the instance (safe: the dataclass is frozen) because the
        orchestrator and the store consult it many times per spec.
        """
        cached = self.__dict__.get("_content_key")
        if cached is None:
            canonical = json.dumps(
                self.to_dict(), sort_keys=True, separators=(",", ":")
            )
            cached = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_content_key", cached)
        return cached

    def label(self) -> str:
        """Short human-readable description (for logs and progress output)."""
        if self.is_detailed:
            mode = "detailed"
        elif isinstance(self.config, StratifiedConfig):
            mode = "stratified"
        elif isinstance(self.config, FidelityConfig):
            mode = "fidelity"
        else:
            mode = "sampled"
        return (
            f"{self.benchmark}@{self.architecture.name}"
            f" x{self.num_threads} [{mode}]"
        )


@dataclass
class ExperimentFailure:
    """Serialisable record of one spec that raised instead of completing.

    Execution backends return a failure (rather than poisoning the whole
    batch) when a spec's workload raises, and the distributed backend
    additionally returns one when a worker process died repeatedly while
    holding the spec.  Failures are recorded in the result store as
    ``<key>.error.json`` diagnostics but never served as cached results, so a
    re-run retries the spec.
    """

    spec_key: str
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1

    @classmethod
    def from_exception(
        cls, spec_key: str, error: BaseException, attempts: int = 1
    ) -> "ExperimentFailure":
        """Condense a caught exception into a serialisable failure record."""
        return cls(
            spec_key=spec_key,
            error_type=type(error).__name__,
            message=str(error),
            traceback="".join(
                traceback_module.format_exception(type(error), error, error.__traceback__)
            ),
            attempts=attempts,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (inverse of :meth:`from_dict`)."""
        return {
            "schema": SPEC_SCHEMA_VERSION,
            "spec_key": self.spec_key,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentFailure":
        """Rebuild a failure from :meth:`to_dict` output."""
        return cls(
            spec_key=data.get("spec_key", ""),
            error_type=data.get("error_type", "Exception"),
            message=data.get("message", ""),
            traceback=data.get("traceback", ""),
            attempts=data.get("attempts", 1),
        )

    def describe(self) -> str:
        """One-line human-readable summary (for error aggregation)."""
        key = self.spec_key[:12] or "<unknown-spec>"
        return f"{key}: {self.error_type}: {self.message} (attempts={self.attempts})"


@dataclass
class ExperimentResult:
    """Serialisable outcome of one :class:`ExperimentSpec` run."""

    benchmark: str
    architecture: str
    num_threads: int
    total_cycles: float
    cost: SimulationCost = field(default_factory=SimulationCost)
    wall_seconds: Optional[float] = None
    num_instances: int = 0
    total_instructions: int = 0
    ipc_samples: Dict[str, List[float]] = field(default_factory=dict)
    taskpoint: Optional[Dict[str, object]] = None
    spec_key: str = ""

    # ------------------------------------------------------------------
    @classmethod
    def from_simulation(
        cls,
        spec: ExperimentSpec,
        result: SimulationResult,
        stats: Optional[TaskPointStatistics] = None,
    ) -> "ExperimentResult":
        """Condense a full :class:`SimulationResult` into a storable record."""
        taskpoint: Optional[Dict[str, object]] = None
        if stats is not None:
            taskpoint = {
                "warmup_instances": stats.warmup_instances,
                "valid_samples": stats.valid_samples,
                "invalid_samples": stats.invalid_samples,
                "fast_forwarded": stats.fast_forwarded,
                "transitions_to_fast": stats.transitions_to_fast,
                "resamples": stats.resamples,
                # Keyed by the enum *value* (a string) and sorted: the result
                # must round-trip through JSON — worker frames, the on-disk
                # store — and produce canonical bytes everywhere.
                "resample_reasons": {
                    reason.value: count
                    for reason, count in sorted(
                        stats.resample_reasons.items(),
                        key=lambda item: item[0].value,
                    )
                },
                "fallback_estimates": stats.fallback_estimates,
            }
            # Statistics objects that can quantify their estimation
            # uncertainty (the stratified engine's) contribute a confidence
            # block; plain TaskPoint statistics leave the dict untouched, so
            # legacy result records stay byte-identical.
            confidence = getattr(stats, "confidence_summary", None)
            if callable(confidence):
                taskpoint["confidence"] = confidence(result.total_cycles)
            # The fidelity controller additionally records its budget and
            # commit/re-open counters, which the accuracy tables report as
            # achieved-error-versus-budget columns.
            fidelity = getattr(stats, "fidelity_summary", None)
            if callable(fidelity):
                taskpoint["fidelity"] = fidelity()
        return cls(
            benchmark=result.benchmark,
            architecture=result.architecture,
            num_threads=result.num_threads,
            total_cycles=result.total_cycles,
            cost=result.cost,
            wall_seconds=result.wall_seconds,
            num_instances=result.num_instances,
            total_instructions=result.total_instructions,
            ipc_samples={
                task_type: list(values)
                for task_type, values in sorted(result.ipc_by_type(detailed_only=True).items())
            },
            taskpoint=taskpoint,
            spec_key=spec.content_key(),
        )

    # ------------------------------------------------------------------
    @property
    def resamples(self) -> int:
        """Number of resampling events (0 for detailed baselines)."""
        return int(self.taskpoint["resamples"]) if self.taskpoint else 0

    def ipc_by_type(self, detailed_only: bool = True) -> Dict[str, List[float]]:
        """Per-task-type IPC samples of the measured (detailed) instances.

        Mirrors :meth:`repro.sim.results.SimulationResult.ipc_by_type` so the
        variation analysis accepts either object.  Only detailed-mode samples
        are stored, hence ``detailed_only=False`` is not supported.
        """
        if not detailed_only:
            raise ValueError("ExperimentResult only stores detailed-mode IPC samples")
        return dict(self.ipc_samples)

    def error_versus(self, reference: "ExperimentResult") -> float:
        """Absolute relative execution-time error versus ``reference``."""
        if reference.total_cycles <= 0:
            raise ValueError("reference experiment has non-positive execution time")
        return abs(self.total_cycles - reference.total_cycles) / reference.total_cycles

    def speedup_versus(self, reference: "ExperimentResult") -> float:
        """Deterministic (cost-model) simulation speedup versus ``reference``."""
        return self.cost.speedup_over(reference.cost)

    def wall_speedup_versus(self, reference: "ExperimentResult") -> Optional[float]:
        """Wall-clock speedup versus ``reference``; ``None`` if unmeasured."""
        if not self.wall_seconds or not reference.wall_seconds:
            return None
        if self.wall_seconds <= 0:
            return None
        return reference.wall_seconds / self.wall_seconds

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (inverse of :meth:`from_dict`)."""
        return {
            "schema": SPEC_SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "architecture": self.architecture,
            "num_threads": self.num_threads,
            "total_cycles": self.total_cycles,
            "cost": asdict(self.cost),
            "wall_seconds": self.wall_seconds,
            "num_instances": self.num_instances,
            "total_instructions": self.total_instructions,
            "ipc_samples": self.ipc_samples,
            "taskpoint": self.taskpoint,
            "spec_key": self.spec_key,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            benchmark=data["benchmark"],
            architecture=data["architecture"],
            num_threads=data["num_threads"],
            total_cycles=data["total_cycles"],
            cost=SimulationCost(**data["cost"]),
            wall_seconds=data.get("wall_seconds"),
            num_instances=data.get("num_instances", 0),
            total_instructions=data.get("total_instructions", 0),
            ipc_samples={
                task_type: [float(v) for v in values]
                for task_type, values in data.get("ipc_samples", {}).items()
            },
            taskpoint=data.get("taskpoint"),
            spec_key=data.get("spec_key", ""),
        )
