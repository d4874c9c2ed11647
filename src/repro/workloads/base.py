"""Workload base class and shared generation helpers.

A workload knows the paper-reported properties of its benchmark (number of
task types, number of task instances, behavioural notes from Table I) and how
to generate a synthetic application trace with the same structure at an
arbitrary scale.

Scaling: ``generate(scale=1.0)`` produces the paper's instance count;
smaller scales shrink the instance count proportionally (never below
``min_instances``) so the complete evaluation grid runs in minutes in pure
Python.

Generators emit through :class:`~repro.trace.generator.TraceBuilder`
straight into the trace columns (:mod:`repro.trace.columns`): each
:class:`~repro.trace.records.MemoryEvent` a helper below returns is a tuple
that becomes one row of the event columns, and no ``TaskTraceRecord`` is
allocated during generation.  Instruction counts per instance are already
scaled down relative to the native benchmarks (the sampling methodology is
insensitive to the absolute magnitude — only the per-type IPC and the
relative instance sizes matter).
"""

from __future__ import annotations

import abc
import math
import random
import zlib
from dataclasses import dataclass
from itertools import zip_longest
from typing import List, Optional, Sequence

from repro.trace.generator import TraceBuilder
from repro.trace.patterns import (
    AddressSpace,
    random_accesses,
    reuse_accesses,
    strided_accesses,
)
from repro.trace.records import MemoryEvent
from repro.trace.trace import ApplicationTrace

#: Version of the trace generators.  On-disk trace caches key entries on it
#: (:mod:`repro.exp.tracecache`), so bump it with any change that alters a
#: generated trace; ``tests/test_trace_cache.py`` pins a digest of every
#: workload's trace to this number and fails until both are updated.
GENERATOR_VERSION = 1


@dataclass(frozen=True)
class WorkloadInfo:
    """Static description of a benchmark (the paper's Table I row)."""

    name: str
    category: str                 # "kernel", "application" or "parsec"
    paper_task_types: int
    paper_task_instances: int
    properties: str


class Workload(abc.ABC):
    """Base class of all benchmark workloads.

    Subclasses define the class attributes ``name``, ``category``,
    ``paper_task_types``, ``paper_task_instances`` and ``properties`` and
    implement :meth:`build`, which adds task instances to a
    :class:`~repro.trace.generator.TraceBuilder`.
    """

    #: Benchmark name as it appears in Table I.
    name: str = "abstract"
    #: Benchmark group: "kernel", "application" or "parsec".
    category: str = "kernel"
    #: Number of task types reported by Table I.
    paper_task_types: int = 1
    #: Number of task instances reported by Table I.
    paper_task_instances: int = 16384
    #: The Table I "Properties" note.
    properties: str = ""
    #: Smallest number of instances generated regardless of scale.
    min_instances: int = 48

    # ------------------------------------------------------------------
    @classmethod
    def info(cls) -> WorkloadInfo:
        """Return the static Table I description of this benchmark."""
        return WorkloadInfo(
            name=cls.name,
            category=cls.category,
            paper_task_types=cls.paper_task_types,
            paper_task_instances=cls.paper_task_instances,
            properties=cls.properties,
        )

    def instances_for_scale(self, scale: float) -> int:
        """Number of task instances generated for ``scale``."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        return max(self.min_instances, int(round(self.paper_task_instances * scale)))

    def generate(self, scale: float = 1.0, seed: int = 0) -> ApplicationTrace:
        """Generate the application trace of this benchmark.

        Parameters
        ----------
        scale:
            Fraction of the paper's task-instance count to generate
            (1.0 reproduces Table I; the experiment drivers default to much
            smaller values).
        seed:
            Seed of the generator; the same (scale, seed) pair always yields
            the same trace.
        """
        num_instances = self.instances_for_scale(scale)
        builder = TraceBuilder(name=self.name, seed=seed)
        builder.set_metadata("scale", scale)
        builder.set_metadata("category", self.category)
        builder.set_metadata("paper_task_instances", self.paper_task_instances)
        # zlib.crc32 rather than hash(): str hashes are randomised per
        # process (PYTHONHASHSEED), which would make the "same trace for the
        # same (scale, seed)" contract hold only within a single process and
        # break cross-process experiment reproducibility.
        rng = random.Random((seed * 1_000_003) ^ zlib.crc32(self.name.encode("utf-8")))
        self.build(builder, num_instances, rng)
        trace = builder.build()
        return trace

    @abc.abstractmethod
    def build(self, builder: TraceBuilder, num_instances: int, rng: random.Random) -> None:
        """Add ``num_instances`` task instances to ``builder``."""

    # ------------------------------------------------------------------
    # Shared generation helpers
    # ------------------------------------------------------------------
    @staticmethod
    def jittered(rng: random.Random, mean: float, jitter: float = 0.03) -> int:
        """An integer near ``mean`` with relative uniform jitter ``jitter``."""
        low = mean * (1.0 - jitter)
        high = mean * (1.0 + jitter)
        return max(1, int(rng.uniform(low, high)))

    @staticmethod
    def lognormal(rng: random.Random, median: float, sigma: float) -> int:
        """A heavy-tailed integer around ``median`` (log-normal with ``sigma``)."""
        return max(1, int(median * math.exp(rng.gauss(0.0, sigma))))

    @staticmethod
    def streaming_events(
        rng: random.Random,
        region: AddressSpace,
        events: int,
        accesses: int,
        start: int = 0,
        stride: int = 64,
        write_fraction: float = 0.1,
    ) -> List[MemoryEvent]:
        """Strided (streaming) access events starting at ``start``."""
        return strided_accesses(
            region,
            count=events,
            total_accesses=accesses,
            stride=stride,
            start=start,
            write_fraction=write_fraction,
            rng=rng,
        )

    @staticmethod
    def irregular_events(
        rng: random.Random,
        region: AddressSpace,
        events: int,
        accesses: int,
        write_fraction: float = 0.1,
    ) -> List[MemoryEvent]:
        """Random access events within ``region``."""
        return random_accesses(
            region,
            count=events,
            total_accesses=accesses,
            write_fraction=write_fraction,
            rng=rng,
        )

    @staticmethod
    def reuse_events(
        rng: random.Random,
        region: AddressSpace,
        events: int,
        accesses: int,
        hot_lines: int = 16,
        write_fraction: float = 0.1,
    ) -> List[MemoryEvent]:
        """Events that repeatedly touch a small hot set in ``region``."""
        return reuse_accesses(
            region,
            count=events,
            total_accesses=accesses,
            hot_lines=hot_lines,
            write_fraction=write_fraction,
            rng=rng,
        )

    @staticmethod
    def combine(*event_lists: Sequence[MemoryEvent]) -> List[MemoryEvent]:
        """Interleave several event lists into one, preserving rough order.

        Takes one event from each list in turn, skipping exhausted lists.
        """
        return [
            event
            for row in zip_longest(*event_lists)
            for event in row
            if event is not None
        ]
