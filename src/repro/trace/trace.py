"""Application traces: the complete dynamic task graph of a program run.

An :class:`ApplicationTrace` is what the TaskSim-style simulator replays.  It
contains every task instance created by the (synthetic) program, in creation
order, together with the dependency edges between them.  The trace also keeps
aggregate statistics used by Table I of the paper (number of task types,
number of task instances).

The trace is a :class:`~repro.trace.columns.TraceColumns` bundle of NumPy
arrays, validated once when the trace is constructed.  ``TaskTraceRecord``
views are materialised from the columns, all in one pass, the first time
record-oriented code (the per-record oracle, tests) asks for them.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.trace.columns import TraceColumns, TraceValidationError
from repro.trace.records import TaskTraceRecord

__all__ = ["ApplicationTrace", "TraceStatistics", "TraceValidationError"]


class TraceStatistics:
    """Aggregate statistics of an application trace (Table I columns)."""

    __slots__ = (
        "name",
        "num_task_types",
        "num_task_instances",
        "total_instructions",
        "total_memory_accesses",
        "instances_per_type",
        "instructions_per_type",
    )

    def __init__(
        self,
        name: str,
        num_task_types: int,
        num_task_instances: int,
        total_instructions: int,
        total_memory_accesses: int,
        instances_per_type: Dict[str, int],
        instructions_per_type: Dict[str, int],
    ) -> None:
        self.name = name
        self.num_task_types = num_task_types
        self.num_task_instances = num_task_instances
        self.total_instructions = total_instructions
        self.total_memory_accesses = total_memory_accesses
        self.instances_per_type = instances_per_type
        self.instructions_per_type = instructions_per_type

    @property
    def dominant_task_type(self) -> str:
        """Task type that accounts for the largest share of instructions."""
        return max(self.instructions_per_type, key=self.instructions_per_type.get)

    def instruction_share(self, task_type: str) -> float:
        """Fraction of all dynamic instructions contributed by ``task_type``."""
        if self.total_instructions == 0:
            return 0.0
        return self.instructions_per_type.get(task_type, 0) / self.total_instructions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceStatistics(name={self.name!r},"
            f" types={self.num_task_types}, instances={self.num_task_instances})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceStatistics):
            return NotImplemented
        return all(
            getattr(self, slot) == getattr(other, slot) for slot in self.__slots__
        )


class ApplicationTrace:
    """The trace of one application run, replayed by the simulator.

    Parameters
    ----------
    name:
        Benchmark name (e.g. ``"cholesky"``).
    records:
        Task-instance trace records in creation order (``records[i]`` must
        have ``instance_id == i``).  Mutually exclusive with ``columns``;
        the records are converted to columns and not kept.
    metadata:
        Free-form information recorded by the workload generator (problem
        size, scale factor, seed, ...).
    columns:
        Columnar trace data (the native representation).

    Every trace, generated, loaded or hand-built, is checked once by
    :meth:`TraceColumns.validate` here; a malformed one raises
    :class:`TraceValidationError`.
    """

    def __init__(
        self,
        name: str,
        records: Optional[Sequence[TaskTraceRecord]] = None,
        metadata: Optional[Dict[str, object]] = None,
        columns: Optional[TraceColumns] = None,
    ) -> None:
        if columns is not None and records is not None:
            raise ValueError("pass either records or columns, not both")
        self.name = name
        self.metadata: Dict[str, object] = metadata if metadata is not None else {}
        self._statistics: Optional[TraceStatistics] = None
        self._records: Optional[List[TaskTraceRecord]] = None
        if columns is None:
            columns = TraceColumns.from_records(records or [])
        columns.validate()
        self.columns = columns

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Run :meth:`TraceColumns.validate` again (construction ran it once)."""
        self.columns.validate()

    @property
    def records(self) -> List[TaskTraceRecord]:
        """Record views in creation order, materialised (and cached) lazily."""
        if self._records is None:
            self._records = self.columns.to_records()
        return self._records

    def __len__(self) -> int:
        return self.columns.num_records

    def __iter__(self) -> Iterator[TaskTraceRecord]:
        return iter(self.records)

    def __getitem__(self, instance_id: int) -> TaskTraceRecord:
        return self.records[instance_id]

    @property
    def task_types(self) -> Tuple[str, ...]:
        """Names of all task types, in order of first appearance."""
        return self.columns.types.names

    def instances_of(self, task_type: str) -> List[TaskTraceRecord]:
        """Return all instances of ``task_type`` in creation order."""
        return [record for record in self.records if record.task_type == task_type]

    def dependents(self) -> Dict[int, List[int]]:
        """Return the forward dependency map: instance id -> dependent ids."""
        offsets, targets = self.columns.dependents_csr()
        offsets_list = offsets.tolist()
        targets_list = targets.tolist()
        return {
            index: targets_list[offsets_list[index] : offsets_list[index + 1]]
            for index in range(len(self))
        }

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def statistics(self) -> TraceStatistics:
        """Aggregate statistics (Table I style), computed once and cached.

        The trace is immutable after construction, so the cache never needs
        invalidation in normal use; call :meth:`invalidate_caches` after
        (test-only) in-place surgery on the columns.
        """
        if self._statistics is None:
            columns = self.columns
            num_types = len(columns.types)
            instance_counts = np.bincount(
                columns.task_type_id, minlength=num_types
            ).astype(np.int64)
            # np.add.at keeps the accumulation in exact int64 arithmetic
            # (bincount's weighted path would round-trip through float64).
            instruction_counts = np.zeros(num_types, dtype=np.int64)
            np.add.at(instruction_counts, columns.task_type_id, columns.instructions)
            accesses = columns.memory_accesses_per_record()
            names = columns.types.names
            self._statistics = TraceStatistics(
                name=self.name,
                num_task_types=num_types,
                num_task_instances=len(self),
                total_instructions=int(columns.instructions.sum()),
                total_memory_accesses=int(accesses.sum()),
                instances_per_type={
                    names[i]: int(instance_counts[i]) for i in range(num_types)
                },
                instructions_per_type={
                    names[i]: int(instruction_counts[i]) for i in range(num_types)
                },
            )
        return self._statistics

    def invalidate_caches(self) -> None:
        """Drop cached statistics and record views (after manual mutation)."""
        self._statistics = None
        self._records = None

    def critical_path_length(self) -> int:
        """Return the number of instances on the longest dependency chain.

        Useful to characterise how much parallelism a workload exposes: an
        embarrassingly parallel kernel has a critical path of 1 while a
        reduction tree has a logarithmic one and a pipeline a linear one.
        """
        return self._depth_levels()[0]

    def max_parallelism(self) -> int:
        """Upper bound on concurrently-ready instances (instances per level)."""
        return self._depth_levels()[1]

    def _depth_levels(self) -> Tuple[int, int]:
        columns = self.columns
        n = columns.num_records
        if n == 0:
            return 0, 0
        dep_offsets = columns.dep_offsets.tolist()
        dep_targets = columns.dep_targets.tolist()
        depth = [1] * n
        per_level: Dict[int, int] = {}
        longest = 0
        for index in range(n):
            level = 1
            for position in range(dep_offsets[index], dep_offsets[index + 1]):
                dependency_level = depth[dep_targets[position]] + 1
                if dependency_level > level:
                    level = dependency_level
            depth[index] = level
            per_level[level] = per_level.get(level, 0) + 1
            if level > longest:
                longest = level
        return longest, max(per_level.values())
