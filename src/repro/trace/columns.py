"""Columnar storage of application traces (the trace backbone).

An application trace of *n* task instances with *B* execution blocks and *E*
memory events is stored as a small set of NumPy arrays instead of a list of
``TaskTraceRecord`` dataclasses:

* **record columns** (length ``n``): ``task_type_id``, ``instructions`` and
  ``creation_order``, with task-type names interned in a
  :class:`TaskTypeTable` (first-appearance order, matching the semantics of
  ``ApplicationTrace.task_types``),
* **dependency CSR** (``dep_offsets``/``dep_targets``): the flattened
  ``depends_on`` edges, indexable per record without per-record tuples,
* **block CSR** (``block_offsets``/``block_instructions``): the execution
  blocks of every record, and
* **event CSR** (``event_offsets`` plus ``event_address``,
  ``event_is_write``, ``event_weight``, ``event_shared``): the weighted
  memory events of every block.

The columns are the one form of a trace that code writes, stores and
checks.  :class:`ColumnBuilder` is the way in: workload generators append
instances to it, and :meth:`TraceColumns.from_records` feeds it a hand-built
record list.  :meth:`TraceColumns.to_records` is the way out: it
materialises every ``TaskTraceRecord`` view in one pass, for the per-record
oracle.  :meth:`TraceColumns.validate` checks every trace, generated, loaded
or hand-built.  Everything downstream that is performance critical — the
batched detailed-cost evaluation in :mod:`repro.arch.batch`, dependency
tracking, trace statistics — operates directly on the arrays.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.trace.records import (
    ExecutionBlock,
    MemoryEvent,
    TaskTraceRecord,
    split_into_blocks,
)


class TraceValidationError(ValueError):
    """Raised when an application trace violates a structural invariant."""


class TaskTypeTable:
    """Interned task-type names, id-assigned in first-appearance order."""

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        for name in names:
            self.intern(name)

    def intern(self, name: str) -> int:
        """Return the id of ``name``, assigning the next id if unseen."""
        type_id = self._ids.get(name)
        if type_id is None:
            type_id = len(self._names)
            self._ids[name] = type_id
            self._names.append(name)
        return type_id

    @property
    def names(self) -> Tuple[str, ...]:
        """All interned names, in id (= first appearance) order."""
        return tuple(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskTypeTable):
            return NotImplemented
        return self._names == other._names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskTypeTable({self._names!r})"


def _as_array(values: Sequence, dtype) -> np.ndarray:
    array = np.asarray(values, dtype=dtype)
    if array.ndim != 1:
        array = array.reshape(-1)
    return array


class TraceColumns:
    """Columnar form of one application trace (see module docstring).

    All offset arrays are int64 and have one more entry than the axis they
    index (CSR convention): record ``i`` owns blocks
    ``block_offsets[i]:block_offsets[i+1]``, and block ``b`` owns events
    ``event_offsets[b]:event_offsets[b+1]``.
    """

    #: The array attributes, in storage order.
    ARRAYS = (
        "task_type_id",
        "instructions",
        "creation_order",
        "dep_offsets",
        "dep_targets",
        "block_offsets",
        "block_instructions",
        "event_offsets",
        "event_address",
        "event_is_write",
        "event_weight",
        "event_shared",
    )

    __slots__ = ("types", *ARRAYS, "_record_event_offsets", "plan_cache")

    def __init__(
        self,
        types: TaskTypeTable,
        task_type_id: Sequence[int],
        instructions: Sequence[int],
        creation_order: Sequence[int],
        dep_offsets: Sequence[int],
        dep_targets: Sequence[int],
        block_offsets: Sequence[int],
        block_instructions: Sequence[int],
        event_offsets: Sequence[int],
        event_address: Sequence[int],
        event_is_write: Sequence[bool],
        event_weight: Sequence[int],
        event_shared: Sequence[bool],
    ) -> None:
        self.types = types
        self.task_type_id = _as_array(task_type_id, np.int32)
        self.instructions = _as_array(instructions, np.int64)
        self.creation_order = _as_array(creation_order, np.int64)
        self.dep_offsets = _as_array(dep_offsets, np.int64)
        self.dep_targets = _as_array(dep_targets, np.int64)
        self.block_offsets = _as_array(block_offsets, np.int64)
        self.block_instructions = _as_array(block_instructions, np.int64)
        self.event_offsets = _as_array(event_offsets, np.int64)
        self.event_address = _as_array(event_address, np.int64)
        self.event_is_write = _as_array(event_is_write, np.bool_)
        self.event_weight = _as_array(event_weight, np.int64)
        self.event_shared = _as_array(event_shared, np.bool_)
        self._record_event_offsets: Optional[np.ndarray] = None
        # Derived-data memo used by consumers (e.g. the batched executor
        # caches its static execution plan here, keyed by model geometry, so
        # repeated simulations of one trace skip the precomputation).
        self.plan_cache: Dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        """Number of task instances."""
        return int(self.task_type_id.shape[0])

    @property
    def num_blocks(self) -> int:
        """Total number of execution blocks across all records."""
        return int(self.block_instructions.shape[0])

    @property
    def num_events(self) -> int:
        """Total number of (weighted) memory events across all records."""
        return int(self.event_address.shape[0])

    def __len__(self) -> int:
        return self.num_records

    @property
    def record_event_offsets(self) -> np.ndarray:
        """Event CSR collapsed to record granularity (length ``n + 1``)."""
        if self._record_event_offsets is None:
            self._record_event_offsets = self.event_offsets[self.block_offsets]
        return self._record_event_offsets

    # ------------------------------------------------------------------
    # Per-record aggregates (vectorised)
    # ------------------------------------------------------------------
    def memory_accesses_per_record(self) -> np.ndarray:
        """Total real accesses (sum of event weights) per record."""
        cumulative = np.concatenate(
            ([0], np.cumsum(self.event_weight, dtype=np.int64))
        )
        offsets = self.record_event_offsets
        return cumulative[offsets[1:]] - cumulative[offsets[:-1]]

    def detail_events_per_record(self) -> np.ndarray:
        """Number of individually resolved memory events per record."""
        offsets = self.record_event_offsets
        return offsets[1:] - offsets[:-1]

    def dependency_counts(self) -> np.ndarray:
        """Number of dependencies per record."""
        return self.dep_offsets[1:] - self.dep_offsets[:-1]

    #: Column order of :meth:`instance_signatures`.
    SIGNATURE_FIELDS = (
        "instructions",     # dynamic instruction count
        "blocks",           # execution-block count (block geometry)
        "detail_events",    # individually resolved memory events
        "memory_accesses",  # weighted (real) memory accesses
        "fan_in",           # dependency fan-in: how many records this one feeds
        "fan_out",          # dependency fan-out: how many records feed this one
    )

    def instance_signatures(self) -> np.ndarray:
        """Cheap per-instance signatures for stratified sampling (phase 1).

        Returns an ``(n, len(SIGNATURE_FIELDS))`` float64 matrix computed
        entirely from the columnar arrays — per-instance op counts, block
        geometry and dependency fan-in/out — with **no** detailed simulation.
        The matrix is memoised in :attr:`plan_cache` (it is read once per
        stratification, but the same warmed trace serves many specs).
        """
        cached = self.plan_cache.get(("instance_signatures",))
        if cached is not None:
            return cached
        fan_in = np.bincount(
            self.dep_targets, minlength=self.num_records
        ).astype(np.int64)[: self.num_records]
        signatures = np.column_stack(
            [
                self.instructions.astype(np.float64),
                (self.block_offsets[1:] - self.block_offsets[:-1]).astype(np.float64),
                self.detail_events_per_record().astype(np.float64),
                self.memory_accesses_per_record().astype(np.float64),
                fan_in.astype(np.float64),
                self.dependency_counts().astype(np.float64),
            ]
        )
        self.plan_cache[("instance_signatures",)] = signatures
        return signatures

    def dependents_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Forward dependency edges as (offsets, targets) CSR arrays.

        ``targets[offsets[i]:offsets[i+1]]`` are the ids of the records that
        depend on record ``i``, in ascending id order.
        """
        n = self.num_records
        counts = np.bincount(self.dep_targets, minlength=n).astype(np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        # Dependent ids sorted per dependency: a stable sort of dep_targets
        # keeps the (already ascending) dependent order within each group.
        source = np.repeat(
            np.arange(n, dtype=np.int64), self.dependency_counts()
        )
        order = np.argsort(self.dep_targets, kind="stable")
        return offsets, source[order]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check that the columns form a well-formed trace.

        Array integrity first: offset arrays of the right length, monotone
        and spanning their body arrays; parallel arrays of equal length;
        type ids inside the interned table; no negative instruction count
        or address, no event weight below 1.  Then the semantic invariants,
        vectorised: every dependency points to an earlier instance (so the
        task graph is acyclic), and a record's blocks sum to its instruction
        count.  Instance-id density is implicit: a record's id *is* its
        position in the columns.  Raises :class:`TraceValidationError`.
        """

        def fail(message: str) -> None:
            raise TraceValidationError(f"inconsistent trace columns: {message}")

        n = self.num_records
        for name in ("instructions", "creation_order"):
            if getattr(self, name).shape[0] != n:
                fail(f"{name} has {getattr(self, name).shape[0]} entries, expected {n}")
        for name, offsets, body, axis in (
            ("dep_offsets", self.dep_offsets, self.dep_targets.shape[0], n),
            ("block_offsets", self.block_offsets, self.num_blocks, n),
            ("event_offsets", self.event_offsets, self.num_events, self.num_blocks),
        ):
            if offsets.shape[0] != axis + 1:
                fail(f"{name} has {offsets.shape[0]} entries, expected {axis + 1}")
            if offsets[0] != 0 or offsets[-1] != body:
                fail(f"{name} does not span [0, {body}]")
            if offsets.size > 1 and bool(np.any(np.diff(offsets) < 0)):
                fail(f"{name} is not monotone")
        num_events = self.num_events
        for name in ("event_is_write", "event_weight", "event_shared"):
            if getattr(self, name).shape[0] != num_events:
                fail(f"{name} has {getattr(self, name).shape[0]} entries,"
                     f" expected {num_events}")
        if n and (
            int(self.task_type_id.min()) < 0
            or int(self.task_type_id.max()) >= len(self.types)
        ):
            fail("task_type_id outside the interned type table")
        if n and int(self.instructions.min()) < 0:
            fail("negative instruction count")
        if self.num_blocks and int(self.block_instructions.min()) < 0:
            fail("negative block instruction count")
        if num_events:
            if int(self.event_address.min()) < 0:
                fail("negative event address")
            if int(self.event_weight.min()) < 1:
                fail("event weight below 1")

        if self.dep_targets.size:
            owner = np.repeat(
                np.arange(n, dtype=np.int64), self.dependency_counts()
            )
            bad = (self.dep_targets < 0) | (self.dep_targets >= owner)
            if bad.any():
                index = int(np.argmax(bad))
                raise TraceValidationError(
                    f"instance {int(owner[index])} depends on"
                    f" {int(self.dep_targets[index])}, which is not an earlier"
                    " instance"
                )
        cumulative = np.concatenate(
            ([0], np.cumsum(self.block_instructions, dtype=np.int64))
        )
        block_sums = cumulative[self.block_offsets[1:]] - cumulative[self.block_offsets[:-1]]
        empty = self.block_offsets[:-1] == self.block_offsets[1:]
        mismatch = (block_sums != self.instructions) & ~empty
        if mismatch.any():
            index = int(np.argmax(mismatch))
            raise TraceValidationError(
                f"instance {index}: sum of block instructions"
                f" ({int(block_sums[index])}) does not match instance"
                f" instruction count ({int(self.instructions[index])})"
            )

    # ------------------------------------------------------------------
    # Record views
    # ------------------------------------------------------------------
    def to_records(self) -> List[TaskTraceRecord]:
        """Materialise every record view in one pass (Python ints throughout)."""
        type_names = self.types.names
        type_ids = self.task_type_id.tolist()
        instructions = self.instructions.tolist()
        creation = self.creation_order.tolist()
        dep_offsets = self.dep_offsets.tolist()
        dep_targets = self.dep_targets.tolist()
        block_offsets = self.block_offsets.tolist()
        block_instr = self.block_instructions.tolist()
        event_offsets = self.event_offsets.tolist()
        # The columns are validated, so the rows skip MemoryEvent's checks.
        events = list(map(MemoryEvent._make, zip(
            self.event_address.tolist(),
            self.event_is_write.tolist(),
            self.event_weight.tolist(),
            self.event_shared.tolist(),
        )))
        return [
            TaskTraceRecord(
                instance_id=index,
                task_type=type_names[type_ids[index]],
                instructions=instructions[index],
                blocks=[
                    ExecutionBlock(
                        instructions=block_instr[block],
                        memory_events=tuple(
                            events[event_offsets[block]:event_offsets[block + 1]]
                        ),
                    )
                    for block in range(block_offsets[index], block_offsets[index + 1])
                ],
                depends_on=tuple(dep_targets[dep_offsets[index]:dep_offsets[index + 1]]),
                creation_order=creation[index],
            )
            for index in range(self.num_records)
        ]

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Sequence[TaskTraceRecord]) -> "TraceColumns":
        """Build columns from a hand-built record list.

        ``records[i]`` must have ``instance_id == i``; the other invariants
        are left to :meth:`validate`.
        """
        builder = ColumnBuilder()
        for position, record in enumerate(records):
            if record.instance_id != position:
                raise TraceValidationError(
                    f"record at position {position} has instance_id"
                    f" {record.instance_id}"
                )
            builder.add_prepared(
                task_type=record.task_type,
                instructions=record.instructions,
                blocks=[
                    (block.instructions, block.memory_events)
                    for block in record.blocks
                ],
                depends_on=record.depends_on,
                creation_order=record.creation_order,
            )
        return builder.build()

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceColumns):
            return NotImplemented
        return self.types == other.types and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.ARRAYS
        )


class ColumnBuilder:
    """Accumulates trace columns one task instance at a time.

    This is the emission target of the workload generators: appends go to
    plain Python lists (cheap), and :meth:`build` converts them to NumPy
    arrays once.  Block splitting follows the exact semantics of
    :func:`repro.trace.records.make_record` so column-built and record-built
    traces are indistinguishable.
    """

    def __init__(self) -> None:
        self.types = TaskTypeTable()
        self._task_type_id: List[int] = []
        self._instructions: List[int] = []
        self._creation_order: List[int] = []
        self._dep_offsets: List[int] = [0]
        self._dep_targets: List[int] = []
        self._block_offsets: List[int] = [0]
        self._block_instructions: List[int] = []
        self._event_offsets: List[int] = [0]
        self._event_address: List[int] = []
        self._event_is_write: List[bool] = []
        self._event_weight: List[int] = []
        self._event_shared: List[bool] = []

    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        """Number of task instances added so far."""
        return len(self._task_type_id)

    def add_task(
        self,
        task_type: str,
        instructions: int,
        memory_events: Optional[Sequence[MemoryEvent]] = None,
        depends_on: Sequence[int] = (),
        blocks_hint: int = 1,
        creation_order: Optional[int] = None,
    ) -> int:
        """Append one instance, splitting events into blocks like ``make_record``."""
        if instructions < 0:
            raise ValueError("instructions must be non-negative")
        blocks = split_into_blocks(instructions, memory_events, blocks_hint)
        return self.add_prepared(
            task_type=task_type,
            instructions=instructions,
            blocks=blocks,
            depends_on=depends_on,
            creation_order=creation_order,
        )

    def add_prepared(
        self,
        task_type: str,
        instructions: int,
        blocks: Sequence[Tuple[int, Sequence[MemoryEvent]]],
        depends_on: Sequence[int] = (),
        creation_order: Optional[int] = None,
    ) -> int:
        """Append one instance with an explicit block structure."""
        instance_id = len(self._task_type_id)
        self._task_type_id.append(self.types.intern(task_type))
        self._instructions.append(instructions)
        self._creation_order.append(
            creation_order if creation_order is not None else instance_id
        )
        self._dep_targets.extend(int(dep) for dep in depends_on)
        self._dep_offsets.append(len(self._dep_targets))
        event_address = self._event_address
        event_is_write = self._event_is_write
        event_weight = self._event_weight
        event_shared = self._event_shared
        for block_instructions, events in blocks:
            self._block_instructions.append(block_instructions)
            for address, is_write, weight, shared in events:
                event_address.append(address)
                event_is_write.append(is_write)
                event_weight.append(weight)
                event_shared.append(shared)
            self._event_offsets.append(len(event_address))
        self._block_offsets.append(len(self._block_instructions))
        return instance_id

    def build(self) -> TraceColumns:
        """Freeze the accumulated lists into :class:`TraceColumns`."""
        return TraceColumns(
            types=self.types,
            task_type_id=self._task_type_id,
            instructions=self._instructions,
            creation_order=self._creation_order,
            dep_offsets=self._dep_offsets,
            dep_targets=self._dep_targets,
            block_offsets=self._block_offsets,
            block_instructions=self._block_instructions,
            event_offsets=self._event_offsets,
            event_address=self._event_address,
            event_is_write=self._event_is_write,
            event_weight=self._event_weight,
            event_shared=self._event_shared,
        )
