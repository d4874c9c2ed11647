"""Trace records describing the dynamic behaviour of task instances.

A task instance is the unit of work scheduled by the runtime system and the
sampling unit used by TaskPoint.  The trace of an instance summarises what the
instance does when executed:

* how many dynamic instructions it retires,
* which memory locations it touches (as a bounded list of *weighted* memory
  events, each standing in for ``weight`` real accesses with the same locality
  behaviour), and
* how those accesses are interleaved with computation (execution blocks).

Keeping the memory behaviour as a bounded list of weighted events is what
makes full detailed simulation of tens of thousands of task instances
tractable in pure Python while preserving the properties TaskPoint's
evaluation depends on: per-instance IPC that reacts to cache state, shared
resource contention and input-dependent working sets.

A trace is stored as columns (:mod:`repro.trace.columns`).  A
:class:`MemoryEvent` is one row of its event columns.  :class:`ExecutionBlock`
and :class:`TaskTraceRecord` are per-instance views of the columns: the
per-record oracle (:class:`~repro.sim.reference.ReferenceEngine`) replays
them, and small hand-built traces are written in them.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple


class MemoryEvent(
    namedtuple(
        "MemoryEvent",
        ("address", "is_write", "weight", "shared"),
        defaults=(False, 1, False),
    )
):
    """A single weighted memory access of a task instance.

    An event is a 4-tuple ``(address, is_write, weight, shared)``: one row of
    the event columns of :class:`~repro.trace.columns.TraceColumns`, which
    the column builder reads by tuple unpacking.

    Parameters
    ----------
    address:
        Byte address of the access.  Addresses are virtual and global to the
        application, so two task instances touching the same address share
        data (and cache lines).
    is_write:
        ``True`` for a store, ``False`` for a load.
    weight:
        Number of real accesses this event stands in for.  The detailed model
        resolves the event through the cache hierarchy once and charges its
        latency ``weight`` times with a diminishing-overlap factor.
    shared:
        Whether the address belongs to data shared between task instances
        (and therefore subject to invalidation by writers on other cores).
    """

    __slots__ = ()

    def __new__(
        cls, address: int, is_write: bool = False, weight: int = 1,
        shared: bool = False,
    ) -> "MemoryEvent":
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        return tuple.__new__(cls, (address, is_write, weight, shared))


@dataclass(frozen=True)
class ExecutionBlock:
    """A region of a task instance: compute instructions plus memory events.

    The detailed core model charges ``instructions`` dispatch cycles through
    the ROB-occupancy model and resolves the block's memory events through the
    cache hierarchy.  Blocks model the interleaving of computation and memory
    traffic within one task instance; they are the granularity at which
    memory-level parallelism is modelled.
    """

    instructions: int
    memory_events: Tuple[MemoryEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.instructions < 0:
            raise ValueError(
                f"instructions must be non-negative, got {self.instructions}"
            )
        if not isinstance(self.memory_events, tuple):
            object.__setattr__(self, "memory_events", tuple(self.memory_events))

    @property
    def memory_accesses(self) -> int:
        """Total number of real memory accesses represented by this block."""
        return sum(event.weight for event in self.memory_events)


@dataclass
class TaskTraceRecord:
    """Dynamic trace of one task instance.

    Attributes
    ----------
    instance_id:
        Unique, dense identifier of the task instance within its application
        trace.  Instance ids follow task creation order.
    task_type:
        Name of the task type (all instances created from the same task
        declaration share a type).
    instructions:
        Total dynamic instruction count of the instance.  This is the value
        TaskPoint's fast-forward mechanism multiplies by ``1 / IPC_T``.
    blocks:
        Execution blocks; their instruction counts sum to ``instructions``.
    depends_on:
        Instance ids this instance depends on (it only becomes ready once all
        of them completed).  Derived from the data dependencies declared by
        the task-based program.
    creation_order:
        Position in program order in which the runtime created the instance.
        The dynamic scheduler is free to execute ready instances in any order.
    """

    instance_id: int
    task_type: str
    instructions: int
    blocks: List[ExecutionBlock] = field(default_factory=list)
    depends_on: Tuple[int, ...] = ()
    creation_order: int = 0

    def __post_init__(self) -> None:
        if self.instance_id < 0:
            raise ValueError("instance_id must be non-negative")
        if self.instructions < 0:
            raise ValueError("instructions must be non-negative")
        if not isinstance(self.depends_on, tuple):
            self.depends_on = tuple(self.depends_on)
        if self.blocks:
            block_total = sum(block.instructions for block in self.blocks)
            if block_total != self.instructions:
                raise ValueError(
                    "sum of block instructions"
                    f" ({block_total}) does not match instance instruction count"
                    f" ({self.instructions})"
                )

    @property
    def memory_events(self) -> Iterator[MemoryEvent]:
        """Iterate over all memory events of the instance in program order."""
        for block in self.blocks:
            for event in block.memory_events:
                yield event

    @property
    def memory_accesses(self) -> int:
        """Total number of real memory accesses of the instance."""
        return sum(block.memory_accesses for block in self.blocks)

    @property
    def detail_events(self) -> int:
        """Number of memory events the detailed model resolves individually."""
        return sum(len(block.memory_events) for block in self.blocks)

    def working_set(self) -> int:
        """Approximate working-set size in bytes (distinct cache lines x 64)."""
        lines = {event.address // 64 for block in self.blocks for event in block.memory_events}
        return len(lines) * 64


def split_into_blocks(
    instructions: int,
    memory_events: Optional[Sequence[MemoryEvent]],
    blocks_hint: int,
) -> List[Tuple[int, List[MemoryEvent]]]:
    """Split a flat event list into ``(instructions, events)`` block tuples.

    Events are distributed round-robin over ``blocks_hint`` execution blocks
    and the instruction count is split evenly with the remainder charged to
    the last block.  This is the single definition of the split used by both
    :func:`make_record` and the columnar
    :meth:`~repro.trace.columns.ColumnBuilder.add_task`, keeping record-built
    and column-built traces bit-identical.
    """
    if blocks_hint < 1:
        raise ValueError("blocks_hint must be >= 1")
    events = list(memory_events or [])
    blocks_hint = max(1, min(blocks_hint, max(1, len(events))))
    per_block_instr = instructions // blocks_hint
    remainder = instructions - per_block_instr * blocks_hint
    return [
        (
            per_block_instr + (remainder if index == blocks_hint - 1 else 0),
            events[index::blocks_hint],
        )
        for index in range(blocks_hint)
    ]


def make_record(
    instance_id: int,
    task_type: str,
    instructions: int,
    memory_events: Optional[Sequence[MemoryEvent]] = None,
    depends_on: Sequence[int] = (),
    blocks_hint: int = 1,
    creation_order: Optional[int] = None,
) -> TaskTraceRecord:
    """Convenience constructor splitting a flat event list into blocks.

    The events are distributed round-robin over ``blocks_hint`` execution
    blocks and the instruction count is split evenly (see
    :func:`split_into_blocks`), which is sufficient for workload generators
    that do not care about intra-task phase behaviour.
    """
    blocks = [
        ExecutionBlock(instructions=block_instr, memory_events=tuple(block_events))
        for block_instr, block_events in split_into_blocks(
            instructions, memory_events, blocks_hint
        )
    ]
    return TaskTraceRecord(
        instance_id=instance_id,
        task_type=task_type,
        instructions=instructions,
        blocks=blocks,
        depends_on=tuple(depends_on),
        creation_order=creation_order if creation_order is not None else instance_id,
    )
