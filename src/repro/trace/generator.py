"""Incremental construction of application traces.

Workload generators describe their task graph instance by instance; the
:class:`TraceBuilder` takes care of instance numbering, block splitting and
dependency bookkeeping and finally produces a validated
:class:`~repro.trace.trace.ApplicationTrace`.

The builder emits directly into a :class:`~repro.trace.columns.ColumnBuilder`:
no ``TaskTraceRecord`` objects are allocated during generation, and each
:class:`~repro.trace.records.MemoryEvent` is a tuple that becomes one row of
the event columns.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.trace.columns import ColumnBuilder
from repro.trace.patterns import AddressSpaceAllocator
from repro.trace.records import MemoryEvent
from repro.trace.trace import ApplicationTrace


class TraceBuilder:
    """Builds an :class:`ApplicationTrace` one task instance at a time.

    The builder owns the :class:`AddressSpaceAllocator` of the trace, so two
    builders fed the same calls lay out the same addresses.  Randomness is
    the caller's: :meth:`repro.workloads.base.Workload.generate` hands each
    workload a :class:`random.Random` seeded from its name and ``seed``;
    ``seed`` here is only recorded in the trace metadata.
    """

    def __init__(self, name: str, seed: int = 0) -> None:
        self.name = name
        self.seed = seed
        self.allocator = AddressSpaceAllocator()
        self._columns = ColumnBuilder()
        self._metadata: Dict[str, object] = {"seed": seed}

    # ------------------------------------------------------------------
    @property
    def next_instance_id(self) -> int:
        """Identifier the next :meth:`add_task` call will receive."""
        return self._columns.num_records

    @property
    def num_instances(self) -> int:
        """Number of task instances added so far."""
        return self._columns.num_records

    def last_instance_id(self) -> Optional[int]:
        """Return the id of the most recently added instance, if any."""
        if self._columns.num_records == 0:
            return None
        return self._columns.num_records - 1

    def set_metadata(self, key: str, value: object) -> None:
        """Attach generator metadata (problem size, scale, ...) to the trace."""
        self._metadata[key] = value

    # ------------------------------------------------------------------
    def add_task(
        self,
        task_type: str,
        instructions: int,
        memory_events: Optional[Sequence[MemoryEvent]] = None,
        depends_on: Sequence[int] = (),
        blocks: int = 4,
    ) -> int:
        """Add one task instance and return its instance id.

        Parameters mirror :func:`repro.trace.records.make_record` (events are
        split round-robin over ``blocks`` execution blocks); dependencies
        must refer to instances already added to this builder.
        """
        instance_id = self.next_instance_id
        for dependency in depends_on:
            if dependency < 0 or dependency >= instance_id:
                raise ValueError(
                    f"dependency {dependency} does not refer to an earlier instance"
                )
        return self._columns.add_task(
            task_type=task_type,
            instructions=instructions,
            memory_events=memory_events,
            depends_on=depends_on,
            blocks_hint=blocks,
        )

    def build(self) -> ApplicationTrace:
        """Finalise and validate the trace."""
        return ApplicationTrace(
            name=self.name,
            columns=self._columns.build(),
            metadata=dict(self._metadata),
        )
