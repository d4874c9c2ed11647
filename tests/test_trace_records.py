"""Unit tests for trace records (memory events, blocks, task records)."""

import pytest

from repro.trace.records import (
    ExecutionBlock,
    MemoryEvent,
    TaskTraceRecord,
    make_record,
)


class TestMemoryEvent:
    def test_defaults(self):
        event = MemoryEvent(address=128)
        assert event.address == 128
        assert event.is_write is False
        assert event.weight == 1
        assert event.shared is False

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            MemoryEvent(address=-1)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            MemoryEvent(address=0, weight=0)

    def test_frozen(self):
        event = MemoryEvent(address=64)
        with pytest.raises(AttributeError):
            event.address = 128

    def test_unpacks_as_a_column_row(self):
        event = MemoryEvent(address=192, is_write=True, weight=3, shared=True)
        address, is_write, weight, shared = event
        assert (address, is_write, weight, shared) == (192, True, 3, True)
        assert MemoryEvent(64) == (64, False, 1, False)


class TestExecutionBlock:
    def test_memory_accesses_sums_weights(self):
        block = ExecutionBlock(
            instructions=100,
            memory_events=(
                MemoryEvent(address=0, weight=3),
                MemoryEvent(address=64, weight=7),
            ),
        )
        assert block.memory_accesses == 10

    def test_negative_instructions_rejected(self):
        with pytest.raises(ValueError):
            ExecutionBlock(instructions=-1)

    def test_list_events_coerced_to_tuple(self):
        block = ExecutionBlock(instructions=1, memory_events=[MemoryEvent(address=0)])
        assert isinstance(block.memory_events, tuple)


class TestTaskTraceRecord:
    def test_block_instruction_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TaskTraceRecord(
                instance_id=0,
                task_type="t",
                instructions=100,
                blocks=[ExecutionBlock(instructions=50)],
            )

    def test_properties(self):
        record = make_record(
            instance_id=3,
            task_type="work",
            instructions=1000,
            memory_events=[MemoryEvent(address=i * 64, weight=2) for i in range(10)],
            blocks_hint=2,
        )
        assert record.instance_id == 3
        assert record.instructions == 1000
        assert sum(b.instructions for b in record.blocks) == 1000
        assert record.memory_accesses == 20
        assert record.detail_events == 10
        assert record.working_set() == 10 * 64
        assert len(list(record.memory_events)) == 10

    def test_make_record_single_block_when_no_events(self):
        record = make_record(instance_id=0, task_type="t", instructions=500)
        assert len(record.blocks) == 1
        assert record.blocks[0].instructions == 500
        assert record.memory_accesses == 0

    def test_make_record_rejects_bad_blocks_hint(self):
        with pytest.raises(ValueError):
            make_record(instance_id=0, task_type="t", instructions=10, blocks_hint=0)

    def test_negative_instance_id_rejected(self):
        with pytest.raises(ValueError):
            TaskTraceRecord(instance_id=-1, task_type="t", instructions=0)

    def test_depends_on_coerced_to_tuple(self):
        record = TaskTraceRecord(
            instance_id=2, task_type="t", instructions=0, depends_on=[0, 1]
        )
        assert record.depends_on == (0, 1)

    def test_working_set_counts_distinct_lines(self):
        events = [MemoryEvent(address=0), MemoryEvent(address=32), MemoryEvent(address=64)]
        record = make_record(0, "t", 100, memory_events=events, blocks_hint=1)
        # Addresses 0 and 32 share a 64-byte line.
        assert record.working_set() == 2 * 64
