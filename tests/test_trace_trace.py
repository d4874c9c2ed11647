"""Unit tests for ApplicationTrace: validation, statistics, graph queries."""

import pytest

from repro.trace.records import MemoryEvent, make_record
from repro.trace.trace import ApplicationTrace, TraceValidationError

from tests.conftest import build_chain_trace, build_two_type_trace, build_uniform_trace


def _record(instance_id, task_type="t", instructions=100, depends_on=()):
    return make_record(instance_id, task_type, instructions, depends_on=depends_on)


class TestValidation:
    def test_dense_ids_required(self):
        with pytest.raises(TraceValidationError):
            ApplicationTrace(name="bad", records=[_record(1)])

    def test_forward_dependency_rejected(self):
        with pytest.raises(TraceValidationError):
            ApplicationTrace(name="bad", records=[_record(0, depends_on=(0,))])

    def test_dependency_on_later_instance_rejected(self):
        records = [_record(0), _record(1, depends_on=(1,))]
        with pytest.raises(TraceValidationError):
            ApplicationTrace(name="bad", records=records)

    def test_valid_trace_accepted(self):
        trace = ApplicationTrace(
            name="ok", records=[_record(0), _record(1, depends_on=(0,))]
        )
        assert len(trace) == 2


class TestQueries:
    def test_task_types_order_of_first_appearance(self):
        trace = build_two_type_trace(num_instances=6)
        assert trace.task_types == ("small", "large")

    def test_instances_of(self):
        trace = build_two_type_trace(num_instances=10)
        assert len(trace.instances_of("small")) == 5
        assert len(trace.instances_of("large")) == 5
        assert trace.instances_of("missing") == []

    def test_dependents_forward_map(self):
        trace = build_chain_trace(length=4)
        forward = trace.dependents()
        assert forward[0] == [1]
        assert forward[1] == [2]
        assert forward[3] == []

    def test_iteration_and_indexing(self):
        trace = build_uniform_trace(num_instances=5)
        assert [record.instance_id for record in trace] == [0, 1, 2, 3, 4]
        assert trace[3].instance_id == 3


class TestStatistics:
    def test_counts(self):
        trace = build_two_type_trace(num_instances=10)
        stats = trace.statistics()
        assert stats.num_task_instances == 10
        assert stats.num_task_types == 2
        assert stats.instances_per_type == {"small": 5, "large": 5}
        assert stats.total_instructions == 5 * 4_000 + 5 * 20_000

    def test_dominant_type_and_share(self):
        trace = build_two_type_trace(num_instances=10)
        stats = trace.statistics()
        assert stats.dominant_task_type == "large"
        assert stats.instruction_share("large") == pytest.approx(100_000 / 120_000)
        assert stats.instruction_share("missing") == 0.0

    def test_critical_path_serial_chain(self):
        trace = build_chain_trace(length=7)
        assert trace.critical_path_length() == 7
        assert trace.max_parallelism() == 1

    def test_critical_path_parallel(self):
        trace = build_uniform_trace(num_instances=9)
        assert trace.critical_path_length() == 1
        assert trace.max_parallelism() == 9
