"""Unit tests for the trace builder and trace serialisation."""

import pytest

from repro.trace.generator import TraceBuilder
from repro.trace.io import load_trace, save_trace
from repro.trace.records import MemoryEvent
from repro.workloads.registry import get_workload


class TestTraceBuilder:
    def test_instance_ids_are_dense(self):
        builder = TraceBuilder("test", seed=1)
        ids = [builder.add_task("t", instructions=10) for _ in range(5)]
        assert ids == [0, 1, 2, 3, 4]
        assert builder.num_instances == 5
        assert builder.last_instance_id() == 4

    def test_next_instance_id(self):
        builder = TraceBuilder("test")
        assert builder.next_instance_id == 0
        assert builder.last_instance_id() is None
        builder.add_task("t", instructions=1)
        assert builder.next_instance_id == 1

    def test_dependency_must_exist(self):
        builder = TraceBuilder("test")
        builder.add_task("t", instructions=1)
        with pytest.raises(ValueError):
            builder.add_task("t", instructions=1, depends_on=[5])

    def test_metadata_recorded(self):
        builder = TraceBuilder("test", seed=42)
        builder.set_metadata("problem_size", 128)
        trace = builder.build()
        assert trace.metadata["seed"] == 42
        assert trace.metadata["problem_size"] == 128

    def test_same_seed_same_trace(self):
        first = get_workload("n-body").generate(scale=0.003, seed=11)
        second = get_workload("n-body").generate(scale=0.003, seed=11)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.task_type == b.task_type
            assert a.instructions == b.instructions
            assert a.depends_on == b.depends_on

    def test_different_seed_different_trace(self):
        first = get_workload("freqmine").generate(scale=0.01, seed=1)
        second = get_workload("freqmine").generate(scale=0.01, seed=2)
        assert [r.instructions for r in first] != [r.instructions for r in second]


class TestTraceIO:
    def _sample_trace(self):
        builder = TraceBuilder("io-test", seed=3)
        region = builder.allocator.allocate(4096)
        builder.set_metadata("purpose", "roundtrip")
        builder.add_task(
            "alpha",
            instructions=100,
            memory_events=[MemoryEvent(address=region.base, weight=2, is_write=True)],
        )
        builder.add_task("beta", instructions=200, depends_on=[0])
        return builder.build()

    def test_roundtrip_json(self, tmp_path):
        # The JSON header of the archive carries the name and metadata.
        trace = self._sample_trace()
        path = save_trace(trace, tmp_path / "trace.npz")
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert loaded.metadata["purpose"] == "roundtrip"
        assert len(loaded) == len(trace)
        assert loaded[0].task_type == "alpha"
        assert loaded[0].blocks[0].memory_events[0].is_write is True
        assert loaded[1].depends_on == (0,)

    def test_unsupported_version_rejected(self, tmp_path):
        # .npz is the only trace format; an archive's own version is checked
        # by test_npz_rejects_unknown_version.
        trace = self._sample_trace()
        for name in ("trace.json", "trace.json.gz", "trace"):
            with pytest.raises(ValueError, match="npz"):
                save_trace(trace, tmp_path / name)
            (tmp_path / name).write_text('{"format_version": 1, "records": []}')
            with pytest.raises(ValueError, match="npz"):
                load_trace(tmp_path / name)

    def test_roundtrip_preserves_statistics(self, tmp_path):
        trace = get_workload("reduction").generate(scale=0.004, seed=5)
        path = save_trace(trace, tmp_path / "reduction.npz")
        loaded = load_trace(path)
        assert loaded.statistics() == trace.statistics()
        assert loaded.critical_path_length() == trace.critical_path_length()
