"""Unit tests of the benchmark's own rules: tail percentile, self time, checks."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from measure import count_failed, tail_percentile  # noqa: E402
from spans import SpanRecorder, attributed, layer_self_times, self_times  # noqa: E402


class TestTailPercentile:
    def test_hundred_samples_give_p90(self):
        # p95 would leave only 5 samples beyond it.
        assert tail_percentile(range(1, 101)) == (90.0, 90.0, 100)

    def test_thousand_samples_give_p99(self):
        assert tail_percentile(range(1, 1001)) == (99.0, 990.0, 1000)

    def test_order_of_samples_does_not_matter(self):
        values = [float(v) for v in range(1, 101)]
        assert tail_percentile(values[::-1]) == tail_percentile(values)

    def test_twenty_samples_give_the_median(self):
        assert tail_percentile(range(1, 21)) == (50.0, 10.0, 20)

    def test_too_few_samples_give_no_tail(self):
        assert tail_percentile(range(1, 20)) is None
        assert tail_percentile([]) is None

    def test_ten_samples_beyond_is_enough(self):
        percentile, value, count = tail_percentile(range(1, 111))
        assert (percentile, count) == (90.0, 110)
        assert sum(1 for v in range(1, 111) if v > value) >= 10


def _row(name, start, end, parent=-1, spec=None):
    return [name, start, end, parent, spec]


class TestSelfTime:
    def test_nested_tree(self):
        rows = [
            _row("bench.call", 0.0, 10.0),
            _row("engine.detailed", 1.0, 4.0, 0),
            _row("plan.build", 2.0, 3.0, 1),
            _row("store.put", 5.0, 9.0, 0),
        ]
        assert self_times(rows) == pytest.approx([3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_count_once(self):
        rows = [
            _row("bench.window", 0.0, 10.0),
            _row("serve.watch", 1.0, 5.0, 0),
            _row("serve.watch", 3.0, 8.0, 0),
        ]
        assert self_times(rows)[0] == pytest.approx(3.0)

    def test_children_are_clipped_to_the_parent(self):
        rows = [_row("bench.call", 0.0, 2.0), _row("cli.exit", 1.5, 3.0, 0)]
        assert self_times(rows)[0] == pytest.approx(1.5)

    def test_layer_totals_exclude_harness_spans_from_attribution(self):
        rows = [
            _row("bench.call", 0.0, 10.0),
            _row("controller", 1.0, 2.0, 0),
            _row("controller", 3.0, 5.0, 0),
        ]
        totals = layer_self_times(rows)
        assert totals == pytest.approx({"bench.call": 7.0, "controller": 3.0})
        assert attributed(totals) == pytest.approx(3.0)

    def test_recorder_nests_and_inherits_spec_ids(self):
        recorder = SpanRecorder()
        with recorder.span("exp.runner", spec="abc") as outer:
            with recorder.span("engine.sampled") as inner:
                pass
        with recorder.span("store.put"):
            pass
        rows = recorder.rows
        assert rows[inner][3] == outer and rows[inner][4] == "abc"
        assert rows[2][3] == -1 and rows[2][4] is None
        own = self_times(rows)
        assert own[outer] == pytest.approx(
            (rows[outer][2] - rows[outer][1]) - (rows[inner][2] - rows[inner][1]))

    def test_merge_reroots_a_child_process_tree(self):
        child = SpanRecorder()
        with child.span("cli.main"):
            with child.span("trace.generate"):
                pass
        child.count("trace.calls")
        parent = SpanRecorder()
        call = parent.add("bench.call", 0.0, 1e9)
        parent.merge(child.rows, child.counts, parent=call)
        assert [row[3] for row in parent.rows] == [-1, call, call + 1]
        assert parent.counts["trace.calls"] == 1


class TestDigestChecks:
    def test_matching_digests_pass(self):
        assert count_failed([("done", "d1", "d1"), ("done", "d2", "d2")]) == 0

    def test_wrong_digest_fails(self):
        assert count_failed([("done", "d1", "other"), ("done", "d2", "d2")]) == 1

    def test_unfinished_job_fails_even_without_reference(self):
        assert count_failed([("failed", "", None), ("cancelled", "d", "d")]) == 2

    def test_job_without_reference_counts_on_status(self):
        assert count_failed([("done", "d1", None)]) == 0
