"""Tests for latency percentiles, budgets, and the metrics bundle."""

import pytest

from repro.service.metrics import (
    DEFAULT_BUDGET_MS,
    LatencyRecorder,
    ServiceMetrics,
    percentile,
    percentile_sorted,
)

pytestmark = pytest.mark.fast


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 99.0) == 0.0

    def test_single_sample(self):
        assert percentile([7.0], 50.0) == 7.0
        assert percentile([7.0], 99.0) == 7.0

    def test_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]  # 1..100
        assert percentile(samples, 50.0) == 50.0
        assert percentile(samples, 95.0) == 95.0
        assert percentile(samples, 99.0) == 99.0
        assert percentile(samples, 100.0) == 100.0

    def test_unsorted_input(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)


class TestPercentileEdgeCases:
    """Nearest-rank behavior on degenerate windows (0/1/2 samples,
    all-equal, tiny-window p99): the cases a latency dashboard hits in
    its first seconds of life."""

    @pytest.mark.parametrize("q", [0.0, 50.0, 95.0, 99.0, 100.0])
    def test_empty_window_is_zero_for_every_q(self, q):
        assert percentile([], q) == 0.0

    @pytest.mark.parametrize("q", [0.0, 50.0, 99.0, 100.0])
    def test_single_sample_dominates_every_q(self, q):
        assert percentile([42.0], q) == 42.0

    def test_two_samples_split_at_the_median(self):
        # rank = ceil(q/100 * 2): q<=50 -> first sample, q>50 -> second.
        assert percentile([1.0, 9.0], 50.0) == 1.0
        assert percentile([1.0, 9.0], 51.0) == 9.0
        assert percentile([1.0, 9.0], 95.0) == 9.0
        assert percentile([1.0, 9.0], 99.0) == 9.0

    def test_q_zero_is_the_minimum_not_an_index_error(self):
        # ceil(0) = 0 would index rank-1 = -1; the rank floor of 1
        # clamps q=0 to the smallest sample.
        assert percentile([5.0, 1.0, 3.0], 0.0) == 1.0

    def test_all_equal_samples_any_q(self):
        samples = [2.5] * 7
        for q in (0.0, 50.0, 95.0, 99.0, 100.0):
            assert percentile(samples, q) == 2.5

    def test_p99_tiny_windows_pick_the_max(self):
        # For n < 100, ceil(0.99 n) == n whenever 0.99 n > n - 1,
        # i.e. n < 100 -> p99 is exactly the max of the window.
        for n in (2, 3, 10, 99):
            samples = [float(i) for i in range(1, n + 1)]
            assert percentile(samples, 99.0) == float(n)

    def test_p99_first_distinguishes_at_n_100(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 99.0) == 99.0

    def test_percentile_sorted_matches_percentile(self):
        samples = [9.0, 1.0, 5.0, 3.0, 7.0]
        ordered = sorted(samples)
        for q in (0.0, 25.0, 50.0, 95.0, 99.0, 100.0):
            assert percentile_sorted(ordered, q) == percentile(samples, q)

    def test_percentile_sorted_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile_sorted([1.0], 100.5)

    def test_snapshot_of_empty_recorder_is_all_zero(self):
        snap = LatencyRecorder().snapshot()
        assert snap["count"] == 0
        assert snap["p50_ms"] == snap["p95_ms"] == snap["p99_ms"] == 0.0
        assert snap["max_ms"] == 0.0

    def test_snapshot_two_sample_window(self):
        recorder = LatencyRecorder(budget_ms=10.0)
        recorder.record(0.001)  # 1 ms
        recorder.record(0.009)  # 9 ms
        snap = recorder.snapshot()
        assert snap["p50_ms"] == 1.0
        assert snap["p95_ms"] == snap["p99_ms"] == snap["max_ms"] == 9.0


class TestLatencyRecorder:
    def test_records_in_ms(self):
        recorder = LatencyRecorder(budget_ms=10.0)
        recorder.record(0.002)  # 2 ms
        assert recorder.samples_ms == [2.0]
        assert recorder.over_budget == 0

    def test_over_budget_counted(self):
        recorder = LatencyRecorder(budget_ms=1.0)
        recorder.record(0.0005)
        recorder.record(0.0020)
        recorder.record(0.0030)
        assert recorder.over_budget == 2

    def test_budget_miss_smaller_than_the_rounding_still_counts(self):
        # 50.00004 ms is stored as 50.0, but the budget check reads the
        # raw sample: rounding at record time never hides a miss.
        recorder = LatencyRecorder(budget_ms=50.0)
        recorder.record(0.05000004)
        assert recorder.samples_ms == [50.0]
        assert recorder.over_budget == 1
        assert recorder.snapshot()["max_ms"] == 50.0

    def test_samples_in_record_order_plus_a_sorted_view(self):
        # samples_ms stays in record order (the cursor form of
        # shard_stats slices it); reads get a sorted view that is kept
        # and extended, never a sort of samples_ms itself.
        recorder = LatencyRecorder()
        for seconds in (0.003, 0.00123456, 0.002):
            recorder.record(seconds)
        ordered = recorder.sorted_ms()
        assert recorder.samples_ms == [3.0, 1.2346, 2.0]
        assert ordered == [1.2346, 2.0, 3.0]
        recorder.record(0.0015)
        assert recorder.sorted_ms() is ordered
        assert ordered == [1.2346, 1.5, 2.0, 3.0]
        assert recorder.samples_ms == [3.0, 1.2346, 2.0, 1.5]

    def test_each_recorder_gets_its_own_uid(self):
        uids = {LatencyRecorder().uid for _ in range(3)}
        assert len(uids) == 3

    def test_snapshot_shape(self):
        recorder = LatencyRecorder()
        recorder.record(0.001)
        snap = recorder.snapshot()
        assert snap["count"] == 1
        assert snap["budget_ms"] == DEFAULT_BUDGET_MS
        assert set(snap) == {"count", "p50_ms", "p95_ms", "p99_ms",
                             "max_ms", "budget_ms", "over_budget"}
        assert snap["p50_ms"] == snap["p99_ms"] == snap["max_ms"] == 1.0


class TestServiceMetrics:
    def test_queue_depth_high_water_mark(self):
        metrics = ServiceMetrics()
        metrics.set_queue_depth(3)
        metrics.set_queue_depth(9)
        metrics.set_queue_depth(1)
        assert metrics.queue_depth == 1
        assert metrics.max_queue_depth == 9

    def test_snapshot_shape(self):
        metrics = ServiceMetrics()
        metrics.counters["updates"].increment()
        snap = metrics.snapshot()
        assert snap["counters"] == {"updates": 1}
        assert snap["queue"] == {"depth": 0, "max_depth": 0}
        assert snap["latency"]["count"] == 0
