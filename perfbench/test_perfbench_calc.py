"""Tests of the benchmark's own arithmetic (percentiles, self time, overhead)
and of the serve request lists and process set-up it derives from them.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import collections
import math
import os
import statistics
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calc  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def span(id, start, end, parent=None, name="x", thread=1, phase="timed", info=None):
    return {
        "id": id, "parent": parent, "name": name, "start": start, "end": end,
        "thread": thread, "request": None, "phase": phase, "info": info,
    }


class TestPercentileGuard:
    def test_p99_needs_a_thousand_samples(self):
        with pytest.raises(calc.PercentileError):
            calc.percentile(range(999), 99)
        assert calc.percentile(range(1000), 99) == 989

    def test_ten_samples_must_rank_beyond(self):
        with pytest.raises(calc.PercentileError):
            calc.percentile(range(19), 50)
        assert calc.percentile(range(20), 50) == 9
        with pytest.raises(calc.PercentileError):
            calc.percentile(range(39), 75)
        assert calc.percentile(range(40), 75) == 29

    def test_single_sample_is_never_a_percentile(self):
        with pytest.raises(calc.PercentileError):
            calc.percentile([12.0], 50)

    def test_failures_rank_slower_than_any_latency(self):
        latencies = [float(i) for i in range(1, 101)]
        assert calc.percentile(latencies, 50) == 50.0
        # Ten failures join the top of the ranking and push p50 up.
        assert calc.percentile(latencies, 50, failures=10) == 55.0
        assert calc.percentile(latencies, 50, failures=101) == math.inf

    def test_failures_count_towards_the_tail(self):
        # 990 fast samples plus 10 failures: p99 is the slowest success.
        assert calc.percentile([1.0] * 990, 99, failures=10) == 1.0
        assert calc.percentile([1.0] * 989, 99, failures=11) == math.inf


class TestSelfTime:
    def test_nested_children(self):
        spans = [span(0, 0, 10), span(1, 2, 5, parent=0), span(2, 3, 4, parent=1)]
        assert calc.self_times(spans) == {0: 7, 1: 2, 2: 1}

    def test_concurrent_children_count_once(self):
        # A parent waiting while two workers run overlapping tasks.
        spans = [span(0, 0, 10), span(1, 1, 6, parent=0), span(2, 4, 8, parent=0)]
        assert calc.self_times(spans)[0] == 3

    def test_children_are_clipped_to_their_parent(self):
        spans = [span(0, 0, 10), span(1, 8, 12, parent=0)]
        assert calc.self_times(spans)[0] == 8

    def test_concurrent_handler_threads_are_independent(self):
        # Two requests in flight on two handler threads; each handle span
        # only loses the time of its own children.
        spans = [
            span(0, 0, 10, thread=1),
            span(1, 5, 15, thread=2),
            span(2, 2, 9, parent=0, thread=1),
            span(3, 6, 7, parent=1, thread=2),
        ]
        selves = calc.self_times(spans)
        assert selves[0] == 3 and selves[1] == 9

    def test_covered_merges_overlaps(self):
        assert calc.covered([(0, 4), (2, 6), (8, 9)], 0, 10) == 7
        assert calc.covered([(0, 4), (2, 6), (8, 9)], 3, 8.5) == 3.5
        assert calc.covered([], 0, 10) == 0


class TestOverheadAndSpread:
    def test_overhead_is_relative_to_untraced(self):
        assert calc.overhead_pct(110.0, 100.0) == pytest.approx(10.0)
        assert calc.overhead_pct(90.0, 100.0) == pytest.approx(-10.0)
        assert calc.overhead_pct(5.0, 5.0) == 0.0
        assert calc.overhead_pct(0.0, 0.0) == 0.0

    def test_spread_uses_statistics_quantiles(self):
        values = [9.0, 10.0, 10.5, 11.0, 30.0]
        q1, median, q3 = statistics.quantiles(values, n=4)
        assert calc.quartile_spread(values) == pytest.approx((q3 - q1) / median)


class TestRounds:
    def test_robust_round_votes_out_a_stall(self):
        # Two operations per round, three rounds; one stall in round 2.
        latencies = [100.0, 50.0, 100.0, 500.0, 110.0, 55.0]
        assert calc.robust_round_s(latencies, 2) == pytest.approx(0.155)

    def test_robust_round_skips_failed_operations(self):
        assert calc.robust_round_s([100.0, None, 120.0, 40.0], 2) == pytest.approx(0.15)

    def test_more_rounds_until_minimum_then_while_they_fit(self):
        assert calc.more_rounds([], 0.0, 15.0, 2)
        assert calc.more_rounds([6.0], 6.0, 15.0, 2)
        assert not calc.more_rounds([6.0, 6.0], 12.0, 15.0, 2)
        assert calc.more_rounds([4.0, 4.0], 8.0, 15.0, 2)


class TestLayerMetrics:
    def test_resolves_are_classified_and_batches_counted_once(self):
        spans = [
            span(0, 0, 10, name="coupling.resolve"),
            span(1, 1, 9, parent=0, name="coupling.build"),
            span(2, 10, 11, name="coupling.resolve"),
            span(3, 20, 30, name="evaluator.batch", info={"rows": 64}),
            span(4, 20, 22, parent=3, name="evaluator.submit", info={"rows": 64}),
            span(5, 22, 30, parent=3, name="evaluator.result", info={"pooled": True}),
            span(6, 31, 35, name="evaluator.submit", info={"rows": 32}),
            span(7, 40, 50, name="evaluator.submit", phase="warmup", info={"rows": 99}),
        ]
        metrics = layers.layer_metrics(spans, (0, 40), 1.0, 1)
        assert metrics["coupling.builds"] == 1
        assert metrics["coupling.process_hits"] == 1
        assert metrics["evaluator.batch_calls"] == 2
        assert metrics["evaluator.batch_rows"] == 96
        assert metrics["evaluator.batch_ms"] == pytest.approx(14e-6)
        assert metrics["pool.wait_ms"] == pytest.approx(8e-6)
        assert metrics["trace.span_coverage"] == pytest.approx(25 / 40)

    def test_handle_child_coverage(self):
        spans = [
            span(0, 0, 10, name="service.handle", thread=1, info={"ok": True, "status": 200}),
            span(1, 0, 9, parent=0, name="strategy.optimize", thread=1),
            span(2, 5, 15, name="service.handle", thread=2, info={"ok": False, "status": 429}),
            span(3, 5, 15, parent=2, name="service.parse", thread=2),
        ]
        metrics = layers.layer_metrics(spans, (0, 20), 1.0, 1)
        assert metrics["trace.handle_child_coverage"] == pytest.approx(19 / 20)
        assert metrics["trace.span_coverage"] == pytest.approx(15 / 20)
        assert metrics["service.errors"] == 1 and metrics["service.rejected"] == 1


class TestServeMix:
    ARCHITECTURES = [("pip", "mesh"), ("pip", "torus"), ("vopd", "mesh")]

    @staticmethod
    def composition(requests):
        return collections.Counter(
            (r["app"], r["topology"], r["kind"], r.get("strategy"), r.get("objective"))
            for r in requests
        )

    def test_kinds_are_equal_thirds_and_every_strategy_runs(self):
        types = run.serve_types()
        kinds = collections.Counter(t["kind"] for t in types)
        assert kinds == {"distribution": 10, "optimize": 10, "evaluate": 10}
        assert {
            (t["strategy"], t["objective"]) for t in types if t["kind"] == "optimize"
        } == {(s, o) for s in run.SERVE_STRATEGIES for o in run.SERVE_OBJECTIVES}

    def test_lists_come_in_architecture_pairs_with_one_composition(self):
        lists = run.serve_requests(7, self.ARCHITECTURES)
        assert len(lists) == run.PROCESSES
        reference = self.composition(run.serve_requests(8, self.ARCHITECTURES)[0])
        for requests in lists:
            assert len(requests) == 30 * len(self.ARCHITECTURES)
            assert self.composition(requests) == reference
            for a, b in zip(requests[::2], requests[1::2]):
                assert (a["app"], a["topology"]) == (b["app"], b["topology"])
        assert lists == run.serve_requests(7, self.ARCHITECTURES)


class TestProcessSetup:
    def test_daemon_gets_the_last_cpu(self, monkeypatch):
        monkeypatch.setattr(run.os, "sched_getaffinity", lambda pid: {3, 0, 1})
        assert run.split_cpus() == ([3], [0, 1])
        monkeypatch.setattr(run.os, "sched_getaffinity", lambda pid: {0})
        assert run.split_cpus() == (None, None)

    def test_program_switches_are_dropped(self, monkeypatch):
        monkeypatch.setenv("PHONOCMAP_MODEL_CACHE", "cache")
        monkeypatch.setenv("PHONOCMAP_CHAOS", "kill")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        env = run.child_env()
        assert not [name for name in env if name.startswith("PHONOCMAP_")]
        assert env["OPENBLAS_NUM_THREADS"] == "1"
