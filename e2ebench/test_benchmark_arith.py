"""Unit tests of the benchmark's own arithmetic and load generator.

    python3 e2ebench/run.py --self-test
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from arith import (  # noqa: E402
    backlog_growing, ladder_rates, ladder_top, percentile, rung_passes, self_times,
    supported, tail_percentile,
)
from loadgen import Request, StubServer, encode_request, run_open_loop  # noqa: E402
from spans import SpanRecorder, coverage  # noqa: E402


class PercentileTests(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 50.0), 50)
        self.assertEqual(percentile(values, 99.0), 99)
        self.assertEqual(percentile(values, 100.0), 100)

    def test_failures_sort_last(self):
        values = [1.0] * 98 + [float("inf")] * 2
        self.assertEqual(percentile(values, 98.0), 1.0)
        self.assertEqual(percentile(values, 99.0), float("inf"))

    def test_p99_needs_ten_samples_beyond(self):
        self.assertFalse(supported(999, 99.0))
        self.assertTrue(supported(1000, 99.0))
        self.assertFalse(supported(99, 90.0))
        self.assertTrue(supported(100, 90.0))

    def test_tail_percentile_falls_back(self):
        self.assertEqual(tail_percentile(list(range(1000)))[0], 99.0)
        self.assertEqual(tail_percentile(list(range(999)))[0], 95.0)
        self.assertEqual(tail_percentile(list(range(10_000)))[0], 99.9)
        self.assertEqual(tail_percentile(list(range(25)))[0], 50.0)
        self.assertIsNone(tail_percentile(list(range(19))))


class LadderTests(unittest.TestCase):
    def test_rates_step_by_ten_percent(self):
        rates = ladder_rates(100.0, 3)
        for got, want in zip(rates, (110.0, 121.0, 133.1)):
            self.assertAlmostEqual(got, want)

    def test_stops_at_first_failure(self):
        self.assertEqual(ladder_top([True, True, False, True]), 1)
        self.assertEqual(ladder_top([True, True, True]), 2)
        self.assertEqual(ladder_top([False, True]), -1)
        self.assertEqual(ladder_top([]), -1)

    def test_each_condition_fails_a_rung(self):
        self.assertTrue(rung_passes(25.0, 0, False, 25.0))
        self.assertFalse(rung_passes(25.01, 0, False, 25.0))
        self.assertFalse(rung_passes(1.0, 1, False, 25.0))
        self.assertFalse(rung_passes(1.0, 0, True, 25.0))
        self.assertFalse(rung_passes(float("inf"), 0, False, 25.0))


class BacklogTests(unittest.TestCase):
    def test_linear_growth_is_growing(self):
        samples = [(t / 100.0, t) for t in range(100)]
        self.assertTrue(backlog_growing(samples, 1000, 2))

    def test_flat_backlog_is_steady(self):
        samples = [(t / 100.0, t % 2) for t in range(100)]
        self.assertFalse(backlog_growing(samples, 1000, 2))

    def test_drained_stall_is_steady(self):
        samples = [(t / 100.0, 80 if 40 <= t < 50 else 0) for t in range(100)]
        self.assertFalse(backlog_growing(samples, 1000, 2))

    def test_small_tail_within_slack(self):
        samples = [(t / 100.0, 30 if t >= 95 else 0) for t in range(100)]
        self.assertFalse(backlog_growing(samples, 1000, 2))
        self.assertTrue(backlog_growing(samples, 100, 2))


class SpanTests(unittest.TestCase):
    def test_self_time_subtracts_children_once(self):
        spans = [
            {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
            {"id": 2, "parent": 1, "start": 1.0, "end": 3.0},
            {"id": 3, "parent": 1, "start": 2.0, "end": 5.0},
            {"id": 4, "parent": 1, "start": 8.0, "end": 12.0},
            {"id": 5, "parent": 3, "start": 2.5, "end": 3.5},
        ]
        selfs = self_times(spans)
        self.assertAlmostEqual(selfs[1], 10.0 - 4.0 - 2.0)
        self.assertAlmostEqual(selfs[2], 2.0)
        self.assertAlmostEqual(selfs[3], 2.0)
        self.assertAlmostEqual(selfs[5], 1.0)

    def test_recorder_nests_and_charges_each_next(self):
        ticks = iter(range(100))
        recorder = SpanRecorder(clock=lambda: float(next(ticks)))

        def produce():
            yield 1
            yield 2

        wrapped = recorder.wrap("parse", produce)
        with recorder.span("root") as root:
            items = list(wrapped())
        self.assertEqual(items, [1, 2])
        parses = [s for s in recorder.spans if s["name"] == "parse"]
        self.assertEqual(len(parses), 3)  # two items, then the exhausted call
        self.assertTrue(all(s["parent"] == root for s in parses))
        self.assertEqual(recorder.spans[-1]["name"], "root")

    def test_coverage_skips_runners_but_counts_their_children(self):
        spans = [
            {"id": 1, "name": "fit", "parent": None, "start": 0.0, "end": 10.0},
            {"id": 2, "name": "core.pipeline", "parent": 1, "start": 0.0, "end": 10.0},
            {"id": 3, "name": "cluster.stage", "parent": 2, "start": 1.0, "end": 6.0},
            {"id": 4, "name": "io.save", "parent": 1, "start": 6.0, "end": 9.0},
        ]
        self.assertAlmostEqual(coverage(spans, 1, frozenset({"core.pipeline"})), 0.8)


class OpenLoopTests(unittest.TestCase):
    def test_latency_counts_from_due_time_through_a_stall(self):
        # One connection; request 10 is held back 200 ms.  Requests that fall
        # due meanwhile wait in the backlog, and their latency includes the
        # wait even though the server answers each at once after sending.
        paths = [f"/r/{i}" for i in range(40)]
        requests = [Request("get", encode_request("GET", p)) for p in paths]
        with StubServer(stalls={"/r/10": 0.2}) as stub:
            report = run_open_loop("127.0.0.1", stub.port, requests, 100.0, connections=1)
        self.assertEqual(report.failed, 0)
        outcomes = report.outcomes
        self.assertGreaterEqual(outcomes[10].latency_s, 0.2)
        waited = outcomes[11]
        self.assertGreaterEqual(waited.sent - waited.due, 0.15)
        self.assertGreaterEqual(waited.latency_s, 0.15)
        self.assertLess(waited.done - waited.sent, 0.1)
        self.assertGreater(max(report.late_ms()), 150.0)
        self.assertLess(outcomes[-1].latency_s, 0.1)


if __name__ == "__main__":
    unittest.main()
