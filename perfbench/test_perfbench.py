"""Tests for the benchmark's own helpers.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from measure import digest_bytes, digest_files, tail_percentile  # noqa: E402
from run import Ledger  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        samples = list(range(1, 121))  # 120 samples: p90 leaves 12 beyond, p95 only 6
        pct, value = tail_percentile(samples)
        self.assertEqual(pct, 90.0)
        self.assertEqual(value, 108)
        self.assertGreaterEqual(sum(1 for s in samples if s > value), 10)

    def test_exactly_ten_beyond_qualifies(self):
        samples = [float(i) for i in range(1000)]
        pct, value = tail_percentile(list(reversed(samples)))
        self.assertEqual(pct, 99.0)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_too_few_samples_gives_the_maximum(self):
        self.assertEqual(tail_percentile([3.0, 1.0, 2.0]), (100.0, 3.0))

    def test_twenty_samples_fall_back_to_the_median(self):
        pct, value = tail_percentile(list(range(20)))
        self.assertEqual((pct, value), (50.0, 9))


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_subtract_direct_children_only(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        tracer.begin("outer")          # t=0
        clock.now = 10
        tracer.begin("middle")         # t=10
        clock.now = 15
        tracer.begin("inner")          # t=15
        clock.now = 40
        tracer.end()                   # inner 25
        clock.now = 50
        tracer.end()                   # middle 40, self 15
        clock.now = 55
        tracer.begin("inner")          # a second direct child of outer
        clock.now = 60
        tracer.end()                   # inner 5
        clock.now = 100
        tracer.end()                   # outer 100, self 100 - 40 - 5
        totals = self_times(tracer.spans)
        self.assertEqual(totals["outer"], {"self_ns": 55, "calls": 1})
        self.assertEqual(totals["middle"], {"self_ns": 15, "calls": 1})
        self.assertEqual(totals["inner"], {"self_ns": 30, "calls": 2})
        self.assertEqual(sum(t["self_ns"] for t in totals.values()), 100)

    def test_wrappers_record_calls_and_generator_steps(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def leaf(x):
            clock.now += 3
            return x

        def gen(n):
            for i in range(n):
                clock.now += 2
                yield traced_leaf(i)

        traced_leaf = tracer.wrap("leaf", leaf)
        self.assertEqual(list(tracer.wrap_iter("gen", gen)(2)), [0, 1])
        totals = self_times(tracer.spans)
        self.assertEqual(totals["leaf"], {"self_ns": 6, "calls": 2})
        # two steps that yield plus the one that ends the iteration
        self.assertEqual(totals["gen"], {"self_ns": 4, "calls": 3})

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer(FakeClock())

        def boom():
            raise ValueError("boom")

        with self.assertRaises(ValueError):
            tracer.wrap("boom", boom)()
        tracer.begin("after")
        tracer.end()
        self.assertEqual(tracer.spans[-1][1], -1)  # "after" has no open parent


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.tmp.name, "weights.jsonl")
        with open(self.path, "w") as handle:
            handle.write('{"query_id":"q1","objective_value":0.25}\n')

    def tearDown(self):
        self.tmp.cleanup()

    def perturb(self):
        with open(self.path, "r+") as handle:
            text = handle.read().replace("0.25", "0.26")
            handle.seek(0)
            handle.write(text)

    def test_perturbed_output_fails_against_the_reference(self):
        ledger = Ledger({"weights": digest_files([self.path])})
        ledger.record("weights", ledger.digest_problems("weights", digest_files([self.path])))
        self.perturb()
        ledger.record("weights", ledger.digest_problems("weights", digest_files([self.path])))
        self.assertEqual((ledger.attempted, ledger.failed), (2, 1))

    def test_perturbed_output_fails_against_the_first_run(self):
        ledger = Ledger({})
        ledger.record("weights", ledger.digest_problems("weights", digest_files([self.path])))
        self.perturb()
        ledger.record("weights", ledger.digest_problems("weights", digest_files([self.path])))
        self.assertEqual((ledger.attempted, ledger.failed), (2, 1))

    def test_digest_bytes_matches_digest_files(self):
        with open(self.path, "rb") as handle:
            data = handle.read()
        self.assertEqual(digest_bytes([data]), digest_files([self.path]))

    def test_verification_gap_above_tolerance_fails(self):
        ledger = Ledger({})
        passing = (
            "equivalence: 3 group(s), 0 trivial, max rel gap 2.000e-16 (tol 1.0e-09) ... ok\n"
            "identities: 3 group(s), 0 trivial, max rel gap 1.000e-13 (tol 1.0e-12) ... ok\n"
        )
        self.assertEqual(ledger.gap_problems(passing, want_identities=True), [])
        too_wide = passing.replace("1.000e-13", "5.000e-12")
        self.assertEqual(len(ledger.gap_problems(too_wide, want_identities=True)), 1)
        self.assertEqual(len(ledger.gap_problems("", want_identities=False)), 1)


if __name__ == "__main__":
    unittest.main()
