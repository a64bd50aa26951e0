"""Self-test of the benchmark's own rules. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import itertools
import json
import os
import unittest

import benchlib
from benchlib import FailureTally, percentile, tail_percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TailRuleTest(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(tail_percentile(99))  # p90 leaves 9.9
        self.assertEqual(tail_percentile(100), 90.0)
        self.assertEqual(tail_percentile(999), 90.0)  # p99 leaves 9.99
        self.assertEqual(tail_percentile(1000), 99.0)
        self.assertEqual(tail_percentile(9999), 99.0)
        self.assertEqual(tail_percentile(10000), 99.9)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 1001))  # 1..1000
        self.assertEqual(percentile(values, 50), 500)
        self.assertEqual(percentile(values, 90), 900)
        self.assertEqual(percentile(values, 99), 990)
        # At the rule's pick, at least ten samples lie above the value.
        pct = tail_percentile(len(values))
        cut = percentile(values, pct)
        self.assertGreaterEqual(sum(v > cut for v in values), 10)
        self.assertEqual(percentile([7.0], 99.9), 7.0)
        with self.assertRaises(ValueError):
            percentile([], 50)

    def test_workload_tail_choice_matches_rule_at_run_length(self):
        # Query counts these workloads complete in a 12 s run on a 4-core
        # host, as floors below their quiet-host counts.
        floor_queries = {"point-queries": 2000, "whole-graph": 200,
                         "mutating-graph": 1000}
        for name, w in benchlib.WORKLOADS.items():
            self.assertEqual(w.tail_pct, tail_percentile(floor_queries[name]),
                             name)


class FailureAccountingTest(unittest.TestCase):
    def test_each_failure_kind_counts_against_attempted(self):
        for kind in ("reject", "timeout", "mismatch", "job_error"):
            tally = FailureTally()
            tally.attempt(4)
            tally.fail(kind, "x")
            self.assertEqual(tally.failed, 1, kind)
            self.assertAlmostEqual(tally.failed_frac, 0.25)
            self.assertEqual(tally.counts[kind], 1)

    def test_kinds_add_up(self):
        tally = FailureTally()
        tally.attempt(10)
        tally.fail("reject")
        tally.fail("timeout")
        tally.fail("mismatch")
        tally.fail("mismatch")
        self.assertEqual(tally.failed, 4)
        self.assertAlmostEqual(tally.failed_frac, 0.4)

    def test_clean_run_and_nothing_attempted(self):
        tally = FailureTally()
        tally.attempt(3)
        self.assertEqual(tally.failed, 0)
        self.assertEqual(tally.failed_frac, 0.0)
        # Nothing attempted is not a pass.
        self.assertEqual(FailureTally().failed_frac, 1.0)

    def test_unknown_kind_is_refused(self):
        with self.assertRaises(ValueError):
            FailureTally().fail("slow")


class StreamTest(unittest.TestCase):
    def test_streams_are_seeded_and_distinct(self):
        w = benchlib.WORKLOADS["point-queries"]
        take = lambda s, c: list(itertools.islice(  # noqa: E731
            benchlib.client_stream(w, s, c), 200))
        self.assertEqual(take(1, 0), take(1, 0))
        self.assertNotEqual(take(1, 0), take(2, 0))
        self.assertNotEqual(take(1, 0), take(1, 1))

    def test_app_mix_is_seed_free(self):
        w = benchlib.WORKLOADS["whole-graph"]
        for seed in (1, 2, 3):
            lines = list(itertools.islice(
                benchlib.client_stream(w, seed, 0), 300))
            counts = {a: sum(l.split()[2] == a for l in lines)
                      for a in w.apps}
            self.assertEqual(set(counts.values()), {100}, counts)

    def test_mutations_every_kth_request_with_valid_edges(self):
        w = benchlib.WORKLOADS["mutating-graph"]
        lines = list(itertools.islice(benchlib.client_stream(w, 5, 0), 80))
        for i, line in enumerate(lines, start=1):
            tok = line.split()
            self.assertEqual(tok[0] == "mutate", i % w.mutate_every == 0)
            if tok[0] == "mutate":
                edges = [tok[k:k + 4] for k in range(3, len(tok), 4)]
                self.assertEqual(len(edges), benchlib.MUTATE_EDGES)
                for _, src, dst, weight in edges:
                    self.assertNotEqual(src, dst)
                    self.assertLess(int(src), w.vertices)
                    self.assertLess(int(dst), w.vertices)
                    self.assertGreaterEqual(int(weight), 1)

    def test_roots_stay_in_the_fixed_pool(self):
        w = benchlib.WORKLOADS["point-queries"]
        pool = set(benchlib.root_pool(w.graph, w.vertices))
        self.assertEqual(len(pool), benchlib.ROOT_POOL)
        for line in itertools.islice(benchlib.client_stream(w, 9, 3), 500):
            self.assertIn(int(line.split()[4]), pool)

    def test_never_more_clients_than_cores(self):
        for w in benchlib.WORKLOADS.values():
            self.assertLessEqual(w.clients, 4)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_reports(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         benchlib.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         benchlib.layer_metric_units())
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]},
                         {n: w.why for n, w in benchlib.WORKLOADS.items()})


if __name__ == "__main__":
    unittest.main()
