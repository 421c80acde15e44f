"""Self-tests of the benchmark harness (no build, no cargo, a few seconds).

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

REPO_ROOT = os.path.dirname(run.BENCH_DIR)


class SpecGeneration(unittest.TestCase):
    def test_same_seed_gives_byte_identical_specs(self):
        for workload in run.WORKLOADS[:2]:
            self.assertEqual(
                run.make_spec(workload, 7, REPO_ROOT).encode(),
                run.make_spec(workload, 7, REPO_ROOT).encode(),
            )

    def test_other_seed_gives_other_module_set_of_same_size(self):
        for workload in run.WORKLOADS[:2]:
            a = run.spec_modules(run.make_spec(workload, 1, REPO_ROOT))
            b = run.spec_modules(run.make_spec(workload, 2, REPO_ROOT))
            self.assertEqual(len(a), len(b))
            self.assertNotEqual(sorted(a), sorted(b), workload)

    def test_seeds_draw_fixed_counts_from_each_menu(self):
        for spec, menus in ((run.acmin_spec, run.ACMIN_MODULES), (run.sweep_spec, run.SWEEP_MODULES)):
            for seed in range(20):
                modules = run.spec_modules(spec(seed))
                self.assertEqual(len(set(modules)), len(modules))
                for menu, picks in menus:
                    self.assertEqual(len(set(modules) & set(menu)), picks)

    def test_quick_warm_runs_the_golden_grid(self):
        with open(os.path.join(REPO_ROOT, "examples", "quick_acmin.toml"), encoding="utf-8") as f:
            self.assertEqual(run.make_spec("quick-warm", 3, REPO_ROOT), f.read())


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.reference = os.path.join(self.dir.name, "reference.jsonl")
        self.merged = os.path.join(self.dir.name, "merged.jsonl")
        for path in (self.reference, self.merged):
            with open(path, "w", encoding="utf-8") as f:
                f.write('{"trial": 1}\n{"trial": 2}\n')
        self.digest = run.file_digest(self.reference)

    def tearDown(self):
        self.dir.cleanup()

    def test_matching_stream_and_clean_exit_pass(self):
        self.assertTrue(run.campaign_output_ok(0, self.merged, self.digest))

    def test_corrupted_merged_stream_fails_the_op(self):
        with open(self.merged, "r+b") as f:
            f.seek(5)
            f.write(b"X")
        self.assertFalse(run.campaign_output_ok(0, self.merged, self.digest))

    def test_missing_merged_stream_fails_the_op(self):
        os.remove(self.merged)
        self.assertFalse(run.campaign_output_ok(0, self.merged, self.digest))

    def test_non_zero_exit_fails_the_op(self):
        sample = run.spawn([sys.executable, "-c", "import sys; sys.exit(4)"], self.dir.name)
        self.assertEqual(sample.code, 4)
        self.assertFalse(run.campaign_output_ok(sample.code, self.merged, self.digest))

    def test_golden_checksum_matches_the_pinned_stream_definition(self):
        # The checksum of tests/golden.rs folds the byte length in last, so
        # equal-prefix streams of different lengths differ.
        self.assertNotEqual(run.golden_checksum(b"abc"), run.golden_checksum(b"abc\0"))
        self.assertFalse(run.campaign_output_ok(0, self.merged, self.digest, golden=True))


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            self.bench = json.load(f)

    def test_end_to_end_names_and_units_match_benchmark_json(self):
        declared = [(m["name"], m["unit"]) for m in self.bench["end_to_end"]]
        self.assertEqual(declared, run.END_TO_END)

    def test_per_layer_names_and_units_match_benchmark_json(self):
        declared = [(m["name"], m["unit"]) for m in self.bench["per_layer"]]
        self.assertEqual(declared, run.per_layer_metrics())

    def test_workload_names_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(run.WORKLOADS))

    def test_every_figure_target_has_a_pinned_digest(self):
        benches = os.path.join(REPO_ROOT, "crates", "bench", "benches")
        targets = sorted(
            name[:-3] for name in os.listdir(benches) if name.startswith(("fig", "table"))
        )
        self.assertEqual(targets, sorted(run.load_digests()))


if __name__ == "__main__":
    unittest.main()
