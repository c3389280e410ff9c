#!/usr/bin/env python3
"""Unit tests for bench/check_regression.py, runnable via ctest or directly:

    python3 bench/test_check_regression.py

The load-bearing cases are the MISSING-bench ones: a bench named in the
baseline but absent from a results file must be a hard failure in every mode
(a silently skipped bench reads as "no regression" when the regression is
total), including --update, which previously warned and exited 0."""

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "check_regression", Path(__file__).resolve().parent / "check_regression.py")
check_regression = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_regression)


def bench_result(name, value, counter="sim_s_per_wall_s"):
    return {"name": name, "run_type": "iteration", counter: value}


class CheckRegressionTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def write(self, name, payload):
        path = self.dir / name
        path.write_text(json.dumps(payload))
        return str(path)

    def run_main(self, baseline, results, *flags):
        baseline_path = self.write("baseline.json", baseline)
        results_path = self.write("results.json", {"benchmarks": results})
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = check_regression.main(
                [results_path, "--baseline", baseline_path, *flags])
        return code, out.getvalue() + err.getvalue(), baseline_path

    # --- missing benches are fatal everywhere --------------------------------

    def test_missing_bench_fails_check(self):
        baseline = {"calibrated": True, "benchmarks": {"BM_Gone": {"value": 10.0}}}
        code, output, _ = self.run_main(baseline, [])
        self.assertEqual(code, 1)
        self.assertIn("MISSING", output)

    def test_missing_bench_fails_check_absolute(self):
        baseline = {"calibrated": True, "benchmarks": {"BM_Gone": {"value": 10.0}}}
        code, output, _ = self.run_main(baseline, [], "--absolute")
        self.assertEqual(code, 1)
        self.assertIn("MISSING", output)

    def test_missing_counter_fails_even_when_bench_ran(self):
        baseline = {"benchmarks": {"BM_A": {"value": 10.0, "counter": "jobs_per_s"}}}
        code, output, _ = self.run_main(baseline, [bench_result("BM_A", 10.0)])
        self.assertEqual(code, 1)
        self.assertIn("MISSING", output)

    def test_missing_ratio_operand_fails(self):
        baseline = {"benchmarks": {},
                    "ratios": {"speedup": {"numerator": "BM_Fast",
                                           "denominator": "BM_Slow", "min": 3.0}}}
        code, output, _ = self.run_main(baseline, [bench_result("BM_Fast", 30.0)])
        self.assertEqual(code, 1)
        self.assertIn("MISSING", output)

    def test_update_with_missing_bench_fails_and_keeps_baseline(self):
        baseline = {"benchmarks": {"BM_Gone": {"value": 10.0}}}
        code, output, baseline_path = self.run_main(baseline, [], "--update")
        self.assertEqual(code, 1)
        self.assertIn("MISSING", output)
        self.assertEqual(
            json.loads(Path(baseline_path).read_text()), baseline,
            "a failed --update must not rewrite the baseline file")

    def test_update_allow_missing_keeps_old_value(self):
        baseline = {"benchmarks": {"BM_Gone": {"value": 10.0},
                                   "BM_A": {"value": 1.0}}}
        code, output, baseline_path = self.run_main(
            baseline, [bench_result("BM_A", 2.0)], "--update", "--allow-missing")
        self.assertEqual(code, 0)
        self.assertIn("keeping old value", output)
        updated = json.loads(Path(baseline_path).read_text())
        self.assertEqual(updated["benchmarks"]["BM_Gone"]["value"], 10.0)
        self.assertEqual(updated["benchmarks"]["BM_A"]["value"], 2.0)

    # --- the pre-existing gates still work -----------------------------------

    def test_within_tolerance_passes(self):
        baseline = {"calibrated": True, "benchmarks": {"BM_A": {"value": 10.0}}}
        code, output, _ = self.run_main(
            baseline, [bench_result("BM_A", 9.0)], "--absolute")
        self.assertEqual(code, 0)
        self.assertIn("perf gate passed", output)

    def test_calibrated_absolute_regression_fails(self):
        baseline = {"calibrated": True, "benchmarks": {"BM_A": {"value": 10.0}}}
        code, output, _ = self.run_main(
            baseline, [bench_result("BM_A", 5.0)], "--absolute")
        self.assertEqual(code, 1)
        self.assertIn("REGRESSED", output)

    def test_uncalibrated_absolute_miss_is_not_fatal(self):
        baseline = {"calibrated": False, "benchmarks": {"BM_A": {"value": 10.0}}}
        code, output, _ = self.run_main(
            baseline, [bench_result("BM_A", 5.0)], "--absolute")
        self.assertEqual(code, 0)
        self.assertIn("UNCALIBRATED", output)

    def test_ratio_below_floor_fails(self):
        baseline = {"benchmarks": {},
                    "ratios": {"speedup": {"numerator": "BM_Fast",
                                           "denominator": "BM_Slow", "min": 3.0}}}
        results = [bench_result("BM_Fast", 20.0), bench_result("BM_Slow", 10.0)]
        code, output, _ = self.run_main(baseline, results)
        self.assertEqual(code, 1)
        self.assertIn("BELOW-FLOOR", output)

    # --- failure lines are single-line grep-able records ---------------------

    def failure_lines(self, output):
        return [l for l in output.splitlines() if l.startswith("PERF-FAIL")]

    def test_ratio_failure_is_one_greppable_line(self):
        baseline = {"benchmarks": {},
                    "ratios": {"speedup": {"numerator": "BM_Fast",
                                           "denominator": "BM_Slow", "min": 3.0}}}
        results = [bench_result("BM_Fast", 20.0), bench_result("BM_Slow", 10.0)]
        code, output, _ = self.run_main(baseline, results)
        self.assertEqual(code, 1)
        lines = self.failure_lines(output)
        self.assertEqual(len(lines), 1, output)
        # Bench/ratio name AND measured-vs-floor ratio on the same line.
        self.assertIn("name=speedup", lines[0])
        self.assertIn("measured=2.00x", lines[0])
        self.assertIn("floor=3.00x", lines[0])
        self.assertIn("numerator=BM_Fast", lines[0])

    def test_absolute_failure_is_one_greppable_line(self):
        baseline = {"calibrated": True, "benchmarks": {"BM_A": {"value": 10.0}}}
        code, output, _ = self.run_main(
            baseline, [bench_result("BM_A", 5.0)], "--absolute")
        self.assertEqual(code, 1)
        lines = self.failure_lines(output)
        self.assertEqual(len(lines), 1, output)
        self.assertIn("name=BM_A", lines[0])
        self.assertIn("measured=5", lines[0])
        self.assertIn("ratio=0.50x", lines[0])
        self.assertIn("floor=0.85x", lines[0])

    def test_missing_failure_is_one_greppable_line(self):
        baseline = {"benchmarks": {"BM_Gone": {"value": 10.0}}}
        code, output, _ = self.run_main(baseline, [])
        self.assertEqual(code, 1)
        lines = self.failure_lines(output)
        self.assertEqual(len(lines), 1, output)
        self.assertIn("name=BM_Gone", lines[0])

    # --- repetitions gate on their median ------------------------------------

    def test_repetitions_merge_to_their_median(self):
        rows = [bench_result("BM_A", v) for v in (9.0, 1.0, 10.0, 11.0, 8.0)]
        path = self.write("reps.json", {"benchmarks": rows})
        merged = check_regression.load_results([path])
        self.assertEqual(merged["BM_A"]["sim_s_per_wall_s"], 9.0)

    def test_one_slow_repetition_does_not_fail_a_floor(self):
        # The last repetition alone would read 0.5x against a 0.85x floor.
        baseline = {"benchmarks": {},
                    "ratios": {"overhead": {"numerator": "BM_Event",
                                            "denominator": "BM_Tick", "min": 0.85}}}
        results = [bench_result("BM_Tick", 10.0) for _ in range(5)]
        results += [bench_result("BM_Event", v) for v in (10.0, 10.2, 9.9, 10.1, 5.0)]
        code, output, _ = self.run_main(baseline, results)
        self.assertEqual(code, 0, output)

    def test_median_below_floor_still_fails(self):
        baseline = {"benchmarks": {},
                    "ratios": {"overhead": {"numerator": "BM_Event",
                                            "denominator": "BM_Tick", "min": 0.85}}}
        results = [bench_result("BM_Tick", 10.0) for _ in range(5)]
        results += [bench_result("BM_Event", v) for v in (5.0, 12.0, 6.0, 7.0, 11.0)]
        code, output, _ = self.run_main(baseline, results)
        self.assertEqual(code, 1)
        self.assertIn("measured=0.70x", output)

    def test_repetitions_across_files_share_one_median(self):
        first = self.write("a.json", {"benchmarks": [bench_result("BM_A", 1.0)]})
        second = self.write("b.json", {"benchmarks": [bench_result("BM_A", 3.0),
                                                       bench_result("BM_A", 2.0)]})
        merged = check_regression.load_results([first, second])
        self.assertEqual(merged["BM_A"]["sim_s_per_wall_s"], 2.0)

    def test_aggregate_rows_are_ignored(self):
        baseline = {"benchmarks": {"BM_A": {"value": 10.0}}}
        results = [bench_result("BM_A", 10.0),
                   {"name": "BM_A", "run_type": "aggregate",
                    "sim_s_per_wall_s": 0.0}]
        code, _, _ = self.run_main(baseline, results)
        self.assertEqual(code, 0)


if __name__ == "__main__":
    sys.exit(unittest.main())
