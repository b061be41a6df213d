"""Self-tests of the benchmark's checks and of the comparer.

    python3 -m unittest discover -s perfbench/tests

Run from the repository root; the first test builds the benchmark (as
run.py does) if it is not built yet.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
import compare  # noqa: E402


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


class CorruptedOutputIsCounted(unittest.TestCase):
    """Corrupt one expected response checked at set-up and one checked in
    the measured loop: the run must count both."""

    # Fresh set-ups per end-to-end run (kSetups in src/main.cpp); each
    # checks the corrupted set-up response once.
    SETUPS = 11

    def check(self, workload):
        code, result = run_bench("--workload", workload, "--seed", "3",
                                 "--seconds", "1", "--trace", "0",
                                 "--corrupt", "1")
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        # More failures than set-ups: the measured loop's check counted too.
        self.assertGreater(result["failed"], self.SETUPS)
        self.assertLess(result["failed"], result["attempted"])

    def test_batch(self):
        self.check("batch")

    def test_serve(self):
        self.check("serve")

    def test_stream(self):
        self.check("stream")

    def test_clean_run_is_correct(self):
        code, result = run_bench("--workload", "batch", "--seed", "3",
                                 "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_bad_arguments_exit_2(self):
        code, result = run_bench("--workload", "nope", "--seed", "1",
                                 "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 2)
        self.assertIsNone(result)


class CompareVerdicts(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_regressed(self):
        change = [v * 1.3 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1),
                         "regressed")

    def test_improved(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1),
                         "improved")

    def test_within_bound(self):
        change = [v * 1.02 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1),
                         "within bound")

    def test_unresolved_when_parent_spread_exceeds_bound(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                 100.0]
        change = [v * 0.97 for v in noisy]
        self.assertEqual(compare.verdict(noisy, change, "lower", 0.1),
                         "unresolved")

    def test_higher_is_better(self):
        change = [v * 1.3 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "higher", 0.1),
                         "improved")
        self.assertEqual(compare.verdict(change, self.parent, "higher", 0.1),
                         "regressed")


if __name__ == "__main__":
    unittest.main()
