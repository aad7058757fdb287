#!/usr/bin/env python3
"""The benchmark's own tests: unit checks of its arithmetic, a
seconds-long smoke run of every workload in both modes, and the fleet's
clean skip when no shard daemon binary exists.

    python3 perfbench/test_perfbench.py      # from the checkout root

Builds through run.py first (about a minute the first time).
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (run.py, next to this file)


def metric_names(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[kind]}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench did not build")

    def bench(self, *args):
        return subprocess.run([run.BINARY, *args], cwd=run.ROOT,
                              capture_output=True, text=True, timeout=170)

    def test_arithmetic(self):
        p = self.bench("--selftest")
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_smoke_every_workload(self):
        for workload in ("sweep", "served", "fleet"):
            for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    p = self.bench("--workload", workload, "--seed", "5",
                                   "--seconds", "1", "--trace", trace,
                                   "--alerts", "20")
                    self.assertEqual(p.returncode, 0, p.stderr[-3000:])
                    result = json.loads(p.stdout.strip().splitlines()[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(set(result["metrics"]),
                                     metric_names(kind))

    def test_fleet_skips_without_shard_daemon(self):
        p = self.bench("--workload", "fleet", "--seed", "1", "--seconds",
                       "1", "--trace", "0", "--alerts", "20", "--shardd",
                       ".bench_build/no-such-shardd")
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("SKIP", p.stdout)
        self.assertNotIn("metrics", p.stdout)


if __name__ == "__main__":
    unittest.main()
