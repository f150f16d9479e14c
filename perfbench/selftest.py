"""Tests of the benchmark itself: python3 perfbench/selftest.py

Not named test_*.py on purpose: they test the benchmark, not the library,
so the library's pytest run does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
from tracer import metric_names

MODULES = run.import_enumcode()
with open(run.DIGESTS) as _handle:
    PINNED = json.load(_handle)


class BenchTestCase(unittest.TestCase):
    def setUp(self) -> None:
        run.WORK_PARENT.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_PARENT))

    def tearDown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def runner(self, workload: str) -> run.Runner:
        return run.Runner(workload, MODULES["cli"], self.workdir, PINNED[workload]["digests"])


class CorrectnessGate(BenchTestCase):
    def test_clean_repetition_passes(self):
        runner = self.runner("dna-var-r16")
        result = runner.rep(0)
        self.assertEqual((runner.attempted, runner.failed), (3, 0), runner.errors)
        self.assertEqual(set(result["times"]), {"encode", "decode", "sweep"})

    def test_corrupted_container_is_counted(self):
        runner = self.runner("dna-var-r16")
        data = run.pool_input("dna-var-r16", 0)
        runner.input.write_bytes(data)
        elapsed, _ = runner.encode(0, run.WORKLOADS["dna-var-r16"].encode)
        self.assertIsNotNone(elapsed)
        raw = bytearray(runner.container.read_bytes())
        raw[len(raw) // 2] ^= 0x10  # one payload bit
        runner.container.write_bytes(bytes(raw))
        self.assertIsNone(runner.decode(0, data))
        self.assertEqual((runner.attempted, runner.failed), (2, 1))

    def test_truncated_report_is_counted(self):
        runner = self.runner("dna-sweep-5k")
        runner.cli = RewritesReport(MODULES["cli"], runner.report, lambda raw: raw.split(b"\n")[0] + b"\n")
        result = runner.rep(0)
        # the sweep fails; with no best point there is nothing to encode
        self.assertEqual((runner.attempted, runner.failed), (1, 1))
        self.assertIn("unreadable report", runner.errors[0])
        self.assertIsNone(result["bits_per_base"])

    def test_missing_report_is_counted(self):
        runner = self.runner("dna-var-r16")
        runner.cli = RewritesReport(MODULES["cli"], runner.report, None)
        result = runner.rep(0)
        self.assertEqual((runner.attempted, runner.failed), (3, 1))
        self.assertEqual(set(result["times"]), {"encode", "decode"})

    def test_digest_mismatch_is_counted(self):
        pinned = list(PINNED["dna-sweep-5k"]["digests"])
        pinned[0] = " ".join(pinned[0].split()[:3] + ["0" * 16])
        runner = run.Runner("dna-sweep-5k", MODULES["cli"], self.workdir, pinned)
        result = runner.rep(0)
        self.assertEqual(runner.failed, 1)
        self.assertNotIn("sweep", result["times"])


class RewritesReport:
    """A CLI whose sweep exits 0 but leaves a rewritten report (None: no report)."""

    def __init__(self, cli, report: Path, rewrite) -> None:
        self.cli, self.report, self.rewrite = cli, report, rewrite

    def main(self, argv):
        code = self.cli.main(argv)
        if argv[0] == "sweep":
            if self.rewrite is None:
                self.report.unlink()
            else:
                self.report.write_bytes(self.rewrite(self.report.read_bytes()))
        return code


class TracedCounts(BenchTestCase):
    def traced_counters(self, seed: int) -> dict:
        runner = self.runner("dna-var-r16")
        metrics, tracer = run.measure_traced(runner, MODULES, seed, reps=2, span_path=None)
        self.assertEqual(runner.failed, 0, runner.errors)
        self.assertEqual(set(metrics), {name for name, _, _ in metric_names()})
        return tracer.counters()

    def test_same_seed_gives_same_counts(self):
        first = self.traced_counters(7)
        self.assertEqual(first, self.traced_counters(7))
        self.assertGreater(first["block_codec.blocks"], 0)
        self.assertGreater(first["bits.permutation"], 0)
        self.assertEqual(first["permutation_codec.rank_used_ratio.encode"], 0.5)
        self.assertEqual(first["permutation_codec.rank_used_ratio.sweep"], 0.0)
        self.assertGreater(first["permutation_codec.ranks_discarded.sweep"], 0)

    def test_wrappers_are_removed(self):
        before = MODULES["block_codec"].sequence_to_perm_index
        self.traced_counters(3)
        self.assertIs(MODULES["block_codec"].sequence_to_perm_index, before)


class MissingProgram(unittest.TestCase):
    def test_fails_without_source_tree(self):
        """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
        run.WORK_PARENT.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK_PARENT))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "dna-var-r16",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
