"""Smoke tests for the measurement scripts under ``tools/``.

The scripts call library functions directly, so a signature change that
they miss would otherwise only show when someone runs them.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

from test_acceptance import _dna_like

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_sweep_time_oracle_check_passes(monkeypatch):
    # the script puts src/ and tests/ on sys.path when imported;
    # monkeypatch restores sys.path afterwards
    monkeypatch.syspath_prepend(str(TOOLS))
    sweep_time = importlib.import_module("sweep_time")
    # exits non-zero on any point that differs from the oracles in tests/oracles.py
    sweep_time.check_against_oracle(_dna_like(3, n=2000))


def test_rank_curve_rows_agree_and_invert(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    rank_curve = importlib.import_module("rank_curve")

    def once(fn):
        fn()
        return 0.0

    # one untimed call per column; measure still exits on any rank that
    # differs from the walk's and any unrank that does not give the block back
    monkeypatch.setattr(rank_curve, "seconds", once)
    rows = rank_curve.blocks()
    for name in ("dna/2048", "sigma=256/16"):
        row = rank_curve.measure(name, *rows[name])
        assert row["length"] == int(name.split("/")[1])
        assert row["chunk_rank_s"] == row["rank_s"] == 0.0
        assert row["chunk_unrank_s"] == row["unrank_s"] == 0.0
        assert row["count_s"] == 0.0


def test_cli_import_loads_no_heavy_stdlib_module(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import_time = importlib.import_module("import_time")
    # one untimed sample; under -S, site imports nothing before the package
    _, loaded, modules = import_time.sample(("-I", "-S"))
    assert "enumcode.cli" in loaded
    heavy = {"dataclasses", "inspect", "statistics", "fractions", "decimal", "random"}
    heavy |= {"typing", "pathlib"}
    assert heavy.isdisjoint(modules), sorted(heavy.intersection(modules))


def test_smoke_round_trips_pass_under_this_interpreter():
    # the script is stdlib-only, so it also runs where pytest is not installed
    done = subprocess.run(
        [sys.executable, str(TOOLS / "smoke.py")], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("smoke: ") and " passed on Python " in done.stdout


def test_lf_check_passes_to_the_table_cap(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    lf_check = importlib.import_module("lf_check")
    # exits non-zero on any k whose log2_factorial lies past _LF_ERROR
    worst, k = lf_check.check(4096)
    assert 0 < worst and 2 <= k <= 4096


def canned_run(decode_mbps, failed=0, probe=0.013):
    """What perfbench/run.py prints, cut to the lines bench_snapshot reads."""
    machine = {"python": "3.11.7", "implementation": "CPython", "nproc": 2, "cpu_model": "x"}
    machine["host_probe_s"] = {"before": probe, "after": probe}
    metrics = {"decode_MBps": {"value": decode_mbps, "unit": "MB/s"}}
    metrics["setup_s"] = {"value": 0.005, "unit": "s"}
    result = {"correct": not failed, "attempted": 100, "failed": failed, "metrics": metrics}
    return f"workload: w  seed: 1  trace: 0\nmachine: {json.dumps(machine)}\n{json.dumps(result)}\n"


def test_bench_snapshot_summarises_canned_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    bench_snapshot = importlib.import_module("bench_snapshot")
    parent = [1.0, 1.1, 1.2, 1.3, 1.4]
    change = [1.2, 1.1, 1.5, 1.2, 1.6]
    pairs = [
        (bench_snapshot.parse_run(canned_run(p)), bench_snapshot.parse_run(canned_run(c, failed=i == 4)))
        for i, (p, c) in enumerate(zip(parent, change))
    ]
    better = {"decode_MBps": "higher", "setup_s": "lower"}
    out = bench_snapshot.snapshot({"w": pairs}, {"w": list(range(5))}, better)
    assert out["machine"] == {"python": "3.11.7", "implementation": "CPython", "nproc": 2, "cpu_model": "x"}
    assert out["host_probe_s"]["parent"]["median"] == 0.013
    entry = out["workloads"]["w"]
    assert entry["pairs"] == 5 and entry["seeds"] == [0, 1, 2, 3, 4]
    assert entry["failed"] == {"parent": 0, "change": 1}
    assert entry["attempted"] == {"parent": 500, "change": 500}
    decode = entry["metrics"]["decode_MBps"]
    assert decode["parent"] == {"median": 1.2, "q1": 1.1, "q3": 1.3, "min": 1.0, "max": 1.4}
    assert decode["change"]["median"] == 1.2 and decode["change"]["q3"] == 1.5
    # one pair tied, one lost: ties count for neither side
    assert (decode["change_wins"], decode["change_losses"]) == (3, 1)
    assert decode["ratio_of_medians"] == 1.0
    assert not decode["median_gap_exceeds_parent_iqr"]
    assert decode["pair_ratios"][0] == 1.2
    setup = entry["metrics"]["setup_s"]
    assert setup["better"] == "lower" and setup["change_wins"] == setup["change_losses"] == 0
