"""Smoke tests for the measurement scripts under ``tools/``.

The scripts call library functions directly, so a signature change that
they miss would otherwise only show when someone runs them.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def canned_bench(pr, ratios, gaps=()):
    """A BENCH_*.json body with one workload whose metrics have these ratios."""
    metrics = {
        name: {"ratio_of_medians": ratio, "median_gap_exceeds_parent_iqr": name in gaps}
        for name, ratio in ratios.items()
    }
    return json.dumps({"pr": pr, "workloads": {"w": {"pairs": 10, "metrics": metrics}}})


def test_bench_compare_chains_canned_files_in_pr_order(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    bench_compare = importlib.import_module("bench_compare")
    # named against their PR order, which the pr key decides
    (tmp_path / "BENCH_9.json").write_text(canned_bench(12, {"decode_MBps": 1.5, "setup_s": 0.5}))
    (tmp_path / "BENCH_10.json").write_text(
        canned_bench(3, {"decode_MBps": 1.25, "setup_s": 2.0}, gaps=("decode_MBps",))
    )
    assert bench_compare.main(tmp_path) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["workload", "metric", "3", "12", "gap", "past", "parent", "IQR"]
    assert lines[1].split() == ["w", "decode_MBps", "1.250", "1.875", "3"]
    assert lines[2].split() == ["w", "setup_s", "2.000", "1.000", "-"]
    result = json.loads(lines[-1])
    assert result["prs"] == [3, 12]
    decode = result["chained"]["w"]["decode_MBps"]
    assert decode == {"running": {"3": 1.25, "12": 1.875}, "product": 1.875, "gap_prs": [3]}


def test_bench_compare_names_a_file_it_cannot_use(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(TOOLS))
    bench_compare = importlib.import_module("bench_compare")
    good = tmp_path / "BENCH_1.json"
    good.write_text(canned_bench(1, {"decode_MBps": 1.0}))
    bad = tmp_path / "BENCH_2.json"
    for body in (
        "{not json",
        canned_bench(2, {"decode_MBps": None}),
        json.dumps({"pr": 2, "workloads": {"w": {"metrics": {"decode_MBps": {}}}}}),
        json.dumps({"workloads": {}}),
        json.dumps({"pr": 2, "workloads": {"w": {"metrics": {}}}}),  # lacks BENCH_1's metric
    ):
        bad.write_text(body)
        with pytest.raises(SystemExit) as exc:
            bench_compare.main(tmp_path)
        assert str(bad) in str(exc.value.code)


def test_bench_compare_reproduces_the_hand_chained_ratios(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    bench_compare = importlib.import_module("bench_compare")
    bench_compare.main()
    chained = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["chained"]
    # ROADMAP's ratios chained by hand over PRs 17-25
    after_25 = {
        ("dna-var-r16", "sweep_kbase_per_s"): 2.07,
        ("dna-var-r16", "encode_MBps"): 1.35,
        ("dna-fixed-8k", "encode_MBps"): 1.57,
        ("dna-fixed-8k", "sweep_kbase_per_s"): 1.68,
        ("dna-sweep-5k", "sweep_kbase_per_s"): 0.99,
    }
    for (workload, metric), ratio in after_25.items():
        assert round(chained[workload][metric]["running"]["25"], 2) == ratio, (workload, metric)
    assert chained["dna-fixed-8k"]["decode_MBps"]["gap_prs"][:2] == [26, 28]
