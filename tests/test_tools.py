"""Smoke tests for the measurement scripts under ``tools/``.

The scripts call library functions directly, so a signature change that
they miss would otherwise only show when someone runs them.
"""

import importlib
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
