"""Default-grid sweep time as a function of input length.

Usage (from the repository root):

    python3 tools/sweep_time.py

For each length N it sweeps the default parameter grid (34 points over the
``acgt`` alphabet) of an N-symbol ``_dna_like`` input (the generator of
``tests/test_acceptance.py``, seed 3) with ``sweep_file``. Each time is the
best of three runs, in seconds. Before timing, every point of the 5k sweep
is checked against the independent oracles in ``tests/oracles.py``: cut the
blocks symbol by symbol with ``reference_factorize`` and price them block by
block, from exact arrangement counts, with ``reference_accounted_bits``. Any
difference in block count, average block length, ceiled bits or container
size exits non-zero, and so do real bits further from the oracle's than
``real_bits_tolerance`` allows: the sweep takes their arrangement terms from
lgamma's log2 k!. The output is one JSON object keyed by N. The whole run
takes a few seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import fmean
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from enumcode.cli import sweep_file  # noqa: E402
from oracles import (  # noqa: E402
    real_bits_tolerance,
    reference_accounted_bits,
    reference_factorize,
)
from test_acceptance import _dna_like  # noqa: E402

LENGTHS = (5_000, 30_000, 100_000)
ORACLE_LENGTH = 5_000


def best_of_3(fn) -> float:
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def check_against_oracle(data: bytes) -> None:
    sweep = sweep_file("oracle", data)
    for point in sweep.points:
        params = point.params
        blocks = reference_factorize(data, params)
        acct = reference_accounted_bits(blocks, params)
        lengths = [b.length for b in blocks]
        expected = (len(blocks), fmean(lengths), acct.bits_ceiled, acct.container_bits)
        got = (
            point.accounting.blocks,
            point.avg_block_len,
            point.accounting.bits_ceiled,
            point.accounting.container_bits,
        )
        if got != expected:
            raise SystemExit(f"sweep differs from the oracle at {params}: {got} != {expected}")
        off = abs(point.accounting.bits_real - acct.bits_real)
        if off > real_bits_tolerance(lengths, acct.bits_real):
            raise SystemExit(f"real bits at {params} lie {off} from the oracle's {acct.bits_real}")


def main() -> None:
    check_against_oracle(_dna_like(3, n=ORACLE_LENGTH))
    out = {}
    for length in LENGTHS:
        data = _dna_like(3, n=length)
        out[str(length)] = {
            "points": len(sweep_file("x", data).points),
            "sweep_s": best_of_3(lambda: sweep_file("x", data)),
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
