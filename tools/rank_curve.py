"""Permutation rank and unrank time as a function of block length.

Usage (from the repository root):

    python3 tools/rank_curve.py

For each block length L it ranks an L-symbol ``_dna_like`` block (the
generator of ``tests/test_acceptance.py``, seed 3) with the product tree
(``_rank_split``) and with the left-to-right walk (``_rank_incremental``),
unranks the result through ``perm_index_to_sequence`` (``unrank_s``), top
down (``_unrank_split``) and with the greedy walk (``_unrank_incremental``),
and writes it with ``BitWriter.write`` as a field of its real width. Both
ranks must agree and both unranks must give the block back. Each time is
the best of three runs, in seconds. The output is one JSON object keyed by
L; the permutation codec's ``_SPLIT_MIN`` and ``_UNRANK_SPLIT_MIN`` are set
where the split starts to win. The whole curve takes about a minute, most
of it at L = 65536.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from enumcode.bitstream import BitWriter  # noqa: E402
from enumcode.combinatorics import ceil_log2, multinomial  # noqa: E402
from enumcode.permutation_codec import (  # noqa: E402
    _rank_incremental,
    _rank_split,
    _symbol_ids,
    _unrank_incremental,
    _unrank_split,
    perm_index_to_sequence,
)
from test_acceptance import _dna_like  # noqa: E402

LENGTHS = (64, 256, 1024, 2048, 4096, 8192, 16384, 65536)
ALPHABET = b"acgt"


def best_of_3(fn) -> float:
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def measure(length: int) -> dict:
    block = _dna_like(3, n=length)
    ids, counts = _symbol_ids(block, ALPHABET)
    rank = _rank_split(ids, list(counts))
    if rank != _rank_incremental(ids, list(counts)):
        raise SystemExit(f"split and incremental ranks differ at L={length}")
    arrangements = multinomial(counts)
    for unrank in (_unrank_split, _unrank_incremental):
        if unrank(rank, arrangements, list(counts)) != ids:
            raise SystemExit(f"{unrank.__name__} does not invert the rank at L={length}")
    width = ceil_log2(arrangements)
    return {
        "width_bits": width,
        "split_rank_s": best_of_3(lambda: _rank_split(ids, list(counts))),
        "incremental_rank_s": best_of_3(lambda: _rank_incremental(ids, list(counts))),
        "unrank_s": best_of_3(lambda: perm_index_to_sequence(rank, counts, ALPHABET)),
        "split_unrank_s": best_of_3(lambda: _unrank_split(rank, arrangements, list(counts))),
        "incremental_unrank_s": best_of_3(
            lambda: _unrank_incremental(rank, arrangements, list(counts))
        ),
        "write_s": best_of_3(lambda: BitWriter().write(rank, width)),
    }


def main() -> None:
    print(json.dumps({str(length): measure(length) for length in LENGTHS}))


if __name__ == "__main__":
    main()
