"""Permutation rank and unrank time as a function of block length and alphabet size.

Usage (from the repository root):

    python3 tools/rank_curve.py

Each row ranks one block with the walk (``_rank_walk``), the oracle walk
(``reference_rank_incremental`` from ``tests/oracles.py``), the product
tree (``reference_rank_split``, an oracle too, which the rank no longer
uses), the chunked rank alone (``chunk_rank_s``: ``_rank_chunks`` run down
to a one-run count instead of handing over to the walk) and the dispatching
``sequence_to_perm_index`` (``rank_s``, given only the block and the
alphabet, so it also counts the block and builds its arrangement count).
It unranks the rank with the walk (``_unrank_walk``), the oracle walk
(``reference_unrank_incremental``), the chunked unrank alone
(``chunk_unrank_s``: ``_unrank_chunks`` run down to a one-run count instead
of handing over to the walk) and the dispatching ``perm_index_to_sequence``
(``unrank_s``), and writes it with ``BitWriter.write`` as a field of its
real width. Every rank must agree and every unrank must give the block back.
Each time is the best of three runs, in seconds, each run repeated until it
takes 0.2 s or more (``timeit.Timer.autorange``).

The rows:

- ``dna/L``: an L-symbol ``_dna_like`` block (the generator of
  ``tests/test_acceptance.py``, seed 3) for L from 16 to 65536;
- ``sigma=S/L``: L symbols drawn uniformly from S kinds (seed 3), for the
  short blocks a sweep picks and S in {4, 20, 256};
- ``skew=K:1/L``: L symbols over 2 kinds, the second drawn with odds 1 in
  K + 1 (seed 3), long blocks of 1 bit per symbol or less.

The output is one JSON object keyed by row; ``width_bits`` is the width of
the block's arrangement count, which every threshold of the permutation
codec reads. There are two: ``_RANK_WALK_BITS`` (rank by walk up to this
count width, in chunks above it), read against ``walk_rank_s`` and
``chunk_rank_s``, and ``_WALK_BITS`` (unrank by walk up to this count
width, in chunks above it), read against ``walk_unrank_s`` and
``chunk_unrank_s``. ``split_rank_s`` against ``chunk_rank_s`` shows what a
product tree would win on the widest counts. The ``skew`` rows are long
blocks with narrow counts, where the walk and the chunks beat the tree. The
whole curve takes a few minutes, most of it at L = 65536.
"""

from __future__ import annotations

import json
import random
import sys
import timeit
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from enumcode import permutation_codec  # noqa: E402
from enumcode.bitstream import BitWriter  # noqa: E402
from enumcode.combinatorics import ceil_log2, multinomial  # noqa: E402
from enumcode.permutation_codec import (  # noqa: E402
    _rank_chunks,
    _rank_walk,
    _symbol_ids,
    _unrank_chunks,
    _unrank_walk,
    perm_index_to_sequence,
    sequence_to_perm_index,
)
from oracles import (  # noqa: E402
    reference_rank_incremental,
    reference_rank_split,
    reference_unrank_incremental,
)
from test_acceptance import _dna_like  # noqa: E402

DNA_LENGTHS = (16, 51, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 65536)
SHORT_LENGTHS = (16, 51, 128, 512)
SIGMAS = (4, 20, 256)
SKEWED = ((1, 8192), (4, 8192), (100, 8192), (1000, 32768))


def seconds(fn) -> float:
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(3, number)) / number


def blocks() -> dict[str, tuple[bytes, bytes]]:
    """Row name -> (block, alphabet)."""
    rows = {f"dna/{length}": (_dna_like(3, n=length), b"acgt") for length in DNA_LENGTHS}
    for sigma in SIGMAS:
        alphabet = bytes(range(sigma))
        for length in SHORT_LENGTHS:
            rng = random.Random(3)
            rows[f"sigma={sigma}/{length}"] = (bytes(rng.choices(alphabet, k=length)), alphabet)
    for odds, length in SKEWED:
        rng = random.Random(3)
        block = bytes(rng.choices(b"ab", weights=(odds, 1), k=length))
        rows[f"skew={odds}:1/{length}"] = (block, b"ab")
    return rows


def measure(name: str, block: bytes, alphabet: bytes) -> dict:
    ids, counts = _symbol_ids(block, alphabet)
    arrangements = multinomial(counts)
    rank = _rank_walk(ids, list(counts), arrangements)
    for other in (reference_rank_incremental, reference_rank_split):
        if other(ids, list(counts)) != rank:
            raise SystemExit(f"{other.__name__} and _rank_walk differ on {name}")
    with mock.patch.object(permutation_codec, "_RANK_WALK_BITS", 1):
        if _rank_chunks(ids, list(counts), arrangements) != rank:
            raise SystemExit(f"_rank_chunks and _rank_walk differ on {name}")
        chunk_rank_s = seconds(lambda: _rank_chunks(ids, list(counts), arrangements))
    # column -> (unrank, the thresholds it runs under)
    unranks = {
        "walk_unrank_s": (_unrank_walk, {}),
        "incremental_unrank_s": (reference_unrank_incremental, {}),
        "chunk_unrank_s": (_unrank_chunks, {"_WALK_BITS": 1}),
    }
    unrank_times = {}
    for column, (unrank, thresholds) in unranks.items():
        with mock.patch.dict(vars(permutation_codec), thresholds):
            if unrank(rank, arrangements, list(counts)) != ids:
                raise SystemExit(f"{column} does not invert the rank on {name}")
            unrank_times[column] = seconds(lambda: unrank(rank, arrangements, list(counts)))
    width = ceil_log2(arrangements)
    return {
        "sigma": len(alphabet),
        "length": len(block),
        "width_bits": width,
        "walk_rank_s": seconds(lambda: _rank_walk(ids, list(counts), arrangements)),
        "incremental_rank_s": seconds(lambda: reference_rank_incremental(ids, list(counts))),
        "split_rank_s": seconds(lambda: reference_rank_split(ids, list(counts))),
        "chunk_rank_s": chunk_rank_s,
        "rank_s": seconds(lambda: sequence_to_perm_index(block, alphabet)),
        **unrank_times,
        "unrank_s": seconds(lambda: perm_index_to_sequence(rank, counts, alphabet)),
        "write_s": seconds(lambda: BitWriter().write(rank, width)),
    }


def main() -> None:
    print(json.dumps({name: measure(name, *row) for name, row in blocks().items()}))


if __name__ == "__main__":
    main()
