"""Permutation rank and unrank time as a function of block length and alphabet size.

Usage (from the repository root):

    python3 tools/rank_curve.py

Each row ranks one block with the right-to-left walk alone (``walk_rank_s``:
``_rank_walk``), the oracle walk (``reference_rank_incremental`` from
``tests/oracles.py``), the product tree (``reference_rank_split``, an oracle
too, which the rank no longer uses), the chunked rank alone
(``chunk_rank_s``: ``_rank_chunks``), and the dispatching
``perm_rank_and_count`` given the block and the alphabet, as ``encode``
calls it (``rank_s``), which also counts the block when the count may be
wide. The walk and the chunks rank the bytes ids of ``_ids``, as the
library does. The walk, the chunks and ``perm_rank_and_count`` must also
give the block's arrangement count. The oracles take the ids and counts of
``symbol_ids`` (``tests/oracles.py``). The rank is unranked with the walk
(``_unrank_walk``), the oracle walk (``reference_unrank_incremental``), the
chunked unrank alone (``chunk_unrank_s``: ``_unrank_chunks`` run down to a
one-run count instead of handing over to the walk) and the dispatching
``perm_index_to_sequence`` (``unrank_s``), and written with
``BitWriter.write`` as a field of its real width. ``count_s`` builds the
block's arrangement count alone with ``multinomial``, as ``decode`` and the
sweep's pricing do, and it must equal ``reference_multinomial`` from
``tests/oracles.py``, the chained ``math.comb`` product. Every rank must
agree and every unrank must give the block back. Each time is the best of
three runs, in seconds, each run repeated until it takes 0.2 s or more
(``timeit.Timer.autorange``). A row's rank columns take their runs in turn,
round-robin, and so do its unrank columns, so that a host slowing down
during the row slows every column of a group alike.

The rows:

- ``dna/L``: an L-symbol ``_dna_like`` block (the generator of
  ``tests/test_acceptance.py``, seed 3) for L from 16 to 65536;
- ``sigma=S/L``: L symbols drawn uniformly from S kinds (seed 3), for the
  short blocks a sweep picks and S in {4, 20, 256};
- ``skew=K:1/L``: L symbols over 2 kinds, the second drawn with odds 1 in
  K + 1 (seed 3), long blocks of 1 bit per symbol or less.

The output is one JSON object keyed by row; ``width_bits`` is the width of
the block's arrangement count. Two thresholds pick the paths:
``_RANK_WALK_BITS`` (rank by walk while length * ceil(log2 sigma), a bound
on that width, is at most this, in chunks above it), read against
``walk_rank_s`` and ``chunk_rank_s``, and ``_WALK_BITS`` (unrank by walk up
to this count width, in chunks above it), read against
``walk_unrank_s`` and ``chunk_unrank_s``. ``split_rank_s`` against
``chunk_rank_s`` shows what a product tree would win on the widest counts.
The ``skew`` rows are long blocks with narrow counts, where the walk and the
chunks beat the tree. The whole curve takes a few minutes, most of it at
L = 65536.
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
    _ids,
    _rank_chunks,
    _rank_walk,
    _unrank_chunks,
    _unrank_walk,
    perm_index_to_sequence,
    perm_rank_and_count,
)
from oracles import (  # noqa: E402
    reference_multinomial,
    reference_rank_incremental,
    reference_rank_split,
    reference_unrank_incremental,
    symbol_ids,
)
from test_acceptance import _dna_like  # noqa: E402

DNA_LENGTHS = (16, 51, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 65536)
SHORT_LENGTHS = (16, 51, 128, 512)
SIGMAS = (4, 20, 256)
SKEWED = ((1, 8192), (4, 8192), (100, 8192), (1000, 32768))


def seconds(fn) -> float:
    """Seconds per call over one run, repeated until it takes 0.2 s or more."""
    number, elapsed = timeit.Timer(fn).autorange()
    return elapsed / number


# column -> the permutation_codec thresholds it runs under
THRESHOLDS = {"chunk_unrank_s": {"_WALK_BITS": 1}}


def alternating(columns: dict, rounds: int = 3) -> dict[str, float]:
    """:func:`seconds` of every column's call, best of ``rounds`` runs taken
    round-robin, so that a host slowing down during the row slows every
    column alike."""
    best = dict.fromkeys(columns, float("inf"))
    for _ in range(rounds):
        for column, fn in columns.items():
            with mock.patch.dict(vars(permutation_codec), THRESHOLDS.get(column, {})):
                best[column] = min(best[column], seconds(fn))
    return best


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
    ids, counts = symbol_ids(block, alphabet)
    byte_ids = _ids(block, alphabet)
    arrangements = multinomial(counts)
    rank = reference_rank_incremental(ids, list(counts))
    ranks = {
        "walk_rank_s": lambda: _rank_walk(byte_ids, len(alphabet)),
        "incremental_rank_s": lambda: reference_rank_incremental(ids, list(counts)),
        "split_rank_s": lambda: reference_rank_split(ids, list(counts)),
        "chunk_rank_s": lambda: _rank_chunks(byte_ids, list(counts)),
        "rank_s": lambda: perm_rank_and_count(block, alphabet),
    }
    unranks = {
        "walk_unrank_s": lambda: _unrank_walk(rank, arrangements, list(counts)),
        "incremental_unrank_s": lambda: reference_unrank_incremental(
            rank, arrangements, list(counts)
        ),
        "chunk_unrank_s": lambda: _unrank_chunks(rank, arrangements, list(counts)),
        "unrank_s": lambda: perm_index_to_sequence(rank, counts, alphabet),
    }
    # the walk, the chunks and perm_rank_and_count give the arrangement count too
    with_count = ("walk_rank_s", "chunk_rank_s", "rank_s")
    for column, fn in ranks.items():
        if fn() != ((rank, arrangements) if column in with_count else rank):
            raise SystemExit(f"{column} and the oracle walk differ on {name}")
    for column, fn in unranks.items():
        with mock.patch.dict(vars(permutation_codec), THRESHOLDS.get(column, {})):
            if fn() != (block if column == "unrank_s" else ids):
                raise SystemExit(f"{column} does not invert the rank on {name}")
    if arrangements != reference_multinomial(counts):
        raise SystemExit(f"multinomial and the chained binomials differ on {name}")
    width = ceil_log2(arrangements)
    return {
        "sigma": len(alphabet),
        "length": len(block),
        "width_bits": width,
        **alternating(ranks),
        **alternating(unranks),
        **alternating({"count_s": lambda: multinomial(counts)}),
        **alternating({"write_s": lambda: BitWriter().write(rank, width)}),
    }


def main() -> None:
    print(json.dumps({name: measure(name, *row) for name, row in blocks().items()}))


if __name__ == "__main__":
    main()
