"""Rank and unrank sequences among the arrangements of their own multiset.

Sequences with identical symbol frequencies are ordered lexicographically
under the supplied alphabet (first alphabet entry sorts lowest); ranks are
zero-based. The alphabet may be a ``str``, ``bytes``, or any sequence of
distinct hashable symbols, and unranked sequences come back in the same
container family.

Position i of an n-symbol sequence contributes A_i * a_i / m_i to the rank,
where A_i counts the arrangements of the suffix from i, m_i = n - i, and
a_i sums the remaining counts of the symbols below the one at i. Consuming
that symbol, whose remaining count is b_i, scales A_i by b_i / m_i. Both
quotients are exact: each counts arrangements.

The rank is picked by the width of the arrangement count, which sets the
cost of every big-int step, not by the block's length. While the count has
at most ``_RANK_WALK_BITS`` bits, the walk runs directly
(:func:`_rank_walk`): a_i is a sum of small ints, so each symbol costs two
big-int products and two exact divisions by the small m_i whatever the
alphabet size, on a number as wide as the count. Wider counts rank in chunks
(:func:`_rank_chunks`), the way they unrank: each chunk of ``_CHUNK``
symbols folds into a small (P, Q, T) triple with small-int arithmetic, and
one update applies it to the full-width rank and count, one long division
by the small Q and products by the small T and P; the walk finishes once
the count is narrow. Like the chunked unrank, this is quadratic in the
count's width. A product tree (binary splitting) ranks the widest counts
faster, but by at most 2.4x where measured (1.1x at 131072 DNA symbols, 2x
at 32768 symbols over 256 kinds), and only on blocks whose unrank is slower
still, so the rank does without one. ``tools/rank_curve.py`` measures both
paths and the tree. Byte sequences over a byte alphabet become symbol ids
through ``bytes.translate``, never through a per-symbol lookup.

Unranking inverts that walk. While the arrangement count is narrow, the
greedy walk (:func:`_unrank_walk`) reads each symbol off v = pid * m_i // A_i
by a scan of the small remaining counts, so each symbol costs three big-int
products and three divisions, two of them exact divisions by m_i, and it
emits the rest as one run once a single symbol kind remains. Wider counts
(:func:`_unrank_chunks`) read the rank as the exact arithmetic-code value
rank / arrangements and decode symbols from its leading bits under a
rigorous error bound that never lets a symbol be guessed: each chunk
decodes up to ``_CHUNK`` symbols from the top ``_WINDOW`` bits with
small-int arithmetic (:func:`_decode_leaf`), then one exact update applies
the chunk's small (P, Q, T) triple to the full-width state, one long
division by the small Q and two products by small P and T. Every output
is exact. Each chunk costs time in proportion to the count's width, so a
block unranks in time quadratic in that width.

The older walks, which take a big-int step for every smaller symbol kind,
are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Sequence

from .combinatorics import multinomial

Alphabet = Sequence[Hashable]


def _symbol_positions(alphabet: Alphabet) -> dict:
    if len(alphabet) < 1:
        raise ValueError("alphabet must not be empty")
    positions: dict = {}
    for pos, sym in enumerate(alphabet):
        if sym in positions:
            raise ValueError(f"alphabet entries must be distinct (repeated {sym!r})")
        positions[sym] = pos
    return positions


def _validate_alphabet(alphabet: Alphabet) -> None:
    """Reject an empty alphabet or a repeated entry; a byte alphabet at C speed."""
    if not (isinstance(alphabet, (bytes, bytearray)) and 0 < len(set(alphabet)) == len(alphabet)):
        _symbol_positions(alphabet)


def _render(alphabet: Alphabet, ids: Iterable[int]):
    if isinstance(alphabet, str):
        return "".join(alphabet[i] for i in ids)
    if isinstance(alphabet, (bytes, bytearray)):
        return bytes(ids).translate(bytes(alphabet).ljust(256, b"\0"))
    return [alphabet[i] for i in ids]


def frequency_vector(seq: Iterable[Hashable], alphabet: Alphabet) -> tuple[int, ...]:
    """Occurrence count of each alphabet symbol in ``seq``, in alphabet order."""
    return tuple(_symbol_ids(seq, alphabet)[1])


def _symbol_ids(seq: Iterable[Hashable], alphabet: Alphabet) -> tuple[list[int], list[int]]:
    """The alphabet position of every symbol of ``seq``, and the count of each position."""
    positions = _symbol_positions(alphabet)
    counts = [0] * len(alphabet)
    ids: list[int] = []
    for offset, sym in enumerate(seq):
        pos = positions.get(sym)
        if pos is None:
            raise ValueError(f"symbol {sym!r} at offset {offset} is not in the alphabet")
        ids.append(pos)
        counts[pos] += 1
    return ids, counts


# Up to this many bits of arrangement count the walk ranks, above it chunks
# of _CHUNK symbols down to the walk (tools/rank_curve.py measures both).
_RANK_WALK_BITS = 512
# Symbols per rank chunk, and the most an unrank chunk decodes, before one
# exact update of the full-width state.
_CHUNK = 64


def sequence_to_perm_index(
    seq: Sequence[Hashable],
    alphabet: Alphabet,
    counts: Sequence[int] | None = None,
    arrangements: int | None = None,
) -> int:
    """Zero-based lexicographic rank of ``seq`` among arrangements of its multiset.

    The empty sequence ranks 0. A caller that already has the frequency
    vector of ``seq`` (in alphabet order) and its multinomial may pass them
    as ``counts`` and ``arrangements``; they are trusted, not recounted.
    """
    if isinstance(seq, (bytes, bytearray)) and isinstance(alphabet, (bytes, bytearray)):
        ids = _byte_ids(seq, alphabet)
        if counts is None:
            counts = list(map(seq.count, alphabet))
    else:
        ids, found = _symbol_ids(seq, alphabet)
        if counts is None:
            counts = found
    counts = list(counts)
    if arrangements is None:
        arrangements = multinomial(counts)
    return _rank_chunks(ids, counts, arrangements)


_BYTE_IDS = bytes(range(256))


def _byte_ids(seq: bytes, alphabet: bytes) -> bytes:
    """The alphabet position of every byte of ``seq``, as bytes."""
    _validate_alphabet(alphabet)
    foreign = seq.translate(None, alphabet)
    if foreign:
        offset = seq.index(foreign[0])
        raise ValueError(f"symbol {foreign[0]!r} at offset {offset} is not in the alphabet")
    return seq.translate(bytes.maketrans(alphabet, _BYTE_IDS[: len(alphabet)]))


def _rank_walk(ids: Sequence[int], counts: list[int], arrangements: int) -> int:
    """The rank by the left-to-right walk at two big-int steps per symbol.

    ``arrangements`` is the multinomial of ``counts``; consumes ``counts``.
    """
    rank = 0
    remaining = len(ids)
    for k in ids:
        if arrangements == 1:
            break  # one symbol kind is left: nothing of the rest ranks below it
        c = counts[k]
        if k:
            below = sum(counts[:k])
            if below:
                rank += arrangements * below // remaining
        arrangements = arrangements * c // remaining
        counts[k] = c - 1
        remaining -= 1
    return rank


def _rank_chunks(ids: Sequence[int], counts: list[int], arrangements: int) -> int:
    """The rank a chunk of symbols at a time, then by the walk; consumes ``counts``.

    ``arrangements`` is the multinomial of ``counts``. While it has more than
    ``_RANK_WALK_BITS`` bits, the next ``_CHUNK`` symbols give a small
    (p, q, t) triple (:func:`_stretch`), which adds A * T / Q to the rank and
    turns A into A * P / Q (:func:`_advance`): one long division of the wide
    count by the small Q and products by the small T and P, where the walk
    takes two big-int steps per symbol.
    """
    rank = 0
    start = 0
    while arrangements.bit_length() > _RANK_WALK_BITS:
        stop = start + _CHUNK
        offset, arrangements = _advance(
            arrangements, *_stretch(ids[start:stop], counts, len(ids) - start)
        )
        rank += offset
        start = stop
    return rank + _rank_walk(ids[start:], counts, arrangements)


def _stretch(ids: Sequence[int], counts: list[int], remaining: int) -> tuple[int, int, int]:
    """The (P, Q, T) triple of a stretch of symbol ids; consumes ``counts``.

    ``remaining`` counts the symbols left from the stretch's first one on.
    Each symbol multiplies P by its remaining count b_i and turns T into
    T * m_i + P * a_i, all small ints; Q, the product of the m_i, is a
    falling factorial.
    """
    q = math.perm(remaining, len(ids))
    p = 1
    t = 0
    for k in ids:
        b = counts[k]
        if k:
            t = t * remaining + p * sum(counts[:k])
        else:
            t *= remaining
        p *= b
        counts[k] = b - 1
        remaining -= 1
    return p, q, t


def _advance(arrangements: int, p: int, q: int, t: int) -> tuple[int, int]:
    """(A * T / Q, A * P / Q) for the count A before a stretch with triple (p, q, t).

    The first is what the stretch adds to the rank, the second the count
    after it; both are exact quotients for every stretch the counts allow.
    Long division costs the product of the divisor's and the quotient's
    widths, so the wide A is divided by the small Q once: with
    A = W * Q + R, A * T / Q is W * T + R * T / Q, and R * T / Q is exact
    too, a quotient below T.
    """
    whole, part = divmod(arrangements, q)
    return whole * t + part * t // q, whole * p + part * p // q


def perm_index_to_sequence(
    pid: int, counts: Iterable[int], alphabet: Alphabet, arrangements: int | None = None
):
    """The rank-``pid`` arrangement of the multiset described by ``counts``.

    Inverse of :func:`sequence_to_perm_index`; a rank at or beyond the
    arrangement count is rejected (it signals a corrupt stream upstream).
    A caller that already has the multinomial of ``counts`` may pass it as
    ``arrangements``.
    """
    _validate_alphabet(alphabet)
    remaining_counts = list(counts)
    if len(remaining_counts) != len(alphabet):
        raise ValueError("counts and alphabet must have the same length")
    if arrangements is None:
        arrangements = multinomial(remaining_counts)
    if not 0 <= pid < arrangements:
        raise ValueError(
            f"permutation rank {pid} out of range (multiset has {arrangements} arrangements)"
        )
    return _render(alphabet, _unrank_chunks(pid, arrangements, remaining_counts))


def _unrank_walk(pid: int, arrangements: int, counts: list[int]) -> list[int]:
    """The rank-``pid`` symbol ids by the greedy walk; consumes ``counts``.

    ``arrangements`` is the multinomial of the counts. The symbol at each
    step is the j with cum_j <= pid * m // A < cum_j + c_j, read off by a
    scan of the small counts.
    """
    remaining = sum(counts)
    out: list[int] = []
    while remaining:
        if arrangements == 1:
            # one symbol kind is left: the rest is a single run of it
            for j, c in enumerate(counts):
                out += [j] * c
            break
        v = pid * remaining // arrangements
        j = below = 0
        c = counts[0]
        while v >= below + c:
            below += c
            j += 1
            c = counts[j]
        if below:
            pid -= arrangements * below // remaining
        arrangements = arrangements * c // remaining
        counts[j] = c - 1
        remaining -= 1
        out.append(j)
    return out


# Up to this many bits of arrangement count the walk beats the chunked unrank
# (tools/rank_curve.py measures both).
_WALK_BITS = 2048
# Leading bits of (rank, arrangement count) each unrank chunk decodes from.
_WINDOW = 256
# Bits of the error bound the leaf keeps when it drops its low bits, which it
# does once the bound has twice as many.
_GUARD_BITS = 16


def _unrank_chunks(pid: int, arrangements: int, counts: list[int]) -> list[int]:
    """The rank-``pid`` symbol ids, a chunk of symbols at a time; consumes ``counts``.

    x = pid / arrangements is an exact arithmetic-code value: the walk picks
    the symbol j with cum_j <= x * m < cum_j + c_j (cum_j counts the remaining
    symbols below j, m all of them) and continues with (x * m - cum_j) / c_j.
    While the arrangement count has more than ``_WALK_BITS`` bits, each chunk
    decodes up to ``_CHUNK`` symbols with :func:`_decode_leaf` from the top
    ``_WINDOW`` bits of (pid, arrangements), whose error bound is one unit of
    the shortened count, then applies the chunk's small (p, q, t) triple to
    the full-width state (:func:`_refresh`). If nothing was decoded, or the
    refresh rejects the chunk, it is undone and one exact step is taken
    instead: with a zero error bound a leaf step is the walk's step. Each
    update costs time in proportion to the count's width, so a block costs
    time in proportion to its width squared. The walk takes over once the
    count has at most ``_WALK_BITS`` bits.
    """
    out: list[int] = []
    while arrangements.bit_length() > _WALK_BITS:
        shift = max(arrangements.bit_length() - _WINDOW, 0)
        before, saved = len(out), counts[:]
        triple = _decode_leaf(pid >> shift, arrangements >> shift, 1, counts, out, _CHUNK)
        state = _refresh(pid, arrangements, *triple) if len(out) > before else None
        if state is None:
            counts[:] = saved
            del out[before:]
            triple = _decode_leaf(pid, arrangements, 0, counts, out, 1)
            state = _refresh(pid, arrangements, *triple)
        pid, arrangements = state
    return out + _unrank_walk(pid, arrangements, counts)


def _refresh(pid: int, arrangements: int, p: int, q: int, t: int) -> tuple[int, int] | None:
    """The exact (rank, arrangement count) after a stretch with triple (p, q, t).

    The new rank, pid - A * T / Q (:func:`_advance`), lies in [0, A * P / Q)
    exactly when the stretch is the prefix ``pid`` encodes; otherwise this
    returns None.
    """
    offset, arrangements = _advance(arrangements, p, q, t)
    pid -= offset
    return (pid, arrangements) if 0 <= pid < arrangements else None


def _decode_leaf(num: int, den: int, err: int, counts: list[int], out: list[int], limit: int):
    """Decode up to ``limit`` symbols of an x known only as |num/den - x| <= err/den.

    A symbol is decoded only when both ends of the bound pick it, so this
    stops at the first ambiguous symbol and never guesses; it also stops
    where a single symbol kind is left, whose run the walk emits at once.
    Moving past symbol j turns num, den, err into num * m - cum_j * den,
    den * c_j and err * m. Appends the symbol ids to ``out``, consumes
    ``counts`` and returns the (P, Q, T) triple of the decoded stretch,
    as :func:`_stretch` builds it: x = (T + P * x') / Q.

    The state drops its low bits whenever the bound outgrows
    ``2 * _GUARD_BITS`` bits, so its numbers stay small. Clamping num to
    [0, den] only tightens the bound, since x lies in [0, 1); dropping
    ``shift`` bits then moves num/den by less than 1 / (den >> shift), so the
    bound becomes ceil(err / 2**shift) + 1. A symbol j is decoded when
    floor(x * m) provably lies in [cum_j, cum_j + c_j): one floor division
    gives the low end, and one product compares the high end against
    cum_j + c_j.
    """
    p = q = 1
    t = 0
    remaining = sum(counts)
    append = out.append
    keep = _GUARD_BITS
    guard = 2 * keep
    while limit and remaining:
        if err >> guard:
            shift = err.bit_length() - keep
            if num < 0:
                num = 0
            elif num > den:
                num = den
            den >>= shift
            if not den:
                break  # the bound no longer tells any symbols apart
            num >>= shift
            err = ((err - 1) >> shift) + 2
        scaled = num * remaining
        spread = err * remaining
        low = (scaled - spread) // den
        if low < 0:
            low = 0
        j = 0
        top = counts[0]
        while low >= top:
            j += 1
            top += counts[j]
        c = counts[j]
        if c == remaining or (top < remaining and scaled + spread >= top * den):
            break
        below = top - c
        num = scaled - below * den
        den *= c
        err = spread
        t = t * remaining + p * below
        p *= c
        q *= remaining
        counts[j] = c - 1
        remaining -= 1
        append(j)
        limit -= 1
    return p, q, t


def enumerate_perms(
    counts: Iterable[int], alphabet: Alphabet, *, limit: int = 200_000
) -> list:
    """All arrangements of the multiset, in rank (lexicographic) order.

    Generated by repeated next-permutation steps, independently of the
    ranking walk, so it doubles as an order oracle in tests. Refuses to
    materialize more than ``limit`` arrangements.
    """
    _symbol_positions(alphabet)
    counts = list(counts)
    if len(counts) != len(alphabet):
        raise ValueError("counts and alphabet must have the same length")
    total = multinomial(counts)
    if total > limit:
        raise ValueError(f"{total} arrangements exceed the materialization limit {limit}")

    current: list[int] = []
    for j, c in enumerate(counts):
        current.extend([j] * c)
    out = [_render(alphabet, current)]
    while _next_permutation(current):
        out.append(_render(alphabet, current))
    return out


def _next_permutation(ids: list[int]) -> bool:
    """Advance ``ids`` to its lexicographic successor in place; False at the end."""
    i = len(ids) - 2
    while i >= 0 and ids[i] >= ids[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(ids) - 1
    while ids[j] <= ids[i]:
        j -= 1
    ids[i], ids[j] = ids[j], ids[i]
    ids[i + 1 :] = reversed(ids[i + 1 :])
    return True
