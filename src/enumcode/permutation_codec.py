"""Rank and unrank sequences among the arrangements of their own multiset.

Sequences with identical symbol frequencies are ordered lexicographically
under the supplied alphabet (first alphabet entry sorts lowest); ranks are
zero-based. Sequences and alphabets are bytes, or ``str`` of code points up
to U+00FF; other sequences raise ``TypeError``. A ``str`` ranks as its
Latin-1 bytes do, and a ``str`` alphabet unranks to ``str``.

Position i of an n-symbol sequence contributes A_i * a_i / m_i to the rank,
where A_i counts the arrangements of the suffix from i, m_i = n - i, and
a_i sums the remaining counts of the symbols below the one at i. Consuming
that symbol, whose remaining count is b_i, scales A_i by b_i / m_i. Both
quotients are exact: each counts arrangements.

The rank runs from the right (:func:`perm_rank_and_count`), so the
arrangement count comes out of it: starting from the empty suffix, whose
count is 1, each symbol adds A_{i+1} * a_i / b_i to the rank and scales the
count by m_i / b_i, and after the first symbol the count is the block's
multinomial, which sets the width of its permutation field. Which path runs
is picked before the loop, from the block's length alone: a block of n
symbols over sigma kinds has a count at most n * ceil(log2 sigma) bits wide.
Where that bound is at most ``_RANK_WALK_BITS`` the block walks
(:func:`_rank_walk`): a_i and b_i come from the suffix's small counts, so
each symbol costs two big-int products and two exact divisions by the small
b_i whatever the alphabet size, on a number as wide as the count. Only the
longer blocks are counted first. They rank in chunks (:func:`_rank_chunks`),
the way they unrank: each chunk of ``_CHUNK`` symbols folds into a small
(P, Q, T) triple with small-int arithmetic, left to right, and the triples
are applied from the last to the first, one long division of the full-width
count by the small P and products by the small T and Q per chunk. A longer
block whose count is narrow ranks in chunks too, which there cost about what
the walk does (0.86x of it on 260 uniform DNA symbols, 1.07x on 32768
symbols at 1000:1 odds). Like the chunked unrank, this is quadratic in the
count's width. A product tree (binary splitting) ranks the widest counts
faster, but by at most 2.4x where measured (1.1x at 131072 DNA symbols, 2x
at 32768 symbols over 256 kinds), and only on blocks whose unrank is
slower still, so the rank does without one. ``tools/rank_curve.py``
measures both paths and the tree. Every sequence becomes symbol ids in one
step, :func:`_ids`: two ``bytes.translate`` calls check and map it. The
block codec, which checks its input once, ranks ids through
:func:`_rank_ids` and unranks them through :func:`_unrank_chunks` itself.

Unranking decodes from the left. While the arrangement count is narrow, the
greedy walk (:func:`_unrank_walk`) reads each symbol off v = pid * m_i // A_i
by a scan of the small remaining counts, so each symbol costs three big-int
products and three divisions, two of them exact divisions by m_i, and it
emits the rest as one run once a single symbol kind remains. Wider counts
(:func:`_unrank_chunks`) read the rank as the exact arithmetic-code value
rank / arrangements, Schalkwijk's view of this code, and decode symbols from
its leading bits under a rigorous error bound that never lets a symbol be
guessed. A window holds the top ``_WINDOW`` bits of rank and count exactly,
as small ints (:func:`_decode_window`), and seeds a double x ~ rank /
arrangements from them: a float stretch (:func:`_float_stretch`) reads up to
``_CHUNK`` symbols off x while its error bound stays below
2**-``_FLOAT_BITS``, and its small (P, Q, T) triple moves the window on.
A window ends where a stretch decodes nothing, at a symbol the double
cannot separate, or once its bound or its combined Q has grown too wide.
Then one exact update applies its combined triple, in lowest terms, to the
full-width state: one long division by the small Q and two products by
small P and T. The update's range check certifies the window; where a
window decodes nothing, or the check rejects it, the walk takes one exact
step instead. Every output is exact. Each update costs
time in proportion to the count's width, so a block unranks in time
quadratic in that width. A rank at or beyond the count is rejected before
any symbol is decoded. An unrank can stop early, after a limit on the
symbols it emits, which bounds the work for a padded final block by the
symbols it still owes.

The older walks, which take a big-int step for every smaller symbol kind,
and the left-to-right rank, which needs the count before it starts, are
test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .combinatorics import multinomial

Symbols = bytes | bytearray | str


def _latin1(symbols: Symbols, what: str) -> bytes:
    """``symbols`` as bytes: bytes as given, a ``str`` through Latin-1."""
    if isinstance(symbols, (bytes, bytearray)):
        return symbols
    if isinstance(symbols, str):
        return symbols.encode("latin-1")
    raise TypeError(f"{what} must be bytes or str, not {type(symbols).__name__}")


def _validate_alphabet(alphabet: Symbols) -> bytes:
    """The alphabet as bytes: not empty, its entries distinct and at most U+00FF."""
    try:
        alphabet = _latin1(alphabet, "alphabet")
    except UnicodeEncodeError as exc:
        raise ValueError(f"alphabet entry {exc.object[exc.start]!r} is above U+00FF") from None
    if not alphabet:
        raise ValueError("alphabet must not be empty")
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet entries must be distinct")
    return alphabet


def _ids(seq: Symbols, alphabet: Symbols) -> bytes:
    """The alphabet position of every symbol of ``seq``, as bytes, once the
    alphabet is checked; the first symbol outside it (a ``str`` symbol above
    U+00FF is outside every one) raises, named as ``seq`` holds it."""
    alphabet = _validate_alphabet(alphabet)
    try:
        data = _latin1(seq, "sequence")
    except UnicodeEncodeError as exc:
        # data stops short of seq at its first symbol above U+00FF
        data = seq[: exc.start].encode("latin-1")
    foreign = data.translate(None, alphabet)
    offset = data.index(foreign[0]) if foreign else len(data)
    if offset < len(seq):
        raise ValueError(f"symbol {seq[offset]!r} at offset {offset} is not in the alphabet")
    return data.translate(bytes.maketrans(alphabet, bytes(range(len(alphabet)))))


def _render(alphabet: Symbols, table: bytes, ids: Iterable[int]) -> Symbols:
    """The symbols at positions ``ids`` of ``table``, the alphabet's bytes, typed as it."""
    out = bytes(ids).translate(table.ljust(256, b"\0"))
    return out.decode("latin-1") if isinstance(alphabet, str) else out


def frequency_vector(seq: Symbols, alphabet: Symbols) -> tuple[int, ...]:
    """Occurrence count of each alphabet symbol in ``seq``, in alphabet order."""
    return tuple(map(_ids(seq, alphabet).count, range(len(alphabet))))


# A block whose arrangement count is provably at most this many bits wide,
# by the bound n * ceil(log2 sigma), ranks by the walk; a longer one ranks in
# chunks of _CHUNK symbols (tools/rank_curve.py measures both).
_RANK_WALK_BITS = 512
# Symbols per rank chunk, and the most a float stretch of the unrank decodes.
_CHUNK = 64


def perm_rank_and_count(seq: Symbols, alphabet: Symbols) -> tuple[int, int]:
    """(rank, arrangement count) of ``seq``: its zero-based lexicographic rank
    among the arrangements of its multiset, and how many there are.

    The empty sequence ranks 0 of 1. Only a block that may be wide is
    counted, for the chunked rank: one ``bytes.count`` per alphabet entry.
    """
    return _rank_ids(_ids(seq, alphabet), len(alphabet))


def _rank_ids(ids: bytes, sigma: int, pad: int = 0, kind: int = 0) -> tuple[int, int]:
    """(rank, arrangement count) of a sequence of symbol ids below ``sigma``
    followed by ``pad`` more of ``kind``, by the walk or in chunks, picked
    from the length of ``ids`` alone.

    The run of ``pad`` adds nothing to a right-to-left rank and leaves the
    count at 1, so both paths start from the state after it and rank only
    ``ids``: a padded final block costs what its real symbols cost.
    """
    # sigma ** n bounds the count of n symbols, so a block this short is narrow
    if len(ids) * (sigma - 1).bit_length() <= _RANK_WALK_BITS:
        return _rank_walk(ids, sigma, pad, kind)
    counts = list(map(ids.count, range(sigma)))
    counts[kind] += pad
    return _rank_chunks(ids, counts)


def sequence_to_perm_index(seq: Symbols, alphabet: Symbols) -> int:
    """Zero-based lexicographic rank of ``seq`` among arrangements of its multiset.

    The empty sequence ranks 0.
    """
    return perm_rank_and_count(seq, alphabet)[0]


def _rank_walk(ids: Sequence[int], sigma: int, pad: int = 0, kind: int = 0) -> tuple[int, int]:
    """(rank, arrangement count) by the right-to-left walk at two big-int steps
    per symbol, of ``ids`` followed by ``pad`` more of ``kind``.

    A is the count of the suffix after the symbol, and m is the length of
    the suffix from the symbol on, b the symbol's count in it, itself
    included, and a the count of smaller symbols in it. The symbol adds
    A * a / b to the rank and turns A into A * m / b, both exact quotients.
    The walk starts after the run of ``pad``, whose count is 1.
    """
    rank = 0
    arrangements = 1
    suffix = [0] * sigma
    suffix[kind] = pad
    m = pad
    for k in reversed(ids):
        m += 1
        b = suffix[k] + 1
        suffix[k] = b
        if k:
            below = sum(suffix[:k])
            if below:
                rank += arrangements * below // b
        arrangements = arrangements * m // b
    return rank, arrangements


def _rank_chunks(ids: Sequence[int], counts: list[int]) -> tuple[int, int]:
    """(rank, arrangement count) a chunk of ``_CHUNK`` symbols at a time; consumes ``counts``.

    ``counts`` are those of ``ids`` and of the run of one kind, if any, that
    follows them. Each chunk's (P, Q, T) triple comes left to right from
    :func:`_stretch`, which needs the counts of the suffix from the chunk
    on. The fold then runs from the last chunk to the first, starting from
    the run's count, 1: with A the count after a chunk, the chunk adds
    A * T / P to the rank and turns A into A * Q / P (:func:`_advance` with
    P and Q swapped), one long division of the wide count by the small P and
    products by the small T and Q, where the walk takes two big-int steps
    per symbol. After the first chunk A is the count of the whole block.
    """
    n = sum(counts)
    triples = [
        _stretch(ids[start : start + _CHUNK], counts, n - start)
        for start in range(0, len(ids), _CHUNK)
    ]
    rank = 0
    arrangements = 1
    for p, q, t in reversed(triples):
        if arrangements.bit_length() > 4 * q.bit_length():
            # in lowest terms, which on DNA takes about 40% off the divisor
            # and the factors of the wide steps; the gcd pays only on a count
            # a few times wider than the triple
            g = math.gcd(p, q, t)
            p, q, t = p // g, q // g, t // g
        offset, arrangements = _advance(arrangements, q, p, t)
        rank += offset
    return rank, arrangements


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


def perm_index_to_sequence(pid: int, counts: Iterable[int], alphabet: Symbols) -> Symbols:
    """The rank-``pid`` arrangement of the multiset described by ``counts``.

    Inverse of :func:`sequence_to_perm_index`; a rank at or beyond the
    arrangement count is rejected (it signals a corrupt stream upstream).
    """
    table = _validate_alphabet(alphabet)
    remaining_counts = list(counts)
    if len(remaining_counts) != len(table):
        raise ValueError("counts and alphabet must have the same length")
    arrangements = multinomial(remaining_counts)
    if not 0 <= pid < arrangements:
        raise ValueError(
            f"permutation rank {pid} out of range (multiset has {arrangements} arrangements)"
        )
    return _render(alphabet, table, _unrank_chunks(pid, arrangements, remaining_counts))


def _unrank_walk(
    pid: int, arrangements: int, counts: list[int], limit: int | None = None
) -> tuple[list[int], int, int]:
    """(ids, rank, count): the first ``limit`` (default: all) rank-``pid``
    symbol ids by the greedy walk, and the rank and arrangement count of the
    symbols after them; consumes ``counts``.

    ``arrangements`` is the multinomial of the counts. The symbol at each
    step is the j with cum_j <= pid * m // A < cum_j + c_j, read off by a
    scan of the small counts. A closing run of one kind leaves its counts
    as they were.
    """
    remaining = sum(counts)
    stop = 0 if limit is None else max(remaining - limit, 0)
    out: list[int] = []
    while remaining > stop:
        if arrangements == 1:
            # one symbol kind is left, all the remaining symbols: the rest,
            # up to the limit, is a single run of it
            out += [counts.index(remaining)] * (remaining - stop)
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
    return out, pid, arrangements


# Up to this many bits of arrangement count the walk beats the chunked unrank
# on DNA and over 20 kinds, where a hand-over at 768-1024 bits measured
# fastest; over 256 kinds, where the walk's scan of the counts costs more per
# symbol, one at 128-256 bits would be 1.1-1.7x faster (tools/rank_curve.py
# measures both).
_WALK_BITS = 1024
# Leading bits of (rank, arrangement count) each window decodes from.
_WINDOW = 384
# A window ends once the Q of its combined triple is this wide, so that P, Q
# and T stay small where each symbol carries little information.
_WINDOW_Q_BITS = 2048
# Bits of the error bound the window keeps when it drops its low bits
# (_shorten), which it does once the bound has twice as many.
_GUARD_BITS = 16
# A float stretch starts while the window's bound is below 2**-_FLOAT_BITS,
# and stops once its own bound passes it.
_FLOAT_BITS = 8
_FLOAT_BOUND = 2.0**-_FLOAT_BITS
# Added to the float error bound at each step: the step's roundings, and
# 2**-50 to spare for the next step's checks.
_FLOAT_SLACK = 2.0**-49
# The largest double below 1.
_BELOW_ONE = 1.0 - 2.0**-53


def _unrank_chunks(
    pid: int, arrangements: int, counts: list[int], limit: int | None = None
) -> list[int]:
    """The rank-``pid`` symbol ids, a window of symbols at a time; consumes ``counts``.

    With a ``limit``, no window starts once that many ids are out, and the
    walk stops at the limit: the ids past it number at most what one window
    decodes, which its ``_WINDOW_Q_BITS`` bound caps.

    x = pid / arrangements is an exact arithmetic-code value: the walk picks
    the symbol j with cum_j <= x * m < cum_j + c_j (cum_j counts the remaining
    symbols below j, m all of them) and continues with (x * m - cum_j) / c_j.
    While the arrangement count has more than ``_WALK_BITS`` bits, symbols
    are decoded from the top ``_WINDOW`` bits of (pid, arrangements), whose
    error bound is one unit of the shortened count, by :func:`_decode_window`.
    Their small (p, q, t) triple then updates the full-width state once
    (:func:`_refresh`). The refresh's range check is the exact certificate:
    if nothing was decoded, or the refresh rejects the symbols, they are
    undone and the walk takes one exact step instead. Each refresh costs
    time in proportion to the count's width, so a block costs time in
    proportion to its width squared. The walk takes over once the count has
    at most ``_WALK_BITS`` bits.
    """
    if limit is None:
        limit = sum(counts)
    out: list[int] = []
    while arrangements.bit_length() > _WALK_BITS and len(out) < limit:
        shift = max(arrangements.bit_length() - _WINDOW, 0)
        before, saved = len(out), counts[:]
        triple = _decode_window(pid >> shift, arrangements >> shift, counts, out)
        state = _refresh(pid, arrangements, *triple) if len(out) > before else None
        if state is None:
            counts[:] = saved
            del out[before:]
            step, *state = _unrank_walk(pid, arrangements, counts, 1)
            out += step
        pid, arrangements = state
    return out + _unrank_walk(pid, arrangements, counts, limit - len(out))[0]


def _decode_window(num: int, den: int, counts: list[int], out: list[int]) -> tuple[int, int, int]:
    """Decode symbols of an x known as |num/den - x| <= 1/den; returns their
    (P, Q, T) triple in lowest terms.

    The window is a run of float stretches (:func:`_float_stretch`), each
    reading symbols off num/den while the window's bound err/den is below
    2**-_FLOAT_BITS. Each stretch moves the window on by its triple: num,
    den, err turn into Q * num - T * den, P * den and Q * err, and once the
    bound has twice ``_GUARD_BITS`` bits, :func:`_shorten` drops their low
    bits. The window ends where its bound passes 2**-_FLOAT_BITS, where a
    stretch decodes nothing, or where the combined Q has passed
    ``_WINDOW_Q_BITS`` bits. Appends the symbol ids to ``out`` and consumes
    ``counts``.
    """
    err = 1
    p = q = 1
    t = 0
    remaining = sum(counts)
    guard = 2 * _GUARD_BITS
    while den >> _FLOAT_BITS > err and q.bit_length() <= _WINDOW_Q_BITS:
        before = len(out)
        sp, sq, st = _float_stretch(num, den, err, counts, remaining, out)
        if len(out) == before:
            break
        remaining -= len(out) - before
        num, den, err = sq * num - st * den, sp * den, sq * err
        if err >> guard:
            num, den, err = _shorten(num, den, err)
        p, q, t = p * sp, q * sq, t * sq + p * st
    # in lowest terms, which on DNA takes about 40% off the divisor and the
    # factors of the refresh
    g = math.gcd(p, q, t)
    return p // g, q // g, t // g


def _float_stretch(
    num: int, den: int, err: int, counts: list[int], remaining: int, out: list[int]
) -> tuple[int, int, int]:
    """Decode up to ``_CHUNK`` symbols of an x known as |num/den - x| <= err/den
    in doubles; returns their (P, Q, T) triple, as :func:`_stretch` builds it.

    ``remaining`` is the sum of ``counts``. The double x ~ num/den is clamped
    into [0, 1), where x lies, and e bounds its error with 2**-50 to spare
    while e stays below ``_FLOAT_BOUND``. That spare covers the roundings of
    x * m - e * m and x * m + e * m, so a symbol j is decoded only where the
    first, floored, and the second both lie in [cum_j, cum_j + c_j): a scan
    of the counts for the floor checks the low end, and the largest kind
    needs no check of the high end, since x * m < m. The scan starts from
    the end of the counts nearer the floor, which over 256 kinds halves its
    length. Then x turns into (x * m - cum_j) / c_j, whose subtraction is
    exact, and e into e * m / c_j + ``_FLOAT_SLACK``, which covers the rest
    of the step's roundings. This stops at the first symbol the bound does
    not separate, and once e passes ``_FLOAT_BOUND``. Appends the symbol ids
    to ``out`` and consumes ``counts``.
    """
    x = num / den
    if x < 0.0:
        x = 0.0
    elif x > _BELOW_ONE:
        x = _BELOW_ONE
    slack = _FLOAT_SLACK
    bound = _FLOAT_BOUND
    e = err / den + slack
    p = 1
    t = 0
    start = remaining
    last = len(counts) - 1
    append = out.append
    for _ in range(min(_CHUNK, remaining)):
        if e > bound:
            break
        y = x * remaining
        spread = e * remaining
        low = int(y - spread)
        if low < 0:
            low = 0
        if low + low < remaining:
            j = 0
            top = counts[0]
            while low >= top:
                j += 1
                top += counts[j]
            c = counts[j]
            below = top - c
        else:
            j = last
            top = remaining
            c = counts[j]
            below = top - c
            while low < below:
                j -= 1
                top = below
                c = counts[j]
                below -= c
        if top < remaining and y + spread >= top:
            break
        x = (y - below) / c
        e = spread / c + slack
        t = t * remaining + p * below
        p *= c
        counts[j] = c - 1
        remaining -= 1
        append(j)
    return p, math.perm(start, start - remaining), t


def _refresh(pid: int, arrangements: int, p: int, q: int, t: int) -> tuple[int, int] | None:
    """The exact (rank, arrangement count) after a stretch with triple (p, q, t).

    The new rank, pid - A * T / Q (:func:`_advance`), lies in [0, A * P / Q)
    exactly when the stretch is the prefix ``pid`` encodes; otherwise this
    returns None.
    """
    offset, arrangements = _advance(arrangements, p, q, t)
    pid -= offset
    return (pid, arrangements) if 0 <= pid < arrangements else None


def _shorten(num: int, den: int, err: int) -> tuple[int, int, int]:
    """(num, den, err) of an x known as |num/den - x| <= err/den, with the
    bound cut to ``_GUARD_BITS`` bits.

    Clamping num to [0, den] only tightens the bound, since x lies in [0, 1);
    dropping ``shift`` bits then moves num/den by less than 1 / (den >> shift),
    so the bound becomes ceil(err / 2**shift) + 1.
    """
    shift = err.bit_length() - _GUARD_BITS
    if num < 0:
        num = 0
    elif num > den:
        num = den
    return num >> shift, den >> shift, ((err - 1) >> shift) + 2


def enumerate_perms(
    counts: Iterable[int], alphabet: Symbols, *, limit: int = 200_000
) -> list[Symbols]:
    """All arrangements of the multiset, in rank (lexicographic) order.

    Generated by repeated next-permutation steps, independently of the
    ranking walk, so it doubles as an order oracle in tests. Refuses to
    materialize more than ``limit`` arrangements.
    """
    table = _validate_alphabet(alphabet)
    counts = list(counts)
    if len(counts) != len(table):
        raise ValueError("counts and alphabet must have the same length")
    total = multinomial(counts)
    if total > limit:
        raise ValueError(f"{total} arrangements exceed the materialization limit {limit}")

    current: list[int] = []
    for j, c in enumerate(counts):
        current.extend([j] * c)
    out = [_render(alphabet, table, current)]
    while _next_permutation(current):
        out.append(_render(alphabet, table, current))
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
