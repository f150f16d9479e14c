"""Slow, independent oracles for the vector count, the block codec, the
permutation rank and unrank and the Elias-delta reader.

The count oracles are the paper's sum form of the vector count, which
``k_count``'s closed form replaced, and two forms of the multinomial: the
chained ``math.comb`` product that ``multinomial`` runs on small vectors and
ran on every vector before its prime-factored path, and the factorial
quotient. The symbol-id oracle is the per-symbol
dict lookup the permutation codec ran on every sequence other than bytes,
before ``str`` went through Latin-1 to ``bytes.translate``. Each block-codec oracle walks the scheme
as the ``block_codec`` module docstring describes it, without the library's
block cutter (``_cut``) or its pricing memo, so a check against them does
not compare the code under test with itself. The accounting oracle prices
every block from its exact arrangement count; ``real_bits_tolerance`` says
how far the library's real-valued bits, which take those terms from
lgamma's log2 k!, may lie from it. The walk oracles rank and
unrank with a big-int step for every smaller symbol kind, as the library's
walks did before they summed the small counts first. The left-to-right rank
oracles are the rank before it ran from the right and yielded the
arrangement count. The split oracle is the product tree the rank used for
its widest counts, fast enough to check blocks of 64k symbols. The reader
and writer oracles read and write a codeword field by field. The boundary blocks
are test inputs for the unrank, shared with ``tools/rank_curve.py``. The
block decoder oracle is the per-block decode loop that ran before decode
worked in symbol ids and unranked only the symbols still owed.
"""

import math
from typing import NamedTuple

from enumcode.analysis import log2_int
from enumcode.bitstream import BitReader, BitstreamError, BitWriter, elias_delta_bit_length
from enumcode.block_codec import (
    _LF_BOUND,
    DEFAULT_MAX_OUTPUT,
    AccountedBits,
    AlphabetError,
    CorruptContainerError,
    EncodedContainer,
)
from enumcode.combinatorics import ceil_log2, k_count, multinomial
from enumcode.composition_codec import index_to_vector, vector_to_index
from enumcode.permutation_codec import (
    _CHUNK,
    _advance,
    _stretch,
    perm_index_to_sequence,
)


class ReferenceBlock(NamedTuple):
    content: bytes
    length: int
    freq: tuple[int, ...]
    reduced_freq: tuple[int, ...] | None  # the vector variable mode ranks
    pad_count: int


# -- reference composition count -----------------------------------------------
#
# The paper's form of the vector count, summed over the number of zero
# dimensions, which the closed form C(n + sigma - 1, sigma - 1) replaced.


def binomial(n, k):
    """C(n, k), defined as 0 when k < 0 or k > n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def k_count_sum_form(sigma, inner_sum):
    """Composition count evaluated by summing over the number of zero dimensions.

    The summation's derivation assumes at least one positive dimension, so the
    empty composition (inner_sum == 0) is returned directly.
    """
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    if inner_sum < 0:
        raise ValueError("inner_sum must be >= 0")
    if inner_sum == 0:
        return 1
    return sum(
        binomial(inner_sum - 1, sigma - 1 - i) * binomial(sigma, i)
        for i in range(sigma)
    )


# -- reference multinomial -----------------------------------------------------
#
# The arrangement count without prime factors: chained binomials, as
# ``multinomial`` computes every vector below its crossover, and the
# quotient of factorials by its definition.


def reference_multinomial(counts):
    """(sum counts)! / prod(c_i!) as C(c_1, c_1) * C(c_1 + c_2, c_2) * ..."""
    result = 1
    total = 0
    for c in counts:
        if c < 0:
            raise ValueError("counts must be non-negative")
        total += c
        result *= math.comb(total, c)
    return result


def factorial_quotient(counts):
    """(sum counts)! / prod(c_i!) by one long division."""
    counts = list(counts)
    if min(counts, default=0) < 0:
        raise ValueError("counts must be non-negative")
    return math.factorial(sum(counts)) // math.prod(map(math.factorial, counts))


# -- reference factorization ---------------------------------------------------
#
# The per-byte scan that factorization used before it moved to C-level bytes
# methods (translate/count). It walks the input one symbol at a time.


def reference_factorize(data, params):
    """Every block as a :class:`ReferenceBlock`."""
    if len(data) != params.n:
        raise ValueError(f"data length {len(data)} != declared n {params.n}")
    table = [-1] * 256
    for pos, byte in enumerate(params.alphabet):
        table[byte] = pos

    def block(content, freq, pad_count=0):
        reduced = None
        if params.mode == "variable":
            reduced = tuple(c for i, c in enumerate(freq) if i != params.alpha_index - 1)
        return ReferenceBlock(content, len(content), tuple(freq), reduced, pad_count)

    if params.mode == "fixed":
        for offset, byte in enumerate(data):
            if table[byte] < 0:
                raise AlphabetError(byte, offset)
        blocks = []
        for start in range(0, params.n, params.fixed_len):
            chunk = data[start : start + params.fixed_len]
            freq = [0] * params.sigma
            for byte in chunk:
                freq[table[byte]] += 1
            blocks.append(block(chunk, freq))
        return blocks

    alpha, apos, r = params.alpha_byte, params.alpha_index - 1, params.r
    blocks = []
    freq = [0] * params.sigma
    start = 0
    for offset, byte in enumerate(data):
        pos = table[byte]
        if pos < 0:
            raise AlphabetError(byte, offset)
        if byte == alpha and freq[apos] == r:
            blocks.append(block(data[start:offset], freq))
            start = offset + 1
            freq = [0] * params.sigma
        else:
            freq[pos] += 1
    residue = data[start:]
    if params.n == 0:
        return []
    if not residue and blocks:
        return blocks
    pad = r - freq[apos]
    freq[apos] = r
    blocks.append(block(residue + bytes([alpha]) * pad, freq, pad_count=pad))
    return blocks


def reference_vector_count(length, params):
    """How many count vectors a ``length``-symbol block's frequency field chooses from."""
    if params.mode == "fixed":
        return k_count(params.sigma, length)
    if params.sigma == 1:
        return 1
    return k_count(params.sigma - 1, length - params.r)


def reference_header_bytes(params):
    """Header size from README's format table: magic, version, mode, sigma,
    the alphabet, n, then alpha_index and r, or fixed_len."""
    return 4 + 1 + 1 + 2 + params.sigma + 8 + (2 + 4 if params.mode == "variable" else 4)


# -- reference accounting ------------------------------------------------------


def reference_accounted_bits(blocks, params):
    """The per-block pricing loop that the memoised ``vector_bits`` replaced,
    with every block's exact arrangement count and logarithms."""
    variable = params.mode == "variable"
    length_bits = delta_bits = freq_bits = perm_bits = 0
    real = 0.0
    for block in blocks:
        if variable:
            length_bits += ceil_log2(block.length)
            delta_bits += elias_delta_bit_length(block.length)
            real += math.log2(block.length)
        count = reference_vector_count(block.length, params)
        freq_bits += ceil_log2(count)
        real += log2_int(count)
        arrangements = multinomial(block.freq)
        perm_bits += ceil_log2(arrangements)
        real += log2_int(arrangements)
    payload = delta_bits + freq_bits + perm_bits
    return AccountedBits(
        blocks=len(blocks),
        bits_ceiled=length_bits + freq_bits + perm_bits,
        bits_real=real,
        length_bits=length_bits,
        freq_bits=freq_bits,
        perm_bits=perm_bits,
        container_bits=reference_header_bytes(params) * 8 + 8 * (-(-payload // 8)),
    )


def real_bits_tolerance(lengths, bits_real):
    """How far the library's ``bits_real`` may lie from ``bits_real``, the
    oracle's, for blocks of these lengths.

    The library takes log2 of the arrangement count of every block from
    log2 k! = lgamma(k + 1) / ln 2, within ``_LF_BOUND`` * log2 n! of the
    exact value; the bound is derived for n <= ``_LF_CHECKED`` and the
    tests hold longer blocks to it too. Each side then rounds at most three
    times per block as it adds, by at most 2**-53 of the total each time.
    """
    lf = sum(math.lgamma(n + 1) / math.log(2) for n in lengths)
    return _LF_BOUND * lf + 6 * len(lengths) * 2**-53 * bits_real


# -- reference symbol ids ------------------------------------------------------
#
# A dict from each alphabet entry to its position, for any sequence of
# hashable symbols: lists of characters, lists of byte values, str and bytes.


def symbol_ids(seq, alphabet):
    """The alphabet position of every symbol of ``seq``, and the count of each position."""
    positions = {sym: pos for pos, sym in enumerate(alphabet)}
    assert len(positions) == len(alphabet), "alphabet entries must be distinct"
    counts = [0] * len(alphabet)
    ids = []
    for offset, sym in enumerate(seq):
        pos = positions.get(sym)
        if pos is None:
            raise ValueError(f"symbol {sym!r} at offset {offset} is not in the alphabet")
        ids.append(pos)
        counts[pos] += 1
    return ids, counts


# -- reference walks -----------------------------------------------------------
#
# The permutation rank and unrank walks before they summed the small counts
# below a symbol: both take a big-int step for every smaller symbol kind.


def reference_rank_incremental(ids, counts):
    """The rank by the left-to-right walk; consumes ``counts``."""
    rank = 0
    remaining = len(ids)
    arrangements = multinomial(counts)
    for k in ids:
        # arrangements of the suffix that start with a smaller symbol
        for j in range(k):
            if counts[j]:
                rank += arrangements * counts[j] // remaining
        arrangements = arrangements * counts[k] // remaining
        counts[k] -= 1
        remaining -= 1
    return rank


def reference_unrank_incremental(pid, arrangements, remaining_counts):
    """The rank-``pid`` symbol ids by the greedy walk; consumes ``remaining_counts``.

    ``arrangements`` is the multinomial of the counts.
    """
    remaining = sum(remaining_counts)
    out = []
    while remaining:
        if arrangements == 1:
            # one symbol kind is left: the rest is a single run of it
            for j, cj in enumerate(remaining_counts):
                out += [j] * cj
            break
        preceding = 0
        for j, cj in enumerate(remaining_counts):
            if not cj:
                continue
            here = arrangements * cj // remaining
            if pid < preceding + here:
                pid -= preceding
                remaining_counts[j] -= 1
                arrangements = here
                remaining -= 1
                out.append(j)
                break
            preceding += here
    return out


# -- reference left-to-right rank ---------------------------------------------
#
# The rank before it ran from the right: it starts from the block's
# multinomial, built beforehand, and walks the block from its first symbol,
# in chunks while the count has more than 512 bits.


def reference_rank_walk(ids, counts, arrangements):
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


def reference_rank_chunks(ids, counts, arrangements):
    """The rank a chunk of symbols at a time, then by the walk; consumes ``counts``.

    ``arrangements`` is the multinomial of ``counts``. While it has more than
    512 bits, the next ``_CHUNK`` symbols give a (P, Q, T) triple, which adds
    A * T / Q to the rank and turns A into A * P / Q.
    """
    rank = 0
    start = 0
    while arrangements.bit_length() > 512:
        stop = start + _CHUNK
        offset, arrangements = _advance(
            arrangements, *_stretch(ids[start:stop], counts, len(ids) - start)
        )
        rank += offset
        start = stop
    return rank + reference_rank_walk(ids[start:], counts, arrangements)


# -- reference encoder ---------------------------------------------------------
#
# The block loop encode() ran before it read blocks at their bounds: cut the
# input block by block, then rank each block's content with the oracle walk.


def reference_encode(data, params):
    writer = BitWriter()
    for block in reference_factorize(data, params):
        vector = block.freq
        if params.mode == "variable":
            writer.write_elias_delta(block.length)
            vector = block.reduced_freq
        writer.write(
            vector_to_index(vector) if vector else 0,
            ceil_log2(reference_vector_count(block.length, params)),
        )
        writer.write(
            reference_rank_incremental(*symbol_ids(block.content, params.alphabet)),
            ceil_log2(multinomial(block.freq)),
        )
    return EncodedContainer(params=params, payload=writer.getvalue(), payload_bits=writer.bit_length)


# -- reference block decoder ---------------------------------------------------
#
# The per-block loop decode() ran before it worked in symbol ids: each block's
# fields read with their shape worked out afresh, then the symbol-level
# unrank, which checks the alphabet and the rank again and renders the block,
# every block unranked whole, the padded final one included, and the padding
# checked by stripping what lies past n.


def _check_room(reader, min_width, what):
    if min_width > reader.bits_remaining:
        raise ValueError(
            f"{what} needs at least {min_width} bits, only {reader.bits_remaining} remain"
        )


def _reference_block_fields(reader, length, params):
    """(frequency vector, permutation rank, arrangement count) of a block of known length."""
    if params.mode == "fixed":
        dims, inner = params.sigma, length
    else:
        dims, inner = params.sigma - 1, length - params.r
    if not dims and inner:
        raise ValueError(f"length {length} exceeds r over a 1-symbol alphabet")
    _check_room(reader, min(dims - 1, inner), "frequency rank")
    rank = reader.read(ceil_log2(reference_vector_count(length, params)))
    freq = index_to_vector(rank, inner, dims) if dims else ()
    if dims < params.sigma:
        apos = params.alpha_index - 1
        freq = freq[:apos] + (params.r,) + freq[apos:]
    most = max(freq)
    _check_room(reader, min(length - most, most), "permutation rank")
    arrangements = multinomial(freq)
    pid = reader.read(ceil_log2(arrangements))
    if pid >= arrangements:
        raise ValueError(f"permutation rank {pid} out of range (< {arrangements})")
    return freq, pid, arrangements


def reference_block_decode(container, max_output=DEFAULT_MAX_OUTPUT):
    """The bytes ``decode`` returns for ``container``, or the error it raises."""
    params = container.params
    n = params.n
    if n > max_output:
        raise CorruptContainerError(
            f"header declares n={n} symbols, more than the output cap of {max_output}"
        )
    reader = BitReader(container.payload)
    out = bytearray()
    blocks = 0
    start = 0
    variable = params.mode == "variable"
    delimiter = bytes([params.alpha_byte]) if variable else b""
    while len(out) < n:
        start = reader.position
        blocks += 1
        try:
            if variable:
                length = reader.read_elias_delta()
                if length < params.r:
                    raise ValueError(f"block length {length} is below r={params.r}")
                if length > n - len(out) + params.r:
                    raise ValueError(f"block length {length} exceeds the sequence length")
            else:
                length = min(params.fixed_len, n - len(out))
            freq, pid, arrangements = _reference_block_fields(reader, length, params)
            out += perm_index_to_sequence(pid, freq, params.alphabet, arrangements)
        except (BitstreamError, ValueError) as exc:
            raise CorruptContainerError(str(exc), block=blocks, bit_offset=start) from None
        out += delimiter
    if reader.bits_remaining >= 8 or (
        reader.bits_remaining and reader.read(reader.bits_remaining)
    ):
        raise CorruptContainerError(
            "trailing garbage after the final block", block=blocks, bit_offset=start
        )
    if out[n:].strip(delimiter):
        raise CorruptContainerError(
            "padding differs from the delimiter symbol", block=blocks, bit_offset=start
        )
    del out[n:]
    return bytes(out)


# -- reference product-tree rank ----------------------------------------------
#
# The rank by binary splitting, which ranked the widest counts before the
# chunked rank took them all. Its own leaf loop builds the (P, Q, T) triples,
# so it checks ``_stretch`` rather than sharing it.


def reference_rank_split(ids, counts):
    """The rank by binary splitting (Haible & Papanikolaou); consumes ``counts``.

    Over a range of positions, (P, Q, T) = (prod b_i, prod m_i, T) with
    T / Q = sum_i (a_i / m_i) * prod_{t<i in range} (b_t / m_t). Adjacent
    ranges combine as (P_L P_R, Q_L Q_R, T_L Q_R + P_L T_R). Over the whole
    sequence A_0 = Q / P, so the rank A_0 * T / Q is exactly T / P.
    """
    leaf = 16  # symbols per leaf, ranked with a plain loop
    level = []
    remaining = len(ids)
    for start in range(0, len(ids), leaf):
        p = q = 1
        t = 0
        for k in ids[start : start + leaf]:
            t = t * remaining + p * sum(counts[:k])
            p *= counts[k]
            q *= remaining
            counts[k] -= 1
            remaining -= 1
        level.append((p, q, t))
    while len(level) > 2:
        paired = [
            (pl * pr, ql * qr, tl * qr + pl * tr)
            for (pl, ql, tl), (pr, qr, tr) in zip(level[::2], level[1::2])
        ]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    if len(level) == 2:  # the root's Q is never needed
        (pl, _, tl), (pr, qr, tr) = level
        p, t = pl * pr, tl * qr + pl * tr
    else:
        p, _, t = level[0] if level else (1, 1, 0)
    return _exact_quotient(t, p)


def _exact_quotient(t, p):
    """t // p for a p > 0 known to divide t >= 0, without long division.

    CPython's long division is quadratic, so this divides 2-adically instead:
    strip the factors of 2 from both, then multiply t by the inverse of the
    odd p modulo 2**k, where k exceeds the quotient's bit length. Newton's
    iteration x <- x * (2 - p * x) doubles the inverse's valid bits per step.
    """
    if not t:
        return 0
    shift = (p & -p).bit_length() - 1
    t >>= shift
    p >>= shift
    k = t.bit_length() - p.bit_length() + 2
    inverse, bits = 1, 1
    while bits < k:
        bits = min(2 * bits, k)
        mask = (1 << bits) - 1
        inverse = inverse * (2 - (p & mask) * inverse) & mask
    mask = (1 << k) - 1
    return (t & mask) * inverse & mask


# -- blocks on symbol boundaries ----------------------------------------------
#
# Blocks whose ranks put the unrank's value on or next to the boundary between
# two symbols, where no bound short of the exact one tells them apart.


def boundary_aligned(seq):
    """Blocks whose ranks sit on or next to symbol boundaries of the unrank."""
    half = len(seq) // 2
    kinds = sorted(set(seq))
    runs = {
        size: [x for start in range(0, len(seq), size) for x in sorted(seq[start : start + size])]
        for size in (64, 512)
    }
    return {
        "ascending tail": list(seq[:half]) + sorted(seq[half:]),
        "descending tail": list(seq[:half]) + sorted(seq[half:], reverse=True),
        "sorted runs of 64": runs[64],
        "sorted runs of 512": runs[512],
        "periodic": kinds * (len(seq) // max(len(kinds), 1)),
    }


# -- reference Elias-delta writer and reader ----------------------------------
#
# The writer before it wrote a codeword as one field: three ``write`` calls.
# The reader before it took a whole codeword from one window: one window finds
# the zero run, then two ``read`` calls take the bit count and the value.


def reference_write_elias_delta(writer, value):
    """The Elias-delta codeword as three fields: the zero run, the bit count,
    then the value below its top bit."""
    nbits = value.bit_length()
    lbits = nbits.bit_length()
    writer.write(0, lbits - 1)
    writer.write(nbits, lbits)
    writer.write(value & ((1 << (nbits - 1)) - 1), nbits - 1)


class ReferenceBitReader(BitReader):
    __slots__ = ()

    def read_elias_delta(self):
        # a run of 65 zeros is malformed, a shorter one ran out
        pos = self._pos
        width = min(65, len(self._data) * 8 - pos)
        end = pos + width
        last = (end + 7) >> 3
        window = int.from_bytes(self._data[pos >> 3 : last], "big") >> (last * 8 - end)
        window &= (1 << width) - 1
        if not window:
            raise BitstreamError(
                "malformed length codeword" if width == 65 else "bit stream exhausted"
            )
        zeros = width - window.bit_length()
        self._pos = pos + zeros + 1
        nbits = (1 << zeros) | self.read(zeros)
        if nbits > 64:
            raise BitstreamError("length codeword exceeds 64-bit range")
        return (1 << (nbits - 1)) | self.read(nbits - 1)
