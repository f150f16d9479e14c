"""Block-based encoder/decoder for byte sequences over a small alphabet.

The variable-length scheme picks a delimiter symbol and a repeat count r,
then factors the input into blocks that each contain the delimiter exactly
r times; the occurrence that would be the (r+1)-th ends the block and is
consumed without being stored, because the decoder knows it must follow.
The tail of the input is padded with delimiters up to r occurrences; if the
input ends exactly on a consumed delimiter, no tail block is emitted at all.
The stored original length tells the decoder how many symbols the final
block still owes: it unranks only those and checks that the rest of the
block is delimiters.

Each block is serialized as

    [length codeword]   Elias delta, variable mode only
    [frequency rank]    rank of the block's count vector, in exactly
                        ceil(log2(#vectors)) bits; variable mode ranks the
                        reduced vector (delimiter dimension dropped, its
                        count is always r)
    [permutation rank]  rank of the block among arrangements of its own
                        multiset, in ceil(log2(#arrangements)) bits

A field whose value set has a single element occupies zero bits, which is
what skips the permutation rank for single-symbol blocks. The fixed-length
scheme cuts blocks of a constant length instead (last one short), dropping
the length codewords but ranking the full count vector.

All field widths are computable from the container header plus previously
decoded fields, so the payload carries no other framing.

Both directions work in symbol ids, alphabet positions as bytes, from edge
to edge. :func:`encode` checks its input against the alphabet once and maps
each block to ids through one table; :func:`decode` appends every block's
ids and renders them as the alphabet's bytes once, at the end.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import compress, repeat
from operator import add

from .analysis import (
    _LF_CAP,
    _LF_CHECKED,
    _LF_ERROR,
    _log2_factorials,
    log2_factorial,
    log2_int,
)
from .bitstream import (
    BitReader,
    BitstreamError,
    BitWriter,
    elias_delta_bit_length,
    elias_delta_codeword,
)
from .combinatorics import ceil_log2, k_count, multinomial
from .composition_codec import index_to_vector, vector_to_index
from .permutation_codec import (
    _rank_ids,
    _unrank_chunks,
    perm_index_to_sequence,  # unused; perfbench/tracer.py traces this name until ROADMAP item 2
    sequence_to_perm_index,  # unused; perfbench/tracer.py traces this name until ROADMAP item 2
)

MAGIC = b"ENUM"
VERSION = 1
# Most symbols decode() reconstructs unless its caller allows more: a
# container of a few bytes may declare up to 2**64 - 1 of them.
DEFAULT_MAX_OUTPUT = 1 << 28
MODE_FIXED = "fixed"
MODE_VARIABLE = "variable"
# The header, as README's format table lays it out: magic, version, mode
# byte and sigma, then the alphabet's sigma bytes, then n and each mode's own
# fields, named as CodecParams names them.
_PREFIX = struct.Struct(">4sBBH")
_MODE_FIELDS = {
    MODE_FIXED: (0, struct.Struct(">QI"), ("n", "fixed_len")),
    MODE_VARIABLE: (1, struct.Struct(">QHI"), ("n", "alpha_index", "r")),
}
_MODES = {code: (mode, fields, names) for mode, (code, fields, names) in _MODE_FIELDS.items()}
# r and fixed_len are u32 header fields
_U32_MAX = 0xFFFFFFFF


class AlphabetError(ValueError):
    """An input byte is not part of the declared alphabet."""

    def __init__(self, byte: int, offset: int):
        self.byte = byte
        self.offset = offset
        super().__init__(f"byte 0x{byte:02x} at offset {offset} is not in the alphabet")


class FormatError(ValueError):
    """The container header is malformed."""


class CorruptContainerError(ValueError):
    """The container payload is inconsistent with its header.

    ``block`` is the 1-based index of the block at fault and ``bit_offset``
    the payload bit at which that block starts, where they are known.
    """

    def __init__(self, message: str, block: int | None = None, bit_offset: int | None = None):
        self.block = block
        self.bit_offset = bit_offset
        if block is not None:
            message = f"block {block}: {message}"
        if bit_offset is not None:
            message = f"payload bit {bit_offset}, {message}"
        super().__init__(message)


class CodecParams(
    namedtuple("CodecParams", "alphabet mode n alpha_index r fixed_len", defaults=(None,) * 3)
):
    """Everything both sides must agree on before any payload bit is read.

    ``alphabet`` is bytes and ``mode`` is :data:`MODE_FIXED` or
    :data:`MODE_VARIABLE`. ``alpha_index`` is the 1-based position of the
    delimiter symbol in the alphabet; ``r`` its per-block occurrence count
    (variable mode). ``fixed_len`` is the block length of fixed mode. ``n``
    is the original sequence length in symbols. Both ways in, the
    constructor and :meth:`_replace`, validate.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CodecParams:
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.alphabet, bytes):
            raise ValueError("alphabet must be bytes")
        if not 1 <= len(self.alphabet) <= 0xFFFF:
            raise ValueError("alphabet must hold between 1 and 65535 symbols")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet entries must be distinct")
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if self.mode == MODE_VARIABLE:
            if self.alpha_index is None or not 1 <= self.alpha_index <= self.sigma:
                raise ValueError("variable mode needs 1 <= alpha_index <= sigma")
            if self.r is None or not 1 <= self.r <= _U32_MAX:
                raise ValueError(f"variable mode needs 1 <= r <= {_U32_MAX}")
            if self.fixed_len is not None:
                raise ValueError("fixed_len is meaningless in variable mode")
        elif self.mode == MODE_FIXED:
            if self.fixed_len is None or not 1 <= self.fixed_len <= _U32_MAX:
                raise ValueError(f"fixed mode needs 1 <= fixed_len <= {_U32_MAX}")
            if self.alpha_index is not None or self.r is not None:
                raise ValueError("alpha_index/r are meaningless in fixed mode")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")
        return self

    @classmethod
    def _make(cls, iterable) -> CodecParams:
        return cls(*iterable)

    @classmethod
    def variable(cls, alphabet: bytes, alpha: bytes | int, r: int, n: int) -> "CodecParams":
        """Build variable-mode params from the delimiter symbol itself."""
        if isinstance(alpha, (bytes, bytearray)):
            if len(alpha) != 1:
                raise ValueError(f"delimiter must be one symbol, got {bytes(alpha)!r}")
            alpha = alpha[0]
        byte = int(alpha)
        try:
            index = alphabet.index(byte) + 1
        except ValueError:
            raise ValueError(f"delimiter symbol 0x{byte:02x} is not in the alphabet") from None
        return cls(alphabet=alphabet, mode=MODE_VARIABLE, n=n, alpha_index=index, r=r)

    @classmethod
    def fixed(cls, alphabet: bytes, fixed_len: int, n: int) -> "CodecParams":
        return cls(alphabet=alphabet, mode=MODE_FIXED, n=n, fixed_len=fixed_len)

    @property
    def sigma(self) -> int:
        return len(self.alphabet)

    @property
    def alpha_byte(self) -> int:
        if self.alpha_index is None:
            raise ValueError("no delimiter symbol in fixed mode")
        return self.alphabet[self.alpha_index - 1]


class Block(namedtuple("Block", "content length freq pad_count", defaults=(0,))):
    """One factor of the input plus its symbol counts.

    ``freq`` spans the full alphabet, delimiter included; variable mode's
    frequency field ranks it without the delimiter dimension, whose count
    is always r. ``pad_count`` delimiters were appended to ``content`` and
    is non-zero only on a final block. A block carries no rank:
    :func:`encode` ranks ``content`` when it writes the field, so
    accounting and sweeps never pay for ranks they do not pack.
    """

    __slots__ = ()


def check_alphabet(data: bytes, alphabet: bytes) -> None:
    """Raise :class:`AlphabetError` at the first byte of ``data`` outside ``alphabet``."""
    foreign = data.translate(None, alphabet)
    if foreign:
        raise AlphabetError(foreign[0], data.index(foreign[0]))


def _check_input(data: bytes, params: CodecParams) -> None:
    if len(data) != params.n:
        raise ValueError(f"data length {len(data)} != declared n {params.n}")
    check_alphabet(data, params.alphabet)


def delimiter_positions(data: bytes, byte: int) -> list[int]:
    """Offsets of every ``byte`` in ``data``, in order."""
    indicator = bytearray(256)
    indicator[byte] = 1
    return list(compress(range(len(data)), data.translate(indicator)))


def block_vectors(data: bytes, params: CodecParams) -> tuple[list[tuple[int, ...]], int]:
    """The count vector of every block, and the final block's padding.

    Counts are read between :func:`_cut`'s bounds in ``data`` itself, so no
    block is sliced or built.
    """
    _check_input(data, params)
    _, columns, pad = _cut(data, params)
    return list(zip(*columns)), pad


def grid_vectors(data: bytes, grid: list[CodecParams]) -> Iterator[list[tuple[int, ...]]]:
    """The :func:`block_vectors` vectors of ``data`` under each params of ``grid``, in turn.

    The grid shares one alphabet, and ``data`` is checked against it once.
    Each delimiter's offsets are found once and serve every r. A fixed
    length whose half came earlier in the grid cuts nothing: it adds that
    cut's adjacent blocks in pairs.
    """
    if grid:
        check_alphabet(data, grid[0].alphabet)
    positions: dict[int, list[int]] = {}
    cuts: dict[int, list[list[int]]] = {}  # fixed_len -> its columns
    for params in grid:
        if params.alphabet != grid[0].alphabet or params.n != len(data):
            raise ValueError("grid_vectors needs one alphabet and n = len(data) across the grid")
        if params.mode == MODE_VARIABLE:
            alpha = params.alpha_byte
            if alpha not in positions:
                positions[alpha] = delimiter_positions(data, alpha)
            _, columns, _ = _cut(data, params, positions[alpha])
        else:
            half, odd = divmod(params.fixed_len, 2)
            if not odd and half in cuts:
                # an odd count of half blocks leaves the last one unpaired
                columns = [[*map(add, c[::2], c[1::2]), *c[len(c) & ~1 :]] for c in cuts[half]]
            else:
                _, columns, _ = _cut(data, params)
            cuts[params.fixed_len] = columns
        yield list(zip(*columns))


def factorize(data: bytes, params: CodecParams) -> list[Block]:
    """Every block at :func:`_cut`'s bounds, with its symbols and count vector."""
    _check_input(data, params)
    contents, columns, pad = _cut(data, params)
    blocks = [Block(content, len(content), freq) for content, freq in zip(contents, zip(*columns))]
    if pad:
        blocks[-1] = blocks[-1]._replace(pad_count=pad)
    return blocks


def _cut(
    data: bytes, params: CodecParams, positions: list[int] | None = None
) -> tuple[Iterator[bytes], list[list[int]], int]:
    """(contents, columns, pad): every block's symbols, sliced lazily, and its counts.

    ``columns`` holds one list per alphabet symbol, that symbol's count in
    every block; ``zip(*columns)`` gives the blocks' count vectors. The
    counts are read between the block bounds in ``data`` itself, so a
    caller that leaves ``contents`` unread slices nothing. The caller has
    checked ``data`` (:func:`_check_input`); ``positions`` are the
    delimiter's offsets (:func:`delimiter_positions`) when it already has
    them. In variable mode
    every block holds the delimiter exactly r times and the (r+1)-th ends
    it; the final block ends ``pad`` delimiters past the end of ``data``,
    which it owes to padding and which its content carries, and an input
    ending on a consumed delimiter has no final block. The last fixed-mode
    block may be short.
    """
    n = len(data)
    pad = 0
    if params.mode == MODE_FIXED:
        alpha = r = None
        size = params.fixed_len
        starts = range(0, n, size)
        ends = range(size, n + size, size)
    else:
        alpha, r = params.alpha_byte, params.r
        if positions is None:
            positions = delimiter_positions(data, alpha)
        # each full block ends at the (r+1)-th delimiter from its start
        ends = positions[r :: r + 1]
        starts = [0, *(end + 1 for end in ends)]
        if starts[-1] < n:
            pad = r - (len(positions) - (len(starts) - 1) * (r + 1))
            ends.append(n + pad)
        else:
            starts.pop()
    # every variable-mode block holds exactly r delimiters, the final one's owed to padding
    columns = [
        [r] * len(ends) if symbol == alpha else list(map(data.count, repeat(symbol), starts, ends))
        for symbol in params.alphabet
    ]
    owed = bytes([alpha]) * pad if pad else b""
    contents = (
        data[start:end] + owed if end > n else data[start:end]
        for start, end in zip(starts, ends)
    )
    return contents, columns, pad


def _vector_shape(length: int, params: CodecParams) -> tuple[int, int]:
    """(dims, inner): the frequency field of a ``length``-symbol block ranks a
    vector of ``dims`` counts that sum to ``inner``.

    Fixed mode ranks the full vector. Variable mode drops the delimiter
    dimension, whose count is always r.
    """
    if params.mode == MODE_FIXED:
        return params.sigma, length
    return params.sigma - 1, length - params.r


def _vector_count(length: int, params: CodecParams) -> int:
    """How many count vectors the frequency field of a ``length``-symbol block
    chooses from: K(dims, inner) of :func:`_vector_shape`, and one vector of no
    dimensions. The field is ceil(log2(count)) bits wide.
    """
    dims, inner = _vector_shape(length, params)
    return k_count(dims, inner) if dims else 1


def encode(data: bytes, params: CodecParams) -> "EncodedContainer":
    """Serialize every block :func:`_cut` cuts into a container.

    The input is checked against the alphabet once. Each block is mapped to
    symbol ids through one table and ranked as ids, and its rank yields its
    arrangement count, which gives the permutation field's width; the block
    is priced as :func:`vector_bits` prices it, logarithms included. Its
    length codeword, frequency rank and permutation rank go out as one
    field. The container carries that accounting and the pad.
    """
    _check_input(data, params)
    contents, columns, pad = _cut(data, params)
    writer = BitWriter()
    sigma = params.sigma
    to_ids = bytes.maketrans(params.alphabet, bytes(range(sigma)))
    variable = params.mode == MODE_VARIABLE
    if variable:
        # the delimiter's count is always r; decode puts it back
        apos = params.alpha_index - 1
    costs = []
    # length -> (its _length_terms, its length codeword)
    lengths: dict[int, tuple[tuple[int, int, int, float], int]] = {}
    for content, freq in zip(contents, zip(*columns)):
        rank, arrangements = _rank_ids(content.translate(to_ids), sigma)
        length = len(content)
        if length not in lengths:
            code = elias_delta_codeword(length) if variable else 0
            lengths[length] = _length_terms(length, params), code
        terms, code = lengths[length]
        cost = _block_cost(freq, length, terms, arrangements)
        costs.append(cost)
        _, delta_width, freq_width, perm_width, _ = cost
        vector = freq[:apos] + freq[apos + 1 :] if variable else freq
        index = vector_to_index(vector) if vector else 0
        if index >> freq_width or rank >> perm_width:
            raise ValueError(
                f"block ranks {index} and {rank} do not fit in {freq_width} and {perm_width} bits"
            )
        writer.write(
            (code << freq_width | index) << perm_width | rank, delta_width + freq_width + perm_width
        )
    return EncodedContainer(
        params=params,
        payload=writer.getvalue(),
        payload_bits=writer.bit_length,
        accounting=_accounted(costs, params),
        pad=pad,
    )


def _check_room(reader: BitReader, min_width: int, what: str) -> None:
    """Reject a field whose width is known to be at least ``min_width`` bits
    when fewer remain, before its exact (possibly huge) count is built."""
    if min_width > reader.bits_remaining:
        raise ValueError(
            f"{what} needs at least {min_width} bits, only {reader.bits_remaining} remain"
        )


def decode(container: "EncodedContainer", max_output: int = DEFAULT_MAX_OUTPUT) -> bytes:
    """Reconstruct the exact original byte sequence from a container.

    A header that declares more than ``max_output`` symbols is rejected
    before any payload bit is read. Blocks decode to symbol ids, which are
    rendered as the alphabet's bytes once, at the end. Each block reads its
    frequency rank and permutation rank, each count checked against a lower
    bound before it is built: C(N, j) >= 2**min(j, N - j), so a width that
    cannot fit the remaining bits is rejected first. The frequency field's
    shape is worked out once per block length. The output grows the way
    :func:`_cut` cut the input: each block's symbols, then in variable mode
    the delimiter it consumed. Only the symbols still owed are unranked, so
    the padded final block costs what its owed symbols cost; it is valid
    exactly when they hold all of its symbols but delimiters.
    """
    params = container.params
    n = params.n
    if n > max_output:
        raise CorruptContainerError(
            f"header declares n={n} symbols, more than the output cap of {max_output}"
        )
    reader = BitReader(container.payload)
    ids = bytearray()
    blocks = 0
    start = 0  # payload bit at which the current block starts
    padded = True  # the final block holds nothing but delimiters past n
    variable = params.mode == MODE_VARIABLE
    if variable:
        r = params.r
        apos = params.alpha_index - 1
    # length -> (dims, inner, least width, width) of its frequency field
    shapes: dict[int, tuple[int, int, int, int]] = {}
    while len(ids) < n:
        start = reader.position
        blocks += 1
        owed = n - len(ids)
        try:
            if variable:
                length = reader.read_elias_delta()
                if length < r:
                    raise ValueError(f"block length {length} is below r={r}")
                # a block is at most the rest of the sequence plus r padding delimiters
                if length > owed + r:
                    raise ValueError(f"block length {length} exceeds the sequence length")
            else:
                length = min(params.fixed_len, owed)
            shape = shapes.get(length)
            if shape is None:
                dims, inner = _vector_shape(length, params)
                if not dims and inner:
                    raise ValueError(f"length {length} exceeds r over a 1-symbol alphabet")
                # K(dims, inner) = C(inner + dims - 1, dims - 1), which at most
                # 255 free dimensions keep cheap to build at any length
                width = ceil_log2(_vector_count(length, params))
                shape = shapes[length] = dims, inner, min(dims - 1, inner), width
            dims, inner, least, width = shape
            _check_room(reader, least, "frequency rank")
            # index_to_vector rejects a rank at or beyond the count
            counts = [*index_to_vector(reader.read(width), inner, dims)] if dims else []
            if variable:
                # the dropped delimiter dimension, whose count is always r
                counts.insert(apos, r)
            # arrangements = multinomial(counts) >= C(length, max(counts))
            most = max(counts)
            _check_room(reader, min(length - most, most), "permutation rank")
            arrangements = multinomial(counts)
            pid = reader.read(ceil_log2(arrangements))
            if pid >= arrangements:
                raise ValueError(f"permutation rank {pid} out of range (< {arrangements})")
            block = _unrank_chunks(pid, arrangements, counts, owed)
        except (BitstreamError, ValueError) as exc:
            raise CorruptContainerError(str(exc), block=blocks, bit_offset=start) from None
        if length > owed:
            # the final block, padded: what is left past n is delimiters
            # exactly when the owed symbols hold all its length - r others
            del block[owed:]
            padded = owed - block.count(apos) == length - r
        ids.extend(block)
        if variable and len(ids) < n:
            ids.append(apos)

    if reader.bits_remaining >= 8 or (
        reader.bits_remaining and reader.read(reader.bits_remaining)
    ):
        raise CorruptContainerError(
            "trailing garbage after the final block", block=blocks, bit_offset=start
        )
    if not padded:
        raise CorruptContainerError(
            "padding differs from the delimiter symbol", block=blocks, bit_offset=start
        )
    return bytes(ids).translate(params.alphabet.ljust(256, b"\0"))


class EncodedContainer(
    namedtuple("EncodedContainer", "params payload payload_bits accounting pad")
):
    """Header parameters plus the packed payload bits.

    ``payload_bits`` is the used bit count before byte padding, by default
    all of ``payload``. It and the fields after it are encoder-side
    metadata, which the wire does not carry, so they do not participate in
    equality or the hash: :func:`encode` sets ``accounting`` (its blocks
    priced as :func:`vector_bits` prices them) and ``pad`` (the delimiters
    appended to the final block), which :meth:`from_bytes` leaves None.
    """

    __slots__ = ()

    def __new__(cls, params, payload, payload_bits=None, accounting=None, pad=None):
        if payload_bits is None:
            payload_bits = 8 * len(payload)
        return super().__new__(cls, params, payload, payload_bits, accounting, pad)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:2] == other[:2]

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash(self[:2])

    def to_bytes(self) -> bytes:
        return _header(self.params) + self.payload

    @classmethod
    def from_bytes(cls, raw: bytes) -> "EncodedContainer":
        if raw[:4] != MAGIC:
            raise FormatError("not an enumerative-coding container (bad magic)")
        if len(raw) < _PREFIX.size:
            raise FormatError("truncated header")
        _, version, code, sigma = _PREFIX.unpack_from(raw)
        if version != VERSION:
            raise FormatError(f"unsupported container version {version}")
        if code not in _MODES:
            raise FormatError(f"unknown mode byte {code}")
        mode, fields, names = _MODES[code]
        pos = _PREFIX.size + sigma
        if sigma < 1 or len(raw) < pos + fields.size:
            raise FormatError("truncated header")
        values = dict(zip(names, fields.unpack_from(raw, pos)))
        try:
            params = CodecParams(alphabet=raw[_PREFIX.size : pos], mode=mode, **values)
        except ValueError as exc:
            raise FormatError(f"invalid header field: {exc}") from None
        return cls(params=params, payload=raw[pos + fields.size :])


def _header(params: CodecParams) -> bytes:
    """The container header of ``params``, laid out by ``_PREFIX`` and ``_MODE_FIELDS``."""
    code, fields, names = _MODE_FIELDS[params.mode]
    values = (getattr(params, name) for name in names)
    return _PREFIX.pack(MAGIC, VERSION, code, params.sigma) + params.alphabet + fields.pack(*values)


class AccountedBits(
    namedtuple(
        "AccountedBits",
        "blocks bits_ceiled bits_real length_bits freq_bits perm_bits container_bits",
    )
):
    """Bit budget of a factorization, priced block by block in one pass.

    ``blocks`` counts the blocks priced. ``bits_ceiled`` charges every
    field its whole-bit width, with ceil(log2 length) per block for the
    length in variable mode; ``bits_real`` is the same sum with real-valued
    logarithms, i.e. the information-content lower bound of this block
    structure. Every block takes log2 of its arrangement count from log2 k!
    = lgamma(k + 1) / ln 2 (:func:`_block_cost`), within ``_LF_BOUND``
    (about 7e-12) times log2 n! of the exact logarithm for n <=
    ``_LF_CHECKED`` symbols, so ``bits_real`` can differ from the exact sum
    in its last bits.
    ``container_bits`` is the exact size of the container :func:`encode`
    emits: the header, then the payload with its Elias-delta length
    codewords, rounded up to whole bytes. Every field is an int but
    ``bits_real``.
    """

    __slots__ = ()

    def per_base(self, n: int) -> float:
        return self.bits_ceiled / n if n else 0.0


# LF = log2_factorial lies within _LF_ERROR * log2_int(k!) of log2_int(k!)
# for every k <= _LF_CHECKED, checked as analysis.py says, and log2_int(k!)
# within 2**-52 * log2 k! of log2 k!. For a count vector of n <= _LF_CHECKED
# symbols, x = LF(n) - sum(LF(c_i)) then lies within _LF_BOUND * LF(n) of
# log2 of its arrangement count, to first order: the terms' errors total at
# most twice LF(n)'s, since sum(log2 c_i!) <= log2 n!, and the sum's
# sigma - 1 roundings and the subtraction's one, sigma <= 65535 < 2**16 of
# them, add at most 2**-53 * LF(n) each. The margin is over 1000 times that
# bound, so where x lies further than the margin from every integer,
# floor(x) + 1 is the count's ceil_log2.
_LF_BOUND = 2 * (_LF_ERROR + 2**-52) + 2**16 * 2**-53
_LF_MARGIN = 2**-27


def _length_terms(length: int, params: CodecParams) -> tuple[int, int, int, float]:
    """What the length and frequency fields of a ``length``-symbol block cost.

    In order: the length's ceil(log2) and Elias-delta widths, the frequency
    field's width, and the exact log2 of the length times the vector count.
    Fixed mode stores no length, so its terms are 0.
    """
    length_bits = delta_bits = 0
    log_length = 0.0
    if params.mode == MODE_VARIABLE:
        length_bits = ceil_log2(length)
        delta_bits = elias_delta_bit_length(length)
        log_length = math.log2(length)
    count = _vector_count(length, params)
    return length_bits, delta_bits, ceil_log2(count), log_length + log2_int(count)


def _block_cost(
    freq: tuple[int, ...],
    length: int,
    length_terms: tuple[int, int, int, float],
    arrangements: int | None = None,
) -> tuple[int, int, int, int, float]:
    """What a ``length``-symbol block with count vector ``freq`` costs.

    In order: its length, Elias-delta, frequency and permutation widths in
    bits, then the real-valued bits of all its fields. ``length_terms`` are
    :func:`_length_terms`' for the block. The log2 of the arrangement count
    is x = LF(length) - sum(LF(c_i)), LF being :func:`log2_factorial`, read
    from its table up to ``_LF_CAP`` symbols. The permutation width is
    floor(x) + 1, unless x lies within the margin of an integer
    (single-kind vectors and counts that are powers of two do) or the block
    is longer than ``_LF_CHECKED`` symbols. There the exact count gives the
    width: ``arrangements`` when the caller has it, as :func:`encode` does.
    """
    length_bits, delta_bits, freq_width, log = length_terms
    if length <= _LF_CAP:
        lf = _log2_factorials()
        lf_n = lf[length]
        x = lf_n - sum(map(lf.__getitem__, freq))
    else:
        lf_n = log2_factorial(length)
        x = lf_n - sum(map(log2_factorial, freq))
    margin = _LF_MARGIN * lf_n
    if arrangements is None and length <= _LF_CHECKED and margin < x % 1.0 < 1.0 - margin:
        return length_bits, delta_bits, freq_width, int(x) + 1, log + x
    perm_width = ceil_log2(arrangements or multinomial(freq))
    return length_bits, delta_bits, freq_width, perm_width, log + x


def _accounted(
    costs: Iterable[tuple[int, int, int, int, float]], params: CodecParams
) -> AccountedBits:
    """The budget of blocks with these :func:`_block_cost` costs, in block order.

    ``bits_real`` adds the blocks' real-valued bits in that order, so two
    callers that price the same blocks get the same float.
    """
    lengths, deltas, widths, perms, reals = list(zip(*costs)) or [()] * 5
    length_bits, freq_bits, perm_bits = sum(lengths), sum(widths), sum(perms)
    payload = sum(deltas) + freq_bits + perm_bits
    header = len(_header(params))
    return AccountedBits(
        blocks=len(reals),
        bits_ceiled=length_bits + freq_bits + perm_bits,
        bits_real=sum(reals, 0.0),
        length_bits=length_bits,
        freq_bits=freq_bits,
        perm_bits=perm_bits,
        container_bits=header * 8 + 8 * (-(-payload // 8)),
    )


def vector_bits(vectors: list[tuple[int, ...]], params: CodecParams) -> AccountedBits:
    """Price blocks from their count vectors alone; widths come from ``params``.

    Each distinct length is priced once per call, and so is each distinct
    vector, mostly without building its arrangement count. :func:`_accounted`
    adds the costs up in block order, so ``bits_real`` does not depend on
    the memo.
    """
    lengths: dict[int, tuple[int, int, int, float]] = {}
    costs = dict.fromkeys(vectors)
    for freq in costs:
        length = sum(freq)
        if length not in lengths:
            lengths[length] = _length_terms(length, params)
        costs[freq] = _block_cost(freq, length, lengths[length])
    return _accounted(map(costs.__getitem__, vectors), params)


# perfbench/tracer.py looks these three names up in cli until ROADMAP item 2;
# the library does not call them.
def accounted_bits(blocks: list[Block], params: CodecParams) -> AccountedBits:
    return vector_bits([block.freq for block in blocks], params)


def container_bits(blocks: list[Block], params: CodecParams) -> int:
    return accounted_bits(blocks, params).container_bits


def average_block_length(blocks: list[Block]) -> float:
    return sum(b.length for b in blocks) / len(blocks) if blocks else 0.0


__all__ = [
    "AccountedBits",
    "AlphabetError",
    "Block",
    "CodecParams",
    "CorruptContainerError",
    "DEFAULT_MAX_OUTPUT",
    "EncodedContainer",
    "FormatError",
    "MODE_FIXED",
    "MODE_VARIABLE",
    "block_vectors",
    "check_alphabet",
    "decode",
    "delimiter_positions",
    "encode",
    "factorize",
    "grid_vectors",
    "vector_bits",
]
