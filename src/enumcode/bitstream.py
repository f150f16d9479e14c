"""Big-endian bit packing with self-delimiting length codewords.

Fields are written most-significant-bit first and packed into bytes from
the high bit down; the final byte is zero-padded. Block lengths use Elias
delta codewords (prefix-free, ~log v + 2 log log v bits for value v >= 1),
so the decoder needs no separate size fields.
"""

from __future__ import annotations


class BitstreamError(ValueError):
    """A read walked past the end of the stream or hit a malformed codeword."""


class BitWriter:
    """Accumulates bit fields MSB-first."""

    __slots__ = ("_bytes", "_acc", "_nbits")

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, width: int) -> None:
        """Append ``value`` as exactly ``width`` bits (width 0 is a no-op)."""
        if width < 0:
            raise ValueError("width must be non-negative")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        acc = (self._acc << width) | value
        nbits = self._nbits + width
        if nbits >= 8:
            # emit every whole byte at once; the accumulator keeps < 8 bits
            whole = nbits >> 3
            nbits &= 7
            self._bytes += (acc >> nbits).to_bytes(whole, "big")
            acc &= (1 << nbits) - 1
        self._acc = acc
        self._nbits = nbits

    def write_elias_delta(self, value: int) -> None:
        """Append the Elias delta codeword for ``value`` (>= 1) as one field:
        the zero run is the field's leading zeros, then the bit count, then
        the value below its top bit."""
        width = elias_delta_bit_length(value)  # rejects value < 1
        self.write(elias_delta_codeword(value), width)

    @property
    def bit_length(self) -> int:
        return len(self._bytes) * 8 + self._nbits

    def getvalue(self) -> bytes:
        """Bytes written so far, zero-padded to a byte boundary."""
        out = bytes(self._bytes)
        if self._nbits:
            out += bytes([(self._acc << (8 - self._nbits)) & 0xFF])
        return out


class BitReader:
    """Reads MSB-first bit fields from a byte string."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def read(self, width: int) -> int:
        if width < 0:
            raise ValueError("width must be non-negative")
        if width == 0:
            return 0
        end = self._pos + width
        if end > len(self._data) * 8:
            raise BitstreamError("bit stream exhausted")
        first, last = self._pos >> 3, (end - 1) >> 3
        window = int.from_bytes(self._data[first : last + 1], "big")
        shift = (last + 1) * 8 - end
        self._pos = end
        return (window >> shift) & ((1 << width) - 1)

    def read_elias_delta(self) -> int:
        # A legal codeword has at most 6 + 1 + 6 + 63 = 76 bits (a zero run, its
        # closing one bit, the rest of the bit count, the value below its top
        # bit), so one window of up to 76 bits holds it whole. A run of 65
        # zeros is malformed; a run of 7 to 64 gives a bit count of 128 or more.
        pos = self._pos
        available = len(self._data) * 8 - pos
        width = min(76, available)
        end = pos + width
        last = (end + 7) >> 3
        window = int.from_bytes(self._data[pos >> 3 : last], "big") >> (last * 8 - end)
        window &= (1 << width) - 1
        zeros = width - window.bit_length()
        if zeros >= 65:
            raise BitstreamError("malformed length codeword")
        prefix = 2 * zeros + 1  # the zero run and the whole bit count
        if prefix > available:
            raise BitstreamError("bit stream exhausted")
        if zeros > 6:
            raise BitstreamError("length codeword exceeds 64-bit range")
        nbits = window >> (width - prefix) & ((1 << (zeros + 1)) - 1)
        if nbits > 64:
            raise BitstreamError("length codeword exceeds 64-bit range")
        size = prefix + nbits - 1
        if size > width:
            raise BitstreamError("bit stream exhausted")
        self._pos = pos + size
        return (1 << (nbits - 1)) | (window >> (width - size) & ((1 << (nbits - 1)) - 1))

    @property
    def position(self) -> int:
        return self._pos

    @property
    def bits_remaining(self) -> int:
        return len(self._data) * 8 - self._pos


def elias_delta_codeword(value: int) -> int:
    """The Elias delta codeword of ``value`` (>= 1) as one number. Written in
    :func:`elias_delta_bit_length` bits, its leading zeros are the zero run,
    then come the bit count of ``value`` and ``value`` below its top bit."""
    nbits = value.bit_length()
    return (nbits << (nbits - 1)) | (value & ((1 << (nbits - 1)) - 1))


def elias_delta_bit_length(value: int) -> int:
    """Codeword length, in bits, that :meth:`BitWriter.write_elias_delta` emits."""
    if value < 1:
        raise ValueError("Elias delta encodes values >= 1")
    nbits = value.bit_length()
    return 2 * nbits.bit_length() + nbits - 2
