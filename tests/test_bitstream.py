import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumcode.bitstream import (
    BitReader,
    BitstreamError,
    BitWriter,
    elias_delta_bit_length,
)

from oracles import ReferenceBitReader, reference_write_elias_delta


def test_msb_first_packing():
    w = BitWriter()
    w.write(0b101, 3)
    w.write(0b01, 2)
    assert w.bit_length == 5
    assert w.getvalue() == bytes([0b10101000])


def test_single_high_bit():
    w = BitWriter()
    w.write(1, 1)
    assert w.getvalue() == b"\x80"


def test_zero_width_is_noop():
    w = BitWriter()
    w.write(0, 0)
    assert w.bit_length == 0
    assert w.getvalue() == b""
    r = BitReader(b"")
    assert r.read(0) == 0


def test_value_must_fit():
    w = BitWriter()
    with pytest.raises(ValueError):
        w.write(4, 2)
    with pytest.raises(ValueError):
        w.write(-1, 2)


def test_getvalue_is_non_destructive():
    w = BitWriter()
    w.write(0b11, 2)
    first = w.getvalue()
    w.write(0b00, 2)
    assert first == b"\xc0"
    assert w.getvalue() == b"\xc0"


def test_reader_exhaustion():
    r = BitReader(b"\xff")
    r.read(8)
    with pytest.raises(BitstreamError):
        r.read(1)


def test_wide_field_spanning_bytes():
    w = BitWriter()
    w.write(0xABCDE, 20)
    w.write(0x3, 4)
    data = w.getvalue()
    r = BitReader(data)
    assert r.read(20) == 0xABCDE
    assert r.read(4) == 0x3


@pytest.mark.parametrize(
    "value,bits",
    [
        (1, "1"),
        (2, "0100"),
        (3, "0101"),
        (4, "01100"),
        (7, "01111"),
        (17, "001010001"),
        (500, "000100111110100"),
    ],
)
def test_elias_delta_codewords(value, bits):
    w = BitWriter()
    w.write_elias_delta(value)
    assert w.bit_length == len(bits)
    assert elias_delta_bit_length(value) == len(bits)
    padded = bits + "0" * (-len(bits) % 8)
    assert w.getvalue() == int(padded, 2).to_bytes(len(padded) // 8, "big")


@pytest.mark.parametrize(
    "value",
    [1, 2, 3, *(v for k in (2, 3, 7, 8, 16, 31, 32, 63) for v in (2**k - 1, 2**k)), 2**64 - 1],
)
def test_elias_delta_is_the_three_field_codeword(value):
    # one write of the whole codeword, at every offset within a byte
    for skip in range(8):
        got, expected = BitWriter(), BitWriter()
        for w in (got, expected):
            w.write(0b1011011 & ((1 << skip) - 1), skip)
        got.write_elias_delta(value)
        reference_write_elias_delta(expected, value)
        assert (got.getvalue(), got.bit_length) == (expected.getvalue(), expected.bit_length)


def test_elias_delta_rejects_zero():
    w = BitWriter()
    with pytest.raises(ValueError):
        w.write_elias_delta(0)


@given(st.lists(st.integers(1, 10**12), max_size=50))
def test_elias_delta_round_trip(values):
    w = BitWriter()
    for v in values:
        w.write_elias_delta(v)
    r = BitReader(w.getvalue())
    assert [r.read_elias_delta() for _ in values] == values
    assert r.bits_remaining < 8


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(1, 2**64 - 1)), max_size=30))
@example([(0, 2**64 - 1), (7, 2**64 - 1), (3, 2**63), (1, 1)])
def test_elias_delta_round_trip_up_to_64_bits(items):
    # the zero-bit fields leave each codeword at a different bit offset
    w = BitWriter()
    for skip, value in items:
        w.write(0, skip)
        w.write_elias_delta(value)
    r = BitReader(w.getvalue())
    for skip, value in items:
        assert r.read(skip) == 0
        assert r.read_elias_delta() == value
    assert r.bits_remaining < 8


def ones(width):
    return (1 << width) - 1


@pytest.mark.parametrize("nbits", range(1, 65))
def test_elias_delta_at_every_offset_and_one_bit_short(nbits):
    # codewords of 1 to 76 bits, inside and across the reader's 65-bit window
    lowest = 2 ** (nbits - 1)
    length = elias_delta_bit_length(lowest)
    for value in {lowest, ones(nbits), lowest | random.Random(nbits).getrandbits(nbits - 1)}:
        for offset in range(8):
            w = BitWriter()
            w.write(ones(offset), offset)  # set bits before and after, so no read strays
            w.write_elias_delta(value)
            w.write(ones(-w.bit_length % 8), -w.bit_length % 8)
            data = w.getvalue()
            r = BitReader(data + b"\xff" * 9)
            assert r.read(offset) == ones(offset)
            assert r.read_elias_delta() == value
            assert r.position == offset + length
            # cut at the last byte boundary before the codeword's last bit: one
            # bit short at the offset where the codeword ends a byte
            r = BitReader(data[: (offset + length - 1) // 8])
            r.read(min(offset, r.bits_remaining))
            with pytest.raises(BitstreamError, match="exhausted"):
                r.read_elias_delta()


def read_outcome(reader_type, data, skip):
    """The value and end position of the codeword after ``skip`` bits, or the error."""
    r = reader_type(data)
    r.read(skip)
    try:
        value = r.read_elias_delta()
    except BitstreamError as exc:
        return "error", str(exc)
    return value, r.position


def check_every_truncation(bits, skip):
    """Both readers agree on ``bits`` (a '0'/'1' string) cut at every byte."""
    bits += "0" * (-len(bits) % 8)
    data = int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""
    for cut in range(len(data) + 1):
        head = data[:cut]
        at = min(skip, len(head) * 8)
        assert read_outcome(BitReader, head, at) == read_outcome(ReferenceBitReader, head, at), (
            bits,
            skip,
            cut,
        )


@pytest.mark.parametrize("nbits", range(1, 65))
def test_elias_delta_matches_the_field_by_field_reader(nbits):
    # every codeword length, at every bit offset, followed by ones or by
    # zeros, cut at every byte: the same value and end, or the same error
    rng = random.Random(nbits)
    lowest = 2 ** (nbits - 1)
    for value in {lowest, ones(nbits), lowest | rng.getrandbits(nbits - 1)}:
        w = BitWriter()
        w.write_elias_delta(value)
        data = w.getvalue()
        codeword = format(int.from_bytes(data, "big"), f"0{len(data) * 8}b")[: w.bit_length]
        for skip in range(8):
            for tail in ("", "0" * 80, "1" * 80):
                check_every_truncation("1" * skip + codeword + tail, skip)


@pytest.mark.parametrize("zeros", range(0, 80))
def test_elias_delta_matches_the_field_by_field_reader_on_any_zero_run(zeros):
    # zero runs of every length, legal, past 64 bits or malformed, then random bits
    rng = random.Random(zeros)
    for skip in range(0, 8, 3):
        for _ in range(3):
            rest = format(rng.getrandbits(100), "0100b")
            check_every_truncation("1" * skip + "0" * zeros + "1" + rest, skip)
            check_every_truncation("1" * skip + "0" * zeros, skip)


@pytest.mark.parametrize(
    "data,skip",
    [
        (b"", 0),  # nothing left at all
        (b"\x00", 0),  # a zero run that the stream ends
        (b"\x00" * 8, 0),  # 64 zeros, then the end
        (b"\xe0" + b"\x00" * 7, 3),  # 61 zeros from mid-byte, then the end
        (b"\x01", 0),  # a whole prefix whose number of bits is cut off
    ],
)
def test_elias_delta_reports_an_exhausted_stream(data, skip):
    r = BitReader(data)
    r.read(skip)
    with pytest.raises(BitstreamError, match="exhausted"):
        r.read_elias_delta()


@pytest.mark.parametrize("skip", [0, 5])
def test_elias_delta_rejects_more_than_64_zeros(skip):
    r = BitReader(b"\x00" * 10)
    r.read(skip)
    with pytest.raises(BitstreamError, match="malformed length codeword"):
        r.read_elias_delta()


def test_elias_delta_rejects_a_length_past_64_bits():
    # 64 zeros, a one, then 64 more bits: a bit count of at least 2**64
    r = BitReader(b"\x00" * 8 + b"\x80" + b"\x00" * 9)
    with pytest.raises(BitstreamError, match="exceeds 64-bit range"):
        r.read_elias_delta()


@given(
    st.lists(
        st.integers(0, 40).flatmap(
            lambda width: st.tuples(st.integers(0, 2**width - 1), st.just(width))
        ),
        max_size=60,
    )
)
def test_field_round_trip(fields):
    w = BitWriter()
    for value, width in fields:
        w.write(value, width)
    total = sum(width for _, width in fields)
    assert w.bit_length == total
    r = BitReader(w.getvalue())
    for value, width in fields:
        assert r.read(width) == value
    assert r.position == total


class ReferenceBitWriter:
    """The original writer, one byte per loop turn; an oracle for ``BitWriter``."""

    def __init__(self):
        self._bytes = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value, width):
        self._acc = (self._acc << width) | value
        self._nbits += width
        while self._nbits >= 8:
            self._nbits -= 8
            self._bytes.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def write_elias_delta(self, value):
        nbits = value.bit_length()
        lbits = nbits.bit_length()
        self.write(0, lbits - 1)
        self.write(nbits, lbits)
        self.write(value & ((1 << (nbits - 1)) - 1), nbits - 1)

    @property
    def bit_length(self):
        return len(self._bytes) * 8 + self._nbits

    def getvalue(self):
        out = bytes(self._bytes)
        if self._nbits:
            out += bytes([(self._acc << (8 - self._nbits)) & 0xFF])
        return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_writer_matches_reference(seed):
    rng = random.Random(seed)
    fast, slow = BitWriter(), ReferenceBitWriter()
    for _ in range(rng.randint(0, 200)):
        pick = rng.random()
        if pick < 0.1:
            value = rng.randint(1, 2**70)
            fast.write_elias_delta(value)
            slow.write_elias_delta(value)
            continue
        if pick < 0.2:
            width = 0
        elif pick < 0.22:
            width = rng.randint(70_000, 90_000)
        else:
            width = rng.randint(1, 64)
        value = rng.getrandbits(width) if width else 0
        fast.write(value, width)
        slow.write(value, width)
        assert fast.bit_length == slow.bit_length
    assert fast.getvalue() == slow.getvalue()
    assert fast.bit_length == slow.bit_length
