import importlib
import math
import random
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumcode import block_codec, combinatorics, permutation_codec
from enumcode.analysis import log2_factorial, log2_int
from enumcode.bitstream import BitWriter, elias_delta_bit_length
from enumcode.block_codec import (
    AlphabetError,
    CodecParams,
    CorruptContainerError,
    DEFAULT_MAX_OUTPUT,
    EncodedContainer,
    FormatError,
    accounted_bits,
    average_block_length,
    block_vectors,
    container_bits,
    decode,
    delimiter_positions,
    encode,
    factorize,
    grid_vectors,
    vector_bits,
)
from enumcode.cli import L_SET_DEFAULT, R_SET_DEFAULT, sweep_file
from enumcode.combinatorics import ceil_log2, k_count, multinomial
from enumcode.composition_codec import vector_to_index
from enumcode.permutation_codec import sequence_to_perm_index

from conftest import FIG_ALPHABET, FIG_BLOCKS, FIG_FREQS, FIG_LENGTHS, FIG_PAD, FIG_T
from oracles import (
    real_bits_tolerance,
    reference_accounted_bits,
    reference_block_decode,
    reference_encode,
    reference_factorize,
    reference_header_bytes,
)
from test_acceptance import _dna_like


def variable_params(data, alpha=b"a", r=2, alphabet=FIG_ALPHABET):
    return CodecParams.variable(alphabet, alpha, r, len(data))


class TestFactorizeVariable:
    def test_reference_factorization(self):
        blocks = factorize(FIG_T, variable_params(FIG_T))
        assert [b.length for b in blocks] == FIG_LENGTHS
        assert [b.content for b in blocks] == FIG_BLOCKS
        assert [b.freq for b in blocks] == FIG_FREQS
        assert [b.pad_count for b in blocks] == [0, 0, 0, 0, 0, FIG_PAD]
        # encode ranks the other dimensions; the delimiter's count is always r
        assert blocks[0].freq[1:] == (1, 2, 2)
        assert all(b.freq[0] == 2 for b in blocks)

    def test_reference_block_count_formula(self):
        c_alpha = FIG_T.count(b"a"[0])
        blocks = factorize(FIG_T, variable_params(FIG_T))
        assert len(blocks) == c_alpha // 3 + 1 == 6

    def test_boundary_coincides_with_end(self):
        # exactly r delimiters at the end: one block, nothing padded
        blocks = factorize(b"aa", variable_params(b"aa"))
        assert len(blocks) == 1
        assert blocks[0].content == b"aa"
        assert blocks[0].pad_count == 0

    def test_input_ending_on_consumed_delimiter(self):
        # "a|a" with r=1: the trailing residue is empty, so no final block
        blocks = factorize(b"aaaa", variable_params(b"aaaa", r=1))
        assert [b.content for b in blocks] == [b"a", b"a"]
        assert b"aaaa".count(b"a"[0]) // 2 == len(blocks)

    def test_input_without_delimiter_symbol(self):
        blocks = factorize(b"bbb", variable_params(b"bbb", alphabet=b"ab"))
        assert [b.content for b in blocks] == [b"bbbaa"]
        assert blocks[0].pad_count == 2

    def test_empty_input(self):
        assert factorize(b"", variable_params(b"")) == []

    def test_symbol_outside_alphabet(self):
        with pytest.raises(AlphabetError, match="offset 2"):
            factorize(b"acxg", variable_params(b"acxg"))

    def test_length_mismatch_rejected(self):
        params = CodecParams.variable(FIG_ALPHABET, b"a", 2, 10)
        with pytest.raises(ValueError, match="declared n"):
            factorize(b"acg", params)


class TestFactorizeFixed:
    def test_partition_arithmetic(self):
        params = CodecParams.fixed(b"ab", 4, 10)
        blocks = factorize(b"abababab" + b"ab", params)
        assert [b.length for b in blocks] == [4, 4, 2]
        # the short final block is not padded in fixed mode
        assert [b.pad_count for b in blocks] == [0, 0, 0]

    def test_repeating_content(self):
        params = CodecParams.fixed(FIG_ALPHABET, 4, 8)
        blocks = factorize(b"aacgaacg", params)
        assert len(blocks) == 2
        assert blocks[0].freq == blocks[1].freq == (2, 1, 1, 0)
        assert (
            sequence_to_perm_index(blocks[0].content, params.alphabet)
            == sequence_to_perm_index(blocks[1].content, params.alphabet)
            == 0
        )

    def test_single_full_block(self):
        params = CodecParams.fixed(FIG_ALPHABET, 4, 4)
        blocks = factorize(b"acgt", params)
        assert [b.length for b in blocks] == [4]

    def test_symbol_outside_alphabet(self):
        params = CodecParams.fixed(b"ab", 2, 3)
        with pytest.raises(AlphabetError, match="offset 1"):
            factorize(b"axb", params)


class TestCodecParams:
    def test_variable_validation(self):
        with pytest.raises(ValueError):
            CodecParams(alphabet=b"ab", mode="variable", n=1, alpha_index=3, r=1)
        with pytest.raises(ValueError):
            CodecParams(alphabet=b"ab", mode="variable", n=1, alpha_index=1, r=0)
        with pytest.raises(ValueError):
            CodecParams.variable(b"ab", b"x", 1, 1)
        for alpha in (b"", b"ab", bytearray(b"ba")):
            with pytest.raises(ValueError, match="delimiter must be one symbol"):
                CodecParams.variable(b"ab", alpha, 1, 1)

    def test_fixed_validation(self):
        with pytest.raises(ValueError):
            CodecParams(alphabet=b"ab", mode="fixed", n=1, fixed_len=0)
        with pytest.raises(ValueError):
            CodecParams(alphabet=b"ab", mode="fixed", n=1, fixed_len=2, r=3)

    def test_alphabet_validation(self):
        with pytest.raises(ValueError):
            CodecParams.fixed(b"aba", 2, 1)
        with pytest.raises(ValueError):
            CodecParams.fixed(b"", 2, 1)
        with pytest.raises(ValueError):
            CodecParams(alphabet=b"ab", mode="sideways", n=1)

    def test_header_fields_bound_r_and_fixed_len(self):
        # both are u32 header fields; nothing is encoded with these values
        with pytest.raises(ValueError, match="r <= 4294967295"):
            CodecParams.variable(b"ab", b"a", 2**32, 1)
        with pytest.raises(ValueError, match="fixed_len <= 4294967295"):
            CodecParams.fixed(b"ab", 2**32, 1)
        assert CodecParams.variable(b"ab", b"a", 2**32 - 1, 1).r == 2**32 - 1
        assert CodecParams.fixed(b"ab", 2**32 - 1, 1).fixed_len == 2**32 - 1

    def test_helpers(self):
        params = CodecParams.variable(b"acgt", b"g", 3, 9)
        assert params.alpha_index == 3
        assert params.alpha_byte == ord("g")
        assert params.sigma == 4


class TestRecords:
    """The records stay immutable values, whatever implements them."""

    def test_fields_cannot_be_assigned(self):
        params = variable_params(FIG_T)
        container = encode(FIG_T, params)
        records = [
            (params, "n"),
            (factorize(FIG_T, params)[-1], "pad_count"),
            (container, "payload_bits"),
            (container.accounting, "blocks"),
        ]
        for record, name in records:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            assert hash(record) == hash(record)

    def test_container_equality_ignores_encoder_metadata(self):
        container = encode(FIG_T, variable_params(FIG_T))
        parsed = EncodedContainer.from_bytes(container.to_bytes())
        assert (parsed.accounting, parsed.pad) == (None, None)
        assert parsed.payload_bits == 8 * len(parsed.payload) != container.payload_bits
        assert parsed == container
        assert not parsed != container
        assert hash(parsed) == hash(container)
        other = EncodedContainer(container.params, container.payload + b"\0")
        assert other != container
        assert not other == container

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(alphabet="ab", mode="fixed", n=1, fixed_len=1), "alphabet must be bytes"),
            (
                dict(alphabet=b"", mode="fixed", n=1, fixed_len=1),
                "alphabet must hold between 1 and 65535 symbols",
            ),
            (
                dict(alphabet=b"aba", mode="fixed", n=1, fixed_len=1),
                "alphabet entries must be distinct",
            ),
            (dict(alphabet=b"ab", mode="fixed", n=-1, fixed_len=1), "n must be non-negative"),
            (
                dict(alphabet=b"ab", mode="variable", n=1, r=1),
                "variable mode needs 1 <= alpha_index <= sigma",
            ),
            (
                dict(alphabet=b"ab", mode="variable", n=1, alpha_index=1, r=0),
                "variable mode needs 1 <= r <= 4294967295",
            ),
            (
                dict(alphabet=b"ab", mode="variable", n=1, alpha_index=1, r=1, fixed_len=2),
                "fixed_len is meaningless in variable mode",
            ),
            (
                dict(alphabet=b"ab", mode="fixed", n=1),
                "fixed mode needs 1 <= fixed_len <= 4294967295",
            ),
            (
                dict(alphabet=b"ab", mode="fixed", n=1, fixed_len=2, r=3),
                "alpha_index/r are meaningless in fixed mode",
            ),
            (dict(alphabet=b"ab", mode="sideways", n=1), "unknown mode 'sideways'"),
        ],
    )
    def test_codec_params_rejection_messages(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            CodecParams(**kwargs)
        assert str(info.value) == message

    def test_constructor_and_property_messages(self):
        cases = [
            (
                lambda: CodecParams.variable(b"ab", b"", 1, 1),
                "delimiter must be one symbol, got b''",
            ),
            (
                lambda: CodecParams.variable(b"ab", b"x", 1, 1),
                "delimiter symbol 0x78 is not in the alphabet",
            ),
            (
                lambda: CodecParams.fixed(b"ab", 2, 1).alpha_byte,
                "no delimiter symbol in fixed mode",
            ),
        ]
        for call, message in cases:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    def test_average_block_length_is_the_fmean(self):
        assert average_block_length([]) == 0.0
        for seed in (1, 2, 5):
            data = _dna_like(seed, n=3000)
            fixed = CodecParams.fixed(FIG_ALPHABET, 7, len(data))
            for params in (variable_params(data, r=3), fixed):
                blocks = factorize(data, params)
                expected = statistics.fmean(b.length for b in blocks)
                assert average_block_length(blocks) == expected


class TestEncodeDecode:
    def test_reference_round_trip(self):
        params = variable_params(FIG_T)
        container = encode(FIG_T, params)
        assert decode(container) == FIG_T
        revived = EncodedContainer.from_bytes(container.to_bytes())
        assert revived == container
        assert decode(revived) == FIG_T

    def test_reference_payload_accounting(self):
        blocks = factorize(FIG_T, variable_params(FIG_T))
        container = encode(FIG_T, variable_params(FIG_T))
        expected_bits = 0
        for block in blocks:
            expected_bits += elias_delta_bit_length(block.length)
            expected_bits += ceil_log2(k_count(3, block.length - 2))
            expected_bits += ceil_log2(multinomial(block.freq))
        assert container.payload_bits == expected_bits == 90
        acct = vector_bits([block.freq for block in blocks], variable_params(FIG_T))
        assert acct.container_bits == len(container.to_bytes()) * 8

    @pytest.mark.parametrize(
        "data,alpha,r",
        [
            (b"", b"a", 2),
            (b"a", b"a", 1),
            (b"c", b"a", 1),
            (b"aa", b"a", 2),
            (b"aaaa", b"a", 1),
            (b"aaaaaaaa", b"a", 3),
            (b"ttttttt", b"a", 2),
            (b"acgtacgtacgt", b"t", 1),
            (FIG_T, b"g", 4),
        ],
    )
    def test_variable_edge_round_trips(self, data, alpha, r):
        params = variable_params(data, alpha=alpha, r=r)
        container = EncodedContainer.from_bytes(encode(data, params).to_bytes())
        assert decode(container) == data

    @pytest.mark.parametrize("fixed_len", [1, 2, 3, 4, 7, 34, 50])
    def test_fixed_edge_round_trips(self, fixed_len):
        params = CodecParams.fixed(FIG_ALPHABET, fixed_len, len(FIG_T))
        container = EncodedContainer.from_bytes(encode(FIG_T, params).to_bytes())
        assert decode(container) == FIG_T

    def test_empty_input_is_header_only(self):
        params = variable_params(b"")
        container = encode(b"", params)
        assert container.payload == b""
        assert decode(container) == b""

    def test_bytearray_input_is_left_as_it_was(self):
        # the final block's padding is appended to a copy, never to the input
        data = bytearray(b"ttgaacgagcgt")  # the residue "gcgt" owes two delimiters
        params = variable_params(data)
        container = encode(data, params)
        assert data == b"ttgaacgagcgt"
        assert container == encode(bytes(data), params)

    def test_single_symbol_alphabet(self):
        data = b"xxxxx"
        params = CodecParams.variable(b"x", b"x", 2, len(data))
        container = encode(data, params)
        assert decode(container) == data

    def test_skip_rule_packs_nothing_for_uniform_blocks(self):
        data = b"aaaa"
        params = variable_params(data)
        blocks = factorize(data, params)
        acct = vector_bits([block.freq for block in blocks], params)
        assert acct.perm_bits == 0
        assert acct.freq_bits == 0
        container = encode(data, params)
        # two blocks of length 2: just their delta codewords, 0100 0100
        assert container.payload == b"\x44"
        assert container.payload_bits == 8

    def test_zero_width_container_decodes_as_runs(self):
        # sigma=1, n=2**24 in blocks of 2**20: every field is zero bits wide,
        # so 21 bytes stand for 16 MiB, which must not be built symbol by symbol
        raw = EncodedContainer(params=CodecParams.fixed(b"a", 2**20, 2**24), payload=b"").to_bytes()
        assert len(raw) == 21
        start = time.perf_counter()
        data = decode(EncodedContainer.from_bytes(raw))
        assert time.perf_counter() - start < 2.0
        assert data == b"a" * 2**24

    def test_output_cap_rejects_before_the_payload(self):
        # the 21-byte container above, which decodes under the default cap
        raw = EncodedContainer(params=CodecParams.fixed(b"a", 2**20, 2**24), payload=b"").to_bytes()
        start = time.perf_counter()
        with pytest.raises(CorruptContainerError, match=f"n={2**24} .*cap of {2**20}$") as exc:
            decode(EncodedContainer.from_bytes(raw), max_output=2**20)
        assert time.perf_counter() - start < 0.05
        assert exc.value.block is None and exc.value.bit_offset is None
        assert DEFAULT_MAX_OUTPUT >= 2**24

    def test_output_cap_is_inclusive(self):
        container = encode(FIG_T, variable_params(FIG_T))
        assert decode(container, max_output=len(FIG_T)) == FIG_T
        with pytest.raises(CorruptContainerError, match="output cap"):
            decode(container, max_output=len(FIG_T) - 1)


# both modes over 1, 2 and 256 symbols; n and the u32 fields span several bytes
HEADER_PARAMS = [
    pytest.param(params, id=f"{params.mode}-sigma{params.sigma}")
    for alphabet, alpha in ((b"x", b"x"), (b"ab", b"b"), (bytes(range(256)), b"\xc8"))
    for params in (
        CodecParams.variable(alphabet, alpha, 70000, 2**40 + 5),
        CodecParams.fixed(alphabet, 2**31 + 3, 2**40 + 5),
    )
]


class TestContainerFormat:
    def test_variable_header_layout(self):
        params = CodecParams.variable(b"ab", b"a", 1, 2)
        container = encode(b"aa", params)
        raw = container.to_bytes()
        expected = (
            b"ENUM"
            + bytes([1, 1])
            + struct.pack(">H", 2)
            + b"ab"
            + struct.pack(">Q", 2)
            + struct.pack(">HI", 1, 1)
            + b"\x80"  # delta codeword for a single block of length 1
        )
        assert raw == expected

    def test_fixed_header_layout(self):
        params = CodecParams.fixed(b"ab", 2, 0)
        raw = encode(b"", params).to_bytes()
        expected = (
            b"ENUM"
            + bytes([1, 0])
            + struct.pack(">H", 2)
            + b"ab"
            + struct.pack(">Q", 0)
            + struct.pack(">I", 2)
        )
        assert raw == expected

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            EncodedContainer.from_bytes(b"NOPE" + bytes(20))

    def test_bad_version(self):
        with pytest.raises(FormatError, match="version"):
            EncodedContainer.from_bytes(b"ENUM" + bytes([9, 0]) + bytes(20))

    def test_bad_mode(self):
        with pytest.raises(FormatError, match="mode"):
            EncodedContainer.from_bytes(b"ENUM" + bytes([1, 7]) + bytes(20))

    def test_truncated_header(self):
        params = CodecParams.variable(b"ab", b"a", 1, 2)
        raw = encode(b"aa", params).to_bytes()
        with pytest.raises(FormatError, match="truncated|magic"):
            EncodedContainer.from_bytes(raw[:10])

    @pytest.mark.parametrize("params", HEADER_PARAMS)
    def test_every_proper_prefix_of_a_header_is_rejected(self, params):
        raw = EncodedContainer(params=params, payload=b"").to_bytes()
        for end in range(len(raw)):
            with pytest.raises(FormatError, match="bad magic" if end < 4 else "^truncated header$"):
                EncodedContainer.from_bytes(raw[:end])
        assert EncodedContainer.from_bytes(raw).params == params

    @pytest.mark.parametrize("params", HEADER_PARAMS)
    def test_header_size_matches_the_format_table(self, params):
        assert len(block_codec._header(params)) == reference_header_bytes(params)

    def test_invalid_header_field(self):
        raw = (
            b"ENUM"
            + bytes([1, 1])
            + struct.pack(">H", 2)
            + b"ab"
            + struct.pack(">Q", 2)
            + struct.pack(">HI", 9, 1)  # alpha_index out of range
        )
        with pytest.raises(FormatError, match="invalid header"):
            EncodedContainer.from_bytes(raw)


class TestCorruptPayloads:
    def _fixed_container(self, payload_writer, data=b"abb", fixed_len=3):
        params = CodecParams.fixed(b"ab", fixed_len, len(data))
        return EncodedContainer(params=params, payload=payload_writer.getvalue())

    def test_frequency_rank_out_of_range(self):
        w = BitWriter()
        w.write(3, 2)  # only ranks 0..2 exist for two symbols summing to 2
        params = CodecParams.fixed(b"ab", 2, 2)
        container = EncodedContainer(params=params, payload=w.getvalue())
        with pytest.raises(CorruptContainerError, match="block 1.*frequency rank"):
            decode(container)

    def test_permutation_rank_out_of_range(self):
        w = BitWriter()
        w.write(1, 2)  # frequency vector (1, 2)
        w.write(3, 2)  # but it only has 3 arrangements
        container = self._fixed_container(w)
        with pytest.raises(CorruptContainerError, match="block 1.*permutation rank"):
            decode(container)

    @pytest.mark.parametrize(
        "params,fields,match,offset",
        [
            pytest.param(
                CodecParams.fixed(b"ab", 3, 6),
                # block 1: vector (1, 2) and its last arrangement, "bba";
                # block 2, from bit 4: vector (1, 2) again, then rank 3 of 3
                [(1, 2), (2, 2), (1, 2), (3, 2)],
                "permutation rank 3",
                4,
                id="fixed-full",
            ),
            pytest.param(
                CodecParams.fixed(b"ab", 3, 5),
                # block 1 as above; block 2, from bit 4, is the short final
                # block of 2 symbols, whose 3 vectors leave rank 3 out of range
                [(1, 2), (2, 2), (3, 2)],
                "frequency rank 3",
                4,
                id="fixed-short-final",
            ),
            pytest.param(
                CodecParams.variable(b"ab", b"a", 1, 6),
                # block 1: length 2 as a 4-bit Elias-delta codeword, its one
                # vector in 0 bits, then "ba", rank 1 of 2; block 2, from
                # bit 5: length 3, then rank 3 of the 3 arrangements of (1, 2)
                [(2, None), (1, 1), (3, None), (3, 2)],
                "permutation rank 3",
                5,
                id="variable",
            ),
        ],
    )
    def test_error_names_the_bit_offset_of_the_block(self, params, fields, match, offset):
        container = self._container(params, fields)
        with pytest.raises(CorruptContainerError, match=f"payload bit {offset}, block 2: {match}") as exc:
            decode(container)
        assert (exc.value.block, exc.value.bit_offset) == (2, offset)

    @staticmethod
    def _container(params, fields):
        """A container of ``fields``: (value, width) pairs, an Elias-delta codeword where width is None."""
        w = BitWriter()
        for value, width in fields:
            if width is None:
                w.write_elias_delta(value)
            else:
                w.write(value, width)
        return EncodedContainer(params=params, payload=w.getvalue())

    # "baabb" at r=1: block 1 is "ba", rank 1 of 2, from bit 0, and consumes
    # the "a" after it; the final block, from bit 5, holds the 2 symbols left
    # and at most r=1 padding delimiter
    BAABB = CodecParams.variable(b"ab", b"a", 1, 5)
    BLOCK_1 = [(2, None), (1, 1)]

    def test_final_block_may_hold_r_padding_delimiters(self):
        container = encode(b"baabb", self.BAABB)
        assert container.pad == 1
        # length 3 = 2 symbols left + r, its vector in 0 bits, "bba" rank 2 of 3
        assert container == self._container(self.BAABB, [*self.BLOCK_1, (3, None), (2, 2)])
        assert decode(container) == b"baabb"

    def test_final_block_past_r_padding_is_rejected_before_its_fields(self, monkeypatch):
        # length 4 = 2 symbols left + r + 1, then fields that would unrank to
        # "abbb"; the length alone rejects the block, so it is never unranked
        unrank = block_codec._unrank_chunks

        def unrank_block_1_only(pid, arrangements, counts, limit):
            if len(counts) == 2 and sum(counts) == 4:
                raise AssertionError("the final block was unranked")
            return unrank(pid, arrangements, counts, limit)

        monkeypatch.setattr(block_codec, "_unrank_chunks", unrank_block_1_only)
        container = self._container(self.BAABB, [*self.BLOCK_1, (4, None), (0, 2)])
        match = "payload bit 5, block 2: block length 4 exceeds the sequence length"
        with pytest.raises(CorruptContainerError, match=match) as exc:
            decode(container)
        assert (exc.value.block, exc.value.bit_offset) == (2, 5)

    @pytest.mark.parametrize(
        "vector,padding,match",
        [
            # 8 * 20000 < 2**28, so the count is chained; its rank's 303091
            # bits are missing
            ((2**28 - 20000, 20000), 25000, "bit stream exhausted"),
            # the rank takes at least 2**27 bits: rejected before any count
            ((2**27, 2**27), 1000, "permutation rank needs at least 134217728 bits, only 1003 remain"),
        ],
    )
    def test_huge_fixed_block_is_rejected_without_a_sieve(
        self, monkeypatch, vector, padding, match
    ):
        def primes(n):
            raise AssertionError(f"sieved the primes up to {n}")

        monkeypatch.setattr(combinatorics, "_primes", primes)
        n = 2**28
        w = BitWriter()
        w.write(vector_to_index(vector), ceil_log2(k_count(2, n)))
        w.write(0, padding)
        params = CodecParams.fixed(b"ab", n, n)
        raw = EncodedContainer(params=params, payload=w.getvalue()).to_bytes()
        with pytest.raises(CorruptContainerError, match=f"payload bit 0, block 1: {match}") as exc:
            decode(EncodedContainer.from_bytes(raw))
        assert (exc.value.block, exc.value.bit_offset) == (1, 0)

    def test_error_in_the_unrank_names_the_block(self, monkeypatch):
        # the unrank runs inside the block's error context, so whatever it
        # rejects is a corrupt container at that block's offset
        unrank = block_codec._unrank_chunks

        def fail_on_the_final_block(pid, arrangements, counts, limit):
            if sum(counts) == 3:
                raise ValueError("unrank failed")
            return unrank(pid, arrangements, counts, limit)

        monkeypatch.setattr(block_codec, "_unrank_chunks", fail_on_the_final_block)
        container = encode(b"baabb", self.BAABB)
        match = "payload bit 5, block 2: unrank failed"
        with pytest.raises(CorruptContainerError, match=match) as exc:
            decode(container)
        assert (exc.value.block, exc.value.bit_offset) == (2, 5)

    @pytest.mark.parametrize("r", [2**10, 2**22])
    def test_padded_final_block_unranks_only_the_owed_symbols(self, monkeypatch, r):
        # "ab" five times is one block of r + 5 symbols, all but its first
        # 10 padding; its rank sums, over each b, the arrangements that hold
        # an a there instead
        params = CodecParams.variable(b"ab", b"a", r, 10)
        length = r + 5
        rank = sum(math.comb(length - 1 - at, 5 - k) for k, at in enumerate(range(1, 10, 2)))
        container = self._container(
            params, [(length, None), (rank, ceil_log2(math.comb(length, 5)))]
        )
        if r < 2**16:
            assert container == encode(b"ab" * 5, params)
        unrank = block_codec._unrank_chunks
        lengths = []

        def counted_unrank(*args):
            ids = unrank(*args)
            lengths.append(len(ids))
            return ids

        monkeypatch.setattr(block_codec, "_unrank_chunks", counted_unrank)
        assert decode(container, max_output=16) == b"ab" * 5
        assert lengths == [10]

    def test_padding_that_holds_another_symbol_is_rejected(self):
        # the final block "bab" (rank 1 of 3) leaves "b" where only delimiters may follow n
        container = self._container(self.BAABB, [*self.BLOCK_1, (3, None), (1, 2)])
        match = "payload bit 5, block 2: padding differs from the delimiter symbol"
        with pytest.raises(CorruptContainerError, match=match) as exc:
            decode(container)
        assert (exc.value.block, exc.value.bit_offset) == (2, 5)

    def test_truncated_payload(self):
        params = variable_params(FIG_T)
        container = encode(FIG_T, params)
        clipped = EncodedContainer(params=params, payload=container.payload[:4])
        with pytest.raises(CorruptContainerError, match="block"):
            decode(clipped)

    def test_trailing_garbage(self):
        params = variable_params(FIG_T)
        container = encode(FIG_T, params)
        bloated = EncodedContainer(params=params, payload=container.payload + b"\xff")
        with pytest.raises(CorruptContainerError, match="trailing garbage"):
            decode(bloated)

    def test_nonzero_padding_bits(self):
        params = variable_params(FIG_T)
        container = encode(FIG_T, params)
        tampered = bytearray(container.payload)
        tampered[-1] |= 0x01  # the last 6 bits are byte padding
        bad = EncodedContainer(params=params, payload=bytes(tampered))
        with pytest.raises(CorruptContainerError, match="trailing garbage"):
            decode(bad)

    def test_block_length_below_r(self):
        w = BitWriter()
        w.write_elias_delta(1)  # r is 2, so a length-1 block is impossible
        params = CodecParams.variable(b"ab", b"a", 2, 5)
        container = EncodedContainer(params=params, payload=w.getvalue())
        with pytest.raises(CorruptContainerError, match="below r"):
            decode(container)

    def test_block_length_beyond_sequence(self):
        w = BitWriter()
        w.write_elias_delta(2**40)  # bounds the work a hostile container can cause
        params = CodecParams.variable(b"ab", b"a", 2, 5)
        container = EncodedContainer(params=params, payload=w.getvalue())
        with pytest.raises(CorruptContainerError, match="exceeds the sequence length"):
            decode(container)

    def test_oversized_permutation_field_rejected_before_counting(self):
        # 29 bytes claiming a block of 17*r symbols with r = 2**20: its
        # arrangement count has millions of bits, far more than the payload
        r = 2**20
        w = BitWriter()
        w.write_elias_delta(17 * r)
        params = CodecParams.variable(b"ab", b"a", r, 2**40)
        raw = EncodedContainer(params=params, payload=w.getvalue()).to_bytes()
        assert len(raw) == 29
        start = time.perf_counter()
        with pytest.raises(CorruptContainerError, match="block 1: permutation rank needs") as exc:
            # a cap above the declared n lets decode reach the field check
            decode(EncodedContainer.from_bytes(raw), max_output=2**40)
        assert time.perf_counter() - start < 1.0
        assert exc.value.block == 1

    @pytest.mark.parametrize("exponent", [18, 30])
    def test_largest_frequency_rank_of_huge_block_rejected_fast(self, exponent):
        # sigma=4, r=1: one declared block of 2**exponent symbols whose
        # frequency rank is the largest there is, then no room for the
        # permutation rank; unranking the frequency vector must not walk
        # the block length
        length = 2**exponent
        count = math.comb(length - 1 + 2, 2)  # K(3, length - r)
        w = BitWriter()
        w.write_elias_delta(length)
        w.write(count - 1, ceil_log2(count))
        params = CodecParams.variable(b"acgt", b"a", 1, 2**40)
        raw = EncodedContainer(params=params, payload=w.getvalue()).to_bytes()
        if exponent == 18:
            assert len(raw) == 34
        start = time.perf_counter()
        with pytest.raises(CorruptContainerError, match="block 1"):
            # a cap above the declared n lets decode reach the field check
            decode(EncodedContainer.from_bytes(raw), max_output=2**40)
        # about 0.1 ms; the bound leaves room for a loaded host, while a walk
        # over the block length runs for minutes at 2**30
        assert time.perf_counter() - start < 1.0

    def test_oversized_frequency_field_rejected(self):
        # 256 symbols in blocks of 2**32 - 1: the frequency field alone is
        # thousands of bits wide, and the payload is empty
        params = CodecParams.fixed(bytes(range(256)), 2**32 - 1, 2**40)
        container = EncodedContainer(params=params, payload=b"")
        with pytest.raises(CorruptContainerError, match="block 1: frequency rank needs"):
            # a cap above the declared n lets decode reach the field check
            decode(container, max_output=2**40)


def accounting(data, params):
    """What :func:`vector_bits` prices the blocks of ``data`` at."""
    return vector_bits(block_vectors(data, params)[0], params)


class TestAccounting:
    def test_reference_component_budget(self):
        params = variable_params(FIG_T)
        blocks = factorize(FIG_T, params)
        acct = accounting(FIG_T, params)
        # per-block widths computed from the reference freq vectors
        assert [ceil_log2(b.length) for b in blocks] == [3, 3, 2, 2, 3, 2]
        assert [ceil_log2(k_count(3, b.length - 2)) for b in blocks] == [5, 5, 3, 3, 4, 2]
        assert [ceil_log2(multinomial(f)) for f in FIG_FREQS] == [10, 11, 4, 4, 5, 2]
        assert acct.length_bits == 15
        assert acct.freq_bits == 22
        assert acct.perm_bits == 36
        assert acct.bits_ceiled == 73
        assert acct.bits_real == pytest.approx(66.6659650933787)
        assert acct.per_base(len(FIG_T)) == pytest.approx(73 / 34)

    def test_first_block_frequency_field_width(self):
        # 21 three-dimensional vectors sum to 5, so the field is 5 bits wide
        blocks = factorize(FIG_T, variable_params(FIG_T))
        assert blocks[0].freq[0] == 2 and blocks[0].freq[1:] == (1, 2, 2)
        assert k_count(3, 5) == 21
        assert ceil_log2(21) == 5

    def test_uniform_block_needs_no_permutation_bits(self):
        params = CodecParams.fixed(b"ab", 4, 4)
        acct = accounting(b"aaaa", params)
        assert acct.perm_bits == 0

    def test_fixed_mode_has_no_length_component(self):
        params = CodecParams.fixed(FIG_ALPHABET, 4, len(FIG_T))
        acct = accounting(FIG_T, params)
        assert acct.length_bits == 0
        assert acct.bits_ceiled == acct.freq_bits + acct.perm_bits

    def test_block_list_wrappers_match_vector_bits_and_the_sweep(self):
        # accounted_bits, container_bits and average_block_length are kept
        # only for perfbench/tracer.py's name lookups; this is their one test
        fixed = CodecParams.fixed(FIG_ALPHABET, 4, len(FIG_T))
        sweep = sweep_file("x", FIG_T, alphas=b"a", r_set=(2,), l_set=(4,))
        assert [point.params for point in sweep.points] == [variable_params(FIG_T), fixed]
        for point in sweep.points:
            blocks = factorize(FIG_T, point.params)
            acct = accounting(FIG_T, point.params)
            assert accounted_bits(blocks, point.params) == acct == point.accounting
            assert container_bits(blocks, point.params) == acct.container_bits
            assert average_block_length(blocks) == point.avg_block_len
        blocks = factorize(FIG_T, variable_params(FIG_T))
        assert average_block_length(blocks) == pytest.approx(sum(FIG_LENGTHS) / 6)
        assert average_block_length([]) == 0.0


alphabets = st.sampled_from([b"ab", b"acgt"])


@st.composite
def variable_cases(draw):
    alphabet = draw(alphabets)
    data = bytes(draw(st.lists(st.sampled_from(alphabet), max_size=250)))
    alpha = draw(st.sampled_from(alphabet))
    r = draw(st.integers(1, 6))
    return data, CodecParams.variable(alphabet, alpha, r, len(data))


@st.composite
def fixed_cases(draw):
    alphabet = draw(alphabets)
    data = bytes(draw(st.lists(st.sampled_from(alphabet), max_size=250)))
    fixed_len = draw(st.integers(1, 9))
    return data, CodecParams.fixed(alphabet, fixed_len, len(data))


# Inputs of up to 2000 symbols, so that blocks with n * ceil(log2 sigma) above
# 512 bits rank in chunks and arrangement counts above 2048 bits unrank in
# chunks. Lengths are drawn down from their maximum, which hypothesis would
# otherwise seldom reach, and the symbols come from a drawn seed, since
# drawing 2000 list elements one by one is slow.
def _down_from(draw, top: int, low: int = 1) -> int:
    return top - draw(st.integers(0, top - low))


def _seeded(draw, kinds: bytes) -> bytes:
    weights = draw(st.lists(st.integers(1, 8), min_size=len(kinds), max_size=len(kinds)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return bytes(rng.choices(kinds, weights, k=_down_from(draw, 2000, 0)))


@st.composite
def sparse_byte_cases(draw):
    """All 256 byte values as the alphabet, 2-6 of them present, either mode."""
    kinds = bytes(draw(st.lists(st.integers(0, 255), min_size=2, max_size=6, unique=True)))
    data, alphabet = _seeded(draw, kinds), bytes(range(256))
    if draw(st.booleans()):
        return data, CodecParams.fixed(alphabet, _down_from(draw, 2048), len(data))
    alpha, r = draw(st.sampled_from(kinds)), _down_from(draw, 600)
    return data, CodecParams.variable(alphabet, alpha, r, len(data))


@st.composite
def long_fixed_cases(draw):
    """Fixed mode over ab or acgt, with L and n up to about 2000."""
    alphabet = draw(alphabets)
    data = _seeded(draw, alphabet)
    return data, CodecParams.fixed(alphabet, _down_from(draw, 2048), len(data))


@given(st.one_of(sparse_byte_cases(), long_fixed_cases()))
@settings(deadline=None)
def test_long_block_container_round_trip(case):
    data, params = case
    container = encode(data, params)
    raw = container.to_bytes()
    assert container.accounting.container_bits == 8 * len(raw)
    assert decode(EncodedContainer.from_bytes(raw)) == data


@given(variable_cases())
@settings(deadline=None)
def test_variable_round_trip_property(case):
    data, params = case
    container = EncodedContainer.from_bytes(encode(data, params).to_bytes())
    assert decode(container) == data


@given(variable_cases())
@settings(deadline=None)
def test_variable_structural_invariants(case):
    data, params = case
    blocks = factorize(data, params)
    if not data:
        assert blocks == []
        return
    r = params.r
    c_alpha = data.count(params.alpha_byte)
    total = sum(b.length for b in blocks)
    apos = params.alpha_index - 1

    for b in blocks:
        assert b.freq[apos] == r
        ranked = b.freq[:apos] + b.freq[apos + 1 :]  # the vector encode ranks
        assert sum(ranked) == b.length - r
        assert sequence_to_perm_index(b.content, params.alphabet) < multinomial(b.freq)
        assert vector_to_index(ranked) < k_count(params.sigma - 1, b.length - r)
    assert all(b.pad_count == 0 for b in blocks[:-1])
    assert 0 <= blocks[-1].pad_count <= r

    reconstructed = total + len(blocks) - 1
    if reconstructed == len(data) - 1:
        # input ended on a consumed delimiter: no residue block was emitted
        assert len(blocks) == c_alpha // (r + 1)
        assert blocks[-1].pad_count == 0
    else:
        assert total + (len(blocks) - 1) - blocks[-1].pad_count == len(data)
        assert len(blocks) == c_alpha // (r + 1) + 1


@given(fixed_cases())
@settings(deadline=None)
def test_fixed_round_trip_property(case):
    data, params = case
    container = EncodedContainer.from_bytes(encode(data, params).to_bytes())
    assert decode(container) == data
    for b in factorize(data, params):
        assert vector_to_index(b.freq) < k_count(params.sigma, b.length)


@given(st.one_of(variable_cases(), fixed_cases()))
@settings(deadline=None)
def test_container_size_matches_declared_widths(case):
    data, params = case
    blocks = factorize(data, params)
    container = encode(data, params)
    acct = vector_bits([block.freq for block in blocks], params)
    assert acct.container_bits == len(container.to_bytes()) * 8


@st.composite
def count_only_cases(draw):
    """Inputs over 1-8 symbols, with r or L from 1 to past n; some end on a
    consumed delimiter, hold no delimiter at all, are empty, or carry
    bytes from outside the alphabet."""
    alphabet = bytes(draw(st.lists(st.integers(0, 255), min_size=1, max_size=8, unique=True)))
    alpha = draw(st.sampled_from(alphabet))
    data = bytearray(draw(st.lists(st.sampled_from(alphabet), max_size=200)))
    r = draw(st.integers(1, len(data) + 3))
    shape = draw(st.sampled_from(["any", "consumed", "no delimiter", "empty", "foreign"]))
    if shape == "consumed":
        # close the last block on its (r+1)-th delimiter: no residue block
        data.append(alpha)
        while data.count(alpha) % (r + 1):
            data.append(alpha)
    elif shape == "no delimiter":
        data = data.replace(bytes([alpha]), b"")
    elif shape == "empty":
        data = bytearray()
    elif shape == "foreign" and len(alphabet) < 256:
        outside = draw(st.integers(0, 255).filter(lambda byte: byte not in alphabet))
        data.insert(draw(st.integers(0, len(data))), outside)
    data = bytes(data)
    if draw(st.booleans()):
        return data, CodecParams.variable(alphabet, alpha, r, len(data))
    return data, CodecParams.fixed(alphabet, draw(st.integers(1, len(data) + 3)), len(data))


DNA_LIKE = _dna_like(1, n=3000)


@given(count_only_cases())
@settings(deadline=None, max_examples=300)
# long inputs with many repeated vectors, where a reordered bits_real sum shows
@example((DNA_LIKE, CodecParams.variable(b"acgt", b"a", 2, len(DNA_LIKE))))
@example((DNA_LIKE, CodecParams.fixed(b"acgt", 16, len(DNA_LIKE))))
def test_block_vectors_match_factorize(case):
    data, params = case
    try:
        blocks = reference_factorize(data, params)
    except AlphabetError as exc:
        with pytest.raises(AlphabetError) as raised:
            block_vectors(data, params)
        assert (raised.value.byte, raised.value.offset) == (exc.byte, exc.offset)
        return
    expected = ([b.freq for b in blocks], blocks[-1].pad_count if blocks else 0)
    assert block_vectors(data, params) == expected
    assert list(grid_vectors(data, [params])) == [expected[0]]
    assert [sum(freq) for freq in expected[0]] == [b.length for b in blocks]
    # every int field exact; the oracle counts the blocks it cut. bits_real
    # takes its arrangement terms from the log2 k! table, within its bound
    got, want = vector_bits(expected[0], params), reference_accounted_bits(blocks, params)
    assert got._replace(bits_real=None) == want._replace(bits_real=None)
    tolerance = real_bits_tolerance([b.length for b in blocks], want.bits_real)
    assert got.bits_real == pytest.approx(want.bits_real, rel=0, abs=tolerance)
    if params.mode == "variable":
        positions = delimiter_positions(data, params.alpha_byte)
        assert positions == [i for i, byte in enumerate(data) if byte == params.alpha_byte]


class TestGridVectors:
    def test_default_grid_matches_block_vectors(self):
        n = len(DNA_LIKE)
        grid = [CodecParams.variable(b"acgt", a, r, n) for a in b"acgt" for r in R_SET_DEFAULT]
        grid += [CodecParams.fixed(b"acgt", fixed_len, n) for fixed_len in L_SET_DEFAULT]
        assert list(grid_vectors(DNA_LIKE, grid)) == [block_vectors(DNA_LIKE, p)[0] for p in grid]

    @pytest.mark.parametrize(
        "lengths",
        [
            (1, 2, 4, 3, 6, 12),  # each doubles an earlier length
            (8, 4, 2),  # halves come later, so every length is cut
            (5, 10, 7, 14, 4000, 8000),  # an odd count of half blocks; one block each
        ],
    )
    def test_fixed_lengths_pair_their_halves(self, lengths):
        data = _dna_like(4, n=999)
        grid = [CodecParams.fixed(b"acgt", fixed_len, len(data)) for fixed_len in lengths]
        assert list(grid_vectors(data, grid)) == [block_vectors(data, p)[0] for p in grid]

    def test_checks_the_input_once(self, monkeypatch):
        calls = []
        check = block_codec.check_alphabet
        monkeypatch.setattr(block_codec, "check_alphabet", lambda *a: calls.append(a) or check(*a))
        sweep_file("x", DNA_LIKE)
        assert len(calls) == 1
        with pytest.raises(AlphabetError) as raised:
            sweep_file("x", DNA_LIKE[:100] + b"n" + DNA_LIKE[100:], alphabet=b"acgt")
        assert (raised.value.byte, raised.value.offset) == (ord("n"), 100)
        assert str(raised.value) == "byte 0x6e at offset 100 is not in the alphabet"

    def test_grid_shares_one_alphabet_and_length(self):
        data = b"acgt" * 4
        first = CodecParams.fixed(b"acgt", 4, 16)
        for other in (first._replace(alphabet=b"acgtn"), first._replace(n=15)):
            with pytest.raises(ValueError, match="one alphabet and n"):
                list(grid_vectors(data, [first, other]))
        assert list(grid_vectors(data, [])) == []


class TestLog2FactorialPricing:
    def test_every_table_entry_is_within_its_error(self):
        table = block_codec._log2_factorials()
        # the same floats as log2_factorial's, whose error test_analysis.py
        # bounds, so a block's x does not depend on which side of the cap
        # its counts lie
        assert table == [log2_factorial(k) for k in range(block_codec._LF_CAP + 1)]
        # the fallback margin is far wider than the error of x it guards against
        assert block_codec._LF_MARGIN > 1000 * block_codec._LF_BOUND

    def test_a_huge_block_leaves_the_table_at_its_cap(self):
        n = 2**28
        acct = vector_bits([(n - 1, 1)], CodecParams.fixed(b"ab", n, n))
        assert acct.perm_bits == 28
        assert len(block_codec._log2_factorials()) == block_codec._LF_CAP + 1


@st.composite
def priced_vectors(draw):
    """A count vector: random, single-kind, with a power-of-two arrangement
    count, of power-of-two counts, next to the table's cap or to the end of
    the checked range, or of up to 2**17 symbols."""
    sigma = draw(st.integers(1, 6))
    shape = draw(
        st.sampled_from(["random", "single", "power of two", "powers", "cap", "checked", "wide"])
    )
    checked = block_codec._LF_CHECKED
    if sigma == 1 or shape == "single":
        counts = [draw(st.integers(0, 2**20))]
    elif shape == "power of two":
        counts = [2 ** draw(st.integers(0, 20)) - 1, 1]
    elif shape == "powers":
        counts = [2 ** draw(st.integers(0, 14)) for _ in range(sigma)]
    else:
        cap = block_codec._LF_CAP
        n = {
            "random": st.integers(0, 600),
            "cap": st.integers(cap - 2, cap + 2),
            "checked": st.integers(checked - 2, checked + 2),
            "wide": st.integers(cap + 1, checked),
        }[shape]
        n = draw(n)
        cuts = sorted(draw(st.lists(st.integers(0, n), min_size=sigma - 1, max_size=sigma - 1)))
        counts = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    counts += [0] * (sigma - len(counts))
    return tuple(draw(st.permutations(counts)))


@given(priced_vectors())
@settings(deadline=None, max_examples=200)
@example((1,))
@example((1, 1))
@example((0, 1, 1, 0))
@example((2**20,))
@example((2**20 - 1, 1))
# counts of 2**6, 2**8 and 2**10, whose table log2 is a few ulps above the integer
@example((63, 1))
@example((1, 255))
@example((1023, 1))
@example((4095, 1))
@example((1, 4096))
# above the table, arrangement counts 2**13 to 2**17, and the first lengths
# past the checked range, which the exact count prices
@example((2**13 - 1, 1))
@example((1, 2**14 - 1))
@example((2**15 - 1, 1))
@example((2**16 - 1, 0, 1))
@example((2**17 - 1, 1))
@example((2**17, 1))
@example((2**17 + 1,))
@example((2**16, 2**16))
@example((2**14,) * 4)
@example((2**18,) * 4)
def test_table_widths_are_exact(freq):
    n = sum(freq)
    params = CodecParams.fixed(bytes(range(len(freq))), max(n, 1), n)
    acct = vector_bits([freq], params)
    count, arrangements = k_count(len(freq), n), multinomial(freq)
    assert acct.perm_bits == ceil_log2(arrangements)
    assert acct.freq_bits == ceil_log2(count)
    exact = log2_int(count) + log2_int(arrangements)
    assert acct.bits_real == pytest.approx(exact, rel=0, abs=real_bits_tolerance([n], exact))


def factorize_fields(data, params):
    """The oracle's tuple for each block; reduced_freq is the vector encode ranks."""
    if params.mode == "fixed":
        return [(b.content, b.length, b.freq, None, b.pad_count) for b in factorize(data, params)]
    apos = params.alpha_index - 1
    return [
        (b.content, b.length, b.freq, b.freq[:apos] + b.freq[apos + 1 :], b.pad_count)
        for b in factorize(data, params)
    ]


def assert_matches_reference(data, params):
    try:
        expected = reference_factorize(data, params)
    except AlphabetError as exc:
        with pytest.raises(AlphabetError) as caught:
            factorize_fields(data, params)
        assert (caught.value.byte, caught.value.offset) == (exc.byte, exc.offset)
        return
    assert factorize_fields(data, params) == expected


class TestReferenceFactorization:
    def test_input_ending_on_consumed_delimiter(self):
        data = b"ttgaacgattaaa"  # r=2: "ttgaacg", "ttaa", and a consumed final 'a'
        params = variable_params(data)
        blocks = reference_factorize(data, params)
        assert sum(b[1] for b in blocks) + len(blocks) - 1 == len(data) - 1
        assert blocks[-1][4] == 0
        assert_matches_reference(data, params)

    def test_no_delimiter(self):
        data = b"cgtcgttg"
        assert_matches_reference(data, variable_params(data))
        assert factorize_fields(data, variable_params(data))[0][4] == 2

    @pytest.mark.parametrize("alpha", [b"a", b"c", b"g", b"t"])
    def test_r_equal_1(self, alpha):
        assert_matches_reference(FIG_T, variable_params(FIG_T, alpha=alpha, r=1))

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 6])
    def test_single_symbol_alphabet(self, n):
        data = b"x" * n
        assert_matches_reference(data, CodecParams.variable(b"x", b"x", 2, n))
        assert_matches_reference(data, CodecParams.fixed(b"x", 4, n))

    def test_empty_input(self):
        assert_matches_reference(b"", variable_params(b""))
        assert_matches_reference(b"", CodecParams.fixed(FIG_ALPHABET, 3, 0))
        assert factorize_fields(b"", CodecParams.fixed(FIG_ALPHABET, 3, 0)) == []

    def test_foreign_bytes_report_the_first_offset(self):
        data = b"acgzatxa"
        assert_matches_reference(data, variable_params(data))
        assert_matches_reference(data, CodecParams.fixed(FIG_ALPHABET, 3, len(data)))


@st.composite
def reference_cases(draw):
    alphabet = draw(st.sampled_from([b"x", b"ab", b"acgt", bytes(range(65, 85))]))
    data = bytearray(draw(st.lists(st.sampled_from(alphabet), max_size=300)))
    # sometimes slip in bytes from outside the alphabet
    for _ in range(draw(st.integers(0, 2))):
        foreign = draw(st.integers(0, 255).filter(lambda b: b not in alphabet))
        data.insert(draw(st.integers(0, len(data))), foreign)
    data = bytes(data)
    if draw(st.booleans()):
        alpha = draw(st.sampled_from(alphabet))
        return data, CodecParams.variable(alphabet, alpha, draw(st.integers(1, 6)), len(data))
    return data, CodecParams.fixed(alphabet, draw(st.integers(1, 9)), len(data))


@given(reference_cases())
@settings(deadline=None, max_examples=300)
def test_factorization_matches_reference(case):
    data, params = case
    assert_matches_reference(data, params)


@st.composite
def encode_cases(draw):
    alphabet = draw(st.sampled_from([b"x", b"ab", b"acgt", bytes(range(65, 85))]))
    data = bytes(draw(st.lists(st.sampled_from(alphabet), max_size=300)))
    n = len(data)
    if draw(st.booleans()):
        alpha = draw(st.sampled_from(alphabet))
        return data, CodecParams.variable(alphabet, alpha, draw(st.integers(1, n + 2)), n)
    return data, CodecParams.fixed(alphabet, draw(st.integers(1, n + 2)), n)


@given(encode_cases())
@settings(deadline=None, max_examples=200)
@example((b"", CodecParams.variable(b"acgt", b"a", 2, 0)))
@example((b"", CodecParams.fixed(b"acgt", 3, 0)))
@example((b"xxxxx", CodecParams.variable(b"x", b"x", 2, 5)))
@example((b"xxxxx", CodecParams.fixed(b"x", 2, 5)))
# ends on a consumed delimiter: "ttgaacg", "ttaa", then the final 'a'
@example((b"ttgaacgattaaa", CodecParams.variable(b"acgt", b"a", 2, 13)))
@example((FIG_T, CodecParams.variable(FIG_ALPHABET, b"a", 1, len(FIG_T))))
@example((FIG_T, CodecParams.fixed(FIG_ALPHABET, len(FIG_T) + 1, len(FIG_T))))
def test_encode_matches_reference(case):
    data, params = case
    got = encode(data, params)
    expected = reference_encode(data, params)
    assert got.to_bytes() == expected.to_bytes()
    assert got.payload_bits == expected.payload_bits


@given(encode_cases())
@settings(deadline=None, max_examples=200)
@example((b"", CodecParams.variable(b"acgt", b"a", 2, 0)))
@example((b"", CodecParams.fixed(b"acgt", 3, 0)))
# a padded tail: the final "cg" owes both its delimiters
@example((b"aacgtacg", CodecParams.variable(b"acgt", b"a", 2, 8)))
# ends on a consumed delimiter: "ttgaacg", "ttaa", then the final 'a'
@example((b"ttgaacgattaaa", CodecParams.variable(b"acgt", b"a", 2, 13)))
@example((DNA_LIKE, CodecParams.variable(b"acgt", b"a", 2, len(DNA_LIKE))))
@example((DNA_LIKE, CodecParams.fixed(b"acgt", 16, len(DNA_LIKE))))
def test_encode_carries_the_accounting_of_its_blocks(case):
    data, params = case
    container = encode(data, params)
    vectors, pad = block_vectors(data, params)
    # exact, bits_real included: encode prices its blocks in block order
    assert container.accounting == vector_bits(vectors, params)
    assert (container.accounting.blocks, container.pad) == (len(vectors), pad)
    assert container.accounting.container_bits == 8 * len(container.to_bytes())
    assert container.payload_bits == (
        container.accounting.freq_bits
        + container.accounting.perm_bits
        + sum(elias_delta_bit_length(sum(freq)) for freq in vectors if params.mode == "variable")
    )


@st.composite
def padded_cases(draw):
    """Up to 40 symbols over 2 or 4 kinds, variable mode at r up to 2**12, so
    that the final block owes its padding far more symbols than it holds."""
    alphabet = draw(alphabets)
    data = bytes(draw(st.lists(st.sampled_from(alphabet), max_size=40)))
    r = draw(st.one_of(st.integers(1, 8), st.integers(1, 2**12)))
    return data, CodecParams.variable(alphabet, draw(st.sampled_from(alphabet)), r, len(data))


@given(padded_cases())
@settings(deadline=None, max_examples=100)
@example((b"ab" * 5, CodecParams.variable(b"ab", b"a", 2**12, 10)))
@example((b"cccc", CodecParams.variable(b"acgt", b"a", 2**12, 4)))
def test_padded_containers_match_the_reference(case):
    # the reference ranks the padded block whole; encode ranks its symbols
    # from the state after the pad run, by the walk and in chunks
    data, params = case
    expected = reference_encode(data, params).to_bytes()
    for walk_bits in (1, 10**9):
        with mock.patch.object(permutation_codec, "_RANK_WALK_BITS", walk_bits):
            assert encode(data, params).to_bytes() == expected, walk_bits


# Encodes 10 symbols at the given r in a child under a 1 GiB address-space
# limit, decodes them back under max_output=16, and prints the encode's
# seconds and the child's peak RSS in KiB.
PADDED_ENCODE = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from enumcode.block_codec import CodecParams, EncodedContainer, decode, encode
params = CodecParams.variable(b"ab", b"a", int(sys.argv[1]), 10)
start = time.perf_counter()
raw = encode(b"ab" * 5, params).to_bytes()
elapsed = time.perf_counter() - start
assert decode(EncodedContainer.from_bytes(raw), max_output=16) == b"ab" * 5
print(elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_padding_to_the_largest_r_costs_what_the_symbols_cost():
    # r = 2**32 - 1 once meant a 4 GiB final block; the encode takes about
    # 3 ms, and the bound leaves room for a loaded host
    src = str(Path(block_codec.__file__).resolve().parent.parent)
    peaks = {}
    for r in (4, 2**32 - 1):
        done = subprocess.run(
            [sys.executable, "-c", PADDED_ENCODE, str(r)],
            capture_output=True,
            text=True,
            timeout=60,
            env={"PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        elapsed, peaks[r] = map(float, done.stdout.split())
        assert elapsed < 2.0, (r, elapsed)
    assert peaks[2**32 - 1] < peaks[4] + 8 * 1024


def test_encode_builds_no_multinomial(monkeypatch):
    # each block's rank yields its arrangement count, which prices the block too
    def refuse(counts):
        raise AssertionError("encode built a multinomial")

    monkeypatch.setattr(block_codec, "multinomial", refuse)
    monkeypatch.setattr(permutation_codec, "multinomial", refuse)
    for params in (
        CodecParams.variable(b"acgt", b"a", 16, len(DNA_LIKE)),
        CodecParams.fixed(b"acgt", 64, len(DNA_LIKE)),
        CodecParams.fixed(b"acgt", 2048, len(DNA_LIKE)),
    ):
        assert encode(DNA_LIKE, params).to_bytes() == reference_encode(DNA_LIKE, params).to_bytes()


def fuzz_containers():
    """Six containers of both modes: DNA-like, 20 kinds and 2 skewed kinds."""
    rng = random.Random(19)
    dna = _dna_like(19, n=1200)
    twenty = bytes(rng.choices(bytes(range(65, 85)), k=300))
    skewed = bytes(rng.choices(b"ab", weights=(30, 1), k=500))
    cases = [
        (dna, CodecParams.variable(b"acgt", b"a", 4, len(dna))),
        (dna, CodecParams.variable(b"acgt", b"g", 16, len(dna))),
        (dna, CodecParams.fixed(b"acgt", 64, len(dna))),
        (dna, CodecParams.fixed(b"acgt", len(dna), len(dna))),  # one block, unranked in chunks
        (twenty, CodecParams.variable(bytes(range(65, 85)), b"A", 2, len(twenty))),
        (skewed, CodecParams.fixed(b"ab", 100, len(skewed))),
    ]
    return [(data, params, encode(data, params).to_bytes()) for data, params in cases]


def padded_fuzz_containers():
    """Padded variable-mode containers, DNA-like and over 20 kinds at r from 2
    to 64, each with the offset, width and count of its final block's
    permutation field, as encode wrote it: the last field of the payload."""
    rng = random.Random(30)
    dna = _dna_like(30, n=900)
    twenty = bytes(rng.choices(bytes(range(65, 85)), k=400))
    rank_ids = block_codec._rank_ids
    ranked = []

    def recording_rank(*args):
        ranked.append(rank_ids(*args))
        return ranked[-1]

    cases = []
    for r in (2, 5, 16, 64):
        for data, alphabet, alpha in ((dna, b"acgt", b"g"), (twenty, bytes(range(65, 85)), b"A")):
            params = CodecParams.variable(alphabet, alpha, r, len(data))
            with mock.patch.object(block_codec, "_rank_ids", recording_rank):
                container = encode(data, params)
            if container.pad:
                _, arrangements = ranked[-1]
                width = ceil_log2(arrangements)
                cases.append((data, container, container.payload_bits - width, width, arrangements))
    assert len(cases) >= 6
    return cases


def mutate(rng, raw, header_size):
    """One bit flip, truncation, appended run or rewritten header byte of ``raw``."""
    kind = rng.randrange(4)
    if kind == 0:
        at, bit = divmod(rng.randrange(8 * len(raw)), 8)
        return raw[:at] + bytes([raw[at] ^ 0x80 >> bit]) + raw[at + 1 :]
    if kind == 1:
        return raw[: rng.randrange(len(raw))]
    if kind == 2:
        return raw + rng.randbytes(rng.randint(1, 8))
    at = rng.randrange(header_size)
    return raw[:at] + bytes([rng.randrange(256)]) + raw[at + 1 :]


def test_mutated_containers_decode_whole_or_raise_a_codec_error():
    # a fixed seed, so every run decodes the same cases; the cap keeps a
    # rewritten n from asking for more output than the fuzz can afford
    rng = random.Random(19)
    decoded = rejected = 0
    start = time.perf_counter()
    for data, params, raw in fuzz_containers():
        assert decode(EncodedContainer.from_bytes(raw)) == data
        header_size = reference_header_bytes(params)
        for _ in range(500):
            mutated = mutate(rng, raw, header_size)
            try:
                container = EncodedContainer.from_bytes(mutated)
                out = decode(container, max_output=1 << 16)
            except (FormatError, CorruptContainerError):
                rejected += 1
                continue
            assert len(out) == container.params.n
            assert set(out) <= set(container.params.alphabet)
            decoded += 1
    assert decoded and rejected
    # each case takes a few milliseconds; the bound leaves room for a loaded host
    assert time.perf_counter() - start < 60.0


def decode_outcome(decoder, container, max_output=DEFAULT_MAX_OUTPUT):
    """What ``decoder`` makes of ``container``: its bytes, or its error's
    type, message, block and bit offset."""
    try:
        return decoder(container, max_output)
    except CorruptContainerError as exc:
        return type(exc), str(exc), exc.block, exc.bit_offset


def test_decode_matches_the_block_decode_oracle_on_the_fuzz():
    # the seeded fuzz above, each case decoded by both
    rng = random.Random(19)
    outcomes = 0
    for data, params, raw in fuzz_containers():
        header_size = reference_header_bytes(params)
        for _ in range(500):
            try:
                container = EncodedContainer.from_bytes(mutate(rng, raw, header_size))
            except FormatError:
                continue
            got = decode_outcome(decode, container, 1 << 16)
            assert got == decode_outcome(reference_block_decode, container, 1 << 16)
            outcomes += isinstance(got, bytes)
    assert outcomes == 663


def test_padded_final_blocks_with_any_rank_decode_to_their_encoding_or_raise():
    # every final block's permutation field rewritten to in-range ranks: a
    # rank decodes only to the input whose encoding it is, and most put
    # another symbol into the padding
    rng = random.Random(30)
    padding_errors = decoded = 0
    for data, container, offset, width, arrangements in padded_fuzz_containers():
        raw = container.to_bytes()
        header = len(raw) - len(container.payload)
        spare = 8 * len(container.payload) - offset - width
        payload = int.from_bytes(container.payload, "big")
        for _ in range(60):
            field = ((1 << width) - 1) << spare
            rewritten = payload & ~field | rng.randrange(arrangements) << spare
            mutated = raw[:header] + rewritten.to_bytes(len(container.payload), "big")
            try:
                out = decode(EncodedContainer.from_bytes(mutated), max_output=1 << 16)
            except CorruptContainerError as exc:
                padding_errors += "padding differs from the delimiter symbol" in str(exc)
                continue
            assert encode(out, container.params).to_bytes() == mutated
            decoded += 1
        assert decode(EncodedContainer.from_bytes(raw)) == data
    assert padding_errors and decoded


@st.composite
def oracle_cases(draw):
    """A container over 1-8 or 20 kinds, either mode, as encoded or with a
    flipped bit, a cut, appended bytes or another n."""
    sigma = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 20]))
    alphabet = bytes(range(65, 65 + sigma))
    data = bytes(draw(st.lists(st.sampled_from(alphabet), max_size=120)))
    if draw(st.booleans()):
        alpha, r = draw(st.sampled_from(alphabet)), draw(st.integers(1, 8))
        params = CodecParams.variable(alphabet, alpha, r, len(data))
        # ending on the delimiter leaves the final block unpadded more often
        if draw(st.booleans()):
            data += bytes([alpha])
            params = params._replace(n=len(data))
    else:
        params = CodecParams.fixed(alphabet, draw(st.integers(1, 40)), len(data))
    payload = encode(data, params).payload
    kind = draw(st.integers(0, 4))
    if kind == 1 and payload:
        at = draw(st.integers(0, 8 * len(payload) - 1))
        flipped = payload[at >> 3] ^ 0x80 >> (at & 7)
        payload = payload[: at >> 3] + bytes([flipped]) + payload[(at >> 3) + 1 :]
    elif kind == 2:
        payload = payload[: draw(st.integers(0, len(payload)))]
    elif kind == 3:
        payload += draw(st.binary(min_size=1, max_size=3))
    elif kind == 4:
        params = params._replace(n=max(params.n + draw(st.integers(-3, 3)), 0))
    return EncodedContainer(params=params, payload=payload)


@given(oracle_cases())
@settings(deadline=None, max_examples=300)
def test_decode_matches_the_block_decode_oracle(container):
    assert decode_outcome(decode, container) == decode_outcome(reference_block_decode, container)


# Headers of tools/bijection_check.py's family: sigma 2-4, both modes, r and L
# at their edges, final blocks padded (r = n + 1) and not.
BIJECTION_SAMPLE = [
    CodecParams.variable(b"ab", b"a", 1, 6),
    CodecParams.variable(b"abc", b"a", 4, 3),
    CodecParams.variable(b"abcd", b"a", 1, 4),
    CodecParams.fixed(b"ab", 7, 6),
    CodecParams.fixed(b"abc", 2, 5),
    CodecParams.fixed(b"abcd", 1, 3),
]


@pytest.mark.parametrize(
    "params",
    BIJECTION_SAMPLE,
    ids=lambda p: f"{p.mode}-sigma{p.sigma}-n{p.n}-{f'r{p.r}' if p.r else f'L{p.fixed_len}'}",
)
def test_the_container_code_is_a_bijection(monkeypatch, params):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "tools"))
    bijection_check = importlib.import_module("bijection_check")
    assert params in bijection_check.headers()
    assert max(map(len, bijection_check.encodings(params))) <= 2
    # exits unless exactly sigma**n payloads of 0-2 bytes decode, each to
    # the input that encodes to it, and every other one is a corrupt container
    assert bijection_check.check(params) == params.sigma**params.n
