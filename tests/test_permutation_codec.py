import random
import time
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumcode import permutation_codec
from enumcode.combinatorics import multinomial
from enumcode.permutation_codec import (
    _CHUNK,
    _RANK_WALK_BITS,
    _WALK_BITS,
    _WINDOW_Q_BITS,
    _float_stretch,
    _rank_chunks,
    _rank_walk,
    _stretch,
    _unrank_chunks,
    _unrank_walk,
    enumerate_perms,
    frequency_vector,
    perm_index_to_sequence,
    perm_rank_and_count,
    sequence_to_perm_index,
)

from conftest import PERMS_2110
from oracles import (
    boundary_aligned,
    reference_rank_chunks,
    reference_rank_incremental,
    reference_rank_split,
    reference_rank_walk,
    reference_unrank_incremental,
    symbol_ids,
)


def brute_force_perms(counts, alphabet):
    """Independent oracle: expand, permute, dedup, sort."""
    ids = [j for j, c in enumerate(counts) for _ in range(c)]
    return ["".join(alphabet[j] for j in p) for p in sorted(set(permutations(ids)))]


class TestRanking:
    def test_worked_example(self):
        assert sequence_to_perm_index("agca", "acgt") == 5

    def test_reference_table(self):
        for rank, seq in enumerate(PERMS_2110):
            assert sequence_to_perm_index(seq, "acgt") == rank

    def test_first_and_last(self):
        assert sequence_to_perm_index("aacg", "acgt") == 0
        assert sequence_to_perm_index("gcaa", "acgt") == 11

    def test_longer_blocks(self):
        # cross-checked against brute-force enumeration below
        assert sequence_to_perm_index("ttgaacg", "acgt") == 618
        assert sequence_to_perm_index("gaagccgt", "acgt") == 852
        assert sequence_to_perm_index("atatc", "acgt") == 7
        assert sequence_to_perm_index("caa", "acgt") == 2

    def test_empty_sequence(self):
        assert sequence_to_perm_index("", "ab") == 0

    def test_unknown_symbol_names_offset(self):
        with pytest.raises(ValueError, match="offset 2"):
            sequence_to_perm_index("acxa", "acgt")

    def test_duplicate_alphabet_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            sequence_to_perm_index("aa", "aca")

    def test_byte_sequences_are_checked_like_others(self):
        # bytes over a byte alphabet take the translate path
        with pytest.raises(ValueError, match="symbol 120 at offset 2"):
            sequence_to_perm_index(b"acxa", b"acgt")
        with pytest.raises(ValueError, match="distinct"):
            sequence_to_perm_index(b"aa", b"aca")
        with pytest.raises(ValueError, match="empty"):
            sequence_to_perm_index(b"", b"")

    def test_given_counts_and_arrangements_are_not_recomputed(self):
        # the rank yields the arrangement count, so it never builds a multinomial
        with mock.patch.object(permutation_codec, "multinomial", side_effect=AssertionError):
            for walk_bits in (1, 10**9):
                with mock.patch.object(permutation_codec, "_RANK_WALK_BITS", walk_bits):
                    assert perm_rank_and_count(b"gcaa", b"acgt") == (11, 12)
                    assert perm_rank_and_count("gcaa", "acgt") == (11, 12)
            assert perm_index_to_sequence(11, (2, 1, 1, 0), b"acgt", 12) == b"gcaa"
            with pytest.raises(ValueError, match="out of range"):
                perm_index_to_sequence(12, (2, 1, 1, 0), b"acgt", 12)

    def test_counts_only_when_the_block_may_be_wide(self, monkeypatch):
        counted = []

        def rank_chunks(ids, counts):
            counted.append(list(counts))
            return _rank_chunks(ids, counts)

        monkeypatch.setattr(permutation_codec, "_rank_chunks", rank_chunks)
        # 64 symbols over 256 kinds: at most 64 * 8 bits of count, so the
        # walk ranks them without counting; one symbol more and each kind
        # is counted once, for the chunks
        alphabet = bytes(range(256))
        for length, wide in ((64, False), (65, True)):
            block = bytes(random.Random(length).choices(alphabet, k=length))
            ids, counts = symbol_ids(block, alphabet)
            counted.clear()
            assert sequence_to_perm_index(block, alphabet) == reference_rank_incremental(
                ids, list(counts)
            )
            assert counted == ([counts] if wide else [])


class TestUnranking:
    def test_reference_rows(self):
        assert perm_index_to_sequence(11, (2, 1, 1, 0), "acgt") == "gcaa"
        assert perm_index_to_sequence(0, (3, 0, 0, 0), "acgt") == "aaa"
        assert perm_index_to_sequence(11, (2, 0, 1, 1), "acgt") == "tgaa"

    def test_empty(self):
        assert perm_index_to_sequence(0, (0, 0), "ab") == ""

    def test_bytes_alphabet_returns_bytes(self):
        assert perm_index_to_sequence(11, (2, 1, 1, 0), b"acgt") == b"gcaa"
        assert sequence_to_perm_index(b"gcaa", b"acgt") == 11

    def test_out_of_range_rank_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            perm_index_to_sequence(12, (2, 1, 1, 0), "acgt")
        with pytest.raises(ValueError, match="out of range"):
            perm_index_to_sequence(-1, (2, 1, 1, 0), "acgt")

    def test_counts_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="same length"):
            perm_index_to_sequence(0, (1, 1), "abc")


class TestEnumeration:
    def test_reference_table(self):
        assert enumerate_perms((2, 1, 1, 0), "acgt") == PERMS_2110

    def test_tiny_cases(self):
        assert enumerate_perms((1, 1), "ab") == ["ab", "ba"]
        rows = enumerate_perms((2, 2), "ab")
        assert len(rows) == 6
        assert rows[0] == "aabb"
        assert rows[-1] == "bbaa"
        assert rows == brute_force_perms((2, 2), "ab")

    def test_guard(self):
        with pytest.raises(ValueError, match="limit"):
            enumerate_perms((6, 6, 6), "abc", limit=100)
        with pytest.raises(ValueError, match="non-negative"):
            enumerate_perms((1, -1), "ab")

    @pytest.mark.parametrize(
        "counts,alphabet",
        [
            ((2, 1, 1, 0), "acgt"),
            ((1, 2, 2), "abc"),
            ((3, 1), "ab"),
            ((0, 4), "ab"),
            ((1, 1, 1, 1), "wxyz"),
        ],
    )
    def test_matches_brute_force_in_order(self, counts, alphabet):
        rows = enumerate_perms(counts, alphabet)
        assert rows == brute_force_perms(counts, alphabet)
        for rank, seq in enumerate(rows):
            assert sequence_to_perm_index(seq, alphabet) == rank
            assert perm_index_to_sequence(rank, counts, alphabet) == seq


class TestFrequencyVector:
    def test_counts(self):
        assert frequency_vector("ttgaacg", "acgt") == (2, 1, 2, 2)
        assert frequency_vector(b"caa", b"acgt") == (2, 1, 0, 0)

    def test_offset_in_error(self):
        with pytest.raises(ValueError, match="offset 3"):
            frequency_vector("accx", "ac")


LATIN1 = "".join(map(chr, range(256)))


class TestSymbolTypes:
    def test_lists_and_tuples_rejected(self):
        calls = {
            "sequence": [
                lambda seq: sequence_to_perm_index(seq, "ab"),
                lambda seq: perm_rank_and_count(seq, b"ab"),
                lambda seq: frequency_vector(seq, "ab"),
            ],
            "alphabet": [
                lambda alphabet: sequence_to_perm_index("ab", alphabet),
                lambda alphabet: perm_index_to_sequence(0, (1, 1), alphabet),
                lambda alphabet: enumerate_perms((1, 1), alphabet),
                lambda alphabet: frequency_vector(b"ab", alphabet),
            ],
        }
        for what, funcs in calls.items():
            for func in funcs:
                for symbols in (["a", "b"], ("a", "b"), [97, 98]):
                    with pytest.raises(TypeError, match=f"{what} must be bytes or str"):
                        func(symbols)

    def test_str_alphabet_entry_above_latin1_rejected(self):
        for call in (
            lambda: sequence_to_perm_index("a", "a\u0100"),
            lambda: perm_index_to_sequence(0, (1, 1), "a\u03b1"),
            lambda: enumerate_perms((1, 1), "\u03b1\u03b2"),
        ):
            with pytest.raises(ValueError, match="alphabet entry .* is above U\\+00FF"):
                call()

    def test_str_symbol_above_latin1_is_not_in_the_alphabet(self):
        # not even in an alphabet of all 256 Latin-1 code points
        with pytest.raises(ValueError, match="symbol '\u0100' at offset 2 is not in the alphabet"):
            sequence_to_perm_index("ab\u0100a", LATIN1)
        with pytest.raises(ValueError, match="symbol '\u03b1' at offset 1 is not in the alphabet"):
            frequency_vector("a\u03b1x", "ab")
        # an earlier symbol outside the alphabet is named first
        with pytest.raises(ValueError, match="symbol 'x' at offset 1 is not in the alphabet"):
            perm_rank_and_count("ax\u03b1", "ab")


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.integers(0, 255), min_size=1, max_size=256, unique=True).map(
        lambda points: "".join(map(chr, points))
    ),
    st.data(),
)
def test_str_ranks_as_its_latin1_bytes(alphabet, data):
    seq = "".join(data.draw(st.lists(st.sampled_from(alphabet), max_size=300)))
    raw, table = seq.encode("latin-1"), alphabet.encode("latin-1")
    counts = frequency_vector(seq, alphabet)
    assert counts == frequency_vector(raw, table) == tuple(symbol_ids(seq, alphabet)[1])
    rank, arrangements = perm_rank_and_count(seq, alphabet)
    assert (rank, arrangements) == perm_rank_and_count(raw, table)
    assert rank == reference_rank_incremental(*symbol_ids(seq, alphabet))
    assert perm_index_to_sequence(rank, counts, alphabet) == seq
    assert perm_index_to_sequence(rank, counts, table) == raw


sequences = st.integers(2, 8).flatmap(
    lambda sigma: st.text(alphabet="abcdefgh"[:sigma], max_size=64).map(
        lambda s: (s, "abcdefgh"[:sigma])
    )
)


@given(sequences)
def test_round_trip(case):
    seq, alphabet = case
    counts = frequency_vector(seq, alphabet)
    rank = sequence_to_perm_index(seq, alphabet)
    assert 0 <= rank < multinomial(counts)
    if seq:
        assert perm_index_to_sequence(rank, counts, alphabet) == seq


@given(st.lists(st.integers(0, 3), min_size=1, max_size=4), st.data())
def test_round_trip_from_rank(counts, data):
    alphabet = "abcd"[: len(counts)]
    rank = data.draw(st.integers(0, multinomial(counts) - 1))
    seq = perm_index_to_sequence(rank, counts, alphabet)
    assert frequency_vector(seq, alphabet) == tuple(counts)
    assert sequence_to_perm_index(seq, alphabet) == rank


ALPHABETS = {
    "str": "abcdefgh",
    "bytes": b"acgtnxyz",
    # str symbols that are Latin-1 bytes above 127
    "latin1": "\xf8\xf9\xfa\xfb\xfc\xfd\xfe\xff",
}


def spell(ids, alphabet):
    """The symbols at alphabet positions ``ids``, as a str or bytes like ``alphabet``."""
    symbols = [alphabet[j] for j in ids]
    return "".join(symbols) if isinstance(alphabet, str) else bytes(symbols)


def random_sequence(rng, alphabet, length):
    """``length`` symbols drawn with skewed weights, some of them zero."""
    weights = [rng.choice([0, 1, 3, 10]) for _ in alphabet]
    weights[rng.randrange(len(alphabet))] += 1
    return spell(rng.choices(range(len(alphabet)), weights=weights, k=length), alphabet)


@settings(deadline=None)
@given(
    st.sampled_from(["str", "bytes", "latin1", "bytes256"]),
    st.integers(1, 8),
    st.integers(0, 3000),
    st.integers(0, 2**32),
)
def test_split_rank_matches_incremental_oracle(kind, sigma, length, seed):
    alphabet = bytes(range(256)) if kind == "bytes256" else ALPHABETS[kind][:sigma]
    seq = random_sequence(random.Random(seed), alphabet, length)
    ids, counts = symbol_ids(seq, alphabet)
    expected = reference_rank_incremental(ids, list(counts))
    assert reference_rank_split(ids, list(counts)) == expected
    assert sequence_to_perm_index(seq, alphabet) == expected


@pytest.mark.parametrize("length", [511, 512, 4096])
@pytest.mark.parametrize("kind", ["str", "bytes", "latin1"])
def test_round_trip_around_split_threshold(kind, length):
    alphabet = ALPHABETS[kind][:4]
    seq = random_sequence(random.Random(length), alphabet, length)
    counts = frequency_vector(seq, alphabet)
    rank = sequence_to_perm_index(seq, alphabet)
    assert 0 <= rank < multinomial(counts)
    assert perm_index_to_sequence(rank, counts, alphabet) == seq


# Each rank path on its own and the hand-over between them: the walk bound at
# 1 bit, as measured, and beyond any count.
RANK_BOUNDS = [{"_RANK_WALK_BITS": walk_bits} for walk_bits in (1, _RANK_WALK_BITS, 10**9)]
# Block lengths that keep the oracle walk fast: counts of up to ~2000 bits.
ORACLE_LENGTHS = {2: 2000, 4: 1000, 20: 450, 256: 250}


def skewed_block(rng, sigma, length, shape):
    """``length`` symbols over ``sigma`` byte kinds: uniform, or one kind K times
    likelier for a ``shape`` of "K:1"."""
    weights = [1] * sigma
    if shape != "uniform":
        weights[rng.randrange(sigma)] = int(shape.split(":")[0])
    return bytes(rng.choices(range(sigma), weights=weights, k=length))


def ranks_on_every_path(seq, alphabet):
    """The rank under each of ``RANK_BOUNDS``."""
    ranks = set()
    for bounds in RANK_BOUNDS:
        with mock.patch.dict(vars(permutation_codec), bounds):
            ranks.add(sequence_to_perm_index(seq, alphabet))
    return ranks


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([2, 4, 20, 256]),
    st.sampled_from(["uniform", "100:1", "1000:1"]),
    st.floats(0, 1),
    st.integers(0, 2**32),
)
def test_rank_paths_match_incremental_oracle(sigma, shape, fraction, seed):
    alphabet = bytes(range(sigma))
    length = int(fraction * ORACLE_LENGTHS[sigma])
    seq = skewed_block(random.Random(seed), sigma, length, shape)
    expected = reference_rank_incremental(*symbol_ids(seq, alphabet))
    assert ranks_on_every_path(seq, alphabet) == {expected}
    assert ranks_on_every_path(seq.decode("latin-1"), alphabet.decode("latin-1")) == {expected}


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([1, 2, 4, 20, 256]),
    st.sampled_from(["uniform", "100:1", "1000:1"]),
    st.integers(0, 3000),
    st.integers(0, 2**32),
)
def test_rank_and_count_match_the_oracles(sigma, shape, length, seed):
    alphabet = bytes(range(sigma))
    seq = skewed_block(random.Random(seed), sigma, length, shape)
    ids, counts = symbol_ids(seq, alphabet)
    expected = (reference_rank_incremental(ids, list(counts)), multinomial(counts))
    # a 1-bit bound sends all but the shortest blocks to the chunks, 10**9 all to the walk
    for walk_bits in (1, 10**9):
        with mock.patch.object(permutation_codec, "_RANK_WALK_BITS", walk_bits):
            assert perm_rank_and_count(seq, alphabet) == expected
    assert _rank_walk(ids, sigma) == expected
    assert _rank_chunks(ids, list(counts)) == expected
    # the rank before it ran from the right, from the multinomial
    assert reference_rank_chunks(ids, list(counts), expected[1]) == expected[0]


def crossing_length(seq, alphabet, past_bound):
    """A prefix length of ``seq`` whose count is past a bound one symbol
    shorter is not; ``past_bound(width, length)`` tells, for the count's width."""

    def past(length):
        width = multinomial(frequency_vector(seq[:length], alphabet)).bit_length()
        return past_bound(width, length)

    low, high = 1, len(seq)
    assert past(high) and not past(low)
    while high - low > 1:
        mid = (low + high) // 2
        if past(mid):
            high = mid
        else:
            low = mid
    return high


@pytest.mark.parametrize("sigma", [2, 4, 20, 256])
@pytest.mark.parametrize("shape", ["uniform", "100:1"])
def test_rank_on_both_sides_of_the_walk_bound(sigma, shape):
    alphabet = bytes(range(sigma))
    seq = skewed_block(random.Random(sigma), sigma, 20000, shape)
    crossing = crossing_length(seq, alphabet, lambda width, _: width > _RANK_WALK_BITS)
    for length in (crossing - 1, crossing, crossing + _CHUNK, crossing + 2 * _CHUNK + 1):
        block = seq[:length]
        expected = reference_rank_incremental(*symbol_ids(block, alphabet))
        assert ranks_on_every_path(block, alphabet) == {expected}, length


@pytest.mark.parametrize("sigma", [20, 256])
def test_rank_on_both_sides_of_the_tree_bound(sigma):
    # Too long for the oracle walk: the chunks and the tree oracle check each
    # other where the rank once handed over to a product tree, at a count
    # width whose square passed 2**18 times the block's length.
    alphabet = bytes(range(sigma))
    seq = bytes(random.Random(7).choices(alphabet, k=20000))
    crossing = crossing_length(seq, alphabet, lambda width, length: width * width > 2**18 * length)
    for length in (crossing - 1, crossing):
        block = seq[:length]
        ids, counts = symbol_ids(block, alphabet)
        rank = sequence_to_perm_index(block, alphabet)
        assert rank == reference_rank_split(ids, list(counts)), length
        assert perm_index_to_sequence(rank, counts, alphabet) == block, length


def test_rank_of_a_64k_dna_block_matches_the_tree():
    # the tree is the oracle where the oracle walk would take seconds
    block = random.Random(65536).choices(b"acgt", k=65536)
    ids, counts = symbol_ids(block, b"acgt")
    assert sequence_to_perm_index(bytes(block), b"acgt") == reference_rank_split(ids, counts)


def test_unrank_emits_final_run():
    # once only 'b's remain the rest of the sequence is one run
    assert perm_index_to_sequence(0, (3, 4), "ab") == "aaabbbb"
    assert perm_index_to_sequence(multinomial((3, 4)) - 1, (3, 4), "ab") == "bbbbaaa"
    assert perm_index_to_sequence(0, (0, 0, 5), b"xyz") == b"zzzzz"
    assert perm_index_to_sequence(0, (2**20,), b"a") == b"a" * 2**20


def ranks_to_try(counts, rng):
    arrangements = multinomial(counts)
    return {0, min(1, arrangements - 1), arrangements - 1, arrangements // 2, rng.randrange(arrangements)}


def check_unrank_chunks(rank, counts, expected=None):
    """The chunked unrank of ``rank``, handing over to the walk at its own
    threshold and at the narrowest counts, checked against ``expected`` or
    else the oracle walk; fails if any refresh rejected a decoded chunk."""
    refresh = permutation_codec._refresh
    rejected = 0

    def counting_refresh(*args):
        nonlocal rejected
        state = refresh(*args)
        rejected += state is None
        return state

    arrangements = multinomial(counts)
    if expected is None:
        expected = reference_unrank_incremental(rank, arrangements, list(counts))
    for walk_bits in (_WALK_BITS, 1):
        with mock.patch.object(permutation_codec, "_refresh", counting_refresh):
            with mock.patch.object(permutation_codec, "_WALK_BITS", walk_bits):
                ids = _unrank_chunks(rank, arrangements, list(counts))
        assert rejected == 0, f"{rejected} decoded chunks rejected, walk from {walk_bits} bits"
        assert ids == expected, walk_bits
    return ids


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from(["str", "bytes", "latin1", "bytes256"]),
    st.integers(1, 8),
    st.integers(0, 3000),
    st.integers(0, 2**32),
    st.booleans(),
)
def test_split_unrank_matches_walk_and_inverts_rank(kind, sigma, length, seed, aligned):
    alphabet = bytes(range(256)) if kind == "bytes256" else ALPHABETS[kind][:sigma]
    rng = random.Random(seed)
    seq = random_sequence(rng, alphabet, length)
    if aligned:
        ids, counts = symbol_ids(seq, alphabet)
        seq = spell(rng.choice(list(boundary_aligned(ids).values())), alphabet)
    ids, counts = symbol_ids(seq, alphabet)
    for rank in ranks_to_try(counts, rng):
        got = check_unrank_chunks(rank, counts)
        assert sequence_to_perm_index(spell(got, alphabet), alphabet) == rank
    assert check_unrank_chunks(sequence_to_perm_index(seq, alphabet), counts) == ids


@pytest.mark.parametrize("length", [4096, 8192])
def test_split_unrank_long_blocks(length):
    rng = random.Random(length)
    seq = "".join(rng.choices("acgt", k=length))
    for name, block in {"random": seq, **boundary_aligned(seq)}.items():
        ids, counts = symbol_ids(block, "acgt")
        for rank in ranks_to_try(counts, rng):
            check_unrank_chunks(rank, counts)
        assert check_unrank_chunks(reference_rank_split(ids, list(counts)), counts) == ids, name


@pytest.mark.parametrize(
    "sigma, shape, length", [(2, "1000:1", 32768), (20, "uniform", 1500), (256, "uniform", 3000)]
)
def test_wide_blocks_unrank_through_the_windows(sigma, shape, length):
    # Each block down to the narrowest counts: the 2-kind block carries about
    # 0.01 bits a symbol, so its windows end on their Q, and the 256-kind
    # block about 7.6, so its float stretches hold a few symbols each.
    alphabet = bytes(range(sigma))
    seq = skewed_block(random.Random(length), sigma, length, shape)
    ids, counts = symbol_ids(seq, alphabet)
    rank = sequence_to_perm_index(seq, alphabet)
    assert check_unrank_chunks(rank, counts, ids) == ids


def moved_blocks():
    """4096 DNA symbols, their five boundary-aligned shapes and 600 symbols
    over 256 kinds, by name."""
    rng = random.Random(5)
    dna = rng.choices(b"acgt", k=4096)
    blocks = {"dna": bytes(dna), "256 kinds": bytes(rng.choices(range(256), k=600))}
    return blocks | {name: bytes(block) for name, block in boundary_aligned(dna).items()}


@pytest.mark.parametrize("name", list(moved_blocks()))
def test_window_states_unrank_down_to_the_narrowest_counts(name):
    # each block through the windows, handing over to the walk at its own
    # threshold and at one bit, with no refresh rejected
    block = moved_blocks()[name]
    alphabet = bytes(sorted(set(block)))
    ids, counts = symbol_ids(block, alphabet)
    assert check_unrank_chunks(reference_rank_split(ids, list(counts)), counts, ids) == ids


@pytest.mark.parametrize(
    "sigma, shape, length", [(4, "uniform", 40), (4, "3:1", 3000), (2, "1000:1", 32768)]
)
def test_a_limited_unrank_stops_within_a_window_of_the_limit(sigma, shape, length):
    # decode unranks only the symbols a padded final block still owes: the
    # walk stops at the limit, its closing run too, and a window at most one
    # window's symbols past it
    seq = skewed_block(random.Random(length), sigma, length, shape)
    ids, counts = symbol_ids(seq, bytes(range(sigma)))
    rank, arrangements = perm_rank_and_count(seq, bytes(range(sigma)))
    for limit in (0, 1, length // 3, length - 1, length, length + 5):
        got = _unrank_chunks(rank, arrangements, list(counts), limit)
        assert got == ids[: len(got)], limit
        assert min(limit, length) <= len(got) <= limit + _WINDOW_Q_BITS + _CHUNK, limit
        if arrangements.bit_length() <= _WALK_BITS:
            assert len(got) == min(limit, length)
        walked, left, count = _unrank_walk(rank, arrangements, list(counts), limit)
        assert walked == ids[:limit]
        # the rank and count the walk hands back are those of the rest
        assert (left, count) == _rank_walk(bytes(ids[limit:]), sigma)


@pytest.mark.parametrize("name", list(boundary_aligned(b"acgt")))
def test_boundary_aligned_blocks_unrank_fast(name):
    # A decoder that guessed near symbol boundaries and threw its work away
    # took over 4 s on sorted runs of 512 symbols; the walk takes about 0.08 s.
    seq = bytes(boundary_aligned(random.Random(3).choices(b"acgt", k=8192))[name])
    counts = frequency_vector(seq, b"acgt")
    # wide enough for the chunked unrank
    assert multinomial(counts).bit_length() > _WALK_BITS
    rank = sequence_to_perm_index(seq, b"acgt")
    start = time.perf_counter()
    assert perm_index_to_sequence(rank, counts, b"acgt") == seq
    assert time.perf_counter() - start < 0.5


@st.composite
def leaf_windows(draw):
    """(num, den, err, counts, limit) with |num/den - x| <= err/den for an x in [0, 1)."""
    sigma = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 20, 256]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    counts = [rng.choice([0, 0, 1, 2, 7, 60, 1000]) for _ in range(sigma)]
    den = draw(st.integers(1, 2 ** draw(st.integers(1, 320))))
    err = draw(st.integers(0, 2**20))
    num = draw(st.integers(-err, den + err - 1)) if err else draw(st.integers(0, den - 1))
    if draw(st.booleans()):
        # x at any distance from the lower or upper end of a random prefix's
        # interval, T/Q or (T + P)/Q, where some symbol sits on a boundary
        p = q = 1
        t = 0
        remaining, rest = sum(counts), list(counts)
        for _ in range(rng.randrange(min(remaining, 2 * _CHUNK) + 1)):
            k = rng.choice([j for j, c in enumerate(rest) if c])
            t = t * remaining + p * sum(rest[:k])
            p *= rest[k]
            q *= remaining
            rest[k] -= 1
            remaining -= 1
        end = t + p * draw(st.integers(0, 1))
        offset = rng.getrandbits(rng.randrange(den.bit_length() + 1))
        num = end * den // q + rng.choice((-offset, offset))
        num = min(max(num, -err), den + err - 1 if err else den - 1)
    return num, den, err, counts, draw(st.integers(1, _CHUNK))


@settings(deadline=None, max_examples=300)
@given(leaf_windows())
def test_float_stretch_decodes_only_what_every_x_in_the_window_does(window):
    num, den, err, counts, _ = window
    remaining = sum(counts)
    got, got_counts = [], list(counts)
    p, q, t = _float_stretch(num, den, err, got_counts, remaining, got)
    assert len(got) <= _CHUNK
    # the triple is the one _stretch builds for the symbols decoded
    expected_counts = list(counts)
    assert (p, q, t) == _stretch(got, expected_counts, remaining)
    assert got_counts == expected_counts
    # Every x the window allows, in [num - err, num + err] / den and in
    # [0, 1), lies in the prefix's interval [T / Q, (T + P) / Q), so the
    # exact walk from any of them decodes these symbols first.
    low, high = max(num - err, 0), min(num + err, den)
    assert low * q >= t * den
    assert high * q < (t + p) * den or (high == den and t + p == q)


@st.composite
def walk_cases(draw):
    """Symbol ids over 1-256 kinds: uniform, heavily skewed, or a single kind."""
    sigma = draw(st.integers(1, 256))
    length = draw(st.integers(0, 700))
    shape = draw(st.sampled_from(["uniform", "skewed", "one kind"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if shape == "uniform":
        weights = [1] * sigma
    elif shape == "skewed":
        weights = [1] * sigma
        weights[rng.randrange(sigma)] = 1000
    else:
        weights = [0] * sigma
        weights[rng.randrange(sigma)] = 1
    return rng.choices(range(sigma), weights=weights, k=length), sigma


@settings(deadline=None, max_examples=60)
@given(walk_cases(), st.data())
def test_walks_match_the_oracle_walks(case, data):
    ids, sigma = case
    counts = [0] * sigma
    for k in ids:
        counts[k] += 1
    arrangements = multinomial(counts)
    rank = reference_rank_incremental(ids, list(counts))
    # encode hands the walk the block's ids as bytes
    assert _rank_walk(bytes(ids), sigma) == (rank, arrangements)
    assert reference_rank_walk(bytes(ids), list(counts), arrangements) == rank
    assert _unrank_walk(rank, arrangements, list(counts))[0] == ids
    other = data.draw(st.integers(0, arrangements - 1))
    expected = reference_unrank_incremental(other, arrangements, list(counts))
    assert _unrank_walk(other, arrangements, list(counts))[0] == expected
