from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumcode.combinatorics import k_count
from enumcode.composition_codec import enumerate_all, index_to_vector, vector_to_index

from conftest import COMPOSITIONS_4_4


def brute_force_vectors(inner_sum, sigma):
    """Independent oracle: filter the full product grid, sort lexicographically."""
    return sorted(
        t for t in product(range(inner_sum + 1), repeat=sigma) if sum(t) == inner_sum
    )


class TestRanking:
    def test_worked_example_with_trace(self):
        trace = []
        assert vector_to_index((2, 1, 1, 0), trace=trace) == 29
        assert trace == [15, 10, 3, 1]

    def test_extreme_ranks(self):
        assert vector_to_index((0, 0, 0, 4)) == 0
        assert vector_to_index((4, 0, 0, 0)) == 34

    def test_trace_length_equals_free_dimension_work(self):
        # the ranking loop does one count lookup per unit of the free dims
        vec = (3, 0, 2, 5, 1)
        trace = []
        vector_to_index(vec, trace=trace)
        assert len(trace) == sum(vec[:-1])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            vector_to_index((2, -1, 3))

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            vector_to_index(())


class TestUnranking:
    def test_table_rows(self):
        assert index_to_vector(29, 4, 4) == (2, 1, 1, 0)
        assert index_to_vector(20, 4, 4) == (1, 1, 1, 1)

    @pytest.mark.parametrize("sigma", [1, 2, 5])
    def test_zero_sum(self, sigma):
        assert index_to_vector(0, 0, sigma) == (0,) * sigma

    def test_single_dimension(self):
        assert index_to_vector(0, 7, 1) == (7,)
        assert vector_to_index((7,)) == 0

    def test_out_of_range_rank_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            index_to_vector(35, 4, 4)
        with pytest.raises(ValueError, match="out of range"):
            index_to_vector(-1, 4, 4)


class TestEnumeration:
    def test_reproduces_reference_table(self):
        assert enumerate_all(4, 4) == COMPOSITIONS_4_4

    def test_reference_table_ranks_round_trip(self):
        for rank, vec in enumerate(COMPOSITIONS_4_4):
            assert vector_to_index(vec) == rank
            assert index_to_vector(rank, 4, 4) == vec

    def test_small_cases(self):
        assert enumerate_all(5, 1) == [(5,)]
        assert enumerate_all(2, 2) == brute_force_vectors(2, 2)
        assert brute_force_vectors(2, 2) == [(0, 2), (1, 1), (2, 0)]

    def test_guard(self):
        with pytest.raises(ValueError, match="limit"):
            enumerate_all(30, 6, limit=100)

    @pytest.mark.parametrize("sigma", range(1, 6))
    @pytest.mark.parametrize("inner_sum", range(0, 9))
    def test_order_law_and_completeness(self, sigma, inner_sum):
        rows = enumerate_all(inner_sum, sigma)
        assert rows == brute_force_vectors(inner_sum, sigma)
        assert len(rows) == k_count(sigma, inner_sum)
        assert len(set(rows)) == len(rows)
        assert all(sum(row) == inner_sum for row in rows)
        assert [vector_to_index(row) for row in rows] == list(range(len(rows)))


vectors = st.integers(1, 6).flatmap(
    lambda sigma: st.lists(st.integers(0, 8), min_size=sigma, max_size=sigma)
)


@given(vectors)
def test_round_trip_from_vector(vec):
    vec = tuple(vec)
    rank = vector_to_index(vec)
    assert 0 <= rank < k_count(len(vec), sum(vec))
    assert index_to_vector(rank, sum(vec), len(vec)) == vec


@given(st.integers(1, 5), st.integers(0, 10), st.data())
def test_round_trip_from_rank(sigma, inner_sum, data):
    rank = data.draw(st.integers(0, k_count(sigma, inner_sum) - 1))
    vec = index_to_vector(rank, inner_sum, sigma)
    assert sum(vec) == inner_sum
    assert vector_to_index(vec) == rank


@settings(deadline=None)
@given(st.integers(1, 8), st.integers(0, 2000), st.data())
def test_closed_form_matches_traced_walk(sigma, inner_sum, data):
    rank = data.draw(st.integers(0, k_count(sigma, inner_sum) - 1))
    vec = index_to_vector(rank, inner_sum, sigma)
    assert sum(vec) == inner_sum
    trace = []
    assert vector_to_index(vec, trace=trace) == rank
    assert sum(trace) == rank
    assert vector_to_index(vec) == rank


@pytest.mark.parametrize("sigma", range(1, 7))
@pytest.mark.parametrize("inner_sum", [0, 1, 5, 9])
def test_closed_form_matches_enumeration(sigma, inner_sum):
    for rank, vec in enumerate(enumerate_all(inner_sum, sigma)):
        assert vector_to_index(vec) == rank
        assert vector_to_index(vec, trace=[]) == rank
        assert index_to_vector(rank, inner_sum, sigma) == vec


@given(st.integers(1, 8), st.integers(0, 2**20), st.data())
def test_round_trip_up_to_a_million_units(sigma, inner_sum, data):
    # the last free dimension is read off in closed form, the others searched
    count = k_count(sigma, inner_sum)
    rank = data.draw(st.sampled_from([0, count - 1]) | st.integers(0, count - 1))
    vec = index_to_vector(rank, inner_sum, sigma)
    assert len(vec) == sigma and sum(vec) == inner_sum and min(vec) >= 0
    assert vector_to_index(vec) == rank
    assert index_to_vector(vector_to_index(vec[::-1]), inner_sum, sigma) == vec[::-1]
