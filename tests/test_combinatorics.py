import math
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enumcode.combinatorics import ceil_log2, k_count, multinomial

from oracles import binomial, k_count_sum_form


class TestBinomial:
    def test_known_values(self):
        assert binomial(5, 3) == 10
        assert binomial(0, 0) == 1
        assert binomial(7, 0) == 1

    def test_against_enumeration(self):
        assert binomial(7, 2) == len(list(combinations(range(7), 2)))

    def test_out_of_range_k(self):
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(1, 300), st.integers(1, 300))
    def test_pascal_recurrence(self, n, k):
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestMultinomial:
    def test_known_values(self):
        assert multinomial((3, 2)) == 10
        assert multinomial((4, 0, 0, 0)) == 1
        assert multinomial(()) == 1

    def test_against_factorials(self):
        counts = (2, 1, 2, 2)
        expected = math.factorial(7) // (
            math.factorial(2) * math.factorial(1) * math.factorial(2) * math.factorial(2)
        )
        assert expected == 630
        assert multinomial(counts) == expected

    def test_negative_rejected(self):
        for counts in [(1, -1), (-1,), (0, -1), (-2, 0, 3), (0, 0, 0, -1)]:
            with pytest.raises(ValueError, match="non-negative"):
                multinomial(counts)

    @given(st.lists(st.sampled_from([0, 0, 0, 1, 2, 5, 40]), max_size=300))
    def test_zero_counts_match_factorials(self, counts):
        # zero counts are skipped; the integer is the factorial quotient
        expected = math.factorial(sum(counts))
        for c in counts:
            expected //= math.factorial(c)
        assert multinomial(counts) == expected
        assert multinomial(iter(counts)) == expected

    @given(st.lists(st.integers(0, 12), min_size=1, max_size=6), st.randoms())
    def test_invariant_under_count_permutation(self, counts, rng):
        shuffled = counts[:]
        rng.shuffle(shuffled)
        assert multinomial(counts) == multinomial(shuffled)


class TestKCount:
    def test_known_values(self):
        assert k_count(4, 4) == 35
        assert k_count(3, 5) == 21
        assert k_count(3, 3) == 10
        assert k_count(2, 2) == 3

    @pytest.mark.parametrize("s", [0, 1, 5, 64])
    def test_one_dimension(self, s):
        assert k_count(1, s) == 1

    def test_zero_sum(self):
        for sigma in range(1, 9):
            assert k_count(sigma, 0) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            k_count(0, 3)
        with pytest.raises(ValueError):
            k_count(2, -1)

    def test_matches_sum_form_everywhere(self):
        for sigma in range(1, 9):
            for n in range(65):
                assert k_count(sigma, n) == k_count_sum_form(sigma, n)

    def test_matches_brute_force_composition_count(self):
        for sigma in range(1, 5):
            by_sum = Counter(sum(t) for t in product(range(11), repeat=sigma))
            for n in range(11):
                assert k_count(sigma, n) == by_sum[n]

    @given(st.integers(2, 8), st.integers(0, 40))
    def test_dimension_recurrence(self, sigma, n):
        assert k_count(sigma, n) == sum(
            k_count(sigma - 1, n - j) for j in range(n + 1)
        )


class TestSumForm:
    def test_known_values(self):
        assert k_count_sum_form(4, 4) == 35
        assert k_count_sum_form(3, 3) == 10
        assert k_count_sum_form(2, 2) == 3

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            k_count_sum_form(0, 1)


class TestCeilLog2:
    @pytest.mark.parametrize(
        "count,bits",
        [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (21, 5), (630, 10), (1024, 10), (1025, 11)],
    )
    def test_values(self, count, bits):
        assert ceil_log2(count) == bits

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ceil_log2(0)

    @given(st.integers(1, 10**9))
    def test_width_bounds_count(self, count):
        width = ceil_log2(count)
        assert count <= 2**width
        if width:
            assert count > 2 ** (width - 1)
