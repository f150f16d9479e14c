import math
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumcode import combinatorics
from enumcode.combinatorics import _PRIME_MIN, ceil_log2, k_count, multinomial

from oracles import binomial, factorial_quotient, k_count_sum_form, reference_multinomial


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
        # the last vector would take the prime-factored path
        for counts in [(1, -1), (-1,), (0, -1), (-2, 0, 3), (0, 0, 0, -1), (6000, 4000, -1)]:
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


@st.composite
def wide_vectors(draw):
    """Count vectors of up to 40k symbols over 1 to 256 kinds, zero counts
    among them: a single non-zero count, symbols outside the largest count
    one either side of the crossover or of the 1/8 guard, or anywhere."""
    sigma = draw(st.integers(1, 256))
    shape = draw(st.sampled_from(["single", "crossover", "guard", "any"]))
    rng = draw(st.randoms(use_true_random=False))
    if shape == "single" or sigma == 1:
        n, rest = rng.randint(0, 40_000), 0
    elif shape == "crossover":
        n = rng.randint(2 * _PRIME_MIN, 8 * _PRIME_MIN)
        rest = _PRIME_MIN - rng.randint(0, 1)
    elif shape == "guard":
        n = rng.randint(8 * _PRIME_MIN - 8, 40_000)
        rest = (n + 7) // 8 - rng.randint(0, 1)  # 8 * rest >= n, or just below
    else:
        n = rng.randint(0, 40_000)
        rest = rng.randint(0, n)
    cuts = sorted(rng.randint(0, rest) for _ in range(sigma - 2))
    counts = [n - rest] + [b - a for a, b in zip([0, *cuts], [*cuts, rest])][: sigma - 1]
    rng.shuffle(counts)
    return counts


class TestPrimeFactoredMultinomial:
    @settings(max_examples=60, deadline=None)
    @given(wide_vectors())
    def test_matches_chained_comb_and_factorial_quotient(self, counts):
        expected = reference_multinomial(counts)
        assert factorial_quotient(counts) == expected
        assert multinomial(counts) == expected
        assert multinomial(iter(counts)) == expected

    @pytest.mark.parametrize(
        "counts,sieves",
        [
            ((6000, _PRIME_MIN - 1), False),
            ((6000, _PRIME_MIN), True),
            ((0, 6000, 0, _PRIME_MIN, 0), True),
            ((1,) * (_PRIME_MIN - 1), False),
            ((1,) * (_PRIME_MIN + 1), True),
            # 8 * (n - max) against n
            ((7 * 4000, 4000), True),
            ((7 * 4000 + 1, 4000), False),
            ((7 * 4000, 2000, 2000), True),
            ((7 * 4000 + 1, 2000, 2000), False),
        ],
    )
    def test_path_follows_the_counts(self, monkeypatch, counts, sieves):
        sieved = []
        primes = combinatorics._primes
        monkeypatch.setattr(combinatorics, "_primes", lambda n: sieved.append(n) or primes(n))
        assert multinomial(counts) == reference_multinomial(counts)
        assert multinomial(iter(counts)) == reference_multinomial(counts)
        assert sieved == ([sum(counts)] * 2 if sieves else [])

    @pytest.mark.parametrize("rest", [1, 20000])
    def test_near_unary_vector_never_sieves(self, monkeypatch, rest):
        def primes(n):
            raise AssertionError(f"sieved the primes up to {n}")

        monkeypatch.setattr(combinatorics, "_primes", primes)
        assert multinomial((2**28 - rest, rest)) == math.comb(2**28, rest)

    def test_primes(self):
        assert combinatorics._primes(2) == [2]
        assert combinatorics._primes(3) == [2, 3]
        assert combinatorics._primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        primes = combinatorics._primes(10_000)
        assert len(primes) == 1229
        assert all(all(p % d for d in range(2, math.isqrt(p) + 1)) for p in primes)


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
