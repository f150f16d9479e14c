import csv
import io
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumcode.analysis import (
    _LF_CHECKED,
    _LF_ERROR,
    enumeration_gain,
    finite_set_h0,
    log2_factorial,
    log2_int,
    naive_vs_enumerated,
    write_comparison_csv,
)
from enumcode.block_codec import _LF_BOUND
from enumcode.combinatorics import k_count, multinomial


def lgamma_log2_comb(n, k):
    """Independent float oracle for log2 C(n, k)."""
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(2)


class TestLog2Int:
    def test_small_values_exact(self):
        assert log2_int(1) == 0.0
        assert log2_int(1024) == 10.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            log2_int(0)

    @pytest.mark.parametrize("sigma,n", [(4, 1000), (20, 1000), (128, 10**6), (256, 10**6)])
    def test_matches_lgamma_within_relative_error(self, sigma, n):
        exact = log2_int(k_count(sigma, n))
        approx = lgamma_log2_comb(n + sigma - 1, sigma - 1)
        assert abs(exact - approx) / exact < 1e-6

    def test_beyond_float_range(self):
        big = math.factorial(10_000)  # ~ 2**118458, far past float overflow
        value = log2_int(big)
        assert value == pytest.approx(math.lgamma(10_001) / math.log(2), rel=1e-12)


class TestLog2Factorial:
    def test_within_its_error_of_every_factorial_to_2_16(self):
        # tools/lf_check.py runs the same check for every k up to _LF_CHECKED
        factorial = 1
        for k in range(2**16 + 1):
            factorial *= k or 1
            exact = log2_int(factorial)
            assert abs(log2_factorial(k) - exact) <= _LF_ERROR * exact, k

    @pytest.mark.parametrize("k", [round(_LF_CHECKED * 2 ** (-i / 4)) for i in range(4)])
    def test_within_its_error_up_to_the_checked_range(self, k):
        exact = log2_int(math.factorial(k))
        assert abs(log2_factorial(k) - exact) <= _LF_ERROR * exact


class TestFiniteSetH0:
    def test_two_fair_symbols(self):
        assert finite_set_h0((1, 1)) == pytest.approx(1.0)

    def test_ten_arrangements(self):
        assert finite_set_h0((3, 2)) == pytest.approx(math.log2(10))

    def test_corpus_counts_per_base(self):
        counts, n = (42896, 17309, 17556, 43263), 121024
        assert finite_set_h0(counts) / n == pytest.approx(1.866, abs=0.001)

    def test_rejects_empty_multiset(self):
        with pytest.raises(ValueError):
            finite_set_h0((0, 0))

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            finite_set_h0((3, -1))

    @given(st.lists(st.integers(0, 2**15), min_size=1, max_size=4).filter(sum))
    @settings(deadline=None, max_examples=60)
    @example([2**17 - 1, 1])
    @example([2**16, 2**16])
    @example([4096, 1])
    @example([2**17])
    def test_within_the_bound_of_the_exact_logarithm(self, counts):
        exact = log2_int(multinomial(counts))
        bound = _LF_BOUND * log2_factorial(sum(counts))
        assert abs(finite_set_h0(counts) - exact) <= bound

    @given(st.lists(st.integers(0, 200), min_size=2, max_size=8).filter(lambda c: sum(c) > 0))
    def test_bounded_by_uniform_entropy(self, counts):
        sigma = len(counts)
        assert 0.0 <= finite_set_h0(counts) / sum(counts) <= math.log2(sigma) + 1e-12


class TestNaiveVsEnumerated:
    def test_known_row(self):
        rows = naive_vs_enumerated(4, 4)
        n, naive, enum = rows[-1]
        assert n == 4
        assert naive == pytest.approx(3 * math.log2(5))
        assert enum == pytest.approx(math.log2(35))

    def test_binary_alphabet_has_no_gain(self):
        for n, naive, enum in naive_vs_enumerated(2, 50):
            assert enum == pytest.approx(naive)

    @pytest.mark.parametrize("sigma", [3, 4, 20])
    def test_enumeration_always_cheaper(self, sigma):
        for n, naive, enum in naive_vs_enumerated(sigma, 200):
            if n > 1:
                assert enum < naive

    def test_csv_output(self):
        buf = io.StringIO()
        write_comparison_csv(buf, 4, 5)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "n,naive_bits,enum_bits,gap"
        assert len(lines) == 6
        n, naive, enum, gap = lines[1].split(",")
        assert n == "1"
        assert float(gap) == pytest.approx(float(naive) - float(enum))

    @pytest.mark.parametrize("sigma", [2, 20])
    def test_csv_output_is_what_csv_writer_writes(self, sigma):
        # figure1's table, byte for byte as the csv module writes it
        for n_max in range(1, 51):
            expected = io.StringIO()
            writer = csv.writer(expected, lineterminator="\n")
            writer.writerow(["n", "naive_bits", "enum_bits", "gap"])
            for n, naive, enum in naive_vs_enumerated(sigma, n_max):
                writer.writerow([n, f"{naive:.6f}", f"{enum:.6f}", f"{naive - enum:.6f}"])
            buf = io.StringIO()
            write_comparison_csv(buf, sigma, n_max)
            assert buf.getvalue() == expected.getvalue(), n_max


class TestEnumerationGain:
    def test_large_n_values(self):
        # frozen from exact evaluation of both closed forms
        assert enumeration_gain(4, 10**6) == pytest.approx(2.584958, abs=1e-4)
        assert enumeration_gain(3, 10**6) == pytest.approx(0.999999, abs=1e-4)
        assert enumeration_gain(20, 1000) == pytest.approx(56.510506, abs=1e-4)

    def test_matches_lgamma_oracle(self):
        for sigma, n in [(4, 10**6), (20, 1000), (128, 10**5)]:
            oracle = (sigma - 1) * math.log2(n + 1) - lgamma_log2_comb(n + sigma - 1, sigma - 1)
            assert enumeration_gain(sigma, n) == pytest.approx(oracle, abs=1e-4)

    def test_grows_with_n(self):
        assert enumeration_gain(128, 10**6) > enumeration_gain(128, 10**2)

    @pytest.mark.parametrize("sigma", [4, 20, 128, 256])
    def test_converges_to_log2_factorial(self, sigma):
        limit = log2_int(math.factorial(sigma - 1))
        assert enumeration_gain(sigma, 10**7) == pytest.approx(limit, abs=0.01)

    @pytest.mark.parametrize("sigma", [4, 20, 128, 256])
    def test_stays_below_leading_term_estimate(self, sigma):
        # the gain never reaches (sigma-1)*log2(sigma-1); the dropped
        # Stirling terms make that estimate one-sided
        estimate = (sigma - 1) * math.log2(sigma - 1)
        for n in (10**3, 10**7):
            assert enumeration_gain(sigma, n) < estimate

    @pytest.mark.parametrize("sigma", [4, 20, 128, 256])
    def test_deviation_from_leading_term_shrinks_with_n(self, sigma):
        estimate = (sigma - 1) * math.log2(sigma - 1)
        dev_small = abs(enumeration_gain(sigma, 10**3) - estimate)
        dev_large = abs(enumeration_gain(sigma, 10**7) - estimate)
        assert dev_large < dev_small

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumeration_gain(1, 10)
        with pytest.raises(ValueError):
            enumeration_gain(4, 0)
