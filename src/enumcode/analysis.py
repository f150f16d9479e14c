"""Entropy and code-length analytics for the enumerative codecs.

All logarithms are base 2 (bit counts). Vector counts take their
logarithm from the exact big integer (bit length plus leading bits), so it
stays meaningful far beyond float range. Arrangement counts take theirs
from log2 k! = lgamma(k + 1) / ln 2 (:func:`log2_factorial`), whose error
the tests bound against the exact factorials, so that no file-sized count
is built for six decimals of its logarithm.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from functools import cache
from io import TextIOBase

from .combinatorics import (
    k_count,
    multinomial,  # unused; perfbench/tracer.py traces this name until ROADMAP item 2
)

_MANTISSA_BITS = 64
_LN2 = math.log(2)
# log2 k! for k up to _LF_CAP is memoised in a table built on first use.
_LF_CAP = 4096
# The tests check log2_factorial(k) against log2_int(k!) for every
# k <= 2**16 and at samples up to _LF_CHECKED, and tools/lf_check.py for
# every k <= _LF_CHECKED: it lies within _LF_ERROR * log2_int(k!).
_LF_CHECKED = 2**17
_LF_ERROR = 2**-46


def log2_int(value: int) -> float:
    """log2 of a positive integer, accurate far beyond float range.

    Uses the integer's bit length plus its top 64 bits; the truncation
    error is below 2**-63 relative, i.e. invisible in a double.
    """
    if value <= 0:
        raise ValueError("value must be positive")
    nbits = value.bit_length()
    if nbits <= _MANTISSA_BITS:
        return math.log2(value)
    shift = nbits - _MANTISSA_BITS
    return shift + math.log2(value >> shift)


def log2_factorial(k: int) -> float:
    """log2 k!, as lgamma(k + 1) / ln 2, for any k >= 0.

    Within ``_LF_ERROR`` relative of ``log2_int(math.factorial(k))`` for
    every k <= ``_LF_CHECKED``.
    """
    return math.lgamma(k + 1) / _LN2


@cache
def _log2_factorials() -> list[float]:
    """[log2_factorial(k) for 0 <= k <= _LF_CAP], the same floats."""
    return [math.lgamma(k) / _LN2 for k in range(1, _LF_CAP + 2)]


def finite_set_h0(counts: Iterable[int]) -> float:
    """Bits needed to pick one arrangement of a multiset with these counts.

    log2 of the arrangement count n! / prod(c_i!), taken as
    log2_factorial(n) - sum(log2_factorial(c_i)) without building the
    count. For n <= ``_LF_CHECKED`` it lies within
    ``block_codec._LF_BOUND`` * log2 n! of the exact logarithm. Divide by
    the symbol total for a bits-per-symbol figure.
    """
    counts = tuple(counts)
    n = sum(counts)
    if n < 1:
        raise ValueError("counts must total at least 1")
    if min(counts) < 0:
        raise ValueError("counts must be non-negative")
    return log2_factorial(n) - sum(map(log2_factorial, counts))


def naive_vs_enumerated(sigma: int, n_max: int) -> list[tuple[int, float, float]]:
    """Rows (n, naive_bits, enum_bits) for frequency-vector coding costs.

    ``naive_bits`` stores sigma-1 plain counts in (sigma-1) * log2(n+1)
    bits; ``enum_bits`` stores one rank among all vectors with inner sum n.
    """
    if sigma < 2:
        raise ValueError("sigma must be >= 2")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = []
    for n in range(1, n_max + 1):
        naive = (sigma - 1) * math.log2(n + 1)
        enum = log2_int(k_count(sigma, n))
        rows.append((n, naive, enum))
    return rows


def enumeration_gain(sigma: int, n: int) -> float:
    """Bits saved by ranking a frequency vector instead of storing raw counts.

    (sigma-1) * log2(n+1) minus log2 of the vector count, both evaluated
    exactly. For n much larger than sigma this approaches
    log2((sigma-1)!); dropping the factorial's non-leading Stirling terms
    would overstate the saving as (sigma-1) * log2(sigma-1).
    """
    if sigma < 2:
        raise ValueError("sigma must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    return (sigma - 1) * math.log2(n + 1) - log2_int(k_count(sigma, n))


def write_comparison_csv(stream: TextIOBase, sigma: int, n_max: int) -> None:
    """Emit the naive-vs-enumerated table as CSV: n,naive_bits,enum_bits,gap."""
    stream.write("n,naive_bits,enum_bits,gap\n")
    for n, naive, enum in naive_vs_enumerated(sigma, n_max):
        stream.write(f"{n},{naive:.6f},{enum:.6f},{naive - enum:.6f}\n")
