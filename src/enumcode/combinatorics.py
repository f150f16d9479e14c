"""Exact counting kernel shared by the rank/unrank codecs.

Every quantity here is a plain Python int, so counts are exact at any
magnitude. Floating point never enters a counting path; logarithms live in
:mod:`enumcode.analysis`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable


def multinomial(counts: Iterable[int]) -> int:
    """Number of distinct arrangements of a multiset with these counts.

    Equals (sum counts)! / prod(c_i!); exactly 1 when at most one count is
    non-zero. A zero count leaves the product as it is, so it is skipped.
    """
    result = 1
    total = 0
    for c in counts:
        if c > 0:
            total += c
            result *= math.comb(total, c)
        elif c:
            raise ValueError("counts must be non-negative")
    return result


def ceil_log2(count: int) -> int:
    """Bits needed to hold one of ``count`` distinct values (0 when count == 1)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return (count - 1).bit_length()


def k_count(sigma: int, inner_sum: int) -> int:
    """Number of sigma-dimensional vectors of non-negative ints with the given sum.

    Closed form C(inner_sum + sigma - 1, sigma - 1).
    """
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    if inner_sum < 0:
        raise ValueError("inner_sum must be >= 0")
    return math.comb(inner_sum + sigma - 1, sigma - 1)


# perfbench/tracer.py looks this name up until ROADMAP item 2; nothing calls it.
class CombinatoricsContext:
    k_count = staticmethod(k_count)
