"""Exact counting kernel shared by the rank/unrank codecs.

Every quantity here is a plain Python int, so counts are exact at any
magnitude. Floating point never enters a counting path; logarithms live in
:mod:`enumcode.analysis`.

:func:`multinomial` takes one of two paths, picked from the counts alone.
Let r = n - max(c_i) be the symbols outside the largest count. Below
``_PRIME_MIN`` of them, or when 8 * r < n, it chains ``math.comb``:
C(c_1, c_1) * C(c_1 + c_2, c_2) * ... Under Python 3.11 each of those combs
does long divisions, quadratic in its width. Otherwise it multiplies the
count's prime factors (Borwein, "On the complexity of calculating
factorials", J. Algorithms 6, 1985) and divides nothing:

- a sieve over the odd numbers (``bytearray`` slice assignment) lists the
  primes up to n;
- Legendre's formula gives each prime's exponent, v_p(n!) - sum v_p(c_i!),
  where v_p(m!) = sum_k floor(m / p**k);
- a prime above both the largest count and sqrt(n) divides no c_i! and
  divides n! floor(n / p) times, so runs of primes with one quotient share
  their exponent;
- level k, the product of every prime whose exponent has bit k set, is one
  balanced product tree, and the count is prod_k level_k ** (2 ** k), built
  from the top level down by squaring and multiplying in the next level.

One power per exponent and a tree over the powers, in place of the levels,
took 1.5-1.7x as long on 20- and 256-kind vectors of 16k-64k symbols.

The crossover, ``_PRIME_MIN`` = 3072, is where the prime path took at most
about the time of the chain under Python 3.11 on 2 vCPUs, on DNA-like
vectors and on 2-, 20- and 256-kind vectors, even and skewed. The chain's
cost follows r more than n: (n - 375, 375) chains in a fifth of the prime
path's time at n = 3000. The second condition bounds the sieve on hostile
input. Chained largest count first, each later count c contributes
C(a + c, c) >= 2**c, since a >= c symbols precede it, so the count is at
least 2**r >= 2**(n / 8). The sieve's O(n) time and memory are then at most
about 8 times the count's bit width, and a 2**30-symbol block whose vector
is nearly one symbol never sieves.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import compress, groupby, takewhile

_PRIME_MIN = 3072


def multinomial(counts: Iterable[int]) -> int:
    """Number of distinct arrangements of a multiset with these counts.

    Equals (sum counts)! / prod(c_i!); exactly 1 when at most one count is
    non-zero. A zero count leaves the product as it is, so it is skipped.
    """
    counts = tuple(counts)
    n = sum(counts)
    if n >= _PRIME_MIN:
        rest = n - max(counts)
        if rest >= _PRIME_MIN and 8 * rest >= n:
            return _prime_multinomial(counts, n)
    result = 1
    total = 0
    for c in counts:
        if c > 0:
            total += c
            result *= math.comb(total, c)
        elif c:
            raise ValueError("counts must be non-negative")
    return result


def _prime_multinomial(counts: tuple[int, ...], n: int) -> int:
    """n! / prod(c_i!) for counts summing to n, from its prime factors."""
    if min(counts) < 0:
        raise ValueError("counts must be non-negative")
    # largest first, so a prime power's scan stops at the first count below it
    wide = sorted(counts, reverse=True)
    primes = _primes(n)
    # up to the largest count or sqrt(n), Legendre's sums in full
    small = list(takewhile(max(wide[0], math.isqrt(n)).__ge__, primes))
    powers: dict[int, list[int]] = {}  # exponent -> the primes that have it
    for p in small:
        e = 0
        q = p
        while q <= n:
            e += n // q
            for c in wide:
                if c < q:
                    break
                e -= c // q
            q *= p
        if e:
            powers.setdefault(e, []).append(p)
    # above both, the exponent is n // p: one per run of equal quotient
    for e, run in groupby(primes[len(small) :], n.__floordiv__):
        powers.setdefault(e, []).extend(run)
    # levels[k]: the primes whose exponent has bit k set
    levels: list[list[int]] = [[] for _ in range(max(powers).bit_length())]
    for e, group in powers.items():
        for k in range(e.bit_length()):
            if e >> k & 1:
                levels[k] += group
    result = 1
    for level in reversed(levels):
        result = result * result * _product(level)
    return result


def _primes(n: int) -> list[int]:
    """The primes up to n >= 2, by a sieve over the odd numbers."""
    half = (n + 1) // 2  # sieve[i] stands for 2 * i + 1
    sieve = bytearray([1]) * half
    sieve[0] = 0
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytes(len(range(start, half, p)))
    return [2, *compress(range(1, n + 1, 2), sieve)]


def _product(factors: list[int]) -> int:
    """The product of ``factors``: ``math.prod`` over leaves of 16, then a
    balanced tree over the leaves."""
    level = [math.prod(factors[i : i + 16]) for i in range(0, len(factors), 16)]
    while len(level) > 1:
        paired = [a * b for a, b in zip(level[::2], level[1::2])]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0] if level else 1


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
