"""Entropy and code-length analytics for the enumerative codecs.

All logarithms are base 2 (bit counts). Real-valued entropies are taken
from exact big integers (bit length plus leading bits), never from
Stirling-style approximations, so they stay meaningful far beyond float
range.
"""

from __future__ import annotations

import csv
import math
from typing import IO, Iterable

from .combinatorics import k_count, multinomial

_MANTISSA_BITS = 64


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


def finite_set_h0(counts: Iterable[int]) -> float:
    """Bits needed to pick one arrangement of a multiset with these counts.

    log2 of the exact arrangement count; divide by the symbol total for a
    bits-per-symbol figure.
    """
    counts = tuple(counts)
    if sum(counts) < 1:
        raise ValueError("counts must total at least 1")
    return log2_int(multinomial(counts))


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


def write_comparison_csv(stream: IO[str], sigma: int, n_max: int) -> None:
    """Emit the naive-vs-enumerated table as CSV: n,naive_bits,enum_bits,gap."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["n", "naive_bits", "enum_bits", "gap"])
    for n, naive, enum in naive_vs_enumerated(sigma, n_max):
        writer.writerow([n, f"{naive:.6f}", f"{enum:.6f}", f"{naive - enum:.6f}"])
