"""Rank and unrank frequency vectors with a fixed inner sum.

A frequency vector is a tuple of ``sigma`` non-negative counts. All vectors
sharing an inner sum are ordered with the first dimension most significant
and values ascending; the final dimension never affects the rank because it
is implied by the sum. For example the three 2-dimensional vectors summing
to 2 rank as (0,2) < (1,1) < (2,0). Ranks are zero-based.

A free dimension holding x, with R units left and f dimensions after it,
adds the count of vectors that hold a smaller value there:
sum_{v<x} C(R-v+f-1, f-1), which the hockey-stick identity closes to
C(R+f, f) - C(R-x+f, f). Ranking is therefore O(sigma) ``math.comb``
calls, and unranking binary-searches each x on the same identity,
O(sigma log inner_sum) calls, whatever the inner sum; the last free
dimension's x is the index left, in closed form. Passing ``trace=``
to :func:`vector_to_index` walks the sum one unit at a time instead and
records every addend.
"""

from __future__ import annotations

from math import comb
from collections.abc import Iterable, Sequence

from .combinatorics import k_count


def vector_to_index(counts: Iterable[int], *, trace: list[int] | None = None) -> int:
    """Zero-based rank of ``counts`` among all vectors with the same inner sum.

    The inner sum is the sum of ``counts``. ``trace``, when a list, receives
    every count added to the rank, in order, one per unit of each free
    dimension.
    """
    vec = tuple(counts)
    if not vec:
        raise ValueError("frequency vector must have at least one dimension")
    for dim, c in enumerate(vec):
        if c < 0:
            raise ValueError(f"negative count {c} at dimension {dim}")
    sigma = len(vec)
    remaining = sum(vec)
    index = 0
    for dim in range(sigma - 1):
        free = sigma - 1 - dim
        value = vec[dim]
        if trace is not None:
            for v in range(value):
                step = k_count(free, remaining - v)
                index += step
                trace.append(step)
        elif value:
            index += comb(remaining + free, free) - comb(remaining - value + free, free)
        remaining -= value
    return index


def index_to_vector(index: int, inner_sum: int, sigma: int) -> tuple[int, ...]:
    """The unique vector of ``sigma`` counts summing to ``inner_sum`` with this rank.

    Each free dimension but the last is binary-searched. The last free
    dimension has f = 1, where every value below x adds C(R - v, 0) = 1, so
    its value is the index left.
    """
    if not 0 <= index < k_count(sigma, inner_sum):
        raise ValueError(
            f"frequency rank {index} out of range for {sigma} dimensions summing to {inner_sum}"
        )
    counts = [0] * sigma
    remaining = inner_sum
    for dim in range(sigma - 2):
        free = sigma - 1 - dim
        # The value here is the largest x with C(R+f, f) - C(R-x+f, f) <= index,
        # so the rest, y = R - x, is the smallest y with
        # C(y+f, f) >= target = C(R+f, f) - index.
        target = comb(remaining + free, free) - index
        lo, hi = 0, remaining
        while lo < hi:
            mid = (lo + hi) // 2
            if comb(mid + free, free) >= target:
                hi = mid
            else:
                lo = mid + 1
        index = comb(lo + free, free) - target
        counts[dim] = remaining - lo
        remaining = lo
    if sigma > 1:
        counts[sigma - 2] = index
        remaining -= index
    counts[sigma - 1] = remaining
    return tuple(counts)


def enumerate_all(
    inner_sum: int,
    sigma: int,
    *,
    limit: int = 200_000,
) -> list[tuple[int, ...]]:
    """All vectors of ``sigma`` counts summing to ``inner_sum``, in rank order.

    Generated independently of the ranking walk (plain nested ascent), so it
    doubles as an order oracle in tests. Refuses to materialize more than
    ``limit`` vectors.
    """
    total = k_count(sigma, inner_sum)
    if total > limit:
        raise ValueError(f"{total} vectors exceed the materialization limit {limit}")
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int) -> None:
        if len(prefix) == sigma - 1:
            out.append(prefix + (remaining,))
            return
        for value in range(remaining + 1):
            extend(prefix + (value,), remaining - value)

    extend((), inner_sum)
    return out


def format_vector(counts: Sequence[int]) -> str:
    """Render a vector as comma-separated counts (the CLI table format)."""
    return ",".join(str(c) for c in counts)
