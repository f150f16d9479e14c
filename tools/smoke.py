"""Round-trip smoke test of the library on the standard library alone.

Usage (from the repository root, under any installed Python 3.10 or later):

    python3 tools/smoke.py

It needs no pytest and no hypothesis, so it runs under interpreters that
have neither. For each alphabet size in ``SIGMAS`` it draws seeded inputs of
up to ``MAX_LENGTH`` symbols, skewed so that both long runs and rare kinds
occur, and codes each one in fixed mode at several block lengths and in
variable mode at several delimiters and repeat counts. Then it sweeps the
default grid of one DNA-like input and codes it at the sweep's best fixed
and best variable points. Every container goes through ``to_bytes`` and
``from_bytes`` and must decode to its input, and its size must equal the
``container_bits`` its encode accounted. Last, ``multinomial`` must equal
the factorial quotient n! / prod(c_i!) on the counts of seeded inputs of
``COUNT_LENGTHS`` symbols over 4 and 256 kinds, and on two 2-kind vectors
either side of its crossover, so the chained and the prime-factored paths
both run. The first failure exits non-zero with the case named; otherwise
one line reports the cases, the interpreter and the time taken: 2.4–2.9 s
under Python 3.11 on a 2-vCPU host.
"""

from __future__ import annotations

import math
import platform
import random
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from enumcode.block_codec import CodecParams, EncodedContainer, decode, encode  # noqa: E402
from enumcode.cli import sweep_file  # noqa: E402
from enumcode.combinatorics import _PRIME_MIN, multinomial  # noqa: E402

SIGMAS = (1, 2, 4, 20, 256)
MAX_LENGTH = 3000
LENGTHS = (0, 1, 2, 63, 65, 700, MAX_LENGTH)
FIXED_LENS = (5, 64, 700, MAX_LENGTH)
R_VALUES = (1, 4, 40)
COUNT_LENGTHS = (2999, 3000, 16000, 65536)


def alphabet_of(sigma: int) -> bytes:
    return b"acgt" if sigma == 4 else bytes(range(sigma))


def draw(sigma: int, length: int, seed: int) -> bytes:
    """``length`` symbols over ``sigma`` kinds, the first kind as likely as
    the rest together, so runs and rare kinds both occur."""
    rng = random.Random(seed)
    alphabet = alphabet_of(sigma)
    weights = [sigma - 1 or 1] + [1] * (sigma - 1)
    return bytes(rng.choices(alphabet, weights=weights, k=length))


def round_trip(data: bytes, params: CodecParams, case: str) -> None:
    container = encode(data, params)
    raw = container.to_bytes()
    accounted = container.accounting.container_bits
    if 8 * len(raw) != accounted:
        raise SystemExit(f"{case}: {8 * len(raw)} container bits, {accounted} accounted")
    if decode(EncodedContainer.from_bytes(raw)) != data:
        raise SystemExit(f"{case}: the container does not decode to its input")


def cases():
    """(data, params, case name) of every coded case but the sweep's."""
    for sigma in SIGMAS:
        alphabet = alphabet_of(sigma)
        for length in LENGTHS:
            data = draw(sigma, length, seed=sigma * 10_000 + length)
            name = f"sigma={sigma} n={length}"
            for fixed_len in FIXED_LENS:
                yield data, CodecParams.fixed(alphabet, fixed_len, length), f"{name} L={fixed_len}"
            # the most frequent kind and the last, usually rare, kind as delimiters
            for alpha in sorted({alphabet[0], alphabet[-1]}):
                for r in R_VALUES:
                    params = CodecParams.variable(alphabet, alpha, r, length)
                    yield data, params, f"{name} alpha={alpha} r={r}"


def count_cases():
    """(counts, case name) of every multinomial checked."""
    for length in COUNT_LENGTHS:
        for sigma in (4, 256):
            data = draw(sigma, length, seed=length)
            yield [data.count(b) for b in alphabet_of(sigma)], f"sigma={sigma} n={length}"
    for rest in (_PRIME_MIN - 1, _PRIME_MIN):
        yield [2 * _PRIME_MIN, rest], f"2 kinds, {rest} outside the largest count"


def main() -> None:
    start = perf_counter()
    count = 0
    for data, params, case in cases():
        round_trip(data, params, case)
        count += 1
    data = draw(4, MAX_LENGTH, seed=1)
    sweep = sweep_file("smoke", data)
    for point in (sweep.best_fixed, sweep.best_variable):
        case = f"sweep's best {point.params.mode} point"
        round_trip(data, point.params, case)
        if encode(data, point.params).accounting != point.accounting:
            raise SystemExit(f"{case}: priced otherwise than encode prices it")
        count += 1
    counts_checked = 0
    for counts, case in count_cases():
        quotient = math.factorial(sum(counts)) // math.prod(map(math.factorial, counts))
        if multinomial(counts) != quotient:
            raise SystemExit(f"{case}: multinomial differs from the factorial quotient")
        counts_checked += 1
    print(
        f"smoke: {count} round trips, a {len(sweep.points)}-point sweep"
        f" and {counts_checked} multinomials passed"
        f" on Python {platform.python_version()} in {perf_counter() - start:.2f} s"
    )


if __name__ == "__main__":
    main()
