"""Check that the container code is a bijection on a family of small headers.

Usage (from the repository root, under any installed Python 3.10 or later):

    python3 tools/bijection_check.py

The family: sigma from 1 to 4 (the first sigma of ``abcd``, delimiter
``a``), n from 0 to 6, variable mode at r = 1, 2 and n + 1 (the last pads
every final block) and fixed mode at L = 1, 2, max(n, 1) and n + 1. That is
196 headers, 168 of them distinct. A header qualifies when each of its
sigma**n inputs encodes to a payload of at most two bytes; 152 distinct
headers do (180 of the 196). Under each qualifying header every payload of
0 to 2 bytes is decoded. Exactly sigma**n of them must decode, each to the
input whose encoding it is, and every other one must raise
``CorruptContainerError``. So the code wastes no payload and spells no
input twice. Any other outcome exits non-zero with the header named, and
so does any other exception, which propagates. It needs no pytest; tier-1
runs a sample of the headers (``tests/test_block_codec.py``).
"""

from __future__ import annotations

import itertools
import platform
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from enumcode.block_codec import (  # noqa: E402
    CodecParams,
    CorruptContainerError,
    EncodedContainer,
    decode,
    encode,
)

PAYLOADS = [bytes(p) for size in range(3) for p in itertools.product(range(256), repeat=size)]


def headers() -> list[CodecParams]:
    """The family's distinct headers, in order."""
    family = []
    for sigma in (1, 2, 3, 4):
        alphabet = b"abcd"[:sigma]
        for n in range(7):
            family += (CodecParams.variable(alphabet, b"a", r, n) for r in (1, 2, n + 1))
            family += (CodecParams.fixed(alphabet, size, n) for size in (1, 2, max(n, 1), n + 1))
    return list(dict.fromkeys(family))


def encodings(params: CodecParams) -> dict[bytes, bytes]:
    """Payload -> input, for every input of ``params``."""
    return {
        encode(data, params).payload: data
        for data in map(bytes, itertools.product(params.alphabet, repeat=params.n))
    }


def check(params: CodecParams) -> int:
    """Decode every payload of 0-2 bytes under ``params``; returns how many decode.

    Exits unless exactly the payloads ``encode`` writes decode, each to its
    own input, and every other one raises ``CorruptContainerError``.
    """
    expected = encodings(params)
    accepted = 0
    for payload in PAYLOADS:
        try:
            out = decode(EncodedContainer(params, payload))
        except CorruptContainerError:
            if payload in expected:
                raise SystemExit(f"{params}: the encoding of {expected[payload]!r} is rejected")
            continue
        if expected.get(payload) != out:
            raise SystemExit(f"{params}: payload {payload.hex()} decodes to {out!r}, which encodes otherwise")
        accepted += 1
    if accepted != params.sigma**params.n:
        raise SystemExit(f"{params}: {accepted} payloads decode, not {params.sigma**params.n}")
    return accepted


def main() -> int:
    start = perf_counter()
    qualifying = [params for params in headers() if max(map(len, encodings(params))) <= 2]
    for params in qualifying:
        check(params)
    print(
        f"bijection: {len(qualifying)} headers, each decoding exactly its sigma**n payloads "
        f"of 0-2 bytes, on Python {platform.python_version()} in {perf_counter() - start:.1f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
