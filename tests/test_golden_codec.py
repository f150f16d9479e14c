"""Byte-exact containers beyond the CLI's DNA files, pinned by SHA-256.

``test_golden_outputs.py`` pins 10k-symbol DNA at sigma=4. These pin the
paths that DNA does not reach: Zipf-skewed input over 20 and 256 kinds,
whose count vectors are mostly zeros at sigma=256, in both modes, and a
variable-mode container whose final block owes more padding delimiters
than the input has symbols, and one fixed-mode block of 32768 DNA-like
symbols, whose ranks are multi-kilobit integers. Each container also
decodes back.
"""

import hashlib
import random

import pytest

from enumcode.block_codec import CodecParams, EncodedContainer, decode, encode

from test_acceptance import _dna_like

N = 10_000


def zipf_symbols(sigma):
    """``N`` symbols over ``bytes(range(sigma))``, kind k drawn with weight 1/(k+1)."""
    weights = [1 / (k + 1) for k in range(sigma)]
    return bytes(random.Random(sigma).choices(range(sigma), weights=weights, k=N))


def params_for(case):
    sigma, mode = case
    data = zipf_symbols(sigma)
    alphabet = bytes(range(sigma))
    if mode == "var-r4":
        # the delimiter is the most frequent kind
        return data, CodecParams.variable(alphabet, max(alphabet, key=data.count), 4, len(data))
    return data, CodecParams.fixed(alphabet, 64, len(data))


# (sigma, encoding) -> SHA-256 of the container's bytes
GOLDEN = {
    (20, "var-r4"): "03261badfa0fc6cce73aa61856808094a33ac7beb3cc98a76d132af29935d8b4",
    (20, "fixed-64"): "00b988000f9055f8f35640eebdd3cf9fcf47efe8d6a457fefc20353dc1ce460a",
    (256, "var-r4"): "5b4e2aafe2bc12513f6c17bb504d6e1e522fdd0bd3d6a675f88c56f0ee006cd9",
    (256, "fixed-64"): "42b36e76f35ddaa028922780ce87d81fcc83a565e9b1b0e28a108e9d631360d2",
}
# n=100, r=1000: the final block owes 977 padding delimiters
PADDED = "aa578f7dbb9ea7da585fe5370fe570743f1a49479c40ef64bc4724382dffa84d"
# _dna_like(32, n=32768) as one fixed-mode block of L = n (8 KB)
LONG_BLOCK = "d472a6dc65633f5fa684f05709a40ccb06a3617a95de05c6515c41d09848301a"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def round_trip(data, params):
    raw = encode(data, params).to_bytes()
    assert decode(EncodedContainer.from_bytes(raw)) == data
    return raw


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_zipf_containers(case):
    assert sha(round_trip(*params_for(case))) == GOLDEN[case]


def test_padding_longer_than_the_input():
    data = bytes(random.Random(100).choices(b"acgt", k=100))
    params = CodecParams.variable(b"acgt", b"a", 1000, len(data))
    assert encode(data, params).pad > len(data)
    assert sha(round_trip(data, params)) == PADDED


def test_one_long_fixed_block():
    data = _dna_like(32, n=32768)
    params = CodecParams.fixed(b"acgt", len(data), len(data))
    assert encode(data, params).accounting.blocks == 1
    assert sha(round_trip(data, params)) == LONG_BLOCK
