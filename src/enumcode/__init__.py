"""Enumerative coding of sequences over small alphabets.

Rank/unrank primitives for frequency vectors and multiset permutations, a
bit-exact block codec built on them, and entropy analytics.
"""

from .analysis import enumeration_gain, finite_set_h0, log2_int, naive_vs_enumerated
from .block_codec import (
    AccountedBits,
    AlphabetError,
    Block,
    CodecParams,
    CorruptContainerError,
    EncodedContainer,
    FormatError,
    MODE_FIXED,
    MODE_VARIABLE,
    decode,
    encode,
    factorize,
    vector_bits,
)
from .combinatorics import ceil_log2, k_count, multinomial
from .composition_codec import enumerate_all, index_to_vector, vector_to_index
from .permutation_codec import (
    enumerate_perms,
    frequency_vector,
    perm_index_to_sequence,
    perm_rank_and_count,
    sequence_to_perm_index,
)

__version__ = "0.1.0"

__all__ = [
    "AccountedBits",
    "AlphabetError",
    "Block",
    "CodecParams",
    "CorruptContainerError",
    "EncodedContainer",
    "FormatError",
    "MODE_FIXED",
    "MODE_VARIABLE",
    "ceil_log2",
    "decode",
    "encode",
    "enumerate_all",
    "enumerate_perms",
    "enumeration_gain",
    "factorize",
    "finite_set_h0",
    "frequency_vector",
    "index_to_vector",
    "k_count",
    "log2_int",
    "multinomial",
    "naive_vs_enumerated",
    "perm_index_to_sequence",
    "perm_rank_and_count",
    "sequence_to_perm_index",
    "vector_bits",
    "vector_to_index",
]
