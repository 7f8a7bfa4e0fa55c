"""Row-major bit packing in 64-bit words.

Bit t of a row lives in word t // 64 at position t % 64, so OR and popcount
over whole rows are word-parallel.  Unused tail bits in the last word are
kept at zero by construction and must stay zero; ``Codebook`` and
``OutcomeVector`` reject words that set them.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64


def n_words(n_bits: int) -> int:
    return (n_bits + WORD_BITS - 1) // WORD_BITS


def pack_bits(bits) -> np.ndarray:
    """Pack a (..., T) array of {0,1} into (..., n_words(T)) uint64."""
    bits = np.asarray(bits)
    n_bits = bits.shape[-1]
    packed = np.zeros(bits.shape[:-1] + (8 * n_words(n_bits),), dtype=np.uint8)
    packed[..., : (n_bits + 7) // 8] = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view("<u8")


def unpack_bits(words, n_bits: int) -> np.ndarray:
    """Inverse of pack_bits; returns a (..., n_bits) uint8 array."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=n_bits, bitorder="little")


def popcount(words, axis=-1) -> np.ndarray:
    """Number of set bits along ``axis`` of a packed uint64 array."""
    return np.add.reduce(np.bitwise_count(np.asarray(words, dtype=np.uint64)), axis=axis,
                         dtype=np.int64)
