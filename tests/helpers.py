"""Shared test helpers."""

import numpy as np

from gtlab import Codebook
from gtlab.bitops import pack_bits


def make_codebook(bits, p=0.5, seed=0):
    """Codebook with explicitly chosen bits, for hand-crafted cases."""
    bits = np.asarray(bits, dtype=np.uint8)
    return Codebook(n_items=bits.shape[0], n_tests=bits.shape[1], p=p, seed=seed,
                    words=pack_bits(bits))
