"""Keyed, counter-addressed random bits.

Nothing in this package draws from a shared stream.  Every random quantity
is *addressed*: a 64-bit key plus one or two integer counters map to a
uniform value through a fixed avalanche function (the splitmix64 output
permutation).  Matrix bit (i, t) therefore depends only on (seed, i, t) and
is the same no matter how large the matrix is, in what order bits are
materialized, or how many threads are running.

Two-level addressing: ``mix64(key, a)`` derives a sub-key, and a second
application indexed by ``b`` produces the draw for cell (a, b).
``bernoulli_words`` draws the same Bernoulli cells as ``bernoulli_grid``
straight into packed 64-bit words, for any column range, and packs them
through ``bitops.pack_bits``, the one statement of the bit layout;
codebooks, erasures and false alarms all come from it.  Its key may be an
array, one key per row, so a single call draws the grids of a whole block
of trials.
"""

from __future__ import annotations

import math

import numpy as np

from .bitops import pack_bits

_MASK64 = (1 << 64) - 1
_GOLDEN_INT = 0x9E3779B97F4A7C15
_GOLDEN = np.uint64(_GOLDEN_INT)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

# 2^-53; top 53 bits of the mixed word become the uniform draw
_U53 = 1.0 / (1 << 53)


def mix64(key: int, counter: int) -> int:
    """Derive a 64-bit value from (key, counter); pure and collision-resistant."""
    z = (key + _GOLDEN_INT * (counter + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _finalize(z: np.ndarray) -> np.ndarray:
    """The splitmix64 output rounds, in place on the fresh array ``z``."""
    tmp = np.right_shift(z, np.uint64(30))
    z ^= tmp
    z *= _M1
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= _M2
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def mix64_array(keys, counters) -> np.ndarray:
    """``mix64`` elementwise over the uint64 arrays ``keys`` and ``counters``,
    broadcast together (a scalar counter acts as a length-1 array)."""
    keys = np.asarray(keys, dtype=np.uint64)
    counters = np.atleast_1d(np.asarray(counters, dtype=np.uint64))
    return _finalize(keys + _GOLDEN * (counters + np.uint64(1)))


def _mixed_grid(key, rows, cols) -> np.ndarray:
    """Mixed 64-bit words, one per (row, column); cell (a,b) depends only on
    (key, rows[a], cols[b]).

    ``key`` is an int, giving a (len(rows), len(cols)) grid, or an array of
    keys that broadcasts against ``rows``, giving shape
    broadcast(key, rows) + (len(cols),)."""
    if not isinstance(key, np.ndarray):
        key = int(key) & _MASK64
    row_keys = mix64_array(key, np.asarray(rows, dtype=np.uint64))
    return mix64_array(row_keys[..., None], np.asarray(cols, dtype=np.uint64))


def uniform_grid(key: int, rows, cols) -> np.ndarray:
    """(len(rows), len(cols)) uniforms in [0,1); cell (a,b) depends only on (key, rows[a], cols[b])."""
    return (_mixed_grid(key, rows, cols) >> np.uint64(11)).astype(np.float64) * _U53


def bernoulli_grid(key: int, rows, cols, prob: float) -> np.ndarray:
    """0/1 uint8 grid; cell (a,b) is 1 with probability ``prob``, addressed as in uniform_grid."""
    return (uniform_grid(key, rows, cols) < prob).astype(np.uint8)


def bernoulli_words(key, rows, cols, prob: float) -> np.ndarray:
    """``pack_bits(bernoulli_grid(key, rows, cols, prob))`` for 0 < prob <= 1,
    without the float grid: uint64 words, ``n_words(len(cols))`` along the
    last axis.  An int key gives (len(rows), n_words) words; a key array,
    as in ``_mixed_grid``, gives a leading axis per key.

    With u = (z >> 11) * 2**-53, u < prob is exactly z < ceil(prob * 2**53) << 11
    on the whole word z; it is tested as z <= that threshold minus 1, which
    fits in 64 bits on all of (0, 1], prob = 1 included.
    """
    return pack_bits(_mixed_grid(key, rows, cols)
                     <= np.uint64((math.ceil(prob * (1 << 53)) << 11) - 1))
