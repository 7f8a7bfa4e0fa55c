"""Domain types, random codebook generation, and the forward test channel.

A pooling design over N items and T tests is an N x T binary matrix: row i
is item i's membership pattern across tests, column t is the pool for test
t.  A noise-free test reads positive iff it pools at least one defective
item (Boolean OR of the defective rows).

Every channel here is one single-letter law.  A test pooling c defectives
reads negative with probability

    P(Y=0 | c) = (1-q) * u**c,

where q is the false-alarm probability (a pool with no defectives reads
positive with probability q) and u the erasure probability (each
defective's participation in each test is erased independently with
probability u).  ``noise-free`` is q = u = 0, ``additive`` is (q, 0) and
``dilution`` is (0, u).  ``NoiseModel.law`` and
``NoiseModel.positive_probability`` state it; the sampler, the decoder
and the bounds all read it from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitops import WORD_BITS, n_words, pack_bits, unpack_bits
from .errors import ParameterError
# bernoulli_grid is not called here; bench/probes.py traces it by name in this module
from .rng import bernoulli_grid, bernoulli_words, mix64_array  # noqa: F401

NOISE_FREE = "noise-free"
ADDITIVE = "additive"
DILUTION = "dilution"

# the one parameter each channel kind carries (None: no parameter)
_PARAMETER = {NOISE_FREE: None, ADDITIVE: "q", DILUTION: "u"}

# domain tags separating the additive and dilution noise streams
_ADDITIVE_STREAM = 0x41
_DILUTION_STREAM = 0x44

_MAX_SEED = 1 << 64


def _is_integer(value) -> bool:
    """A Python or numpy integer: counts, indices and seeds are never floats or bools.
    An exact int, the common case, is settled by one type check."""
    return type(value) is int or (
        isinstance(value, (int, np.integer)) and not isinstance(value, bool))


def _check_integers(**values) -> None:
    """ParameterError naming the first of ``values`` that is not an integer."""
    for name, value in values.items():
        if not _is_integer(value):
            raise ParameterError(f"{name} must be an integer, got {value!r}")


def _check_unit(name: str, value, strict: bool = False) -> float:
    """``value`` as a float once it is a real number (a Python or numpy
    integer or float, never a bool or a string) in [0, 1], or in (0, 1) when
    ``strict``; else ParameterError naming it ``name``."""
    if not (isinstance(value, (float, np.floating)) or _is_integer(value)):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    if not (0.0 < value < 1.0 if strict else 0.0 <= value <= 1.0):
        span = "strictly inside (0, 1)" if strict else "in [0, 1]"
        raise ParameterError(f"{name} must lie {span}, got {value}")
    return float(value)


def _check_seed(seed, name="seed"):
    if not _is_integer(seed) or not 0 <= seed < _MAX_SEED:
        raise ParameterError(f"{name} must be an unsigned 64-bit integer, got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class NoiseModel:
    """Tagged channel descriptor: noise-free, additive(q), or dilution(u).

    ``_PARAMETER`` names the one parameter each kind carries; a model gives
    exactly that parameter, a real number in [0, 1], kept as given."""

    kind: str
    q: float | None = None
    u: float | None = None

    def __post_init__(self):
        if self.kind not in _PARAMETER:
            raise ParameterError(f"unknown channel kind {self.kind!r}")
        name = _PARAMETER[self.kind]
        given = {f for f in _PARAMETER.values() if f and getattr(self, f) is not None}
        if given != {name} - {None}:
            carries = f"exactly the parameter {name}" if name else "no parameter"
            raise ParameterError(f"{self.kind} channel carries {carries}")
        if name:
            _check_unit(f"{self.kind} {name}", self.param)

    @classmethod
    def noise_free(cls) -> "NoiseModel":
        return cls(NOISE_FREE)

    @classmethod
    def additive(cls, q: float) -> "NoiseModel":
        return cls(ADDITIVE, q=q)

    @classmethod
    def dilution(cls, u: float) -> "NoiseModel":
        return cls(DILUTION, u=u)

    @property
    def param(self) -> float | None:
        """The single channel parameter (None for noise-free)."""
        return self.u if self.q is None else self.q

    @property
    def law(self) -> tuple[float, float]:
        """(q, u) of the channel law P(Y=0 | c) = (1-q) * u**c."""
        return (self.q or 0.0, self.u or 0.0)

    def positive_probability(self, c) -> np.ndarray:
        """P(Y=1 | c pooled defectives), elementwise over the integer array c.

        c = 0 gives q itself, since 1 - (1-q) is not always q in floating point."""
        q, u = self.law
        c = np.asarray(c)
        return np.where(c > 0, 1.0 - (1.0 - q) * np.float_power(u, c), q)

    @property
    def deterministic(self) -> bool:
        """True when the channel output is a function of the input alone."""
        return self.law == (0.0, 0.0)

    def describe(self) -> str:
        return self.kind if self.param is None else f"{self.kind}({self.param})"


@dataclass(frozen=True)
class DefectiveSet:
    """A set of item indices, stored strictly increasing."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if not all(map(_is_integer, self.indices)):
            raise ParameterError(f"indices must be integers, got {self.indices!r}")
        idx = tuple(int(i) for i in self.indices)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ParameterError(f"indices must be strictly increasing, got {idx}")
        if idx and idx[0] < 0:
            raise ParameterError(f"indices must be nonnegative, got {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, items) -> "DefectiveSet":
        """Build from any iterable of indices (sorted, duplicates rejected)."""
        return cls(tuple(sorted(items)))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


def _check_words(words: np.ndarray, rows: tuple[int, ...], n_tests: int) -> None:
    """Packed rows of n_tests bits: a test count that is an integer >= 0, and
    uint64 words of shape ``rows`` + (n_words(n_tests),) with every bit at or
    past n_tests % 64 of the last word clear."""
    if not _is_integer(n_tests) or n_tests < 0:
        raise ParameterError(f"T must be an integer >= 0, got {n_tests!r}")
    shape = (*rows, n_words(n_tests))
    if words.dtype != np.uint64 or words.shape != shape:
        raise ParameterError(
            f"{n_tests} tests need uint64 words of shape {shape}, got {words.dtype} {words.shape}"
        )
    tail = n_tests % WORD_BITS
    if tail and int(np.bitwise_or.reduce(words[..., -1], axis=None)) >> tail:
        raise ParameterError(f"words set bits past the {n_tests} tests")


@dataclass(frozen=True, eq=False)
class Codebook:
    """N x T binary measurement matrix, rows bit-packed in 64-bit words.

    Regenerating with the same (n_items, n_tests, p, seed) gives a
    bit-identical matrix, and bit (i, t) depends only on (seed, i, t).
    """

    n_items: int
    n_tests: int
    p: float
    seed: int
    words: np.ndarray = field(repr=False)  # (n_items, n_words) uint64

    def __post_init__(self):
        _check_design(self.n_items, self.n_tests, self.p)
        _check_seed(self.seed)
        _check_words(self.words, (self.n_items,), self.n_tests)
        self.words.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, Codebook):
            return NotImplemented
        return (
            (self.n_items, self.n_tests, self.p, self.seed)
            == (other.n_items, other.n_tests, other.p, other.seed)
            and np.array_equal(self.words, other.words)
        )

    def dense_bits(self) -> np.ndarray:
        """The whole matrix as (n_items, n_tests) uint8 (recomputed, never cached)."""
        return unpack_bits(self.words, self.n_tests)


@dataclass(frozen=True, eq=False)
class OutcomeVector:
    """Outcomes of the T tests, bit-packed."""

    n_tests: int
    words: np.ndarray = field(repr=False)  # (n_words,) uint64

    def __post_init__(self):
        _check_words(self.words, (), self.n_tests)
        self.words.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, OutcomeVector):
            return NotImplemented
        return self.n_tests == other.n_tests and np.array_equal(self.words, other.words)

    @classmethod
    def from_bits(cls, bits) -> "OutcomeVector":
        bits = np.asarray(bits)
        if bits.ndim != 1 or not np.isin(bits, (0, 1)).all():
            raise ParameterError("outcome bits must be a 1-D array of {0,1}")
        return cls(n_tests=bits.shape[0], words=pack_bits(bits == 1))

    def bits(self) -> np.ndarray:
        return unpack_bits(self.words, self.n_tests)


def _check_design(n_items: int, n_tests: int, p: float) -> None:
    _check_integers(N=n_items, T=n_tests)
    if n_items < 1 or n_tests < 0:
        raise ParameterError(
            f"need at least one item and a nonnegative test count, got {n_items}x{n_tests}"
        )
    _check_p(p)


def _check_p(p: float) -> None:
    """The domain of the inclusion probability, for the codebooks and the bounds alike."""
    _check_unit("inclusion probability p", p, strict=True)


def _check_defectives(n_items: int, k: int) -> None:
    """The estimators' and bounds' domain: at least one defective and one clean item."""
    _check_integers(N=n_items, K=k)
    if not 1 <= k < n_items:
        raise ParameterError(f"need 1 <= K < N, got N={n_items}, K={k}")


def generate_codebook(n_items: int, n_tests: int, p: float, seed: int) -> Codebook:
    """Draw an n_items x n_tests matrix of independent Bernoulli(p) entries.

    Entry (i, t) is a pure function of (seed, i, t): the same cell is
    reproduced under any matrix dimensions, which is what makes trials
    with growing T comparable under a common seed.  Zero tests give an
    empty matrix, which carries no information about the items.
    """
    _check_design(n_items, n_tests, p)
    seed = _check_seed(seed)
    words = bernoulli_words(seed, np.arange(n_items), np.arange(n_tests), p)
    return Codebook(int(n_items), int(n_tests), float(p), seed, words)


def _check_members(codebook: Codebook, defectives: DefectiveSet) -> np.ndarray:
    idx = np.asarray(defectives.indices, dtype=np.int64)
    if idx.size and idx[-1] >= codebook.n_items:
        raise ParameterError(
            f"item index {int(idx[-1])} out of range for a codebook of {codebook.n_items} items"
        )
    return idx


def noiseless_outcome(codebook: Codebook, defectives: DefectiveSet) -> OutcomeVector:
    """The noise-free channel: bit t is 1 iff some defective is pooled in test t."""
    return apply_channel(codebook, defectives, NoiseModel.noise_free(), 0)


def apply_channel(
    codebook: Codebook,
    defectives: DefectiveSet,
    noise_model: NoiseModel,
    noise_seed: int,
) -> OutcomeVector:
    """Push the defective set through the channel law (q, u).

    When u > 0 each (defective, test) participation bit is independently
    erased with probability u before the OR, so a test with c participating
    defectives reads 0 with probability u**c; when q > 0 each test output
    is then OR-ed with an independent Bernoulli(q) false alarm.  All noise
    draws are addressed by (noise_seed, item, test) and nothing else.
    """
    idx = _check_members(codebook, defectives)
    noise_seed = _check_seed(noise_seed, "noise_seed")
    words = _channel_words(codebook.words[idx], idx, noise_model, noise_seed,
                          np.arange(codebook.n_tests))
    return OutcomeVector(n_tests=codebook.n_tests, words=words)


def _channel_words(rows: np.ndarray, idx: np.ndarray, noise_model: NoiseModel,
                  noise_seed, tests: np.ndarray) -> np.ndarray:
    """Packed outcomes of the consecutive tests ``tests`` under the channel law.

    ``rows`` holds the defectives ``idx``'s codebook bits for those tests,
    packed from ``tests[0]``; test t reads the same as in ``apply_channel``.
    An int ``noise_seed`` takes rows (K, W) and idx (K,) and gives (W,)
    words.  A block of trials takes one noise seed per trial, a (B,) uint64
    array, with rows (B, K, W) and idx (B, K) or one idx (K,) for the
    block, and gives (B, W) words.
    """
    q, u = noise_model.law
    seeds = np.asarray(noise_seed, dtype=np.uint64)[..., None]
    if u > 0.0:
        rows = rows & ~bernoulli_words(mix64_array(seeds, _DILUTION_STREAM), idx, tests, u)
    words = np.bitwise_or.reduce(rows, axis=-2)
    if q > 0.0:
        alarms = bernoulli_words(mix64_array(seeds, _ADDITIVE_STREAM), [0], tests, q)[..., 0, :]
        words = words | alarms
    return words
