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

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
import os
import tempfile

import numpy as np

from .bitops import pack_bits, unpack_bits
from .errors import ParameterError
# bernoulli_grid is not called here; bench/probes.py traces it by name in this module
from .rng import bernoulli_grid, bernoulli_words, mix64_array  # noqa: F401

NOISE_FREE = "noise-free"
ADDITIVE = "additive"
DILUTION = "dilution"

# domain tags separating the additive and dilution noise streams
_ADDITIVE_STREAM = 0x41
_DILUTION_STREAM = 0x44

_MAX_SEED = 1 << 64


def _check_seed(seed, name="seed"):
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < _MAX_SEED:
        raise ParameterError(f"{name} must be an unsigned 64-bit integer, got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class NoiseModel:
    """Tagged channel descriptor: noise-free, additive(q), or dilution(u)."""

    kind: str
    q: float | None = None
    u: float | None = None

    def __post_init__(self):
        if self.kind == NOISE_FREE:
            if self.q is not None or self.u is not None:
                raise ParameterError("noise-free channel carries no parameter")
        elif self.kind == ADDITIVE:
            if self.u is not None or self.q is None:
                raise ParameterError("additive channel carries exactly the parameter q")
            if not 0.0 <= self.q <= 1.0:
                raise ParameterError(f"additive q must lie in [0, 1], got {self.q}")
        elif self.kind == DILUTION:
            if self.q is not None or self.u is None:
                raise ParameterError("dilution channel carries exactly the parameter u")
            if not 0.0 <= self.u <= 1.0:
                raise ParameterError(f"dilution u must lie in [0, 1], got {self.u}")
        else:
            raise ParameterError(f"unknown channel kind {self.kind!r}")

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
        if self.kind == NOISE_FREE:
            return NOISE_FREE
        return f"{self.kind}({self.param})"


@dataclass(frozen=True)
class DefectiveSet:
    """A set of item indices, stored strictly increasing."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ParameterError(f"indices must be strictly increasing, got {idx}")
        if idx and idx[0] < 0:
            raise ParameterError(f"indices must be nonnegative, got {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, items) -> "DefectiveSet":
        """Build from any iterable of indices (sorted, duplicates rejected)."""
        idx = sorted(int(i) for i in items)
        return cls(tuple(idx))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


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
        self.words.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, Codebook):
            return NotImplemented
        return (
            (self.n_items, self.n_tests, self.p, self.seed)
            == (other.n_items, other.n_tests, other.p, other.seed)
            and np.array_equal(self.words, other.words)
        )

    def row_bits(self, i: int) -> np.ndarray:
        """Row i as a (n_tests,) uint8 array (recomputed, never cached)."""
        return unpack_bits(self.words[i], self.n_tests)

    def dense_bits(self) -> np.ndarray:
        """The whole matrix as (n_items, n_tests) uint8 (recomputed, never cached)."""
        return unpack_bits(self.words, self.n_tests)


@dataclass(frozen=True, eq=False)
class OutcomeVector:
    """Outcomes of the T tests, bit-packed."""

    n_tests: int
    words: np.ndarray = field(repr=False)

    def __post_init__(self):
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
    if n_items < 1 or n_tests < 0:
        raise ParameterError(
            f"need at least one item and a nonnegative test count, got {n_items}x{n_tests}"
        )
    _check_p(p)


def _check_p(p: float) -> None:
    """The domain of the inclusion probability, for the codebooks and the bounds alike."""
    if not 0.0 < p < 1.0:
        raise ParameterError(f"inclusion probability p must lie strictly inside (0, 1), got {p}")


def _check_defectives(n_items: int, k: int) -> None:
    """The estimators' and bounds' domain: at least one defective and one clean item."""
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
    return Codebook(n_items=n_items, n_tests=n_tests, p=float(p), seed=seed, words=words)


def _check_members(codebook: Codebook, defectives: DefectiveSet) -> np.ndarray:
    idx = np.asarray(defectives.indices, dtype=np.int64)
    if idx.size and idx[-1] >= codebook.n_items:
        raise ParameterError(
            f"item index {int(idx[-1])} out of range for a codebook of {codebook.n_items} items"
        )
    return idx


def noiseless_outcome(codebook: Codebook, defectives: DefectiveSet) -> OutcomeVector:
    """Boolean OR of the defective rows: bit t is 1 iff some defective is pooled in test t."""
    idx = _check_members(codebook, defectives)
    return OutcomeVector(n_tests=codebook.n_tests,
                         words=np.bitwise_or.reduce(codebook.words[idx], axis=0))


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
    array, with rows (B, K, W) and idx (B, K), and gives (B, W) words.  On
    a noisy channel the block may also share one trial's rows and idx.
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


@contextmanager
def _atomic_text(path):
    """A UTF-8 text handle, written as is (no newline translation), whose
    content replaces ``path`` only when the block completes.

    It writes a temporary ``.gtlab-*`` file in the target directory, so the
    rename stays on one file system, and unlinks it if the block raises."""
    fd, tmp = tempfile.mkstemp(prefix=".gtlab-", dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_codebook(codebook: Codebook, path) -> None:
    """Debug dump: header line "N T p seed", then N rows of T characters in {0,1}."""
    lines = [f"{codebook.n_items} {codebook.n_tests} {codebook.p!r} {codebook.seed}"]
    dense = codebook.dense_bits()
    lines.extend("".join("1" if b else "0" for b in row) for row in dense)
    with _atomic_text(path) as handle:
        handle.write("\n".join(lines) + "\n")


def read_codebook(path) -> Codebook:
    """Inverse of write_codebook; the stored bits win over regeneration."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise ParameterError(f"{path}: empty codebook file")
    head = lines[0].split()
    try:
        n_items, n_tests, p, seed = (cast(v) for cast, v in
                                     zip((int, int, float, int), head, strict=True))
    except ValueError:
        raise ParameterError(f"{path}: malformed header {lines[0]!r}") from None
    _check_design(n_items, n_tests, p)
    seed = _check_seed(seed)
    if len(lines) != 1 + n_items:
        raise ParameterError(f"{path}: expected {n_items} rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        if len(line) != n_tests or set(line) - {"0", "1"}:
            raise ParameterError(f"{path}: bad row {line!r}")
        rows.append([int(c) for c in line])
    bits = np.array(rows, dtype=np.uint8)
    return Codebook(n_items=n_items, n_tests=n_tests, p=p, seed=seed, words=pack_bits(bits))
