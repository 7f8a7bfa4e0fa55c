"""Exhaustive maximum-likelihood decoding over all K-subsets.

The decoder scans candidate sets in lexicographic index order, scores each
with the log-likelihood of the observed outcomes, and returns the first
maximizer.  A tie is any later candidate attaining the same maximum under
exact comparison; candidates with likelihood exactly zero (score -inf)
never participate in tie detection.

Scores read the channel law of ``model``, P(Y=0 | c) = (1-q) * u**c for a
test pooling c candidate members.  A candidate reduces to integer
statistics: n- (negative tests), w- (member participations in negative
tests), n+[0] (positive tests pooling no member) and n+[c] (positive tests
pooling exactly c members, c = 1..K).  Its score adds, from 0.0 and in this
order,

    n- log2(1-q),  w- log2 u,  n+[0] log2 q,  n+[c] log2(1 - (1-q) u**c),

with 0 * log2 0 = 0, and any positive count on a -inf coefficient scores
-inf.  Candidates with equal statistics therefore get bit-identical scores
and the tie rule is exact on every channel; the single-set scorer
``log_likelihood`` runs the same code.  The statistics come from popcounts
on the packed rows, and the law decides how much of them is computed,
without changing any score:

* when log2 u = -inf a member pooled in a negative test makes the score
  -inf, so only the items whose rows the outcome covers are enumerated;
* n+[1..K] come from a bit-sliced recurrence over K threshold levels,
  which is built only when some coefficient of n+[1..K] is nonzero;
  otherwise n+[0] needs one level, the OR of the member rows.

Scan order and scoring are deterministic, so results are identical across
platforms and runs.
"""

from __future__ import annotations

import csv
import itertools
import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .bitops import popcount
from .errors import CapacityError, ParameterError
from .model import (
    Codebook,
    DefectiveSet,
    NoiseModel,
    OutcomeVector,
    _check_members,
)

DEFAULT_BUDGET = 10**8
_CHUNK = 8192
_CACHE_LIMIT = 1 << 21  # combination tables up to ~2M rows are memoized


@dataclass(frozen=True)
class DecodeResult:
    best_set: DefectiveSet
    log_likelihood: float
    tie: bool
    n_evaluated: int


def miss_distance(true_set: DefectiveSet, decoded_set: DefectiveSet) -> int:
    """Number of true items absent from the decoded set."""
    if len(true_set) != len(decoded_set):
        raise ParameterError(
            f"sets must have equal cardinality, got {len(true_set)} and {len(decoded_set)}"
        )
    return len(set(true_set.indices) - set(decoded_set.indices))


def _log2(x: float) -> float:
    return math.log2(x) if x > 0.0 else -math.inf


@dataclass(frozen=True)
class _Coefficients:
    """log2 factors of the channel law for sets of k members.

    ``negative`` multiplies n-, ``participation`` w-, and ``positive[c]``
    n+[c] for c = 0..k.  ``full`` is set when some coefficient of n+[1..k]
    is nonzero; ``levels`` is how many threshold levels a candidate's
    statistics then need: k when ``full``, else 1 (the OR, for n+[0]) when
    ``positive[0]`` is nonzero, else 0.
    """

    negative: float
    participation: float
    positive: tuple[float, ...]
    full: bool
    levels: int


@lru_cache(maxsize=64)  # building them takes ~15 us, a quarter of a small pruned decode
def _coefficients(noise_model: NoiseModel, k: int) -> _Coefficients:
    q, u = noise_model.law
    positive = tuple(_log2(float(v)) for v in noise_model.positive_probability(np.arange(k + 1)))
    full = any(positive[1:])
    levels = k if full else int(positive[0] != 0.0)
    return _Coefficients(_log2(1.0 - q), _log2(u), positive, full, levels)


# Per-thread work arrays of _scores, kept across chunks and decodes.  Fresh
# arrays of ~1 MB per chunk make malloc trim the heap top and grow it again,
# and the page faults that follow cost unpruned K-level scans about a third
# of their speed.
_scratch = threading.local()


def _work_arrays(m: int, b: int):
    """This thread's (m+2, b) uint64 and int64 blocks, b float64 and b uint8."""
    arrays = getattr(_scratch, "arrays", None)
    if arrays is None or arrays[0].shape[0] < m + 2 or arrays[0].shape[1] < b:
        rows = max(m + 2, 0 if arrays is None else arrays[0].shape[0])
        cols = max(b, _CHUNK if arrays is None else arrays[0].shape[1])
        arrays = (np.empty((rows, cols), dtype=np.uint64), np.empty((rows, cols), dtype=np.int64),
                  np.empty(cols), np.empty(cols, dtype=np.uint8))
        _scratch.arrays = arrays
    bits, ints, floats, counts = arrays
    return bits[: m + 2, :b], ints[: m + 2, :b], floats[:b], counts[:b]


class _Pool(NamedTuple):
    """What scoring needs of one outcome, over the items a scan enumerates.

    ``items`` maps pool positions to item indices (None: every item, in
    order) and ``size`` counts them.  ``pos`` holds the pool's rows masked
    to the positive tests, (P, W) when at most one level is built and
    word-major (W, P) otherwise.  ``neg`` is each item's count of negative
    tests, read only when log2 u is finite and every item is in the pool.
    ``start`` is the n- term, the same for every candidate.
    """

    items: np.ndarray | None
    size: int
    pos: np.ndarray
    neg: np.ndarray
    n_pos: int
    start: float


def _pool(co: _Coefficients, words: np.ndarray, n_tests: int, y_words: np.ndarray) -> _Pool:
    neg = popcount(words & ~y_words)
    n_pos = int(popcount(y_words))
    n_neg = n_tests - n_pos
    start = 0.0 + n_neg * co.negative if n_neg and co.negative else 0.0
    if co.participation == -math.inf:
        # a member pooled in a negative test scores -inf, so the pool is the
        # items whose rows the outcome covers (their rows are already masked)
        items = np.flatnonzero(neg == 0)
        rows = words[items]
    else:
        items = None
        rows = words & y_words
    pos = rows if co.levels <= 1 else np.ascontiguousarray(rows.T)
    return _Pool(items, rows.shape[0], pos, neg, n_pos, start)


def _level_sizes(pos_words: np.ndarray, members: np.ndarray, bits, ints, counts) -> np.ndarray:
    """|ge[c]| for c = 1..M: per candidate, the positive tests pooling at least c members.

    ``pos_words`` is word-major, (W, P), and ``members`` the candidates'
    item indices, (M, B).  Per word, adding a member row r sets
    ge[c] |= ge[c-1] & r for c from high to low (``ge`` below is 0-based,
    ge[c] at index c-1), and the sizes are summed from popcounts.
    """
    m = members.shape[0]
    ge, r, tmp = bits[:m], bits[m], bits[m + 1]
    sizes = ints[:m]  # sizes[c-1] = |ge[c]|
    sizes.fill(0)
    for word in pos_words:
        for j, col in enumerate(members):
            word.take(col, out=r, mode="clip")  # mode="raise" copies through a fresh array
            if j:
                np.bitwise_and(ge[j - 1], r, out=ge[j])
                for c in range(j - 1, 0, -1):
                    ge[c] |= np.bitwise_and(ge[c - 1], r, out=tmp)
                ge[0] |= r
            else:
                ge[0] = r
        for size, level in zip(sizes, ge):
            size += np.bitwise_count(level, out=counts)
    return sizes


def _add_term(scores: np.ndarray, count: np.ndarray, coef: float, floats: np.ndarray) -> None:
    """scores += count * coef, with 0 * log2 0 = 0 and count > 0 on -inf giving -inf."""
    if coef == -math.inf:
        scores[count > 0] = -math.inf
    elif coef != 0.0:
        scores += np.multiply(count, coef, out=floats)


def _scores(co: _Coefficients, pool: _Pool, local: np.ndarray) -> np.ndarray:
    """log2 likelihoods of the candidates ``local``, (B, M) indices into the pool."""
    b, m = local.shape
    scores = np.full(b, pool.start)
    weighted = co.participation not in (0.0, -math.inf)  # -inf: every pool item has neg = 0
    floats = itmp = None
    if weighted or co.levels > 1:
        bits, ints, floats, counts = _work_arrays(m, b)
        itmp = ints[m + 1]
        members = np.ascontiguousarray(local.T, dtype=np.intp)
    if weighted:
        weight = ints[m]
        weight.fill(0)
        for col in members:
            weight += pool.neg.take(col, out=itmp, mode="clip")
        _add_term(scores, weight, co.participation, floats)
    if co.levels == 1:
        sizes = popcount(np.bitwise_or.reduce(pool.pos[local], axis=1))[None]
    elif co.levels:
        sizes = _level_sizes(pool.pos, members, bits, ints, counts)
    if co.levels:
        _add_term(scores, np.subtract(pool.n_pos, sizes[0], out=itmp), co.positive[0], floats)
    if co.full:
        for c in range(1, m + 1):
            exact = np.subtract(sizes[c - 1], sizes[c], out=itmp) if c < m else sizes[c - 1]
            _add_term(scores, exact, co.positive[c], floats)
    return scores


def log_likelihood(
    codebook: Codebook,
    candidate_set: DefectiveSet,
    outcome: OutcomeVector,
    noise_model: NoiseModel,
) -> float:
    """log2 P(outcome | candidate_set) under the channel's per-test law.

    The terms are combined from the candidate's integer statistics exactly
    as ``ml_decode`` scores them (see the module docstring), so equal
    statistics score bit-identically.
    """
    if outcome.n_tests != codebook.n_tests:
        raise ParameterError(
            f"outcome has {outcome.n_tests} tests but codebook has {codebook.n_tests}"
        )
    idx = _check_members(codebook, candidate_set)
    co = _coefficients(noise_model, idx.size)
    pool = _pool(co, codebook.words[idx], codebook.n_tests, outcome.words)
    if pool.size < idx.size:
        return -math.inf
    return float(_scores(co, pool, np.arange(idx.size)[None, :])[0])


@lru_cache(maxsize=8)
def _combo_table(n: int, k: int) -> np.ndarray:
    """All K-combinations of range(n) in lexicographic order, as an (M, k) int32 array."""
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), k)),
        dtype=np.int32,
        count=math.comb(n, k) * k,
    )
    return combos.reshape(-1, k)


def _combo_chunks(n: int, k: int, chunk: int = _CHUNK):
    """Yield lexicographic combination blocks as (B, k) int arrays."""
    total = math.comb(n, k)
    if total <= _CACHE_LIMIT:
        table = _combo_table(n, k)
        for start in range(0, total, chunk):
            yield table[start : start + chunk]
        return
    it = itertools.combinations(range(n), k)
    while True:
        block = list(itertools.islice(it, chunk))
        if not block:
            return
        yield np.asarray(block, dtype=np.int32)


@dataclass
class _ScanState:
    """Running (max score, first argmax, count at max) over ordered chunks."""

    best: float = -math.inf
    best_idx: np.ndarray | None = None
    at_max: int = 0

    def update(self, scores: np.ndarray, idx: np.ndarray) -> None:
        finite = scores > -math.inf
        if not finite.any():
            return
        m = float(scores[finite].max())
        if m > self.best:
            self.best = m
            hits = np.flatnonzero(scores == m)
            self.best_idx = np.array(idx[hits[0]])
            self.at_max = int(hits.size)
        elif m == self.best:
            self.at_max += int((scores == m).sum())

    def result(self, items: np.ndarray | None, k: int, n_evaluated: int) -> DecodeResult:
        """The decode result, with the argmax mapped from pool positions to ``items``."""
        if self.best_idx is None:
            return DecodeResult(DefectiveSet(tuple(range(k))), -math.inf, False, n_evaluated)
        best = self.best_idx if items is None else items[self.best_idx]
        best_set = DefectiveSet(tuple(int(v) for v in best))
        return DecodeResult(best_set, self.best, self.at_max >= 2, n_evaluated)


def ml_decode(
    codebook: Codebook,
    outcome: OutcomeVector,
    k: int,
    noise_model: NoiseModel,
    budget: int = DEFAULT_BUDGET,
) -> DecodeResult:
    """Scan all C(N, K) candidate sets; return the first maximizer and a tie flag.

    ``n_evaluated`` reports the logical scan size C(N, K); candidates ruled
    out in bulk (score provably -inf) are scored as a class, which does not
    change the maximizer, the tie flag, or determinism.
    """
    if outcome.n_tests != codebook.n_tests:
        raise ParameterError(
            f"outcome has {outcome.n_tests} tests but codebook has {codebook.n_tests}"
        )
    if not 1 <= k <= codebook.n_items:
        raise ParameterError(f"need 1 <= K <= N, got K={k}, N={codebook.n_items}")
    total = math.comb(codebook.n_items, k)
    if total > budget:
        raise CapacityError(
            f"decoding needs {total} set evaluations, above the budget of {budget}; "
            f"pass budget={total} to force the scan"
        )
    co = _coefficients(noise_model, k)
    pool = _pool(co, codebook.words, codebook.n_tests, outcome.words)
    state = _ScanState()
    if pool.size >= k:
        for local in _combo_chunks(pool.size, k):
            state.update(_scores(co, pool, local), local)
    return state.result(pool.items, k, total)


def dump_decode_trace(
    codebook: Codebook,
    outcome: OutcomeVector,
    k: int,
    noise_model: NoiseModel,
    path,
    budget: int = DEFAULT_BUDGET,
) -> None:
    """Debug dump: one CSV row (candidate, log2 likelihood) per candidate set.

    Scores every set through the public single-set scorer, so this is slow
    and meant for small instances only."""
    total = math.comb(codebook.n_items, k)
    if total > budget:
        raise CapacityError(f"trace would cover {total} sets, above the budget of {budget}")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["candidate", "log2_likelihood"])
        for members in itertools.combinations(range(codebook.n_items), k):
            score = log_likelihood(codebook, DefectiveSet(members), outcome, noise_model)
            writer.writerow([" ".join(map(str, members)), score])
