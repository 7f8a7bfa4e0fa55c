"""Exhaustive maximum-likelihood decoding over all K-subsets.

The decoder scans candidate sets in lexicographic index order, scores each
with the per-test log-likelihood of the observed outcomes, and returns the
first maximizer.  A tie is any later candidate attaining the same maximum
under exact comparison; candidates with likelihood exactly zero (score
-inf) never participate in tie detection.

Every score is combined from a candidate's integer test statistics in a
fixed order, so candidates with equal statistics get bit-identical scores
and the tie rule is exact for all three channels.  Dilution reduces a
candidate to w- (member participations in negative tests) and n+[c]
(positive tests pooling exactly c members), counted by popcounts on the
packed rows, and scores it as w- * log2 u plus n+[c] * log2(1 - u**c) for
c = 1..K, added in that order; the single-set scorer shares that code.

Scan order and scoring are deterministic, so results are identical across
platforms and thread counts.  Two exact prunings keep the scan fast
without changing its outcome:

* noise-free and additive channels force every member row of a
  finite-score candidate to be covered by the outcome (a row bit set where
  the outcome is 0 makes the score -inf), so only covered items need
  enumerating;
* for a fixed additive q in (0, 1) the score is a strictly decreasing
  function of the number of uncovered positive tests, an integer, so
  maxima and ties are integer comparisons.
"""

from __future__ import annotations

import csv
import itertools
import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitops import popcount
from .errors import CapacityError, ParameterError
from .model import (
    ADDITIVE,
    DILUTION,
    Codebook,
    DefectiveSet,
    NoiseModel,
    OutcomeVector,
    _check_members,
    _or_words,
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


def _nlog2(count: int, x: float) -> float:
    """count * log2(x) with the conventions 0*log2(0) = 0 and log2(0) = -inf."""
    if count == 0:
        return 0.0
    if x == 0.0:
        return -math.inf
    return count * math.log2(x)


def _dilution_coefficients(u: float, k: int) -> tuple[float, list[float]]:
    """(log2 u, [log2(1 - u**c) for c = 1..k]) for a dilution u in (0, 1)."""
    return math.log2(u), [math.log2(1.0 - u**c) for c in range(1, k + 1)]


# Per-thread work arrays of _dilution_scores, kept across chunks and decodes.
# Fresh arrays of ~1 MB per chunk make malloc trim the heap top and grow it
# again, and the page faults that follow cost dilution trial loops about a
# third of their speed.
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


def _dilution_scores(
    pos_words: np.ndarray,
    neg: np.ndarray,
    members: np.ndarray,
    n_pos: int,
    log_u: float,
    log_surviving: list[float],
) -> np.ndarray:
    """Dilution log2 likelihoods of B candidate sets of M members each.

    ``pos_words`` is word-major, (W, N): word w of every item's row masked
    to the positive tests.  ``neg`` holds each item's count of negative
    tests and ``members`` the candidates' item indices, (M, B).  Per word, a
    bit-sliced threshold recurrence over the members builds ge[c], the
    positive tests pooling at least c members: adding a member row r sets
    ge[c] |= ge[c-1] & r for c from high to low (``ge`` below is 0-based,
    ge[c] at index c-1).  A candidate thus reduces to integer statistics,
    w- (member participations in negative tests) and
    n+[c] = |ge[c]| - |ge[c+1]| (positive tests pooling exactly c members).
    The score is summed from 0.0 in the fixed order w- * log2 u, then
    n+[c] * log2(1 - u**c) for c = 1..M, so equal statistics give
    bit-identical scores.  A candidate leaving a positive test empty
    (|ge[1]| != n_pos) scores -inf.
    """
    m, b = members.shape
    bits, ints, floats, counts = _work_arrays(m, b)
    ge, r, tmp = bits[:m], bits[m], bits[m + 1]
    sizes, weight, itmp = ints[:m], ints[m], ints[m + 1]  # sizes[c-1] = |ge[c]|
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
    weight.fill(0)
    for col in members:
        weight += neg.take(col, out=itmp, mode="clip")
    scores = np.zeros(b)
    scores += np.multiply(weight, log_u, out=floats)
    for c in range(m):
        exact = np.subtract(sizes[c], sizes[c + 1], out=itmp) if c + 1 < m else sizes[c]
        scores += np.multiply(exact, log_surviving[c], out=floats)
    covered = sizes[0] if m else 0
    scores[covered != n_pos] = -math.inf
    return scores


def log_likelihood(
    codebook: Codebook,
    candidate_set: DefectiveSet,
    outcome: OutcomeVector,
    noise_model: NoiseModel,
) -> float:
    """log2 P(outcome | candidate_set) under the channel's per-test law.

    Noise-free: 0 when the OR of the candidate rows equals the outcome,
    -inf otherwise.  Additive: a positive OR with a negative outcome is
    impossible; otherwise each uncovered positive test contributes
    log2 q and each negative test log2(1-q).  Dilution: with c candidate
    members in a test, a negative outcome contributes c*log2 u and a
    positive one log2(1 - u**c); the terms are combined from the integer
    statistics w- (member participations in negative tests) and n+[c]
    (positive tests pooling exactly c members) in the fixed order
    w- * log2 u, then n+[c] * log2(1 - u**c) for c = 1..|set|, exactly as
    ``ml_decode`` scores them, so equal statistics score bit-identically.
    """
    if outcome.n_tests != codebook.n_tests:
        raise ParameterError(
            f"outcome has {outcome.n_tests} tests but codebook has {codebook.n_tests}"
        )
    idx = _check_members(codebook, candidate_set)
    or_words = _or_words(codebook, idx)
    y_words = outcome.words

    if noise_model.kind == ADDITIVE:
        if popcount(or_words & ~y_words) > 0:
            return -math.inf
        n_pos = int(popcount(y_words))
        n_covered = int(popcount(or_words))
        return _nlog2(n_pos - n_covered, noise_model.q) + _nlog2(
            codebook.n_tests - n_pos, 1.0 - noise_model.q
        )
    if noise_model.kind == DILUTION:
        u = noise_model.u
        if u == 1.0:
            # every participation is erased: only an all-negative outcome is possible
            return 0.0 if int(popcount(y_words)) == 0 else -math.inf
        if u > 0.0:
            rows = codebook.words[idx]
            scores = _dilution_scores(
                (rows & y_words).T,
                popcount(rows & ~y_words),
                np.arange(idx.size)[:, None],
                int(popcount(y_words)),
                *_dilution_coefficients(u, idx.size),
            )
            return float(scores[0])
        # u = 0 erases nothing: the noise-free law
    # noise-free
    return 0.0 if np.array_equal(or_words, y_words) else -math.inf


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


def _first_lex_set(k: int) -> DefectiveSet:
    return DefectiveSet(tuple(range(k)))


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

    def result(self, k: int, n_evaluated: int) -> DecodeResult:
        if self.best_idx is None:
            return DecodeResult(_first_lex_set(k), -math.inf, False, n_evaluated)
        best_set = DefectiveSet(tuple(int(v) for v in self.best_idx))
        return DecodeResult(best_set, self.best, self.at_max >= 2, n_evaluated)


def _covered_items(codebook: Codebook, outcome: OutcomeVector) -> np.ndarray:
    """Items whose rows are bitwise covered by the outcome (row & ~y == 0)."""
    stray = popcount(codebook.words & ~outcome.words[None, :], axis=-1)
    return np.flatnonzero(stray == 0)


def _decode_cover(codebook: Codebook, outcome: OutcomeVector, k: int, total: int) -> DecodeResult:
    """Noise-free law (also additive q=0 and dilution u=0): score 0 iff OR == outcome."""
    pool = _covered_items(codebook, outcome)
    y_pop = int(popcount(outcome.words))
    state = _ScanState()
    if pool.size >= k:
        for local in _combo_chunks(int(pool.size), k):
            rows = codebook.words[pool[local]]
            or_words = np.bitwise_or.reduce(rows, axis=1)
            covered = popcount(or_words, axis=-1) == y_pop
            scores = np.where(covered, 0.0, -math.inf)
            state.update(scores, pool[local])
            # the maximum possible score is 0; once seen, later chunks only add ties
    return state.result(k, total)


def _decode_additive(
    codebook: Codebook, outcome: OutcomeVector, k: int, q: float, total: int
) -> DecodeResult:
    pool = _covered_items(codebook, outcome)
    y_pop = int(popcount(outcome.words))
    base = _nlog2(codebook.n_tests - y_pop, 1.0 - q)
    log_q = math.log2(q)
    state = _ScanState()
    if pool.size >= k:
        for local in _combo_chunks(int(pool.size), k):
            rows = codebook.words[pool[local]]
            or_pop = popcount(np.bitwise_or.reduce(rows, axis=1), axis=-1)
            scores = base + (y_pop - or_pop) * log_q
            state.update(scores, pool[local])
    return state.result(k, total)


def _decode_dilution(
    codebook: Codebook, outcome: OutcomeVector, k: int, u: float, total: int
) -> DecodeResult:
    y_words = outcome.words
    pos_words = np.ascontiguousarray((codebook.words & y_words).T)
    neg = popcount(codebook.words & ~y_words)  # per-item pooled-in-negative count
    n_pos = int(popcount(y_words))
    log_u, log_surviving = _dilution_coefficients(u, k)
    state = _ScanState()
    for idx in _combo_chunks(codebook.n_items, k):
        members = np.ascontiguousarray(idx.T, dtype=np.intp)
        scores = _dilution_scores(pos_words, neg, members, n_pos, log_u, log_surviving)
        state.update(scores, idx)
    return state.result(k, total)


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
    if noise_model.deterministic:
        return _decode_cover(codebook, outcome, k, total)
    if noise_model.kind == ADDITIVE:
        if noise_model.q == 1.0:
            # every test reads positive regardless of the pool: all sets score
            # 0 when the outcome is all ones, -inf otherwise
            all_ones = int(popcount(outcome.words)) == codebook.n_tests
            score = 0.0 if all_ones else -math.inf
            tie = all_ones and total >= 2
            return DecodeResult(_first_lex_set(k), score, tie, total)
        return _decode_additive(codebook, outcome, k, noise_model.q, total)
    if noise_model.u == 1.0:
        all_zero = int(popcount(outcome.words)) == 0
        score = 0.0 if all_zero else -math.inf
        tie = all_zero and total >= 2
        return DecodeResult(_first_lex_set(k), score, tie, total)
    return _decode_dilution(codebook, outcome, k, noise_model.u, total)


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
