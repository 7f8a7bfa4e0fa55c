"""Exhaustive maximum-likelihood decoding over all K-subsets.

The decoder scans every candidate set, scores each with the log-likelihood
of the observed outcomes, and returns the lexicographically first
maximizer.  A tie is any other candidate attaining the same maximum under
exact comparison; candidates with likelihood exactly zero (score -inf)
never participate in tie detection.  The result does not depend on scan
order: candidates come in colex order from one combination table per K,
kept for the largest pool seen, whose first C(n, K) rows are the
combinations of range(n); pools above the table limit are scanned
lexicographically from ``itertools``.

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
on the packed rows: each chunk of candidates gathers its member rows,
masked to the positive tests, and ORs them once.  The law decides how much
more is computed, without changing any score:

* when log2 u = -inf a member pooled in a negative test makes the score
  -inf, so only the items whose rows the outcome covers are enumerated;
* when log2 q = -inf (q = 0: noise-free and dilution) a candidate leaving
  a positive test unpooled scores -inf, so only the candidates whose OR is
  every positive test are kept and scored.  Their n+[0] is 0.  When q > 0,
  n+[0] is n+ minus the popcount of the OR;
* n+[1..K] come from a bit-sliced recurrence over K threshold levels,
  built only when some coefficient of n+[1..K] is nonzero, which happens
  only under dilution.  The OR level holds every positive test of a kept
  candidate, so it is not counted again.

Scoring is deterministic, so results are identical across platforms and
runs.
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
    _atomic_text,
    _check_members,
)

BUDGET = 10**8  # the most K-sets an exhaustive enumeration may visit
_CHUNK = 8192
_CACHE_LIMIT = 1 << 21  # combination tables up to ~2M rows are kept


@dataclass(frozen=True)
class DecodeResult:
    best_set: DefectiveSet
    log_likelihood: float
    tie: bool
    n_evaluated: int


def _enumeration_size(n_items: int, k: int) -> int:
    """C(n_items, k), the K-sets an exhaustive scan visits; CapacityError above ``BUDGET``."""
    total = math.comb(n_items, k)
    if total > BUDGET:
        raise CapacityError(
            f"enumerating the {total} {k}-sets of {n_items} items exceeds the budget of {BUDGET}"
        )
    return total


def _check_tests(codebook: Codebook, outcome: OutcomeVector) -> None:
    if outcome.n_tests != codebook.n_tests:
        raise ParameterError(
            f"outcome has {outcome.n_tests} tests but codebook has {codebook.n_tests}"
        )


def _check_decode(codebook: Codebook, outcome: OutcomeVector, k: int) -> int:
    """The domain of a K-set scan, checked before it enumerates or writes
    anything: matching test counts and 1 <= K <= N.  Returns C(N, K), the
    sets it visits, within ``BUDGET``."""
    _check_tests(codebook, outcome)
    if not 1 <= k <= codebook.n_items:
        raise ParameterError(f"need 1 <= K <= N, got K={k}, N={codebook.n_items}")
    return _enumeration_size(codebook.n_items, k)


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
    is nonzero, and then a candidate's statistics need k threshold levels.
    Only dilution (u > 0) sets it, and its q = 0 makes ``positive[0]``
    -inf, so the candidates that get the levels pool every positive test.
    """

    negative: float
    participation: float
    positive: tuple[float, ...]
    full: bool


@lru_cache(maxsize=64)  # building them takes ~15 us, a quarter of a small pruned decode
def _coefficients(noise_model: NoiseModel, k: int) -> _Coefficients:
    q, u = noise_model.law
    positive = tuple(_log2(float(v)) for v in noise_model.positive_probability(np.arange(k + 1)))
    return _Coefficients(_log2(1.0 - q), _log2(u), positive, any(positive[1:]))


# Per-thread block for the member rows _scores gathers, kept across chunks
# and decodes.  Fresh arrays of ~1 MB per chunk make malloc trim the heap top
# and grow it again, and the page faults that follow cost K-level scans
# about a third of their speed.
_scratch = threading.local()


def _gather_block(w: int, m: int, b: int) -> np.ndarray:
    """This thread's (w, m, b) uint64 block."""
    block = getattr(_scratch, "block", None)
    if block is None or block.size < w * m * b:
        block = _scratch.block = np.empty(w * m * b, dtype=np.uint64)
    return block[: w * m * b].reshape(w, m, b)


class _Pool(NamedTuple):
    """What scoring needs of one outcome, over the items a scan enumerates.

    ``items`` maps pool positions to item indices (None: every item, in
    order) and ``size`` counts them.  ``pos`` holds the pool's rows masked
    to the positive tests, word-major (W, P).  ``neg`` is each item's count
    of negative tests, read only when log2 u is finite and every item is in
    the pool.  ``y`` is the outcome's words as a (W, 1) column, and
    ``start`` the n- term, the same for every candidate.
    """

    items: np.ndarray | None
    size: int
    pos: np.ndarray
    neg: np.ndarray
    y: np.ndarray
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
    return _Pool(items, rows.shape[0], np.ascontiguousarray(rows.T), neg, y_words[:, None],
                 n_pos, start)


def _positive_counts(rows: np.ndarray, n_pos: int) -> np.ndarray:
    """n+[c] for c = 1..M, (M, B): each covering candidate's positive tests
    pooling exactly c members.

    ``rows`` holds the candidates' member rows masked to the positive tests,
    (W, M, B), and is overwritten.  Per word, adding a member row r sets
    ge[c] |= ge[c-1] & r for c from high to low (``ge`` below is 0-based,
    ge[c] at index c-1), and |ge[c]| is summed from popcounts;
    n+[c] = |ge[c]| - |ge[c+1]|.  ge[1], the OR, is every positive test, so
    |ge[1]| = n_pos.
    """
    _, m, b = rows.shape
    sizes = np.zeros((m + 1, b), dtype=np.int64)  # sizes[c-1] = |ge[c]|, and 0 past ge[M]
    sizes[0] = n_pos
    if m > 1:
        levels = np.empty((m, b), dtype=np.uint64)
        ge = [None, *levels[1:]]
        tmp = levels[0]
        for word in rows:
            ge[0] = word[0]
            for j in range(1, m):
                r = word[j]
                np.bitwise_and(ge[j - 1], r, out=ge[j])
                for c in range(j - 1, 0, -1):
                    ge[c] |= np.bitwise_and(ge[c - 1], r, out=tmp)
                if j < m - 1:
                    ge[0] |= r
            sizes[1:m] += np.bitwise_count(levels[1:])
    return sizes[:m] - sizes[1:]


def _add_term(scores: np.ndarray, count: np.ndarray, coef: float) -> None:
    """scores += count * coef, with 0 * log2 0 = 0 and count > 0 on -inf giving -inf."""
    if coef == -math.inf:
        scores[count > 0] = -math.inf
    elif coef != 0.0:
        scores += count * coef


def _scores(co: _Coefficients, pool: _Pool, local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(scores, candidates): log2 likelihoods of the candidates ``local``,
    (B, M) indices into the pool.

    When q = 0 only the candidates whose members pool every positive test
    are scored and returned: n+[0] log2 q = -inf scores every other
    candidate -inf.
    """
    b, m = local.shape
    rows = _gather_block(pool.pos.shape[0], m, b)
    pool.pos.take(local.T, axis=1, out=rows, mode="clip")  # mode="raise" copies through a fresh array
    union = np.bitwise_or.reduce(rows, axis=1)
    if co.positive[0] == -math.inf:
        keep = np.logical_and.reduce(union == pool.y, axis=0).nonzero()[0]
        if keep.size < b:
            local, rows = local.take(keep, axis=0), rows.take(keep, axis=2)
        scores = np.full(keep.size, pool.start)
    else:
        scores = np.full(b, pool.start)
        _add_term(scores, pool.n_pos - popcount(union, axis=0), co.positive[0])
    if co.full and scores.size:
        if co.participation:
            _add_term(scores, np.add.reduce(pool.neg.take(local), axis=1), co.participation)
        for coef, count in zip(co.positive[1:], _positive_counts(rows, pool.n_pos)):
            _add_term(scores, count, coef)
    return scores, local


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
    _check_tests(codebook, outcome)
    idx = _check_members(codebook, candidate_set)
    co = _coefficients(noise_model, idx.size)
    pool = _pool(co, codebook.words[idx], codebook.n_tests, outcome.words)
    if pool.size < idx.size:
        return -math.inf
    scores, _ = _scores(co, pool, np.arange(idx.size)[None, :])
    return float(scores[0]) if scores.size else -math.inf


# K -> the K-combinations of range(n) in colex order, for the largest n seen
_combo_tables: dict[int, np.ndarray] = {}


def _combo_table(n: int, k: int) -> np.ndarray:
    """All K-combinations of range(n) in colex order, as a (C(n, k), k) int32 array."""
    total = math.comb(n, k)
    table = _combo_tables.get(k)
    if table is None or table.shape[0] < total:
        lex = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(n), k)),
            dtype=np.int32,
            count=total * k,
        ).reshape(-1, k)
        # complementing i -> n-1-i turns lex order into reversed colex order
        table = np.ascontiguousarray(n - 1 - lex[::-1, ::-1])
        _combo_tables[k] = table
    return table[:total]


def _combo_chunks(n: int, k: int):
    """Yield blocks of all K-combinations of range(n) as (B, k) int arrays."""
    total = math.comb(n, k)
    if total <= _CACHE_LIMIT:
        table = _combo_table(n, k)
        for start in range(0, total, _CHUNK):
            yield table[start : start + _CHUNK]
        return
    it = itertools.combinations(range(n), k)
    while True:
        block = list(itertools.islice(it, _CHUNK))
        if not block:
            return
        yield np.asarray(block, dtype=np.int32)


@dataclass
class _ScanState:
    """Running (max score, lexicographically first argmax, count at max) over
    chunks scanned in any order."""

    best: float = -math.inf
    best_idx: np.ndarray | None = None
    at_max: int = 0

    def update(self, scores: np.ndarray, idx: np.ndarray) -> None:
        m = float(scores.max())
        if m == -math.inf or m < self.best:
            return
        hits = np.flatnonzero(scores == m)
        lead = hits  # the lexicographic minimum, narrowed one column at a time
        for column in idx.T:
            if lead.size == 1:
                break
            values = column[lead]
            lead = lead[values == values.min()]
        first = idx[lead[0]]
        if m > self.best:
            self.best, self.best_idx, self.at_max = m, first, hits.size
        else:
            self.at_max += hits.size
            if tuple(first) < tuple(self.best_idx):
                self.best_idx = first

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
) -> DecodeResult:
    """Scan all C(N, K) candidate sets; return the lexicographically first
    maximizer and a tie flag.

    ``n_evaluated`` reports the logical scan size C(N, K); candidates ruled
    out in bulk (score provably -inf) are scored as a class, which does not
    change the maximizer, the tie flag, or determinism.
    """
    total = _check_decode(codebook, outcome, k)
    co = _coefficients(noise_model, k)
    pool = _pool(co, codebook.words, codebook.n_tests, outcome.words)
    state = _ScanState()
    if pool.size >= k:
        for local in _combo_chunks(pool.size, k):
            scores, local = _scores(co, pool, local)
            if scores.size:
                state.update(scores, local)
    return state.result(pool.items, k, total)


def dump_decode_trace(
    codebook: Codebook,
    outcome: OutcomeVector,
    k: int,
    noise_model: NoiseModel,
    path,
) -> None:
    """Debug dump: one CSV row (candidate, log2 likelihood) per candidate set.

    Scores every set through the public single-set scorer, so this is slow
    and meant for small instances only.  Checks its inputs as ``ml_decode``
    does before it writes, and replaces ``path`` atomically."""
    _check_decode(codebook, outcome, k)
    with _atomic_text(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["candidate", "log2_likelihood"])
        for members in itertools.combinations(range(codebook.n_items), k):
            score = log_likelihood(codebook, DefectiveSet(members), outcome, noise_model)
            writer.writerow([" ".join(map(str, members)), score])
