"""Exhaustive maximum-likelihood decoding over all K-subsets.

The decoder scans every candidate set, scores each with the log-likelihood
of the observed outcomes, and returns the lexicographically first
maximizer.  A tie is any other candidate attaining the same maximum under
exact comparison; candidates with likelihood exactly zero (score -inf)
never participate in tie detection.  Every scan visits the candidates in
lexicographic order, so the first maximizer it meets is the answer.  They
come from one combination table per K, kept for the largest pool seen: the
K-sets of range(n) are its last C(n, K) rows, shifted down by the
difference of the two ranges.  Pools above the table limit are scanned
from ``itertools``, in the same order.

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
  -inf, so only the pool, the items whose rows the outcome covers (the
  COMP set), is enumerated.  A pool of K items is the truth, decoded untied;
* when log2 q = -inf (q = 0: noise-free and dilution) a candidate leaving
  a positive test unpooled scores -inf, so only the candidates whose OR is
  every positive test are kept and scored.  Their n+[0] is 0.  When q > 0,
  n+[0] is n+ minus the popcount of the OR.  If u = 0 too, every
  finite-likelihood set holds the definite defectives (pool items alone in
  the pool of a test, DD's first step), so K of them are the truth, untied;
* n+[1..K] come from a bit-sliced recurrence over K threshold levels,
  built only when some coefficient of n+[1..K] is nonzero, which happens
  only under dilution.  The OR level holds every positive test of a kept
  candidate, so it is not counted again.

``_decided`` applies those two rules to trials without a scan.

Scoring is deterministic, so results are identical across platforms and
runs.
"""

from __future__ import annotations

import itertools
import math
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
    _check_integers,
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
    _check_integers(K=k)
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


def _in_pool(words: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """Whether each row of ``words`` (..., N, W) is in no test of ``negative``
    (..., W): the u = 0 pool.  The words' bits past T must be clear.  Hits
    are ORed a word at a time (numpy reduces slowly over a short axis)."""
    if not negative.shape[-1]:
        return np.ones(words.shape[:-1], dtype=bool)  # T = 0: no negative test
    hits = words[..., 0] & negative[..., None, 0]
    for w in range(1, negative.shape[-1]):
        hits |= words[..., w] & negative[..., None, w]
    return hits == 0


def _decided(words: np.ndarray, outcomes: np.ndarray, k: int,
             noise_model: NoiseModel) -> np.ndarray:
    """Whether each trial is decided: its decode, by the module docstring's
    rules, is its truth.  ``words`` (trials, N, W) and ``outcomes``
    (trials, W) are packed as a ``Codebook``'s and an ``OutcomeVector``'s
    are, with no bit set past T.  No word is read when log2 u is finite;
    definite defectives are read off the packed pool rows, unpacking none."""
    co = _coefficients(noise_model, k)
    if co.participation != -math.inf:
        return np.zeros(len(outcomes), dtype=bool)
    in_pool = _in_pool(words, ~outcomes)
    pool = np.count_nonzero(in_pool, axis=1)
    if co.positive[0] == -math.inf:
        rest = np.flatnonzero(pool > k)  # a pool of K is decided already
        rows = np.where(in_pool[rest, :, None], words[rest], np.uint64(0))
        seen = np.bitwise_or.accumulate(rows, axis=1)
        # a row meeting the OR of the rows before it marks tests of 2+ pool items
        alone = seen[:, -1] & ~np.bitwise_or.reduce(rows[:, 1:] & seen[:, :-1], axis=1)
        definite = np.count_nonzero(~_in_pool(rows, alone), axis=1)
        pool[rest[definite == k]] = k
    return pool == k


class _Pool(NamedTuple):
    """What scoring needs of one outcome, over the items a scan enumerates.

    ``items`` maps pool positions to item indices.  ``pos`` holds the pool's
    rows masked to the positive tests, word-major (W, P).  ``neg`` is each
    item's count of negative tests, None when log2 u = -inf prunes to the
    pool.  ``y`` is the outcome's words as a (W, 1) column, and ``start``
    the n- term, the same for every candidate.
    """

    items: np.ndarray
    pos: np.ndarray
    neg: np.ndarray | None
    y: np.ndarray
    n_pos: int
    start: float


def _pool(co: _Coefficients, words: np.ndarray, n_tests: int, y_words: np.ndarray) -> _Pool:
    n_pos = int(popcount(y_words))
    n_neg = n_tests - n_pos
    start = 0.0 + n_neg * co.negative if n_neg and co.negative else 0.0
    if co.participation == -math.inf:
        # a member pooled in a negative test scores -inf; the pool rows are
        # already masked to the positive tests
        items = np.flatnonzero(_in_pool(words, ~y_words))
        rows, neg = words[items], None
    else:
        items = np.arange(words.shape[0])
        rows, neg = words & y_words, popcount(words & ~y_words)
    return _Pool(items, np.ascontiguousarray(rows.T), neg, y_words[:, None], n_pos, start)


def _positive_counts(rows: np.ndarray, n_pos: int) -> np.ndarray:
    """n+[c] for c = 1..M, (M, B): each covering candidate's positive tests
    pooling exactly c members.

    ``rows`` holds the candidates' member rows masked to the positive tests,
    (W, M, B).  Per word, the levels ge[c] (the tests pooling at least c
    members, at index c-1 of ``ge`` below) start from the first member row,
    and each further row r updates every level at once: ge[c] |= ge[c-1] & r
    for c >= 2 reads the levels as they were before r, then ge[1] |= r.
    |ge[c]| is summed from popcounts, and n+[c] = |ge[c]| - |ge[c+1]|.
    ge[1], the OR, is every positive test, so |ge[1]| = n_pos.
    """
    _, m, b = rows.shape
    sizes = np.zeros((m + 1, b), dtype=np.int64)  # sizes[c-1] = |ge[c]|, and 0 past ge[M]
    sizes[0] = n_pos
    ge = np.empty((m, b), dtype=np.uint64)
    for word in rows:
        ge[0] = word[0]
        ge[1:] = 0
        for r in word[1:]:
            ge[1:] |= ge[:-1] & r
            ge[0] |= r
        sizes[1:m] += np.bitwise_count(ge[1:])
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
    rows = pool.pos.take(local.T, axis=1)
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
    if pool.items.size < idx.size:
        return -math.inf
    scores, _ = _scores(co, pool, np.arange(idx.size)[None, :])
    return float(scores[0]) if scores.size else -math.inf


# K -> the K-combinations of range(n) in lexicographic order, for the largest n seen
_combo_tables: dict[int, np.ndarray] = {}


def _combo_chunks(n: int, k: int):
    """Yield blocks of all K-combinations of range(n), in lexicographic
    order, as (B, k) int32 arrays.

    Up to ``_CACHE_LIMIT`` sets they are read from the table for the largest
    range seen, n_max, whose last C(n, k) rows are the K-sets of
    range(n_max - n, n_max).
    """
    total = math.comb(n, k)
    if total > _CACHE_LIMIT:
        it = itertools.combinations(range(n), k)
        while block := list(itertools.islice(it, _CHUNK)):
            yield np.asarray(block, dtype=np.int32)
        return
    table = _combo_tables.get(k)
    if table is None or table.shape[0] < total:
        table = _combo_tables[k] = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(n), k)),
            dtype=np.int32,
            count=total * k,
        ).reshape(-1, k)
    shift = int(table[-1, -1]) + 1 - n  # n_max - n: the last row is range(n_max - k, n_max)
    for start in range(table.shape[0] - total, table.shape[0], _CHUNK):
        block = table[start : start + _CHUNK]
        yield block - shift if shift else block


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
    best, first, at_max = -math.inf, None, 0  # max score, its first set, the sets scoring it
    if pool.items.size >= k:  # a smaller pool would build an empty table
        for local in _combo_chunks(pool.items.size, k):
            scores, local = _scores(co, pool, local)
            if not scores.size:
                continue
            i = int(scores.argmax())
            m = float(scores[i])
            if m == -math.inf or m < best:
                continue
            hits = int(np.count_nonzero(scores == m))
            if m > best:
                best, first, at_max = m, local[i], hits
            else:
                at_max += hits
    if first is None:
        return DecodeResult(DefectiveSet(tuple(range(k))), -math.inf, False, total)
    best_set = DefectiveSet(tuple(int(v) for v in pool.items[first]))
    return DecodeResult(best_set, best, at_max >= 2, total)
