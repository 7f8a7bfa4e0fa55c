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

``_decode_pools`` decodes a block of trials at once when log2 u = -inf.
It finds each trial's pool once, groups the trials by pool size P and
scores a group's C(P, K) candidates, read from the one combination
table, with the same scorer, a gather of at most ``_CHUNK`` (trial,
candidate) pairs at a time.  Each trial takes the first maximizer of its
float scores and a tie when two or more candidates attain it, as
``ml_decode`` does.  Only pools with C(P, K) <= ``_CHUNK``, one chunk of
``ml_decode``'s scan, are grouped; the others are left to ``ml_decode``.

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
    """What scoring needs of G outcomes, over the items their scans enumerate.

    The leading axis is the trial, and every trial enumerates as many items,
    P.  ``items`` (G, P) maps pool positions to item indices.  ``pos`` holds
    each trial's enumerated rows masked to its positive tests, word-major
    (G, W, P).  ``neg`` (G, P) is each item's count of negative tests, None
    when log2 u = -inf prunes to the pool.  ``y`` is the outcomes' words as
    (G, W, 1), ``n_pos`` (G,) counts their positive tests, and ``start``
    (G,) is the n- term, the same for every candidate of a trial.
    """

    items: np.ndarray
    pos: np.ndarray
    neg: np.ndarray | None
    y: np.ndarray
    n_pos: np.ndarray
    start: np.ndarray


def _pool(co: _Coefficients, words: np.ndarray, n_tests: int, y_words: np.ndarray,
          in_pool: np.ndarray | None = None) -> _Pool:
    """The ``_Pool`` of the outcomes ``y_words`` (G, W) on ``words`` (G, N, W).

    When log2 u = -inf it holds the u = 0 pool, ``in_pool`` (G, N) when the
    caller has it (else found here), and every trial's pool has as many
    items; otherwise it holds every item.
    """
    g, n, w = words.shape
    n_pos = popcount(y_words)
    start = np.zeros(g)
    if co.negative:  # 0 * log2 0 = 0: a trial with no negative test starts at 0
        n_neg = n_tests - n_pos
        np.multiply(n_neg, co.negative, out=start, where=n_neg > 0)
    y = y_words[:, None, :]
    if co.participation == -math.inf:
        # a member pooled in a negative test scores -inf; the pool rows are
        # already masked to the positive tests
        in_pool = _in_pool(words, ~y_words) if in_pool is None else in_pool
        flat = in_pool.reshape(-1).nonzero()[0]
        items, neg = (flat % n).reshape(g, -1), None
        rows = words.reshape(g * n, w)[flat].reshape(*items.shape, w)
    else:
        items = np.arange(n)[None].repeat(g, axis=0)
        rows, neg = words & y, popcount(words & ~y)
    return _Pool(items, np.ascontiguousarray(rows.transpose(0, 2, 1)), neg,
                 y_words[:, :, None], n_pos, start)


def _positive_counts(rows: np.ndarray, n_pos: np.ndarray) -> np.ndarray:
    """n+[c] for c = 1..M, (M, B): each covering candidate's positive tests
    pooling exactly c members.

    ``rows`` holds the candidates' member rows masked to the positive tests,
    (W, M, B).  Per word, the levels ge[c] (the tests pooling at least c
    members, at index c-1 of ``ge`` below) start from the first member row,
    and each further row r updates every level at once: ge[c] |= ge[c-1] & r
    for c >= 2 reads the levels as they were before r, then ge[1] |= r.
    |ge[c]| is summed from popcounts, and n+[c] = |ge[c]| - |ge[c+1]|.
    ge[1], the OR, is every positive test of its outcome, so |ge[1]| is that
    outcome's count in ``n_pos`` (B,).
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
    """(pairs, scores): log2 likelihoods of the candidates ``local``, (B, M)
    indices into each trial's pool, and where each sits in the (G, B)
    row-major order of (trial, candidate) pairs.

    When q = 0 only the candidates whose members pool every positive test
    are scored and returned: n+[0] log2 q = -inf scores every other
    candidate -inf.  The OR of the member rows is taken a member at a time,
    which holds one (G, W, B) array where a gather of every member row at
    once would hold M of them.
    """
    g, w, size = pool.pos.shape
    if local.shape[1]:
        union = pool.pos.take(local[:, 0], axis=2)  # (G, W, B)
    else:
        union = np.zeros((g, w, len(local)), dtype=np.uint64)
    for j in range(1, local.shape[1]):
        union |= pool.pos.take(local[:, j], axis=2)
    if co.positive[0] == -math.inf:
        pairs = np.logical_and.reduce(union == pool.y, axis=1).reshape(-1).nonzero()[0]
    else:
        pairs = np.arange(g * len(local))
    trial = pairs // len(local)
    scores = pool.start[trial]
    if co.positive[0] != -math.inf:
        uncovered = pool.n_pos[:, None] - popcount(union, axis=1)
        _add_term(scores, uncovered.reshape(-1), co.positive[0])
    if co.full and scores.size:
        # each member's position in the trials' pools laid end to end
        members = local.take(pairs % len(local), axis=0) + (trial * size)[:, None]
        if co.participation:
            count = np.add.reduce(pool.neg.reshape(-1).take(members), axis=1)
            _add_term(scores, count, co.participation)
        levels = pool.pos.transpose(1, 0, 2).reshape(w, g * size).take(members.T, axis=1)
        for coef, count in zip(co.positive[1:], _positive_counts(levels, pool.n_pos[trial])):
            _add_term(scores, count, coef)
    return pairs, scores


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
    pool = _pool(co, codebook.words[idx][None], codebook.n_tests, outcome.words[None])
    if pool.items.shape[1] < idx.size:
        return -math.inf
    _, scores = _scores(co, pool, np.arange(idx.size)[None, :])
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
    pool = _pool(co, codebook.words[None], codebook.n_tests, outcome.words[None])
    size = pool.items.shape[1]
    best, first, at_max = -math.inf, None, 0  # max score, its first set, the sets scoring it
    if size >= k:  # a smaller pool would build an empty table
        for local in _combo_chunks(size, k):
            pairs, scores = _scores(co, pool, local)
            if not scores.size:
                continue
            i = int(scores.argmax())
            m = float(scores[i])
            if m == -math.inf or m < best:
                continue
            hits = int(np.count_nonzero(scores == m))
            if m > best:
                best, first, at_max = m, local[pairs[i]], hits
            else:
                at_max += hits
    if first is None:
        return DecodeResult(DefectiveSet(tuple(range(k))), -math.inf, False, total)
    best_set = DefectiveSet(tuple(int(v) for v in pool.items[0, first]))
    return DecodeResult(best_set, best, at_max >= 2, total)


def _decode_pools(words: np.ndarray, outcomes: np.ndarray, trials: np.ndarray, n_tests: int,
                  k: int, noise_model: NoiseModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ml_decode``'s set and tie flag for each of the block's ``trials``
    whose scan is one chunk, decoded in groups: (sets (B, K), ties (B,),
    scanned (B,)), entry i for trial ``trials[i]``.

    ``words`` and ``outcomes`` hold the block's trials, packed as for
    ``_decided``, and ``trials`` (B,) indexes them.  When log2 u = -inf,
    the trials whose pool of P items has C(P, K) <= ``_CHUNK`` candidates
    are grouped by P, and each group is scored by ``_scores`` from one
    table of candidates, at most ``_CHUNK`` of them (a trial times a
    candidate) a gather.  Each trial takes its first maximizer and a tie
    when two or more candidates attain it; with no finite score, or a pool
    below K, it takes the first K-set, untied.  The other trials, every
    trial when log2 u is finite, are not scanned.
    """
    sets = np.tile(np.arange(k), (len(trials), 1))
    ties = np.zeros(len(trials), dtype=bool)
    scanned = np.zeros(len(trials), dtype=bool)
    co = _coefficients(noise_model, k)
    if co.participation != -math.inf:
        return sets, ties, scanned
    in_pool = _in_pool(words, ~outcomes)[trials]  # the block is not copied
    sizes = np.count_nonzero(in_pool, axis=1)
    order = np.argsort(sizes, kind="stable")  # the trials grouped by pool size
    for group in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
        total = math.comb(int(sizes[group[0]]), k)
        if total > _CHUNK:
            continue
        scanned[group] = True
        if not total:
            continue
        local = next(_combo_chunks(int(sizes[group[0]]), k))
        for lo in range(0, group.size, _CHUNK // total):
            part = group[lo : lo + _CHUNK // total]
            rows, y = words[trials[part]], outcomes[trials[part]]
            pool = _pool(co, rows, n_tests, y, in_pool[part])
            pairs, kept = _scores(co, pool, local)
            scores = np.full((part.size, total), -math.inf)
            scores.reshape(-1)[pairs] = kept
            top = scores.max(axis=1)
            at_max = scores == top[:, None]
            found = top != -math.inf
            first = local[at_max.argmax(axis=1)]
            sets[part[found]] = pool.items[np.arange(part.size)[:, None], first][found]
            ties[part] = found & (np.count_nonzero(at_max, axis=1) >= 2)
    return sets, ties, scanned
