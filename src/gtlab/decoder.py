"""Exhaustive maximum-likelihood decoding over all K-subsets.

The decoder scans every candidate set, scores each with the log-likelihood
of the observed outcomes, and returns the lexicographically first
maximizer.  A tie is any other candidate attaining the same maximum under
exact comparison; candidates with likelihood exactly zero (score -inf)
never participate in tie detection, and when every candidate scores -inf
the answer is the first K-set, at -inf, untied (``_unscored``, where both
folds start).  Every scan visits the candidates in lexicographic order
(``_combo_chunks``), so the first maximizer it meets is the answer.

Scores read the channel law of ``model``, P(Y=0 | c) = (1-q) * u**c for a
test pooling c candidate members.  A candidate reduces to integer
statistics: n- (negative tests), w- (member participations in negative
tests), n+[0] (positive tests pooling no member) and n+[c] (positive tests
pooling exactly c members, c = 1..K).  Its score adds, from 0.0 and in this
order,

    n- log2(1-q),  w- log2 u,  n+[0] log2 q,  n+[c] log2(1 - (1-q) u**c),

with 0 * log2 0 = 0, and any positive count on a -inf coefficient scores
-inf (``_add_term``, for every term).  Candidates with equal statistics
therefore get bit-identical scores and the tie rule is exact on every
channel; the single-set scorer ``log_likelihood`` runs the same code.  The
statistics come from popcounts on the packed rows.  The law decides how
much more is computed, without changing any score:

* when log2 u = -inf a member pooled in a negative test makes the score
  -inf, so only the pool, the items whose rows the outcome covers (the
  COMP set), is enumerated, and a pool of K items is one candidate.
  ``_pool_masks`` alone makes this decision, for reads and single calls
  alike, and ``_pool`` takes its mask;
* when log2 q = -inf (q = 0: noise-free and dilution) a candidate leaving
  a positive test unpooled scores -inf, so only the candidates whose OR is
  every positive test are kept and scored.  Their n+[0] is 0.  When q > 0,
  n+[0] is n+ minus the popcount of the OR;
* n+[1..K] come from a bit-sliced recurrence over K threshold levels,
  built only when some coefficient of n+[1..K] is nonzero, which happens
  only under dilution.  The OR level holds every positive test of a kept
  candidate, so it is not counted again.

There is one scan, ``_scan``, of a group of trials that enumerate as many
items, P.  ``_decode_pools`` decodes every trial of a block in groups
(by pool size when log2 u = -inf, all of them together under dilution),
and ``ml_decode`` is the scan of a group of one trial.  No trial is
decided without a scan.  A gather keeps only the candidates that can
still be a maximizer (``_cover``, with one branch per law of q), and
``_Best`` scores the kept pairs of many trials and chunks together and
folds them in candidate order, so the first-maximizer and tie rules hold
across chunks and passes.  ``ml_decode`` folds each gather of its one
trial with an argmax instead, which costs a small decode less than
``_Best`` would.

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


def _pool_masks(words: np.ndarray, outcomes: np.ndarray, k: int,
                noise_model: NoiseModel) -> np.ndarray | None:
    """Each trial's u = 0 pool, (trials, N), from ``words`` (trials, N, W)
    and ``outcomes`` (trials, W), packed as a ``Codebook``'s and an
    ``OutcomeVector``'s are, with no bit set past T; None when log2 u is
    finite, where no item is pruned and no word is read."""
    if _coefficients(noise_model, k).participation != -math.inf:
        return None
    return _in_pool(words, ~outcomes)


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
          in_pool: np.ndarray | None) -> _Pool:
    """The ``_Pool`` of the outcomes ``y_words`` (G, W) on ``words`` (G, N, W).

    ``in_pool`` is their ``_pool_masks``, which alone decides the prune:
    with a mask (G, N) the pool holds each trial's u = 0 pool, and every
    trial's pool has as many items; with None it holds every item.
    """
    g, n, w = words.shape
    n_pos = popcount(y_words)
    start = np.zeros(g)
    _add_term(start, n_tests - n_pos, co.negative)
    y = y_words[:, None, :]
    if in_pool is None:
        items = np.arange(n)[None].repeat(g, axis=0)
        rows, neg = words & y, popcount(words & ~y)
    else:
        # a member pooled in a negative test scores -inf; the pool rows are
        # already masked to the positive tests
        flat = in_pool.reshape(-1).nonzero()[0]
        items, neg = (flat % n).reshape(g, -1), None
        rows = words.reshape(g * n, w)[flat].reshape(*items.shape, w)
    return _Pool(items, np.ascontiguousarray(rows.transpose(0, 2, 1)), neg,
                 y_words[:, :, None], n_pos, start)


def _positive_counts(rows, n_pos: np.ndarray) -> list:
    """n+[c] for c = 1..M, M arrays of B: each covering candidate's positive
    tests pooling exactly c members.

    ``rows`` yields the candidates' M member rows masked to the positive
    tests, (W, B) each, one member at a time.  The levels ge[c] (the tests
    pooling at least c members, at index c-1 of ``ge`` below) start from
    the first member row, and each further row r adds a level and updates
    the others in place from the top down, so that each reads the level
    below as it was before r: ge[c] |= ge[c-1] & r, then ge[1] |= r.
    n+[c] = |ge[c]| - |ge[c+1]|, from popcounts.  ge[1], the OR, is every
    positive test of its outcome, so |ge[1]| is that outcome's count in
    ``n_pos`` (B,).
    """
    rows = iter(rows)
    ge = [next(rows)]
    for r in rows:
        ge.append(ge[-1] & r)
        for c in range(len(ge) - 2, 0, -1):
            ge[c] |= ge[c - 1] & r
        ge[0] |= r
    sizes = [n_pos] + [popcount(level, axis=0) for level in ge[1:]]
    del ge  # the K - 1 levels go before the counts are built, to hold less at once
    return [a - b for a, b in zip(sizes, sizes[1:])] + sizes[-1:]


def _add_term(scores: np.ndarray, count: np.ndarray, coef: float) -> None:
    """scores += count * coef, with 0 * log2 0 = 0 and count > 0 on -inf giving -inf."""
    if coef == -math.inf:
        scores[count > 0] = -math.inf
    elif coef != 0.0:
        scores += count * coef


def _cover(co: _Coefficients, pool: _Pool, local: np.ndarray, lo: int,
           hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(trial, members, scores) of the candidates ``local``, (B, M) indices
    into each pool, for the pool's trials lo..hi-1, in (trial, candidate)
    row-major order: each kept candidate's trial, its members as positions
    in the G pools laid end to end (G * P), and its score without the
    K-level terms that ``_add_levels`` adds.

    When q = 0 only the candidates whose members pool every positive test
    are kept: n+[0] log2 q = -inf scores every other candidate -inf.  When
    q > 0 only those at their trial's best score among ``local``.  The
    OR of the member rows is taken a member at a time, which holds one
    (hi - lo, W, B) array where a gather of every member row at once would
    hold M of them.
    """
    pos, size = pool.pos[lo:hi], pool.pos.shape[2]
    if local.shape[1]:
        union = pos.take(local[:, 0], axis=2)  # (hi - lo, W, B)
    else:
        union = np.zeros(pos.shape[:2] + (len(local),), dtype=np.uint64)
    for j in range(1, local.shape[1]):
        union |= pos.take(local[:, j], axis=2)
    if co.positive[0] == -math.inf:
        pairs = np.logical_and.reduce(union == pool.y[lo:hi], axis=1).reshape(-1).nonzero()[0]
        trial = pairs // len(local) + lo
        scores = pool.start.take(trial)
    else:
        # q > 0 comes with u = 0 (``_Coefficients``), so these scores are final
        # and a candidate below its trial's best in this gather is no maximizer
        dense = np.repeat(pool.start[lo:hi, None], len(local), axis=1)
        _add_term(dense, pool.n_pos[lo:hi, None] - popcount(union, axis=1), co.positive[0])
        pairs = (dense == dense.max(axis=1, keepdims=True)).reshape(-1).nonzero()[0]
        trial = pairs // len(local) + lo
        scores = dense.reshape(-1).take(pairs)
    members = local.take(pairs % len(local), axis=0) + (trial * size)[:, None]
    return trial, members, scores


def _add_levels(co: _Coefficients, pool: _Pool, trial: np.ndarray, members: np.ndarray,
                scores: np.ndarray) -> None:
    """Add the w- and n+[1..K] terms to the ``scores`` of the candidates
    ``members`` (B, M) of the trials ``trial`` (B,), when the law needs
    them (``co.full``).  Members are positions in the G trials' pools laid
    end to end, G * P in all."""
    if not (co.full and scores.size):
        return
    g, w, size = pool.pos.shape
    if co.participation:
        _add_term(scores, np.add.reduce(pool.neg.reshape(-1).take(members), axis=1),
                  co.participation)
    pos = pool.pos.transpose(1, 0, 2).reshape(w, g * size)
    rows = (pos.take(members[:, j], axis=1) for j in range(members.shape[1]))
    for coef, count in zip(co.positive[1:], _positive_counts(rows, pool.n_pos[trial])):
        _add_term(scores, count, coef)


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
    words, y = codebook.words[idx][None], outcome.words[None]
    pool = _pool(co, words, codebook.n_tests, y, _pool_masks(words, y, idx.size, noise_model))
    if pool.items.shape[1] < idx.size:
        return -math.inf
    trial, members, scores = _cover(co, pool, np.arange(idx.size)[None, :], 0, 1)
    _add_levels(co, pool, trial, members, scores)
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
    if not total:
        return
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


def _unscored(k: int) -> tuple[float, np.ndarray, int]:
    """(best score, first maximizer's items, sets at the best) where both
    folds start, so the answer when no K-set scores above -inf: the first
    K-set, at -inf, untied."""
    return -math.inf, np.arange(k), 0


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
    change the maximizer, the tie flag, or determinism.  The scan is the
    ``_scan`` of a group of one trial, each gather scored and folded by an
    argmax.
    """
    total = _check_decode(codebook, outcome, k)
    co = _coefficients(noise_model, k)
    words, y = codebook.words[None], outcome.words[None]
    pool = _pool(co, words, codebook.n_tests, y, _pool_masks(words, y, k, noise_model))
    best, first, at_max = _unscored(k)  # max score, its first set's items, the sets scoring it
    for trial, members, scores in _scan(co, pool, k):
        _add_levels(co, pool, trial, members, scores)
        i = int(scores.argmax())
        m = float(scores[i])
        if m == -math.inf or m < best:
            continue
        hits = int(np.count_nonzero(scores == m))
        if m > best:
            best, first, at_max = m, pool.items.reshape(-1)[members[i]], hits
        else:
            at_max += hits
    return DecodeResult(DefectiveSet(tuple(first.tolist())), best, at_max >= 2, total)


def _decode_pools(words: np.ndarray, outcomes: np.ndarray, n_tests: int, k: int,
                  noise_model: NoiseModel) -> tuple[np.ndarray, np.ndarray]:
    """``ml_decode``'s set and tie flag for each trial of a block, decoded
    in groups: (sets (B, K), ties (B,)).

    ``words`` (B, N, W) and ``outcomes`` (B, W) hold the block's trials,
    packed as ``_pool_masks`` takes them, whose one call finds every pool.
    The trials are grouped by the number of items they enumerate, P: the
    pool size when log2 u = -inf, else N, so that all of them form one
    group.  A pool of K items is a group of one candidate a trial.  Each
    group is one ``_scan``, and every group's gathers go to one ``_Best``.
    """
    co = _coefficients(noise_model, k)
    in_pool = _pool_masks(words, outcomes, k, noise_model)
    sizes = (np.full(len(outcomes), words.shape[1]) if in_pool is None
             else np.count_nonzero(in_pool, axis=1))
    state = _Best(co, len(outcomes), k)
    order = np.argsort(sizes, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
        pool = _pool(co, words[group], n_tests, outcomes[group],
                     None if in_pool is None else in_pool[group])
        for kept in _scan(co, pool, k):
            state.add(pool, group, kept)
    state.fold()
    return state.first, state.at_max >= 2


def _scan(co: _Coefficients, pool: _Pool, k: int):
    """Yield, a gather at a time, the candidates that ``_cover`` keeps of a
    group of G trials whose pools hold P items each: (trial, members,
    scores), members as positions in the G pools laid end to end.

    The group walks the K-sets of range(P) once, in lexicographic order,
    and gathers each chunk for as many trials at once as keep a gather
    within ``_CHUNK`` (trial, candidate) pairs, so each trial's candidates
    come in lexicographic order.
    """
    g = pool.pos.shape[0]
    for local in _combo_chunks(pool.pos.shape[2], k):
        step = max(1, _CHUNK // len(local))
        for lo in range(0, g, step):
            kept = _cover(co, pool, local, lo, lo + step)
            if kept[2].size:
                yield kept


class _Best:
    """The ML scan's running state of B trials, folded in candidate order.

    Every trial starts at ``_unscored``, as ``ml_decode``'s fold does:
    ``best`` (B,) is each trial's best score so far, -inf until a finite
    one; ``first`` (B, K) the items of the first candidate attaining it,
    the first K-set until then; and ``at_max`` (B,) the candidates
    attaining a finite best, 0 until then.  The gathers of the groups'
    scans wait, and once ``_CHUNK`` of their pairs would be exceeded, or on
    ``fold()``, those of many trials and chunks are scored together, a
    group's in one ``_add_levels``, and folded.  A trial's pairs must arrive in candidate
    order: then the first pair meeting a new best is the first maximizer.
    """

    def __init__(self, co: _Coefficients, count: int, k: int):
        self.co = co
        self.best, self.first, self.at_max = (np.repeat([v], count, axis=0) for v in _unscored(k))
        self._runs: list = []  # (pool, its trials' rows, its gathers), one per group
        self._size = 0

    def add(self, pool: _Pool, rows: np.ndarray, kept: tuple) -> None:
        """Queue a gather ``kept`` of the group whose pool is ``pool`` and
        whose trials are the state's ``rows``."""
        if self._size + kept[2].size > _CHUNK:
            self.fold()
        if not self._runs or self._runs[-1][0] is not pool:
            self._runs.append((pool, rows, []))
        self._runs[-1][2].append(kept)
        self._size += kept[2].size

    def fold(self) -> None:
        """Score the waiting pairs and fold them: a trial whose best rises
        takes the first pair at the new best and the count there, and one
        whose finite best is met again adds the pairs meeting it."""
        scored = []
        for pool, rows, gathers in self._runs:
            trial, members, scores = _joined(gathers)
            gathers.clear()  # frees each gather once it is joined
            _add_levels(self.co, pool, trial, members, scores)
            scored.append((rows[trial], pool.items.reshape(-1).take(members), scores))
        self._runs, self._size = [], 0
        if not scored:
            return
        trial, items, scores = _joined(scored)
        top = self.best.copy()
        np.maximum.at(top, trial, scores)
        hit = ((scores == top[trial]) & (scores != -math.inf)).nonzero()[0]
        rises = top > self.best
        self.best = top
        self.at_max[rises] = 0
        self.at_max += np.bincount(trial[hit], minlength=len(top))
        lead = np.full(len(top), len(scores))
        np.minimum.at(lead, trial[hit], hit)
        self.first[rises] = items[lead[rises]]


def _joined(parts: list) -> tuple:
    """The columns of a list of array tuples, each concatenated; one part
    is returned as it is."""
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(a) for a in zip(*parts))
