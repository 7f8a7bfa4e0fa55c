"""Monte Carlo estimation of decoding error under three criteria.

Every trial is a pure function of (configuration, master_seed, trial
index): a fresh codebook, a uniformly random truth set, and a noise
realization are all drawn from the addressed ``mix64`` stream under
per-trial keys (the truth set by ``_sample_truth``), so estimates do not
depend on the order in which trials run or are drawn, nor on numpy's
sampler streams.  The codebook and channel words of a block of trials
come from one sampler call, and the block is decoded as a whole, in the
calling thread: the decoder's ``_decode_pools`` scans all its trials
in groups, of equal pool size on the u = 0 channels and all of them
together under dilution.  The average and partial
criteria and the per-overlap error profile share one trial stream (one
miss histogram), which makes their comparisons paired.

Codebook and noise cells are addressed by (seed, item, test) and truth
sets by trial alone, so a trial at T is the first T tests of the same
trial at any larger T.  Every estimate draws its trials into one
``_TrialStream`` and reads each T it needs off it: a sweep and the
minimal-T search read every T they probe, and a single estimate is the
one-point sweep.  The stream holds trials x (N+1) x ceil(T/64) 64-bit
words at the largest T drawn, so a single estimate holds all its trials'
words at once.  Extending it holds at most one block of ``_BLOCK_CELLS``
cells of sampler scratch, and a read one block of as many words, masked
to T by one AND.  N, K, T, the trial count and every T of a grid must be
integers (Python or numpy), and are stored as Python ints; p, alpha and the
target must be real numbers, stored as floats.  Any other value raises
``ParameterError``, which the command line reports with exit 2.
A read at T hands every trial to the grouped scan, which returns each
trial's ``ml_decode`` set and tie flag (see the ``decoder`` module
docstring), so every histogram equals the one from calling ``ml_decode``
on every trial.

Error conventions, tallied by ``_misses`` for the reads and the worst case
alike: a trial errs, at its miss distance, when the decoder returns a set
other than the truth or reports a tie (ties count against the decoder).
The partial criterion instead errs only when the decoded set misses more
than alpha*K of the true items; a tie alone is not a partial error.  Each
estimate reads its error count by these rules off its miss histogram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .bitops import WORD_BITS, n_words, pack_bits
from .decoder import _decode_pools, _enumeration_size, ml_decode
from .errors import ParameterError
from .model import (
    Codebook,
    DefectiveSet,
    NoiseModel,
    OutcomeVector,
    _channel_words,
    _check_defectives,
    _check_design,
    _check_integers,
    _check_seed,
    _check_unit,
)
# generate_codebook, apply_channel and noiseless_outcome are not called here;
# bench/probes.py traces them by name in this module
from .model import apply_channel, generate_codebook, noiseless_outcome  # noqa: F401
from .rng import bernoulli_words, mix64, mix64_array

AVERAGE = "average"
WORST_CASE = "worst-case"
PARTIAL = "partial"

_WORST_STREAM = 0x57

# below this error count the normal interval is unusable; switch to exact
_EXACT_CI_THRESHOLD = 5

# codebook cells per sampler call: at about 17 bytes of scratch a cell (the
# mixed words and one temporary), a block fits a 2 MB L2 cache; the scan
# behind the value is in BENCH_10.json
_BLOCK_CELLS = 1 << 16

ESTIMATE_CSV_HEADER = [
    "criterion", "N", "K", "T", "p", "channel", "param", "alpha",
    "trials", "errors", "p_hat", "ci", "seed",
]


@dataclass(frozen=True)
class ErrorEstimate:
    """A binomial point estimate of one error criterion: its configuration
    and ``miss_counts`` (entry i: erring trials missing i true items), off
    which ``errors`` is read by the criterion's rule (the entries i > alpha*K
    for partial, else all) and then ``p_hat`` and ``ci_half_width``."""

    criterion: str
    n_items: int
    n_defectives: int
    n_tests: int
    p: float
    noise: NoiseModel
    alpha: float | None
    trials: int
    miss_counts: tuple[int, ...]
    seed: int

    @property
    def channel(self) -> str:
        return self.noise.kind

    @property
    def param(self) -> float | None:
        return self.noise.param

    @property
    def errors(self) -> int:
        cut = self.alpha * self.n_defectives if self.criterion == PARTIAL else -1
        return sum(c for i, c in enumerate(self.miss_counts) if i > cut)

    @property
    def p_hat(self) -> float:
        return self.errors / self.trials

    @cached_property
    def ci_half_width(self) -> float:
        # the exact interval takes up to 0.2 ms, and find_minimal_t reads it
        # before csv_row does
        return ci_half_width(self.errors, self.trials)

    def csv_row(self) -> list:
        return [
            self.criterion, self.n_items, self.n_defectives, self.n_tests,
            self.p, self.channel,
            "" if self.param is None else self.param,
            "" if self.alpha is None else self.alpha,
            self.trials, self.errors, self.p_hat, self.ci_half_width, self.seed,
        ]


@dataclass(frozen=True)
class MinimalTResult:
    """Outcome of the smallest-T search for a target error rate."""

    target_error: float
    t_star: int | None
    probed: tuple[tuple[int, ErrorEstimate], ...]
    resolution: int

    @property
    def attained(self) -> bool:
        return self.t_star is not None


def ci_half_width(errors: int, trials: int) -> float:
    """95% half-width: normal approximation, or half the exact
    (Clopper-Pearson) interval when either count is below 5.

    The interval at n - x mirrors the one at x, so the half-width is
    computed at x = min(errors, trials - errors) and is the same at both.
    The exact upper limit solves P(Bin(n, p) <= x) = 0.025 and the lower
    one, 0 at x = 0, solves P(Bin(n, p) <= x - 1) = 0.975."""
    _check_integers(errors=errors, trials=trials)
    if trials < 1 or not 0 <= errors <= trials:
        raise ParameterError(f"need 0 <= errors <= trials, got {errors}/{trials}")
    x = min(errors, trials - errors)
    if x < _EXACT_CI_THRESHOLD:
        lo = 0.0 if x == 0 else _binomial_cdf_root(x - 1, trials, 0.975)
        return (_binomial_cdf_root(x, trials, 0.025) - lo) / 2.0
    p_hat = x / trials
    return 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / trials)


def _binomial_cdf_root(x: int, n: int, target: float) -> float:
    """The smallest double p in (0, 1] with P(Bin(n, p) <= x) <= target, for
    0 <= x < n, by bisection down to adjacent doubles; the CDF falls in p."""
    coefficients = [math.comb(n, j) for j in range(x + 1)]
    lo, hi = 0.0, 1.0
    while (mid := (lo + hi) / 2.0) not in (lo, hi):
        log_p, log_q = math.log(mid), math.log1p(-mid)
        cdf = math.fsum(c * math.exp(j * log_p + (n - j) * log_q)
                        for j, c in enumerate(coefficients))
        if cdf > target:
            lo = mid
        else:
            hi = mid
    return hi


def _sample_truth(n_items: int, k: int, truth_keys: np.ndarray) -> np.ndarray:
    """One uniformly random K-subset of range(n_items) per truth key, as
    strictly increasing rows of a (len(truth_keys), K) int64 array.

    Floyd's algorithm (Bentley & Floyd, CACM 1987), run on every row at
    once: step s = 0..K-1 sets j = N-K+s, draws z = mix64(key, s) and maps
    it to t = floor(z * (j+1) / 2**64) in [0, j]; the row takes t, or j if
    t is already in it.  Each subset is equally likely up to the rounding
    of z to [0, j], at most (j+1) / 2**64 relative.  The 32-bit halves of
    z keep t exact in uint64 while j+1 <= 2**32, which the enumeration
    budget (C(N, K) >= N) ensures.
    """
    keys = np.asarray(truth_keys, dtype=np.uint64)
    rows = np.empty((keys.size, k), dtype=np.int64)
    half, low = np.uint64(32), np.uint64(0xFFFFFFFF)
    for s in range(k):
        j = n_items - k + s
        z, m = mix64_array(keys, s), np.uint64(j + 1)
        t = (((z >> half) * m + (((z & low) * m) >> half)) >> half).astype(np.int64)
        rows[:, s] = np.where((rows[:, :s] == t[:, None]).any(axis=1), j, t)
    rows.sort(axis=1)
    return rows


def _blocks(count: int, cells_each: int):
    """Consecutive slices of range(count), each of at most ``_BLOCK_CELLS``
    cells at ``cells_each`` cells an element, and at least one element."""
    step = max(1, _BLOCK_CELLS // max(1, cells_each))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


class _TrialStream:
    """The trials of one configuration, each drawn once and read at any T.

    The stream states the configuration (N, K, p, channel, master seed,
    trials) once and validates it, the enumeration budget included, before
    drawing anything.  Each trial's truth set is drawn once, and its codebook
    and outcome words are kept at the largest T drawn so far: trials x (N+1)
    x ceil(T/64) words.  A larger T draws only the new tests and shifts them
    into place after the old ones; a smaller T reads the masked prefix.  Each
    extension draws a block of trials per sampler call, at most
    ``_BLOCK_CELLS`` codebook cells.  Every random cell is addressed by
    (seed, item, test), so a trial at T is bit-identical to the same trial
    drawn afresh at T, whatever the block or the order of extensions.  A
    read holds one block of trials, at most ``_BLOCK_CELLS`` words masked by
    one AND, while it yields that block.
    """

    def __init__(self, n_items: int, k: int, p: float, noise_model: NoiseModel,
                 master_seed: int, trials: int):
        _check_trials(n_items, k, trials)
        _check_design(n_items, 0, p)
        master_seed = _check_seed(master_seed, "master_seed")
        self.n_items, self.k, self.p = int(n_items), int(k), float(p)
        self.noise_model, self.master_seed, self.trials = noise_model, master_seed, int(trials)
        keys = mix64_array(master_seed, np.arange(trials))
        # (trials, 2): each trial's codebook and noise seeds
        self.seeds = mix64_array(keys[:, None], np.array([0, 2]))
        self.truth_idx = _sample_truth(n_items, k, mix64_array(keys, 1))
        self.n_tests = 0
        self.words = np.zeros((trials, n_items, 0), dtype=np.uint64)
        self.outcomes = np.zeros((trials, 0), dtype=np.uint64)

    def draw(self, n_tests: int):
        """Yield (block, words, outcomes) at n_tests, one block of trials at
        a time in trial order: the block's slice of trials, and their
        codebook words (trials, N, W) and outcome words (trials, W) masked
        to the first n_tests tests by one AND.

        The stream is first drawn up to n_tests.  A block holds at most
        ``_BLOCK_CELLS`` words.
        """
        _check_design(self.n_items, n_tests, self.p)
        if n_tests > self.n_tests:
            self._extend(n_tests)
        keep = pack_bits(np.ones(n_tests, dtype=bool))
        # at least one cell an item: the decoder holds a few per item at T = 0 too
        for block in _blocks(self.trials, self.n_items * max(1, keep.size)):
            words = self.words[block, :, :keep.size] & keep
            yield block, words, self.outcomes[block, :keep.size] & keep

    def _extend(self, n_tests: int) -> None:
        start, shift = divmod(self.n_tests, WORD_BITS)
        grow = n_words(n_tests) - self.outcomes.shape[1]
        if grow:  # padding copies every word, so a probe inside the last word skips it
            self.words = np.pad(self.words, ((0, 0), (0, 0), (0, grow)))
            self.outcomes = np.pad(self.outcomes, ((0, 0), (0, grow)))
        items, tests = np.arange(self.n_items), np.arange(self.n_tests, n_tests)
        for block in _blocks(self.trials, self.n_items * len(tests)):
            seeds, idx = self.seeds[block], self.truth_idx[block]
            rows = bernoulli_words(seeds[:, :1], items, tests, self.p)
            _shift_in(self.words[block, :, start:], rows, shift)
            members = np.take_along_axis(rows, idx[:, :, None], axis=1)
            _shift_in(self.outcomes[block, start:],
                      _channel_words(members, idx, self.noise_model, seeds[:, 1], tests), shift)
        self.n_tests = n_tests


def _shift_in(dest: np.ndarray, new: np.ndarray, shift: int) -> None:
    """OR the packed tests ``new`` into ``dest`` from bit ``shift`` of its
    first word on, one shift-and-OR per word; ``dest``'s bits from there on
    are clear, and it has the words the new tests reach."""
    dest[..., :new.shape[-1]] |= new << np.uint64(shift)
    if shift:
        carry = new[..., :dest.shape[-1] - 1] >> np.uint64(WORD_BITS - shift)
        dest[..., 1:carry.shape[-1] + 1] |= carry


def _miss_histogram(stream: _TrialStream, n_tests: int) -> np.ndarray:
    """Histogram over miss distance of ``stream``'s erring trials at n_tests.

    Each block's trials are decoded together by the decoder's
    ``_decode_pools``."""
    hist = np.zeros(stream.k + 1, dtype=np.int64)
    for block, words, outcomes in stream.draw(n_tests):
        sets, ties = _decode_pools(words, outcomes, n_tests, stream.k, stream.noise_model)
        hist += _misses(stream.truth_idx[block], sets, ties)
    return hist


def _misses(truth: np.ndarray, sets: np.ndarray, ties: np.ndarray) -> np.ndarray:
    """The erring trials by miss distance, K + 1 counts.  Trial i decoded
    ``sets[i]`` (B, K) with tie flag ``ties[i]``; ``truth`` is each trial's
    true set (B, K), or one (K,) for all.  A tie or a wrong set errs, at
    its count of true items absent from the decoded set."""
    missed = np.count_nonzero((truth[..., :, None] != sets[:, None, :]).all(axis=2), axis=1)
    return np.bincount(missed[ties | (missed > 0)], minlength=truth.shape[-1] + 1)


def _collect_histogram(n_items, k, n_tests, p, noise_model, trials, master_seed,
                       stream: _TrialStream) -> np.ndarray:
    """``_miss_histogram(stream, n_tests)``.

    The first seven parameters restate ``stream``'s configuration and are
    not read here: bench/probes.py wraps this function and reads them by
    position to count the trials of each (configuration, T).
    """
    return _miss_histogram(stream, n_tests)


def _check_trials(n_items: int, k: int, trials: int) -> None:
    """The Monte Carlo domain, checked before any codebook or trial is
    drawn, in this order: trials >= 1, 1 <= K < N, and C(N, K) within the
    enumeration budget."""
    _check_integers(trials=trials)
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    _check_defectives(n_items, k)
    _enumeration_size(n_items, k)


def _check_grid(n_items: int, p: float, t_grid) -> list:
    """``t_grid`` as a list of ints, every T checked as ``draw`` checks it,
    so a bad T anywhere in a grid raises before any trial is drawn."""
    grid = list(t_grid)
    for t in grid:
        _check_design(n_items, t, p)
    return [int(t) for t in grid]


def _estimates(stream: _TrialStream, n_tests: int, alphas) -> list[ErrorEstimate]:
    """Estimates at n_tests from one miss histogram of ``stream``, one per
    entry of ``alphas``: the average error for None, else the partial error
    at that alpha."""
    n_items, k, p, noise_model = stream.n_items, stream.k, stream.p, stream.noise_model
    trials, seed = stream.trials, stream.master_seed
    hist = tuple(_collect_histogram(n_items, k, n_tests, p, noise_model, trials, seed,
                                    stream).tolist())
    return [ErrorEstimate(AVERAGE if alpha is None else PARTIAL, n_items, k, n_tests, p,
                          noise_model, alpha, trials, hist, seed) for alpha in alphas]


def estimate_average_error(
    n_items: int, k: int, n_tests: int, p: float, noise_model: NoiseModel,
    trials: int, master_seed: int,
) -> ErrorEstimate:
    """Average error over fresh codebooks and uniform truth sets per trial:
    the one-point ``estimate_sweep`` at n_tests."""
    return estimate_sweep(n_items, k, p, noise_model, (n_tests,), trials, master_seed)[0]


def estimate_partial_error(
    n_items: int, k: int, n_tests: int, p: float, noise_model: NoiseModel,
    alpha: float, trials: int, master_seed: int,
) -> ErrorEstimate:
    """Error only when the decoded set misses more than alpha*K true items:
    the one-point ``estimate_sweep`` at n_tests."""
    return estimate_sweep(n_items, k, p, noise_model, (n_tests,), trials, master_seed, alpha)[0]


def estimate_sweep(
    n_items: int, k: int, p: float, noise_model: NoiseModel, t_grid, trials: int,
    master_seed: int, alpha: float | None = None,
) -> list[ErrorEstimate]:
    """The average error, or with ``alpha`` the partial error, at each T of ``t_grid``.

    Every T reads the same trials off one trial stream, so each trial is
    drawn once and the estimates are paired across T.  A single estimate
    is the sweep of one T.  Every T is checked before any trial is drawn.
    """
    if alpha is not None:
        alpha = _check_unit("alpha", alpha, strict=True)
    grid = _check_grid(n_items, p, t_grid)
    stream = _TrialStream(n_items, k, p, noise_model, master_seed, trials)
    return [_estimates(stream, t, (alpha,))[0] for t in grid]


def empirical_pei_profile(
    n_items: int, k: int, n_tests: int, p: float, noise_model: NoiseModel,
    trials: int, master_seed: int,
) -> list[tuple[int, float]]:
    """Per-overlap error rates: entry i is the fraction of trials that erred
    with exactly i missed items.  The rates over all i sum to the average
    error rate of the same trial stream (i = 0 collects ties at the truth)."""
    est = estimate_average_error(n_items, k, n_tests, p, noise_model, trials, master_seed)
    return [(i, errors / trials) for i, errors in enumerate(est.miss_counts)]


def estimate_worstcase_error(
    codebook: Codebook, k: int, noise_model: NoiseModel, trials_per_set: int,
) -> ErrorEstimate:
    """Worst conditional error over every truth set, for one fixed codebook.

    Deterministic channels evaluate each truth set exactly (a single
    outcome, error 0 or 1); noisy channels estimate each with
    trials_per_set independent noise draws keyed by the codebook seed.
    Returns the estimate for the worst set, the first with the most erring
    draws, and that set's ``miss_counts``.  On a noisy channel it is the
    largest of C(N, K) binomial estimates, so it is biased upward as an
    estimate of the worst conditional error, and its ``ci`` is the worst
    set's own interval, not an interval for that maximum.
    """
    n_items = codebook.n_items
    _check_trials(n_items, k, trials_per_set)
    draws = 1 if noise_model.deterministic else int(trials_per_set)
    worst = None
    worst_key = mix64(codebook.seed, _WORST_STREAM)
    for index, members in enumerate(combinations(range(n_items), k)):
        outcomes = _worst_outcomes(codebook, DefectiveSet(members), noise_model,
                                   mix64(worst_key, index), draws)
        results = [ml_decode(codebook, outcome, k, noise_model) for outcome in outcomes]
        hist = _misses(np.array(members), np.array([r.best_set.indices for r in results]),
                       np.array([r.tie for r in results]))
        if worst is None or hist.sum() > worst.sum():
            worst = hist
            if worst.sum() == draws:
                break  # no later set can err more often
    return ErrorEstimate(WORST_CASE, n_items, int(k), codebook.n_tests, codebook.p, noise_model,
                         None, draws, tuple(worst.tolist()), codebook.seed)


def _worst_outcomes(codebook: Codebook, truth: DefectiveSet, noise_model: NoiseModel,
                    set_key: int, draws: int):
    """Yield the ``draws`` outcomes of ``truth``: draw j is ``apply_channel``
    under noise seed mix64(set_key, j), drawn a block of draws per sampler
    call, every draw sharing the truth's rows."""
    idx = np.asarray(truth.indices)
    rows, tests = codebook.words[idx], np.arange(codebook.n_tests)
    for block in _blocks(draws, len(idx) * codebook.n_tests):
        seeds = mix64_array(set_key, np.arange(block.start, block.stop))
        shared = np.broadcast_to(rows, (len(seeds),) + rows.shape)
        for words in _channel_words(shared, idx, noise_model, seeds, tests):
            yield OutcomeVector(codebook.n_tests, words)


def find_minimal_t(
    n_items: int, k: int, p: float, noise_model: NoiseModel, target_error: float,
    trials: int, t_grid, master_seed: int, refine_to: int = 1,
) -> MinimalTResult:
    """Smallest probed T whose estimated average error meets the target.

    Scans the grid in increasing order, then bisects between the last
    failing and first meeting grid points, halving the step until it
    reaches ``refine_to`` or the estimate is statistically ambiguous
    (confidence half-width wider than its distance to the target).  Every
    probe is recorded.  Every probe reads the same trials off one trial
    stream, so the error estimates are paired across T and each trial is
    drawn once.  Each estimate equals ``estimate_average_error`` at its T.
    """
    grid = _check_grid(n_items, p, t_grid)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ParameterError("t_grid must be a nonempty strictly increasing integer sequence")
    target_error = _check_unit("target_error", target_error)
    _check_integers(refine_to=refine_to)
    if refine_to < 1:
        raise ParameterError(f"refine_to must be >= 1, got {refine_to}")

    probed: list[tuple[int, ErrorEstimate]] = []
    stream = _TrialStream(n_items, k, p, noise_model, master_seed, trials)

    def measure(t: int) -> ErrorEstimate:
        est = _estimates(stream, t, (None,))[0]
        probed.append((t, est))
        return est

    below = None  # largest probed T with p_hat > target
    meets = None  # smallest probed T with p_hat <= target
    for t in grid:
        est = measure(t)
        if est.p_hat <= target_error:
            meets = t
            break
        below = t
    if meets is None:
        return MinimalTResult(target_error, None, tuple(probed), 0)
    if below is None:
        return MinimalTResult(target_error, meets, tuple(probed), 0)

    while meets - below > refine_to:
        mid = (below + meets) // 2
        est = measure(mid)
        if est.p_hat <= target_error:
            meets = mid
        else:
            below = mid
        if abs(est.p_hat - target_error) < est.ci_half_width:
            break  # ambiguous region; stop at the current bracket
    return MinimalTResult(target_error, meets, tuple(probed), meets - below)
