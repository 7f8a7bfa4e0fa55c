"""Monte Carlo estimation of decoding error under three criteria.

Every trial is a pure function of (configuration, master_seed, trial
index): a fresh codebook, a uniformly random truth set, and a noise
realization are all derived from per-trial keys, so estimates do not
depend on the order in which trials run or are drawn.  The codebook and
channel words of a block of trials come from one sampler call; each trial
is then decoded in turn, in the calling thread.  The average and partial
criteria and the per-overlap error profile share one trial stream (one
miss histogram), which makes their comparisons paired.

Codebook and noise cells are addressed by (seed, item, test) and truth
sets by trial alone, so a trial at T is the first T tests of the same
trial at any larger T.  Every estimate draws its trials into one
``_TrialStream`` and reads each T it needs off it: a single estimate
reads one T, a sweep and the minimal-T search read every T they probe.
The stream holds trials x (N+1) x ceil(T/64) 64-bit words at the largest
T drawn, so a single estimate holds all its trials' words at once, as a
one-point sweep does.  Extending it also holds at most one block of
``_BLOCK_CELLS`` cells of sampler scratch.  On the noise-free channel a
trial that decoded uniquely and correctly at some probed T' <= T is not
decoded again at T: a larger T only removes consistent candidate sets.

Error conventions: a trial errs when the decoder returns a set other than
the truth or reports a tie (ties count against the decoder).  The partial
criterion instead errs only when the decoded set misses more than
alpha*K of the true items; a tie alone is not a partial error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.special import betaincinv

from .bitops import WORD_BITS, n_words
from .decoder import _enumeration_size, ml_decode, miss_distance
from .errors import ParameterError
from .model import (
    Codebook,
    DefectiveSet,
    NoiseModel,
    OutcomeVector,
    _channel_words,
    _check_defectives,
    _check_design,
    _check_seed,
    noiseless_outcome,
)
# generate_codebook and apply_channel are not called here; bench/probes.py
# traces them by name in this module
from .model import apply_channel, generate_codebook  # noqa: F401
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
    """A binomial point estimate of one error criterion, with its configuration."""

    criterion: str
    n_items: int
    n_defectives: int
    n_tests: int
    p: float
    channel: str
    param: float | None
    alpha: float | None
    trials: int
    errors: int
    p_hat: float
    ci_half_width: float
    seed: int
    # erring trials by miss distance (entry i: i true items missed), for
    # estimates drawn from the trial stream; None for the worst case
    miss_counts: tuple[int, ...] | None = None

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
    (Clopper-Pearson) interval when either count is below 5."""
    if trials < 1 or not 0 <= errors <= trials:
        raise ParameterError(f"need 0 <= errors <= trials, got {errors}/{trials}")
    if min(errors, trials - errors) < _EXACT_CI_THRESHOLD:
        lo = 0.0 if errors == 0 else float(betaincinv(errors, trials - errors + 1, 0.025))
        hi = 1.0 if errors == trials else float(betaincinv(errors + 1, trials - errors, 0.975))
        return (hi - lo) / 2.0
    p_hat = errors / trials
    return 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / trials)


def _sample_truth(n_items: int, k: int, seed: int) -> DefectiveSet:
    gen = np.random.Generator(np.random.PCG64(seed))
    idx = gen.choice(n_items, size=k, replace=False)
    return DefectiveSet.of(int(v) for v in idx)


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
    x ceil(T/64) words.  A larger T draws only the new tests, from the last
    partly filled word on; a smaller T reads the masked prefix.  Each extension
    draws a block of trials per sampler call, at most ``_BLOCK_CELLS``
    codebook cells.  Every random cell is addressed by (seed, item, test),
    so a trial at T is bit-identical to the same trial drawn afresh at T,
    whatever the block or the order of extensions.
    """

    def __init__(self, n_items: int, k: int, p: float, noise_model: NoiseModel,
                 master_seed: int, trials: int):
        _check_trials(trials)
        _check_defectives(n_items, k)
        _enumeration_size(n_items, k)
        _check_design(n_items, 0, p)
        master_seed = _check_seed(master_seed, "master_seed")
        self.n_items, self.k, self.p, self.noise_model = n_items, k, p, noise_model
        self.master_seed, self.trials = master_seed, trials
        keys = [mix64(master_seed, trial) for trial in range(trials)]
        # (trials, 2): each trial's codebook and noise seeds
        self.seeds = mix64_array(np.array(keys, dtype=np.uint64)[:, None], np.array([0, 2]))
        self.truths = [_sample_truth(n_items, k, mix64(key, 1)) for key in keys]
        self.truth_idx = np.array([truth.indices for truth in self.truths], dtype=np.int64)
        self.n_tests = 0
        self.words = np.zeros((trials, n_items, 0), dtype=np.uint64)
        self.outcomes = np.zeros((trials, 0), dtype=np.uint64)
        # noise-free only: the smallest T at which each trial decoded uniquely
        # and correctly; it still does at any larger T, where the consistent
        # sets are a subset of those at the smaller T
        self.solved_at = [math.inf] * trials

    def draw(self, n_tests: int):
        """Yield (trial, truth, codebook, outcome) at n_tests, skipping solved trials.

        Each codebook and outcome owns a copy of its trial's words, so one
        that is kept holds no other trial's words in memory.
        """
        _check_design(self.n_items, n_tests, self.p)
        if n_tests > self.n_tests:
            self._extend(n_tests)
        width, tail = n_words(n_tests), n_tests % WORD_BITS
        mask = np.uint64((1 << tail) - 1)
        for trial, truth in enumerate(self.truths):
            if self.solved_at[trial] <= n_tests:
                continue
            words = self.words[trial, :, :width].copy()
            outcome = self.outcomes[trial, :width].copy()
            if tail:
                words[:, -1] &= mask
                outcome[-1] &= mask
            codebook = Codebook(self.n_items, n_tests, float(self.p), int(self.seeds[trial, 0]),
                                words)
            yield trial, truth, codebook, OutcomeVector(n_tests, outcome)

    def solved(self, trial: int, n_tests: int) -> None:
        """Record that ``trial`` decoded uniquely and correctly at n_tests."""
        if self.noise_model.deterministic:
            self.solved_at[trial] = min(self.solved_at[trial], n_tests)

    def _extend(self, n_tests: int) -> None:
        start, width = self.n_tests // WORD_BITS, n_words(n_tests)
        grow = width - self.outcomes.shape[1]
        self.words = np.pad(self.words, ((0, 0), (0, 0), (0, grow)))
        self.outcomes = np.pad(self.outcomes, ((0, 0), (0, grow)))
        items, tests = np.arange(self.n_items), np.arange(start * WORD_BITS, n_tests)
        for block in _blocks(self.trials, self.n_items * len(tests)):
            seeds, idx = self.seeds[block], self.truth_idx[block]
            rows = bernoulli_words(seeds[:, :1], items, tests, self.p)
            self.words[block, :, start:] = rows
            members = np.take_along_axis(rows, idx[:, :, None], axis=1)
            self.outcomes[block, start:] = _channel_words(members, idx, self.noise_model,
                                                          seeds[:, 1], tests)
        self.n_tests = n_tests


def _miss_histogram(stream: _TrialStream, n_tests: int) -> np.ndarray:
    """Histogram over miss distance of ``stream``'s erring trials at n_tests."""
    hist = np.zeros(stream.k + 1, dtype=np.int64)
    for trial, truth, codebook, outcome in stream.draw(n_tests):
        result = ml_decode(codebook, outcome, stream.k, stream.noise_model)
        if result.tie or result.best_set != truth:
            hist[miss_distance(truth, result.best_set)] += 1
        else:
            stream.solved(trial, n_tests)
    return hist


def _collect_histogram(n_items, k, n_tests, p, noise_model, trials, master_seed,
                       stream: _TrialStream) -> np.ndarray:
    """``_miss_histogram(stream, n_tests)``.

    The first seven parameters restate ``stream``'s configuration and are
    not read here: bench/probes.py wraps this function and reads them by
    position to count the trials of each (configuration, T).
    """
    return _miss_histogram(stream, n_tests)


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie strictly inside (0, 1), got {alpha}")


def _make_estimate(criterion, n_items, k, n_tests, p, noise_model, alpha,
                   trials, errors, seed, hist=None) -> ErrorEstimate:
    return ErrorEstimate(
        criterion=criterion,
        n_items=n_items,
        n_defectives=k,
        n_tests=n_tests,
        p=p,
        channel=noise_model.kind,
        param=noise_model.param,
        alpha=alpha,
        trials=trials,
        errors=int(errors),
        p_hat=errors / trials,
        ci_half_width=ci_half_width(int(errors), trials),
        seed=seed,
        miss_counts=None if hist is None else tuple(int(v) for v in hist),
    )


def _estimates(stream: _TrialStream, n_tests: int, alphas) -> list[ErrorEstimate]:
    """Estimates at n_tests from one miss histogram of ``stream``, one per
    entry of ``alphas``: the average error for None, else the partial error
    at that alpha."""
    n_items, k, p, noise_model = stream.n_items, stream.k, stream.p, stream.noise_model
    trials, seed = stream.trials, stream.master_seed
    hist = _collect_histogram(n_items, k, n_tests, p, noise_model, trials, seed, stream)
    misses = np.arange(k + 1)
    estimates = []
    for alpha in alphas:
        if alpha is None:
            criterion, errors = AVERAGE, hist.sum()
        else:
            criterion, errors = PARTIAL, int(hist[misses > alpha * k].sum())
        estimates.append(_make_estimate(criterion, n_items, k, n_tests, p, noise_model, alpha,
                                        trials, errors, seed, hist))
    return estimates


def estimate_average_error(
    n_items: int, k: int, n_tests: int, p: float, noise_model: NoiseModel,
    trials: int, master_seed: int,
) -> ErrorEstimate:
    """Average error over fresh codebooks and uniform truth sets per trial."""
    stream = _TrialStream(n_items, k, p, noise_model, master_seed, trials)
    return _estimates(stream, n_tests, (None,))[0]


def estimate_partial_error(
    n_items: int, k: int, n_tests: int, p: float, noise_model: NoiseModel,
    alpha: float, trials: int, master_seed: int,
) -> ErrorEstimate:
    """Error only when the decoded set misses more than alpha*K true items."""
    _check_alpha(alpha)
    stream = _TrialStream(n_items, k, p, noise_model, master_seed, trials)
    return _estimates(stream, n_tests, (alpha,))[0]


def estimate_sweep(
    n_items: int, k: int, p: float, noise_model: NoiseModel, t_grid, trials: int,
    master_seed: int, alpha: float | None = None,
) -> list[ErrorEstimate]:
    """The average error, or with ``alpha`` the partial error, at each T of ``t_grid``.

    Every T reads the same trials off one trial stream, so each trial is
    drawn once and the estimates are paired across T.  Each equals
    ``estimate_average_error`` (``estimate_partial_error``) at its T.
    """
    if alpha is not None:
        _check_alpha(alpha)
    stream = _TrialStream(n_items, k, p, noise_model, master_seed, trials)
    return [_estimates(stream, t, (alpha,))[0] for t in t_grid]


def empirical_pei_profile(
    n_items: int, k: int, n_tests: int, p: float, noise_model: NoiseModel,
    trials: int, master_seed: int,
) -> list[tuple[int, float]]:
    """Per-overlap error rates: entry i is the fraction of trials that erred
    with exactly i missed items.  The rates over all i sum to the average
    error rate of the same trial stream (i = 0 collects ties at the truth)."""
    stream = _TrialStream(n_items, k, p, noise_model, master_seed, trials)
    misses = _estimates(stream, n_tests, (None,))[0].miss_counts
    return [(i, misses[i] / trials) for i in range(k + 1)]


def estimate_worstcase_error(
    codebook: Codebook, k: int, noise_model: NoiseModel, trials_per_set: int,
) -> ErrorEstimate:
    """Worst conditional error over every truth set, for one fixed codebook.

    Deterministic channels evaluate each truth set exactly (a single
    outcome, error 0 or 1); noisy channels estimate each with
    trials_per_set independent noise draws keyed by the codebook seed.
    Returns the estimate for the worst set.
    """
    _check_trials(trials_per_set)
    n_items = codebook.n_items
    _check_defectives(n_items, k)
    _enumeration_size(n_items, k)
    draws = 1 if noise_model.deterministic else trials_per_set
    worst_errors = -1
    worst_key = mix64(codebook.seed, _WORST_STREAM)
    for index, members in enumerate(combinations(range(n_items), k)):
        truth = DefectiveSet(members)
        errors = 0
        set_key = mix64(worst_key, index)
        for outcome in _worst_outcomes(codebook, truth, noise_model, set_key, draws):
            result = ml_decode(codebook, outcome, k, noise_model)
            errors += result.tie or result.best_set != truth
        if errors > worst_errors:
            worst_errors = errors
            if worst_errors == draws:
                break  # no later set can err more often
    return _make_estimate(WORST_CASE, n_items, k, codebook.n_tests, codebook.p,
                          noise_model, None, draws, worst_errors, codebook.seed)


def _worst_outcomes(codebook: Codebook, truth: DefectiveSet, noise_model: NoiseModel,
                    set_key: int, draws: int):
    """Yield the ``draws`` outcomes of ``truth``: on a noisy channel draw j is
    ``apply_channel`` under noise seed mix64(set_key, j), drawn a block of
    draws per sampler call; a deterministic channel gives its one outcome."""
    if noise_model.deterministic:
        yield noiseless_outcome(codebook, truth)
        return
    idx = np.asarray(truth.indices)
    rows, tests = codebook.words[idx], np.arange(codebook.n_tests)
    for block in _blocks(draws, len(idx) * codebook.n_tests):
        seeds = mix64_array(set_key, np.arange(block.start, block.stop))
        for words in _channel_words(rows, idx, noise_model, seeds, tests):
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
    grid = [int(t) for t in t_grid]
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ParameterError("t_grid must be a nonempty strictly increasing integer sequence")
    if not 0.0 <= target_error <= 1.0:
        raise ParameterError(f"target_error must lie in [0, 1], got {target_error}")
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
