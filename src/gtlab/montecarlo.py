"""Monte Carlo estimation of decoding error under three criteria.

Every trial is a pure function of (configuration, master_seed, trial
index): a fresh codebook, a uniformly random truth set, and a noise
realization are all derived from per-trial keys, so estimates do not
depend on the order in which trials run.  The trials run one after another
in the calling thread: each is many small numpy calls that hold the GIL,
so worker threads gave no speed-up.  The average and partial criteria and
the per-overlap error profile share one trial stream (one miss histogram),
which makes their comparisons paired.

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

from .decoder import DEFAULT_BUDGET, ml_decode, miss_distance
from .errors import CapacityError, ParameterError
from .model import (
    Codebook,
    DefectiveSet,
    NoiseModel,
    apply_channel,
    generate_codebook,
    noiseless_outcome,
)
from .rng import mix64

AVERAGE = "average"
WORST_CASE = "worst-case"
PARTIAL = "partial"

_TRUTH_STREAM = 0x54
_WORST_STREAM = 0x57

# below this error count the normal interval is unusable; switch to exact
_EXACT_CI_THRESHOLD = 5

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


def _miss_histogram(
    n_items: int, k: int, n_tests: int, p: float, noise_model: NoiseModel,
    master_seed: int, trials: int, budget: int,
) -> np.ndarray:
    """Histogram over miss distance of the erring trials."""
    hist = np.zeros(k + 1, dtype=np.int64)
    for trial in range(trials):
        trial_key = mix64(master_seed, trial)
        codebook = generate_codebook(n_items, n_tests, p, mix64(trial_key, 0))
        truth = _sample_truth(n_items, k, mix64(trial_key, 1))
        outcome = apply_channel(codebook, truth, noise_model, mix64(trial_key, 2))
        result = ml_decode(codebook, outcome, k, noise_model, budget=budget)
        if result.tie or result.best_set != truth:
            hist[miss_distance(truth, result.best_set)] += 1
    return hist


def _collect_histogram(
    n_items, k, n_tests, p, noise_model, trials, master_seed, budget
) -> np.ndarray:
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if n_tests < 0:
        raise ParameterError(f"n_tests must be >= 0, got {n_tests}")
    if not 1 <= k < n_items:
        raise ParameterError(f"need 1 <= K < N, got K={k}, N={n_items}")
    if math.comb(n_items, k) > budget:
        raise CapacityError(
            f"each trial needs {math.comb(n_items, k)} set evaluations, above the budget {budget}"
        )
    return _miss_histogram(n_items, k, n_tests, p, noise_model, master_seed, trials, budget)


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


def estimate_average_error(
    n_items: int, k: int, n_tests: int, p: float, noise_model: NoiseModel,
    trials: int, master_seed: int, budget: int = DEFAULT_BUDGET,
) -> ErrorEstimate:
    """Average error over fresh codebooks and uniform truth sets per trial."""
    hist = _collect_histogram(n_items, k, n_tests, p, noise_model, trials, master_seed, budget)
    return _make_estimate(AVERAGE, n_items, k, n_tests, p, noise_model, None,
                          trials, hist.sum(), master_seed, hist)


def estimate_partial_error(
    n_items: int, k: int, n_tests: int, p: float, noise_model: NoiseModel,
    alpha: float, trials: int, master_seed: int, budget: int = DEFAULT_BUDGET,
) -> ErrorEstimate:
    """Error only when the decoded set misses more than alpha*K true items."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    hist = _collect_histogram(n_items, k, n_tests, p, noise_model, trials, master_seed, budget)
    misses = np.arange(k + 1)
    errors = int(hist[misses > alpha * k].sum())
    return _make_estimate(PARTIAL, n_items, k, n_tests, p, noise_model, alpha,
                          trials, errors, master_seed, hist)


def empirical_pei_profile(
    n_items: int, k: int, n_tests: int, p: float, noise_model: NoiseModel,
    trials: int, master_seed: int, budget: int = DEFAULT_BUDGET,
) -> list[tuple[int, float]]:
    """Per-overlap error rates: entry i is the fraction of trials that erred
    with exactly i missed items.  The rates over all i sum to the average
    error rate of the same trial stream (i = 0 collects ties at the truth)."""
    hist = _collect_histogram(n_items, k, n_tests, p, noise_model, trials, master_seed, budget)
    return [(i, hist[i] / trials) for i in range(k + 1)]


def estimate_worstcase_error(
    codebook: Codebook, k: int, noise_model: NoiseModel, trials_per_set: int,
    budget: int = DEFAULT_BUDGET,
) -> ErrorEstimate:
    """Worst conditional error over every truth set, for one fixed codebook.

    Deterministic channels evaluate each truth set exactly (a single
    outcome, error 0 or 1); noisy channels estimate each with
    trials_per_set independent noise draws keyed by the codebook seed.
    Returns the estimate for the worst set.
    """
    if trials_per_set < 1:
        raise ParameterError(f"trials_per_set must be >= 1, got {trials_per_set}")
    n_items = codebook.n_items
    if not 1 <= k <= n_items:
        raise ParameterError(f"need 1 <= K <= N, got K={k}, N={n_items}")
    total = math.comb(n_items, k)
    if total > budget:
        raise CapacityError(
            f"worst-case enumeration needs {total} truth sets, above the budget {budget}"
        )
    exact = noise_model.deterministic
    draws = 1 if exact else trials_per_set
    worst_errors = -1
    worst_key = mix64(codebook.seed, _WORST_STREAM)
    for index, members in enumerate(combinations(range(n_items), k)):
        truth = DefectiveSet(members)
        errors = 0
        set_key = mix64(worst_key, index)
        for trial in range(draws):
            if exact:
                outcome = noiseless_outcome(codebook, truth)
            else:
                outcome = apply_channel(codebook, truth, noise_model, mix64(set_key, trial))
            result = ml_decode(codebook, outcome, k, noise_model, budget=budget)
            errors += result.tie or result.best_set != truth
        if errors > worst_errors:
            worst_errors = errors
            if worst_errors == draws:
                break  # no later set can err more often
    return _make_estimate(WORST_CASE, n_items, k, codebook.n_tests, codebook.p,
                          noise_model, None, draws, worst_errors, codebook.seed)


def find_minimal_t(
    n_items: int, k: int, p: float, noise_model: NoiseModel, target_error: float,
    trials: int, t_grid, master_seed: int, refine_to: int = 1, budget: int = DEFAULT_BUDGET,
) -> MinimalTResult:
    """Smallest probed T whose estimated average error meets the target.

    Scans the grid in increasing order, then bisects between the last
    failing and first meeting grid points, halving the step until it
    reaches ``refine_to`` or the estimate is statistically ambiguous
    (confidence half-width wider than its distance to the target).  Every
    probe is recorded.  The same master seed drives every probe, so the
    error estimates are paired across T.
    """
    grid = [int(t) for t in t_grid]
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ParameterError("t_grid must be a nonempty strictly increasing integer sequence")
    if not 0.0 <= target_error <= 1.0:
        raise ParameterError(f"target_error must lie in [0, 1], got {target_error}")
    if refine_to < 1:
        raise ParameterError(f"refine_to must be >= 1, got {refine_to}")

    probed: list[tuple[int, ErrorEstimate]] = []

    def measure(t: int) -> ErrorEstimate:
        est = estimate_average_error(
            n_items, k, t, p, noise_model, trials, master_seed, budget=budget
        )
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
