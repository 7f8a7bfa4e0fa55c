"""The acceptance suite: ten quantitative criteria over the whole stack.

Each criterion is a deterministic check with pinned grids, seeds, trial
counts, and tolerances; together they gate a release.  They are exposed
both to pytest (tests/test_acceptance.py) and to the CLI ``accept``
command, which prints one PASS/FAIL line per criterion.

Criterion 7 checks what the paper promises about dilution: its cost in
tests grows no faster than the O(K log N / (1-u)^2) rate, dilution needs
more tests than a noise-free channel, and the simulated order of the
dilution and additive channels at equal parameter follows the exact
single-letter (mutual-information) prediction.  The paper's two rates,
O(K log N / (1-q)) for additive noise and O(K log N / (1-u)^2) for
dilution, are upper bounds with unstated constants, so they do not order
the two channels pointwise; at p = 1/K the exact counts order dilution
below additive at every pinned point (see the README).
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass

from .bounds import (
    achievable_tests,
    fano_lower_bound,
    gallager_e0,
    mi_bruteforce,
    mutual_information,
    pei_upper_bound,
)
from .decoder import DEFAULT_BUDGET
from .model import NoiseModel, generate_codebook
from .montecarlo import (
    _estimates,
    _TrialStream,
    estimate_worstcase_error,
    find_minimal_t,
)

# shared grids
_MI_KS = range(2, 11)


def _channel_grid() -> list[NoiseModel]:
    return (
        [NoiseModel.noise_free()]
        + [NoiseModel.additive(q) for q in (0.1, 0.3, 0.7)]
        + [NoiseModel.dilution(u) for u in (0.1, 0.3, 0.7)]
    )


def _p_values(k: int) -> tuple[float, ...]:
    return (0.1, 1.0 / k, 0.5)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.number:2d}  {self.name}: {self.detail}"


def _grid_for_target(bound: float) -> list[int]:
    """Probe grid bracketing the empirical minimal T, scaled off the analytic bound."""
    factors = (1 / 3, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0)
    return sorted({max(1, int(round(bound * f))) for f in factors})


def _minimal_t(n_items: int, k: int, noise: NoiseModel, target: float,
               trials: int, seed: int) -> int:
    p = 1.0 / k
    bound = achievable_tests(n_items, k, p, noise).bound_tests
    result = find_minimal_t(
        n_items, k, p, noise, target, trials, _grid_for_target(bound), seed, refine_to=2
    )
    if not result.attained:
        raise AssertionError(
            f"target {target} unattained for N={n_items} K={k} {noise.describe()}"
        )
    return result.t_star


def criterion_1() -> tuple[bool, str]:
    """The law-driven mutual information matches the brute-force oracle to 1e-9."""
    worst = 0.0
    count = 0
    for k in _MI_KS:
        for i in range(1, k + 1):
            for p in _p_values(k):
                for channel in _channel_grid():
                    gap = abs(mutual_information(k, i, p, channel)
                              - mi_bruteforce(k, i, p, channel))
                    worst = max(worst, gap)
                    count += 1
    return worst <= 1e-9, f"worst |law - oracle| = {worst:.2e} over {count} configs (tol 1e-9)"


def criterion_2() -> tuple[bool, str]:
    """Finite-difference slope of E0 at rho=0 matches the mutual information."""
    delta = 1e-5
    worst = 0.0
    count = 0
    for k in range(2, 9):
        for i in range(1, k + 1):
            for p in _p_values(k):
                for channel in _channel_grid():
                    mi = mutual_information(k, i, p, channel)
                    slope = gallager_e0(k, i, p, channel, delta) / delta
                    worst = max(worst, abs(slope - mi) / mi)
                    count += 1
    return worst <= 1e-3, f"worst relative error = {worst:.2e} over {count} configs (tol 1e-3)"


def criterion_3() -> tuple[bool, str]:
    """Empirical per-overlap error rates stay below the analytic upper bound."""
    n_items, k, p, trials, seed = 30, 3, 1.0 / 3.0, 5000, 42
    violations = []
    worst_margin = -math.inf
    for channel in (NoiseModel.noise_free(), NoiseModel.additive(0.1)):
        # every T reads the same trials off one stream, each drawn once
        stream = _TrialStream(n_items, k, p, channel, seed, trials)
        for n_tests in (50, 100, 150):
            misses = _estimates(n_items, k, n_tests, p, channel, (None,), trials, seed,
                                DEFAULT_BUDGET, stream)[0].miss_counts
            for i in range(1, k + 1):
                p_hat = misses[i] / trials
                bound = pei_upper_bound(n_items, k, i, n_tests, p, channel)
                sigma = math.sqrt(p_hat * (1.0 - p_hat) / trials)
                margin = p_hat - (bound + 3.0 * sigma)
                worst_margin = max(worst_margin, margin)
                if margin > 0:
                    violations.append((channel.describe(), n_tests, i, p_hat, bound))
    detail = f"worst p_hat - (bound + 3 sigma) = {worst_margin:.2e}; violations: {len(violations)}"
    return not violations, detail


def criterion_4() -> tuple[bool, str]:
    """Fano lower bound never exceeds the achievable bound on the grid."""
    violations = 0
    count = 0
    configs = [(30, k) for k in (2, 3)] + [(n, k) for n in (100, 1000) for k in _MI_KS]
    for n_items, k in configs:
        for p in _p_values(k):
            for channel in _channel_grid():
                fano = fano_lower_bound(n_items, k, p, channel).bound_tests
                achievable = achievable_tests(n_items, k, p, channel).bound_tests
                count += 1
                violations += not (fano <= achievable)
    return violations == 0, f"{violations} violations over {count} configs"


def criterion_5() -> tuple[bool, str]:
    """Noise-free minimal T grows like K log N."""
    noise = NoiseModel.noise_free()
    trials, target = 2000, 0.1
    t_64 = _minimal_t(64, 2, noise, target, trials, seed=701)
    t_256 = _minimal_t(256, 2, noise, target, trials, seed=702)
    t_k4 = _minimal_t(64, 4, noise, target, trials, seed=703)
    ratio = t_256 / t_64
    ok = 1.0 <= ratio <= 1.9 and t_k4 > t_64
    return ok, (
        f"t*(256,2)={t_256}, t*(64,2)={t_64}, ratio={ratio:.3f} (need [1.0,1.9]); "
        f"t*(64,4)={t_k4} > t*(64,2): {t_k4 > t_64}"
    )


def criterion_6() -> tuple[bool, str]:
    """Additive noise degrades the minimal T like 1/(1-q)."""
    trials, target = 2000, 0.1
    t_stars = [
        _minimal_t(64, 2, NoiseModel.additive(q), target, trials, seed=801)
        for q in (0.0, 0.25, 0.5)
    ]
    ratio = t_stars[2] / t_stars[0]
    nondecreasing = t_stars[0] <= t_stars[1] <= t_stars[2]
    ok = nondecreasing and 1.3 <= ratio <= 3.5
    return ok, (
        f"t* over q in (0, 0.25, 0.5) = {t_stars}, nondecreasing: {nondecreasing}, "
        f"t*(0.5)/t*(0) = {ratio:.3f} (need [1.3,3.5])"
    )


def criterion_7() -> tuple[bool, str]:
    """Dilution costs tests at no more than the paper's (1-u)^-2 rate.

    (a) At each simulated v, t*(dil) and t*(add) are ordered as the
    single-letter achievable counts order them.  (b) The dilution count
    times (1-v)^2 is nonincreasing in v, analytically on every config and
    in simulation.  (c) t*(noise-free) < t*(dil, 0.25) <= t*(dil, 0.5).
    The paper's rates are upper bounds, so "dilution needs at least as
    many tests as additive at equal v" is not among its claims, and the
    exact counts give the opposite order; dil/add is reported, not
    asserted."""
    trials, target, seed = 2000, 0.1, 901
    sim_vs = (0.25, 0.5)
    vs = (0.1, 0.25, 0.3, 0.5)
    configs = [(1000, 5), (1000, 10), (64, 2)]

    def sign(a: float, b: float) -> int:
        return (a > b) - (a < b)

    def nonincreasing(values: list[float]) -> bool:
        return all(a >= b for a, b in zip(values, values[1:]))

    analytic = {
        (n_items, k, v): tuple(
            achievable_tests(n_items, k, 1.0 / k, noise).bound_tests
            for noise in (NoiseModel.dilution(v), NoiseModel.additive(v))
        )
        for n_items, k in configs
        for v in vs
    }

    t_free = _minimal_t(64, 2, NoiseModel.noise_free(), target, trials, seed)
    t_dil = {v: _minimal_t(64, 2, NoiseModel.dilution(v), target, trials, seed) for v in sim_vs}
    t_add = {v: _minimal_t(64, 2, NoiseModel.additive(v), target, trials, seed) for v in sim_vs}

    order_ok = True
    order_parts = []
    for v in sim_vs:
        dil, add = analytic[(64, 2, v)]
        order_ok &= sign(t_dil[v], t_add[v]) == sign(dil, add)
        order_parts.append(
            f"v={v}: t*(dil)={t_dil[v]} vs t*(add)={t_add[v]}, "
            f"achievable {dil:.1f} vs {add:.1f}"
        )

    rate_ok = True
    rate_parts = []
    ratio_parts = []
    for n_items, k in configs:
        pairs = [analytic[(n_items, k, v)] for v in vs]
        products = [dil * (1 - v) ** 2 for (dil, _), v in zip(pairs, vs)]
        rate_ok &= nonincreasing(products)
        rate_parts.append(f"({n_items},{k}) {[round(x, 1) for x in products]}")
        ratios = [dil / add for dil, add in pairs]
        ratio_parts.append(f"({n_items},{k}) {[round(x, 2) for x in ratios]}")
    sim_products = [t_dil[v] * (1 - v) ** 2 for v in sim_vs]
    rate_ok &= nonincreasing(sim_products)

    cost_ok = t_free < t_dil[0.25] <= t_dil[0.5]

    ok = order_ok and rate_ok and cost_ok
    return ok, (
        f"(a) order agrees with achievable: {order_ok} ({'; '.join(order_parts)}); "
        f"(b) dil*(1-v)^2 nonincreasing: {rate_ok} (achievable over v={vs}: "
        f"{', '.join(rate_parts)}; t* over v={sim_vs}: {[round(x, 1) for x in sim_products]}); "
        f"(c) t*(free)={t_free} < t*(dil,0.25)={t_dil[0.25]} <= t*(dil,0.5)={t_dil[0.5]}: "
        f"{cost_ok}; achievable dil/add over v={vs} (reported, not asserted): "
        f"{', '.join(ratio_parts)}"
    )


def criterion_8() -> tuple[bool, str]:
    """Partial reconstruction errs strictly less than exact recovery."""
    n_items, k, p = 24, 4, 0.25
    noise = NoiseModel.noise_free()
    trials, seed = 1500, 11

    # bisect for a T with average error near 0.3, every probe read off one
    # trial stream; a probe's average and partial errors share one histogram
    stream = _TrialStream(n_items, k, p, noise, seed, trials)
    lo, hi = 1, 200
    t_mid = None
    for _ in range(12):
        mid = (lo + hi) // 2
        estimates = _estimates(n_items, k, mid, p, noise, (None, 0.25, 0.5, 0.75), trials, seed,
                               DEFAULT_BUDGET, stream)
        p_hat = estimates[0].p_hat
        if 0.25 <= p_hat <= 0.35:
            t_mid = mid
            break
        if p_hat > 0.3:
            lo = mid
        else:
            hi = mid
    if t_mid is None:
        return False, "no T with average error in [0.25, 0.35] found"
    average, *partials = (est.p_hat for est in estimates)
    nonincreasing = partials[0] >= partials[1] >= partials[2]
    ok = partials[1] < average and nonincreasing
    return ok, (
        f"T={t_mid}: average={average:.3f}, partial(0.25,0.5,0.75)="
        f"{[round(v, 4) for v in partials]}, partial(0.5) < average: {partials[1] < average}, "
        f"nonincreasing: {nonincreasing}"
    )


def criterion_9() -> tuple[bool, str]:
    """Worst-case error over all truth sets is exact and two-valued."""
    noise = NoiseModel.noise_free()
    exact = True
    zero_fraction = 0
    for seed in range(20):
        codebook = generate_codebook(10, 96, 0.5, seed)
        estimate = estimate_worstcase_error(codebook, 2, noise, 1)
        exact &= estimate.p_hat in (0.0, 1.0)
        zero_fraction += estimate.p_hat == 0.0
    return exact, (
        f"lambda_max in {{0,1}} for all seeds: {exact}; "
        f"perfect codebooks: {zero_fraction}/20 seeds (reported, not asserted)"
    )


def criterion_10() -> tuple[bool, str]:
    """CSV output is byte-identical across reruns."""
    import contextlib
    import io

    from .cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for name in ("a", "b", "c"):
            path = os.path.join(tmp, f"{name}.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([
                    "estimate", "--model", "additive", "--q", "0.2",
                    "-N", "40", "-K", "2", "-T", "120",
                    "--trials", "2000", "--seed", "1",
                    "--out", path,
                ])
            if code != 0:
                return False, f"estimate exited {code}"
            with open(path, "rb") as handle:
                outputs.append(handle.read())
    identical = outputs[0] == outputs[1] == outputs[2]
    return identical, f"3 runs byte-identical: {identical}"


CRITERIA = [
    (1, "oracle equivalence", criterion_1),
    (2, "exponent slope identity", criterion_2),
    (3, "per-overlap bound dominance", criterion_3),
    (4, "fano below achievable", criterion_4),
    (5, "noise-free scaling", criterion_5),
    (6, "additive degradation", criterion_6),
    (7, "dilution vs additive severity", criterion_7),
    (8, "partial reconstruction", criterion_8),
    (9, "worst-case exactness", criterion_9),
    (10, "determinism", criterion_10),
]


def run_criterion(number: int) -> CriterionResult:
    """Run one criterion.  A check that raises ``AssertionError`` (such as
    an unattained minimal-T target) fails with the message as its detail."""
    for num, name, check in CRITERIA:
        if num == number:
            start = time.time()
            try:
                passed, detail = check()
            except AssertionError as exc:
                passed, detail = False, str(exc)
            return CriterionResult(num, name, passed, detail, time.time() - start)
    raise ValueError(f"no acceptance criterion numbered {number}")


def run_criteria(numbers=None, log=None) -> list[CriterionResult]:
    selected = [num for num, _, _ in CRITERIA] if numbers is None else list(numbers)
    results = []
    for number in selected:
        result = run_criterion(number)
        results.append(result)
        if log is not None:
            log(result.line())
    return results
