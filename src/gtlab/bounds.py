"""Mutual-information expressions, error exponents, and test-count bounds.

All information quantities are in bits.  The single-test channel law is
the one the simulator and the decoder use, read from ``NoiseModel.law``
and ``NoiseModel.positive_probability``: with c defectives pooled in a
test, P(Y=0 | c) = (1-q) * u**c (noise-free is q = u = 0, additive
(q, 0), dilution (0, u)).

For a defective set of size K split into an unknown part of size i and a
known part of size K-i, the per-test information about the unknown part is
I(X1; X2, Y) under i.i.d. Bernoulli(p) item-participation.
``mutual_information`` computes it for every channel from the one law
(q, u), as a difference of two binomial mixtures of binary entropies; it
is validated against ``mi_bruteforce``, an exact enumeration of the joint
distribution that serves as the independent oracle.  The second mixture
does not depend on i, so ``mutual_information_by_overlap`` computes it once
for all i, and it keeps its recent tables, so every bound family and every
command in a process that asks for the same (K, p, channel) shares one.
No code here branches on the channel kind, and none imports scipy.

Two test-count bounds are computed from these quantities: a sufficient
count (random coding, union of per-overlap error events, numerator
log2 K*C(N-K,i)*C(K,i)) and a necessary count (genie-aided Fano argument,
numerator log2 C(N-K+i,i)), both maximized over i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, ParameterError
from .model import NoiseModel, _check_defectives, _check_p

LN2 = math.log(2.0)

ENUMERATION_CAP = 20  # brute-force MI and exponent enumerate 2**K joint states

ACHIEVABLE = "achievable"
FANO = "fano"


# ---------------------------------------------------------------------------
# elementary quantities


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x), with H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"binary_entropy requires x in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def _h2(x: np.ndarray) -> np.ndarray:
    """Vectorized binary entropy with the 0 log 0 = 0 convention."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    inner = (x > 0.0) & (x < 1.0)
    xi = x[inner]
    out[inner] = -(xi * np.log2(xi) + (1.0 - xi) * np.log2(1.0 - xi))
    return out


def log2_binom(n: int, k: int) -> float:
    """log2 C(n, k), accurate to 1e-9 relative up to n ~ 1e9.

    Subtracting log-gamma values loses ~1e-5 absolute precision at n ~ 1e9,
    which swamps small results, so thin binomials are summed term by term;
    the gamma route only serves the regime where the result is huge."""
    if k < 0 or n < 0 or k > n:
        raise ParameterError(f"log2_binom requires 0 <= k <= n, got n={n}, k={k}")
    smaller = min(k, n - k)
    if smaller == 0:
        return 0.0
    if smaller <= 2000:
        return math.fsum(
            math.log2(n - j) - math.log2(j + 1) for j in range(smaller)
        )
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / LN2


def _check_partition(k: int, i: int, p: float) -> None:
    if not 1 <= i <= k:
        raise ParameterError(f"partition size i must satisfy 1 <= i <= K, got i={i}, K={k}")
    _check_p(p)


# ---------------------------------------------------------------------------
# mutual information: brute-force oracle and the law form


def mi_bruteforce(k: int, i: int, p: float, noise_model: NoiseModel) -> float:
    """Exact I(X1; X2, Y) by enumerating every (x1, x2, y) state.

    This is the package's correctness oracle: it evaluates the defining
    relative entropy between the joint law and the product of marginals
    and never reuses the closed-form entropy decompositions it validates.
    """
    _check_partition(k, i, p)
    if k > ENUMERATION_CAP:
        raise CapacityError(
            f"brute-force enumeration is capped at K <= {ENUMERATION_CAP}, got K={k}"
        )
    n1, n2 = 1 << i, 1 << (k - i)
    w1 = np.bitwise_count(np.arange(n1, dtype=np.uint64)).astype(np.int64)
    w2 = np.bitwise_count(np.arange(n2, dtype=np.uint64)).astype(np.int64)
    q1 = p**w1 * (1.0 - p) ** (i - w1)
    q2 = p**w2 * (1.0 - p) ** (k - i - w2)
    py1 = noise_model.positive_probability(w1[:, None] + w2[None, :])

    joint = np.empty((n1, n2, 2))
    base = q1[:, None] * q2[None, :]
    joint[:, :, 1] = base * py1
    joint[:, :, 0] = base * (1.0 - py1)

    marginal_x2y = joint.sum(axis=0)  # (n2, 2)
    denom = q1[:, None, None] * marginal_x2y[None, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = joint * np.log2(joint / denom)
    terms[joint == 0.0] = 0.0
    return float(terms.sum())


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """P(Bin(n, p) = j) for j = 0..n.

    Anchored at the mode m from the exact integer C(n, m) and stepped
    outward by the ratios of neighbouring terms, which are at most 1, so no
    term overflows (float(C(n, j)) does from n = 1,030) and term j carries
    about |j - m| rounding errors."""
    m = int((n + 1) * p)
    log_mode = math.log(math.comb(n, m)) + m * math.log(p) + (n - m) * math.log1p(-p)
    odds = p / (1.0 - p)
    j = np.arange(n + 1, dtype=np.float64)
    pmf = np.empty(n + 1)
    pmf[m] = math.exp(log_mode)
    pmf[m + 1:] = pmf[m] * np.cumprod((n - j[m:n]) / (j[m:n] + 1.0) * odds)
    pmf[:m] = (pmf[m] * np.cumprod(j[m:0:-1] / (n - j[m:0:-1] + 1.0) / odds))[::-1]
    return pmf


def _h_given_all(k: int, p: float, noise_model: NoiseModel) -> float:
    """H(Y | X1, X2): with c of all K members pooled, P(Y=0 | c) = (1-q) u**c.
    It does not depend on the split i."""
    q, u = noise_model.law
    pooled = np.arange(k + 1)
    return (_binomial_pmf(k, p) * _h2((1.0 - q) * np.float_power(u, pooled))).sum()


def _h_given_known(k: int, i: int, p: float, noise_model: NoiseModel) -> float:
    """H(Y | X2): with w2 of the K-i known members pooled, a test reads
    negative when no false alarm fires, no pooled known member gets through,
    and no unknown member is both pooled and unerased:
    P(Y=0 | w2) = (1-q) u**w2 (1 - p(1-u))**i."""
    q, u = noise_model.law
    known = np.arange(k - i + 1)
    unknown_negative = (1.0 - p * (1.0 - u)) ** i
    return (_binomial_pmf(k - i, p)
            * _h2((1.0 - q) * np.float_power(u, known) * unknown_negative)).sum()


def mutual_information(k: int, i: int, p: float, noise_model: NoiseModel) -> float:
    """I(X1; X2, Y) = H(Y|X2) - H(Y|X1,X2), from the channel law (q, u).

    Each entropy is a binomial mixture over the pooled count.
    """
    _check_partition(k, i, p)
    return float(_h_given_known(k, i, p, noise_model) - _h_given_all(k, p, noise_model))


@lru_cache(maxsize=64)  # a K = 2,000 table takes 0.15-0.2 s; one value 0.3 ms
def mutual_information_by_overlap(k: int, p: float, noise_model: NoiseModel) -> tuple[float, ...]:
    """``mutual_information(k, i, p, noise_model)`` for i = 1..K, with the
    i-independent H(Y|X1,X2) computed once; recent tables are memoized."""
    _check_partition(k, 1, p)
    h_given_all = _h_given_all(k, p, noise_model)
    return tuple(float(_h_given_known(k, i, p, noise_model) - h_given_all)
                 for i in range(1, k + 1))


# ---------------------------------------------------------------------------
# random-coding exponent and the per-overlap error bound


def gallager_e0(k: int, i: int, p: float, noise_model: NoiseModel, rho: float) -> float:
    """Random-coding exponent E0(rho) in bits for the size-i overlap channel.

    E0 = -log2 sum_{y, x2} [ sum_{x1} Q(x1) (Q(x2) P(y|x1,x2))^(1/(1+rho)) ]^(1+rho).

    The enumeration groups states by participation weight (the summand
    depends on x1, x2 only through their weights), which is exact.  The
    slope at rho = 0 equals the per-test mutual information.
    """
    _check_partition(k, i, p)
    if not 0.0 <= rho <= 1.0:
        raise ParameterError(f"rho must lie in [0, 1], got {rho}")
    if k > ENUMERATION_CAP:
        raise CapacityError(
            f"exponent enumeration is capped at K <= {ENUMERATION_CAP}, got K={k}"
        )
    if rho == 0.0:
        return 0.0  # the double sum collapses to total probability 1

    s = 1.0 / (1.0 + rho)
    w1 = np.arange(i + 1)
    mult1 = np.array([math.comb(i, int(a)) for a in w1], dtype=np.float64)
    q1 = p**w1 * (1.0 - p) ** (i - w1)
    w2 = np.arange(k - i + 1)
    mult2 = np.array([math.comb(k - i, int(b)) for b in w2], dtype=np.float64)
    q2 = p**w2 * (1.0 - p) ** (k - i - w2)

    total = 0.0
    py1 = noise_model.positive_probability(w1[:, None] + w2[None, :])
    for y in (0, 1):
        pyx = py1 if y == 1 else 1.0 - py1  # (len(w1), len(w2))
        inner = ((mult1 * q1)[:, None] * np.float_power(q2[None, :] * pyx, s)).sum(axis=0)
        total += float((mult2 * np.float_power(inner, 1.0 + rho)).sum())
    return -math.log2(total)


@dataclass(frozen=True)
class ExponentCurve:
    """E0(rho) sampled on a grid, for one overlap size and channel."""

    rho_grid: tuple[float, ...]
    e0_values: tuple[float, ...]
    i: int
    channel: NoiseModel
    k: int
    p: float


def e0_curve(k: int, i: int, p: float, noise_model: NoiseModel, rho_grid) -> ExponentCurve:
    rho_grid = tuple(float(r) for r in rho_grid)
    values = tuple(gallager_e0(k, i, p, noise_model, r) for r in rho_grid)
    return ExponentCurve(rho_grid=rho_grid, e0_values=values, i=i, channel=noise_model, k=k, p=p)


_GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0


def pei_upper_bound(
    n_items: int,
    k: int,
    i: int,
    n_tests: int,
    p: float,
    noise_model: NoiseModel,
) -> float:
    """Upper bound on the probability that some set differing from the truth
    in exactly i items is at least as likely to the ML decoder.

    min over rho in [0,1] of 2**-(T*E0(rho) - rho*log2[C(N-K,i) C(K,i)]),
    then clamped to at most 1.  E0 is concave in rho (Gallager 1968,
    Thm 5.6.3), so the exponent is too, and golden-section search over
    [0, 1] finds its maximum.  The search never evaluates the endpoints, so
    it is compared with the exponent at rho = 1; the clamp at 1 stands for
    rho = 0, where the exponent is 0.
    """
    _check_defectives(n_items, k)
    if n_tests < 0:
        raise ParameterError(f"n_tests must be nonnegative, got {n_tests}")
    log_num = log2_binom(n_items - k, i) + log2_binom(k, i)

    def exponent(rho: float) -> float:
        return n_tests * gallager_e0(k, i, p, noise_model, rho) - rho * log_num

    a, b = 0.0, 1.0
    c, d = 1.0 - _GOLDEN_RATIO, _GOLDEN_RATIO
    fc, fd = exponent(c), exponent(d)
    for _ in range(40):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN_RATIO * (b - a)
            fc = exponent(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN_RATIO * (b - a)
            fd = exponent(d)
    return min(1.0, 2.0 ** -max(exponent(1.0), fc, fd))


# ---------------------------------------------------------------------------
# test-count bounds


@dataclass(frozen=True)
class BoundEntry:
    """One overlap size i: combinatorial numerator, per-test information, their ratio."""

    i: int
    numerator_bits: float
    mutual_info_bits: float
    ratio_tests: float
    flagged: bool  # True when the channel carries no information at this i (ratio is inf)


@dataclass(frozen=True)
class BoundReport:
    """Per-i terms and the max-over-i test count for one bound family."""

    kind: str  # "achievable" or "fano"
    n_items: int
    n_defectives: int
    p: float
    noise: NoiseModel
    per_i: tuple[BoundEntry, ...]
    bound_tests: float
    argmax_i: int


_CSV_HEADER = [
    "kind", "N", "K", "p", "channel", "param",
    "i", "numerator_bits", "mi_bits", "ratio_tests",
]


def bound_report_header() -> list[str]:
    return list(_CSV_HEADER)


def bound_report_rows(report: BoundReport) -> list[list]:
    """CSV rows: one per i, then a summary row with i = -1 carrying
    argmax_i (numerator_bits column) and bound_tests (ratio_tests column)."""
    prefix = [
        report.kind,
        report.n_items,
        report.n_defectives,
        report.p,
        report.noise.kind,
        "" if report.noise.param is None else report.noise.param,
    ]
    rows = [
        prefix + [e.i, e.numerator_bits, e.mutual_info_bits, e.ratio_tests]
        for e in report.per_i
    ]
    rows.append(prefix + [-1, report.argmax_i, "", report.bound_tests])
    return rows


def _build_report(kind: str, n_items: int, k: int, p: float, noise: NoiseModel,
                  numerator_bits_fn) -> BoundReport:
    _check_defectives(n_items, k)
    entries = []
    for i, mi in enumerate(mutual_information_by_overlap(k, p, noise), start=1):
        num = numerator_bits_fn(i)
        if mi <= 0.0:
            entries.append(BoundEntry(i, num, max(mi, 0.0), math.inf, True))
        else:
            entries.append(BoundEntry(i, num, mi, num / mi, False))
    # max returns the first maximizer, so ties resolve to the smallest i
    best = max(range(len(entries)), key=lambda j: entries[j].ratio_tests)
    return BoundReport(
        kind=kind,
        n_items=n_items,
        n_defectives=k,
        p=p,
        noise=noise,
        per_i=tuple(entries),
        bound_tests=entries[best].ratio_tests,
        argmax_i=entries[best].i,
    )


def achievable_tests(n_items: int, k: int, p: float, noise_model: NoiseModel) -> BoundReport:
    """Sufficient test count: max_i log2[K C(N-K,i) C(K,i)] / I_i."""
    def numerator(i: int) -> float:
        return math.log2(k) + log2_binom(n_items - k, i) + log2_binom(k, i)

    return _build_report(ACHIEVABLE, n_items, k, p, noise_model, numerator)


def fano_lower_bound(n_items: int, k: int, p: float, noise_model: NoiseModel) -> BoundReport:
    """Necessary test count: max_i log2 C(N-K+i, i) / I_i."""
    def numerator(i: int) -> float:
        return log2_binom(n_items - k + i, i)

    return _build_report(FANO, n_items, k, p, noise_model, numerator)


def additive_converse(n_items: int, k: int, q: float) -> float:
    """Order-of-growth necessary test count for the additive channel.

    K log2(N/K) divided by the large-K information ceiling
    (1-1/K)**K (2(1-q) + q ln(1/q)) / ln 2.  This is an asymptotic
    witness, not a sharp finite-size constant; K = 1 returns inf.
    """
    if not 0.0 < q < 1.0:
        raise ParameterError(f"additive q must lie strictly inside (0, 1), got {q}")
    _check_defectives(n_items, k)
    noise_term = 2.0 * (1.0 - q) + q * math.log(1.0 / q)
    denom = ((1.0 - 1.0 / k) ** k) * noise_term / LN2
    if denom == 0.0:
        return math.inf
    return k * math.log2(n_items / k) / denom
