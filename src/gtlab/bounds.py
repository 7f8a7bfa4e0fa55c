"""Mutual-information expressions, error exponents, and test-count bounds.

All information quantities are in bits.  The single-test channel law is
the one the simulator and the decoder use, read from ``NoiseModel.law``
and ``NoiseModel.positive_probability``: with c defectives pooled in a
test, P(Y=0 | c) = (1-q) * u**c (noise-free is q = u = 0, additive
(q, 0), dilution (0, u)).

For a defective set of size K split into an unknown part of size i and a
known part of size K-i, the per-test information about the unknown part is
I(X1; X2, Y) under i.i.d. Bernoulli(p) item-participation.  Every bound
reads the law through binomial mixtures over the pooled counts of the two
parts: the mutual information as a difference of two mixtures of binary
entropies, and the random-coding exponent E0 as a mixture over the known
part of a power of a mixture over the unknown part.  Both take every
1 <= K < N.  ``mutual_information_by_overlap`` computes the
i-independent mixture once for all i and keeps its recent tables, so every
bound family and every command in a process that asks for the same
(K, p, channel) shares one; ``mutual_information`` reads an entry of it.
The information is validated against ``mi_bruteforce``, an exact
enumeration of the joint distribution that serves as the independent
oracle.  No code here branches on the channel kind, and none imports scipy.

Two test-count bounds are computed from these quantities, each the largest
of per-i ratios: a sufficient count (random coding, union of per-overlap
error events, numerator log2 K*C(N-K,i)*C(K,i)) and a necessary count
(genie-aided Fano argument, numerator log2 C(N-K+i,i)).  A ``BoundReport``
stores the numerators and informations per i and derives the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, ParameterError
from .model import (NoiseModel, _check_defectives, _check_design, _check_integers, _check_p,
                    _check_unit)

LN2 = math.log(2.0)

ENUMERATION_CAP = 20  # the oracle mi_bruteforce enumerates 2**K joint states

ACHIEVABLE = "achievable"
FANO = "fano"


# ---------------------------------------------------------------------------
# elementary quantities


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x), with H(0) = H(1) = 0."""
    _check_unit("x", x)
    return float(_h2(x))


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
    _check_integers(n=n, k=k)
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
    _check_integers(K=k, i=i)
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


def _h_given_known(k: int, i: int, p: float, noise_model: NoiseModel) -> float:
    """H(Y | X2): with w2 of the K-i known members pooled, a test reads
    negative when no false alarm fires, no pooled known member gets through,
    and no unknown member is both pooled and unerased:
    P(Y=0 | w2) = (1-q) u**w2 (1 - p(1-u))**i.  At i = 0 every member is
    known, and this is H(Y | X1, X2): the unknown factor is exactly 1.0."""
    q, u = noise_model.law
    known = np.arange(k - i + 1)
    unknown_negative = (1.0 - p * (1.0 - u)) ** i
    return (_binomial_pmf(k - i, p)
            * _h2((1.0 - q) * np.float_power(u, known) * unknown_negative)).sum()


# a K = 2,000 table takes 0.15-0.2 s; typed, so that an argument equal to a
# cached one but of another type (2.0 for 2, 0.5+0j for 0.5) is still checked
@lru_cache(maxsize=64, typed=True)
def mutual_information_by_overlap(k: int, p: float, noise_model: NoiseModel) -> tuple[float, ...]:
    """I(X1; X2, Y) = H(Y|X2) - H(Y|X1,X2) for i = 1..K, from the channel
    law (q, u), with the i-independent H(Y|X1,X2) read once as the i = 0
    entry; recent tables are memoized."""
    _check_partition(k, 1, p)
    h = [_h_given_known(k, i, p, noise_model) for i in range(k + 1)]
    return tuple(float(h_i - h[0]) for h_i in h[1:])


def mutual_information(k: int, i: int, p: float, noise_model: NoiseModel) -> float:
    """Entry i of ``mutual_information_by_overlap(k, p, noise_model)``."""
    _check_partition(k, i, p)
    return mutual_information_by_overlap(k, p, noise_model)[i - 1]


# ---------------------------------------------------------------------------
# random-coding exponent and the per-overlap error bound


def gallager_e0(k: int, i: int, p: float, noise_model: NoiseModel, rho: float) -> float:
    """Random-coding exponent E0(rho) in bits for the size-i overlap channel.

    E0 = -log2 sum_{y, x2} [ sum_{x1} Q(x1) (Q(x2) P(y|x1,x2))^(1/(1+rho)) ]^(1+rho).

    The summand depends on x1, x2 only through their weights w1, w2, so
    E0 = -log2 sum_{y, w2} P_{K-i}(w2) [ sum_{w1} P_i(w1) P(y|w1+w2)^(1/(1+rho)) ]^(1+rho)
    with the binomial weights the mutual information reads, which is exact.
    The slope at rho = 0 equals the per-test mutual information.
    """
    _check_partition(k, i, p)
    _check_unit("rho", rho)
    return _e0(_e0_terms(k, i, p, noise_model), rho)


def _e0_terms(k: int, i: int, p: float, noise_model: NoiseModel):
    """E0's inputs, which do not depend on rho: the binomial weights of the
    unknown and known parts and P(y | w1 + w2) for y = 0, 1."""
    py1 = noise_model.positive_probability(np.arange(i + 1)[:, None] + np.arange(k - i + 1))
    return _binomial_pmf(i, p), _binomial_pmf(k - i, p), (1.0 - py1, py1)


def _e0(terms, rho: float) -> float:
    """E0(rho) in bits from ``_e0_terms``."""
    if rho == 0.0:
        return 0.0  # the double sum collapses to total probability 1
    unknown, known, channel = terms
    total = sum(float(known @ (unknown @ np.float_power(pyx, 1.0 / (1.0 + rho))) ** (1.0 + rho))
                for pyx in channel)
    return -math.log2(total)


_GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0


def _competing_bits(n_items: int, k: int, i: int) -> tuple[float, float]:
    """(log2 C(N-K, i), log2 C(K, i)): the sets that differ from the truth
    in exactly i items count C(N-K, i) C(K, i)."""
    return log2_binom(n_items - k, i), log2_binom(k, i)


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
    then clamped to at most 1.  E0's inputs are built once per bound.  E0
    is concave in rho (Gallager 1968, Thm 5.6.3), so the exponent is too,
    and golden-section search over [0, 1] finds its maximum.  The search
    never evaluates the endpoints, so it is compared with the exponent at
    rho = 1; the clamp at 1 stands for rho = 0, where the exponent is 0.
    It is 0 for i > N-K: no set differs from the truth in more items than
    lie outside it.
    """
    _check_defectives(n_items, k)
    _check_design(n_items, n_tests, p)
    _check_partition(k, i, p)
    if i > n_items - k:
        return 0.0
    log_num = sum(_competing_bits(n_items, k, i))  # 0.0 + rest + known, exactly
    terms = _e0_terms(k, i, p, noise_model)

    def exponent(rho: float) -> float:
        return n_tests * _e0(terms, rho) - rho * log_num

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


BOUND_CSV_HEADER = [
    "kind", "N", "K", "p", "channel", "param",
    "i", "numerator_bits", "mi_bits", "ratio_tests",
]


@dataclass(frozen=True)
class BoundReport:
    """One bound family's per-overlap columns, entry j for i = j + 1: the
    combinatorial numerators and the per-test information clamped at 0.
    Derived from them: each ratio (inf where the information is 0), the
    test count ``bound_tests``, their largest, and ``argmax_i``, the first
    maximizer, so ties resolve to the smallest i."""

    kind: str  # "achievable" or "fano"
    n_items: int
    n_defectives: int
    p: float
    noise: NoiseModel
    numerator_bits: tuple[float, ...]
    mi_bits: tuple[float, ...]

    @property
    def ratio_tests(self) -> tuple[float, ...]:
        return tuple(math.inf if m <= 0.0 else num / m
                     for num, m in zip(self.numerator_bits, self.mi_bits))

    @property
    def bound_tests(self) -> float:
        return max(self.ratio_tests)

    @property
    def argmax_i(self) -> int:
        return self.ratio_tests.index(self.bound_tests) + 1

    def csv_rows(self) -> list[list]:
        """One row per i, then a summary row with i = -1 carrying argmax_i
        (numerator_bits column) and bound_tests (ratio_tests column)."""
        prefix = [self.kind, self.n_items, self.n_defectives, self.p, self.noise.kind,
                  "" if self.noise.param is None else self.noise.param]
        rows = [prefix + [i, *column] for i, column in enumerate(
            zip(self.numerator_bits, self.mi_bits, self.ratio_tests), start=1)]
        return rows + [prefix + [-1, self.argmax_i, "", self.bound_tests]]


def _bound_report(kind: str, n_items: int, k: int, p: float, noise: NoiseModel,
                  numerator_bits: list[float]) -> BoundReport:
    """The report over i = 1..len(numerator_bits)."""
    mi = mutual_information_by_overlap(k, p, noise)[:len(numerator_bits)]
    return BoundReport(kind, int(n_items), int(k), float(p), noise, tuple(numerator_bits),
                       tuple(max(m, 0.0) for m in mi))


def achievable_tests(n_items: int, k: int, p: float, noise_model: NoiseModel) -> BoundReport:
    """Sufficient test count: max_i log2[K C(N-K,i) C(K,i)] / I_i, over the
    overlaps i = 1..min(K, N-K) that a competing set can have."""
    _check_defectives(n_items, k)
    bits = [_competing_bits(n_items, k, i) for i in range(1, min(k, n_items - k) + 1)]
    return _bound_report(ACHIEVABLE, n_items, k, p, noise_model,
                         [math.log2(k) + rest + known for rest, known in bits])


def fano_lower_bound(n_items: int, k: int, p: float, noise_model: NoiseModel) -> BoundReport:
    """Necessary test count: max_i log2 C(N-K+i, i) / I_i."""
    _check_defectives(n_items, k)
    return _bound_report(FANO, n_items, k, p, noise_model,
                         [log2_binom(n_items - k + i, i) for i in range(1, k + 1)])


def additive_converse(n_items: int, k: int, q: float) -> float:
    """Order-of-growth necessary test count for the additive channel.

    K log2(N/K) divided by the large-K information ceiling
    (1-1/K)**K (2(1-q) + q ln(1/q)) / ln 2.  This is an asymptotic
    witness, not a sharp finite-size constant; K = 1 returns inf.
    """
    _check_unit("additive q", q, strict=True)
    _check_defectives(n_items, k)
    noise_term = 2.0 * (1.0 - q) + q * math.log(1.0 / q)
    denom = ((1.0 - 1.0 / k) ** k) * noise_term / LN2
    if denom == 0.0:
        return math.inf
    return k * math.log2(n_items / k) / denom
