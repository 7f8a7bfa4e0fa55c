import math

import numpy as np
import pytest

from gtlab import (
    BOUND_CSV_HEADER,
    CapacityError,
    NoiseModel,
    ParameterError,
    achievable_tests,
    additive_converse,
    binary_entropy,
    fano_lower_bound,
    gallager_e0,
    log2_binom,
    mi_bruteforce,
    mutual_information,
    mutual_information_by_overlap,
    pei_upper_bound,
)
from gtlab.acceptance import _MI_KS, _channel_grid, _p_values
import gtlab.bounds
from gtlab.bounds import _check_partition, _h2
from gtlab.cli import main as cli_main
from gtlab.model import ADDITIVE, NOISE_FREE

NF = NoiseModel.noise_free()

# frozen oracle outputs (computed by the implementations they pin, then frozen)
H_011 = 0.499915958164528
MI_DILUTION_4_2 = 0.3304176052823262  # mi_bruteforce(4, 2, 0.25, dilution 0.3)
CONVERSE_1E4_10_05 = 147.12340121901795


# ---------------------------------------------------------------------------
# the paper's per-channel closed forms, kept as references for the law form


def mi_noise_free(k: int, i: int, p: float) -> float:
    """(1-p)**(K-i) * H((1-p)**i)."""
    _check_partition(k, i, p)
    return (1.0 - p) ** (k - i) * binary_entropy((1.0 - p) ** i)


def mi_additive(k: int, i: int, p: float, q: float) -> float:
    """(1-p)**(K-i) * [H((1-p)**i (1-q)) - (1-p)**i H(q)]."""
    _check_partition(k, i, p)
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"additive q must lie in [0, 1], got {q}")
    r = (1.0 - p) ** i
    return (1.0 - p) ** (k - i) * (binary_entropy(r * (1.0 - q)) - r * binary_entropy(q))


def mi_dilution(k: int, i: int, p: float, u: float) -> float:
    """H(Y|X2) - H(Y|X) for the per-participant erasure channel.

    With s = 1-u and j present items among the known K-i,
    P(Y=0 | j) = u**j * (1 - p*s)**i, and with all K memberships known,
    P(Y=0 | j present) = u**j.  Both conditional entropies are binomial
    mixtures over j; the general-p form is kept (not only p = 1/K).
    """
    _check_partition(k, i, p)
    if not 0.0 <= u <= 1.0:
        raise ParameterError(f"dilution u must lie in [0, 1], got {u}")
    # imported here so that only the tests that use it pay scipy.stats' ~1 s import;
    # the closed form comb * p**j * (1-p)**(k-j) differs from it in the last ulp
    from scipy.stats import binom as _binom_dist

    s = 1.0 - u
    unknown_absent = (1.0 - p * s) ** i

    j2 = np.arange(k - i + 1)
    weights2 = _binom_dist.pmf(j2, k - i, p)
    h_given_known = float((weights2 * _h2(np.float_power(u, j2) * unknown_absent)).sum())

    j = np.arange(k + 1)
    weights = _binom_dist.pmf(j, k, p)
    h_given_all = float((weights * _h2(np.float_power(u, j))).sum())
    return h_given_known - h_given_all


def mi_closed_form(k: int, i: int, p: float, noise_model: NoiseModel) -> float:
    """Dispatch to the channel's closed form."""
    if noise_model.kind == NOISE_FREE:
        return mi_noise_free(k, i, p)
    if noise_model.kind == ADDITIVE:
        return mi_additive(k, i, p, noise_model.q)
    return mi_dilution(k, i, p, noise_model.u)


def e0_by_weights(k: int, i: int, p: float, noise_model: NoiseModel, rho: float) -> float:
    """E0(rho) summed over participation weights with multiplicities C(n, w)
    and per-state probabilities p**w (1-p)**(n-w); float(C(n, w)) overflows
    from n = 1,030, so this reference serves small K only."""
    s = 1.0 / (1.0 + rho)
    w1, w2 = np.arange(i + 1), np.arange(k - i + 1)
    mult1 = np.array([math.comb(i, int(a)) for a in w1], dtype=np.float64)
    mult2 = np.array([math.comb(k - i, int(b)) for b in w2], dtype=np.float64)
    q1 = p**w1 * (1.0 - p) ** (i - w1)
    q2 = p**w2 * (1.0 - p) ** (k - i - w2)
    py1 = noise_model.positive_probability(w1[:, None] + w2[None, :])
    total = 0.0
    for pyx in (1.0 - py1, py1):
        inner = ((mult1 * q1)[:, None] * np.float_power(q2[None, :] * pyx, s)).sum(axis=0)
        total += float((mult2 * np.float_power(inner, 1.0 + rho)).sum())
    return -math.log2(total)


# ---------------------------------------------------------------------------
# the channel law the bounds read


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_positive_probability_is_bitwise_the_per_channel_expressions():
    """P(Y=1 | c) from the one channel law equals, bit for bit, the three
    per-channel expressions it replaced, for c = 0..20 with q and u on a
    grid that includes 0 and 1 (at q = 0.1, 1 - (1-q) is not q)."""
    w = np.arange(21)
    assert _same_bits(NF.positive_probability(w), (w > 0).astype(np.float64))
    for v in (0.0, 1e-17, 0.05, 0.1, 0.2, 0.25, 0.3, 1 / 3, 0.5, 0.7, 0.75, 0.9,
              0.999, 1 - 1e-12, 1.0):
        assert _same_bits(NoiseModel.additive(v).positive_probability(w),
                          np.where(w > 0, 1.0, v)), v
        assert _same_bits(NoiseModel.dilution(v).positive_probability(w),
                          1.0 - np.float_power(v, w)), v
    assert 1.0 - (1.0 - 0.1) != 0.1


# ---------------------------------------------------------------------------
# entropy & binomials


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.11) - H_011) <= 1e-5
    assert binary_entropy(0.3) == binary_entropy(0.7)


@pytest.mark.parametrize("x", [-0.1, 1.1, 2.0])
def test_binary_entropy_domain(x):
    with pytest.raises(ParameterError):
        binary_entropy(x)


def test_log2_binom_matches_exact_integers():
    for n in (5, 30, 200):
        for k in range(n + 1):
            exact = math.log2(math.comb(n, k))
            assert abs(log2_binom(n, k) - exact) <= 1e-9 * max(1.0, exact)


def test_log2_binom_large_n():
    n, k = 10**9, 5
    exact = math.log2(math.comb(n, k))
    assert abs(log2_binom(n, k) - exact) <= 1e-9 * exact


@pytest.mark.parametrize("n,k", [(4001, 2001), (10**6, 2500), (10**9, 3000)])
def test_log2_binom_gamma_regime(n, k):
    """Past min(k, n-k) = 2000 the log-gamma route still meets 1e-9 relative."""
    exact = math.log2(math.comb(n, k))
    assert abs(log2_binom(n, k) - exact) <= 1e-9 * exact


def test_log2_binom_domain():
    with pytest.raises(ParameterError):
        log2_binom(4, 5)
    with pytest.raises(ParameterError):
        log2_binom(4, -1)


# ---------------------------------------------------------------------------
# mutual information


def test_oracle_single_item_is_one_bit():
    assert abs(mi_bruteforce(1, 1, 0.5, NF) - 1.0) <= 1e-12


def test_oracle_saturated_additive_carries_nothing():
    assert abs(mi_bruteforce(3, 2, 1 / 3, NoiseModel.additive(1.0))) <= 1e-12


def test_oracle_dilution_regression_value():
    got = mi_bruteforce(4, 2, 0.25, NoiseModel.dilution(0.3))
    assert abs(got - MI_DILUTION_4_2) <= 1e-12


def test_oracle_enumeration_cap():
    with pytest.raises(CapacityError):
        mi_bruteforce(21, 1, 0.1, NF)


def test_noise_free_single_item():
    assert mutual_information(1, 1, 0.5, NF) == 1.0


@pytest.mark.parametrize(
    "k,i,p,noise",
    [
        (5, 3, 0.2, NF),
        (6, 4, 1 / 6, NoiseModel.additive(0.2)),
        (5, 2, 0.2, NoiseModel.dilution(0.25)),
    ],
)
def test_closed_forms_match_oracle(k, i, p, noise):
    if noise.kind == "noise-free":
        closed = mi_noise_free(k, i, p)
    elif noise.kind == "additive":
        closed = mi_additive(k, i, p, noise.q)
    else:
        closed = mi_dilution(k, i, p, noise.u)
    assert abs(closed - mi_bruteforce(k, i, p, noise)) <= 1e-12


def test_law_form_matches_closed_forms_on_the_oracle_grid():
    # criterion 1's 1,134 configurations
    worst = 0.0
    for k in _MI_KS:
        for i in range(1, k + 1):
            for p in _p_values(k):
                for noise in _channel_grid():
                    closed = mi_closed_form(k, i, p, noise)
                    worst = max(worst, abs(mutual_information(k, i, p, noise) - closed) / closed)
    assert worst <= 1e-12


@pytest.mark.parametrize("noise", [NF, NoiseModel.additive(0.1), NoiseModel.dilution(0.1)],
                         ids=lambda noise: noise.describe())
def test_law_form_at_two_thousand_defectives(noise):
    # float(C(K, j)) overflows for some j once K >= 1,030; the binomial weights must not
    k = 2000
    for i in (1, 2, k):
        law = mutual_information(k, i, 1 / k, noise)
        closed = mi_closed_form(k, i, 1 / k, noise)
        assert math.isfinite(law) and abs(law - closed) <= 1e-8 * closed


def test_zero_noise_reduces_to_noise_free_exactly():
    for k in (2, 5, 9):
        for i in range(1, k + 1):
            for p in (0.1, 1 / k, 0.5):
                base = mi_noise_free(k, i, p)
                for noise in (NF, NoiseModel.additive(0.0), NoiseModel.dilution(0.0)):
                    assert abs(mutual_information(k, i, p, noise) - base) <= 1e-15


def test_saturated_channels_carry_nothing():
    assert mutual_information(4, 2, 0.3, NoiseModel.additive(1.0)) == 0.0
    assert mutual_information(4, 2, 0.3, NoiseModel.dilution(1.0)) == 0.0


def test_noise_free_asymptotic_floor():
    # I >= e^-1 * i / (K ln 2) at p = 1/K, here for K=10, i=1
    assert mutual_information(10, 1, 0.1, NF) >= math.exp(-1) / (10 * math.log(2))


def test_additive_information_nonincreasing_in_q():
    grid = np.linspace(0.0, 0.95, 20)
    for k in (2, 4, 8):
        for i in (1, k):
            for p in (0.1, 1 / k, 0.5):
                values = [mutual_information(k, i, p, NoiseModel.additive(float(q))) for q in grid]
                assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_dilution_information_nonincreasing_in_u_on_design_grid():
    # Holds for design-relevant participation (p <= 1/K).  Over-dense designs
    # (for instance p = 0.5 with K = 8) genuinely gain information from mild
    # dilution because it rebalances the almost-always-positive outcomes.
    grid = np.linspace(0.0, 0.95, 20)
    for k in (2, 4, 8):
        for i in (1, k):
            for p in (0.1, 1 / k):
                values = [mutual_information(k, i, p, NoiseModel.dilution(float(u))) for u in grid]
                assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_conditioning_on_the_partition_never_gains_information():
    # I(X1; X2, Y) <= I(X; Y), the latter being the i = K partition
    for noise in (NF, NoiseModel.additive(0.2), NoiseModel.dilution(0.2)):
        for k in (3, 5):
            for p in (0.2, 1 / k):
                full = mi_bruteforce(k, k, p, noise)
                for i in range(1, k):
                    assert mi_bruteforce(k, i, p, noise) <= full + 1e-12


@pytest.mark.parametrize("k,i", [(0, 1), (3, 0), (3, 4)])
def test_partition_domain(k, i):
    with pytest.raises(ParameterError):
        mutual_information(k, i, 0.3, NF)


# ---------------------------------------------------------------------------
# exponent


def test_e0_at_zero_is_exactly_zero():
    for noise in (NF, NoiseModel.additive(0.3), NoiseModel.dilution(0.3)):
        for k, i in ((1, 1), (4, 2), (7, 7)):
            assert gallager_e0(k, i, 0.25, noise, 0.0) == 0.0


def test_e0_slope_matches_mutual_information():
    delta = 1e-5
    slope = gallager_e0(3, 1, 1 / 3, NF, delta) / delta
    mi = mutual_information(3, 1, 1 / 3, NF)
    assert abs(slope - mi) / mi <= 1e-3


def test_e0_nondecreasing_in_rho():
    grid = np.linspace(0.0, 1.0, 11)
    for noise in (NoiseModel.additive(0.1), NoiseModel.dilution(0.3), NF):
        values = [gallager_e0(4, 2, 0.25, noise, float(r)) for r in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_e0_domain_and_cap():
    # no enumeration cap: test_every_bound_takes_large_defective_counts runs K = 2,000
    with pytest.raises(ParameterError):
        gallager_e0(3, 1, 0.3, NF, 1.5)
    with pytest.raises(ParameterError):
        gallager_e0(3, 1, 0.3, NF, -0.1)


def test_e0_matches_the_per_weight_reference():
    worst = 0.0
    channels = [NF, NoiseModel.additive(0.1), NoiseModel.additive(0.25),
                NoiseModel.dilution(0.1), NoiseModel.dilution(0.3)]
    for k in range(2, 21):
        for i in range(1, k + 1):
            for p in (0.1, 1 / k, 0.5):
                for noise in channels:
                    for rho in (1e-5, 1e-3, 0.1, 0.5, 1.0):
                        got = gallager_e0(k, i, p, noise, rho)
                        worst = max(worst, abs(got - e0_by_weights(k, i, p, noise, rho)))
    assert worst <= 1e-13


# ---------------------------------------------------------------------------
# per-overlap error bound


def test_pei_bound_with_no_tests_is_one():
    assert pei_upper_bound(30, 3, 1, 0, 1 / 3, NF) == 1.0


def test_pei_bound_decreases_with_tests():
    b100 = pei_upper_bound(30, 3, 1, 100, 1 / 3, NF)
    b200 = pei_upper_bound(30, 3, 1, 200, 1 / 3, NF)
    assert b200 < b100 < 1.0


def test_pei_bound_never_exceeds_one():
    for t in (0, 1, 5, 50):
        assert pei_upper_bound(30, 3, 2, t, 1 / 3, NoiseModel.additive(0.4)) <= 1.0


def test_pei_bound_meets_the_minimum_over_a_dense_rho_grid():
    """The search is never above the best of 1,001 rho values by more than
    1e-12 relative, with optima at rho = 0 (T = 0), inside (0, 1) and at 1."""
    rho = np.linspace(0.0, 1.0, 1001)
    optima = set()
    for noise in (NF, NoiseModel.additive(0.1), NoiseModel.dilution(0.3)):
        for i in (1, 3):
            e0 = np.array([gallager_e0(3, i, 1 / 3, noise, float(r)) for r in rho])
            log_num = math.log2(math.comb(27, i) * math.comb(3, i))
            for t in (0, 20, 60):
                exponent = t * e0 - rho * log_num
                best = int(np.argmax(exponent))
                optima.add("inside" if 0 < best < rho.size - 1 else rho[best])
                grid_min = min(1.0, float(2.0 ** -exponent[best]))
                assert pei_upper_bound(30, 3, i, t, 1 / 3, noise) <= grid_min * (1 + 1e-12)
    assert optima == {0.0, "inside", 1.0}


def pei_by_e0_calls(n, k, i, t, p, noise):
    """The per-overlap bound's golden-section search over the public
    ``gallager_e0``, which rebuilds E0's inputs at every rho."""
    if i > n - k:
        return 0.0
    log_num = log2_binom(n - k, i) + log2_binom(k, i)

    def exponent(rho):
        return t * gallager_e0(k, i, p, noise, rho) - rho * log_num

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    c, d = 1.0 - golden, golden
    fc, fd = exponent(c), exponent(d)
    for _ in range(40):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = exponent(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = exponent(d)
    return min(1.0, 2.0 ** -max(exponent(1.0), fc, fd))


def test_pei_bound_builds_e0_inputs_once_and_keeps_every_value(monkeypatch):
    """E0's inputs built once per bound give the bound bit for bit as a
    search that rebuilds them at every rho, and the binomial weights are
    built at most twice per bound."""
    calls = []

    def counted(*args, _original=gtlab.bounds._binomial_pmf):
        calls.append(args)
        return _original(*args)

    monkeypatch.setattr(gtlab.bounds, "_binomial_pmf", counted)
    channels = (NF, NoiseModel.additive(0.1), NoiseModel.dilution(0.3))
    for k in (2, 8, 50):
        for i in sorted({1, k // 2, k}):
            for t in (0, 5, 40, 400):
                for noise in channels:
                    expected = pei_by_e0_calls(10**4, k, i, t, 1.0 / k, noise)
                    calls.clear()
                    assert pei_upper_bound(10**4, k, i, t, 1.0 / k, noise) == expected
                    assert len(calls) <= 2


# ---------------------------------------------------------------------------
# test-count bounds


def test_achievable_smallest_case_is_degenerate_zero():
    report = achievable_tests(2, 1, 0.5, NF)
    assert report.bound_tests == 0.0
    assert report.numerator_bits[0] == 0.0
    assert report.mi_bits[0] != 0.0


def test_achievable_entries_cross_checked_against_oracle(tmp_path):
    # at N = K+1 a competing set differs from the truth in one item at most,
    # so the report lists i = 1 only and the per-overlap bound is 0 beyond it
    for n, k in ((100, 2), (3, 2), (5, 4)):
        report = achievable_tests(n, k, 0.5, NF)
        assert len(report.numerator_bits) == len(report.mi_bits) == min(k, n - k)
        columns = zip(report.numerator_bits, report.ratio_tests)
        for i, (numerator_bits, ratio) in enumerate(columns, start=1):
            numerator = math.log2(k * math.comb(n - k, i) * math.comb(k, i))
            oracle = mi_bruteforce(k, i, 0.5, NF)
            assert abs(numerator_bits - numerator) <= 1e-9
            assert abs(ratio - numerator / oracle) <= 1e-6
        assert report.bound_tests == max(report.ratio_tests)
        assert report.argmax_i == min(
            i for i, ratio in enumerate(report.ratio_tests, start=1) if ratio == report.bound_tests
        )
    assert pei_upper_bound(3, 2, 2, 10, 0.5, NF) == 0.0
    assert 0.0 < pei_upper_bound(3, 2, 1, 10, 0.5, NF) < 1.0
    with pytest.raises(ParameterError):
        pei_upper_bound(3, 2, 3, 10, 0.5, NF)
    assert cli_main(["bounds", "-N", "3", "-K", "2", "--kind", "both",
                     "--out", str(tmp_path / "b.csv")]) == 0


def test_achievable_scaling_is_k_log_n():
    # bound(N=1e4) / bound(N=1e2) tracks log(1e4)/log(1e2) = 2 within 25%
    for k in (2, 5, 10):
        small = achievable_tests(100, k, 1 / k, NF).bound_tests
        large = achievable_tests(10_000, k, 1 / k, NF).bound_tests
        assert 1.5 <= large / small <= 2.5


def test_fano_single_defective_hand_value():
    report = fano_lower_bound(100, 1, 0.5, NF)
    assert abs(report.bound_tests - math.log2(100)) <= 1e-9
    assert report.argmax_i == 1


def test_fano_below_achievable_spot_grid():
    for n, k in ((30, 3), (100, 5), (1000, 8)):
        for noise in (NF, NoiseModel.additive(0.3), NoiseModel.dilution(0.3)):
            fano = fano_lower_bound(n, k, 1 / k, noise).bound_tests
            ach = achievable_tests(n, k, 1 / k, noise).bound_tests
            assert fano <= ach


def test_saturated_channel_flags_infinite_bound():
    report = fano_lower_bound(50, 3, 1 / 3, NoiseModel.additive(1.0))
    assert math.isinf(report.bound_tests)
    assert all(m == 0.0 for m in report.mi_bits)
    # still serializes without exceptions
    rows = report.csv_rows()
    assert len(rows) == 4


def test_bound_domain_errors():
    with pytest.raises(ParameterError):
        achievable_tests(5, 5, 0.2, NF)
    with pytest.raises(ParameterError):
        fano_lower_bound(5, 0, 0.2, NF)


def test_bound_report_csv_shape():
    report = achievable_tests(40, 4, 0.25, NoiseModel.dilution(0.2))
    rows = report.csv_rows()
    assert len(rows) == 5  # K per-i rows + summary
    header = BOUND_CSV_HEADER
    assert header[:6] == ["kind", "N", "K", "p", "channel", "param"]
    summary = rows[-1]
    assert summary[6] == -1
    assert summary[7] == report.argmax_i
    assert summary[9] == report.bound_tests
    for i, (row, ratio) in enumerate(zip(rows, report.ratio_tests), start=1):
        assert row[6] == i and row[9] == ratio


def test_shared_mutual_information_keeps_every_value():
    """I_i from the one shared H(Y|X1,X2) matches the closed forms to 1e-12
    relative, and both bound families read that table."""
    mutual_information_by_overlap.cache_clear()
    for noise in (NF, NoiseModel.additive(0.25), NoiseModel.dilution(0.3)):
        for k, p in ((1, 0.5), (4, 0.25), (40, 1 / 40), (300, 0.01)):
            shared = mutual_information_by_overlap(k, p, noise)
            closed = [mi_closed_form(k, i, p, noise) for i in range(1, k + 1)]
            assert all(abs(v - c) <= 1e-12 * c for v, c in zip(shared, closed))
            for bound in (achievable_tests, fano_lower_bound):
                read = bound(1000, k, p, noise).mi_bits
                assert read == tuple(max(v, 0.0) for v in shared)


def test_bounds_both_computes_each_mixture_once(monkeypatch, tmp_path):
    """H(Y|X2) once per i = 1..K, and H(Y|X1,X2) once as its i = 0 entry."""
    calls = []

    def counted(*args, _original=gtlab.bounds._h_given_known):
        calls.append(args[1])
        return _original(*args)

    monkeypatch.setattr(gtlab.bounds, "_h_given_known", counted)
    mutual_information_by_overlap.cache_clear()
    argv = ["bounds", "--model", "dilution", "--u", "0.3", "-N", "500", "-K", "50",
            "--kind", "both", "--out", str(tmp_path / "b.csv")]
    assert cli_main(argv) == 0
    assert calls == list(range(51))
    assert cli_main(argv) == 0  # the second run reads the memoized table
    assert calls == list(range(51))


# ---------------------------------------------------------------------------
# additive converse


def test_converse_increases_toward_saturation():
    values = [additive_converse(10_000, 10, q) for q in np.arange(0.1, 0.95, 0.1)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_converse_regression_values():
    assert abs(additive_converse(10_000, 10, 0.5) - CONVERSE_1E4_10_05) <= 1e-9


def test_converse_stays_below_achievable():
    for n in (1000, 10_000):
        for k in (5, 10, 20):
            for q in (0.1, 0.3, 0.5, 0.7, 0.9):
                converse = additive_converse(n, k, q)
                ach = achievable_tests(n, k, 1 / k, NoiseModel.additive(q)).bound_tests
                assert converse <= ach


def test_converse_domain():
    with pytest.raises(ParameterError):
        additive_converse(100, 5, 0.0)
    with pytest.raises(ParameterError):
        additive_converse(100, 5, 1.0)
    assert math.isinf(additive_converse(100, 1, 0.5))
