import math

import numpy as np
import pytest

from gtlab import (
    CapacityError,
    Codebook,
    DefectiveSet,
    NoiseModel,
    ParameterError,
    achievable_tests,
    additive_converse,
    apply_channel,
    ci_half_width,
    empirical_pei_profile,
    estimate_average_error,
    estimate_partial_error,
    estimate_sweep,
    estimate_worstcase_error,
    fano_lower_bound,
    find_minimal_t,
    generate_codebook,
    miss_distance,
    ml_decode,
    pei_upper_bound,
)
from gtlab.bitops import pack_bits
from gtlab.cli import main as cli_main
import gtlab.decoder
import gtlab.montecarlo
from gtlab.montecarlo import _collect_histogram, _sample_truth, _TrialStream, _worst_outcomes
from gtlab.rng import mix64

NF = NoiseModel.noise_free()


def make_codebook(bits, p=0.5, seed=0):
    bits = np.asarray(bits, dtype=np.uint8)
    return Codebook(n_items=bits.shape[0], n_tests=bits.shape[1], p=p, seed=seed,
                    words=pack_bits(bits))


def reference_histogram(n, k, t, p, noise, trials, seed):
    """Erring trials by miss distance, each trial drawn afresh at T from its
    keys (codebook 0, truth 1, noise 2 under mix64(seed, trial)), apart from
    the trial stream."""
    hist = [0] * (k + 1)
    for trial in range(trials):
        trial_key = mix64(seed, trial)
        codebook = generate_codebook(n, t, p, mix64(trial_key, 0))
        truth = _sample_truth(n, k, mix64(trial_key, 1))
        outcome = apply_channel(codebook, truth, noise, mix64(trial_key, 2))
        result = ml_decode(codebook, outcome, k, noise)
        if result.tie or result.best_set != truth:
            hist[miss_distance(truth, result.best_set)] += 1
    return tuple(hist)


# ---------------------------------------------------------------------------
# average error


def test_generous_test_budget_decodes_reliably():
    # two random 64-bit rows cover each other with probability ~(3/4)^64
    est = estimate_average_error(16, 1, 64, 0.5, NF, 500, 3)
    assert est.p_hat <= 0.01


def test_no_tests_means_certain_error():
    est = estimate_average_error(8, 2, 0, 0.5, NF, 200, 3)
    assert est.p_hat == 1.0  # every trial ties across all sets


def test_estimates_are_deterministic():
    noise = NoiseModel.additive(0.9)
    a = estimate_average_error(12, 2, 20, 0.5, noise, 300, 17)
    b = estimate_average_error(12, 2, 20, 0.5, noise, 300, 17)
    assert a == b
    noise = NoiseModel.dilution(0.3)
    a = estimate_average_error(14, 3, 18, 1 / 3, noise, 120, 5)
    b = estimate_average_error(14, 3, 18, 1 / 3, noise, 120, 5)
    assert a == b


def test_average_error_matches_independent_trial_loop():
    """Reimplement the trial loop from primitives; identical seeds must
    reproduce the estimator's error count exactly."""
    n, k, t, p = 10, 2, 14, 0.5
    noise = NoiseModel.additive(0.9)
    trials, master_seed = 200, 77
    errors = sum(reference_histogram(n, k, t, p, noise, trials, master_seed))
    est = estimate_average_error(n, k, t, p, noise, trials, master_seed)
    assert est.errors == errors
    assert est.p_hat == errors / trials


def test_average_error_nonincreasing_in_t():
    noise = NoiseModel.additive(0.2)
    trials = 400
    estimates = [
        estimate_average_error(20, 2, t, 0.5, noise, trials, 5) for t in (10, 20, 40)
    ]
    for lower_t, higher_t in zip(estimates, estimates[1:]):
        slack = 3 * math.sqrt(max(lower_t.p_hat * (1 - lower_t.p_hat), 1e-4) / trials)
        assert higher_t.p_hat <= lower_t.p_hat + slack


def test_error_small_at_scaled_achievable_t():
    # the sufficient-count bound is asymptotic; at desk scale a 3x slack
    # factor makes it a usable yardstick (see decisions notes)
    for noise in (NF, NoiseModel.additive(0.25), NoiseModel.dilution(0.25)):
        bound = achievable_tests(64, 2, 0.5, noise).bound_tests
        t = math.ceil(3.0 * bound)
        est = estimate_average_error(64, 2, t, 0.5, noise, 400, 5)
        assert est.p_hat <= 0.1


def test_budget_error_propagates():
    with pytest.raises(CapacityError):
        estimate_average_error(80, 9, 10, 0.2, NF, 10, 1)


def test_invalid_trial_counts():
    with pytest.raises(ParameterError):
        estimate_average_error(10, 2, 5, 0.5, NF, 0, 1)


def test_every_entry_point_needs_one_to_n_minus_one_defectives():
    """The estimators, the worst case, the bounds and the command line all
    reject K = 0 and K >= N alike."""
    for n, k in ((6, 0), (6, 6), (6, 7)):
        for call in (
            lambda: estimate_average_error(n, k, 8, 0.5, NF, 10, 1),
            lambda: estimate_partial_error(n, k, 8, 0.5, NF, 0.5, 10, 1),
            lambda: empirical_pei_profile(n, k, 8, 0.5, NF, 10, 1),
            lambda: estimate_sweep(n, k, 0.5, NF, [4, 8], 10, 1),
            lambda: find_minimal_t(n, k, 0.5, NF, 0.1, 10, [4, 8], 1),
            lambda: estimate_worstcase_error(generate_codebook(n, 8, 0.5, 1), k, NF, 1),
            lambda: achievable_tests(n, k, 0.5, NF),
            lambda: fano_lower_bound(n, k, 0.5, NF),
            lambda: additive_converse(n, k, 0.2),
            lambda: pei_upper_bound(n, k, 1, 8, 0.5, NF),
        ):
            with pytest.raises(ParameterError, match=f"need 1 <= K < N, got N={n}, K={k}"):
                call()
        assert cli_main(["bounds", "-N", str(n), "-K", str(k), "--p", "0.5"]) == 2


@pytest.mark.parametrize("trials", [0, -5])
def test_stream_estimators_reject_invalid_trial_counts(trials):
    """The trial stream allocates nothing before the trial count is checked."""
    with pytest.raises(ParameterError):
        estimate_sweep(10, 2, 0.5, NF, [5, 10], trials, 1)
    with pytest.raises(ParameterError):
        find_minimal_t(10, 2, 0.5, NF, 0.1, trials, [5, 10], 1)


# ---------------------------------------------------------------------------
# partial error


def test_partial_error_nested_in_alpha():
    noise = NF
    n, k, t, trials, seed = 24, 4, 28, 400, 11
    estimates = [
        estimate_partial_error(n, k, t, 0.25, noise, alpha, trials, seed)
        for alpha in (0.25, 0.5, 0.75)
    ]
    average = estimate_average_error(n, k, t, 0.25, noise, trials, seed)
    assert estimates[0].p_hat >= estimates[1].p_hat >= estimates[2].p_hat
    assert estimates[0].p_hat <= average.p_hat


def test_high_alpha_only_counts_disjoint_decodes():
    # alpha >= (K-1)/K leaves an error only when every true item is missed
    n, k, t = 12, 2, 0
    trials, seed = 300, 9
    partial = estimate_partial_error(n, k, t, 0.5, NF, 0.5, trials, seed)
    profile = empirical_pei_profile(n, k, t, 0.5, NF, trials, seed)
    disjoint_rate = dict(profile)[2]
    assert partial.p_hat == disjoint_rate


def test_tie_alone_is_not_a_partial_error():
    # with no tests every trial ties, yet the partial criterion only errs
    # when the lexicographic winner misses too many true items
    average = estimate_average_error(6, 2, 0, 0.5, NF, 300, 4)
    partial = estimate_partial_error(6, 2, 0, 0.5, NF, 0.5, 300, 4)
    assert average.p_hat == 1.0
    assert partial.p_hat < 1.0


def test_alpha_domain():
    with pytest.raises(ParameterError):
        estimate_partial_error(10, 2, 5, 0.5, NF, 0.0, 10, 1)
    with pytest.raises(ParameterError):
        estimate_partial_error(10, 2, 5, 0.5, NF, 1.0, 10, 1)


# ---------------------------------------------------------------------------
# per-overlap profile


def test_profile_is_empty_when_error_free():
    profile = empirical_pei_profile(16, 1, 64, 0.5, NF, 300, 3)
    assert all(rate == 0.0 for _, rate in profile)


def test_profile_partitions_the_error_event():
    n, k, t = 20, 3, 12
    trials, seed = 500, 21
    profile = empirical_pei_profile(n, k, t, 1 / 3, NF, trials, seed)
    average = estimate_average_error(n, k, t, 1 / 3, NF, trials, seed)
    assert [i for i, _ in profile] == [0, 1, 2, 3]
    total_errors = round(sum(rate for _, rate in profile) * trials)
    assert total_errors == average.errors


def test_estimates_carry_the_miss_histogram_of_their_trial_stream():
    n, k, t, trials, seed = 20, 3, 12, 400, 21
    average = estimate_average_error(n, k, t, 1 / 3, NF, trials, seed)
    partial = estimate_partial_error(n, k, t, 1 / 3, NF, 0.5, trials, seed)
    profile = empirical_pei_profile(n, k, t, 1 / 3, NF, trials, seed)
    assert len(average.miss_counts) == k + 1
    assert sum(average.miss_counts) == average.errors
    assert partial.miss_counts == average.miss_counts
    assert partial.errors == sum(average.miss_counts[2:])  # more than 0.5*3 missed
    assert profile == [(i, errors / trials) for i, errors in enumerate(average.miss_counts)]
    codebook = generate_codebook(8, 10, 0.5, 3)
    assert estimate_worstcase_error(codebook, 2, NF, 1).miss_counts is None


# ---------------------------------------------------------------------------
# worst case


def test_duplicate_rows_make_worst_case_certain():
    bits = np.eye(6, dtype=np.uint8)
    bits[5] = bits[2]  # rows 2 and 5 cover each other
    codebook = make_codebook(bits)
    est = estimate_worstcase_error(codebook, 1, NF, 1)
    assert est.p_hat == 1.0
    assert est.criterion == "worst-case"


def test_worst_case_exhaustive_matches_direct_enumeration():
    import itertools

    from gtlab import noiseless_outcome

    codebook = generate_codebook(8, 64, 0.5, 12)
    est = estimate_worstcase_error(codebook, 2, NF, 1)
    worst = 0
    for members in itertools.combinations(range(8), 2):
        truth = DefectiveSet(members)
        result = ml_decode(codebook, noiseless_outcome(codebook, truth), 2, NF)
        worst = max(worst, int(result.tie or result.best_set != truth))
    assert est.p_hat == float(worst)


def test_degenerate_dilution_equals_exact_noise_free():
    codebook = generate_codebook(8, 48, 0.5, 7)
    exact = estimate_worstcase_error(codebook, 2, NF, 1)
    degenerate = estimate_worstcase_error(codebook, 2, NoiseModel.dilution(0.0), 1)
    assert degenerate.p_hat == exact.p_hat
    assert degenerate.trials == 1


def test_noisy_worst_case_is_deterministic():
    codebook = generate_codebook(6, 24, 0.4, 3)
    noise = NoiseModel.additive(0.3)
    a = estimate_worstcase_error(codebook, 1, noise, 40)
    b = estimate_worstcase_error(codebook, 1, noise, 40)
    assert a == b
    assert a.trials == 40
    assert 0.0 <= a.p_hat <= 1.0


@pytest.mark.parametrize("noise", [NoiseModel.additive(0.3), NoiseModel.dilution(0.25)],
                         ids=lambda m: m.describe())
def test_worst_case_block_outcomes_equal_per_draw_channels(noise, monkeypatch):
    """Each truth set's noisy outcomes, drawn a block per sampler call, are
    the ones apply_channel gives draw by draw under mix64(set key, draw)."""
    truth = DefectiveSet((1, 4))
    for n_tests in (1, 64, 65, 129):
        codebook = generate_codebook(7, n_tests, 0.4, 13)
        expected = [apply_channel(codebook, truth, noise, mix64(99, draw)) for draw in range(10)]
        for cells in (2 * n_tests * 3, 1 << 16):  # blocks of 3, 3, 3 and 1 draws; one block
            monkeypatch.setattr(gtlab.montecarlo, "_BLOCK_CELLS", cells)
            assert list(_worst_outcomes(codebook, truth, noise, 99, 10)) == expected
    codebook = generate_codebook(7, 40, 0.4, 13)
    whole = estimate_worstcase_error(codebook, 2, noise, 10)
    monkeypatch.setattr(gtlab.montecarlo, "_BLOCK_CELLS", 1)
    assert estimate_worstcase_error(codebook, 2, noise, 10) == whole


# ---------------------------------------------------------------------------
# minimal T


def test_vacuous_target_stops_at_first_grid_point():
    result = find_minimal_t(12, 2, 0.5, NF, 1.0, 50, [4, 8, 16], 1)
    assert result.t_star == 4
    assert result.resolution == 0
    assert result.attained


def test_minimal_t_bracket_invariants():
    result = find_minimal_t(20, 2, 0.5, NF, 0.3, 300, list(range(2, 40, 6)), 5)
    assert result.attained
    probes = dict(result.probed)
    assert probes[result.t_star].p_hat <= 0.3
    below = result.t_star - result.resolution
    if below in probes:
        assert probes[below].p_hat > 0.3
    # every grid point before the first success was probed and failed
    for t, est in result.probed:
        if t < result.t_star:
            assert est.p_hat > 0.3 or t > below


def test_unattainable_target_reports_probes():
    result = find_minimal_t(20, 2, 0.5, NF, 0.0001, 100, [1, 2, 3], 5)
    assert not result.attained
    assert result.t_star is None
    assert len(result.probed) == 3


def test_minimal_t_grid_validation():
    with pytest.raises(ParameterError):
        find_minimal_t(10, 2, 0.5, NF, 0.1, 10, [], 1)
    with pytest.raises(ParameterError):
        find_minimal_t(10, 2, 0.5, NF, 0.1, 10, [5, 5, 6], 1)
    with pytest.raises(ParameterError):
        find_minimal_t(10, 2, 0.5, NF, 1.5, 10, [1, 2], 1)


def test_additive_noise_needs_more_tests_than_noise_free():
    # heavy false alarms roughly double the tests needed for the same error
    noise_free = find_minimal_t(50, 2, 0.5, NF, 0.1, 600, [10, 20, 30, 45, 60], 13,
                                refine_to=4)
    additive = find_minimal_t(50, 2, 0.5, NoiseModel.additive(0.5), 0.1, 600,
                              [10, 20, 30, 45, 60, 90, 130], 13, refine_to=4)
    assert noise_free.attained and additive.attained
    assert additive.t_star > noise_free.t_star


def test_empirical_t_respects_fano_floor():
    fano = fano_lower_bound(64, 2, 0.5, NF).bound_tests
    grid = sorted({max(1, int(round(fano * f))) for f in (0.2, 0.5, 0.8, 1.2, 1.6, 2.0)})
    result = find_minimal_t(64, 2, 0.5, NF, 0.5, 400, grid, 3, refine_to=2)
    assert result.attained
    assert result.t_star >= 0.5 * fano


CHANNELS = [NF, NoiseModel.additive(0.25), NoiseModel.dilution(0.3)]


@pytest.mark.parametrize("noise", CHANNELS, ids=lambda m: m.describe())
def test_stream_reads_every_t_as_a_fresh_draw(noise, monkeypatch):
    """Extending, then reading shorter prefixes, gives each trial exactly as
    an independent draw at that T would, whatever block the trial was drawn in."""
    n, k, p, trials, seed = 30, 2, 0.5, 12, 41
    # 2,000 cells a block: extending by 5 tests draws one block of all 12 trials,
    # by 6 tests blocks of 11 and 1, and by 64 tests or more one trial a block
    monkeypatch.setattr(gtlab.montecarlo, "_BLOCK_CELLS", 2000)
    assert [len(range(12)[b]) for b in gtlab.montecarlo._blocks(trials, n * 6)] == [11, 1]
    stream = _TrialStream(n, k, p, noise, seed, trials)
    for t in (5, 64, 70, 129, 0, 63, 65, 128, 200, 1):
        draws = list(stream.draw(t))
        assert [d[0] for d in draws] == list(range(trials))
        for trial, truth, codebook, outcome in draws:
            # each yielded trial owns its words: keeping one pins no other
            assert codebook.words.base is None and outcome.words.base is None
            trial_key = mix64(seed, trial)
            fresh = generate_codebook(n, t, p, mix64(trial_key, 0))
            assert codebook == fresh
            assert truth == _sample_truth(n, k, mix64(trial_key, 1))
            assert outcome == apply_channel(fresh, truth, noise, mix64(trial_key, 2))


def test_stream_validates_its_configuration_before_drawing(monkeypatch):
    drawn = []
    def sample_truth(n_items, k, seed):
        drawn.append(seed)
        return DefectiveSet(tuple(range(k)))

    monkeypatch.setattr(gtlab.montecarlo, "_sample_truth", sample_truth)
    for args in ((20, 2, 1.5, NF, 3, 10), (20, 2, 0.0, NF, 3, 10), (20, 20, 0.5, NF, 3, 10),
                 (20, 0, 0.5, NF, 3, 10), (20, 2, 0.5, NF, 3, 0), (20, 2, 0.5, NF, -1, 10),
                 (20, 2, 0.5, NF, 2**64, 10)):
        with pytest.raises(ParameterError):
            _TrialStream(*args)
    monkeypatch.setattr(gtlab.decoder, "BUDGET", 189)  # C(20, 2) = 190
    with pytest.raises(CapacityError):
        _TrialStream(20, 2, 0.5, NF, 3, 10)
    assert not drawn
    monkeypatch.setattr(gtlab.decoder, "BUDGET", 190)
    stream = _TrialStream(20, 2, 0.5, NF, 3, 10)
    assert len(drawn) == 10
    with pytest.raises(ParameterError):
        list(stream.draw(-1))


@pytest.mark.parametrize("noise", CHANNELS, ids=lambda m: m.describe())
def test_minimal_t_probes_equal_independent_estimates(noise):
    """Every probe read off the search's stream, grid and bisection alike,
    equals a fresh estimate at its T, miss counts included."""
    n, k, p, trials, seed = 40, 2, 0.5, 150, 23
    result = find_minimal_t(n, k, p, noise, 0.1, trials, [20, 63, 65, 129, 150], seed)
    assert len(result.probed) > 3  # the bisection ran
    for t, est in result.probed:
        assert est == estimate_average_error(n, k, t, p, noise, trials, seed)
        assert est.miss_counts == reference_histogram(n, k, t, p, noise, trials, seed)


@pytest.mark.parametrize("noise", CHANNELS, ids=lambda m: m.describe())
def test_sweep_rows_equal_independent_estimates(noise):
    """Every row of a sweep read off one stream, average and partial, equals
    a fresh estimate at its T, on a grid that crosses a word boundary."""
    n, k, p, trials, seed, grid = 30, 3, 1.0 / 3.0, 120, 17, (10, 40, 63, 64, 65, 100)
    average = estimate_sweep(n, k, p, noise, grid, trials, seed)
    partial = estimate_sweep(n, k, p, noise, grid, trials, seed, alpha=0.4)
    assert average == [estimate_average_error(n, k, t, p, noise, trials, seed) for t in grid]
    assert partial == [estimate_partial_error(n, k, t, p, noise, 0.4, trials, seed)
                       for t in grid]
    for t, avg, part in zip(grid, average, partial):
        hist = reference_histogram(n, k, t, p, noise, trials, seed)
        assert avg.miss_counts == part.miss_counts == hist
        assert (avg.errors, part.errors) == (sum(hist), sum(hist[2:]))  # misses > 0.4 * 3


def test_noise_free_shortcut_keeps_every_histogram(monkeypatch):
    """Trials solved at a smaller T are not decoded again, and every
    histogram still equals the one from decoding every trial afresh."""
    n, k, p, trials, seed = 40, 2, 0.5, 200, 8
    grid = (12, 30, 8, 64, 20, 65, 129, 25)
    expected = [reference_histogram(n, k, t, p, NF, trials, seed) for t in grid]
    calls = []
    decode = gtlab.montecarlo.ml_decode

    def counting_decode(*args, **kwargs):
        calls.append(1)
        return decode(*args, **kwargs)

    monkeypatch.setattr(gtlab.montecarlo, "ml_decode", counting_decode)
    stream = _TrialStream(n, k, p, NF, seed, trials)
    for t, hist in zip(grid, expected):
        assert tuple(_collect_histogram(n, k, t, p, NF, trials, seed, stream)) == hist
    assert len(calls) < len(grid) * trials // 2


# ---------------------------------------------------------------------------
# confidence intervals


def test_normal_interval_for_comfortable_counts():
    assert ci_half_width(50, 200) == 1.96 * math.sqrt(0.25 * 0.75 / 200)


def test_exact_interval_for_rare_events():
    # zero successes: Clopper-Pearson upper limit is 1 - 0.025**(1/n)
    n = 300
    expected = (1.0 - 0.025 ** (1.0 / n)) / 2.0
    assert abs(ci_half_width(0, n) - expected) <= 1e-12
    assert abs(ci_half_width(300, 300) - ci_half_width(0, 300)) <= 1e-12


def _scipy_stats_half_width(errors, trials):
    """The interval as computed through scipy.stats' beta quantiles."""
    from scipy.stats import beta

    if min(errors, trials - errors) < 5:
        lo = 0.0 if errors == 0 else float(beta.ppf(0.025, errors, trials - errors + 1))
        hi = 1.0 if errors == trials else float(beta.ppf(0.975, errors + 1, trials - errors))
        return (hi - lo) / 2.0
    p_hat = errors / trials
    return 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / trials)


def test_interval_is_bit_identical_to_scipy_stats_quantiles():
    mismatches = []
    for n in [*range(1, 401), 500, 1_000, 10_000, 100_000]:
        for e in sorted({*range(min(n, 5) + 1), *range(max(0, n - 5), n + 1)}):
            if ci_half_width(e, n) != _scipy_stats_half_width(e, n):
                mismatches.append((e, n))
    assert not mismatches


def test_ci_domain():
    with pytest.raises(ParameterError):
        ci_half_width(5, 4)
    with pytest.raises(ParameterError):
        ci_half_width(-1, 4)


def test_estimate_echoes_configuration():
    noise = NoiseModel.dilution(0.2)
    est = estimate_average_error(10, 2, 8, 0.5, noise, 50, 99)
    assert (est.n_items, est.n_defectives, est.n_tests) == (10, 2, 8)
    assert est.channel == "dilution" and est.param == 0.2
    assert est.seed == 99
    assert est.p_hat == est.errors / est.trials
    row = est.csv_row()
    assert len(row) == 13
