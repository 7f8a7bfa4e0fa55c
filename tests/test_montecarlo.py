import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtlab import (
    CapacityError,
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
    gallager_e0,
    generate_codebook,
    log2_binom,
    miss_distance,
    ml_decode,
    noiseless_outcome,
    pei_upper_bound,
)
from gtlab.bitops import pack_bits
from gtlab.cli import main as cli_main
import gtlab.decoder
import gtlab.montecarlo
from gtlab.decoder import _decided, _pool_masks
from gtlab.montecarlo import (_collect_histogram, _miss_histogram, _sample_truth, _TrialStream,
                              _worst_outcomes)
from gtlab.rng import mix64, mix64_array

from helpers import make_codebook, read_trials, record_reads

NF = NoiseModel.noise_free()


def reference_truth(n, k, key):
    """Floyd's sampling over Python ints, apart from the vectorized sampler:
    step s takes t = floor(mix64(key, s) * (j+1) / 2**64) for j = n-k+s,
    or j when t is already chosen."""
    chosen = set()
    for s in range(k):
        j = n - k + s
        t = mix64(key, s) * (j + 1) >> 64
        chosen.add(j if t in chosen else t)
    return DefectiveSet.of(chosen)


def fresh_trials(n, k, t, p, noise, trials, seed):
    """Yield (trial, truth, codebook, outcome), each trial drawn afresh at T
    from its keys (codebook 0, truth 1, noise 2 under mix64(seed, trial)),
    apart from the trial stream."""
    for trial in range(trials):
        trial_key = mix64(seed, trial)
        codebook = generate_codebook(n, t, p, mix64(trial_key, 0))
        truth = reference_truth(n, k, mix64(trial_key, 1))
        yield trial, truth, codebook, apply_channel(codebook, truth, noise, mix64(trial_key, 2))


def reference_histogram(n, k, t, p, noise, trials, seed):
    """Erring trials by miss distance, each trial drawn afresh at T."""
    hist = [0] * (k + 1)
    for _, truth, codebook, outcome in fresh_trials(n, k, t, p, noise, trials, seed):
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


def test_every_entry_point_needs_integer_counts():
    """N, K, T, i, trial counts, grid values and set indices are integers at
    every entry point: a float, whole or not, raises ParameterError, not a
    TypeError from numpy or math, nor is it truncated.  Numpy integers pass."""
    codebook = generate_codebook(8, 10, 0.5, 1)
    outcome = noiseless_outcome(codebook, DefectiveSet((0, 1)))
    for name, value, call in (
        ("N", 8, lambda v: estimate_average_error(v, 2, 10, 0.5, NF, 10, 1)),
        ("K", 2, lambda v: estimate_average_error(8, v, 10, 0.5, NF, 10, 1)),
        ("T", 10, lambda v: estimate_average_error(8, 2, v, 0.5, NF, 10, 1)),
        ("trials", 10, lambda v: estimate_average_error(8, 2, 10, 0.5, NF, v, 1)),
        ("T", 10, lambda v: estimate_partial_error(8, 2, v, 0.5, NF, 0.5, 10, 1)),
        ("trials", 10, lambda v: empirical_pei_profile(8, 2, 10, 0.5, NF, v, 1)),
        ("T", 10, lambda v: estimate_sweep(8, 2, 0.5, NF, [4, v], 10, 1)),
        ("T", 10, lambda v: find_minimal_t(8, 2, 0.5, NF, 0.1, 10, [4, v], 1)),
        ("trials", 10, lambda v: find_minimal_t(8, 2, 0.5, NF, 0.1, v, [4, 10], 1)),
        ("K", 2, lambda v: estimate_worstcase_error(codebook, v, NF, 1)),
        ("trials", 2, lambda v: estimate_worstcase_error(codebook, 2, NF, v)),
        ("N", 100, lambda v: achievable_tests(v, 2, 0.5, NF)),
        ("K", 2, lambda v: achievable_tests(100, v, 0.5, NF)),
        ("K", 2, lambda v: fano_lower_bound(100, v, 0.5, NF)),
        ("N", 100, lambda v: additive_converse(v, 2, 0.2)),
        ("i", 1, lambda v: pei_upper_bound(8, 2, v, 10, 0.5, NF)),
        ("T", 10, lambda v: pei_upper_bound(8, 2, 1, v, 0.5, NF)),
        ("N", 8, lambda v: generate_codebook(v, 10, 0.5, 1)),
        ("T", 10, lambda v: generate_codebook(8, v, 0.5, 1)),
        ("K", 2, lambda v: ml_decode(codebook, outcome, v, NF)),
        ("n", 10, lambda v: log2_binom(v, 2)),
        ("k", 2, lambda v: log2_binom(10, v)),
        ("indices", 1, lambda v: DefectiveSet((0, v))),
        ("errors", 2, lambda v: ci_half_width(v, 10)),
        ("trials", 10, lambda v: ci_half_width(2, v)),
    ):
        for bad in (float(value), value + 0.5, True):
            with pytest.raises(ParameterError, match=f"^{name} must be"):
                call(bad)
        call(np.int64(value))
        call(np.int32(value))


@pytest.mark.parametrize("k", [25, 2000])
def test_every_bound_takes_large_defective_counts(k):
    """The bounds share the estimators' upper domain K < N: the exponent and
    the per-overlap bound as well as the test counts, past any enumeration."""
    n, p = 4000, 1 / k
    for noise in (NF, NoiseModel.additive(0.1), NoiseModel.dilution(0.3)):
        assert math.isfinite(achievable_tests(n, k, p, noise).bound_tests)
        assert math.isfinite(fano_lower_bound(n, k, p, noise).bound_tests)
        assert math.isfinite(gallager_e0(k, 1, p, noise, 0.5))
        assert 0.0 <= pei_upper_bound(n, k, 1, 500, p, noise) <= 1.0


@pytest.mark.parametrize("trials", [0, -5])
def test_stream_estimators_reject_invalid_trial_counts(trials):
    """The trial stream allocates nothing before the trial count is checked."""
    with pytest.raises(ParameterError):
        estimate_sweep(10, 2, 0.5, NF, [5, 10], trials, 1)
    with pytest.raises(ParameterError):
        find_minimal_t(10, 2, 0.5, NF, 0.1, trials, [5, 10], 1)


@pytest.mark.parametrize("grid", [[30, 40, 10.5], [30, -1]], ids=["float", "negative"])
def test_sweep_checks_its_whole_grid_before_drawing(grid, monkeypatch):
    """A bad T anywhere in the grid raises before any truth set is drawn or
    any trial decoded, as in ``find_minimal_t``; an empty grid still gives []."""
    calls = []
    for name in ("_decode_pools", "_sample_truth"):
        real = getattr(gtlab.montecarlo, name)
        monkeypatch.setattr(gtlab.montecarlo, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    noise = NoiseModel.dilution(0.3)
    with pytest.raises(ParameterError):
        estimate_sweep(24, 4, 0.25, noise, grid, 300, 1)
    assert calls == []
    assert estimate_sweep(24, 4, 0.25, noise, [], 300, 1) == []
    estimate_sweep(24, 4, 0.25, noise, grid[:1], 3, 1)
    assert set(calls) == {"_decode_pools", "_sample_truth"}


def test_minimal_t_checks_its_whole_grid_before_drawing(monkeypatch):
    """A bad T anywhere in the grid raises before any truth set is drawn or
    any trial decoded, through the grid check ``estimate_sweep`` uses."""
    calls = []
    for name in ("_decode_pools", "_sample_truth"):
        real = getattr(gtlab.montecarlo, name)
        monkeypatch.setattr(gtlab.montecarlo, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    with pytest.raises(ParameterError):
        find_minimal_t(64, 2, 0.5, NF, 0.1, 200, [-5, 10], 1)
    assert calls == []


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
    worst = estimate_worstcase_error(codebook, 2, NF, 1)
    assert worst.miss_counts == (1, 0, 0) and worst.errors == 1  # a tie at the truth


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
    """The worst case is the first set, in lexicographic order, with the
    most erring draws, and its histogram tallies that set's draws by miss
    distance: draw j of set ``index`` is apply_channel under
    mix64(mix64(mix64(seed, 0x57), index), j)."""
    import itertools

    for noise, n, t, draws in ((NF, 8, 64, 1), (NoiseModel.additive(0.3), 6, 30, 8),
                               (NoiseModel.dilution(0.25), 6, 12, 8)):
        codebook = generate_codebook(n, t, 0.5, 12)
        est = estimate_worstcase_error(codebook, 2, noise, draws)
        worst = None
        for index, members in enumerate(itertools.combinations(range(n), 2)):
            truth = DefectiveSet(members)
            hist = [0, 0, 0]
            for j in range(draws):
                seed = mix64(mix64(mix64(codebook.seed, 0x57), index), j)
                outcome = apply_channel(codebook, truth, noise, seed)
                result = ml_decode(codebook, outcome, 2, noise)
                if result.tie or result.best_set != truth:
                    hist[miss_distance(truth, result.best_set)] += 1
            if worst is None or sum(hist) > sum(worst):
                worst = hist
        assert est.miss_counts == tuple(worst)
        assert est.errors == sum(worst)
        assert est.p_hat == sum(worst) / draws


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


@pytest.mark.parametrize(
    "noise", [NF, NoiseModel.additive(0.0), NoiseModel.additive(0.3), NoiseModel.dilution(0.25)],
    ids=lambda m: m.describe())
def test_worst_case_block_outcomes_equal_per_draw_channels(noise, monkeypatch):
    """Each truth set's outcomes, drawn a block per sampler call, are the
    ones apply_channel gives draw by draw under mix64(set key, draw); on a
    deterministic channel every draw is the noiseless outcome."""
    truth = DefectiveSet((1, 4))
    for n_tests in (1, 64, 65, 129):
        codebook = generate_codebook(7, n_tests, 0.4, 13)
        expected = [apply_channel(codebook, truth, noise, mix64(99, draw)) for draw in range(10)]
        if noise.deterministic:
            assert expected == [noiseless_outcome(codebook, truth)] * 10
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
    # a numpy target is stored as a Python float, so even the reprs agree
    from_numpy = find_minimal_t(12, 2, 0.5, NF, np.float64(1.0), 50, [4, 8, 16], 1)
    assert repr(from_numpy.target_error) == repr(result.target_error)
    assert [(t, repr(e.csv_row())) for t, e in from_numpy.probed] == \
        [(t, repr(e.csv_row())) for t, e in result.probed]


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
    with pytest.raises(ParameterError, match="refine_to must be >= 1, got 0"):
        find_minimal_t(10, 2, 0.5, NF, 0.1, 10, [1, 2], 1, refine_to=0)
    with pytest.raises(ParameterError, match="refine_to must be an integer, got 2.5"):
        find_minimal_t(10, 2, 0.5, NF, 0.1, 10, [1, 2], 1, refine_to=2.5)


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
    """Extending, then reading shorter prefixes, yields in trial order exactly
    the trials that the dense references leave undecided, each one exactly
    as an independent draw at that T would give it, whatever blocks the
    trial was drawn and read in."""
    n, k, p, trials, seed = 30, 2, 0.5, 12, 41
    # 2,000 cells a block: extending by 5 tests draws one block of all 12 trials,
    # by 6 tests blocks of 11 and 1, and by 64 tests or more one trial a block;
    # 150 cells a block: a read of one word takes blocks of 5, 5 and 2 trials.
    # reads at 12 and 20 tests decide some trials of a block and not others
    for cells, cells_each, sizes in ((2000, n * 6, [11, 1]), (150, n, [5, 5, 2])):
        monkeypatch.setattr(gtlab.montecarlo, "_BLOCK_CELLS", cells)
        blocks = gtlab.montecarlo._blocks(trials, cells_each)
        assert [len(range(trials)[b]) for b in blocks] == sizes
        stream = _TrialStream(n, k, p, noise, seed, trials)
        for t in (5, 64, 70, 129, 0, 63, 12, 65, 128, 200, 20, 1):
            fresh = list(fresh_trials(n, k, t, p, noise, trials, seed))
            draws = list(read_trials(stream, t))
            assert [d[0] for d in draws] == [
                trial for trial, _, codebook, outcome in fresh
                if not reference_decided(noise, k, codebook, outcome)]
            for trial, truth, codebook, outcome in draws:
                assert (trial, truth, codebook, outcome) == fresh[trial]


@pytest.mark.parametrize("noise", CHANNELS, ids=lambda m: m.describe())
def test_extension_draws_only_the_new_tests(noise, monkeypatch):
    """Extending a stream from T to a larger T draws only the tests between
    them, for the codebooks and the channel alike, and shifts them into
    place: the words and outcomes equal those of a stream drawn afresh at
    the larger T, in one word, across words and at word edges."""
    n, k, p, trials, seed = 30, 3, 0.3, 12, 5
    monkeypatch.setattr(gtlab.montecarlo, "_BLOCK_CELLS", 700)  # blocks of a few trials
    drawn = []
    for module in (gtlab.montecarlo, gtlab.model):
        sampler = module.bernoulli_words
        monkeypatch.setattr(module, "bernoulli_words", lambda seeds, items, tests, q, f=sampler:
                            drawn.extend(np.asarray(tests).tolist()) or f(seeds, items, tests, q))
    for old, new in ((0, 5), (10, 22), (60, 70), (64, 130), (63, 64)):
        stream = _TrialStream(n, k, p, noise, seed, trials)
        if old:
            stream._extend(old)
        drawn.clear()
        stream._extend(new)
        assert drawn and set(drawn) == set(range(old, new)), (old, new)
        fresh = _TrialStream(n, k, p, noise, seed, trials)
        fresh._extend(new)
        assert stream.n_tests == new
        assert np.array_equal(stream.words, fresh.words), (old, new)
        assert np.array_equal(stream.outcomes, fresh.outcomes), (old, new)


def test_extension_inside_the_last_word_copies_no_word():
    """An extension whose new tests stay inside the last word writes them in
    place; only one that reaches a new word copies the stream."""
    stream = _TrialStream(30, 3, 0.3, NF, 5, 12)
    stream._extend(10)
    for new, copied in ((22, False), (64, False), (70, True), (128, False), (129, True)):
        words, outcomes = stream.words, stream.outcomes
        stream._extend(new)
        assert (stream.words is not words, stream.outcomes is not outcomes) == (copied,) * 2


@pytest.mark.parametrize("noise", [NF, NoiseModel.additive(0.25)], ids=lambda m: m.describe())
def test_a_read_finds_each_pool_once(noise, monkeypatch):
    """A u = 0 read finds the pools of a block's trials once, for the skip
    rules and the grouped scan alike: ``_in_pool`` meets each block's words
    once (the definite-defective step reads its own pool rows)."""
    blocks, pooled = [], []
    in_pool = gtlab.decoder._in_pool
    monkeypatch.setattr(gtlab.decoder, "_in_pool",
                        lambda words, negative: pooled.append(words) or in_pool(words, negative))
    draw = _TrialStream.draw

    def recording_draw(self, n_tests):
        for read in draw(self, n_tests):
            blocks.append(read[1])
            yield read

    monkeypatch.setattr(_TrialStream, "draw", recording_draw)
    monkeypatch.setattr(gtlab.montecarlo, "_BLOCK_CELLS", 2000)  # several blocks a read
    stream = _TrialStream(40, 2, 0.5, noise, 8, 200)
    for t in (12, 30, 65):
        blocks.clear(), pooled.clear()
        _miss_histogram(stream, t)
        assert len(blocks) > 1
        assert [sum(words is block for words in pooled) for block in blocks] == [1] * len(blocks)


def test_stream_validates_its_configuration_before_drawing(monkeypatch):
    drawn = []
    def sample_truth(n_items, k, truth_keys):
        drawn.extend(truth_keys)
        return np.tile(np.arange(k), (len(truth_keys), 1))

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


@pytest.mark.parametrize("n,k", [(2, 1), (9, 1), (9, 8), (30, 3), (2**20, 3), (10**8, 1)])
def test_truth_sampler_equals_the_scalar_reference_on_every_row(n, k):
    keys = [mix64(n, row) for row in range(300)]
    rows = _sample_truth(n, k, np.array(keys, dtype=np.uint64))
    assert rows.dtype == np.int64 and rows.shape == (300, k)
    assert [DefectiveSet(row) for row in rows.tolist()] == \
        [reference_truth(n, k, key) for key in keys]


def test_truth_sampler_is_uniform_over_pairs():
    # 150,000 draws of 2 items from 6: each of the 15 pairs within 5 sigma of 10,000
    rows = _sample_truth(6, 2, mix64_array(2024, np.arange(150_000)))
    pairs, counts = np.unique(rows[:, 0] * 6 + rows[:, 1], return_counts=True)
    assert len(pairs) == 15
    sigma = math.sqrt(150_000 * (1 / 15) * (14 / 15))
    assert np.all(np.abs(counts - 10_000) <= 5 * sigma), counts


@pytest.mark.parametrize("noise", CHANNELS, ids=lambda m: m.describe())
def test_minimal_t_probes_equal_independent_estimates(noise):
    """Every probe read off the search's stream, grid and bisection alike,
    equals a fresh estimate at its T, miss counts included."""
    # seed 26: the first from 23 at which the bisection takes two or more
    # steps on all three channels of the mix64 truth stream
    n, k, p, trials, seed = 40, 2, 0.5, 150, 26
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


def reference_pool_size(codebook, outcome):
    """The number of items in no negative test, over unpacked bits."""
    negative = outcome.bits() == 0
    return sum(not (row.astype(bool) & negative).any() for row in codebook.dense_bits())


def reference_definite_count(codebook, outcome):
    """The number of definite defectives, over unpacked bits: pool items
    that are the only pool item in some test."""
    bits = codebook.dense_bits().astype(bool)
    pool = bits[~(bits & (outcome.bits() == 0)).any(axis=1)]
    return int((pool & (pool.sum(axis=0) == 1)).any(axis=1).sum())


def reference_decided(noise, k, codebook, outcome):
    """Whether a trial's ML decode is known without a scan to be its truth:
    on a u = 0 channel when its pool is exactly K and, on the noise-free
    channel only, also when it has K definite defectives; under dilution never."""
    if noise.law[1] != 0.0:
        return False
    return reference_pool_size(codebook, outcome) == k or (
        noise.deterministic and reference_definite_count(codebook, outcome) == k)


def check_skipped_decodes(noise, monkeypatch, p=0.5, grid=(12, 30, 8, 64, 20, 65, 129, 25)):
    """One stream read out of order, across word boundaries: every histogram
    equals decoding every trial afresh, and each read decodes exactly the
    trials whose result is not known before decoding.  On a u = 0 channel
    those are the trials whose pool at T is not exactly K and, on the
    noise-free channel, whose definite defectives at T are not K either;
    under dilution they are every trial.  Returns the pool sizes and the
    (pool == K, definite count == K) pairs met over every trial and T."""
    n, k, trials, seed = 40, 2, 200, 8
    trial_of = {mix64(mix64(seed, trial), 0): trial for trial in range(trials)}
    handed = record_reads(monkeypatch)
    decoded, scanned = [], []  # trials ml_decode decodes; trials each grouped scan decodes
    decode, decode_pools = gtlab.montecarlo.ml_decode, gtlab.montecarlo._decode_pools

    def counting_decode(codebook, outcome, k, noise_model):
        decoded.append(trial_of[codebook.seed])
        return decode(codebook, outcome, k, noise_model)

    def counting_decode_pools(words, outcomes, trials, *args):
        sets, ties = decode_pools(words, outcomes, trials, *args)
        assert len(sets) == len(ties) == len(trials)
        scanned.append(len(trials))
        return sets, ties

    monkeypatch.setattr(gtlab.montecarlo, "ml_decode", counting_decode)
    monkeypatch.setattr(gtlab.montecarlo, "_decode_pools", counting_decode_pools)
    stream = _TrialStream(n, k, p, noise, seed, trials)
    pool_sizes, cases = set(), set()
    for t in grid:
        handed.clear(), decoded.clear(), scanned.clear()
        hist = tuple(_collect_histogram(n, k, t, p, noise, trials, seed, stream))
        assert hist == reference_histogram(n, k, t, p, noise, trials, seed)
        fresh = list(fresh_trials(n, k, t, p, noise, trials, seed))
        pools = [reference_pool_size(codebook, outcome) for _, _, codebook, outcome in fresh]
        definite = [reference_definite_count(codebook, outcome)
                    for _, _, codebook, outcome in fresh]
        pool_sizes.update(pools)
        cases.update((pool == k, count == k) for pool, count in zip(pools, definite))
        undecided = [trial for trial, _, codebook, outcome in fresh
                     if not reference_decided(noise, k, codebook, outcome)]
        assert handed == [(t, trial) for trial in undecided]
        # on every channel a read decodes each undecided trial once, in the
        # grouped scan, and ml_decode decodes none
        assert decoded == []
        assert sum(scanned) == len(undecided)
    return pool_sizes, cases


def test_noise_free_shortcut_keeps_every_histogram(monkeypatch):
    """Both noise-free rules, a pool of K and K definite defectives, keep
    every histogram and skip exactly their trials; all four combinations of
    the two rules occur.  Sparse tests leave trials undecided past the first
    word, so definite defectives are also read across words."""
    pool_sizes, cases = check_skipped_decodes(NF, monkeypatch)
    assert {2, 3} <= pool_sizes  # pools of exactly K items, and of K + 1
    assert cases == {(False, False), (False, True), (True, False), (True, True)}
    _, cases = check_skipped_decodes(NF, monkeypatch, p=0.05, grid=(65, 129, 100, 70))
    assert (False, True) in cases


@pytest.mark.parametrize("noise", CHANNELS, ids=lambda m: m.describe())
def test_decoded_trials_depend_on_t_alone(noise, monkeypatch):
    """Two streams that read the same T's in different orders decode the
    same trials at each T: what is decided at T depends on T alone."""
    n, k, p, trials, seed = 40, 2, 0.5, 200, 8
    handed = record_reads(monkeypatch)
    reads = []
    for grid in ((8, 12, 20, 25, 30, 64, 65, 129), (129, 65, 64, 30, 25, 20, 12, 8)):
        handed.clear()
        estimate_sweep(n, k, p, noise, grid, trials, seed)
        reads.append({t: [trial for u, trial in handed if u == t] for t in grid})
    assert reads[0] == reads[1]


@pytest.mark.parametrize(
    "noise", [NoiseModel.additive(0.25), NoiseModel.additive(0.9), NoiseModel.dilution(0.3)],
    ids=lambda m: m.describe())
def test_skipped_decodes_keep_every_histogram(noise, monkeypatch):
    pool_sizes, _ = check_skipped_decodes(noise, monkeypatch)
    assert {2, 3} <= pool_sizes  # pools of exactly K items, and of K + 1


GROUPED_CHANNELS = [NF, NoiseModel.additive(0.25), NoiseModel.additive(1 - 2**-40),
                    NoiseModel.dilution(0.3), NoiseModel.dilution(1.0)]


@pytest.mark.parametrize("chunk", [gtlab.decoder._CHUNK, 20], ids=["chunk", "small-chunk"])
@pytest.mark.parametrize("noise", GROUPED_CHANNELS, ids=lambda m: m.describe())
def test_grouped_histograms_match_decoding_every_trial(noise, chunk, monkeypatch):
    """On every channel, K = 1, 2, 3 and T = 0, 63, 64, 65, 129, the miss
    histogram from the grouped scan equals ml_decode on every trial drawn
    afresh; with a small ``_CHUNK`` a group's trials span several gathers
    and chunks."""
    monkeypatch.setattr(gtlab.decoder, "_CHUNK", chunk)
    n, p, trials, seed = 16, 0.3, 40, 12
    for k in (1, 2, 3):
        stream = _TrialStream(n, k, p, noise, seed, trials)
        for t in (0, 63, 64, 65, 129):
            hist = tuple(_miss_histogram(stream, t).tolist())
            assert hist == reference_histogram(n, k, t, p, noise, trials, seed), (k, t)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_grouped_histograms_property(data):
    """Random small configurations: the grouped scan's histogram equals
    ml_decode on every trial drawn afresh, at the default ``_CHUNK`` and at
    small ones that split groups over several gathers and chunks."""
    k = data.draw(st.integers(1, 3), label="K")
    n = data.draw(st.integers(k + 1, 14), label="N")
    t = data.draw(st.one_of(st.integers(0, 24), st.integers(60, 130)), label="T")
    p = data.draw(st.sampled_from([0.1, 0.3, 0.5]), label="p")
    noise = data.draw(st.sampled_from(GROUPED_CHANNELS), label="channel")
    trials = data.draw(st.integers(1, 30), label="trials")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    chunk = data.draw(st.sampled_from([gtlab.decoder._CHUNK, 1, 7, 40]), label="chunk")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gtlab.decoder, "_CHUNK", chunk)
        stream = _TrialStream(n, k, p, noise, seed, trials)
        hist = tuple(_miss_histogram(stream, t).tolist())
        assert hist == reference_histogram(n, k, t, p, noise, trials, seed)


@pytest.mark.parametrize("noise", CHANNELS, ids=lambda m: m.describe())
def test_decided_matches_dense_references(noise):
    """``_decided`` on a strided, descending choice of trials copied from
    stream arrays drawn to T = 192 and masked to smaller T, against the
    dense references on the same trials drawn afresh at T.  Each case, K = 2
    at two densities and K = 4 at p = 0.25, meets all four combinations of
    a pool of K and K definite defectives over the T grid."""
    n, trials, seed = 40, 200, 8
    picked = np.arange(trials)[::-3]
    for k, densities in ((2, (0.5, 0.05)), (4, (0.25,))):
        cases = set()
        for p in densities:
            stream = _TrialStream(n, k, p, noise, seed, trials)
            stream._extend(192)
            for t in (0, 8, 12, 20, 30, 63, 64, 65, 129):
                keep = pack_bits(np.ones(t, dtype=np.uint8))  # the first t bits
                words = stream.words[picked, :, :keep.size] & keep
                outcomes = stream.outcomes[picked, :keep.size] & keep
                decided = _decided(words, outcomes, k, noise,
                                   _pool_masks(words, outcomes, k, noise))
                fresh = list(fresh_trials(n, k, t, p, noise, trials, seed))
                pool = [reference_pool_size(fresh[i][2], fresh[i][3]) == k for i in picked]
                definite = [reference_definite_count(fresh[i][2], fresh[i][3]) == k
                            for i in picked]
                cases.update(zip(pool, definite))
                expected = [reference_decided(noise, k, fresh[i][2], fresh[i][3])
                            for i in picked]
                assert decided.tolist() == expected, (k, p, t)
        assert cases == {(False, False), (False, True), (True, False), (True, True)}, k


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


def test_interval_matches_scipy_stats_quantiles_to_1e_12():
    """Within 1e-12 relative of scipy.stats at min(e, n - e), and exactly
    the same at e and n - e.  The interval at n - e mirrors the one at e;
    scipy's difference of two quantiles near 1 is off by up to 1.2e-12
    relative at n = 100,000, so the reference is taken at the low end."""
    mismatches = []
    for n in [*range(1, 401), 500, 1_000, 10_000, 100_000]:
        for e in sorted({*range(min(n, 5) + 1), *range(max(0, n - 5), n + 1)}):
            half_width = ci_half_width(e, n)
            reference = _scipy_stats_half_width(min(e, n - e), n)
            if abs(half_width - reference) > 1e-12 * reference:
                mismatches.append((e, n, half_width, reference))
            assert half_width == ci_half_width(n - e, n)
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
    # every criterion's p_hat and CSV cells are plain Python values; an
    # isinstance check would pass np.float64, which subclasses float
    partial = estimate_partial_error(10, 2, 8, 0.5, noise, 0.5, 50, 99)
    worst = estimate_worstcase_error(generate_codebook(10, 8, 0.5, 99), 2, noise, 5)
    for e in (est, partial, worst):
        assert type(e.p_hat) is float
        assert all(type(cell) in (str, int, float) for cell in e.csv_row())
    # numpy inputs are stored as Python numbers, so even the reprs agree
    n, k, t, trials = np.int64(10), np.int64(2), np.int64(8), np.int64(50)
    p, alpha = np.float64(0.5), np.float64(0.5)
    from_numpy = (
        estimate_average_error(n, k, t, p, noise, trials, 99),
        estimate_partial_error(n, k, t, p, noise, alpha, trials, 99),
        estimate_worstcase_error(generate_codebook(n, t, p, 99), k, noise, np.int64(5)),
    )
    for e, numpy_e in zip((est, partial, worst), from_numpy):
        assert repr(numpy_e.csv_row()) == repr(e.csv_row())
    # and so do bound reports
    for family in (achievable_tests, fano_lower_bound):
        assert repr(family(n, k, p, noise).csv_rows()) == \
            repr(family(10, 2, 0.5, noise).csv_rows())
