import itertools
import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtlab import (
    CapacityError,
    Codebook,
    DefectiveSet,
    NoiseModel,
    ParameterError,
    apply_channel,
    generate_codebook,
    log_likelihood,
    miss_distance,
    ml_decode,
    noiseless_outcome,
)
import gtlab.decoder
from gtlab.bitops import pack_bits
from gtlab.model import OutcomeVector

NF = NoiseModel.noise_free()


def make_codebook(bits, p=0.5, seed=0):
    bits = np.asarray(bits, dtype=np.uint8)
    return Codebook(n_items=bits.shape[0], n_tests=bits.shape[1], p=p, seed=seed,
                    words=pack_bits(bits))


def _ref_log2(x):
    return math.log2(x) if x > 0.0 else -math.inf


def reference_log_likelihood(codebook, members, outcome, noise):
    """Scalar per-test reference: accumulate integer test statistics, then
    combine them exactly as the likelihood factorizes (so equal statistics
    give bit-identical scores), with log2 0 = -inf and 0 * log2 0 = 0.
    Dilution reduces to w- (member participations in negative tests) and
    n+[c] (positive tests pooling exactly c members), added from 0.0 in the
    order w- * log2 u, then n+[c] * log2(1 - u**c) for c = 1..K.  No bit
    packing anywhere."""
    dense = codebook.dense_bits().tolist()  # Python ints: numpy scalars are ~10x slower
    y = outcome.bits().tolist()
    counts = [0] * codebook.n_tests  # per test, the members it pools
    for i in members.indices:
        counts = [c + bit for c, bit in zip(counts, dense[i])]
    if noise.kind == "noise-free":
        consistent = all((c > 0) == bool(y[t]) for t, c in enumerate(counts))
        return 0.0 if consistent else -math.inf
    if noise.kind == "additive":
        if any(c > 0 and y[t] == 0 for t, c in enumerate(counts)):
            return -math.inf
        uncovered = sum(1 for t, c in enumerate(counts) if c == 0 and y[t] == 1)
        negatives = sum(1 for t in range(codebook.n_tests) if y[t] == 0)
        score = 0.0
        for count, prob in ((uncovered, noise.q), (negatives, 1.0 - noise.q)):
            if count:
                score += count * _ref_log2(prob)
        return score
    if any(c == 0 and y[t] == 1 for t, c in enumerate(counts)):
        return -math.inf
    # dilution statistics: w- = member participations in negative tests,
    # exact[c] = positive tests pooling exactly c members
    w_neg = sum(c for t, c in enumerate(counts) if y[t] == 0)
    exact = [0] * (len(members) + 1)
    for t, c in enumerate(counts):
        if y[t] == 1:
            exact[c] += 1
    terms = [(w_neg, noise.u)] + [(exact[c], 1.0 - noise.u**c) for c in range(1, len(exact))]
    score = 0.0
    for count, prob in terms:
        if count:
            score += count * _ref_log2(prob)
    return score


def reference_decode(codebook, outcome, k, noise):
    best, best_set, at_max = -math.inf, None, 0
    for combo in itertools.combinations(range(codebook.n_items), k):
        score = reference_log_likelihood(codebook, DefectiveSet(combo), outcome, noise)
        if score > best:
            best, best_set, at_max = score, combo, 1
        elif score == best and best > -math.inf:
            at_max += 1
    if best_set is None:
        best_set = tuple(range(k))
    return best_set, best, at_max >= 2


# ---------------------------------------------------------------------------
# log_likelihood


def test_true_set_scores_zero_noise_free():
    cb = generate_codebook(9, 30, 0.3, 4)
    truth = DefectiveSet((1, 5))
    out = noiseless_outcome(cb, truth)
    assert log_likelihood(cb, truth, out, NF) == 0.0


def test_wrong_set_scores_minus_inf_noise_free():
    cb = make_codebook([[1, 0], [0, 1]])
    out = noiseless_outcome(cb, DefectiveSet((0,)))
    assert log_likelihood(cb, DefectiveSet((1,)), out, NF) == -math.inf


def test_additive_hand_product():
    # candidate pools nothing; outcomes (1, 0) give log2 q + log2(1-q)
    cb = make_codebook([[0, 0], [1, 1]])
    out = OutcomeVector.from_bits([1, 0])
    got = log_likelihood(cb, DefectiveSet((0,)), out, NoiseModel.additive(0.25))
    assert got == math.log2(0.25) + math.log2(0.75)


def test_dilution_hand_value():
    # one test pooling both candidates, positive outcome: log2(1 - u**2)
    cb = make_codebook([[1], [1]])
    out = OutcomeVector.from_bits([1])
    got = log_likelihood(cb, DefectiveSet((0, 1)), out, NoiseModel.dilution(0.5))
    assert got == math.log2(0.75)


def test_likelihood_parameter_checks():
    cb = make_codebook([[1, 0], [0, 1]])
    with pytest.raises(ParameterError):
        log_likelihood(cb, DefectiveSet((0,)), OutcomeVector.from_bits([1]), NF)
    with pytest.raises(ParameterError):
        log_likelihood(cb, DefectiveSet((5,)), OutcomeVector.from_bits([1, 0]), NF)


def test_true_set_never_impossible_under_its_own_channel():
    rng = random.Random(3)
    for _ in range(25):
        n, k, t = rng.randint(4, 10), rng.randint(1, 3), rng.randint(2, 30)
        cb = generate_codebook(n, t, 0.3, rng.getrandbits(32))
        truth = DefectiveSet.of(rng.sample(range(n), k))
        for noise in (NoiseModel.additive(0.3), NoiseModel.dilution(0.3)):
            out = apply_channel(cb, truth, noise, rng.getrandbits(32))
            assert log_likelihood(cb, truth, out, noise) > -math.inf


# ---------------------------------------------------------------------------
# ml_decode


def test_unique_consistent_singleton():
    cb = make_codebook(np.eye(5, dtype=np.uint8))
    out = noiseless_outcome(cb, DefectiveSet((3,)))
    res = ml_decode(cb, out, 1, NF)
    assert res.best_set.indices == (3,)
    assert not res.tie
    assert res.log_likelihood == 0.0
    assert res.n_evaluated == 5


def test_duplicate_rows_force_a_tie():
    bits = np.eye(5, dtype=np.uint8)
    bits[4] = bits[1]
    cb = make_codebook(bits)
    out = noiseless_outcome(cb, DefectiveSet((1,)))
    res = ml_decode(cb, out, 1, NF)
    assert res.tie
    assert res.best_set.indices == (1,)  # first maximizer in scan order


def test_additive_decode_matches_reference_ordering():
    noise = NoiseModel.additive(0.2)
    cb = generate_codebook(12, 36, 0.3, 77)
    truth = DefectiveSet((4, 9))
    out = apply_channel(cb, truth, noise, 5)
    res = ml_decode(cb, out, 2, noise)
    scores = sorted(
        (reference_log_likelihood(cb, DefectiveSet(c), out, noise), c)
        for c in itertools.combinations(range(12), 2)
    )
    assert res.log_likelihood == scores[-1][0]
    assert res.best_set.indices == min(c for s, c in scores if s == scores[-1][0])


@pytest.mark.parametrize("seed", range(5))
def test_decode_matches_reference_on_random_instances(seed):
    rng = random.Random(1000 + seed)
    for _ in range(20):
        n = rng.randint(4, 12)
        k = rng.randint(1, min(3, n - 1))
        t = rng.randint(1, 24)
        kind = rng.choice(["noise-free", "additive", "dilution"])
        noise = {
            "noise-free": NF,
            "additive": NoiseModel.additive(rng.choice([0.1, 0.3, 0.6])),
            "dilution": NoiseModel.dilution(rng.choice([0.1, 0.3, 0.6])),
        }[kind]
        cb = generate_codebook(n, t, rng.choice([0.2, 0.4, 0.6]), rng.getrandbits(32))
        truth = DefectiveSet.of(rng.sample(range(n), k))
        out = apply_channel(cb, truth, noise, rng.getrandbits(32))
        got = ml_decode(cb, out, k, noise)
        want_set, want_score, want_tie = reference_decode(cb, out, k, noise)
        assert got.best_set.indices == want_set
        assert got.log_likelihood == want_score
        assert got.tie == want_tie
        # the public single-set scorer agrees exactly with the scan
        assert log_likelihood(cb, got.best_set, out, noise) == got.log_likelihood


# Four items, K = 2, every test positive.  {0, 1} and {2, 3} pool the same
# integer statistics (one test with two members, five with one) in a
# different test order, so they tie exactly under dilution.
TIE_POOLS = [(0, 2), (1, 3), (0, 3), (1, 2), (0, 1, 2), (2, 3, 0)]


def test_dilution_tie_with_equal_statistics_in_different_test_order():
    cb = make_codebook([[int(i in pool) for pool in TIE_POOLS] for i in range(4)])
    out = OutcomeVector.from_bits([1] * len(TIE_POOLS))
    noise = NoiseModel.dilution(0.2)
    res = ml_decode(cb, out, 2, noise)
    assert res.best_set.indices == (0, 1)
    assert res.tie
    assert res.log_likelihood == log_likelihood(cb, DefectiveSet((2, 3)), out, noise)
    assert res.log_likelihood == reference_log_likelihood(cb, DefectiveSet((0, 1)), out, noise)


def test_dilution_tie_between_different_negative_statistics():
    # at u = 1/2 one negative test pooling two members costs as much as two
    # negative tests pooling one each, so {0, 1}, {0, 2} and {1, 2} tie
    cb = make_codebook([[1, 1, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]])
    out = OutcomeVector.from_bits([1, 0, 0])
    res = ml_decode(cb, out, 2, NoiseModel.dilution(0.5))
    assert res.best_set.indices == (0, 1)
    assert res.tie
    assert res.log_likelihood == math.log2(0.75) - 2


_CHANNELS = {
    "noise-free": st.just(NF),
    "additive": st.sampled_from([0.1, 0.25, 0.5, 0.75]).map(NoiseModel.additive),
    "dilution": st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.75]).map(NoiseModel.dilution),
}


@pytest.mark.parametrize("kind", sorted(_CHANNELS))
@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_decode_matches_reference_property(kind, data):
    """(set, score, tie) equal the brute-force reference, on one-word rows
    (T <= 24) and multi-word rows (T in 65..140)."""
    k = data.draw(st.integers(1, 4), label="K")
    n = data.draw(st.integers(k, 9), label="N")
    t = data.draw(st.one_of(st.integers(1, 24), st.integers(65, 140)), label="T")
    noise = data.draw(_CHANNELS[kind], label="channel")
    p = data.draw(st.sampled_from([0.2, 0.4, 0.6]), label="p")
    cb = generate_codebook(n, t, p, data.draw(st.integers(0, 2**32 - 1), label="seed"))
    truth = DefectiveSet.of(data.draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k)))
    out = apply_channel(cb, truth, noise, data.draw(st.integers(0, 2**32 - 1), label="noise"))
    got = ml_decode(cb, out, k, noise)
    assert (got.best_set.indices, got.log_likelihood, got.tie) == reference_decode(
        cb, out, k, noise)
    assert log_likelihood(cb, got.best_set, out, noise) == got.log_likelihood


@pytest.mark.parametrize(
    "noise",
    [NoiseModel.additive(0.0), NoiseModel.additive(1.0),
     NoiseModel.dilution(0.0), NoiseModel.dilution(1.0)],
    ids=lambda noise: noise.describe(),
)
def test_endpoint_channels_match_reference(noise):
    """q and u at 0 and 1: (set, score, tie) and single-set scores equal the
    brute-force reference, on channel outputs and on all-ones, all-zeros
    and noiseless outcomes, including T = 0."""
    rng = random.Random(noise.describe())
    for _ in range(30):
        n = rng.randint(2, 9)
        k = rng.randint(1, min(3, n))
        t = rng.choice([0, rng.randint(1, 24), rng.randint(65, 100)])
        cb = generate_codebook(n, t, rng.choice([0.2, 0.4, 0.6]), rng.getrandbits(32))
        truth = DefectiveSet.of(rng.sample(range(n), k))
        outcomes = [
            apply_channel(cb, truth, noise, rng.getrandbits(32)),
            noiseless_outcome(cb, truth),
            OutcomeVector.from_bits(np.ones(t, dtype=np.uint8)),
            OutcomeVector.from_bits(np.zeros(t, dtype=np.uint8)),
        ]
        for out in outcomes:
            got = ml_decode(cb, out, k, noise)
            assert (got.best_set.indices, got.log_likelihood, got.tie) == reference_decode(
                cb, out, k, noise)
            for members in (truth, got.best_set, DefectiveSet(()),
                            DefectiveSet.of(rng.sample(range(n), rng.randint(1, n)))):
                assert log_likelihood(cb, members, out, noise) == reference_log_likelihood(
                    cb, members, out, noise)


@pytest.mark.parametrize("noise", [NoiseModel.dilution(0.3), NF, NoiseModel.additive(0.1)],
                         ids=lambda noise: noise.describe())
def test_concurrent_decodes_match_serial(noise):
    """Each thread scores in its own work arrays, so decodes running in two
    threads at once return the serial results."""
    cases = []
    for seed in range(8):
        cb = generate_codebook(24, 30, 0.25, seed)
        truth = DefectiveSet.of(random.Random(seed).sample(range(24), 4))
        cases.append((cb, apply_channel(cb, truth, noise, seed)))
    serial = [ml_decode(cb, out, 4, noise) for cb, out in cases]
    start = threading.Barrier(2, timeout=60)
    results = [None, None]

    def decode_all(slot):
        start.wait()
        results[slot] = [ml_decode(cb, out, 4, noise) for cb, out in cases]

    threads = [threading.Thread(target=decode_all, args=(slot,)) for slot in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [serial, serial]


def test_label_permutation_equivariance():
    noise = NoiseModel.additive(0.15)
    cb = generate_codebook(10, 40, 0.3, 21)
    truth = DefectiveSet((2, 6))
    out = apply_channel(cb, truth, noise, 9)
    res = ml_decode(cb, out, 2, noise)
    assert not res.tie  # equivariance of the argmax needs a unique maximizer
    perm = np.array([7, 3, 9, 0, 4, 8, 1, 6, 2, 5])  # new index of each old item
    inverse = np.argsort(perm)
    permuted = Codebook(n_items=10, n_tests=40, p=0.3, seed=21,
                        words=np.ascontiguousarray(cb.words[inverse]))
    res_perm = ml_decode(permuted, out, 2, noise)
    assert res_perm.best_set.indices == tuple(sorted(int(perm[i]) for i in res.best_set.indices))
    assert res_perm.log_likelihood == res.log_likelihood


def test_no_tests_ties_everything():
    cb = Codebook(n_items=6, n_tests=0, p=0.5, seed=0, words=np.zeros((6, 0), dtype=np.uint64))
    out = OutcomeVector(n_tests=0, words=np.zeros(0, dtype=np.uint64))
    res = ml_decode(cb, out, 2, NF)
    assert res.best_set.indices == (0, 1)
    assert res.tie
    assert res.log_likelihood == 0.0


def test_combination_tables_are_colex_prefixes():
    """One table per K serves every smaller pool as its leading rows."""
    from gtlab.decoder import _combo_table

    large = _combo_table(40, 3)
    small = _combo_table(25, 3)
    assert np.shares_memory(large, small)
    for n, table in ((40, large), (25, small)):
        colex = sorted(itertools.combinations(range(n), 3), key=lambda c: c[::-1])
        assert [tuple(row) for row in table.tolist()] == colex


def test_lexicographically_first_maximizer_wins_in_any_scan_order():
    """Maximizers (0,190), (50,60) and (50,190): (50,60) comes first in colex
    order, (0,190) in lexicographic order, several chunks later."""
    bits = np.zeros((200, 3), dtype=np.uint8)
    bits[0] = bits[50] = (1, 0, 0)
    bits[50, 1] = 1
    bits[190] = (0, 1, 1)
    bits[60] = (0, 0, 1)
    cb = make_codebook(bits)
    res = ml_decode(cb, OutcomeVector.from_bits([1, 1, 1]), 2, NF)
    assert res.best_set.indices == (0, 190)
    assert res.tie and res.log_likelihood == 0.0


def test_budget_error_names_required_size():
    cb = generate_codebook(80, 10, 0.2, 1)
    with pytest.raises(CapacityError, match=str(math.comb(80, 9))):
        ml_decode(cb, noiseless_outcome(cb, DefectiveSet((0, 1, 2, 3, 4, 5, 6, 7, 8))), 9, NF)


@pytest.mark.parametrize("scan", ["ml_decode", "dump_decode_trace", "estimate_worstcase_error"])
def test_every_enumeration_reads_the_budget_at_call_time(scan, monkeypatch, tmp_path):
    """C(8, 2) = 28 sets: a budget of 27 refuses the scan, 28 runs it."""
    from gtlab import dump_decode_trace, estimate_worstcase_error

    cb = generate_codebook(8, 10, 0.3, 1)
    out = noiseless_outcome(cb, DefectiveSet((2, 5)))
    run = {
        "ml_decode": lambda: ml_decode(cb, out, 2, NF),
        "dump_decode_trace": lambda: dump_decode_trace(cb, out, 2, NF, tmp_path / "trace.csv"),
        "estimate_worstcase_error": lambda: estimate_worstcase_error(cb, 2, NF, 1),
    }[scan]
    monkeypatch.setattr(gtlab.decoder, "BUDGET", 27)
    with pytest.raises(CapacityError, match="enumerating the 28 2-sets of 8 items"):
        run()
    monkeypatch.setattr(gtlab.decoder, "BUDGET", 28)
    run()


def test_decode_rejects_mismatched_outcome():
    cb = generate_codebook(6, 10, 0.3, 1)
    with pytest.raises(ParameterError):
        ml_decode(cb, OutcomeVector.from_bits([1, 0]), 2, NF)


@pytest.mark.parametrize("k, n_tests", [(9, 10), (0, 10), (-1, 10), (2, 2)],
                         ids=["K>N", "K=0", "K=-1", "2-test outcome"])
def test_decode_trace_checks_its_inputs_before_writing(k, n_tests, tmp_path):
    """A 6-item, 10-test codebook: each input raises ParameterError, creates
    no file, and leaves a file already at the path byte-identical."""
    from gtlab import dump_decode_trace

    cb = generate_codebook(6, 10, 0.3, 1)
    out = OutcomeVector.from_bits([1, 0] * (n_tests // 2))
    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_bytes(b"candidate,log2_likelihood\n0 1,-1.0\n")
    for path in (fresh, kept):
        with pytest.raises(ParameterError):
            dump_decode_trace(cb, out, k, NF, path)
    assert kept.read_bytes() == b"candidate,log2_likelihood\n0 1,-1.0\n"
    assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]


# ---------------------------------------------------------------------------
# cover stage: every channel ORs each chunk's member rows once; when q = 0
# (noise-free, dilution) only the candidates pooling every positive test are
# scored, and under dilution only they get K-level statistics.  N = 24,
# K = 4 gives 10,626 sets, two chunks of the scan in colex order (the
# combination table) and in lexicographic order (``itertools``, reached by
# lowering the table limit).

COVER_CHANNELS = (NoiseModel.dilution(0.3), NF, NoiseModel.additive(0.1))


def decode_both_scans(cb, out, k, noise, monkeypatch):
    """(set, score, tie, n_evaluated) from the colex table and from the itertools path."""
    results = []
    for limit in (gtlab.decoder._CACHE_LIMIT, 100):
        monkeypatch.setattr(gtlab.decoder, "_CACHE_LIMIT", limit)
        res = ml_decode(cb, out, k, noise)
        results.append((res.best_set.indices, res.log_likelihood, res.tie, res.n_evaluated))
    return results


@pytest.mark.parametrize("t", [0, 64, 65, 130])
def test_cover_stage_matches_reference_across_chunks(t, monkeypatch):
    """Channel, all-one and all-zero outcomes (every set covers the last)."""
    cb = generate_codebook(24, t, 0.25, 40 + t)
    truth = DefectiveSet((2, 9, 17, 23))
    for noise in COVER_CHANNELS:
        for out in (apply_channel(cb, truth, noise, t),
                    OutcomeVector.from_bits(np.ones(t, dtype=np.uint8)),
                    OutcomeVector.from_bits(np.zeros(t, dtype=np.uint8))):
            want = reference_decode(cb, out, 4, noise) + (math.comb(24, 4),)
            assert decode_both_scans(cb, out, 4, noise, monkeypatch) == [want, want]


def test_cover_stage_skips_a_chunk_without_survivors(monkeypatch):
    """Only tests 126..129 are positive, pooled by disjoint groups of items
    7..23, the last by item 23 alone.  A covering set holds 23 and has no
    member below 7, so the first chunk has no survivors in either order.
    Every set covers the first word.  A noise-free decode enumerates only
    the items pooled in no negative test, so there the rows are cleared
    outside the positive tests and all 150 covering sets tie."""
    rng = np.random.default_rng(5)
    bits = (rng.random((24, 130)) < 0.25).astype(np.uint8)
    bits[:, 126:] = 0
    for test, group in zip(range(126, 130), ([7, 8, 9, 10, 11], [12, 13, 14, 15, 16],
                                               [17, 18, 19, 20, 21, 22], [23])):
        bits[group, test] = 1
    out = OutcomeVector.from_bits(np.arange(130) >= 126)
    for noise in (NoiseModel.dilution(0.3), NF):
        if noise is NF:
            bits[:, :126] = 0
        cb = make_codebook(bits, p=0.25)
        want = reference_decode(cb, out, 4, noise)
        assert want[1] > -math.inf
        assert decode_both_scans(cb, out, 4, noise, monkeypatch) == [want + (10626,)] * 2


def test_cover_stage_counts_ties_across_chunks(monkeypatch):
    """Items 0 and 23 have one row, so the truth {0, 9, 15, 20} ties with
    {9, 15, 20, 23}: the first chunk holds one, the second the other."""
    cb = generate_codebook(24, 130, 0.25, 8)
    words = cb.words.copy()
    words[23] = words[0]
    cb = Codebook(n_items=24, n_tests=130, p=0.25, seed=8, words=words)
    for noise in (NoiseModel.dilution(0.1), NF, NoiseModel.additive(0.1)):
        out = apply_channel(cb, DefectiveSet((0, 9, 15, 20)), noise, 4)
        want = reference_decode(cb, out, 4, noise)
        assert want[0] == (0, 9, 15, 20) and want[2]
        assert decode_both_scans(cb, out, 4, noise, monkeypatch) == [want + (10626,)] * 2


def test_cover_stage_at_full_dilution(monkeypatch):
    """u = 1: every pooled defective is erased, so any positive test scores
    -inf and an all-negative outcome ties every set."""
    noise = NoiseModel.dilution(1.0)
    cb = generate_codebook(24, 65, 0.25, 3)
    for out in (apply_channel(cb, DefectiveSet((1, 5, 6, 20)), noise, 2),
                OutcomeVector.from_bits(np.ones(65, dtype=np.uint8)),
                OutcomeVector.from_bits(np.arange(65) % 3 == 0)):
        want = reference_decode(cb, out, 4, noise) + (10626,)
        assert decode_both_scans(cb, out, 4, noise, monkeypatch) == [want, want]


# ---------------------------------------------------------------------------
# miss distance


def test_miss_distance_values():
    assert miss_distance(DefectiveSet((1, 2, 3)), DefectiveSet((1, 2, 3))) == 0
    assert miss_distance(DefectiveSet((1, 2, 3)), DefectiveSet((4, 5, 6))) == 3
    assert miss_distance(DefectiveSet((1, 2, 3)), DefectiveSet((2, 3, 9))) == 1


def test_miss_distance_requires_equal_sizes():
    with pytest.raises(ParameterError):
        miss_distance(DefectiveSet((1, 2)), DefectiveSet((1, 2, 3)))


# ---------------------------------------------------------------------------
# debug trace


def test_decode_trace_lists_every_candidate(tmp_path):
    from gtlab import dump_decode_trace

    noise = NoiseModel.additive(0.2)
    cb = generate_codebook(6, 12, 0.3, 2)
    out = apply_channel(cb, DefectiveSet((1, 4)), noise, 7)
    path = tmp_path / "trace.csv"
    dump_decode_trace(cb, out, 2, noise, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "candidate,log2_likelihood"
    assert len(lines) == 1 + math.comb(6, 2)
    best = ml_decode(cb, out, 2, noise)
    scores = {tuple(map(int, c.split())): float(s)
              for c, s in (line.split(",") for line in lines[1:])}
    assert max(scores.values()) == best.log_likelihood
    assert scores[best.best_set.indices] == best.log_likelihood
