import io
import os
import re
import stat
from contextlib import redirect_stdout

import numpy as np
import pytest

from gtlab import (
    Codebook,
    DefectiveSet,
    NoiseModel,
    OutcomeVector,
    ParameterError,
    apply_channel,
    generate_codebook,
    noiseless_outcome,
)
from gtlab.bitops import pack_bits, unpack_bits
from gtlab.cli import _atomic_text, main as cli_main
from gtlab.model import _ADDITIVE_STREAM, _DILUTION_STREAM, _channel_words, _check_design
from gtlab import montecarlo
from gtlab.montecarlo import _check_trials, _TrialStream
from gtlab.rng import bernoulli_grid, bernoulli_words, mix64, uniform_grid

from helpers import make_codebook, read_trials


# ---------------------------------------------------------------------------
# generation


def test_bool_is_not_an_integer_at_the_shared_checks():
    """The exact-int fast path of the integer check lets no bool through (a
    bool is an int subclass), and numpy integers still pass."""
    for name, value, call in (
        ("N", 8, lambda v: _check_design(v, 10, 0.5)),
        ("T", 10, lambda v: _check_design(8, v, 0.5)),
        ("K", 2, lambda v: _check_trials(8, v, 10)),
        ("trials", 10, lambda v: _check_trials(8, 2, v)),
        ("indices", 1, lambda v: DefectiveSet((0, v))),
    ):
        for bad in (True, False):
            with pytest.raises(ParameterError, match=f"^{name} must be"):
                call(bad)
        call(value)
        call(np.int64(value))




def test_generation_is_deterministic():
    a = generate_codebook(4, 8, 0.5, 7)
    b = generate_codebook(4, 8, 0.5, 7)
    assert a == b
    assert a.dense_bits().shape == (4, 8)


def test_bit_depends_only_on_seed_row_test():
    small = generate_codebook(4, 8, 0.5, 7)
    large = generate_codebook(50, 100, 0.5, 7)
    assert np.array_equal(large.dense_bits()[:4, :8], small.dense_bits())


def test_empirical_density_near_p():
    # binomial: 1e6 draws at p=0.5, +-1% is 20 sigma
    cb = generate_codebook(1000, 1000, 0.5, 3)
    density = cb.dense_bits().mean()
    assert 0.49 <= density <= 0.51


def test_packed_sampler_equals_the_packed_float_grid():
    """The integer threshold on the mixed word draws exactly the cells u < p."""
    rng = np.random.default_rng(2024)
    edge_tests = (0, 1, 63, 64, 65, 127, 128, 129)
    edge_p = (1e-9, np.nextafter(1.0, 0.0), 0.5, 1.0)
    cases = [(t, p) for t in edge_tests for p in edge_p]
    cases += [(int(rng.integers(0, 300)), float(rng.uniform(0.0, 1.0))) for _ in range(250)]
    for n_tests, p in cases:
        key = int(rng.integers(0, 2**63)) * 2 + int(rng.integers(0, 2))
        rows = rng.choice(1000, size=int(rng.integers(1, 40)), replace=False)
        cols = np.arange(n_tests) + int(rng.integers(0, 200))
        packed = bernoulli_words(key, rows, cols, p)
        expected = pack_bits(bernoulli_grid(key, rows, cols, p))
        assert packed.dtype == np.uint64 and packed.shape == expected.shape
        assert np.array_equal(packed, expected), (key, n_tests, p)
    # p at a drawn cell's own uniform u, and at the next double above it,
    # where u < p flips
    u = uniform_grid(5, np.arange(8), np.arange(70))
    for p in np.unique(np.concatenate([u.ravel(), np.nextafter(u, 1.0).ravel()])):
        assert np.array_equal(bernoulli_words(5, np.arange(8), np.arange(70), p),
                              pack_bits(u < p)), p
    assert not bernoulli_words(3, np.arange(64), np.arange(129), 1e-9).any()
    assert np.array_equal(bernoulli_words(3, np.arange(4), np.arange(70), np.nextafter(1.0, 0.0)),
                          pack_bits(np.ones((4, 70), dtype=np.uint8)))


def reference_words(row) -> list[int]:
    """A 0/1 row as one Python int with bit t = row[t], cut into 64-bit words
    from the low end."""
    value = sum(1 << t for t, bit in enumerate(row) if bit)
    return [(value >> (64 * w)) & ((1 << 64) - 1) for w in range(-(-len(row) // 64))]


@pytest.mark.parametrize("n_bits", [0, 1, 63, 64, 65, 129])
def test_bit_t_lands_in_word_t_div_64_at_position_t_mod_64(n_bits):
    """The packed layout against Python ints, on a leading block axis of
    one-hot rows (row t packs to word t // 64 holding 1 << (t % 64)) and
    their complements; unpack_bits inverts it."""
    eye = np.eye(n_bits, dtype=np.uint8)
    block = np.stack([eye, 1 - eye])
    packed = pack_bits(block)
    assert packed.dtype == np.uint64 and packed.shape == (2, n_bits, -(-n_bits // 64))
    assert packed.tolist() == [[reference_words(row) for row in rows] for rows in block.tolist()]
    assert np.array_equal(unpack_bits(packed, n_bits), block)


@pytest.mark.parametrize("p", [1e-9, 1 / 3, 0.5, 1.0])
def test_key_array_equals_the_stacked_per_key_calls(p):
    """One call with a key per row of a block draws each row as its own
    call with that key would, in blocks of trials and of item sets alike."""
    keys = np.array([0, 7, (1 << 64) - 1, (1 << 63) + 5], dtype=np.uint64)
    items = np.array([3, 0, 9])
    members = np.array([[1, 4], [0, 2], [5, 8], [2, 3]])
    for n_tests in (0, 1, 63, 64, 65, 129):
        cols = np.arange(n_tests) + 37
        block = bernoulli_words(keys[:, None], items, cols, p)
        assert block.shape == (len(keys), len(items), (n_tests + 63) // 64)
        assert np.array_equal(block, np.stack([bernoulli_words(int(key), items, cols, p)
                                               for key in keys]))
        block = bernoulli_words(keys[:, None], members, cols, p)
        assert np.array_equal(block, np.stack([bernoulli_words(int(key), rows, cols, p)
                                               for key, rows in zip(keys, members)]))


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
def test_p_outside_open_interval_rejected(p):
    with pytest.raises(ParameterError):
        generate_codebook(2, 4, p, 1)


def test_tiny_interior_p_is_accepted():
    cb = generate_codebook(2, 4, 1e-9, 1)
    assert cb.dense_bits().sum() == 0


@pytest.mark.parametrize("n_items,n_tests", [(0, 4), (0, 0)])
def test_zero_dimensions_rejected(n_items, n_tests):
    with pytest.raises(ParameterError):
        generate_codebook(n_items, n_tests, 0.5, 1)


def test_zero_tests_give_an_empty_codebook():
    cb = generate_codebook(4, 0, 0.5, 1)
    assert (cb.n_items, cb.n_tests, cb.p, cb.seed) == (4, 0, 0.5, 1)
    assert cb.words.shape == (4, 0)
    assert cb.dense_bits().shape == (4, 0)
    with pytest.raises(ParameterError):
        generate_codebook(4, -1, 0.5, 1)
    with pytest.raises(ParameterError):
        generate_codebook(4, 0, 1.5, 1)


def test_seed_must_be_unsigned_64_bit():
    with pytest.raises(ParameterError):
        generate_codebook(2, 4, 0.5, -1)
    with pytest.raises(ParameterError):
        generate_codebook(2, 4, 0.5, 1 << 64)


# ---------------------------------------------------------------------------
# noiseless outcomes


def test_single_defective_reproduces_its_row():
    cb = generate_codebook(6, 32, 0.4, 11)
    for j in range(6):
        out = noiseless_outcome(cb, DefectiveSet((j,)))
        assert np.array_equal(out.bits(), cb.dense_bits()[j])


def test_or_of_two_rows():
    cb = make_codebook([[1, 0, 1, 0], [0, 0, 1, 1]])
    out = noiseless_outcome(cb, DefectiveSet((0, 1)))
    assert out.bits().tolist() == [1, 0, 1, 1]


def test_outcome_matches_scalar_or():
    cb = generate_codebook(8, 16, 0.3, 5)
    members = DefectiveSet((1, 4, 6))
    got = noiseless_outcome(cb, members).bits()
    dense = cb.dense_bits()
    for t in range(16):
        expect = max(int(dense[i, t]) for i in members)
        assert got[t] == expect


def test_out_of_range_index_rejected():
    cb = generate_codebook(4, 8, 0.5, 1)
    with pytest.raises(ParameterError):
        noiseless_outcome(cb, DefectiveSet((3, 4)))


# ---------------------------------------------------------------------------
# channels


def test_degenerate_channels_equal_noiseless():
    cb = generate_codebook(10, 40, 0.3, 2)
    members = DefectiveSet((2, 5, 9))
    clean = noiseless_outcome(cb, members)
    for seed in (0, 1, 99):
        assert apply_channel(cb, members, NoiseModel.additive(0.0), seed) == clean
        assert apply_channel(cb, members, NoiseModel.dilution(0.0), seed) == clean
        assert apply_channel(cb, members, NoiseModel.noise_free(), seed) == clean


def test_channel_is_deterministic_in_noise_seed():
    cb = generate_codebook(10, 40, 0.3, 2)
    members = DefectiveSet((0, 7))
    for noise in (NoiseModel.additive(0.3), NoiseModel.dilution(0.3)):
        a = apply_channel(cb, members, noise, 123)
        b = apply_channel(cb, members, noise, 123)
        assert a == b


def test_additive_dominates_and_dilution_is_dominated():
    cb = generate_codebook(12, 64, 0.25, 8)
    members = DefectiveSet((1, 3, 8))
    clean = noiseless_outcome(cb, members).bits()
    for seed in range(20):
        noisy = apply_channel(cb, members, NoiseModel.additive(0.4), seed).bits()
        diluted = apply_channel(cb, members, NoiseModel.dilution(0.4), seed).bits()
        assert (noisy >= clean).all()
        assert (diluted <= clean).all()


def test_adding_an_item_never_clears_a_bit():
    cb = generate_codebook(12, 64, 0.25, 8)
    smaller = DefectiveSet((1, 3))
    bigger = DefectiveSet((1, 3, 8))
    assert (noiseless_outcome(cb, bigger).bits() >= noiseless_outcome(cb, smaller).bits()).all()
    for seed in range(10):
        noise = NoiseModel.additive(0.3)
        a = apply_channel(cb, smaller, noise, seed).bits()
        b = apply_channel(cb, bigger, noise, seed).bits()
        assert (b >= a).all()


def test_saturated_channels_fix_the_outcome():
    # q = 1 raises every test, u = 1 erases every participation
    cb = generate_codebook(10, 70, 0.3, 4)
    truth = DefectiveSet((1, 6))
    for seed in range(5):
        assert apply_channel(cb, truth, NoiseModel.additive(1.0), seed).bits().all()
        assert not apply_channel(cb, truth, NoiseModel.dilution(1.0), seed).bits().any()


def reference_channel_bits(bits, idx, noise_model, noise_seed, tests):
    """The channel law on the float grid, independent of the packed sampler:
    ``bits`` holds the defectives ``idx``'s codebook bits at the tests ``tests``."""
    q, u = noise_model.law
    if u > 0.0:
        bits = bits & (1 - bernoulli_grid(mix64(noise_seed, _DILUTION_STREAM), idx, tests, u))
    out = bits.any(axis=0).astype(np.uint8)
    if q > 0.0:
        out |= bernoulli_grid(mix64(noise_seed, _ADDITIVE_STREAM), [0], tests, q)[0]
    return out


REFERENCE_CHANNELS = [NoiseModel.dilution(0.3), NoiseModel.dilution(1.0),
                      NoiseModel.additive(0.25), NoiseModel.additive(1.0)]
EDGE_TESTS = (0, 1, 63, 64, 65, 129)


@pytest.mark.parametrize("noise", REFERENCE_CHANNELS, ids=lambda m: m.describe())
def test_channel_equals_the_float_grid_reference(noise):
    """apply_channel, and the packed channel on a column range that starts
    inside a word, draw exactly the float grid's cells."""
    truth = DefectiveSet((1, 4, 6))
    idx = np.asarray(truth.indices)
    for n_tests in EDGE_TESTS:
        cb = generate_codebook(8, n_tests, 0.4, 21)
        for seed in (0, 5, (1 << 63) + 3):
            expected = reference_channel_bits(cb.dense_bits()[idx], idx, noise, seed,
                                              np.arange(n_tests))
            assert np.array_equal(apply_channel(cb, truth, noise, seed).bits(), expected)
            for start in (1, 37, 64, 100):
                tests = np.arange(start, start + n_tests)
                rows = bernoulli_words(cb.seed, idx, tests, 0.4)
                words = _channel_words(rows, idx, noise, seed, tests)
                assert words.shape == (rows.shape[1],)
                assert np.array_equal(
                    unpack_bits(words, n_tests),
                    reference_channel_bits(unpack_bits(rows, n_tests), idx, noise, seed, tests))


@pytest.mark.parametrize("noise", [NoiseModel.noise_free(), *REFERENCE_CHANNELS],
                         ids=lambda m: m.describe())
def test_channel_block_equals_the_per_trial_calls(noise):
    """A block of trials, one noise seed each, gives each trial's outcome
    words as its own call would, from a column range inside a word."""
    seeds = np.array([0, 5, (1 << 63) + 3, (1 << 64) - 1], dtype=np.uint64)
    idx = np.array([[1, 4, 6], [0, 2, 7], [3, 5, 6], [0, 1, 2]])
    for start in (1, 37, 64):
        for n_tests in EDGE_TESTS:
            tests = np.arange(start, start + n_tests)
            rows = np.stack([bernoulli_words(9 + trial, members, tests, 0.4)
                             for trial, members in enumerate(idx)])
            block = _channel_words(rows, idx, noise, seeds, tests)
            assert block.shape == (len(seeds), rows.shape[2])
            for trial, seed in enumerate(seeds):
                single = _channel_words(rows[trial], idx[trial], noise, int(seed), tests)
                assert np.array_equal(block[trial], single), (start, n_tests, trial)


@pytest.mark.parametrize("noise", REFERENCE_CHANNELS, ids=lambda m: m.describe())
def test_stream_extension_equals_the_float_grid_reference(noise, monkeypatch):
    """A trial stream extended from inside a word, read back at every edge T,
    gives each trial's outcome as the float-grid channel would.  No trial is
    decided here, so every read yields all of them."""
    monkeypatch.setattr(montecarlo, "_decided",
                        lambda words, outcomes, *_: np.zeros(len(outcomes), dtype=bool))
    n, k, p, trials, seed = 20, 3, 1.0 / 3.0, 4, 77
    stream = _TrialStream(n, k, p, noise, seed, trials)
    for n_tests in (1, 63, 65, 129, 200, *EDGE_TESTS):
        read = list(read_trials(stream, n_tests))
        assert [trial for trial, *_ in read] == list(range(trials)), n_tests
        for trial, truth, codebook, outcome in read:
            idx = np.asarray(truth.indices)
            noise_seed = mix64(mix64(seed, trial), 2)
            expected = reference_channel_bits(codebook.dense_bits()[idx], idx, noise, noise_seed,
                                              np.arange(n_tests))
            assert np.array_equal(outcome.bits(), expected), (n_tests, trial)


def test_dilution_law_two_members_in_one_test():
    # one test pooling both defectives: P(Y=0) = u**2 = 0.09
    cb = make_codebook([[1], [1]])
    members = DefectiveSet((0, 1))
    noise = NoiseModel.dilution(0.3)
    trials = 100_000
    zeros = sum(
        int(apply_channel(cb, members, noise, seed).bits()[0] == 0) for seed in range(trials)
    )
    assert abs(zeros / trials - 0.09) <= 0.01


def test_additive_law_on_empty_pool():
    # the defective is never pooled, so P(Y=1) = q exactly
    cb = make_codebook([[0], [1]])
    members = DefectiveSet((0,))
    q = 0.35
    trials = 60_000
    ones = sum(
        int(apply_channel(cb, members, NoiseModel.additive(q), seed).bits()[0]) for seed in range(trials)
    )
    sigma = (q * (1 - q) / trials) ** 0.5
    assert abs(ones / trials - q) <= 3 * sigma


# ---------------------------------------------------------------------------
# types


def test_noise_model_carries_exactly_one_parameter():
    cases = [
        (lambda: NoiseModel("noise-free", q=0.1), "noise-free channel carries no parameter"),
        (lambda: NoiseModel("noise-free", u=0.1), "noise-free channel carries no parameter"),
        (lambda: NoiseModel("additive", q=0.1, u=0.1),
         "additive channel carries exactly the parameter q"),
        (lambda: NoiseModel("additive"), "additive channel carries exactly the parameter q"),
        (lambda: NoiseModel("dilution", q=0.1),
         "dilution channel carries exactly the parameter u"),
        (lambda: NoiseModel("dilution"), "dilution channel carries exactly the parameter u"),
        (lambda: NoiseModel.additive(1.5), "additive q must lie in [0, 1], got 1.5"),
        (lambda: NoiseModel.dilution(-0.1), "dilution u must lie in [0, 1], got -0.1"),
        (lambda: NoiseModel("bogus"), "unknown channel kind 'bogus'"),
    ]
    for build, message in cases:
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            build()
    assert NoiseModel.additive(0.2).param == 0.2
    assert NoiseModel.dilution(0.2).param == 0.2
    assert NoiseModel.noise_free().param is None
    assert NoiseModel.noise_free().describe() == "noise-free"
    assert NoiseModel.additive(0.25).describe() == "additive(0.25)"
    assert NoiseModel.dilution(0).describe() == "dilution(0)"


def test_defective_set_validation():
    with pytest.raises(ParameterError):
        DefectiveSet((3, 3))
    with pytest.raises(ParameterError):
        DefectiveSet((5, 2))
    with pytest.raises(ParameterError):
        DefectiveSet((-1, 2))
    assert DefectiveSet.of([9, 2, 5]).indices == (2, 5, 9)


def test_outcome_vector_round_trip():
    bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    out = OutcomeVector.from_bits(bits)
    assert out.n_tests == 5
    assert np.array_equal(out.bits(), bits)
    with pytest.raises(ParameterError):
        OutcomeVector.from_bits([0, 2, 1])


def test_codebook_words_are_immutable():
    cb = generate_codebook(4, 8, 0.5, 7)
    with pytest.raises(ValueError):
        cb.words[0, 0] = 0


def test_no_storage_beyond_n_tests_is_set():
    # tail bits of the last packed word stay zero through generation and OR
    cb = generate_codebook(3, 5, 0.7, 9)
    tail = ~np.uint64((1 << 5) - 1)
    assert all(int(w) & int(tail) == 0 for w in cb.words.ravel())
    out = noiseless_outcome(cb, DefectiveSet((0, 1, 2)))
    assert int(out.words[0]) & int(tail) == 0


def test_words_must_match_their_test_count():
    """Codebook and OutcomeVector take only an integer T >= 0 and uint64
    words of their shape at T with no bit at or past test T set; T = 0
    takes zero-width words.  A Codebook takes only the N, p and seed that
    generate_codebook takes."""
    cb = generate_codebook(8, 10, 0.5, 1)
    out = noiseless_outcome(cb, DefectiveSet((1, 4)))
    wide = generate_codebook(3, 65, 0.5, 1).words
    for make in (
        lambda: OutcomeVector(10, out.words | np.uint64(1 << 40)),
        lambda: OutcomeVector(10, out.words | np.uint64(1 << 10)),
        lambda: OutcomeVector(10, out.words.astype(np.int64)),
        lambda: OutcomeVector(10, np.zeros(2, dtype=np.uint64)),
        lambda: Codebook(8, 10, 0.5, 1, cb.words | np.uint64(1 << 10)),
        lambda: Codebook(8, 10, 0.5, 1, np.zeros((8, 3), dtype=np.uint64)),
        lambda: Codebook(8, 10, 0.5, 1, cb.words[:7]),
        lambda: Codebook(8, 10, 0.5, 1, cb.words.astype(np.int64)),
        lambda: Codebook(3, 65, 0.5, 1, wide | np.array([0, 2], dtype=np.uint64)),
        lambda: OutcomeVector(10.5, out.words),
        lambda: OutcomeVector(64.0, np.zeros(1, dtype=np.uint64)),
        lambda: Codebook(8, -3, 0.5, 1, np.zeros((8, 0), dtype=np.uint64)),
        # the design and the seed are checked as generate_codebook checks them
        lambda: Codebook(2.0, 3, 0.5, 0, np.zeros((2, 1), dtype=np.uint64)),
        lambda: Codebook(True, 3, 0.5, 0, np.zeros((1, 1), dtype=np.uint64)),
        lambda: Codebook(2, 3, 7.0, 0, np.zeros((2, 1), dtype=np.uint64)),
        lambda: Codebook(2, 3, 0.5, -5, np.zeros((2, 1), dtype=np.uint64)),
        lambda: Codebook(2, "3", 0.5, 0, np.zeros((2, 1), dtype=np.uint64)),
        lambda: OutcomeVector("3", np.zeros(1, dtype=np.uint64)),
    ):
        with pytest.raises(ParameterError):
            make()
    assert OutcomeVector(10, out.words | np.uint64(1 << 9)).n_tests == 10
    assert OutcomeVector(64, np.array([2**64 - 1], dtype=np.uint64)).n_tests == 64
    assert Codebook(3, 65, 0.5, 1, wide | np.array([0, 1], dtype=np.uint64)).n_tests == 65
    assert OutcomeVector(0, np.zeros(0, dtype=np.uint64)).n_tests == 0
    assert Codebook(6, 0, 0.5, 1, np.zeros((6, 0), dtype=np.uint64)).words.shape == (6, 0)


# ---------------------------------------------------------------------------
# atomic writes


def test_a_write_that_raises_partway_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old contents\n")
    with pytest.raises(RuntimeError, match="partway"):
        with _atomic_text(path) as handle:
            handle.write("new contents\n")
            handle.flush()
            raise RuntimeError("partway")
    assert path.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_written_files_follow_the_umask(tmp_path):
    # --out creates its file as open() would: 0o666 less the umask
    old_umask = os.umask(0o022)
    try:
        with redirect_stdout(io.StringIO()):
            assert cli_main(["bounds", "-N", "8", "-K", "2",
                             "--out", str(tmp_path / "bounds.csv")]) == 0
    finally:
        os.umask(old_umask)
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()} == \
        {"bounds.csv": 0o644}
