"""Self-tests of the exact-ML oracle.

Run from the root of a gtlab source tree:
    PYTHONPATH=src python -m pytest -q bench/tests
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from gtlab import Codebook, DefectiveSet, NoiseModel, ml_decode  # noqa: E402
from gtlab.bitops import pack_bits  # noqa: E402
from gtlab.decoder import DecodeResult  # noqa: E402
from gtlab.model import OutcomeVector  # noqa: E402

from oracle import (_unique_rows, check_decode, exact_ml, subset_statistics,  # noqa: E402
                    subset_table)


def make_codebook(bits):
    bits = np.asarray(bits, dtype=np.uint8)
    return Codebook(n_items=bits.shape[0], n_tests=bits.shape[1], p=0.5, seed=0,
                    words=pack_bits(bits))


# Items 0..5, item i pooled alone in test i: the truth {1, 4} is the only
# subset that explains the positives without an erasure or a false alarm.
PLANTED_BITS = np.eye(6, dtype=np.uint8)
PLANTED_Y = np.array([0, 1, 0, 0, 1, 0], dtype=np.uint8)


@pytest.mark.parametrize("noise", [NoiseModel.noise_free(), NoiseModel.additive(0.2),
                                   NoiseModel.dilution(0.3)], ids=lambda n: n.kind)
def test_planted_instance_has_a_unique_maximizer(noise):
    answer = exact_ml(PLANTED_BITS, PLANTED_Y, 2, noise)
    assert answer.best_set == (1, 4)
    assert not answer.tie and answer.n_maximizers == 1
    expected = {"noise-free": 0.0, "additive": 4 * math.log2(0.8),
                "dilution": 2 * math.log2(0.7)}[noise.kind]
    assert answer.score == pytest.approx(expected, abs=1e-12)

    codebook, outcome = make_codebook(PLANTED_BITS), OutcomeVector.from_bits(PLANTED_Y)
    assert check_decode(codebook, outcome, 2, noise, ml_decode(codebook, outcome, 2, noise)).ok


# Four items, K = 2, every test positive.  Tests 0-3 each pool one item of
# {0, 1} and one of {2, 3} so that every mixed pair leaves some positive
# test empty; tests 4 and 5 pool two members of one pair and one of the
# other.  {0, 1} and {2, 3} therefore see per-test counts 1,1,1,1,2,1 and
# 1,1,1,1,1,2: the same integer statistics in a different test order.
TIE_POOLS = [(0, 2), (1, 3), (0, 3), (1, 2), (0, 1, 2), (2, 3, 0)]
TIE_BITS = np.array([[int(i in pool) for pool in TIE_POOLS] for i in range(4)], dtype=np.uint8)
TIE_Y = np.ones(len(TIE_POOLS), dtype=np.uint8)


def test_constructed_dilution_tie_is_flagged():
    noise = NoiseModel.dilution(0.2)
    stats = subset_statistics(TIE_BITS, TIE_Y, subset_table(4, 2))
    first, second = 0, 5  # (0, 1) and (2, 3) in lexicographic order
    assert np.array_equal(stats[first], stats[second])

    answer = exact_ml(TIE_BITS, TIE_Y, 2, noise)
    assert answer.tie and answer.n_maximizers == 2
    assert answer.best_set == (0, 1)
    assert answer.score == pytest.approx(5 * math.log2(0.8) + math.log2(0.96), abs=1e-12)

    codebook, outcome = make_codebook(TIE_BITS), OutcomeVector.from_bits(TIE_Y)
    untied = DecodeResult(DefectiveSet((0, 1)), answer.score, False, 6)
    verdict = check_decode(codebook, outcome, 2, noise, untied)
    assert verdict.score_ok and verdict.set_ok
    assert not verdict.tie_ok and verdict.tie_mismatch and not verdict.ok


def test_wrong_set_or_score_is_flagged():
    noise = NoiseModel.dilution(0.3)
    codebook, outcome = make_codebook(PLANTED_BITS), OutcomeVector.from_bits(PLANTED_Y)
    right = exact_ml(PLANTED_BITS, PLANTED_Y, 2, noise)
    wrong_set = DecodeResult(DefectiveSet((1, 5)), right.score, False, 15)
    assert check_decode(codebook, outcome, 2, noise, wrong_set).tie_mismatch
    wrong_score = DecodeResult(DefectiveSet((1, 4)), right.score - 1e-6, False, 15)
    verdict = check_decode(codebook, outcome, 2, noise, wrong_score)
    assert not verdict.score_ok and not verdict.tie_mismatch


def test_all_candidates_impossible():
    # both items pool the only test, which reads negative: no noise-free set explains it
    answer = exact_ml(np.ones((2, 1), dtype=np.uint8), np.zeros(1, dtype=np.uint8), 1,
                      NoiseModel.noise_free())
    assert answer.best_set == (0,) and answer.score == -math.inf and not answer.tie


def test_exact_tie_with_different_statistics():
    # with u = 1/2 one negative test pooling two members costs as much as two
    # negative tests pooling one each, so {0, 1} and {0, 2} tie exactly
    bits = np.array([[1, 1, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]], dtype=np.uint8)
    y = np.array([1, 0, 0], dtype=np.uint8)
    stats = subset_statistics(bits, y, subset_table(4, 2))
    assert not np.array_equal(stats[0], stats[1])
    answer = exact_ml(bits, y, 2, NoiseModel.dilution(0.5))
    assert answer.best_set == (0, 1) and answer.tie and answer.n_maximizers == 3
    assert answer.score == pytest.approx(math.log2(0.75) - 2, abs=1e-12)


def test_unique_rows_matches_numpy_unique():
    rows = np.random.default_rng(0).integers(0, 4, size=(500, 6))
    unique, inverse = _unique_rows(rows, 3)
    assert np.array_equal(unique[inverse], rows)
    assert sorted(map(tuple, unique)) == sorted(map(tuple, np.unique(rows, axis=0)))
