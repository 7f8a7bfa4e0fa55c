"""Shared test helpers."""

import numpy as np

from gtlab import Codebook, DefectiveSet, NoiseModel, OutcomeVector
from gtlab.bitops import pack_bits

# The channels the grouped-scan tests run on.  q = 1 - 2**-40 puts log2 q
# near -1.3e-12: candidates leaving 1 and 2 positive tests unpooled may
# round to one score, which ranks as ml_decode's.  At q = 1 log2(1-q) =
# -inf, so a trial with a negative test scores -inf throughout, and one
# without ties every candidate of its pool.  Under dilution every trial
# enumerates all N items, so a block is one group; at u = 1 any positive
# test scores -inf.
GROUPED_CHANNELS = [NoiseModel.noise_free(), NoiseModel.additive(0.25),
                    NoiseModel.additive(1 - 2**-40), NoiseModel.dilution(0.3),
                    NoiseModel.dilution(1.0), NoiseModel.additive(1.0)]


def make_codebook(bits, p=0.5, seed=0):
    """Codebook with explicitly chosen bits, for hand-crafted cases."""
    bits = np.asarray(bits, dtype=np.uint8)
    return Codebook(n_items=bits.shape[0], n_tests=bits.shape[1], p=p, seed=seed,
                    words=pack_bits(bits))


def read_trials(stream, n_tests):
    """Yield (trial, truth, codebook, outcome) for every trial of a read of
    ``stream`` at n_tests, in trial order, the codebook and outcome built
    from copies of the words of the block they were read in."""
    for block, words, outcomes in stream.draw(n_tests):
        for i, trial in enumerate(range(block.start, block.stop)):
            truth = DefectiveSet(stream.truth_idx[trial].tolist())
            codebook = Codebook(stream.n_items, n_tests, stream.p, int(stream.seeds[trial, 0]),
                                words[i].copy())
            yield trial, truth, codebook, OutcomeVector(n_tests, outcomes[i].copy())


def record_reads(monkeypatch):
    """Wrap ``_TrialStream.draw`` so that every read appends (T, trial) for
    each trial it yields, the trials the miss histogram hands to the
    decoder; returns that list."""
    from gtlab.montecarlo import _TrialStream

    handed = []
    draw = _TrialStream.draw

    def recording_draw(self, n_tests):
        for read in draw(self, n_tests):
            handed.extend((n_tests, trial) for trial in range(read[0].start, read[0].stop))
            yield read

    monkeypatch.setattr(_TrialStream, "draw", recording_draw)
    return handed
