"""Shared test helpers."""

import numpy as np

from gtlab import Codebook, DefectiveSet, OutcomeVector
from gtlab.bitops import pack_bits


def make_codebook(bits, p=0.5, seed=0):
    """Codebook with explicitly chosen bits, for hand-crafted cases."""
    bits = np.asarray(bits, dtype=np.uint8)
    return Codebook(n_items=bits.shape[0], n_tests=bits.shape[1], p=p, seed=seed,
                    words=pack_bits(bits))


def read_trials(stream, n_tests):
    """Yield (trial, truth, codebook, outcome) for every trial a read of
    ``stream`` at n_tests leaves undecided, in trial order, the codebook and
    outcome built from copies of the words of the block they were read in."""
    for block, words, outcomes, undecided, _ in stream.draw(n_tests):
        for i in np.flatnonzero(undecided).tolist():
            trial = block.start + i
            truth = DefectiveSet(stream.truth_idx[trial].tolist())
            codebook = Codebook(stream.n_items, n_tests, stream.p, int(stream.seeds[trial, 0]),
                                words[i].copy())
            yield trial, truth, codebook, OutcomeVector(n_tests, outcomes[i].copy())


def record_reads(monkeypatch):
    """Wrap ``_TrialStream.draw`` so that every read appends (T, trial) for
    each trial it leaves undecided, the trials the miss histogram hands to
    the decoder; returns that list."""
    from gtlab.montecarlo import _TrialStream

    handed = []
    draw = _TrialStream.draw

    def recording_draw(self, n_tests):
        for read in draw(self, n_tests):
            block, undecided = read[0], read[3]
            handed.extend((n_tests, block.start + i) for i in np.flatnonzero(undecided).tolist())
            yield read

    monkeypatch.setattr(_TrialStream, "draw", recording_draw)
    return handed
