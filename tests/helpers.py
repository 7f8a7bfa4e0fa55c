"""Shared test helpers."""

import numpy as np

from gtlab import Codebook, DefectiveSet
from gtlab.bitops import pack_bits


def make_codebook(bits, p=0.5, seed=0):
    """Codebook with explicitly chosen bits, for hand-crafted cases."""
    bits = np.asarray(bits, dtype=np.uint8)
    return Codebook(n_items=bits.shape[0], n_tests=bits.shape[1], p=p, seed=seed,
                    words=pack_bits(bits))


def read_trials(stream, n_tests):
    """Yield (trial, truth, codebook, outcome) for every trial a read of
    ``stream`` at n_tests leaves undecided, in trial order, the codebook and
    outcome built by ``stream.trial`` from the block they were read in."""
    for block, words, outcomes, undecided in stream.draw(n_tests):
        for i in np.flatnonzero(undecided).tolist():
            trial = block.start + i
            truth = DefectiveSet(stream.truth_idx[trial].tolist())
            yield (trial, truth, *stream.trial(trial, n_tests, words[i], outcomes[i]))


def record_reads(monkeypatch):
    """Wrap ``_TrialStream.draw`` so that every read appends (T, trial) for
    each trial it leaves undecided, the trials the miss histogram hands to
    the decoder; returns that list."""
    from gtlab.montecarlo import _TrialStream

    handed = []
    draw = _TrialStream.draw

    def recording_draw(self, n_tests):
        for block, words, outcomes, undecided in draw(self, n_tests):
            handed.extend((n_tests, block.start + i) for i in np.flatnonzero(undecided).tolist())
            yield block, words, outcomes, undecided

    monkeypatch.setattr(_TrialStream, "draw", recording_draw)
    return handed
