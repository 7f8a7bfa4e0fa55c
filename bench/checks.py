"""Output checks held against ``reference.json``, and the calibration that writes it.

A Monte Carlo error count passes when it lies in a binomial band around
the reference error rate: |errors - n*p| <= Z * sqrt(n*p*(1-p)) + SLACK.
The band lets a declared change of the random stream pass, while a broken
channel or decoder, which moves the rate itself, fails.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
Z = 5.0
SLACK = 3.0
CLOSE_TOL = 1e-9


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def in_band(errors: int, trials: int, ref_errors: int, ref_trials: int) -> bool:
    p = ref_errors / ref_trials
    return abs(errors - trials * p) <= Z * math.sqrt(trials * p * (1.0 - p)) + SLACK


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= CLOSE_TOL * max(1.0, abs(b))


def evaluate(claims, reference: dict) -> tuple[list[str], int, int]:
    """Return (failure messages, claims checked, claims without a reference)."""
    failures, checked, unchecked = [], 0, 0
    for claim in claims:
        kind, key = claim[0], claim[1]
        if kind == "equal":
            checked += 1
            if claim[2] != claim[3]:
                failures.append(f"{key}: {claim[2]} != {claim[3]}")
            continue
        ref = reference.get(kind, {}).get(key)
        if ref is None:
            unchecked += 1
            continue
        checked += 1
        if kind == "band" and not in_band(claim[2], claim[3], ref["errors"], ref["trials"]):
            failures.append(f"{key}: {claim[2]}/{claim[3]} errors outside the band around "
                            f"{ref['errors']}/{ref['trials']}")
        elif kind == "range" and not ref[0] <= claim[2] <= ref[1]:
            failures.append(f"{key}: {claim[2]} outside [{ref[0]}, {ref[1]}]")
        elif kind == "close" and (len(ref) != len(claim[2])
                                  or not all(map(_close, claim[2], ref))):
            failures.append(f"{key}: {claim[2]} differs from {ref}")
    return failures, checked, unchecked


def build_reference(claims_by_seed: dict) -> dict:
    """Pool the claims of many seeds: summed band counts, the range of each
    value widened by 1 on each side, and the seed-independent floats (which
    must agree across seeds)."""
    reference = {"band": {}, "range": {}, "close": {}}
    for seed, claims in sorted(claims_by_seed.items()):
        for claim in claims:
            kind, key = claim[0], claim[1]
            if kind == "band":
                entry = reference["band"].setdefault(key, {"errors": 0, "trials": 0})
                entry["errors"] += claim[2]
                entry["trials"] += claim[3]
            elif kind == "range":
                lo, hi = reference["range"].get(key, (claim[2], claim[2]))
                reference["range"][key] = (min(lo, claim[2]), max(hi, claim[2]))
            elif kind == "close":
                previous = reference["close"].setdefault(key, claim[2])
                if previous != claim[2]:
                    raise ValueError(f"{key} depends on the seed: {previous} vs {claim[2]}")
    reference["range"] = {key: [lo - 1, hi + 1] for key, (lo, hi) in reference["range"].items()}
    return reference
