#!/usr/bin/env python3
"""Rebuild bench/reference.json from one pass of each workload over many seeds.

    python3 bench/calibrate.py --seeds 200 [--workload mc-cover ...]

Run from the root of a gtlab source tree.  Seeds 1_000_000 + i are used,
pooled band counts are stored per job, ranges are widened by 1 on each side,
and the entries of the named workloads replace the ones already in the
file.  Rerun it only when a change to the random stream or to the
workloads is declared; a perf change must pass against the stored file.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from run import BENCH, WORKLOAD_NAMES, import_gtlab

SEED_BASE = 1_000_000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=200)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    import_gtlab()
    from checks import REFERENCE_PATH, build_reference, load_reference
    from workloads import build_jobs

    fresh = {}
    for workload in args.workload or WORKLOAD_NAMES:
        claims_by_seed = {}
        with tempfile.TemporaryDirectory(dir=BENCH) as tmpdir:
            for i in range(args.seeds):
                seed = SEED_BASE + i
                jobs = build_jobs(workload, seed, tmpdir)
                claims_by_seed[seed] = [c for job in jobs for c in job.run().claims]
                print(f"{workload} seed {seed} done", file=sys.stderr)
        fresh[workload] = build_reference(claims_by_seed)
    reference = load_reference() if REFERENCE_PATH.exists() else {}
    for workload, entries_by_kind in fresh.items():
        for kind, entries in entries_by_kind.items():
            section = reference.setdefault(kind, {})
            for key in [k for k in section if k.startswith(workload + "/")]:
                del section[key]
            section.update(entries)
    reference["calibration"] = {"seeds": args.seeds, "seed_base": SEED_BASE}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
