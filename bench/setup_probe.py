"""Set-up probe, run in a fresh interpreter by run.py: ``import gtlab`` plus one
tiny warm-up call of a workload's entry point.

Usage: python3 setup_probe.py WORKLOAD   (with gtlab importable)
Prints {"import_s": ..., "warmup_s": ...} as one JSON line.
"""

import contextlib
import json
import os
import sys
from time import perf_counter


def main(workload: str) -> None:
    t0 = perf_counter()
    import gtlab

    t1 = perf_counter()
    if workload == "cli-session":
        import gtlab.cli

        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = gtlab.cli.main(["estimate", "-N", "8", "-K", "2", "-T", "6", "--trials", "2"])
        if code != 0:
            raise SystemExit(f"warm-up exited with {code}")
    else:
        noise = (gtlab.NoiseModel.dilution(0.3) if workload == "mc-dilution"
                 else gtlab.NoiseModel.noise_free())
        gtlab.estimate_average_error(8, 2, 6, 0.5, noise, 2, 1)
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1}))


if __name__ == "__main__":
    main(sys.argv[1])
