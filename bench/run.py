#!/usr/bin/env python3
"""gtlab benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload mc-cover --seed 1 --seconds 20 --trace 0

Run from the root of a gtlab source tree; gtlab is imported from ``src/``.
One closed-loop caller in this process runs the workload's fixed job list
over and over, each call issued after the previous one returns, all
single-threaded.  The first pass is untimed: it warms caches, captures a
subsample of decodes for the exact-ML oracle, the miss histograms and the
output bytes.  Later passes are timed and must reproduce the first pass's
outputs exactly.  The timed passes run in blocks, with one set-up probe
(a fresh interpreter) before each block, so that every run samples the
machine's speed over a longer span than its timed seconds.

``--trace 0`` times untraced passes for ``--seconds`` seconds and prints
the end-to-end metrics.  ``--trace 1`` alternates untraced passes with
passes that have every layer boundary wrapped in a span, and prints the
per-layer metrics, per pass of the job list.  The last line
of standard output is one JSON object; a fuller record, with machine
metadata, check results and digests, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from checks import evaluate, load_reference
from oracle import check_decode
from probes import Capture, Tracer, layer_metrics, layer_shares, patched

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("mc-cover", "mc-dilution", "cli-session")
SETUP_RUNS = 7  # set-up probes, one before each timed block; setup_s is their median

# the ROADMAP's per-trial baselines: (label, N, K, T, channel, trials per run)
BASELINES = (
    ("noise-free N=256 K=2 T=40", 256, 2, 40, ("noise_free",), 400),
    ("additive q=0.5 N=64 K=2 T=60", 64, 2, 60, ("additive", 0.5), 400),
    ("dilution u=0.5 N=64 K=2 T=60", 64, 2, 60, ("dilution", 0.5), 200),
    ("dilution u=0.3 N=24 K=4 T=30", 24, 4, 30, ("dilution", 0.3), 60),
)

END_TO_END_UNITS = {"trials_per_s": "1/s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "rng.busy_s": "s", "rng.calls": "count", "bitops.busy_s": "s", "bitops.calls": "count",
    "model.codebook.self_s": "s", "model.codebook.calls": "count",
    "model.codebook.p50_us": "us", "model.channel.self_s": "s",
    "model.channel.calls": "count", "montecarlo.truth.busy_s": "s",
    "decoder.busy_s": "s", "decoder.calls": "count", "decoder.p50_us": "us",
    "decoder.p99_us": "us", "decoder.latency_samples": "count",
    "decoder.p99_tail_samples": "count", "decoder.candidates": "count",
    "decoder.ties": "count", "decoder.neg_inf": "count", "decoder.tie_mismatch": "count",
    "montecarlo.self_s": "s", "montecarlo.decodes_per_trial": "ratio",
    "bounds.busy_s": "s", "bounds.calls": "count", "cli.self_s": "s",
    "cli.bytes_written": "bytes", "setup.import_s": "s", "setup.warmup_s": "s",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="trial-count multiplier for smoke tests (default 1)")
    return parser.parse_args(argv)


def import_gtlab():
    """Import gtlab from this tree's src/, or exit without a result."""
    if not (SRC / "gtlab" / "__init__.py").is_file():
        sys.exit(f"error: no gtlab sources under {SRC}; run from a gtlab source tree")
    sys.path.insert(0, str(SRC))
    import gtlab

    if Path(gtlab.__file__).resolve().parent != SRC / "gtlab":
        sys.exit(f"error: imported gtlab from {gtlab.__file__}, not from {SRC}")
    return gtlab


# ---------------------------------------------------------------------------
# measurement phases


def probe_setup(workload: str) -> tuple[float, float, float]:
    """One fresh interpreter doing import + warm-up, timed from outside.

    Returns (wall, import, warm-up) seconds.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    wall = perf_counter() - t0
    inner = json.loads(proc.stdout.strip().splitlines()[-1])
    return wall, inner["import_s"], inner["warmup_s"]


def summarize_setup(probes: list[tuple[float, float, float]]) -> dict:
    walls, imports, warmups = zip(*probes)
    return {"setup_s": statistics.median(walls), "import_s": statistics.median(imports),
            "warmup_s": statistics.median(warmups), "samples_s": list(walls)}


class Session:
    """Runs one workload's job list and accounts for operations and failures.

    Operations are counted per job list, not per pass: a job that raises in
    any pass is one failed operation of ``len(jobs)``, however many passes
    fit in the measuring time.
    """

    DIVERGED = "a timed pass produced different outputs than the first pass"

    def __init__(self, jobs):
        self.jobs = jobs
        self.failed_jobs: set[int] = set()
        self.errors: list[str] = []
        self.reference_outputs = None

    def run_pass(self, tracer=None, capture=None):
        outputs = []
        for index, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job_id = index
            if capture is not None:
                capture.begin_job(job)
            try:
                outputs.append(job.run())
            except Exception as exc:  # a failed operation is counted and reported
                if index not in self.failed_jobs:
                    self.failed_jobs.add(index)
                    self.errors.append(f"{job.name}: {type(exc).__name__}: {exc}")
                outputs.append(None)
            if capture is not None:
                capture.end_job()
        if self.reference_outputs is None:
            self.reference_outputs = outputs
        elif ([o and o.text for o in outputs] != [o and o.text for o in self.reference_outputs]
              and self.DIVERGED not in self.errors):
            self.errors.append(self.DIVERGED)
        return outputs

    def timed_pass(self, tracer=None) -> float:
        t0 = perf_counter()
        self.run_pass(tracer=tracer)
        return perf_counter() - t0

    def timed_passes(self, until: float, untraced: list, traced: list, tracer=None) -> None:
        """Append pass wall times until the timed passes add up to ``until`` seconds.

        With a tracer, untraced and traced passes alternate, so that both
        see the same machine conditions and their ratio is the trace overhead.
        """
        while sum(untraced) + sum(traced) < until:
            untraced.append(self.timed_pass())
            if tracer is not None:
                with patched(tracer.replacements()):
                    traced.append(self.timed_pass(tracer))


def verify_decodes(capture) -> dict:
    """Re-check the captured decodes with the exact-ML oracle (untimed)."""
    mismatches, tie_mismatch = [], 0
    for job, codebook, outcome, k, noise, result in capture.samples:
        verdict = check_decode(codebook, outcome, k, noise, result)
        tie_mismatch += verdict.tie_mismatch
        if not verdict.ok:
            mismatches.append({
                "job": job, "codebook_seed": codebook.seed,
                "decoded": list(result.best_set.indices), "score": result.log_likelihood,
                "tie": result.tie, "expected": list(verdict.expected.best_set),
                "expected_score": verdict.expected.score, "expected_tie": verdict.expected.tie,
                "maximizers": verdict.expected.n_maximizers,
            })
    return {"checked": len(capture.samples), "failed": len(mismatches),
            "tie_mismatch": tie_mismatch, "mismatches": mismatches}


def measure_baselines(gtlab, seed: int) -> dict:
    """The ROADMAP's four per-trial baselines, untraced and then traced."""
    from workloads import derive_seed

    out = {}
    for label, n, k, t, (kind, *param), trials in BASELINES:
        noise = getattr(gtlab.NoiseModel, kind)(*param)
        master = derive_seed(seed, "baseline", label)
        t0 = perf_counter()
        gtlab.estimate_average_error(n, k, t, 1.0 / k, noise, trials, master)
        untraced = perf_counter() - t0
        tracer = Tracer()
        with patched(tracer.replacements()):
            t0 = perf_counter()
            gtlab.estimate_average_error(n, k, t, 1.0 / k, noise, trials, master)
            traced = perf_counter() - t0
        spans = tracer.arrays()
        decode = spans.duration[spans.names == "decoder.ml_decode"]
        out[label] = {"trials": trials, "untraced_ms_per_trial": 1e3 * untraced / trials,
                      "traced_ms_per_trial": 1e3 * traced / trials,
                      "traced_decoder_ms_per_trial": 1e3 * float(decode.sum()) / trials}
    return out


# ---------------------------------------------------------------------------
# reporting


def metadata(gtlab) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(1 for path in sorted(SRC.rglob("*.py"))
                    for line in path.read_text(encoding="utf-8").splitlines() if line.strip())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "gtlab": gtlab.__version__, "src_nonblank_lines": src_lines}


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    args = parse_args(argv)
    gtlab = import_gtlab()
    from workloads import build_jobs  # imports gtlab

    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="tmp-") as tmpdir:
        session = Session(build_jobs(args.workload, args.seed, tmpdir, args.scale))
        capture = Capture(args.seed)
        with patched(capture.replacements()):
            first = session.run_pass(capture=capture)
        gc.collect()
        trials_per_pass = sum(capture.trials.values())
        tracer = Tracer() if args.trace else None
        # timed blocks alternate with the set-up probes: a slow spell of the
        # machine then weighs on fewer of a run's passes and probes
        probes, untraced, traced = [], [], []
        for block in range(1, SETUP_RUNS + 1):
            probes.append(probe_setup(args.workload))
            session.timed_passes(args.seconds * block / SETUP_RUNS, untraced, traced, tracer)
        setup = summarize_setup(probes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    claims = [claim for output in first if output for claim in output.claims]
    check_failures, checked, unchecked = evaluate(claims, load_reference())
    oracle = verify_decodes(capture)
    attempted = len(session.jobs) + oracle["checked"]
    failed = len(session.failed_jobs) + oracle["failed"]
    correct = not check_failures and not session.errors
    # the mean pass time, i.e. the timed window over its passes: on this noisy
    # machine it spread less across runs than the median pass (bench/README.md)
    wall = statistics.fmean(untraced)

    end_to_end = {"trials_per_s": trials_per_pass / wall, "wall_s": wall,
                  "setup_s": setup["setup_s"], "peak_rss_mb": peak_rss_mb}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metadata": metadata(gtlab),
        "end_to_end": end_to_end, "failed_frac": failed / attempted,
        "attempted": attempted, "failed": failed, "correct": correct,
        "trials_per_pass": trials_per_pass, "untraced_pass_walls_s": untraced,
        "first_pass": {"trials": capture.trials, "decodes": capture.decodes},
        "setup": setup,
        "checks": {"failures": check_failures, "checked": checked, "unchecked": unchecked,
                   "errors": session.errors},
        "oracle": oracle,
        "digests": {
            "miss_histograms": digest(capture.histograms),
            "outputs": digest([[job.name, out and out.text]
                               for job, out in zip(session.jobs, first)]),
        },
    }
    if args.trace:
        per_layer = layer_metrics(tracer, len(traced), trials_per_pass)
        per_layer.update({
            "decoder.tie_mismatch": float(oracle["tie_mismatch"]),
            "cli.bytes_written": float(sum(out.csv_bytes for out in first if out)),
            "setup.import_s": setup["import_s"], "setup.warmup_s": setup["warmup_s"],
            "trace.overhead_frac": statistics.fmean(traced) / wall - 1.0,
        })
        record.update(per_layer=per_layer, traced_pass_walls_s=traced,
                      layer_shares=layer_shares(tracer),
                      baselines=measure_baselines(gtlab, args.seed))
        tracer.write(RESULTS / f"spans-{args.workload}.csv")
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print_summary(record, metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_summary(record: dict, metrics: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{len(record['untraced_pass_walls_s'])} untraced and "
          f"{len(record.get('traced_pass_walls_s', []))} traced passes of "
          f"{record['trials_per_pass']} trials")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_frac = {record['failed_frac']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} operations)")
    oracle, checks = record["oracle"], record["checks"]
    print(f"  oracle: {oracle['checked']} decodes re-checked, {oracle['failed']} disagree "
          f"({oracle['tie_mismatch']} tie or first-maximizer mismatches)")
    print(f"  output checks: {checks['checked']} checked, {len(checks['failures'])} failed, "
          f"{checks['unchecked']} without a reference; errors: {len(checks['errors'])}")
    for line in checks["failures"] + checks["errors"]:
        print(f"    {line}")
    print(f"  digests: {record['digests']}")
    for label, share in record.get("layer_shares", {}).items():
        print(f"  share {label} = {share:.3f}")
    for label, baseline in record.get("baselines", {}).items():
        print(f"  baseline {label}: {baseline['untraced_ms_per_trial']:.3f} ms/trial untraced, "
              f"{baseline['traced_ms_per_trial']:.3f} traced")


if __name__ == "__main__":
    sys.exit(main())
