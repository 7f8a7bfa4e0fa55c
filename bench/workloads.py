"""The benchmark's three workloads, each a fixed list of jobs derived from a seed.

A job drives gtlab's public API (``mc-cover``, ``mc-dilution``) or its
command line in-process (``cli-session``) and returns a ``JobOutput``: the
bytes it produced, for the determinism check and the digest, and the claims
that ``checks.py`` holds against ``reference.json``.

Claims are tuples:

* ``("band", key, errors, trials)``: an error count, checked against a
  binomial band around the reference error rate for ``key``;
* ``("range", key, value)``: a value that must lie in the reference range;
* ``("close", key, values)``: floats equal to the reference to 1e-9;
* ``("equal", label, a, b)``: two values of one output that must agree.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import gtlab
import gtlab.cli
from gtlab import NoiseModel


@dataclass(frozen=True)
class JobOutput:
    text: str
    claims: tuple
    csv_bytes: int = 0  # bytes the job wrote to --out files


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], JobOutput]
    oracle_share: float  # fraction of this job's decodes the oracle re-checks


def derive_seed(seed: int, *labels) -> int:
    """A 63-bit master seed for one job, a pure function of the benchmark seed."""
    text = "/".join(str(v) for v in (seed,) + labels).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little") >> 1


# ---------------------------------------------------------------------------
# Monte Carlo workloads: estimate_average_error through the package namespace


def _channel_label(noise: NoiseModel) -> str:
    return noise.kind if noise.param is None else f"{noise.kind}{noise.param}"


def _average_job(workload, seed, n, k, t, noise, trials, oracle_share) -> Job:
    name = f"{workload}/N{n}-K{k}-T{t}-{_channel_label(noise)}"
    master = derive_seed(seed, name)

    def run() -> JobOutput:
        est = gtlab.estimate_average_error(n, k, t, 1.0 / k, noise, trials, master)
        return JobOutput(repr(est.csv_row()), (("band", name, est.errors, est.trials),))

    return Job(name, run, oracle_share)


def mc_cover(seed: int, scale: float = 1.0) -> list[Job]:
    trials = max(2, round(300 * scale))
    nf, add = NoiseModel.noise_free(), NoiseModel.additive(0.25)
    return [_average_job("mc-cover", seed, 256, 2, t, nf, trials, 0.02)
            for t in (14, 20, 27, 40, 54)] + [
            _average_job("mc-cover", seed, 64, 2, t, add, trials, 0.1)
            for t in (30, 45, 60)]


def mc_dilution(seed: int, scale: float = 1.0) -> list[Job]:
    return [
        _average_job("mc-dilution", seed, 24, 4, 30, NoiseModel.dilution(0.3),
                     max(2, round(300 * scale)), 1.0),
        _average_job("mc-dilution", seed, 64, 2, 60, NoiseModel.dilution(0.5),
                     max(2, round(300 * scale)), 0.3),
    ]


# ---------------------------------------------------------------------------
# cli-session: one researcher's session through gtlab.cli.main with --out CSVs

_BOUNDS_GRID = [(n, k) for n in (64, 256, 1000, 4096) for k in (2, 4, 8)]
_BOUNDS_CHANNELS = (
    ("noise-free",), ("additive", "--q", "0.1"), ("additive", "--q", "0.25"),
    ("dilution", "--u", "0.1"), ("dilution", "--u", "0.3"),
)


class CliError(RuntimeError):
    """A command-line job exited with a non-zero code."""


def run_cli(argv: list[str], out_path: str) -> tuple[str, list[dict]]:
    """Run ``gtlab.cli.main`` in-process with stdout discarded; return the CSV text and rows."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = gtlab.cli.main(argv + ["--out", out_path])
    if code != 0:
        raise CliError(f"gtlab {' '.join(argv)} exited with {code}")
    with open(out_path, encoding="utf-8", newline="") as handle:
        text = handle.read()
    os.unlink(out_path)
    return text, list(csv.DictReader(io.StringIO(text)))


def _bounds_job(tmpdir: str) -> Job:
    def run() -> JobOutput:
        texts, claims = [], []
        for n, k in _BOUNDS_GRID:
            for model, *param in _BOUNDS_CHANNELS:
                argv = ["bounds", "--model", model, *param, "-N", str(n), "-K", str(k),
                        "--kind", "both"]
                text, rows = run_cli(argv, os.path.join(tmpdir, "bounds.csv"))
                texts.append(text)
                values = [float(r[col]) for r in rows
                          for col in ("numerator_bits", "mi_bits", "ratio_tests") if r[col]]
                claims.append(("close", f"cli-session/bounds/N{n}-K{k}-{model}{''.join(param[1:])}",
                               values))
        text = "".join(texts)
        return JobOutput(text, tuple(claims), len(text.encode()))

    return Job("cli-session/bounds", run, 0.0)


def _minimal_t_job(seed, tmpdir, label, model_args, grid, trials, share) -> Job:
    name = f"cli-session/minimal-t-{label}"
    target = 0.1

    def run() -> JobOutput:
        argv = ["minimal-t", *model_args, "-N", "64", "-K", "2", "--target", str(target),
                "--t-grid", grid, "--trials", str(trials), "--seed", str(derive_seed(seed, name))]
        text, rows = run_cli(argv, os.path.join(tmpdir, "minimal-t.csv"))
        claims = [("band", f"{name}/T{r['T']}", int(r["errors"]), int(r["trials"])) for r in rows]
        meeting = [int(r["T"]) for r in rows if float(r["p_hat"]) <= target]
        claims.append(("range", f"{name}/t_star", min(meeting) if meeting else -1))
        return JobOutput(text, tuple(claims), len(text.encode()))

    return Job(name, run, share)


def _estimate_job(seed, tmpdir, label, args, share, check) -> Job:
    name = f"cli-session/estimate-{label}"

    def run() -> JobOutput:
        argv = ["estimate", *args, "--seed", str(derive_seed(seed, name))]
        text, rows = run_cli(argv, os.path.join(tmpdir, f"{label}.csv"))
        return JobOutput(text, tuple(check(name, rows)), len(text.encode()))

    return Job(name, run, share)


def _profile_claims(name, rows):
    avg, profile = rows[0], rows[1:]
    errors = int(avg["errors"])
    return [("band", name, errors, int(avg["trials"])),
            ("equal", f"{name}/profile-sums-to-average",
             sum(int(r["errors"]) for r in profile), errors)]


def _band_claims(name, rows):
    return [("band", name, int(r["errors"]), int(r["trials"])) for r in rows]


def _range_claims(name, rows):
    return [("range", name, int(r["errors"])) for r in rows]


def cli_session(seed: int, tmpdir: str, scale: float = 1.0) -> list[Job]:
    def trials(n):
        return str(max(2, round(n * scale)))

    return [
        _bounds_job(tmpdir),
        _minimal_t_job(seed, tmpdir, "noise-free", ["--model", "noise-free"], "10:82:12",
                       trials(200), 0.04),
        _minimal_t_job(seed, tmpdir, "additive", ["--model", "additive", "--q", "0.25"],
                       "15:135:20", trials(150), 0.04),
        _estimate_job(seed, tmpdir, "profile",
                      ["-N", "24", "-K", "4", "-T", "30", "--trials", trials(1000), "--profile"],
                      0.02, _profile_claims),
        _estimate_job(seed, tmpdir, "partial",
                      ["-N", "24", "-K", "4", "-T", "20", "--trials", trials(1000),
                       "--criterion", "partial", "--alpha", "0.5"],
                      0.02, _band_claims),
        _estimate_job(seed, tmpdir, "worst",
                      ["--model", "dilution", "--u", "0.2", "-N", "12", "-K", "2", "-T", "24",
                       "--trials", "16", "--criterion", "worst"],
                      0.02, _range_claims),
    ]


def build_jobs(workload: str, seed: int, tmpdir: str, scale: float = 1.0) -> list[Job]:
    if workload == "mc-cover":
        return mc_cover(seed, scale)
    if workload == "mc-dilution":
        return mc_dilution(seed, scale)
    if workload == "cli-session":
        return cli_session(seed, tmpdir, scale)
    raise ValueError(f"unknown workload {workload!r}")

