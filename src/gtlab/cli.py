"""Command-line front end: bounds, estimates, sweeps, minimal-T search, acceptance.

Each subcommand is one parser plus one handler: the subparser names its
handler with ``set_defaults(run=...)``, and the handler reads the parsed
arguments directly.  The channel, the estimators and the acceptance suite
validate their own parameters; the handlers check only what the command
line adds.

Every emitted CSV row carries the full configuration that produced it
(including the seed and the package version), so any row can be
reproduced in isolation.  ``--out`` is the package's only file writer:
``_atomic_text`` writes each file atomically (temp file then rename), and
text is UTF-8 with LF line endings and '.' decimals.

Exit codes: 0 success, 1 acceptance criterion failed, 2 invalid
parameters or an unwritable --out, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from contextlib import contextmanager

from . import __version__
from .bounds import (
    ACHIEVABLE,
    BOUND_CSV_HEADER,
    FANO,
    achievable_tests,
    additive_converse,
    fano_lower_bound,
)
from .errors import CapacityError, ParameterError
from .model import ADDITIVE, DILUTION, NOISE_FREE, NoiseModel, _check_defectives, generate_codebook
from .montecarlo import (  # noqa: F401 (bench/probes.py wraps every estimator by name here)
    ESTIMATE_CSV_HEADER,
    _check_trials,
    empirical_pei_profile,
    estimate_average_error,
    estimate_partial_error,
    estimate_sweep,
    estimate_worstcase_error,
    find_minimal_t,
)

SEED_ENV_VAR = "GT_LAB_SEED"
DEFAULT_SEED = 1


def _parse_t_grid(text: str) -> tuple[int, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError(f"--t-grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (int(v) for v in parts)
    except ValueError:
        raise ParameterError(f"--t-grid fields must be integers, got {text!r}") from None
    if step <= 0 or stop < start or start < 0:
        raise ParameterError(f"--t-grid must satisfy start >= 0, stop >= start, step > 0, got {text!r}")
    return tuple(range(start, stop + 1, step))


def _parse_criteria(text: str) -> tuple[int, ...]:
    try:
        numbers = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ParameterError(f"--criteria must be a comma list of integers, got {text!r}") from None
    return numbers


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParameterError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _channel_and_p(args) -> tuple[NoiseModel, float]:
    """The channel and p of a design command, with 1 <= K < N checked."""
    noise = NoiseModel(args.model, q=args.q, u=args.u)
    _check_defectives(args.N, args.K)
    if args.p is not None:
        return noise, args.p
    # 1/K, except that K = 1 would degenerate to p = 1; 0.5 maximizes the
    # per-test information for a single defective
    return noise, 0.5 if args.K == 1 else 1.0 / args.K


def _alpha(args) -> float | None:
    """--alpha, which --criterion partial requires and every other criterion refuses."""
    if args.criterion != "partial":
        if args.alpha is not None:
            raise ParameterError("--alpha applies only to --criterion partial")
        return None
    if args.alpha is None:
        raise ParameterError("--criterion partial requires --alpha")
    return args.alpha


def _write_csv(handle, header: list, rows: list) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header + ["version"])
    for row in rows:
        writer.writerow(list(row) + [__version__])


@contextmanager
def _atomic_text(path):
    """A UTF-8 text handle, written as is (no newline translation), whose
    content replaces ``path`` only when the block completes.

    It writes a temporary ``.gtlab-*`` file in the target directory, so the
    rename stays on one file system, and unlinks it if the block raises.
    The file is created with mode 0o666 less the umask, as ``open`` would
    create it.  An ``OSError`` creating or renaming the temporary file is
    raised for ``path``, the name the caller knows."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".gtlab-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    except BaseException:
        os.unlink(tmp)
        raise


def _save_csv(path: str, header: list, rows: list) -> None:
    with _atomic_text(path) as handle:
        _write_csv(handle, header, rows)


def _emit(args, header: list, rows: list) -> None:
    if args.out:
        _save_csv(args.out, header, rows)
    if args.fmt == "csv":
        _write_csv(sys.stdout, header, rows)
    else:
        widths = [
            max(len(str(h)), max((len(_cell(r[j])) for r in rows), default=0))
            for j, h in enumerate(header)
        ]
        print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(_cell(v).ljust(w) for v, w in zip(row, widths)))


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _run_bounds(args) -> int:
    noise, p = _channel_and_p(args)
    kinds = [args.kind] if args.kind != "both" else [ACHIEVABLE, FANO]
    rows = []
    for kind in kinds:
        fn = achievable_tests if kind == ACHIEVABLE else fano_lower_bound
        rows.extend(fn(args.N, args.K, p, noise).csv_rows())
    _emit(args, BOUND_CSV_HEADER, rows)
    if args.fmt == "table" and noise.kind == ADDITIVE and 0.0 < noise.q < 1.0:
        converse = additive_converse(args.N, args.K, noise.q)
        print(f"additive converse (order-of-growth): {converse:.6g} tests")
    return 0


def _run_estimate(args) -> int:
    noise, p = _channel_and_p(args)
    seed = _resolve_seed(args)
    alpha = _alpha(args)
    if args.profile and args.criterion != "avg":
        raise ParameterError("--profile applies only to --criterion avg")
    if args.criterion == "avg":
        est = estimate_average_error(args.N, args.K, args.T, p, noise, args.trials, seed)
    elif args.criterion == "partial":
        est = estimate_partial_error(args.N, args.K, args.T, p, noise, alpha, args.trials, seed)
    else:
        _check_trials(args.N, args.K, args.trials)  # before drawing N x T cells
        codebook = generate_codebook(args.N, args.T, p, seed)
        est = estimate_worstcase_error(codebook, args.K, noise, args.trials)
    if not args.profile:
        _emit(args, ESTIMATE_CSV_HEADER, [est.csv_row()])
        return 0
    # the profile splits the average's errors by miss distance: same trials, one pass
    average = dict(zip(ESTIMATE_CSV_HEADER, est.csv_row()))
    rows = [list(average.values()) + [""]]
    for i, errors_i in enumerate(est.miss_counts):
        row = {**average, "criterion": "profile", "errors": errors_i,
               "p_hat": errors_i / args.trials, "ci": ""}
        rows.append(list(row.values()) + [i])
    _emit(args, ESTIMATE_CSV_HEADER + ["i"], rows)
    return 0


def _run_sweep(args) -> int:
    noise, p = _channel_and_p(args)
    seed = _resolve_seed(args)
    alpha = _alpha(args)
    estimates = estimate_sweep(args.N, args.K, p, noise, _parse_t_grid(args.t_grid),
                               args.trials, seed, alpha)
    _emit(args, ESTIMATE_CSV_HEADER, [est.csv_row() for est in estimates])
    return 0


def _run_minimal_t(args) -> int:
    noise, p = _channel_and_p(args)
    seed = _resolve_seed(args)
    result = find_minimal_t(args.N, args.K, p, noise, args.target, args.trials,
                            _parse_t_grid(args.t_grid), seed)
    _emit(args, ESTIMATE_CSV_HEADER, [est.csv_row() for _, est in result.probed])
    if result.attained:
        print(f"t_star = {result.t_star} (resolution {result.resolution}, "
              f"{len(result.probed)} probes, target {result.target_error})")
    else:
        print(f"target {result.target_error} not attained on the grid "
              f"({len(result.probed)} probes)")
    return 0


def _run_accept(args) -> int:
    from . import acceptance

    numbers = _parse_criteria(args.criteria) if args.criteria is not None else None
    results = acceptance.run_criteria(numbers, log=print)
    if args.out:
        header = ["criterion", "name", "passed", "elapsed_s", "detail"]
        rows = [[r.number, r.name, r.passed, f"{r.elapsed:.2f}", r.detail] for r in results]
        _save_csv(args.out, header, rows)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtlab",
        description="Pooled-testing experiments: test-count bounds, Monte Carlo "
        "error estimates, sweeps, minimal-T search, and the acceptance suite.",
    )
    parser.add_argument("--version", action="version", version=f"gtlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, run, help, with_t=False):
        """A design subcommand: its handler, the channel, N, K, [T] and p."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--model", choices=[NOISE_FREE, ADDITIVE, DILUTION],
                       default=NOISE_FREE, help="test channel (default: noise-free)")
        p.add_argument("--q", type=float, default=None,
                       help="additive false-alarm probability (required with --model additive)")
        p.add_argument("--u", type=float, default=None,
                       help="dilution probability (required with --model dilution)")
        p.add_argument("-N", type=int, required=True, help="number of items")
        p.add_argument("-K", type=int, required=True, help="number of defectives")
        if with_t:
            p.add_argument("-T", type=int, required=True, help="number of tests")
        p.add_argument("--p", type=float, default=None,
                       help="per-entry inclusion probability (default: 1/K, or 0.5 when K=1)")
        return p

    def add_mc(p):
        p.add_argument("--trials", type=int, default=1000,
                       help="Monte Carlo trials (default: 1000)")
        p.add_argument("--seed", type=int, default=None,
                       help=f"master seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")

    def add_criterion(p, choices):
        p.add_argument("--criterion", choices=choices, default="avg",
                       help="error criterion (default: avg)")
        p.add_argument("--alpha", type=float, default=None,
                       help="allowed miss fraction for --criterion partial")

    b = add_command("bounds", _run_bounds, "achievable / Fano test-count bounds")
    b.add_argument("--kind", choices=[ACHIEVABLE, FANO, "both"], default=ACHIEVABLE,
                   help="which bound family to compute (default: achievable)")

    e = add_command("estimate", _run_estimate, "Monte Carlo error estimate at one configuration",
                    with_t=True)
    add_criterion(e, ["avg", "partial", "worst"])
    e.add_argument("--profile", action="store_true",
                   help="also report the per-overlap error profile (avg criterion only)")
    add_mc(e)

    s = add_command("sweep", _run_sweep, "error estimates across a T grid")
    s.add_argument("--t-grid", required=True, type=str,
                   help="T values as start:stop:step (stop inclusive when reached)")
    add_criterion(s, ["avg", "partial"])
    add_mc(s)

    m = add_command("minimal-t", _run_minimal_t, "smallest T meeting a target average error")
    m.add_argument("--target", type=float, required=True, help="target average error rate")
    m.add_argument("--t-grid", required=True, type=str,
                   help="initial probe grid as start:stop:step")
    add_mc(m)
    # the output flags come last in each design command's --help
    for p in (b, e, s, m):
        p.add_argument("--out", default=None, help="write results CSV to this path (default: none)")
        p.add_argument("--format", dest="fmt", choices=["csv", "table"], default="table",
                       help="stdout format (default: table)")

    a = sub.add_parser("accept", help="run the acceptance suite, print PASS/FAIL per criterion")
    a.set_defaults(run=_run_accept)
    a.add_argument("--criteria", type=str, default=None,
                   help="comma list of criterion numbers (default: all)")
    a.add_argument("--out", default=None, help="write a results CSV to this path (default: none)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser: parsing leaves no state in it, so it is built once."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
