"""Command-line front end: bounds, estimates, sweeps, minimal-T search, acceptance.

Every emitted CSV row carries the full configuration that produced it
(including the seed and the package version), so any row can be
reproduced in isolation.  Files are written atomically (temp file then
rename), text is UTF-8 with LF line endings and '.' decimals.

Exit codes: 0 success, 1 acceptance criterion failed, 2 invalid
parameters, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
import tempfile
from dataclasses import dataclass

from . import __version__
from .bounds import (
    ACHIEVABLE,
    FANO,
    achievable_tests,
    additive_converse,
    bound_report_header,
    bound_report_rows,
    fano_lower_bound,
)
from .errors import CapacityError, ParameterError
from .model import ADDITIVE, DILUTION, NOISE_FREE, NoiseModel, _check_defectives, generate_codebook
from .montecarlo import (  # noqa: F401 (bench/probes.py wraps every estimator by name here)
    ESTIMATE_CSV_HEADER,
    empirical_pei_profile,
    estimate_average_error,
    estimate_partial_error,
    estimate_sweep,
    estimate_worstcase_error,
    find_minimal_t,
)

SEED_ENV_VAR = "GT_LAB_SEED"
DEFAULT_SEED = 1

_CRITERION_FLAGS = {"avg": "average", "worst": "worst-case", "partial": "partial"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated invocation: one command plus every knob it needs."""

    command: str
    n_items: int | None = None
    n_defectives: int | None = None
    n_tests: int | None = None
    p: float | None = None
    noise: NoiseModel | None = None
    criterion: str | None = None
    alpha: float | None = None
    trials: int | None = None
    seed: int | None = None
    t_grid: tuple[int, ...] | None = None
    target: float | None = None
    out: str | None = None
    fmt: str = "table"
    kind: str = ACHIEVABLE
    profile: bool = False
    criteria: tuple[int, ...] | None = None


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


def _resolve_noise(args) -> NoiseModel:
    if args.model == NOISE_FREE:
        if args.q is not None or args.u is not None:
            raise ParameterError("--model noise-free takes neither --q nor --u")
        return NoiseModel.noise_free()
    if args.model == ADDITIVE:
        if args.q is None:
            raise ParameterError("--model additive requires --q")
        if args.u is not None:
            raise ParameterError("--model additive takes --q, not --u")
        return NoiseModel.additive(args.q)
    if args.u is None:
        raise ParameterError("--model dilution requires --u")
    if args.q is not None:
        raise ParameterError("--model dilution takes --u, not --q")
    return NoiseModel.dilution(args.u)


def _resolve_p(args) -> float:
    if args.p is not None:
        return args.p
    # 1/K, except that K = 1 would degenerate to p = 1; 0.5 maximizes the
    # per-test information for a single defective
    return 0.5 if args.K == 1 else 1.0 / args.K


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtlab",
        description="Pooled-testing experiments: test-count bounds, Monte Carlo "
        "error estimates, sweeps, minimal-T search, and the acceptance suite.",
    )
    parser.add_argument("--version", action="version", version=f"gtlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p):
        p.add_argument("--model", choices=[NOISE_FREE, ADDITIVE, DILUTION],
                       default=NOISE_FREE, help="test channel (default: noise-free)")
        p.add_argument("--q", type=float, default=None,
                       help="additive false-alarm probability (required with --model additive)")
        p.add_argument("--u", type=float, default=None,
                       help="dilution probability (required with --model dilution)")

    def add_common(p, with_t=True):
        p.add_argument("-N", type=int, required=True, help="number of items")
        p.add_argument("-K", type=int, required=True, help="number of defectives")
        if with_t:
            p.add_argument("-T", type=int, required=True, help="number of tests")
        p.add_argument("--p", type=float, default=None,
                       help="per-entry inclusion probability (default: 1/K, or 0.5 when K=1)")

    def add_output(p):
        p.add_argument("--out", default=None, help="write results CSV to this path (default: none)")
        p.add_argument("--format", dest="fmt", choices=["csv", "table"], default="table",
                       help="stdout format (default: table)")

    def add_mc(p):
        p.add_argument("--trials", type=int, default=1000,
                       help="Monte Carlo trials (default: 1000)")
        p.add_argument("--seed", type=int, default=None,
                       help=f"master seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")

    b = sub.add_parser("bounds", help="achievable / Fano test-count bounds")
    add_model(b)
    add_common(b, with_t=False)
    b.add_argument("--kind", choices=[ACHIEVABLE, FANO, "both"], default=ACHIEVABLE,
                   help="which bound family to compute (default: achievable)")
    add_output(b)

    e = sub.add_parser("estimate", help="Monte Carlo error estimate at one configuration")
    add_model(e)
    add_common(e)
    e.add_argument("--criterion", choices=sorted(_CRITERION_FLAGS), default="avg",
                   help="error criterion (default: avg)")
    e.add_argument("--alpha", type=float, default=None,
                   help="allowed miss fraction for --criterion partial")
    e.add_argument("--profile", action="store_true",
                   help="also report the per-overlap error profile (avg criterion only)")
    add_mc(e)
    add_output(e)

    s = sub.add_parser("sweep", help="error estimates across a T grid")
    add_model(s)
    add_common(s, with_t=False)
    s.add_argument("--t-grid", required=True, type=str,
                   help="T values as start:stop:step (stop inclusive when reached)")
    s.add_argument("--criterion", choices=["avg", "partial"], default="avg",
                   help="error criterion (default: avg)")
    s.add_argument("--alpha", type=float, default=None,
                   help="allowed miss fraction for --criterion partial")
    add_mc(s)
    add_output(s)

    m = sub.add_parser("minimal-t", help="smallest T meeting a target average error")
    add_model(m)
    add_common(m, with_t=False)
    m.add_argument("--target", type=float, required=True, help="target average error rate")
    m.add_argument("--t-grid", required=True, type=str,
                   help="initial probe grid as start:stop:step")
    add_mc(m)
    add_output(m)

    a = sub.add_parser("accept", help="run the acceptance suite, print PASS/FAIL per criterion")
    a.add_argument("--criteria", type=str, default=None,
                   help="comma list of criterion numbers (default: all)")
    a.add_argument("--out", default=None, help="write a results CSV to this path (default: none)")
    return parser


def config_from_args(args) -> ExperimentConfig:
    if args.command == "accept":
        return ExperimentConfig(
            command="accept",
            criteria=_parse_criteria(args.criteria) if args.criteria else None,
            out=args.out,
        )
    noise = _resolve_noise(args)
    common = dict(
        command=args.command,
        n_items=args.N,
        n_defectives=args.K,
        p=_resolve_p(args),
        noise=noise,
        out=args.out,
        fmt=args.fmt,
    )
    _check_defectives(args.N, args.K)
    if args.command == "bounds":
        return ExperimentConfig(kind=args.kind, **common)
    common.update(trials=args.trials, seed=_resolve_seed(args))
    if args.command == "estimate":
        criterion = _CRITERION_FLAGS[args.criterion]
        if criterion == "partial" and args.alpha is None:
            raise ParameterError("--criterion partial requires --alpha")
        if args.profile and criterion != "average":
            raise ParameterError("--profile applies only to --criterion avg")
        return ExperimentConfig(
            n_tests=args.T, criterion=criterion, alpha=args.alpha, profile=args.profile, **common
        )
    if args.command == "sweep":
        criterion = _CRITERION_FLAGS[args.criterion]
        if criterion == "partial" and args.alpha is None:
            raise ParameterError("--criterion partial requires --alpha")
        return ExperimentConfig(
            t_grid=_parse_t_grid(args.t_grid), criterion=criterion, alpha=args.alpha, **common
        )
    return ExperimentConfig(t_grid=_parse_t_grid(args.t_grid), target=args.target, **common)


def _write_csv(path: str, header: list, rows: list) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".gtlab-", suffix=".csv", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header + ["version"])
            for row in rows:
                writer.writerow(list(row) + [__version__])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: ExperimentConfig, header: list, rows: list) -> None:
    if cfg.out:
        _write_csv(cfg.out, header, rows)
    if cfg.fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header + ["version"])
        for row in rows:
            writer.writerow(list(row) + [__version__])
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


def _run_bounds(cfg: ExperimentConfig) -> int:
    kinds = [cfg.kind] if cfg.kind != "both" else [ACHIEVABLE, FANO]
    rows = []
    for kind in kinds:
        fn = achievable_tests if kind == ACHIEVABLE else fano_lower_bound
        rows.extend(bound_report_rows(fn(cfg.n_items, cfg.n_defectives, cfg.p, cfg.noise)))
    _emit(cfg, bound_report_header(), rows)
    if cfg.fmt == "table" and cfg.noise.kind == ADDITIVE and 0.0 < cfg.noise.q < 1.0:
        converse = additive_converse(cfg.n_items, cfg.n_defectives, cfg.noise.q)
        print(f"additive converse (order-of-growth): {converse:.6g} tests")
    return 0


def _run_estimate(cfg: ExperimentConfig) -> int:
    if cfg.criterion == "average":
        est = estimate_average_error(
            cfg.n_items, cfg.n_defectives, cfg.n_tests, cfg.p, cfg.noise,
            cfg.trials, cfg.seed,
        )
    elif cfg.criterion == "partial":
        est = estimate_partial_error(
            cfg.n_items, cfg.n_defectives, cfg.n_tests, cfg.p, cfg.noise,
            cfg.alpha, cfg.trials, cfg.seed,
        )
    else:
        codebook = generate_codebook(cfg.n_items, cfg.n_tests, cfg.p, cfg.seed)
        est = estimate_worstcase_error(codebook, cfg.n_defectives, cfg.noise, cfg.trials)
    if cfg.profile:
        # the profile splits the average's errors by miss distance: same trials, one pass
        header = ESTIMATE_CSV_HEADER + ["i"]
        rows = [est.csv_row() + [""]]
        for i, errors_i in enumerate(est.miss_counts):
            row = est.csv_row()
            row[0] = "profile"
            row[9] = errors_i
            row[10] = errors_i / cfg.trials
            row[11] = ""
            rows.append(row + [i])
        _emit(cfg, header, rows)
    else:
        _emit(cfg, ESTIMATE_CSV_HEADER, [est.csv_row()])
    return 0


def _run_sweep(cfg: ExperimentConfig) -> int:
    estimates = estimate_sweep(
        cfg.n_items, cfg.n_defectives, cfg.p, cfg.noise, cfg.t_grid, cfg.trials, cfg.seed,
        cfg.alpha if cfg.criterion == "partial" else None,
    )
    _emit(cfg, ESTIMATE_CSV_HEADER, [est.csv_row() for est in estimates])
    return 0


def _run_minimal_t(cfg: ExperimentConfig) -> int:
    result = find_minimal_t(
        cfg.n_items, cfg.n_defectives, cfg.p, cfg.noise, cfg.target,
        cfg.trials, cfg.t_grid, cfg.seed,
    )
    rows = [est.csv_row() for _, est in result.probed]
    _emit(cfg, ESTIMATE_CSV_HEADER, rows)
    if result.attained:
        print(f"t_star = {result.t_star} (resolution {result.resolution}, "
              f"{len(result.probed)} probes, target {result.target_error})")
    else:
        print(f"target {result.target_error} not attained on the grid "
              f"({len(result.probed)} probes)")
    return 0


def _run_accept(cfg: ExperimentConfig) -> int:
    from . import acceptance

    results = acceptance.run_criteria(cfg.criteria, log=print)
    if cfg.out:
        header = ["criterion", "name", "passed", "elapsed_s", "detail"]
        rows = [[r.number, r.name, r.passed, f"{r.elapsed:.2f}", r.detail] for r in results]
        _write_csv(cfg.out, header, rows)
    return 0 if all(r.passed for r in results) else 1


def run(cfg: ExperimentConfig) -> int:
    handlers = {
        "bounds": _run_bounds,
        "estimate": _run_estimate,
        "sweep": _run_sweep,
        "minimal-t": _run_minimal_t,
        "accept": _run_accept,
    }
    return handlers[cfg.command](cfg)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser: parsing leaves no state in it, so it is built once."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        return run(cfg)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
