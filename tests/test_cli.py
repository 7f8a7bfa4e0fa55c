import csv
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import gtlab
import gtlab.montecarlo
from gtlab import __version__
import gtlab.cli
from gtlab.cli import build_parser, main

from helpers import record_reads


def run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_bounds_csv_shape(tmp_path):
    out = tmp_path / "bounds.csv"
    code, _ = run_cli(["bounds", "--model", "noise-free", "-N", "1000", "-K", "5",
                       "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    header, body = rows[0], rows[1:]
    assert header == ["kind", "N", "K", "p", "channel", "param", "i",
                      "numerator_bits", "mi_bits", "ratio_tests", "version"]
    assert len(body) == 6  # five per-i rows plus the i = -1 summary
    assert [r[6] for r in body] == ["1", "2", "3", "4", "5", "-1"]
    assert all(r[-1] == __version__ for r in body)
    # default p is recorded explicitly
    assert all(r[3] == "0.2" for r in body)


def test_bounds_both_kinds(tmp_path):
    out = tmp_path / "bounds.csv"
    code, _ = run_cli(["bounds", "--model", "dilution", "--u", "0.2", "-N", "50",
                       "-K", "3", "--kind", "both", "--out", str(out)])
    assert code == 0
    body = read_rows(out)[1:]
    assert [r[0] for r in body].count("achievable") == 4
    assert [r[0] for r in body].count("fano") == 4


def test_estimate_rerun_is_byte_identical(tmp_path):
    args = ["estimate", "--model", "additive", "--q", "0.2", "-N", "40", "-K", "2",
            "-T", "120", "--trials", "200", "--seed", "1"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(first)])[0] == 0
    assert run_cli(args + ["--out", str(second)])[0] == 0
    assert first.read_bytes() == second.read_bytes()
    assert b"\r" not in first.read_bytes()


def test_estimate_stdout_csv():
    code, text = run_cli(["estimate", "--model", "noise-free", "-N", "12", "-K", "2",
                          "-T", "30", "--trials", "50", "--seed", "2", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][:4] == ["criterion", "N", "K", "T"]
    assert rows[1][0] == "average"


def test_profile_adds_an_i_column(tmp_path):
    out = tmp_path / "profile.csv"
    code, _ = run_cli(["estimate", "--model", "noise-free", "-N", "12", "-K", "2",
                       "-T", "6", "--trials", "100", "--seed", "2", "--profile",
                       "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert rows[0][-2:] == ["i", "version"]
    body = rows[1:]
    assert body[0][0] == "average"
    profile_rows = [r for r in body if r[0] == "profile"]
    assert [r[-2] for r in profile_rows] == ["0", "1", "2"]
    # profile error counts sum to the average error count
    assert sum(int(r[9]) for r in profile_rows) == int(body[0][9])


def test_profile_decodes_each_trial_once(monkeypatch):
    """The profile is read off the estimate's one pass: no trial is decoded
    twice, and --profile decodes exactly the trials the plain estimate
    decodes, every trial on both channels.  The grouped scan decodes every
    trial handed to it, once, and ``ml_decode`` none."""
    handed = record_reads(monkeypatch)
    decoded, scanned = [], []
    decode, decode_pools = gtlab.montecarlo.ml_decode, gtlab.montecarlo._decode_pools

    def counting_decode(codebook, *args, **kwargs):
        decoded.append(codebook.seed)
        return decode(codebook, *args, **kwargs)

    def counting_decode_pools(words, outcomes, *args):
        scanned.append(len(outcomes))
        return decode_pools(words, outcomes, *args)

    monkeypatch.setattr(gtlab.montecarlo, "ml_decode", counting_decode)
    monkeypatch.setattr(gtlab.montecarlo, "_decode_pools", counting_decode_pools)
    for model in ([], ["--model", "dilution", "--u", "0.3"]):
        argv = ["estimate", *model, "-N", "12", "-K", "2", "-T", "6", "--trials", "40",
                "--seed", "2", "--format", "csv"]
        handed.clear(), decoded.clear(), scanned.clear()
        code, text = run_cli(argv + ["--profile"])
        assert code == 0
        profiled = list(handed), list(decoded), list(scanned)
        handed.clear(), decoded.clear(), scanned.clear()
        assert run_cli(argv)[0] == 0
        assert profiled == (handed, decoded, scanned) and len(set(handed)) == len(handed)
        assert sum(scanned) == len(handed) == 40 and not decoded
        rows = list(csv.reader(io.StringIO(text)))[1:]
        assert sum(int(r[9]) for r in rows if r[0] == "profile") == int(rows[0][9])


def test_sweep_emits_one_row_per_t(tmp_path):
    out = tmp_path / "sweep.csv"
    code, _ = run_cli(["sweep", "--model", "noise-free", "-N", "12", "-K", "2",
                       "--t-grid", "5:25:5", "--trials", "50", "--seed", "4",
                       "--out", str(out)])
    assert code == 0
    body = read_rows(out)[1:]
    assert [r[3] for r in body] == ["5", "10", "15", "20", "25"]


def test_minimal_t_reports_star(tmp_path):
    out = tmp_path / "mt.csv"
    code, text = run_cli(["minimal-t", "--model", "noise-free", "-N", "16", "-K", "1",
                          "--target", "0.2", "--t-grid", "1:40:6", "--trials", "100",
                          "--seed", "3", "--out", str(out)])
    assert code == 0
    assert "t_star = " in text
    assert len(read_rows(out)) >= 2


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("GT_LAB_SEED", "777")
    out = tmp_path / "est.csv"
    code, _ = run_cli(["estimate", "--model", "noise-free", "-N", "10", "-K", "1",
                       "-T", "20", "--trials", "20", "--out", str(out)])
    assert code == 0
    assert read_rows(out)[1][12] == "777"


def test_non_integer_seed_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("GT_LAB_SEED", "1.5")
    assert main(["estimate", "-N", "8", "-K", "2", "-T", "6", "--trials", "2"]) == 2
    assert capsys.readouterr().err == "error: GT_LAB_SEED must be an integer, got '1.5'\n"


def test_minimal_t_reports_an_unattained_target():
    code, text = run_cli(["minimal-t", "-N", "8", "-K", "2", "--target", "0", "--t-grid", "1:2:1",
                          "--trials", "50"])
    assert code == 0
    assert text.endswith("target 0.0 not attained on the grid (2 probes)\n")


VALIDATION_ERRORS = [
    (["estimate", "--model", "additive", "-N", "10", "-K", "2", "-T", "5", "--trials", "5"],
     "additive channel carries exactly the parameter q"),
    (["estimate", "--model", "additive", "--q", "0.2", "--u", "0.1", "-N", "10", "-K", "2",
      "-T", "5", "--trials", "5"],
     "additive channel carries exactly the parameter q"),
    (["estimate", "--model", "noise-free", "--q", "0.2", "-N", "10", "-K", "2", "-T", "5",
      "--trials", "5"],
     "noise-free channel carries no parameter"),
    (["estimate", "--model", "noise-free", "-N", "10", "-K", "12", "-T", "5", "--trials", "5"],
     "need 1 <= K < N, got N=10, K=12"),
    (["estimate", "--model", "noise-free", "-N", "10", "-K", "2", "-T", "5", "--trials", "5",
      "--criterion", "partial"],
     "--criterion partial requires --alpha"),
    (["sweep", "--model", "noise-free", "-N", "10", "-K", "2", "--t-grid", "5:1:2",
      "--trials", "5"],
     "--t-grid must satisfy start >= 0, stop >= start, step > 0, got '5:1:2'"),
    (["bounds", "--model", "additive", "--q", "1.5", "-N", "10", "-K", "2"],
     "additive q must lie in [0, 1], got 1.5"),
    (["accept", "--criteria", "11"], "no acceptance criterion numbered 11"),
    (["estimate", "-N", "8", "-K", "2", "-T", "6", "--trials", "2", "--seed", "-1"],
     "master_seed must be an unsigned 64-bit integer, got -1"),
    (["minimal-t", "-N", "8", "-K", "2", "--target", "0.1", "--t-grid", "2:6:2",
      "--trials", "2", "--seed", str(2**64 + 1)],
     f"master_seed must be an unsigned 64-bit integer, got {2**64 + 1}"),
    (["estimate", "-N", "8", "-K", "2", "-T", "6", "--trials", "2", "--alpha", "0.5"],
     "--alpha applies only to --criterion partial"),
    (["sweep", "-N", "8", "-K", "2", "--t-grid", "2:6:2", "--trials", "2", "--alpha", "0.5"],
     "--alpha applies only to --criterion partial"),
    # every criterion names the trial count as the command line does
    (["estimate", "-N", "8", "-K", "2", "-T", "6", "--criterion", "worst", "--trials", "0"],
     "trials must be >= 1, got 0"),
    # the codebooks and the bounds share one domain for p
    (["estimate", "-N", "8", "-K", "2", "-T", "6", "--trials", "3", "--p", "1"],
     "inclusion probability p must lie strictly inside (0, 1), got 1.0"),
    (["bounds", "-N", "8", "-K", "2", "--p", "1"],
     "inclusion probability p must lie strictly inside (0, 1), got 1.0"),
    # an empty list is not the absent flag
    (["accept", "--criteria", ""], "--criteria must be a comma list of integers, got ''"),
    (["sweep", "-N", "8", "-K", "2", "--t-grid", "1:2", "--trials", "2"],
     "--t-grid must be start:stop:step, got '1:2'"),
    (["sweep", "-N", "8", "-K", "2", "--t-grid", "a:b:c", "--trials", "2"],
     "--t-grid fields must be integers, got 'a:b:c'"),
    (["estimate", "-N", "8", "-K", "2", "-T", "6", "--trials", "2", "--criterion", "partial",
      "--alpha", "0.5", "--profile"],
     "--profile applies only to --criterion avg"),
]


# numbered ids, which stay put as cases are appended
@pytest.mark.parametrize("argv, message", VALIDATION_ERRORS,
                         ids=[f"argv{i}" for i in range(len(VALIDATION_ERRORS))])
def test_validation_errors_exit_2(argv, message, capsys, tmp_path):
    # an --out file that already exists is left byte-identical, with no temporary file
    out = tmp_path / "kept.csv"
    out.write_bytes(b"old,contents\n")
    for args in (argv, argv + ["--out", str(out)]):
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert out.read_bytes() == b"old,contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]


def test_worst_case_checks_trials_and_budget_before_drawing(monkeypatch, capsys):
    """A bad trial count or an enumeration above the budget exits before
    the codebook is drawn: at N = 20000 and T = 640 that is 12.8 M cells."""
    drawn = []
    monkeypatch.setattr(gtlab.cli, "generate_codebook", lambda *args: drawn.append(args))
    worst = ["estimate", "-N", "20000", "-K", "2", "-T", "640", "--criterion", "worst"]
    assert main(worst + ["--trials", "1"]) == 3
    assert capsys.readouterr().err == ("error: enumerating the 199990000 2-sets of 20000 "
                                       "items exceeds the budget of 100000000\n")
    assert main(worst + ["--trials", "0"]) == 2
    assert capsys.readouterr().err == "error: trials must be >= 1, got 0\n"
    assert drawn == []


@pytest.mark.parametrize("criterion", ["avg", "worst"])
def test_zero_tests_estimate_under_both_criteria(criterion):
    # no tests carry no information: every decode ties, so every trial errs
    code, text = run_cli(["estimate", "-N", "8", "-K", "2", "-T", "0", "--criterion", criterion,
                          "--trials", "5", "--format", "csv"])
    assert code == 0
    header, row = list(csv.reader(io.StringIO(text)))
    assert row[header.index("T")] == "0"
    assert row[header.index("p_hat")] == "1.0"


def test_capacity_errors_exit_3():
    assert main(["estimate", "--model", "noise-free", "-N", "80", "-K", "9", "-T", "5",
                 "--trials", "5"]) == 3


def test_help_lists_every_flag():
    parser = build_parser()
    text = ""
    for name, sub in parser._subparsers._group_actions[0].choices.items():
        text += sub.format_help()
    for flag in ("--model", "--q", "--u", "-N", "-K", "-T", "--p", "--alpha",
                 "--criterion", "--trials", "--seed", "--t-grid", "--target",
                 "--out", "--format", "--kind", "--criteria", "--profile"):
        assert flag in text, flag
    assert "--threads" not in text  # trials run in the calling thread
    # defaults are spelled out
    assert "default: noise-free" in text
    assert "default: 1/K" in text


def test_readme_library_example_runs():
    # the README's python block, run as it stands, so it names no missing function
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    with redirect_stdout(io.StringIO()) as printed:
        exec(blocks[0], {})
    assert len(printed.getvalue().splitlines()) == 2


SESSION = [
    ["estimate", "--model", "additive", "--q", "0.1", "-N", "12", "-K", "2", "-T", "20",
     "--trials", "30", "--seed", "5", "--format", "csv"],
    ["bounds", "-N", "64", "-K", "2", "--format", "csv"],
    ["estimate", "-N", "12", "-K", "2", "-T", "20", "--trials", "30", "--profile"],
    ["minimal-t", "--model", "dilution", "--u", "0.2", "-N", "12", "-K", "2",
     "--target", "0.2", "--t-grid", "4:40:12", "--trials", "30"],
    ["estimate", "--model", "additive", "-N", "12", "-K", "2", "-T", "20"],
    ["sweep", "-N", "12", "-K", "2", "--t-grid", "5:15:5", "--trials", "20",
     "--criterion", "partial", "--alpha", "0.5"],
    ["bounds", "--model", "dilution", "--u", "0.3", "-N", "64", "-K", "2", "--kind", "both"],
]


def test_one_parser_serves_a_session_of_subcommands(monkeypatch):
    """main parses with one parser per process; back-to-back subcommands
    parse and print as they do with a fresh parser each."""
    assert gtlab.cli._parser() is gtlab.cli._parser()
    for argv in SESSION:
        assert vars(gtlab.cli._parser().parse_args(argv)) == vars(build_parser().parse_args(argv))
    shared = [run_cli(argv) for argv in SESSION]
    assert shared[4][0] == 2  # --model additive without --q
    monkeypatch.setattr(gtlab.cli, "_parser", build_parser)
    assert [run_cli(argv) for argv in SESSION] == shared


@pytest.mark.parametrize("module", ["gtlab", "gtlab.cli"])
def test_module_entry_points_run_main(module):
    src = os.path.dirname(os.path.dirname(os.path.abspath(gtlab.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["bounds", "-N", "64", "-K", "2", "--kind", "both"]
    proc = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(argv)[1]
    bad = subprocess.run([sys.executable, "-m", module, "bounds", "-N", "2", "-K", "2"],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert bad.returncode == 2 and "error:" in bad.stderr


LEAN_IMPORT_SCRIPT = """
import contextlib, io, sys
import gtlab, gtlab.cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["estimate", "-N", "8", "-K", "2", "-T", "6", "--trials", "2", "--profile"],
                 ["estimate", "-N", "8", "-K", "2", "-T", "6", "--trials", "2",
                  "--criterion", "partial", "--alpha", "0.5"],
                 ["estimate", "-N", "8", "-K", "2", "-T", "6", "--trials", "2",
                  "--criterion", "worst"],
                 ["sweep", "-N", "8", "-K", "2", "--t-grid", "2:10:4", "--trials", "2"],
                 ["minimal-t", "-N", "8", "-K", "2", "--target", "0.5", "--t-grid", "2:10:4",
                  "--trials", "2"],
                 ["bounds", "--model", "additive", "--q", "0.1", "-N", "64", "-K", "2"],
                 ["bounds", "--model", "dilution", "--u", "0.2", "-N", "64", "-K", "4",
                  "--kind", "both"]):
        assert gtlab.cli.main(argv) == 0, argv
loaded = sorted(name for name in sys.modules
                if name.startswith("scipy") or name.startswith("numpy.random"))
assert not loaded, loaded
"""


def test_commands_load_neither_scipy_nor_numpy_random():
    # every command in a fresh interpreter: this test process has imported
    # both for the tests' oracles
    src = os.path.dirname(os.path.dirname(os.path.abspath(gtlab.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LEAN_IMPORT_SCRIPT], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


def test_accept_subset_runs():
    code, text = run_cli(["accept", "--criteria", "1"])
    assert code == 0
    assert "PASS" in text and "criterion  1" in text


def test_accept_fails_a_raising_criterion_and_runs_the_rest(monkeypatch):
    from gtlab import acceptance

    def unattained():
        raise AssertionError("target 0.1 unattained for N=64 K=2 dilution(0.25)")

    def passing():
        return True, "ok"

    monkeypatch.setattr(acceptance, "CRITERIA",
                        [(90, "raises", unattained), (91, "passes", passing)])
    code, text = run_cli(["accept", "--criteria", "90,91"])
    assert code == 1
    assert "FAIL  criterion 90  raises: target 0.1 unattained for N=64 K=2 dilution(0.25)" in text
    assert "PASS  criterion 91  passes: ok" in text


def test_accept_checks_every_number_before_running_any(monkeypatch):
    from gtlab import acceptance

    ran = []

    def passing():
        ran.append(90)
        return True, "ok"

    monkeypatch.setattr(acceptance, "CRITERIA", [(90, "passes", passing)])
    assert main(["accept", "--criteria", "90,11"]) == 2
    assert not ran


@pytest.mark.parametrize("argv", [["bounds", "-N", "64", "-K", "2", "--out", "{tmp}/missing/b.csv"],
                                  ["accept", "--criteria", "90", "--out", "{tmp}/results"]],
                         ids=["missing-directory", "onto-a-directory"])
def test_unwritable_out_exits_2(argv, monkeypatch, tmp_path, capsys):
    from gtlab import acceptance

    monkeypatch.setattr(acceptance, "CRITERIA", [(90, "passes", lambda: (True, "ok"))])
    (tmp_path / "results").mkdir()
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(argv[-1]) in err and ".gtlab-" not in err  # the path given, not the temporary file
    assert [path.name for path in tmp_path.rglob("*")] == ["results"]
