"""Output bytes of small fixed-seed CLI commands, pinned in ``tests/golden``.

Each command's stdout and ``--out`` CSV must equal the stored files byte for
byte, so a change that claims unchanged outputs is checked, not asserted.

After a deliberate, declared change of output bytes, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import io
import pathlib
import sys
from contextlib import redirect_stdout

import pytest

from gtlab.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

COMMANDS = {
    "additive-bounds": ["bounds", "--model", "additive", "--q", "0.1", "-N", "1000", "-K", "5",
                        "--kind", "both"],
    "dilution-bounds-small": ["bounds", "--model", "dilution", "--u", "0.3", "-N", "6", "-K", "4",
                              "--kind", "both"],
    "saturated-bounds": ["bounds", "--model", "additive", "--q", "1", "-N", "64", "-K", "2",
                         "--kind", "both", "--format", "csv"],
    "dilution-estimate": ["estimate", "--model", "dilution", "--u", "0.3", "-N", "24", "-K", "4",
                          "-T", "70", "--trials", "1000", "--seed", "7", "--format", "csv"],
    "dilution-profile": ["estimate", "--model", "dilution", "--u", "0.2", "-N", "24", "-K", "4",
                         "-T", "30", "--trials", "300", "--seed", "3", "--profile"],
    "dilution-worst": ["estimate", "--model", "dilution", "--u", "0.2", "-N", "12", "-K", "2",
                       "-T", "24", "--criterion", "worst", "--trials", "3", "--seed", "5"],
    "additive-sweep": ["sweep", "--model", "additive", "--q", "0.3", "-N", "32", "-K", "2",
                       "--t-grid", "10:130:15", "--trials", "200", "--seed", "2"],
    "noise-free-minimal-t": ["minimal-t", "--model", "noise-free", "-N", "32", "-K", "2",
                             "--target", "0.1", "--t-grid", "8:48:8", "--trials", "400",
                             "--seed", "4"],
    "noise-free-partial": ["estimate", "-N", "24", "-K", "4", "-T", "16", "--criterion", "partial",
                           "--alpha", "0.5", "--trials", "300", "--seed", "6"],
}


def run_command(name, out):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(COMMANDS[name] + ["--out", str(out)])
    assert code == 0
    return buffer.getvalue().encode("utf-8"), out.read_bytes()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_bytes_match_the_golden_files(name, tmp_path):
    stdout, table = run_command(name, tmp_path / "out.csv")
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    assert table == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for command in sorted(COMMANDS):
        stdout, table = run_command(command, GOLDEN / f"{command}.csv")
        (GOLDEN / f"{command}.stdout").write_bytes(stdout)
        print(command, file=sys.stderr)
