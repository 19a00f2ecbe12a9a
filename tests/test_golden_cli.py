"""Golden CLI output: stdout and exit code of the query subcommands.

The files under tests/golden_cli/ pin, byte for byte, what `algebroids
<subcommand>` prints in text and JSON format, followed by one trailer line
with its exit code.  Regenerate them (only when an output change is
intended, and say why in CHANGES.md) with:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from algebroids.cli import main

GOLDEN = Path(__file__).parent / "golden_cli"
FORMATS = ("text", "json")
# file stem -> argv (without --format)
COMMANDS = {
    "modular.cylinder.B": ["modular", "cylinder.scn", "B"],
    "modular.cylinder.TS1": ["modular", "cylinder.scn", "TS1"],
    "modular.submersion.B": ["modular", "submersion.scn", "B"],
    "relmod.cylinder.incl": ["relmod", "cylinder.scn", "incl"],
    "relmod.cylinder.iB": ["relmod", "cylinder.scn", "iB"],
    "relmod.submersion.prS": ["relmod", "submersion.scn", "prS"],
    "char.cylinder.D": ["char", "cylinder.scn", "D"],
    "char.cylinder.D.expx": ["char", "cylinder.scn", "D", "--section", "exp(x)"],
    "extension.extension_rank1.EXT": ["extension", "extension_rank1.scn", "EXT"],
    "extension.extension_so3.AFF": ["extension", "extension_so3.scn", "AFF"],
    "diagram.diagram_point.DIA": ["diagram", "diagram_point.scn", "DIA"],
    "validate.corrupted": ["validate", "corrupted.scn"],
    "pullback.cylinder.PB": ["pullback", "cylinder.scn", "PB"],
}
CASES = [(stem, fmt) for stem in COMMANDS for fmt in FORMATS]


def _output(stem: str, fmt: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(COMMANDS[stem] + ["--format", fmt])
    return f"{buf.getvalue()}[exit {code}]\n"


def _fname(stem: str, fmt: str) -> str:
    return f"{stem}.{fmt}.out"


def test_golden_cli_set_complete():
    want = {_fname(stem, fmt) for stem, fmt in CASES}
    assert {p.name for p in GOLDEN.iterdir()} == want


@pytest.mark.parametrize("stem,fmt", CASES)
def test_golden_cli_output(stem, fmt):
    assert _output(stem, fmt) == (GOLDEN / _fname(stem, fmt)).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, fmt in CASES:
        (GOLDEN / _fname(stem, fmt)).write_text(_output(stem, fmt))
    print(f"wrote {len(CASES)} files to {GOLDEN}")
