"""List the functions and methods of the library that no run enters.

    python tools/reach.py [--check]

Stdlib only.  It records, through `sys.setprofile` call events, every
function and method defined under `src/algebroids` that is entered while
running:

* every corpus scenario at seeds 0 and 1, in text and JSON, through
  `algebroids.cli.main`;
* the `COMMANDS` of `tests/test_golden_cli.py`, in text and JSON;
* one pass of each generator of `perfbench/workloads.py` at seed 1, its
  set-up included; a verdict that raises still counts what it entered.

It prints the functions and methods never entered, sorted, one
`module.qualname` per line (the module relative to the package, as in
`symexpr.ScalarFn.__rsub__`).  A function is known by the file and first
line of its code, so nested functions count, and a decorated one is found
at its first decorator; lambdas and comprehensions are not listed.

With ``--check`` it then exits 1 unless the committed list
`tools/reach_unreached.txt`, which gives each name its reason, names
exactly the printed ones: it names, on stderr, each printed name the list
lacks, each listed name a run now enters and each listed name the library
no longer defines.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
from pathlib import Path
from typing import Callable, Iterable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "algebroids"
LISTED = ROOT / "tools" / "reach_unreached.txt"


def defined(package: Path = PACKAGE) -> dict[tuple[str, int], str]:
    """(file, first line) -> ``module.qualname`` of every function and
    method defined in the package's modules, nested ones included."""
    out: dict[tuple[str, int], str] = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, first)] = f"{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, path, prefix)

    for file in sorted(package.glob("*.py")):
        visit(ast.parse(file.read_text(), str(file)), str(file.resolve()), f"{file.stem}.")
    return out


def entered(run: Callable[[], object]) -> set[tuple[str, int]]:
    """(file, first line) of the code of every Python function entered
    while ``run()`` runs; the previous profile function is put back."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}


def sweep() -> None:
    """The runs listed in the module docstring, output discarded."""
    from algebroids.cli import corpus_scenarios, main
    from test_golden_cli import COMMANDS, FORMATS
    from workloads import GENERATORS

    with contextlib.redirect_stdout(io.StringIO()):
        for name in corpus_scenarios():
            for seed in (0, 1):
                for fmt in FORMATS:
                    main(["run", name, "--seed", str(seed), "--format", fmt])
        for argv in COMMANDS.values():
            for fmt in FORMATS:
                main(argv + ["--format", fmt])
    for generate in GENERATORS.values():
        for case in generate(1):
            # a verdict that raises (the sampled `rank` extension checks
            # can overflow) still entered what it reached
            with contextlib.suppress(Exception):
                case.call()


def unreached(run: Callable[[], object], package: Path = PACKAGE) -> list[str]:
    """The sorted names of the package's functions that ``run()`` never enters."""
    reached = entered(run)
    return sorted(name for key, name in defined(package).items() if key not in reached)


def listed(path: Path = LISTED) -> dict[str, str]:
    """name -> reason of a committed list: one ``name  # reason`` per line,
    blank lines and lines starting with ``#`` skipped."""
    out = {}
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition("#")
            out[name.strip()] = reason.strip()
    return out


def differences(names: Iterable[str], known: Iterable[str], library: Iterable[str]) -> list[str]:
    """One line per difference between the printed ``names`` and the
    listed ``known``: a printed name not listed, a listed name that a run
    enters, a listed name not in ``library`` (the defined names).  Empty
    iff the list names exactly what is printed."""
    printed, known, library = set(names), set(known), set(library)
    where = LISTED.relative_to(ROOT)
    return (
        [f"unreached and not listed in {where}: {name}" for name in sorted(printed - known)]
        + [f"reached now, remove it from {where}: {name}" for name in sorted((known - printed) & library)]
        + [f"no longer defined, remove it from {where}: {name}" for name in sorted(known - library)]
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="List the library functions no run enters.")
    parser.add_argument("--check", action="store_true", help=f"exit 1 unless {LISTED.relative_to(ROOT)} lists exactly these")
    check = parser.parse_args().check
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    names = unreached(sweep)
    for name in names:
        print(name)
    if check:
        problems = differences(names, listed(), defined().values())
        for line in problems:
            print(line, file=sys.stderr)
        sys.exit(1 if problems else 0)
