"""Command-line front end over scenario files.

    algebroids run SCENARIO           run every assertion, exit 0 iff all pass
    algebroids validate SCENARIO      axiom/flatness/morphism reports
    algebroids modular SCENARIO ALG   modular cocycle for the declared section
    algebroids relmod SCENARIO MORPH  relative modular cocycle + exactness
    algebroids pullback SCENARIO PB   build a declared pull-back frame
    algebroids char SCENARIO REP      characteristic cocycle of a line rep
    algebroids extension SCENARIO EXT extension reports
    algebroids diagram SCENARIO DIA   diagram validation and coboundary check

Every subcommand that needs a cocycle, a trivialization, an ansatz or a
pull-back asks a `runner.Session`, the same object the assertions of `run`
go through; `modular`, `relmod` and `char` share one payload.  Each
subcommand accepts only the flags it reads: `--seed` where something is
sampled (`run` and `extension`, through `check_extension`: every other
check is exact or undecided), and `--ansatz-degree`/`--fourier-modes`
where an ansatz is built.

A report subcommand (`validate`, `extension`, `diagram`) marks each item
`ok`, `FAIL` or `??` (undecided, `null` in JSON) and exits 1 unless every
report passes: an undecided report exits 1 too.

Scenario files bundled with the package (see the corpus directory) can be
named by bare filename; local paths take precedence.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .cohomology import AnsatzTooLarge
from .core import check_axioms
from .diagrams import verify_mod_coboundary
from .extensions import check_extension
from .morphisms import check_morphism
from .report import CheckReport
from .reps import check_flat
from .runner import Session, run
from .scenario import Scenario, ScenarioError, parse_scenario
from .symexpr import parse_expr


def load_scenario(path: str) -> Scenario:
    p = Path(path)
    if p.exists():
        return parse_scenario(p.read_text(), p.stem)
    candidate = resources.files("algebroids").joinpath("corpus", path)
    if candidate.is_file():
        return parse_scenario(candidate.read_text(), Path(path).stem)
    raise ScenarioError(f"scenario file not found: {path}")


def corpus_scenarios() -> list[str]:
    root = resources.files("algebroids").joinpath("corpus")
    return sorted(f.name for f in root.iterdir() if f.name.endswith(".scn"))


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for key, value in payload.items():
            if isinstance(value, list):
                print(f"{key}:")
                for item in value:
                    print(f"  {item}")
            else:
                print(f"{key}: {value}")


def _emit_reports(blocks: list, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps([b.to_dict() for b in blocks], sort_keys=True, indent=2))
    else:
        for b in blocks:
            print(b.pretty())
    return 0 if all(b.passed for b in blocks) else 1


def _session(args) -> Session:
    """Load the scenario with the ansatz overrides applied, at `--seed` where
    the subcommand reads one."""
    sc = load_scenario(args.scenario)
    if args.ansatz_degree is not None:
        sc.ansatz_degree = args.ansatz_degree
    if args.fourier_modes is not None:
        sc.ansatz_modes = args.fourier_modes
    return Session(sc, getattr(args, "seed", 0))


def _cmd_run(args) -> int:
    session = _session(args)
    report = run(session.sc, seed=session.seed, timings=args.timings)
    print(report.to_json() if args.format == "json" else report.to_text())
    return 0 if report.passed else 1


def _cmd_validate(args) -> int:
    sc = load_scenario(args.scenario)
    blocks = [check_axioms(a) for a in sc.algebroids.values()]
    blocks += [check_flat(d) for d in sc.reps.values()]
    blocks += [check_morphism(phi) for phi in sc.morphisms.values()]
    return _emit_reports(blocks, args.format)


# subcommand -> (key of the object name, key of the cocycle) in its payload
_COCYCLE_KEYS = {
    "modular": ("algebroid", "modular_cocycle"),
    "relmod": ("morphism", "relative_modular_cocycle"),
    "char": ("representation", "characteristic_cocycle"),
}


def _cmd_cocycle(args) -> int:
    session = _session(args)
    spec = {"kind": args.command, "name": args.name}
    if args.command == "char":
        spec["section"] = parse_expr(args.section, session.sc.reps[args.name].chart)
    alpha = session.cocycle(spec)
    cls = session.classify(alpha)
    name_key, cocycle_key = _COCYCLE_KEYS[args.command]
    payload = {name_key: args.name, cocycle_key: str(alpha), "status": cls.status}
    if cls.holds:
        payload["primitive"] = str(cls.evidence)
    elif cls.holds is False:
        payload["certificate"] = f"nonzero mean {cls.evidence.mean} along {cls.evidence.coord}"
    _emit(payload, args.format)
    return 0


def _cmd_pullback(args) -> int:
    built = Session(load_scenario(args.scenario)).pullback(args.name)
    pres = built.presentation
    payload = {
        "pullback": args.name,
        "rank": pres.rank,
        "frame": list(pres.frame),
        "anchor": [[str(f) for f in row] for row in pres.anchor],
        "structure": {
            f"[{pres.frame[i]},{pres.frame[j]}]": {
                pres.frame[k]: str(f) for k, f in comps.items()
            }
            for (i, j), comps in pres.structure.items()
        },
        "projection_passes": check_morphism(built.projection).passed,
        "axioms_pass": check_axioms(pres).passed,
    }
    _emit(payload, args.format)
    return 0


def _cmd_extension(args) -> int:
    session = _session(args)
    blocks = [check_extension(session.sc.extensions[args.name], seed=session.seed)]
    try:
        blocks.append(session.extension_identity(args.name))
    except Exception as e:
        aborted = CheckReport("extension modular identity")
        aborted.add("identity verification", False, f"{type(e).__name__}: {e}")
        blocks.append(aborted)
    return _emit_reports(blocks, args.format)


def _cmd_diagram(args) -> int:
    session = Session(load_scenario(args.scenario))
    dia = session.sc.diagrams[args.name]
    blocks = [dia.validate(), verify_mod_coboundary(dia, session.sections(dia))]
    return _emit_reports(blocks, args.format)


def _cmd_corpus(args) -> int:
    for name in corpus_scenarios():
        print(name)
    return 0


# name, handler, help of the object-name argument (None: no such argument), help
_SUBCOMMANDS = [
    ("run", _cmd_run, None, "run every assertion in the scenario"),
    ("validate", _cmd_validate, None, "axiom/flatness/morphism reports"),
    ("modular", _cmd_cocycle, "algebroid name", "modular cocycle of an algebroid"),
    ("relmod", _cmd_cocycle, "morphism name", "relative modular cocycle of a morphism"),
    ("pullback", _cmd_pullback, "pullback name", "build a declared pull-back"),
    ("char", _cmd_cocycle, "representation name", "characteristic cocycle of a line representation"),
    ("extension", _cmd_extension, "extension name", "extension validation and identity"),
    ("diagram", _cmd_diagram, "diagram name", "diagram validation and coboundary check"),
]
# the subcommands that read --seed, and those that read the ansatz overrides
_SEEDED = {"run", "extension"}
_ANSATZ = {"run", "modular", "relmod", "char", "extension"}


def ansatz_size(text: str) -> int:
    """An ansatz size: a non-negative int."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algebroids",
        description="Exact verification of Lie algebroid identities from scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for command, func, name_help, help_ in _SUBCOMMANDS:
        p = parsers[command] = sub.add_parser(command, help=help_)
        p.add_argument("scenario", help="scenario file (path or corpus name)")
        if name_help:
            p.add_argument("name", help=name_help)
        if command in _SEEDED:
            p.add_argument("--seed", type=int, default=0)
        if command in _ANSATZ:
            p.add_argument("--ansatz-degree", type=ansatz_size, default=None)
            p.add_argument("--fourier-modes", type=ansatz_size, default=None)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)
    parsers["run"].add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock timings (breaks byte-for-byte determinism)",
    )
    parsers["char"].add_argument(
        "--section", default="1", help="trivializing section coefficient"
    )
    p = sub.add_parser("corpus", help="list bundled scenario files")
    p.set_defaults(func=_cmd_corpus)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return 2
    except KeyError as e:
        print(f"unknown object: {e}", file=sys.stderr)
        return 2
    except AnsatzTooLarge as e:
        print(f"ansatz error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
