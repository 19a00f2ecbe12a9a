import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids import cohomology, extensions, runner
from algebroids import scenario
from algebroids.cli import corpus_scenarios, load_scenario, main
from algebroids.core import same_presentation
from algebroids.runner import Session, run
from algebroids.scenario import _ASSERTIONS, _STATEMENTS, ScenarioError, _strip_comments, parse_scenario
from algebroids.symexpr import exp

from conftest import count_modular_builds, frame_algebroids

README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"


CYL_SNIPPET = """
chart N { coords theta* x }
chart S1 { coords theta* }
algebroid TS1 tangent of S1
algebroid B on N { frame b ; anchor b = (1, x) }
morphism incl : TS1 -> B { base = (theta, 0) ; fiber = [[1]] }
assert morphism incl pass
assert equal relmod incl = form TS1 (-1)
"""

# two equal presentations, told apart by the section only A2 declares
TWIN_SNIPPET = """
chart R { coords x }
algebroid A on R { frame a ; anchor a = (1) }
algebroid A2 on R { frame a ; anchor a = (1) }
section A2 { omega = exp(x) }
morphism m : A -> A2 { base = (x) ; fiber = [[1]] }
assert equal relmod m = form A (-1)
assert equal modular A2 = form A2 (1)
"""


# every statement below follows BLOCK_PRELUDE; its error names a line of
# the statement, counted from 1
BLOCK_PRELUDE = """chart N { coords x }
chart S { coords theta* }
chart T { coords x y }
algebroid B on N { frame b ; anchor b = (1) }
algebroid TS tangent of S
bivector PI on T { comp [x, y] = 1 }
identity idB of B
rep D on B { bundle e }
extension EXT { kernel B ; total B ; quotient B ; incl = [[1]] ; proj = [[1]] }
"""

BLOCK_ERRORS = [
    pytest.param('chart M { foo x }', 1, "unknown chart field 'foo'", id='chart-field'),
    pytest.param(
        'algebroid A on N { anchor a = (1)\n  foo a }',
        2,
        "unknown algebroid field 'foo'",
        id='algebroid-field',
    ),
    pytest.param('section B { foo = 1 }', 1, "unknown section field 'foo'", id='section-field'),
    pytest.param(
        'section B {\n  omega = x ; mu = 1\n}', 1, "not a unit of the expression class: x", id='section-not-a-unit'
    ),
    pytest.param('rep R on B { foo e }', 1, "unknown rep field 'foo'", id='rep-field'),
    pytest.param(
        'morphism m : B -> B { foo = [[1]] }',
        1,
        "unknown morphism field 'foo'",
        id='morphism-field',
    ),
    pytest.param('pullback P of B from S { foo }', 1, "unknown pullback field 'foo'", id='pullback-field'),
    pytest.param('extension E { foo B }', 1, "unknown extension field 'foo'", id='extension-field'),
    pytest.param('bivector Q on T { foo }', 1, "unknown bivector field 'foo'", id='bivector-field'),
    pytest.param('poisson P { bivector PI ; foo = 1 }', 1, "unknown poisson field 'foo'", id='poisson-field'),
    pytest.param(
        'quotientdata Q { foo idB }',
        1,
        "unknown quotientdata field 'foo'",
        id='quotientdata-field',
    ),
    pytest.param('diagram G { foo B }', 1, "unknown diagram field 'foo'", id='diagram-field'),
    pytest.param(
        'bundlemap M over idB : D -> D { foo = [[1]] }',
        1,
        "unknown bundlemap field 'foo'",
        id='bundlemap-field',
    ),
    pytest.param('ansatz { foo 1 }', 1, "unknown ansatz field 'foo'", id='ansatz-field'),
    pytest.param(
        'morphism m : B -> B {\n  base = (x)\n}',
        3,
        "morphism 'm' is missing 'fiber'",
        id='morphism-fiber',
    ),
    pytest.param(
        'pullback P of B from S { names t }',
        1,
        "pullback 'P' is missing 'base'",
        id='pullback-base',
    ),
    pytest.param(
        'extension E { total B ; quotient B ; incl = [[1]] ; proj = [[1]] }',
        1,
        "extension 'E' is missing 'kernel'",
        id='extension-kernel',
    ),
    pytest.param(
        'extension E { kernel B ; quotient B }',
        1,
        "extension 'E' is missing 'total'",
        id='extension-total',
    ),
    pytest.param(
        'extension E { kernel B ; total B ; incl = [[1]] ; proj = [[1]] }',
        1,
        "extension 'E' is missing 'quotient'",
        id='extension-quotient',
    ),
    pytest.param(
        'extension E { kernel B ; total B ; quotient B ; proj = [[1]] }',
        1,
        "extension 'E' is missing 'incl'",
        id='extension-incl',
    ),
    pytest.param(
        'extension E {\n  kernel B\n  total B\n  quotient B\n  incl = [[1]]\n}',
        6,
        "extension 'E' is missing 'proj'",
        id='extension-proj',
    ),
    pytest.param('poisson P { }', 1, "poisson 'P' is missing 'bivector'", id='poisson-bivector'),
    pytest.param(
        'poisson P { bivector PI ; kernel = [] ; complement = [] }',
        1,
        "poisson 'P' is missing 'image'",
        id='poisson-image',
    ),
    pytest.param(
        'poisson P { bivector PI ; image = [] ; complement = [] }',
        1,
        "poisson 'P' is missing 'kernel'",
        id='poisson-kernel',
    ),
    pytest.param(
        'poisson P { bivector PI ; image = [] ; kernel = [] }',
        1,
        "poisson 'P' is missing 'complement'",
        id='poisson-complement',
    ),
    pytest.param(
        'quotientdata Q { extension EXT ; include idB }',
        1,
        "quotientdata 'Q' is missing 'phi'",
        id='quotientdata-phi',
    ),
    pytest.param(
        'quotientdata Q { phi idB ; include idB }',
        1,
        "quotientdata 'Q' is missing 'extension'",
        id='quotientdata-extension',
    ),
    pytest.param(
        'quotientdata Q { phi idB ; extension EXT }',
        1,
        "quotientdata 'Q' is missing 'include'",
        id='quotientdata-include',
    ),
    pytest.param(
        'bundlemap M over idB : D -> D { }',
        1,
        "bundlemap 'M' is missing 'matrix'",
        id='bundlemap-matrix',
    ),
    pytest.param('chart M { }', 1, "chart 'M' is missing 'coords'", id='chart-coords'),
    pytest.param(
        'extension E { incl = [[1]] }',
        1,
        "declare 'total' before 'incl'",
        id='total-before-matrices',
    ),
    pytest.param(
        'extension E { lambda = 1 }',
        1,
        "declare 'total' before 'lambda'",
        id='total-before-lambda',
    ),
    pytest.param('poisson P { image = [] }', 1, "declare 'bivector' before 'image'", id='bivector-first'),
    pytest.param(
        'quotientdata Q { complement = [] }',
        1,
        "declare 'include' before 'complement'",
        id='include-before-complement',
    ),
    pytest.param(
        'pullback P of B from S { base = (0) ; pair (1, 2) | (1) }',
        1,
        'pair shape must be (1 target coefficients | 1 vector components)',
        id='pair-shape',
    ),
    pytest.param(
        'algebroid A on N { frame a ; anchor a = (1, 2) }',
        1,
        "anchor for 'a' needs 1 components",
        id='anchor-length',
    ),
    pytest.param(
        'algebroid A on N { frame a ; anchor c = (1) }',
        1,
        "anchor references unknown frame section 'c'",
        id='anchor-unknown',
    ),
    pytest.param(
        'rep R on B { bundle e ; coeff b = [[1, 2]] }',
        1,
        "coeff matrix for 'b' must be 1x1",
        id='coeff-shape',
    ),
    pytest.param(
        'rep R on B { bundle e ; coeff q = [[1]] }',
        1,
        "rep references unknown frame section 'q'",
        id='coeff-unknown',
    ),
    pytest.param(
        'rep R on B {\n  bundle e\n  coeff q = [[1]]\n}',
        1,
        "rep references unknown frame section 'q'",
        id='coeff-unknown-lines',
    ),
    pytest.param(
        'bivector Q on T { comp [x, x] = 1 }',
        1,
        'bivector components need distinct coordinates',
        id='comp-equal',
    ),
    pytest.param(
        'bivector Q on T { comp [x, q] = 1 }',
        1,
        "chart 'T' has no coordinate 'q'",
        id='comp-unknown',
    ),
    pytest.param(
        'pullback P of B from S { mode whatever }',
        1,
        "unknown pull-back mode 'whatever'",
        id='pullback-mode',
    ),
    pytest.param(
        'morphism m : TS -> B { fiber = [[1]] }',
        1,
        'base map required between different charts',
        id='base-between-charts',
    ),
    pytest.param('ansatz { modes -1 }', 1, 'ansatz modes must be non-negative, got -1', id='ansatz-negative'),
    pytest.param(
        'algebroid A on N { frame a ; bracket [a, a] = q }',
        1,
        "unknown frame section 'q' in combination",
        id='combo-unknown',
    ),
    pytest.param(
        'algebroid A on N { frame a c ; bracket [a, c] = a + }',
        1,
        "empty term in combination 'a +'",
        id='combo-empty',
    ),
    pytest.param(
        'algebroid A on N { frame a c ; bracket [a, c] = (y)*a }',
        1,
        "in coefficient '(y)': chart 'N' has no coordinate 'y'",
        id='combo-coefficient',
    ),
    pytest.param(
        'algebroid A on N { frame a ; bracket [a, q] = a }',
        1,
        'bracket uses unknown frame names [a,q]',
        id='bracket-unknown',
    ),
    pytest.param(
        'algebroid A on N { frame a ; bracket [a, a] = a }',
        1,
        'bracket of a section with itself must be 0',
        id='bracket-self',
    ),
    pytest.param(
        'section B { omega = y }',
        1,
        "in expression 'y': chart 'N' has no coordinate 'y'",
        id='expression',
    ),
    pytest.param(
        'diagram G { objects TS ; arrow idB }',
        1,
        'arrow endpoints must match exactly one declared object; got none',
        id='arrow-endpoints',
    ),
    pytest.param(
        'algebroid A over N',
        1,
        "expected 'on', 'tangent' or 'zero', got 'over'",
        id='algebroid-kind',
    ),
    pytest.param('chart N { coords y }', 1, "duplicate chart 'N'", id='chart-duplicate'),
]


# a name is defined once, a field given once (a keyed field once per key),
# a product pull-back takes no other field, and a block is closed
GIVEN_ONCE = [
    pytest.param('algebroid B on N { frame c }', 1, "duplicate algebroid 'B'", id='algebroid'),
    pytest.param('algebroid B tangent of N', 1, "duplicate algebroid 'B'", id='tangent'),
    pytest.param('algebroid TS zero of S', 1, "duplicate algebroid 'TS'", id='zero'),
    pytest.param('cotangent B of PI', 1, "duplicate algebroid 'B'", id='cotangent'),
    pytest.param(
        'algebroid A on N { frame a ; anchor a = (1) }\nidentity i of A\n'
        'algebroid A on N { frame a ; anchor a = (x) }',
        3,
        "duplicate algebroid 'A'",
        id='algebroid-after-use',
    ),
    pytest.param('section B { omega = 1 }\nsection B { mu = 1 }', 2, "duplicate section 'B'", id='section'),
    pytest.param('rep D on B { bundle f }', 1, "duplicate rep 'D'", id='rep'),
    pytest.param('rep D = pullback D along idB', 1, "duplicate rep 'D'", id='rep-pullback'),
    pytest.param('morphism idB : B -> B { fiber = [[1]] }', 1, "duplicate morphism 'idB'", id='morphism'),
    pytest.param('identity idB of B', 1, "duplicate morphism 'idB'", id='identity'),
    pytest.param('composite idB = idB . idB', 1, "duplicate morphism 'idB'", id='composite'),
    pytest.param(
        'pullback P of B from N { mode product }\npullback P of B from N { mode product }',
        2,
        "duplicate pullframe 'P'",
        id='pullback',
    ),
    pytest.param(
        'extension EXT { kernel B ; total B ; quotient B ; incl = [[1]] ; proj = [[1]] }',
        1,
        "duplicate extension 'EXT'",
        id='extension',
    ),
    pytest.param('bivector PI on T { comp [x, y] = 2 }', 1, "duplicate bivector 'PI'", id='bivector'),
    pytest.param(
        'poisson P { bivector PI ; image = [] ; kernel = [] ; complement = [] }\n'
        'poisson P { bivector PI ; image = [] ; kernel = [] ; complement = [] }',
        2,
        "duplicate poisson 'P'",
        id='poisson',
    ),
    pytest.param(
        'quotientdata Q { phi idB ; extension EXT ; include idB }\n'
        'quotientdata Q { phi idB ; extension EXT ; include idB }',
        2,
        "duplicate quotientdata 'Q'",
        id='quotientdata',
    ),
    pytest.param(
        'diagram G { objects B }\ndiagram G { objects B }',
        2,
        "duplicate diagram 'G'",
        id='diagram',
    ),
    pytest.param(
        'bundlemap M over idB : D -> D { matrix = [[1]] }\nbundlemap M over idB : D -> D { matrix = [[1]] }',
        2,
        "duplicate bundlemap 'M'",
        id='bundlemap',
    ),
    pytest.param(
        'morphism m : B -> B { fiber = [[1]] ; fiber = [[2]] }',
        1,
        "morphism field 'fiber' given twice",
        id='fiber-twice',
    ),
    pytest.param('chart M { coords x ; coords y }', 1, "chart field 'coords' given twice", id='coords-twice'),
    pytest.param(
        'ansatz {\n  degree 2\n  degree 3\n}',
        3,
        "ansatz field 'degree' given twice",
        id='degree-twice',
    ),
    pytest.param(
        'algebroid A on N { frame a ; anchor a = (1)\n  anchor a = (x) }',
        2,
        "algebroid field 'anchor a' given twice",
        id='anchor-twice',
    ),
    pytest.param(
        'rep R on B { bundle e ; coeff b = [[1]] ; coeff b = [[x]] }',
        1,
        "rep field 'coeff b' given twice",
        id='coeff-twice',
    ),
    pytest.param(
        'algebroid A on N { frame a c ; bracket [a, c] = a ; bracket [c, a] = c }',
        1,
        "algebroid field 'bracket [a, c]' given twice",
        id='bracket-twice',
    ),
    pytest.param(
        'bivector Q on T { comp [x, y] = 1 ; comp [y, x] = x }',
        1,
        "bivector field 'comp [x, y]' given twice",
        id='comp-twice',
    ),
    pytest.param(
        'pullback P of B from N { mode product ; base = (x) ; pair (1) | (1) }',
        1,
        "pullback mode product takes no 'base'",
        id='product-with-base',
    ),
    pytest.param(
        'pullback P of B from N {\n  pair (1) | (1)\n  mode product\n}',
        4,
        "pullback mode product takes no 'pair'",
        id='product-after-pair',
    ),
    pytest.param('chart M { coords x', 1, 'chart block is not closed', id='unclosed'),
    pytest.param('algebroid A on N {\n  frame a', 1, 'algebroid block is not closed', id='unclosed-lines'),
]


def _block_error(text: str) -> str:
    """The error of `text` after BLOCK_PRELUDE, its line counted from the
    start of `text`."""
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(BLOCK_PRELUDE + text + "\n")
    line, message = str(exc.value).split(": ", 1)
    return f"line {int(line.split()[1]) - BLOCK_PRELUDE.count(chr(10))}: {message}"


@pytest.mark.parametrize("text, line, message", BLOCK_ERRORS)
def test_block_errors_keep_their_line_and_text(text, line, message):
    assert _block_error(text) == f"line {line}: {message}"


@pytest.mark.parametrize("text, line, message", GIVEN_ONCE)
def test_names_and_fields_are_given_once(text, line, message):
    assert _block_error(text) == f"line {line}: {message}"


@pytest.mark.parametrize(
    "coords, bad",
    [("*", ""), ("x**", "x*"), ("pi", "pi"), ("x/y", "x/y"), ("x y'", "y'")],
)
def test_chart_coordinates_are_names_the_grammar_reads(coords, bad):
    assert _block_error(f"chart M {{ coords {coords} }}") == (
        f"line 1: {bad!r} is not a coordinate name in chart 'M'"
    )


def _join_block_fields(text: str) -> str:
    """`text` without comments and with each newline between block fields
    replaced by ' ; ' (newlines inside () and [] are kept)."""
    out, braces, depth = [], 0, 0
    for ch in _strip_comments(text):
        braces += (ch == "{") - (ch == "}")
        depth += (ch in "([") - (ch in ")]")
        out.append(" ; " if ch == "\n" and braces and not depth else ch)
    return "".join(out)


@pytest.mark.parametrize("name", corpus_scenarios())
def test_fields_joined_by_semicolons_give_the_same_report(name):
    path = Path(scenario.__file__).parent / "corpus" / name
    joined = _join_block_fields(path.read_text())
    assert re.search(r"\{[^}]* ; [^}]*\}", joined)
    report = run(parse_scenario(joined, path.stem), seed=0)
    assert report.to_text() + "\n" == (GOLDEN / f"{path.stem}.seed0.txt").read_text()


def _algebroid_block(a, seps) -> str:
    """`a` as an `algebroid F` block on its chart; `seps[k]` comes before
    field k."""
    frame = a.frame
    fields = ["frame " + " ".join(frame)]
    fields += [f"anchor {f} = ({', '.join(map(str, row))})" for f, row in zip(frame, a.anchor)]
    for (i, j), combo in a.structure.items():
        terms = " + ".join(f"({c})*{frame[k]}" for k, c in combo.items())
        fields.append(f"bracket [{frame[i]}, {frame[j]}] = {terms or 0}")
    coords = " ".join(c + "*" * p for c, p in zip(a.chart.coords, a.chart.periodic))
    body = "".join(sep + field for sep, field in zip(seps, fields))
    return f"chart {a.chart.name} {{ coords {coords} }}\nalgebroid F on {a.chart.name} {{{body}\n}}\n"


@pytest.mark.deep
@settings(deadline=None)
@given(frame_algebroids(), st.lists(st.sampled_from([" ; ", "\n  "]), min_size=7, max_size=7))
def test_algebroid_block_round_trip(a, seps):
    # a ';' or a newline ends every field, bracket combinations included
    text = _algebroid_block(a, seps)
    assert same_presentation(parse_scenario(text).algebroids["F"], a), text


# one statement of each kind, after BLOCK_PRELUDE
EVERY_STATEMENT = """section B { omega = 1 ; mu = 1 }
morphism m : B -> B { base = (x) ; fiber = [[1]] }
composite mm = m . m
pullback P of B from S { base = (0) ; pair (1) | (0) ; names t }
cotangent CT of PI
poisson SP { bivector PI ; image = [] ; kernel = [] ; complement = [] ; lambda = 1 }
quotientdata Q { phi idB ; extension EXT ; include idB ; complement = [] }
diagram G { objects B ; arrow m ; compose m . m = m }
bundlemap M over idB : D -> D { matrix = [[1]] }
ansatz { degree 2 ; modes 2 }
assert axioms B pass
"""


class TestParsing:
    def test_empty_scenario(self):
        sc = parse_scenario("")
        assert sc.assertions == []
        assert sc.algebroids == {}

    def test_snippet_resolves(self):
        sc = parse_scenario(CYL_SNIPPET)
        assert set(sc.algebroids) == {"TS1", "B"}
        assert set(sc.morphisms) == {"incl"}
        assert len(sc.assertions) == 2

    def test_cylinder_corpus_resolves(self):
        sc = load_scenario("cylinder.scn")
        assert "B" in sc.algebroids and "TS1" in sc.algebroids
        assert "incl" in sc.morphisms
        assert len(sc.assertions) >= 4

    def test_unknown_symbol_diagnostic(self):
        bad = "chart N { coords x }\nalgebroid B on N { frame b ; anchor c = (1) }\n"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        assert "c" in str(exc.value)
        assert "line" in str(exc.value)

    def test_unknown_frame_in_bracket(self):
        bad = (
            "chart N { coords x }\n"
            "algebroid B on N { frame b ; bracket [b, q] = b }\n"
        )
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        assert "q" in str(exc.value)

    def test_negative_exponent_stays_in_its_term(self):
        # the minus of ^-1 is part of the coefficient, not a term sign
        sc = parse_scenario("chart N { coords x }\nalgebroid A on N { frame a b ; bracket [a, b] = exp(x)^-1*b }\n")
        x = sc.charts["N"].coord("x")
        assert sc.algebroids["A"].structure == {(0, 1): {1: exp(-x)}}

    def test_parse_error_has_line_number(self):
        bad = "chart N { coords x }\nalgebroid B on\n"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        assert "line 2" in str(exc.value) or "line 3" in str(exc.value)

    @pytest.mark.parametrize("field", ["degree -3", "modes -1"])
    def test_negative_ansatz_size_names_the_line(self, field):
        bad = f"chart N {{ coords x }}\nansatz {{ {field} }}\n"
        with pytest.raises(ScenarioError, match="line 2: ansatz .* must be non-negative"):
            parse_scenario(bad)

    def test_assertion_table_matches_handlers_and_readme(self):
        handlers = {n[len("_assert_"):] for n in dir(Session) if n.startswith("_assert_")}
        assert set(_ASSERTIONS) == handlers
        block = README.read_text().split("Assertions (", 1)[1].split("```", 2)[1]
        assert set(re.findall(r"\bassert (\w+)", block)) == set(_ASSERTIONS)

    def test_readme_shows_every_block_field(self, monkeypatch):
        accepted: dict[str, set] = {}
        block = scenario._block

        def recording(cur, line, what, fields, *rest):
            accepted.setdefault(what, set()).update(fields)
            return block(cur, line, what, fields, *rest)

        monkeypatch.setattr(scenario, "_block", recording)
        text = BLOCK_PRELUDE + EVERY_STATEMENT
        parse_scenario(text)
        assert set(re.findall(r"^\w+", text, re.M)) == set(_STATEMENTS)
        readme = README.read_text().split("## Scenario format", 1)[1].split("```", 2)[1]
        shown: dict[str, set] = {}
        for stmt in re.split(r"\n(?=\w)", _strip_comments(readme).strip()):
            shown.setdefault(stmt.split()[0], set()).update(re.findall(r"[\w/]+", stmt.partition("{")[2]))
        missing = {what: fields - shown.get(what, set()) for what, fields in accepted.items()}
        assert not any(missing.values()), missing

    def test_comments_and_semicolons(self):
        sc = parse_scenario(
            "# leading comment\nchart N { coords x }  # trailing\n"
            "algebroid B on N { frame b ; anchor b = (x) }\n"
        )
        assert sc.algebroids["B"].rank == 1


def load_text(name: str) -> str:
    """The text of a bundled corpus scenario."""
    return (Path(scenario.__file__).parent / "corpus" / name).read_text()


class TestRunner:
    def test_snippet_passes(self):
        sc = parse_scenario(CYL_SNIPPET, "snippet")
        report = run(sc, seed=3)
        assert report.passed
        assert len(report.results) == 2

    def test_failing_assertion_reported_not_raised(self):
        sc = parse_scenario(
            CYL_SNIPPET + "assert equal relmod incl = form TS1 (1)\n", "bad"
        )
        report = run(sc)
        assert not report.passed
        assert report.results[-1].verdict == "fail"
        assert "difference" in report.results[-1].detail

    def test_deterministic_reports(self):
        for name in ("cylinder.scn", "submersion.scn"):
            r1 = run(load_scenario(name), seed=7)
            r2 = run(load_scenario(name), seed=7)
            assert r1.to_json() == r2.to_json()
            assert r1.to_text() == r2.to_text()

    def test_poisson_kit_built_once_per_name(self, monkeypatch):
        built = []
        kit = runner.poisson_kit

        def counting_kit(pi, *args, **kwargs):
            built.append(pi)
            return kit(pi, *args, **kwargs)

        monkeypatch.setattr(runner, "poisson_kit", counting_kit)
        monkeypatch.setattr(extensions, "poisson_kit", counting_kit)
        sc = load_scenario("poisson_spiral.scn")
        report = run(sc, seed=0)
        assert report.passed
        assert len(built) == len(sc.poissons) == 1

    def test_extension_builds_its_adjoint_action_once(self, monkeypatch):
        # unimodular, identity and quotientdata all read the one extension
        built = []
        adjoint = extensions.adjoint_rep

        def counting(ext):
            built.append(ext)
            return adjoint(ext)

        monkeypatch.setattr(extensions, "adjoint_rep", counting)
        assert main(["run", "extension_rank1.scn"]) == 0
        assert len(built) == 1

    def test_pullback_built_once_per_name(self, monkeypatch):
        # cylinder.scn matches PB, factors through it, and matches PBID
        built = []
        build = runner.build_pullback

        def counting(pf, *args, **kwargs):
            built.append(pf)
            return build(pf, *args, **kwargs)

        monkeypatch.setattr(runner, "build_pullback", counting)
        sc = load_scenario("cylinder.scn")
        assert run(sc, seed=0).passed
        assert built == list(sc.pullframes.values())

    def test_product_pullback_built_once_per_algebroid_and_chart(self, monkeypatch):
        # submersion.scn asks ellphi of B from M twice, with other sections
        built = []
        build = runner.build_pullback

        def counting(pf, *args, **kwargs):
            built.append(pf)
            return build(pf, *args, **kwargs)

        monkeypatch.setattr(runner, "build_pullback", counting)
        assert main(["run", "submersion.scn"]) == 0
        assert len(built) == 4

    def test_named_product_pullback_is_the_product_one(self, monkeypatch):
        # normal_form.scn matches NF, declared { mode product }, then asks
        # ellphi of the same algebroid from the same chart
        built = []
        build = runner.build_pullback

        def counting(pf, *args, **kwargs):
            built.append(pf)
            return build(pf, *args, **kwargs)

        monkeypatch.setattr(runner, "build_pullback", counting)
        assert main(["run", "normal_form.scn"]) == 0
        assert len(built) == 1

    def test_sections_follow_the_algebroid_not_an_equal_one(self):
        # A and A2 are equal presentations; only A2 declares a section
        report = run(parse_scenario(TWIN_SNIPPET, "twins"))
        assert [r.verdict for r in report.results] == ["pass", "pass"]

    def test_canonical_trivializations_read_the_algebroids_cocycle(self, monkeypatch):
        # every session's canonical trivialization of A reads the one
        # cocycle A holds; A2's declared section is its own
        sc = parse_scenario(TWIN_SNIPPET, "twins")
        built = count_modular_builds(monkeypatch)
        session = Session(sc)
        a, a2 = sc.algebroid("A"), sc.algebroid("A2")
        assert session.trivialization(a2) is sc.sections["A2"]
        assert session.trivialization(a).modular is Session(sc).trivialization(a).modular is a.modular
        assert built == [a]

    def test_canonical_cocycle_is_built_once_per_algebroid(self, monkeypatch):
        # every query of cylinder.scn about B reads the one canonical
        # cocycle B holds
        built = count_modular_builds(monkeypatch)
        assert run(load_scenario("cylinder.scn"), seed=0).passed
        assert [a.name for a in built].count("B") == 1

    def test_diagram_arrows_tell_equal_objects_apart(self):
        text = TWIN_SNIPPET + "diagram D { objects A A2 ; arrow m }\nassert diagram D coboundary pass\n"
        report = run(parse_scenario(text, "twins"))
        assert [r.verdict for r in report.results] == ["pass", "pass", "pass"]

    def test_period_mean_zero_needs_a_periodic_pairing(self):
        # sin(theta) has mean 0; exp(theta) and theta have no mean at all
        text = "chart N { coords theta* x }\nalgebroid TN tangent of N\n" + "".join(
            f"assert period form TN ({f}, 0) combo (1, 0) coord theta mean 0\n"
            for f in ("sin(theta)", "exp(theta)", "theta")
        )
        report = run(parse_scenario(text, "periods"))
        assert [r.verdict for r in report.results] == ["pass", "fail", "fail"]
        assert report.results[1].detail == "inconclusive: pairing depends non-periodically on 'theta'; mean undefined"

    def test_inj_of_a_projection_that_is_no_chain_map_fails(self):
        # fiber t pulls -dtheta back to -t dtheta, which is not closed
        text = (
            "chart S1 { coords theta* }\nchart PS { coords theta* t }\n"
            "algebroid TS1 tangent of S1\nalgebroid TPS tangent of PS\n"
            "morphism pr : TPS -> TS1 { base = (theta) ; fiber = [[t, 0]] }\n"
            "assert inj pr form TS1 (-1) pass\n"
        )
        result = run(parse_scenario(text, "inj")).results[0]
        assert result.verdict == "fail"
        assert "pulled cocycle is closed" in result.detail

    def test_inj_decides_closedness_once(self, monkeypatch):
        # the two inj assertions of submersion.scn: classify's own
        # closedness test is the item, and d_A is taken only for the
        # descended primitive of cos(theta)
        counts = {"is_cocycle": 0, "d_A": 0}
        inside = []

        def counted(name):
            real = getattr(cohomology, name)

            def call(*args):
                counts[name] += bool(inside)
                return real(*args)

            return call

        def check(*args):
            inside.append(True)
            try:
                return injectivity(*args)
            finally:
                inside.pop()

        injectivity = runner.check_pullback_injectivity
        for name in counts:
            monkeypatch.setattr(cohomology, name, counted(name))
        monkeypatch.setattr(runner, "check_pullback_injectivity", check)
        assert main(["run", "submersion.scn"]) == 0
        assert counts == {"is_cocycle": 0, "d_A": 1}

    def test_composite_passes_through_the_object_itself(self):
        # m ends at A2, which equals A but is not it, so n . m does not compose
        text = TWIN_SNIPPET + "morphism n : A -> A { base = (x) ; fiber = [[1]] }\ncomposite c = n . m\n"
        with pytest.raises(ScenarioError, match=r"^line 10: composite c: m ends at 'A2', but n starts at 'A'$"):
            parse_scenario(text, "twins")

    def test_an_undecided_report_passes_only_under_unknown(self):
        # the ansatz decides neither class of the spiral's volume criterion
        text = load_text("poisson_spiral.scn") + "assert poisson SP pass\nassert poisson SP fail\n"
        results = run(parse_scenario(text, "spiral")).results
        label = "unimodular iff invariant transverse volume (in ansatz)"
        unknown, passing, failing = (r for r in results if r.kind == "poisson")
        assert (unknown.text, unknown.verdict) == ("poisson SP unknown", "pass")
        assert (passing.verdict, failing.verdict) == ("fail", "fail")
        for r in (unknown, passing, failing):
            assert r.detail == f"{label}: modular: nonexact_in_ansatz, transverse volume: nonexact_in_ansatz"

    def test_a_decided_outcome_fails_under_unknown(self):
        text = CYL_SNIPPET + "assert morphism incl unknown\nassert exact relmod incl unknown\n"
        results = run(parse_scenario(text, "decided")).results
        assert [r.verdict for r in results[2:]] == ["fail", "fail"]
        assert results[2].detail == "every check passed"
        assert results[3].detail.startswith("nonexact_certified; mean")

    @pytest.mark.parametrize(
        "arrows, source",
        [
            pytest.param("arrow pB", "TS1", id="no-arrow"),
            pytest.param("arrow pTS1 ; arrow pTS1b ; arrow pB", "TS1", id="two-arrows"),
        ],
    )
    def test_pointcoboundary_needs_one_arrow_to_the_point(self, arrows, source):
        text = load_text("diagram_point.scn") + (
            "morphism pTS1b : TS1 -> PT { base = () ; fiber = [] }\n"
            f"diagram D2 {{ objects TS1 B PT ; {arrows} }}\n"
            "assert diagram D2 pointcoboundary point PT pass\n"
        )
        result = run(parse_scenario(text, "points")).results[-1]
        assert result.verdict == "error"
        assert result.detail == f"DiagramError: need exactly one arrow {source} -> PT"

    def test_json_shape(self):
        report = run(parse_scenario(CYL_SNIPPET, "snippet"), seed=0)
        data = json.loads(report.to_json())
        assert data["passed"] is True
        assert data["results"][0]["verdict"] == "pass"
        assert data["results"][0]["line"] > 0


class TestCorpus:
    def test_corpus_listing(self):
        names = corpus_scenarios()
        assert "cylinder.scn" in names
        assert len(names) >= 10

    @pytest.mark.parametrize("name", corpus_scenarios())
    def test_every_corpus_scenario_passes(self, name):
        report = run(load_scenario(name), seed=0)
        failing = [r for r in report.results if r.verdict != "pass"]
        assert not failing, "\n".join(f"{r.text}: {r.detail}" for r in failing)


class TestCLI:
    def test_run_exit_codes(self, capsys):
        assert main(["run", "corrupted.scn"]) == 0
        capsys.readouterr()

    def test_validate(self, capsys):
        assert main(["validate", "isomorphism.scn"]) == 0
        out = capsys.readouterr().out
        assert "axioms" in out

    def test_modular_subcommand(self, capsys):
        assert main(["modular", "cylinder.scn", "B"]) == 0
        out = capsys.readouterr().out
        assert "modular_cocycle: b*" in out

    def test_oversized_ansatz_exits_2(self, capsys):
        # cylinder chart: (4 + 1) monomials times (2 * 5000 + 1) trig atoms
        code = main(["modular", "cylinder.scn", "B", "--fourier-modes", "5000"])
        out, err = capsys.readouterr()
        assert code == 2 and not out
        assert err.startswith("ansatz error: ") and "50005 basis functions" in err

    def test_relmod_subcommand(self, capsys):
        assert main(["relmod", "cylinder.scn", "incl"]) == 0
        out = capsys.readouterr().out
        assert "-1*theta*" in out.replace("dtheta", "theta*")
        assert "nonexact_certified" in out

    def test_char_subcommand(self, capsys):
        assert main(["char", "cylinder.scn", "D", "--section", "exp(x)"]) == 0
        out = capsys.readouterr().out
        assert "characteristic_cocycle" in out

    def test_pullback_subcommand(self, capsys):
        assert main(["pullback", "cylinder.scn", "PB", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["projection_passes"] is True
        assert data["rank"] == 1

    def test_extension_subcommand(self, capsys):
        assert main(["extension", "extension_rank1.scn", "EXT"]) == 0
        capsys.readouterr()

    def test_diagram_subcommand(self, capsys):
        assert main(["diagram", "diagram_point.scn", "DIA"]) == 0
        capsys.readouterr()

    def test_extension_aborted_identity_is_a_failing_block(self, capsys):
        assert main(["extension", "extension_so3.scn", "AFF", "--format", "json"]) == 1
        blocks = json.loads(capsys.readouterr().out)
        identity = [b for b in blocks if b["title"] == "extension modular identity"]
        assert len(identity) == 1 and identity[0]["passed"] is False
        assert "UnimodularityFailure" in identity[0]["items"][0]["detail"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["modular", "cylinder.scn", "B"],
            ["modular", "cylinder.scn", "TS1"],
            ["relmod", "cylinder.scn", "incl"],
            ["relmod", "cylinder.scn", "iB"],
            ["relmod", "submersion.scn", "prS"],
            ["char", "cylinder.scn", "D", "--section", "exp(x)"],
        ],
    )
    def test_cocycle_payload_fields_follow_status(self, capsys, argv):
        assert main(argv + ["--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert ("primitive" in data) == (data["status"] == "exact")
        assert ("certificate" in data) == (data["status"] == "nonexact_certified")

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "corrupted.scn", "--seed", "1"],
            ["modular", "cylinder.scn", "B", "--seed", "1"],
            ["relmod", "cylinder.scn", "incl", "--seed", "1"],
            ["char", "cylinder.scn", "D", "--seed", "1"],
            ["diagram", "diagram_point.scn", "DIA", "--ansatz-degree", "2"],
            ["pullback", "cylinder.scn", "PB", "--fourier-modes", "2"],
        ],
    )
    def test_unread_flags_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit):
            main(argv)
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--ansatz-degree", "--fourier-modes"])
    def test_negative_ansatz_size_flag_exits_2(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["char", "cylinder.scn", "D", flag, "-1"])
        assert exc.value.code == 2
        assert "must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, line",
        [
            ("chart T { coords x y }\nbivector PI on T {\n  comp [x, q] = 1\n}\n", 3),
            ("chart N { coords x }\nalgebroid B on N { frame b b }\n", 2),
            ("chart N { coords x }\nalgebroid B on N {\n  frame b b\n}\n", 2),
            (
                "chart N { coords x }\nalgebroid B on N { frame b ; anchor b = (1) }\n"
                "morphism m : Q -> B { fiber = [[1]] }\n",
                3,
            ),
            (
                "chart N { coords theta* }\nalgebroid B on N { frame b ; anchor b = (1) }\n"
                "assert period form B (1) combo (1/0) coord theta mean 1\n",
                3,
            ),
            (
                "chart N { coords theta* }\nalgebroid B on N { frame b ; anchor b = (1) }\n"
                "assert period form B (1) combo (1/2/3) coord theta mean 1\n",
                3,
            ),
            (
                "chart N { coords theta* x }\nchart S1 { coords theta* }\n"
                "algebroid B on N { frame b ; anchor b = (1, x) }\n"
                "pullback PB of B from S1 { mode whatever ; base = (theta, 0) }\n",
                4,
            ),
            (
                "chart N { coords x }\nalgebroid B on N { frame b ; anchor b = (1) }\n"
                "assert flat Q pass\n",
                3,
            ),
            (
                "chart N { coords x }\nassert exact modular Q yes\n"
                "algebroid B on N { frame b ; anchor b = (1) }\n",
                2,
            ),
            (
                "chart N { coords x }\nalgebroid B on N { frame b ; anchor b = (1) }\n"
                "assert equal zero B =\n  pull m zero B\n",
                4,
            ),
            (
                "chart N { coords x }\nalgebroid B on N { frame b ; anchor b = (1) }\n"
                "section B { omega = x ; mu = 1 }\nassert axioms B pass\n",
                3,
            ),
        ],
        ids=[
            "unknown-coordinate",
            "duplicate-frame",
            "duplicate-frame-block",
            "unknown-algebroid",
            "zero-denominator",
            "malformed-number",
            "pullback-mode",
            "assertion-unknown-rep",
            "spec-unknown-algebroid",
            "spec-unknown-morphism",
            "section-not-a-unit",
        ],
    )
    def test_parse_errors_exit_2_with_their_line(self, capsys, tmp_path, text, line):
        path = tmp_path / "bad.scn"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"scenario error: line {line}: ")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_assertion_names_resolve_once_the_file_is_read(self, capsys, tmp_path):
        # an assertion may name what a later statement defines; a name no
        # statement defines is a parse error at its line, before any verdict
        good = "chart N { coords x }\nassert axioms B pass\nalgebroid B on N { frame b ; anchor b = (1) }\n"
        assert len(parse_scenario(good).assertions) == 1
        path = tmp_path / "bad.scn"
        path.write_text(good + "assert flat Q pass\n")
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "scenario error: line 4: unknown rep 'Q'\n" and captured.out == ""

    def test_missing_scenario(self, capsys):
        assert main(["run", "no_such_file.scn"]) == 2
        capsys.readouterr()

    def test_json_run_deterministic(self, capsys):
        main(["run", "isomorphism.scn", "--format", "json", "--seed", "5"])
        out1 = capsys.readouterr().out
        main(["run", "isomorphism.scn", "--format", "json", "--seed", "5"])
        out2 = capsys.readouterr().out
        assert out1 == out2
