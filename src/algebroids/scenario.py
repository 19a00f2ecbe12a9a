"""Declarative scenario files: charts, presentations, maps, assertions.

A scenario is a sequence of block statements; expressions use the scalar
expression grammar.  Definitions must precede use.  Example:

    chart N { coords theta* x }
    algebroid B on N { frame b ; anchor b = (1, x) }
    morphism incl : TS1 -> B { base = (theta, 0) ; fiber = [[1]] }
    assert modular B = (1)

`_ASSERTIONS` is the assertion grammar: one entry per kind, listing its
fields in order.  The names an assertion refers to are looked up once the
whole file is read (a name it needs to parse an expression, at once), so
a name no statement defines fails the parse, not the run.  Errors carry the source line number; an error the library
raises while a statement builds its objects carries the line where that
statement starts.  The
parsed scenario is purely declarative; execution lives in the runner.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .core import (
    AlgebroidError,
    AlgebroidPresentation,
    Multivector,
    tangent_algebroid,
    top_form,
    top_multivector,
    zero_algebroid,
)
from .diagrams import Diagram, DiagramError
from .extensions import ExtensionError, ExtensionPresentation, cotangent_algebroid
from .morphisms import Morphism, MorphismError, Trivialization, compose, identity_morphism
from .pullback import PullbackError, PullbackFrame, PullbackFramePair, product_submersion_frame
from .reps import LineSection, Representation, RepresentationError, canonical_sections
from .symexpr import Chart, ScalarFn, SymExprError, parse_expr


class ScenarioError(Exception):
    pass


@dataclass
class Assertion:
    kind: str
    args: dict
    line: int
    text: str


@dataclass
class PoissonData:
    bivector: Multivector
    image: list[list[ScalarFn]]
    kernel: list[list[ScalarFn]]
    complement: list[list[ScalarFn]]
    lam: ScalarFn


@dataclass
class BundleMapData:
    over: Morphism
    source_rep: Representation
    target_rep: Representation
    matrix: list[list[ScalarFn]]


@dataclass
class QuotientData:
    phi: Morphism
    extension: ExtensionPresentation
    include: Morphism
    complement: list[list[ScalarFn]]


@dataclass
class Scenario:
    name: str = "scenario"
    charts: dict = field(default_factory=dict)
    algebroids: dict = field(default_factory=dict)
    sections: dict = field(default_factory=dict)
    reps: dict = field(default_factory=dict)
    morphisms: dict = field(default_factory=dict)
    pullframes: dict = field(default_factory=dict)
    extensions: dict = field(default_factory=dict)
    extension_mu: dict = field(default_factory=dict)
    bivectors: dict = field(default_factory=dict)
    poissons: dict = field(default_factory=dict)
    quotientdata: dict = field(default_factory=dict)
    diagrams: dict = field(default_factory=dict)
    bundlemaps: dict = field(default_factory=dict)
    ansatz_degree: int = 4
    ansatz_modes: int = 4
    assertions: list = field(default_factory=list)

    def algebroid(self, name: str) -> AlgebroidPresentation:
        if name not in self.algebroids:
            raise ScenarioError(f"unknown algebroid {name!r}")
        return self.algebroids[name]

    def section(self, name: str) -> Trivialization:
        if name in self.sections:
            return self.sections[name]
        return Trivialization(*canonical_sections(self.algebroid(name)))


def _strip_comments(text: str) -> str:
    """Replace comment spans with spaces so offsets and lines survive."""
    out = []
    in_comment = False
    for ch in text:
        if ch == "\n":
            in_comment = False
            out.append(ch)
        elif ch == "#":
            in_comment = True
            out.append(" ")
        else:
            out.append(" " if in_comment else ch)
    return "".join(out)


_WORD_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/*'^!")


class _Cursor:
    def __init__(self, text: str):
        self.text = _strip_comments(text)
        self.pos = 0
        # (line, table, name) of every name read by `ref`
        self.refs: list[tuple[int, str, str]] = []

    def line(self, pos: Optional[int] = None) -> int:
        p = self.pos if pos is None else pos
        return self.text.count("\n", 0, p) + 1

    def error(self, msg: str) -> ScenarioError:
        return ScenarioError(f"line {self.line()}: {msg}")

    def skip_ws(self) -> None:
        # ';' is a separator: whitespace between fields, a terminator inside
        # expression scans (which never call skip_ws mid-scan)
        while self.pos < len(self.text) and (
            self.text[self.pos].isspace() or self.text[self.pos] == ";"
        ):
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek_char(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, sym: str) -> bool:
        self.skip_ws()
        if self.text.startswith(sym, self.pos):
            self.pos += len(sym)
            return True
        return False

    def expect(self, sym: str) -> None:
        if not self.take(sym):
            got = self.text[self.pos : self.pos + 10]
            raise self.error(f"expected {sym!r}, got {got!r}")

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _WORD_CHARS:
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        return self.text[start : self.pos]

    def ref(self, table: str) -> str:
        """A name that must name an entry of the scenario table ``table``;
        it is looked up once the whole file is read, so it may come before
        its definition."""
        name = self.word()
        self.refs.append((self.line(self.pos - len(name)), table, name))
        return name

    def peek_word(self) -> str:
        save = self.pos
        try:
            w = self.word()
        except ScenarioError:
            self.pos = save
            return ""
        self.pos = save
        return w

    def int_value(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])

    def until(self, stops: str) -> str:
        """Raw text up to a top-level stop character (not consumed)."""
        self.skip_ws()
        depth = 0
        start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in "([":
                depth += 1
            elif ch in ")]":
                if depth == 0 and ch in stops:
                    break
                depth -= 1
            elif depth == 0 and ch in stops:
                break
            self.pos += 1
        return self.text[start : self.pos].strip()

    def words(self, *fields: str) -> list[str]:
        """Names up to '}' or the next of the field keywords `fields`."""
        out = []
        while self.peek_char() not in "}" and self.peek_word() not in fields:
            out.append(self.word())
        return out


def _expr(cur: _Cursor, chart: Chart, stops: str) -> ScalarFn:
    raw = cur.until(stops)
    try:
        return parse_expr(raw, chart)
    except SymExprError as e:
        raise cur.error(f"in expression {raw!r}: {e}") from e


def _expr_tuple(cur: _Cursor, chart: Chart) -> list[ScalarFn]:
    cur.expect("(")
    out = []
    if cur.take(")"):
        return out
    while True:
        out.append(_expr(cur, chart, ",)"))
        if cur.take(")"):
            return out
        cur.expect(",")


def _matrix(cur: _Cursor, chart: Chart) -> list[list[ScalarFn]]:
    cur.expect("[")
    rows = []
    if cur.take("]"):
        return rows
    while True:
        cur.expect("[")
        row = []
        if not cur.take("]"):
            while True:
                row.append(_expr(cur, chart, ",]"))
                if cur.take("]"):
                    break
                cur.expect(",")
        rows.append(row)
        if cur.take("]"):
            return rows
        cur.expect(",")


def _combo(cur: _Cursor, chart: Chart, frame: tuple, stops: str) -> dict[int, ScalarFn]:
    """Sum of coefficient*framename terms (or 0)."""
    raw = cur.until(stops)
    if raw.strip() == "0":
        return {}
    out: dict[int, ScalarFn] = {}
    # split at top-level +/-
    terms = []
    depth = 0
    start = 0
    sign = 1
    i = 0
    text = raw
    while i < len(text):
        ch = text[i]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif depth == 0 and ch in "+-" and i > start:
            terms.append((sign, text[start:i].strip()))
            sign = 1 if ch == "+" else -1
            start = i + 1
        elif depth == 0 and ch == "-" and i == start:
            sign = -sign
            start = i + 1
        i += 1
    terms.append((sign, text[start:].strip()))
    for sgn, term in terms:
        if not term:
            raise cur.error(f"empty term in combination {raw!r}")
        # frame name is the last top-level '*'-factor
        depth = 0
        split = -1
        for j, ch in enumerate(term):
            if ch in "([":
                depth += 1
            elif ch in ")]":
                depth -= 1
            elif ch == "*" and depth == 0:
                split = j
        if split < 0:
            coeff_text, fname = "1", term.strip()
        else:
            coeff_text, fname = term[:split].strip(), term[split + 1 :].strip()
        if fname not in frame:
            raise cur.error(f"unknown frame section {fname!r} in combination")
        idx = frame.index(fname)
        try:
            coeff = parse_expr(coeff_text, chart) * (1 if sgn > 0 else -1)
        except SymExprError as e:
            raise cur.error(f"in coefficient {coeff_text!r}: {e}") from e
        out[idx] = out.get(idx, chart.zero()) + coeff
    return {k: v for k, v in out.items() if not v.is_zero()}


# what the library raises on an ill-formed object: reported with the line
# where the statement that built it starts
_LIBRARY_ERRORS = (
    AlgebroidError,
    DiagramError,
    ExtensionError,
    MorphismError,
    PullbackError,
    RepresentationError,
    SymExprError,
)


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    cur = _Cursor(text)
    sc = Scenario(name=name)
    while not cur.at_end():
        stmt_line = cur.line()
        word = cur.word()
        handler = _STATEMENTS.get(word)
        if handler is None:
            raise cur.error(f"unknown statement {word!r}")
        try:
            handler(cur, sc, stmt_line)
        except _LIBRARY_ERRORS as e:
            raise ScenarioError(f"line {stmt_line}: {e}") from e
    for line, table, name in cur.refs:
        if name not in getattr(sc, table):
            raise ScenarioError(f"line {line}: unknown {table.rstrip('s')} {name!r}")
    return sc


def _need(sc: Scenario, table: str, name: str, cur: _Cursor):
    """The named entry of a scenario table, which must already be defined."""
    d = getattr(sc, table)
    if name not in d:
        raise cur.error(f"unknown {table.rstrip('s')} {name!r}")
    return d[name]


def _stmt_chart(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    cur.expect("{")
    cur.expect("coords")
    coords, periodic = [], []
    while not cur.take("}"):
        w = cur.word()
        if w.endswith("*"):
            coords.append(w[:-1])
            periodic.append(True)
        else:
            coords.append(w)
            periodic.append(False)
    if name in sc.charts:
        raise cur.error(f"duplicate chart {name!r}")
    sc.charts[name] = Chart(name, tuple(coords), tuple(periodic))


def _stmt_algebroid(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    kind = cur.word()
    if kind == "on":
        chart = _need(sc, "charts", cur.word(), cur)
        cur.expect("{")
        frame: list[str] = []
        anchor: dict[str, list[ScalarFn]] = {}
        brackets: list[tuple[str, str, dict[int, ScalarFn]]] = []
        while not cur.take("}"):
            key = cur.word()
            if key == "frame":
                frame += cur.words("anchor", "bracket")
            elif key == "anchor":
                fname = cur.word()
                cur.expect("=")
                anchor[fname] = _expr_tuple(cur, chart)
            elif key == "bracket":
                cur.expect("[")
                f1 = cur.word()
                cur.expect(",")
                f2 = cur.word()
                cur.expect("]")
                cur.expect("=")
                combo = _combo(cur, chart, tuple(frame), "\n}")
                brackets.append((f1, f2, combo))
            else:
                raise cur.error(f"unknown algebroid field {key!r}")
        for fname in anchor:
            if fname not in frame:
                raise cur.error(f"anchor references unknown frame section {fname!r}")
        rows = []
        for f in frame:
            row = anchor.get(f, [chart.zero()] * chart.dim)
            if len(row) != chart.dim:
                raise cur.error(f"anchor for {f!r} needs {chart.dim} components")
            rows.append(row)
        structure: dict[tuple[int, int], dict[int, ScalarFn]] = {}
        for f1, f2, combo in brackets:
            if f1 not in frame or f2 not in frame:
                raise cur.error(f"bracket uses unknown frame names [{f1},{f2}]")
            i, j = frame.index(f1), frame.index(f2)
            if i == j:
                if combo:
                    raise cur.error("bracket of a section with itself must be 0")
                continue
            if i > j:
                i, j = j, i
                combo = {k: -v for k, v in combo.items()}
            structure[(i, j)] = combo
        sc.algebroids[name] = AlgebroidPresentation(
            name, chart, tuple(frame), rows, structure
        )
        return
    if kind == "tangent":
        cur.expect("of")
        chart = _need(sc, "charts", cur.word(), cur)
        sc.algebroids[name] = tangent_algebroid(chart, name)
        return
    if kind == "zero":
        cur.expect("of")
        chart = _need(sc, "charts", cur.word(), cur)
        sc.algebroids[name] = zero_algebroid(chart, name)
        return
    raise cur.error(f"expected 'on', 'tangent' or 'zero', got {kind!r}")


def _stmt_section(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    a = _need(sc, "algebroids", name, cur)
    cur.expect("{")
    omega = a.chart.one()
    mu = a.chart.one()
    while not cur.take("}"):
        key = cur.word()
        cur.expect("=")
        if key == "omega":
            omega = _expr(cur, a.chart, ";\n}")
        elif key == "mu":
            mu = _expr(cur, a.chart, ";\n}")
        else:
            raise cur.error(f"unknown section field {key!r}")
        cur.take(";")
    sc.sections[name] = Trivialization(
        top_multivector(a, omega), top_form(tangent_algebroid(a.chart), mu)
    )


def _stmt_rep(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    if cur.take("="):
        kind = cur.word()
        if kind != "pullback":
            raise cur.error("expected 'pullback' in computed representation")
        repname = cur.word()
        cur.expect("along")
        morphname = cur.word()
        from .morphisms import pullback_rep

        d = _need(sc, "reps", repname, cur)
        phi = _need(sc, "morphisms", morphname, cur)
        sc.reps[name] = pullback_rep(phi, d, name)
        return
    cur.expect("on")
    a = _need(sc, "algebroids", cur.word(), cur)
    cur.expect("{")
    bundle: list[str] = []
    coeffs: dict[str, list[list[ScalarFn]]] = {}
    while not cur.take("}"):
        key = cur.word()
        if key == "bundle":
            bundle += cur.words("coeff")
        elif key == "coeff":
            fname = cur.word()
            cur.expect("=")
            coeffs[fname] = _matrix(cur, a.chart)
        else:
            raise cur.error(f"unknown rep field {key!r}")
    m = len(bundle)
    zero = a.chart.zero()
    mats = []
    for f in a.frame:
        mat = coeffs.get(f, [[zero] * m for _ in range(m)])
        if len(mat) != m or any(len(r) != m for r in mat):
            raise cur.error(f"coeff matrix for {f!r} must be {m}x{m}")
        mats.append(mat)
    sc.reps[name] = Representation(a, tuple(bundle), mats, name)


def _stmt_morphism(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    cur.expect(":")
    src = _need(sc, "algebroids", cur.word(), cur)
    cur.expect("->")
    tgt = _need(sc, "algebroids", cur.word(), cur)
    cur.expect("{")
    basemap: Optional[list[ScalarFn]] = None
    fiber: Optional[list[list[ScalarFn]]] = None
    while not cur.take("}"):
        key = cur.word()
        cur.expect("=")
        if key == "base":
            basemap = _expr_tuple(cur, src.chart)
        elif key == "fiber":
            fiber = _matrix(cur, src.chart)
        else:
            raise cur.error(f"unknown morphism field {key!r}")
        cur.take(";")
    if basemap is None:
        if src.chart != tgt.chart:
            raise cur.error("base map required between different charts")
        basemap = [src.chart.coord(c) for c in src.chart.coords]
    if fiber is None:
        raise cur.error("morphism needs a fiber matrix")
    sc.morphisms[name] = Morphism(name, src, tgt, basemap, fiber)


def _stmt_identity(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    cur.expect("of")
    a = _need(sc, "algebroids", cur.word(), cur)
    sc.morphisms[name] = identity_morphism(a, name)


def _stmt_composite(cur: _Cursor, sc: Scenario, line: int) -> None:
    # composite NAME = SECOND . FIRST
    name = cur.word()
    cur.expect("=")
    second = _need(sc, "morphisms", cur.word(), cur)
    cur.expect(".")
    first = _need(sc, "morphisms", cur.word(), cur)
    sc.morphisms[name] = compose(second, first, name)


def _stmt_pullback(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    cur.expect("of")
    b = _need(sc, "algebroids", cur.word(), cur)
    cur.expect("from")
    chart = _need(sc, "charts", cur.word(), cur)
    cur.expect("{")
    product = False
    basemap: Optional[list[ScalarFn]] = None
    pairs: list[PullbackFramePair] = []
    names: list[str] = []
    while not cur.take("}"):
        key = cur.word()
        if key == "mode":
            mode = cur.word()
            if mode != "product":
                raise cur.error(f"unknown pull-back mode {mode!r}")
            product = True
        elif key == "base":
            cur.expect("=")
            basemap = _expr_tuple(cur, chart)
        elif key == "pair":
            bco = _expr_tuple(cur, chart)
            cur.expect("|")
            vf = _expr_tuple(cur, chart)
            if len(bco) != b.rank or len(vf) != chart.dim:
                raise cur.error(
                    f"pair shape must be ({b.rank} target coefficients | "
                    f"{chart.dim} vector components)"
                )
            pairs.append(PullbackFramePair(tuple(bco), tuple(vf)))
        elif key == "names":
            names += cur.words("pair", "base", "mode")
        else:
            raise cur.error(f"unknown pullback field {key!r}")
    if product:
        sc.pullframes[name] = product_submersion_frame(b, chart)
        return
    if basemap is None:
        raise cur.error("user-supplied pull-back frame needs a base map")
    sc.pullframes[name] = PullbackFrame(
        b, chart, tuple(basemap), pairs, "user-supplied", tuple(names) or None
    )


def _stmt_extension(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    cur.expect("{")
    fieldsd: dict[str, object] = {}
    while not cur.take("}"):
        key = cur.word()
        if key in ("kernel", "total", "quotient"):
            fieldsd[key] = _need(sc, "algebroids", cur.word(), cur)
        elif key in ("incl", "proj"):
            cur.expect("=")
            total = fieldsd.get("total")
            chart = total.chart if total else None
            if chart is None:
                raise cur.error("declare 'total' before the matrices")
            fieldsd[key] = _matrix(cur, chart)
        elif key in ("lambda", "mu"):
            cur.expect("=")
            total = fieldsd.get("total")
            if total is None:
                raise cur.error("declare 'total' before lambda/mu")
            fieldsd[key] = _expr(cur, total.chart, ";\n}")
            cur.take(";")
        else:
            raise cur.error(f"unknown extension field {key!r}")
    for req in ("kernel", "total", "quotient", "incl", "proj"):
        if req not in fieldsd:
            raise cur.error(f"extension {name!r} is missing {req!r}")
    c, a, b = fieldsd["kernel"], fieldsd["total"], fieldsd["quotient"]
    from .morphisms import base_preserving_morphism

    incl = base_preserving_morphism(f"{name}_incl", c, a, fieldsd["incl"])
    proj = base_preserving_morphism(f"{name}_proj", a, b, fieldsd["proj"])
    lam = LineSection(fieldsd.get("lambda", a.chart.one()))
    sc.extensions[name] = ExtensionPresentation(c, a, b, incl, proj, lam)
    if "mu" in fieldsd:
        sc.extension_mu[name] = top_form(b, fieldsd["mu"])


def _stmt_bivector(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    cur.expect("on")
    chart = _need(sc, "charts", cur.word(), cur)
    tm = tangent_algebroid(chart)
    cur.expect("{")
    comps: dict[tuple[int, int], ScalarFn] = {}
    while not cur.take("}"):
        cur.expect("comp")
        cur.expect("[")
        c1 = cur.word()
        cur.expect(",")
        c2 = cur.word()
        for c in (c1, c2):
            if c not in chart.coords:
                raise cur.error(f"chart {chart.name!r} has no coordinate {c!r}")
        i, j = chart.index(c1), chart.index(c2)
        cur.expect("]")
        cur.expect("=")
        val = _expr(cur, chart, ";\n}")
        cur.take(";")
        if i == j:
            raise cur.error("bivector components need distinct coordinates")
        if i > j:
            i, j = j, i
            val = -val
        comps[(i, j)] = val
    sc.bivectors[name] = Multivector(tm, 2, comps)


def _stmt_cotangent(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    cur.expect("of")
    pi = _need(sc, "bivectors", cur.word(), cur)
    sc.algebroids[name] = cotangent_algebroid(pi, name)


def _stmt_poisson(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    cur.expect("{")
    pi = None
    image = kernel = complement = None
    lam = None
    while not cur.take("}"):
        key = cur.word()
        if key == "bivector":
            pi = _need(sc, "bivectors", cur.word(), cur)
        else:
            cur.expect("=")
            if pi is None:
                raise cur.error("declare 'bivector' first")
            chart = pi.algebroid.chart
            if key == "image":
                image = _matrix(cur, chart)
            elif key == "kernel":
                kernel = _matrix(cur, chart)
            elif key == "complement":
                complement = _matrix(cur, chart)
            elif key == "lambda":
                lam = _expr(cur, chart, ";\n}")
                cur.take(";")
            else:
                raise cur.error(f"unknown poisson field {key!r}")
    if pi is None or image is None or kernel is None or complement is None:
        raise cur.error(f"poisson {name!r} needs bivector, image, kernel, complement")
    chart = pi.algebroid.chart
    sc.poissons[name] = PoissonData(
        pi, image, kernel, complement, lam if lam is not None else chart.one()
    )


def _stmt_quotientdata(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    cur.expect("{")
    phi = ext = include = None
    complement = None
    while not cur.take("}"):
        key = cur.word()
        if key == "phi":
            phi = _need(sc, "morphisms", cur.word(), cur)
        elif key == "extension":
            ext = _need(sc, "extensions", cur.word(), cur)
        elif key == "include":
            include = _need(sc, "morphisms", cur.word(), cur)
        elif key == "complement":
            cur.expect("=")
            if include is None:
                raise cur.error("declare 'include' before the complement")
            complement = _matrix(cur, include.target.chart)
        else:
            raise cur.error(f"unknown quotientdata field {key!r}")
    if phi is None or ext is None or include is None:
        raise cur.error("quotientdata needs phi, extension, include")
    if not complement:
        complement = [[] for _ in range(include.target.rank)]
    sc.quotientdata[name] = QuotientData(phi, ext, include, complement)


def _stmt_diagram(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    cur.expect("{")
    dia = Diagram()
    while not cur.take("}"):
        key = cur.word()
        if key == "objects":
            for objname in cur.words("arrow", "compose"):
                dia.add_object(objname, _need(sc, "algebroids", objname, cur))
        elif key == "arrow":
            morphname = cur.word()
            m = _need(sc, "morphisms", morphname, cur)
            src = _resolve_object(dia, m.source, cur)
            tgt = _resolve_object(dia, m.target, cur)
            dia.add_arrow(morphname, m, src, tgt)
        elif key == "compose":
            second = cur.word()
            cur.expect(".")
            first = cur.word()
            cur.expect("=")
            result = cur.word()
            dia.declare_composite(first, second, result)
        else:
            raise cur.error(f"unknown diagram field {key!r}")
    for objname, alg in dia.objects.items():
        arrow_name = f"id_{objname}"
        if arrow_name not in dia.arrows:
            dia.add_arrow(arrow_name, identity_morphism(alg, arrow_name), objname, objname)
    sc.diagrams[name] = dia


def _resolve_object(dia: Diagram, alg: AlgebroidPresentation, cur: _Cursor) -> str:
    matches = [n for n, a in dia.objects.items() if a == alg]
    if len(matches) != 1:
        raise cur.error(
            "arrow endpoints must match exactly one declared object; got "
            + (", ".join(matches) or "none")
        )
    return matches[0]


def _stmt_bundlemap(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    cur.expect("over")
    over = _need(sc, "morphisms", cur.word(), cur)
    cur.expect(":")
    src = _need(sc, "reps", cur.word(), cur)
    cur.expect("->")
    tgt = _need(sc, "reps", cur.word(), cur)
    cur.expect("{")
    cur.expect("matrix")
    cur.expect("=")
    matrix = _matrix(cur, over.source.chart)
    cur.expect("}")
    sc.bundlemaps[name] = BundleMapData(over, src, tgt, matrix)


def _stmt_ansatz(cur: _Cursor, sc: Scenario, line: int) -> None:
    fields = {"degree": "ansatz_degree", "modes": "ansatz_modes"}
    cur.expect("{")
    while not cur.take("}"):
        key = cur.word()
        if key not in fields:
            raise cur.error(f"unknown ansatz field {key!r}")
        value = cur.int_value()
        if value < 0:
            raise cur.error(f"ansatz {key} must be non-negative, got {value}")
        setattr(sc, fields[key], value)
        cur.take(";")


# The assertion grammar: kind -> its fields in order.  A field is a quoted
# literal, `expect` (pass|fail), a cocycle spec (`spec`, `left`, `right`),
# `KEY=a|b|c` (one of the words, kept under KEY), `KEY:table` (a name kept
# under KEY that must name an entry of that scenario table), one of the
# `_TAILS` a few kinds read themselves, or else a plain word.
_ASSERTIONS = {
    "axioms": "name:algebroids expect",
    "flat": "name:reps expect",
    "morphism": "name:morphisms expect",
    "equal": "left '=' right",
    "exact": "spec expect=yes|no|unknown",
    "cohomologous": "left '=' right expect=yes|no|unknown",
    "period": "spec 'combo' combo 'coord' coord 'mean' mean_raw",
    "dphi": "name:morphisms expect",
    "charpull": "morphism:morphisms rep:reps expect",
    "charids": "rep:reps other:reps expect",
    "compose": "first:morphisms second:morphisms expect",
    "pullback": "name:pullframes 'matches' algebroid:algebroids",
    "admissible": "algebroid:algebroids 'from' chart:charts 'base' base rank",
    "transverse": "algebroid:algebroids 'from' chart:charts 'base' base expect",
    "ellphi": "algebroid:algebroids 'from' chart:charts weights expect",
    "factor": "morphism:morphisms 'through' pullback:pullframes expect",
    "extension": "name:extensions sub=identity|unimodular|valid expect",
    "quotientdata": "name:quotientdata expect",
    "poisson": "name:poissons expect",
    "diagram": "name:diagrams sub=coboundary|validates|pointcoboundary point expect",
    "inj": "morphism:morphisms spec expect",
    "bundlemap": "name:bundlemaps expect",
}


def _stmt_assert(cur: _Cursor, sc: Scenario, line: int) -> None:
    start = cur.pos
    kind = cur.word()
    if kind not in _ASSERTIONS:
        raise cur.error(f"unknown assertion kind {kind!r}")
    args: dict = {}
    for f in _ASSERTIONS[kind].split():
        if f.startswith("'"):
            cur.expect(f[1:-1])
        elif f in _TAILS:
            _TAILS[f](cur, sc, args)
        elif f in ("spec", "left", "right"):
            args[f] = _cocycle_spec(cur, sc)
        elif f == "expect":
            args[f] = cur.word()
            if args[f] not in ("pass", "fail"):
                raise cur.error(f"expected pass or fail, got {args[f]!r}")
        elif "=" in f:
            key, choices = f.split("=")
            args[key] = cur.word()
            if args[key] not in choices.split("|"):
                raise cur.error(f"{kind} expects {choices}")
        elif ":" in f:
            key, table = f.split(":")
            args[key] = cur.ref(table)
        else:
            args[f] = cur.word()
    text = " ".join(cur.text[start : cur.pos].split())
    sc.assertions.append(Assertion(kind, args, line, text))


def _tail_combo(cur: _Cursor, sc: Scenario, args: dict) -> None:
    cur.expect("(")
    args["combo"] = []
    if not cur.take(")"):
        while True:
            raw = cur.until(",)")
            try:
                args["combo"].append(Fraction(raw.replace(" ", "")))
            except (ValueError, ZeroDivisionError):
                raise cur.error(f"bad number {raw!r} in combo") from None
            if cur.take(")"):
                break
            cur.expect(",")


def _tail_mean(cur: _Cursor, sc: Scenario, args: dict) -> None:
    args["mean_raw"] = cur.until("\n")


def _tail_base(cur: _Cursor, sc: Scenario, args: dict) -> None:
    args["base"] = _expr_tuple(cur, _need(sc, "charts", args["chart"], cur))


def _tail_rank(cur: _Cursor, sc: Scenario, args: dict) -> None:
    args["expect"] = cur.word()
    if args["expect"] == "rank":
        args["rank"] = cur.int_value()
        args["expect"] = "pass"
    elif args["expect"] not in ("pass", "fail"):
        raise cur.error("admissible expects 'rank N' or pass/fail")


def _tail_weights(cur: _Cursor, sc: Scenario, args: dict) -> None:
    """ellphi's optional one-token weights `sigma E` and `nu E` on the target
    chart and `mu E` on the source chart, each 1 unless given."""
    target = _need(sc, "algebroids", args["algebroid"], cur).chart
    charts = {"sigma": target, "nu": target, "mu": _need(sc, "charts", args["chart"], cur)}
    for which, chart in charts.items():
        args[which] = chart.one()
    while cur.peek_word() in charts:
        which = cur.word()
        args[which] = _expr(cur, charts[which], string.whitespace)


def _tail_point(cur: _Cursor, sc: Scenario, args: dict) -> None:
    if args["sub"] == "pointcoboundary":
        cur.expect("point")
        args["point"] = cur.word()


_TAILS = {
    "combo": _tail_combo,
    "mean_raw": _tail_mean,
    "base": _tail_base,
    "rank": _tail_rank,
    "weights": _tail_weights,
    "point": _tail_point,
}


def _cocycle_spec(cur: _Cursor, sc: Scenario) -> dict:
    """modular ALG | relmod MORPH | char REP (section) | poissonmod P
    | poissonhalf P | zero ALG | form ALG ( .. ) | pull MORPH <spec>"""
    kind = cur.word()
    if kind in _SPEC_TABLES:
        return {"kind": kind, "name": cur.ref(_SPEC_TABLES[kind])}
    if kind == "char":
        repname = cur.word()
        d = _need(sc, "reps", repname, cur)
        cur.expect("(")
        section = _expr(cur, d.algebroid.chart, ")")
        cur.expect(")")
        return {"kind": "char", "name": repname, "section": section}
    if kind == "form":
        algname = cur.word()
        a = _need(sc, "algebroids", algname, cur)
        comps = _expr_tuple(cur, a.chart)
        if len(comps) != a.rank:
            raise cur.error(f"form needs {a.rank} components for {algname!r}")
        return {"kind": "form", "name": algname, "comps": comps}
    if kind == "pull":
        morph = cur.ref("morphisms")
        inner = _cocycle_spec(cur, sc)
        return {"kind": "pull", "name": morph, "inner": inner}
    raise cur.error(f"unknown cocycle spec {kind!r}")


# the table each one-name cocycle spec refers to
_SPEC_TABLES = {
    "modular": "algebroids",
    "zero": "algebroids",
    "relmod": "morphisms",
    "poissonmod": "poissons",
    "poissonhalf": "poissons",
}


_STATEMENTS = {
    "chart": _stmt_chart,
    "algebroid": _stmt_algebroid,
    "section": _stmt_section,
    "rep": _stmt_rep,
    "morphism": _stmt_morphism,
    "identity": _stmt_identity,
    "composite": _stmt_composite,
    "pullback": _stmt_pullback,
    "extension": _stmt_extension,
    "bivector": _stmt_bivector,
    "cotangent": _stmt_cotangent,
    "poisson": _stmt_poisson,
    "quotientdata": _stmt_quotientdata,
    "diagram": _stmt_diagram,
    "bundlemap": _stmt_bundlemap,
    "ansatz": _stmt_ansatz,
    "assert": _stmt_assert,
}
