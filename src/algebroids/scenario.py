"""Declarative scenario files: charts, presentations, maps, assertions.

A scenario is a sequence of block statements; expressions use the scalar
expression grammar.  Definitions must precede use.  Example:

    chart N { coords theta* x }
    algebroid B on N { frame b ; anchor b = (1, x) }
    morphism incl : TS1 -> B { base = (theta, 0) ; fiber = [[1]] }
    assert modular B = (1)

Each block statement declares its fields once, as {keyword: reader},
and reads its `{ ... }` through `_block`: a ';' or a newline ends a field,
a field is given once (see `_REPEATABLE` and `_KEYED` for the
exceptions), and an unknown field, a missing one and an unclosed block
are errors.  `_define` enters every name a statement defines, once per
scenario table.

`_ASSERTIONS` is the assertion grammar: one entry per kind, listing its
fields in order.  The names an assertion refers to are looked up once the
whole file is read (a name it needs to parse an expression, at once), so
a name no statement defines fails the parse, not the run.  Errors carry
the source line number; an error the library raises while a statement
builds its objects carries the line where that statement starts.  The
parsed scenario is purely declarative; execution lives in the runner.
"""

from __future__ import annotations

import re
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
from .morphisms import (
    Morphism,
    MorphismError,
    Trivialization,
    base_preserving_morphism,
    compose,
    identity_morphism,
    pullback_rep,
)
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
    return re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), text)


# ';' is a separator: whitespace between fields, a terminator inside
# expression scans (which never skip whitespace mid-scan)
_SPACE = re.compile(r"[\s;]*")
_WORD = re.compile(r"[A-Za-z0-9_/*'^!]*")


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
        self.pos = _SPACE.match(self.text, self.pos).end()

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

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
        self.pos = _WORD.match(self.text, start).end()
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

    def words(self) -> list[str]:
        """The names up to the end of the field: a ';', a newline or '}'."""
        out = []
        while True:
            while self.pos < len(self.text) and self.text[self.pos] in " \t\r":
                self.pos += 1
            if self.pos == len(self.text) or self.text[self.pos] in ";\n}":
                return out
            out.append(self.word())


def _expr(cur: _Cursor, chart: Chart, stops: str = ";\n}") -> ScalarFn:
    """An expression up to a top-level stop character; by default up to
    the end of a block field."""
    raw = cur.until(stops)
    try:
        return parse_expr(raw, chart)
    except SymExprError as e:
        raise cur.error(f"in expression {raw!r}: {e}") from e


def _seq(cur: _Cursor, open_: str, close: str, item) -> list:
    """`open_ item, item, ... close`, possibly empty: the values of `item()`."""
    cur.expect(open_)
    out: list = []
    while not cur.take(close):
        if out:
            cur.expect(",")
        out.append(item())
    return out


def _expr_tuple(cur: _Cursor, chart: Chart) -> list[ScalarFn]:
    return _seq(cur, "(", ")", lambda: _expr(cur, chart, ",)"))


def _matrix(cur: _Cursor, chart: Chart) -> list[list[ScalarFn]]:
    return _seq(cur, "[", "]", lambda: _seq(cur, "[", "]", lambda: _expr(cur, chart, ",]")))


def _eq(cur: _Cursor, read, chart: Chart):
    """`= value`, the value `read(cur, chart)`."""
    cur.expect("=")
    return read(cur, chart)


def _combo(cur: _Cursor, chart: Chart, frame: tuple) -> dict[int, ScalarFn]:
    """Sum of coefficient*framename terms (or 0), up to the end of the field."""
    raw = cur.until(";\n}")
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


def _define(sc: Scenario, table: str, name: str, value, cur: _Cursor) -> None:
    """Enter `name` in a scenario table; a name is defined once."""
    d = getattr(sc, table)
    if name in d:
        raise cur.error(f"duplicate {table.rstrip('s')} {name!r}")
    d[name] = value


def _entry(sc: Scenario, table: str, cur: _Cursor):
    """A field reader: a name that must name an entry of a scenario table."""
    return lambda got: _need(sc, table, cur.word(), cur)


# Block fields that may be given more than once (each reader returns a
# list, and the lists are joined) and fields given once per key (each
# reader returns (key, value)); any other field is given once.
_REPEATABLE = {"frame", "bundle", "names", "objects", "arrow", "compose", "pair"}
_KEYED = {"anchor", "coeff", "bracket", "comp"}


class _Fields(dict):
    """The fields of one block read so far.  A reader that looks up a
    field not given yet fails, naming the field it reads."""

    def __init__(self, cur: _Cursor):
        super().__init__()
        self.cur, self.key = cur, ""

    def __missing__(self, dep: str):
        raise self.cur.error(f"declare {dep!r} before {self.key!r}")


def _block(cur: _Cursor, line: int, what: str, fields: dict, need: tuple = (), name: str = "") -> dict:
    """The `{ ... }` block of the `what` statement at `line`, as {field: value}.

    `fields` maps each field keyword to its reader, which gets the fields
    read so far; a ';' or a newline ends a field.  Every field in `need`
    must be given."""
    cur.expect("{")
    got = _Fields(cur)
    while not cur.take("}"):
        if cur.at_end():
            raise ScenarioError(f"line {line}: {what} block is not closed")
        start = cur.pos
        key = got.key = cur.word()
        if key not in fields:
            raise cur.error(f"unknown {what} field {key!r}")
        value = fields[key](got)
        if key in _REPEATABLE:
            got.setdefault(key, []).extend(value)
            continue
        table, slot, label = got, key, key
        if key in _KEYED:
            (slot, value), table = value, got.setdefault(key, {})
            label = f"{key} {slot}"
        if slot in table:
            raise ScenarioError(f"line {cur.line(start)}: {what} field {label!r} given twice")
        table[slot] = value
    for key in need:
        if key not in got:
            raise cur.error(f"{what} {name!r} is missing {key!r}")
    return got


def _pair_key(cur: _Cursor) -> tuple[str, str]:
    """`[a, b] =`, the key of a bracket or of a bivector component."""
    cur.expect("[")
    a = cur.word()
    cur.expect(",")
    b = cur.word()
    cur.expect("]")
    cur.expect("=")
    return a, b


def _stmt_chart(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    fields = {"coords": lambda got: cur.words()}
    words = _block(cur, line, "chart", fields, ("coords",), name)["coords"]
    coords = tuple(w.removesuffix("*") for w in words)
    _define(sc, "charts", name, Chart(name, coords, tuple(w.endswith("*") for w in words)), cur)


def _stmt_algebroid(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    kind = cur.word()
    if kind not in ("on", "tangent", "zero"):
        raise cur.error(f"expected 'on', 'tangent' or 'zero', got {kind!r}")
    if kind != "on":
        cur.expect("of")
        chart = _need(sc, "charts", cur.word(), cur)
        stock = tangent_algebroid if kind == "tangent" else zero_algebroid
        _define(sc, "algebroids", name, stock(chart, name), cur)
        return
    chart = _need(sc, "charts", cur.word(), cur)

    def bracket(got):
        f1, f2 = _pair_key(cur)
        combo = _combo(cur, chart, tuple(got.get("frame", ())))
        return f"[{min(f1, f2)}, {max(f1, f2)}]", (f1, f2, combo)

    fields = {
        "frame": lambda got: cur.words(),
        "anchor": lambda got: (cur.word(), _eq(cur, _expr_tuple, chart)),
        "bracket": bracket,
    }
    got = _block(cur, line, "algebroid", fields)
    frame, anchor = got.get("frame", []), got.get("anchor", {})
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
    for f1, f2, combo in got.get("bracket", {}).values():
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
    presentation = AlgebroidPresentation(name, chart, tuple(frame), rows, structure)
    _define(sc, "algebroids", name, presentation, cur)


def _stmt_section(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    a = _need(sc, "algebroids", name, cur)
    expr = lambda got: _eq(cur, _expr, a.chart)
    got = _block(cur, line, "section", {"omega": expr, "mu": expr})
    omega, mu = got.get("omega", a.chart.one()), got.get("mu", a.chart.one())
    triv = Trivialization(top_multivector(a, omega), top_form(tangent_algebroid(a.chart), mu))
    _define(sc, "sections", name, triv, cur)


def _stmt_rep(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    if cur.take("="):
        kind = cur.word()
        if kind != "pullback":
            raise cur.error("expected 'pullback' in computed representation")
        repname = cur.word()
        cur.expect("along")
        morphname = cur.word()
        d = _need(sc, "reps", repname, cur)
        phi = _need(sc, "morphisms", morphname, cur)
        _define(sc, "reps", name, pullback_rep(phi, d, name), cur)
        return
    cur.expect("on")
    a = _need(sc, "algebroids", cur.word(), cur)
    fields = {
        "bundle": lambda got: cur.words(),
        "coeff": lambda got: (cur.word(), _eq(cur, _matrix, a.chart)),
    }
    got = _block(cur, line, "rep", fields)
    bundle, coeffs = got.get("bundle", []), got.get("coeff", {})
    for fname in coeffs:
        if fname not in a.frame:
            raise ScenarioError(f"line {line}: rep references unknown frame section {fname!r}")
    m = len(bundle)
    zero = a.chart.zero()
    mats = []
    for f in a.frame:
        mat = coeffs.get(f, [[zero] * m for _ in range(m)])
        if len(mat) != m or any(len(r) != m for r in mat):
            raise cur.error(f"coeff matrix for {f!r} must be {m}x{m}")
        mats.append(mat)
    _define(sc, "reps", name, Representation(a, tuple(bundle), mats, name), cur)


def _stmt_morphism(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    cur.expect(":")
    src = _need(sc, "algebroids", cur.word(), cur)
    cur.expect("->")
    tgt = _need(sc, "algebroids", cur.word(), cur)
    fields = {
        "base": lambda got: _eq(cur, _expr_tuple, src.chart),
        "fiber": lambda got: _eq(cur, _matrix, src.chart),
    }
    got = _block(cur, line, "morphism", fields, ("fiber",), name)
    basemap = got.get("base")
    if basemap is None:
        if src.chart != tgt.chart:
            raise cur.error("base map required between different charts")
        basemap = [src.chart.coord(c) for c in src.chart.coords]
    _define(sc, "morphisms", name, Morphism(name, src, tgt, basemap, got["fiber"]), cur)


def _stmt_identity(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    cur.expect("of")
    a = _need(sc, "algebroids", cur.word(), cur)
    _define(sc, "morphisms", name, identity_morphism(a, name), cur)


def _stmt_composite(cur: _Cursor, sc: Scenario, line: int) -> None:
    # composite NAME = SECOND . FIRST
    name = cur.word()
    cur.expect("=")
    second = _need(sc, "morphisms", cur.word(), cur)
    cur.expect(".")
    first = _need(sc, "morphisms", cur.word(), cur)
    _define(sc, "morphisms", name, compose(second, first, name), cur)


def _stmt_pullback(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    cur.expect("of")
    b = _need(sc, "algebroids", cur.word(), cur)
    cur.expect("from")
    chart = _need(sc, "charts", cur.word(), cur)

    def mode(got):
        word = cur.word()
        if word != "product":
            raise cur.error(f"unknown pull-back mode {word!r}")
        return word

    def pair(got):
        bco = _expr_tuple(cur, chart)
        cur.expect("|")
        vf = _expr_tuple(cur, chart)
        if len(bco) != b.rank or len(vf) != chart.dim:
            raise cur.error(
                f"pair shape must be ({b.rank} target coefficients | "
                f"{chart.dim} vector components)"
            )
        return [PullbackFramePair(tuple(bco), tuple(vf))]

    fields = {
        "mode": mode,
        "base": lambda got: _eq(cur, _expr_tuple, chart),
        "pair": pair,
        "names": lambda got: cur.words(),
    }
    got = _block(cur, line, "pullback", fields)
    if "mode" in got:
        # the product frame is computed; it takes no user data
        extra = [key for key in got if key != "mode"]
        if extra:
            raise cur.error(f"pullback mode product takes no {extra[0]!r}")
        frame = product_submersion_frame(b, chart)
    elif "base" not in got:
        raise cur.error(f"pullback {name!r} is missing 'base'")
    else:
        names = tuple(got.get("names", ())) or None
        pairs = got.get("pair", [])
        frame = PullbackFrame(b, chart, tuple(got["base"]), pairs, "user-supplied", names)
    _define(sc, "pullframes", name, frame, cur)


def _stmt_extension(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    alg = _entry(sc, "algebroids", cur)
    matrix = lambda got: _eq(cur, _matrix, got["total"].chart)
    expr = lambda got: _eq(cur, _expr, got["total"].chart)
    fields = {"kernel": alg, "total": alg, "quotient": alg}
    fields |= {"incl": matrix, "proj": matrix, "lambda": expr, "mu": expr}
    got = _block(cur, line, "extension", fields, ("kernel", "total", "quotient", "incl", "proj"), name)
    c, a, b = got["kernel"], got["total"], got["quotient"]
    incl = base_preserving_morphism(f"{name}_incl", c, a, got["incl"])
    proj = base_preserving_morphism(f"{name}_proj", a, b, got["proj"])
    lam = LineSection(got.get("lambda", a.chart.one()))
    _define(sc, "extensions", name, ExtensionPresentation(c, a, b, incl, proj, lam), cur)
    if "mu" in got:
        sc.extension_mu[name] = top_form(b, got["mu"])


def _stmt_bivector(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    cur.expect("on")
    chart = _need(sc, "charts", cur.word(), cur)

    def comp(got):
        c1, c2 = _pair_key(cur)
        for c in (c1, c2):
            if c not in chart.coords:
                raise cur.error(f"chart {chart.name!r} has no coordinate {c!r}")
        i, j = chart.index(c1), chart.index(c2)
        val = _expr(cur, chart)
        if i == j:
            raise cur.error("bivector components need distinct coordinates")
        if i > j:
            i, j, val = j, i, -val
        return f"[{chart.coords[i]}, {chart.coords[j]}]", ((i, j), val)

    comps = dict(_block(cur, line, "bivector", {"comp": comp}).get("comp", {}).values())
    _define(sc, "bivectors", name, Multivector(tangent_algebroid(chart), 2, comps), cur)


def _stmt_cotangent(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    cur.expect("of")
    pi = _need(sc, "bivectors", cur.word(), cur)
    _define(sc, "algebroids", name, cotangent_algebroid(pi, name), cur)


def _stmt_poisson(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    matrix = lambda got: _eq(cur, _matrix, got["bivector"].algebroid.chart)
    fields = {
        "bivector": _entry(sc, "bivectors", cur),
        "image": matrix,
        "kernel": matrix,
        "complement": matrix,
        "lambda": lambda got: _eq(cur, _expr, got["bivector"].algebroid.chart),
    }
    got = _block(cur, line, "poisson", fields, ("bivector", "image", "kernel", "complement"), name)
    pi = got["bivector"]
    lam = got.get("lambda", pi.algebroid.chart.one())
    data = PoissonData(pi, got["image"], got["kernel"], got["complement"], lam)
    _define(sc, "poissons", name, data, cur)


def _stmt_quotientdata(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    fields = {
        "phi": _entry(sc, "morphisms", cur),
        "extension": _entry(sc, "extensions", cur),
        "include": _entry(sc, "morphisms", cur),
        "complement": lambda got: _eq(cur, _matrix, got["include"].target.chart),
    }
    got = _block(cur, line, "quotientdata", fields, ("phi", "extension", "include"), name)
    include = got["include"]
    complement = got.get("complement") or [[] for _ in range(include.target.rank)]
    data = QuotientData(got["phi"], got["extension"], include, complement)
    _define(sc, "quotientdata", name, data, cur)


def _stmt_diagram(cur: _Cursor, sc: Scenario, line: int) -> None:
    name = cur.word()
    dia = Diagram()

    def objects(got):
        names = cur.words()
        for objname in names:
            dia.add_object(objname, _need(sc, "algebroids", objname, cur))
        return names

    def arrow(got):
        morphname = cur.word()
        m = _need(sc, "morphisms", morphname, cur)
        src, tgt = (_resolve_object(dia, end, cur) for end in (m.source, m.target))
        dia.add_arrow(morphname, m, src, tgt)
        return [morphname]

    def composite(got):
        second = cur.word()
        cur.expect(".")
        first = cur.word()
        cur.expect("=")
        result = cur.word()
        dia.declare_composite(first, second, result)
        return [result]

    _block(cur, line, "diagram", {"objects": objects, "arrow": arrow, "compose": composite})
    for objname, alg in dia.objects.items():
        arrow_name = f"id_{objname}"
        if arrow_name not in dia.arrows:
            dia.add_arrow(arrow_name, identity_morphism(alg, arrow_name), objname, objname)
    _define(sc, "diagrams", name, dia, cur)


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
    fields = {"matrix": lambda got: _eq(cur, _matrix, over.source.chart)}
    matrix = _block(cur, line, "bundlemap", fields, ("matrix",), name)["matrix"]
    _define(sc, "bundlemaps", name, BundleMapData(over, src, tgt, matrix), cur)


def _stmt_ansatz(cur: _Cursor, sc: Scenario, line: int) -> None:
    def size(got):
        value = cur.int_value()
        if value < 0:
            raise cur.error(f"ansatz {got.key} must be non-negative, got {value}")
        return value

    got = _block(cur, line, "ansatz", {"degree": size, "modes": size})
    sc.ansatz_degree = got.get("degree", sc.ansatz_degree)
    sc.ansatz_modes = got.get("modes", sc.ansatz_modes)


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
    def number():
        raw = cur.until(",)")
        try:
            return Fraction(raw.replace(" ", ""))
        except (ValueError, ZeroDivisionError):
            raise cur.error(f"bad number {raw!r} in combo") from None

    args["combo"] = _seq(cur, "(", ")", number)


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
