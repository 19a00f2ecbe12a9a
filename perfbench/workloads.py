"""Input generators for the generated workloads (`ansatz`, `identities`, `rank`).

Every generator takes the workload seed and returns a list of `Case`s.  A
case is built entirely during set-up (library objects included); its
`call` is the one library check whose latency is one verdict, and its
`expect` is the answer known from the construction, not from the code
under test.  The seed draws the signs of the rational coefficients only
(see `Draw`): the structure, sizes and coefficient magnitudes of the input
set are the same for every seed, so run-to-run cost does not depend on the
seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from algebroids import (
    AlgebroidPresentation,
    AnsatzSpace,
    Chart,
    Morphism,
    Multivector,
    Representation,
    Trivialization,
    char_cocycle,
    check_axioms,
    check_flat,
    check_morphism,
    classify,
    cohomologous,
    d_A,
    pullback_form,
    pullback_rep,
    relative_canonical_rep,
    relative_modular,
    schouten,
    tangent_algebroid,
)
from algebroids.core import coframe_form, function_form
from algebroids.extensions import (
    ExtensionPresentation,
    check_extension,
    cotangent_algebroid,
    subalgebroid_from_vector_fields,
)
from algebroids.morphisms import base_preserving_morphism
from algebroids.pullback import check_admissible, check_transverse
from algebroids.reps import LineSection, canonical_sections
from algebroids.runner import run
from algebroids.scenario import parse_scenario
from algebroids.symexpr import ScalarFn, cos, exp, sin


@dataclass
class Case:
    id: str
    kind: str
    expect: str
    call: Callable[[], str]
    size: dict = field(default_factory=dict)


class Draw:
    """The random choices for one input slot, in two streams.

    `shape` picks structure (atoms, exponents, modes, positions) and the
    magnitudes of coefficients, and is fixed per slot; `value` draws the
    signs of the coefficients from the workload seed.  Exact arithmetic
    costs more on larger numerators and denominators: drawing magnitudes
    from the seed too made the best of three `ansatz` passes 11% slower on
    one seed than on another (2-vCPU x86-64 VM, CPython 3.11).
    """

    def __init__(self, seed: int, slot: str):
        self.shape = random.Random(f"shape/{slot}")
        self.value = random.Random(f"{seed}/{slot}")

    def q(self, hi: int = 7) -> Fraction:
        """A nonzero rational with small numerator and denominator."""
        sign = self.value.choice((-1, 1))
        return Fraction(sign * self.shape.randint(1, hi), self.shape.randint(1, 3))

    def sampling_seed(self) -> int:
        # fixed per slot: which sample points overflow or lose rank must
        # not change the cost of a verdict from one workload seed to the next
        return self.shape.randrange(1 << 16)


# ---------------------------------------------------------------------------
# ansatz: classify / cohomologous on five algebroid families
# ---------------------------------------------------------------------------


def _families():
    """name -> (algebroid, periodic coordinate with a circle frame section)."""
    cyl = Chart("N", ("theta", "x"), (True, False))
    torus = Chart("T2", ("theta", "phi"), (True, True))
    cyl3 = Chart("N3", ("theta", "x", "y"), (True, False, False))
    spiral = AlgebroidPresentation("B", cyl, ("b",), [[cyl.one(), cyl.coord("x")]])
    tm3 = tangent_algebroid(cyl3)
    pi = Multivector(tm3, 2, {(0, 2): cyl3.one(), (1, 2): cyl3.coord("x")})
    ct = cotangent_algebroid(pi, "CT")
    return {
        "cyl": (tangent_algebroid(cyl), "theta"),
        "torus": (tangent_algebroid(torus), "theta"),
        "cyl3": (tm3, "theta"),
        "spiral": (spiral, None),
        "cotangent": (ct, None),
    }


# (family, degree, modes, question kinds, copies).  Kinds: E exact, C
# certified non-exact, U unknown in the ansatz, Y/N cohomologous or not.
# The largest system is the cotangent 4/4 one (135 unknowns); every seed
# asks the same questions, so the cost of a pass does not depend on it.
_ANSATZ_PLAN = [
    ("cyl", 1, 1, "ECUYN", 1),
    ("cyl", 2, 2, "ECUYN", 3),
    ("cyl", 4, 4, "ECUYN", 2),
    ("cyl", 6, 6, "ECUYN", 1),
    ("torus", 0, 1, "ECUYN", 1),
    ("torus", 0, 2, "ECUYN", 2),
    ("torus", 0, 4, "ECUYN", 1),
    ("cyl3", 2, 2, "ECUYN", 2),
    ("cyl3", 3, 3, "ECUYN", 1),
    ("spiral", 2, 2, "EEU", 3),
    ("spiral", 4, 4, "EEU", 2),
    ("spiral", 6, 6, "EEU", 1),
    ("cotangent", 2, 2, "EEU", 3),
    ("cotangent", 3, 3, "EU", 2),
    ("cotangent", 4, 4, "U", 1),
]


def _outside(alg: AlgebroidPresentation, modes: int, dr: Draw) -> ScalarFn:
    """A function outside the ansatz span whose differential has zero
    theta-mean: exp of a non-periodic coordinate, or a Fourier mode above
    the bound when every coordinate is periodic."""
    chart = alg.chart
    c = chart.const(dr.q())
    nonper = [n for n, p in zip(chart.coords, chart.periodic) if not p]
    if nonper:
        return c * exp(chart.const(dr.shape.randint(1, 2)) * chart.coord(nonper[0]))
    return c * sin(chart.const(modes + 1) * chart.coord(chart.coords[-1]))


def _span_term(space: AnsatzSpace, dr: Draw) -> ScalarFn:
    """One random basis-type term of the ansatz: a monomial of total degree
    at most `degree` in the non-periodic coordinates times sin or cos of an
    integer mode vector bounded by `modes` in the periodic ones."""
    chart = space.chart
    term = chart.const(dr.q())
    budget = space.degree
    arg = chart.zero()
    for name, periodic in zip(chart.coords, chart.periodic):
        if periodic:
            arg = arg + chart.const(dr.shape.randint(0, space.fourier_modes)) * chart.coord(name)
        elif budget:
            e = dr.shape.randint(0, budget)
            budget -= e
            term = term * chart.coord(name) ** e
    if any(chart.periodic) and not arg.is_zero():
        term = term * (sin(arg) if dr.shape.random() < 0.5 else cos(arg))
    return term


def _planted(space: AnsatzSpace, dr: Draw, count: int = 4) -> ScalarFn:
    f = space.chart.zero()
    for _ in range(count):
        f = f + _span_term(space, dr)
    return f


def _basis_size(space: AnsatzSpace) -> int:
    chart = space.chart
    nonper = sum(1 for p in chart.periodic if not p)
    per = sum(1 for p in chart.periodic if p)
    monos = math.comb(space.degree + nonper, nonper)
    return monos * (2 * space.fourier_modes + 1) ** per


def ansatz_cases(seed: int) -> list[Case]:
    fams = _families()
    cases: list[Case] = []
    for fam, degree, modes, kinds, copies in _ANSATZ_PLAN:
        alg, circle = fams[fam]
        space = AnsatzSpace(alg.chart, degree, modes)
        size = {"family": fam, "degree": degree, "modes": modes, "basis": _basis_size(space)}

        def exact_form(f):
            return d_A(function_form(alg, f))

        def dtheta(c):
            return coframe_form(alg, alg.chart.index(circle)).scale(c)

        for n, kind in enumerate(kinds * copies):
            cid = f"{fam}/d{degree}m{modes}/{kind}{n}"
            dr = Draw(seed, cid)
            qseed = dr.sampling_seed()
            if kind == "E":
                alpha = exact_form(_planted(space, dr))
                cases.append(_classify_case(cid, alpha, space, qseed, "exact", size))
            elif kind == "C":
                alpha = exact_form(_planted(space, dr)) + dtheta(dr.q())
                cases.append(_classify_case(cid, alpha, space, qseed, "nonexact_certified", size))
            elif kind == "U":
                alpha = exact_form(_outside(alg, modes, dr))
                cases.append(_classify_case(cid, alpha, space, qseed, "nonexact_in_ansatz", size))
            else:  # Y: same period, cohomologous; N: different period
                c1 = dr.q()
                c2 = c1 if kind == "Y" else c1 + dr.q(3)
                left = exact_form(_planted(space, dr)) + dtheta(c1)
                right = exact_form(_planted(space, dr)) + dtheta(c2)
                want = "cohomologous" if kind == "Y" else "distinct_certified"
                cases.append(
                    Case(
                        cid,
                        "cohomologous",
                        want,
                        lambda l=left, r=right, s=space, k=qseed: cohomologous(l, r, s, seed=k).verdict,
                        size,
                    )
                )
    cases += poisson_scenario_cases(seed)
    return cases


# Regular Poisson scenarios in the scenario language, with coefficients
# drawn from the seed.  pi = c dx^dy is symplectic on the plane, so its
# modular class is zero; pi = c exp(s z) dx^dy has a density depending
# only on the transverse coordinate, so its modular vector field vanishes
# and the class is exact.  Every assertion passes by construction.
_POISSON_SCENARIOS = {
    "symplectic": """chart P2 {{ coords x y }}
bivector PS on P2 {{ comp [x, y] = {c} }}
cotangent CTS of PS
poisson SYM {{
  bivector PS
  image = [[1, 0], [0, 1]]
  kernel = [[], []]
  complement = [[], []]
}}
assert axioms CTS pass
assert poisson SYM pass
assert equal poissonmod SYM = zero CTS
""",
    "density": """chart R3 {{ coords x y z }}
bivector PIE on R3 {{ comp [x, y] = {c}*exp({s}*z) }}
cotangent CTE of PIE
poisson PE {{
  bivector PIE
  image = [[1, 0], [0, 1], [0, 0]]
  kernel = [[0], [0], [1]]
  complement = [[0], [0], [1]]
}}
assert axioms CTE pass
assert poisson PE pass
assert exact poissonmod PE yes
""",
}


def poisson_scenario_cases(seed: int) -> list[Case]:
    """Three copies of each scenario, parsed during set-up; one verdict is
    one `runner.run`, the path of `algebroids run` without the file read."""
    cases = []
    for name, template in _POISSON_SCENARIOS.items():
        for n in range(3):
            cid = f"scenario/{name}/{n}"
            dr = Draw(seed, cid)
            text = template.format(c=f"({dr.q()})", s=f"({dr.q(3)})")
            sc = parse_scenario(text, cid)
            want = " ".join("pass" for _ in sc.assertions)
            size = {"family": name, "assertions": len(sc.assertions)}
            call = lambda sc=sc, k=dr.sampling_seed(): " ".join(r.verdict for r in run(sc, seed=k).results)
            cases.append(Case(cid, "scenario", want, call, size))
    return cases


def _classify_case(cid, alpha, space, qseed, want, size) -> Case:
    return Case(
        cid,
        "classify",
        want,
        lambda: classify(alpha, space, seed=qseed).status,
        size,
    )


# ---------------------------------------------------------------------------
# identities: exact zero-residual checks, no rational linear algebra
# ---------------------------------------------------------------------------


def _atoms(chart: Chart) -> list[ScalarFn]:
    """Small trig, exp and polynomial building blocks for frame entries."""
    x = [chart.coord(c) for c in chart.coords]
    return [
        x[0],
        x[1] * x[1],
        x[0] * x[-1],
        sin(x[1]),
        cos(x[0] + x[-1]),
        exp(x[-1]),
        sin(x[0]) * x[1],
        exp(x[0] - x[1]),
    ]


def _frame_columns(chart: Chart, dr: Draw) -> list[list[ScalarFn]]:
    """A full-rank frame D*U: D diagonal of units, U unit upper triangular
    with one or two random atoms per column, so it is involutive and every
    pivot of the re-expansion is a unit."""
    n = chart.dim
    atoms = _atoms(chart)
    cols = [[chart.zero() for _ in range(n)] for _ in range(n)]  # cols[k][t]
    for t in range(n):
        diag = chart.const(dr.q())
        if dr.shape.random() < 0.5:
            diag = diag * exp(chart.const(dr.shape.randint(-2, 2)) * chart.coord(chart.coords[t]))
        cols[t][t] = diag
        for k in dr.shape.sample(range(t), min(t, 2)):
            cols[k][t] = chart.const(dr.q()) * dr.shape.choice(atoms) * diag
    return cols


def _commuting_bivector(tm: AlgebroidPresentation, dr: Draw) -> Multivector:
    """X^Y with X, Y along the first two coordinates and coefficients
    depending only on the others, so [X, Y] = 0 and [pi, pi] = 0."""
    chart = tm.chart
    rest = [chart.coord(c) for c in chart.coords[2:]]
    pool = [chart.one(), rest[0], sin(rest[-1]), exp(rest[0]), rest[-1] * rest[-1]]
    x = [chart.const(dr.q()) * dr.shape.choice(pool) for _ in range(2)]
    y = [chart.const(dr.q()) * dr.shape.choice(pool) for _ in range(2)]
    return Multivector(tm, 2, {(0, 1): x[0] * y[1] - x[1] * y[0]})


def _line_rep_from(alg: AlgebroidPresentation, g: ScalarFn, name: str) -> Representation:
    """The flat line representation with coefficients d_A g."""
    dg = d_A(function_form(alg, g))
    return Representation(alg, ("eps",), [[[dg.component((i,))]] for i in range(alg.rank)], name)


def _corrupt_structure(b: AlgebroidPresentation, dr: Draw) -> AlgebroidPresentation:
    """Add a nonzero constant to one structure function.  The anchor of a
    full-rank frame is injective, so the anchor-homomorphism check must
    then fail."""
    i, j = sorted(dr.shape.sample(range(b.rank), 2))
    k = dr.shape.randrange(b.rank)
    structure = {key: dict(v) for key, v in b.structure.items()}
    comps = structure.setdefault((i, j), {})
    comps[k] = comps.get(k, b.chart.zero()) + b.chart.const(dr.q())
    return AlgebroidPresentation(b.name + "~", b.chart, b.frame, b.anchor, structure)


def _corrupt_fiber(phi: Morphism, dr: Draw) -> Morphism:
    """Add a nonzero constant to one fiber entry of an inclusion into TM:
    the anchor compatibility of that entry must then fail."""
    fiber = [list(r) for r in phi.fiber]
    t = dr.shape.randrange(len(fiber))
    i = dr.shape.randrange(len(fiber[0]))
    fiber[t][i] = fiber[t][i] + phi.source.chart.const(dr.q())
    return Morphism(phi.name + "~", phi.source, phi.target, list(phi.basemap), fiber)


_ID_CHARTS = [
    ("D3", ("x", "y", "z")),
    ("D4", ("x", "y", "z", "w")),
    ("D5", ("x", "y", "z", "w", "v")),
]


def identities_cases(seed: int) -> list[Case]:
    cases: list[Case] = []
    for copy in range(4):
        for cname, coords in _ID_CHARTS:
            chart = Chart(cname, coords)
            tm = tangent_algebroid(chart)
            tag = f"{cname}.{copy}"
            dr = Draw(seed, tag)
            b, incl = subalgebroid_from_vector_fields("F" + tag, chart, _frame_columns(chart, dr))
            size = {"rank": b.rank, "dim": chart.dim}
            atoms = _atoms(chart)
            g = chart.const(dr.q()) * dr.shape.choice(atoms) * dr.shape.choice(atoms)
            h = chart.const(dr.q()) * dr.shape.choice(atoms) + dr.shape.choice(atoms)
            flat_b = _line_rep_from(b, g, "DB")
            flat_tm = _line_rep_from(tm, h, "DT")
            bad_b = _corrupt_structure(b, dr)
            bad_incl = _corrupt_fiber(incl, dr)
            pi = _commuting_bivector(tm, dr)
            triv_b = Trivialization(*canonical_sections(b))
            triv_tm = Trivialization(*canonical_sections(tm))
            unit = LineSection(chart.one())

            def dphi(phi=incl, sb=triv_b, st=triv_tm, lam=unit):
                d = relative_canonical_rep(phi, sb, st)
                return _zero(char_cocycle(d, lam) - relative_modular(phi, sb, st))

            def charpull(phi=incl, d=flat_tm, lam=unit):
                lhs = char_cocycle(pullback_rep(phi, d), lam)
                return _zero(lhs - pullback_form(phi, char_cocycle(d, lam)))

            checks = [
                ("axioms", "pass", lambda a=b: _passed(check_axioms(a))),
                ("axioms", "fail", lambda a=bad_b: _passed(check_axioms(a))),
                ("morphism", "pass", lambda p=incl: _passed(check_morphism(p))),
                ("morphism", "fail", lambda p=bad_incl: _passed(check_morphism(p))),
                ("flat", "pass", lambda d=flat_b: _passed(check_flat(d))),
                ("flat", "pass", lambda d=flat_tm: _passed(check_flat(d))),
                ("dphi", "pass", dphi),
                ("charpull", "pass", charpull),
                ("schouten", "pass", lambda p=pi: _zero(schouten(p, p))),
            ]
            for n, (kind, want, call) in enumerate(checks):
                cases.append(Case(f"{tag}/{kind}{n}", kind, want, call, size))
    return cases


def _passed(report) -> str:
    return "pass" if report.passed else "fail"


def _zero(residual) -> str:
    return "pass" if residual.is_zero() else "fail"


# ---------------------------------------------------------------------------
# rank: admissibility, transversality and extension verdicts
# ---------------------------------------------------------------------------

# Diagonal entries of the planted factorisations.  "unit" entries are
# q*exp(s*z), so a unit minor certifies the rank exactly; "smooth" entries
# are (z^2+c)*q*exp(s*z), nowhere zero but not units, so no minor of the
# planted size is a unit and sampling decides.  The slopes s set the entry
# scales; 0 to 100 as in the rank-drop and overflow reproductions.
_RANK_PLAN = [
    # (check, rows n, tangential dim q (extension: base dim), anchor rank r
    #  (extension: kernel rank), planted rank k, diagonal kind, slopes, copies)
    ("admissible", 3, 1, 3, 2, "unit", (0, 1), 5),
    ("admissible", 3, 1, 3, 1, "unit", (0,), 5),
    ("admissible", 4, 2, 4, 2, "unit", (0, 4), 5),
    ("admissible", 5, 2, 5, 3, "unit", (0, 20, 100), 5),
    ("admissible", 5, 1, 9, 3, "unit", (0, 1), 1),
    ("admissible", 3, 1, 3, 2, "smooth", (0,), 5),
    ("admissible", 3, 1, 2, 2, "smooth", (0, 1), 5),
    ("admissible", 4, 2, 3, 2, "smooth", (0, 20), 5),
    ("admissible", 4, 2, 3, 2, "smooth", (0, 100), 5),
    ("admissible", 4, 1, 7, 3, "smooth", (0,), 1),
    ("admissible", 5, 2, 6, 2, "smooth", (0,), 1),
    ("transverse", 3, 1, 3, 2, "unit", (0, 2), 5),
    ("transverse", 3, 1, 3, 1, "unit", (0,), 5),
    ("transverse", 4, 2, 4, 2, "unit", (0, 20), 5),
    ("transverse", 5, 2, 8, 3, "unit", (0, 4, 100), 1),
    ("transverse", 5, 2, 8, 2, "unit", (0, 1), 1),
    ("transverse", 5, 2, 5, 3, "smooth", (0,), 1),
    ("transverse", 3, 1, 3, 2, "smooth", (0,), 5),
    ("transverse", 3, 1, 3, 1, "smooth", (0,), 5),
    ("transverse", 4, 2, 3, 2, "smooth", (0, 1), 5),
    ("transverse", 4, 2, 3, 2, "smooth", (0, 100), 5),
    ("extension", 1, 1, 2, 2, "smooth", (0,), 5),
    ("extension", 1, 1, 3, 3, "smooth", (0,), 5),
    ("extension", 2, 2, 4, 4, "unit", (0,), 5),
    ("extension", 2, 2, 5, 5, "smooth", (0,), 5),
    ("extension", 1, 1, 2, 2, "smooth", (0, 1), 5),
    ("extension", 1, 1, 3, 3, "unit", (0, 20, 1), 5),
    ("extension", 1, 1, 3, 3, "unit", (0, 100, 1), 5),
]


def _diag_entry(chart: Chart, kind: str, slope: int, dr: Draw) -> ScalarFn:
    z = chart.coord(chart.coords[0])
    entry = chart.const(dr.q()) * exp(chart.const(slope) * z)
    if kind == "smooth":
        entry = entry * (z * z + chart.const(dr.shape.randint(1, 3)))
    return entry


def _planted_matrix(
    chart: Chart, rows: int, cols: int, k: int, kind: str, slopes, dr: Draw
) -> list[list[ScalarFn]]:
    """L * diag(d_1..d_k, 0..) * R with L, R unit triangular and sparse:
    rank exactly k at every point of the chart."""
    zero = chart.zero()
    z = [chart.coord(c) for c in chart.coords]
    pool = [z[0], sin(z[-1]), chart.one(), z[-1] * z[0], cos(z[0])]
    diag = [_diag_entry(chart, kind, slopes[i % len(slopes)], dr) for i in range(k)]
    # P = L E R computed entrywise; L[i][s] below the diagonal, R[s][j] above
    lower = [[chart.one() if i == s else zero for s in range(rows)] for i in range(rows)]
    upper = [[chart.one() if s == j else zero for j in range(cols)] for s in range(cols)]
    for i in range(1, rows):
        s = dr.shape.randrange(i)
        lower[i][s] = chart.const(dr.q(3)) * dr.shape.choice(pool)
    for j in range(1, cols):
        s = dr.shape.randrange(j)
        upper[s][j] = chart.const(dr.q(3)) * dr.shape.choice(pool)
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = zero
            for s in range(k):
                if lower[i][s].is_zero() or upper[s][j].is_zero():
                    continue
                acc = acc + lower[i][s] * diag[s] * upper[s][j]
            row.append(acc)
        out.append(row)
    # The planted block stays leading and the dependent rows and columns
    # trail it, so the minor search finds it at the same place for every
    # seed and the cost of a verdict does not depend on the seed.
    return out


def _admissibility_input(n, q, r, k, kind, slopes, dr, tag):
    """Base map z -> (z_1..z_q, 0..0) into a chart of dimension n, and an
    anchor whose normal block (rows q..n-1 of the transpose) has planted
    rank k.  Constraint rank is q + k, so the constraint space has constant
    rank r - k and the map is transverse iff q + k = n."""
    src = Chart("S" + tag, tuple(f"z{j}" for j in range(q)))
    tgt = Chart("Y" + tag, tuple(f"y{j}" for j in range(n)))
    normal = _planted_matrix(src, n - q, r, k, kind, slopes, dr)  # (n-q) x r
    images = [tgt.coord(f"y{j}") for j in range(q)]
    tangential = [
        [src.const(dr.q()) * dr.shape.choice([src.one(), src.coord("z0"), sin(src.coord("z0"))]) for _ in range(r)]
        for _ in range(q)
    ]
    # write the anchor on the target chart: z_j -> y_j
    def lift(f: ScalarFn) -> ScalarFn:
        return f.substitute(tgt, images)

    anchor = [
        [lift(tangential[j][t]) for j in range(q)] + [lift(normal[j][t]) for j in range(n - q)]
        for t in range(r)
    ]
    b = AlgebroidPresentation("A" + tag, tgt, tuple(f"a{t}" for t in range(r)), anchor)
    basemap = [src.coord(f"z{j}") for j in range(q)] + [src.zero()] * (n - q)
    return b, src, basemap


def _extension_input(n, c, kind, slopes, dr, tag):
    """TM x (abelian rank-c bundle) over a chart of dimension n, with the
    kernel included through a planted full-rank c x c matrix: a valid
    extension, so every check must pass."""
    chart = Chart("E" + tag, tuple(f"z{j}" for j in range(n)))
    zero, one = chart.zero(), chart.one()
    frame = tuple(f"d{j}" for j in range(n)) + tuple(f"k{s}" for s in range(c))
    anchor = [[one if j == i else zero for j in range(n)] for i in range(n)]
    anchor += [[zero] * n for _ in range(c)]
    total = AlgebroidPresentation("Tot" + tag, chart, frame, anchor)
    kernel = AlgebroidPresentation("K" + tag, chart, tuple(f"k{s}" for s in range(c)), [[zero] * n for _ in range(c)])
    quotient = tangent_algebroid(chart)
    g = _planted_matrix(chart, c, c, c, kind, slopes, dr)
    incl = base_preserving_morphism("inc" + tag, kernel, total, [[zero] * c for _ in range(n)] + g)
    proj = base_preserving_morphism(
        "prj" + tag, total, quotient, [[one if j == i else zero for j in range(n + c)] for i in range(n)]
    )
    return ExtensionPresentation(kernel, total, quotient, incl, proj, LineSection(one))


def rank_cases(seed: int) -> list[Case]:
    cases: list[Case] = []
    for idx, (check, n, q, r, k, kind, slopes, copies) in enumerate(_RANK_PLAN):
        for rep in range(copies):
            tag = f"{rep}_{idx}"
            cid = f"{check}/n{n}q{q}r{r}k{k}/{kind}{max(slopes)}/{rep}"
            dr = Draw(seed, f"{idx}/{rep}")
            qseed = dr.sampling_seed()
            if check == "extension":
                ext = _extension_input(n, r, kind, slopes, dr, tag)
                size = {"shape": [r, r], "rank": r, "max_slope": max(slopes), "kind": kind}
                cases.append(
                    Case(cid, check, "pass", lambda e=ext, s=qseed: _passed(check_extension(e, seed=s)), size)
                )
                continue
            b, src, basemap = _admissibility_input(n, q, r, k, kind, slopes, dr, tag)
            if check == "admissible":
                size = {"shape": [n, r + q], "rank": q + k, "max_slope": max(slopes), "kind": kind}
                want = f"pass rank {r - k}"
                call = lambda b=b, src=src, bm=basemap, s=qseed: _admissible(b, src, bm, s)
            else:
                size = {"shape": [n, q + r], "rank": q + k, "max_slope": max(slopes), "kind": kind}
                want = "pass" if q + k == n else "fail"
                call = lambda b=b, src=src, bm=basemap, s=qseed: _passed(check_transverse(b, src, bm, seed=s))
            cases.append(Case(cid, check, want, call, size))
    return cases


def _admissible(b, src, basemap, seed) -> str:
    rep = check_admissible(b, src, basemap, seed=seed)
    return f"{_passed(rep)} rank {rep.data.get('rank')}"


GENERATORS = {
    "ansatz": ansatz_cases,
    "identities": identities_cases,
    "rank": rank_cases,
}
