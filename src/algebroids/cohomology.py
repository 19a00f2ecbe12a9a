"""Exactness of 1-cocycles, decided inside finite ansatz spaces.

Exactness of a cocycle alpha asks for a function f with d_A f = alpha.
Globally this is undecidable, so the solver works inside a finite
dimensional ansatz (polynomials up to a degree, Fourier modes up to a
bound on periodic coordinates, optional exp slopes) and the verdict is
three-valued:

* exact, with the primitive exhibited;
* certified non-exact, via the vanishing-mean obstruction along a
  periodic coordinate (sound globally, not just in the ansatz);
* not exact within the ansatz (unknown).

On a tangent algebroid (identity anchor, no brackets) `classify` finds
the primitive by integration, coordinate by coordinate, in closed form
(`antiderivative`): the Poincare-lemma homotopy with periodic factors.
The primitive is unique up to a constant, so alpha has one in the space
exactly when every term of the integrated one is a basis key of the
space (`AnsatzSpace.__contains__`), and no linear system is built.

On any other algebroid `solve_exact` matches coefficients with exact
rational linear algebra.  Its operator, d_A on the basis of a space,
depends only on the algebroid and the space, not on the cocycle: an
`AnsatzSpace` factors it once per algebroid, on its first solve, and
keeps it.  Reuse one space across the `classify` and `cohomologous` calls
on a chart, so that every cocycle after the first costs only its
right-hand side.  The operator is written from term keys, not through the
ring: each basis function is one key x^m * trig * exp, whose partial
derivatives are at most three known keys (`symexpr.derivative_items`).
An anchor entry that is one trig-free term q * x^m * exp(d.x), the only
kind the stock algebroids have, shifts those keys by (m, d) and scales
their coefficients; only other entries are multiplied out term by term.
The space also keeps the algebroid's circle section per periodic
coordinate, which `classify` searches once and reads after that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb, lcm
from operator import add
from typing import Optional, Sequence, Union

from .core import AlgebroidPresentation, FormField, d_A, function_form
from .morphisms import Morphism, pullback_form
from .ratlinalg import FactoredSystem, rat_solve
from .report import CheckReport
from .symexpr import (
    Chart,
    ChartMap,
    ScalarFn,
    SymExprError,
    TermKey,
    Trig,
    _has_trig,
    _lex_sign,
    _product_items,
    _slope,
    _term_sort_key,
    _vec_add,
    derivative_items,
    lincomb,
)


class CohomologyError(Exception):
    pass


class PreconditionFailure(CohomologyError):
    pass


class AnsatzTooLarge(CohomologyError):
    """An ansatz space whose basis would exceed `MAX_ANSATZ_BASIS`."""


# the largest basis an ansatz space may have: a larger space is refused
# before any basis function or operator column is built
MAX_ANSATZ_BASIS = 20_000


@dataclass(frozen=True)
class AnsatzSpace:
    """Finite-dimensional trig/exp-polynomial space on a chart.

    Basis: monomials of total degree <= degree in non-periodic coordinates,
    times sin/cos of integer modes bounded by fourier_modes in the periodic
    coordinates, times optional exp atoms with the given slope vectors.  A
    slope vector has one int or Fraction per coordinate of the chart, is
    not zero and differs from the others (a ValueError or TypeError names
    any other).

    A space keeps, per algebroid it has answered for, d_A on its basis
    factored once (see `solve_exact`) and the algebroid's circle section
    per periodic coordinate (see `circle_section`); the basis and the
    operators are built only for algebroids that are not tangent, whose
    questions `classify` answers by integration and `in`.  Reuse one space
    across the `classify` and `cohomologous` calls on its chart.  The memo
    takes no part in `==` and `hash`.
    """

    chart: Chart
    degree: int = 4
    fourier_modes: int = 4
    exp_slopes: tuple[tuple[Fraction, ...], ...] = ()
    _basis: list[ScalarFn] = field(default_factory=list, init=False, compare=False, repr=False)
    # id(algebroid) -> (algebroid, its factored operator) and (algebroid,
    # its circle sections by coordinate); the algebroid is held so that its
    # id is not reused while the entry lives
    _operators: dict[int, tuple[AlgebroidPresentation, "AnsatzOperator"]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    _circles: dict[int, tuple[AlgebroidPresentation, dict[str, Optional[tuple[Fraction, ...]]]]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.degree < 0 or self.fourier_modes < 0:
            raise ValueError(
                f"ansatz degree and Fourier modes must be non-negative, "
                f"got degree {self.degree} and {self.fourier_modes} modes"
            )
        for n, s in enumerate(self.exp_slopes):
            if len(s) != self.chart.dim:
                raise ValueError(
                    f"exp slope {s!r} has {len(s)} entries, chart {self.chart.name!r} "
                    f"has {self.chart.dim} coordinates"
                )
            for c in s:
                if not isinstance(c, (int, Fraction)):
                    raise TypeError(
                        f"an exp slope must be an int or a Fraction, got {type(c).__name__} {c!r} in {s!r}"
                    )
            # a zero slope is the basis without exp, a repeated one its copy
            if not any(s) or s in self.exp_slopes[:n]:
                raise ValueError(f"exp slope {s!r} is {'repeated' if any(s) else 'zero'}")
        size = self.size
        if size > MAX_ANSATZ_BASIS:
            raise AnsatzTooLarge(
                f"ansatz on chart {self.chart.name!r} with degree {self.degree} and "
                f"{self.fourier_modes} Fourier modes has {size} basis functions, "
                f"more than the {MAX_ANSATZ_BASIS} allowed"
            )

    @property
    def size(self) -> int:
        """The number of basis functions, read off the counts: monomials of
        degree <= d in n non-periodic coordinates, C(d + n, n), times
        (2 * modes + 1)^p trig atoms (1, and sin and cos per positive mode
        vector) in p periodic coordinates, times 1 + #exp slopes."""
        per = sum(self.chart.periodic)
        nonper = self.chart.dim - per
        trigs = (2 * self.fourier_modes + 1) ** per
        return comb(self.degree + nonper, nonper) * trigs * (1 + len(self.exp_slopes))

    def __contains__(self, key: TermKey) -> bool:
        """Whether the term key is the key of a basis function, read off
        the degree, the modes and the exp slopes without building the
        basis: no power of a periodic coordinate, total degree at most
        `degree`, integral modes on periodic coordinates only, each at most
        `fourier_modes` in size, and a zero or listed exp slope."""
        mono, trig, expv = key
        if sum(mono) > self.degree or any(m for m, p in zip(mono, self.chart.periodic) if p):
            return False
        if trig is not None and not all(
            type(c) is int and abs(c) <= self.fourier_modes if p else c == 0
            for c, p in zip(trig[1], self.chart.periodic)
        ):
            return False
        return not any(expv) or any(expv == tuple(s) for s in self.exp_slopes)

    def basis(self) -> list[ScalarFn]:
        """Monomial x trig atom x exp atom, each function built as its one
        term key with coefficient 1, in that nesting order."""
        if self._basis:
            return list(self._basis)
        chart = self.chart
        nonper = [i for i, p in enumerate(chart.periodic) if not p]
        per = [i for i, p in enumerate(chart.periodic) if p]

        def spread(idxs: Sequence[int], vals: Sequence) -> tuple:
            """``vals`` at the coordinates ``idxs``, 0 at the others."""
            full = [0] * chart.dim
            for i, v in zip(idxs, vals):
                full[i] = v
            return tuple(full)

        degs = product(range(self.degree + 1), repeat=len(nonper))
        monos = [spread(nonper, d) for d in degs if sum(d) <= self.degree]
        trigs: list[Trig] = [None]
        for modes in product(range(-self.fourier_modes, self.fourier_modes + 1), repeat=len(per)):
            # lexicographically positive representatives only
            if _lex_sign(modes) > 0:
                slopes = spread(per, modes)
                trigs += [("sin", slopes), ("cos", slopes)]
        exps = [tuple(_slope(Fraction(c)) for c in s) for s in [chart._zerovec(), *self.exp_slopes]]
        out = [ScalarFn(chart, {(m, t, e): 1}) for m in monos for t in trigs for e in exps]
        self._basis[:] = out  # one replacement: two fills leave one copy
        return list(out)

    def operator(self, a: AlgebroidPresentation) -> "AnsatzOperator":
        """d_A on the basis for the algebroid `a`, built on first use."""
        entry = self._operators.get(id(a))
        if entry is None:
            entry = self._operators[id(a)] = (a, AnsatzOperator.build(a, self.basis()))
        return entry[1]

    def circle_section(self, a: AlgebroidPresentation, coord: str) -> Optional[tuple[Fraction, ...]]:
        """`find_circle_section(a, coord)`, searched on first use."""
        held = self._circles.setdefault(id(a), (a, {}))[1]
        if coord not in held:
            held[coord] = find_circle_section(a, coord)
        return held[coord]


@dataclass(frozen=True)
class AnsatzOperator:
    """d_A on an ansatz basis as a factored rational system.

    Row `index[(i, key)]` is the coefficient of the term `key` in the i-th
    frame component, column j the basis function `basis[j]`; each entry is
    the `key` coefficient of rho(e_i) applied to `basis[j]`, the i-th
    component of d_A `basis[j]`.  Rows are numbered in order of first
    appearance, frame index first, then basis function, then canonical term
    order.

    `build` writes the entries straight from term keys, in int numerators
    over one denominator per frame index.  The derivative items of each
    basis function along each anchored coordinate are taken once, and each
    frame index splits its anchor entries once.  An entry that is one
    trig-free term q * x^m * exp(d.x) multiplies the items by key
    arithmetic: m is added to the monomial, d to the exp slope, and the
    numerator is scaled by one constant.  Any other entry goes through
    `symexpr._product_items`.  A cell (frame index, basis function) merges
    its items only when it has two entries or one of the other kind: one
    shift of the distinct keys of a one-term derivative gives distinct
    keys with non-zero values.  A new key opens a row, found again through
    a dict per frame index.  The rows go to `FactoredSystem` as those int
    numerators, with the frame index's denominator as the row scale, so no
    entry is ever a ``Fraction``.

    Only `solve_exact` builds it: `classify` integrates on a tangent
    algebroid and builds none there.
    """

    basis: list[ScalarFn]
    index: dict[tuple[int, TermKey], int]
    system: FactoredSystem

    @classmethod
    def build(cls, a: AlgebroidPresentation, basis: list[ScalarFn]) -> "AnsatzOperator":
        if basis and basis[0].chart != a.chart:
            raise SymExprError(f"chart mismatch: {a.chart.name!r} vs {basis[0].chart.name!r}")
        coords = {k for row in a.anchor_rows for k, _ in row}
        # a basis function is one key with numerator 1 over den 1, so each
        # derivative is its items over their slope scale s alone
        derivs = [{k: derivative_items(b.num, k) for k in coords} for b in basis]
        trigs = [_has_trig(b.num) for b in basis]
        scale = lcm(*(s for d in derivs for _, s in d.values()))
        index: dict[tuple[int, TermKey], int] = {}
        rows: list[dict[int, int]] = []
        scales: list[int] = []
        for i, row in enumerate(a.anchor_rows):
            # one denominator for the whole frame index: a multiple of the
            # denominator of every product written into its rows
            den = lcm(*(f.den for _, f in row)) * scale
            if any(trigs) and any(_has_trig(f.num) for _, f in row):
                den *= 2
            # an entry q * x^m * exp(d.x) shifts the keys of a derivative
            # by (m, d), as (coordinate, q * den // its den, m, d), with m
            # and d None when zero; any other entry is multiplied out
            shifts = []
            general = []
            for k, f in row:
                ((m, t, e), q), *more = f.num.items()
                if more or t is not None:
                    general.append((k, f.num.items(), den // f.den, _has_trig(f.num)))
                else:
                    shifts.append((k, q * (den // f.den), m if any(m) else None, e if any(e) else None))
            # one shift gives distinct keys: only two entries or a product
            # of many terms can meet on a key
            merge = len(row) > 1 or general
            rowof: dict[TermKey, int] = {}
            for j, d in enumerate(derivs):
                items: list[tuple[TermKey, int]] = []
                for k, c, m1, e1 in shifts:
                    ditems, s = d[k]
                    c //= s
                    if m1 is None and e1 is None:
                        items += [(key, q * c) for key, q in ditems]
                    else:
                        for (m2, t2, e2), q in ditems:
                            mono = m2 if m1 is None else tuple(map(add, m1, m2))
                            expv = e2 if e1 is None else _vec_add(e1, e2)
                            items.append(((mono, t2, expv), q * c))
                for k, f_items, c, trig in general:
                    ditems, s = d[k]
                    trig2 = trig and trigs[j]
                    c //= 2 * s if trig2 else s
                    _product_items(items, f_items, ditems, c, trig2, a.chart._products)
                if merge:
                    merged: dict[TermKey, int] = {}
                    for key, q in items:
                        merged[key] = merged.get(key, 0) + q
                    items = [(key, q) for key, q in merged.items() if q]
                # a term met for the first time opens a row, in canonical order
                new = sorted([key for key, _ in items if key not in rowof], key=_term_sort_key)
                for key in new:
                    rowof[key] = index[(i, key)] = len(rows)
                    rows.append({})
                scales += [den] * len(new)
                for key, q in items:
                    rows[rowof[key]][j] = q
        return cls(basis, index, FactoredSystem(rows, len(basis), scales))


@dataclass
class NoSolutionInAnsatz:
    """Rank-deficiency witness: a rational combination of the equations
    that reads 0 = nonzero, proving no primitive exists in the space.

    The witness has one entry per row of the stored operator (see
    `AnsatzOperator.index`), then one per right-hand-side term that is in
    no row of the index, in frame order and canonical term order."""

    witness: list[Fraction]


@dataclass
class NonExactCertificate:
    """Sound proof of non-exactness along a periodic coordinate.

    Any global primitive is periodic in the coordinate, so the pairing of
    the cocycle with a frame combination anchored exactly on that circle
    direction must have zero constant Fourier mode; `mean` is that mode,
    exactly non-zero, and it is the whole certificate: no point is sampled.
    """

    coord: str
    combo: tuple[Fraction, ...]
    mean: ScalarFn


@dataclass
class Inconclusive:
    reason: str


@dataclass
class CocycleClass:
    """The decided status of a closed 1-form inside an ansatz space."""

    status: str  # "exact" | "nonexact_certified" | "nonexact_in_ansatz"
    primitive: Optional[ScalarFn] = None
    certificate: Optional[NonExactCertificate] = None


def is_cocycle(alpha: FormField) -> bool:
    return d_A(alpha).is_zero()


# the PreconditionFailure of a form that is not closed, on both routes
NOT_CLOSED = "solve_exact expects a closed 1-form"


def _match_terms(equations: list[tuple[list[ScalarFn], ScalarFn]]):
    """Turn ScalarFn-linear equations sum_b c_b f_b = g into rational rows."""
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for coeffs, target in equations:
        fns = coeffs + [target]
        # term key -> dense row, right-hand side last
        index: dict[TermKey, list[Fraction]] = {}
        for j, f in enumerate(fns):
            for key, q in f.terms.items():
                row = index.get(key)
                if row is None:
                    row = index[key] = [Fraction(0)] * len(fns)
                row[j] = q
        for key in sorted(index, key=_term_sort_key):
            row = index[key]
            rhs.append(row.pop())
            rows.append(row)
    return rows, rhs


def solve_exact(
    alpha: FormField, space: AnsatzSpace
) -> Union[ScalarFn, NoSolutionInAnsatz]:
    """Find f in the ansatz with d_A f = alpha, by exact linear algebra.

    The coefficients of alpha are matched against the operator the space
    keeps for alpha's algebroid; the primitive has every free basis
    coefficient zero.  This is the general route, and the only one that
    gives a Farkas witness; `classify` takes it on algebroids that are not
    tangent."""
    a = alpha.algebroid
    if not is_cocycle(alpha):
        raise PreconditionFailure(NOT_CLOSED)
    op = space.operator(a)
    # every component's numerators, over the lcm of their denominators
    comps = [alpha.component((i,)) for i in range(a.rank)]
    den = lcm(*(f.den for f in comps))
    rhs: dict[int, int] = {}
    outside: list[int] = []
    for i, f in enumerate(comps):
        scale = den // f.den
        for key, q in f.num.items():
            r = op.index.get((i, key))
            if r is None:
                outside.append(q * scale)
            else:
                rhs[r] = q * scale
    sol, witness = op.system.solve(rhs, outside, den)
    if sol is None:
        return NoSolutionInAnsatz(witness)
    return lincomb(a.chart, [(c, b) for c, b in zip(sol, op.basis) if c])


def find_circle_section(
    a: AlgebroidPresentation, coord: str
) -> Optional[tuple[Fraction, ...]]:
    """Rational-constant frame coefficients c with rho(sum c_i e_i) exactly
    the unit vector field of the given periodic coordinate, if any."""
    j = a.chart.index(coord)
    target = [
        a.chart.one() if k == j else a.chart.zero() for k in range(a.chart.dim)
    ]
    equations = []
    for k in range(a.chart.dim):
        coeffs = [a.anchor[i][k] for i in range(a.rank)]
        equations.append((coeffs, target[k]))
    rows, rhs = _match_terms(equations)
    sol, _ = rat_solve(rows, rhs) if rows else ([], None)
    if sol is None:
        return None
    return tuple(sol)


# the one Inconclusive reason that decides the mean: it is zero
MEAN_VANISHES = "constant Fourier mode vanishes"


def period_certificate(
    alpha: FormField,
    combo: Sequence[Fraction],
    coord: str,
) -> Union[NonExactCertificate, Inconclusive]:
    """Vanishing-mean obstruction along a periodic coordinate.

    `combo` must have rational-constant coefficients and anchor exactly the
    coordinate field of `coord` (PreconditionFailure otherwise).  The exact
    theta-mean of the pairing decides: a non-zero one is the certificate,
    however small its values, and nothing is evaluated at a point.
    """
    a = alpha.algebroid
    chart = a.chart
    j = chart.index(coord)
    if not chart.periodic[j]:
        raise PreconditionFailure(f"coordinate {coord!r} is not periodic")
    if len(combo) != a.rank:
        raise PreconditionFailure("combo length must equal the rank")
    used = [(c, i) for c, i in zip(combo, range(a.rank)) if c]
    anchor = [lincomb(chart, [(c, a.anchor[i][k]) for c, i in used]) for k in range(chart.dim)]
    for k in range(chart.dim):
        want = chart.one() if k == j else chart.zero()
        if anchor[k] != want:
            raise PreconditionFailure(
                f"anchor of the combination is not d/d{coord}: "
                f"component {chart.coords[k]} is {anchor[k]}"
            )
    pairing = lincomb(chart, [(c, alpha.component((i,))) for c, i in used])
    # constant Fourier mode in the chosen coordinate
    mean_terms = []
    for (mono, trig, expv), q in pairing.num.items():
        if mono[j] != 0 or expv[j] != 0:
            return Inconclusive(
                f"pairing depends non-periodically on {coord!r}; mean undefined"
            )
        if trig is not None and trig[1][j] != 0:
            continue
        mean_terms.append(((mono, trig, expv), q))
    mean = ScalarFn._make(chart, mean_terms, pairing.den)
    if mean.is_zero():
        return Inconclusive(MEAN_VANISHES)
    return NonExactCertificate(coord, tuple(combo), mean)


def antiderivative(f: ScalarFn, j: int) -> ScalarFn:
    """A function whose partial derivative along coordinate ``j`` is ``f``,
    term by term in closed form; it has no constant term.

    A term q * x^m * trig(c.x) * exp(d.x) is q * x^m times the real (cos,
    or no trig atom) or imaginary (sin) part of exp((d + i c).x).  Along
    x = x_j, with lambda = d_j + i c_j, the integral of x^m is x^(m+1) /
    (m+1) when lambda = 0, and otherwise

        int x^m e^(lambda x) dx = e^(lambda x) sum_k (-1)^k m!/(m-k)! x^(m-k) / lambda^(k+1).

    With L the lcm of the denominators of c_j and d_j, 1/lambda is
    (A + iB)/N for the ints A = L^2 d_j, B = -L^2 c_j and N = L^2 (d_j^2 +
    c_j^2), so the term's items are int numerators over N^(m+1): the real
    part of each coefficient goes to the term's own atom and the imaginary
    part to the other atom of c.  The items of all terms go into one
    `ScalarFn._make`, over the lcm of their denominators.
    """
    pieces: list[tuple[list[tuple[TermKey, int]], int]] = []
    for (mono, trig, expv), q in f.num.items():
        m = mono[j]
        c = trig[1][j] if trig is not None else 0
        d = expv[j]
        if not c and not d:
            pieces.append(([((mono[:j] + (m + 1,) + mono[j + 1 :], trig, expv), q)], m + 1))
            continue
        scale = lcm(c.denominator, d.denominator)
        dl, cl = d.numerator * (scale // d.denominator), c.numerator * (scale // c.denominator)
        a, b, n = scale * dl, -scale * cl, dl * dl + cl * cl
        if trig is not None:
            # with u = c.x: Re((p + ir) e^(iu)) = p cos u - r sin u and
            # Im((p + ir) e^(iu)) = p sin u + r cos u
            other = ("sin" if trig[0] == "cos" else "cos", trig[1])
            sign = -1 if trig[0] == "cos" else 1
        # (A + iB)^(k+1), (-1)^k m!/(m-k)! and N^(m-k) at k = 0
        re, im, fall, npow = a, b, 1, n**m
        items = []
        for k in range(m + 1):
            mono_k = mono[:j] + (m - k,) + mono[j + 1 :]
            items.append(((mono_k, trig, expv), q * fall * re * npow))
            if trig is not None:
                items.append(((mono_k, other, expv), sign * q * fall * im * npow))
            fall *= k - m
            re, im = re * a - im * b, re * b + im * a
            npow //= n
        pieces.append((items, n ** (m + 1)))
    den = lcm(*(s for _, s in pieces))
    items = [(key, q * (den // s)) for part, s in pieces for key, q in part]
    return ScalarFn._make(f.chart, items, den * f.den)


def _is_tangent(a: AlgebroidPresentation) -> bool:
    """Identity anchor on the chart's coordinates and no brackets, so that
    d_A f is (df/dx_i)_i."""
    return (
        a.rank == a.chart.dim
        and not a.structure
        and all(row == ((i, 1),) for i, row in enumerate(a.anchor_rows))
    )


def _primitive(alpha: FormField, space: AnsatzSpace) -> Optional[ScalarFn]:
    """The primitive of alpha in the space that `solve_exact` finds, or
    None when the space holds none.  On a tangent algebroid F is built
    coordinate by coordinate, F += the antiderivative of alpha_j - dF/dx_j
    along x_j; dF is closed, so dF == alpha iff alpha is closed.  F has no
    constant term, like the primitive of `solve_exact`, and primitives
    differ by constants, so alpha has one in the space iff F is in it."""
    a = alpha.algebroid
    if not _is_tangent(a):
        res = solve_exact(alpha, space)
        return res if isinstance(res, ScalarFn) else None
    coords = a.chart.coords
    comps = [alpha.component((j,)) for j in range(a.rank)]
    f = a.chart.zero()
    for j, (x, g) in enumerate(zip(coords, comps)):
        f = f + antiderivative(g - f.partial(x), j)
    if any(f.partial(x) != g for x, g in zip(coords, comps)):
        raise PreconditionFailure(NOT_CLOSED)
    return f if all(key in space for key in f.num) else None


def classify(
    alpha: FormField, space: AnsatzSpace, seed: int = 0
) -> CocycleClass:
    """Exactness verdict: primitive, sound nonexactness certificate, or
    unknown-within-ansatz.  Status never downgrades.  The primitive comes
    from integration on a tangent algebroid and from `solve_exact` on any
    other, the same function either way; a form that is not closed raises
    PreconditionFailure.  Nothing is sampled: ``seed`` is accepted and
    unread, only because the benchmark's workloads still pass it."""
    res = _primitive(alpha, space)
    if res is not None:
        return CocycleClass("exact", primitive=res)
    a = alpha.algebroid
    for coord in (c for c, per in zip(a.chart.coords, a.chart.periodic) if per):
        combo = space.circle_section(a, coord)
        if combo is None:
            continue
        cert = period_certificate(alpha, combo, coord)
        if isinstance(cert, NonExactCertificate):
            return CocycleClass("nonexact_certified", certificate=cert)
    return CocycleClass("nonexact_in_ansatz")


@dataclass
class CohomologousVerdict:
    verdict: str  # "cohomologous" | "distinct_certified" | "unknown_in_ansatz"
    primitive: Optional[ScalarFn] = None
    certificate: Optional[NonExactCertificate] = None


def cohomologous(
    alpha: FormField, beta: FormField, space: AnsatzSpace, seed: int = 0
) -> CohomologousVerdict:
    """The `classify` verdict on alpha - beta, read as a class relation.
    ``seed`` is accepted and unread, as in `classify`."""
    cls = classify(alpha - beta, space)
    if cls.status == "exact":
        return CohomologousVerdict("cohomologous", primitive=cls.primitive)
    if cls.status == "nonexact_certified":
        return CohomologousVerdict("distinct_certified", certificate=cls.certificate)
    return CohomologousVerdict("unknown_in_ansatz")


def check_pullback_injectivity(
    proj: Morphism,
    alpha: FormField,
    space_target: AnsatzSpace,
    space_source: AnsatzSpace,
) -> CheckReport:
    """Injectivity mechanism of pull-back on degree-1 classes, at ansatz level.

    `proj` is the projection of a pull-back over a surjective submersion
    (source over the big chart, target the base algebroid).  If the pulled
    cocycle is exact in the source ansatz, its primitive must be basic
    (independent of the fiber coordinates), and the induced base function
    must be a primitive of alpha.  When the pull-back is not exact, both
    levels are classified and should agree.
    """
    rep = CheckReport(f"pull-back injectivity along {proj.name}")
    if alpha.algebroid != proj.target:
        raise PreconditionFailure("cocycle must live on the projection target")
    src_chart = proj.source.chart
    tgt_chart = proj.target.chart
    fiber_idx = [
        k for k, c in enumerate(src_chart.coords) if c not in tgt_chart.coords
    ]
    pulled = pullback_form(proj, alpha)
    closed = is_cocycle(pulled)
    rep.add("pulled cocycle is closed", closed)
    if not closed:
        return rep
    res = _primitive(pulled, space_source)
    if res is not None:
        basic = _is_basic(res, fiber_idx)
        rep.add("primitive of the pull-back is basic", basic, str(res))
        if basic:
            g = _descend(res, src_chart, tgt_chart)
            residual = alpha - d_A(function_form(proj.target, g))
            rep.residual("descended primitive solves the base cocycle", residual)
    else:
        cls_base = classify(alpha, space_target)
        cls_pull = classify(pulled, space_source)
        rep.add(
            "both levels non-exact",
            cls_base.status != "exact" and cls_pull.status != "exact",
            f"base: {cls_base.status}, pull-back: {cls_pull.status}",
        )
    return rep


def _is_basic(f: ScalarFn, fiber_idx: Sequence[int]) -> bool:
    for mono, trig, expv in f.num:
        for k in fiber_idx:
            if mono[k] or expv[k] or (trig is not None and trig[1][k] != 0):
                return False
    return True


def _descend(f: ScalarFn, src: Chart, tgt: Chart) -> ScalarFn:
    """Rewrite a basic function on the big chart as a function on the base."""
    images = []
    for c in src.coords:
        if c in tgt.coords:
            images.append(tgt.coord(c))
        else:
            images.append(tgt.zero())
    return ChartMap(src, tgt, images).pull(f)
