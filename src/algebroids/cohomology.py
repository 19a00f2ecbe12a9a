"""Exactness of 1-cocycles, decided inside finite ansatz spaces.

Exactness of a cocycle alpha asks for a function f with d_A f = alpha.
Globally this is undecidable, so the solver works inside a finite
dimensional ansatz (polynomials up to a degree, Fourier modes up to a
bound on periodic coordinates, optional exp slopes) and the verdict is
three-valued, a `report.Decision` whose evidence decided it:

* exact, with the primitive exhibited;
* certified non-exact, via the vanishing-mean obstruction along a
  periodic coordinate (sound globally, not just in the ansatz);
* not exact within the ansatz (unknown), with, on the operator route,
  the Farkas witness that proves the space holds no primitive.

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
right-hand side.  The operator is written from term maps, not through
`ScalarFn`: each basis function is one key x^m * trig * exp, whose
partial derivatives are at most three known keys
(`symexpr.derivative_terms`), and each anchor entry multiplies them
through the ring's one product kernel, `symexpr._product_terms`.

A zero form is exact with primitive 0 on either route, so `classify`
builds no operator for it.  Neither route tests closedness up front: the
integrated F has dF == alpha exactly when alpha is closed, and a solution
of the operator route proves d_A f = alpha, so `solve_exact` runs
`is_cocycle` only on an infeasible system.  A form that is not a closed
1-form raises PreconditionFailure(NOT_CLOSED) on both routes, and
`check_pullback_injectivity` reads its closedness item from that.

A period certificate needs a circle section: constant frame coefficients
anchored on a periodic coordinate field.  On a tangent algebroid that is
the coordinate's own frame vector, read off; on any other
`find_circle_section` matches coefficients and solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb, lcm
from typing import Optional, Sequence, Union

from .core import AlgebroidPresentation, FormField, d_A, function_form, is_tangent
from .morphisms import Morphism, pullback_form
from .ratlinalg import FactoredSystem, rat_solve
from .report import CheckReport, Decision
from .symexpr import (
    Chart,
    ChartMap,
    ScalarFn,
    SymExprError,
    TermKey,
    Trig,
    _has_trig,
    _lex_sign,
    _product_terms,
    _slope,
    _term_sort_key,
    derivative_terms,
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

    A space keeps one memo: per algebroid it has solved for, d_A on its
    basis factored once (see `solve_exact`).  The basis is built for each
    operator, and only for algebroids that are not tangent, whose
    questions `classify` answers by integration and `in`.  Reuse one space
    across the `classify` and `cohomologous` calls on its chart.  The memo
    takes no part in `==` and `hash`.
    """

    chart: Chart
    degree: int = 4
    fourier_modes: int = 4
    exp_slopes: tuple[tuple[Fraction, ...], ...] = ()
    # id(algebroid) -> (algebroid, its factored operator); the algebroid is
    # held so that its id is not reused while the entry lives
    _operators: dict[int, tuple[AlgebroidPresentation, "AnsatzOperator"]] = field(
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
        return [ScalarFn(chart, {(m, t, e): 1}) for m in monos for t in trigs for e in exps]

    def operator(self, a: AlgebroidPresentation) -> "AnsatzOperator":
        """d_A on the basis for the algebroid `a`, built on first use."""
        entry = self._operators.get(id(a))
        if entry is None:
            entry = self._operators[id(a)] = (a, AnsatzOperator.build(a, self.basis()))
        return entry[1]


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
    over one denominator per frame index.  The derivative term map of each
    basis function along each anchored coordinate is taken once.  Each
    non-zero anchor entry is multiplied by that derivative through the
    ring's one product kernel, `symexpr._product_terms`, and the products
    of one cell (frame index, basis function) are summed into one term
    map.  A key whose numerators cancel writes no entry, and a new key
    opens a row, found again through a dict per frame index.  The rows go
    to `FactoredSystem` as those int numerators, with the frame index's
    denominator as the row scale, so no entry is ever a ``Fraction``.

    Only `solve_exact` builds it: `classify` integrates on a tangent
    algebroid and builds none there, nor for a zero form.
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
        # derivative is its term map over its slope scale s alone
        derivs = [{k: derivative_terms(b.num, k) for k in coords} for b in basis]
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
            entries = [(k, f.num.items(), den // f.den, _has_trig(f.num)) for k, f in row]
            rowof: dict[TermKey, int] = {}
            for j, d in enumerate(derivs):
                num: dict[TermKey, int] = {}
                for k, f_items, c, trig in entries:
                    dnum, s = d[k]
                    trig2 = trig and trigs[j]
                    c //= 2 * s if trig2 else s
                    _product_terms(num, f_items, dnum.items(), c, trig2, a.chart._products)
                # a term met for the first time opens a row, in canonical order
                new = sorted([key for key, q in num.items() if q and key not in rowof], key=_term_sort_key)
                for key in new:
                    rowof[key] = index[(i, key)] = len(rows)
                    rows.append({})
                scales += [den] * len(new)
                for key, q in num.items():
                    if q:
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
    tangent.  A solution proves d_A f = alpha, so alpha is tested for
    closedness only when the system is infeasible (PreconditionFailure if
    it is not closed, or not a 1-form)."""
    a = alpha.algebroid
    if alpha.degree != 1:
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
        if not is_cocycle(alpha):
            raise PreconditionFailure(NOT_CLOSED)
        return NoSolutionInAnsatz(witness)
    return lincomb(a.chart, [(c, b) for c, b in zip(sol, op.basis) if c])


def find_circle_section(
    a: AlgebroidPresentation, coord: str
) -> Optional[tuple[Fraction, ...]]:
    """Rational-constant frame coefficients c with rho(sum c_i e_i) exactly
    the unit vector field of the given periodic coordinate, if any.  On a
    tangent algebroid the anchor is the identity, so c is the coordinate's
    unit vector, the only solution, and nothing is solved."""
    j = a.chart.index(coord)
    if is_tangent(a):
        return tuple(Fraction(int(i == j)) for i in range(a.rank))
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
    mean_terms = {}
    for (mono, trig, expv), q in pairing.num.items():
        if mono[j] != 0 or expv[j] != 0:
            return Inconclusive(
                f"pairing depends non-periodically on {coord!r}; mean undefined"
            )
        if trig is not None and trig[1][j] != 0:
            continue
        mean_terms[(mono, trig, expv)] = q
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
    part to the other atom of c.  The items of all terms are summed into
    one term map over the lcm of their denominators, which one
    `ScalarFn._make` ends.
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
    num: dict[TermKey, int] = {}
    for part, s in pieces:
        r = den // s
        for key, q in part:
            num[key] = num.get(key, 0) + q * r
    return ScalarFn._make(f.chart, num, den * f.den)


def _primitive(alpha: FormField, space: AnsatzSpace) -> Union[ScalarFn, NoSolutionInAnsatz, None]:
    """The primitive of alpha in the space that `solve_exact` finds; when
    the space holds none, `solve_exact`'s witness on the operator route and
    None on the integration route.  A space on another chart is refused,
    and so is a form of another degree than 1; a zero 1-form has the
    primitive 0, with no operator built.  On a
    tangent algebroid F is built coordinate by coordinate, F += the
    antiderivative of alpha_j - dF/dx_j along x_j; dF is closed, so dF ==
    alpha iff alpha is closed.  F has no constant term, like the primitive
    of `solve_exact`, and primitives differ by constants, so alpha has one
    in the space iff F is in it."""
    a = alpha.algebroid
    if space.chart != a.chart:
        raise SymExprError(f"chart mismatch: {a.chart.name!r} vs {space.chart.name!r}")
    if alpha.degree != 1:
        raise PreconditionFailure(NOT_CLOSED)
    if alpha.is_zero():
        return a.chart.zero()
    if not is_tangent(a):
        return solve_exact(alpha, space)
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
) -> Decision:
    """Exactness verdict, as a `Decision` with its evidence:
    ``(True, "exact", primitive)``, ``(False, "nonexact_certified",
    NonExactCertificate)`` or ``(None, "nonexact_in_ansatz", witness)``,
    the witness `solve_exact`'s `NoSolutionInAnsatz` on the operator route
    and None on the integration route.  Status never downgrades.  The zero
    form is exact with primitive 0; any other primitive comes from
    integration on a tangent algebroid and from `solve_exact` on any
    other, the same function either way.  A form that is not closed raises
    PreconditionFailure, and a space on another chart SymExprError.
    Nothing is sampled: ``seed`` is accepted and unread, only because the
    benchmark's workloads still pass it."""
    res = _primitive(alpha, space)
    if isinstance(res, ScalarFn):
        return Decision(True, "exact", res)
    a = alpha.algebroid
    for coord in (c for c, per in zip(a.chart.coords, a.chart.periodic) if per):
        combo = find_circle_section(a, coord)
        if combo is None:
            continue
        cert = period_certificate(alpha, combo, coord)
        if isinstance(cert, NonExactCertificate):
            return Decision(False, "nonexact_certified", cert)
    return Decision(None, "nonexact_in_ansatz", res)


def cohomologous(
    alpha: FormField, beta: FormField, space: AnsatzSpace, seed: int = 0
) -> Decision:
    """The `classify` decision on alpha - beta, read as a class relation:
    the same ``holds`` and evidence, with the status "cohomologous",
    "distinct_certified" or "unknown_in_ansatz".  ``seed`` is accepted and
    unread, as in `classify`."""
    cls = classify(alpha - beta, space)
    word = {True: "cohomologous", False: "distinct_certified", None: "unknown_in_ansatz"}[cls.holds]
    return cls._replace(status=word)


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
    levels are classified and should be certified non-exact: the item fails
    on an exact base and is undecided unless both are certified.  The
    pulled cocycle is closed unless `classify` refuses it with the
    PreconditionFailure NOT_CLOSED, so its closedness is decided once, by
    `classify`.
    """
    rep = CheckReport(f"pull-back injectivity along {proj.name}")
    if alpha.algebroid != proj.target:
        raise PreconditionFailure("cocycle must live on the projection target")
    src_chart = proj.source.chart
    tgt_chart = proj.target.chart
    fiber_idx = [
        k for k, c in enumerate(src_chart.coords) if c not in tgt_chart.coords
    ]
    try:
        cls_pull = classify(pullback_form(proj, alpha), space_source)
    except PreconditionFailure as exc:
        if exc.args != (NOT_CLOSED,):
            raise
        rep.add("pulled cocycle is closed", False)
        return rep
    rep.add("pulled cocycle is closed", True)
    if cls_pull.holds:
        res = cls_pull.evidence
        basic = _is_basic(res, fiber_idx)
        rep.add("primitive of the pull-back is basic", basic, str(res))
        if basic:
            g = _descend(res, src_chart, tgt_chart)
            residual = alpha - d_A(function_form(proj.target, g))
            rep.residual("descended primitive solves the base cocycle", residual)
    else:
        cls_base = classify(alpha, space_target)
        base, pull = cls_base.holds, cls_pull.holds
        rep.add(
            "both levels non-exact",
            False if base else None if None in (base, pull) else True,
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
