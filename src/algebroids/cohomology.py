"""Exactness of 1-cocycles, decided inside finite ansatz spaces.

Exactness of a cocycle alpha asks for a function f with d_A f = alpha.
Globally this is undecidable, so the solver works inside a finite
dimensional ansatz (polynomials up to a degree, Fourier modes up to a
bound on periodic coordinates, optional exp slopes) with exact rational
linear algebra, and the verdict is three-valued:

* exact, with the primitive exhibited;
* certified non-exact, via the vanishing-mean obstruction along a
  periodic coordinate (sound globally, not just in the ansatz);
* not exact within the ansatz (unknown).

The operator of that linear algebra, d_A on the basis of a space, depends
only on the algebroid and the space, not on the cocycle: an `AnsatzSpace`
factors it once per algebroid, on its first solve, and keeps it.  Reuse
one space across the `classify` and `cohomologous` calls on a chart, so
that every cocycle after the first costs only its right-hand side.  The
operator is written from term keys, not through the ring: each basis
function is one key x^m * trig * exp, whose partial derivatives are at
most three known keys (`symexpr.derivative_items`), and a column is those
keys times the terms of the anchor, merged once per frame index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb, lcm
from typing import Optional, Sequence, Union

from .core import AlgebroidPresentation, FormField, d_A, function_form
from .morphisms import Morphism, pullback_form
from .ratlinalg import FactoredSystem, rat_solve, sample_pairs
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
    coordinates, times optional exp atoms with the given slope vectors over
    non-periodic coordinates.

    A space keeps its basis and, per algebroid it has solved for, d_A on
    that basis factored once (see `solve_exact`); reuse one space across
    the `classify` and `cohomologous` calls on its chart.  The memo takes
    no part in `==` and `hash`.
    """

    chart: Chart
    degree: int = 4
    fourier_modes: int = 4
    exp_slopes: tuple[tuple[Fraction, ...], ...] = ()
    _basis: list[ScalarFn] = field(default_factory=list, init=False, compare=False, repr=False)
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
        everywhere = range(chart.dim)
        exps = [spread(everywhere, [_slope(Fraction(c)) for c in s]) for s in [(), *self.exp_slopes]]
        out = [ScalarFn(chart, {(m, t, e): 1}) for m in monos for t in trigs for e in exps]
        self._basis[:] = out  # one replacement: two fills leave one copy
        return list(out)

    def operator(self, a: AlgebroidPresentation) -> "AnsatzOperator":
        """d_A on the basis for the algebroid `a`, built on first use."""
        entry = self._operators.get(id(a))
        if entry is None:
            entry = self._operators[id(a)] = (a, AnsatzOperator.build(a, self.basis()))
        return entry[1]


@dataclass
class AnsatzOperator:
    """d_A on an ansatz basis as a factored rational system.

    Row `index[(i, key)]` is the coefficient of the term `key` in the i-th
    frame component, column j the basis function `basis[j]`; each entry is
    the `key` coefficient of rho(e_i) applied to `basis[j]`, the i-th
    component of d_A `basis[j]`.  Rows are numbered in order of first
    appearance, frame index first, then basis function, then canonical term
    order.

    `build` writes the entries straight from term keys, in int numerators
    over one denominator per frame index: the derivative items of each
    basis function along each anchored coordinate are taken once,
    multiplied by the numerators of the anchor entries and merged once per
    (frame index, basis function).  The rows go to `FactoredSystem` as
    those int numerators, with the frame index's denominator as the row
    scale, so no entry is ever a ``Fraction``.
    """

    basis: list[ScalarFn]
    index: dict[tuple[int, TermKey], int]
    system: FactoredSystem

    @classmethod
    def build(cls, a: AlgebroidPresentation, basis: list[ScalarFn]) -> "AnsatzOperator":
        if basis and basis[0].chart != a.chart:
            raise SymExprError(f"chart mismatch: {a.chart.name!r} vs {basis[0].chart.name!r}")
        # per frame index, the non-zero anchor entries as
        # (coordinate, numerator items, denominator, has trig terms)
        anchor = [[(k, f.num.items(), f.den, _has_trig(f.num)) for k, f in row] for row in a.anchor_rows]
        coords = {k for row in anchor for k, *_ in row}
        # a basis function is one key with numerator 1 over den 1, so each
        # derivative is its items over their slope scale s alone
        derivs = [{k: derivative_items(b.num, k) for k in coords} for b in basis]
        trigs = [_has_trig(b.num) for b in basis]
        scale = lcm(*(s for d in derivs for _, s in d.values()))
        index: dict[tuple[int, TermKey], int] = {}
        rows: list[dict[int, int]] = []
        scales: list[int] = []
        for i, entries in enumerate(anchor):
            # one denominator for the whole frame index: a multiple of the
            # denominator of every product written into its rows
            den = lcm(*(e_den for _, _, e_den, _ in entries)) * scale
            if any(trigs) and any(trig for *_, trig in entries):
                den *= 2
            for j, d in enumerate(derivs):
                items: list[tuple[TermKey, int]] = []
                for k, entry, e_den, trig in entries:
                    ditems, s = d[k]
                    trig2 = trig and trigs[j]
                    c = den // (e_den * s * 2) if trig2 else den // (e_den * s)
                    _product_items(items, entry, ditems, c, trig2)
                merged: dict[TermKey, int] = {}
                for key, q in items:
                    merged[key] = merged.get(key, 0) + q
                nonzero = [(key, q) for key, q in merged.items() if q]
                # a term met for the first time opens a row, in canonical order
                for key in sorted((key for key, _ in nonzero if (i, key) not in index), key=_term_sort_key):
                    index[(i, key)] = len(rows)
                    rows.append({})
                    scales.append(den)
                for key, q in nonzero:
                    rows[index[(i, key)]][j] = q
        return cls(basis, index, FactoredSystem(rows, len(basis), scales))


@dataclass
class NoSolutionInAnsatz:
    """Rank-deficiency witness: a rational combination of the equations
    that reads 0 = nonzero, proving no primitive exists in the space.

    The witness has one entry per row of the stored operator (see
    `AnsatzOperator.index`), then one per right-hand-side term that is in
    no row of the index, in frame order and canonical term order."""

    witness: list[Fraction]
    detail: str = ""


@dataclass
class NonExactCertificate:
    """Sound proof of non-exactness along a periodic coordinate.

    Any global primitive is periodic in the coordinate, so the pairing of
    the cocycle with a frame combination anchored exactly on that circle
    direction must have zero constant Fourier mode; `mean` is that mode,
    exactly non-zero, and `witness_point` the sample of the remaining
    coordinates where its float value is largest, shown for illustration.
    """

    coord: str
    combo: tuple[Fraction, ...]
    mean: ScalarFn
    witness_point: tuple[Fraction, ...]
    witness_value: float


@dataclass
class Inconclusive:
    reason: str


@dataclass
class CocycleClass:
    """A closed 1-form with its decided status inside an ansatz space."""

    representative: FormField
    ansatz: AnsatzSpace
    status: str  # "exact" | "nonexact_certified" | "nonexact_in_ansatz"
    primitive: Optional[ScalarFn] = None
    certificate: Optional[NonExactCertificate] = None


def is_cocycle(alpha: FormField) -> bool:
    return d_A(alpha).is_zero()


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
    coefficient zero."""
    a = alpha.algebroid
    if not is_cocycle(alpha):
        raise PreconditionFailure("solve_exact expects a closed 1-form")
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
        return NoSolutionInAnsatz(witness, "inconsistent coefficient matching")
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


PERIOD_SAMPLES = 20  # the points a period certificate picks its witness from


def period_certificate(
    alpha: FormField,
    combo: Sequence[Fraction],
    coord: str,
    seed: int = 0,
) -> Union[NonExactCertificate, Inconclusive]:
    """Vanishing-mean obstruction along a periodic coordinate.

    `combo` must have rational-constant coefficients and anchor exactly the
    coordinate field of `coord` (PreconditionFailure otherwise).  The exact
    theta-mean of the pairing decides: a non-zero one is the certificate,
    however small its values.  The mean is evaluated at `PERIOD_SAMPLES`
    points only to pick the displayed witness, the first largest value.
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
        return Inconclusive("constant Fourier mode vanishes")
    # the mean does not depend on the circle coordinate: draw the others, put 0 there
    pairs = [[*p[:j], (0, 1), *p[j:]] for p in sample_pairs(chart.dim - 1, seed, PERIOD_SAMPLES, 60, 13)]
    values = mean.evaluate([[p / q for p, q in pt] for pt in pairs]).tolist()
    # the first largest |value|, a nan sample counting as 0
    sizes = [abs(v) if v == v else 0.0 for v in values]
    best = sizes.index(max(sizes))
    witness = tuple(Fraction(p, q) for p, q in pairs[best])
    return NonExactCertificate(coord, tuple(combo), mean, witness, values[best])


def classify(
    alpha: FormField, space: AnsatzSpace, seed: int = 0
) -> CocycleClass:
    """Exactness verdict: primitive, sound nonexactness certificate, or
    unknown-within-ansatz.  Status never downgrades."""
    res = solve_exact(alpha, space)
    if isinstance(res, ScalarFn):
        return CocycleClass(alpha, space, "exact", primitive=res)
    a = alpha.algebroid
    for k, per in enumerate(a.chart.periodic):
        if not per:
            continue
        coord = a.chart.coords[k]
        combo = find_circle_section(a, coord)
        if combo is None:
            continue
        cert = period_certificate(alpha, combo, coord, seed=seed)
        if isinstance(cert, NonExactCertificate):
            return CocycleClass(alpha, space, "nonexact_certified", certificate=cert)
    return CocycleClass(alpha, space, "nonexact_in_ansatz")


@dataclass
class CohomologousVerdict:
    verdict: str  # "cohomologous" | "distinct_certified" | "unknown_in_ansatz"
    primitive: Optional[ScalarFn] = None
    certificate: Optional[NonExactCertificate] = None


def cohomologous(
    alpha: FormField, beta: FormField, space: AnsatzSpace, seed: int = 0
) -> CohomologousVerdict:
    cls = classify(alpha - beta, space, seed=seed)
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
    seed: int = 0,
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
    rep.add("pulled cocycle is closed", is_cocycle(pulled))
    res = solve_exact(pulled, space_source)
    if isinstance(res, ScalarFn):
        basic = _is_basic(res, fiber_idx)
        rep.add("primitive of the pull-back is basic", basic, str(res))
        if basic:
            g = _descend(res, src_chart, tgt_chart)
            residual = alpha - d_A(function_form(proj.target, g))
            rep.residual("descended primitive solves the base cocycle", residual)
    else:
        cls_base = classify(alpha, space_target, seed=seed)
        cls_pull = classify(pulled, space_source, seed=seed)
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
