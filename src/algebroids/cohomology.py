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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence, Union

import numpy as np

from .core import AlgebroidPresentation, FormField, d_A, function_form
from .morphisms import Morphism, pullback_form
from .ratlinalg import rat_solve
from .report import CheckReport
from .symexpr import Chart, ScalarFn, TermKey, _term_sort_key, cos, exp, sin


class CohomologyError(Exception):
    pass


class PreconditionFailure(CohomologyError):
    pass


@dataclass(frozen=True)
class AnsatzSpace:
    """Finite-dimensional trig/exp-polynomial space on a chart.

    Basis: monomials of total degree <= degree in non-periodic coordinates,
    times sin/cos of integer modes bounded by fourier_modes in the periodic
    coordinates, times optional exp atoms with the given slope vectors over
    non-periodic coordinates.
    """

    chart: Chart
    degree: int = 4
    fourier_modes: int = 4
    exp_slopes: tuple[tuple[Fraction, ...], ...] = ()

    def basis(self) -> list[ScalarFn]:
        cached = _BASIS_CACHE.get(self)
        if cached is not None:
            return list(cached)
        chart = self.chart
        nonper = [i for i, p in enumerate(chart.periodic) if not p]
        per = [i for i, p in enumerate(chart.periodic) if p]
        monos: list[ScalarFn] = []
        for degs in product(range(self.degree + 1), repeat=len(nonper)):
            if sum(degs) > self.degree:
                continue
            f = chart.one()
            for idx, d in zip(nonper, degs):
                if d:
                    f = f * chart.coord(chart.coords[idx]) ** d
            monos.append(f)
        trigs: list[ScalarFn] = [chart.one()]
        if per:
            for modes in product(range(-self.fourier_modes, self.fourier_modes + 1), repeat=len(per)):
                if all(m == 0 for m in modes):
                    continue
                # lexicographically positive representative only
                first = next(m for m in modes if m != 0)
                if first < 0:
                    continue
                arg = chart.zero()
                for idx, m in zip(per, modes):
                    if m:
                        arg = arg + m * chart.coord(chart.coords[idx])
                trigs.append(sin(arg))
                trigs.append(cos(arg))
        exps: list[ScalarFn] = [chart.one()]
        for slope in self.exp_slopes:
            arg = chart.zero()
            for c, name in zip(slope, chart.coords):
                if c:
                    arg = arg + chart.const(c) * chart.coord(name)
            exps.append(exp(arg))
        out = []
        for m in monos:
            for t in trigs:
                for e in exps:
                    out.append(m * t * e)
        _BASIS_CACHE[self] = out
        return list(out)


_BASIS_CACHE: dict["AnsatzSpace", list[ScalarFn]] = {}


@dataclass
class NoSolutionInAnsatz:
    """Rank-deficiency witness: a rational combination of the equations
    that reads 0 = nonzero, proving no primitive exists in the space."""

    witness: list[Fraction]
    detail: str = ""


@dataclass
class NonExactCertificate:
    """Sound proof of non-exactness along a periodic coordinate.

    Any global primitive is periodic in the coordinate, so the pairing of
    the cocycle with a frame combination anchored exactly on that circle
    direction must have zero constant Fourier mode; `mean` is that mode
    and `witness_point` a sample of the remaining coordinates where it is
    numerically nonzero.
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
    """Find f in the ansatz with d_A f = alpha, by exact linear algebra."""
    a = alpha.algebroid
    if not is_cocycle(alpha):
        raise PreconditionFailure("solve_exact expects a closed 1-form")
    basis = space.basis()
    equations = []
    for i in range(a.rank):
        coeffs = [a.rho_apply(i, b) for b in basis]
        equations.append((coeffs, alpha.component((i,))))
    rows, rhs = _match_terms(equations)
    if not rows:
        return a.chart.zero() if alpha.is_zero() else NoSolutionInAnsatz([], "empty system")
    sol, witness = rat_solve(rows, rhs)
    if sol is None:
        return NoSolutionInAnsatz(witness, "inconsistent coefficient matching")
    f = a.chart.zero()
    for c, b in zip(sol, basis):
        if c:
            f = f + a.chart.const(c) * b
    return f


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


def period_certificate(
    alpha: FormField,
    combo: Sequence[Fraction],
    coord: str,
    seed: int = 0,
    samples: int = 20,
    tol: float = 1e-9,
) -> Union[NonExactCertificate, Inconclusive]:
    """Vanishing-mean obstruction along a periodic coordinate.

    `combo` must have rational-constant coefficients and anchor exactly the
    coordinate field of `coord` (PreconditionFailure otherwise).
    """
    a = alpha.algebroid
    chart = a.chart
    j = chart.index(coord)
    if not chart.periodic[j]:
        raise PreconditionFailure(f"coordinate {coord!r} is not periodic")
    if len(combo) != a.rank:
        raise PreconditionFailure("combo length must equal the rank")
    anchor = [chart.zero() for _ in range(chart.dim)]
    for c, i in zip(combo, range(a.rank)):
        if c:
            for k in range(chart.dim):
                anchor[k] = anchor[k] + chart.const(c) * a.anchor[i][k]
    for k in range(chart.dim):
        want = chart.one() if k == j else chart.zero()
        if anchor[k] != want:
            raise PreconditionFailure(
                f"anchor of the combination is not d/d{coord}: "
                f"component {chart.coords[k]} is {anchor[k]}"
            )
    pairing = chart.zero()
    for c, i in zip(combo, range(a.rank)):
        if c:
            pairing = pairing + chart.const(c) * alpha.component((i,))
    # constant Fourier mode in the chosen coordinate
    mean_terms = []
    for (mono, trig, expv), q in pairing.terms.items():
        if mono[j] != 0 or expv[j] != 0:
            return Inconclusive(
                f"pairing depends non-periodically on {coord!r}; mean undefined"
            )
        if trig is not None and trig[1][j] != 0:
            continue
        mean_terms.append(((mono, trig, expv), q))
    mean = ScalarFn._make(chart, mean_terms)
    if mean.is_zero():
        return Inconclusive("constant Fourier mode vanishes")
    if samples < 1:
        raise ValueError(f"the period certificate needs at least one sample, got samples={samples}")
    rng = random.Random(seed)
    pts = [
        tuple(
            Fraction(0) if k == j else Fraction(rng.randint(-60, 60), rng.randint(1, 13))
            for k in range(chart.dim)
        )
        for _ in range(samples)
    ]
    values = mean.evaluate(pts)
    # the first largest |value|; a nan sample is never the witness
    sizes = np.fmax(np.abs(values), 0.0)
    best = int(np.argmax(sizes))
    if not sizes[best] > tol:
        return Inconclusive("constant mode nonzero symbolically but tiny at samples")
    return NonExactCertificate(coord, tuple(combo), mean, pts[best], float(values[best]))


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
            rep.add(
                "descended primitive solves the base cocycle",
                residual.is_zero(),
                "" if residual.is_zero() else str(residual),
            )
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
    for mono, trig, expv in f.terms:
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
    return f.substitute(tgt, images)
