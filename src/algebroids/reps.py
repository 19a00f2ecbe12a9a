"""Representations (flat connections) on framed bundles.

A representation is stored by one coefficient matrix per algebroid frame
section: D(e_i) eps_s = sum_t mats[i][t][s] eps_t.  Tensoriality and the
Leibniz rule hold by construction; only flatness needs checking, and it is
equivalent to the associated degree-1 differential squaring to zero.  A
representation is frozen and owns its curvature, computed once, on first
use: `check_flat` reports it, and `char_cocycle` reads the closedness of
a connection form off it.  A dual or tensor product of representations
that hold a vanishing curvature holds one from the start.

Also here: characteristic cocycles of line-bundle representations, and
`Trivialization`, the one owner of a trivialization of the canonical line
bundle (top multivectors tensor top forms): it checks its sections once
and holds its modular cocycle, read off the presentation's own, and its
canonical line representation.  `Trivialization.of` builds one from its
two coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations, product
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .core import (
    AlgebroidPresentation,
    FormField,
    Multivector,
    d_A,
    is_tangent,
    one_form,
    tangent_algebroid,
    top_form,
    top_multivector,
)
from .report import CheckReport
from .symexpr import NotAUnit, ScalarFn, lincomb

Matrix = tuple[tuple[ScalarFn, ...], ...]


class RepresentationError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class Representation:
    """A flat connection candidate on a framed bundle over an algebroid.

    Every coefficient entry is a `ScalarFn` on the algebroid's chart; any
    other entry is refused here, when the representation is made.  The
    representation owns its curvature, `curvature`, computed on first use
    and held after that; `check_flat`, `is_flat` and `char_cocycle` read
    it.  The class is frozen so that no field can change under it."""

    algebroid: AlgebroidPresentation
    bundle_frame: tuple[str, ...]
    mats: tuple[Matrix, ...]
    name: str = "D"

    def __post_init__(self):
        a = self.algebroid
        chart = a.chart
        m = len(self.bundle_frame)
        if len(self.mats) != a.rank:
            raise RepresentationError("one coefficient matrix per frame section required")
        mats = tuple(tuple(tuple(row) for row in mat) for mat in self.mats)
        for mat in mats:
            if len(mat) != m or any(len(row) != m for row in mat):
                raise RepresentationError("coefficient matrix shape mismatch")
        for f in (f for mat in mats for row in mat for f in row):
            if not isinstance(f, ScalarFn):
                raise RepresentationError(f"coefficient entry {f!r} is not a ScalarFn")
            if f.chart is not chart and f.chart != chart:
                raise RepresentationError(f"coefficient entry {f} lives on chart {f.chart.name!r}, not {chart.name!r}")
        object.__setattr__(self, "bundle_frame", tuple(self.bundle_frame))
        object.__setattr__(self, "mats", mats)

    @property
    def bundle_rank(self) -> int:
        return len(self.bundle_frame)

    @property
    def chart(self):
        return self.algebroid.chart

    def is_line(self) -> bool:
        return self.bundle_rank == 1

    @cached_property
    def curvature(self) -> Mapping[tuple[int, int], Optional[tuple[int, int, ScalarFn]]]:
        """For each frame pair (i, j), i < j, None when the curvature
        vanishes on it, else its first non-zero entry (s, t, residual) in
        row-major order.  Entry (s, t) is

            rho_i(g_j) - rho_j(g_i) + [g_i, g_j] - g_[e_i, e_j];

        the commutator products with s == u == t, g_i[s][s] g_j[s][s] -
        g_j[s][s] g_i[s][s], cancel in the commutative ring and are not
        formed, so on a line bundle no commutator product is.  Each partial
        of an entry g_j[s][t] is taken once, on first use, so a pair that
        fails early pays for none of the later ones."""
        a = self.algebroid
        coords = a.chart.coords
        m = self.bundle_rank
        mats = self.mats

        @cache
        def entry_partial(j: int, s: int, t: int, c: int) -> ScalarFn:
            return mats[j][s][t].partial(coords[c])

        out = {}
        for i, j in combinations(range(a.rank), 2):
            gi, gj = mats[i], mats[j]
            brackets = a.structure.get((i, j), {})
            out[i, j] = None
            for s, t in product(range(m), repeat=2):
                us = [u for u in range(m) if not s == u == t]
                res = lincomb(
                    a.chart,
                    [(1, f, entry_partial(j, s, t, c)) for c, f in a.anchor_rows[i]]
                    + [(-1, f, entry_partial(i, s, t, c)) for c, f in a.anchor_rows[j]]
                    + [(1, gi[s][u], gj[u][t]) for u in us]
                    + [(-1, gj[s][u], gi[u][t]) for u in us]
                    + [(-1, cf, mats[k][s][t]) for k, cf in brackets.items()],
                )
                if not res.is_zero():
                    out[i, j] = (s, t, res)
                    break
        return MappingProxyType(out)

    def is_flat(self) -> bool:
        return all(worst is None for worst in self.curvature.values())

    def __repr__(self) -> str:
        return (
            f"Representation({self.name!r}: {self.algebroid.name} on "
            f"rank-{self.bundle_rank} bundle)"
        )


class LineSection:
    """A nowhere-vanishing section of a framed line bundle, by its
    coefficient, which must be a unit of the expression class (NotAUnit
    otherwise): `char_cocycle` and `extensions.induced_rep` divide by it
    (`ScalarFn.unit_inverse`).  Nonvanishing is never sampled here: the
    one sampled check left is the rank claim of `extensions.check_extension`
    at `ratlinalg.sample_points`; every other is exact or undecided."""

    def __init__(self, coefficient: ScalarFn):
        if not coefficient.is_unit():
            raise NotAUnit(f"line-section coefficient {coefficient} is not a unit")
        self.coefficient = coefficient


def check_flat(d: Representation) -> CheckReport:
    """Curvature residuals per frame pair; flat iff all are exactly zero.

    A new report on each call, read off the curvature ``d`` holds
    (`Representation.curvature`), so the curvature is computed once per
    representation however often it is checked."""
    a = d.algebroid
    rep = CheckReport(f"flatness of {d.name}")
    for (i, j), worst in d.curvature.items():
        detail = "" if worst is None else f"entry ({worst[0]},{worst[1]}): {worst[2]}"
        rep.add(f"curvature({a.frame[i]},{a.frame[j]}) = 0", worst is None, detail)
    return rep


def trivial_rep(
    a: AlgebroidPresentation, bundle_frame: Sequence[str]
) -> Representation:
    zero = a.chart.zero()
    m = len(bundle_frame)
    mats = [[[zero for _ in range(m)] for _ in range(m)] for _ in range(a.rank)]
    return Representation(a, bundle_frame, mats, "triv")


def _held_flat(d: Representation, *factors: Representation) -> Representation:
    """``d`` holding an all-None curvature when every one of ``factors``
    already holds one, ``d`` being built from them by an operation that
    keeps curvature zero (dual, tensor product); with no factors, when the
    caller has certified ``d`` flat.  Else ``d`` as it is, computing its
    curvature on first use."""
    if all("curvature" in f.__dict__ and f.is_flat() for f in factors):
        d.__dict__["curvature"] = MappingProxyType(dict.fromkeys(combinations(range(d.algebroid.rank), 2)))
    return d


def dual_rep(d: Representation) -> Representation:
    """Coefficient matrices of the dual action: minus transpose.  Its
    curvature is minus the transpose of the input's, so the dual of a
    representation holding a vanishing curvature holds one too."""
    mats = [
        [[-d.mats[i][s][t] for s in range(d.bundle_rank)] for t in range(d.bundle_rank)]
        for i in range(d.algebroid.rank)
    ]
    frame = tuple(n + "^" for n in d.bundle_frame)
    return _held_flat(Representation(d.algebroid, frame, mats, d.name + "*"), d)


def tensor_rep(d1: Representation, d2: Representation) -> Representation:
    """Kronecker-sum coefficients on the tensor frame (row-major pairs).
    Its curvature is R1 (x) 1 + 1 (x) R2, so when both factors hold a
    vanishing curvature the product holds one too."""
    if d1.algebroid != d2.algebroid:
        raise RepresentationError("tensor factors must share the algebroid")
    m1, m2 = d1.bundle_rank, d2.bundle_rank
    zero = d1.chart.zero()
    frame = tuple(
        f"{a}(x){b}" for a in d1.bundle_frame for b in d2.bundle_frame
    )
    mats = []
    for i in range(d1.algebroid.rank):
        g1, g2 = d1.mats[i], d2.mats[i]
        mat = [[zero for _ in range(m1 * m2)] for _ in range(m1 * m2)]
        for s1 in range(m1):
            for t1 in range(m1):
                for s2 in range(m2):
                    for t2 in range(m2):
                        val = zero
                        if s2 == t2:
                            val = val + g1[s1][t1]
                        if s1 == t1:
                            val = val + g2[s2][t2]
                        mat[s1 * m2 + s2][t1 * m2 + t2] = val
        mats.append(mat)
    return _held_flat(Representation(d1.algebroid, frame, mats, f"{d1.name}(x){d2.name}"), d1, d2)


class EValuedForm:
    """A bundle-valued form: one component form per bundle frame section."""

    def __init__(self, rep: Representation, comps: Sequence[FormField]):
        if len(comps) != rep.bundle_rank:
            raise RepresentationError("one component form per bundle frame section")
        deg = {c.degree for c in comps if not c.is_zero()}
        if len(deg) > 1:
            raise RepresentationError("mixed degrees in bundle-valued form")
        self.rep = rep
        self.comps = list(comps)
        self.degree = deg.pop() if deg else comps[0].degree

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)


def d_AE(d: Representation, s: EValuedForm) -> EValuedForm:
    """The degree-1 differential extending the representation by Leibniz; it
    squares to zero exactly when ``d`` is flat, which `check_flat` decides."""
    a = d.algebroid
    k = s.degree
    out = []
    for u in range(d.bundle_rank):
        comp = d_A(s.comps[u])
        for t in range(d.bundle_rank):
            # (-1)^k alpha_t ^ (sum_i mats[i][u][t] eps^i)
            conn = one_form(a, [d.mats[i][u][t] for i in range(a.rank)])
            term = s.comps[t].wedge(conn)
            if k % 2:
                term = -term
            comp = comp + term
        out.append(comp)
    return EValuedForm(d, out)


def char_cocycle(d: Representation, lam: LineSection) -> FormField:
    """Characteristic cocycle of a line-bundle representation.

    With lam = s*eps the value on e_i is gamma_i + rho(e_i)(s)/s; the
    result is certified exactly closed.  For a constant s that is the
    connection form gamma, and d_A gamma is the curvature of ``d``, so
    closedness is read off `Representation.curvature`; d_A runs only to
    report a curvature that does not vanish.
    """
    if not d.is_line():
        raise RepresentationError("characteristic cocycle needs a line bundle")
    a = d.algebroid
    s = lam.coefficient
    if s.is_constant():
        alpha = one_form(a, [mat[0][0] for mat in d.mats])
        if not d.is_flat():
            _certify_closed(alpha, "characteristic cocycle")
        return alpha
    inv = s.unit_inverse()  # NotAUnit if s is not invertible in the class
    comps = []
    for i in range(a.rank):
        comps.append(d.mats[i][0][0] + a.rho_apply(i, s) * inv)
    alpha = one_form(a, comps)
    _certify_closed(alpha, "characteristic cocycle")
    return alpha


def _certify_closed(alpha: FormField, what: str) -> None:
    res = d_A(alpha)
    if not res.is_zero():
        raise RepresentationError(f"{what} is not closed: d = {res}")


@dataclass(frozen=True)
class Trivialization:
    """Unit trivializing data omega (x) mu for the canonical line bundle of
    the presentation omega lives on: omega = s e_1^..^e_r a top multivector
    on it, mu = g dx_1^..^dx_n a top form on a tangent presentation of its
    chart, both of unit coefficients.

    The sections are checked once, when the trivialization is made
    (RepresentationError or NotAUnit), and it holds u = s g, `unit`.  It
    owns its modular cocycle, `modular`, and the canonical line
    representation, `line_rep`, each built on first use and held after
    that.  The class is frozen so that no field can change under them."""

    omega: Multivector
    mu: FormField
    unit: ScalarFn = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        omega, mu = self.omega, self.mu
        if not isinstance(omega, Multivector) or omega.degree != omega.algebroid.rank:
            raise RepresentationError("omega must be a top multivector on the presentation")
        chart = omega.algebroid.chart
        s = omega.component(range(omega.degree))
        s.unit_inverse()  # NotAUnit unless a unit
        tangent = isinstance(mu, FormField) and mu.algebroid.chart == chart and is_tangent(mu.algebroid)
        if not tangent or mu.degree != chart.dim:
            raise RepresentationError("mu must be a top form on the tangent presentation")
        g = mu.component(range(chart.dim))
        g.unit_inverse()
        object.__setattr__(self, "unit", s * g)

    @classmethod
    def of(
        cls, a: AlgebroidPresentation, s: Optional[ScalarFn] = None, g: Optional[ScalarFn] = None
    ) -> "Trivialization":
        """s e_1^..^e_r (x) g dx_1^..^dx_n on ``a``, each coefficient the
        chart's one when omitted: `Trivialization.of(a)` is the unit
        trivialization, whose cocycle is ``a.modular``."""
        one = a.chart.one()
        return cls(
            top_multivector(a, one if s is None else s),
            top_form(tangent_algebroid(a.chart), one if g is None else g),
        )

    @cached_property
    def modular(self) -> FormField:
        """The modular cocycle for omega (x) mu.  Rescaling the unit
        trivialization by u = s g adds d_A log u, so this is
        `AlgebroidPresentation.modular` itself when u is constant, else
        that plus (rho(e_i)(u) / u)_i, certified closed."""
        a, u = self.omega.algebroid, self.unit
        if u.is_constant():
            return a.modular
        inv = u.unit_inverse()
        alpha = a.modular + one_form(a, [a.rho_apply(i, u) * inv for i in range(a.rank)])
        _certify_closed(alpha, "modular cocycle")
        return alpha

    @cached_property
    def line_rep(self) -> Representation:
        """The canonical line representation, whose coefficients are the
        components of `modular`, holding an all-None curvature: on a line
        the curvature is d_A of the connection form, so the closedness
        `modular` was certified with is this flatness."""
        a = self.omega.algebroid
        mats = [[[self.modular.component((i,))]] for i in range(a.rank)]
        return _held_flat(Representation(a, (f"L[{a.name}]",), mats, f"D^{a.name}"))

    def on(self, a: AlgebroidPresentation) -> "Trivialization":
        """``self``, refused when omega does not live on ``a``: the check
        of a caller that reads `modular` or `line_rep` as those of ``a``."""
        if self.omega.algebroid != a:
            raise RepresentationError("omega must be a top multivector on the presentation")
        return self


def canonical_sections(
    a: AlgebroidPresentation,
) -> tuple[Multivector, FormField]:
    """The two sections of `Trivialization.of(a)`, built unchecked: the
    frame top multivector and the coordinate volume form, of unit coefficients."""
    one = a.chart.one()
    return top_multivector(a, one), top_form(tangent_algebroid(a.chart), one)


def canonical_rep(
    a: AlgebroidPresentation, omega: Multivector, mu: FormField
) -> Representation:
    """The canonical line representation, trivialized by omega (x) mu on
    ``a``: the `line_rep` of that trivialization.  Its characteristic
    cocycle with respect to the unit section equals the trivialization's
    modular cocycle."""
    return Trivialization(omega, mu).on(a).line_rep
