"""Representations (flat connections) on framed bundles.

A representation is stored by one coefficient matrix per algebroid frame
section: D(e_i) eps_s = sum_t mats[i][t][s] eps_t.  Tensoriality and the
Leibniz rule hold by construction; only flatness needs checking, and it is
equivalent to the associated degree-1 differential squaring to zero.

Also here: characteristic cocycles of line-bundle representations, the
canonical representation on top-multivectors tensor top-coforms, and the
modular cocycle of a presentation.
"""

from __future__ import annotations

from functools import cache
from typing import Optional, Sequence

from .core import (
    AlgebroidPresentation,
    FormField,
    Multivector,
    d_A,
    lie_top,
    one_form,
    tangent_algebroid,
    top_bracket,
    top_form,
    top_multivector,
)
from .report import CheckReport
from .symexpr import NotAUnit, ScalarFn, lincomb

Matrix = tuple[tuple[ScalarFn, ...], ...]


class RepresentationError(Exception):
    pass


class NotFlat(RepresentationError):
    pass


class Representation:
    """A flat connection candidate on a framed bundle over an algebroid."""

    def __init__(
        self,
        algebroid: AlgebroidPresentation,
        bundle_frame: Sequence[str],
        mats: Sequence[Sequence[Sequence[ScalarFn]]],
        name: str = "D",
    ):
        self.algebroid = algebroid
        self.bundle_frame = tuple(bundle_frame)
        m = len(self.bundle_frame)
        if len(mats) != algebroid.rank:
            raise RepresentationError("one coefficient matrix per frame section required")
        self.mats: tuple[Matrix, ...] = tuple(
            tuple(tuple(row) for row in mat) for mat in mats
        )
        for mat in self.mats:
            if len(mat) != m or any(len(row) != m for row in mat):
                raise RepresentationError("coefficient matrix shape mismatch")
        self.name = name

    @property
    def bundle_rank(self) -> int:
        return len(self.bundle_frame)

    @property
    def chart(self):
        return self.algebroid.chart

    def is_line(self) -> bool:
        return self.bundle_rank == 1

    def line_coefficients(self) -> list[ScalarFn]:
        if not self.is_line():
            raise RepresentationError("not a line-bundle representation")
        return [self.mats[i][0][0] for i in range(self.algebroid.rank)]

    def __repr__(self) -> str:
        return (
            f"Representation({self.name!r}: {self.algebroid.name} on "
            f"rank-{self.bundle_rank} bundle)"
        )


class LineSection:
    """A nowhere-vanishing section of a framed line bundle, by its
    coefficient, which must be a unit of the expression class (NotAUnit
    otherwise): `char_cocycle` and `extensions.induced_rep` divide by it
    (`ScalarFn.unit_inverse`).  Nonvanishing is never sampled here; the
    sampled checks are rank claims, decided by `ratlinalg.pointwise_rank`
    or, at the one site that still samples directly, by
    `extensions.check_extension`."""

    def __init__(self, coefficient: ScalarFn):
        if not coefficient.is_unit():
            raise NotAUnit(f"line-section coefficient {coefficient} is not a unit")
        self.coefficient = coefficient


def check_flat(d: Representation) -> CheckReport:
    """Curvature residuals per frame pair; flat iff all are exactly zero.

    Each partial of a connection entry g_j[s][t] is taken once per call, on
    first use, so a pair that fails early pays for none of the later ones."""
    a = d.algebroid
    rep = CheckReport(f"flatness of {d.name}")
    coords = a.chart.coords
    m = d.bundle_rank

    @cache
    def entry_partial(j: int, s: int, t: int, c: int) -> ScalarFn:
        return d.mats[j][s][t].partial(coords[c])

    for i in range(a.rank):
        for j in range(i + 1, a.rank):
            gi, gj = d.mats[i], d.mats[j]
            brackets = a.structure.get((i, j), {})
            ok = True
            worst = ""
            for s in range(m):
                for t in range(m):
                    # rho_i(g_j) - rho_j(g_i) + [g_i, g_j] - g_[e_i, e_j], entry (s, t)
                    res = lincomb(
                        a.chart,
                        [(1, f, entry_partial(j, s, t, c)) for c, f in a.anchor_rows[i]]
                        + [(-1, f, entry_partial(i, s, t, c)) for c, f in a.anchor_rows[j]]
                        + [(1, gi[s][u], gj[u][t]) for u in range(m)]
                        + [(-1, gj[s][u], gi[u][t]) for u in range(m)]
                        + [(-1, cf, d.mats[k][s][t]) for k, cf in brackets.items()],
                    )
                    if not res.is_zero():
                        ok = False
                        worst = f"entry ({s},{t}): {res}"
                        break
                if not ok:
                    break
            rep.add(f"curvature({a.frame[i]},{a.frame[j]}) = 0", ok, worst)
    return rep


def trivial_rep(
    a: AlgebroidPresentation, bundle_frame: Sequence[str], name: str = "triv"
) -> Representation:
    zero = a.chart.zero()
    m = len(bundle_frame)
    mats = [[[zero for _ in range(m)] for _ in range(m)] for _ in range(a.rank)]
    return Representation(a, bundle_frame, mats, name)


def dual_rep(d: Representation) -> Representation:
    """Coefficient matrices of the dual action: minus transpose."""
    mats = [
        [[-d.mats[i][s][t] for s in range(d.bundle_rank)] for t in range(d.bundle_rank)]
        for i in range(d.algebroid.rank)
    ]
    frame = tuple(n + "^" for n in d.bundle_frame)
    return Representation(d.algebroid, frame, mats, d.name + "*")


def tensor_rep(d1: Representation, d2: Representation) -> Representation:
    """Kronecker-sum coefficients on the tensor frame (row-major pairs)."""
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
    return Representation(d1.algebroid, frame, mats, f"{d1.name}(x){d2.name}")


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

    def __sub__(self, other: "EValuedForm") -> "EValuedForm":
        return EValuedForm(
            self.rep, [a - b for a, b in zip(self.comps, other.comps)]
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)


def d_AE(d: Representation, s: EValuedForm, checked: bool = True) -> EValuedForm:
    """The degree-1 differential extending the representation by Leibniz."""
    if checked and not check_flat(d).passed:
        raise NotFlat(f"{d.name} has nonzero curvature")
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
    result is certified exactly closed.
    """
    if not d.is_line():
        raise RepresentationError("characteristic cocycle needs a line bundle")
    a = d.algebroid
    s = lam.coefficient
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


def modular_cocycle(
    a: AlgebroidPresentation, omega: Multivector, mu: FormField
) -> FormField:
    """Modular cocycle for the trivializing section omega (x) mu.

    omega is a top multivector on the presentation with unit coefficient,
    mu a top form on the tangent presentation of the chart.  The value on
    e_i is the coefficient of [e_i, omega] relative to omega plus that of
    the Lie derivative of mu along rho(e_i) relative to mu.  With omega =
    s e_1^..^e_r the first is the trace formula `top_bracket`,
    (rho(e_i)(s) + s sum_k C^k_ik) / s, read off without the graded
    bracket.
    """
    chart = a.chart
    top_key = tuple(range(a.rank))
    s = omega.comps.get(top_key, chart.zero())
    if omega.degree != a.rank or omega.algebroid != a:
        raise RepresentationError("omega must be a top multivector on the presentation")
    s_inv = s.unit_inverse()
    tm = mu.algebroid
    mu_key = tuple(range(chart.dim))
    g = mu.comps.get(mu_key, chart.zero())
    if mu.degree != chart.dim or tm.chart != chart:
        raise RepresentationError("mu must be a top form on the tangent presentation")
    g_inv = g.unit_inverse()
    comps = []
    for i in range(a.rank):
        t1 = top_bracket(a, i, s) * s_inv
        lie = lie_top(list(a.anchor[i]), mu)
        t2 = lie.comps.get(mu_key, chart.zero()) * g_inv
        comps.append(t1 + t2)
    alpha = one_form(a, comps)
    _certify_closed(alpha, "modular cocycle")
    return alpha


def canonical_sections(
    a: AlgebroidPresentation,
) -> tuple[Multivector, FormField]:
    """Unit-coefficient trivializations: the frame top multivector and the
    coordinate volume form."""
    omega = top_multivector(a, a.chart.one())
    mu = top_form(tangent_algebroid(a.chart), a.chart.one())
    return omega, mu


def canonical_rep(
    a: AlgebroidPresentation, omega: Multivector, mu: FormField, name: Optional[str] = None
) -> Representation:
    """The canonical line representation, trivialized by omega (x) mu.

    Its characteristic cocycle with respect to the unit section equals the
    modular cocycle for omega (x) mu.
    """
    alpha = modular_cocycle(a, omega, mu)
    mats = [[[alpha.component((i,))]] for i in range(a.rank)]
    return Representation(a, (f"L[{a.name}]",), mats, name or f"D^{a.name}")
