"""Bundle maps between presentations and the relative modular calculus.

A morphism is a base map (one scalar function on the source chart per
target coordinate) together with a fiber matrix over the source chart.
The pull-back operator acts on functions by composition and on forms by
the fiber matrix, extended multiplicatively; verification of the chain-map
condition happens on generators (coordinates and coframe), which suffices
because both differentials are derivations and the pull-back is an algebra
map.  On the generators the condition has closed forms, and
`check_morphism` evaluates those directly: on a coordinate it is anchor
compatibility, on a coframe form eps^t the bracket identity F[e_i, e_j] =
[F e_i, F e_j] along the base map, one sum of fiber minors, anchor
derivatives of fiber entries and source structure functions per source
pair, with no form pulled back or differentiated.  A morphism holds its
base map as one `symexpr.ChartMap`, prepared when the morphism is made,
and every composition goes through it.  Within one call each target
function is composed with the base map once, on first use (`_pull_once`);
no composed function is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable, Optional, Sequence

from .core import (
    AlgebroidPresentation,
    FormField,
    Multivector,
    d_A,
    one_form,
)
from .ratlinalg import scalar_det
from .report import CheckReport
from .reps import (
    Representation,
    RepresentationError,
    canonical_rep,
    check_flat,
    dual_rep,
    modular_cocycle,
    tensor_rep,
)
from .symexpr import ChartMap, ScalarFn, lincomb


class MorphismError(Exception):
    pass


class Morphism:
    """A bundle map (fiber matrix, base map) between two presentations."""

    def __init__(
        self,
        name: str,
        source: AlgebroidPresentation,
        target: AlgebroidPresentation,
        basemap: Sequence[ScalarFn],
        fiber: Sequence[Sequence[ScalarFn]],
    ):
        self.name = name
        self.source = source
        self.target = target
        if len(basemap) != target.chart.dim:
            raise MorphismError("basemap needs one component per target coordinate")
        for f in basemap:
            if f.chart != source.chart:
                raise MorphismError("basemap components must live on the source chart")
        self.basemap = tuple(basemap)
        self.chart_map = ChartMap(target.chart, source.chart, self.basemap)
        if len(fiber) != target.rank or any(len(r) != source.rank for r in fiber):
            raise MorphismError("fiber matrix must be rank_target x rank_source")
        for row in fiber:
            for f in row:
                if f.chart != source.chart:
                    raise MorphismError("fiber entries must live on the source chart")
        self.fiber = tuple(tuple(r) for r in fiber)

    def __repr__(self) -> str:
        return f"Morphism({self.name!r}: {self.source.name} -> {self.target.name})"

    def pull_scalar(self, f: ScalarFn) -> ScalarFn:
        """Compose a target-chart function with the base map."""
        return self.chart_map.pull(f)


def _pull_once(phi: Morphism, entry: Callable[..., ScalarFn]) -> Callable[..., ScalarFn]:
    """``phi.pull_scalar(entry(*key))`` by key, substituted once per key on
    first use; the pulled functions live as long as the returned closure,
    which a caller keeps for one call."""
    pulled: dict = {}

    def pull(*key):
        f = pulled.get(key)
        if f is None:
            f = pulled[key] = phi.pull_scalar(entry(*key))
        return f

    return pull


def identity_morphism(a: AlgebroidPresentation, name: Optional[str] = None) -> Morphism:
    chart = a.chart
    basemap = [chart.coord(c) for c in chart.coords]
    fiber = [
        [chart.one() if i == j else chart.zero() for j in range(a.rank)]
        for i in range(a.rank)
    ]
    return Morphism(name or f"id_{a.name}", a, a, basemap, fiber)


def base_preserving_morphism(
    name: str,
    source: AlgebroidPresentation,
    target: AlgebroidPresentation,
    fiber: Sequence[Sequence[ScalarFn]],
) -> Morphism:
    if source.chart != target.chart:
        raise MorphismError("base-preserving morphism requires a common chart")
    chart = source.chart
    return Morphism(name, source, target, [chart.coord(c) for c in chart.coords], fiber)


def compose(psi: Morphism, phi: Morphism, name: Optional[str] = None) -> Morphism:
    """The composite psi o phi (fiber matrices multiply after substitution)."""
    if phi.target is not psi.source and phi.target != psi.source:
        raise MorphismError("morphisms are not composable")
    basemap = [phi.pull_scalar(f) for f in psi.basemap]
    chart = phi.source.chart
    pulled = _pull_once(phi, lambda u, t: psi.fiber[u][t])
    fiber = []
    for u in range(psi.target.rank):
        fiber.append([
            lincomb(
                chart,
                [(1, pulled(u, t), phi.fiber[t][i]) for t in range(psi.source.rank)],
            )
            for i in range(phi.source.rank)
        ])
    return Morphism(
        name or f"{psi.name}o{phi.name}", phi.source, psi.target, basemap, fiber
    )


def pullback_form(phi: Morphism, beta: FormField) -> FormField:
    """Pull a form on the target back to the source.

    Degree 0 is composition with the base map; in higher degrees the
    coefficients compose and the fiber matrix acts by minors.
    """
    if beta.algebroid != phi.target:
        raise MorphismError("form does not live on the morphism's target")
    src, k = phi.source, beta.degree
    if k == 0:
        f = beta.comps.get((), phi.target.chart.zero())
        return FormField(src, 0, {(): phi.pull_scalar(f)})
    out: dict[tuple[int, ...], ScalarFn] = {}
    memo: dict = {}
    pulled = _pull_once(phi, beta.comps.__getitem__)
    for skey in combinations(range(src.rank), k):
        pieces = []
        for tkey in beta.comps:
            minor = scalar_det(phi.fiber, tkey, skey, memo)
            if not minor.is_zero():
                pieces.append((1, pulled(tkey), minor))
        total = lincomb(src.chart, pieces)
        if not total.is_zero():
            out[skey] = total
    return FormField(src, k, out)


def check_morphism(phi: Morphism) -> CheckReport:
    """Anchor compatibility plus the chain-map condition on the coframe.

    The chain map phi^* d = d phi^* is checked on each target coframe form
    eps^t in its closed form, the bracket identity F[e_i, e_j] = [F e_i,
    F e_j] along the base map: on a source pair i < j the residual is

        - sum_{u<v} (C^t_uv o phi) det F[(u,v),(i,j)]
        - rho_i(F_tj) + rho_j(F_ti) + sum_m c^m_ij F_tm,

    which is phi^* d eps^t - d phi^* eps^t without building either form.
    Each 2x2 minor of the fiber, each partial of a fiber entry and each
    pulled structure function C^t_uv (composed only where its minor is
    non-zero) is made once per call.
    """
    rep = CheckReport(f"morphism {phi.name}")
    src, tgt = phi.source, phi.target
    jac = [
        [phi.basemap[j].partial(c) for c in src.chart.coords]
        for j in range(tgt.chart.dim)
    ]
    anchor = _pull_once(phi, lambda t, j: tgt.anchor[t][j])
    for i in range(src.rank):
        # fiber . anchor o basemap  -  Jacobian . source anchor, by component j
        pieces: list[list[tuple]] = [[] for _ in tgt.chart.coords]
        for t, row in enumerate(tgt.anchor_rows):
            f = phi.fiber[t][i]
            if f.num:
                for j, _ in row:
                    pieces[j].append((1, f, anchor(t, j)))
        for k, f in src.anchor_rows[i]:
            for j, p in enumerate(pieces):
                p.append((-1, f, jac[j][k]))
        for coord, p in zip(tgt.chart.coords, pieces):
            rep.residual(f"anchor: {src.frame[i]} vs {coord}", lincomb(src.chart, p))
    coords = src.chart.coords
    structure = _pull_once(phi, lambda t, u, v: tgt.structure[(u, v)][t])
    minors: dict = {}
    # the (u, v) with C^t_uv != 0 per t, in key order
    pairs = {t: [key for key in sorted(tgt.structure) if t in tgt.structure[key]] for t in range(tgt.rank)}

    @cache
    def fiber_partial(t: int, m: int, k: int) -> ScalarFn:
        return phi.fiber[t][m].partial(coords[k])

    for t in range(tgt.rank):
        row = phi.fiber[t]
        comps = {}
        for i, j in combinations(range(src.rank), 2):
            pieces = []  # -(C^t_uv o phi) det F[(u,v),(i,j)]
            for u, v in pairs[t]:
                minor = scalar_det(phi.fiber, (u, v), (i, j), minors)
                if not minor.is_zero():
                    pieces.append((-1, structure(t, u, v), minor))
            for sign, k, m in ((-1, i, j), (1, j, i)):  # -rho_i(F_tj) + rho_j(F_ti)
                if row[m].num:
                    pieces += [(sign, f, fiber_partial(t, m, c)) for c, f in src.anchor_rows[k]]
            brackets = src.structure.get((i, j), {})  # + sum_m c^m_ij F_tm
            pieces += [(1, cf, row[m]) for m, cf in brackets.items()]
            comps[(i, j)] = lincomb(src.chart, pieces)
        rep.residual(f"chain map on {tgt.coframe[t]}", FormField(src, 2, comps))
    return rep


def pullback_rep(phi: Morphism, d: Representation, name: Optional[str] = None) -> Representation:
    """Pull a representation back along a morphism; flatness re-certified."""
    if d.algebroid != phi.target:
        raise MorphismError("representation does not live on the morphism's target")
    src = phi.source
    m = d.bundle_rank
    zero = src.chart.zero()
    mats = []
    for i in range(src.rank):
        mat = [[zero for _ in range(m)] for _ in range(m)]
        for t in range(phi.target.rank):
            f = phi.fiber[t][i]
            if f.is_zero():
                continue
            for u in range(m):
                for v in range(m):
                    entry = d.mats[t][u][v]
                    if not entry.is_zero():
                        mat[u][v] = mat[u][v] + f * phi.pull_scalar(entry)
        mats.append(mat)
    out = Representation(src, d.bundle_frame, mats, name or f"{phi.name}!{d.name}")
    flat = check_flat(out)
    if not flat.passed:
        raise RepresentationError(
            f"pull-back of {d.name} along {phi.name} is not flat; "
            "check the morphism and the representation"
        )
    return out


@dataclass
class Trivialization:
    """Unit trivializing data for the canonical line bundle of a presentation."""

    omega: Multivector
    mu: FormField


def relative_modular(
    phi: Morphism, sec_src: Trivialization, sec_tgt: Trivialization
) -> FormField:
    """The relative modular cocycle: source modular cocycle minus the
    pull-back of the target one.  Certified exactly closed."""
    mod_src = modular_cocycle(phi.source, sec_src.omega, sec_src.mu)
    mod_tgt = modular_cocycle(phi.target, sec_tgt.omega, sec_tgt.mu)
    alpha = mod_src - pullback_form(phi, mod_tgt)
    res = d_A(alpha)
    if not res.is_zero():
        raise MorphismError(f"relative modular cocycle not closed: {res}")
    return alpha


def relative_canonical_rep(
    phi: Morphism, sec_src: Trivialization, sec_tgt: Trivialization
) -> Representation:
    """The line representation whose characteristic cocycle is the relative
    modular cocycle: canonical rep of the source tensored with the pull-back
    of the dual canonical rep of the target."""
    d_src = canonical_rep(phi.source, sec_src.omega, sec_src.mu)
    d_tgt = canonical_rep(phi.target, sec_tgt.omega, sec_tgt.mu)
    pulled_dual = pullback_rep(phi, dual_rep(d_tgt))
    return tensor_rep(d_src, pulled_dual)


def check_composition_law(
    phi: Morphism,
    psi: Morphism,
    sec_a: Trivialization,
    sec_b: Trivialization,
    sec_c: Trivialization,
) -> CheckReport:
    """Relative modular cocycle of a composite versus the two-term sum.

    With one fixed trivialization per object the identity holds exactly at
    the cochain level.
    """
    rep = CheckReport(f"composition law for {psi.name} o {phi.name}")
    comp = compose(psi, phi)
    lhs = relative_modular(comp, sec_a, sec_c)
    fst = relative_modular(phi, sec_a, sec_b)
    snd = relative_modular(psi, sec_b, sec_c)
    rhs = fst + pullback_form(phi, snd)
    res = lhs - rhs
    rep.residual("cochain residual = 0", res)
    return rep


def check_rep_morphism(
    psi_fiber: Sequence[Sequence[ScalarFn]],
    d_src: Representation,
    d_tgt: Representation,
    phi: Morphism,
) -> CheckReport:
    """Commutativity of the dual-bundle chain-map diagram on generators.

    psi_fiber is the bundle map E -> F over the base map (rank_F x rank_E,
    entries on the source chart); d_src lives on E over the source algebroid,
    d_tgt on F over the target.  For each dual generator of F the pull-back
    of its covariant differential must equal the covariant differential of
    its pull-back.
    """
    rep = CheckReport(f"representation morphism over {phi.name}")
    src = phi.source
    m_e = d_src.bundle_rank
    m_f = d_tgt.bundle_rank
    if len(psi_fiber) != m_f or any(len(r) != m_e for r in psi_fiber):
        raise MorphismError("bundle map must be rank_F x rank_E")
    zero = src.chart.zero()
    dual_tgt = dual_rep(d_tgt)
    dual_src = dual_rep(d_src)
    for t in range(m_f):
        # d on the dual generator: components (i-form coefficient) per dual
        # index u, pulled back once, since the pull-back does not depend on s
        pulled = [
            pullback_form(phi, one_form(phi.target, [dual_tgt.mats[i][u][t] for i in range(phi.target.rank)]))
            for u in range(m_f)
        ]
        lhs_cols = []
        for s in range(m_e):
            total = one_form(src, [zero] * src.rank)
            for u in range(m_f):
                total = total + pulled[u].scale(psi_fiber[u][s])
            lhs_cols.append(total)
        # rhs: d_{A,E*} of (sum_s psi[t][s] eps^s)
        rhs_cols = []
        for s in range(m_e):
            comp = d_A(FormField(src, 0, {(): psi_fiber[t][s]}))
            comp = one_form(src, [comp.component((i,)) for i in range(src.rank)])
            for s2 in range(m_e):
                conn = one_form(
                    src, [dual_src.mats[i][s][s2] for i in range(src.rank)]
                )
                comp = comp + conn.scale(psi_fiber[t][s2])
            rhs_cols.append(comp)
        for s in range(m_e):
            res = lhs_cols[s] - rhs_cols[s]
            rep.residual(f"diagram on {d_tgt.bundle_frame[t]}^ / {d_src.bundle_frame[s]}^", res)
    return rep
