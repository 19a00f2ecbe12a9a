"""Pull-back algebroids: admissibility, transversality, construction.

A pull-back presentation is built from a frame of compatible pairs
(combination of target frame sections with coefficients on the source
chart, vector field on the source chart) whose anchors match under the
base map.  Two modes are supported: product submersions, where the frame
is generated automatically (horizontal lifts of the target frame plus
vertical coordinate fields), and user-supplied frames for cases like
orbit inclusions.  The structure functions are the fiber-product brackets
of the pairs re-expanded in the frame by `ratlinalg.bracket_structure`,
the routine behind the subalgebroid and Poisson-kernel presentations too.
Each function that builds a matrix or a bracket table composes target
functions with the base map through one `symexpr.ChartMap` per call.

Admissibility and transversality are rank statements about one matrix,
the base-map matrix [-Jacobian(phi) | rho_B o phi] with a row per target
coordinate (`_constraint_matrix`): the pull-back exists where the kernel
of (v, a) -> rho(a) - dphi(v) has constant rank, and phi is transverse
where that map is onto.  The frame validation pairs the same rows with
its pairs, and its pairs are pointwise independent where the matrix of
their rows has full row rank, the question transversality asks too.
Every one of these verdicts is decided by `ratlinalg.pointwise_rank`, the
one pointwise-rank routine, exactly or not at all, and each check only
phrases its item from the `report.Decision` it returns.  It holds when a
minor of the generic rank R is certified nowhere zero (then R is the rank
at every point); it fails when a full-rank question finds R too small or
the rank drops at the origin; otherwise it is undecided, and a note
``method: <status> (<item>)`` says which method decided the item.
Nothing here samples: `extensions.check_extension` is the one sampled
check left.  The certificate, the decision's evidence, goes into
``rep.data["minors"]``, which reports do not print.
`verify_submersion_vanishing` takes a built product-submersion pull-back,
which the scenario `Session` holds, and its residual is
`morphisms.relative_modular` of the projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import (
    AlgebroidPresentation,
    _nonzero,
    _sort_indices,
    _vf_pieces,
    vector_field_bracket,
)
from .morphisms import (
    Morphism,
    base_preserving_morphism,
    check_morphism,
    compose,
    relative_modular,
)
from .ratlinalg import bracket_structure, pointwise_rank, unit_pivot_solve
from .report import CheckReport, Decision
from .reps import Trivialization
from .symexpr import Chart, ChartMap, ScalarFn, lincomb


class PullbackError(Exception):
    pass


class AdmissibilityFailure(PullbackError):
    pass


@dataclass
class PullbackFramePair:
    """(sum_t bcoeffs[t] * pulled target frame section, vector field)."""

    bcoeffs: tuple[ScalarFn, ...]
    vf: tuple[ScalarFn, ...]


@dataclass
class PullbackFrame:
    """A frame of compatible pairs for the pull-back of ``target`` along
    ``basemap``, from `product_submersion_frame` or given by the user;
    `build_pullback` treats both alike."""

    target: AlgebroidPresentation
    source_chart: Chart
    basemap: tuple[ScalarFn, ...]
    pairs: list[PullbackFramePair]
    names: Optional[tuple[str, ...]] = None


def _constraint_matrix(
    b: AlgebroidPresentation, source_chart: Chart, basemap: Sequence[ScalarFn]
) -> list[list[ScalarFn]]:
    """The base-map matrix [-Jacobian(phi) | rho_B o phi], one row per
    target coordinate: row j applied to (v, a) is rho(a)_j - dphi(v)_j."""
    pull = ChartMap(b.chart, source_chart, basemap).pull
    return [
        [-basemap[j].partial(c) for c in source_chart.coords]
        + [pull(b.anchor[t][j]) for t in range(b.rank)]
        for j in range(b.chart.dim)
    ]


def check_admissible(
    b: AlgebroidPresentation,
    source_chart: Chart,
    basemap: Sequence[ScalarFn],
    seed: int = 0,
) -> CheckReport:
    """Constant rank of the compatibility constraint space.  The last
    parameter is unread; the benchmark's workloads still pass it."""
    return _constraint_space(b, _constraint_matrix(b, source_chart, basemap), source_chart.dim)


def _constraint_space(b: AlgebroidPresentation, rows: list[list[ScalarFn]], dim: int) -> CheckReport:
    """`check_admissible` on the constraint matrix ``rows`` already built,
    over a source chart of dimension ``dim``: the constraint space is the
    kernel of ``rows``, of rank ``b.rank + dim`` minus theirs."""
    verdict = pointwise_rank(rows, None)
    rank = b.rank + dim - verdict.evidence.rank
    detail = f"rank {rank}"
    if not verdict.holds:
        detail += " generically, " + ("larger at the origin" if verdict.holds is False else "no minor certified")
    title = f"admissibility of the base map into {b.name}"
    rep = _decided(title, "constraint space has constant rank", verdict, detail)
    rep.data["rank"] = rank if verdict.holds else None
    return rep


def check_transverse(
    b: AlgebroidPresentation,
    source_chart: Chart,
    basemap: Sequence[ScalarFn],
    seed: int = 0,
) -> CheckReport:
    """Anchor image plus differential image spans the target tangent space:
    the base-map matrix has full row rank at every point (a zero-dimensional
    target has no rows, which the empty minor certifies); the last
    parameter is unread, as in `check_admissible`."""
    rows = _constraint_matrix(b, source_chart, basemap)
    return _onto(f"transversality of the base map to {b.name}", "target tangent space spanned", rows)


def _onto(title: str, label: str, rows: list[list[ScalarFn]]) -> CheckReport:
    """The report ``title`` with one item ``label``: the matrix ``rows`` has
    rank len(rows) at every point."""
    n = len(rows)
    verdict = pointwise_rank(rows, n)
    cert = verdict.evidence
    if cert.witness is not None:
        detail = f"rank {cert.rank} of {n} at every point"
    elif verdict.holds is None:
        detail = f"rank {n} of {n} generically, no minor certified"
    else:
        detail = f"rank < {n} at " + ("every point" if cert.rank < n else "the origin")
    return _decided(title, label, verdict, detail)


def _decided(title: str, label: str, verdict: Decision, detail: str) -> CheckReport:
    """The report ``title`` with one item ``label``, of the verdict and
    ``detail``, a note of the method that decided it, which names the item
    so that a merge keeps them together, and the certificate and method in
    its ``data``."""
    rep = CheckReport(title)
    rep.add(label, verdict.holds, detail)
    rep.note(f"method: {verdict.status} ({label})")
    rep.data["minors"] = verdict.evidence
    rep.data["method"] = verdict.status
    return rep


def product_submersion_frame(
    b: AlgebroidPresentation, source_chart: Chart
) -> PullbackFrame:
    """Automatic frame for a product projection: the source chart must
    contain every target coordinate by name; the remaining coordinates are
    the fiber.  Lifted pairs come first, vertical pairs after."""
    tgt_chart = b.chart
    base_idx = []
    for j, c in enumerate(tgt_chart.coords):
        if c not in source_chart.coords:
            raise PullbackError(
                f"product-submersion mode needs coordinate {c!r} on the source chart"
            )
        k = source_chart.index(c)
        if source_chart.periodic[k] != tgt_chart.periodic[j]:
            raise PullbackError(f"periodicity mismatch on coordinate {c!r}")
        base_idx.append(k)
    fiber_idx = [k for k in range(source_chart.dim) if k not in base_idx]
    basemap = tuple(source_chart.coord(c) for c in tgt_chart.coords)
    pull = ChartMap(tgt_chart, source_chart, basemap).pull
    pairs = []
    names = []
    for t in range(b.rank):
        bco = tuple(
            source_chart.one() if s == t else source_chart.zero()
            for s in range(b.rank)
        )
        vf = [source_chart.zero()] * source_chart.dim
        for j, k in enumerate(base_idx):
            vf[k] = pull(b.anchor[t][j])
        pairs.append(PullbackFramePair(bco, tuple(vf)))
        names.append(b.frame[t] + "^")
    for k in fiber_idx:
        bco = tuple(source_chart.zero() for _ in range(b.rank))
        vf = tuple(
            source_chart.one() if l == k else source_chart.zero()
            for l in range(source_chart.dim)
        )
        pairs.append(PullbackFramePair(bco, vf))
        names.append("d/d" + source_chart.coords[k])
    return PullbackFrame(b, source_chart, basemap, pairs, tuple(names))


def validate_frame(pf: PullbackFrame) -> CheckReport:
    """Exact compatibility of each pair; pointwise independence of the
    pairs and spanning of the constraint space, each decided by
    `ratlinalg.pointwise_rank` or left undecided."""
    rep = CheckReport("pull-back frame")
    b, chart = pf.target, pf.source_chart
    # the residual of a pair on coordinate j is row j applied to the pair
    constraint = _constraint_matrix(b, chart, pf.basemap)
    for idx, pair in enumerate(pf.pairs):
        vec = [*pair.vf, *pair.bcoeffs]
        for coord, row in zip(b.chart.coords, constraint):
            rep.residual(
                f"pair {idx}: anchor constraint on {coord}",
                lincomb(chart, [(1, f, g) for f, g in zip(row, vec) if not g.is_zero()]),
            )
    if pf.pairs:
        rows = [list(p.bcoeffs) + list(p.vf) for p in pf.pairs]
        rep.merge(_onto("pairs", "pairs pointwise independent", rows))
    adm = _constraint_space(b, constraint, chart.dim)
    rep.merge(adm)
    want = adm.data.get("rank")
    rep.add(
        "pairs span the constraint space",
        None if adm.passed is None else want == len(pf.pairs),
        f"constraint rank {want}, frame size {len(pf.pairs)}",
    )
    return rep


@dataclass
class BuiltPullback:
    presentation: AlgebroidPresentation
    projection: Morphism
    frame: PullbackFrame
    validated: Optional[bool]  # the frame validation: True, or None when undecided


def build_pullback(pf: PullbackFrame) -> BuiltPullback:
    """Structure functions by evaluating the fiber-product bracket on frame
    pairs and re-expanding (unit-pivot solve); anchor = vector-field parts;
    the projection onto the target factor is returned as a morphism.  A
    frame that fails validation raises; an undecided one builds."""
    validation = validate_frame(pf)
    if validation.passed is False:
        raise AdmissibilityFailure(
            "pull-back frame failed validation:\n" + validation.pretty()
        )
    b, chart = pf.target, pf.source_chart
    rows = _pair_matrix(pf)
    pull = ChartMap(b.chart, chart, pf.basemap).pull
    structure = bracket_structure(rows, pf.pairs, lambda p1, p2: _pair_bracket(pf, pull, p1, p2))
    names = pf.names or tuple(f"p{g+1}" for g in range(len(pf.pairs)))
    pres = AlgebroidPresentation(
        f"{b.name}^!",
        chart,
        names,
        [list(p.vf) for p in pf.pairs],
        structure,
    )
    proj = Morphism(f"proj_{pres.name}", pres, b, list(pf.basemap), rows[: b.rank])
    return BuiltPullback(pres, proj, pf, validation.passed)


def _pair_matrix(pf: PullbackFrame) -> list[list[ScalarFn]]:
    """The frame pairs as columns: target frame coefficients above the
    vector-field components."""
    return [[p.bcoeffs[t] for p in pf.pairs] for t in range(pf.target.rank)] + [
        [p.vf[k] for p in pf.pairs] for k in range(pf.source_chart.dim)
    ]


def _pair_bracket(
    pf: PullbackFrame,
    pull: Callable[[ScalarFn], ScalarFn],
    p1: PullbackFramePair,
    p2: PullbackFramePair,
) -> list[ScalarFn]:
    """The fiber-product bracket of two compatible pairs, as one column.

    Target frame part: f_i g_j [b_i, b_j] pulled back (``pull`` composes
    with the base map), plus u(g_j) b_j minus v(f_i) b_i; vector-field
    part: the vector-field bracket.
    """
    b, chart = pf.target, pf.source_chart
    u, v = _nonzero(p1.vf), _nonzero(p2.vf)
    pieces = [
        _vf_pieces(u, g, chart.coords, 1) + _vf_pieces(v, f, chart.coords, -1)
        for f, g in zip(p1.bcoeffs, p2.bcoeffs)
    ]
    for i, fi in enumerate(p1.bcoeffs):
        for j, gj in enumerate(p2.bcoeffs):
            if fi.is_zero() or gj.is_zero():
                continue
            for t, c in b.bracket_frame(i, j).items():
                pieces[t].append((1, fi * gj, pull(c)))
    return [lincomb(chart, p) for p in pieces] + vector_field_bracket(chart, p1.vf, p2.vf)


def factorize(phi: Morphism, built: BuiltPullback) -> tuple[Morphism, CheckReport]:
    """Factor a morphism through the pull-back of its target.

    Returns the base-preserving factor and a report checking that it is a
    morphism and that the projection composed with it reproduces the input.
    """
    if phi.target != built.projection.target:
        raise PullbackError("pull-back was built over a different target")
    if tuple(phi.basemap) != tuple(built.frame.basemap):
        raise PullbackError("base maps differ")
    pf = built.frame
    rhs_cols = [
        [phi.fiber[t][i] for t in range(pf.target.rank)] + list(phi.source.anchor[i])
        for i in range(phi.source.rank)
    ]
    sols = unit_pivot_solve(_pair_matrix(pf), rhs_cols)
    fiber = [[sols[i][g] for i in range(phi.source.rank)] for g in range(len(pf.pairs))]
    factor = base_preserving_morphism(
        phi.name + "'", phi.source, built.presentation, fiber
    )
    rep = CheckReport(f"factorization of {phi.name}")
    rep.merge(check_morphism(factor), prefix="factor: ")
    rep.add("projection o factor = original", compose(built.projection, factor).same_map(phi))
    return factor, rep


def verify_submersion_vanishing(
    built: BuiltPullback,
    sigma: ScalarFn,
    nu: ScalarFn,
    mu: ScalarFn,
) -> CheckReport:
    """Cochain-level vanishing of the relative modular cocycle of the
    projection of a product-submersion pull-back.

    ``built`` is the pull-back of `product_submersion_frame` (PullbackError
    for any other frame).  sigma trivializes the top power of the target,
    nu and mu are volume coefficients on target and source charts.  The top
    section upstairs is transported through the vertical volume tau with
    i_tau mu = (base pull-back of nu), and the residual, the
    `morphisms.relative_modular` cocycle of the projection, must vanish
    identically.  With F and B the fiber and base coordinate indices of the
    source chart in increasing order, tau = h d/dx^F and

        i_{d/dx^F} (mu dx^1..dx^n) = eps(F B) mu dx^B,
        phi^*(nu dy^1..dy^m) = eps(base) (nu o phi) dx^B,

    where eps(F B) is the parity of the fiber-then-base shuffle and
    eps(base) that of the target coordinates' positions on the source, so
    h = eps(base) (nu o phi) / (eps(F B) mu); no form is contracted.
    """
    pf = built.frame
    b, source_chart = pf.target, pf.source_chart
    if pf != product_submersion_frame(b, source_chart):
        raise PullbackError("submersion vanishing needs the product-submersion pull-back")
    rep = CheckReport(f"submersion vanishing for {b.name}")
    rep.note(f"pull-back frame: {', '.join(built.presentation.frame)}")
    base_idx = [source_chart.index(c) for c in b.chart.coords]
    fiber_idx = [k for k in range(source_chart.dim) if k not in base_idx]
    # the dx^B coefficients of phi^*(nu dy^1..dy^m) and of i_{d/dx^F} (mu dx^1..dx^n)
    numer = _sort_indices(base_idx)[0] * built.projection.pull_scalar(nu)
    denom = _sort_indices(fiber_idx + sorted(base_idx))[0] * mu
    h = numer * denom.unit_inverse()
    sec_src = Trivialization.of(built.presentation, built.projection.pull_scalar(sigma) * h, mu)
    residual = relative_modular(built.projection, sec_src, Trivialization.of(b, sigma, nu))
    rep.residual("modular cocycle residual = 0", residual)
    return rep
