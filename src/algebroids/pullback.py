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
one pointwise-rank routine, and each check only phrases its item.  It is
exact when a minor of the generic rank R is certified nowhere zero (then
R is the rank at every point), and a full-rank question fails exactly
when R is too small; otherwise the verdict is probabilistic (random-point
sampling at `ratlinalg.RANK_SAMPLES` points of the check's seed, a count
no caller sets) and reports always disclose which method decided.  The
certificate goes into ``rep.data["minors"]``, which reports do not print.
`extensions.check_extension` is the one rank site that still samples
directly, without trying a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import (
    AlgebroidPresentation,
    Multivector,
    _nonzero,
    _vf_pieces,
    interior,
    tangent_algebroid,
    top_form,
    top_multivector,
    vector_field_bracket,
)
from .morphisms import Morphism, base_preserving_morphism, check_morphism, compose, pullback_form
from .ratlinalg import RANK_SAMPLES, PointwiseRank, bracket_structure, pointwise_rank, unit_pivot_solve
from .report import CheckReport
from .reps import modular_cocycle
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
    target: AlgebroidPresentation
    source_chart: Chart
    basemap: tuple[ScalarFn, ...]
    pairs: list[PullbackFramePair]
    mode: str = "user-supplied"  # or "product-submersion"
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
    """Constant rank of the compatibility constraint space."""
    return _constraint_space(b, _constraint_matrix(b, source_chart, basemap), source_chart.dim, seed)


def _constraint_space(b: AlgebroidPresentation, rows: list[list[ScalarFn]], dim: int, seed: int) -> CheckReport:
    """`check_admissible` on the constraint matrix ``rows`` already built,
    over a source chart of dimension ``dim``: the constraint space is the
    kernel of ``rows``, of rank ``b.rank + dim`` minus theirs."""
    verdict = pointwise_rank(rows, None, seed)
    total = b.rank + dim
    lo, hi = total - verdict.ranks[1], total - verdict.ranks[0]
    if verdict.method == "exact":
        label, detail = "constraint space has constant rank", f"rank {lo}"
    else:
        label = "constraint space has constant sampled rank"
        detail = f"rank range [{lo}, {hi}] over {RANK_SAMPLES} samples"
    rep = _decided(f"admissibility of the base map into {b.name}", label, verdict, detail, seed)
    rep.data["rank"] = lo if verdict.holds else None
    return rep


def check_transverse(
    b: AlgebroidPresentation,
    source_chart: Chart,
    basemap: Sequence[ScalarFn],
    seed: int = 0,
) -> CheckReport:
    """Anchor image plus differential image spans the target tangent space:
    the base-map matrix has full row rank at every point (a zero-dimensional
    target has no rows, which the empty minor certifies)."""
    rows = _constraint_matrix(b, source_chart, basemap)
    return _onto(f"transversality of the base map to {b.name}", "target tangent space spanned", rows, seed)


def _onto(title: str, label: str, rows: list[list[ScalarFn]], seed: int) -> CheckReport:
    """The report ``title`` with one item ``label``: the matrix ``rows`` has
    rank len(rows) at every point."""
    n = len(rows)
    verdict = pointwise_rank(rows, n, seed)
    lo, hi = verdict.ranks
    if verdict.method == "sampled":
        detail = f"sampled rank range [{lo}, {hi}] of {n}"
    elif verdict.certificate.witness is None:
        detail = f"rank < {n} at every point"
    else:
        detail = f"rank {lo} of {n} at every point"
    return _decided(title, label, verdict, detail, seed)


def _decided(title: str, label: str, verdict: PointwiseRank, detail: str, seed: int) -> CheckReport:
    """The report ``title`` with one item ``label``, of the verdict and
    ``detail``, the note of the method that decided it, and the
    certificate and the method in its ``data``."""
    rep = CheckReport(title)
    rep.add(label, verdict.holds, detail)
    if verdict.method == "exact":
        rep.note("method: exact minor certificate")
    else:
        rep.note(f"method: probabilistic rank sampling (seed={seed})")
    rep.data["minors"] = verdict.certificate
    rep.data["method"] = verdict.method
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
    return PullbackFrame(
        b, source_chart, basemap, pairs, "product-submersion", tuple(names)
    )


def validate_frame(pf: PullbackFrame, seed: int = 0) -> CheckReport:
    """Exact compatibility of each pair; pointwise independence of the
    pairs and spanning of the constraint space, each certified by a
    nowhere-zero minor when one exists and sampled otherwise."""
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
        rep.merge(_onto("pairs", "pairs pointwise independent", rows, seed))
    adm = _constraint_space(b, constraint, chart.dim, seed)
    rep.merge(adm)
    want = adm.data.get("rank")
    rep.add(
        "pairs span the constraint space",
        want is not None and want == len(pf.pairs),
        f"constraint rank {want}, frame size {len(pf.pairs)}",
    )
    return rep


@dataclass
class BuiltPullback:
    presentation: AlgebroidPresentation
    projection: Morphism
    frame: PullbackFrame
    validation: CheckReport


def build_pullback(
    pf: PullbackFrame, name: Optional[str] = None, seed: int = 0
) -> BuiltPullback:
    """Structure functions by evaluating the fiber-product bracket on frame
    pairs and re-expanding (unit-pivot solve); anchor = vector-field parts;
    the projection onto the target factor is returned as a morphism."""
    validation = validate_frame(pf, seed=seed)
    if not validation.passed:
        raise AdmissibilityFailure(
            "pull-back frame failed validation:\n" + validation.pretty()
        )
    b, chart = pf.target, pf.source_chart
    rows = _pair_matrix(pf)
    pull = ChartMap(b.chart, chart, pf.basemap).pull
    structure = bracket_structure(rows, pf.pairs, lambda p1, p2: _pair_bracket(pf, pull, p1, p2))
    names = pf.names or tuple(f"p{g+1}" for g in range(len(pf.pairs)))
    pres = AlgebroidPresentation(
        name or f"{b.name}^!",
        chart,
        names,
        [list(p.vf) for p in pf.pairs],
        structure,
    )
    proj = Morphism(f"proj_{pres.name}", pres, b, list(pf.basemap), rows[: b.rank])
    return BuiltPullback(pres, proj, pf, validation)


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
    recomposed = compose(built.projection, factor)
    ok = (
        recomposed.fiber == phi.fiber
        and tuple(recomposed.basemap) == tuple(phi.basemap)
    )
    rep.add("projection o factor = original", ok)
    return factor, rep


def verify_submersion_vanishing(
    b: AlgebroidPresentation,
    source_chart: Chart,
    sigma: ScalarFn,
    nu: ScalarFn,
    mu: ScalarFn,
    seed: int = 0,
) -> CheckReport:
    """Cochain-level vanishing of the relative modular cocycle of the
    projection of a product-submersion pull-back.

    sigma trivializes the top power of the target, nu and mu are volume
    coefficients on target and source charts.  The top section upstairs is
    transported through the vertical volume tau with i_tau mu = (base
    pull-back of nu), and the residual (modular cocycle upstairs) minus
    (pull-back of the one downstairs) must vanish identically.
    """
    rep = CheckReport(f"submersion vanishing for {b.name}")
    pf = product_submersion_frame(b, source_chart)
    built = build_pullback(pf, seed=seed)
    rep.note(f"pull-back frame: {', '.join(built.presentation.frame)}")
    tgt_chart = b.chart
    tm_src = tangent_algebroid(source_chart)
    tm_tgt = tangent_algebroid(tgt_chart)
    base_idx = [source_chart.index(c) for c in tgt_chart.coords]
    fiber_idx = [k for k in range(source_chart.dim) if k not in base_idx]
    mu_form = top_form(tm_src, mu)
    # tau: vertical top multivector with i_tau mu = pull-back of nu
    vert = Multivector(
        tm_src, len(fiber_idx), {tuple(sorted(fiber_idx)): source_chart.one()}
    )
    contracted = interior(vert, mu_form)
    base_key = tuple(sorted(base_idx))
    denom = contracted.comps.get(base_key, source_chart.zero())
    tproj = Morphism(
        "Tproj",
        tm_src,
        tm_tgt,
        list(pf.basemap),
        [
            [
                source_chart.one() if k == base_idx[j] else source_chart.zero()
                for k in range(source_chart.dim)
            ]
            for j in range(tgt_chart.dim)
        ],
    )
    nu_pulled = pullback_form(tproj, top_form(tm_tgt, nu))
    numer = nu_pulled.comps.get(base_key, source_chart.zero())
    h = numer * denom.unit_inverse()
    omega_up = top_multivector(
        built.presentation, built.projection.pull_scalar(sigma) * h
    )
    gamma = modular_cocycle(built.presentation, omega_up, mu_form)
    beta = modular_cocycle(b, top_multivector(b, sigma), top_form(tm_tgt, nu))
    rep.residual("modular cocycle residual = 0", gamma - pullback_form(built.projection, beta))
    return rep
