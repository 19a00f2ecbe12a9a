"""Pull-back algebroids: admissibility, transversality, construction.

A pull-back presentation is built from a frame of compatible pairs
(combination of target frame sections with coefficients on the source
chart, vector field on the source chart) whose anchors match under the
base map.  Two modes are supported: product submersions, where the frame
is generated automatically (horizontal lifts of the target frame plus
vertical coordinate fields), and user-supplied frames for cases like
orbit inclusions.

Rank verdicts for admissibility and transversality are probabilistic
(random-point sampling) with an exact upgrade when minors certify the rank
symbolically; reports always disclose which method decided.  A sampled
check draws all its points first and ranks the matrix at every point in
one batch (`ratlinalg.sampled_ranks`): each non-zero entry is evaluated
once over all the points, and the stack is ranked by one `float_rank` call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .core import (
    AlgebroidPresentation,
    Multivector,
    interior,
    tangent_algebroid,
    top_form,
    top_multivector,
    vector_field_bracket,
)
from .morphisms import Morphism, check_morphism, compose, pullback_form
from .ratlinalg import sampled_ranks, scalar_det, unit_pivot_solve
from .report import CheckReport
from .reps import modular_cocycle
from .symexpr import Chart, ScalarFn


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
    """Rows per target coordinate of [rho_B o phi | -Jacobian(phi)]."""
    rows = []
    for j in range(b.chart.dim):
        row = [
            b.anchor[t][j].substitute(source_chart, list(basemap))
            for t in range(b.rank)
        ]
        row += [-basemap[j].partial(c) for c in source_chart.coords]
        rows.append(row)
    return rows


def _transversality_matrix(
    b: AlgebroidPresentation, source_chart: Chart, basemap: Sequence[ScalarFn]
) -> list[list[ScalarFn]]:
    rows = []
    for j in range(b.chart.dim):
        row = [basemap[j].partial(c) for c in source_chart.coords]
        row += [
            b.anchor[t][j].substitute(source_chart, list(basemap))
            for t in range(b.rank)
        ]
        rows.append(row)
    return rows


def _sample_points(chart: Chart, rng: random.Random, count: int):
    pts = []
    for _ in range(count):
        pts.append(
            [Fraction(rng.randint(-60, 60), rng.randint(1, 13)) for _ in chart.coords]
        )
    return pts


def _sampled_ranks(
    rows: list[list[ScalarFn]], chart: Chart, seed: int, samples: int
) -> list[int]:
    return sampled_ranks(rows, _sample_points(chart, random.Random(seed), samples))


def _exact_rank_certificate(rows: list[list[ScalarFn]], memo: dict) -> Optional[int]:
    """Rank certified constant everywhere, when minors allow it.

    Upper bound: all (r+1)-minors vanish identically (exact).  Lower bound:
    some r-minor is a unit of the class, hence nowhere zero.  Sizes are
    tried from the largest down, and a size is searched only after every
    larger minor was found not to be a unit, so whether the (r+1)-minors
    all vanish is known when a unit r-minor turns up.

    Minors are read through ``memo`` (see ``scalar_det``), so each distinct
    j-minor is expanded once: an m x n matrix costs at most
    sum_j j * C(m, j) * C(n, j) ring multiplications.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    larger_all_zero = True  # there are no minors above min(m, n)
    for r in range(min(m, n), 0, -1):
        all_zero = True
        for rsel in combinations(range(m), r):
            for csel in combinations(range(n), r):
                minor = scalar_det(rows, rsel, csel, memo)
                if minor.is_unit():
                    return r if larger_all_zero else None
                all_zero = all_zero and minor.is_zero()
        larger_all_zero = all_zero
    # rank 0 everywhere iff the matrix is identically zero
    return 0 if larger_all_zero else None


def check_admissible(
    b: AlgebroidPresentation,
    source_chart: Chart,
    basemap: Sequence[ScalarFn],
    seed: int = 0,
    samples: int = 50,
) -> CheckReport:
    """Constant rank of the compatibility constraint space."""
    rep = CheckReport(f"admissibility of the base map into {b.name}")
    rows = _constraint_matrix(b, source_chart, basemap)
    total = b.rank + source_chart.dim
    exact = _exact_rank_certificate(rows, {}) if rows else 0
    if exact is not None:
        rank = total - exact
        rep.add("constraint space has constant rank", True, f"rank {rank}")
        rep.note("method: exact minor certificate")
        rep.data["rank"] = rank
        rep.data["method"] = "exact"
        return rep
    ranks = _sampled_ranks(rows, source_chart, seed, samples)
    lo, hi = total - max(ranks), total - min(ranks)
    ok = lo == hi
    rep.add(
        "constraint space has constant sampled rank",
        ok,
        f"rank range [{lo}, {hi}] over {samples} samples",
    )
    rep.note(f"method: probabilistic rank sampling (seed={seed})")
    rep.data["rank"] = lo if ok else None
    rep.data["method"] = "sampled"
    return rep


def check_transverse(
    b: AlgebroidPresentation,
    source_chart: Chart,
    basemap: Sequence[ScalarFn],
    seed: int = 0,
    samples: int = 50,
) -> CheckReport:
    """Anchor image plus differential image spans the target tangent space."""
    rep = CheckReport(f"transversality of the base map to {b.name}")
    n = b.chart.dim
    if n == 0:
        rep.add("target tangent space spanned", True, "zero-dimensional target")
        rep.data["method"] = "exact"
        return rep
    rows = _transversality_matrix(b, source_chart, basemap)
    memo: dict = {}
    exact = _exact_rank_certificate(rows, memo)
    if exact is not None:
        rep.add(
            "target tangent space spanned",
            exact == n,
            f"rank {exact} of {n} at every point",
        )
        rep.note("method: exact minor certificate")
        rep.data["method"] = "exact"
        return rep
    # a sound negative certificate: all maximal minors vanish identically
    all_zero = True
    m = len(rows[0])
    for csel in combinations(range(m), n):
        if not scalar_det(rows, tuple(range(n)), csel, memo).is_zero():
            all_zero = False
            break
    if all_zero:
        rep.add("target tangent space spanned", False, f"rank < {n} at every point")
        rep.note("method: exact minor certificate")
        rep.data["method"] = "exact"
        return rep
    ranks = _sampled_ranks(rows, source_chart, seed, samples)
    ok = min(ranks) == n
    rep.add(
        "target tangent space spanned",
        ok,
        f"sampled rank range [{min(ranks)}, {max(ranks)}] of {n}",
    )
    rep.note(f"method: probabilistic rank sampling (seed={seed})")
    rep.data["method"] = "sampled"
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
    pairs = []
    names = []
    for t in range(b.rank):
        bco = tuple(
            source_chart.one() if s == t else source_chart.zero()
            for s in range(b.rank)
        )
        vf = [source_chart.zero()] * source_chart.dim
        for j, k in enumerate(base_idx):
            vf[k] = b.anchor[t][j].substitute(source_chart, list(basemap))
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


def validate_frame(pf: PullbackFrame, seed: int = 0, samples: int = 50) -> CheckReport:
    """Exact compatibility of each pair; sampled independence and spanning."""
    rep = CheckReport("pull-back frame")
    b, chart = pf.target, pf.source_chart
    for idx, pair in enumerate(pf.pairs):
        for j in range(b.chart.dim):
            lhs = chart.zero()
            for t in range(b.rank):
                if not pair.bcoeffs[t].is_zero():
                    lhs = lhs + pair.bcoeffs[t] * b.anchor[t][j].substitute(
                        chart, list(pf.basemap)
                    )
            rhs = chart.zero()
            for k, c in enumerate(chart.coords):
                rhs = rhs + pair.vf[k] * pf.basemap[j].partial(c)
            res = lhs - rhs
            rep.add(
                f"pair {idx}: anchor constraint on {b.chart.coords[j]}",
                res.is_zero(),
                "" if res.is_zero() else str(res),
            )
    rows = [list(p.bcoeffs) + list(p.vf) for p in pf.pairs]
    ranks = _sampled_ranks(rows, chart, seed, samples) if rows else []
    indep = bool(ranks) and min(ranks) == len(pf.pairs)
    if pf.pairs:
        rep.add(
            "pairs pointwise independent",
            indep,
            f"sampled rank range [{min(ranks)}, {max(ranks)}] of {len(pf.pairs)}",
        )
    adm = check_admissible(b, chart, pf.basemap, seed=seed, samples=samples)
    rep.merge(adm)
    want = adm.data.get("rank")
    rep.add(
        "pairs span the constraint space",
        want is not None and want == len(pf.pairs),
        f"constraint rank {want}, frame size {len(pf.pairs)}",
    )
    rep.note(f"spanning checked probabilistically (seed={seed}, samples={samples})")
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
    r = len(pf.pairs)
    rows = [
        [pf.pairs[g].bcoeffs[t] for g in range(r)] for t in range(b.rank)
    ] + [[pf.pairs[g].vf[k] for g in range(r)] for k in range(chart.dim)]
    rhs_cols = []
    keys = []
    for a_idx in range(r):
        for b_idx in range(a_idx + 1, r):
            w, z = _pair_bracket(pf, pf.pairs[a_idx], pf.pairs[b_idx])
            rhs_cols.append(list(w) + list(z))
            keys.append((a_idx, b_idx))
    structure: dict[tuple[int, int], dict[int, ScalarFn]] = {}
    if rhs_cols:
        sols = unit_pivot_solve(rows, rhs_cols)
        for key, col in zip(keys, sols):
            comps = {g: f for g, f in enumerate(col) if not f.is_zero()}
            if comps:
                structure[key] = comps
    names = pf.names or tuple(f"p{g+1}" for g in range(r))
    pres = AlgebroidPresentation(
        name or f"{b.name}^!",
        chart,
        names,
        [list(p.vf) for p in pf.pairs],
        structure,
    )
    fiber = [[pf.pairs[g].bcoeffs[t] for g in range(r)] for t in range(b.rank)]
    proj = Morphism(f"proj_{pres.name}", pres, b, list(pf.basemap), fiber)
    return BuiltPullback(pres, proj, pf, validation)


def _pair_bracket(
    pf: PullbackFrame, p1: PullbackFramePair, p2: PullbackFramePair
) -> tuple[list[ScalarFn], list[ScalarFn]]:
    """The fiber-product bracket of two compatible pairs.

    First component: f_i g_j [b_i, b_j] pulled back, plus u(g_j) b_j minus
    v(f_i) b_i; second component: the vector-field bracket.
    """
    b, chart = pf.target, pf.source_chart
    zero = chart.zero()
    w = [zero] * b.rank
    for i in range(b.rank):
        fi = p1.bcoeffs[i]
        if fi.is_zero():
            continue
        for j in range(b.rank):
            gj = p2.bcoeffs[j]
            if gj.is_zero():
                continue
            for t, c in b.bracket_frame(i, j).items():
                w[t] = w[t] + fi * gj * c.substitute(chart, list(pf.basemap))
    for j in range(b.rank):
        acc = zero
        for k, c in enumerate(chart.coords):
            acc = acc + p1.vf[k] * p2.bcoeffs[j].partial(c)
        w[j] = w[j] + acc
    for i in range(b.rank):
        acc = zero
        for k, c in enumerate(chart.coords):
            acc = acc + p2.vf[k] * p1.bcoeffs[i].partial(c)
        w[i] = w[i] - acc
    z = vector_field_bracket(chart, p1.vf, p2.vf)
    return w, z


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
    chart = phi.source.chart
    r = len(pf.pairs)
    rows = [
        [pf.pairs[g].bcoeffs[t] for g in range(r)] for t in range(pf.target.rank)
    ] + [[pf.pairs[g].vf[k] for g in range(r)] for k in range(chart.dim)]
    rhs_cols = []
    for i in range(phi.source.rank):
        col = [phi.fiber[t][i] for t in range(pf.target.rank)]
        col += [phi.source.anchor[i][k] for k in range(chart.dim)]
        rhs_cols.append(col)
    sols = unit_pivot_solve(rows, rhs_cols)
    fiber = [[sols[i][g] for i in range(phi.source.rank)] for g in range(r)]
    from .morphisms import base_preserving_morphism

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
        built.presentation, sigma.substitute(source_chart, list(pf.basemap)) * h
    )
    gamma = modular_cocycle(built.presentation, omega_up, mu_form)
    beta = modular_cocycle(b, top_multivector(b, sigma), top_form(tm_tgt, nu))
    residual = gamma - pullback_form(built.projection, beta)
    rep.add(
        "modular cocycle residual = 0",
        residual.is_zero(),
        "" if residual.is_zero() else str(residual),
    )
    return rep
