"""Lie algebroid presentations over a single chart and their graded calculus.

A presentation is a frame e_1..e_r, an anchor matrix (row i = the vector
field rho(e_i) in coordinates, which the calculus reads as the sparse row
of its non-zero entries) and structure functions C^k_ij for i < j.
Forms and multivectors are stored on strictly increasing index tuples, so
antisymmetry is structural.  The differential, interior products, the
Schouten–Gerstenhaber bracket are all computed exactly in the
scalar-function ring; the one coefficient of a frame section's bracket
with a top multivector that the modular classes read has its closed trace
form, `top_bracket`, and a presentation holds its modular cocycle.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, product
from typing import Mapping, Optional, Sequence, Union

from .ratlinalg import FrameSolveFailure, generic_rank, unit_pivot_solve
from .report import CheckReport
from .symexpr import Chart, ScalarFn, lincomb, point_chart

Rational = Union[int, Fraction]


class AlgebroidError(Exception):
    pass


class DegreeMismatch(AlgebroidError):
    pass


class AlgebroidPresentation:
    """A Lie algebroid over one chart, given by anchor and structure functions.

    The anchor is stored as sparse rows: ``anchor_rows[i]`` holds the pairs
    (l, rho(e_i)_l) with a non-zero component, in coordinate order, and the
    calculus iterates these, so a zero anchor entry costs nothing.
    ``anchor`` is the dense read-only view, and ``structure`` keeps only
    the non-zero C^k_ij.  Every entry must live on ``chart``, and each
    upper index k of a structure function must be a frame index.
    """

    def __init__(
        self,
        name: str,
        chart: Chart,
        frame: Sequence[str],
        anchor: Sequence[Sequence[ScalarFn]],
        structure: Mapping[tuple[int, int], Mapping[int, ScalarFn]] | None = None,
        coframe: Optional[Sequence[str]] = None,
    ):
        self.name = name
        self.chart = chart
        self.frame = tuple(frame)
        if len(set(self.frame)) != len(self.frame):
            raise AlgebroidError(f"duplicate frame names in {name!r}")
        if len(anchor) != len(self.frame):
            raise AlgebroidError("anchor must have one row per frame section")
        rows = []
        for row in anchor:
            if len(row) != chart.dim:
                raise AlgebroidError("anchor row length must equal chart dimension")
            rows.append(tuple(_on_chart(chart, f, "anchor entry") for f in row))
        self.anchor = tuple(rows)
        self.anchor_rows = tuple(_nonzero(row) for row in rows)
        struct: dict[tuple[int, int], dict[int, ScalarFn]] = {}
        for (i, j), comps in (structure or {}).items():
            if not (0 <= i < j < self.rank):
                raise AlgebroidError(f"structure key ({i},{j}) must satisfy i < j < rank")
            entries = {}
            for k, f in comps.items():
                if not 0 <= k < self.rank:
                    raise AlgebroidError(f"structure function C^{k}_({i},{j}) needs a frame index k < rank")
                if not _on_chart(chart, f, "structure function").is_zero():
                    entries[k] = f
            if entries:
                struct[(i, j)] = entries
        self.structure = struct
        self.coframe = tuple(coframe) if coframe else tuple(f + "*" for f in self.frame)

    @property
    def rank(self) -> int:
        return len(self.frame)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebroidPresentation):
            return NotImplemented
        # identity first: the structural comparison walks every structure function
        return self is other or (self.frame == other.frame and same_presentation(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"AlgebroidPresentation({self.name!r}, rank {self.rank} over {self.chart.name})"

    @cached_property
    def modular(self) -> "FormField":
        """The modular cocycle of the unit trivialization, held once built:
        on e_i the structure trace sum_k C^k_ik (`top_bracket`) plus the
        anchor divergence sum_l d rho(e_i)_l / dx_l, certified closed by one
        d_A (AlgebroidError otherwise)."""
        one, coords = self.chart.one(), self.chart.coords
        divergence = lambda i: lincomb(self.chart, [(1, f.partial(coords[l])) for l, f in self.anchor_rows[i]])
        comps = {(i,): top_bracket(self, i, one) + divergence(i) for i in range(self.rank)}
        alpha = FormField._trusted(self, 1, comps)
        res = d_A(alpha)
        if not res.is_zero():
            raise AlgebroidError(f"modular cocycle is not closed: d = {res}")
        return alpha

    # -- structure access ------------------------------------------------

    def c(self, i: int, j: int, k: int) -> ScalarFn:
        """Structure function C^k_ij with antisymmetry in (i, j)."""
        return self.bracket_frame(i, j).get(k, self.chart.zero())

    def bracket_frame(self, i: int, j: int) -> dict[int, ScalarFn]:
        """[e_i, e_j] as a sparse coefficient map."""
        if i == j:
            return {}
        if i < j:
            return dict(self.structure.get((i, j), {}))
        return {k: -f for k, f in self.structure.get((j, i), {}).items()}

    def rho_apply(self, i: int, f: ScalarFn) -> ScalarFn:
        """The vector field rho(e_i) applied to a function."""
        return lincomb(self.chart, _vf_pieces(self.anchor_rows[i], f, self.chart.coords, 1))

    def rho_section(self, coeffs: Sequence[ScalarFn]) -> tuple[ScalarFn, ...]:
        """Anchor of a section given by frame coefficients."""
        pieces: list[list[tuple]] = [[] for _ in self.chart.coords]
        for g, row in zip(coeffs, self.anchor_rows):
            for l, f in row:
                pieces[l].append((1, g, f))
        return tuple(lincomb(self.chart, p) for p in pieces)

    def section_bracket(
        self, x: Sequence[ScalarFn], y: Sequence[ScalarFn]
    ) -> list[ScalarFn]:
        """Bracket of two sections written in the frame (Leibniz expansion)."""
        pieces: list[list[tuple]] = [[] for _ in range(self.rank)]
        coords = self.chart.coords
        for i, f in enumerate(x):
            if f.is_zero():
                continue
            for j, g in enumerate(y):
                brackets = self.structure.get((min(i, j), max(i, j)))
                if not brackets or g.is_zero():
                    continue
                fg = f * g
                sign = 1 if i < j else -1
                for k, cf in brackets.items():
                    pieces[k].append((sign, fg, cf))
        rx = _nonzero(self.rho_section(x))
        ry = _nonzero(self.rho_section(y))
        for j, g in enumerate(y):
            pieces[j] += _vf_pieces(rx, g, coords, 1)
        for i, f in enumerate(x):
            pieces[i] += _vf_pieces(ry, f, coords, -1)
        return [lincomb(self.chart, p) for p in pieces]


def _on_chart(chart: Chart, f: ScalarFn, what: str) -> ScalarFn:
    if not isinstance(f, ScalarFn):
        raise AlgebroidError(f"{what} {f!r} is not a ScalarFn")
    if f.chart is not chart and f.chart != chart:
        raise AlgebroidError(f"{what} {f} lives on chart {f.chart.name!r}, not {chart.name!r}")
    return f


def _nonzero(vf: Sequence[ScalarFn]) -> tuple[tuple[int, ScalarFn], ...]:
    """A coordinate vector field as its sparse row: the pairs (l, vf[l])
    with vf[l] non-zero."""
    return tuple((l, f) for l, f in enumerate(vf) if f.num)


def _vf_pieces(row: Sequence[tuple[int, ScalarFn]], f: ScalarFn, coords: Sequence[str], sign: int) -> list[tuple]:
    """The `lincomb` pieces of sign * vf(f) for a coordinate vector field
    given by its sparse row."""
    return [(sign, comp, f.partial(coords[l])) for l, comp in row]


def vector_field_bracket(
    chart: Chart, u: Sequence[ScalarFn], v: Sequence[ScalarFn]
) -> list[ScalarFn]:
    """[u, v] of coordinate vector fields on a chart."""
    coords = chart.coords
    su, sv = _nonzero(u), _nonzero(v)
    return [
        lincomb(chart, _vf_pieces(su, v[k], coords, 1) + _vf_pieces(sv, u[k], coords, -1))
        for k in range(chart.dim)
    ]


# ---------------------------------------------------------------------------
# alternating coefficient tables
# ---------------------------------------------------------------------------


def _sort_indices(idxs: Sequence[int]) -> Optional[tuple[int, tuple[int, ...]]]:
    """Sign and sorted tuple, or None when an index repeats."""
    if len(set(idxs)) != len(idxs):
        return None
    inversions = sum(x > y for x, y in combinations(idxs, 2))
    return -1 if inversions % 2 else 1, tuple(sorted(idxs))


class _AltTable:
    """Shared implementation of forms and multivectors on a frame.

    The constructor validates and sorts the index tuples it is given; the
    calculus builds the tables whose keys it generated itself, in order,
    through `_trusted`, which validates nothing."""

    def __init__(
        self,
        algebroid: AlgebroidPresentation,
        degree: int,
        comps: Mapping[tuple[int, ...], ScalarFn] | None = None,
    ):
        self.algebroid = algebroid
        self.degree = degree
        table: dict[tuple[int, ...], ScalarFn] = {}
        for key, f in (comps or {}).items():
            key = tuple(key)
            if len(key) != degree or any(
                not (0 <= k < algebroid.rank) for k in key
            ):
                raise AlgebroidError(f"bad index tuple {key} for degree {degree}")
            if list(key) != sorted(set(key)):
                raise AlgebroidError(f"index tuple {key} must be strictly increasing")
            if not f.is_zero():
                table[key] = f
        self.comps = dict(sorted(table.items()))

    @classmethod
    def _trusted(cls, algebroid: AlgebroidPresentation, degree: int, comps: Mapping[tuple[int, ...], ScalarFn]):
        """A table of components whose keys the calculus generated strictly
        increasing and in order: zero components dropped, nothing checked."""
        out = cls.__new__(cls)
        out.algebroid = algebroid
        out.degree = degree
        out.comps = {key: f for key, f in comps.items() if f.num}
        return out

    def is_zero(self) -> bool:
        return not self.comps

    def component(self, idxs: Sequence[int]) -> ScalarFn:
        """Signed component for an arbitrary index tuple."""
        res = _sort_indices(idxs)
        if res is None:
            return self.algebroid.chart.zero()
        sign, key = res
        f = self.comps.get(key)
        if f is None:
            return self.algebroid.chart.zero()
        return f if sign > 0 else -f

    def _check_compat(self, other: "_AltTable") -> None:
        if type(self) is not type(other) or self.algebroid != other.algebroid:
            raise AlgebroidError("operands live on different algebroids")

    def __add__(self, other):
        self._check_compat(other)
        if self.degree != other.degree:
            # formal degrees of zero elements are irrelevant
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise DegreeMismatch("cannot add different degrees")
        out = dict(self.comps)
        for key, f in other.comps.items():
            out[key] = out.get(key, self.algebroid.chart.zero()) + f
        return type(self)(self.algebroid, self.degree, out)

    def __neg__(self):
        return self._trusted(self.algebroid, self.degree, {k: -f for k, f in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f: Union[ScalarFn, Rational]) -> "_AltTable":
        if not isinstance(f, ScalarFn):
            f = self.algebroid.chart.const(f)
        return self._trusted(self.algebroid, self.degree, {k: f * g for k, g in self.comps.items()})

    def wedge(self, other: "_AltTable") -> "_AltTable":
        self._check_compat(other)
        acc: dict[tuple[int, ...], list[tuple]] = {}
        for k1, f1 in self.comps.items():
            for k2, f2 in other.comps.items():
                res = _sort_indices(k1 + k2)
                if res is not None:
                    sign, key = res
                    acc.setdefault(key, []).append((sign, f1, f2))
        return type(self)(self.algebroid, self.degree + other.degree, _sums(self.algebroid.chart, acc))

    def __eq__(self, other) -> bool:
        if not isinstance(other, _AltTable):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.algebroid == other.algebroid
            and self.degree == other.degree
            and self.comps == other.comps
        )

    __hash__ = None

    def __str__(self) -> str:
        if not self.comps:
            return "0"
        names = self._names()
        parts = []
        for key, f in self.comps.items():
            basis = "^".join(names[k] for k in key) if key else "1"
            coeff = str(f)
            if coeff == "1" and key:
                parts.append(basis)
            elif any(s in coeff for s in (" + ", " - ")):
                parts.append(f"({coeff})*{basis}" if key else f"({coeff})")
            else:
                parts.append(f"{coeff}*{basis}" if key else coeff)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.algebroid.name}, deg {self.degree}: {self})"


class FormField(_AltTable):
    """A differential form on the algebroid, in the coframe."""

    def _names(self) -> Sequence[str]:
        return self.algebroid.coframe


class Multivector(_AltTable):
    """A multivector field on the algebroid, in the frame."""

    def _names(self) -> Sequence[str]:
        return self.algebroid.frame


def zero_form(a: AlgebroidPresentation, degree: int) -> FormField:
    return FormField(a, degree, {})


def function_form(a: AlgebroidPresentation, f: ScalarFn) -> FormField:
    return FormField(a, 0, {(): f})


def one_form(a: AlgebroidPresentation, comps: Sequence[ScalarFn]) -> FormField:
    return FormField(a, 1, {(i,): f for i, f in enumerate(comps)})


def coframe_form(a: AlgebroidPresentation, k: int) -> FormField:
    return FormField(a, 1, {(k,): a.chart.one()})


def frame_vector(a: AlgebroidPresentation, i: int) -> Multivector:
    return Multivector(a, 1, {(i,): a.chart.one()})


def section_vector(a: AlgebroidPresentation, coeffs: Sequence[ScalarFn]) -> Multivector:
    return Multivector(a, 1, {(i,): f for i, f in enumerate(coeffs)})


def top_multivector(a: AlgebroidPresentation, coeff: ScalarFn) -> Multivector:
    return Multivector(a, a.rank, {tuple(range(a.rank)): coeff})


def top_form(a: AlgebroidPresentation, coeff: ScalarFn) -> FormField:
    return FormField(a, a.rank, {tuple(range(a.rank)): coeff})


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------


def _sums(chart: Chart, pieces: Mapping[tuple[int, ...], list[tuple]]) -> dict[tuple[int, ...], ScalarFn]:
    """Each index tuple's `lincomb` of its pieces."""
    return {key: lincomb(chart, p) for key, p in pieces.items()}


def d_A(alpha: FormField) -> FormField:
    """The Lie algebroid differential, expanded on frame tuples.

    Each component is one `lincomb` of the anchor terms rho(e_t) alpha(..)
    and the bracket terms C^m alpha(m, ..).  The partial derivative of a
    component along a coordinate is taken once per call, on first use."""
    a = alpha.algebroid
    k = alpha.degree
    coords = a.chart.coords
    comps = alpha.comps
    partials: dict[tuple[tuple[int, ...], int], ScalarFn] = {}
    out: dict[tuple[int, ...], ScalarFn] = {}
    for key in combinations(range(a.rank), k + 1):
        pieces: list[tuple] = []
        for t in range(k + 1):
            # an ordered sub-tuple of a sorted key is a stored key
            sub = key[:t] + key[t + 1 :]
            val = comps.get(sub)
            if val is None:
                continue
            sign = -1 if t % 2 else 1
            for j, comp in a.anchor_rows[key[t]]:
                d = partials.get((sub, j))
                if d is None:
                    d = partials[(sub, j)] = val.partial(coords[j])
                pieces.append((sign, comp, d))
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                brackets = a.structure.get((key[s], key[t]))
                if not brackets:
                    continue
                rest = tuple(x for u, x in enumerate(key) if u not in (s, t))
                for m, cf in brackets.items():
                    # (m,) + rest sorts by moving m past `pos` indices
                    pos = bisect_left(rest, m)
                    if pos < len(rest) and rest[pos] == m:
                        continue
                    val = comps.get(rest[:pos] + (m,) + rest[pos:])
                    if val is not None:
                        pieces.append((-1 if (s + t + pos) % 2 else 1, cf, val))
        out[key] = lincomb(a.chart, pieces)
    return FormField._trusted(a, k + 1, out)


def _contract(outer, inner) -> dict[tuple[int, ...], ScalarFn]:
    """Components of ``outer`` (form or multivector) contracted into ``inner``."""
    if outer.algebroid != inner.algebroid:
        raise AlgebroidError("operands live on different algebroids")
    if outer.degree > inner.degree:
        raise DegreeMismatch(
            f"cannot contract degree {outer.degree} into degree {inner.degree}"
        )
    pieces: dict[tuple[int, ...], list[tuple]] = {}
    for okey, g in outer.comps.items():
        for key, f in inner.comps.items():
            # insert the indices of okey one at a time, first one first
            sign = 1
            for idx in okey:
                if idx not in key:
                    break
                t = key.index(idx)
                key = key[:t] + key[t + 1 :]
                if t % 2:
                    sign = -sign
            else:
                pieces.setdefault(key, []).append((sign, g, f))
    return _sums(inner.algebroid.chart, pieces)


def interior(p: Multivector, alpha: FormField) -> FormField:
    """Contraction of a multivector into a form.

    For decomposables the first factor is inserted first, so that
    contracting e_1^e_2 into e^1^e^2 gives +1.
    """
    return FormField(alpha.algebroid, alpha.degree - p.degree, _contract(p, alpha))


def interior_form(alpha: FormField, p: Multivector) -> Multivector:
    """Contraction of a form into a multivector (same ordering convention)."""
    return Multivector(p.algebroid, p.degree - alpha.degree, _contract(alpha, p))


def schouten(p: Multivector, q: Multivector) -> Multivector:
    """Schouten–Gerstenhaber bracket of multivectors.

    Degree-1 elements act as Lie derivatives; the convention satisfies
    [P,Q] = -(-1)^{(p-1)(q-1)} [Q,P] and the graded Jacobi identity.
    """
    if p.algebroid != q.algebroid:
        raise AlgebroidError("operands live on different algebroids")
    a = p.algebroid
    deg = p.degree + q.degree - 1
    if deg < 0:
        return Multivector(a, 0, {})
    acc: dict[tuple[int, ...], list[tuple]] = {}

    def add(idxs: tuple[int, ...], sign: int, f: ScalarFn, g: ScalarFn) -> None:
        res = _sort_indices(idxs)
        if res is not None:
            sgn, key = res
            acc.setdefault(key, []).append((sign * sgn, f, g))

    for ikey, f in p.comps.items():
        pd = len(ikey)
        for jkey, g in q.comps.items():
            qd = len(jkey)
            sign3 = -1 if ((pd - 1) * (qd - 1)) % 2 else 1
            # [e_I, g] ^ e_J   (anchor of P-factors applied to g)
            for s in range(pd):
                df = a.rho_apply(ikey[s], g)
                if not df.is_zero():
                    add(ikey[:s] + ikey[s + 1 :] + jkey, -1 if (pd - 1 - s) % 2 else 1, f, df)
            # f g [e_I, e_J]  (frame brackets)
            fg = None
            for s in range(pd):
                for t in range(qd):
                    brackets = a.bracket_frame(ikey[s], jkey[t])
                    if brackets and fg is None:
                        fg = f * g
                    for m, cf in brackets.items():
                        add(
                            (m,)
                            + ikey[:s]
                            + ikey[s + 1 :]
                            + jkey[:t]
                            + jkey[t + 1 :],
                            -1 if (s + t) % 2 else 1,  # (-1)^{(s+1)+(t+1)}
                            fg,
                            cf,
                        )
            # -(-1)^{(p-1)(q-1)} g [e_J, f] ^ e_I
            for t in range(qd):
                df = a.rho_apply(jkey[t], f)
                if not df.is_zero():
                    sign = -1 if (qd - 1 - t) % 2 else 1
                    add(jkey[:t] + jkey[t + 1 :] + ikey, sign * -sign3, g, df)
    return Multivector(a, deg, _sums(a.chart, acc))


def top_bracket(a: AlgebroidPresentation, i: int, s: ScalarFn) -> ScalarFn:
    """The coefficient of [e_i, s e_1^..^e_r] on e_1^..^e_r, by the trace
    formula rho(e_i)(s) + s * sum_k C^k_ik.

    Of the bracket with a frame section only the anchor term and the
    diagonal of its structure functions reach the top power, so this is
    the top component of ``schouten(frame_vector(a, i), top_multivector(a,
    s))`` without the rest of the graded expansion.  The anchor term runs
    over the sparse row of e_i, and the trace over the stored pairs that
    contain i: C^k_ik from (i, k) and -C^k_ki from (k, i).
    """
    pieces = _vf_pieces(a.anchor_rows[i], s, a.chart.coords, 1)
    for (u, v), comps in a.structure.items():
        if u == i and v in comps:
            pieces.append((1, s, comps[v]))
        elif v == i and u in comps:
            pieces.append((-1, s, comps[u]))
    return lincomb(a.chart, pieces)


# ---------------------------------------------------------------------------
# stock presentations
# ---------------------------------------------------------------------------


def tangent_algebroid(chart: Chart, name: Optional[str] = None) -> AlgebroidPresentation:
    """The tangent algebroid of a chart: identity anchor, zero brackets."""
    frame = tuple("d/d" + c for c in chart.coords)
    coframe = tuple("d" + c for c in chart.coords)
    anchor = [[chart.one() if i == k else chart.zero() for k in range(chart.dim)] for i in range(chart.dim)]
    return AlgebroidPresentation(name or ("T" + chart.name), chart, frame, anchor, {}, coframe)


def is_tangent(a: AlgebroidPresentation) -> bool:
    """Identity anchor on the chart's coordinates and no brackets, so that
    d_A f is (df/dx_i)_i: ``a`` presents the tangent algebroid of its chart."""
    return (
        a.rank == a.chart.dim
        and not a.structure
        and all(row == ((i, 1),) for i, row in enumerate(a.anchor_rows))
    )


def zero_algebroid(chart: Chart, name: Optional[str] = None) -> AlgebroidPresentation:
    return AlgebroidPresentation(name or ("0_" + chart.name), chart, (), (), {})


def lie_algebra_presentation(
    name: str,
    frame: Sequence[str],
    brackets: Mapping[tuple[int, int], Mapping[int, Rational]],
    chart: Optional[Chart] = None,
) -> AlgebroidPresentation:
    """A Lie algebra as an algebroid over a point (or a totally intransitive
    bundle with constant structure over any chart)."""
    chart = chart or point_chart()
    anchor = [[chart.zero()] * chart.dim for _ in frame]
    structure = {key: {k: chart.const(v) for k, v in comps.items()} for key, comps in brackets.items()}
    return AlgebroidPresentation(name, chart, frame, anchor, structure)


def derivation_algebroid(
    chart: Chart, bundle_frame: Sequence[str]
) -> AlgebroidPresentation:
    """Derivations of a framed bundle: coordinate fields plus gl(m) matrices.

    Frame: d/dx_1..d/dx_n, then E_<t><s> acting by E_ts eps_s = eps_t.
    """
    n, m = chart.dim, len(bundle_frame)
    frame = ["d/d" + c for c in chart.coords] + [f"E[{t},{s}]" for t in bundle_frame for s in bundle_frame]
    anchor = tangent_algebroid(chart).anchor + ((chart.zero(),) * n,) * (m * m)
    idx = lambda t, s: n + t * m + s
    structure: dict[tuple[int, int], dict[int, ScalarFn]] = {}
    # pairs (t, s) < (u, v), so idx(t, s) < idx(u, v); the presentation drops zeros
    for (t, s), (u, v) in combinations(product(range(m), repeat=2), 2):
        # [E_ts, E_uv] = delta_su E_tv - delta_vt E_us
        comps = structure.setdefault((idx(t, s), idx(u, v)), {})
        if s == u:
            comps[idx(t, v)] = chart.one()
        if v == t:
            comps[idx(u, s)] = comps.get(idx(u, s), chart.zero()) - chart.one()
    return AlgebroidPresentation(f"D({chart.name})", chart, frame, anchor, structure)


def same_presentation(a: AlgebroidPresentation, b: AlgebroidPresentation) -> bool:
    """Structural equality ignoring names (frame order must match)."""
    return a.chart == b.chart and a.rank == b.rank and a.anchor == b.anchor and a.structure == b.structure


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


def check_axioms(a: AlgebroidPresentation) -> CheckReport:
    """d^2 = 0 on coordinate functions and coframe, anchor homomorphism.

    The anchor residuals res_ijl = (rho([e_i, e_j]) - [rho(e_i), rho(e_j)])_l
    are computed once, and each partial of an anchor entry is taken once per
    call, on first use.  For a coordinate x_l, d_A x_l is the 1-form
    e_i -> rho(e_i)_l, so (d_A d_A x_l)(e_i, e_j) = rho(e_i)(rho(e_j)_l)
    - rho(e_j)(rho(e_i)_l) - rho([e_i, e_j])_l = -res_ijl: the "d(d x_l)"
    items are read off the residuals.  For a coframe element, the anchor
    terms of d_A e^k differentiate the constant 1, so

        d_A e^k = -sum_{i<j} C^k_ij e^i^e^j

    is read off the structure functions, and one d_A of it gives the
    "d(d e^k)" item.  Its (i, j, l) component is component k of the Jacobi
    sum Jac(e_i, e_j, e_l) = [[e_i, e_j], e_l] + [[e_j, e_l], e_i]
    + [[e_l, e_i], e_j]: these items are the Jacobi identity of the frame.

    When the anchor is generically injective they are read off the
    residuals instead.  R(x, y) = rho[x, y] - [rho x, rho y] is tensorial
    (the Leibniz terms rho(x)(f) rho(y) cancel), so it vanishes when every
    R(e_i, e_j) = res_ij does.  Expanding rho[[x, y], z] twice by R and
    summing cyclically, the Jacobi identity of vector fields leaves

        rho(Jac(x, y, z)) = sum_cyc ([R(x, y), rho z] + R([x, y], z)),

    so R = 0 gives sum_k Jac^k rho(e_k) = 0; on frame sections, where
    R([e_x, e_y], e_z) = sum_m C^m_xy res_mz, the right side V is read off
    the residuals.  The ring is an integral domain (see
    `ratlinalg.generic_rank`), so anchor rows independent over its fraction
    field fix every Jac^k.  ``data["jacobi"]`` names the route:

    - a non-zero rank-minor of the anchor, when every residual vanishes:
      each "d(d e^k)" item passes with no d_A taken (only the generic rank
      matters, not a minor that vanishes nowhere);
    - "unit pivots", when a residual does not vanish and the transposed
      anchor has a unit pivot in every column: one `unit_pivot_solve` of
      rho^T Jac = V, with a column per sorted triple whose V is non-zero,
      gives every Jac^k (a zero V gives Jac = 0), with no d_A taken;
    - "d_A" otherwise, a rank of 0 or above the chart dimension included:
      one d_A per coframe element.
    """
    rep = CheckReport(f"axioms of {a.name}")
    coords = a.chart.coords

    @cache
    def anchor_partial(j: int, l: int, c: int) -> ScalarFn:
        return a.anchor[j][l].partial(coords[c])

    rows = a.anchor_rows
    residuals: dict[tuple[int, int], list[ScalarFn]] = {}
    for i in range(a.rank):
        for j in range(i + 1, a.rank):
            # rho([e_i, e_j]) - [rho(e_i), rho(e_j)], by component l
            pieces: list[list[tuple]] = [[] for _ in coords]
            for k, cf in a.structure.get((i, j), {}).items():
                for l, f in rows[k]:
                    pieces[l].append((1, cf, f))
            for c, f in rows[i]:
                for l, _ in rows[j]:
                    pieces[l].append((-1, f, anchor_partial(j, l, c)))
            for c, f in rows[j]:
                for l, _ in rows[i]:
                    pieces[l].append((1, f, anchor_partial(i, l, c)))
            residuals[(i, j)] = [lincomb(a.chart, p) for p in pieces]
    for l, coord in enumerate(coords):
        res = FormField._trusted(a, 2, {key: -row[l] for key, row in residuals.items()})
        rep.residual(f"d(d {coord}) = 0", res)
    nonzero = {key: _nonzero(row) for key, row in residuals.items() if any(f.num for f in row)}

    def image(t: tuple[int, ...]) -> list[ScalarFn]:
        # rho(Jac(e_p, e_q, e_r)) = sum_cyc ([R_xy, rho e_z] + sum_m C^m_xy R_mz)
        pieces: list[list[tuple]] = [[] for _ in coords]
        for x, y, z in (t, t[1:] + t[:1], t[2:] + t[:2]):
            s, key = (1, (x, y)) if x < y else (-1, (y, x))
            for c, f in nonzero.get(key, ()):
                for l, _ in rows[z]:
                    pieces[l].append((s, f, anchor_partial(z, l, c)))
            for l, f in nonzero.get(key, ()):
                pieces[l] += _vf_pieces(rows[z], f, coords, -s)
            for m, cf in a.structure.get(key, {}).items():
                sm, mz = (1, (m, z)) if m < z else (-1, (z, m))
                for l, f in nonzero.get(mz, ()):
                    pieces[l].append((s * sm, cf, f))
        return [lincomb(a.chart, p) for p in pieces]

    jacobi, jac = "d_A", None  # jac: the non-zero Jac(e_p, e_q, e_r) by sorted triple
    if 0 < a.rank <= a.chart.dim and not nonzero:
        minor = generic_rank(a.anchor)
        if len(minor[0]) == a.rank:
            jacobi, jac = minor, {}
    elif 0 < a.rank <= a.chart.dim:
        # the solve runs with no column too: its unit pivots certify injectivity
        images = {t: v for t in combinations(range(a.rank), 3) for v in [image(t)] if any(f.num for f in v)}
        try:
            jac = dict(zip(images, unit_pivot_solve([list(col) for col in zip(*a.anchor)], list(images.values()))))
            jacobi = "unit pivots"
        except FrameSolveFailure:
            pass
    rep.data["jacobi"] = jacobi
    for k in range(a.rank):
        label = f"d(d {a.coframe[k]}) = 0"
        if jac is not None:
            rep.residual(label, FormField._trusted(a, 3, {t: sol[k] for t, sol in jac.items()}))
            continue
        # d_A is linear: the sign of d_A e^k is applied to the residual,
        # which is zero when the check passes
        c_k = FormField(a, 2, {key: comps[k] for key, comps in a.structure.items() if k in comps})
        rep.residual(label, -d_A(c_k))
    for (i, j), row in residuals.items():
        for coord, res in zip(coords, row):
            rep.residual(f"anchor([{a.frame[i]},{a.frame[j]}]) . {coord}", res)
    return rep
