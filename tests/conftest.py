"""Shared builders: charts, stock algebroids, randomized generators."""

import contextlib
import functools
import itertools
import random
from bisect import bisect_left
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import event, settings
from hypothesis import strategies as st

from algebroids.core import (
    AlgebroidPresentation,
    FormField,
    _AltTable,
    coframe_form,
    frame_vector,
    lie_algebra_presentation,
    one_form,
    schouten,
)
from algebroids import ratlinalg
from algebroids.extensions import subalgebroid_from_vector_fields
from algebroids.morphisms import pullback_form
from algebroids.report import CheckReport
from algebroids.reps import Representation
from algebroids.symexpr import (
    Chart,
    PeriodicityViolation,
    ScalarFn,
    SymExprError,
    _norm_trig,
    _slope,
    _term_sort_key,
    _trig_product,
    _vec_add,
    cos,
    exp,
    lincomb,
    sin,
)


# `--hypothesis-profile=ci -m deep` reruns the properties marked `deep`,
# which take a smaller budget in the tier-1 run, with a deeper search
settings.register_profile("ci", max_examples=2000, deadline=None)


def examples(tier1):
    """The example count of a property that runs ``tier1`` examples in the
    tier-1 run and the `ci` profile's count under
    ``--hypothesis-profile=ci``.  An explicit ``max_examples`` beats the
    loaded profile, so a property with its own tier-1 count passes it
    through here.  The profile is loaded before the test modules are
    imported, when their decorators call this."""
    ci = settings.get_profile("ci").max_examples
    return ci if settings.default.max_examples == ci else tier1


def chart_r(n, name=None, periodic=()):
    coords = tuple("xyzuvw"[i] for i in range(n))
    return Chart(name or f"R{n}", coords, periodic or (False,) * n)


@pytest.fixture
def R1():
    return Chart("R1", ("x",))


@pytest.fixture
def R2():
    return Chart("R2", ("x", "y"))


@pytest.fixture
def R3():
    return Chart("R3", ("x", "y", "z"))


@pytest.fixture
def S1():
    return Chart("S1", ("theta",), (True,))


@pytest.fixture
def CYL():
    return Chart("N", ("theta", "x"), (True, False))


def aff1():
    """Nonabelian 2-dimensional algebra: [e1, e2] = e2."""
    return lie_algebra_presentation("aff1", ("e1", "e2"), {(0, 1): {1: 1}})


def swapped_aff1():
    """aff(1) with its frame swapped: [e1, e2] = -e1."""
    return lie_algebra_presentation("aff1'", ("e1", "e2"), {(0, 1): {0: -1}})


def so3(chart=None):
    """[e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2, over a point or over ``chart``."""
    return lie_algebra_presentation(
        "so3", ("e1", "e2", "e3"), {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}, chart
    )


def heisenberg():
    return lie_algebra_presentation("heis", ("p", "q", "z"), {(0, 1): {2: 1}})


def cylinder_algebroid(chart=None):
    """Rank-1 subalgebroid of the tangent bundle of the cylinder, generated
    by the spiral field d/dtheta + x d/dx."""
    chart = chart or Chart("N", ("theta", "x"), (True, False))
    x = chart.coord("x")
    return AlgebroidPresentation("B", chart, ("b",), [[chart.one(), x]])


def random_lie_algebra(rng, max_dim=4, name="g"):
    """A random solvable/semidirect Lie algebra, conjugated by a random
    unimodular rational matrix.  Always satisfies Jacobi by construction."""
    n = rng.randint(2, max_dim)
    # abelian ideal spanned by e_1..e_{n-1}, acted on by e_n via a matrix
    mat = [[Fraction(rng.randint(-2, 2)) for _ in range(n - 1)] for _ in range(n - 1)]
    struct = {}
    for i in range(n - 1):
        comps = {j: mat[j][i] for j in range(n - 1) if mat[j][i] != 0}
        if comps:
            struct[(i, n - 1)] = {j: -v for j, v in comps.items()}  # [e_i, e_n] = -A e_i
    base = lie_algebra_presentation(name, tuple(f"e{i+1}" for i in range(n)), struct)
    return conjugate_lie_algebra(base, random_unimodular(rng, n), name)


def random_unimodular(rng, n):
    """Product of a few random elementary matrices (det +-1)."""
    m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.randint(-2, 2))
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def conjugate_lie_algebra(a, g, name):
    """Change of frame e'_i = sum_j g[j][i] e_j (over a point chart)."""
    from algebroids.ratlinalg import rat_solve

    n = a.rank
    cols = [[g[r][i] for r in range(n)] for i in range(n)]
    struct = {}
    for i in range(n):
        for j in range(i + 1, n):
            # [e'_i, e'_j] in the old frame
            vec = [Fraction(0)] * n
            for r in range(n):
                for s in range(n):
                    if cols[i][r] == 0 or cols[j][s] == 0:
                        continue
                    for k in range(n):
                        c = a.c(r, s, k).constant_value()
                        if c:
                            vec[k] += cols[i][r] * cols[j][s] * c
            rows = [[g[r][c] for c in range(n)] for r in range(n)]
            sol, wit = rat_solve(rows, vec)
            assert wit is None
            comps = {k: v for k, v in enumerate(sol) if v != 0}
            if comps:
                struct[(i, j)] = comps
    return lie_algebra_presentation(name, tuple(f"f{i+1}" for i in range(n)), struct)


def rat_nullspace(rows, n=None):
    """Basis of the right nullspace of A (rows over Fraction), read off the
    reduced rows of the library's elimination: a test reference, with one
    vector per free column that is the unit vector there.  Reduced rows
    keep their pivot values, so each entry is divided by its row's pivot."""
    m = len(rows)
    if n is None:
        n = len(rows[0]) if m else 0
    a = [ratlinalg._integral({j: x for j, x in enumerate(row) if x})[0] for row in rows]
    pivots, _ = ratlinalg._eliminate(a, [1] * m, n)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for c in range(n):
        if c in pivot_cols:
            continue
        v = [Fraction(0)] * n
        v[c] = Fraction(1)
        for p, pc in pivots:
            v[pc] = -Fraction(a[p].get(c, 0), a[p][pc])
        basis.append(v)
    return basis


def reference_eliminate(rows, n):
    """Sparse Gauss-Jordan over the rationals, in place, with every pivot
    row scaled to 1 and integral values kept as int: the elimination the
    fraction-free `ratlinalg._eliminate` replaced, kept as its reference.
    Pivots are chosen as there (the shortest unpivoted row with an entry in
    the column, ties to the lower index).  Returns ``(pivots, transforms)``
    as `ratlinalg._eliminate` does."""
    occupied = {}
    for i, row in enumerate(rows):
        for c in row:
            occupied.setdefault(c, set()).add(i)
    transforms = [{i: 1} for i in range(len(rows))]
    pivoted = set()
    pivots = []
    for c in range(n):
        cands = occupied.get(c, set()) - pivoted
        if not cands:
            continue
        p = min(cands, key=lambda i: (len(rows[i]), i))
        prow, ptr = rows[p], transforms[p]
        inv = 1 / Fraction(prow[c])
        for vec in (prow, ptr):
            for k, v in vec.items():
                vec[k] = _slope(v * inv)
        for i in list(occupied[c]):
            if i == p:
                continue
            row, tr = rows[i], transforms[i]
            g = row[c]
            for k, v in prow.items():
                x = _slope(row.get(k, 0) - g * v)
                if x:
                    if k not in row:
                        occupied.setdefault(k, set()).add(i)
                    row[k] = x
                else:
                    del row[k]
                    occupied[k].discard(i)
            for k, v in ptr.items():
                x = _slope(tr.get(k, 0) - g * v)
                if x:
                    tr[k] = x
                else:
                    del tr[k]
        pivoted.add(p)
        pivots.append((p, c))
    return pivots, transforms


def reference_factored(rows, n):
    """The solve of A x = b over the rationals, for the sparse rows
    ``{col: int or Fraction}`` of A (consumed), by `reference_eliminate`:
    the reference of `ratlinalg.FactoredSystem`.  Returns
    ``solve(rhs, outside=())`` with the signature and results of
    `FactoredSystem.solve`."""
    m = len(rows)
    pivots, transforms = reference_eliminate(rows, n)
    pivot_rows = {p for p, _ in pivots}
    checks = [tr for i, tr in enumerate(transforms) if i not in pivot_rows]
    contrib = [[] for _ in range(m)]
    for s, tr in enumerate([transforms[p] for p, _ in pivots] + checks):
        for k, v in tr.items():
            contrib[k].append((s, v))

    def solve(rhs, outside=()):
        size = m + len(outside)
        for j, q in enumerate(outside):
            if q:
                y = [Fraction(0)] * size
                y[m + j] = 1 / Fraction(q)
                return None, y
        acc = {}
        for k, q in rhs.items():
            for s, v in contrib[k]:
                acc[s] = acc.get(s, 0) + v * q
        rank = len(pivots)
        bad = [s for s, t in acc.items() if s >= rank and t]
        if bad:
            s = min(bad)
            inv = 1 / Fraction(acc[s])
            y = [Fraction(0)] * size
            for k, v in checks[s - rank].items():
                y[k] = v * inv
            return None, y
        x = [Fraction(0)] * n
        for s, (_, c) in enumerate(pivots):
            x[c] = Fraction(acc.get(s, 0))
        return x, None

    return solve


def reference_det(rows):
    """Plain Laplace expansion along the first row, nothing shared: a test
    reference for `scalar_det` and the rank certificates."""
    if len(rows) == 1:
        return rows[0][0]
    total = rows[0][0].chart.zero()
    for t, entry in enumerate(rows[0]):
        sub = reference_det([row[:t] + row[t + 1 :] for row in rows[1:]])
        total = total + (entry * sub if t % 2 == 0 else -(entry * sub))
    return total


def _poly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod(a, b):
    """Quotient and remainder over Fraction, lowest degree first."""
    r, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(r) >= len(b):
        c, shift = r[-1] / b[-1], len(r) - len(b)
        q[shift] = c
        for k, y in enumerate(b):
            r[shift + k] -= c * y
        _poly_trim(r)
    return q, r


def reference_real_roots(coeffs):
    """The number of distinct real roots of the polynomial with
    ``coeffs`` (lowest degree first), by Descartes' rule of signs and
    bisection over Fraction (the Vincent-Collins-Akritas method), not by
    Sturm sequences: a test reference for `ratlinalg._real_roots`.

    The polynomial is first made square-free, p / gcd(p, p'), so the
    bisection ends.  Its roots lie in the open interval (-B, B) of
    Cauchy's bound B = 1 + max |a_i / a_d|.  On (a, b) the sign variations
    of (1 + x)^d p((a + b x) / (1 + x)) bound the roots there and have
    their parity, so 0 and 1 are exact; otherwise (a, b) is halved, and
    the midpoint checked on its own."""
    p = _poly_trim([Fraction(c) for c in coeffs])
    if len(p) <= 1:
        return 0
    g, r = p, _poly_trim([k * c for k, c in enumerate(p)][1:])
    while r:
        g, r = r, _poly_divmod(g, r)[1]
    p = _poly_trim(_poly_divmod(p, g)[0])
    if len(p) <= 1:
        return 0

    def value(x):
        acc = Fraction(0)
        for c in reversed(p):
            acc = acc * x + c
        return acc

    def variations(a, b):
        d = len(p) - 1
        total = [Fraction(0)] * (d + 1)
        for i, c in enumerate(p):
            term = [c]
            for _ in range(i):
                term = _poly_mul(term, [a, b])
            for _ in range(d - i):
                term = _poly_mul(term, [Fraction(1), Fraction(1)])
            total = [x + y for x, y in zip(total, term)]
        signs = [x > 0 for x in total if x]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    def count(a, b):
        v = variations(a, b)
        if v <= 1:
            return v
        mid = (a + b) / 2
        return count(a, mid) + (value(mid) == 0) + count(mid, b)

    bound = 1 + max(abs(c / p[-1]) for c in p[:-1])
    return count(-bound, bound)


def reference_nowhere_zero(f):
    """Whether ``f`` is one of the nowhere-zero kinds `ratlinalg.nowhere_zero`
    certifies, read off its rational terms: one exp factor shared by every
    term times a constant, a one-variable polynomial in a non-periodic
    coordinate without real roots (`reference_real_roots`), or a trig
    polynomial whose constant dominates the sum of the other |coefficients|."""
    terms = f.terms
    if not terms or len({expv for _, _, expv in terms}) != 1:
        return False
    if all(trig is None for _, trig, _ in terms):
        used = sorted({j for mono, _, _ in terms for j, e in enumerate(mono) if e})
        if not used:
            return True
        if len(used) > 1 or f.chart.periodic[used[0]]:
            return False
        coeffs = [0] * (max(mono[used[0]] for mono, _, _ in terms) + 1)
        for (mono, _, _), q in terms.items():
            coeffs[mono[used[0]]] = q
        return reference_real_roots(coeffs) == 0
    if any(any(mono) for mono, _, _ in terms):
        return False
    const = sum(q for (_, trig, _), q in terms.items() if trig is None)
    return abs(const) > sum(abs(q) for (_, trig, _), q in terms.items() if trig is not None)


def reference_rank_certificate(rows):
    """`ratlinalg.rank_certificate` as one routine, before its bordering
    phase became `ratlinalg.generic_rank`: the bordered minor grown from
    the empty one by its first non-zero border, then the first minor of
    its size that `nowhere_zero` certifies."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    memo: dict = {}

    def borders(rsel, csel):
        for i in range(m):
            if i in rsel:
                continue
            for j in range(n):
                if j not in csel:
                    yield tuple(sorted((*rsel, i))), tuple(sorted((*csel, j)))

    bordered = ((), ())
    while grown := next((b for b in borders(*bordered) if not ratlinalg.scalar_det(rows, *b, memo).is_zero()), None):
        bordered = grown
    r = len(bordered[0])
    if r == 0:
        return ratlinalg.RankCertificate(0, bordered, bordered)
    witness = next(
        (
            (rsel, csel)
            for rsel in itertools.combinations(range(m), r)
            for csel in itertools.combinations(range(n), r)
            if ratlinalg.nowhere_zero(ratlinalg.scalar_det(rows, rsel, csel, memo))
        ),
        None,
    )
    return ratlinalg.RankCertificate(r, bordered, witness)


def check_rank_certificate(rows, cert):
    """Re-verify a `ratlinalg.RankCertificate` of ``rows`` by `reference_det`:
    its bordered minor is non-zero, every minor bordering it vanishes, and
    its witness minor, if any, is of the same size and nowhere zero by
    `reference_nowhere_zero`.  The empty minor is 1, so at rank 0 only the
    vanishing of every entry is left to check."""
    m = len(rows)
    n = len(rows[0]) if m else 0

    def minor(rsel, csel):
        return reference_det([[rows[i][j] for j in csel] for i in rsel])

    rsel, csel = cert.bordered
    assert len(rsel) == len(csel) == cert.rank
    assert list(rsel) == sorted(set(rsel)) and list(csel) == sorted(set(csel))
    assert not rsel or not minor(rsel, csel).is_zero()
    for i in sorted(set(range(m)) - set(rsel)):
        for j in sorted(set(range(n)) - set(csel)):
            assert minor(sorted((*rsel, i)), sorted((*csel, j))).is_zero()
    if cert.witness is not None:
        wrows, wcols = cert.witness
        assert len(wrows) == len(wcols) == cert.rank
        assert not wrows or reference_nowhere_zero(minor(wrows, wcols))


def product_basis(space):
    """The ansatz basis of ``space`` built through the ring: each function
    the product monomial * trig * exp, the monomials as coordinate powers
    and the atoms from their linear arguments.  A test reference for
    `AnsatzSpace.basis`, which writes each term key directly."""
    chart = space.chart
    nonper = [i for i, p in enumerate(chart.periodic) if not p]
    per = [i for i, p in enumerate(chart.periodic) if p]
    monos = []
    for degs in itertools.product(range(space.degree + 1), repeat=len(nonper)):
        if sum(degs) > space.degree:
            continue
        f = chart.one()
        for idx, d in zip(nonper, degs):
            if d:
                f = f * chart.coord(chart.coords[idx]) ** d
        monos.append(f)
    trigs = [chart.one()]
    if per:
        modes_range = range(-space.fourier_modes, space.fourier_modes + 1)
        for modes in itertools.product(modes_range, repeat=len(per)):
            if all(m == 0 for m in modes):
                continue
            if next(m for m in modes if m != 0) < 0:
                continue
            arg = chart.zero()
            for idx, m in zip(per, modes):
                if m:
                    arg = arg + m * chart.coord(chart.coords[idx])
            trigs += [sin(arg), cos(arg)]
    exps = [chart.one()]
    for slope in space.exp_slopes:
        arg = chart.zero()
        for c, name in zip(slope, chart.coords):
            if c:
                arg = arg + chart.const(c) * chart.coord(name)
        exps.append(exp(arg))
    return [m * t * e for m in monos for t in trigs for e in exps]


# -- a Fraction-based reference ring -------------------------------------------
#
# The ring as it was before `ScalarFn` stored int numerators over one
# denominator: term maps {key: int or Fraction}, the one half of a trig
# product applied to each trig x trig term as Fraction(1, 2).  A test
# reference for the int kernels, which must give the same `terms`.

_HALF = Fraction(1, 2)


def reference_make(items):
    """Merge raw term items: equal keys summed, zeros dropped, canonical
    order, integral coefficients as int."""
    terms = {}
    for key, q in items:
        if not q:
            continue
        acc = terms.get(key)
        if acc is None:
            terms[key] = q
        else:
            acc += q
            if acc:
                terms[key] = acc
            else:
                del terms[key]
    keys = sorted(terms, key=_term_sort_key) if len(terms) > 1 else terms
    return {k: _slope(terms[k]) for k in keys}


def reference_product_items(items, f_items, g_items, c):
    """Append the unmerged term items of c*f*g to ``items``."""
    g_items = list(g_items)
    for (m1, t1, e1), q1 in f_items:
        for (m2, t2, e2), q2 in g_items:
            mono = tuple(a + b for a, b in zip(m1, m2))
            expv = _vec_add(e1, e2)
            q = c * q1 * q2
            if t1 is None or t2 is None:
                items.append(((mono, t1 or t2, expv), q))
            else:
                for sign, atom in _trig_product(t1, t2):
                    items.append(((mono, atom, expv), sign * q * _HALF))


def reference_derivative_items(terms, j):
    items = []
    for (mono, trig, expv), q in terms.items():
        if mono[j] > 0:
            m2 = tuple(e - 1 if i == j else e for i, e in enumerate(mono))
            items.append(((m2, trig, expv), q * mono[j]))
        if trig is not None and trig[1][j] != 0:
            kind, c = trig
            dq = q * c[j]
            if kind == "sin":
                mult, atom = _norm_trig("cos", c)
            else:
                mult, atom = _norm_trig("sin", c)
                dq = -dq
            items.append(((mono, atom, expv), dq * mult))
        if expv[j] != 0:
            items.append(((mono, trig, expv), q * expv[j]))
    return items


def reference_vec_add(a, b):
    return tuple(_slope(x + y) for x, y in zip(a, b))


def reference_vec_sub(a, b):
    return tuple(_slope(x - y) for x, y in zip(a, b))


def reference_mul(f, g):
    items = []
    reference_product_items(items, f.items(), g.items(), 1)
    return reference_make(items)


def reference_lincomb(pieces):
    """The term map of the sum of `lincomb` pieces (c, f) and (c, f, g)."""
    items = []
    for c, f, *g in pieces:
        if g:
            reference_product_items(items, f.terms.items(), g[0].terms.items(), c)
        else:
            items += [(k, c * q) for k, q in f.terms.items()]
    return reference_make(items)


def reference_unit_inverse(f):
    ((mono, _, expv), q), = f.terms.items()
    return reference_make([((mono, None, tuple(-d for d in expv)), Fraction(1, q))])


def reference_linear_substitute(f, source, images):
    """The term map of f o images for linear images (sum c_j x_j each)."""
    zero = (0,) * source.dim
    slopes = []
    for img in images:
        vec = [0] * source.dim
        for (mono, _, _), q in img.terms.items():
            vec[mono.index(1)] = q
        slopes.append(vec)

    def pulled(vec):
        return tuple(_slope(Fraction(sum(c * s[i] for c, s in zip(vec, slopes)))) for i in range(source.dim))

    items = []
    for (mono, trig, expv), q in f.terms.items():
        part = {(zero, None, zero): q}
        for j, e in enumerate(mono):
            for _ in range(e):
                part = reference_mul(part, images[j].terms)
        if trig is not None:
            mult, atom = _norm_trig(trig[0], pulled(trig[1]))
            part = reference_mul(part, {(zero, atom, zero): mult})
        if any(expv):
            part = reference_mul(part, {(zero, None, pulled(expv)): 1})
        items += part.items()
    return reference_make(items)


def reference_substitute(f, source, images):
    """f o images as `ScalarFn.substitute` composed it term by term through
    the ring before `ChartMap`: each term's image powers, sin/cos and exp
    of the composed argument multiplied out, then one `lincomb`.  A test
    reference for `ChartMap.pull`, results and exceptions alike."""
    if len(images) != f.chart.dim:
        raise SymExprError("basemap component count mismatch")
    for img in images:
        if img.chart != source:
            raise SymExprError("basemap component on wrong chart")
    used = [False] * f.chart.dim
    for mono, trig, expv in f.num:
        for j in range(f.chart.dim):
            if mono[j] or expv[j] or (trig is not None and trig[1][j] != 0):
                used[j] = True
    for j, u in enumerate(used):
        if u and f.chart.periodic[j]:
            _reference_check_periodic_image(source, images[j], f.chart.coords[j])
    pieces = []
    for (mono, trig, expv), q in f.num.items():
        part = source.one()
        for j, e in enumerate(mono):
            if e:
                part = part * images[j] ** e
        if trig is not None:
            arg = lincomb(source, [(c, g) for c, g in zip(trig[1], images) if c])
            arg.linear_slopes()  # ClosureViolation if not pure-linear
            part = part * (sin(arg) if trig[0] == "sin" else cos(arg))
        if any(expv):
            arg = lincomb(source, [(c, g) for c, g in zip(expv, images) if c])
            arg.linear_slopes()
            part = part * exp(arg)
        pieces.append((q, part))
    total = lincomb(source, pieces)
    if f.den == 1:
        return total
    return ScalarFn._make(source, total.num.items(), total.den * f.den)


def _reference_check_periodic_image(source, img, name):
    for (mono, trig, expv), q in img.num.items():
        if trig is not None or any(expv) or sum(mono) > 1:
            raise PeriodicityViolation(
                f"periodic coordinate {name!r} receives a non-affine expression"
            )
        for j, e in enumerate(mono):
            if e:
                if source.periodic[j] and q % img.den:
                    raise PeriodicityViolation(
                        f"periodic coordinate {name!r} receives slope "
                        f"{Fraction(q, img.den)} on periodic coordinate {source.coords[j]!r}"
                    )


def count_sampling(monkeypatch, check, *args, **kwargs):
    """Run one check and count its ScalarFn.evaluate and float_rank calls."""
    counts = {"evaluate": 0, "float_rank": 0}
    evaluate, rank = ScalarFn.evaluate, ratlinalg.float_rank

    def counting_evaluate(self, points, atoms=None):
        counts["evaluate"] += 1
        return evaluate(self, points, atoms)

    def counting_rank(stack):
        counts["float_rank"] += 1
        return rank(stack)

    monkeypatch.setattr(ScalarFn, "evaluate", counting_evaluate)
    monkeypatch.setattr(ratlinalg, "float_rank", counting_rank)
    rep = check(*args, **kwargs)
    monkeypatch.undo()
    return rep, counts


def reference_pairs(chart, seed, count):
    """The (numerator, denominator) pairs a sampled check draws, written
    out: a fresh ``random.Random(seed)``, then per point and per coordinate
    a numerator in [-60, 60] and a denominator in [1, 13]."""
    rng = random.Random(seed)
    return [[(rng.randint(-60, 60), rng.randint(1, 13)) for _ in chart.coords] for _ in range(count)]


def reference_points(chart, seed, count):
    """The points a sampled check hands its float consumers: each pair of
    `reference_pairs` as the float of its exact fraction."""
    return [[float(Fraction(p, q)) for p, q in pt] for pt in reference_pairs(chart, seed, count)]


def reference_sampled_ranks(rows, chart, seed, samples):
    """The ranks a sampled rank check sees, point by point: draw a point
    of `reference_pairs`, evaluate every entry there, rank that one matrix."""
    points = [[Fraction(p, q) for p, q in pt] for pt in reference_pairs(chart, seed, samples)]
    return [ratlinalg.float_rank([[f.evaluate(pt) for f in row] for row in rows]) for pt in points]


def capture_sampled_points(monkeypatch, module, check, *args, **kwargs):
    """Run one check and return the point batches it hands to the
    `sampled_ranks` bound in ``module``, in call order: `ratlinalg` for
    the checks that sample through `pointwise_rank`, `extensions` for
    `check_extension`."""
    batches = []
    real = module.sampled_ranks

    def capturing(rows, points):
        batches.append([list(p) for p in points])
        return real(rows, points)

    monkeypatch.setattr(module, "sampled_ranks", capturing)
    check(*args, **kwargs)
    monkeypatch.undo()
    return batches


# -- hypothesis strategies shared by the calculus and ansatz tests -------------


FRAME_CHARTS = [
    Chart("R2", ("x", "y")),
    Chart("C", ("theta", "x"), (True, False)),
    Chart("R3", ("x", "y", "z")),
    Chart("C3", ("theta", "x", "y"), (True, False, False)),
]


def atoms(chart):
    """Functions global on the chart: trig in periodic coordinates, powers
    and exponentials in the others."""
    out = []
    for name, per in zip(chart.coords, chart.periodic):
        c = chart.coord(name)
        out += [sin(c), cos(c), sin(2 * c)] if per else [c, c**2, exp(c), exp(-c)]
    return out


@st.composite
def coeffs(draw, chart):
    """A random coefficient: a rational combination of products of atoms."""
    pool = atoms(chart)
    out = chart.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = chart.const(Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))))
        for atom in draw(st.lists(st.sampled_from(pool), max_size=2)):
            term = term * atom
        out = out + term
    return out


@st.composite
def units(draw, chart):
    """A unit of the chart's functions: q exp(sum_k d_k x_k) over the
    non-periodic coordinates, q a non-zero rational."""
    q = Fraction(draw(st.sampled_from([-3, -1, 1, 2, 5])), draw(st.integers(1, 3)))
    f = chart.const(q)
    for name, per in zip(chart.coords, chart.periodic):
        d = draw(st.integers(-2, 2))
        if d and not per:
            f = f * exp(d * chart.coord(name))
    return f


def fresh_curvature(d):
    """The curvature of a new representation on the matrices of ``d``,
    computed afresh whatever ``d`` holds."""
    return dict(Representation(d.algebroid, d.bundle_frame, d.mats, d.name).curvature)


@contextlib.contextmanager
def counting_curvatures():
    """Within the block each `Representation.curvature` computation appends
    its representation to the yielded list; a held curvature is read
    without one."""
    computed = []
    curvature = Representation.curvature.func
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Representation.curvature, "func", lambda d: computed.append(d) or curvature(d))
        yield computed


@contextlib.contextmanager
def checked_trusted():
    """Within the block each table built by `_AltTable._trusted` is compared
    with the validated table of the same components: equal, with the same
    keys in the same order.  Yields the list of the tables built."""
    built = []
    trusted = _AltTable._trusted.__func__

    def checked(cls, algebroid, degree, comps):
        out = trusted(cls, algebroid, degree, comps)
        ref = cls(algebroid, degree, comps)
        assert out == ref and list(out.comps) == list(ref.comps)
        built.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_AltTable, "_trusted", classmethod(checked))
        yield built


def count_modular_builds(monkeypatch):
    """The list to which each `AlgebroidPresentation.modular` build appends
    its algebroid, until ``monkeypatch`` is undone."""
    built = []
    build = AlgebroidPresentation.__dict__["modular"].func

    def counted(a):
        built.append(a)
        return build(a)

    prop = functools.cached_property(counted)
    prop.__set_name__(AlgebroidPresentation, "modular")
    monkeypatch.setattr(AlgebroidPresentation, "modular", prop)
    return built


@st.composite
def frame_inclusions(draw):
    """A unit-triangular frame of the tangent bundle, as a subalgebroid,
    with its inclusion into the tangent algebroid (a morphism).

    Column t is the vector field d/dx_t plus a combination of the later
    coordinate fields; each entry below the diagonal is zero (one time in
    four) or a sum of two distinct atoms, so never a unit, and the unit pivots are the
    diagonal ones.  The structure functions are in general not constant.
    """
    chart = draw(st.sampled_from(FRAME_CHARTS))
    pool = atoms(chart)
    n = chart.dim
    columns = [[chart.one() if k == t else chart.zero() for t in range(n)] for k in range(n)]
    for k in range(n):
        for t in range(k):
            if draw(st.integers(0, 3)):
                f, g = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique_by=str))
                columns[k][t] = f + draw(st.integers(1, 3)) * g
    return subalgebroid_from_vector_fields("F", chart, columns)


def frame_algebroids():
    """The subalgebroid of `frame_inclusions`, without its inclusion."""
    return frame_inclusions().map(lambda pair: pair[0])


@st.composite
def line_sum_reps(draw, algebroids=frame_algebroids(), max_rank=2, flat=False):
    """A flat representation on an algebroid of ``algebroids``: a sum of
    one to ``max_rank`` exact line representations, g_i =
    diag(rho(e_i)(f_s)).  Unless ``flat``, in half the draws one or two
    entries g_i[s][t] are shifted by a random coefficient, so that the
    connection is in general no longer flat."""
    a = draw(algebroids)
    m = draw(st.integers(1, max_rank))
    fs = [draw(coeffs(a.chart)) for _ in range(m)]
    zero = a.chart.zero()
    mats = [[[a.rho_apply(i, fs[s]) if s == t else zero for t in range(m)] for s in range(m)] for i in range(a.rank)]
    perturbed = not flat and draw(st.booleans())
    if perturbed:
        for _ in range(draw(st.integers(1, 2))):
            i, s, t = (draw(st.integers(0, n - 1)) for n in (a.rank, m, m))
            mats[i][s][t] = mats[i][s][t] + draw(coeffs(a.chart))
    event("perturbed" if perturbed else "unperturbed")
    return Representation(a, [f"eps{s}" for s in range(m)], mats)


@st.composite
def sparse_algebroids(draw):
    """A frame algebroid plus a bundle of Lie algebras over its chart: the
    direct sum, whose Lie algebra sections have zero anchor rows and
    constant structure functions, and bracket to zero with the frame part.

    The frame part has constant (diagonal) and zero anchor entries; the
    Lie algebra is so(3) or the Heisenberg algebra, whose structure
    diagonals sum_k C^k_ik are all zero, or aff(1) in either frame order,
    whose trace is read off a stored pair (i, k) or (k, i).
    """
    b = draw(frame_algebroids())
    g = draw(st.sampled_from([so3(), heisenberg(), aff1(), swapped_aff1()]))
    chart, r = b.chart, b.rank
    anchor = list(b.anchor) + [[chart.zero()] * chart.dim for _ in range(g.rank)]
    structure = {key: dict(comps) for key, comps in b.structure.items()}
    for (i, j), comps in g.structure.items():
        structure[(r + i, r + j)] = {r + k: chart.const(f.constant_value()) for k, f in comps.items()}
    return AlgebroidPresentation(f"F+{g.name}", chart, b.frame + g.frame, anchor, structure)


# -- dense references of the sparse and closed-form identity checks -----------


def dense_vf_pieces(vf, f, coords, sign):
    """The `lincomb` pieces of sign * vf(f) for a coordinate vector field
    given densely, one component per coordinate, zero ones skipped."""
    return [(sign, comp, f.partial(coord)) for comp, coord in zip(vf, coords) if not comp.is_zero()]


def reference_d_A(alpha):
    """`core.d_A` over the dense anchor rows, each zero entry tested.

    Each component is one `lincomb` of the anchor terms rho(e_t) alpha(..)
    and the bracket terms C^m alpha(m, ..).  The partial derivative of a
    component along a coordinate is taken once per call, on first use."""
    a = alpha.algebroid
    k = alpha.degree
    coords = a.chart.coords
    comps = alpha.comps
    partials = {}
    out = {}
    for key in itertools.combinations(range(a.rank), k + 1):
        pieces = []
        for t in range(k + 1):
            # an ordered sub-tuple of a sorted key is a stored key
            sub = key[:t] + key[t + 1 :]
            val = comps.get(sub)
            if val is None:
                continue
            sign = -1 if t % 2 else 1
            for j, comp in enumerate(a.anchor[key[t]]):
                if comp.is_zero():
                    continue
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
        total = lincomb(a.chart, pieces)
        if not total.is_zero():
            out[key] = total
    return FormField(a, k + 1, out)


def reference_check_morphism(phi):
    """`morphisms.check_morphism` through the generic graded calculus: the
    dense anchor rows, then on each target coframe form eps^t the residual
    ``pullback_form(phi, d_A(eps^t)) - d_A(pullback_form(phi, eps^t))``
    with d_A by `reference_d_A`."""
    rep = CheckReport(f"morphism {phi.name}")
    src, tgt = phi.source, phi.target
    coords = src.chart.coords
    for i in range(src.rank):
        for j in range(tgt.chart.dim):
            res = lincomb(
                src.chart,
                [(1, phi.fiber[t][i], phi.pull_scalar(tgt.anchor[t][j])) for t in range(tgt.rank)]
                + [(-1, src.anchor[i][k], phi.basemap[j].partial(c)) for k, c in enumerate(coords)],
            )
            rep.residual(f"anchor: {src.frame[i]} vs {tgt.chart.coords[j]}", res)
    for t in range(tgt.rank):
        eps = coframe_form(tgt, t)
        res = pullback_form(phi, reference_d_A(eps)) - reference_d_A(pullback_form(phi, eps))
        rep.residual(f"chain map on {tgt.coframe[t]}", res)
    return rep


def reference_modular_cocycle(a, omega, mu):
    """`reps.Trivialization(omega, mu).modular` through the graded
    calculus: on e_i, the top coefficient of ``schouten(e_i, omega)`` over
    that of omega, plus the Lie derivative of mu along rho(e_i) over mu,
    sum_l d(g rho(e_i)_l)/dx_l over the dense anchor row."""
    chart = a.chart
    top, vol = tuple(range(a.rank)), tuple(range(chart.dim))
    s_inv = omega.comps[top].unit_inverse()
    g = mu.comps[vol]
    comps = [
        schouten(frame_vector(a, i), omega).comps.get(top, chart.zero()) * s_inv
        + lincomb(chart, [(1, (g * v).partial(c)) for v, c in zip(a.anchor[i], chart.coords)]) * g.unit_inverse()
        for i in range(a.rank)
    ]
    return one_form(a, comps)


def jacobiator(a: AlgebroidPresentation, i: int, j: int, k: int) -> list[ScalarFn]:
    """Brute-force Jacobi defect of frame sections, in frame coefficients:
    the test oracle of the frame Jacobi identity."""
    def bracket_vec(x: Sequence[ScalarFn], y: Sequence[ScalarFn]) -> list[ScalarFn]:
        return a.section_bracket(x, y)

    e = lambda t: [
        a.chart.one() if u == t else a.chart.zero() for u in range(a.rank)
    ]
    total = [a.chart.zero() for _ in range(a.rank)]
    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
        inner = bracket_vec(e(x), e(y))
        outer = bracket_vec(inner, e(z))
        total = [acc + val for acc, val in zip(total, outer)]
    return total


def reference_check_axioms(a):
    """`core.check_axioms` over the dense anchor rows, with every "d(d e^k)"
    item through the generic calculus, ``d_A(d_A(coframe_form(a, k)))``
    by `reference_d_A`.

    The anchor residuals res_ijl = (rho([e_i, e_j]) - [rho(e_i), rho(e_j)])_l
    are computed once.  For a coordinate x_l, d_A x_l is the 1-form
    e_i -> rho(e_i)_l, so (d_A d_A x_l)(e_i, e_j) = rho(e_i)(rho(e_j)_l)
    - rho(e_j)(rho(e_i)_l) - rho([e_i, e_j])_l = -res_ijl: the "d(d x_l)"
    items are read off the residuals.
    """
    rep = CheckReport(f"axioms of {a.name}")
    coords = a.chart.coords
    residuals: dict[tuple[int, int], list[ScalarFn]] = {}
    for i in range(a.rank):
        for j in range(i + 1, a.rank):
            brackets = a.structure.get((i, j), {})
            ai, aj = a.anchor[i], a.anchor[j]
            # rho([e_i, e_j]) - [rho(e_i), rho(e_j)], component l
            residuals[(i, j)] = [
                lincomb(
                    a.chart,
                    [(1, cf, a.anchor[k][l]) for k, cf in brackets.items()]
                    + dense_vf_pieces(ai, aj[l], coords, -1)
                    + dense_vf_pieces(aj, ai[l], coords, 1),
                )
                for l in range(len(coords))
            ]
    for l, coord in enumerate(coords):
        res = FormField(a, 2, {key: -row[l] for key, row in residuals.items()})
        rep.residual(f"d(d {coord}) = 0", res)
    for k in range(a.rank):
        res = reference_d_A(reference_d_A(coframe_form(a, k)))
        rep.residual(f"d(d {a.coframe[k]}) = 0", res)
    for (i, j), row in residuals.items():
        for coord, res in zip(coords, row):
            rep.residual(f"anchor([{a.frame[i]},{a.frame[j]}]) . {coord}", res)
    return rep


def reference_check_flat(d):
    """`reps.check_flat` with the partials of each connection entry taken
    again for every frame pair: curvature residuals per frame pair."""
    a = d.algebroid
    rep = CheckReport(f"flatness of {d.name}")
    coords = a.chart.coords
    m = d.bundle_rank
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
                        dense_vf_pieces(a.anchor[i], gj[s][t], coords, 1)
                        + dense_vf_pieces(a.anchor[j], gi[s][t], coords, -1)
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
