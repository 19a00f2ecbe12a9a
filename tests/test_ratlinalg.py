"""Property tests of the sparse fraction-free elimination behind
FactoredSystem and rat_solve (its reduced rows read through the
rat_nullspace reference of conftest), against a dense Gauss-Jordan
reference kept here and value for value against the Fraction elimination
it replaced (reference_factored in conftest), of the
memoised minors of scalar_det, against a plain Laplace expansion, of
rank_certificate, against the search over every minor size kept here, of
generic_rank and pointwise_rank, against the one-routine certificate
and the rank at the origin of conftest, and of nowhere_zero, against
functions with known real zeros and the Descartes-bisection root count of
conftest."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids import ratlinalg
from algebroids.ratlinalg import (
    RANK_SAMPLES,
    FactoredSystem,
    _eliminate,
    _real_roots,
    float_rank,
    generic_rank,
    nowhere_zero,
    pointwise_rank,
    rank_certificate,
    rat_solve,
    sample_points,
    sampled_ranks,
    scalar_det,
)
from algebroids.symexpr import Chart, cos, exp, sin

from conftest import (
    check_rank_certificate,
    chart_r,
    examples,
    rat_nullspace,
    reference_det,
    reference_eliminate,
    reference_factored,
    reference_nowhere_zero,
    reference_points,
    reference_rank_at_origin,
    reference_rank_certificate,
    reference_real_roots,
)


def reference_rref(a: list[list[Fraction]], n: int):
    """Dense Gauss-Jordan on the augmented rows: first nonzero pivot."""
    a = [list(row) for row in a]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                g = a[i][c]
                a[i] = [x - g * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def reference_solve(rows, rhs):
    n = len(rows[0])
    a, pivots = reference_rref([row + [b] for row, b in zip(rows, rhs)], n)
    if any(row[n] != 0 for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = a[i][n]
    return x


ENTRY = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4), 5])


@st.composite
def systems(draw):
    """A sparse rational system, made rank deficient by dependent rows and
    columns and consistent, or not, by the choice of right-hand side."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    rows = [[Fraction(draw(ENTRY)) for _ in range(n)] for _ in range(m)]
    for _ in range(draw(st.integers(0, 2))):  # dependent rows
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        q = Fraction(draw(ENTRY))
        rows.append([x + q * y for x, y in zip(rows[i], rows[j])])
    for _ in range(draw(st.integers(0, 2))):  # dependent columns
        j = draw(st.integers(0, n - 1))
        q = Fraction(draw(ENTRY))
        for row in rows:
            row.append(q * row[j])
    n = len(rows[0])
    if draw(st.booleans()):
        x0 = [Fraction(draw(ENTRY)) for _ in range(n)]
        rhs = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in rows]
    else:
        rhs = [Fraction(draw(ENTRY)) for _ in rows]
    return rows, rhs


def assert_matches_reference(rows, rhs, sol, witness):
    """The solution is the reference one; without one, the witness reads
    0 = nonzero."""
    assert sol == reference_solve(rows, rhs)
    if sol is None:
        assert len(witness) == len(rows)
        for c in range(len(rows[0])):
            assert sum(y * row[c] for y, row in zip(witness, rows)) == 0
        assert sum(y * b for y, b in zip(witness, rhs)) != 0
    else:
        assert witness is None


@settings(max_examples=300, deadline=None)
@given(systems())
def test_rat_solve_matches_reference(system):
    rows, rhs = system
    assert_matches_reference(rows, rhs, *rat_solve(rows, rhs))


@settings(max_examples=300, deadline=None)
@given(systems())
def test_rat_nullspace_spans_kernel(system):
    rows, _ = system
    n = len(rows[0])
    _, pivots = reference_rref(rows, n)
    basis = rat_nullspace(rows)
    assert len(basis) == n - len(pivots)
    for v in basis:
        assert len(v) == n
        for row in rows:
            assert sum(a * x for a, x in zip(row, v)) == 0
    # each vector is the unit vector of its own free column there
    free = [c for c in range(n) if c not in pivots]
    assert [[v[c] for c in free] for v in basis] == [
        [Fraction(int(c == d)) for c in free] for d in free
    ]


@st.composite
def factored_cases(draw):
    """One system, then several right-hand sides for it, each with a few
    values on zero rows that are left out of the factored matrix."""
    rows, rhs = draw(systems())
    n = len(rows[0])
    sides = [rhs]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            x0 = [Fraction(draw(ENTRY)) for _ in range(n)]
            sides.append([sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in rows])
        else:
            sides.append([Fraction(draw(ENTRY)) for _ in rows])
    outside = [[Fraction(draw(ENTRY)) for _ in range(draw(st.integers(0, 2)))] for _ in sides]
    return rows, sides, outside


@settings(max_examples=300, deadline=None)
@given(factored_cases())
def test_factored_solves_match_reference(case):
    rows, sides, outside = case
    n = len(rows[0])
    system = FactoredSystem([{j: x for j, x in enumerate(row) if x} for row in rows], n)
    for rhs, extra in zip(sides, outside):
        solved = system.solve({i: b for i, b in enumerate(rhs) if b}, extra)
        assert_matches_reference(rows + [[Fraction(0)] * n for _ in extra], rhs + extra, *solved)


def as_coefficient(q: Fraction):
    """q as a ScalarFn coefficient stores it: an int when integral."""
    return q.numerator if q.denominator == 1 else q


@settings(max_examples=100, deadline=None)
@given(factored_cases())
def test_int_entries_solve_exactly_as_their_fractions(case):
    # integral entries and right-hand sides arrive as int; int / int would be a float
    rows, sides, outside = case
    n = len(rows[0])
    want = FactoredSystem([{j: x for j, x in enumerate(row) if x} for row in rows], n)
    system = FactoredSystem([{j: as_coefficient(x) for j, x in enumerate(row) if x} for row in rows], n)
    for rhs, extra in zip(sides, outside):
        got = system.solve({i: as_coefficient(b) for i, b in enumerate(rhs) if b}, [as_coefficient(q) for q in extra])
        assert got == want.solve({i: b for i, b in enumerate(rhs) if b}, extra)
        for vec in got:
            assert vec is None or all(type(v) is Fraction for v in vec)


MIXED = st.sampled_from([1, -1, 2, -3, 4, 6, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)])


@st.composite
def sparse_systems(draw):
    """Sparse int/Fraction rows with pivots other than +-1, rank deficient
    through sums of earlier rows, and right-hand sides that are
    consistent (A x0 for an int/Fraction x0) or arbitrary."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rows = []
    for _ in range(m):
        cols = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
        rows.append({c: draw(MIXED) for c in cols})
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        q = draw(MIXED)
        total = dict(rows[i])
        for c, v in rows[j].items():
            total[c] = total.get(c, 0) + q * v
        rows.append({c: as_coefficient(Fraction(v)) for c, v in total.items() if v})
    if draw(st.booleans()):
        x0 = [draw(st.one_of(st.just(0), MIXED)) for _ in range(n)]
        rhs = [sum(v * x0[c] for c, v in row.items()) for row in rows]
    else:
        rhs = [draw(st.one_of(st.just(0), MIXED)) for _ in rows]
    return rows, n, [as_coefficient(Fraction(b)) for b in rhs]


@settings(max_examples=150, deadline=None)
@given(sparse_systems())
def test_sparse_int_systems_solve_or_give_a_farkas_witness(case):
    rows, n, rhs = case
    dense = [[row.get(c, 0) for c in range(n)] for row in rows]
    sol, witness = FactoredSystem([dict(row) for row in rows], n).solve({i: b for i, b in enumerate(rhs) if b})
    if sol is None:
        assert all(type(y) is Fraction for y in witness)
        for c in range(n):
            assert sum(y * row[c] for y, row in zip(witness, dense)) == 0
        assert sum(y * b for y, b in zip(witness, rhs)) != 0
    else:
        assert witness is None and all(type(x) is Fraction for x in sol)
        for row, b in zip(dense, rhs):
            assert sum(v * x for v, x in zip(row, sol)) == b


def integral_rows(rows):
    """Each row as int numerators over the lcm of its denominators, times
    a small extra factor: the form in which `AnsatzOperator` passes its
    rows, with the row scales."""
    out, scales = [], []
    for i, row in enumerate(rows):
        scale = lcm(1, *(Fraction(v).denominator for v in row.values())) * (1 + i % 3)
        out.append({c: int(v * scale) for c, v in row.items()})
        scales.append(scale)
    return out, scales


@st.composite
def reference_cases(draw):
    """Sparse rows with several right-hand sides and values outside the
    matrix, from `sparse_systems` or `factored_cases`, passed as they are,
    with every value a Fraction (integral ones included) or as scaled int
    numerators."""
    if draw(st.booleans()):
        rows, n, rhs = draw(sparse_systems())
        sides, outside = [rhs], [[]]
    else:
        dense, sides, outside = draw(factored_cases())
        n = len(dense[0])
        rows = [{c: x for c, x in enumerate(row) if x} for row in dense]
    form = draw(st.sampled_from(["as drawn", "fractions", "scaled"]))
    if form == "fractions":
        rows = [{c: Fraction(v) for c, v in row.items()} for row in rows]
        sides = [[Fraction(b) for b in rhs] for rhs in sides]
    return rows, n, sides, outside, form


@pytest.mark.deep
@settings(deadline=None)
@given(reference_cases())
def test_factored_solves_equal_the_fraction_reference(case):
    rows, n, sides, outside, form = case
    solve = reference_factored([dict(row) for row in rows], n)
    if form == "scaled":
        ints, scales = integral_rows(rows)
        system = FactoredSystem(ints, n, scales)
    else:
        system = FactoredSystem([dict(row) for row in rows], n)
    for rhs, extra in zip(sides, outside):
        b = {i: q for i, q in enumerate(rhs) if q}
        got = system.solve(b, extra)
        assert got == solve(b, extra)
        for vec in got:
            assert vec is None or all(type(v) is Fraction for v in vec)
        # the same right-hand side as int numerators over one denominator
        den = lcm(1, *(Fraction(q).denominator for q in [*b.values(), *extra]))
        assert system.solve({i: int(q * den) for i, q in b.items()}, [int(q * den) for q in extra], den) == got


@settings(max_examples=150, deadline=None)
@given(sparse_systems())
def test_reduced_rows_and_transforms_are_int(case):
    rows, n, _ = case
    reduced, scales = integral_rows(rows)
    _, transforms = _eliminate(reduced, scales, n)
    assert {type(v) for vec in reduced + transforms for v in vec.values()} <= {int}


@pytest.mark.deep
@settings(max_examples=examples(150), deadline=None)
@given(sparse_systems())
def test_pivots_and_supports_equal_the_reference(case):
    """The fraction-free elimination picks the reference's (row, col)
    pivots, and each of its rows and transforms ends with the support of
    the reference's: it holds a non-zero multiple of that row."""
    rows, n, _ = case
    reduced, scales = integral_rows(rows)
    pivots, transforms = _eliminate(reduced, scales, n)
    ref = [dict(row) for row in rows]
    ref_pivots, ref_transforms = reference_eliminate(ref, n)
    assert pivots == ref_pivots
    assert [set(row) for row in reduced] == [set(row) for row in ref]
    assert [set(tr) for tr in transforms] == [set(tr) for tr in ref_transforms]


def test_floats_are_refused_at_both_entry_points():
    with pytest.raises(TypeError, match=r"entry \(0, 0\) must be an int or a Fraction, got float 0\.1"):
        rat_solve([[0.1, 1]], [3])
    with pytest.raises(TypeError, match=r"right-hand side entry 0 must be an int or a Fraction, got float 0\.3"):
        rat_solve([[Fraction(1, 10), 1]], [0.3])
    with pytest.raises(TypeError, match=r"entry \(0, 0\) must be an int or a Fraction, got float 0\.5"):
        FactoredSystem([{0: 0.5}], 1)
    system = FactoredSystem([{0: 2}], 1)
    with pytest.raises(TypeError, match="right-hand side entry 0 .* float"):
        system.solve({0: 1.0})
    with pytest.raises(TypeError, match="right-hand side entry 1 .* float"):
        system.solve({0: 1}, [0.25])
    assert rat_solve([[Fraction(1, 10), 1]], [Fraction(3, 10)]) == ([Fraction(3), Fraction(0)], None)


def test_factored_witness_for_a_value_outside_the_matrix():
    system = FactoredSystem([{0: Fraction(1)}], 1)
    assert system.solve({0: Fraction(2)}) == ([Fraction(2)], None)
    assert system.solve({0: Fraction(2)}, [Fraction(0), Fraction(4)]) == (
        None,
        [Fraction(0), Fraction(0), Fraction(1, 4)],
    )


# -- scalar_det -----------------------------------------------------------

R2 = Chart("R2", ("x", "y"))
_X, _Y = R2.coord("x"), R2.coord("y")
ATOM = st.sampled_from([R2.one(), _X, _Y * _X, sin(_Y), cos(_X + _Y), exp(_X), exp(_X - _Y) * _Y])
COEFF = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])


@st.composite
def scalar_entries(draw):
    """Mostly zero, else one or two scaled atoms: sparse ScalarFn matrices."""
    if draw(st.integers(0, 2)) == 0:
        return R2.zero()
    total = R2.zero()
    for _ in range(draw(st.integers(1, 2))):
        total = total + R2.const(draw(COEFF)) * draw(ATOM)
    return total


def scalar_matrices(m, n):
    return st.lists(st.lists(scalar_entries(), min_size=n, max_size=n), min_size=m, max_size=m)


square = st.integers(1, 5).flatmap(lambda n: scalar_matrices(n, n))


@settings(max_examples=100, deadline=None)
@given(square)
def test_scalar_det_matches_laplace(rows):
    full = tuple(range(len(rows)))
    assert scalar_det(rows, full, full, {}).terms == reference_det(rows).terms


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_minors_through_one_memo_match_laplace(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 6))
    rows = data.draw(scalar_matrices(m, n))
    keys = [
        (rsel, csel)
        for k in range(1, min(m, n) + 1)
        for rsel in combinations(range(m), k)
        for csel in combinations(range(n), k)
    ]
    memo: dict = {}
    for rsel, csel in data.draw(st.permutations(keys)):
        minor = scalar_det(rows, rsel, csel, memo)
        assert minor.terms == reference_det([[rows[i][j] for j in csel] for i in rsel]).terms


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(scalar_matrices(n, n), st.randoms())))
def test_row_swap_negates_and_repeated_row_vanishes(case):
    rows, rnd = case
    i, j = rnd.sample(range(len(rows)), 2)
    swapped = list(rows)
    swapped[i], swapped[j] = rows[j], rows[i]
    full = tuple(range(len(rows)))
    assert scalar_det(swapped, full, full, {}).terms == (-scalar_det(rows, full, full, {})).terms
    repeated = list(rows)
    repeated[j] = rows[i]
    assert scalar_det(repeated, full, full, {}).is_zero()


def test_scalar_det_rejects_malformed_selections():
    rows = [[_X, _Y], [R2.one(), _X]]
    with pytest.raises(ValueError):
        scalar_det(rows, (0, 1), (1,), {})
    with pytest.raises(ValueError):
        scalar_det(rows, (), (), {})
    assert scalar_det(rows, (1,), (0,), {}) == R2.one()


# -- rank_certificate ---------------------------------------------------------


def reference_certificate(rows):
    """The rank certified constant by minors, searching every size from
    min(m, n) down: an r-minor that is nowhere zero by
    `reference_nowhere_zero` certifies r when every larger minor vanishes,
    and a zero matrix has rank 0; otherwise None."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    larger_all_zero = True
    memo: dict = {}
    for r in range(min(m, n), 0, -1):
        all_zero = True
        for rsel in combinations(range(m), r):
            for csel in combinations(range(n), r):
                minor = scalar_det(rows, rsel, csel, memo)
                if reference_nowhere_zero(minor):
                    return r if larger_all_zero else None
                all_zero = all_zero and minor.is_zero()
        larger_all_zero = all_zero
    return 0 if larger_all_zero else None


def largest_nonzero_minor(rows):
    """The largest size of a non-zero minor, by trying them all."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    memo: dict = {}
    return max(
        (
            r
            for r in range(1, min(m, n) + 1)
            for rsel in combinations(range(m), r)
            for csel in combinations(range(n), r)
            if not scalar_det(rows, rsel, csel, memo).is_zero()
        ),
        default=0,
    )


UNITS = [R2.one(), exp(_X), 2 * exp(-_Y), Fraction(-1, 2) * exp(_X - _Y)]
# 1 + x^2 and x^2 + sin(y) + 2 are certified nowhere zero, and a product
# of two of the latter has x^2 sin(y) terms, which no certificate decides
NON_UNITS = [_X, 1 + _X * _X, sin(_Y), cos(_X + _Y), exp(_X - _Y) * _Y, _X * _X + sin(_Y) + 2]


@st.composite
def planted_matrices(draw, max_m=4, max_n=6):
    """(L * D * R, r): L is m x r unit lower trapezoidal, R is r x n unit
    upper trapezoidal and D a diagonal of non-zero units or non-units, so
    the generic rank is r."""
    m, n = draw(st.integers(1, max_m)), draw(st.integers(1, max_n))
    r = draw(st.integers(0, min(m, n)))
    diag = [draw(st.sampled_from(UNITS + NON_UNITS)) for _ in range(r)]

    def factor(i, s):
        return R2.one() if i == s else draw(st.sampled_from([R2.zero()] + NON_UNITS)) if i > s else R2.zero()

    left = [[factor(i, s) for s in range(r)] for i in range(m)]
    right = [[factor(j, s) for j in range(n)] for s in range(r)]
    rows = [
        [sum((left[i][s] * diag[s] * right[s][j] for s in range(r)), R2.zero()) for j in range(n)]
        for i in range(m)
    ]
    return rows, r


@st.composite
def certificate_matrices(draw):
    """Matrices up to 4 x 6 whose entries are zero, units or trig and
    polynomial non-units, or planted-rank products."""
    if draw(st.booleans()):
        return draw(planted_matrices())[0]
    entry = st.one_of(st.just(R2.zero()), st.sampled_from(UNITS + NON_UNITS), scalar_entries())
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))


@settings(max_examples=150, deadline=None)
@given(certificate_matrices())
def test_rank_certificate_matches_the_search_over_every_size(rows):
    cert = rank_certificate(rows)
    assert cert.rank == largest_nonzero_minor(rows)
    assert (None if cert.witness is None else cert.rank) == reference_certificate(rows)
    check_rank_certificate(rows, cert)


@pytest.mark.deep
@settings(deadline=None)
@given(st.one_of(certificate_matrices(), square, planted_matrices(max_m=5, max_n=6).map(lambda case: case[0])))
def test_generic_rank_is_the_bordered_minor_of_the_one_routine(rows):
    """generic_rank returns the bordered minor of the rank certificate as
    it was computed before its bordering phase was split out, and the
    certificate built on it is unchanged."""
    want = reference_rank_certificate(rows)
    assert generic_rank(rows) == want.bordered
    assert rank_certificate(rows) == want


@st.composite
def pointwise_claims(draw):
    """(rows, want): a matrix of `certificate_matrices` or `planted_matrices`
    and a claimed rank, None for constant rank."""
    rows = draw(st.one_of(certificate_matrices(), planted_matrices().map(lambda case: case[0])))
    return rows, draw(st.one_of(st.none(), st.integers(0, min(len(rows), len(rows[0])))))


@pytest.mark.deep
@settings(deadline=None)
@given(pointwise_claims())
def test_pointwise_rank_decides_as_the_references(claim):
    """An exact verdict is read off the one-routine certificate of
    conftest: it holds with a witness of the claimed rank, and fails when a
    claimed rank is not the generic one.  Otherwise it fails when the
    reference rank at the origin is below the generic rank, and is left
    undecided when it is not."""
    rows, want = claim
    verdict = pointwise_rank(rows, want)
    cert = reference_rank_certificate(rows)
    assert verdict.evidence == cert
    if cert.witness is not None or want not in (None, cert.rank):
        assert verdict == (want in (None, cert.rank), "exact", cert)
    elif reference_rank_at_origin(rows) < cert.rank:
        assert verdict == (False, "exact", cert)
    else:
        assert verdict == (None, "uncertified", cert)


@settings(max_examples=150, deadline=None)
@given(pointwise_claims())
def test_pointwise_rank_refutes_without_a_rank_gap_only_by_a_drop_at_the_origin(claim):
    """Every exact refutation of a claim the generic rank R allows
    re-evaluates, through the conftest reference, to a rank below R at the
    origin, where the entries are exact rationals."""
    rows, want = claim
    verdict = pointwise_rank(rows, want)
    if verdict.holds is False and want in (None, verdict.evidence.rank):
        assert verdict.status == "exact" and verdict.evidence.witness is None
        assert reference_rank_at_origin(rows) < verdict.evidence.rank


@settings(max_examples=60, deadline=None)
@given(pointwise_claims())
def test_pointwise_rank_samples_nothing(claim):
    """Decided or not, a verdict takes no float rank: neither the sampler
    nor numpy's rank is called."""
    with mock.patch.object(ratlinalg, "sampled_ranks") as sampler, mock.patch.object(ratlinalg, "float_rank") as ranker:
        verdict = pointwise_rank(*claim)
    assert not sampler.called and not ranker.called
    assert verdict.status == ("uncertified" if verdict.holds is None else "exact")


def test_pointwise_rank_refutes_a_drop_at_the_origin():
    # [[x, y]] has generic rank 1 and rank 0 at the origin; no 1-minor is
    # certified, so only the exact values there refute either claim
    rows = [[_X, _Y]]
    assert reference_rank_at_origin(rows) == 0
    for want in (None, 1):
        verdict = pointwise_rank(rows, want)
        assert (verdict.holds, verdict.status, verdict.evidence.rank) == (False, "exact", 1)


def test_pointwise_rank_counts_no_uniform_float_drop_as_agreement():
    # generic rank 2 with no certified minor: the 2-minor 10^-17 f^2 has
    # x^2 sin x terms, though f is certified nowhere zero, so the claim is
    # true.  The second row is below numpy's rank tolerance at every point,
    # yet no float rank is taken: the rank at the origin is 2, and the
    # verdict is undecided whatever the claim
    f = _X * _X + sin(_X) + 2
    assert nowhere_zero(f)
    rows = [[f, R2.zero()], [R2.zero(), Fraction(1, 10**17) * f]]
    for want in (None, 2):
        verdict = pointwise_rank(rows, want)
        assert (verdict.holds, verdict.status, verdict.evidence.rank) == (None, "uncertified", 2)


@settings(max_examples=60, deadline=None)
@given(planted_matrices(max_m=5, max_n=6))
def test_rank_certificate_expands_no_minor_above_rank_plus_one(case):
    rows, r = case
    sizes = []
    minor = ratlinalg._minor

    def recording(rows, rsel, csel, memo):
        sizes.append(len(rsel))
        return minor(rows, rsel, csel, memo)

    with mock.patch.object(ratlinalg, "_minor", recording):
        cert = rank_certificate(rows)
    assert cert.rank == r
    assert max(sizes, default=0) <= r + 1


def test_unit_minor_off_the_unit_pivots():
    # the only unit pivot is the 1, after which the second row has none;
    # the minor on columns 1 and 2 is cos^2 + sin^2 = 1
    rows = [[R2.one(), cos(_X), -sin(_X)], [R2.zero(), sin(_X), cos(_X)]]
    assert rank_certificate(rows) == (2, ((0, 1), (0, 1)), ((0, 1), (1, 2)))
    check_rank_certificate(rows, rank_certificate(rows))


def test_rank_certificate_of_zero_and_empty_matrices():
    assert rank_certificate([]) == (0, ((), ()), ((), ()))
    assert rank_certificate([[], []]) == (0, ((), ()), ((), ()))
    zero = [[R2.zero()] * 3 for _ in range(2)]
    assert rank_certificate(zero) == (0, ((), ()), ((), ()))
    check_rank_certificate(zero, rank_certificate(zero))


# -- nowhere_zero ---------------------------------------------------------------


def small_fractions(bound=4):
    return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, 3))


@st.composite
def unit_factors(draw):
    """q * exp(d.x) on R2, q non-zero."""
    q = draw(small_fractions().filter(bool))
    slopes = draw(st.tuples(small_fractions(), small_fractions()))
    return q * exp(slopes[0] * _X + slopes[1] * _Y)


@st.composite
def polynomial_products(draw):
    """(u * prod (x - a)^m * prod (x^2 + c), whether it has a real zero): a
    linear factor or a c <= 0 gives one, and nothing else does."""
    linear = draw(st.lists(st.tuples(small_fractions(), st.integers(1, 3)), max_size=2))
    quadratic = draw(st.lists(small_fractions(), max_size=3))
    f = draw(unit_factors())
    for a, m in linear:
        f = f * (_X - a) ** m
    for c in quadratic:
        f = f * (_X * _X + c)
    return f, bool(linear) or any(c <= 0 for c in quadratic)


@pytest.mark.deep
@settings(deadline=None)
@given(polynomial_products())
def test_nowhere_zero_on_products_with_known_roots(case):
    f, has_root = case
    assert nowhere_zero(f) == (not has_root)


SINES = [sin(_X), sin(2 * _Y), sin(_X - 3 * _Y)]
COSINES = [cos(_X), cos(_X + _Y), cos(Fraction(1, 2) * _Y)]


@st.composite
def trig_sums(draw):
    """(u * (c0 + sum c_k trig_k), c0, sum |c_k|) and the same sum with c0
    chosen so that it vanishes at the origin."""
    u = draw(unit_factors())
    picks = draw(st.lists(st.tuples(small_fractions(), st.sampled_from(SINES + COSINES)), min_size=1, max_size=4))
    c0 = draw(small_fractions(8))
    rest = sum((c * t for c, t in picks), R2.zero())
    at_origin = sum(c for c, t in picks if t in COSINES)
    return u * (c0 + rest), c0, sum(abs(c) for c, _ in picks), u * (rest - at_origin)


@pytest.mark.deep
@settings(deadline=None)
@given(trig_sums())
def test_nowhere_zero_on_trig_sums(case):
    f, c0, spread, vanishing = case
    if abs(c0) > spread:
        assert nowhere_zero(f)
    assert not nowhere_zero(vanishing)


@st.composite
def mixed_sums(draw):
    """u * (P(x) + sum c_k trig_k), P of degree up to 4, the trig terms
    without monomial factors."""
    u = draw(unit_factors())
    poly = sum((c * _X**k for k, c in enumerate(draw(st.lists(small_fractions(8), max_size=5)))), R2.zero())
    picks = draw(st.lists(st.tuples(small_fractions(), st.sampled_from(SINES + COSINES)), max_size=3))
    return u * (poly + sum((c * t for c, t in picks), R2.zero()))


@settings(max_examples=100, deadline=None)
@given(mixed_sums())
def test_nowhere_zero_agrees_with_the_reference_on_mixed_sums(f):
    assert nowhere_zero(f) == reference_nowhere_zero(f)


def test_nowhere_zero_refuses_known_zeros_and_uncertified_kinds():
    theta = Chart("S1", ("t",), (True,)).coord("t")
    zeros = (1 - cos(_X), sin(_X), _X, R2.zero(), cos(_X) + cos(_Y), 2 - 2 * cos(_X - _Y), _X * _X + sin(_Y) + 1)
    for f in zeros:
        assert not nowhere_zero(f)
    # nowhere zero, but outside the certified kinds
    mixed = _X * _X + sin(_Y) + 2
    for f in (mixed * mixed, _X * _X + _X * sin(_Y) + 2, _X * _X + _Y * _Y + 1, theta * theta + 1, exp(_X) + exp(_Y)):
        assert not nowhere_zero(f)
    certified = (
        exp(_X - _Y),
        1 + _X * _X,
        (_Y**4 + _Y + 1) * exp(2 * _X),
        3 + sin(_X) + cos(_Y),
        2 * exp(_Y) * (2 - sin(_X)),
        mixed,
        -2 - cos(_Y) - _Y * _Y,
        exp(_Y) * (_Y * _Y + sin(_Y) + 2),
    )
    for f in certified:
        assert nowhere_zero(f)


@pytest.mark.deep
@settings(deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=8), unit_factors())
def test_nowhere_zero_agrees_with_the_reference_root_count(coeffs, u):
    p = sum((c * _X**k for k, c in enumerate(coeffs)), R2.zero())
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if len(coeffs) > 1:
        assert _real_roots(coeffs) == reference_real_roots(coeffs)
    f = u * p
    assert nowhere_zero(f) == reference_nowhere_zero(f) == (bool(coeffs) and reference_real_roots(coeffs) == 0)


# -- sample_points, float_rank and sampled_ranks ---------------------------


@st.composite
def float_stacks(draw):
    """Random, rank-deficient (product of an m x r and an r x n factor) and
    zero-size matrices, stacked."""
    count = draw(st.integers(0, 6))
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    r = draw(st.integers(0, min(m, n)))
    rnd = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rnd.integers(-3, 4, size=(count, 1, 1))
    if draw(st.booleans()):
        return scale * rnd.standard_normal((count, m, n))
    return scale * rnd.standard_normal((count, m, r)) @ rnd.standard_normal((count, r, n))


@settings(max_examples=150, deadline=None)
@given(float_stacks())
def test_float_rank_of_a_stack_is_per_matrix_rank(stack):
    ranks = float_rank(stack)
    assert ranks == [float_rank(matrix) for matrix in stack]
    assert all(type(r) is int for r in ranks)


def test_float_rank_of_zero_size_inputs():
    assert float_rank([]) == 0
    assert float_rank([[], []]) == 0
    assert float_rank(np.zeros((3, 0, 2))) == [0, 0, 0]
    assert float_rank(np.zeros((0, 2, 2))) == []


def test_sampled_ranks_stack():
    rows = [[_X, R2.zero()], [_X * _Y, _Y]]  # singular where x or y is 0
    points = [[1, 2], [0, 5], [3, 0], [Fraction(1, 3), Fraction(-2, 7)]]
    assert sampled_ranks(rows, points) == [2, 1, 1, 2]
    assert sampled_ranks([[R2.zero()]], points) == [0] * 4


@pytest.mark.parametrize("dim", [0, 1, 3])
def test_sample_points_draw_point_by_point(dim):
    # p then q per coordinate, point by point, in the one box, at the one
    # count; p / q is float(Fraction(p, q)) bit for bit
    for seed in (0, 5, 9):
        pts = sample_points(dim, seed)
        assert pts == reference_points(chart_r(dim), seed, RANK_SAMPLES)
        assert all(type(x) is float for p in pts for x in p)


def test_sample_points_reject_no_points(monkeypatch):
    for count in (0, -1):
        monkeypatch.setattr(ratlinalg, "RANK_SAMPLES", count)
        with pytest.raises(ValueError, match="at least one sample point"):
            sample_points(2, 0)
