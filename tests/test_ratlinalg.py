"""Property tests of the sparse exact elimination behind rat_solve and
rat_nullspace, against a dense Gauss-Jordan reference kept here, and of
the memoised minors of scalar_det, against a plain Laplace expansion."""

from __future__ import annotations

from fractions import Fraction

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids.ratlinalg import float_rank, rat_nullspace, rat_solve, sampled_ranks, scalar_det
from algebroids.symexpr import Chart, cos, exp, sin


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


@settings(max_examples=300, deadline=None)
@given(systems())
def test_rat_solve_matches_reference(system):
    rows, rhs = system
    sol, witness = rat_solve(rows, rhs)
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


def reference_det(rows):
    """Plain Laplace expansion along the first row, nothing shared."""
    if len(rows) == 1:
        return rows[0][0]
    total = R2.zero()
    for t, entry in enumerate(rows[0]):
        sub = reference_det([row[:t] + row[t + 1 :] for row in rows[1:]])
        total = total + (entry * sub if t % 2 == 0 else -(entry * sub))
    return total


@settings(max_examples=100, deadline=None)
@given(square)
def test_scalar_det_matches_laplace(rows):
    assert scalar_det(rows).terms == reference_det(rows).terms


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
    assert scalar_det(swapped).terms == (-scalar_det(rows)).terms
    repeated = list(rows)
    repeated[j] = rows[i]
    assert scalar_det(repeated).is_zero()


def test_scalar_det_rejects_malformed_selections():
    rows = [[_X, _Y], [R2.one(), _X]]
    with pytest.raises(ValueError):
        scalar_det([])
    with pytest.raises(ValueError):
        scalar_det([[_X, _Y]])
    with pytest.raises(ValueError):
        scalar_det(rows, rsel=(0, 1))
    with pytest.raises(ValueError):
        scalar_det(rows, csel=(0, 1))
    with pytest.raises(ValueError):
        scalar_det(rows, (0, 1), (1,))
    with pytest.raises(ValueError):
        scalar_det(rows, (), ())
    assert scalar_det(rows, (1,), (0,)) == R2.one()


# -- float_rank and sampled_ranks -------------------------------------------


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


def test_sampled_ranks_stack_and_reject_no_points():
    rows = [[_X, R2.zero()], [_X * _Y, _Y]]  # singular where x or y is 0
    points = [[1, 2], [0, 5], [3, 0], [Fraction(1, 3), Fraction(-2, 7)]]
    assert sampled_ranks(rows, points) == [2, 1, 1, 2]
    assert sampled_ranks([[R2.zero()]], points) == [0] * 4
    with pytest.raises(ValueError, match="at least one sample point"):
        sampled_ranks(rows, [])
