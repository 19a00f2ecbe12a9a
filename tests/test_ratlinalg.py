"""Property tests of the sparse exact elimination behind rat_solve and
rat_nullspace, against a dense Gauss-Jordan reference kept here."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids.ratlinalg import rat_nullspace, rat_solve


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
