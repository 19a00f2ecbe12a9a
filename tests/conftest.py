"""Shared builders: charts, stock algebroids, randomized generators."""

import random
from fractions import Fraction

import pytest

from algebroids.core import (
    AlgebroidPresentation,
    lie_algebra_presentation,
    tangent_algebroid,
)
from algebroids import ratlinalg
from algebroids.symexpr import Chart, ScalarFn, point_chart


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


def so3():
    """[e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2."""
    return lie_algebra_presentation(
        "so3", ("e1", "e2", "e3"), {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}
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


def count_sampling(monkeypatch, check, *args, **kwargs):
    """Run one check and count its ScalarFn.evaluate and float_rank calls."""
    counts = {"evaluate": 0, "float_rank": 0}
    evaluate, rank = ScalarFn.evaluate, ratlinalg.float_rank

    def counting_evaluate(self, points):
        counts["evaluate"] += 1
        return evaluate(self, points)

    def counting_rank(stack, tol=None):
        counts["float_rank"] += 1
        return rank(stack, tol)

    monkeypatch.setattr(ScalarFn, "evaluate", counting_evaluate)
    monkeypatch.setattr(ratlinalg, "float_rank", counting_rank)
    rep = check(*args, **kwargs)
    monkeypatch.undo()
    return rep, counts
