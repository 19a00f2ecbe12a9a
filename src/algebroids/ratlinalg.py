"""Exact linear algebra over the rationals and over the scalar-function ring.

* One sparse exact elimination over `Fraction` (`_eliminate`) backs both
  `rat_solve`, which returns the solution with free variables zero or a
  Farkas-style infeasibility witness (a rational row combination y with
  y.A = 0 but y.b != 0), and `rat_nullspace`.
* `unit_pivot_solve` eliminates over the scalar-function ring, only ever
  dividing by declared-nonvanishing units and failing loudly otherwise.
* `scalar_det` computes exact determinants and minors over that ring by
  cofactor expansion with memoised subminors: callers that share one memo
  dict across the minors of a matrix expand each distinct subminor once.
* `float_rank` estimates rank numerically with numpy, of one matrix or of a
  whole stack in one call, and `sampled_ranks` evaluates a ScalarFn matrix
  entry by entry over a batch of sample points and ranks the stack: the
  one path of the probabilistic admissibility, transversality, injectivity,
  surjectivity and constant-rank checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .symexpr import ScalarFn


class FrameSolveFailure(Exception):
    """Re-expansion in a frame would require division by a non-unit."""


def _eliminate(
    rows: list[dict[int, Fraction]], n: int
) -> tuple[list[tuple[int, int]], list[dict[int, Fraction]]]:
    """Sparse exact Gauss-Jordan elimination, in place.

    Each row is a dict ``{col: Fraction}`` without zero entries; column
    ``n`` holds the right-hand side.  Columns ``0..n-1`` are processed
    left to right; the pivot of a column is the shortest unpivoted row
    with an entry there (ties to the lower index), and the column is then
    cleared from every other row, so pivot rows end in reduced row echelon
    form.  Pivot columns are the leftmost independent ones whatever the
    pivot rows, which makes the reduced rows unique.

    Returns ``(pivots, transforms)``: the ``(row, col)`` pairs in column
    order, and for every row the sparse combination ``{orig_row: Fraction}``
    of the original rows that it now equals.
    """
    occupied: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            occupied.setdefault(c, set()).add(i)
    transforms = [{i: Fraction(1)} for i in range(len(rows))]
    pivoted: set[int] = set()
    pivots: list[tuple[int, int]] = []
    for c in range(n):
        cands = occupied.get(c, set()) - pivoted
        if not cands:
            continue
        p = min(cands, key=lambda i: (len(rows[i]), i))
        prow, ptr = rows[p], transforms[p]
        f = prow[c]
        if f != 1:
            for k in prow:
                prow[k] /= f
            for k in ptr:
                ptr[k] /= f
        for i in list(occupied[c]):
            if i == p:
                continue
            row, tr = rows[i], transforms[i]
            g = row[c]
            for k, v in prow.items():
                x = row.get(k, 0) - g * v
                if x:
                    if k not in row:
                        occupied.setdefault(k, set()).add(i)
                    row[k] = x
                else:
                    del row[k]
                    occupied[k].discard(i)
            for k, v in ptr.items():
                x = tr.get(k, 0) - g * v
                if x:
                    tr[k] = x
                else:
                    del tr[k]
        pivoted.add(p)
        pivots.append((p, c))
    return pivots, transforms


def _sparse(rows: Sequence[Sequence[Fraction]]) -> list[dict[int, Fraction]]:
    return [{j: Fraction(x) for j, x in enumerate(row) if x} for row in rows]


def rat_solve(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[Optional[list[Fraction]], Optional[list[Fraction]]]:
    """Solve A x = b exactly.

    Returns ``(solution, None)`` for a consistent system (free variables
    set to zero) or ``(None, witness)`` where ``witness . A = 0`` and
    ``witness . b != 0`` certifies infeasibility.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = _sparse(rows)
    for row, b in zip(a, rhs):
        if b:
            row[n] = Fraction(b)
    pivots, transforms = _eliminate(a, n)
    pivot_rows = {p for p, _ in pivots}
    for i, row in enumerate(a):
        if row and i not in pivot_rows:
            # only the right-hand side is left: the row reads 0 = row[n]
            y = [Fraction(0)] * m
            for k, v in transforms[i].items():
                y[k] = v / row[n]
            return None, y
    x = [Fraction(0)] * n
    for p, c in pivots:
        x[c] = a[p].get(n, Fraction(0))
    return x, None


def rat_nullspace(rows: Sequence[Sequence[Fraction]], n: Optional[int] = None) -> list[list[Fraction]]:
    """Basis of the right nullspace of A (rows over Fraction)."""
    m = len(rows)
    if n is None:
        n = len(rows[0]) if m else 0
    a = _sparse(rows)
    pivots, _ = _eliminate(a, n)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for c in range(n):
        if c in pivot_cols:
            continue
        v = [Fraction(0)] * n
        v[c] = Fraction(1)
        for p, pc in pivots:
            v[pc] = -a[p].get(c, Fraction(0))
        basis.append(v)
    return basis


def unit_pivot_solve(
    rows: list[list[ScalarFn]],
    rhs_cols: list[list[ScalarFn]],
    full_column_rank: bool = True,
) -> list[list[ScalarFn]]:
    """Solve M X = B over the scalar-function ring using unit pivots only.

    ``rows`` is an m x n matrix, ``rhs_cols`` a list of right-hand-side
    columns (length m each).  With ``full_column_rank`` every column must
    receive a unit pivot (frame re-expansion); otherwise pivotless columns
    become free variables set to zero and only consistency is enforced.
    Raises FrameSolveFailure when elimination would divide by a non-unit
    or the system is inconsistent.  Returns solution columns (length n).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    b = [list(col) for col in rhs_cols]  # columns
    piv: list[tuple[int, int]] = []
    used_rows: set[int] = set()
    zero = rows[0][0].chart.zero() if m and n else None
    for c in range(n):
        p = None
        for i in range(m):
            if i not in used_rows and a[i][c].is_unit():
                p = i
                break
        if p is None:
            if full_column_rank:
                for i in range(m):
                    if i not in used_rows and not a[i][c].is_zero():
                        raise FrameSolveFailure(
                            f"no unit pivot available for column {c} "
                            f"(leading candidate: {a[i][c]})"
                        )
                raise FrameSolveFailure(
                    f"column {c} has no pivot: frame not independent"
                )
            continue
        inv = a[p][c].unit_inverse()
        a[p] = [x * inv for x in a[p]]
        for col in b:
            col[p] = col[p] * inv
        for i in range(m):
            if i != p and not a[i][c].is_zero():
                g = a[i][c]
                a[i] = [x - g * y for x, y in zip(a[i], a[p])]
                for col in b:
                    col[i] = col[i] - g * col[p]
        piv.append((p, c))
        used_rows.add(p)
    sols = []
    for col in b:
        for i in range(m):
            if i not in used_rows and not col[i].is_zero():
                raise FrameSolveFailure(
                    f"inconsistent frame expansion: residual {col[i]} in row {i}"
                )
        # free variables are zero, so pivot rows read off directly
        x: list[ScalarFn] = [zero] * n
        for p, c in piv:
            x[c] = col[p]
        sols.append(x)
    return sols


def scalar_det(
    rows: Sequence[Sequence[ScalarFn]],
    rsel: Optional[Sequence[int]] = None,
    csel: Optional[Sequence[int]] = None,
    memo: Optional[dict] = None,
) -> ScalarFn:
    """Exact determinant of a square ScalarFn matrix, or of its minor on
    rows ``rsel`` and columns ``csel``.

    The minor is expanded along its first selected row, skipping zero
    entries.  Every subminor of size two or more is stored in ``memo``
    under ``(rsel, csel)``; callers that pass one dict for many minors of
    the same matrix expand each distinct subminor once, so a k x k minor
    costs at most k ring multiplications over its (k-1)-subminors.
    """
    if (rsel is None) != (csel is None):
        raise ValueError("give both rsel and csel, or neither")
    if rsel is None:
        n = len(rows)
        if n == 0:
            raise ValueError("empty matrix")
        if any(len(row) != n for row in rows):
            raise ValueError("matrix is not square")
        rsel = csel = tuple(range(n))
    elif len(rsel) != len(csel):
        raise ValueError(f"minor on {len(rsel)} rows but {len(csel)} columns")
    elif not rsel:
        raise ValueError("empty minor")
    return _minor(rows, tuple(rsel), tuple(csel), {} if memo is None else memo)


def _minor(
    rows: Sequence[Sequence[ScalarFn]], rsel: tuple[int, ...], csel: tuple[int, ...], memo: dict
) -> ScalarFn:
    row = rows[rsel[0]]
    if len(rsel) == 1:
        return row[csel[0]]
    key = (rsel, csel)
    det = memo.get(key)
    if det is not None:
        return det
    det = row[csel[0]].chart.zero()
    rest = rsel[1:]
    for t, c in enumerate(csel):
        entry = row[c]
        if entry.is_zero():
            continue
        sub = _minor(rows, rest, csel[:t] + csel[t + 1 :], memo)
        if sub.is_zero():
            continue
        term = entry * sub
        det = det + (term if t % 2 == 0 else -term)
    memo[key] = det
    return det


def float_rank(
    rows: Union[Sequence, np.ndarray], tol: Optional[float] = None
) -> Union[int, list[int]]:
    """Numeric rank of one matrix, or the list of ranks of a ``(count, m, n)``
    stack, with numpy's scale-relative tolerance per matrix by default.
    Zero-size matrices have rank 0."""
    arr = np.asarray(rows, dtype=float)
    if arr.size == 0:
        return np.zeros(arr.shape[:-2], dtype=int).tolist()
    return np.linalg.matrix_rank(arr, tol=tol).tolist()


def sampled_ranks(rows: Sequence[Sequence[ScalarFn]], points: Sequence) -> list[int]:
    """Numeric rank of the ScalarFn matrix ``rows`` at each of ``points``.

    Each non-zero entry is evaluated once over the whole batch of points,
    zero entries stay 0, and the ``(count, m, n)`` stack is ranked by one
    `float_rank` call.
    """
    if len(points) < 1:
        raise ValueError("rank sampling needs at least one sample point")
    pts = np.asarray(points, dtype=float)
    stack = np.zeros((len(pts), len(rows), len(rows[0]) if rows else 0))
    for i, row in enumerate(rows):
        for j, f in enumerate(row):
            if not f.is_zero():
                stack[:, i, j] = f.evaluate(pts)
    return float_rank(stack)
