"""Exact linear algebra over the rationals and over the scalar-function ring.

* One sparse fraction-free elimination over the rationals (`_eliminate`)
  has one user.  `FactoredSystem` eliminates a fixed sparse matrix once
  and then solves any number of sparse right-hand sides, each giving the
  solution with free variables zero or a Farkas-style infeasibility
  witness (a rational row combination y with y.A = 0 but y.b != 0);
  `rat_solve` is its one-shot form on a dense system.  Every row and
  every transform is ``int`` numerators over a row scale, the form of a
  ``ScalarFn``: a row enters once through `_integral`, which takes only
  ``int`` and ``Fraction`` values, a pivot step cross-multiplies and
  divides by the row's content, and a solve accumulates in ``int``.
  ``Fraction`` appears only at the solve boundary, in the entries of the
  solution and of the witness it returns.
* `unit_pivot_solve` eliminates over the scalar-function ring, only ever
  dividing by declared-nonvanishing units and failing loudly otherwise.
  A pivot step computes only the entries whose value it does not know:
  the pivot row's non-zero entries right of the pivot column and its
  non-zero right-hand-side entries, and in each other row the same
  columns; the pivot column is cleared outright.
  `bracket_structure` is its one frame re-expansion of brackets: the
  structure functions of every frame spanned by sections that is closed
  under a bracket (subalgebroids, Poisson kernels, pull-backs) come from it.
* `scalar_det` computes exact minors over that ring by cofactor
  expansion with memoised subminors: every caller passes one memo dict
  for the minors of a matrix, so each distinct subminor is expanded once.
  `generic_rank` is the one exact rank routine built on it: the generic
  rank R from the borders of a single non-zero minor (Kronecker's
  bordering-minor theorem), which it returns.  `rank_certificate` takes
  that minor and then searches at size R only, and among the first
  `WITNESS_SCAN_CAP` minors only, for one that `nowhere_zero` certifies,
  which makes R the rank at every point.
* `nowhere_zero` is the one nowhere-vanishing test: a unit q*exp(d.x)
  times P + T, P a polynomial in one non-periodic coordinate and T a trig
  polynomial whose |coefficients| sum below |P| everywhere (Sturm
  sequences of ``int`` pseudo-remainders, `_real_roots`).
* `pointwise_rank` decides "rank R at every point" or constant rank,
  exactly or not at all, as a `report.Decision` whose evidence is the
  `RankCertificate`: a certified minor of the generic rank proves it,
  and a generic rank other than R or a rank drop at the origin, where
  every entry is an exact rational, refutes it.  Every pointwise rank
  check but `extensions.check_extension` goes through it.
* `sample_points` is the one seeded sampler, and `check_extension` its one
  client left: it draws `RANK_SAMPLES` rational points p/q, all in one box,
  `SAMPLE_BOX`, as the floats p / q with no `Fraction` built.  It alone
  refuses to sample no points.
  `float_rank` estimates rank numerically with numpy, of one matrix or of
  a whole stack in one call, and `sampled_ranks` evaluates a ScalarFn
  matrix entry by entry over a batch of sample points, with one table of
  atom values (x_j^e, sin/cos(c.x), exp(d.x)) shared by all the entries,
  and ranks the stack.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, islice
from math import gcd, lcm
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .report import Decision
from .symexpr import Rational, ScalarFn, lincomb


class FrameSolveFailure(Exception):
    """Re-expansion in a frame would require division by a non-unit."""


def _integral(vec: dict[int, Rational], row: Optional[int] = None) -> tuple[dict[int, int], int]:
    """The values of ``vec`` as ``int`` numerators over one positive ``int``
    denominator, the lcm of theirs; ``vec`` itself when they are all
    ``int``.

    This is the one conversion into the elimination: it takes ``int`` and
    ``Fraction`` values only, and raises TypeError naming the entry of any
    other (a float is not exact).  ``row`` names the matrix row that
    ``vec`` is, for the message; None means a right-hand side.
    """
    den = 0  # while every value is an int
    for k, v in vec.items():
        if type(v) is not int:
            if not isinstance(v, (int, Fraction)):
                where = f"entry ({row}, {k})" if row is not None else f"right-hand side entry {k}"
                raise TypeError(f"{where} must be an int or a Fraction, got {type(v).__name__} {v!r}")
            den = lcm(den or 1, v.denominator)
    if not den:
        return vec, 1
    return {k: v.numerator * (den // v.denominator) for k, v in vec.items()}, den


def _eliminate(
    rows: list[dict[int, int]], scales: Sequence[int], n: int
) -> tuple[list[tuple[int, int]], list[dict[int, int]]]:
    """Sparse fraction-free Gauss-Jordan elimination, in place.

    Each row is a dict ``{col: int}`` over the columns ``0..n-1``, without
    zero entries, and stands for itself divided by its ``scales`` entry.
    Columns are processed left to right; the pivot of a column is the
    shortest unpivoted row with an entry there (ties to the lower index),
    found in one walk over the rows that occupy the column, and the column
    is then cleared from every other row, so pivot rows end in reduced row
    echelon form up to their pivot values, which are kept and not scaled
    to 1.  Pivot columns are the leftmost independent ones whatever the
    pivot rows.

    Clearing the pivot value f of row p from row i, where it is g, replaces
    row i by (f/h) row_i - (g/h) row_p with h = gcd(f, g) signed as f, and
    then divides row i and its transform by their content (the gcd of all
    their values), so no value ever leaves ``int``.  Every row, with its
    transform, stays a non-zero multiple of the row that Gauss-Jordan over
    the rationals holds at the same step, so the pivots, the sparsity and
    every solution and witness read off the rows are the same.

    Returns ``(pivots, transforms)``: the ``(row, col)`` pairs in column
    order, and for every row the sparse combination ``{orig_row: int}`` of
    the original rows, each divided by its scale, that it now equals.
    """
    occupied: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            occupied.setdefault(c, set()).add(i)
    transforms = [{i: s} for i, s in enumerate(scales)]
    pivoted = [False] * len(rows)
    pivots: list[tuple[int, int]] = []
    for c in range(n):
        p, size = -1, 0
        for i in occupied.get(c, ()):
            if not pivoted[i]:
                length = len(rows[i])
                if p < 0 or length < size or (length == size and i < p):
                    p, size = i, length
        if p < 0:
            continue
        prow, ptr = rows[p], transforms[p]
        f = prow[c]
        for i in list(occupied[c]):
            if i == p:
                continue
            row, tr = rows[i], transforms[i]
            g = row[c]
            h = gcd(f, g) if f > 0 else -gcd(f, g)
            a, b = f // h, g // h
            if a != 1:
                for vec in (row, tr):
                    for k in vec:
                        vec[k] *= a
            for k, v in prow.items():
                x = row.get(k, 0) - b * v
                if x:
                    if k not in row:
                        occupied.setdefault(k, set()).add(i)
                    row[k] = x
                else:
                    del row[k]
                    occupied[k].discard(i)
            for k, v in ptr.items():
                x = tr.get(k, 0) - b * v
                if x:
                    tr[k] = x
                else:
                    del tr[k]
            e = gcd(*row.values(), *tr.values())
            if e != 1:
                for vec in (row, tr):
                    for k in vec:
                        vec[k] //= e
        pivoted[p] = True
        pivots.append((p, c))
    return pivots, transforms


class FactoredSystem:
    """A x = b for a fixed sparse A, eliminated once by `_eliminate`.

    ``rows`` are the sparse rows ``{col: int or Fraction}`` of A over
    ``n`` columns, without zero entries, each divided by its entry of
    ``scales`` (all 1 when none are given): `AnsatzOperator` passes ``int``
    numerators over one denominator per row this way.  Each row enters the
    elimination once, as ``int`` numerators over its scale times the lcm of
    its own denominators (a row of ``int`` values is itself consumed), and
    the elimination and the solves then stay in ``int``.
    `solve` costs one pass over the stored contributions of the non-zero
    entries of b, and returns the solution with free variables zero (the
    pivot columns are the leftmost independent ones whatever the
    right-hand side) or an infeasibility witness, both lists of
    ``Fraction``: those are the only values built as ``Fraction``.
    """

    def __init__(self, rows: Sequence[dict[int, Rational]], n: int, scales: Sequence[int] = ()):
        self.m, self.n = len(rows), n
        ints: list[dict[int, int]] = []
        dens: list[int] = []
        for i, row in enumerate(rows):
            num, den = _integral(row, i)
            ints.append(num)
            dens.append(den * scales[i] if scales else den)
        pivots, transforms = _eliminate(ints, dens, n)
        pivot_rows = {p for p, _ in pivots}
        self.cols = [c for _, c in pivots]
        # with free variables zero, the pivot row of slot s reads
        # pivot_values[s] * x[cols[s]] = (its transform) . b
        self.pivot_values = [ints[p][c] for p, c in pivots]
        # rows reduced to zero, in row order: each must annihilate b
        self.checks = [tr for i, tr in enumerate(transforms) if i not in pivot_rows]
        # original row -> [(slot, coefficient)]; slots 0..rank-1 are the
        # pivot columns, the rest the consistency rows
        self.contrib: list[list[tuple[int, int]]] = [[] for _ in range(self.m)]
        for s, tr in enumerate([transforms[p] for p, _ in pivots] + self.checks):
            for k, v in tr.items():
                self.contrib[k].append((s, v))

    def solve(
        self, rhs: dict[int, Rational], outside: Sequence[Rational] = (), den: int = 1
    ) -> tuple[Optional[list[Fraction]], Optional[list[Fraction]]]:
        """Solve A x = b for the sparse ``b`` given as ``{row: value}``.

        ``outside`` extends the system by zero rows of A with these
        right-hand sides; a non-zero one is inconsistent at once.  Each
        value of ``rhs`` and ``outside`` stands for itself divided by the
        positive ``int`` ``den``, so a caller holding ``int`` numerators
        over one denominator passes them as they are.  A witness has one
        entry per row of A, then one per ``outside`` value.  b is scaled to
        ``int`` numerators over one denominator D, so each slot accumulates
        an ``int``; a solution entry is that ``int`` over its pivot value
        times D, and a witness entry the check row's transform value times
        D over its slot's ``int``.
        """
        nums, d = _integral(rhs)
        size = self.m + len(outside)
        if outside:
            extra, e = _integral(dict(enumerate(outside, start=self.m)))
            for k, q in extra.items():
                if q:
                    y = [Fraction(0)] * size
                    y[k] = Fraction(e * den, q)
                    return None, y
        den *= d
        acc: dict[int, int] = {}
        for k, q in nums.items():
            for s, v in self.contrib[k]:
                acc[s] = acc.get(s, 0) + v * q
        rank = len(self.cols)
        bad = [s for s, t in acc.items() if s >= rank and t]
        if bad:
            s = min(bad)
            t = acc[s]
            y = [Fraction(0)] * size
            for k, v in self.checks[s - rank].items():
                y[k] = Fraction(v * den, t)
            return None, y
        x = [Fraction(0)] * self.n
        for s, (c, f) in enumerate(zip(self.cols, self.pivot_values)):
            t = acc.get(s)
            if t:
                x[c] = Fraction(t, f * den)
        return x, None


def rat_solve(
    rows: Sequence[Sequence[Rational]], rhs: Sequence[Rational]
) -> tuple[Optional[list[Fraction]], Optional[list[Fraction]]]:
    """Solve A x = b exactly, for one right-hand side.

    Returns ``(solution, None)`` for a consistent system (free variables
    set to zero) or ``(None, witness)`` where ``witness . A = 0`` and
    ``witness . b != 0`` certifies infeasibility; every value is a
    ``Fraction``.  Entries must be ``int`` or ``Fraction`` (TypeError
    otherwise).
    """
    n = len(rows[0]) if rows else 0
    system = FactoredSystem([{j: x for j, x in enumerate(row) if x} for row in rows], n)
    return system.solve({i: b for i, b in enumerate(rhs) if b})


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

    Columns are eliminated left to right, Gauss-Jordan: the pivot of
    column c is the first unused row p whose entry there is a unit u.  A
    pivot step computes only the entries whose value it does not already
    know; no column left of c is read again.  The pivot row's non-zero
    entries right of c, and its non-zero right-hand-side entries, are
    multiplied by u^-1.  In every other row with an entry g != 0 in column
    c, that entry is set to zero outright, and only those same live
    columns become x - g*y (one `lincomb` each); where the pivot row y is
    zero, x is kept.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    b = [list(col) for col in rhs_cols]  # columns
    piv: list[tuple[int, int]] = []
    used_rows: set[int] = set()
    chart = rows[0][0].chart if m and n else None
    zero = chart.zero() if chart else None
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
        prow = a[p]
        inv = prow[c].unit_inverse()
        live = [k for k in range(c + 1, n) if not prow[k].is_zero()]
        for k in live:
            prow[k] = prow[k] * inv
        live_rhs = [col for col in b if not col[p].is_zero()]
        for col in live_rhs:
            col[p] = col[p] * inv
        for i in range(m):
            row = a[i]
            g = row[c]
            if i != p and not g.is_zero():
                row[c] = zero
                for k in live:
                    row[k] = lincomb(chart, [(1, row[k]), (-1, g, prow[k])])
                for col in live_rhs:
                    col[i] = lincomb(chart, [(1, col[i]), (-1, g, col[p])])
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


def bracket_structure(
    rows: list[list[ScalarFn]], sections: Sequence, bracket: Callable
) -> dict[tuple[int, int], dict[int, ScalarFn]]:
    """Structure functions of the frame spanned by ``sections``.

    Column g of ``rows`` is section g written in the ambient frame, and
    ``bracket(sections[s], sections[t])`` returns the ambient column of
    their bracket.  Every pair s < t is bracketed and re-expanded in the
    frame by unit pivots (FrameSolveFailure when that fails); the result is
    ``{(s, t): {g: C^g_st}}`` with zero entries kept.  A frame with no pairs
    solves nothing, so a single section never fails.
    """
    pairs = list(combinations(range(len(sections)), 2))
    if not pairs:
        return {}
    cols = [bracket(sections[s], sections[t]) for s, t in pairs]
    return {key: dict(enumerate(col)) for key, col in zip(pairs, unit_pivot_solve(rows, cols))}


def scalar_det(
    rows: Sequence[Sequence[ScalarFn]],
    rsel: Sequence[int],
    csel: Sequence[int],
    memo: dict,
) -> ScalarFn:
    """Exact minor of a ScalarFn matrix on rows ``rsel`` and columns
    ``csel``.

    The minor is expanded along its first selected row, skipping zero
    entries.  Every subminor of size two or more is stored in ``memo``
    under ``(rsel, csel)``; callers pass one dict for the minors of one
    matrix, so each distinct subminor is expanded once and a k x k minor
    costs at most k ring multiplications over its (k-1)-subminors.
    """
    if len(rsel) != len(csel):
        raise ValueError(f"minor on {len(rsel)} rows but {len(csel)} columns")
    if not rsel:
        raise ValueError("empty minor")
    return _minor(rows, tuple(rsel), tuple(csel), memo)


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
    pieces = []
    rest = rsel[1:]
    for t, c in enumerate(csel):
        entry = row[c]
        if entry.is_zero():
            continue
        sub = _minor(rows, rest, csel[:t] + csel[t + 1 :], memo)
        if not sub.is_zero():
            pieces.append((-1 if t % 2 else 1, entry, sub))
    det = memo[key] = lincomb(row[csel[0]].chart, pieces)
    return det


def _sign_changes(values: Sequence[int]) -> int:
    """Sign changes along the non-zero ``values``."""
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of ``a`` by ``b``, divided by
    its content; polynomials are ``int`` coefficient lists, lowest degree
    first, without trailing zeros (``[]`` is zero).  Each step scales the
    running remainder by |lc(b)| / g and subtracts a multiple of ``b``, so
    the multiplier stays positive and every value stays ``int``."""
    r = list(a)
    lb = b[-1]
    while len(r) >= len(b):
        lr = r[-1]
        g = gcd(lb, lr)
        f, c = abs(lb) // g, (lr // g) * (1 if lb > 0 else -1)
        shift = len(r) - len(b)
        r = [f * x for x in r]
        for k, y in enumerate(b):
            r[shift + k] -= c * y
        while r and not r[-1]:
            r.pop()
    e = gcd(*r) if r else 1
    return [x // e for x in r] if e > 1 else r


def _real_roots(p: list[int]) -> int:
    """The number of distinct real roots of the ``int`` polynomial ``p``
    (lowest degree first, leading coefficient non-zero), by Sturm's theorem
    (Basu, Pollack and Roy, *Algorithms in Real Algebraic Geometry*, 2006,
    ch. 2): the sign changes of the Sturm sequence p, p', -rem(..), ... at
    -infinity minus those at +infinity.  The remainders are positive
    multiples of the rational ones (`_pseudo_remainder`), which changes no
    sign; the count holds for repeated roots too."""
    seq = [p, [k * c for k, c in enumerate(p)][1:]]
    while len(seq[-1]) > 1:
        r = _pseudo_remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])
    at_pos = [s[-1] for s in seq]
    at_neg = [s[-1] if len(s) % 2 else -s[-1] for s in seq]
    return _sign_changes(at_neg) - _sign_changes(at_pos)


def nowhere_zero(f: ScalarFn) -> bool:
    """True when ``f`` is certified to vanish at no point of its chart.

    ``f`` is certified when it is a unit u = q*exp(d.x) times P + T, with
    P a polynomial in at most one coordinate, which is not periodic, and T
    = sum q_k trig_k a trig polynomial without monomial factors: |T| <= S
    = sum |q_k|, so P + T has no zero when P - S or -P - S has a positive
    leading coefficient and no real root, counted by Sturm's theorem
    (`_real_roots`).  A unit itself, u times a polynomial without real
    roots (S = 0) and u times a trig polynomial whose constant term
    exceeds S (P constant) are the special cases.

    Anything else, nowhere zero or not, gives False: False is no claim.
    """
    num = f.num
    if not num:
        return False
    keys = iter(num)
    expv = next(keys)[2]
    if any(k[2] != expv for k in keys):
        return False
    if len(num) == 1:
        return f.is_unit()
    coords = {j for mono, _, _ in num for j, e in enumerate(mono) if e}
    if len(coords) > 1 or any(f.chart.periodic[j] for j in coords):
        return False
    j = coords.pop() if coords else 0
    p = [0] * (max(mono[j] for mono, _, _ in num) + 1)
    spread = 0
    for (mono, trig, _), q in num.items():
        if trig is None:
            p[mono[j]] = q
        elif any(mono):
            return False
        else:
            spread += abs(q)
    bound = [c if p[-1] > 0 else -c for c in p]
    bound[0] -= spread
    return bound[-1] > 0 and (len(bound) == 1 or _real_roots(bound) == 0)


Minor = tuple[tuple[int, ...], tuple[int, ...]]


class RankCertificate(NamedTuple):
    """The generic rank of a ScalarFn matrix and the minors that show it.

    ``bordered`` is the ``(rows, cols)`` of a non-zero ``rank``-minor whose
    bordering minors all vanish, and ``witness`` the first ``rank``-minor
    that `nowhere_zero` certifies, or None.  The empty minor is 1, so a zero
    matrix has both ``((), ())``.
    """

    rank: int
    bordered: Minor
    witness: Optional[Minor]


def generic_rank(rows: Sequence[Sequence[ScalarFn]], memo: Optional[dict] = None) -> Minor:
    """A non-zero minor of the generic rank R of a ScalarFn matrix whose
    bordering minors all vanish, as its ``(rows, cols)``; R is its size.

    The entries are real-analytic on a connected chart and the zero test
    is exact, so the ring is an integral domain, and Kronecker's
    bordering-minor theorem (Gantmacher, *The Theory of Matrices*, vol. 1,
    ch. I §3) holds over its fraction field: a non-zero r-minor whose
    bordering (r+1)-minors all vanish makes r the generic rank R.  The
    minor grows from the empty one by its first non-zero border (added
    rows, then added columns, in order; rows and columns stay sorted), so
    its first step is the first non-zero entry.  Minors are read through
    ``memo`` (see ``scalar_det``), so none larger than R + 1 is expanded.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    memo = {} if memo is None else memo

    def borders(rsel: tuple[int, ...], csel: tuple[int, ...]):
        for i in range(m):
            if i in rsel:
                continue
            for j in range(n):
                if j not in csel:
                    yield tuple(sorted((*rsel, i))), tuple(sorted((*csel, j)))

    bordered: Minor = ((), ())
    while grown := next((b for b in borders(*bordered) if not scalar_det(rows, *b, memo).is_zero()), None):
        bordered = grown
    return bordered


WITNESS_SCAN_CAP = 256  # R-minors that rank_certificate expands in its search for a witness


def rank_certificate(rows: Sequence[Sequence[ScalarFn]]) -> RankCertificate:
    """Generic rank by bordering minors (`generic_rank`), then a
    nowhere-zero minor of that size.

    The R-minors are scanned, row combinations then column combinations,
    for the first one `nowhere_zero` certifies.  Every (R+1)-minor
    vanishes identically, so an R-minor that vanishes nowhere certifies
    rank R at every point.  The scan tries the first `WITNESS_SCAN_CAP`
    (256) minors at most; without a certified one among them ``witness``
    is None.

    Both phases read minors through one memo (see ``scalar_det``), so each
    distinct j-minor is expanded once and none is larger than R + 1: an
    m x n matrix costs at most sum_{j <= R+1} j * C(m, j) * C(n, j) ring
    multiplications.  The expansion of one R-minor holds at most C(R, j)
    distinct j-minors, so past `generic_rank` the scan costs at most
    `WITNESS_SCAN_CAP` * sum_j j * C(R, j) = `WITNESS_SCAN_CAP` * R *
    2^(R-1) ring multiplications, whatever m and n.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    memo: dict = {}
    bordered = generic_rank(rows, memo)
    r = len(bordered[0])
    if r == 0:
        return RankCertificate(0, bordered, bordered)
    candidates = ((rsel, csel) for rsel in combinations(range(m), r) for csel in combinations(range(n), r))
    witness = next(
        (minor for minor in islice(candidates, WITNESS_SCAN_CAP) if nowhere_zero(scalar_det(rows, *minor, memo))),
        None,
    )
    return RankCertificate(r, bordered, witness)


def float_rank(rows: Union[Sequence, np.ndarray]) -> Union[int, list[int]]:
    """Numeric rank of one matrix, or the list of ranks of a ``(count, m, n)``
    stack, with numpy's scale-relative tolerance per matrix.  Zero-size
    matrices have rank 0."""
    arr = np.asarray(rows, dtype=float)
    if arr.size == 0:
        return np.zeros(arr.shape[:-2], dtype=int).tolist()
    return np.linalg.matrix_rank(arr).tolist()


RANK_SAMPLES = 50  # the points every sampled rank check ranks at
SAMPLE_BOX = (60, 13)  # each sampled coordinate p/q has |p| <= 60 and 1 <= q <= 13


def sample_points(dim: int, seed: int) -> list[list[float]]:
    """`RANK_SAMPLES` seeded random points of ``dim`` coordinates in
    `SAMPLE_BOX`, each coordinate p/q drawn as p then q, point by point:
    the one sampler of every sampled check.  Int true division is
    correctly rounded, so each p / q is ``float(Fraction(p, q))`` bit for
    bit, without the Fraction.  A check needs evidence, so a count below 1
    is an error."""
    if RANK_SAMPLES < 1:
        raise ValueError(f"sampling needs at least one sample point, got {RANK_SAMPLES}")
    bound, den = SAMPLE_BOX
    draw = random.Random(seed).randrange  # what randint(a, b) calls, as randrange(a, b + 1)
    return [[draw(-bound, bound + 1) / draw(1, den + 1) for _ in range(dim)] for _ in range(RANK_SAMPLES)]


def sampled_ranks(rows: Sequence[Sequence[ScalarFn]], points: Sequence) -> list[int]:
    """Numeric rank of the ScalarFn matrix ``rows`` at each of ``points``.

    Each non-zero entry is evaluated once over the whole batch of points,
    zero entries stay 0, and the ``(count, m, n)`` stack is ranked by one
    `float_rank` call.  The entries share one table of atom values over
    the batch (see `ScalarFn.evaluate`), so a power, sine or exponential
    that several entries contain is computed once.
    """
    pts = np.asarray(points, dtype=float)
    stack = np.zeros((len(pts), len(rows), len(rows[0]) if rows else 0))
    atoms: dict = {}
    for i, row in enumerate(rows):
        for j, f in enumerate(row):
            if not f.is_zero():
                stack[:, i, j] = f.evaluate(pts, atoms)
    return float_rank(stack)


def pointwise_rank(rows: Sequence[Sequence[ScalarFn]], want: Optional[int]) -> Decision:
    """Decide "``rows`` has rank ``want`` at every point", or with ``want``
    None "``rows`` has constant rank", exactly or not at all: a `Decision`
    with status ``"exact"`` when decided and ``"uncertified"`` otherwise,
    and the `RankCertificate` as evidence, whose ``rank`` is the generic
    rank R, the rank at every point when it has a ``witness``.

    It holds when `rank_certificate` has a witness, and is refuted when
    ``want`` differs from the generic rank R, the rank on a dense open set.
    Otherwise it is refuted when the rank at the origin is below R: there
    x^m (m > 0) and sin vanish and cos and exp are 1, so every entry is
    the exact rational sum of its other coefficients, ranked by
    `FactoredSystem`.  Failing both, the claim is left undecided.
    """
    cert = rank_certificate(rows)
    r = cert.rank
    if cert.witness is not None or want not in (None, r):
        return Decision(want in (None, r), "exact", cert)
    at_origin = [{} for _ in rows]
    for values, row in zip(at_origin, rows):
        for j, f in enumerate(row):
            if v := sum(q for (mono, trig, _), q in f.num.items() if not (any(mono) or trig and trig[0] == "sin")):
                values[j] = Fraction(v, f.den)
    if len(FactoredSystem(at_origin, len(rows[0])).cols) < r:
        return Decision(False, "exact", cert)
    return Decision(None, "uncertified", cert)
