"""Exact scalar functions on a coordinate chart.

This is the coefficient ring for everything else in the package: finite
rational combinations of terms

    q * x^m * {1 | sin(c.x) | cos(c.x)} * exp(d.x)

with q, c, d rational and x the chart coordinates.  The representation is
canonical: trig products are rewritten by product-to-sum identities, exp
factors merge additively, sin/cos arguments are sign-normalised (first
nonzero slope positive), and zero coefficients are dropped.  Because the
surviving basis functions are linearly independent, a function is zero
iff its term map is empty, so the zero test is exact.  Every zero result
of the ring is its chart's one zero function (`Chart.zero`), and a zero
factor is skipped, not multiplied out.

The slopes c and d in a term key are ``int`` when integral and
``Fraction`` only otherwise.  ``Fraction(3) == 3`` with equal hashes, so
this does not change which keys merge; it keeps the keys cheap to hash,
because a tuple recomputes its hash on every dict lookup and
``Fraction.__hash__`` is far slower than ``int.__hash__``.

The coefficients q are stored as ``int`` numerators ``num`` over one
positive ``int`` denominator ``den`` per function, normalised once per
result in ``ScalarFn._make`` so that gcd(den, numerators) = 1: the
content/primitive-part form of FLINT's ``fmpq_poly``.  The ring kernels
then do ``int`` arithmetic only.  The one half of a trig product doubles
the denominator of the product once, and a derivative along a coordinate
with fractional slopes multiplies it by the lcm of their denominators.
``terms`` is the rational view of the same map (``int`` when integral,
``Fraction`` otherwise); it is ``num`` itself when ``den == 1`` and is
built on each read otherwise, for printing and coefficient matching.  Since ``int / int`` is a ``float``, code that divides by a
coefficient must build a ``Fraction`` (``Fraction(p, q)``) explicitly.

A sum of many terms or products is built by :func:`lincomb`, which emits
every raw product term into one canonical pass instead of re-merging and
re-sorting the running total after each pairwise ``+``.

Every ring product (``*``, :func:`lincomb`, the ansatz operator) reads
its chart's multiplication table, so the product-to-sum pieces of a pair
of trig atoms, and the sum of a pair of exp slope vectors, are computed
once per chart: the checks on one chart meet the same few atoms again
and again.

Composition with a map of charts is :class:`ChartMap`, prepared once per
map.  A term over single-term images (0 or q*z^a, such as coordinates) is
rewritten by key arithmetic alone; only powers of multi-term images are
multiplied out, each once per map.  A trig or exp argument over linear
images is composed by its slope vector alone, and the identity map returns
a function unchanged.
``ScalarFn.substitute`` is a one-off map; callers that pull many functions
through one base map hold the map.

Division is restricted to units q*exp(d.x) (nowhere-vanishing members of
the class); anything else raises :class:`NotAUnit`.

Floating evaluation (`ScalarFn.evaluate`) is for sampling only; the
functions of one sampled matrix share one table of atom values (powers,
sines and cosines, exponentials) over the batch of points.

Expressions may be built with Python operators on :class:`ScalarFn`
values plus the :func:`sin`, :func:`cos`, :func:`exp` constructors, or
parsed from text with :func:`parse_expr` (infix grammar with ``^`` integer
powers and ``pi`` admitted only in quarter-period trig phases; the parse
is the canonicalization step).
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter, sub
from typing import Iterable, Optional, Sequence, Union

import numpy as np


class SymExprError(Exception):
    """Base error for the scalar-function class."""


class NonCanonicalizable(SymExprError):
    """An expression (phase, argument or divisor) leaves the class."""


class UnknownCoordinate(SymExprError):
    pass


class ClosureViolation(SymExprError):
    """A substitution would leave the trig/exp-polynomial class."""


class PeriodicityViolation(SymExprError):
    """A periodic coordinate receives a non-periodic expression."""


class NotAUnit(NonCanonicalizable):
    """Division by something that is not a declared-nonvanishing unit."""


Rational = Union[int, Fraction]

# trig atom: None or (kind, slopes) with kind in {"sin", "cos"} and the
# first nonzero slope positive; a term key is (monomial, trig, exp_slopes).
# Every slope is an int when integral and a Fraction otherwise (_slope).
Trig = Optional[tuple[str, tuple[Rational, ...]]]
TermKey = tuple[tuple[int, ...], Trig, tuple[Rational, ...]]


@dataclass(frozen=True)
class Chart:
    """A single coordinate chart; periodic coordinates have period 2*pi.

    It also holds its one zero function and the multiplication table of
    the atoms met on it, which are not fields: equality and hashing read
    the name, coordinates and periodic flags only.
    """

    name: str
    coords: tuple[str, ...]
    periodic: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        if not self.periodic:
            object.__setattr__(self, "periodic", (False,) * len(self.coords))
        if len(self.periodic) != len(self.coords):
            raise SymExprError("periodic flags must match coordinates")
        if len(set(self.coords)) != len(self.coords):
            raise SymExprError(f"duplicate coordinate names in chart {self.name!r}")
        for c in self.coords:
            try:
                toks = _tokenize(c)
            except NonCanonicalizable:
                toks = []
            # a coordinate is a name the expression grammar reads back as itself
            if c == "pi" or [(t.kind, t.text) for t in toks] != [("name", c), ("end", "")]:
                raise SymExprError(f"{c!r} is not a coordinate name in chart {self.name!r}")
        # a constant of the chart, like its coordinates, and the table that
        # `_product_items` alone reads and fills; not dataclass fields
        object.__setattr__(self, "_zero", ScalarFn(self, {}))
        object.__setattr__(self, "_products", {})

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, coord: str) -> int:
        try:
            return self.coords.index(coord)
        except ValueError:
            raise UnknownCoordinate(f"chart {self.name!r} has no coordinate {coord!r}") from None

    def coord(self, name: str) -> "ScalarFn":
        i = self.index(name)
        mono = tuple(1 if j == i else 0 for j in range(self.dim))
        return ScalarFn._make(self, [((mono, None, self._zerovec()), 1)])

    def const(self, q: Rational) -> "ScalarFn":
        """The constant function q; q must be an int or a Fraction."""
        if isinstance(q, int):
            n, d = int(q), 1
        elif isinstance(q, Fraction):
            n, d = q.numerator, q.denominator
        else:
            raise TypeError(f"a constant must be an int or a Fraction, got {type(q).__name__} {q!r}")
        if not n:
            return self.zero()
        return ScalarFn(self, {((0,) * self.dim, None, self._zerovec()): n}, d)

    def zero(self) -> "ScalarFn":
        """The chart's one zero function: every zero result of the ring
        operations is this object."""
        return self._zero

    def one(self) -> "ScalarFn":
        return self.const(1)

    def _zerovec(self) -> tuple[int, ...]:
        return (0,) * self.dim


def point_chart(name: str = "pt") -> Chart:
    """The zero-dimensional chart (Lie algebras live over it)."""
    return Chart(name, (), ())


def _slope(x: Rational) -> Rational:
    """A slope in term-key form: int when integral, Fraction otherwise."""
    return x.numerator if x.denominator == 1 else x


def _lex_sign(vec: Sequence[Rational]) -> int:
    for v in vec:
        if v > 0:
            return 1
        if v < 0:
            return -1
    return 0


def _norm_trig(kind: str, c: tuple[Rational, ...]) -> tuple[int, Trig]:
    """Normalise a raw trig atom; returns (multiplier, atom or None).

    sin with zero argument vanishes (multiplier 0), cos with zero argument
    is 1 (atom None); sin(-u) = -sin(u), cos(-u) = cos(u).
    """
    s = _lex_sign(c)
    if s == 0:
        return (0, None) if kind == "sin" else (1, None)
    if s < 0:
        c = tuple(-x for x in c)
        if kind == "sin":
            return -1, ("sin", c)
        return 1, ("cos", c)
    return 1, (kind, c)


def _vec_add(a: Sequence[Rational], b: Sequence[Rational]) -> tuple[Rational, ...]:
    v = tuple(map(add, a, b))
    # a sum of ints is in term-key form; only a Fraction may need `_slope`
    return tuple(map(_slope, v)) if Fraction in map(type, v) else v


def _vec_sub(a: Sequence[Rational], b: Sequence[Rational]) -> tuple[Rational, ...]:
    v = tuple(map(sub, a, b))
    return tuple(map(_slope, v)) if Fraction in map(type, v) else v


def _trig_product(t1: Trig, t2: Trig) -> list[tuple[int, Trig]]:
    """Expand a product of two trig atoms by product-to-sum: the product
    is one half of the sum of sign * atom over the returned pairs."""
    k1, a = t1
    k2, b = t2
    out: list[tuple[int, Trig]] = []
    if k1 == "sin" and k2 == "sin":
        pieces = [(1, "cos", _vec_sub(a, b)), (-1, "cos", _vec_add(a, b))]
    elif k1 == "cos" and k2 == "cos":
        pieces = [(1, "cos", _vec_sub(a, b)), (1, "cos", _vec_add(a, b))]
    elif k1 == "sin" and k2 == "cos":
        pieces = [(1, "sin", _vec_add(a, b)), (1, "sin", _vec_sub(a, b))]
    else:  # cos * sin
        pieces = [(1, "sin", _vec_add(a, b)), (1, "sin", _vec_sub(b, a))]
    for sign, kind, vec in pieces:
        mult, atom = _norm_trig(kind, vec)
        if mult:
            out.append((sign * mult, atom))
    return out


def _trig_key(t: Trig) -> tuple:
    if t is None:
        return (0,)
    return (1 if t[0] == "sin" else 2, t[1])


def _term_sort_key(key: TermKey) -> tuple:
    mono, trig, expv = key
    return (sum(mono), mono, _trig_key(trig), expv)


_trig_of = itemgetter(1)


def _has_trig(num: dict[TermKey, int]) -> bool:
    # a trig atom is a non-empty tuple, so it is true and None is not
    return any(map(_trig_of, num))


def _product_items(items: list, f_items: Iterable, g_items: Iterable, c: int, trig2: bool, table: dict) -> None:
    """Append the unmerged numerator items of c*F*G, given the numerator
    items of F and G, to ``items``.

    With ``trig2`` set (both factors have trig terms) the items are those
    of 2*c*F*G, whose denominator the caller doubles: each trig x trig
    term then gets its product-to-sum half as an int, +-c*q1*q2.

    ``table`` is the factors' ``Chart._products``: a pair of trig atoms
    maps to its product-to-sum pieces and a pair of non-zero exp slope
    vectors to their sum, each computed on the pair's first meeting.  A
    trig atom starts with a str and a slope vector with a number, so the
    two kinds of key never meet.
    """
    append = items.append
    c2 = 2 * c if trig2 else c
    g_items = [(m2, t2, e2, any(e2), q2) for (m2, t2, e2), q2 in g_items]
    for (m1, t1, e1), q1 in f_items:
        p1 = q1 * c2
        flat1 = not any(e1)
        for m2, t2, e2, curved2, q2 in g_items:
            mono = tuple(map(add, m1, m2))
            # a zero exp vector adds nothing, and the other is in slope form
            expv = e2 if flat1 else table.get((e1, e2)) if curved2 else e1
            if expv is None:
                expv = table[e1, e2] = _vec_add(e1, e2)
            if t1 is None or t2 is None:
                append(((mono, t1 or t2, expv), p1 * q2))
            else:
                q = q1 * c * q2
                pieces = table.get((t1, t2))
                if pieces is None:
                    pieces = table[t1, t2] = tuple(_trig_product(t1, t2))
                for sign, atom in pieces:
                    append(((mono, atom, expv), q if sign > 0 else -q))


def derivative_items(num: dict[TermKey, int], j: int) -> tuple[list[tuple[TermKey, int]], int]:
    """The unmerged numerator items of the partial derivative along
    coordinate ``j`` of the function with numerators ``num``, and the
    factor ``s`` its denominator takes: the derivative is the items over
    ``s`` times the function's own denominator.

    Each term q * x^m * trig * exp(d.x) gives at most three items, read off
    its key: m_j * x^(m - e_j) * trig * exp, q * trig' * exp with trig'
    the derivative of the trig atom, and d_j * x^m * trig * exp.  The
    three keys of one term differ, so the items of a one-term function
    need no merge.  ``s`` is the lcm of the denominators of the slopes
    c_j and d_j, 1 when they are all integral.
    """
    items: list[tuple[TermKey, int]] = []
    # items with a fractional slope, as (key, q * slope numerator, slope denominator)
    fractional: list[tuple[TermKey, int, int]] = []
    for (mono, trig, expv), q in num.items():
        mj = mono[j]
        if mj:
            items.append(((mono[:j] + (mj - 1,) + mono[j + 1 :], trig, expv), q * mj))
        if trig is not None and trig[1][j]:
            kind, c = trig
            cj = c[j]
            # c is sign-normalised: sin(c.x)' = c_j cos(c.x), cos(c.x)' = -c_j sin(c.x)
            key = (mono, ("cos", c) if kind == "sin" else ("sin", c), expv)
            dq = q if kind == "sin" else -q
            if type(cj) is int:
                items.append((key, dq * cj))
            else:
                fractional.append((key, dq * cj.numerator, cj.denominator))
        dj = expv[j]
        if dj:
            if type(dj) is int:
                items.append(((mono, trig, expv), q * dj))
            else:
                fractional.append(((mono, trig, expv), q * dj.numerator, dj.denominator))
    if not fractional:
        return items, 1
    s = lcm(*(d for _, _, d in fractional))
    items = [(key, q * s) for key, q in items]
    items += [(key, q * (s // d)) for key, q, d in fractional]
    return items, s


# the OverflowError arguments of Python's float power and of math.exp
_POWER_OVERFLOW = (errno.ERANGE, os.strerror(errno.ERANGE))
_EXP_OVERFLOW = ("math range error",)


def _overflow_checked(error: tuple, op, *args) -> np.ndarray:
    """``op(*args)`` over a batch, raising ``OverflowError(*error)`` if it
    overflows anywhere."""
    with np.errstate(over="raise"):
        try:
            return op(*args)
        except FloatingPointError:
            raise OverflowError(*error) from None


def _linear_values(slopes: Sequence[Rational], cols: np.ndarray) -> np.ndarray:
    """``sum_j c_j x_j`` over a batch given by its coordinate columns."""
    return sum(float(c) * x for c, x in zip(slopes, cols) if c)


class ScalarFn:
    """A canonical trig/exp polynomial on a chart.  Immutable.

    ``num`` maps each term key to an int numerator, in canonical term
    order, over the one positive int denominator ``den``; gcd(den,
    numerators) = 1, so the form is unique.  ``terms`` is the rational
    view of the same map.
    """

    __slots__ = ("chart", "num", "den")

    def __init__(self, chart: Chart, num: dict[TermKey, int], den: int = 1):
        # use ScalarFn._make; this constructor trusts its input
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ScalarFn is immutable")

    @staticmethod
    def _make(chart: Chart, items: Iterable[tuple[TermKey, int]], den: int = 1) -> "ScalarFn":
        """Merge raw numerator items over ``den`` into canonical form:
        equal keys summed, zero numerators dropped, terms in canonical
        order, and numerators and ``den`` divided by their gcd."""
        num: dict[TermKey, int] = {}
        for key, q in items:
            if not q:
                continue
            acc = num.get(key)
            if acc is None:
                num[key] = q
            else:
                acc += q
                if acc:
                    num[key] = acc
                else:
                    del num[key]
        if not num:
            return chart._zero
        if len(num) > 1:
            num = {k: num[k] for k in sorted(num, key=_term_sort_key)}
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                for k, q in num.items():
                    num[k] = q // g
        return ScalarFn(chart, num, den)

    @property
    def terms(self) -> dict[TermKey, Rational]:
        """The coefficients as rationals, in canonical term order: int when
        integral, Fraction otherwise."""
        den = self.den
        if den == 1:
            return self.num
        return {k: _slope(Fraction(q, den)) for k, q in self.num.items()}

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        if not self.num:
            return True
        if len(self.num) > 1:
            return False
        mono, trig, expv = next(iter(self.num))
        return not any(mono) and trig is None and not any(expv)

    def constant_value(self) -> Rational:
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise SymExprError("not a constant")
        q = next(iter(self.num.values()))
        return q if self.den == 1 else Fraction(q, self.den)

    def is_unit(self) -> bool:
        """True for q*exp(d.x) with q a nonzero rational."""
        if len(self.num) != 1:
            return False
        mono, trig, _ = next(iter(self.num))
        return not any(mono) and trig is None

    def unit_inverse(self) -> "ScalarFn":
        if not self.is_unit():
            raise NotAUnit(f"not a unit of the expression class: {self}")
        (mono, _, expv), q = next(iter(self.num.items()))
        # (q / den)^-1 = den / q, already in lowest terms
        den = self.den if q > 0 else -self.den
        return ScalarFn(self.chart, {(mono, None, tuple(-d for d in expv)): den}, abs(q))

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> Optional["ScalarFn"]:
        if isinstance(other, ScalarFn):
            if other.chart != self.chart:
                raise SymExprError(
                    f"chart mismatch: {self.chart.name!r} vs {other.chart.name!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.chart.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.den, o.den
        d = a if a == b else lcm(a, b)
        return ScalarFn._make(self.chart, [*_scaled(self.num, d // a), *_scaled(o.num, d // b)], d)

    __radd__ = __add__

    def __neg__(self):
        if not self.num:
            return self
        return ScalarFn(self.chart, {k: -q for k, q in self.num.items()}, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.den, o.den
        d = a if a == b else lcm(a, b)
        return ScalarFn._make(self.chart, [*_scaled(self.num, d // a), *_scaled(o.num, -(d // b))], d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f, g = self.num, o.num
        if not (f and g):
            return self.chart._zero
        trig2 = _has_trig(f) and _has_trig(g)
        items: list[tuple[TermKey, int]] = []
        _product_items(items, f.items(), g.items(), 1, trig2, self.chart._products)
        den = self.den * o.den
        return ScalarFn._make(self.chart, items, 2 * den if trig2 else den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.unit_inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.unit_inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.unit_inverse() ** (-n)
        result = self.chart.one()
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.chart.const(other)
        if not isinstance(other, ScalarFn):
            return NotImplemented
        return self.chart == other.chart and self.den == other.den and self.num == other.num

    __hash__ = None  # mutable-dict-backed; not hashable

    # -- calculus -----------------------------------------------------

    def partial(self, coord: str) -> "ScalarFn":
        """Exact partial derivative with respect to a chart coordinate."""
        items, scale = derivative_items(self.num, self.chart.index(coord))
        if not items:
            return self.chart._zero
        return ScalarFn._make(self.chart, items, self.den * scale)

    def substitute(self, source: Chart, images: Sequence["ScalarFn"]) -> "ScalarFn":
        """Compose with a map of charts: self o (images), landing on ``source``.

        ``images[j]`` is the expression on ``source`` for this chart's j-th
        coordinate.  This is ``ChartMap(self.chart, source, images).pull``;
        a caller that composes several functions with one map builds the
        `ChartMap` once.
        """
        return ChartMap(self.chart, source, images).pull(self)

    def evaluate(self, points: Sequence, atoms: Optional[dict] = None) -> Union[float, np.ndarray]:
        """Floating evaluation (sampling only, never zero tests).

        ``points`` is a ``(count, dim)`` batch, giving a float64 array of
        ``count`` values, or one flat point, giving a float.  The batch is
        converted to floats once, and each term is one numpy pass over it,
        multiplied in the order coefficient, powers, trig factor, exp
        factor.  As in Python float arithmetic, a power or an exp that
        overflows raises OverflowError, while products and sums go to inf
        or nan silently.

        ``atoms`` is a table of atom values over this one batch, which a
        caller evaluating several functions of the chart on the same points
        passes to each call: x_j^e under ``(j, e)``, sin/cos(c.x) under
        the trig atom ``("sin", c)``/``("cos", c)`` and exp(d.x) under
        ``("exp", d)``, so no two kinds share a key.  Each array is made
        once by the same numpy operation on the same inputs as without the
        table, so the values, and the OverflowError of an overflowing atom,
        are the same.
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[np.newaxis]
        if pts.ndim != 2 or pts.shape[1] != self.chart.dim:
            raise SymExprError("point dimension mismatch")
        if atoms is None:
            atoms = {}
        cols = pts.T
        total = np.zeros(len(pts))
        with np.errstate(all="ignore"):
            den = self.den
            for (mono, trig, expv), q in self.num.items():
                val = np.full(len(pts), q / den)
                for j, e in enumerate(mono):
                    if e:
                        power = atoms.get((j, e))
                        if power is None:
                            power = atoms[(j, e)] = _overflow_checked(_POWER_OVERFLOW, np.power, cols[j], e)
                        val *= power
                if trig is not None:
                    wave = atoms.get(trig)
                    if wave is None:
                        arg = _linear_values(trig[1], cols)
                        wave = atoms[trig] = np.sin(arg) if trig[0] == "sin" else np.cos(arg)
                    val *= wave
                if any(expv):
                    growth = atoms.get(("exp", expv))
                    if growth is None:
                        growth = atoms[("exp", expv)] = _overflow_checked(
                            _EXP_OVERFLOW, np.exp, _linear_values(expv, cols)
                        )
                    val *= growth
                total += val
        return float(total[0]) if single else total

    # -- linear structure inspection -----------------------------------

    def linear_slopes(self) -> tuple[Rational, ...]:
        """Slopes (c_1..c_n) when self = sum c_j x_j; raises otherwise.

        Integral slopes are returned as int (the term-key form).
        """
        slopes = _slopes_or_none(self)
        if slopes is None:
            raise ClosureViolation(f"argument is not linear in coordinates: {self}")
        return slopes

    # -- printing -------------------------------------------------------

    def _format_linear(self, vec: Sequence[Rational]) -> str:
        parts = []
        for c, name in zip(vec, self.chart.coords):
            if c == 0:
                continue
            if c == 1:
                piece = name
            elif c == -1:
                piece = f"-{name}"
            else:
                piece = f"{c}*{name}"
            if parts and not piece.startswith("-"):
                parts.append("+" + piece)
            else:
                parts.append(piece)
        return "".join(parts) if parts else "0"

    def __str__(self) -> str:
        if not self.num:
            return "0"
        pieces = []
        for (mono, trig, expv), q in self.terms.items():
            factors = []
            for name, e in zip(self.chart.coords, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if trig is not None:
                factors.append(f"{trig[0]}({self._format_linear(trig[1])})")
            if any(expv):
                factors.append(f"exp({self._format_linear(expv)})")
            if not factors:
                body = str(abs(q))
            elif abs(q) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(q))] + factors)
            pieces.append(("-" if q < 0 else "+", body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"ScalarFn({self.chart.name}: {self})"


def _scaled(num: dict[TermKey, int], r: int) -> Iterable[tuple[TermKey, int]]:
    """The numerator items of ``num`` times the int ``r``."""
    return num.items() if r == 1 else [(k, q * r) for k, q in num.items()]


def lincomb(chart: Chart, pieces: Iterable[tuple]) -> ScalarFn:
    """The sum of ``pieces`` in one canonical pass.

    A piece is ``(c, f)`` for c*f or ``(c, f, g)`` for c*f*g, with c
    rational and f, g on ``chart``.  The numerator items of every piece,
    the raw product terms included, go into a single ``ScalarFn._make``
    over one running denominator, which grows to the lcm with a piece's
    denominator (and the items so far are rescaled) only when that piece
    brings a new one; the result equals the pairwise sum of the pieces,
    term order included, since the canonical form is unique.  A piece
    with a zero factor is skipped once its charts are checked: it brings
    no item, and no denominator.
    """
    items: list[tuple[TermKey, int]] = []
    den = 1
    for piece in pieces:
        c, f = piece[0], piece[1]
        g = piece[2] if len(piece) == 3 else None
        for h in piece[1:]:
            if h.chart is not chart and h.chart != chart:
                raise SymExprError(f"chart mismatch: {chart.name!r} vs {h.chart.name!r}")
        if not f.num or g is not None and not g.num:
            continue
        if type(c) is int:
            pden = f.den
        else:
            c, pden = c.numerator, c.denominator * f.den
        if g is not None:
            trig2 = _has_trig(f.num) and _has_trig(g.num)
            pden *= 2 * g.den if trig2 else g.den
        if pden != den:
            d = lcm(den, pden)
            if d != den:
                items = [(k, q * (d // den)) for k, q in items]
                den = d
            c *= den // pden
        if g is not None:
            _product_items(items, f.num.items(), g.num.items(), c, trig2, chart._products)
        elif c == 1:
            items += f.num.items()
        else:
            items += [(k, c * q) for k, q in f.num.items()]
    return ScalarFn._make(chart, items, den) if items else chart._zero


def _linear_part(f: ScalarFn, what: str) -> tuple[Rational, ...]:
    try:
        return f.linear_slopes()
    except ClosureViolation:
        raise NonCanonicalizable(
            f"{what} argument must be rational-linear in coordinates, got {f}"
        ) from None


def sin(f: ScalarFn) -> ScalarFn:
    c = _linear_part(f, "sin")
    # sin(0) has multiplier 0, and its item merges to the shared zero
    mult, atom = _norm_trig("sin", c)
    return ScalarFn._make(f.chart, [(((0,) * f.chart.dim, atom, f.chart._zerovec()), mult)])


def cos(f: ScalarFn) -> ScalarFn:
    c = _linear_part(f, "cos")
    mult, atom = _norm_trig("cos", c)
    return ScalarFn._make(f.chart, [(((0,) * f.chart.dim, atom, f.chart._zerovec()), mult)])


def exp(f: ScalarFn) -> ScalarFn:
    d = _linear_part(f, "exp")
    return ScalarFn._make(f.chart, [(((0,) * f.chart.dim, None, tuple(d)), 1)])


def _slopes_or_none(f: ScalarFn) -> Optional[tuple[Rational, ...]]:
    """The slopes of f = sum c_j x_j in term-key form, or None when f has
    a constant, trig, exp or non-linear term."""
    slopes: list[Rational] = [0] * f.chart.dim
    den = f.den
    for (mono, trig, expv), q in f.num.items():
        if trig is not None or any(expv) or sum(mono) != 1:
            return None
        slopes[mono.index(1)] = q if den == 1 else _slope(Fraction(q, den))
    return tuple(slopes)


def _single_term(f: ScalarFn) -> Optional[tuple[int, int, tuple[tuple[int, int], ...]]]:
    """f = p/d * z^a as (p, d, the pairs (i, a_i) with a_i nonzero), with
    p = 0 for the zero function; None when f has two or more terms or a
    trig or exp factor."""
    if not f.num:
        return 0, 1, ()
    if len(f.num) > 1:
        return None
    ((mono, trig, expv), p), = f.num.items()
    if trig is not None or any(expv):
        return None
    return p, f.den, tuple((i, a) for i, a in enumerate(mono) if a)


class ChartMap:
    """Composition with one map of charts, prepared once.

    ``images[j]`` is the expression on ``source`` for the j-th coordinate
    of ``target``; `pull` composes a function on ``target`` with it.  Atom
    arguments must stay rational-linear with zero constant term
    (ClosureViolation otherwise); periodic coordinates of the target that
    occur in the function must receive expressions that are affine with
    integer slope in periodic source coordinates (PeriodicityViolation
    otherwise).

    The map sorts its images once.  A single-term image is 0 or q*z^a with
    no trig or exp factor, most often a scaled coordinate; a term of f
    whose monomial uses single-term images only becomes one term by key
    arithmetic: the exponents add up, the coefficient takes the factors q,
    and the term vanishes with an image 0.  Only a term with a power of
    another image is multiplied out through the ring, each image power
    computed once per map.  The slopes of each image are read once too
    (None for an image with a constant, trig, exp or non-linear term), so
    a trig or exp argument over linear images is its slope vector times
    the slope matrix.  Each periodic image is checked once, and the
    identity map of a chart returns the function itself.
    """

    __slots__ = ("target", "source", "images", "identity", "_slopes", "_single", "_powers", "_periodic_ok", "_zero")

    def __init__(self, target: Chart, source: Chart, images: Sequence[ScalarFn]):
        if len(images) != target.dim:
            raise SymExprError("basemap component count mismatch")
        for img in images:
            if img.chart != source:
                raise SymExprError("basemap component on wrong chart")
        self.target = target
        self.source = source
        self.images = tuple(images)
        self._slopes = [_slopes_or_none(img) for img in images]
        self.identity = target == source and all(
            s == tuple(int(i == j) for i in range(source.dim)) for j, s in enumerate(self._slopes)
        )
        self._single = [_single_term(img) for img in images]
        self._powers: dict[tuple[int, int], ScalarFn] = {}
        self._periodic_ok: set[int] = set()
        self._zero = (0,) * source.dim

    def pull(self, f: ScalarFn) -> ScalarFn:
        """f o images, on the source chart."""
        if f.chart != self.target:
            raise SymExprError(f"chart mismatch: {f.chart.name!r} vs {self.target.name!r}")
        if self.identity:
            return f
        self._check_periodic(f)
        source, zero, single = self.source, self._zero, self._single
        # the rewritten terms as numerator items over `den`, the others as
        # lincomb pieces
        items: list[tuple[TermKey, int]] = []
        den = 1
        pieces: list[tuple] = []
        for (mono, trig, expv), q in f.num.items():
            mult, atom = 1, None
            if trig is not None:
                mult, atom = _norm_trig(trig[0], self._argument(trig[1]))
            expo = self._argument(expv) if any(expv) else zero
            if not mult:
                continue  # sin(0)
            q *= mult
            c, cden, exps = q, 1, list(zero)
            for j, e in enumerate(mono):
                if e:
                    image = single[j]
                    if image is None:
                        break
                    p, d, support = image
                    c *= p**e
                    cden *= d**e
                    for i, a in support:
                        exps[i] += a * e
            else:
                if not c:
                    continue  # an image is 0
                if cden != den:
                    d = lcm(den, cden)
                    if d != den:
                        items = [(k, n * (d // den)) for k, n in items]
                        den = d
                    c *= den // cden
                items.append(((tuple(exps), atom, expo), c))
                continue
            # a power of another image, multiplied out through the ring
            factors = [self._monomial(mono)]
            if atom is not None or any(expo):
                factors.append(ScalarFn(source, {(zero, atom, expo): 1}))
            pieces.append((q, *factors))
        if pieces:
            pieces.append((1, ScalarFn._make(source, items, den)))
            total = lincomb(source, pieces)
            items, den = total.num.items(), total.den
        return ScalarFn._make(source, items, den * f.den)

    def _argument(self, vec: tuple[Rational, ...]) -> tuple[Rational, ...]:
        """The slopes on the source of the linear argument sum_j vec_j x_j
        composed with the map; ClosureViolation if it is not linear."""
        involved = [(c, self._slopes[j]) for j, c in enumerate(vec) if c]
        if all(s is not None for _, s in involved):
            return tuple(_slope(sum(c * s[i] for c, s in involved)) for i in range(len(self._zero)))
        return lincomb(self.source, [(c, f) for c, f in zip(vec, self.images) if c]).linear_slopes()

    def _monomial(self, mono: tuple[int, ...]) -> ScalarFn:
        """The product of image powers images[j]^mono[j]."""
        part = None
        for j, e in enumerate(mono):
            if e:
                power = self._powers.get((j, e))
                if power is None:
                    power = self._powers[(j, e)] = self.images[j] if e == 1 else self.images[j] ** e
                part = power if part is None else part * power
        return part

    def _check_periodic(self, f: ScalarFn) -> None:
        """PeriodicityViolation unless every periodic target coordinate
        that f uses receives a periodic-compatible image."""
        target = self.target
        for j, flag in enumerate(target.periodic):
            if not flag or j in self._periodic_ok:
                continue
            if any(mono[j] or expv[j] or (trig is not None and trig[1][j]) for mono, trig, expv in f.num):
                self._check_periodic_image(self.images[j], target.coords[j])
                self._periodic_ok.add(j)

    def _check_periodic_image(self, img: ScalarFn, name: str) -> None:
        source = self.source
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


# ---------------------------------------------------------------------------
# expression text parser (this is the canonicalization entry point for text)
# ---------------------------------------------------------------------------


@dataclass
class _Tok:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^(),":
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        raise NonCanonicalizable(f"unexpected character {ch!r} at position {i}")
    toks.append(_Tok("end", "", n))
    return toks


class _PiVal:
    """Intermediate parse value f + r*pi; pi survives only into trig phases."""

    __slots__ = ("fn", "pi")

    def __init__(self, fn: ScalarFn, pi: Fraction = Fraction(0)):
        self.fn = fn
        self.pi = pi

    def plain(self, what: str = "expression") -> ScalarFn:
        if self.pi != 0:
            raise NonCanonicalizable(f"pi is admitted only in quarter-period trig phases ({what})")
        return self.fn


class _Parser:
    def __init__(self, text: str, chart: Chart):
        self.toks = _tokenize(text)
        self.chart = chart
        self.k = 0

    def peek(self) -> _Tok:
        return self.toks[self.k]

    def next(self) -> _Tok:
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            raise NonCanonicalizable(f"expected {kind!r} at position {t.pos}, got {t.text!r}")
        return t

    def parse(self) -> ScalarFn:
        v = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise NonCanonicalizable(f"trailing input at position {t.pos}: {t.text!r}")
        return v.plain()

    def expr(self) -> _PiVal:
        v = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            w = self.term()
            if op == "+":
                v = _PiVal(v.fn + w.fn, v.pi + w.pi)
            else:
                v = _PiVal(v.fn - w.fn, v.pi - w.pi)
        return v

    def term(self) -> _PiVal:
        v = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            w = self.unary()
            if op == "*":
                v = self._mul(v, w)
            else:
                v = self._div(v, w)
        return v

    def _mul(self, v: _PiVal, w: _PiVal) -> _PiVal:
        if v.pi != 0 and w.pi != 0:
            raise NonCanonicalizable("pi*pi is outside the class")
        if v.pi != 0:
            v, w = w, v
        # w may carry pi; then v must be a rational constant
        if w.pi != 0 and not v.fn.is_constant():
            raise NonCanonicalizable("pi may only be scaled by rational constants")
        return _PiVal(v.fn * w.fn, w.pi * v.fn.constant_value() if w.pi != 0 else Fraction(0))

    def _div(self, v: _PiVal, w: _PiVal) -> _PiVal:
        if w.pi != 0:
            raise NonCanonicalizable("division by pi is outside the class")
        inv = w.fn.unit_inverse()
        if v.pi == 0:
            return _PiVal(v.fn * inv)
        if not inv.is_constant():
            raise NonCanonicalizable("pi may only be scaled by rational constants")
        return _PiVal(v.fn * inv, v.pi * inv.constant_value())

    def unary(self) -> _PiVal:
        t = self.peek()
        if t.kind == "-":
            self.next()
            v = self.unary()
            return _PiVal(-v.fn, -v.pi)
        if t.kind == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self) -> _PiVal:
        base = self.atom()
        if self.peek().kind == "^":
            self.next()
            neg = False
            if self.peek().kind == "-":
                self.next()
                neg = True
            t = self.expect("num")
            n = int(t.text)
            f = base.plain("power base")
            return _PiVal(f ** (-n if neg else n))
        return base

    def atom(self) -> _PiVal:
        t = self.next()
        if t.kind == "num":
            return _PiVal(self.chart.const(int(t.text)))
        if t.kind == "(":
            v = self.expr()
            self.expect(")")
            return v
        if t.kind == "name":
            if t.text == "pi":
                return _PiVal(self.chart.zero(), Fraction(1))
            if t.text in ("sin", "cos", "exp") and self.peek().kind == "(":
                self.next()
                arg = self.expr()
                self.expect(")")
                return _PiVal(self._apply(t.text, arg))
            return _PiVal(self.chart.coord(t.text))
        raise NonCanonicalizable(f"unexpected token {t.text!r} at position {t.pos}")

    def _apply(self, fn: str, arg: _PiVal) -> ScalarFn:
        if fn == "exp":
            return exp(arg.plain("exp argument"))
        quarters = arg.pi * 2
        if quarters.denominator != 1:
            raise NonCanonicalizable(
                f"trig phase must be a multiple of pi/2, got {arg.pi}*pi"
            )
        k = int(quarters) % 4
        # sin(u + k*pi/2) and cos(u + k*pi/2) reduce to +/- sin/cos(u)
        if fn == "sin":
            table = [(sin, 1), (cos, 1), (sin, -1), (cos, -1)]
        else:
            table = [(cos, 1), (sin, -1), (cos, -1), (sin, 1)]
        func, sign = table[k]
        return arg.fn.chart.const(sign) * func(arg.fn)


def parse_expr(text: str, chart: Chart) -> ScalarFn:
    """Parse and canonicalize an expression in the text grammar."""
    return _Parser(text, chart).parse()
