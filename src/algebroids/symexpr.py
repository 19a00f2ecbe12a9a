"""Exact scalar functions on a coordinate chart.

This is the coefficient ring for everything else in the package: finite
rational combinations of terms

    q * x^m * {1 | sin(c.x) | cos(c.x)} * exp(d.x)

with q, c, d rational and x the chart coordinates.  The representation is
canonical: trig products are rewritten by product-to-sum identities, exp
factors merge additively, sin/cos arguments are sign-normalised (first
nonzero slope positive), and zero coefficients are dropped.  Because the
surviving basis functions are linearly independent, a function is zero
iff its term map is empty, so the zero test is exact.

The slopes c and d in a term key are ``int`` when integral and
``Fraction`` only otherwise.  ``Fraction(3) == 3`` with equal hashes, so
this does not change which keys merge; it keeps the keys cheap to hash,
because a tuple recomputes its hash on every dict lookup and
``Fraction.__hash__`` is far slower than ``int.__hash__``.

Division is restricted to units q*exp(d.x) (nowhere-vanishing members of
the class); anything else raises :class:`NotAUnit`.

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
    """A single coordinate chart; periodic coordinates have period 2*pi."""

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
        return ScalarFn._make(self, [((mono, None, self._zerovec()), Fraction(1))])

    def const(self, q: Rational) -> "ScalarFn":
        q = Fraction(q)
        if q == 0:
            return self.zero()
        return ScalarFn._make(self, [(((0,) * self.dim, None, self._zerovec()), q)])

    def zero(self) -> "ScalarFn":
        return ScalarFn._make(self, [])

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


def _norm_trig(kind: str, c: tuple[Rational, ...]) -> tuple[Fraction, Trig]:
    """Normalise a raw trig atom; returns (multiplier, atom or None).

    sin with zero argument vanishes (multiplier 0), cos with zero argument
    is 1 (atom None); sin(-u) = -sin(u), cos(-u) = cos(u).
    """
    s = _lex_sign(c)
    if s == 0:
        return (Fraction(0), None) if kind == "sin" else (Fraction(1), None)
    if s < 0:
        c = tuple(-x for x in c)
        if kind == "sin":
            return Fraction(-1), ("sin", c)
        return Fraction(1), ("cos", c)
    return Fraction(1), (kind, c)


def _vec_add(a: Sequence[Rational], b: Sequence[Rational]) -> tuple[Rational, ...]:
    return tuple(_slope(x + y) for x, y in zip(a, b))


def _vec_sub(a: Sequence[Rational], b: Sequence[Rational]) -> tuple[Rational, ...]:
    return tuple(_slope(x - y) for x, y in zip(a, b))


def _trig_product(t1: Trig, t2: Trig) -> list[tuple[Fraction, Trig]]:
    """Expand a product of two trig atoms by product-to-sum."""
    k1, a = t1
    k2, b = t2
    half = Fraction(1, 2)
    out: list[tuple[Fraction, Trig]] = []
    if k1 == "sin" and k2 == "sin":
        pieces = [(half, "cos", _vec_sub(a, b)), (-half, "cos", _vec_add(a, b))]
    elif k1 == "cos" and k2 == "cos":
        pieces = [(half, "cos", _vec_sub(a, b)), (half, "cos", _vec_add(a, b))]
    elif k1 == "sin" and k2 == "cos":
        pieces = [(half, "sin", _vec_add(a, b)), (half, "sin", _vec_sub(a, b))]
    else:  # cos * sin
        pieces = [(half, "sin", _vec_add(a, b)), (half, "sin", _vec_sub(b, a))]
    for q, kind, vec in pieces:
        mult, atom = _norm_trig(kind, vec)
        if q * mult != 0:
            out.append((q * mult, atom))
    return out


def _trig_key(t: Trig) -> tuple:
    if t is None:
        return (0,)
    return (1 if t[0] == "sin" else 2, t[1])


def _term_sort_key(key: TermKey) -> tuple:
    mono, trig, expv = key
    return (sum(mono), mono, _trig_key(trig), expv)


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
    """A canonical trig/exp polynomial on a chart.  Immutable."""

    __slots__ = ("chart", "terms", "_global")

    def __init__(self, chart: Chart, terms: dict[TermKey, Fraction]):
        # use ScalarFn._make; this constructor trusts its input
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_global", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ScalarFn is immutable")

    @staticmethod
    def _make(chart: Chart, items: Iterable[tuple[TermKey, Fraction]]) -> "ScalarFn":
        terms: dict[TermKey, Fraction] = {}
        for key, q in items:
            if q == 0:
                continue
            acc = terms.get(key)
            if acc is None:
                terms[key] = q
            else:
                acc += q
                if acc == 0:
                    del terms[key]
                else:
                    terms[key] = acc
        if terms:
            terms = dict(sorted(terms.items(), key=lambda kv: _term_sort_key(kv[0])))
        return ScalarFn(chart, terms)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        if not self.terms:
            return True
        if len(self.terms) > 1:
            return False
        (mono, trig, expv), _ = next(iter(self.terms.items()))
        return not any(mono) and trig is None and not any(expv)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise SymExprError("not a constant")
        return next(iter(self.terms.values()))

    def is_unit(self) -> bool:
        """True for q*exp(d.x) with q a nonzero rational."""
        if len(self.terms) != 1:
            return False
        (mono, trig, _), _ = next(iter(self.terms.items()))
        return not any(mono) and trig is None

    def unit_inverse(self) -> "ScalarFn":
        if not self.is_unit():
            raise NotAUnit(f"not a unit of the expression class: {self}")
        (mono, trig, expv), q = next(iter(self.terms.items()))
        return ScalarFn._make(self.chart, [((mono, None, tuple(-d for d in expv)), 1 / q)])

    @property
    def is_global(self) -> bool:
        """Well defined on the chart including its periodic directions.

        Periodic coordinates must not occur in monomials or exp slopes and
        must enter trig arguments with integer slope.
        """
        cached = self._global
        if cached is not None:
            return cached
        ok = True
        per = self.chart.periodic
        if any(per):
            for mono, trig, expv in self.terms:
                for j, flag in enumerate(per):
                    if not flag:
                        continue
                    if mono[j] != 0 or expv[j] != 0:
                        ok = False
                        break
                    if trig is not None and trig[1][j].denominator != 1:
                        ok = False
                        break
                if not ok:
                    break
        object.__setattr__(self, "_global", ok)
        return ok

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
        return ScalarFn._make(self.chart, list(self.terms.items()) + list(o.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return ScalarFn._make(self.chart, [(k, -q) for k, q in self.terms.items()])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        items: list[tuple[TermKey, Fraction]] = []
        for (m1, t1, e1), q1 in self.terms.items():
            for (m2, t2, e2), q2 in o.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                expv = _vec_add(e1, e2)
                if t1 is None or t2 is None:
                    items.append(((mono, t1 or t2, expv), q1 * q2))
                else:
                    q = q1 * q2
                    for mult, atom in _trig_product(t1, t2):
                        items.append(((mono, atom, expv), q * mult))
        return ScalarFn._make(self.chart, items)

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
        return self.chart == other.chart and self.terms == other.terms

    __hash__ = None  # mutable-dict-backed; not hashable

    # -- calculus -----------------------------------------------------

    def partial(self, coord: str) -> "ScalarFn":
        """Exact partial derivative with respect to a chart coordinate."""
        j = self.chart.index(coord)
        items: list[tuple[TermKey, Fraction]] = []
        for (mono, trig, expv), q in self.terms.items():
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
        return ScalarFn._make(self.chart, items)

    def substitute(self, source: Chart, images: Sequence["ScalarFn"]) -> "ScalarFn":
        """Compose with a map of charts: self o (images), landing on ``source``.

        ``images[j]`` is the expression on ``source`` for this chart's j-th
        coordinate.  Atom arguments must stay rational-linear with zero
        constant term (ClosureViolation otherwise); periodic coordinates of
        this chart that occur in the function must receive expressions that
        are affine with integer slope in periodic source coordinates
        (PeriodicityViolation otherwise).
        """
        if len(images) != self.chart.dim:
            raise SymExprError("basemap component count mismatch")
        for img in images:
            if img.chart != source:
                raise SymExprError("basemap component on wrong chart")
        used = [False] * self.chart.dim
        for mono, trig, expv in self.terms:
            for j in range(self.chart.dim):
                if mono[j] or expv[j] or (trig is not None and trig[1][j] != 0):
                    used[j] = True
        for j, u in enumerate(used):
            if u and self.chart.periodic[j]:
                self._check_periodic_image(source, images[j], self.chart.coords[j])
        out = source.zero()
        for (mono, trig, expv), q in self.terms.items():
            part = source.const(q)
            for j, e in enumerate(mono):
                if e:
                    part = part * images[j] ** e
            if trig is not None:
                arg = _linear_combination(source, trig[1], images)
                arg.linear_slopes()  # ClosureViolation if not pure-linear
                part = part * (sin(arg) if trig[0] == "sin" else cos(arg))
            if any(expv):
                arg = _linear_combination(source, expv, images)
                arg.linear_slopes()
                part = part * exp(arg)
            out = out + part
        return out

    def _check_periodic_image(self, source: Chart, img: "ScalarFn", name: str) -> None:
        for (mono, trig, expv), _ in img.terms.items():
            if trig is not None or any(expv) or sum(mono) > 1:
                raise PeriodicityViolation(
                    f"periodic coordinate {name!r} receives a non-affine expression"
                )
            for j, e in enumerate(mono):
                if e:
                    if source.periodic[j]:
                        slope = img.terms[(mono, trig, expv)]
                        if slope.denominator != 1:
                            raise PeriodicityViolation(
                                f"periodic coordinate {name!r} receives slope "
                                f"{slope} on periodic coordinate {source.coords[j]!r}"
                            )

    def evaluate(self, points: Sequence) -> Union[float, np.ndarray]:
        """Floating evaluation (sampling only, never zero tests).

        ``points`` is a ``(count, dim)`` batch, giving a float64 array of
        ``count`` values, or one flat point, giving a float.  The batch is
        converted to floats once, and each term is one numpy pass over it,
        multiplied in the order coefficient, powers, trig factor, exp
        factor.  As in Python float arithmetic, a power or an exp that
        overflows raises OverflowError, while products and sums go to inf
        or nan silently.
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[np.newaxis]
        if pts.ndim != 2 or pts.shape[1] != self.chart.dim:
            raise SymExprError("point dimension mismatch")
        cols = pts.T
        total = np.zeros(len(pts))
        with np.errstate(all="ignore"):
            for (mono, trig, expv), q in self.terms.items():
                val = np.full(len(pts), float(q))
                for x, e in zip(cols, mono):
                    if e:
                        val *= _overflow_checked(_POWER_OVERFLOW, np.power, x, e)
                if trig is not None:
                    arg = _linear_values(trig[1], cols)
                    val *= np.sin(arg) if trig[0] == "sin" else np.cos(arg)
                if any(expv):
                    val *= _overflow_checked(_EXP_OVERFLOW, np.exp, _linear_values(expv, cols))
                total += val
        return float(total[0]) if single else total

    # -- linear structure inspection -----------------------------------

    def linear_slopes(self) -> tuple[Rational, ...]:
        """Slopes (c_1..c_n) when self = sum c_j x_j; raises otherwise.

        Integral slopes are returned as int (the term-key form).
        """
        slopes: list[Rational] = [0] * self.chart.dim
        for (mono, trig, expv), q in self.terms.items():
            if trig is not None or any(expv) or sum(mono) != 1:
                raise ClosureViolation(f"argument is not linear in coordinates: {self}")
            slopes[mono.index(1)] = _slope(q)
        return tuple(slopes)

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
        if not self.terms:
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


def _linear_combination(
    chart: Chart, coeffs: Sequence[Rational], fns: Sequence[ScalarFn]
) -> ScalarFn:
    out = chart.zero()
    for c, f in zip(coeffs, fns):
        if c:
            out = out + chart.const(c) * f
    return out


def _linear_part(f: ScalarFn, what: str) -> tuple[Rational, ...]:
    try:
        return f.linear_slopes()
    except ClosureViolation:
        raise NonCanonicalizable(
            f"{what} argument must be rational-linear in coordinates, got {f}"
        ) from None


def sin(f: ScalarFn) -> ScalarFn:
    c = _linear_part(f, "sin")
    mult, atom = _norm_trig("sin", c)
    if mult == 0:
        return f.chart.zero()
    return ScalarFn._make(f.chart, [(((0,) * f.chart.dim, atom, f.chart._zerovec()), mult)])


def cos(f: ScalarFn) -> ScalarFn:
    c = _linear_part(f, "cos")
    mult, atom = _norm_trig("cos", c)
    return ScalarFn._make(f.chart, [(((0,) * f.chart.dim, atom, f.chart._zerovec()), mult)])


def exp(f: ScalarFn) -> ScalarFn:
    d = _linear_part(f, "exp")
    return ScalarFn._make(f.chart, [(((0,) * f.chart.dim, None, tuple(d)), Fraction(1))])


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
