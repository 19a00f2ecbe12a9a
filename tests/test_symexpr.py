import dataclasses
import math
import random
from fractions import Fraction
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from algebroids import ratlinalg, symexpr
from algebroids.symexpr import (
    Chart,
    ChartMap,
    ClosureViolation,
    NonCanonicalizable,
    NotAUnit,
    PeriodicityViolation,
    ScalarFn,
    SymExprError,
    UnknownCoordinate,
    _vec_add,
    _vec_sub,
    cos,
    exp,
    lincomb,
    parse_expr,
    point_chart,
    sin,
)

from conftest import (
    examples,
    reference_derivative_items,
    reference_lincomb,
    reference_make,
    reference_mul,
    reference_substitute,
    reference_linear_substitute,
    reference_unit_inverse,
    reference_vec_add,
    reference_vec_sub,
)

R2 = Chart("R2", ("x", "y"))
CYL = Chart("N", ("theta", "x"), (True, False))
S1 = Chart("S1", ("theta",), (True,))


def sample_points(chart, rng, count):
    pts = []
    for _ in range(count):
        pts.append([Fraction(rng.randint(-300, 300), rng.randint(1, 97)) for _ in chart.coords])
    return pts


def assert_numeric_equal(f, g, rng, n=20, tol=1e-9):
    for pt in sample_points(f.chart, rng, n):
        assert abs(f.evaluate(pt) - g.evaluate(pt)) <= tol * (1 + abs(f.evaluate(pt)))


class TestCanonicalization:
    def test_polynomial_identity(self):
        x = R2.coord("x")
        assert ((x + 1) ** 2 - x**2 - 2 * x - 1).is_zero()

    def test_pythagorean_identity(self):
        th = S1.coord("theta")
        assert (sin(th) ** 2 + cos(th) ** 2 - 1).is_zero()

    def test_product_to_sum_matches_numeric_oracle(self):
        # sin t * cos t -> (1/2) sin 2t, checked at random rational points
        th = S1.coord("theta")
        f = sin(th) * cos(th)
        g = S1.const(Fraction(1, 2)) * sin(2 * th)
        assert f == g
        rng = random.Random(7)
        for pt in sample_points(S1, rng, 20):
            expect = math.sin(float(pt[0])) * math.cos(float(pt[0]))
            assert abs(f.evaluate(pt) - expect) < 1e-9

    def test_commutativity_and_cancellation(self):
        rng = random.Random(3)
        for _ in range(25):
            f = random_fn(R2, rng)
            g = random_fn(R2, rng)
            assert f * g == g * f
            assert (f + (-f)).is_zero()

    def test_sin_sign_normalisation(self):
        x, y = R2.coord("x"), R2.coord("y")
        assert sin(-x) == -sin(x)
        assert cos(-x - y) == cos(x + y)
        assert sin(R2.zero()).is_zero()
        assert cos(R2.zero()) == 1

    def test_exp_merge(self):
        x, y = R2.coord("x"), R2.coord("y")
        assert exp(x) * exp(y) == exp(x + y)
        assert exp(x) * exp(-x) == 1

    def test_nonlinear_trig_argument_rejected(self):
        x = R2.coord("x")
        with pytest.raises(NonCanonicalizable):
            sin(x**2)
        with pytest.raises(NonCanonicalizable):
            exp(x * x)

    def test_constant_trig_argument_rejected(self):
        with pytest.raises(NonCanonicalizable):
            sin(R2.coord("x") + 1)


class TestPartial:
    def test_monomial(self):
        x, y = R2.coord("x"), R2.coord("y")
        assert (x**2 * y).partial("x") == 2 * x * y

    def test_trig(self):
        th = S1.coord("theta")
        assert sin(2 * th).partial("theta") == 2 * cos(2 * th)

    def test_exp(self):
        x, y = R2.coord("x"), R2.coord("y")
        assert exp(x + y).partial("x") == exp(x + y)

    def test_unknown_coordinate(self):
        with pytest.raises(UnknownCoordinate):
            R2.coord("x").partial("z")

    def test_derivation_property(self):
        rng = random.Random(11)
        for _ in range(30):
            f = random_fn(CYL, rng)
            g = random_fn(CYL, rng)
            for c in CYL.coords:
                lhs = (f * g).partial(c)
                rhs = f.partial(c) * g + f * g.partial(c)
                assert (lhs - rhs).is_zero()


class TestSubstitute:
    def test_polynomial_slot_accepts_periodic_source(self):
        # f = y1 + y2^2 composed with (theta, 0): the result is theta,
        # which is not globally defined on the circle.
        N = Chart("N", ("y1", "y2"))
        f = N.coord("y1") + N.coord("y2") ** 2
        out = f.substitute(S1, [S1.coord("theta"), S1.zero()])
        assert out == S1.coord("theta")

    def test_trig_slot(self):
        N = Chart("N", ("y1",))
        f = sin(N.coord("y1"))
        assert f.substitute(S1, [S1.coord("theta")]) == sin(S1.coord("theta"))

    def test_orbit_inclusion_basemap(self):
        f = CYL.coord("x") * CYL.coord("theta")
        out = f.substitute(S1, [S1.coord("theta"), S1.zero()])
        assert out.is_zero()

    def test_homomorphism_property(self):
        rng = random.Random(5)
        base = [S1.coord("theta"), S1.zero()]
        for _ in range(20):
            f = random_fn(CYL, rng)
            g = random_fn(CYL, rng)
            lhs = (f * g).substitute(S1, base)
            rhs = f.substitute(S1, base) * g.substitute(S1, base)
            assert (lhs - rhs).is_zero()

    def test_closure_violation(self):
        N = Chart("N", ("y1",))
        f = sin(N.coord("y1"))
        P = Chart("P", ("x",))
        with pytest.raises(ClosureViolation):
            f.substitute(P, [P.coord("x") ** 2])
        with pytest.raises(ClosureViolation):
            f.substitute(P, [P.coord("x") + 1])

    def test_periodicity_violation(self):
        f = sin(CYL.coord("theta"))
        with pytest.raises(PeriodicityViolation):
            f.substitute(S1, [S1.const(Fraction(1, 2)) * S1.coord("theta"), S1.zero()])
        # integer slope is fine
        out = f.substitute(S1, [2 * S1.coord("theta"), S1.zero()])
        assert out == sin(2 * S1.coord("theta"))


class TestEvaluateAndZeroTest:
    def test_basic_values(self):
        x = Chart("R", ("x",)).coord("x")
        assert (x**2 + 1).evaluate([2]) == 5
        assert abs(sin(S1.coord("theta")).evaluate([0])) == 0
        assert abs(exp(x).evaluate([1]) - math.e) < 1e-12

    def test_zero_test_soundness(self):
        # is_zero agrees with evaluation at 100 random points per run, in
        # both directions
        rng = random.Random(23)
        for _ in range(10):
            f = random_fn(CYL, rng)
            g = random_fn(CYL, rng)
            h = (f + g) * (f - g) - f * f + g * g  # identically zero
            assert h.is_zero()
            for pt in sample_points(CYL, rng, 100):
                assert abs(h.evaluate(pt)) == 0
        for seed in range(24, 30):
            f = random_fn(CYL, random.Random(seed))
            if f.is_zero():
                continue
            hits = [
                abs(f.evaluate(pt)) > 1e-12
                for pt in sample_points(CYL, random.Random(seed + 100), 100)
            ]
            assert any(hits)


class TestSharedZero:
    """Every zero result on a chart is the chart's one zero function."""

    def test_one_zero_per_chart(self):
        assert R2.zero() is R2.zero()
        assert R2.const(0) is R2.zero()
        assert R2.zero().num == {} and R2.zero().den == 1

    def test_zero_results_are_the_shared_zero(self):
        x, y = R2.coord("x"), R2.coord("y")
        zero = R2.zero()
        assert R2.const(Fraction(3, 2)).partial("x") is zero
        assert (x * y).partial("x").partial("x") is zero
        assert zero.partial("y") is zero
        assert -zero is zero
        assert lincomb(R2, [(1, zero), (3, zero, x), (-1, x, zero)]) is zero
        assert lincomb(R2, []) is zero
        assert lincomb(R2, [(1, x), (-1, x)]) is zero
        assert x * zero is zero and zero * x is zero
        assert x - x is zero and (x + y) - (y + x) is zero

    def test_partial_of_zero_still_checks_the_coordinate(self):
        with pytest.raises(UnknownCoordinate):
            R2.zero().partial("z")

    def test_lincomb_checks_the_chart_of_a_zero_piece(self):
        x = R2.coord("x")
        other = Chart("R3", ("x", "y", "z"))
        with pytest.raises(SymExprError, match="chart mismatch"):
            lincomb(R2, [(1, other.zero())])
        with pytest.raises(SymExprError, match="chart mismatch"):
            lincomb(R2, [(1, x, other.zero())])
        with pytest.raises(SymExprError, match="chart mismatch"):
            lincomb(R2, [(1, R2.zero(), other.coord("z"))])

    def test_equal_charts_have_equal_zeros(self):
        a, b = Chart("P", ("u", "v")), Chart("P", ("u", "v"))
        assert a == b and a.zero() is not b.zero()
        assert a.zero() == b.zero()
        assert a.zero() + b.coord("u") == a.coord("u")
        # the chart's fields alone decide equality and hash
        assert hash(a) == hash(b) and {a: 1}[b] == 1
        assert repr(a) == "Chart(name='P', coords=('u', 'v'), periodic=(False, False))"


class TestUnitsAndDivision:
    def test_unit_inverse(self):
        x = R2.coord("x")
        u = 3 * exp(2 * x)
        assert (u * u.unit_inverse()) == 1
        f = x + exp(x)
        assert (f * u * u.unit_inverse()) == f

    def test_not_a_unit(self):
        x = R2.coord("x")
        with pytest.raises(NotAUnit):
            (x + 1).unit_inverse()
        with pytest.raises(NotAUnit):
            x * (x + 1).unit_inverse()

    def test_negative_power_of_unit(self):
        x = R2.coord("x")
        assert exp(x) ** -2 == exp(-2 * x)


class TestParser:
    def test_round_trip_printing(self):
        rng = random.Random(31)
        for _ in range(40):
            f = random_fn(CYL, rng)
            assert parse_expr(str(f), CYL) == f

    @pytest.mark.parametrize("coord", ["", "x*", "pi", "x/y", "2x", "x y", " x", "d/dx"])
    def test_chart_coordinates_are_names_the_grammar_reads(self, coord):
        with pytest.raises(SymExprError, match="is not a coordinate name in chart 'M'"):
            Chart("M", ("t", coord))

    def test_chart_coordinate_names_read_back(self):
        M = Chart("M", ("x_1", "_y", "theta2", "exp"))
        for c in M.coords:
            assert parse_expr(c, M) == M.coord(c)

    def test_rational_literals(self):
        f = parse_expr("3/4*x^2 - 1/2", R2)
        assert f == Fraction(3, 4) * R2.coord("x") ** 2 - Fraction(1, 2)

    def test_pi_phase(self):
        th = S1.coord("theta")
        assert parse_expr("sin(theta + pi/2)", S1) == cos(th)
        assert parse_expr("cos(theta + pi)", S1) == -cos(th)
        assert parse_expr("sin(2*theta - pi/2)", S1) == -cos(2 * th)
        assert parse_expr("sin(pi/2)", S1) == 1

    def test_pi_outside_phase_rejected(self):
        with pytest.raises(NonCanonicalizable):
            parse_expr("pi*x", R2)
        with pytest.raises(NonCanonicalizable):
            parse_expr("sin(theta + pi/3)", S1)
        with pytest.raises(NonCanonicalizable):
            parse_expr("exp(x + pi)", R2)

    def test_division_by_unit_only(self):
        assert parse_expr("x/exp(y)", R2) == R2.coord("x") * exp(-R2.coord("y"))
        with pytest.raises(NotAUnit):
            parse_expr("1/(1+x)", R2)

    def test_point_chart(self):
        pt = point_chart()
        assert parse_expr("2^3 - 8", pt).is_zero()

    def test_diagnostics(self):
        with pytest.raises(NonCanonicalizable):
            parse_expr("x +", R2)
        with pytest.raises(UnknownCoordinate):
            parse_expr("z", R2)


def random_fn(chart, rng, size=3):
    """Random member of the class: polynomial x trig x occasional exp."""
    out = chart.zero()
    for _ in range(rng.randint(1, size)):
        term = chart.const(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        for name, per in zip(chart.coords, chart.periodic):
            c = chart.coord(name)
            if per:
                k = rng.randint(-2, 2)
                if k:
                    term = term * (sin(k * c) if rng.random() < 0.5 else cos(k * c))
            else:
                term = term * c ** rng.randint(0, 2)
                if rng.random() < 0.2:
                    term = term * exp(rng.choice([-1, 1]) * c)
        out = out + term
    return out


# ---------------------------------------------------------------------------
# property tests of the ring over random products and sums of atoms
# ---------------------------------------------------------------------------

CHARTS = [Chart("A", ("x",)), Chart("B", ("x", "y")), Chart("C", ("x", "y", "z"))]
# integral and half-integral slopes, drawn as Fractions so that integral
# ones arrive with denominator 1 and must be normalised on the way in
HALF = st.integers(-4, 4).map(lambda n: Fraction(n, 2))
COEFF = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
NONZERO = st.builds(Fraction, st.sampled_from([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), st.integers(1, 3))
# int and Fraction slopes, integral Fractions included
SLOPE = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@st.composite
def linear_args(draw, chart):
    out = chart.zero()
    for name in chart.coords:
        out = out + chart.const(draw(HALF)) * chart.coord(name)
    return out


@st.composite
def atoms(draw, chart):
    kind = draw(st.sampled_from(["coord", "sin", "cos", "exp"]))
    if kind == "coord":
        return chart.coord(draw(st.sampled_from(chart.coords)))
    return {"sin": sin, "cos": cos, "exp": exp}[kind](draw(linear_args(chart)))


@st.composite
def fns(draw, chart):
    out = chart.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = chart.const(draw(COEFF))
        for atom in draw(st.lists(atoms(chart), max_size=3)):
            term = term * atom
        out = out + term
    return out


@st.composite
def chart_and_fns(draw, count):
    chart = draw(st.sampled_from(CHARTS))
    return chart, [draw(fns(chart)) for _ in range(count)]


def assert_key_form(f):
    """Every integral slope in every term key is an int."""
    for mono, trig, expv in f.terms:
        for s in expv + (trig[1] if trig is not None else ()):
            assert isinstance(s, int) or s.denominator != 1, (f, s)


def assert_coeff_form(f):
    """Every coefficient is an int when integral and a Fraction otherwise:
    never an integral Fraction, never a float."""
    for q in f.terms.values():
        assert type(q) is int or (type(q) is Fraction and q.denominator != 1), (f, q)


@st.composite
def pieces(draw, chart, count):
    """`lincomb` pieces (c, f) and (c, f, g) over random functions."""
    out = []
    for _ in range(draw(st.integers(0, count))):
        c = draw(st.sampled_from([1, -1]) | COEFF.filter(bool))
        f = draw(fns(chart))
        out.append((c, f, draw(fns(chart))) if draw(st.booleans()) else (c, f))
    return out


class TestRingProperties:
    @settings(max_examples=100, deadline=None)
    @given(chart_and_fns(2), st.data())
    def test_operations_keep_integral_slopes_int(self, cf, data):
        """Integral slopes and integral coefficients come out as int, the
        others as Fraction: no integral Fraction and no float survives."""
        chart, (f, g) = cf
        results = [f, g, f + g, f - g, f * g, -f, 3 - f, f * Fraction(2, 3)]
        results += [f.partial(c) for c in chart.coords]
        source = data.draw(st.sampled_from(CHARTS))
        images = [data.draw(linear_args(source)) for _ in chart.coords]
        results.append(f.substitute(source, images))
        # a unit with a coefficient such as 1/3 has an integral inverse
        unit = chart.const(data.draw(COEFF.filter(bool))) * exp(data.draw(linear_args(chart)))
        results += [unit, unit.unit_inverse(), f * unit.unit_inverse()]
        results.append(parse_expr(str(f), chart))
        results.append(lincomb(chart, data.draw(pieces(chart, 4))))
        for h in results:
            assert_key_form(h)
            assert_coeff_form(h)
        assert unit * unit.unit_inverse() == 1

    @settings(max_examples=80, deadline=None)
    @given(chart_and_fns(3))
    def test_product_is_commutative_associative_distributive(self, cf):
        _, (f, g, h) = cf
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @settings(max_examples=80, deadline=None)
    @given(chart_and_fns(2))
    def test_partial_obeys_leibniz(self, cf):
        chart, (f, g) = cf
        for c in chart.coords:
            assert (f * g).partial(c) == f.partial(c) * g + f * g.partial(c)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CHARTS).flatmap(lambda chart: st.tuples(st.just(chart), pieces(chart, 5))))
    def test_lincomb_equals_pairwise_sum_term_for_term(self, cp):
        chart, ps = cp
        pairwise = chart.zero()
        for c, f, *g in ps:
            term = c * f * g[0] if g else c * f
            pairwise = pairwise + term
        got = lincomb(chart, ps)
        assert list(got.terms.items()) == list(pairwise.terms.items())
        assert [type(q) for q in got.terms.values()] == [type(q) for q in pairwise.terms.values()]

    def test_lincomb_rejects_other_charts(self):
        x = CHARTS[0].coord("x")
        with pytest.raises(SymExprError, match="chart mismatch"):
            lincomb(CHARTS[1], [(1, x)])

    def test_half_slopes_add_to_int_key(self):
        x = CHARTS[0].coord("x")
        half = exp(Fraction(1, 2) * x)
        prod = half * half
        assert prod == exp(x)
        ((_, _, expv),) = prod.terms
        assert expv == (1,) and type(expv[0]) is int

    @pytest.mark.deep
    @settings(max_examples=examples(300), deadline=None)
    @given(
        st.integers(0, 4).flatmap(
            lambda n: st.tuples(*[st.lists(SLOPE, min_size=n, max_size=n).map(tuple)] * 2)
        )
    )
    @example(((Fraction(1, 2), 3), (Fraction(1, 2), Fraction(-1, 3))))
    def test_slope_vectors_match_the_reference(self, ab):
        """Sums and differences of slope vectors are those of the
        generator-expression reference, value for value and type for type:
        1/2 + 1/2 gives int 1."""
        a, b = ab
        for got, want in ((_vec_add(a, b), reference_vec_add(a, b)), (_vec_sub(a, b), reference_vec_sub(a, b))):
            assert got == want
            assert list(map(type, got)) == list(map(type, want))

    def test_fraction_and_int_slope_keys_merge(self):
        chart = CHARTS[0]
        k_frac = ((0,), None, (Fraction(2),))
        k_int = ((0,), None, (2,))
        f = ScalarFn._make(chart, [(k_frac, Fraction(1)), (k_int, Fraction(2))])
        assert f == 3 * exp(2 * chart.coord("x"))
        assert ScalarFn._make(chart, [(k_frac, Fraction(1)), (k_int, Fraction(-1))]).is_zero()


# ---------------------------------------------------------------------------
# int numerators over one denominator, against the Fraction-based reference
# ---------------------------------------------------------------------------


def assert_primitive(f):
    """``num`` holds ints over ``den >= 1`` with no common factor, and
    ``den == 1`` exactly when every coefficient is integral."""
    assert type(f.den) is int and f.den >= 1, f
    assert all(type(q) is int for q in f.num.values()), f
    assert gcd(f.den, *f.num.values()) == 1, f
    assert (f.den == 1) == all(Fraction(q).denominator == 1 for q in f.terms.values()), f
    assert list(f.terms) == list(f.num)


class TestOneDenominator:
    @settings(max_examples=100, deadline=None)
    @given(chart_and_fns(2), st.data())
    def test_operations_match_fraction_reference(self, cf, data):
        chart, (f, g) = cf
        cases = [
            (f + g, reference_make([*f.terms.items(), *g.terms.items()])),
            (f - g, reference_make([*f.terms.items(), *((k, -q) for k, q in g.terms.items())])),
            (-f, reference_make([(k, -q) for k, q in f.terms.items()])),
            (f * g, reference_mul(f.terms, g.terms)),
        ]
        for j, c in enumerate(chart.coords):
            cases.append((f.partial(c), reference_make(reference_derivative_items(f.terms, j))))
        source = data.draw(st.sampled_from(CHARTS))
        images = [data.draw(linear_args(source)) for _ in chart.coords]
        cases.append((f.substitute(source, images), reference_linear_substitute(f, source, images)))
        ps = data.draw(pieces(chart, 4))
        cases.append((lincomb(chart, ps), reference_lincomb(ps)))
        unit = chart.const(data.draw(COEFF.filter(bool))) * exp(data.draw(linear_args(chart)))
        cases.append((unit.unit_inverse(), reference_unit_inverse(unit)))
        for got, want in cases:
            assert list(got.terms.items()) == list(want.items())
            assert_primitive(got)
            assert_coeff_form(got)

    @settings(max_examples=60, deadline=None)
    @given(chart_and_fns(1))
    def test_terms_view_is_the_numerators_over_den(self, cf):
        _, (f,) = cf
        assert_primitive(f)
        assert f.terms == {k: Fraction(q, f.den) for k, q in f.num.items()}
        assert (f.terms is f.num) == (f.den == 1)

    def test_trig_product_doubles_the_denominator_once(self):
        x = CHARTS[0].coord("x")
        s = sin(x) * cos(x)  # sin(2x) / 2
        assert (s.den, list(s.num.values())) == (2, [1])
        assert s.terms == {((0,), ("sin", (2,)), (0,)): Fraction(1, 2)}
        c = cos(x) * cos(x) + sin(x) * sin(x)
        assert c == 1 and c.den == 1

    def test_fractional_slope_scales_the_denominator(self):
        chart = CHARTS[1]
        x, y = chart.coord("x"), chart.coord("y")
        f = exp(Fraction(1, 2) * x) * sin(Fraction(1, 3) * x + y)
        d = f.partial("x")
        assert d.den == 6
        assert_primitive(d)
        assert d == Fraction(1, 2) * f + Fraction(1, 3) * exp(Fraction(1, 2) * x) * cos(Fraction(1, 3) * x + y)
        assert f.partial("y").den == 1

    def test_equality_reads_den(self):
        x = CHARTS[0].coord("x")
        assert Fraction(1, 2) * x != x
        assert Fraction(1, 2) * x == x * Fraction(2, 4)
        assert (Fraction(1, 2) * x * 2).den == 1


class TestRationalConstants:
    """A constant is an int or a Fraction; a float is refused instead of
    being read as the nearest dyadic rational."""

    def test_const_accepts_int_and_fraction(self):
        chart = CHARTS[0]
        assert chart.const(3).terms == {((0,), None, (0,)): 3}
        assert chart.const(Fraction(1, 10)).terms == {((0,), None, (0,)): Fraction(1, 10)}
        assert chart.const(Fraction(4, 2)).num == {((0,), None, (0,)): 2}
        assert chart.const(0).is_zero() and chart.const(Fraction(0)).den == 1

    @pytest.mark.parametrize("bad", [0.1, 1.0, np.float64(0.5), "1", None])
    def test_const_rejects_other_types(self, bad):
        chart = CHARTS[0]
        with pytest.raises(TypeError, match="int or a Fraction"):
            chart.const(bad)
        with pytest.raises(TypeError):
            chart.coord("x") * bad


class TestMultiplicationTable:
    """Each chart expands a pair of trig atoms, and adds a pair of exp
    slope vectors, once: its multiplication table keeps the result."""

    @staticmethod
    def counted(monkeypatch, name):
        calls = []
        real = getattr(symexpr, name)
        monkeypatch.setattr(symexpr, name, lambda a, b: calls.append((a, b)) or real(a, b))
        return calls

    @pytest.mark.parametrize(
        "atom, kernel", [(sin, "_trig_product"), (exp, "_vec_add")], ids=["trig", "exp"]
    )
    def test_a_pair_is_multiplied_once_per_chart(self, monkeypatch, atom, kernel):
        charts = [Chart("P", ("x", "y")), Chart("P", ("x", "y"))]
        second = cos if atom is sin else exp
        f, g = [(atom(c.coord("x")), second(c.coord("y"))) for c in charts]
        calls = self.counted(monkeypatch, kernel)
        prod = f[0] * f[1]
        assert f[0] * f[1] == prod and lincomb(charts[0], [(2, *f)]) == 2 * prod
        assert len(calls) == 1
        # an equal chart that is another object fills its own table
        assert g[0] * g[1] == prod
        assert len(calls) == 2

    def test_the_table_is_no_field_of_the_chart(self):
        a, b = Chart("P", ("u", "v")), Chart("P", ("u", "v"))
        u, v = a.coord("u"), a.coord("v")
        assert sin(u) * cos(v) * exp(u) * exp(v) != 0  # fills a's table, not b's
        assert [f.name for f in dataclasses.fields(Chart)] == ["name", "coords", "periodic"]
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
        assert repr(a) == "Chart(name='P', coords=('u', 'v'), periodic=(False, False))"

    @pytest.mark.deep
    @settings(deadline=None)
    @given(chart_and_fns(2), st.data())
    def test_cold_and_warm_tables_match_the_reference(self, cf, data):
        """A product and a `lincomb` give the reference's terms twice on a
        new chart: first from an empty table, then from the table the first
        computation filled.  The reference expands every pair afresh."""
        chart, (f, g) = cf
        ps = data.draw(pieces(chart, 4))
        want_mul, want_lc = reference_mul(f.terms, g.terms), reference_lincomb(ps)
        cold_mul, cold_lc = (Chart(chart.name, chart.coords, chart.periodic) for _ in range(2))
        f, g = (ScalarFn(cold_mul, h.num, h.den) for h in (f, g))
        ps = [(c, *(ScalarFn(cold_lc, h.num, h.den) for h in hs)) for c, *hs in ps]
        for _ in range(2):
            assert list((f * g).terms.items()) == list(want_mul.items())
            assert list(lincomb(cold_lc, ps).terms.items()) == list(want_lc.items())


# ---------------------------------------------------------------------------
# batched float evaluation against a plain-Python reference
# ---------------------------------------------------------------------------

EVAL_CHARTS = [point_chart("P")] + CHARTS
BOX = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 13))


def reference_evaluate(f, point):
    """Term-by-term evaluation in Python floats and libm, point by point.
    Returns the value and the sum of the absolute term values."""
    pt = [float(v) for v in point]
    total, scale = 0.0, 0.0
    for (mono, trig, expv), q in f.terms.items():
        val = float(q)
        for x, e in zip(pt, mono):
            val *= x**e
        if trig is not None:
            arg = sum(float(c) * x for c, x in zip(trig[1], pt))
            val *= math.sin(arg) if trig[0] == "sin" else math.cos(arg)
        val *= math.exp(sum(float(d) * x for d, x in zip(expv, pt)))
        total += val
        scale += abs(val)
    return total, scale


@st.composite
def eval_terms(draw, chart):
    """q * x^k * {1 | sin | cos}(c.x) * {1 | exp}(d.x)."""
    term = chart.const(draw(COEFF))
    if chart.dim:
        term = term * chart.coord(draw(st.sampled_from(chart.coords))) ** draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["none", "sin", "cos"]))
    if kind != "none":
        term = term * {"sin": sin, "cos": cos}[kind](draw(linear_args(chart)))
    if draw(st.booleans()):
        term = term * exp(draw(linear_args(chart)))
    return term


@st.composite
def chart_fn_points(draw):
    chart = draw(st.sampled_from(EVAL_CHARTS))
    f = sum((draw(eval_terms(chart)) for _ in range(draw(st.integers(1, 4)))), chart.zero())
    points = draw(st.lists(st.lists(BOX, min_size=chart.dim, max_size=chart.dim), min_size=1, max_size=12))
    return f, points


class TestBatchedEvaluate:
    @settings(max_examples=150, deadline=None)
    @given(chart_fn_points())
    def test_batch_matches_reference(self, case):
        f, points = case
        values = f.evaluate(points)
        assert values.shape == (len(points),)
        for got, pt in zip(values, points):
            want, scale = reference_evaluate(f, pt)
            assert abs(got - want) <= 1e-12 * scale

    @settings(max_examples=50, deadline=None)
    @given(chart_fn_points())
    def test_single_point_is_a_float(self, case):
        f, points = case
        value = f.evaluate(points[0])
        assert type(value) is float
        assert value == f.evaluate(points[:1])[0]

    def test_overflowing_exp_or_power_raises(self):
        x = CHARTS[0].coord("x")
        points = [[Fraction(1)], [Fraction(60)]]  # overflows at the second point only
        for f, scalar in [(exp(200 * x), lambda: math.exp(12000.0)), (x**200 + 1, lambda: 60.0**200)]:
            with pytest.raises(OverflowError) as raised:
                f.evaluate(points)
            with pytest.raises(OverflowError) as python:
                scalar()
            assert str(raised.value) == str(python.value)
            with pytest.raises(OverflowError):
                f.evaluate(points[1])

    def test_products_and_sums_overflow_silently(self):
        x = CHARTS[0].coord("x")
        huge = CHARTS[0].const(10**300)
        big = huge * exp(700 * x)  # e^700 is finite, the product is not
        assert big.evaluate([1]) == math.inf
        assert math.isnan((big - huge * exp(699 * x)).evaluate([1]))

    def test_point_dimension_is_checked(self):
        with pytest.raises(SymExprError):
            R2.coord("x").evaluate([[1, 2, 3]])
        with pytest.raises(SymExprError):
            R2.coord("x").evaluate([1])


# ---------------------------------------------------------------------------
# ChartMap against the term-by-term substitution, and the atom table of a
# sampled matrix against per-entry evaluation
# ---------------------------------------------------------------------------

MAP_CHARTS = CHARTS + [S1, CYL, Chart("T2", ("theta", "phi"), (True, True))]


@st.composite
def images(draw, source):
    """One image of a target coordinate on ``source``: zero, a coordinate,
    a scaled coordinate, a one-term monomial q*z^a, a rational-linear or
    affine combination, a polynomial, or a trig or exp atom."""
    kinds = ["zero", "coord", "scaled", "monomial", "linear", "affine", "polynomial", "atom"]
    kind = draw(st.sampled_from(kinds))
    coord = source.coord(draw(st.sampled_from(source.coords)))
    if kind == "zero":
        return source.zero()
    if kind == "coord":
        return coord
    if kind == "scaled":
        return source.const(draw(COEFF)) * coord
    if kind == "monomial":
        out = source.const(draw(NONZERO))
        for name in source.coords:
            out = out * source.coord(name) ** draw(st.integers(0, 2))
        return out
    if kind == "linear":
        return draw(linear_args(source))
    if kind == "affine":
        return draw(linear_args(source)) + source.const(draw(NONZERO))
    if kind == "polynomial":
        return coord ** draw(st.integers(2, 3)) + draw(linear_args(source))
    return draw(atoms(source))


def outcome(call):
    """The result of ``call`` with its key and coefficient types spelled
    out, or the type and message of the SymExprError it raises."""
    try:
        g = call()
    except SymExprError as e:
        return type(e), str(e)
    return g.chart, repr(list(g.num.items())), g.den


class TestChartMap:
    @pytest.mark.deep
    @settings(deadline=None)
    @given(st.data())
    def test_pull_matches_reference(self, data):
        """Every pull through one map gives what the term-by-term
        substitution gives, or raises the same error with the same message;
        a second pull, which reuses the map's powers and periodicity
        verdicts, too.  The identity map returns its argument itself."""
        target = data.draw(st.sampled_from(MAP_CHARTS))
        if data.draw(st.sampled_from(["map", "map", "map", "identity"])) == "identity":
            source, imgs = target, [target.coord(c) for c in target.coords]
        else:
            source = data.draw(st.sampled_from(MAP_CHARTS))
            imgs = [data.draw(images(source)) for _ in target.coords]
        m = ChartMap(target, source, imgs)
        assert m.identity == (source == target and imgs == [target.coord(c) for c in target.coords])
        one_term = [len(img.num) <= 1 and all(t is None and not any(e) for _, t, e in img.num) for img in imgs]
        for f in data.draw(st.lists(fns(target), min_size=1, max_size=3)):
            want = outcome(lambda: reference_substitute(f, source, imgs))
            event(want[0].__name__ if isinstance(want[0], type) else "composed")
            # which branch of `pull` the terms of f take
            for mono, _, _ in f.num:
                used = [j for j, e in enumerate(mono) if e]
                if not all(one_term[j] for j in used):
                    event("term multiplied out")
                elif any(imgs[j].is_zero() for j in used):
                    event("term vanishes with its image")
                elif used:
                    event("term rewritten by its key")
            for _ in range(2):
                assert outcome(lambda: m.pull(f)) == want
            assert outcome(lambda: f.substitute(source, imgs)) == want
            if m.identity:
                assert m.pull(f) is f

    def test_identity_returns_its_argument(self):
        for chart in MAP_CHARTS + [point_chart()]:
            coords = [chart.coord(c) for c in chart.coords]
            f = chart.const(Fraction(2, 3)) + (coords[0] if coords else 0)
            assert ChartMap(chart, chart, coords).pull(f) is f
            assert f.substitute(chart, coords) is f
        # a permutation of the coordinates is not the identity
        x, y = R2.coord("x"), R2.coord("y")
        swap = ChartMap(R2, R2, [y, x])
        assert not swap.identity and swap.pull(x) == y

    def test_coordinate_map_rewrites_keys(self, monkeypatch):
        """(x, y) -> (z, 0) sends x^2 y + x sin(x - y) exp(2y) + cos(y) to
        z sin(z) + 1 by key arithmetic, with no ring product."""
        line = Chart("L", ("z",))
        x, y, z = R2.coord("x"), R2.coord("y"), line.coord("z")
        f = x**2 * y + x * sin(x - y) * exp(2 * y) + cos(y)
        m = ChartMap(R2, line, [z, line.zero()])
        calls = []
        product_items = symexpr._product_items
        monkeypatch.setattr(symexpr, "_product_items", lambda *a: calls.append(a) or product_items(*a))
        assert outcome(lambda: m.pull(f)) == outcome(lambda: lincomb(line, [(1, z, sin(z)), (1, line.one())]))
        assert len(calls) == 1  # the product z * sin(z) of the expected value
        calls.clear()
        m.pull(f)
        assert calls == []

    def test_rewritten_terms_share_one_denominator(self):
        """Terms rewritten over different image denominators are brought
        to their lcm, whatever order they come in."""
        plane = Chart("P", ("z", "w"))
        x, y = R2.coord("x"), R2.coord("y")
        imgs = [plane.const(Fraction(2, 3)) * plane.coord("z"), plane.const(Fraction(1, 2)) * plane.coord("w")]
        for f in [x + y + x * y, 3 * y + x**2, y**2 + 5 * x + 7]:
            assert outcome(lambda: ChartMap(R2, plane, imgs).pull(f)) == outcome(
                lambda: reference_substitute(f, plane, imgs)
            )

    def test_map_and_function_charts_are_checked(self):
        x = R2.coord("x")
        with pytest.raises(SymExprError, match="count mismatch"):
            ChartMap(R2, S1, [S1.coord("theta")])
        with pytest.raises(SymExprError, match="wrong chart"):
            ChartMap(R2, S1, [x, S1.coord("theta")])
        m = ChartMap(S1, R2, [x])
        with pytest.raises(SymExprError, match="chart mismatch"):
            m.pull(x)

    def test_failing_periodicity_raises_on_every_pull(self):
        m = ChartMap(S1, S1, [S1.const(Fraction(1, 2)) * S1.coord("theta")])
        for _ in range(2):
            with pytest.raises(PeriodicityViolation, match="slope 1/2"):
                m.pull(sin(S1.coord("theta")))
        # a function that leaves theta out needs no check
        assert m.pull(S1.const(3)) == 3


def stack_of(rows, points):
    """The stack `sampled_ranks` hands to `float_rank`, or the
    OverflowError it raises."""
    captured = []

    def capture(stack):
        captured.append(stack.copy())
        return [0] * len(stack)

    try:
        with mock.patch.object(ratlinalg, "float_rank", capture):
            ratlinalg.sampled_ranks(rows, points)
    except OverflowError as e:
        return ("overflow",) + e.args
    return captured[0].tobytes()


def reference_stack(rows, points):
    """Each non-zero entry evaluated on its own, with no shared table."""
    pts = np.asarray(points, dtype=float)
    stack = np.zeros((len(pts), len(rows), len(rows[0])))
    try:
        for i, row in enumerate(rows):
            for j, f in enumerate(row):
                if not f.is_zero():
                    stack[:, i, j] = f.evaluate(pts)
    except OverflowError as e:
        return ("overflow",) + e.args
    return stack.tobytes()


# coordinates from small to large enough that a square or an exp
# overflows and that products go to inf and nan
SAMPLE_COORD = st.one_of(
    st.integers(-60, 60).map(float),
    st.floats(-1e200, 1e200, allow_nan=False, allow_infinity=False),
    st.sampled_from([-1e200, 1e154, 1e200]),
)


class TestAtomTable:
    @pytest.mark.deep
    @settings(deadline=None)
    @given(st.data())
    def test_sampled_stack_is_bitwise_per_entry_evaluate(self, data):
        chart = data.draw(st.sampled_from(MAP_CHARTS))
        m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        entry = st.one_of(st.just(chart.zero()), fns(chart))
        rows = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
        points = data.draw(st.lists(st.lists(SAMPLE_COORD, min_size=chart.dim, max_size=chart.dim), min_size=1, max_size=5))
        want = reference_stack(rows, points)
        if isinstance(want, tuple):
            event("OverflowError")
        else:
            event("finite" if np.isfinite(np.frombuffer(want)).all() else "inf or nan")
        assert stack_of(rows, points) == want

    def test_power_and_exp_entries_do_not_share_a_key(self):
        # x^3 is the power (0, 3) and exp(3y) the exp vector (0, 3)
        x, y = R2.coord("x"), R2.coord("y")
        rows = [[x**3, exp(3 * y)], [exp(3 * y) * x**3, x**3 + exp(3 * y)]]
        points = [[2, Fraction(1, 3)], [-1, 0], [Fraction(1, 2), 2]]
        got = stack_of(rows, points)
        assert got == reference_stack(rows, points)
        stack = np.frombuffer(got).reshape(3, 2, 2)
        assert stack[0, 0, 0] == 8 and stack[0, 0, 1] == math.exp(1.0)

    def test_inf_and_nan_entries_match(self):
        x, y, z = (CHARTS[2].coord(c) for c in "xyz")
        rows = [[x * y - x * z, 2 * x * y], [sin(x) * y, exp(-y)]]
        points = [[1e200, 1e200, 1e200], [1, 2, 3]]
        got = stack_of(rows, points)
        assert got == reference_stack(rows, points)
        stack = np.frombuffer(got).reshape(2, 2, 2)
        assert math.isnan(stack[0, 0, 0]) and stack[0, 0, 1] == math.inf
