import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids.symexpr import (
    Chart,
    ClosureViolation,
    NonCanonicalizable,
    NotAUnit,
    PeriodicityViolation,
    ScalarFn,
    SymExprError,
    UnknownCoordinate,
    cos,
    exp,
    parse_expr,
    point_chart,
    sin,
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
        assert not out.is_global
        assert sin(S1.coord("theta")).is_global

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


class TestUnitsAndDivision:
    def test_unit_inverse(self):
        x = R2.coord("x")
        u = 3 * exp(2 * x)
        assert (u * u.unit_inverse()) == 1
        f = x + exp(x)
        assert (f * u / u) == f

    def test_not_a_unit(self):
        x = R2.coord("x")
        with pytest.raises(NotAUnit):
            (x + 1).unit_inverse()
        with pytest.raises(NotAUnit):
            x / (x + 1)

    def test_negative_power_of_unit(self):
        x = R2.coord("x")
        assert exp(x) ** -2 == exp(-2 * x)


class TestParser:
    def test_round_trip_printing(self):
        rng = random.Random(31)
        for _ in range(40):
            f = random_fn(CYL, rng)
            assert parse_expr(str(f), CYL) == f

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


class TestRingProperties:
    @settings(max_examples=100, deadline=None)
    @given(chart_and_fns(2), st.data())
    def test_operations_keep_integral_slopes_int(self, cf, data):
        chart, (f, g) = cf
        results = [f + g, f - g, f * g, -f] + [f.partial(c) for c in chart.coords]
        source = data.draw(st.sampled_from(CHARTS))
        images = [data.draw(linear_args(source)) for _ in chart.coords]
        results.append(f.substitute(source, images))
        unit = chart.const(data.draw(COEFF.filter(bool))) * exp(data.draw(linear_args(chart)))
        results += [unit, unit.unit_inverse()]
        for h in results:
            assert_key_form(h)
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

    def test_half_slopes_add_to_int_key(self):
        x = CHARTS[0].coord("x")
        half = exp(Fraction(1, 2) * x)
        prod = half * half
        assert prod == exp(x)
        ((_, _, expv),) = prod.terms
        assert expv == (1,) and type(expv[0]) is int

    def test_fraction_and_int_slope_keys_merge(self):
        chart = CHARTS[0]
        k_frac = ((0,), None, (Fraction(2),))
        k_int = ((0,), None, (2,))
        f = ScalarFn._make(chart, [(k_frac, Fraction(1)), (k_int, Fraction(2))])
        assert f == 3 * exp(2 * chart.coord("x"))
        assert ScalarFn._make(chart, [(k_frac, Fraction(1)), (k_int, Fraction(-1))]).is_zero()


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
