import random
from fractions import Fraction

import pytest

from algebroids.cohomology import (
    AnsatzSpace,
    CohomologousVerdict,
    Inconclusive,
    NonExactCertificate,
    NoSolutionInAnsatz,
    PreconditionFailure,
    check_pullback_injectivity,
    classify,
    cohomologous,
    find_circle_section,
    is_cocycle,
    period_certificate,
    solve_exact,
)
from algebroids.core import (
    FormField,
    d_A,
    function_form,
    one_form,
    tangent_algebroid,
)
from algebroids.morphisms import Morphism, Trivialization, identity_morphism
from algebroids.reps import canonical_sections, modular_cocycle
from algebroids.symexpr import Chart, ScalarFn, cos, exp, sin

from conftest import cylinder_algebroid


S1 = Chart("S1", ("theta",), (True,))
T2 = Chart("T2", ("theta", "phi"), (True, True))
CYLC = Chart("C", ("theta", "x"), (True, False))
R1 = Chart("R1", ("x",))
R2 = Chart("R2", ("x", "y"))


class TestIsCocycle:
    def test_modular_cocycles_closed(self):
        b = cylinder_algebroid()
        assert is_cocycle(modular_cocycle(b, *canonical_sections(b)))

    def test_x_dy_not_closed(self):
        tm = tangent_algebroid(R2)
        alpha = one_form(tm, [R2.zero(), R2.coord("x")])
        assert not is_cocycle(alpha)

    def test_exact_is_closed(self):
        tm = tangent_algebroid(R2)
        f = R2.coord("x") * R2.coord("y") ** 2
        assert is_cocycle(d_A(function_form(tm, f)))


class TestSolveExact:
    def test_recovers_square(self):
        tm = tangent_algebroid(R1)
        alpha = d_A(function_form(tm, R1.coord("x") ** 2))
        f = solve_exact(alpha, AnsatzSpace(R1, degree=2))
        assert isinstance(f, ScalarFn)
        assert (d_A(function_form(tm, f)) - alpha).is_zero()

    def test_dx(self):
        tm = tangent_algebroid(R1)
        alpha = one_form(tm, [R1.one()])
        f = solve_exact(alpha, AnsatzSpace(R1, degree=2))
        assert isinstance(f, ScalarFn)
        assert (f - R1.coord("x")).is_constant()

    def test_minus_dtheta_has_no_solution(self):
        ts1 = tangent_algebroid(S1)
        alpha = one_form(ts1, [S1.const(-1)])
        for m in (1, 4, 7):
            res = solve_exact(alpha, AnsatzSpace(S1, degree=0, fourier_modes=m))
            assert isinstance(res, NoSolutionInAnsatz)
            assert res.witness is not None

    def test_primitives_differ_by_constant(self):
        rng = random.Random(6)
        tm = tangent_angent = tangent_algebroid(R2)
        space = AnsatzSpace(R2, degree=3)
        for _ in range(10):
            f = R2.zero()
            for b in AnsatzSpace(R2, degree=2).basis():
                f = f + rng.randint(-2, 2) * b
            alpha = d_A(function_form(tm, f))
            g = solve_exact(alpha, space)
            assert isinstance(g, ScalarFn)
            assert (f - g).is_constant()


class TestPeriodCertificate:
    def test_minus_dtheta(self):
        ts1 = tangent_algebroid(S1)
        alpha = one_form(ts1, [S1.const(-1)])
        combo = find_circle_section(ts1, "theta")
        assert combo == (Fraction(1),)
        cert = period_certificate(alpha, combo, "theta")
        assert isinstance(cert, NonExactCertificate)
        assert cert.mean == S1.const(-1)

    def test_exact_mean_vanishes(self):
        ts1 = tangent_algebroid(S1)
        alpha = d_A(function_form(ts1, sin(S1.coord("theta"))))
        cert = period_certificate(alpha, (Fraction(1),), "theta")
        assert isinstance(cert, Inconclusive)

    def test_mixed_chart(self):
        tc = tangent_algebroid(CYLC)
        alpha = one_form(tc, [CYLC.one(), CYLC.one()])  # dtheta + dx
        combo = find_circle_section(tc, "theta")
        cert = period_certificate(alpha, combo, "theta")
        assert isinstance(cert, NonExactCertificate)
        assert cert.mean == CYLC.one()

    def test_witness_is_the_first_largest_sample(self):
        tc = tangent_algebroid(CYLC)
        x = CYLC.coord("x")
        alpha = one_form(tc, [x * x - 4, CYLC.zero()])  # mean x^2 - 4
        combo = find_circle_section(tc, "theta")
        cert = period_certificate(alpha, combo, "theta", seed=5, samples=30)
        rng = random.Random(5)
        pts = [(Fraction(0), Fraction(rng.randint(-60, 60), rng.randint(1, 13))) for _ in range(30)]
        sizes = [abs(float(p[1]) ** 2 - 4) for p in pts]
        assert cert.witness_point == pts[sizes.index(max(sizes))]
        assert type(cert.witness_value) is float
        assert abs(cert.witness_value - max(sizes)) <= 1e-12 * max(sizes)
        # a constant mean ties at every sample: the first one is the witness
        cert = period_certificate(one_form(tc, [CYLC.const(-1), CYLC.zero()]), combo, "theta", seed=5)
        assert cert.witness_point == pts[0] and cert.witness_value == -1.0

    def test_no_samples_is_rejected(self):
        ts1 = tangent_algebroid(S1)
        with pytest.raises(ValueError, match="at least one sample"):
            period_certificate(one_form(ts1, [S1.const(-1)]), (Fraction(1),), "theta", samples=0)

    def test_precondition_failure(self):
        b = cylinder_algebroid()
        beta = modular_cocycle(b, *canonical_sections(b))
        with pytest.raises(PreconditionFailure):
            period_certificate(beta, (Fraction(1),), "theta")

    def test_never_contradicts_solver_on_tori(self):
        rng = random.Random(42)
        t2 = tangent_algebroid(T2)
        space = AnsatzSpace(T2, degree=0, fourier_modes=3)
        for _ in range(30):
            f = T2.zero()
            for b in AnsatzSpace(T2, degree=0, fourier_modes=2).basis():
                f = f + rng.randint(-2, 2) * b
            alpha = d_A(function_form(t2, f))
            for coord in T2.coords:
                combo = find_circle_section(t2, coord)
                cert = period_certificate(alpha, combo, coord)
                assert isinstance(cert, Inconclusive)
            assert isinstance(solve_exact(alpha, space), ScalarFn)


class TestCohomologous:
    def test_modular_cocycles_for_two_sections(self):
        b = cylinder_algebroid()
        omega, mu = canonical_sections(b)
        x = b.chart.coord("x")
        from algebroids.core import top_multivector

        omega2 = top_multivector(b, exp(x))
        a1 = modular_cocycle(b, omega, mu)
        a2 = modular_cocycle(b, omega2, mu)
        verdict = cohomologous(a1, a2, AnsatzSpace(b.chart, degree=2, fourier_modes=2))
        assert verdict.verdict == "cohomologous"

    def test_minus_dtheta_vs_zero(self):
        ts1 = tangent_algebroid(S1)
        alpha = one_form(ts1, [S1.const(-1)])
        verdict = cohomologous(alpha, one_form(ts1, [S1.zero()]), AnsatzSpace(S1))
        assert verdict.verdict == "distinct_certified"

    def test_shift_by_exact(self):
        tm = tangent_algebroid(R2)
        alpha = one_form(tm, [R2.coord("y"), R2.coord("x")])  # d(xy)
        beta = alpha + d_A(function_form(tm, R2.coord("x") * R2.coord("y")))
        verdict = cohomologous(alpha, beta, AnsatzSpace(R2, degree=2))
        assert verdict.verdict == "cohomologous"


class TestPullbackInjectivity:
    def test_exact_on_base_recovered(self):
        ts1 = tangent_algebroid(S1)
        big = Chart("P", ("theta", "t"), (True, False))
        tp = tangent_algebroid(big)
        proj = Morphism(
            "pr", tp, ts1, [big.coord("theta")], [[big.one(), big.zero()]]
        )
        alpha = d_A(function_form(ts1, cos(S1.coord("theta"))))
        rep = check_pullback_injectivity(
            proj, alpha, AnsatzSpace(S1, 2, 2), AnsatzSpace(big, 2, 2)
        )
        assert rep.passed

    def test_nonexact_on_both_levels(self):
        ts1 = tangent_algebroid(S1)
        big = Chart("P", ("theta", "t"), (True, False))
        tp = tangent_algebroid(big)
        proj = Morphism(
            "pr", tp, ts1, [big.coord("theta")], [[big.one(), big.zero()]]
        )
        alpha = one_form(ts1, [S1.const(-1)])
        rep = check_pullback_injectivity(
            proj, alpha, AnsatzSpace(S1, 2, 2), AnsatzSpace(big, 2, 2)
        )
        assert rep.passed

    def test_random_exact_on_plane(self):
        rng = random.Random(3)
        r3 = Chart("R3", ("x", "y", "z"))
        tm2 = tangent_algebroid(R2)
        tp = tangent_algebroid(r3)
        proj = Morphism(
            "pr",
            tp,
            tm2,
            [r3.coord("x"), r3.coord("y")],
            [
                [r3.one(), r3.zero(), r3.zero()],
                [r3.zero(), r3.one(), r3.zero()],
            ],
        )
        for _ in range(5):
            f = R2.zero()
            for b in AnsatzSpace(R2, degree=2).basis():
                f = f + rng.randint(-2, 2) * b
            alpha = d_A(function_form(tm2, f))
            rep = check_pullback_injectivity(
                proj, alpha, AnsatzSpace(R2, 3), AnsatzSpace(r3, 3)
            )
            assert rep.passed
