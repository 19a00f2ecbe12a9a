import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from algebroids.core import (
    FormField,
    d_A,
    function_form,
    one_form,
    tangent_algebroid,
    top_form,
    top_multivector,
    zero_form,
)
from algebroids.reps import (
    EValuedForm,
    LineSection,
    Representation,
    canonical_rep,
    canonical_sections,
    char_cocycle,
    check_flat,
    d_AE,
    dual_rep,
    modular_cocycle,
    tensor_rep,
    trivial_rep,
)
from algebroids.symexpr import Chart, NotAUnit, exp, sin

from conftest import (
    aff1,
    coeffs,
    cylinder_algebroid,
    frame_algebroids,
    random_lie_algebra,
    reference_check_flat,
    reference_modular_cocycle,
    so3,
    sparse_algebroids,
)


def adjoint_matrices(g):
    """ad(e_i) as coefficient matrices: ad(e_i) e_s = [e_i, e_s]."""
    mats = []
    for i in range(g.rank):
        mat = [[g.chart.zero() for _ in range(g.rank)] for _ in range(g.rank)]
        for s in range(g.rank):
            for t, f in g.bracket_frame(i, s).items():
                mat[t][s] = f
        mats.append(mat)
    return mats


def exact_line_rep(a, f, name="Dexact"):
    """Line representation with coefficients rho(e_i)(f); always flat."""
    mats = [[[a.rho_apply(i, f)]] for i in range(a.rank)]
    return Representation(a, ("eps",), mats, name)


@st.composite
def line_sum_reps(draw, algebroids=frame_algebroids()):
    """A flat representation on an algebroid of ``algebroids``: a sum of
    one or two exact line representations, g_i = diag(rho(e_i)(f_s)).  In
    half the draws one or two entries g_i[s][t] are shifted by a random
    coefficient, so that the connection is in general no longer flat."""
    a = draw(algebroids)
    m = draw(st.integers(1, 2))
    fs = [draw(coeffs(a.chart)) for _ in range(m)]
    zero = a.chart.zero()
    mats = [[[a.rho_apply(i, fs[s]) if s == t else zero for t in range(m)] for s in range(m)] for i in range(a.rank)]
    perturbed = draw(st.booleans())
    if perturbed:
        for _ in range(draw(st.integers(1, 2))):
            i, s, t = (draw(st.integers(0, n - 1)) for n in (a.rank, m, m))
            mats[i][s][t] = mats[i][s][t] + draw(coeffs(a.chart))
    event("perturbed" if perturbed else "unperturbed")
    return Representation(a, [f"eps{s}" for s in range(m)], mats)


class TestCheckFlat:
    @settings(deadline=None)
    @given(line_sum_reps())
    def test_matches_the_reference(self, d):
        """Partials taken once per call give the report of the reference,
        which takes them again for every frame pair."""
        rep = check_flat(d)
        event("flat" if rep.passed else "not flat")
        assert rep.to_dict() == reference_check_flat(d).to_dict()

    @settings(deadline=None)
    @given(line_sum_reps(sparse_algebroids()))
    def test_sparse_rows_match_the_reference(self, d):
        """Over zero anchor rows and constant anchor entries the sparse rows
        give the report of the dense reference."""
        rep = check_flat(d)
        event("flat" if rep.passed else "not flat")
        assert rep.to_dict() == reference_check_flat(d).to_dict()

    def test_trivial(self, R2):
        tm = tangent_algebroid(R2)
        assert check_flat(trivial_rep(tm, ("e1", "e2"))).passed

    def test_aff1_adjoint(self):
        g = aff1()
        assert check_flat(Representation(g, g.frame, adjoint_matrices(g))).passed

    def test_so3_adjoint(self):
        g = so3()
        assert check_flat(Representation(g, g.frame, adjoint_matrices(g))).passed

    def test_rank1_base_vacuous(self, R1):
        tm = tangent_algebroid(R1)
        d = Representation(tm, ("eps",), [[[R1.coord("x")]]])
        assert check_flat(d).passed

    def test_perturbed_rep_fails(self, R2):
        tm = tangent_algebroid(R2)
        d = Representation(
            tm, ("eps",), [[[R2.coord("y")]], [[R2.zero()]]]
        )  # curvature d(y dx) != 0
        assert not check_flat(d).passed


class TestDualTensor:
    def test_dual_trivial(self, R2):
        tm = tangent_algebroid(R2)
        t = trivial_rep(tm, ("eps",))
        assert dual_rep(t).mats == t.mats

    def test_dual_involution(self):
        g = so3()
        d = Representation(g, g.frame, adjoint_matrices(g))
        assert dual_rep(dual_rep(d)).mats == d.mats

    def test_line_tensor_adds_scalars(self, R2):
        tm = tangent_algebroid(R2)
        f, g = R2.coord("x"), R2.coord("y")
        d1 = exact_line_rep(tm, f)
        d2 = exact_line_rep(tm, g)
        t = tensor_rep(d1, d2)
        assert t.line_coefficients() == [
            a + b for a, b in zip(d1.line_coefficients(), d2.line_coefficients())
        ]

    def test_char_dual_and_tensor_identities(self):
        rng = random.Random(8)
        for _ in range(20):
            g = random_lie_algebra(rng)
            f1 = g.chart.const(0)
            d1 = random_flat_line_rep(g, rng)
            d2 = random_flat_line_rep(g, rng)
            lam = LineSection(g.chart.one())
            c1 = char_cocycle(d1, lam)
            c2 = char_cocycle(d2, lam)
            assert (char_cocycle(dual_rep(d1), lam) + c1).is_zero()
            assert (char_cocycle(tensor_rep(d1, d2), lam) - c1 - c2).is_zero()


def random_flat_line_rep(g, rng):
    """Flat line rep on a Lie algebra: a closed 1-cochain as coefficients."""
    # exact cochains are always closed; add a random closed constant cochain
    # found by solving the cocycle condition directly.
    from conftest import rat_nullspace

    rows = []
    for i in range(g.rank):
        for j in range(i + 1, g.rank):
            rows.append(
                [g.c(i, j, k).constant_value() for k in range(g.rank)]
            )
    basis = rat_nullspace(rows, g.rank) if rows else []
    coeffs = [Fraction(0)] * g.rank
    for vec in basis:
        c = Fraction(rng.randint(-3, 3))
        coeffs = [a + c * b for a, b in zip(coeffs, vec)]
    mats = [[[g.chart.const(c)]] for c in coeffs]
    return Representation(g, ("eps",), mats, "Drand")


class TestDAE:
    def test_trivial_rep_componentwise_de_rham(self, R2):
        tm = tangent_algebroid(R2)
        t = trivial_rep(tm, ("a", "b"))
        f = R2.coord("x") ** 2
        s = EValuedForm(t, [function_form(tm, f), zero_form(tm, 0)])
        out = d_AE(t, s)
        assert out.comps[0] == d_A(function_form(tm, f))
        assert out.comps[1].is_zero()

    def test_frame_coefficients_recovered(self):
        g = so3()
        d = Representation(g, g.frame, adjoint_matrices(g))
        for t in range(d.bundle_rank):
            s = EValuedForm(
                d,
                [
                    function_form(g, g.chart.one() if u == t else g.chart.zero())
                    for u in range(d.bundle_rank)
                ],
            )
            out = d_AE(d, s)
            for u in range(d.bundle_rank):
                # interior with e_i gives mats[i][u][t]
                for i in range(g.rank):
                    assert out.comps[u].component((i,)) == d.mats[i][u][t]

    def test_squares_to_zero_on_random_sections(self):
        rng = random.Random(5)
        g = so3()
        d = Representation(g, g.frame, adjoint_matrices(g))
        for _ in range(5):
            comps = [
                function_form(g, g.chart.const(rng.randint(-3, 3)))
                for _ in range(d.bundle_rank)
            ]
            s = EValuedForm(d, comps)
            out = d_AE(d, d_AE(d, s))
            assert out.is_zero()


class TestCharCocycle:
    def test_trivial(self, R2):
        tm = tangent_algebroid(R2)
        t = trivial_rep(tm, ("eps",))
        assert char_cocycle(t, LineSection(R2.one())).is_zero()

    def test_rescaling_shifts_by_exact(self, R2):
        tm = tangent_algebroid(R2)
        d = exact_line_rep(tm, R2.coord("y"))
        lam = LineSection(R2.one())
        lam2 = LineSection(exp(R2.coord("x")))
        a1 = char_cocycle(d, lam)
        a2 = char_cocycle(d, lam2)
        shift = d_A(function_form(tm, R2.coord("x")))
        assert (a2 - a1 - shift).is_zero()
        from algebroids.cohomology import AnsatzSpace, solve_exact
        from algebroids.symexpr import ScalarFn

        assert isinstance(solve_exact(a2 - a1, AnsatzSpace(R2, degree=2)), ScalarFn)

    def test_aff1_top_adjoint(self):
        g = aff1()
        ad = Representation(g, g.frame, adjoint_matrices(g))
        # induced rep on the top power: coefficients = trace of ad
        tr = [
            ad.mats[i][0][0] + ad.mats[i][1][1] for i in range(g.rank)
        ]
        top = Representation(g, ("vol",), [[[t]] for t in tr])
        alpha = char_cocycle(top, LineSection(g.chart.one()))
        assert alpha == one_form(g, [g.chart.one(), g.chart.zero()])

    def test_not_a_unit(self, R2):
        tm = tangent_algebroid(R2)
        with pytest.raises(NotAUnit):
            LineSection(R2.coord("x") + 1)

    def test_asserted_nonvanishing_spot_check(self, R2):
        # x^2 + 1 vanishes nowhere but is not a unit, and no spot check
        # stands in for one
        with pytest.raises(NotAUnit):
            LineSection(R2.coord("x") ** 2 + 1)


@st.composite
def units(draw, chart):
    """A unit of the chart's functions: q exp(sum_k d_k x_k) over the
    non-periodic coordinates, q a non-zero rational."""
    q = Fraction(draw(st.sampled_from([-3, -1, 1, 2, 5])), draw(st.integers(1, 3)))
    f = chart.const(q)
    for name, per in zip(chart.coords, chart.periodic):
        d = draw(st.integers(-2, 2))
        if d and not per:
            f = f * exp(d * chart.coord(name))
    return f


class TestModularCocycle:
    @settings(deadline=None)
    @given(frame_algebroids(), st.data())
    def test_matches_the_reference(self, alg, data):
        omega = top_multivector(alg, data.draw(units(alg.chart)))
        mu = top_form(tangent_algebroid(alg.chart), data.draw(units(alg.chart)))
        assert modular_cocycle(alg, omega, mu) == reference_modular_cocycle(alg, omega, mu)

    @settings(deadline=None)
    @given(sparse_algebroids(), st.data())
    def test_sparse_rows_match_the_reference(self, alg, data):
        """The trace read off the stored structure pairs and the Lie
        derivative over the sparse anchor rows give the graded-calculus
        cocycle, with zero and non-zero structure diagonals."""
        omega = top_multivector(alg, data.draw(units(alg.chart)))
        mu = top_form(tangent_algebroid(alg.chart), data.draw(units(alg.chart)))
        assert modular_cocycle(alg, omega, mu) == reference_modular_cocycle(alg, omega, mu)

    def test_tangent_unimodular(self, R2):
        tm = tangent_algebroid(R2)
        omega, mu = canonical_sections(tm)
        assert modular_cocycle(tm, omega, mu).is_zero()

    def test_cylinder_spiral(self):
        b = cylinder_algebroid()
        omega, mu = canonical_sections(b)
        beta = modular_cocycle(b, omega, mu)
        assert beta == one_form(b, [b.chart.one()])

    def test_aff1(self):
        g = aff1()
        omega, mu = canonical_sections(g)
        alpha = modular_cocycle(g, omega, mu)
        assert alpha == one_form(g, [g.chart.one(), g.chart.zero()])

    def test_totally_intransitive_matches_trace_of_adjoint(self):
        rng = random.Random(12)
        for _ in range(10):
            g = random_lie_algebra(rng)
            omega, mu = canonical_sections(g)
            alpha = modular_cocycle(g, omega, mu)
            ad = adjoint_matrices(g)
            for i in range(g.rank):
                trace = g.chart.zero()
                for s in range(g.rank):
                    trace = trace + ad[i][s][s]
                assert alpha.component((i,)) == trace

    def test_family_of_fibers_matches_pointwise_trace(self):
        # totally intransitive with x-dependent structure: the value of the
        # modular cocycle at rational points equals the trace of the fiber
        # adjoint there
        R1 = Chart("R1", ("x",))
        x = R1.coord("x")
        g = Representation  # silence lint on unused import pattern
        from algebroids.core import AlgebroidPresentation

        fam = AlgebroidPresentation(
            "fam", R1, ("e1", "e2"), [[R1.zero()], [R1.zero()]],
            {(0, 1): {1: x}},  # [e1,e2] = x e2: aff(1) scaled by the base point
        )
        alpha = modular_cocycle(fam, *canonical_sections(fam))
        assert alpha == one_form(fam, [x, R1.zero()])
        for pt in ([Fraction(1)], [Fraction(-3, 2)], [Fraction(0)]):
            trace_ad_e1 = float(pt[0])  # trace of ad(e1) on the fiber at pt
            assert alpha.component((0,)).evaluate(pt) == trace_ad_e1
            assert alpha.component((1,)).evaluate(pt) == 0

    def test_canonical_rep_consistency(self):
        b = cylinder_algebroid()
        omega, mu = canonical_sections(b)
        d = canonical_rep(b, omega, mu)
        assert check_flat(d).passed
        alpha = char_cocycle(d, LineSection(b.chart.one()))
        assert alpha == modular_cocycle(b, omega, mu)
