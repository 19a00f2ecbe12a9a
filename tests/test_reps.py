import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from algebroids.core import (
    AlgebroidError,
    AlgebroidPresentation,
    d_A,
    function_form,
    one_form,
    tangent_algebroid,
    top_form,
    top_multivector,
    zero_form,
)
import algebroids.reps as reps
from algebroids.reps import (
    EValuedForm,
    LineSection,
    Representation,
    RepresentationError,
    Trivialization,
    canonical_rep,
    canonical_sections,
    char_cocycle,
    check_flat,
    d_AE,
    dual_rep,
    tensor_rep,
    trivial_rep,
)
from algebroids.symexpr import Chart, NotAUnit, exp

from conftest import (
    aff1,
    coeffs,
    cylinder_algebroid,
    examples,
    frame_algebroids,
    fresh_curvature,
    line_sum_reps,
    random_lie_algebra,
    reference_check_flat,
    reference_modular_cocycle,
    so3,
    sparse_algebroids,
    units,
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


# the tangent algebroid of a 2-coordinate chart, or a frame of a tangent bundle
SMALL_ALGEBROIDS = st.one_of(st.just(tangent_algebroid(Chart("R2", ("x", "y")))), frame_algebroids())


@st.composite
def small_reps(draw, algebroids=SMALL_ALGEBROIDS):
    """A line or rank-2 representation whose entries are each zero (one
    time in three) or a random coefficient, so that the commutator of a
    rank-2 connection has products off the diagonal."""
    a = draw(algebroids)
    m = draw(st.integers(1, 2))
    zero = a.chart.zero()
    mats = [
        [[draw(coeffs(a.chart)) if draw(st.integers(0, 2)) else zero for _ in range(m)] for _ in range(m)]
        for _ in range(a.rank)
    ]
    return Representation(a, [f"eps{s}" for s in range(m)], mats)


def flat_matches_the_reference(drawn, tier1=100):
    """The property, over the representations ``drawn`` draws, that the
    report read off the held curvature, which takes partials once and
    forms no commutator product that cancels, is that of the reference,
    which takes them again for every frame pair and forms every product."""

    @pytest.mark.deep
    @settings(max_examples=examples(tier1), deadline=None)
    @given(drawn)
    def test(self, d):
        rep = check_flat(d)
        event("flat" if rep.passed else "not flat")
        assert rep.to_dict() == reference_check_flat(d).to_dict()

    return test


@st.composite
def reps_on(draw, a):
    """A representation on ``a``, flat in about half the draws, that holds
    its curvature (computed when drawn) in three draws out of four."""
    d = draw(st.one_of(line_sum_reps(st.just(a), flat=True), line_sum_reps(st.just(a)), small_reps(st.just(a))))
    if draw(st.integers(0, 3)):
        d.curvature
    return d


def holds_flat(d):
    return "curvature" in d.__dict__ and d.is_flat()


class TestHeldCurvature:
    """A dual or tensor product of representations that hold a vanishing
    curvature holds one, and every held curvature is the one a fresh
    representation on the same matrices computes."""

    @pytest.mark.deep
    @settings(max_examples=examples(60), deadline=None)
    @given(SMALL_ALGEBROIDS, st.data())
    def test_dual_and_tensor_hold_the_fresh_curvature(self, a, data):
        d1, d2 = data.draw(reps_on(a)), data.draw(reps_on(a))
        event("both factors hold flat" if holds_flat(d1) and holds_flat(d2) else "computed")
        dual, tensor = dual_rep(d1), tensor_rep(d1, d2)
        assert holds_flat(dual) == holds_flat(d1)
        assert holds_flat(tensor) == (holds_flat(d1) and holds_flat(d2))
        for d in (dual, tensor):
            assert dict(d.curvature) == fresh_curvature(d)

    def test_a_factor_holding_no_curvature_leaves_it_to_be_computed(self, R2):
        tm = tangent_algebroid(R2)
        d = exact_line_rep(tm, R2.coord("x"))
        assert "curvature" not in tensor_rep(d, dual_rep(d)).__dict__
        assert "curvature" not in d.__dict__


class TestCheckFlat:
    test_matches_the_reference = flat_matches_the_reference(line_sum_reps())
    # zero anchor rows and constant anchor entries
    test_sparse_rows_match_the_reference = flat_matches_the_reference(line_sum_reps(sparse_algebroids()))
    # rank-2 commutators with off-diagonal products
    test_small_reps_match_the_reference = flat_matches_the_reference(small_reps(), tier1=40)

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

    def test_curvature_is_computed_once(self, monkeypatch):
        calls = []
        combine = reps.lincomb

        def counted(*args):
            calls.append(1)
            return combine(*args)

        monkeypatch.setattr(reps, "lincomb", counted)
        g = so3()
        d = Representation(g, g.frame, adjoint_matrices(g))
        first = check_flat(d)
        n = len(calls)
        second = check_flat(d)
        assert n > 0 and len(calls) == n
        assert first is not second and first.items is not second.items
        assert first == second and first.passed


class TestRepresentation:
    def test_fields_are_frozen(self, R2):
        tm = tangent_algebroid(R2)
        d = exact_line_rep(tm, R2.coord("x") * R2.coord("y"))
        held = d.curvature
        for field, value in (("name", "E"), ("mats", d.mats), ("bundle_frame", ("e",)), ("algebroid", tm)):
            with pytest.raises(FrozenInstanceError):
                setattr(d, field, value)
        assert d.curvature is held and d.name == "Dexact"

    def test_entry_on_another_chart_is_refused(self, R2):
        tm = tangent_algebroid(R2)
        q = Chart("Q", ("x", "y"))
        with pytest.raises(RepresentationError, match="coefficient entry x lives on chart 'Q', not 'R2'"):
            Representation(tm, ("eps",), [[[R2.zero()]], [[q.coord("x")]]])

    def test_entry_that_is_not_a_function_is_refused(self, R2):
        tm = tangent_algebroid(R2)
        with pytest.raises(RepresentationError, match="coefficient entry 3 is not a ScalarFn"):
            Representation(tm, ("eps",), [[[3]], [[R2.zero()]]])


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
        assert t.mats == tuple(((a[0][0] + b[0][0],),) for a, b in zip(d1.mats, d2.mats))

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

    @staticmethod
    def count_d_A(monkeypatch):
        calls = []
        real = reps.d_A

        def counted(alpha):
            calls.append(alpha)
            return real(alpha)

        monkeypatch.setattr(reps, "d_A", counted)
        return calls

    def test_unit_section_reads_the_held_curvature(self, R2, monkeypatch):
        tm = tangent_algebroid(R2)
        d = exact_line_rep(tm, R2.coord("x") * R2.coord("y"))
        assert check_flat(d).passed
        calls = self.count_d_A(monkeypatch)
        alpha = char_cocycle(d, LineSection(R2.const(3)))
        assert calls == []
        assert alpha == one_form(tm, [m[0][0] for m in d.mats])

    def test_non_constant_section_runs_d_A(self, R2, monkeypatch):
        tm = tangent_algebroid(R2)
        d = exact_line_rep(tm, R2.coord("y"))
        calls = self.count_d_A(monkeypatch)
        alpha = char_cocycle(d, LineSection(exp(R2.coord("x"))))
        assert calls == [alpha]

    @pytest.mark.deep
    @settings(max_examples=examples(60), deadline=None)
    @given(line_sum_reps(SMALL_ALGEBROIDS, max_rank=1))
    def test_unit_section_refuses_exactly_the_open_forms(self, d):
        """char_cocycle with the unit section raises iff d_A of the
        connection form is non-zero, with the message that names it."""
        alpha = one_form(d.algebroid, [m[0][0] for m in d.mats])
        res = d_A(alpha)
        event("closed" if res.is_zero() else "not closed")
        if res.is_zero():
            assert char_cocycle(d, LineSection(d.chart.one())) == alpha
        else:
            with pytest.raises(RepresentationError) as err:
                char_cocycle(d, LineSection(d.chart.one()))
            assert str(err.value) == f"characteristic cocycle is not closed: d = {res}"


def modular_cocycle_matches_the_reference(algebroids):
    """The property, over the algebroids ``algebroids`` draws, that the
    trace read off the stored structure pairs and the Lie derivative over
    the anchor rows give the graded-calculus cocycle."""

    @pytest.mark.deep
    @settings(deadline=None)
    @given(algebroids, st.data())
    def test(self, alg, data):
        omega = top_multivector(alg, data.draw(units(alg.chart)))
        mu = top_form(tangent_algebroid(alg.chart), data.draw(units(alg.chart)))
        assert Trivialization(omega, mu).modular == reference_modular_cocycle(alg, omega, mu)

    return test


def canonical_cocycle_matches_the_reference(algebroids):
    """The property, over the algebroids ``algebroids`` draws, that the
    cocycle a presentation holds is the graded-calculus cocycle of its unit
    trivialization."""

    @pytest.mark.deep
    @settings(deadline=None)
    @given(algebroids)
    def test(self, alg):
        assert alg.modular == reference_modular_cocycle(alg, *canonical_sections(alg))

    return test


class TestModularCocycle:
    test_matches_the_reference = modular_cocycle_matches_the_reference(frame_algebroids())
    # sparse anchor rows, with zero and non-zero structure diagonals
    test_sparse_rows_match_the_reference = modular_cocycle_matches_the_reference(sparse_algebroids())
    test_canonical_matches_the_reference = canonical_cocycle_matches_the_reference(frame_algebroids())
    test_sparse_canonical_matches_the_reference = canonical_cocycle_matches_the_reference(sparse_algebroids())

    def test_constant_rescaling_returns_the_held_cocycle(self):
        b = cylinder_algebroid()
        x = b.chart.coord("x")
        # s g = 2 exp(x) exp(-x) = 2
        omega = top_multivector(b, 2 * exp(x))
        mu = top_form(tangent_algebroid(b.chart), exp(-x))
        assert Trivialization(omega, mu).modular is b.modular
        assert Trivialization(*canonical_sections(b)).modular is b.modular

    def test_non_constant_rescaling_adds_its_log_derivative(self):
        b = cylinder_algebroid()
        x = b.chart.coord("x")
        omega = top_multivector(b, exp(x))
        # rho(b)(exp(x)) / exp(x) = x
        assert Trivialization(omega, canonical_sections(b)[1]).modular == b.modular + one_form(b, [x])

    def test_a_canonical_cocycle_that_is_not_closed_is_refused(self, R2):
        # e1 = d/dx, e2 = x d/dy with [e1, e2] = y e2 breaks the anchor
        # homomorphism; its canonical cocycle y e^1 has d = -x e^1^e^2
        x, y = R2.coord("x"), R2.coord("y")
        a = AlgebroidPresentation("bad", R2, ("e1", "e2"), [[R2.one(), R2.zero()], [R2.zero(), x]], {(0, 1): {1: y}})
        res = d_A(one_form(a, [y, R2.zero()]))
        assert not res.is_zero()
        with pytest.raises(AlgebroidError) as err:
            a.modular
        assert str(err.value) == f"modular cocycle is not closed: d = {res}"

    def test_tangent_unimodular(self, R2):
        tm = tangent_algebroid(R2)
        omega, mu = canonical_sections(tm)
        assert Trivialization(omega, mu).modular.is_zero()

    def test_cylinder_spiral(self):
        b = cylinder_algebroid()
        omega, mu = canonical_sections(b)
        beta = Trivialization(omega, mu).modular
        assert beta == one_form(b, [b.chart.one()])

    def test_aff1(self):
        g = aff1()
        omega, mu = canonical_sections(g)
        alpha = Trivialization(omega, mu).modular
        assert alpha == one_form(g, [g.chart.one(), g.chart.zero()])

    def test_totally_intransitive_matches_trace_of_adjoint(self):
        rng = random.Random(12)
        for _ in range(10):
            g = random_lie_algebra(rng)
            omega, mu = canonical_sections(g)
            alpha = Trivialization(omega, mu).modular
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
        alpha = Trivialization(*canonical_sections(fam)).modular
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
        assert alpha == Trivialization(omega, mu).modular


class TestTrivialization:
    def test_of_reads_the_algebroids_cocycle(self):
        b = cylinder_algebroid()
        assert Trivialization.of(b).modular is b.modular

    def test_of_builds_the_hand_built_pair(self):
        b = cylinder_algebroid()
        x = b.chart.coord("x")
        s, g = exp(x), 2 * exp(-x)
        triv = Trivialization.of(b, s, g)
        assert (triv.omega, triv.mu) == (top_multivector(b, s), top_form(tangent_algebroid(b.chart), g))
        assert triv.unit == 2 * b.chart.one()
        one = Trivialization.of(b)
        assert (one.omega, one.mu) == (top_multivector(b, b.chart.one()), top_form(tangent_algebroid(b.chart), b.chart.one()))
        assert canonical_sections(b) == (one.omega, one.mu)

    def test_a_top_form_is_not_an_omega(self):
        # e^x dx is a top form of the same degree as the top multivector
        R1 = Chart("R1", ("x",))
        t = tangent_algebroid(R1)
        with pytest.raises(RepresentationError, match="^omega must be a top multivector on the presentation$"):
            Trivialization(top_form(t, exp(R1.coord("x"))), top_form(t, R1.one()))

    def test_a_top_form_on_a_presentation_that_is_not_tangent_is_not_a_mu(self, R2):
        # rank 2 over a 2-D chart, anchor e1 -> d/dx, e2 -> d/dx + d/dy
        b = AlgebroidPresentation("B", R2, ("e1", "e2"), [[R2.one(), R2.zero()], [R2.one(), R2.one()]])
        with pytest.raises(RepresentationError, match="^mu must be a top form on the tangent presentation$"):
            Trivialization(top_multivector(b, R2.one()), top_form(b, exp(R2.coord("x"))))

    def test_a_top_multivector_is_not_a_mu(self, R2):
        tm = tangent_algebroid(R2)
        with pytest.raises(RepresentationError, match="^mu must be a top form on the tangent presentation$"):
            Trivialization(top_multivector(tm, R2.one()), top_multivector(tm, R2.one()))
