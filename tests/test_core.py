import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from algebroids import core
from algebroids.cli import load_scenario
from algebroids.core import (
    AlgebroidError,
    AlgebroidPresentation,
    DegreeMismatch,
    FormField,
    Multivector,
    check_axioms,
    coframe_form,
    d_A,
    frame_vector,
    function_form,
    interior,
    interior_form,
    lie_algebra_presentation,
    one_form,
    schouten,
    section_vector,
    tangent_algebroid,
    top_bracket,
    top_multivector,
    vector_field_bracket,
    zero_algebroid,
)
from algebroids.extensions import subalgebroid_from_vector_fields
from algebroids.symexpr import Chart, cos, exp, point_chart, sin

from conftest import (
    aff1,
    checked_trusted,
    coeffs,
    cylinder_algebroid,
    examples,
    frame_algebroids,
    jacobiator,
    random_lie_algebra,
    reference_check_axioms,
    reference_d_A,
    so3,
    sparse_algebroids,
)


@st.composite
def corrupted_algebroids(draw, algebroids=frame_algebroids()):
    """An algebroid of ``algebroids`` with one or two anchor entries or
    structure functions shifted by a random coefficient, so that the anchor
    is in general no longer a homomorphism."""
    a = draw(algebroids)
    chart = a.chart
    anchor = [list(row) for row in a.anchor]
    structure = {key: dict(comps) for key, comps in a.structure.items()}
    for _ in range(draw(st.integers(1, 2))):
        shift = draw(coeffs(chart))
        if draw(st.booleans()):
            t, j = draw(st.integers(0, a.rank - 1)), draw(st.integers(0, chart.dim - 1))
            anchor[t][j] = anchor[t][j] + shift
        else:
            i, j = draw(st.lists(st.integers(0, a.rank - 1), min_size=2, max_size=2, unique=True).map(sorted))
            k = draw(st.integers(0, a.rank - 1))
            comps = structure.setdefault((i, j), {})
            comps[k] = comps.get(k, chart.zero()) + shift
    return AlgebroidPresentation("X", chart, a.frame, anchor, structure)


def check_axioms_matches_the_reference(algebroids):
    """The property, over the algebroids ``algebroids`` draws and their
    corruptions, that the closed form of d e^k and the partials taken once
    give the report of the generic calculus, failing residuals included."""

    @pytest.mark.deep
    @settings(deadline=None)
    @given(st.one_of(algebroids, corrupted_algebroids(algebroids)))
    def test(self, a):
        rep = check_axioms(a)
        event("passes" if rep.passed else "fails")
        assert rep.to_dict() == reference_check_axioms(a).to_dict()

    return test


class TestCheckAxioms:
    @pytest.mark.deep
    @settings(deadline=None)
    @given(st.one_of(frame_algebroids(), corrupted_algebroids()))
    def test_ddx_items_match_d_A(self, a):
        """The d(d x) items, read off the anchor residuals, are those of
        d_A(d_A x) itself, and come first, in coordinate order."""
        rep = check_axioms(a)
        event("passes" if rep.passed else "fails")
        coords = a.chart.coords
        assert [item.label for item in rep.items[: len(coords)]] == [f"d(d {c}) = 0" for c in coords]
        for item, c in zip(rep.items, coords):
            want = d_A(d_A(function_form(a, a.chart.coord(c))))
            assert (item.ok, item.detail) == (want.is_zero(), "" if want.is_zero() else str(want))

    test_matches_the_reference = check_axioms_matches_the_reference(frame_algebroids())

    @pytest.mark.deep
    @settings(deadline=None)
    @given(st.one_of(frame_algebroids(), corrupted_algebroids()))
    def test_dde_items_are_the_frame_jacobi_law(self, a):
        """Component (i, j, l) of the d(d e^k) residual is component k of
        jacobiator(a, i, j, l), for every sorted frame triple."""
        items = {item.label: item for item in check_axioms(a).items}
        triples = list(combinations(range(a.rank), 3))
        jac = {key: jacobiator(a, *key) for key in triples}
        for k, name in enumerate(a.coframe):
            want = FormField(a, 3, {key: jac[key][k] for key in triples})
            event("jacobi holds" if want.is_zero() else "jacobi fails")
            item = items[f"d(d {name}) = 0"]
            assert (item.ok, item.detail) == (want.is_zero(), "" if want.is_zero() else str(want))

    def test_tangent_plane(self, R2):
        assert check_axioms(tangent_algebroid(R2)).passed

    def test_aff1(self):
        assert check_axioms(aff1()).passed

    def test_cyclic_sign_flip_still_satisfies_jacobi(self):
        # For rank-3 cyclic structures every Jacobiator term is [c e_k, e_k],
        # so a flipped sign still gives a Lie algebra (an sl(2)-type one).
        flipped = lie_algebra_presentation(
            "flipped", ("e1", "e2", "e3"),
            {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: 1}},
        )
        assert check_axioms(flipped).passed
        assert all(f.is_zero() for f in jacobiator(flipped, 0, 1, 2))

    def test_corrupted_entry_fails_and_matches_jacobi_oracle(self):
        bad = lie_algebra_presentation(
            "bad", ("e1", "e2", "e3"),
            {(0, 1): {2: 1, 0: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
        )
        rep = check_axioms(bad)
        assert not rep.passed
        defect = jacobiator(bad, 0, 1, 2)
        assert any(not f.is_zero() for f in defect)

    def test_zero_algebroid(self, R2):
        assert check_axioms(zero_algebroid(R2)).passed


def count_d_A(monkeypatch):
    """Make `check_axioms` count its d_A calls in the returned list."""
    calls = []

    def counting(alpha):
        calls.append(alpha)
        return d_A(alpha)

    monkeypatch.setattr(core, "d_A", counting)
    return calls


def injective_frame():
    """A unit-triangular frame of TR^3 with non-constant structure
    functions: its anchor is injective, its generic rank 3 shown by the
    minor on every row and column."""
    chart = Chart("R3", ("x", "y", "z"))
    x, y, z = (chart.coord(c) for c in chart.coords)
    one, zero = chart.one(), chart.zero()
    columns = [[one, zero, zero], [y * z, one, zero], [exp(x), x * y, one]]
    return subalgebroid_from_vector_fields("F", chart, columns)[0]


class TestJacobiFromTheAnchor:
    """With zero anchor residuals and a generically injective anchor, the
    d(d e^k) items are read off the anchor; otherwise each takes one d_A."""

    def test_injective_frame_takes_no_d_A(self, monkeypatch):
        a = injective_frame()
        assert any(not f.is_constant() for comps in a.structure.values() for f in comps.values())
        calls = count_d_A(monkeypatch)
        rep = check_axioms(a)
        assert calls == []
        assert rep.data["jacobi"] == ((0, 1, 2), (0, 1, 2))
        assert rep.passed
        assert rep.to_dict() == reference_check_axioms(a).to_dict()

    def test_shifted_structure_function_falls_back_to_d_A(self, monkeypatch):
        a = injective_frame()
        (i, j), comps = next(iter(a.structure.items()))
        k, f = next(iter(comps.items()))
        structure = {key: dict(c) for key, c in a.structure.items()}
        structure[(i, j)][k] = f + 1
        bad = AlgebroidPresentation("X", a.chart, a.frame, a.anchor, structure)
        calls = count_d_A(monkeypatch)
        rep = check_axioms(bad)
        assert len(calls) == bad.rank
        assert rep.data["jacobi"] == "d_A"
        assert not rep.passed
        items = {item.label: item for item in rep.items}
        jac = jacobiator(bad, 0, 1, 2)
        for t, name in enumerate(bad.coframe):
            want = FormField(bad, 3, {(0, 1, 2): jac[t]})
            item = items[f"d(d {name}) = 0"]
            assert (item.ok, item.detail) == (want.is_zero(), "" if want.is_zero() else str(want))

    @pytest.mark.parametrize(
        "make",
        [
            # the cotangent algebroid of a regular Poisson bivector: generic rank 2 of 3
            lambda: load_scenario("poisson_spiral.scn").algebroid("CT"),
            # rank 3 over a 2-D chart
            lambda: so3(Chart("R2", ("x", "y"))),
            lambda: zero_algebroid(Chart("R2", ("x", "y"))),
        ],
        ids=["poisson-cotangent", "so3-over-R2", "zero"],
    )
    def test_non_injective_anchors_take_d_A(self, monkeypatch, make):
        a = make()
        calls = count_d_A(monkeypatch)
        rep = check_axioms(a)
        assert rep.data["jacobi"] == "d_A"
        assert len(calls) == a.rank
        assert rep.passed
        assert rep.to_dict() == reference_check_axioms(a).to_dict()


class TestSparseRows:
    """The calculus over the sparse anchor rows gives what it gives over
    the dense ones, on presentations with zero anchor rows, constant anchor
    entries and zero structure diagonals, valid or corrupted."""

    @pytest.mark.deep
    @settings(deadline=None)
    @given(st.one_of(frame_algebroids(), sparse_algebroids(), corrupted_algebroids(sparse_algebroids())), st.data())
    def test_d_A_matches_the_reference(self, a, data):
        alpha = data.draw(tables(a, FormField, data.draw(st.integers(0, min(a.rank, 3)))))
        assert d_A(alpha) == reference_d_A(alpha)

    test_check_axioms_matches_the_reference = check_axioms_matches_the_reference(sparse_algebroids())

    def test_anchor_rows_hold_the_non_zero_entries(self, R2):
        x = R2.coord("x")
        a = AlgebroidPresentation("A", R2, ("a", "b", "c"), [[R2.zero(), x], [R2.one(), R2.zero()], [R2.zero()] * 2])
        assert a.anchor_rows == (((1, x),), ((0, R2.one()),), ())
        assert a.anchor == ((R2.zero(), x), (R2.one(), R2.zero()), (R2.zero(), R2.zero()))


class TestPresentationChecks:
    """An invalid structure index or an entry on another chart is refused
    when the presentation is made."""

    def test_upper_index_past_the_rank(self):
        pt = point_chart()
        with pytest.raises(AlgebroidError, match="frame index"):
            AlgebroidPresentation("g", pt, ("a", "b"), [[], []], {(0, 1): {5: pt.one()}})

    def test_negative_upper_index(self):
        pt = point_chart()
        with pytest.raises(AlgebroidError, match="frame index"):
            AlgebroidPresentation("g", pt, ("a", "b"), [[], []], {(0, 1): {-1: pt.one()}})

    def test_anchor_entry_on_another_chart(self, R1, R2):
        with pytest.raises(AlgebroidError, match="anchor entry .* chart 'R2'"):
            AlgebroidPresentation("A", R1, ("a",), [[R2.coord("x")]])

    def test_structure_function_on_another_chart(self, R1, R2):
        with pytest.raises(AlgebroidError, match="structure function .* chart 'R2'"):
            AlgebroidPresentation("A", R1, ("a", "b"), [[R1.zero()]] * 2, {(0, 1): {0: R2.coord("y")}})

    def test_zero_structure_function_on_another_chart(self, R1, R2):
        with pytest.raises(AlgebroidError, match="structure function"):
            AlgebroidPresentation("A", R1, ("a", "b"), [[R1.zero()]] * 2, {(0, 1): {0: R2.zero()}})

    def test_anchor_entry_that_is_not_a_function(self):
        with pytest.raises(AlgebroidError, match="anchor entry 1 is not a ScalarFn"):
            AlgebroidPresentation("A", Chart("R", ("x",)), ("a",), [[1]])

    def test_structure_function_that_is_not_a_function(self, R1):
        with pytest.raises(AlgebroidError, match="structure function 2 is not a ScalarFn"):
            AlgebroidPresentation("A", R1, ("a", "b"), [[R1.one()], [R1.zero()]], {(0, 1): {0: 2}})

    def test_equal_chart_is_the_same_chart(self, R2):
        x = Chart("R2", ("x", "y")).coord("x")
        a = AlgebroidPresentation("A", R2, ("a",), [[x, R2.zero()]])
        assert a.anchor_rows == (((0, R2.coord("x")),),)


class TestDifferential:
    def test_de_rham_case(self, R2):
        tm = tangent_algebroid(R2)
        x, y = R2.coord("x"), R2.coord("y")
        df = d_A(function_form(tm, x**2 * y))
        assert df == one_form(tm, [2 * x * y, x**2])

    def test_chevalley_eilenberg_aff1(self):
        g = aff1()
        d_e2 = d_A(coframe_form(g, 1))
        assert d_e2 == FormField(g, 2, {(0, 1): g.chart.const(-1)})

    def test_cylinder_algebroid(self):
        b = cylinder_algebroid()
        x = b.chart.coord("x")
        assert d_A(function_form(b, x)) == one_form(b, [x])

    def test_d_squared_zero_on_random_forms(self):
        rng = random.Random(2)
        for alg in (aff1(), so3(), cylinder_algebroid(), tangent_algebroid(Chart("R2", ("x", "y")))):
            for _ in range(5):
                alpha = random_form(alg, rng, rng.randint(0, max(0, alg.rank - 1)))
                assert d_A(d_A(alpha)).is_zero()

    def test_leibniz(self):
        rng = random.Random(9)
        alg = so3()
        for _ in range(5):
            a = random_form(alg, rng, 1)
            b = random_form(alg, rng, 1)
            lhs = d_A(a.wedge(b))
            rhs = d_A(a).wedge(b) - a.wedge(d_A(b))
            assert (lhs - rhs).is_zero()

    def test_matches_independent_chevalley_eilenberg(self):
        rng = random.Random(17)
        for _ in range(10):
            g = random_lie_algebra(rng)
            alpha = random_form(g, rng, rng.randint(1, g.rank - 1))
            assert d_A(alpha) == chevalley_eilenberg_d(g, alpha)


class TestInterior:
    def test_single_contraction(self):
        g = aff1()
        omega = FormField(g, 2, {(0, 1): g.chart.one()})
        assert interior(frame_vector(g, 0), omega) == coframe_form(g, 1)

    def test_double_contraction_sign(self):
        g = aff1()
        omega = FormField(g, 2, {(0, 1): g.chart.one()})
        pair = Multivector(g, 2, {(0, 1): g.chart.one()})
        res = interior(pair, omega)
        assert res == function_form(g, g.chart.one())

    def test_bilinearity(self, R2):
        tm = tangent_algebroid(R2)
        f = R2.coord("x") + 1
        g = R2.coord("y") ** 2
        p = section_vector(tm, [f, R2.zero()])
        alpha = one_form(tm, [g, R2.zero()])
        assert interior(p, alpha) == function_form(tm, f * g)

    def test_degree_mismatch(self):
        g = aff1()
        with pytest.raises(DegreeMismatch):
            interior(Multivector(g, 2, {(0, 1): g.chart.one()}), coframe_form(g, 0))

    def test_form_into_multivector_pairing(self):
        g = so3()
        top = top_multivector(g, g.chart.one())
        alpha = coframe_form(g, 0)
        res = interior_form(alpha, top)
        assert res == Multivector(g, 2, {(1, 2): g.chart.one()})


class TestOperandCompat:
    def test_equal_presentations_combine(self, R2):
        a, b = tangent_algebroid(R2), tangent_algebroid(R2)
        assert a is not b
        one = R2.one()
        assert coframe_form(a, 0) + coframe_form(b, 1) == one_form(a, [one, one])
        assert coframe_form(a, 0).wedge(coframe_form(b, 1)) == FormField(a, 2, {(0, 1): one})

    def test_different_algebroids_rejected(self):
        with pytest.raises(AlgebroidError, match="different algebroids"):
            coframe_form(aff1(), 0) + coframe_form(so3(), 0)
        with pytest.raises(AlgebroidError, match="different algebroids"):
            coframe_form(so3(), 0).wedge(coframe_form(aff1(), 0))
        g = so3()
        with pytest.raises(AlgebroidError, match="different algebroids"):
            coframe_form(g, 0) + frame_vector(g, 0)


class TestRationalConstants:
    """Form scales and Lie structure constants are ints or Fractions; a
    float is refused instead of being read as a dyadic rational."""

    def test_form_scale(self, R2):
        alpha = coframe_form(tangent_algebroid(R2), 0)
        assert alpha.scale(3) == one_form(alpha.algebroid, [R2.const(3), R2.zero()])
        assert alpha.scale(Fraction(1, 10)) == one_form(alpha.algebroid, [R2.const(Fraction(1, 10)), R2.zero()])
        with pytest.raises(TypeError, match="int or a Fraction"):
            alpha.scale(0.1)

    def test_lie_algebra_structure_constants(self):
        g = lie_algebra_presentation("g", ("a", "b"), {(0, 1): {1: Fraction(1, 2), 0: 3}})
        assert g.c(0, 1, 1) == Fraction(1, 2) and g.c(0, 1, 0) == 3
        with pytest.raises(TypeError, match="int or a Fraction"):
            lie_algebra_presentation("g", ("a", "b"), {(0, 1): {1: 0.5}})


class TestSchouten:
    def test_lie_derivative_of_bivector(self, R2):
        tm = tangent_algebroid(R2)
        x = R2.coord("x")
        p = frame_vector(tm, 0)
        q = Multivector(tm, 2, {(0, 1): x})
        assert schouten(p, q) == Multivector(tm, 2, {(0, 1): R2.one()})

    def test_poisson_square_zero(self, R2):
        tm = tangent_algebroid(R2)
        pi = Multivector(tm, 2, {(0, 1): R2.one()})
        assert schouten(pi, pi).is_zero()

    def test_aff1_top(self):
        g = aff1()
        res = schouten(frame_vector(g, 0), top_multivector(g, g.chart.one()))
        assert res == top_multivector(g, g.chart.one())

    @pytest.mark.deep
    @settings(deadline=None)
    @given(frame_algebroids(), st.data())
    def test_top_bracket_is_the_top_coefficient_of_schouten(self, alg, data):
        s = data.draw(coeffs(alg.chart))
        top = top_multivector(alg, s)
        for i in range(alg.rank):
            want = schouten(frame_vector(alg, i), top).comps.get(tuple(range(alg.rank)), alg.chart.zero())
            assert top_bracket(alg, i, s) == want

    def test_graded_antisymmetry_and_jacobi(self):
        rng = random.Random(4)
        for alg in (so3(), tangent_algebroid(Chart("R2", ("x", "y")))):
            for _ in range(4):
                degs = [rng.randint(0, 2) for _ in range(3)]
                p, q, r = (random_multivector(alg, rng, d) for d in degs)
                dp, dq, dr = degs
                sign = -1 if ((dp - 1) * (dq - 1)) % 2 else 1
                anti = schouten(p, q) + schouten(q, p).scale(sign)
                assert anti.is_zero()
                j1 = schouten(p, schouten(q, r))
                s1 = -1 if ((dp - 1) * (dq - 1)) % 2 else 1
                j2 = schouten(schouten(p, q), r)
                j3 = schouten(q, schouten(p, r)).scale(s1)
                assert (j1 - j2 - j3).is_zero()


class TestLieTop:
    """The Lie derivative of the coordinate volume along a vector field v
    is div(v) times that volume: the anchor term of
    `AlgebroidPresentation.modular` on the line algebroid spanned by v,
    which has no structure trace."""

    @staticmethod
    def divergence(chart, v):
        return AlgebroidPresentation("V", chart, ("v",), [v]).modular.component((0,))

    def test_scaling_field(self, R1):
        assert self.divergence(R1, [R1.coord("x")]) == R1.one()

    def test_spiral_field_preserves_mixed_volume(self, CYL):
        # L_v(dx^dtheta) = dx^dtheta for v = d/dtheta + x d/dx
        assert self.divergence(CYL, [CYL.one(), CYL.coord("x")]) == CYL.one()

    def test_constant_field(self, R2):
        assert self.divergence(R2, [R2.one(), R2.zero()]).is_zero()


def random_form(alg, rng, degree):
    comps = {}
    for key in combinations(range(alg.rank), degree):
        comps[key] = random_coeff(alg, rng)
    return FormField(alg, degree, comps)


def random_multivector(alg, rng, degree):
    comps = {}
    for key in combinations(range(alg.rank), degree):
        comps[key] = random_coeff(alg, rng)
    return Multivector(alg, degree, comps)


def random_coeff(alg, rng):
    chart = alg.chart
    f = chart.const(rng.randint(-3, 3))
    for name, per in zip(chart.coords, chart.periodic):
        if per:
            if rng.random() < 0.5:
                f = f * (sin(chart.coord(name)) if rng.random() < 0.5 else cos(chart.coord(name)))
        else:
            f = f * chart.coord(name) ** rng.randint(0, 2)
    return f + rng.randint(-2, 2)


def chevalley_eilenberg_d(g, alpha):
    """Independent differential from structure constants alone (zero anchor)."""
    k = alpha.degree
    comps = {}
    for key in combinations(range(g.rank), k + 1):
        total = g.chart.zero()
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                rest = tuple(x for u, x in enumerate(key) if u not in (s, t))
                for m in range(g.rank):
                    c = g.c(key[s], key[t], m)
                    if c.is_zero():
                        continue
                    val = alpha.component((m,) + rest)
                    term = c * val
                    total = total + (term if (s + t) % 2 == 0 else -term)
        comps[key] = total
    return FormField(g, k + 1, comps)


# ---------------------------------------------------------------------------
# calculus identities on random frames with non-constant structure functions
# ---------------------------------------------------------------------------

@st.composite
def tables(draw, alg, kind, degree):
    comps = {key: draw(coeffs(alg.chart)) for key in combinations(range(alg.rank), degree)}
    return kind(alg, degree, comps)


@st.composite
def sparse_tables(draw, alg, kind, degree):
    """A table of ``kind`` whose components are each zero (one time in
    three) or a random coefficient."""
    zero = alg.chart.zero()
    return kind(alg, degree, {
        key: draw(coeffs(alg.chart)) if draw(st.integers(0, 2)) else zero
        for key in combinations(range(alg.rank), degree)
    })


class TestTrustedTables:
    """The tables the calculus builds from keys it generated in order, with
    no validation, are the validated tables of the same components."""

    @pytest.mark.deep
    @settings(max_examples=examples(40), deadline=None)
    @given(st.one_of(frame_algebroids(), sparse_algebroids(), corrupted_algebroids()), st.data())
    def test_equal_the_validated_tables(self, alg, data):
        degree = data.draw(st.integers(0, alg.rank))
        alpha = data.draw(sparse_tables(alg, FormField, degree))
        p = data.draw(sparse_tables(alg, Multivector, degree))
        f = data.draw(st.one_of(coeffs(alg.chart), st.just(alg.chart.zero())))
        with checked_trusted() as built:
            d_A(alpha)
            -alpha, -p
            alpha.scale(f), p.scale(f), alpha.scale(0)
            check_axioms(alg)
        assert len(built) >= 6

    def test_the_public_constructors_still_validate(self, R2):
        tm = tangent_algebroid(R2)
        for bad in ((1, 0), (0, 0), (0, 2), (0,)):
            with pytest.raises(AlgebroidError):
                FormField(tm, 2, {bad: R2.one()})
            with pytest.raises(AlgebroidError):
                Multivector(tm, 2, {bad: R2.one()})


class TestCalculusProperties:
    @settings(max_examples=50, deadline=None)
    @given(frame_algebroids())
    def test_structure_functions_expand_the_anchor_brackets(self, alg):
        # the re-expanded brackets reproduce the vector-field brackets exactly
        chart, anchor = alg.chart, alg.anchor
        for s, t in combinations(range(alg.rank), 2):
            want = vector_field_bracket(chart, anchor[s], anchor[t])
            for l in range(chart.dim):
                got = chart.zero()
                for k in range(alg.rank):
                    got = got + alg.c(s, t, k) * anchor[k][l]
                assert got == want[l]

    @settings(max_examples=50, deadline=None)
    @given(frame_algebroids(), st.data())
    def test_d_squared_is_zero(self, alg, data):
        # d d alpha is a top form or zero beyond degree rank - 2
        for degree in range(alg.rank - 1):
            alpha = data.draw(tables(alg, FormField, degree))
            assert d_A(d_A(alpha)).is_zero()

    @settings(max_examples=50, deadline=None)
    @given(frame_algebroids(), st.data())
    def test_leibniz_rule_for_functions(self, alg, data):
        degree = data.draw(st.integers(0, alg.rank))
        alpha = data.draw(tables(alg, FormField, degree))
        f = data.draw(coeffs(alg.chart))
        lhs = d_A(alpha.scale(f))
        rhs = d_A(function_form(alg, f)).wedge(alpha) + d_A(alpha).scale(f)
        assert (lhs - rhs).is_zero()

    @settings(max_examples=50, deadline=None)
    @given(frame_algebroids(), st.data())
    def test_schouten_graded_antisymmetry(self, alg, data):
        dp, dq = (data.draw(st.integers(0, alg.rank)) for _ in range(2))
        p = data.draw(tables(alg, Multivector, dp))
        q = data.draw(tables(alg, Multivector, dq))
        sign = -1 if ((dp - 1) * (dq - 1)) % 2 else 1
        assert (schouten(p, q) + schouten(q, p).scale(sign)).is_zero()
