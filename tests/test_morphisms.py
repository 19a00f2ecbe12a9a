import pytest
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import combinations

from hypothesis import event, given, settings
from hypothesis import strategies as st

from algebroids.core import (
    AlgebroidPresentation,
    FormField,
    check_axioms,
    d_A,
    function_form,
    one_form,
    tangent_algebroid,
    top_form,
    top_multivector,
)
from algebroids.morphisms import (
    Morphism,
    MorphismError,
    base_preserving_morphism,
    check_composition_law,
    check_morphism,
    check_rep_morphism,
    compose,
    identity_morphism,
    pullback_form,
    pullback_rep,
    relative_canonical_rep,
    relative_modular,
)
from algebroids.reps import (
    LineSection,
    Representation,
    RepresentationError,
    Trivialization,
    canonical_sections,
    char_cocycle,
    check_flat,
    trivial_rep,
)
from algebroids.symexpr import Chart, ChartMap, cos, exp, sin

from algebroids.cli import corpus_scenarios, load_scenario
from algebroids.extensions import subalgebroid_from_vector_fields
from algebroids.report import CheckReport
from algebroids.runner import Session

from conftest import (
    checked_trusted,
    coeffs,
    count_modular_builds,
    counting_curvatures,
    cylinder_algebroid,
    examples,
    frame_algebroids,
    frame_inclusions,
    fresh_curvature,
    line_sum_reps,
    reference_check_morphism,
    sparse_algebroids,
    units,
)


def cylinder_setup():
    S1 = Chart("S1", ("theta",), (True,))
    N = Chart("N", ("theta", "x"), (True, False))
    TS1 = tangent_algebroid(S1)
    B = cylinder_algebroid(N)
    TN = tangent_algebroid(N)
    incl = Morphism("incl", TS1, B, [S1.coord("theta"), S1.zero()], [[S1.one()]])
    b_in_tn = base_preserving_morphism("iB", B, TN, [[N.one()], [N.coord("x")]])
    return S1, N, TS1, B, TN, incl, b_in_tn


def triv(alg):
    return Trivialization(*canonical_sections(alg))


class TestSharedZero:
    def test_the_identity_checks_leave_the_zero_empty(self):
        """A run of every identity check on one chart hands the chart's
        zero out many times and never writes into it."""
        S1, N, TS1, B, TN, incl, b_in_tn = cylinder_setup()
        zeros = {S1: S1.zero(), N: N.zero()}
        x = N.coord("x")
        d = Representation(TN, ("eps",), [[[N.coord("theta").partial("theta")]], [[x.partial("x")]]])
        assert check_morphism(incl).passed and check_morphism(b_in_tn).passed
        assert check_flat(d).passed and check_flat(pullback_rep(b_in_tn, d)).passed
        lam = LineSection(S1.one())
        d_pulled = relative_canonical_rep(incl, triv(TS1), triv(B))
        assert (char_cocycle(d_pulled, lam) - relative_modular(incl, triv(TS1), triv(B))).is_zero()
        assert d_A(d_A(function_form(TN, x * x))).is_zero()
        assert check_axioms(B).passed and check_axioms(TS1).passed
        for chart, zero in zeros.items():
            assert chart.zero() is zero
            assert zero.num == {} and zero.den == 1


class TestCheckMorphism:
    def test_tangent_functoriality(self):
        S1, N, TS1, B, TN, incl, b_in_tn = cylinder_setup()
        tphi = Morphism(
            "Tphi", TS1, TN, [S1.coord("theta"), S1.zero()], [[S1.one()], [S1.zero()]]
        )
        assert check_morphism(tphi).passed

    def test_cylinder_inclusion(self):
        *_, incl, b_in_tn = cylinder_setup()
        assert check_morphism(incl).passed
        assert check_morphism(b_in_tn).passed

    def test_corrupted_fiber_fails(self):
        S1, N, TS1, B, TN, incl, _ = cylinder_setup()
        bad = Morphism(
            "bad", TS1, B, list(incl.basemap), [[S1.coord("theta") + 1]]
        )
        assert not check_morphism(bad).passed

    def test_identity(self):
        g = cylinder_algebroid()
        assert check_morphism(identity_morphism(g)).passed


class TestPullbackForm:
    def test_identity_morphism(self):
        b = cylinder_algebroid()
        ident = identity_morphism(b)
        x = b.chart.coord("x")
        alpha = one_form(b, [x + 1])
        assert pullback_form(ident, alpha) == alpha

    def test_cylinder_coframe_pulls_to_dtheta(self):
        S1, N, TS1, B, TN, incl, _ = cylinder_setup()
        beta = one_form(B, [N.one()])
        assert pullback_form(incl, beta) == one_form(TS1, [S1.one()])

    def test_chain_map_on_coordinates(self):
        # pull-back of d(h) equals d(h o phi) for target coordinates
        S1, N, TS1, B, TN, incl, b_in_tn = cylinder_setup()
        for phi in (incl, b_in_tn):
            for coord in phi.target.chart.coords:
                h = phi.target.chart.coord(coord)
                lhs = pullback_form(phi, d_A(function_form(phi.target, h)))
                rhs = d_A(function_form(phi.source, phi.pull_scalar(h)))
                assert (lhs - rhs).is_zero()

    def test_chain_map_on_random_low_degree_forms(self):
        import random

        from algebroids.core import FormField
        from itertools import combinations

        rng = random.Random(21)
        S1, N, TS1, B, TN, incl, b_in_tn = cylinder_setup()
        M3 = Chart("M3", ("theta", "x", "t"), (True, False, False))
        tm3 = tangent_algebroid(M3)
        tproj = Morphism(
            "Tpr",
            tm3,
            TN,
            [M3.coord("theta"), M3.coord("x")],
            [
                [M3.one(), M3.zero(), M3.zero()],
                [M3.zero(), M3.one(), M3.zero()],
            ],
        )
        for phi in (incl, b_in_tn, tproj):
            tgt = phi.target
            for deg in (0, 1, 2):
                if deg > tgt.rank:
                    continue
                for _ in range(3):
                    comps = {}
                    for key in combinations(range(tgt.rank), deg):
                        f = tgt.chart.const(rng.randint(-3, 3))
                        for cname, per in zip(tgt.chart.coords, tgt.chart.periodic):
                            c = tgt.chart.coord(cname)
                            f = f * (cos(c) if per and rng.random() < 0.5 else 1)
                            if not per and rng.random() < 0.5:
                                f = f * c
                        comps[key] = f
                    beta = FormField(tgt, deg, comps)
                    lhs = pullback_form(phi, d_A(beta))
                    rhs = d_A(pullback_form(phi, beta))
                    assert (lhs - rhs).is_zero()

    def test_pullback_functorial_for_composites(self):
        # pulling back along a composite equals pulling back in two steps
        S1, N, TS1, B, TN, incl, b_in_tn = cylinder_setup()
        comp = compose(b_in_tn, incl)
        x, th = N.coord("x"), N.coord("theta")
        betas = [
            one_form(TN, [x, N.one()]),
            one_form(TN, [cos(th), x * x]),
            FormField(TN, 2, {(0, 1): x + 1}),
        ]
        for beta in betas:
            two_step = pullback_form(incl, pullback_form(b_in_tn, beta))
            one_step = pullback_form(comp, beta)
            assert (two_step - one_step).is_zero()

    def test_degree_two_minors(self):
        N = Chart("N", ("u", "v"))
        M = Chart("M", ("x", "y"))
        TN, TM = tangent_algebroid(N), tangent_algebroid(M)
        x, y = M.coord("x"), M.coord("y")
        # phi(x, y) = (x*y, y); fiber = Jacobian
        phi = Morphism("phi", TM, TN, [x * y, y], [[y, x], [M.zero(), M.one()]])
        assert check_morphism(phi).passed
        vol = FormField(TN, 2, {(0, 1): N.one()})
        pulled = pullback_form(phi, vol)
        assert pulled == FormField(TM, 2, {(0, 1): y})


@st.composite
def linear_basemaps(draw, chart):
    """The identity of the chart, or x_j -> x_j + sum_k q_jk x_k with the
    slopes that keep the map global: integer from a periodic source
    coordinate into a periodic one, none from a periodic coordinate into
    a non-periodic one."""
    coords = [chart.coord(c) for c in chart.coords]
    if draw(st.booleans()):
        return coords
    slopes = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
    images = []
    for j, per in enumerate(chart.periodic):
        image = coords[j]
        for k, per_k in enumerate(chart.periodic):
            q = draw(slopes)
            if k == j or (per_k and (not per or q != int(q))):
                continue
            image = image + q * coords[k]
        images.append(image)
    return images


@st.composite
def morphisms(draw, algebroids=frame_algebroids()):
    """A bundle map into an algebroid B of ``algebroids`` (by default a
    frame algebroid, whose structure functions are in general not constant): the identity of B, the anchor of B as a map to
    the tangent algebroid (both morphisms), or a random fiber from B or
    from the tangent algebroid into B over an identity or rational-linear
    base map (in general not a morphism)."""
    b = draw(algebroids)
    chart = b.chart
    tm = tangent_algebroid(chart)
    kind = draw(st.sampled_from(["identity", "anchor", "random", "random", "random"]))
    event(kind)
    if kind == "identity":
        return identity_morphism(b)
    if kind == "anchor":
        return base_preserving_morphism("rho", b, tm, [list(col) for col in zip(*b.anchor)])
    src = draw(st.sampled_from([b, tm]))
    fiber = [
        [draw(coeffs(chart)) if draw(st.integers(0, 2)) else chart.zero() for _ in range(src.rank)]
        for _ in range(b.rank)
    ]
    return Morphism("phi", src, b, draw(linear_basemaps(chart)), fiber)


def check_morphism_matches_the_reference(phis):
    """The property, over the morphisms ``phis`` draws, that the closed
    chain-map form gives the report of the generic calculus."""

    @pytest.mark.deep
    @settings(deadline=None)
    @given(phis)
    def test(self, phi):
        rep = check_morphism(phi)
        event("morphism" if rep.passed else "not a morphism")
        assert rep.to_dict() == reference_check_morphism(phi).to_dict()

    return test


class TestClosedForm:
    test_check_morphism_matches_the_reference = check_morphism_matches_the_reference(morphisms())
    # zero anchor rows and constant anchor entries on both sides
    test_sparse_rows_match_the_reference = check_morphism_matches_the_reference(morphisms(sparse_algebroids()))


class TestPullOnce:
    """Within one call each target function is composed with the base map
    once, on first use."""

    @staticmethod
    def _count_substitutions(monkeypatch, call, *args):
        count = 0
        pull = ChartMap.pull

        def counting(self, *a, **k):
            nonlocal count
            count += 1
            return pull(self, *a, **k)

        monkeypatch.setattr(ChartMap, "pull", counting)
        out = call(*args)
        monkeypatch.undo()
        return out, count

    def test_each_target_function_is_pulled_once_per_call(self, monkeypatch):
        N = Chart("N", ("u", "v"))
        M = Chart("M", ("x", "y"))
        TN, TM = tangent_algebroid(N), tangent_algebroid(M)
        x, y = M.coord("x"), M.coord("y")
        phi = Morphism("phi", TM, TN, [x * y, y], [[y, x], [M.zero(), M.one()]])
        psi = base_preserving_morphism("psi", TN, TN, [[N.const(1), N.const(2)], [N.const(3), N.const(4)]])
        # the 2 non-zero anchor entries of TN, each met by a non-zero fiber
        # entry; TN has no structure functions, and the closed chain-map
        # form composes nothing else (no constant 1 of a coframe form)
        rep, count = self._count_substitutions(monkeypatch, check_morphism, phi)
        assert rep.passed and count == 2
        # the 2 base map components of psi, then its 4 fiber entries
        _, count = self._count_substitutions(monkeypatch, compose, psi, phi)
        assert count == 2 + 4
        # u is needed for both source keys, v for one
        beta = one_form(TN, [N.coord("u"), N.coord("v")])
        pulled, count = self._count_substitutions(monkeypatch, pullback_form, phi, beta)
        assert count == 2
        assert pulled == one_form(TM, [x * y * y, x * x * y + y])

    def test_each_structure_function_is_pulled_once_per_call(self, monkeypatch):
        # a bundle of Lie algebras over N with [e1, e2] = u e1 + v e2, and a
        # rank-3 source whose three 2x2 fiber minors are all non-zero
        N = Chart("N", ("u", "v"))
        M = Chart("M", ("x", "y"))
        u, v = N.coord("u"), N.coord("v")
        x, y = M.coord("x"), M.coord("y")
        tgt = AlgebroidPresentation("L", N, ("e1", "e2"), [[N.zero()] * 2] * 2, {(0, 1): {0: u, 1: v}})
        src = AlgebroidPresentation("S", M, ("a", "b", "c"), [[M.zero()] * 2] * 3)
        phi = Morphism("phi", src, tgt, [x * y, y], [[M.one(), x, M.zero()], [y, M.one(), x]])
        # no anchor entry of L (all zero), then C^1_12 and C^2_12 once each:
        # one composition per pulled (u, v, t), though each meets three minors
        rep, count = self._count_substitutions(monkeypatch, check_morphism, phi)
        assert not rep.passed and count == 2

    def test_each_representation_entry_is_pulled_once_per_call(self, monkeypatch):
        N = Chart("N", ("u", "v"))
        M = Chart("M", ("x", "y"))
        TN, TM = tangent_algebroid(N), tangent_algebroid(M)
        x, y = M.coord("x"), M.coord("y")
        # the tangent map of (x, y) -> (x y, y); the entry u of du meets the
        # non-zero fiber entries y and x, one per source frame index
        phi = Morphism("phi", TM, TN, [x * y, y], [[y, x], [M.zero(), M.one()]])
        d = Representation(TN, ("eps",), [[[N.coord("u")]], [[N.coord("v")]]])
        pulled, count = self._count_substitutions(monkeypatch, pullback_rep, phi, d)
        assert count == 2
        assert pulled.mats == (((x * y * y,),), ((x * x * y + y,),))


class TestPullbackRep:
    def test_trivial_pulls_to_trivial(self):
        S1, N, TS1, B, TN, incl, _ = cylinder_setup()
        t = trivial_rep(B, ("eps",))
        assert pullback_rep(incl, t).mats == trivial_rep(TS1, ("eps",)).mats

    def test_identity_pullback(self):
        b = cylinder_algebroid()
        x = b.chart.coord("x")
        d = Representation(b, ("eps",), [[[x]]])
        assert pullback_rep(identity_morphism(b), d).mats == d.mats

    def test_char_commutes_with_pullback(self):
        S1, N, TS1, B, TN, incl, _ = cylinder_setup()
        tphi = Morphism(
            "Tphi", TS1, TN, [S1.coord("theta"), S1.zero()], [[S1.one()], [S1.zero()]]
        )
        f = sin(N.coord("theta")) + N.coord("x") ** 2
        mats = [[[TN.rho_apply(i, f)]] for i in range(TN.rank)]
        d = Representation(TN, ("eps",), mats)
        lam = LineSection(N.one())
        pulled = pullback_rep(tphi, d)
        lhs = char_cocycle(pulled, LineSection(S1.one()))
        rhs = pullback_form(tphi, char_cocycle(d, lam))
        assert (lhs - rhs).is_zero()


    def test_char_of_the_pullback_reads_its_held_curvature(self, monkeypatch):
        """pullback_rep certifies flatness by computing the pulled
        curvature, which the pulled representation holds: char_cocycle with
        the unit section forms no curvature entry and takes no d_A."""
        import algebroids.reps as reps

        N = Chart("N", ("theta", "x"), (True, False))
        x = N.coord("x")
        frame, incl = subalgebroid_from_vector_fields("F", N, [[N.one(), N.zero()], [x, N.one()]])
        tn = incl.target
        f = sin(N.coord("theta")) + x * x
        d = Representation(tn, ("eps",), [[[tn.rho_apply(i, f)]] for i in range(tn.rank)])
        pulled = pullback_rep(incl, d)
        calls = []

        def counting(name):
            real = getattr(reps, name)

            def call(*args):
                calls.append(name)
                return real(*args)

            return call

        for name in ("d_A", "lincomb"):
            monkeypatch.setattr(reps, name, counting(name))
        alpha = char_cocycle(pulled, LineSection(N.one()))
        assert calls == []
        assert alpha == pullback_form(incl, char_cocycle(d, LineSection(N.one())))
        assert check_flat(pulled).passed

    def test_pullback_that_is_not_flat_is_refused(self):
        R2 = Chart("R2", ("x", "y"))
        tm = tangent_algebroid(R2)
        d = Representation(tm, ("eps",), [[[R2.coord("y")]], [[R2.zero()]]])  # curvature d(y dx)
        with pytest.raises(RepresentationError, match="^pull-back of D along id is not flat; "):
            pullback_rep(identity_morphism(tm, "id"), d)


def sections(a, data):
    """A trivialization of ``a``: the canonical one, or unit sections drawn
    from ``data``."""
    if data.draw(st.booleans()):
        return triv(a)
    return Trivialization(
        top_multivector(a, data.draw(units(a.chart))),
        top_form(tangent_algebroid(a.chart), data.draw(units(a.chart))),
    )


@st.composite
def anchors(draw, algebroids=frame_algebroids()):
    """The anchor of an algebroid of ``algebroids``, a morphism into the
    tangent algebroid."""
    b = draw(algebroids)
    return base_preserving_morphism("rho", b, tangent_algebroid(b.chart), [list(col) for col in zip(*b.anchor)])


class TestRelativeModular:
    @pytest.mark.deep
    @settings(max_examples=examples(40), deadline=None)
    @given(st.one_of(morphisms(), anchors()), st.data())
    def test_is_the_difference_of_the_held_cocycles(self, phi, data):
        """relative_modular is mod_src - pullback_form(phi, mod_tgt), refused
        when that is not closed; when the pull-back is zero it is the source
        cocycle the trivialization holds."""
        sec_s, sec_t = sections(phi.source, data), sections(phi.target, data)
        pulled = pullback_form(phi, sec_t.modular)
        want = sec_s.modular - pulled
        closed = d_A(want).is_zero()
        event(("shortcut" if pulled.is_zero() else "difference") + ("" if closed else ", refused"))
        if not closed:
            with pytest.raises(MorphismError, match="relative modular cocycle not closed"):
                relative_modular(phi, sec_s, sec_t)
            return
        got = relative_modular(phi, sec_s, sec_t)
        assert got == want
        assert (got is sec_s.modular) == pulled.is_zero()

    @pytest.mark.deep
    @settings(max_examples=examples(40), deadline=None)
    @given(st.one_of(frame_algebroids(), sparse_algebroids()), st.data())
    def test_line_rep_holds_the_fresh_curvature(self, a, data):
        d = sections(a, data).line_rep
        assert "curvature" in d.__dict__ and d.is_flat()
        assert dict(d.curvature) == fresh_curvature(d)

    @pytest.mark.deep
    @settings(max_examples=examples(30), deadline=None)
    @given(st.one_of(morphisms(), morphisms(sparse_algebroids()), anchors()), st.data())
    def test_pullback_and_chain_map_tables_equal_the_validated_ones(self, phi, data):
        degree = data.draw(st.integers(0, phi.target.rank))
        beta = FormField(phi.target, degree, {
            key: data.draw(coeffs(phi.target.chart)) if data.draw(st.booleans()) else phi.target.chart.zero()
            for key in combinations(range(phi.target.rank), degree)
        })
        with checked_trusted() as built:
            pullback_form(phi, beta)
            check_morphism(phi)
        assert built

    def test_a_tangent_target_takes_no_d_A_and_no_curvature(self, monkeypatch):
        """With unit sections the tangent target's modular cocycle is zero:
        relative_modular returns the held source cocycle, and the relative
        representation holds its vanishing curvature, so the dphi identity
        computes only the pulled dual's curvature."""
        import algebroids.morphisms as morphisms
        import algebroids.reps as reps

        R2 = Chart("R2", ("x", "y"))
        x = R2.coord("x")
        b, incl = subalgebroid_from_vector_fields("F", R2, [[exp(x), R2.zero()], [R2.zero(), R2.one()]])
        sec_b, sec_t = triv(b), triv(incl.target)
        d_A_calls, curvatures = [], []
        monkeypatch.setattr(morphisms, "d_A", lambda alpha: d_A_calls.append(alpha))
        curvature = Representation.curvature.func
        monkeypatch.setattr(Representation.curvature, "func", lambda d: curvatures.append(d) or curvature(d))
        rel = relative_modular(incl, sec_b, sec_t)
        assert rel is sec_b.modular and not rel.is_zero()
        d = relative_canonical_rep(incl, sec_b, sec_t)
        assert (char_cocycle(d, LineSection(R2.one())) - rel).is_zero()
        assert d_A_calls == []
        assert [c.name for c in curvatures] == [f"{incl.name}!D^TR2*"]
        assert check_flat(d).passed

    def test_identity_is_zero(self):
        b = cylinder_algebroid()
        assert relative_modular(identity_morphism(b), triv(b), triv(b)).is_zero()

    def test_cylinder_counterexample(self):
        S1, N, TS1, B, TN, incl, _ = cylinder_setup()
        rel = relative_modular(incl, triv(TS1), triv(B))
        assert rel == one_form(TS1, [S1.const(-1)])

    def test_rescaled_isomorphism_relmod_is_exact(self):
        # an isomorphism whose relative cocycle is d(x), hence class zero
        N = Chart("N", ("theta", "x"), (True, False))
        B = cylinder_algebroid(N)
        x = N.coord("x")
        A = AlgebroidPresentation(
            "A", N, ("b'",), [[exp(x), x * exp(x)]]
        )
        phi = base_preserving_morphism("iso", A, B, [[exp(x)]])
        assert check_morphism(phi).passed
        rel = relative_modular(phi, triv(A), triv(B))
        prim = function_form(A, x)
        assert (rel - d_A(prim)).is_zero()

    def test_char_of_relative_rep_matches(self):
        S1, N, TS1, B, TN, incl, b_in_tn = cylinder_setup()
        for phi in (incl, b_in_tn):
            d = relative_canonical_rep(phi, triv(phi.source), triv(phi.target))
            assert check_flat(d).passed
            alpha = char_cocycle(d, LineSection(phi.source.chart.one()))
            rel = relative_modular(phi, triv(phi.source), triv(phi.target))
            assert (alpha - rel).is_zero()


    def test_each_trivialization_builds_its_cocycle_once(self, monkeypatch):
        """The rep and the cocycle of one pair read the cocycles the two
        trivializations hold: one `AlgebroidPresentation.modular` build per
        trivialization, held by it."""
        built = count_modular_builds(monkeypatch)
        S1, N, TS1, B, TN, incl, _ = cylinder_setup()
        sec_s, sec_t = triv(TS1), triv(B)
        d = relative_canonical_rep(incl, sec_s, sec_t)
        rel = relative_modular(incl, sec_s, sec_t)
        assert (char_cocycle(d, LineSection(S1.one())) - rel).is_zero()
        assert built == [TS1, B]
        assert sec_s.__dict__["modular"] is TS1.modular
        assert sec_t.__dict__["modular"] is B.modular
        assert sec_s.modular == Trivialization(*canonical_sections(TS1)).modular

    @pytest.mark.parametrize("build", [relative_modular, relative_canonical_rep])
    @pytest.mark.parametrize("wrong", ["source", "target"])
    def test_trivialization_of_another_algebroid_is_refused(self, build, wrong):
        S1, N, TS1, B, TN, incl, _ = cylinder_setup()
        sec_s, sec_t = triv(TS1), triv(B)
        if wrong == "source":
            sec_s = triv(B)
        else:
            sec_t = triv(TN)
        with pytest.raises(RepresentationError, match="omega must be a top multivector on the presentation"):
            build(incl, sec_s, sec_t)

    def test_trivialization_is_frozen(self):
        b = cylinder_algebroid()
        sec = triv(b)
        held = sec.modular
        with pytest.raises(FrozenInstanceError):
            sec.mu = canonical_sections(b)[1]
        with pytest.raises(FrozenInstanceError):
            sec.omega = canonical_sections(b)[0]
        assert sec.modular is held


class TestCompositionLaw:
    def test_with_identity(self):
        b = cylinder_algebroid()
        ident = identity_morphism(b)
        rep = check_composition_law(ident, ident, triv(b), triv(b), triv(b))
        assert rep.passed

    def test_cylinder_chain(self):
        S1, N, TS1, B, TN, incl, b_in_tn = cylinder_setup()
        rep = check_composition_law(incl, b_in_tn, triv(TS1), triv(B), triv(TN))
        assert rep.passed
        comp = compose(b_in_tn, incl)
        assert check_morphism(comp).passed
        # both tangent algebroids are unimodular, so the composite (it is the
        # tangent map of the inclusion) has zero relative cocycle and the law
        # reads 0 = -dtheta + pullback(dtheta)
        rel = relative_modular(comp, triv(TS1), triv(TN))
        assert rel.is_zero()


class TestRepMorphism:
    def test_canonical_projection(self):
        S1, N, TS1, B, TN, incl, _ = cylinder_setup()
        f = N.coord("x") + 1
        d = Representation(B, ("eps1", "eps2"), [[[B.chart.zero(), f], [B.chart.zero(), B.chart.zero()]]])
        assert check_flat(d).passed
        pulled = pullback_rep(incl, d)
        proj = [
            [S1.one() if i == j else S1.zero() for j in range(2)] for i in range(2)
        ]
        assert check_rep_morphism(proj, pulled, d, incl).passed

    def test_identity_bundle_map(self):
        b = cylinder_algebroid()
        x = b.chart.coord("x")
        d = Representation(b, ("eps",), [[[x]]])
        ident = identity_morphism(b)
        assert check_rep_morphism([[b.chart.one()]], d, d, ident).passed

    def test_global_sign_flip_still_intertwines(self):
        # -Psi is a morphism of representations whenever Psi is
        S1, N, TS1, B, TN, incl, _ = cylinder_setup()
        f = N.coord("x") + 1
        d = Representation(B, ("e1", "e2"), [[[B.chart.zero(), f], [B.chart.zero(), B.chart.zero()]]])
        pulled = pullback_rep(incl, d)
        flipped = [
            [-S1.one() if i == j else S1.zero() for j in range(2)] for i in range(2)
        ]
        assert check_rep_morphism(flipped, pulled, d, incl).passed

    def test_partial_sign_flip_with_coupling_fails(self):
        S1, N, TS1, B, TN, incl, _ = cylinder_setup()
        f = N.coord("x") + 1
        d = Representation(B, ("e1", "e2"), [[[B.chart.zero(), f], [B.chart.zero(), B.chart.zero()]]])
        pulled = pullback_rep(incl, d)
        bad = [
            [-S1.one(), S1.zero()],
            [S1.zero(), S1.one()],
        ]
        assert not check_rep_morphism(bad, pulled, d, incl).passed


@st.composite
def pulled_pairs(draw):
    """A base-preserving bundle map and a representation on its target
    (`line_sum_reps`, flat or perturbed): a `subalgebroid_from_vector_fields`
    inclusion into the tangent algebroid, the same inclusion with one fiber
    entry shifted by a constant (not a morphism), the identity of the
    subalgebroid, or a fiber drawn at random from the subalgebroid into
    the tangent algebroid (in general not a morphism)."""
    b, incl = draw(frame_inclusions())
    kind = draw(st.sampled_from(["inclusion", "inclusion", "identity", "shifted", "random"]))
    event(kind)
    chart = b.chart
    if kind == "inclusion":
        phi = incl
    elif kind == "identity":
        phi = identity_morphism(b)
    else:
        fiber = [list(row) for row in incl.fiber]
        if kind == "shifted":
            t, i = draw(st.integers(0, len(fiber) - 1)), draw(st.integers(0, b.rank - 1))
            fiber[t][i] = fiber[t][i] + chart.const(draw(st.sampled_from([1, -2, Fraction(1, 2)])))
        else:
            fiber = [[draw(coeffs(chart)) for _ in row] for row in fiber]
        phi = base_preserving_morphism(kind, b, incl.target, fiber)
    return phi, draw(line_sum_reps(st.just(phi.target)))


def exact_setup():
    """A frame subalgebroid of the tangent algebroid of R2 with its
    inclusion, and the exact line representation d_A(x e^y) on the tangent
    algebroid, which holds its vanishing curvature."""
    R2 = Chart("R2", ("x", "y"))
    x, y = R2.coord("x"), R2.coord("y")
    b, incl = subalgebroid_from_vector_fields("F", R2, [[exp(x), R2.zero()], [y, R2.one()]])
    tm = incl.target
    d = Representation(tm, ("eps",), [[[tm.rho_apply(i, x * exp(y))]] for i in range(tm.rank)])
    assert check_flat(d).passed
    return R2, b, incl, d


def shifted(phi):
    """``phi`` with its first fiber entry shifted by 1: not a morphism."""
    fiber = [list(row) for row in phi.fiber]
    fiber[0][0] = fiber[0][0] + 1
    return Morphism(phi.name + "~", phi.source, phi.target, list(phi.basemap), fiber)


# whether a check, or a curvature, is held before the pull-back: mostly
MOSTLY = st.sampled_from([True, True, True, False])


class TestHeldCheck:
    def test_a_morphism_is_frozen(self):
        *_, incl, _ = cylinder_setup()
        with pytest.raises(FrozenInstanceError):
            incl.fiber = ()
        with pytest.raises(FrozenInstanceError):
            incl.basemap = ()
        assert incl != Morphism(incl.name, incl.source, incl.target, incl.basemap, incl.fiber)

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_merges_and_repeated_checks_leave_the_held_report_as_it_was(self, corrupt):
        """check_morphism returns the report the morphism holds; merging it
        into another report, as the extension, diagram and pull-back checks
        do, and checking again change none of its items or notes."""
        *_, incl, _ = cylinder_setup()
        phi = shifted(incl) if corrupt else incl
        held = check_morphism(phi)
        items = [(i.label, i.ok, i.detail) for i in held.items]
        outer = CheckReport("outer")
        for prefix in ("incl: ", "proj: "):
            outer.merge(check_morphism(phi), prefix=prefix)
        outer.note("merged twice")
        assert outer.pretty() and len(outer.items) == 2 * len(items)
        assert check_morphism(phi) is held is phi.report
        assert [(i.label, i.ok, i.detail) for i in held.items] == items and held.notes == []
        assert held.passed is phi.checked() is (not corrupt)

    @pytest.mark.deep
    @settings(max_examples=examples(30), deadline=None)
    @given(pulled_pairs(), MOSTLY, MOSTLY)
    def test_a_carried_curvature_is_the_fresh_one(self, pair, check, hold):
        """A pull-back holds its curvature without computing it exactly when
        phi holds a passing check and d a vanishing curvature, and what it
        holds is the fresh curvature; otherwise pullback_rep computes the
        curvature, and refuses a pull-back that is not flat."""
        phi, d = pair
        if check:
            check_morphism(phi)
        if hold:
            d.curvature
        carried = phi.checked() and "curvature" in d.__dict__ and d.is_flat()
        with counting_curvatures() as computed:
            try:
                pulled = pullback_rep(phi, d)
            except RepresentationError:
                assert not carried and len(computed) == 1
                event("refused")
                return
        event("carried" if carried else "computed")
        assert computed == ([] if carried else [pulled])
        assert dict(pulled.curvature) == fresh_curvature(pulled)

    def test_after_a_passing_check_dphi_and_charpull_compute_no_curvature(self):
        """The dphi and charpull identities, as the identities workload
        states them, compute no curvature once check_morphism passed."""
        R2, b, incl, d = exact_setup()
        assert check_morphism(incl).passed
        sec_b, sec_t, lam = triv(b), triv(incl.target), LineSection(R2.one())
        with counting_curvatures() as computed:
            rel = relative_canonical_rep(incl, sec_b, sec_t)
            assert (char_cocycle(rel, lam) - relative_modular(incl, sec_b, sec_t)).is_zero()
            pulled = pullback_rep(incl, d)
            assert (char_cocycle(pulled, lam) - pullback_form(incl, char_cocycle(d, lam))).is_zero()
            assert check_flat(pulled).passed and check_flat(rel).passed
        assert computed == []

    def test_with_no_held_check_the_pull_back_computes_its_curvature(self):
        R2, b, incl, d = exact_setup()
        with counting_curvatures() as computed:
            pulled = pullback_rep(incl, d)
        assert computed == [pulled] and "report" not in incl.__dict__

    def test_a_failed_held_check_carries_nothing(self):
        """With a failed check held, pullback_rep computes the curvature: it
        holds it on a flat pull-back and refuses one that is not flat."""
        R2, b, incl, d = exact_setup()
        bad = shifted(incl)
        assert check_morphism(bad).passed is False
        tm, y = incl.target, R2.coord("y")
        flat_pull = Representation(tm, ("eps",), [[[tm.rho_apply(i, y * y)]] for i in range(tm.rank)])
        assert check_flat(flat_pull).passed
        with counting_curvatures() as computed:
            pulled = pullback_rep(bad, flat_pull)
            assert computed == [pulled] and check_flat(pulled).passed
            with pytest.raises(RepresentationError, match="^pull-back of D along F_in_T~ is not flat; "):
                pullback_rep(bad, d)
        assert len(computed) == 2


def corpus_relative_cocycles():
    """(morphism, source and target trivializations) of every morphism of
    the corpus scenarios whose pulled target cocycle is non-zero, with the
    trivializations a session at seed 0 reads, each morphism unchecked."""
    out = []
    for name in corpus_scenarios():
        session = Session(load_scenario(name), 0)
        for phi in session.sc.morphisms.values():
            sec_s, sec_t = session.trivialization(phi.source), session.trivialization(phi.target)
            if not pullback_form(phi, sec_t.modular).is_zero():
                out.append((phi, sec_s, sec_t))
    return out


class TestRelativeModularReadsTheHeldCheck:
    def test_a_held_passing_check_gives_the_same_cocycle_with_no_d_A(self, monkeypatch):
        """Unchecked, relative_modular takes one d_A; after check_morphism
        passed it takes none and returns the same cocycle."""
        import algebroids.morphisms as morphisms

        calls = []
        monkeypatch.setattr(morphisms, "d_A", lambda alpha: calls.append(alpha) or d_A(alpha))
        cases = corpus_relative_cocycles()
        assert [phi.name for phi, *_ in cases] == ["incl", "incl", "iso", "idB", "slice"]
        for phi, sec_s, sec_t in cases:
            unchecked = relative_modular(phi, sec_s, sec_t)
            assert len(calls) == 1
            assert check_morphism(phi).passed
            calls.clear()
            assert relative_modular(phi, sec_s, sec_t) == unchecked
            assert calls == []

    def test_a_failed_held_check_still_takes_the_d_A(self, monkeypatch):
        import algebroids.morphisms as morphisms

        S1, N, TS1, B, TN, incl, _ = cylinder_setup()
        bad = Morphism("bad", TS1, B, list(incl.basemap), [[S1.const(2)]])
        assert check_morphism(bad).passed is False
        calls = []
        monkeypatch.setattr(morphisms, "d_A", lambda alpha: calls.append(alpha) or d_A(alpha))
        relative_modular(bad, triv(TS1), triv(B))
        assert len(calls) == 1
