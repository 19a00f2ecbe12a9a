import json
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algebroids.extensions as extensions
from algebroids.cli import load_scenario
from algebroids.cohomology import AnsatzSpace, CocycleClass, classify
from algebroids.core import (
    AlgebroidPresentation,
    Multivector,
    check_axioms,
    one_form,
    same_presentation,
    tangent_algebroid,
    top_form,
)
from algebroids.extensions import (
    ExtensionPresentation,
    ImageClosureFailure,
    NotPoisson,
    UnimodularityFailure,
    adjoint_rep,
    check_extension,
    cotangent_algebroid,
    induced_rep,
    poisson_kit,
    quotient_top_rep,
    rational_multiple,
    span_subalgebroid,
    subalgebroid_from_vector_fields,
    top_rep,
    verify_constant_rank_identity,
    verify_extension_identity,
    verify_regular_poisson,
)
from algebroids.morphisms import base_preserving_morphism, identity_morphism
from algebroids.ratlinalg import RANK_SAMPLES, FrameSolveFailure
from algebroids.report import CheckItem
from algebroids.reps import LineSection, char_cocycle, check_flat
from algebroids.runner import Session
from algebroids.scenario import parse_scenario
from algebroids.symexpr import Chart, exp, sin

from conftest import (
    capture_sampled_points,
    count_modular_builds,
    count_sampling,
    frame_algebroids,
    reference_points,
    sparse_algebroids,
)


R1 = Chart("R1", ("x",))
R2 = Chart("R2", ("x", "y"))
R3 = Chart("R3", ("x", "y", "z"))
TXY = Chart("TXY", ("theta", "x", "y"), (True, False, False))


def assert_undecided_in_json(rep):
    """The JSON of an undecided report: `null` for it and its undecided items."""
    text = json.dumps(rep.to_dict())
    assert json.loads(text)["passed"] is None
    assert '"ok": null' in text


def abelian_kernel_extension():
    """Rank-1 abelian kernel over the plane, twisted brackets."""
    x, y = R2.coord("x"), R2.coord("y")
    zero, one = R2.zero(), R2.one()
    a = AlgebroidPresentation(
        "A",
        R2,
        ("X1", "X2", "K"),
        [[one, zero], [zero, one], [zero, zero]],
        {(0, 1): {2: x}, (0, 2): {2: y}, (1, 2): {2: x}},
    )
    c = AlgebroidPresentation("C", R2, ("k",), [[zero, zero]])
    b = tangent_algebroid(R2)
    incl = base_preserving_morphism("i", c, a, [[zero], [zero], [one]])
    proj = base_preserving_morphism(
        "p", a, b, [[one, zero, zero], [zero, one, zero]]
    )
    return ExtensionPresentation(c, a, b, incl, proj, LineSection(one))


def so3_kernel_extension():
    x = R1.coord("x")
    zero, one = R1.zero(), R1.one()
    a = AlgebroidPresentation(
        "A",
        R1,
        ("X", "K1", "K2", "K3"),
        [[one], [zero], [zero], [zero]],
        {
            (1, 2): {3: one},
            (2, 3): {1: one},
            (1, 3): {2: -one},
            (0, 2): {3: x},
            (0, 3): {2: -x},
        },
    )
    c = AlgebroidPresentation(
        "C",
        R1,
        ("k1", "k2", "k3"),
        [[zero], [zero], [zero]],
        {(0, 1): {2: one}, (1, 2): {0: one}, (0, 2): {1: -one}},
    )
    b = tangent_algebroid(R1)
    incl = base_preserving_morphism(
        "i", c, a, [[zero] * 3, [one, zero, zero], [zero, one, zero], [zero, zero, one]]
    )
    proj = base_preserving_morphism("p", a, b, [[one, zero, zero, zero]])
    return ExtensionPresentation(c, a, b, incl, proj, LineSection(one))


def aff1_kernel_extension():
    zero, one = R1.zero(), R1.one()
    a = AlgebroidPresentation(
        "A",
        R1,
        ("X", "k1", "k2"),
        [[one], [zero], [zero]],
        {(1, 2): {2: one}},
    )
    c = AlgebroidPresentation(
        "C", R1, ("k1", "k2"), [[zero], [zero]], {(0, 1): {1: one}}
    )
    b = tangent_algebroid(R1)
    incl = base_preserving_morphism("i", c, a, [[zero, zero], [one, zero], [zero, one]])
    proj = base_preserving_morphism("p", a, b, [[one, zero, zero]])
    return ExtensionPresentation(c, a, b, incl, proj, LineSection(one))


class TestExtensionData:
    @pytest.mark.parametrize("samples", [RANK_SAMPLES, 200])
    def test_sampling_work_is_one_pass_per_entry(self, monkeypatch, samples):
        # one ScalarFn.evaluate per non-zero entry of the two sampled
        # matrices and one float_rank per matrix, whatever the sample count:
        # the library's count and a larger one patched in
        import algebroids.ratlinalg as ratlinalg

        ext = so3_kernel_extension()
        monkeypatch.setattr(ratlinalg, "RANK_SAMPLES", samples)
        rep, counts = count_sampling(monkeypatch, check_extension, ext)
        assert rep.passed
        entries = [f for phi in (ext.incl, ext.proj) for row in phi.fiber for f in row]
        assert counts["evaluate"] <= sum(not f.is_zero() for f in entries)
        assert counts["float_rank"] == 2

    def test_draws_the_pinned_points(self, monkeypatch):
        ext = so3_kernel_extension()
        batches = capture_sampled_points(monkeypatch, extensions, check_extension, ext, seed=3)
        assert batches == [reference_points(ext.chart, 3, RANK_SAMPLES)] * 2

    def test_abelian_extension_validates(self):
        ext = abelian_kernel_extension()
        assert check_axioms(ext.total).passed
        assert check_extension(ext).passed

    def test_so3_extension_validates(self):
        ext = so3_kernel_extension()
        assert check_axioms(ext.total).passed
        assert check_extension(ext).passed

    def test_aff1_kernel_invariance_fails(self):
        ext = aff1_kernel_extension()
        assert check_axioms(ext.total).passed
        rep = check_extension(ext)
        assert not rep.passed


class TestAdjointAndTop:
    def test_abelian_adjoint_reads_off_mixed_brackets(self):
        ext = abelian_kernel_extension()
        adj = adjoint_rep(ext)
        x, y = R2.coord("x"), R2.coord("y")
        assert adj.mats[0][0][0] == y
        assert adj.mats[1][0][0] == x
        assert adj.mats[2][0][0].is_zero()
        assert check_flat(adj).passed

    def test_kernel_directions_act_by_kernel_adjoint(self):
        ext = so3_kernel_extension()
        adj = adjoint_rep(ext)
        # the K1 direction acts on the kernel exactly by the kernel bracket
        for s in range(3):
            for t in range(3):
                assert adj.mats[1][t][s] == ext.kernel.c(0, s, t)

    def test_unclosed_image_raises(self):
        # k included as X1: [X2, X1] = -x K leaves the image
        ext = abelian_kernel_extension()
        zero, one = R2.zero(), R2.one()
        ext = replace(ext, incl=base_preserving_morphism("i", ext.kernel, ext.total, [[one], [zero], [zero]]))
        with pytest.raises(ImageClosureFailure):
            adjoint_rep(ext)

    def test_so3_top_rep_traces_vanish(self):
        ext = so3_kernel_extension()
        topk = top_rep(ext)
        assert all(topk.mats[j][0][0].is_zero() for j in range(ext.total.rank))

    def test_aff1_unimodularity_failure(self):
        ext = aff1_kernel_extension()
        with pytest.raises(UnimodularityFailure):
            top_rep(ext)
        # any other unit section fails too
        ext2 = replace(aff1_kernel_extension(), lam=LineSection(3 * exp(R1.coord("x"))))
        with pytest.raises(UnimodularityFailure):
            top_rep(ext2)

    def test_a_replaced_extension_checks_its_own_section(self):
        # the held representation belongs to one extension: a replaced
        # section is checked again, and a failed check holds nothing
        ext = aff1_kernel_extension()
        with pytest.raises(UnimodularityFailure):
            ext.top
        with pytest.raises(UnimodularityFailure):
            replace(ext, lam=LineSection(3 * exp(R1.coord("x")))).top

    def test_fields_cannot_be_assigned(self):
        # a field assignment would leave the held representations stale
        ext = so3_kernel_extension()
        assert ext.top is ext.top
        with pytest.raises(FrozenInstanceError):
            ext.lam = LineSection(3 * exp(R1.coord("x")))

    def test_held_representations_build_the_adjoint_action_once(self, monkeypatch):
        calls = []
        real = extensions.adjoint_rep

        def counting(ext):
            calls.append(ext)
            return real(ext)

        monkeypatch.setattr(extensions, "adjoint_rep", counting)
        ext = so3_kernel_extension()
        assert ext.eta is ext.eta and ext.top is ext.top
        assert verify_extension_identity(ext, AnsatzSpace(ext.chart)).passed
        assert calls == [ext]


class TestInducedRep:
    def test_abelian_descends_to_closed_form(self):
        ext = abelian_kernel_extension()
        d = induced_rep(ext)
        x, y = R2.coord("x"), R2.coord("y")
        eta = char_cocycle(d, ext.lam)
        assert eta == one_form(ext.quotient, [y, x])

    def test_section_independence(self):
        # the rho_B(lam)/lam term cancels what the lifted anchors add, so a
        # non-constant unit section descends to the same representation
        ext = abelian_kernel_extension()
        base = induced_rep(ext)
        ext = replace(ext, lam=LineSection(3 * exp(R2.coord("x") - R2.coord("y"))))
        assert induced_rep(ext).mats == base.mats


class TestExtensionIdentity:
    def test_abelian_exact_cochain(self):
        ext = abelian_kernel_extension()
        rep = verify_extension_identity(ext, AnsatzSpace(R2))
        assert rep.passed
        theta, eta = rep.data["theta"], rep.data["eta"]
        x, y = R2.coord("x"), R2.coord("y")
        assert theta == one_form(ext.total, [y, x, R2.zero()])
        # the class vanishes on the simply-connected chart
        cls = classify(theta, AnsatzSpace(R2, degree=3))
        assert cls.status == "exact"

    def test_theta_closed_reads_the_certified_closedness(self, monkeypatch):
        """relative_modular certifies theta closed (or raises), so the item
        passes with no d_A of its own; here the quotient is a tangent
        algebroid with unit sections, so theta is the total algebroid's held
        modular cocycle and no d_A runs at all."""
        import algebroids.morphisms as morphisms

        calls = []
        real = morphisms.d_A
        monkeypatch.setattr(morphisms, "d_A", lambda alpha: calls.append(alpha) or real(alpha))
        ext = abelian_kernel_extension()
        rep = verify_extension_identity(ext, AnsatzSpace(R2))
        assert rep.items[0] == CheckItem("theta closed", True, "")
        assert calls == []

    def test_so3_exact_cochain(self):
        ext = so3_kernel_extension()
        rep = verify_extension_identity(ext, AnsatzSpace(ext.chart))
        assert rep.passed

    def test_zero_kernel_both_sides_vanish(self):
        # trivial extension of a tangent algebroid by the zero algebroid
        b = tangent_algebroid(R2)
        c = AlgebroidPresentation("C0", R2, (), [])
        incl = base_preserving_morphism("i", c, b, [[] for _ in range(b.rank)])
        ext = ExtensionPresentation(
            c, b, b, incl, identity_morphism(b), LineSection(R2.one())
        )
        rep = verify_extension_identity(ext, AnsatzSpace(R2))
        assert rep.passed
        assert rep.data["theta"].is_zero()
        assert rep.data["eta"].is_zero()

    def test_incompatible_sections_fall_back_to_class_level(self):
        ext = abelian_kernel_extension()
        mu = top_form(ext.quotient, exp(R2.coord("x")))
        rep = verify_extension_identity(ext, mu_quotient=mu, ansatz=AnsatzSpace(R2, degree=3))
        assert rep.items == [
            CheckItem("theta closed", True, ""),
            CheckItem("class identity theta ~ proj^*(eta)", True, "cohomologous"),
        ]
        assert rep.notes == ["sections compatible (rational multiple): not proportional; class-level check"]
        # the section dual to mu has coefficient exp(-x), which adds dx
        x, y = R2.coord("x"), R2.coord("y")
        assert rep.data["theta"] == one_form(ext.total, [1 + y, x, R2.zero()])

    def test_scenario_mu_reaches_the_class_level_in_the_session_space(self, monkeypatch):
        # a non-constant mu of an extension block makes the sections
        # incompatible; the class identity is decided in the session's space
        text = (Path(extensions.__file__).parent / "corpus" / "extension_rank1.scn").read_text()
        session = Session(parse_scenario(text.replace("  lambda = 1\n", "  lambda = 1\n  mu = exp(x)\n"), "mu"), 0)
        spaces = []
        real = extensions.cohomologous

        def recording(alpha, beta, space, seed=0):
            spaces.append(space)
            return real(alpha, beta, space, seed=seed)

        monkeypatch.setattr(extensions, "cohomologous", recording)
        rep = session.extension_identity("EXT")
        assert rep.items[1:] == [CheckItem("class identity theta ~ proj^*(eta)", True, "cohomologous")]
        assert rep.notes == ["sections compatible (rational multiple): not proportional; class-level check"]
        assert spaces == [session.ansatz(session.sc.extensions["EXT"].chart)]

    def test_an_undecided_class_identity_leaves_the_report_undecided(self):
        # exp(x) mu adds dx to theta, whose primitive x a degree-0 space lacks
        ext = abelian_kernel_extension()
        mu = top_form(ext.quotient, exp(R2.coord("x")))
        rep = verify_extension_identity(ext, mu_quotient=mu, ansatz=AnsatzSpace(R2, degree=0))
        assert rep.items[-1] == CheckItem("class identity theta ~ proj^*(eta)", None, "unknown_in_ansatz")
        assert rep.passed is None
        assert_undecided_in_json(rep)


class TestRationalMultiple:
    def test_integral_coefficients_give_an_exact_fraction(self):
        # every coefficient is an int; their quotient must not be a float
        tm = tangent_algebroid(R2)
        x, y = R2.coord("x"), R2.coord("y")
        y3 = Multivector(tm, 1, {(0,): 3 * x, (1,): 6 * y})
        unit = Multivector(tm, 1, {(0,): x, (1,): 2 * y})
        third = rational_multiple(unit, y3)
        assert type(third) is Fraction and third == Fraction(1, 3)
        three = rational_multiple(y3, unit)
        assert type(three) is Fraction and three == 3
        assert rational_multiple(unit.scale(Fraction(-5, 7)), unit) == Fraction(-5, 7)

    def test_no_multiple(self):
        tm = tangent_algebroid(R2)
        x, y = R2.coord("x"), R2.coord("y")
        a = Multivector(tm, 1, {(0,): x, (1,): y})
        b = Multivector(tm, 1, {(0,): x, (1,): 2 * y})
        assert rational_multiple(a, b) is None
        assert rational_multiple(Multivector(tm, 1, {}), a) == 0
        assert rational_multiple(a, Multivector(tm, 1, {})) is None


class TestSubalgebroidFromVectorFields:
    def test_non_involutive_family_raises(self):
        # [d/dx, d/dy + x d/dz] = d/dz is not in the span
        zero, one, x = R3.zero(), R3.one(), R3.coord("x")
        with pytest.raises(FrameSolveFailure, match="inconsistent"):
            subalgebroid_from_vector_fields("B", R3, [[one, zero], [zero, one], [zero, x]])

    def test_non_unit_pivot_raises(self):
        zero, one, x = R2.zero(), R2.one(), R2.coord("x")
        with pytest.raises(FrameSolveFailure, match="no unit pivot"):
            subalgebroid_from_vector_fields("B", R2, [[one, zero], [zero, x]])

    def test_single_section_solves_nothing(self):
        # one vector field with a non-unit entry is involutive: no pairs
        x = R2.coord("x")
        b, _ = subalgebroid_from_vector_fields("B", R2, [[x], [x]])
        assert b.rank == 1 and b.structure == {}


class TestSpanSubalgebroid:
    @pytest.mark.deep
    @settings(deadline=None)
    @given(st.one_of(frame_algebroids(), sparse_algebroids()))
    def test_own_frame_spans_the_ambient(self, a):
        chart = a.chart
        frame = [[chart.one() if u == t else chart.zero() for t in range(a.rank)] for u in range(a.rank)]
        sub, incl = span_subalgebroid("S", a, frame, "s", "S_in_A")
        assert same_presentation(sub, a)
        assert incl.source is sub and incl.target is a

    def test_poisson_kernel_keeps_the_anchor_of_its_columns(self):
        # dx is not in the kernel of the sharp map of dx^dy: its anchor is d/dy
        one, zero = R2.one(), R2.zero()
        pi = Multivector(tangent_algebroid(R2), 2, {(0, 1): one})
        kit = poisson_kit(pi, image_columns=[[one, zero], [zero, one]], kernel_columns=[[one], [zero]])
        assert kit.ext.kernel.anchor == ((zero, one),)
        items = {i.label: i.ok for i in check_extension(kit.ext).items}
        assert items["kernel totally intransitive"] is False
        assert items["incl: anchor: k1 vs y"] is True


class TestQuotientTopRep:
    def test_empty_complement_gives_the_zero_rep(self):
        tm = tangent_algebroid(R2)
        dq = quotient_top_rep(identity_morphism(tm), [[] for _ in range(tm.rank)])
        assert [m[0][0] for m in dq.mats] == [R2.zero(), R2.zero()]

    def test_projects_onto_the_complement_block(self):
        # [d/dx, d/dx + e^x d/dy] = -b + w: the trace reads the w coefficient
        zero, one, x = R2.zero(), R2.one(), R2.coord("x")
        _, b_in_tm = subalgebroid_from_vector_fields("B", R2, [[one], [zero]])
        dq = quotient_top_rep(b_in_tm, [[one], [exp(x)]])
        assert dq.mats[0][0][0] == one

    def test_twisted_complement(self):
        # [d/dx + y d/dy, d/dy] = -d/dy
        zero, one, y = R2.zero(), R2.one(), R2.coord("y")
        _, b_in_tm = subalgebroid_from_vector_fields("B", R2, [[one], [y]])
        dq = quotient_top_rep(b_in_tm, [[zero], [one]])
        assert dq.mats[0][0][0] == -one


class TestConstantRankIdentity:
    def test_transitive_algebroid_over_plane(self):
        ext = abelian_kernel_extension()
        a = ext.total
        tm = tangent_algebroid(R2)
        one, zero = R2.one(), R2.zero()
        anchor_morphism = base_preserving_morphism(
            "rho", a, tm, [[one, zero, zero], [zero, one, zero]]
        )
        rep = verify_constant_rank_identity(
            anchor_morphism,
            ext,
            identity_morphism(tm),
            [[] for _ in range(tm.rank)],
            ansatz=AnsatzSpace(R2, degree=3),
        )
        assert rep.passed
        # unimodular isotropy over a contractible chart: class must vanish
        cls = classify(rep.data["mod_phi"], AnsatzSpace(R2, degree=3))
        assert cls.status == "exact"

    def test_one_modular_cocycle_per_distinct_algebroid(self, monkeypatch):
        """The quotient is the ambient algebroid itself (as in
        extension_rank1.scn): its canonical modular cocycle is built once,
        and the total algebroid's once."""
        built = count_modular_builds(monkeypatch)
        ext = abelian_kernel_extension()
        tm = ext.quotient
        rep = verify_constant_rank_identity(ext.proj, ext, identity_morphism(tm), [[] for _ in range(tm.rank)], AnsatzSpace(R2, degree=3))
        assert rep.passed
        assert built == [ext.total, tm]

    def test_isomorphism_case(self):
        b = tangent_algebroid(R2)
        zero, one = R2.zero(), R2.one()
        c = AlgebroidPresentation("C0", R2, (), [])
        incl = base_preserving_morphism("i", c, b, [[] for _ in range(b.rank)])
        ext = ExtensionPresentation(
            c, b, b, incl, identity_morphism(b), LineSection(one)
        )
        rep = verify_constant_rank_identity(
            identity_morphism(b),
            ext,
            identity_morphism(b),
            [[] for _ in range(b.rank)],
            AnsatzSpace(R2),
        )
        assert rep.passed
        assert rep.data["eta_k"].is_zero()
        assert rep.data["eta_q"].is_zero()

    def test_proper_inclusion_with_a_nonzero_cokernel_class(self):
        # B spanned by d/dx + y d/dy, cokernel framed by d/dy: [b1, d/dy] =
        # -d/dy, so eta_q = -b1*, and the modular cocycle of B is +b1*
        zero, one, y = R2.zero(), R2.one(), R2.coord("y")
        b, b_in_tm = subalgebroid_from_vector_fields("B", R2, [[one], [y]])
        c = AlgebroidPresentation("C0", R2, (), [])
        incl = base_preserving_morphism("i", c, b, [[] for _ in range(b.rank)])
        ext = ExtensionPresentation(c, b, b, incl, identity_morphism(b), LineSection(one))
        rep = verify_constant_rank_identity(b_in_tm, ext, b_in_tm, [[zero], [one]], AnsatzSpace(R2))
        assert rep.items == [
            CheckItem("morphism factors through the image", True, ""),
            CheckItem("main identity exact at cochain level", True, ""),
            CheckItem("intermediate identity exact at cochain level", True, ""),
        ]
        assert rep.data["eta_q"] == one_form(b, [-one])

    def test_undecided_identities_leave_the_report_undecided(self):
        # the complement exp(x) d/dy moves eta_q by dx, off cochain level,
        # and a degree-0 space holds no primitive x: each identity is undecided
        zero, one, x, y = R2.zero(), R2.one(), R2.coord("x"), R2.coord("y")
        b, b_in_tm = subalgebroid_from_vector_fields("B", R2, [[one], [y]])
        c = AlgebroidPresentation("C0", R2, (), [])
        incl = base_preserving_morphism("i", c, b, [[] for _ in range(b.rank)])
        ext = ExtensionPresentation(c, b, b, incl, identity_morphism(b), LineSection(one))
        rep = verify_constant_rank_identity(b_in_tm, ext, b_in_tm, [[zero], [exp(x)]], AnsatzSpace(R2, degree=0))
        assert rep.items == [
            CheckItem("morphism factors through the image", True, ""),
            CheckItem("main identity up to an exact form", None, "unknown_in_ansatz"),
            CheckItem("intermediate identity up to an exact form", None, "unknown_in_ansatz"),
        ]
        assert rep.passed is None
        assert_undecided_in_json(rep)


class TestCotangentAlgebroid:
    def test_symplectic_plane(self):
        tm = tangent_algebroid(R2)
        pi = Multivector(tm, 2, {(0, 1): R2.one()})
        a = cotangent_algebroid(pi)
        assert check_axioms(a).passed
        assert a.structure == {}
        assert a.anchor[0][1] == R2.one()
        assert a.anchor[1][0] == -R2.one()

    def test_zero_bivector(self):
        tm = tangent_algebroid(R2)
        pi = Multivector(tm, 2, {})
        a = cotangent_algebroid(pi)
        assert all(f.is_zero() for row in a.anchor for f in row)
        assert a.structure == {}

    def test_non_poisson_rejected(self):
        tm = tangent_algebroid(R3)
        # {x,y} = 1, {y,z} = y gives Jacobiator {x,{y,z}} = 1
        pi = Multivector(tm, 2, {(0, 1): R3.one(), (1, 2): R3.coord("y")})
        with pytest.raises(NotPoisson, match="^bracket square of the bivector is nonzero: "):
            cotangent_algebroid(pi)

    def test_spiral_bivector_regular(self):
        tm = tangent_algebroid(TXY)
        x = TXY.coord("x")
        pi = Multivector(tm, 2, {(0, 2): TXY.one(), (1, 2): x})
        a = cotangent_algebroid(pi)
        assert check_axioms(a).passed


class TestRegularPoisson:
    def test_symplectic_plane_all_zero(self):
        tm = tangent_algebroid(R2)
        pi = Multivector(tm, 2, {(0, 1): R2.one()})
        one, zero = R2.one(), R2.zero()
        kit = poisson_kit(pi, image_columns=[[one, zero], [zero, one]], kernel_columns=[[], []])
        rep = verify_regular_poisson(kit, complement_columns=[[], []], ansatz=AnsatzSpace(R2, degree=2))
        assert rep.passed
        assert kit.mod_sharp.is_zero()
        assert kit.ext.eta.is_zero()
        assert rep.data.keys() == {"minors", "method", "eta_q"}

    def test_draws_the_pinned_points(self, monkeypatch):
        # the sharp map of exp(z) dx^dy has a unit minor, so only the two
        # batches of the extension check are drawn
        import algebroids.ratlinalg as ratlinalg

        kit, complement = self._exp_leaves()
        args = (verify_regular_poisson, kit, complement, AnsatzSpace(R3, degree=1), 2)
        want = reference_points(R3, 2, RANK_SAMPLES)
        assert capture_sampled_points(monkeypatch, extensions, *args) == [want] * 2
        assert capture_sampled_points(monkeypatch, ratlinalg, *args) == []

    @staticmethod
    def _exp_leaves():
        """The kit and the complement of exp(z) dx^dy on R^3."""
        z = R3.coord("z")
        one, zero = R3.one(), R3.zero()
        pi = Multivector(tangent_algebroid(R3), 2, {(0, 1): exp(z)})
        kit = poisson_kit(
            pi, image_columns=[[one, zero], [zero, one], [zero, zero]], kernel_columns=[[zero], [zero], [one]]
        )
        return kit, [[zero], [zero], [one]]

    def test_uncertified_sharp_map_is_sampled(self, monkeypatch):
        # poisson_kit solves for the image frame and the lifts by unit
        # pivots, so the sharp map of a kit it builds always has a unit
        # minor; a sharp map without a certified minor is put in by hand.
        # Its 2-minor f^2 has x^2 sin x terms, outside the certified kinds,
        # and its rank at the origin is 2, so the constant rank is left
        # undecided, with no point drawn
        import algebroids.ratlinalg as ratlinalg

        tm = tangent_algebroid(R2)
        one, zero = R2.one(), R2.zero()
        kit = poisson_kit(Multivector(tm, 2, {(0, 1): one}), [[one, zero], [zero, one]], [[], []])
        x = R2.coord("x")
        f = x * x + sin(x) + 2
        kit = replace(kit, sharp=base_preserving_morphism("sharp", kit.ext.total, tm, [[zero, -f], [f, zero]]))
        args = (kit, [[], []], AnsatzSpace(R2, degree=1), 3)
        assert capture_sampled_points(monkeypatch, ratlinalg, verify_regular_poisson, *args) == []
        rep = verify_regular_poisson(*args)
        assert rep.items[0] == CheckItem("constant rank (uncertified)", None, "generic rank 2, image rank 2")
        assert rep.data["method"] == "uncertified"
        assert rep.data["minors"].witness is None

    def test_two_unknown_classes_are_no_agreement(self):
        session = Session(load_scenario("poisson_spiral.scn"), 0)
        kit = session.poisson_kit("SP")
        rep = verify_regular_poisson(kit, session.sc.poissons["SP"].complement, session.ansatz(kit.ext.chart), 0)
        item = next(i for i in rep.items if i.label == "unimodular iff invariant transverse volume (in ansatz)")
        assert item.detail == "modular: nonexact_in_ansatz, transverse volume: nonexact_in_ansatz"
        assert item.ok is None
        assert rep.passed is None
        assert_undecided_in_json(rep)

    def test_decided_disagreement_fails_the_volume_criterion(self, monkeypatch):
        # an exact modular class against a certified non-exact transverse
        # class: the criterion "unimodular iff invariant transverse volume"
        # fails, whatever the other items say
        session = Session(load_scenario("poisson_symplectic.scn"), 0)
        kit = session.poisson_kit("SYM")

        def decided(alpha, space, seed=0):
            return CocycleClass("exact" if alpha is kit.mod_sharp else "nonexact_certified")

        monkeypatch.setattr(extensions, "classify", decided)
        rep = verify_regular_poisson(kit, session.sc.poissons["SYM"].complement, session.ansatz(kit.ext.chart), 0)
        item = next(i for i in rep.items if i.label == "unimodular iff invariant transverse volume (in ansatz)")
        assert item.detail == "modular: exact, transverse volume: nonexact_certified"
        assert not item.ok
        assert not rep.passed

    def test_one_undecided_class_leaves_the_volume_criterion_undecided(self, monkeypatch):
        session = Session(load_scenario("poisson_symplectic.scn"), 0)
        kit = session.poisson_kit("SYM")

        def half_decided(alpha, space, seed=0):
            return CocycleClass("exact" if alpha is kit.mod_sharp else "nonexact_in_ansatz")

        monkeypatch.setattr(extensions, "classify", half_decided)
        rep = verify_regular_poisson(kit, session.sc.poissons["SYM"].complement, session.ansatz(kit.ext.chart), 0)
        assert rep.items[-1].ok is None
        assert rep.passed is None

    def test_an_undecided_duality_class_leaves_the_report_undecided(self, monkeypatch):
        # the complement exp(x) d/dx moves eta_q by dx, off cochain level, and
        # a degree-0 space holds no primitive x; both classes of the volume
        # criterion are decided here, so only the duality item is undecided
        kit, complement = self._spiral_kit(TXY.coord("x"))

        def exact(alpha, space, seed=0):
            return CocycleClass("exact")

        monkeypatch.setattr(extensions, "classify", exact)
        rep = verify_regular_poisson(kit, complement, AnsatzSpace(TXY, degree=0, fourier_modes=0))
        dual, volume = rep.items[-2:]
        assert dual == CheckItem("cokernel rep dual to kernel rep (class)", None, "unknown_in_ansatz")
        assert volume.ok is True
        assert rep.passed is None
        assert_undecided_in_json(rep)

    @staticmethod
    def _spiral_kit(log_scale=None):
        """The kit of the spiral bivector d/dtheta^d/dy + x d/dx^d/dy on TXY
        and its complement d/dx, scaled by exp(log_scale) when given."""
        tm = tangent_algebroid(TXY)
        x = TXY.coord("x")
        one, zero = TXY.one(), TXY.zero()
        pi = Multivector(tm, 2, {(0, 2): one, (1, 2): x})
        kit = poisson_kit(
            pi,
            image_columns=[[one, zero], [x, zero], [zero, one]],
            kernel_columns=[[-x], [one], [zero]],
        )
        scale = one if log_scale is None else exp(log_scale)
        return kit, [[zero], [scale], [zero]]

    def test_exponential_symplectic_leaves(self):
        kit, complement = self._exp_leaves()
        rep = verify_regular_poisson(kit, complement, ansatz=AnsatzSpace(R3, degree=2))
        assert rep.passed
        cls = classify(kit.mod_sharp, AnsatzSpace(R3, degree=2))
        assert cls.status == "exact"
        # the sharp map's rank is certified by a unit minor
        assert rep.items[0] == CheckItem("constant rank (exact)", True, "generic rank 2, image rank 2")
        assert rep.data["method"] == "exact"
        assert rep.data["minors"] == (2, ((0, 1), (0, 1)), ((0, 1), (0, 1)))

    def test_spiral_doubling_identity(self):
        kit, complement = self._spiral_kit()
        one, zero = TXY.one(), TXY.zero()
        rep = verify_regular_poisson(kit, complement, ansatz=AnsatzSpace(TXY, degree=2, fourier_modes=2))
        # every identity holds; the ansatz decides neither class of the
        # volume criterion, so the report is undecided, not passed
        *decided, volume = rep.items
        assert all(item.ok is True for item in decided)
        assert volume.label == "unimodular iff invariant transverse volume (in ansatz)"
        assert volume.ok is None
        assert rep.passed is None
        assert kit.mod_sharp == one_form(kit.ext.total, [zero, zero, TXY.const(-2)])
        assert kit.ext.eta == one_form(kit.ext.quotient, [one, zero])
