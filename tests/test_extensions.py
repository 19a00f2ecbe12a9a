import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import algebroids.extensions as extensions
from algebroids.cli import load_scenario
from algebroids.cohomology import AnsatzSpace, classify
from algebroids.core import (
    AlgebroidPresentation,
    Multivector,
    check_axioms,
    one_form,
    tangent_algebroid,
)
from algebroids.extensions import (
    ExtensionPresentation,
    ImageClosureFailure,
    LiftSolveFailure,
    NotPoisson,
    UnimodularityFailure,
    adjoint_rep,
    check_extension,
    cotangent_algebroid,
    induced_rep,
    poisson_kit,
    quotient_top_rep,
    rational_multiple,
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

from conftest import capture_sampled_points, count_sampling, reference_points


R1 = Chart("R1", ("x",))
R2 = Chart("R2", ("x", "y"))
R3 = Chart("R3", ("x", "y", "z"))
TXY = Chart("TXY", ("theta", "x", "y"), (True, False, False))


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
    from conftest import so3

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
        ext = so3_kernel_extension()
        monkeypatch.setattr(extensions, "RANK_SAMPLES", samples)
        rep, counts = count_sampling(monkeypatch, check_extension, ext)
        assert rep.passed
        entries = [f for phi in (ext.incl, ext.proj) for row in phi.fiber for f in row]
        assert counts["evaluate"] <= sum(not f.is_zero() for f in entries)
        assert counts["float_rank"] == 2

    def test_draws_the_pinned_points(self, monkeypatch):
        ext = so3_kernel_extension()
        batches = capture_sampled_points(monkeypatch, extensions, check_extension, ext, seed=3)
        assert batches == [reference_points(ext.chart, 3, RANK_SAMPLES, 50, 11)] * 2

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
        ext.incl = base_preserving_morphism("i", ext.kernel, ext.total, [[one], [zero], [zero]])
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
        ext2 = aff1_kernel_extension()
        ext2.lam = LineSection(3 * exp(R1.coord("x")))
        with pytest.raises(UnimodularityFailure):
            top_rep(ext2)


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
        ext.lam = LineSection(3 * exp(R2.coord("x") - R2.coord("y")))
        assert induced_rep(ext).mats == base.mats

    def test_lift_independence(self):
        ext = abelian_kernel_extension()
        base = induced_rep(ext)
        rng = random.Random(4)
        one, zero = R2.one(), R2.zero()
        for _ in range(5):
            c1 = R2.const(rng.randint(-3, 3)) * R2.coord("x")
            c2 = R2.const(rng.randint(-3, 3))
            lifts = [[one, zero], [zero, one], [c1, c2]]
            again = induced_rep(ext, lifts=lifts)
            assert again.mats == base.mats

    def test_bad_lift_rejected(self):
        ext = abelian_kernel_extension()
        one, zero = R2.one(), R2.zero()
        with pytest.raises(LiftSolveFailure):
            induced_rep(ext, lifts=[[one, one], [zero, one], [zero, zero]])


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
        from algebroids.core import top_multivector

        omega = top_multivector(ext.total, exp(R2.coord("x")))
        rep = verify_extension_identity(ext, omega_total=omega, ansatz=AnsatzSpace(R2, degree=3))
        assert rep.passed

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
        assert rep.items[1:] == [
            CheckItem("sections compatible (rational multiple)", True, "not proportional; class-level check"),
            CheckItem("class identity theta ~ proj^*(eta)", True, "cohomologous"),
        ]
        assert spaces == [session.ansatz(session.sc.extensions["EXT"].chart)]


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
        with pytest.raises(NotPoisson):
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
        rep = verify_regular_poisson(
            poisson_kit(pi, image_columns=[[one, zero], [zero, one]], kernel_columns=[[], []]),
            complement_columns=[[], []],
            ansatz=AnsatzSpace(R2, degree=2),
        )
        assert rep.passed
        assert rep.data["mod_sharp"].is_zero()
        assert rep.data["eta_k"].is_zero()

    def test_draws_the_pinned_points(self, monkeypatch):
        # the sharp map of exp(z) dx^dy has a unit minor, so only the two
        # batches of the extension check are drawn
        import algebroids.ratlinalg as ratlinalg

        kit, complement = self._exp_leaves()
        args = (verify_regular_poisson, kit, complement, AnsatzSpace(R3, degree=1), 2)
        want = reference_points(R3, 2, RANK_SAMPLES, 50, 11)
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
        # minor; a sharp map without a certified minor is put in by hand
        import algebroids.ratlinalg as ratlinalg

        tm = tangent_algebroid(R2)
        one, zero = R2.one(), R2.zero()
        kit = poisson_kit(Multivector(tm, 2, {(0, 1): one}), [[one, zero], [zero, one]], [[], []])
        x = R2.coord("x")
        f = x * x + sin(x) + 2
        kit = replace(kit, sharp=base_preserving_morphism("sharp", kit.cotangent, tm, [[zero, -f], [f, zero]]))
        args = (kit, [[], []], AnsatzSpace(R2, degree=1), 3)
        batches = capture_sampled_points(monkeypatch, ratlinalg, verify_regular_poisson, *args)
        assert batches == [reference_points(R2, 3, RANK_SAMPLES, 60, 13)]
        rep = verify_regular_poisson(*args)
        assert rep.items[0] == CheckItem("constant rank (sampled)", True, "rank range [2, 2], image rank 2")
        assert rep.data["method"] == "sampled"
        assert rep.data["minors"].witness is None

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 3.0: two classes unknown in the ansatz count as agreement on poisson_spiral.scn",
    )
    def test_two_unknown_classes_are_no_agreement(self):
        session = Session(load_scenario("poisson_spiral.scn"), 0)
        kit = session.poisson_kit("SP")
        rep = verify_regular_poisson(kit, session.sc.poissons["SP"].complement, session.ansatz(kit.cotangent.chart), 0)
        item = next(i for i in rep.items if i.label == "unimodular iff invariant transverse volume (in ansatz)")
        assert item.detail == "modular: nonexact_in_ansatz, transverse volume: nonexact_in_ansatz"
        assert not item.ok

    def test_exponential_symplectic_leaves(self):
        kit, complement = self._exp_leaves()
        rep = verify_regular_poisson(kit, complement, ansatz=AnsatzSpace(R3, degree=2))
        assert rep.passed
        cls = classify(rep.data["mod_sharp"], AnsatzSpace(R3, degree=2))
        assert cls.status == "exact"
        # the sharp map's rank is certified by a unit minor
        assert rep.items[0] == CheckItem("constant rank (exact)", True, "generic rank 2, image rank 2")
        assert rep.data["method"] == "exact"
        assert rep.data["minors"] == (2, ((0, 1), (0, 1)), ((0, 1), (0, 1)))

    def test_spiral_doubling_identity(self):
        tm = tangent_algebroid(TXY)
        x = TXY.coord("x")
        one, zero = TXY.one(), TXY.zero()
        pi = Multivector(tm, 2, {(0, 2): one, (1, 2): x})
        kit = poisson_kit(
            pi,
            image_columns=[[one, zero], [x, zero], [zero, one]],
            kernel_columns=[[-x], [one], [zero]],
        )
        rep = verify_regular_poisson(
            kit,
            complement_columns=[[zero], [one], [zero]],
            ansatz=AnsatzSpace(TXY, degree=2, fourier_modes=2),
        )
        assert rep.passed
        assert rep.data["mod_sharp"] == one_form(
            rep.data["cotangent"], [zero, zero, TXY.const(-2)]
        )
        assert rep.data["eta_k"] == one_form(rep.data["image"], [one, zero])
