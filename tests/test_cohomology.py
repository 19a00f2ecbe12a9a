import dataclasses
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import algebroids.cohomology as cohomology
from algebroids.cohomology import (
    MAX_ANSATZ_BASIS,
    AnsatzOperator,
    AnsatzSpace,
    AnsatzTooLarge,
    CohomologyError,
    Inconclusive,
    NonExactCertificate,
    NoSolutionInAnsatz,
    PreconditionFailure,
    antiderivative,
    check_pullback_injectivity,
    classify,
    cohomologous,
    find_circle_section,
    is_cocycle,
    period_certificate,
    solve_exact,
)
from algebroids.core import (
    AlgebroidPresentation,
    Multivector,
    coframe_form,
    d_A,
    function_form,
    one_form,
    tangent_algebroid,
)
from algebroids.extensions import cotangent_algebroid
from algebroids.morphisms import Morphism
from algebroids.reps import canonical_sections, modular_cocycle
from algebroids.ratlinalg import FactoredSystem
from algebroids.symexpr import Chart, ScalarFn, SymExprError, cos, exp, lincomb, point_chart, sin

from conftest import coeffs, count_sampling, cylinder_algebroid, examples, frame_algebroids, product_basis


S1 = Chart("S1", ("theta",), (True,))
T2 = Chart("T2", ("theta", "phi"), (True, True))
CYLC = Chart("C", ("theta", "x"), (True, False))
R1 = Chart("R1", ("x",))
R2 = Chart("R2", ("x", "y"))
C3 = Chart("C3", ("theta", "x", "y"), (True, False, False))


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
        tm = tangent_algebroid(R2)
        space = AnsatzSpace(R2, degree=3)
        for _ in range(10):
            f = R2.zero()
            for b in AnsatzSpace(R2, degree=2).basis():
                f = f + rng.randint(-2, 2) * b
            alpha = d_A(function_form(tm, f))
            g = solve_exact(alpha, space)
            assert isinstance(g, ScalarFn)
            assert (f - g).is_constant()


def assert_witness(alpha, space, res):
    """The witness of `res` reads 0 = nonzero on the stored rows of d_A,
    followed by the right-hand-side terms outside their index."""
    a = alpha.algebroid
    op = space.operator(a)
    rows = [[Fraction(0)] * len(op.basis) for _ in op.index]
    for i in range(a.rank):
        for j, b in enumerate(op.basis):
            for key, q in a.rho_apply(i, b).terms.items():
                rows[op.index[(i, key)]][j] = q
    rhs = [Fraction(0)] * len(rows)
    for i in range(a.rank):
        for key, q in alpha.component((i,)).terms.items():
            if (i, key) in op.index:
                rhs[op.index[(i, key)]] = q
            else:
                rows.append([Fraction(0)] * len(op.basis))
                rhs.append(q)
    y = res.witness
    assert len(y) == len(rows)
    for j in range(len(op.basis)):
        assert sum(c * row[j] for c, row in zip(y, rows)) == 0
    assert sum(c * b for c, b in zip(y, rhs)) != 0


class TestSharedSpace:
    """One space serves every algebroid on its chart: it factors d_A once
    per algebroid and answers as a fresh space would."""

    @staticmethod
    def cocycles(a):
        theta, x = CYLC.coord("theta"), CYLC.coord("x")
        out = [
            d_A(function_form(a, f))
            for f in (x * sin(theta), x**2 + cos(2 * theta) - x, exp(x), sin(3 * theta))
        ]
        out.append(one_form(a, [CYLC.const(-1)] + [CYLC.zero()] * (a.rank - 1)))
        return out

    def test_tangent_and_spiral_share_one_space(self):
        tm, spiral = tangent_algebroid(CYLC), cylinder_algebroid(CYLC)
        shared = AnsatzSpace(CYLC, degree=2, fourier_modes=2)
        statuses = set()
        for pair in zip(self.cocycles(tm), self.cocycles(spiral)):
            for alpha in pair:
                got = classify(alpha, shared)
                want = classify(alpha, AnsatzSpace(CYLC, degree=2, fourier_modes=2))
                assert (got.status, got.primitive) == (want.status, want.primitive)
                statuses.add(got.status)
                res = solve_exact(alpha, shared)
                if isinstance(res, NoSolutionInAnsatz):
                    assert_witness(alpha, shared, res)
        assert statuses == {"exact", "nonexact_certified", "nonexact_in_ansatz"}
        assert shared.operator(tm) is shared.operator(tm)
        assert shared.operator(spiral) is not shared.operator(tm)

    def test_circle_sections_are_searched_once_per_coordinate(self, monkeypatch):
        # d sin(5 theta) is outside a 2-mode space, and no period decides
        # it: each call tries both circles, and the space holds them
        searched = []
        real = cohomology.find_circle_section

        def counting(a, coord):
            searched.append(coord)
            return real(a, coord)

        monkeypatch.setattr(cohomology, "find_circle_section", counting)
        t2 = tangent_algebroid(T2)
        space = AnsatzSpace(T2, degree=0, fourier_modes=2)
        alpha = d_A(function_form(t2, sin(5 * T2.coord("theta"))))
        assert [classify(alpha, space).status for _ in range(2)] == ["nonexact_in_ansatz"] * 2
        assert searched == ["theta", "phi"]
        # reading the held sections searches no more
        assert [space.circle_section(t2, c) for c in T2.coords] == [(1, 0), (0, 1)]
        assert searched == ["theta", "phi"]
        # the held sections are a memo: not a constructor argument, and no
        # part of equality or repr
        fresh = dataclasses.replace(space)
        assert fresh._circles == {} and fresh == space and repr(fresh) == repr(space)

    def test_memo_takes_no_part_in_equality(self):
        tm = tangent_algebroid(CYLC)
        used = AnsatzSpace(CYLC, degree=2, fourier_modes=2)
        for alpha in self.cocycles(tm):
            solve_exact(alpha, used)
        fresh = AnsatzSpace(CYLC, degree=2, fourier_modes=2)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert {fresh: "x"}[used] == "x"
        assert used != AnsatzSpace(CYLC, degree=2, fourier_modes=1)

    def test_no_module_level_cache(self):
        state = [
            name
            for name, value in vars(cohomology).items()
            if not name.startswith("__") and isinstance(value, (dict, list, set))
        ]
        assert state == []


class TestAnsatzBasis:
    @pytest.mark.parametrize(
        "chart, slopes",
        [
            (T2, ((1, 0), (Fraction(4, 2), Fraction(-1, 3)))),
            (CYLC, ((0, 1), (0, Fraction(-3, 2)))),
            (
                Chart("C3", ("theta", "x", "y"), (True, False, False)),
                ((0, 2, Fraction(1, 3)), (0, 0, -1)),
            ),
            (point_chart(), ()),
        ],
        ids=["periodic", "mixed", "3d", "point"],
    )
    def test_matches_the_product_built_reference(self, chart, slopes):
        space = AnsatzSpace(chart, degree=2, fourier_modes=2, exp_slopes=slopes)
        got, want = space.basis(), product_basis(space)
        # repr spells out int against Fraction in every slope and coefficient
        assert [repr(list(f.terms.items())) for f in got] == [
            repr(list(f.terms.items())) for f in want
        ]

    @pytest.mark.parametrize(
        "chart, slopes",
        [
            (T2, ((1, 0), (Fraction(4, 2), Fraction(-1, 3)))),
            (CYLC, ((0, 1), (0, Fraction(-3, 2)))),
            (C3, ((0, 2, Fraction(1, 3)), (0, 0, -1))),
            (point_chart(), ()),
        ],
        ids=["periodic", "mixed", "3d", "point"],
    )
    def test_membership_reads_the_basis(self, chart, slopes):
        """`in` agrees with the keys of the basis on the keys of a wider
        space and on keys no space has: a power or a half mode of a
        periodic coordinate, and a trig atom of a non-periodic one."""
        space = AnsatzSpace(chart, degree=2, fourier_modes=2, exp_slopes=slopes)
        keys = {key for f in space.basis() for key in f.num}
        # the point chart's one slope is zero, which no space takes
        half = ((tuple(Fraction(1, 2) for _ in chart.coords),) if chart.dim else ())
        wider = AnsatzSpace(chart, degree=3, fourier_modes=3, exp_slopes=slopes + half)
        others = [chart.coord(c) for c in chart.coords]
        others += [sin(chart.const(Fraction(1, 2)) * x) for x in others] + [cos(x) for x in others]
        candidates = [key for f in wider.basis() + others for key in f.num]
        # on the point chart every key is the constant one
        assert any(key not in keys for key in candidates) == bool(chart.dim)
        assert [key in space for key in candidates] == [key in keys for key in candidates]

    @pytest.mark.parametrize("size", [{"degree": -1}, {"fourier_modes": -1}])
    def test_negative_size_is_rejected(self, size):
        with pytest.raises(ValueError, match="non-negative"):
            AnsatzSpace(CYLC, **size)

    @pytest.mark.parametrize(
        "chart, slopes",
        [(T2, ()), (CYLC, ((0, 1),)), (Chart("C3", ("theta", "x", "y"), (True, False, False)), ((0, 1, 1),))],
        ids=["periodic", "mixed", "3d"],
    )
    def test_size_counts_the_basis(self, chart, slopes):
        for degree, modes in [(0, 0), (1, 2), (3, 1)]:
            space = AnsatzSpace(chart, degree=degree, fourier_modes=modes, exp_slopes=slopes)
            assert space.size == len(space.basis())

    def test_slope_of_the_wrong_length_is_rejected(self):
        # zip would pad (0,) to the zero vector, a second copy of exp 0
        with pytest.raises(ValueError, match=r"exp slope \(0,\) has 1 entries, chart 'C' has 2 coordinates"):
            AnsatzSpace(CYLC, 1, 1, exp_slopes=((0,),))
        with pytest.raises(ValueError, match=r"\(0, 1, 2\) has 3 entries"):
            AnsatzSpace(CYLC, 1, 1, exp_slopes=((0, 1), (0, 1, 2)))

    def test_zero_or_repeated_slope_is_rejected(self):
        # either would hold a basis function twice: 24 functions, 12 keys
        with pytest.raises(ValueError, match=r"exp slope \(0, 0\) is zero"):
            AnsatzSpace(CYLC, 1, 1, exp_slopes=((0, 0), (0, 1), (0, 1)))
        with pytest.raises(ValueError, match=r"exp slope \(0, 1\) is repeated"):
            AnsatzSpace(CYLC, 1, 1, exp_slopes=((0, 1), (0, 1)))
        with pytest.raises(ValueError, match=r"exp slope \(0, Fraction\(1, 1\)\) is repeated"):
            AnsatzSpace(CYLC, 1, 1, exp_slopes=((0, 1), (0, Fraction(1))))

    def test_float_slope_is_rejected(self):
        # Fraction(0.1) is a binary fraction, not 1/10
        with pytest.raises(TypeError, match=r"must be an int or a Fraction, got float 0\.1 in \(0, 0\.1\)"):
            AnsatzSpace(CYLC, 1, 1, exp_slopes=((0, 0.1),))

    def test_oversized_space_fails_before_building(self, monkeypatch):
        def no_basis(self):
            raise AssertionError("basis built for an oversized space")

        monkeypatch.setattr(AnsatzSpace, "basis", no_basis)
        # (2 * 70 + 1)^2 = 19881 fits, (2 * 71 + 1)^2 = 20449 does not
        assert AnsatzSpace(T2, degree=0, fourier_modes=70).size == 19881 <= MAX_ANSATZ_BASIS
        with pytest.raises(AnsatzTooLarge) as err:
            AnsatzSpace(T2, degree=0, fourier_modes=71)
        assert isinstance(err.value, CohomologyError)
        msg = str(err.value)
        for part in (repr(T2.name), "degree 0", "71 Fourier modes", "20449 basis functions"):
            assert part in msg


class CapturedSystem(FactoredSystem):
    """A factored system that keeps a copy of the rows it eliminates and
    of their scales."""

    def __init__(self, rows, n, scales=()):
        self.rows = [dict(row) for row in rows]
        self.scales = list(scales) or [1] * len(rows)
        super().__init__(rows, n, scales)


def captured_operator(a, space):
    """The operator of ``space`` for ``a``, built through `CapturedSystem`
    into the space's own memo, with its rows decoded to rationals: each
    ``int`` numerator over its row's scale, an ``int`` when integral."""
    with mock.patch.object(cohomology, "FactoredSystem", CapturedSystem):
        op = space.operator(a)
    rows = []
    for row, scale in zip(op.system.rows, op.system.scales):
        assert all(type(q) is int for q in row.values())
        rows.append({j: Fraction(q, scale) for j, q in row.items()})
    return op, [{j: v.numerator if v.denominator == 1 else v for j, v in row.items()} for row in rows]


def reference_index(a, basis):
    """The row numbering read off d_A through the ring: frame index first,
    then basis function, then the canonical term order of rho(e_i) b."""
    index = {}
    for i in range(a.rank):
        for b in basis:
            for key in a.rho_apply(i, b).terms:
                index.setdefault((i, key), len(index))
    return index


def assert_operator_is_d_A(a, space):
    """Every column of the operator, decoded through its index, is the
    frame components of d_A of its basis function, coefficient types
    included; the rows are numbered as through the ring."""
    op, rows = captured_operator(a, space)
    basis = op.basis
    assert op.index == reference_index(a, basis)
    cols = [[{} for _ in range(a.rank)] for _ in basis]
    for (i, key), r in op.index.items():
        for j, q in rows[r].items():
            cols[j][i][key] = (q, type(q))
    for b, col in zip(basis, cols):
        df = d_A(function_form(a, b))
        assert col == [{key: (q, type(q)) for key, q in df.component((i,)).terms.items()} for i in range(a.rank)]


def operator_witness_cases():
    """Closed forms with no primitive in their ansatz: a differential
    whose exp term is outside the space, -dtheta, whose constant term is in
    no row, and a Poisson vector field of a cotangent algebroid whose
    witness combines stored rows of the operator."""
    theta, x = CYLC.coord("theta"), CYLC.coord("x")
    spiral, tc = cylinder_algebroid(CYLC), tangent_algebroid(CYLC)
    n3 = Chart("N3", ("theta", "x", "y"), (True, False, False))
    pi = Multivector(tangent_algebroid(n3), 2, {(0, 2): n3.one(), (1, 2): n3.coord("x")})
    ct = cotangent_algebroid(pi, "CT")
    return {
        "spiral d_A exp(x)": (d_A(function_form(spiral, exp(x))), AnsatzSpace(CYLC, 2, 2)),
        "spiral d_A exp(2x)": (d_A(function_form(spiral, exp(2 * x))), AnsatzSpace(CYLC, 2, 2)),
        "tangent d_A exp(x) sin": (d_A(function_form(tc, exp(x) * sin(theta))), AnsatzSpace(CYLC, 2, 1)),
        "tangent -dtheta": (one_form(tc, [CYLC.const(-1), CYLC.zero()]), AnsatzSpace(CYLC, 2, 2)),
        "cotangent e1": (one_form(ct, [n3.one(), n3.zero(), n3.zero()]), AnsatzSpace(n3, 2, 1)),
    }


@pytest.mark.parametrize("name", list(operator_witness_cases()))
def test_witness_annihilates_the_captured_operator(name):
    """The Farkas witness read against the rows the elimination was given:
    y.A = 0 on every basis column, and y.b != 0 for the right-hand side
    matched through the index, the terms outside it last."""
    alpha, space = operator_witness_cases()[name]
    a = alpha.algebroid
    op, rows = captured_operator(a, space)
    res = solve_exact(alpha, space)
    assert isinstance(res, NoSolutionInAnsatz)
    rhs = [0] * len(rows)
    for i in range(a.rank):
        for key, q in alpha.component((i,)).terms.items():
            r = op.index.get((i, key))
            if r is None:
                rhs.append(q)
            else:
                rhs[r] = q
    y = res.witness
    assert len(y) == len(rhs) and all(type(v) is Fraction for v in y)
    for j in range(len(op.basis)):
        assert sum(c * row.get(j, 0) for c, row in zip(y, rows)) == 0
    assert sum(c * b for c, b in zip(y, rhs)) != 0
    if name == "cotangent e1":
        assert any(y[: len(rows)]) and len(y) == len(rows)


@st.composite
def one_terms(draw, chart):
    """q * x^m * exp(d.x) over the non-periodic coordinates of ``chart``,
    with fractional q and d: an anchor entry whose columns are key shifts."""
    term = chart.const(Fraction(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), draw(st.integers(1, 3))))
    for name, periodic in zip(chart.coords, chart.periodic):
        if not periodic:
            x = chart.coord(name)
            d = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
            term = term * x ** draw(st.integers(0, 2)) * exp(chart.const(d) * x)
    return term


@st.composite
def one_term_anchors(draw):
    """Two frame rows on C3, each with a one-term entry at one coordinate
    and, at another, zero, a second one-term entry, the same entry again
    (whose items meet the first's on a key) or a `coeffs` entry, which is
    multiplied out."""
    rows = []
    for _ in range(2):
        row = [C3.zero()] * 3
        k, l, _ = draw(st.permutations(range(3)))
        row[k] = draw(one_terms(C3))
        row[l] = draw(st.one_of(st.just(C3.zero()), one_terms(C3), st.just(row[k]), coeffs(C3)))
        rows.append(row)
    return rows


class TestAnsatzOperator:
    @pytest.mark.deep
    @settings(max_examples=examples(40), deadline=None)
    @given(frame_algebroids(), st.integers(0, 2), st.integers(0, 2))
    def test_columns_are_d_A_of_the_basis(self, a, degree, modes):
        assert_operator_is_d_A(a, AnsatzSpace(a.chart, degree, modes))

    @pytest.mark.deep
    @settings(max_examples=examples(40), deadline=None)
    @given(st.lists(coeffs(CYLC), min_size=2, max_size=2), st.integers(0, 2), st.integers(0, 2))
    def test_trig_and_exp_anchors_with_exp_slopes(self, anchor, degree, modes):
        a = AlgebroidPresentation("B", CYLC, ("b",), [anchor])
        slopes = ((0, 1), (0, Fraction(-3, 2)))
        assert_operator_is_d_A(a, AnsatzSpace(CYLC, degree, modes, exp_slopes=slopes))

    @pytest.mark.deep
    @pytest.mark.parametrize("slopes", [(), ((0, 1, -1), (0, Fraction(-3, 2), Fraction(1, 2)))], ids=["plain", "exp"])
    @settings(max_examples=examples(40), deadline=None)
    @given(one_term_anchors(), st.integers(0, 2), st.integers(0, 1))
    # x d/dx + y d/dy meets on every key; d/dx + d/dy cancels on exp(x - y)
    @example([[C3.zero(), C3.coord("x"), C3.coord("y")], [C3.zero(), C3.one(), C3.one()]], 2, 1)
    def test_one_term_anchor_entries(self, slopes, anchor, degree, modes):
        a = AlgebroidPresentation("B", C3, ("b", "c"), anchor)
        assert_operator_is_d_A(a, AnsatzSpace(C3, degree, modes, exp_slopes=slopes))

    def test_only_other_entries_are_multiplied_out(self, monkeypatch):
        """No workload anchor has an entry beyond one trig-free term, so
        only a test reaches `_product_items`: once per basis function for
        the one sin(theta) entry."""
        calls = []
        product_items = cohomology._product_items

        def counting(*args):
            calls.append(args)
            return product_items(*args)

        monkeypatch.setattr(cohomology, "_product_items", counting)
        basis = AnsatzSpace(CYLC, 2, 2, exp_slopes=((0, 1),)).basis()
        AnsatzOperator.build(tangent_algebroid(CYLC), basis)
        AnsatzOperator.build(cylinder_algebroid(CYLC), basis)
        assert calls == []
        theta = CYLC.coord("theta")
        AnsatzOperator.build(AlgebroidPresentation("B", CYLC, ("b",), [[CYLC.one(), sin(theta)]]), basis)
        assert len(calls) == len(basis)

    def test_basis_on_another_chart_is_rejected(self):
        other = Chart("D", ("theta", "x"), (True, False))
        with pytest.raises(SymExprError, match="chart mismatch"):
            AnsatzOperator.build(tangent_algebroid(CYLC), AnsatzSpace(other, 1, 1).basis())


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

    def test_exp_of_the_circle_coordinate_has_no_mean(self):
        # e^theta dtheta = d(e^theta) off the circle only: no mean, so no certificate
        tc = tangent_algebroid(CYLC)
        alpha = one_form(tc, [exp(CYLC.coord("theta")), CYLC.zero()])
        cert = period_certificate(alpha, find_circle_section(tc, "theta"), "theta")
        assert cert == Inconclusive("pairing depends non-periodically on 'theta'; mean undefined")
        assert classify(alpha, AnsatzSpace(CYLC, 1, 1)).status == "nonexact_in_ansatz"

    def test_mixed_chart(self):
        tc = tangent_algebroid(CYLC)
        alpha = one_form(tc, [CYLC.one(), CYLC.one()])  # dtheta + dx
        combo = find_circle_section(tc, "theta")
        cert = period_certificate(alpha, combo, "theta")
        assert isinstance(cert, NonExactCertificate)
        assert cert.mean == CYLC.one()

    def test_tiny_exact_mean_is_a_certificate(self):
        # the exact mean decides, however small its values
        ts1 = tangent_algebroid(S1)
        tiny = S1.const(Fraction(1, 10**12))
        cert = period_certificate(one_form(ts1, [tiny]), (Fraction(1),), "theta")
        assert isinstance(cert, NonExactCertificate)
        assert cert.mean == tiny

    def test_certified_class_samples_nothing(self, monkeypatch):
        # dtheta on the cylinder: the exact mean 1 is the whole certificate
        tc = tangent_algebroid(CYLC)
        alpha = one_form(tc, [CYLC.one(), CYLC.zero()])
        zero = one_form(tc, [CYLC.zero(), CYLC.zero()])
        space = AnsatzSpace(CYLC, 1, 1)
        none = {"evaluate": 0, "float_rank": 0}
        cls, counts = count_sampling(monkeypatch, classify, alpha, space)
        assert cls.status == "nonexact_certified" and cls.certificate.mean == CYLC.one()
        assert counts == none
        verdict, counts = count_sampling(monkeypatch, cohomologous, alpha, zero, space)
        assert verdict.verdict == "distinct_certified" and counts == none
        combo = find_circle_section(tc, "theta")
        cert, counts = count_sampling(monkeypatch, period_certificate, alpha, combo, "theta")
        assert cert.mean == CYLC.one() and counts == none

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

    def test_pulled_form_that_is_not_closed_fails_its_item(self):
        # the fiber entry t makes the projection no chain map: it pulls
        # -dtheta back to -t dtheta, which is not closed
        ts1 = tangent_algebroid(S1)
        big = Chart("P", ("theta", "t"), (True, False))
        proj = Morphism("pr", tangent_algebroid(big), ts1, [big.coord("theta")], [[big.coord("t"), big.zero()]])
        alpha = one_form(ts1, [S1.const(-1)])
        rep = check_pullback_injectivity(proj, alpha, AnsatzSpace(S1, 2, 2), AnsatzSpace(big, 2, 2))
        assert [(item.label, item.ok) for item in rep.items] == [("pulled cocycle is closed", False)]
        assert not rep.passed

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


RATIONALS = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
# a slope, often zero, so that lambda = d_j + i c_j is often 0
SLOPES = st.one_of(st.just(0), st.integers(-2, 2), RATIONALS)


@st.composite
def terms(draw, chart):
    """q * x^m * trig(c.x) * exp(d.x) on ``chart``, powers of periodic
    coordinates included, with int or Fraction slopes c and d (c integral
    on periodic coordinates); a zero slope vector leaves the atom out, and
    a term often does not depend on a coordinate at all."""
    term = chart.const(draw(RATIONALS))
    trig = exp_arg = chart.zero()
    for name, periodic in zip(chart.coords, chart.periodic):
        x = chart.coord(name)
        term = term * x ** draw(st.integers(0, 2))
        c = draw(st.integers(-2, 2) if periodic else SLOPES)
        trig = trig + chart.const(c) * x
        exp_arg = exp_arg + chart.const(draw(SLOPES)) * x
    kind = draw(st.sampled_from([None, sin, cos]))
    if kind is not None and not trig.is_zero():
        term = term * kind(trig)
    return term * exp(exp_arg)


def operator_route(alpha, space):
    """`classify`'s status and primitive read through `solve_exact`, the
    operator route, with the circle sections searched afresh."""
    res = solve_exact(alpha, space)
    if isinstance(res, ScalarFn):
        return "exact", res
    a = alpha.algebroid
    for coord in (c for c, per in zip(a.chart.coords, a.chart.periodic) if per):
        combo = find_circle_section(a, coord)
        if combo is not None and isinstance(period_certificate(alpha, combo, coord), NonExactCertificate):
            return "nonexact_certified", None
    return "nonexact_in_ansatz", None


@st.composite
def tangent_questions(draw):
    """A 1-form on the tangent algebroid of R^2, the cylinder, T^2 or the
    3-D cylinder and a space on its chart: d of a span function, d of a
    span function plus a `terms` term (mostly outside the span), or d of a
    span function plus c dx_k."""
    chart, degree, modes = draw(st.sampled_from([(R2, 2, 0), (CYLC, 2, 2), (T2, 0, 2), (C3, 2, 1)]))
    space = AnsatzSpace(chart, degree, modes)
    a = tangent_algebroid(chart)
    span = draw(st.lists(st.tuples(RATIONALS, st.sampled_from(space.basis())), max_size=4))
    f = lincomb(chart, span)
    kind = draw(st.sampled_from(["span", "outside", "period"]))
    if kind == "outside":
        f = f + draw(terms(chart))
    alpha = d_A(function_form(a, f))
    if kind == "period":
        alpha = alpha + coframe_form(a, draw(st.integers(0, chart.dim - 1))).scale(draw(RATIONALS))
    return alpha, space


class TestIntegration:
    """On a tangent algebroid `classify` finds the primitive by
    integration; it answers as the operator route does and builds no
    operator."""

    @settings(max_examples=examples(100), deadline=None)
    @given(st.lists(terms(C3), min_size=1, max_size=3), st.integers(0, 2))
    # lambda = 0 and no x_j at all; lambda = 0 with x_j; fractional lambda
    @example([C3.coord("y") * cos(C3.coord("theta"))], 1)
    @example([C3.coord("x") ** 2 * exp(C3.coord("y"))], 1)
    @example([C3.coord("x") * sin(Fraction(1, 2) * C3.coord("x")) * exp(Fraction(-2, 3) * C3.coord("x"))], 1)
    def test_antiderivative_differentiates_back(self, parts, j):
        f = lincomb(C3, [(1, g) for g in parts])
        g = antiderivative(f, j)
        assert g.partial(C3.coords[j]) == f
        assert (C3._zerovec(), None, C3._zerovec()) not in g.num

    @pytest.mark.deep
    @settings(max_examples=examples(60), deadline=None)
    @given(tangent_questions())
    def test_agrees_with_the_operator_route(self, question):
        alpha, space = question
        got = classify(alpha, space)
        fresh = AnsatzSpace(space.chart, space.degree, space.fourier_modes)
        assert (got.status, got.primitive) == operator_route(alpha, fresh)
        assert space._operators == {}

    def test_tangent_questions_build_no_operator(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("operator built for a tangent algebroid")

        monkeypatch.setattr(AnsatzOperator, "build", no_build)
        tc = tangent_algebroid(CYLC)
        space = AnsatzSpace(CYLC, degree=2, fourier_modes=2)
        cocycles = TestSharedSpace.cocycles(tc)
        assert [classify(alpha, space).status for alpha in cocycles] == [
            "exact",
            "exact",
            "nonexact_in_ansatz",
            "nonexact_in_ansatz",
            "nonexact_certified",
        ]
        verdicts = [cohomologous(alpha, cocycles[0], space).verdict for alpha in cocycles]
        assert verdicts == ["cohomologous", "cohomologous", "unknown_in_ansatz", "unknown_in_ansatz", "distinct_certified"]
        assert space._operators == {} and space._basis == []

    @pytest.mark.parametrize(
        "chart, comps",
        [(R2, lambda x, y: [R2.zero(), x]), (CYLC, lambda theta, x: [x, CYLC.zero()])],
        ids=["plane", "cylinder"],
    )
    def test_form_that_is_not_closed_is_refused(self, chart, comps):
        a = tangent_algebroid(chart)
        alpha = one_form(a, comps(*(chart.coord(c) for c in chart.coords)))
        space = AnsatzSpace(chart, 2, 2)
        with pytest.raises(PreconditionFailure, match="expects a closed 1-form"):
            classify(alpha, space)
        with pytest.raises(PreconditionFailure, match="expects a closed 1-form"):
            cohomologous(alpha, one_form(a, [chart.zero()] * 2), space)
        assert space._operators == {}
