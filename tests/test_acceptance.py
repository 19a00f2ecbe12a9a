"""Acceptance criteria, one test per criterion.

Every check is exact-symbolic (zero residual scalar functions) or a sound
certificate; randomized suites use fixed seeds.  Each test prints a
one-line verdict, so the suite doubles as a readable report:

    pytest tests/test_acceptance.py -s
"""

import random
from fractions import Fraction

import pytest

from algebroids.cli import corpus_scenarios, load_scenario
from algebroids.cohomology import (
    AnsatzSpace,
    Inconclusive,
    NonExactCertificate,
    cohomologous,
    find_circle_section,
    period_certificate,
    solve_exact,
)
from algebroids.core import (
    FormField,
    Multivector,
    check_axioms,
    d_A,
    function_form,
    one_form,
    same_presentation,
    tangent_algebroid,
)
from algebroids.diagrams import delta0, delta1, modular_cochain, verify_mod_coboundary
from algebroids.extensions import UnimodularityFailure, top_rep, verify_extension_identity
from algebroids.morphisms import (
    Morphism,
    Trivialization,
    check_composition_law,
    check_morphism,
    pullback_form,
    pullback_rep,
    relative_canonical_rep,
    relative_modular,
)
from algebroids.pullback import (
    PullbackFrame,
    PullbackFramePair,
    build_pullback,
    verify_submersion_vanishing,
)
from algebroids.reps import (
    EValuedForm,
    LineSection,
    Representation,
    canonical_sections,
    char_cocycle,
    check_flat,
    d_AE,
    dual_rep,
    modular_cocycle,
    tensor_rep,
)
from algebroids.runner import Session, run
from algebroids.scenario import parse_scenario
from algebroids.symexpr import Chart, ScalarFn, cos, exp, sin

import conftest
from conftest import cylinder_algebroid, jacobiator, random_lie_algebra


def report(criterion: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    line = f"ACCEPT [{mark}] {criterion}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def triv(alg) -> Trivialization:
    return Trivialization(*canonical_sections(alg))


def test_criterion_01_cylinder_counterexample():
    """Spiral algebroid end to end: pairing 1, relative cocycle -dtheta,
    period mean -1, pull-back reproduces the circle tangent.  Exact."""
    S1 = Chart("S1", ("theta",), (True,))
    N = Chart("N", ("theta", "x"), (True, False))
    b = cylinder_algebroid(N)
    ts1 = tangent_algebroid(S1)
    beta = modular_cocycle(b, *canonical_sections(b))
    ok1 = beta == one_form(b, [N.one()])
    incl = Morphism("incl", ts1, b, [S1.coord("theta"), S1.zero()], [[S1.one()]])
    rel = relative_modular(incl, triv(ts1), triv(b))
    ok2 = rel == one_form(ts1, [S1.const(-1)])
    cert = period_certificate(rel, find_circle_section(ts1, "theta"), "theta")
    ok3 = isinstance(cert, NonExactCertificate) and cert.mean == S1.const(-1)
    pf = PullbackFrame(
        b, S1, (S1.coord("theta"), S1.zero()),
        [PullbackFramePair((S1.one(),), (S1.one(),))], "user-supplied", ("t",),
    )
    built = build_pullback(pf)
    ok4 = same_presentation(built.presentation, ts1)
    proj = built.projection
    ok5 = (
        check_morphism(proj).passed
        and proj.fiber == ((S1.one(),),)
        and tuple(proj.basemap) == (S1.coord("theta"), S1.zero())
    )
    report(
        "01 cylinder counterexample end-to-end",
        ok1 and ok2 and ok3 and ok4 and ok5,
        "pairing 1, relative cocycle -dtheta, mean -1, pull-back = circle tangent",
    )


def test_criterion_02_submersion_cochain_vanishing():
    """Product-submersion transport: residual identically zero on >= 3
    targets (tangent, spiral, a Lie algebra, and a split normal form)."""
    N = Chart("N", ("theta", "x"), (True, False))
    M = Chart("M", ("theta", "x", "t"), (True, False, False))
    P = Chart("P", ("u", "v"))
    W = Chart("W", ("y",))
    V = Chart("V", ("x", "y"))
    cases = [
        ("tangent target", tangent_algebroid(N), M, N.one(), N.one(), M.one()),
        ("spiral target", cylinder_algebroid(N), M, N.one(), N.one(), M.one()),
        ("nonabelian Lie algebra target", conftest.aff1(), P,
         conftest.aff1().chart.one(), conftest.aff1().chart.one(), P.one()),
    ]
    from algebroids.core import AlgebroidPresentation

    cnf = AlgebroidPresentation(
        "C", W, ("c1", "c2"), [[W.coord("y")], [W.zero()]],
        {(0, 1): {1: W.coord("y")}},
    )
    cases.append(("split normal form target", cnf, V, W.one(), W.one(), V.one()))
    oks = []
    for label, target, src, sigma, nu, mu in cases:
        rep = verify_submersion_vanishing(target, src, sigma, nu, mu)
        oks.append(rep.passed)
    report(
        "02 submersion cochain-level vanishing",
        all(oks),
        f"{len(cases)} product-submersion scenarios, residual exactly 0",
    )


def _corpus_morphisms():
    for name in corpus_scenarios():
        sc = load_scenario(name)
        session = Session(sc, 0)
        for mname, phi in sc.morphisms.items():
            yield name, mname, phi, session


def test_criterion_03_relative_class_is_characteristic():
    """char of the relative canonical representation equals the relative
    modular cocycle, exactly, on every corpus morphism."""
    count = 0
    for scn, mname, phi, session in _corpus_morphisms():
        sec_s = session.trivialization(phi.source)
        sec_t = session.trivialization(phi.target)
        d = relative_canonical_rep(phi, sec_s, sec_t)
        alpha = char_cocycle(d, LineSection(phi.source.chart.one()))
        rel = relative_modular(phi, sec_s, sec_t)
        assert (alpha - rel).is_zero(), f"{scn}:{mname}"
        count += 1
    report(
        "03 relative class as characteristic class",
        count >= 10,
        f"exact on {count} corpus morphisms",
    )


def _random_flat_line_rep(alg, rng):
    """d-exact coefficients plus a closed constant cochain where available."""
    chart = alg.chart
    f = chart.zero()
    for name, per in zip(chart.coords, chart.periodic):
        c = chart.coord(name)
        f = f + rng.randint(-3, 3) * (sin(c) if per else c ** rng.randint(1, 2))
    coeffs = [alg.rho_apply(i, f) for i in range(alg.rank)]
    if alg.chart.dim == 0:
        rows = [
            [alg.c(i, j, k).constant_value() for k in range(alg.rank)]
            for i in range(alg.rank)
            for j in range(i + 1, alg.rank)
        ]
        for vec in conftest.rat_nullspace(rows, alg.rank) if rows else []:
            q = rng.randint(-3, 3)
            coeffs = [c + chart.const(q * v) for c, v in zip(coeffs, vec)]
    return Representation(alg, ("eps",), [[[c]] for c in coeffs], "Drnd")


def test_criterion_04_characteristic_identities():
    """Dual negates and tensor adds, on 100 randomized flat line
    representations; pull-back commutes with char on corpus morphisms."""
    rng = random.Random(2024)
    pool = [
        random_lie_algebra(rng, name=f"g{i}") for i in range(6)
    ] + [
        cylinder_algebroid(),
        tangent_algebroid(Chart("R2", ("x", "y"))),
        tangent_algebroid(Chart("T2", ("theta", "phi"), (True, True))),
    ]
    lam_choices = ["one", "exp"]
    count = 0
    for i in range(100):
        alg = pool[i % len(pool)]
        d1 = _random_flat_line_rep(alg, rng)
        d2 = _random_flat_line_rep(alg, rng)
        assert check_flat(d1).passed
        chart = alg.chart
        if chart.dim and lam_choices[i % 2] == "exp" and not chart.periodic[0]:
            s1 = exp(chart.coord(chart.coords[0]))
            s2 = exp(chart.const(-2) * chart.coord(chart.coords[0]))
        else:
            s1, s2 = chart.const(3), chart.one()
        c1, c2 = char_cocycle(d1, LineSection(s1)), char_cocycle(d2, LineSection(s2))
        # consistent sections: the dual bundle carries the inverse section,
        # the tensor bundle the product section
        dual_c = char_cocycle(dual_rep(d1), LineSection(s1.unit_inverse()))
        assert (dual_c + c1).is_zero()
        tens_c = char_cocycle(tensor_rep(d1, d2), LineSection(s1 * s2))
        assert (tens_c - c1 - c2).is_zero()
        count += 1
    pulled = 0
    for scn, mname, phi, runner in _corpus_morphisms():
        tgt = phi.target
        if tgt.chart.dim == 0:
            continue
        seeded = random.Random(hash((scn, mname)) & 0xFFFF)
        d = _random_flat_line_rep(tgt, seeded)
        lam_t, lam_s = LineSection(tgt.chart.one()), LineSection(phi.source.chart.one())
        lhs = char_cocycle(pullback_rep(phi, d), lam_s)
        rhs = pullback_form(phi, char_cocycle(d, lam_t))
        assert (lhs - rhs).is_zero(), f"{scn}:{mname}"
        pulled += 1
    report(
        "04 characteristic class identities",
        count == 100 and pulled >= 8,
        f"{count} randomized line reps; pull-back naturality on {pulled} morphisms",
    )


def test_criterion_05_composition_law_and_coboundary():
    """Composition law exact on a 3-object chain; delta o delta = 0 on
    randomized 0-cochains; delta(Mod) = relative cocycle per arrow."""
    from test_diagrams import cylinder_diagram, sections_for

    dia = cylinder_diagram()
    sections = sections_for(dia)
    incl = dia.arrows["incl"].morphism
    ib = dia.arrows["iB"].morphism
    law = check_composition_law(
        incl, ib,
        sections["TS1"], sections["B"], sections["TN"],
    )
    ok1 = law.passed
    rng = random.Random(15)
    ok2 = True
    for _ in range(20):
        u = {}
        for name, a in dia.objects.items():
            f = a.chart.zero()
            for per, cname in zip(a.chart.periodic, a.chart.coords):
                c = a.chart.coord(cname)
                f = f + rng.randint(-3, 3) * (sin(c) if per else c ** 2)
            u[name] = d_A(function_form(a, f))
        dv = delta1(dia, delta0(dia, u))
        ok2 = ok2 and all(v.is_zero() for v in dv.values())
    ok3 = verify_mod_coboundary(dia, sections).passed
    report(
        "05 composition law and modular coboundary",
        ok1 and ok2 and ok3,
        "exact cochain law, delta^2 = 0 on 20 random cochains, delta(Mod) = relative",
    )


def test_criterion_06_extension_identities():
    """Two unimodular extension scenarios hold exactly at cochain level;
    the nonunimodular kernel raises UnimodularityFailure."""
    from test_extensions import (
        abelian_kernel_extension,
        aff1_kernel_extension,
        so3_kernel_extension,
    )

    abelian, so3 = abelian_kernel_extension(), so3_kernel_extension()
    rep1 = verify_extension_identity(abelian, AnsatzSpace(abelian.chart))
    rep2 = verify_extension_identity(so3, AnsatzSpace(so3.chart))
    ok_fail = False
    try:
        top_rep(aff1_kernel_extension())
    except UnimodularityFailure:
        ok_fail = True
    report(
        "06 unimodular extension identities",
        rep1.passed and rep2.passed and ok_fail,
        "abelian rank-1 kernel and so(3) kernel exact; aff(1) kernel rejected",
    )


def test_criterion_07_poisson_doubling():
    """Doubling identity certified exact in the degree-4/modes-4 ansatz and
    the class certified nonzero through the circle slice."""
    sc = load_scenario("poisson_spiral.scn")
    assert sc.ansatz_degree == 4 and sc.ansatz_modes == 4
    session = Session(sc, 0)
    mod_sharp = session.cocycle({"kind": "poissonmod", "name": "SP"})
    half = session.cocycle({"kind": "poissonhalf", "name": "SP"})
    space = AnsatzSpace(mod_sharp.algebroid.chart, 4, 4)
    verdict = cohomologous(mod_sharp, half.scale(2), space)
    ok1 = verdict.verdict == "cohomologous"
    residual = mod_sharp - half.scale(2)
    ok2 = residual.is_zero()  # stronger: exact at cochain level here
    slice_m = sc.morphisms["slice"]
    pulled = pullback_form(slice_m, mod_sharp)
    cert = period_certificate(
        pulled, find_circle_section(slice_m.source, "theta"), "theta"
    )
    ok3 = isinstance(cert, NonExactCertificate) and cert.mean == slice_m.source.chart.const(2)
    report(
        "07 regular-bivector doubling identity",
        ok1 and ok2 and ok3,
        "difference exact in ansatz (and in fact zero); slice mean 2 certifies nonzero class",
    )


def test_criterion_08_axiom_flatness_suite():
    """200 randomized Jacobi-correct structure constants pass; corruptions
    that break Jacobi (per the brute-force oracle) all fail; flat reps have
    exactly zero curvature and perturbations fail."""
    rng = random.Random(99)
    passed = 0
    corrupted_fail = 0
    corrupted_total = 0
    for i in range(200):
        g = random_lie_algebra(rng, name=f"g{i}")
        assert check_axioms(g).passed
        passed += 1
        # single-entry corruption, kept only when the independent Jacobiator
        # oracle certifies it breaks the identity
        for _ in range(10):
            r = sorted(rng.sample(range(g.rank), 2)) if g.rank >= 2 else None
            if r is None:
                break
            k = rng.randrange(g.rank)
            delta = Fraction(rng.choice([1, -1, 2]))
            struct = {key: dict(val) for key, val in g.structure.items()}
            entry = struct.setdefault((r[0], r[1]), {})
            entry[k] = entry.get(k, g.chart.zero()) + g.chart.const(delta)
            from algebroids.core import AlgebroidPresentation

            bad = AlgebroidPresentation(
                "bad", g.chart, g.frame, g.anchor, struct
            )
            defect = False
            for a in range(bad.rank):
                for b in range(a + 1, bad.rank):
                    for c in range(b + 1, bad.rank):
                        if any(not f.is_zero() for f in jacobiator(bad, a, b, c)):
                            defect = True
            if defect:
                corrupted_total += 1
                if not check_axioms(bad).passed:
                    corrupted_fail += 1
                break
    ok1 = passed == 200 and corrupted_total >= 100 and corrupted_fail == corrupted_total
    # flat representations: exactly zero curvature, and the squared
    # differential vanishes on random sections (independent route)
    ok2 = True
    rng2 = random.Random(7)
    flat_checked = 0
    for i in range(30):
        alg = random_lie_algebra(rng2, name=f"h{i}") if i % 2 else cylinder_algebroid()
        d = _random_flat_line_rep(alg, rng2)
        ok2 = ok2 and check_flat(d).passed
        s = EValuedForm(d, [function_form(alg, alg.chart.const(rng2.randint(1, 5)))])
        ok2 = ok2 and d_AE(d, d_AE(d, s, checked=False), checked=False).is_zero()
        flat_checked += 1
    # perturbations: curvature appears, and the two routes agree on it
    perturbed_failed = 0
    pert_cases = []
    g_so3 = conftest.so3()
    from test_reps import adjoint_matrices

    ad = adjoint_matrices(g_so3)
    bumped = [list(map(list, m)) for m in ad]
    bumped[0][0][0] = bumped[0][0][0] + g_so3.chart.one()
    pert_cases.append(Representation(g_so3, g_so3.frame, bumped, "bumped-adj"))
    tm2 = tangent_algebroid(Chart("R2p", ("x", "y")))
    pert_cases.append(
        Representation(
            tm2, ("eps",), [[[tm2.chart.coord("y")]], [[tm2.chart.zero()]]], "ydx"
        )
    )
    aff = conftest.aff1()
    pert_cases.append(
        Representation(aff, ("eps",), [[[aff.chart.zero()]], [[aff.chart.one()]]], "nonco")
    )
    for d in pert_cases:
        flatrep = check_flat(d)
        s = EValuedForm(d, [function_form(d.algebroid, d.chart.one())] +
                        [function_form(d.algebroid, d.chart.zero())] * (d.bundle_rank - 1))
        square = d_AE(d, d_AE(d, s, checked=False), checked=False)
        if not flatrep.passed and not square.is_zero():
            perturbed_failed += 1
    ok3 = perturbed_failed == len(pert_cases)
    report(
        "08 axiom and flatness property suite",
        ok1 and ok2 and ok3,
        f"200 random algebras pass; {corrupted_fail}/{corrupted_total} oracle-certified "
        f"corruptions fail; {flat_checked} flat reps exactly curvature-free; "
        f"{perturbed_failed}/{len(pert_cases)} perturbed reps fail on both routes",
    )


def test_criterion_09_cohomology_soundness():
    """On 100 randomized exact cocycles over tori the period mean is exactly
    zero, and planted primitives are recovered."""
    rng = random.Random(31)
    charts = [
        Chart("T1", ("theta",), (True,)),
        Chart("T2", ("theta", "phi"), (True, True)),
        Chart("TC", ("theta", "x"), (True, False)),
    ]
    means_zero = 0
    recovered = 0
    for i in range(100):
        chart = charts[i % len(charts)]
        tm = tangent_algebroid(chart)
        space = AnsatzSpace(chart, degree=2, fourier_modes=3)
        f = chart.zero()
        for b in AnsatzSpace(chart, degree=2, fourier_modes=2).basis():
            f = f + rng.randint(-2, 2) * b
        alpha = d_A(function_form(tm, f))
        for k, per in enumerate(chart.periodic):
            if not per:
                continue
            combo = find_circle_section(tm, chart.coords[k])
            cert = period_certificate(alpha, combo, chart.coords[k])
            assert isinstance(cert, Inconclusive)
            assert cert.reason == "constant Fourier mode vanishes"
        means_zero += 1
        g = solve_exact(alpha, space)
        assert isinstance(g, ScalarFn)
        assert (d_A(function_form(tm, g)) - alpha).is_zero()
        recovered += 1
    report(
        "09 cohomology soundness",
        means_zero == 100 and recovered == 100,
        "100 exact cocycles: zero means, primitives recovered",
    )


def test_criterion_10_determinism():
    """Byte-identical reports for a fixed seed across two full corpus runs."""
    ok = True
    for name in corpus_scenarios():
        r1 = run(load_scenario(name), seed=0)
        r2 = run(load_scenario(name), seed=0)
        ok = ok and r1.to_json() == r2.to_json() and r1.to_text() == r2.to_text()
        ok = ok and r1.passed
    report(
        "10 deterministic reports",
        ok,
        f"{len(corpus_scenarios())} scenarios byte-identical across runs",
    )
