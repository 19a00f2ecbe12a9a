"""Execute scenario assertions and produce deterministic reports.

A `Session` holds one scenario at one seed and answers the queries that
both the assertions and the CLI subcommands ask: the cocycle a spec names,
the ansatz on a chart, a Poisson kit, a built pull-back and the exactness
class of a cocycle (sections are `Session.trivialization`'s).  It builds
each named object once and holds it.  `run` executes the assertions
through it.

Every assertion maps onto one library operation, whose outcome holds,
fails or is undecided (True, False, None); the verdict is pass when that
is the outcome its expect word names (pass/yes, fail/no, unknown), else
fail, or error (an exception, with its message).  Reports are byte-identical
for a fixed scenario and seed; wall-clock timings are collected only when
explicitly requested, since they would break that guarantee.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

from .cohomology import (
    MEAN_VANISHES,
    AnsatzSpace,
    Inconclusive,
    check_pullback_injectivity,
    classify,
    cohomologous,
    period_certificate,
)
from .core import AlgebroidPresentation, FormField, check_axioms, one_form, same_presentation
from .diagrams import DiagramError, exhibit_coboundary, delta0, modular_cochain, verify_mod_coboundary
from .extensions import (
    PoissonKit,
    UnimodularityFailure,
    check_extension,
    poisson_kit,
    verify_constant_rank_identity,
    verify_extension_identity,
    verify_regular_poisson,
)
from .morphisms import (
    check_composition_law,
    check_morphism,
    check_rep_morphism,
    pullback_form,
    pullback_rep,
    relative_canonical_rep,
    relative_modular,
)
from .pullback import (
    BuiltPullback,
    PullbackError,
    build_pullback,
    check_admissible,
    check_transverse,
    factorize,
    product_submersion_frame,
    verify_submersion_vanishing,
)
from .reps import LineSection, Trivialization, char_cocycle, check_flat, dual_rep, tensor_rep
from .report import CheckReport, Decision
from .scenario import Assertion, Scenario, ScenarioError
from .symexpr import parse_expr


@dataclass
class AssertionResult:
    index: int
    kind: str
    text: str
    line: int
    verdict: str  # "pass" | "fail" | "error"
    detail: str = ""
    elapsed: Optional[float] = None

    def to_dict(self) -> dict:
        d = {
            "index": self.index,
            "kind": self.kind,
            "assertion": self.text,
            "line": self.line,
            "verdict": self.verdict,
            "detail": self.detail,
        }
        if self.elapsed is not None:
            d["elapsed_s"] = round(self.elapsed, 3)
        return d


@dataclass
class Report:
    scenario: str
    seed: int
    results: list[AssertionResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.verdict == "pass" for r in self.results)

    def to_text(self) -> str:
        lines = [f"scenario {self.scenario} (seed {self.seed})"]
        for r in self.results:
            mark = {"pass": "PASS", "fail": "FAIL", "error": "ERR "}[r.verdict]
            line = f"  [{mark}] {r.index:02d} {r.text}"
            if r.elapsed is not None:
                line += f"  ({r.elapsed:.3f}s)"
            if r.detail:
                line += f"\n         {r.detail}"
            lines.append(line)
        n_pass = sum(1 for r in self.results if r.verdict == "pass")
        lines.append(f"{n_pass}/{len(self.results)} assertions passed")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "scenario": self.scenario,
                "seed": self.seed,
                "passed": self.passed,
                "results": [r.to_dict() for r in self.results],
            },
            sort_keys=True,
            indent=2,
        )


# an expect word -> the outcome it expects: holds, fails or is undecided
_EXPECTS = {"pass": True, "yes": True, "fail": False, "no": False, "unknown": None}


def _report_detail(rep: CheckReport, want: Optional[bool]) -> str:
    """The detail of a report assertion that expects `want`: empty when every
    item holds as expected, else the items that fail (or, in an undecided
    report, are undecided), or their count when failing was expected."""
    got = rep.passed
    if got:
        return "" if want else "every check passed"
    items = [i for i in rep.items if i.ok is got]
    if got is want is False:
        return f"failed as expected ({len(items)} nonzero residuals)"
    return "; ".join(i.label + (f": {i.detail}" if i.detail else "") for i in items[:4])


class Session:
    """One scenario at one seed: the queries that assertions and CLI
    subcommands share.  The session holds what it builds, by name: the
    ansatz space of each chart, the kit of each Poisson structure, each
    named pull-back and the product pull-back of each algebroid from each
    chart, each built on first use.  So each space factors d_A once per
    algebroid it is asked about (one cotangent algebroid per Poisson
    structure).  An extension holds its own representations, and each
    algebroid its canonical modular cocycle, so that cocycle is built once
    per algebroid object."""

    def __init__(self, sc: Scenario, seed: int = 0):
        self.sc = sc
        self.seed = seed
        self._built: dict[tuple, object] = {}

    def _hold(self, kind: str, name, build):
        """The `kind` object called `name`, from `build()` on first use."""
        if (kind, name) not in self._built:
            self._built[kind, name] = build()
        return self._built[kind, name]

    def trivialization(self, alg: AlgebroidPresentation) -> Trivialization:
        """The section declared for the scenario algebroid that is `alg`
        (identity, not equality), else the canonical one, whose cocycle is
        the one `alg` holds (`AlgebroidPresentation.modular`)."""
        for name, triv in self.sc.sections.items():
            if self.sc.algebroids[name] is alg:
                return triv
        return Trivialization.of(alg)

    def ansatz(self, chart) -> AnsatzSpace:
        sc = self.sc
        return self._hold("ansatz", chart.name, lambda: AnsatzSpace(chart, sc.ansatz_degree, sc.ansatz_modes))

    def poisson_kit(self, name: str) -> PoissonKit:
        """The extension data of the named regular Poisson structure."""
        data = self.sc.poissons[name]
        build = lambda: poisson_kit(data.bivector, data.image, data.kernel, lam_coeff=data.lam)
        return self._hold("poisson", name, build)

    def pullback(self, name: str) -> BuiltPullback:
        """The named pull-back, built from its declared frame; a frame equal
        to the product one is the `product_pullback`."""
        pf = self.sc.pullframes[name]
        try:
            product = pf == product_submersion_frame(pf.target, pf.source_chart)
        except PullbackError:  # the source chart has no product frame
            product = False
        if product:
            return self.product_pullback(pf.target, pf.source_chart)
        return self._hold("pullback", name, lambda: build_pullback(pf))

    def product_pullback(self, b: AlgebroidPresentation, chart) -> BuiltPullback:
        """The pull-back of `b` along the product projection from `chart`,
        which `ellphi` assertions and equal declared frames share."""
        build = lambda: build_pullback(product_submersion_frame(b, chart))
        return self._hold("product pullback", f"{b.name} from {chart.name}", build)

    def classify(self, alpha: FormField) -> Decision:
        """Exactness of `alpha` in the session's ansatz on its chart."""
        return classify(alpha, self.ansatz(alpha.algebroid.chart))

    def sections(self, dia) -> dict:
        """The trivialization of every object of a diagram, by object name."""
        return {name: self.trivialization(alg) for name, alg in dia.objects.items()}

    def extension_identity(self, name: str) -> CheckReport:
        """The modular identity report of the named extension."""
        ext = self.sc.extensions[name]
        return verify_extension_identity(
            ext,
            mu_quotient=self.sc.extension_mu.get(name),
            ansatz=self.ansatz(ext.chart),
        )

    def cocycle(self, spec: dict) -> FormField:
        """The 1-form a parsed cocycle spec names (`{"kind": ..., ...}`)."""
        kind = spec["kind"]
        sc = self.sc
        if kind == "modular":
            a = sc.algebroid(spec["name"])
            return self.trivialization(a).modular
        if kind == "zero":
            a = sc.algebroid(spec["name"])
            return one_form(a, [a.chart.zero()] * a.rank)
        if kind == "relmod":
            phi = sc.morphisms[spec["name"]]
            return relative_modular(
                phi,
                self.trivialization(phi.source),
                self.trivialization(phi.target),
            )
        if kind in ("poissonmod", "poissonhalf"):
            kit = self.poisson_kit(spec["name"])
            return kit.mod_sharp if kind == "poissonmod" else kit.half
        if kind == "char":
            d = sc.reps[spec["name"]]
            return char_cocycle(d, LineSection(spec["section"]))
        if kind == "form":
            a = sc.algebroid(spec["name"])
            return one_form(a, spec["comps"])
        if kind == "pull":
            phi = sc.morphisms[spec["name"]]
            inner = self.cocycle(spec["inner"])
            return pullback_form(phi, inner)
        raise ScenarioError(f"unknown cocycle spec {kind!r}")

    # ----- assertion handlers -------------------------------------------
    # A handler returns (holds, detail), holds True, False or None
    # (undecided), or the CheckReport whose `passed` is its outcome.

    def run_assertion(self, a: Assertion) -> tuple[str, str]:
        """The verdict: pass iff the outcome is the one `expect` names."""
        out = getattr(self, f"_assert_{a.kind}")(a.args)
        want = _EXPECTS[a.args.get("expect", "pass")]
        holds, detail = (out.passed, _report_detail(out, want)) if isinstance(out, CheckReport) else out
        return ("pass" if holds == want else "fail"), detail

    def _assert_axioms(self, args) -> CheckReport:
        return check_axioms(self.sc.algebroid(args["name"]))

    def _assert_flat(self, args) -> CheckReport:
        return check_flat(self.sc.reps[args["name"]])

    def _assert_morphism(self, args) -> CheckReport:
        return check_morphism(self.sc.morphisms[args["name"]])

    def _assert_equal(self, args) -> tuple[bool, str]:
        left = self.cocycle(args["left"])
        right = self.cocycle(args["right"])
        res = left - right
        return res.is_zero(), "" if res.is_zero() else f"difference {res}"

    def _assert_exact(self, args) -> tuple[Optional[bool], str]:
        cls = self.classify(self.cocycle(args["spec"]))
        detail = cls.status
        if cls.holds:
            detail += f"; primitive {cls.evidence}"
        elif cls.holds is False:
            detail += f"; mean {cls.evidence.mean} along {cls.evidence.coord}"
        return cls.holds, detail

    def _assert_cohomologous(self, args) -> tuple[Optional[bool], str]:
        left = self.cocycle(args["left"])
        right = self.cocycle(args["right"])
        verdict = cohomologous(left, right, self.ansatz(left.algebroid.chart))
        return verdict.holds, verdict.status

    def _assert_period(self, args) -> tuple[bool, str]:
        alpha = self.cocycle(args["spec"])
        chart = alpha.algebroid.chart
        mean_expect = parse_expr(args["mean_raw"], chart)
        cert = period_certificate(alpha, args["combo"], args["coord"])
        if isinstance(cert, Inconclusive):
            # a non-periodic pairing has no mean, so it has no mean 0 either
            if cert.reason == MEAN_VANISHES and mean_expect.is_zero():
                return True, f"inconclusive as expected: {cert.reason}"
            return False, f"inconclusive: {cert.reason}"
        return (cert.mean - mean_expect).is_zero(), f"mean {cert.mean}"

    def _assert_dphi(self, args) -> tuple[bool, str]:
        phi = self.sc.morphisms[args["name"]]
        sec_s = self.trivialization(phi.source)
        sec_t = self.trivialization(phi.target)
        d = relative_canonical_rep(phi, sec_s, sec_t)
        alpha = char_cocycle(d, LineSection(phi.source.chart.one()))
        rel = relative_modular(phi, sec_s, sec_t)
        res = alpha - rel
        return res.is_zero(), "" if res.is_zero() else str(res)

    def _assert_charpull(self, args) -> tuple[bool, str]:
        phi = self.sc.morphisms[args["morphism"]]
        d = self.sc.reps[args["rep"]]
        pulled = pullback_rep(phi, d)
        lam_t = LineSection(phi.target.chart.one())
        lam_s = LineSection(phi.source.chart.one())
        lhs = char_cocycle(pulled, lam_s)
        rhs = pullback_form(phi, char_cocycle(d, lam_t))
        res = lhs - rhs
        return res.is_zero(), "" if res.is_zero() else str(res)

    def _assert_charids(self, args) -> tuple[bool, str]:
        """Dual negates and tensor adds, with consistent sections."""
        d1 = self.sc.reps[args["rep"]]
        d2 = self.sc.reps[args["other"]]
        lam = LineSection(d1.chart.one())
        c1 = char_cocycle(d1, lam)
        c2 = char_cocycle(d2, lam)
        res_dual = char_cocycle(dual_rep(d1), lam) + c1
        res_tens = char_cocycle(tensor_rep(d1, d2), lam) - c1 - c2
        ok = res_dual.is_zero() and res_tens.is_zero()
        return ok, "" if ok else f"dual residual {res_dual}; tensor residual {res_tens}"

    def _assert_compose(self, args) -> CheckReport:
        first = self.sc.morphisms[args["first"]]
        second = self.sc.morphisms[args["second"]]
        return check_composition_law(
            first,
            second,
            self.trivialization(first.source),
            self.trivialization(first.target),
            self.trivialization(second.target),
        )

    def _assert_pullback(self, args) -> tuple[Optional[bool], str]:
        built = self.pullback(args["name"])
        target = self.sc.algebroid(args["algebroid"])
        ok = same_presentation(built.presentation, target)
        detail = "" if ok else "presentations differ"
        proj_ok = check_morphism(built.projection).passed
        if not proj_ok:
            detail += "; projection fails the morphism check"
        if ok and proj_ok and built.validated is None:
            return None, "frame validation undecided"
        return ok and proj_ok, detail

    def _assert_admissible(self, args) -> tuple[bool, str] | CheckReport:
        b = self.sc.algebroid(args["algebroid"])
        chart = self.sc.charts[args["chart"]]
        rep = check_admissible(b, chart, args["base"])
        detail = "; ".join(i.detail for i in rep.items if i.detail)
        if "rank" in args:
            return rep.passed and rep.data.get("rank") == args["rank"], detail
        return rep

    def _assert_transverse(self, args) -> CheckReport:
        b = self.sc.algebroid(args["algebroid"])
        chart = self.sc.charts[args["chart"]]
        return check_transverse(b, chart, args["base"])

    def _assert_ellphi(self, args) -> CheckReport:
        built = self.product_pullback(self.sc.algebroid(args["algebroid"]), self.sc.charts[args["chart"]])
        return verify_submersion_vanishing(built, args["sigma"], args["nu"], args["mu"])

    def _assert_factor(self, args) -> CheckReport:
        phi = self.sc.morphisms[args["morphism"]]
        return factorize(phi, self.pullback(args["pullback"]))[1]

    def _assert_extension(self, args) -> tuple[bool, str] | CheckReport:
        ext = self.sc.extensions[args["name"]]
        sub = args["sub"]
        if sub == "valid":
            return check_extension(ext, seed=self.seed)
        if sub == "unimodular":
            try:
                ext.top
                return True, "invariant section verified"
            except UnimodularityFailure as e:
                return False, str(e)
        return self.extension_identity(args["name"])

    def _assert_quotientdata(self, args) -> CheckReport:
        qd = self.sc.quotientdata[args["name"]]
        return verify_constant_rank_identity(
            qd.phi,
            qd.extension,
            qd.include,
            qd.complement,
            ansatz=self.ansatz(qd.phi.source.chart),
        )

    def _assert_poisson(self, args) -> CheckReport:
        name = args["name"]
        kit = self.poisson_kit(name)
        return verify_regular_poisson(
            kit,
            self.sc.poissons[name].complement,
            ansatz=self.ansatz(kit.ext.chart),
            seed=self.seed,
        )

    def _assert_diagram(self, args) -> CheckReport:
        dia = self.sc.diagrams[args["name"]]
        sub = args["sub"]
        if sub == "validates":
            return dia.validate()
        sections = self.sections(dia)
        if sub == "coboundary":
            return verify_mod_coboundary(dia, sections)
        # pointcoboundary: find the arrow to the point object per source
        point = args["point"]
        point_arrows = {}
        for objname in dia.objects:
            if objname == point:
                point_arrows[objname] = f"id_{point}"
                continue
            cands = [
                n
                for n, ar in dia.arrows.items()
                if ar.source == objname and ar.target == point
            ]
            if len(cands) != 1:
                raise DiagramError(f"need exactly one arrow {objname} -> {point}")
            point_arrows[objname] = cands[0]
        u0 = modular_cochain(dia, sections)
        v = delta0(dia, u0)
        return exhibit_coboundary(dia, v, point_arrows)[1]

    def _assert_inj(self, args) -> CheckReport:
        proj = self.sc.morphisms[args["morphism"]]
        alpha = self.cocycle(args["spec"])
        return check_pullback_injectivity(
            proj,
            alpha,
            self.ansatz(proj.target.chart),
            self.ansatz(proj.source.chart),
        )

    def _assert_bundlemap(self, args) -> CheckReport:
        bm = self.sc.bundlemaps[args["name"]]
        return check_rep_morphism(bm.matrix, bm.source_rep, bm.target_rep, bm.over)


def run(sc: Scenario, seed: int = 0, timings: bool = False) -> Report:
    """Execute the assertions in declaration order."""
    session = Session(sc, seed)
    report = Report(sc.name, seed)
    for idx, a in enumerate(sc.assertions, start=1):
        t0 = time.perf_counter() if timings else None
        try:
            verdict, detail = session.run_assertion(a)
        except Exception as e:  # verdicts, not crashes
            verdict, detail = "error", f"{type(e).__name__}: {e}"
        elapsed = (time.perf_counter() - t0) if timings else None
        report.results.append(
            AssertionResult(idx, a.kind, a.text, a.line, verdict, detail, elapsed)
        )
    return report
