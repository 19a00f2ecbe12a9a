import random

from algebroids.core import (
    d_A,
    function_form,
    one_form,
    tangent_algebroid,
    zero_algebroid,
)
from algebroids.diagrams import (
    Diagram,
    delta0,
    delta1,
    exhibit_coboundary,
    modular_cochain,
    verify_mod_coboundary,
)
from algebroids.morphisms import (
    Morphism,
    Trivialization,
    base_preserving_morphism,
    compose,
    identity_morphism,
)
from algebroids.reps import canonical_sections
from algebroids.symexpr import Chart, point_chart, sin

from conftest import cylinder_algebroid


def cylinder_diagram():
    S1 = Chart("S1", ("theta",), (True,))
    N = Chart("N", ("theta", "x"), (True, False))
    ts1 = tangent_algebroid(S1)
    b = cylinder_algebroid(N)
    tn = tangent_algebroid(N)
    incl = Morphism("incl", ts1, b, [S1.coord("theta"), S1.zero()], [[S1.one()]])
    ib = base_preserving_morphism("iB", b, tn, [[N.one()], [N.coord("x")]])
    comp = compose(ib, incl, "tphi")
    dia = Diagram()
    dia.add_object("TS1", ts1)
    dia.add_object("B", b)
    dia.add_object("TN", tn)
    for alg, name in ((ts1, "TS1"), (b, "B"), (tn, "TN")):
        dia.add_arrow(f"id_{name}", identity_morphism(alg), name, name)
    dia.add_arrow("incl", incl, "TS1", "B")
    dia.add_arrow("iB", ib, "B", "TN")
    dia.add_arrow("tphi", comp, "TS1", "TN")
    dia.declare_composite("incl", "iB", "tphi")
    dia.declare_composite("incl", "id_B", "incl")
    dia.declare_composite("id_TS1", "incl", "incl")
    return dia


def sections_for(dia):
    return {name: Trivialization(*canonical_sections(a)) for name, a in dia.objects.items()}


class TestDiagram:
    def test_validates(self):
        dia = cylinder_diagram()
        assert dia.validate().passed


class TestDelta:
    def test_delta0_of_zero(self):
        dia = cylinder_diagram()
        u = {name: one_form(a, [a.chart.zero()] * a.rank) for name, a in dia.objects.items()}
        du = delta0(dia, u)
        assert all(v.is_zero() for v in du.values())

    def test_identity_arrow_kills_delta(self):
        dia = cylinder_diagram()
        u = modular_cochain(dia, sections_for(dia))
        du = delta0(dia, u)
        for name in dia.objects:
            assert du[f"id_{name}"].is_zero()

    def test_delta_squared_zero_random(self):
        rng = random.Random(13)
        dia = cylinder_diagram()
        for _ in range(10):
            u = {}
            for name, a in dia.objects.items():
                f = a.chart.zero()
                for per, cname in zip(a.chart.periodic, a.chart.coords):
                    c = a.chart.coord(cname)
                    term = (sin(c) if per else c ** 2) * rng.randint(-3, 3)
                    f = f + term
                u[name] = d_A(function_form(a, f))
            dv = delta1(dia, delta0(dia, u))
            assert all(v.is_zero() for v in dv.values())

    def test_mod_coboundary_and_cocycle_law(self):
        dia = cylinder_diagram()
        rep = verify_mod_coboundary(dia, sections_for(dia))
        assert rep.passed

    def test_cylinder_first_arrow_value(self):
        dia = cylinder_diagram()
        u = modular_cochain(dia, sections_for(dia))
        du = delta0(dia, u)
        ts1 = dia.objects["TS1"]
        assert du["incl"] == one_form(ts1, [ts1.chart.const(-1)])


class TestPointObject:
    def point_diagram(self):
        dia = cylinder_diagram()
        pt = zero_algebroid(point_chart(), "pt")
        dia.add_object("pt", pt)
        dia.add_arrow("id_pt", identity_morphism(pt), "pt", "pt")
        point_arrows = {}
        for name in ("TS1", "B", "TN"):
            a = dia.objects[name]
            arrow = Morphism(f"p_{name}", a, pt, [], [])
            dia.add_arrow(f"p_{name}", arrow, name, "pt")
            point_arrows[name] = f"p_{name}"
        point_arrows["pt"] = "id_pt"
        dia.declare_composite("incl", "p_B", "p_TS1")
        dia.declare_composite("iB", "p_TN", "p_B")
        dia.declare_composite("tphi", "p_TN", "p_TS1")
        return dia, point_arrows

    def test_every_cocycle_is_a_coboundary(self):
        dia, point_arrows = self.point_diagram()
        assert dia.validate().passed
        u0 = modular_cochain(dia, sections_for(dia))
        v = delta0(dia, u0)  # a 1-cocycle by construction
        u, rep = exhibit_coboundary(dia, v, point_arrows)
        assert rep.passed
        # on the zero algebroid over a point every 1-form is zero
        assert u["pt"].is_zero() if "pt" in u else True
