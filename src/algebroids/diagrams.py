"""Finite diagrams of algebroids with cohomology-valued cochains.

A diagram is a set of named presentations, verified morphisms between
them, and an explicit composition table.  0-cochains assign a closed
1-form to each object, 1-cochains one to each arrow's source; the
coboundary pairs them through the pull-back operators, and the relative
modular cocycle is exactly the coboundary of the object-wise modular
cocycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import AlgebroidPresentation, FormField
from .morphisms import Morphism, check_morphism, compose, pullback_form, relative_modular
from .report import CheckReport
from .reps import Trivialization


class DiagramError(Exception):
    pass


@dataclass
class Arrow:
    name: str
    morphism: Morphism
    source: str
    target: str


class Diagram:
    """Objects, arrows and declared composites (with identities)."""

    def __init__(self):
        self.objects: dict[str, AlgebroidPresentation] = {}
        self.arrows: dict[str, Arrow] = {}
        self.composition: dict[tuple[str, str], str] = {}  # (first, second) -> composite

    def add_object(self, name: str, alg: AlgebroidPresentation) -> None:
        if name in self.objects:
            raise DiagramError(f"duplicate object {name!r}")
        self.objects[name] = alg

    def add_arrow(self, name: str, morphism: Morphism, source: str, target: str) -> None:
        if name in self.arrows:
            raise DiagramError(f"duplicate arrow {name!r}")
        if source not in self.objects or target not in self.objects:
            raise DiagramError(f"arrow {name!r} references unknown objects")
        self.arrows[name] = Arrow(name, morphism, source, target)

    def declare_composite(self, first: str, second: str, result: str) -> None:
        """second o first = result, for first: A->B and second: B->C."""
        for n in (first, second, result):
            if n not in self.arrows:
                raise DiagramError(f"unknown arrow {n!r} in composition table")
        self.composition[(first, second)] = result

    def validate(self) -> CheckReport:
        rep = CheckReport("diagram")
        for arrow in self.arrows.values():
            rep.merge(check_morphism(arrow.morphism), prefix=f"{arrow.name}: ")
            src_ok = arrow.morphism.source == self.objects[arrow.source]
            tgt_ok = arrow.morphism.target == self.objects[arrow.target]
            rep.add(f"{arrow.name} endpoints resolve", src_ok and tgt_ok)
        for (first, second), result in self.composition.items():
            f, s, r = self.arrows[first], self.arrows[second], self.arrows[result]
            ok = f.target == s.source and r.source == f.source and r.target == s.target
            rep.add(f"composable: {second} o {first} -> {result}", ok)
            if ok:
                built = compose(s.morphism, f.morphism)
                match = (
                    built.fiber == r.morphism.fiber
                    and tuple(built.basemap) == tuple(r.morphism.basemap)
                )
                rep.add(f"composite data matches {result}", match)
        # associativity on declared triples
        for (f1, s1), r1 in self.composition.items():
            for (f2, s2), r2 in self.composition.items():
                if f2 == r1:
                    # (s2 o (s1 o f1)); compare with declared (s2 o s1) o f1
                    key_inner = (s1, s2)
                    if key_inner in self.composition:
                        left = self.composition.get((f1, self.composition[key_inner]))
                        if left is not None:
                            rep.add(
                                f"associativity at ({f1},{s1},{s2})", left == r2
                            )
        return rep


Cochain0 = Mapping[str, FormField]
Cochain1 = Mapping[str, FormField]


def delta0(diagram: Diagram, u: Cochain0) -> dict[str, FormField]:
    """(delta u)(arrow) = u(source) - pull-back of u(target)."""
    out = {}
    for name, arrow in diagram.arrows.items():
        out[name] = u[arrow.source] - pullback_form(arrow.morphism, u[arrow.target])
    return out


def delta1(diagram: Diagram, v: Cochain1) -> dict[tuple[str, str], FormField]:
    """(delta v)(first, second) = v(first) - v(composite) + pull-back of v(second)."""
    out = {}
    for (first, second), result in diagram.composition.items():
        f = diagram.arrows[first]
        out[(first, second)] = (
            v[first] - v[result] + pullback_form(f.morphism, v[second])
        )
    return out


def modular_cochain(
    diagram: Diagram, sections: Mapping[str, Trivialization]
) -> dict[str, FormField]:
    """The object-wise modular cocycles for chosen trivializations, the
    ones the trivializations hold."""
    return {
        name: sections[name].on(alg).modular
        for name, alg in diagram.objects.items()
    }


def verify_mod_coboundary(
    diagram: Diagram, sections: Mapping[str, Trivialization]
) -> CheckReport:
    """delta of the modular 0-cochain equals the relative modular cocycle
    arrow by arrow, exactly."""
    rep = CheckReport("modular class is a coboundary")
    u = modular_cochain(diagram, sections)
    du = delta0(diagram, u)
    for name, arrow in diagram.arrows.items():
        rel = relative_modular(
            arrow.morphism, sections[arrow.source], sections[arrow.target]
        )
        res = du[name] - rel
        rep.residual(f"delta(Mod)({name}) = relative cocycle", res)
    dv = delta1(diagram, du)
    for key, val in dv.items():
        rep.residual(f"cocycle law on {key[1]} o {key[0]}", val)
    return rep


def exhibit_coboundary(
    diagram: Diagram, v: Cochain1, point_arrows: Mapping[str, str]
) -> tuple[dict[str, FormField], CheckReport]:
    """Write a 1-cocycle as a coboundary using arrows to a point object.

    ``point_arrows`` names, for each object, the arrow into the terminal
    zero algebroid over a point.  Sets u(A) = v(arrow to point) and checks
    v = delta u on every arrow (valid whenever delta v = 0 holds on the
    declared pairs through the point).
    """
    rep = CheckReport("coboundary through the point object")
    u = {name: v[point_arrows[name]] for name in diagram.objects}
    du = delta0(diagram, u)
    for name in diagram.arrows:
        res = v[name] - du[name]
        rep.residual(f"v = delta(u) on {name}", res)
    return u, rep
