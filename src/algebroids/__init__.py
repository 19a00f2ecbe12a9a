"""Exact symbolic calculus for Lie algebroid presentations.

Presentations live over a single coordinate chart; all identities are
decided exactly in a canonical class of trig/exp polynomials with rational
coefficients, with probabilistic checks only where rank conditions make
exact verdicts undecidable (and always disclosed as such).
"""

from .cohomology import AnsatzSpace, classify, cohomologous, period_certificate, solve_exact
from .core import (
    AlgebroidPresentation,
    FormField,
    Multivector,
    check_axioms,
    d_A,
    interior,
    schouten,
    tangent_algebroid,
)
from .morphisms import (
    Morphism,
    check_morphism,
    compose,
    pullback_form,
    pullback_rep,
    relative_canonical_rep,
    relative_modular,
)
from .reps import (
    LineSection,
    Representation,
    Trivialization,
    char_cocycle,
    check_flat,
    dual_rep,
    tensor_rep,
)
from .symexpr import Chart, ScalarFn, cos, exp, parse_expr, point_chart, sin

__all__ = [
    "AlgebroidPresentation",
    "AnsatzSpace",
    "Chart",
    "FormField",
    "LineSection",
    "Morphism",
    "Multivector",
    "Representation",
    "ScalarFn",
    "Trivialization",
    "char_cocycle",
    "check_axioms",
    "check_flat",
    "check_morphism",
    "classify",
    "cohomologous",
    "compose",
    "cos",
    "d_A",
    "dual_rep",
    "exp",
    "interior",
    "parse_expr",
    "period_certificate",
    "point_chart",
    "pullback_form",
    "pullback_rep",
    "relative_canonical_rep",
    "relative_modular",
    "schouten",
    "sin",
    "solve_exact",
    "tangent_algebroid",
    "tensor_rep",
]

__version__ = "0.1.0"
