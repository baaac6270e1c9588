"""Parity-based polynomial invariants of knots in thickened surfaces and of
virtual knots: diagram codes, crossing parity and types, quotient-ring
arithmetic, invariant matrices and determinants, Reidemeister-move rewriting,
and a randomized invariance verifier."""

from .diagram import (
    Diagram,
    arcs,
    parse_file,
    parse_gauss,
    parse_line,
    parse_surface,
    short_arcs,
)
from .invariant import (
    ComparisonResult,
    InvariantValue,
    compare,
    n_presentation,
    nprime_invariant,
    s_invariant,
)
from .matrix import InvariantMatrix, build_M, build_N_presentation, build_Npp
from .moves import MoveInstance, applicable, apply, random_diagram, verify_invariance
from .parity import hierarchy_types, parity_map
from .rings import (
    LaurentPoly,
    QuotientRing,
    det,
    g_ring,
    rprime_ring,
)

__version__ = "0.1.0"

__all__ = [
    "Diagram",
    "arcs",
    "parse_file",
    "parse_gauss",
    "parse_line",
    "parse_surface",
    "short_arcs",
    "ComparisonResult",
    "InvariantValue",
    "compare",
    "n_presentation",
    "nprime_invariant",
    "s_invariant",
    "InvariantMatrix",
    "build_M",
    "build_N_presentation",
    "build_Npp",
    "MoveInstance",
    "applicable",
    "apply",
    "random_diagram",
    "verify_invariance",
    "hierarchy_types",
    "parity_map",
    "LaurentPoly",
    "QuotientRing",
    "det",
    "g_ring",
    "rprime_ring",
]
