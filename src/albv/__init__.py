"""Exact calculus on Lie algebroid frames over rational polynomial rings.

The pieces, bottom up: sparse polynomials and fraction-free linear algebra,
the graded exterior algebra of a frame with the determinant pairing, the
algebroid structures and their validation, the differential and the graded
bracket (each with an independently coded cross-check), generating operators
attached to top-degree connections, weight-graded homology tables, and the
``albv`` command line front end over the .albv file format.

The package namespace holds the names of the README's library example and
those the command line uses; everything else is imported from its module.
"""

from .algebroid import tangent_algebroid
from .albvfile import Document, DocumentError
from .bv import TopConnection, curvature, generating_operator
from .calculus import lichnerowicz, schouten
from .exterior import DUAL_SIDE, GradedElem, basis_tuples, star
from .homology import (
    boundary_betti,
    cohomology_betti,
    kb_betti,
    modular_relation_check,
    modular_vector_field,
)
from .poly import Poly
from .verify import SUITES, CheckResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "DUAL_SIDE",
    "Document",
    "DocumentError",
    "GradedElem",
    "Poly",
    "SUITES",
    "TopConnection",
    "basis_tuples",
    "boundary_betti",
    "cohomology_betti",
    "curvature",
    "generating_operator",
    "kb_betti",
    "lichnerowicz",
    "modular_relation_check",
    "modular_vector_field",
    "run_suites",
    "schouten",
    "star",
    "tangent_algebroid",
]
