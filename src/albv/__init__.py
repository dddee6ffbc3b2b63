"""Exact calculus on Lie algebroid frames over rational polynomial rings.

The pieces, bottom up: sparse polynomials and fraction-free linear algebra,
the graded exterior algebra of a frame with the determinant pairing, the
algebroid structures and their validation, the differential and the graded
bracket (each with an independently coded cross-check), generating operators
attached to top-degree connections, weight-graded homology tables built
from sparse operator rows compiled from generator data, and the
``albv`` command line front end over the .albv file format.

The package namespace holds the names of the README's library example and
those the command line uses; everything else is imported from its module.
Each name loads its module on first access (PEP 562), so importing one
module, such as ``albv.homology``, loads only what that module imports.
``albv.<name>`` and ``<module>.<name>`` are the same object.  The package
namespace does not keep the name once looked up: every access reads it from
its module, so a module attribute that is replaced, as a tracer does, is
what the package returns too.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    "CheckResult": "verify",
    "DUAL_SIDE": "exterior",
    "Document": "albvfile",
    "DocumentError": "albvfile",
    "GradedElem": "exterior",
    "Poly": "poly",
    "SUITES": "verify",
    "TopConnection": "bv",
    "basis_tuples": "exterior",
    "boundary_betti": "homology",
    "cohomology_betti": "homology",
    "curvature": "bv",
    "generating_operator": "bv",
    "kb_betti": "homology",
    "lichnerowicz": "calculus",
    "modular_relation_check": "homology",
    "modular_vector_field": "homology",
    "run_suites": "verify",
    "schouten": "calculus",
    "star": "exterior",
    "tangent_algebroid": "algebroid",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """An exported name, read from its module on every access."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    return getattr(importlib.import_module("." + module, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
