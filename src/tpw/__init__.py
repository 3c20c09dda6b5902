"""Exact-arithmetic workbench for transposed Poisson structures.

Builds graded Lie algebras indexed by integer lattices, solves their
scaled-derivation constraint systems exactly over the rationals, and
constructs, verifies and classifies transposed Poisson products on finite
windows.
"""

from .exactlin import (
    NullspaceBasis,
    RowSpace,
    SparseMatrix,
    in_span,
    nullspace,
    scalar_from_str,
    scalar_to_str,
)
from .lattice import (
    AdditiveMap,
    BiadditiveForm,
    Pairing,
    Window,
    box_points,
    form_from_gh,
    nondegeneracy_witnesses,
)
from .algebra import (
    Block,
    Element,
    GeneralizedWitt,
    WittType,
    bracket,
    center_predicate,
    square_predicate,
    verify_center,
    verify_lie_axioms,
    verify_square,
    witt_to_witt_type,
)
from .halfderiv import assemble, compare, predicted, solve, sweep

__all__ = [
    "AdditiveMap",
    "BiadditiveForm",
    "Block",
    "Element",
    "GeneralizedWitt",
    "NullspaceBasis",
    "Pairing",
    "RowSpace",
    "SparseMatrix",
    "Window",
    "WittType",
    "assemble",
    "box_points",
    "bracket",
    "center_predicate",
    "compare",
    "form_from_gh",
    "in_span",
    "nondegeneracy_witnesses",
    "nullspace",
    "predicted",
    "scalar_from_str",
    "scalar_to_str",
    "solve",
    "square_predicate",
    "sweep",
    "verify_center",
    "verify_lie_axioms",
    "verify_square",
    "witt_to_witt_type",
]

__version__ = "0.1.0"
