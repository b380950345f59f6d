"""Exact counting of affine-equivalence classes of Boolean functions on
quotients R(s,n)/R(k,n) of degree-bounded function spaces, for n up to 10.

The public surface mirrors the internal layering: GF(2) linear algebra
(gf2), normal forms (anf), the affine group (group), its action matrices
(linrep), conjugacy cell decompositions (conjclasses), and the counting
engine (burnside).
"""

from .anf import (
    Anf,
    CoefficientVector,
    DegreeOutOfRangeError,
    Monomial,
    anf_of_cv,
    cv,
    evaluate,
    monomial_order,
    project,
    space_dimension,
    substitute,
    substitute_anf,
)
from .burnside import (
    CountResult,
    InexactDivisionError,
    count,
    count_pairs,
    fix_count,
    symmetry_check,
)
from .conjclasses import (
    CellDecompositionError,
    CellFormatError,
    ConjCell,
    GlClassDescriptor,
    affine_cells,
    exhaustive_cells,
    export_cells,
    gl_classes,
    import_cells,
    rational_cells,
)
from .gf2 import (
    BitMatrix,
    BitVector,
    SingularMatrixError,
    identity,
    inverse,
    mat_mul,
    mat_vec,
    rank,
)
from .group import (
    AffineElement,
    NotAffineError,
    Permutation,
    apply,
    compose,
    conjugate,
    element_from_text,
    from_permutation,
    group_orders,
    index_of_point,
    point_of_index,
    random_element,
    to_permutation,
)
from .linrep import TauMatrix, tau_matrix

__version__ = "0.1.0"
