"""Exact arithmetic for lattice polytopes and word balls.

Compares the integer points of a dilated lattice polytope with the n-fold
Minkowski sums of its integer points, classifies and searches for primitive
triangulations (which guarantee the two coincide), and contrasts the
combinatorial boundary of word balls in finitely generated groups with
their fresh layer. Rational scalars are fractions.Fraction throughout; no
code path touches floating point.
"""

from .geometry import (
    DEFAULT_BOX_CAP,
    Halfspace,
    LatticePolytope,
    PointSet,
    ResourceLimitError,
    cross_polytope,
    cube,
    hull,
)
from .groups import (
    BoundaryReport,
    ElementSet,
    GroupPresentation,
    ball_boundary,
    ball_layers,
    check_boundary_equality,
    check_boundary_equality_range,
    gl2z_swap_shear_generators,
    omega_boundary,
    omega_interior,
    word_ball,
    zd_presentation_from_polytope,
)
from .minkowski import (
    Decomposition,
    EqualityReport,
    check_equality,
    check_equality_range,
    decompose,
    generates_zd,
    minkowski_power,
    minkowski_sum,
)
from .triangulation import (
    LatticeSimplex,
    SearchResult,
    SimplexClass,
    Triangulation,
    TriangulationReport,
    UnimodularCriteria,
    classify_simplex,
    is_elementary_polytope,
    is_unimodular,
    search_primitive_triangulation,
    sigma,
    sigma_prime,
    simplices_face_to_face,
    unimodular_criteria,
    validate_triangulation,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_BOX_CAP",
    "BoundaryReport",
    "Decomposition",
    "ElementSet",
    "EqualityReport",
    "GroupPresentation",
    "Halfspace",
    "LatticePolytope",
    "LatticeSimplex",
    "PointSet",
    "ResourceLimitError",
    "SearchResult",
    "SimplexClass",
    "Triangulation",
    "TriangulationReport",
    "UnimodularCriteria",
    "ball_boundary",
    "ball_layers",
    "check_boundary_equality",
    "check_boundary_equality_range",
    "check_equality",
    "check_equality_range",
    "classify_simplex",
    "cross_polytope",
    "cube",
    "decompose",
    "generates_zd",
    "gl2z_swap_shear_generators",
    "hull",
    "is_elementary_polytope",
    "is_unimodular",
    "minkowski_power",
    "minkowski_sum",
    "omega_boundary",
    "omega_interior",
    "search_primitive_triangulation",
    "sigma",
    "sigma_prime",
    "simplices_face_to_face",
    "unimodular_criteria",
    "validate_triangulation",
    "word_ball",
    "zd_presentation_from_polytope",
]
