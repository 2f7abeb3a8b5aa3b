"""Zonotope geometry from defining matrices.

Volumes, facet structure, congruence witnesses, parallelotope tilings,
exterior roots, and central-symmetry predicates, all desk-scale and
tolerance-parameterized.
"""

from .congruence import (
    CongruenceWitness,
    ConditionReport,
    SquareComparison,
    check_conditions,
    congruent_zonotopes,
    find_orthogonal,
    same_shape,
    square_comparison,
    triangular_signs,
    verify_condition3,
)
from .errors import (
    CapacityError,
    DegeneracyError,
    DimensionError,
    MeshSurfaceError,
    NoRealRootError,
    NoWitnessError,
    ReconstructionError,
    ZonokitError,
)
from .numkit import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    as_vector,
    compound,
    cross_product,
    determinant,
    gram,
    qr_decompose,
    rank,
    signed_compound,
)
from .rigidity import (
    ExteriorRootResult,
    FacetDatum,
    exterior_root,
    minkowski_balance,
    parallelotope_from_facets,
    signature_congruence_check,
)
from .symmetry import (
    SegmentLoop,
    SymmetryReport,
    central_center,
    cone_section,
    loop_symmetric,
    reflect,
    zonogon_recognize,
)
from .tiling import (
    CupOfCubes,
    Tile,
    Tiling,
    TilingReport,
    cup_of_cubes,
    tile_zonotope,
    validate_tiling,
    visible_surface,
)
from .zonotope import (
    BoundingFacet,
    GeneratingFace,
    RankDeficiencyWarning,
    Zonotope,
    signatures_match,
)

__version__ = "0.1.0"
