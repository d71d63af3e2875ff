"""Projective spaces, Grassmannians, and Hopf fibrations over R and C.

Numerical coordinates throughout.  Every quotient object is held by a
canonical representative, which is only how its class is stored and
printed.  Equality of classes is one distance per space, compared with an
absolute tolerance: ``point_distance``, ``map_distance``, ``hopf_distance``
and ``projector_distance``.
"""

from projgeo.errors import (
    DegenerateProjection,
    DimensionMismatch,
    FieldMismatch,
    IllConditioned,
    InvalidInput,
    InvalidRange,
    NotCanonical,
    NotSquare,
    ProjGeoError,
    RankDeficientToZero,
    SamePoint,
    ShapeMismatch,
    SingularCoefficients,
    Unresolved,
    ZeroVector,
)
from projgeo.grassmann import (
    GraphChart,
    ProjSubspace,
    Subspace,
    annihilator,
    apply_gl,
    chart_coords,
    from_projective_point,
    graph_chart,
    graph_subspace,
    grassmann_dimension,
    missing_locus,
    orthogonal_complement,
    point_membership,
    proj_subspace_from_span,
    subspace_from_span,
    subspace_image,
    subspaces_equal,
    to_projective_point,
    transitive_witness_gr,
)
from projgeo.hopf_fibration import (
    INFINITY,
    ExtendedComplex,
    SpherePoint,
    complex_fiber_sample,
    cp1_affine,
    cp1_from_affine,
    cp1_to_sphere,
    extended_equal,
    fiber_stereo_samples,
    fibers_min_distance,
    hopf_project,
    linking_integral,
    linking_number,
    mobius_apply,
    mobius_matches_projective,
    real_fiber,
    sphere_point,
    sphere_to_cp1,
)
from projgeo.hopf_manifold import (
    HopfPoint,
    ScaleGroup,
    hopf_distance,
    hopf_points_equal,
    induced_linear,
    quotient_project,
    subspace_trace_membership,
    to_projective,
)
from projgeo.numerics import (
    COMPLEX,
    DEFAULT_TOLERANCE,
    REAL,
    Tolerance,
    cond_estimate,
    in_span,
    invert,
    kernel,
    norm2,
    orthonormalize,
    projector_distance,
    require_conditioned,
)
from projgeo.projective import (
    AffineChart,
    ProjMap,
    ProjPoint,
    apply_map,
    chart_cover,
    chart_embed,
    chart_extract,
    chart_transition,
    compose,
    group_dimension,
    identity_map,
    inverse_map,
    map_distance,
    map_from_matrix,
    maps_equal,
    point_distance,
    point_from_vector,
    points_equal,
    transitive_witness,
)

__version__ = "0.1.0"
