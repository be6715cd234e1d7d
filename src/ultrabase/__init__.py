"""Exact analysis of finite ultrametric spaces.

Partner structure, metric and 2-metric bases, metric dimensions, minimal
basis-preserving subspaces, and reconstruction of the whole space from
landmark coordinates, with brute-force oracles to cross-check every
structural result.
"""

__version__ = "0.1.0"

from .core import (
    Ball,
    DistanceTable,
    TriangleProfile,
    UltrametricSpace,
    ValidationReport,
    Violation,
    ball,
    build_space,
    triangle_profile,
    validate_ultrametric,
)
from .errors import (
    CoordinateTableError,
    DomainError,
    InternalInvariantError,
    NotBasisError,
    NotGeneratorError,
    ParseError,
    UltrabaseError,
    UltrametricViolationError,
    UnknownLabelError,
    UsageError,
)
from .partner import (
    PartnerPartition,
    Partnered,
    PointClass,
    Pseudopartnered,
    PseudopartneringTrace,
    TraceStep,
    classify_point,
    nearest_set,
    partner_partition,
    pseudopartnering_trace,
)
from .basis import (
    BasisFamily,
    DimensionReport,
    GeneratorCheck,
    dimensions,
    distinguishers,
    distinguishes,
    is_basis_of_subspace,
    is_k_generator,
    metric_bases,
    minimal_subspace,
    two_metric_basis,
)
from .reconstruct import (
    CoordinateTable,
    coordinates,
    landmark_independence_witness,
    reconstruct,
    verify_roundtrip,
)
from .oracle import (
    CrossCheckReport,
    OracleResult,
    brute_force_dim,
    cross_check,
    random_dendrogram_space,
    reciprocal_min_space,
    uniform_space,
)
from .ingest import (
    parse_coordinate_csv,
    parse_distance_csv,
    parse_newick,
    subdominant_ultrametric,
    write_coordinate_csv,
    write_distance_csv,
)

__all__ = [
    "__version__",
    # core
    "Ball",
    "DistanceTable",
    "TriangleProfile",
    "UltrametricSpace",
    "ValidationReport",
    "Violation",
    "ball",
    "build_space",
    "triangle_profile",
    "validate_ultrametric",
    # errors
    "CoordinateTableError",
    "DomainError",
    "InternalInvariantError",
    "NotBasisError",
    "NotGeneratorError",
    "ParseError",
    "UltrabaseError",
    "UltrametricViolationError",
    "UnknownLabelError",
    "UsageError",
    # partner structure
    "PartnerPartition",
    "Partnered",
    "PointClass",
    "Pseudopartnered",
    "PseudopartneringTrace",
    "TraceStep",
    "classify_point",
    "nearest_set",
    "partner_partition",
    "pseudopartnering_trace",
    # bases and dimensions
    "BasisFamily",
    "DimensionReport",
    "GeneratorCheck",
    "dimensions",
    "distinguishers",
    "distinguishes",
    "is_basis_of_subspace",
    "is_k_generator",
    "metric_bases",
    "minimal_subspace",
    "two_metric_basis",
    # reconstruction
    "CoordinateTable",
    "coordinates",
    "landmark_independence_witness",
    "reconstruct",
    "verify_roundtrip",
    # oracle
    "CrossCheckReport",
    "OracleResult",
    "brute_force_dim",
    "cross_check",
    "random_dendrogram_space",
    "reciprocal_min_space",
    "uniform_space",
    # ingest
    "parse_coordinate_csv",
    "parse_distance_csv",
    "parse_newick",
    "subdominant_ultrametric",
    "write_coordinate_csv",
    "write_distance_csv",
]
