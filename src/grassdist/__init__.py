"""Angles and asymmetric distances between linear subspaces of arbitrary,
possibly different dimensions, over the real and complex fields."""

from .angles import (AngleReport, AngleRoute, angle_report, asymmetric_angle,
                     disjointness_angle, projection_factor,
                     supplementation_angle)
from .errors import DimensionError, GrassdistError, NumericalDegeneracyError
from .metrics import (DIAGNOSTICS, METRICS,
                      MetricDescriptor, asymmetric_distance, containment_gap,
                      diagnostic_quantities, directional_distance,
                      equal_dim_distance, gap, make_equality_triple,
                      symmetric_distance, symmetrize)
from .numerics import DEFAULT_TOL, Field, Tolerance
from .subspace import (PrincipalDecomposition, Subspace,
                       is_partially_orthogonal, orthogonal_complement,
                       principal_angles, principal_decomposition,
                       project_onto, projective_split, random_subspace,
                       underlying_real)

__version__ = "0.1.0"

__all__ = [
    "AngleReport", "AngleRoute", "DEFAULT_TOL", "DIAGNOSTICS",
    "DimensionError", "Field", "GrassdistError", "METRICS",
    "MetricDescriptor", "NumericalDegeneracyError", "PrincipalDecomposition",
    "Subspace", "Tolerance", "angle_report", "asymmetric_angle",
    "asymmetric_distance", "containment_gap", "diagnostic_quantities",
    "directional_distance", "disjointness_angle", "equal_dim_distance",
    "gap", "is_partially_orthogonal", "make_equality_triple",
    "orthogonal_complement", "principal_angles", "principal_decomposition",
    "project_onto", "projective_split", "projection_factor",
    "random_subspace", "supplementation_angle", "symmetric_distance",
    "symmetrize", "underlying_real",
]
