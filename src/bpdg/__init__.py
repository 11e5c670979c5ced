"""Bound-preserving discontinuous Galerkin solver for 2D conservation laws.

Built around convex decompositions of DG cell averages: the optimal
decompositions give the largest provable bound-preserving time step, and the
classic tensor-product decompositions serve as verified baselines.
"""

from .decomposition import (
    CflReport,
    CertificateResult,
    ConvexDecomposition,
    SpeedRatios,
    bp_max_dt,
    jiang_liu_2d,
    jiang_liu_3d,
    linear_stability_dt,
    optimal_2d,
    optimal_3d,
    optimality_certificate,
    random_feasible_search,
    verify_exactness,
    zhang_shu_2d,
    zhang_shu_3d,
)
from .physics import (
    AdmissibilityError,
    AdvectionModel,
    BoxScalar,
    BurgersModel,
    EulerModel,
    EulerPositivity,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "AdvectionModel",
    "BoxScalar",
    "BurgersModel",
    "CertificateResult",
    "CflReport",
    "ConvexDecomposition",
    "EulerModel",
    "EulerPositivity",
    "SpeedRatios",
    "bp_max_dt",
    "jiang_liu_2d",
    "jiang_liu_3d",
    "linear_stability_dt",
    "optimal_2d",
    "optimal_3d",
    "optimality_certificate",
    "random_feasible_search",
    "verify_exactness",
    "zhang_shu_2d",
    "zhang_shu_3d",
]
