"""Bound-preserving discontinuous Galerkin solver for 2D conservation laws.

Built around convex decompositions of DG cell averages: the optimal
decompositions give the largest provable bound-preserving time step, and the
classic tensor-product decompositions serve as verified baselines.

Records (rules, decompositions, meshes, fields, limiter diagnostics, reports,
the run config) are plain classes with a hand-written `__init__`, not
dataclasses: Python compiles each generated dataclass method at import,
0.5-2 ms a class, which every run and every command would pay before its
first step.  `cli.RunConfig` reads its keys from the table `cli._CONFIG_KEYS`.
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
