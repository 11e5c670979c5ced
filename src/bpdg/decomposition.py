"""Convex decompositions of DG cell averages and the resulting BP CFL steps.

A decomposition writes the cell average of a degree-k polynomial as a
positive-weight combination of face-trace values (averaged by a transverse
Gauss rule) and values at a small set of internal nodes.  The minimum face
weight controls the bound-preserving time step, so different decompositions
of the same average yield different CFL conditions.  This module builds the
classic tensor-product decompositions, the optimal ones for total degree
2 and 3 (in 2D and 3D), and certifies feasibility/optimality numerically.

All node coordinates are cell-local offsets in cell-width units, i.e. they
live in [-1/2, 1/2]^dim.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureRule1D, gauss_lobatto_rule, gauss_rule, monomial_mean

_MERGE_TOL = 1e-14
SUPPORTED_K = (2, 3)


@dataclass(frozen=True)
class SpeedRatios:
    """Per-axis speed/spacing ratios phi_i = a_i / delta_i (units 1/time)."""

    phi: tuple[float, ...]

    def __post_init__(self):
        if len(self.phi) not in (2, 3):
            raise ValueError("SpeedRatios supports 2 or 3 axes")
        if any(p <= 0 for p in self.phi):
            raise ValueError("all speed ratios must be positive")

    @property
    def dim(self) -> int:
        return len(self.phi)

    @property
    def phi_star(self) -> float:
        return max(self.phi)

    @property
    def psi(self) -> float:
        return sum(self.phi) + 2.0 * self.phi_star


@dataclass(frozen=True)
class ConvexDecomposition:
    """A feasible convex decomposition of the cell average.

    face_weights[i] is the (minus, plus) pair of aggregate weights multiplying
    the transverse-Gauss-averaged trace on the two faces normal to axis i.
    """

    name: str
    dim: int
    poly_degree_k: int
    face_weights: tuple[tuple[float, float], ...]
    transverse_rule: QuadratureRule1D
    internal_offsets: np.ndarray  # (S, dim)
    internal_weights: np.ndarray  # (S,)

    @property
    def internal_node_count(self) -> int:
        return len(self.internal_weights)

    def total_weight(self) -> float:
        return float(sum(wm + wp for wm, wp in self.face_weights) + self.internal_weights.sum())


@dataclass(frozen=True)
class CflReport:
    scheme_name: str
    max_dt: float
    formula_terms: dict[str, float]
    internal_node_count: int
    unbounded: bool = False


@dataclass(frozen=True)
class CertificateResult:
    verdict: str  # "dominated" | "violates_moments" | "infeasible"
    dt_ratio: float | None = None
    detail: str = ""


def _merge_nodes(offsets: list[tuple[float, ...]], weights: list[float]) -> tuple[np.ndarray, np.ndarray]:
    merged_off: list[tuple[float, ...]] = []
    merged_w: list[float] = []
    for off, w in zip(offsets, weights):
        for idx, existing in enumerate(merged_off):
            if max(abs(a - b) for a, b in zip(off, existing)) <= _MERGE_TOL:
                merged_w[idx] += w
                break
        else:
            merged_off.append(off)
            merged_w.append(w)
    return np.array(merged_off, dtype=float), np.array(merged_w, dtype=float)


def _check_k(k: int) -> None:
    if k not in SUPPORTED_K:
        raise ValueError(f"unsupported polynomial degree k={k}; only k in {SUPPORTED_K}")


def _classic_2d(k: int, kappa1: float, kappa2: float, name: str) -> ConvexDecomposition:
    ell = math.ceil((k + 3) / 2)
    gl = gauss_lobatto_rule(ell)
    gauss = gauss_rule(k + 1)
    w_end = gl.weights[0]
    offsets: list[tuple[float, float]] = []
    weights: list[float] = []
    for s in range(1, ell - 1):  # interior Gauss-Lobatto nodes
        for q in range(len(gauss)):
            offsets.append((gl.nodes[s], gauss.nodes[q]))
            weights.append(kappa1 * gl.weights[s] * gauss.weights[q])
            offsets.append((gauss.nodes[q], gl.nodes[s]))
            weights.append(kappa2 * gl.weights[s] * gauss.weights[q])
    off, w = _merge_nodes(offsets, weights)
    return ConvexDecomposition(
        name=name,
        dim=2,
        poly_degree_k=k,
        face_weights=((kappa1 * w_end, kappa1 * w_end), (kappa2 * w_end, kappa2 * w_end)),
        transverse_rule=gauss,
        internal_offsets=off,
        internal_weights=w,
    )


def zhang_shu_2d(k: int, ratios: SpeedRatios) -> ConvexDecomposition:
    """Classic tensor-product decomposition with speed-proportional split."""
    _check_k(k)
    if ratios.dim != 2:
        raise ValueError("zhang_shu_2d needs 2D speed ratios")
    total = ratios.phi[0] + ratios.phi[1]
    return _classic_2d(k, ratios.phi[0] / total, ratios.phi[1] / total, "zhang-shu-2d")


def jiang_liu_2d(k: int) -> ConvexDecomposition:
    """Classic tensor-product decomposition with an even 1/2-1/2 split."""
    _check_k(k)
    return _classic_2d(k, 0.5, 0.5, "jiang-liu-2d")


def optimal_2d(k: int, ratios: SpeedRatios) -> ConvexDecomposition:
    """Optimal 2D decomposition: per-face weights mu_i/2 and <= 2 internal nodes."""
    _check_k(k)
    if ratios.dim != 2:
        raise ValueError("optimal_2d needs 2D speed ratios")
    phi1, phi2 = ratios.phi
    phi_star, psi = ratios.phi_star, ratios.psi
    mu1, mu2 = phi1 / psi, phi2 / psi
    omega = phi_star / psi
    if phi1 >= phi2:
        delta = math.sqrt((phi_star - phi2) / phi_star) / (2.0 * math.sqrt(3.0))
        offsets = [(0.0, delta), (0.0, -delta)]
    else:
        delta = math.sqrt((phi_star - phi1) / phi_star) / (2.0 * math.sqrt(3.0))
        offsets = [(delta, 0.0), (-delta, 0.0)]
    off, w = _merge_nodes(offsets, [omega, omega])
    return ConvexDecomposition(
        name="optimal-2d",
        dim=2,
        poly_degree_k=k,
        face_weights=((mu1 / 2.0, mu1 / 2.0), (mu2 / 2.0, mu2 / 2.0)),
        transverse_rule=gauss_rule(k + 1),
        internal_offsets=off,
        internal_weights=w,
    )


def _classic_3d(k: int, kappas: tuple[float, float, float], name: str) -> ConvexDecomposition:
    ell = math.ceil((k + 3) / 2)
    gl = gauss_lobatto_rule(ell)
    gauss = gauss_rule(k + 1)
    w_end = gl.weights[0]
    offsets: list[tuple[float, float, float]] = []
    weights: list[float] = []
    for axis in range(3):
        others = [a for a in range(3) if a != axis]
        for s in range(1, ell - 1):
            for q in range(len(gauss)):
                for r in range(len(gauss)):
                    pt = [0.0, 0.0, 0.0]
                    pt[axis] = gl.nodes[s]
                    pt[others[0]] = gauss.nodes[q]
                    pt[others[1]] = gauss.nodes[r]
                    offsets.append(tuple(pt))
                    weights.append(kappas[axis] * gl.weights[s] * gauss.weights[q] * gauss.weights[r])
    off, w = _merge_nodes(offsets, weights)
    fw = tuple((kap * w_end, kap * w_end) for kap in kappas)
    return ConvexDecomposition(
        name=name,
        dim=3,
        poly_degree_k=k,
        face_weights=fw,
        transverse_rule=gauss,
        internal_offsets=off,
        internal_weights=w,
    )


def zhang_shu_3d(k: int, ratios: SpeedRatios) -> ConvexDecomposition:
    _check_k(k)
    if ratios.dim != 3:
        raise ValueError("zhang_shu_3d needs 3D speed ratios")
    total = sum(ratios.phi)
    kappas = tuple(p / total for p in ratios.phi)
    return _classic_3d(k, kappas, "zhang-shu-3d")


def jiang_liu_3d(k: int) -> ConvexDecomposition:
    _check_k(k)
    return _classic_3d(k, (1 / 3, 1 / 3, 1 / 3), "jiang-liu-3d")


def optimal_3d(k: int, ratios: SpeedRatios) -> ConvexDecomposition:
    """Optimal 3D decomposition: per-face weights mu_i/2 and <= 4 internal nodes."""
    _check_k(k)
    if ratios.dim != 3:
        raise ValueError("optimal_3d needs 3D speed ratios")
    phi = ratios.phi
    phi_star, psi = ratios.phi_star, ratios.psi
    omega = phi_star / psi
    # first maximal axis wins ties; the two non-maximal axes carry the offsets
    max_axis = phi.index(phi_star)
    others = [a for a in range(3) if a != max_axis]
    offsets: list[tuple[float, float, float]] = []
    for axis in others:
        delta = math.sqrt((phi_star - phi[axis]) / phi_star) / math.sqrt(6.0)
        for sign in (+1.0, -1.0):
            pt = [0.0, 0.0, 0.0]
            pt[axis] = sign * delta
            offsets.append(tuple(pt))
    off, w = _merge_nodes(offsets, [omega / 2.0] * 4)
    fw = tuple((p / psi / 2.0, p / psi / 2.0) for p in phi)
    return ConvexDecomposition(
        name="optimal-3d",
        dim=3,
        poly_degree_k=k,
        face_weights=fw,
        transverse_rule=gauss_rule(k + 1),
        internal_offsets=off,
        internal_weights=w,
    )


# dt policy and node-set names -> (2D, 3D) constructors, each called as
# build(k, ratios).  The lambdas look the constructors up at call time, so a
# wrapper put on the module attribute (perfbench's tracer) sees the calls.
POLICIES = {
    "optimal": (lambda k, r: optimal_2d(k, r), lambda k, r: optimal_3d(k, r)),
    "classic": (lambda k, r: zhang_shu_2d(k, r), lambda k, r: zhang_shu_3d(k, r)),
    "jiangliu": (lambda k, r: jiang_liu_2d(k), lambda k, r: jiang_liu_3d(k)),
}


def speed_ratios(speeds: tuple[float, ...], spacings: tuple[float, ...]) -> SpeedRatios:
    """Ratios a_i / delta_i for the constructors.  An axis without speed
    imposes no dt constraint; it is floored at 1e-12 of the largest ratio to
    keep the ratios positive, and all-zero speeds give equal ratios."""
    phi = [a / delta for a, delta in zip(speeds, spacings)]
    top = max(phi)
    if top == 0.0:
        return SpeedRatios((1.0,) * len(phi))
    return SpeedRatios(tuple(max(p, 1e-12 * top) for p in phi))


def decomposition_for(policy: str, k: int, ratios: SpeedRatios) -> ConvexDecomposition:
    """The decomposition a policy name stands for, at the given ratios."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {', '.join(POLICIES)}")
    return POLICIES[policy][ratios.dim - 2](k, ratios)


def verify_exactness(d: ConvexDecomposition) -> float:
    """Max defect of the decomposition over monomials of total degree <= k.

    The oracle side is the closed-form monomial cell mean, so this check is
    independent of how the decomposition was constructed.
    """
    gauss = d.transverse_rule
    # cached 1D Gauss moments sum_q w_q x_q^m
    max_m = d.poly_degree_k
    gmom = [float(np.sum(gauss.weights * gauss.nodes**m)) for m in range(max_m + 1)]
    defect = 0.0
    for exps in itertools.product(range(max_m + 1), repeat=d.dim):
        if sum(exps) > max_m:
            continue
        exact = 1.0
        for m in exps:
            exact *= monomial_mean(m)
        total = 0.0
        for axis, (wm, wp) in enumerate(d.face_weights):
            transverse = 1.0
            for other in range(d.dim):
                if other != axis:
                    transverse *= gmom[exps[other]]
            total += (wm * (-0.5) ** exps[axis] + wp * 0.5 ** exps[axis]) * transverse
        if d.internal_node_count:
            vals = np.prod(d.internal_offsets ** np.array(exps), axis=1)
            total += float(np.sum(d.internal_weights * vals))
        defect = max(defect, abs(total - exact))
    return defect


def bp_max_dt(
    d: ConvexDecomposition,
    speeds: tuple[float, ...],
    spacings: tuple[float, ...],
    c0: float = 1.0,
) -> CflReport:
    """BP time-step bound: c0 * min over faces of (face weight) * delta_i / a_i.

    Axes with zero speed impose no constraint; if every axis has zero speed the
    bound is unbounded (reported, not raised).
    """
    if len(speeds) != d.dim or len(spacings) != d.dim:
        raise ValueError("speeds/spacings must match the decomposition dimension")
    if not 0.0 < c0 <= 1.0:
        raise ValueError("c0 must be in (0, 1]")
    terms: dict[str, float] = {}
    dt = math.inf
    for axis, ((wm, wp), a, delta) in enumerate(zip(d.face_weights, speeds, spacings)):
        if a < 0:
            raise ValueError("speeds must be nonnegative")
        if a == 0.0:
            continue
        bound = c0 * min(wm, wp) * delta / a
        terms[f"axis{axis}"] = bound
        dt = min(dt, bound)
    if math.isinf(dt):
        return CflReport(d.name, math.inf, terms, d.internal_node_count, unbounded=True)
    return CflReport(d.name, dt, terms, d.internal_node_count)


def linear_stability_dt(k: int, speeds: tuple[float, ...], spacings: tuple[float, ...]) -> float:
    """Empirical linear-stability step for degree-k DG: 1/(2k+1) / sum(a_i/delta_i)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    total = sum(a / delta for a, delta in zip(speeds, spacings))
    if total == 0.0:
        return math.inf
    return (1.0 / (2 * k + 1)) / total


def _feasibility_issue(d: ConvexDecomposition, exact_tol: float = 1e-12) -> str | None:
    if any(w <= 0 for pair in d.face_weights for w in pair):
        return "nonpositive face weight"
    if d.internal_node_count and np.any(d.internal_weights <= 0):
        return "nonpositive internal weight"
    if d.internal_node_count and np.any(np.abs(d.internal_offsets) > 0.5 + _MERGE_TOL):
        return "internal node outside the cell"
    if abs(d.total_weight() - 1.0) > 1e-12:
        return "weights do not sum to 1"
    defect = verify_exactness(d)
    if defect > exact_tol:
        return f"exactness defect {defect:.3e}"
    return None


def optimality_certificate(k: int, ratios: SpeedRatios, candidate: ConvexDecomposition) -> CertificateResult:
    """Check a 2D candidate against the optimal decomposition.

    Any feasible candidate must come out `dominated`: its BP step never exceeds
    the optimal one.  Candidates whose face weights already violate the second
    moment constraints (3*s1 + s2 <= 1 and s1 + 3*s2 <= 1, with s_i the summed
    face weights of axis i) are reported as such; they admit no exact
    completion on the quadratic monomials.
    """
    _check_k(k)
    if candidate.dim != 2:
        raise ValueError("optimality_certificate expects a 2D candidate")
    if any(w <= 0 for pair in candidate.face_weights for w in pair):
        return CertificateResult("infeasible", detail="nonpositive face weight")
    if candidate.internal_node_count and (
        np.any(candidate.internal_weights <= 0)
        or np.any(np.abs(candidate.internal_offsets) > 0.5 + _MERGE_TOL)
    ):
        return CertificateResult("infeasible", detail="bad internal node")
    s1 = sum(candidate.face_weights[0])
    s2 = sum(candidate.face_weights[1])
    if 3 * s1 + s2 > 1 + 1e-12 or s1 + 3 * s2 > 1 + 1e-12:
        return CertificateResult(
            "violates_moments",
            detail=f"3*s1+s2={3 * s1 + s2:.6g}, s1+3*s2={s1 + 3 * s2:.6g}",
        )
    issue = _feasibility_issue(candidate)
    if issue is not None:
        return CertificateResult("infeasible", detail=issue)
    speeds = ratios.phi  # unit spacings: phi doubles as speed per unit cell
    spacings = (1.0,) * ratios.dim
    dt_cand = bp_max_dt(candidate, speeds, spacings).max_dt
    dt_opt = bp_max_dt(optimal_2d(k, ratios), speeds, spacings).max_dt
    if dt_cand > dt_opt + 1e-10:
        raise AssertionError(
            f"feasible candidate beats the optimal step: {dt_cand} > {dt_opt}"
        )
    return CertificateResult("dominated", dt_ratio=dt_cand / dt_opt)


def _candidate_from_sample(
    k: int, s1: float, s2: float, wx: float, wy: float, dx: float, dy: float
) -> ConvexDecomposition:
    offsets = [(dx, 0.0), (-dx, 0.0), (0.0, dy), (0.0, -dy)]
    weights = [wx / 2.0, wx / 2.0, wy / 2.0, wy / 2.0]
    off, w = _merge_nodes(offsets, weights)
    return ConvexDecomposition(
        name="sampled",
        dim=2,
        poly_degree_k=k,
        face_weights=((s1 / 2.0, s1 / 2.0), (s2 / 2.0, s2 / 2.0)),
        transverse_rule=gauss_rule(k + 1),
        internal_offsets=off,
        internal_weights=w,
    )


def random_feasible_search(
    k: int,
    ratios: SpeedRatios,
    trials: int,
    rng_seed: int,
    c0: float = 1.0,
) -> float | None:
    """Best BP step found among random feasible 2D decompositions.

    Samples symmetric face weights inside the moment-constraint region and
    solves for axis-symmetric internal nodes matching the remaining second
    moments.  Returns None if no sampled candidate is feasible.  By the
    optimality theorem the result never exceeds the optimal step.
    """
    _check_k(k)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if ratios.dim != 2:
        raise ValueError("random_feasible_search expects 2D ratios")
    rng = np.random.default_rng(rng_seed)
    s1 = rng.uniform(0.0, 1.0 / 3.0, trials)
    s2 = rng.uniform(0.0, 1.0 / 3.0, trials)
    split = rng.uniform(0.0, 1.0, trials)
    # moment residuals on (x - x_i)^2 and (y - y_j)^2, in cell-width units
    r_x = 1.0 / 12.0 - s1 / 4.0 - s2 / 12.0
    r_y = 1.0 / 12.0 - s1 / 12.0 - s2 / 4.0
    w_total = 1.0 - s1 - s2
    wx = split * w_total
    wy = w_total - wx
    with np.errstate(divide="ignore", invalid="ignore"):
        feasible = (
            (s1 > 0)
            & (s2 > 0)
            & (r_x >= 0)
            & (r_y >= 0)
            & (wx > 0)
            & (wy > 0)
            & (r_x <= wx / 4.0)  # node offset sqrt(r/w) must stay inside the cell
            & (r_y <= wy / 4.0)
        )
    if not np.any(feasible):
        return None
    phi1, phi2 = ratios.phi
    dt = c0 * np.minimum(s1 / (2.0 * phi1), s2 / (2.0 * phi2))
    dt = np.where(feasible, dt, -np.inf)
    best = int(np.argmax(dt))
    # rebuild the winner as a full decomposition and certify it
    cand = _candidate_from_sample(
        k,
        float(s1[best]),
        float(s2[best]),
        float(wx[best]),
        float(wy[best]),
        math.sqrt(r_x[best] / wx[best]),
        math.sqrt(r_y[best] / wy[best]),
    )
    if verify_exactness(cand) > 1e-12:
        raise AssertionError("sampled candidate failed the exactness oracle")
    return float(dt[best])
