"""Convex decompositions of DG cell averages and the resulting BP CFL steps.

A decomposition writes the cell average of a degree-k polynomial as a
positive-weight combination of face-trace values (averaged by a transverse
Gauss rule) and values at a small set of internal nodes.  The minimum face
weight controls the bound-preserving time step, so different decompositions
of the same average yield different CFL conditions.  The module builds two
families for k = 2 and 3, each by one function for 2D and 3D alike, and
certifies feasibility/optimality numerically:

- classic (`_classic`; Zhang & Shu, JCP 229, 2010): along each axis in turn
  (axis-major node order), its interior Gauss-Lobatto nodes times the
  transverse Gauss tensor;
- optimal (`_optimal`): face weights phi_i / psi / 2, and internal nodes at
  +delta_i, then -delta_i, on every axis but the first maximal one.

Nodes within 1e-14 of each other merge into the first.  Node coordinates are
cell-local offsets in cell-width units, in [-1/2, 1/2]^dim.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureRule1D, gauss_lobatto_rule, gauss_rule, monomial_mean

_MERGE_TOL = 1e-14
SUPPORTED_K = (2, 3)


@dataclass(frozen=True)
class SpeedRatios:
    """Per-axis speed/spacing ratios phi_i = a_i / delta_i (units 1/time),
    finite and positive, with a finite psi (every builder divides by it)."""

    phi: tuple[float, ...]

    def __post_init__(self):
        if len(self.phi) not in (2, 3):
            raise ValueError("SpeedRatios supports 2 or 3 axes")
        if not all(math.isfinite(p) and p > 0 for p in self.phi):
            raise ValueError(f"all speed ratios must be finite and positive, got {self.phi}")
        if not math.isfinite(self.psi):
            raise ValueError(f"psi = sum(phi) + 2*max(phi) of the speed ratios {self.phi} is not finite")

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


def _decomposition(name: str, k: int, face_weights: list[tuple[float, float]],
                   offsets: list[tuple[float, ...]], weights: list[float]) -> ConvexDecomposition:
    """The decomposition with these face weights, one pair per axis, and
    internal nodes.  A node within _MERGE_TOL of an earlier kept node (in
    every coordinate) adds its weight to it; the first occurrence keeps its
    place."""
    merged_off: list[tuple[float, ...]] = []
    merged_w: list[float] = []
    for off, w in zip(offsets, weights):
        for idx, existing in enumerate(merged_off):
            if max(map(abs, map(operator.sub, off, existing))) <= _MERGE_TOL:
                merged_w[idx] += w
                break
        else:
            merged_off.append(off)
            merged_w.append(w)
    return ConvexDecomposition(
        name=name,
        dim=len(face_weights),
        poly_degree_k=k,
        face_weights=tuple(face_weights),
        transverse_rule=gauss_rule(k + 1),
        internal_offsets=np.array(merged_off),
        internal_weights=np.array(merged_w),
    )


def _check(k: int, want_dim: int, *dims: int) -> None:
    """ValueError unless k is supported and each of `dims` is `want_dim`."""
    if k not in SUPPORTED_K:
        raise ValueError(f"unsupported polynomial degree k={k}; only k in {SUPPORTED_K}")
    for dim in dims:
        if dim != want_dim:
            raise ValueError(f"expected {want_dim}D input, got {dim}D")


def _classic(k: int, shares: tuple[float, ...], name: str) -> ConvexDecomposition:
    """The classic decomposition with axis weights kappa_i proportional to
    `shares`; node weights are kappa_i * w_gl * w_q [* w_r], left to right."""
    total = sum(shares)
    gl = gauss_lobatto_rule(math.ceil((k + 3) / 2))
    gauss = gauss_rule(k + 1)
    w_end = float(gl.weights[0])
    # (nodes, weights) of each point of the transverse Gauss tensor
    transverse = [tuple(zip(*pts)) for pts in itertools.product(
        zip(gauss.nodes.tolist(), gauss.weights.tolist()), repeat=len(shares) - 1)]
    face_weights: list[tuple[float, float]] = []
    offsets: list[tuple[float, ...]] = []
    weights: list[float] = []
    for axis, share in enumerate(shares):
        kappa = share / total
        face_weights.append((kappa * w_end, kappa * w_end))
        for x, w_gl in zip(gl.nodes[1:-1].tolist(), gl.weights[1:-1].tolist()):
            for nodes, ws in transverse:
                offsets.append(nodes[:axis] + (x,) + nodes[axis:])
                weights.append(math.prod(ws, start=kappa * w_gl))
    return _decomposition(name, k, face_weights, offsets, weights)


# c_d in the optimal node offsets delta_i = sqrt((phi* - phi_i) / phi*) / c_d
_OPTIMAL_SCALE = {2: 2.0 * math.sqrt(3.0), 3: math.sqrt(6.0)}


def _optimal(k: int, ratios: SpeedRatios, name: str) -> ConvexDecomposition:
    """The optimal decomposition; each internal node weighs phi* / psi / (dim - 1)."""
    phi, phi_star, psi = ratios.phi, ratios.phi_star, ratios.psi
    dim = len(phi)
    max_axis = phi.index(phi_star)
    face_weights: list[tuple[float, float]] = []
    offsets: list[tuple[float, ...]] = []
    for axis, p in enumerate(phi):
        face_weights.append((p / psi / 2.0, p / psi / 2.0))
        if axis != max_axis:
            delta = math.sqrt((phi_star - p) / phi_star) / _OPTIMAL_SCALE[dim]
            pt = [0.0] * dim
            pt[axis] = delta
            offsets.append(tuple(pt))
            pt[axis] = -delta
            offsets.append(tuple(pt))
    return _decomposition(name, k, face_weights, offsets, [phi_star / psi / (dim - 1)] * len(offsets))


def zhang_shu_2d(k: int, ratios: SpeedRatios) -> ConvexDecomposition:
    """Classic tensor-product decomposition with speed-proportional split."""
    _check(k, 2, ratios.dim)
    return _classic(k, ratios.phi, "zhang-shu-2d")


def zhang_shu_3d(k: int, ratios: SpeedRatios) -> ConvexDecomposition:
    """Classic tensor-product decomposition with speed-proportional split."""
    _check(k, 3, ratios.dim)
    return _classic(k, ratios.phi, "zhang-shu-3d")


def jiang_liu_2d(k: int) -> ConvexDecomposition:
    """Classic tensor-product decomposition with an even 1/2-1/2 split."""
    _check(k, 2)
    return _classic(k, (1.0, 1.0), "jiang-liu-2d")


def jiang_liu_3d(k: int) -> ConvexDecomposition:
    """Classic tensor-product decomposition with an even 1/3 split."""
    _check(k, 3)
    return _classic(k, (1.0, 1.0, 1.0), "jiang-liu-3d")


def optimal_2d(k: int, ratios: SpeedRatios) -> ConvexDecomposition:
    """Optimal 2D decomposition: per-face weights mu_i/2 and <= 2 internal nodes."""
    _check(k, 2, ratios.dim)
    return _optimal(k, ratios, "optimal-2d")


def optimal_3d(k: int, ratios: SpeedRatios) -> ConvexDecomposition:
    """Optimal 3D decomposition: per-face weights mu_i/2 and <= 4 internal nodes."""
    _check(k, 3, ratios.dim)
    return _optimal(k, ratios, "optimal-3d")


# dt policy names -> (2D, 3D) constructors, each called as
# build(k, ratios).  The lambdas look the constructors up at call time, so a
# wrapper put on the module attribute (perfbench's tracer) sees the calls.
POLICIES = {
    "optimal": (lambda k, r: optimal_2d(k, r), lambda k, r: optimal_3d(k, r)),
    "classic": (lambda k, r: zhang_shu_2d(k, r), lambda k, r: zhang_shu_3d(k, r)),
    "jiangliu": (lambda k, r: jiang_liu_2d(k), lambda k, r: jiang_liu_3d(k)),
}


def speed_ratios(speeds: tuple[float, ...], spacings: tuple[float, ...]) -> SpeedRatios:
    """Ratios a_i / delta_i for the constructors.  An axis without speed
    imposes no dt constraint; it is floored at 1e-12 of the largest ratio, or
    at the smallest positive float where that product underflows to 0, to
    keep the ratios positive, and all-zero speeds give equal ratios.
    ValueError (from `SpeedRatios`) for ratios that overflow psi."""
    phi = [a / delta for a, delta in zip(speeds, spacings)]
    top = max(phi)
    if top == 0.0:
        return SpeedRatios((1.0,) * len(phi))
    floor = max(1e-12 * top, math.ulp(0.0))
    return SpeedRatios(tuple(max(p, floor) for p in phi))


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


def _sign_issue(d: ConvexDecomposition) -> str | None:
    """Why `d` is no convex combination of cell values, or None."""
    if any(w <= 0 for pair in d.face_weights for w in pair):
        return "nonpositive face weight"
    if d.internal_node_count and np.any(d.internal_weights <= 0):
        return "nonpositive internal weight"
    if d.internal_node_count and np.any(np.abs(d.internal_offsets) > 0.5 + _MERGE_TOL):
        return "internal node outside the cell"
    return None


def optimality_certificate(k: int, ratios: SpeedRatios, candidate: ConvexDecomposition) -> CertificateResult:
    """Check a 2D candidate against the optimal decomposition.

    Any feasible candidate must come out `dominated`: its BP step never exceeds
    the optimal one.  Candidates whose face weights already violate the second
    moment constraints (3*s1 + s2 <= 1 and s1 + 3*s2 <= 1, with s_i the summed
    face weights of axis i) are reported as such; they admit no exact
    completion on the quadratic monomials.
    """
    _check(k, 2, ratios.dim, candidate.dim)
    issue = _sign_issue(candidate)
    if issue is not None:
        return CertificateResult("infeasible", detail=issue)
    s1 = sum(candidate.face_weights[0])
    s2 = sum(candidate.face_weights[1])
    if 3 * s1 + s2 > 1 + 1e-12 or s1 + 3 * s2 > 1 + 1e-12:
        return CertificateResult(
            "violates_moments",
            detail=f"3*s1+s2={3 * s1 + s2:.6g}, s1+3*s2={s1 + 3 * s2:.6g}",
        )
    if abs(candidate.total_weight() - 1.0) > 1e-12:
        return CertificateResult("infeasible", detail="weights do not sum to 1")
    defect = verify_exactness(candidate)
    if defect > 1e-12:
        return CertificateResult("infeasible", detail=f"exactness defect {defect:.3e}")
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
    return _decomposition("sampled", k, [(s1 / 2.0, s1 / 2.0), (s2 / 2.0, s2 / 2.0)], offsets, weights)


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
    _check(k, 2, ratios.dim)
    if trials < 1:
        raise ValueError("trials must be >= 1")
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
