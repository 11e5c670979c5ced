"""Bound-preserving scaling limiter and TVB minmod oscillation limiter.

The BP limiter rescales each cell polynomial about its (already admissible)
cell average so that its values at the face-trace Gauss points and at the
active decomposition's internal nodes land inside the invariant region.  The
TVB limiter knocks cells with non-smooth linear modes down to a limited
linear reconstruction; both limiters preserve cell averages exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decomposition import ConvexDecomposition
from .dg_core import DGField, apply_matrix, ghost_trace, mode_values, values_of_stacked
from .physics import AdmissibilityError, BoxScalar, EulerPositivity, InvariantRegion
from .quadrature import gauss_rule

_DEDUP_TOL = 1e-14


@dataclass(frozen=True)
class LimiterNodeSet:
    """Reference offsets where bounds are enforced: 4Q face-trace Gauss points
    plus the decomposition's internal nodes, deduplicated, with the basis
    values there."""

    offsets: np.ndarray  # (P, 2)
    matrix: np.ndarray  # (P, n_modes)

    def __len__(self) -> int:
        return len(self.offsets)

    def evaluate(self, field: DGField) -> np.ndarray:
        """Field values at the nodes of every cell, component-major: (m, P, nx, ny).

        This is `apply_matrix`'s result with its memory order made the
        logical order: a C-contiguous array whose (nx, ny) planes the
        limiters reduce over, one component at a time."""
        return apply_matrix(self.matrix, field.coeffs).transpose(3, 2, 0, 1)


@dataclass
class LimiterDiagnostics:
    cells_limited: int = 0
    min_theta: float = 1.0
    troubled_cells: int = 0

    def add(self, other: "LimiterDiagnostics") -> None:
        """Fold in another limiting: counts add up, theta keeps the minimum."""
        self.cells_limited += other.cells_limited
        self.min_theta = min(self.min_theta, other.min_theta)
        self.troubled_cells += other.troubled_cells


def build_node_set(decomp: ConvexDecomposition, k: int, include_volume: bool = False) -> LimiterNodeSet:
    if decomp.dim != 2:
        raise ValueError("limiter node sets are 2D")
    g = gauss_rule(k + 1)
    q = len(g)
    pts = [
        np.column_stack([np.full(q, -0.5), g.nodes]),
        np.column_stack([np.full(q, 0.5), g.nodes]),
        np.column_stack([g.nodes, np.full(q, -0.5)]),
        np.column_stack([g.nodes, np.full(q, 0.5)]),
        decomp.internal_offsets,
    ]
    if include_volume:
        # cover the volume quadrature points too, so every state the
        # residual evaluates is admissible (needed for Euler, where the
        # flux itself requires positivity)
        xi, eta = np.meshgrid(g.nodes, g.nodes, indexing="ij")
        pts.insert(4, np.column_stack([xi.ravel(), eta.ravel()]))
    allpts = np.concatenate([p for p in pts if len(p)], axis=0)
    # keep each point unless it lies within the tolerance of an earlier one
    near = np.abs(allpts[:, None, :] - allpts[None, :, :]).max(axis=2) <= _DEDUP_TOL
    offsets = allpts[np.argmax(near, axis=1) == np.arange(len(allpts))]
    return LimiterNodeSet(offsets, mode_values(k, offsets).T)


def _scale_modes(coeffs: np.ndarray, theta: np.ndarray, component: int | None = None) -> None:
    if np.all(theta == 1.0):
        return  # nothing limited: skip a strided multiply by ones
    if component is None:
        coeffs[:, :, 1:, :] *= theta[:, :, None, None]
    else:
        coeffs[:, :, 1:, component] *= theta[:, :, None]


def bp_scaling_limit(
    field: DGField,
    region: InvariantRegion,
    nodes: LimiterNodeSet,
) -> tuple[DGField, LimiterDiagnostics]:
    """Largest-theta scaling p -> mean + theta*(p - mean) making all node
    values admissible.  Requires every cell average in the region already."""
    if isinstance(region, BoxScalar):
        return _bp_limit_box(field, region, nodes)
    if isinstance(region, EulerPositivity):
        return _bp_limit_euler(field, region, nodes)
    raise TypeError(f"unsupported region {region!r}")


def _precondition_failure(mask: np.ndarray, what: str) -> None:
    bad = np.argwhere(mask)
    i, j = int(bad[0][0]), int(bad[0][1])
    raise AdmissibilityError(
        f"cell average violates {what} in cell ({i}, {j}) before BP limiting "
        "(BP dt policy violated upstream?)",
        cell=(i, j),
    )


def _bp_limit_box(field: DGField, region: BoxScalar, nodes: LimiterNodeSet):
    out = field.copy()
    mean = out.coeffs[:, :, 0, 0]
    bad = (mean < region.lo - 1e-12) | (mean > region.hi + 1e-12)
    if np.any(bad):
        _precondition_failure(bad, f"[{region.lo}, {region.hi}]")
    vals = nodes.evaluate(out)[0]  # (P, nx, ny)
    hi = vals.max(axis=0)
    lo = vals.min(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta_hi = np.where(hi > region.hi, (region.hi - mean) / (hi - mean), 1.0)
        theta_lo = np.where(lo < region.lo, (mean - region.lo) / (mean - lo), 1.0)
    theta = np.clip(np.minimum(theta_hi, theta_lo), 0.0, 1.0)
    _scale_modes(out.coeffs, theta)
    return out, LimiterDiagnostics(
        cells_limited=int(np.count_nonzero(theta < 1.0)),
        min_theta=float(theta.min()),
    )


def _bp_limit_euler(field: DGField, region: EulerPositivity, nodes: LimiterNodeSet):
    model = field.model
    out = field.copy()
    mean = out.coeffs[:, :, 0, :]  # (nx, ny, 4)
    mean_rho = mean[..., 0]
    mean_p = model.pressure(mean)
    bad = (mean_rho < region.eps_rho) | (mean_p < region.eps_p)
    if np.any(bad):
        _precondition_failure(bad, "Euler positivity")

    # stage 1: scale the density modes so nodal rho >= eps_rho
    vals = nodes.evaluate(out)  # (4, P, nx, ny)
    rho = vals[0]
    rho_min = rho.min(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta_rho = np.where(
            rho_min < region.eps_rho,
            (mean_rho - region.eps_rho) / (mean_rho - rho_min),
            1.0,
        )
    theta_rho = np.clip(theta_rho, 0.0, 1.0)
    _scale_modes(out.coeffs, theta_rho, 0)
    # rho <- mean + theta * (rho - mean) at every node, in place
    rho -= mean_rho
    rho *= theta_rho
    rho += mean_rho

    # stage 2: one theta per cell so nodal pressure stays positive; the
    # crossing in t of p(mean + t*(node - mean)) = target is bracketed in
    # [0, 1] and found by bisection (robust near vacuum, unlike the
    # closed-form quadratic).  The target carries a relative component
    # because p is a cancellation of E against the kinetic energy, so the
    # re-evaluated nodal pressure is only accurate to round-off on that scale.
    p_nodes = model.pressure(np.moveaxis(vals, 0, -1))  # (P, nx, ny)
    p_target = np.maximum(region.eps_p, 1e-12 * np.abs(vals[3]))
    flagged = p_nodes < p_target
    theta_p = np.ones_like(mean_rho)
    cells = flagged.any(axis=0)
    if np.any(cells):
        ci, cj = np.nonzero(cells)
        node, k = np.nonzero(flagged[:, ci, cj])  # flagged nodes of the flagged cells
        ci, cj = ci[k], cj[k]
        u_mean = np.ascontiguousarray(mean[ci, cj].T)
        t = _pressure_crossing(model, u_mean, vals[:, node, ci, cj], p_target[node, ci, cj])
        np.minimum.at(theta_p, (ci, cj), t)
    _scale_modes(out.coeffs, theta_p)
    del vals, rho, p_nodes, p_target  # the collapse check evaluates the limited field: free these first

    theta = np.minimum(theta_rho, theta_p)
    collapsed = _collapse_roundoff_stragglers(out, region)
    if collapsed is not None:
        theta = np.where(collapsed, 0.0, theta)
    return out, LimiterDiagnostics(
        cells_limited=int(np.count_nonzero(theta < 1.0)),
        min_theta=float(theta.min()),
    )


def _pressure_crossing(model, u_mean: np.ndarray, u_node: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Largest t in [0, 1], to 60 bisection steps, with p(mean + t*(node - mean)) >= target.

    `u_mean` and `u_node` are component-major (4, B), so the pressure reads
    contiguous rows, and `target` is (B,).  The brackets are updated in
    place; the iterates are those of the plain loop `t_mid = 0.5 * (t_lo +
    t_hi)` on states `u_mean + t_mid * (u_node - u_mean)`."""
    diff = u_node - u_mean
    t_lo = np.zeros(len(target))
    t_hi = np.ones(len(target))
    t_mid = np.empty_like(t_lo)
    state = np.empty_like(diff)
    good = np.empty(len(target), dtype=bool)
    for _ in range(60):
        np.add(t_lo, t_hi, out=t_mid)
        t_mid *= 0.5
        np.multiply(t_mid, diff, out=state)
        state += u_mean
        np.greater_equal(model.pressure(state.T), target, out=good)
        np.copyto(t_lo, t_mid, where=good)
        np.logical_not(good, out=good)
        np.copyto(t_hi, t_mid, where=good)
    return t_lo


def _collapse_roundoff_stragglers(field: DGField, region: EulerPositivity):
    """Guarantee the floors on the values the residual actually evaluates.

    The bisection works along segments in state space, but the stepped field
    is re-evaluated from the scaled coefficients, and near machine precision
    the two paths can disagree (pressure is a cancellation).  Cells whose
    re-evaluated trace or volume values still sit below the floors are
    collapsed to their cell average, which is admissible by precondition and
    evaluates exactly (mode 0 is the constant 1).  The evaluation, patched
    to the averages in collapsed cells, becomes the field's point values, so
    the next residual does not evaluate the field again.  Returns the
    collapsed mask, or None if no cell needed it.
    """
    pts = field.basis.stacked_values(field.coeffs)
    p = field.model.pressure(pts)
    low = (pts[..., 0] < region.eps_rho * (1.0 - 1e-10)) | (p < region.eps_p * (1.0 - 1e-10))
    collapsed = None
    if np.any(low):
        bad = np.any(low, axis=2)
        field.coeffs[bad, 1:, :] = 0.0
        pts[bad] = field.coeffs[bad, 0][:, None, :]
        p[bad] = field.model.pressure(pts[bad])
        collapsed = bad
    field.values = values_of_stacked(field, pts, p)
    return collapsed


def _minmod3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    sign = np.sign(a)
    agree = (sign == np.sign(b)) & (sign == np.sign(c))
    return np.where(agree, sign * np.minimum(np.abs(a), np.minimum(np.abs(b), np.abs(c))), 0.0)


def _ghost_means(field: DGField):
    """Cell averages padded by one ghost layer per boundary condition."""
    mesh = field.mesh
    mean = field.cell_averages  # (nx, ny, m)
    left = ghost_trace(mesh.bc_left, mean[0], mean[-1], mesh.y_centers)
    right = ghost_trace(mesh.bc_right, mean[-1], mean[0], mesh.y_centers)
    ext_x = np.concatenate([left[None], mean, right[None]], axis=0)
    bottom = ghost_trace(mesh.bc_bottom, mean[:, 0], mean[:, -1], mesh.x_centers)
    top = ghost_trace(mesh.bc_top, mean[:, -1], mean[:, 0], mesh.x_centers)
    ext_y = np.concatenate([bottom[:, None], mean, top[:, None]], axis=1)
    return ext_x, ext_y


def tvb_minmod_limit(field: DGField, m_tvb: float) -> tuple[DGField, int]:
    """TVB minmod limiter on the linear modes with an M*dx^2 dead zone.

    Troubled cells keep their average, get minmod-limited linear modes, and
    lose everything above linear.  Applied componentwise on conserved
    variables.
    """
    basis = field.basis
    if basis.k < 1:
        return field.copy(), 0
    mesh = field.mesh
    ix = basis.mode_exps.index((1, 0))
    iy = basis.mode_exps.index((0, 1))
    sqrt3 = np.sqrt(3.0)
    out = field.copy()
    ext_x, ext_y = _ghost_means(field)

    # face deviation carried by the linear mode: phi_(1,0)(1/2, .) = sqrt(3)
    dx_mode = sqrt3 * out.coeffs[:, :, ix, :]
    dy_mode = sqrt3 * out.coeffs[:, :, iy, :]
    fwd_x = ext_x[2:] - ext_x[1:-1]
    bwd_x = ext_x[1:-1] - ext_x[:-2]
    fwd_y = ext_y[:, 2:] - ext_y[:, 1:-1]
    bwd_y = ext_y[:, 1:-1] - ext_y[:, :-2]

    lim_x = np.where(np.abs(dx_mode) <= m_tvb * mesh.dx**2, dx_mode, _minmod3(dx_mode, fwd_x, bwd_x))
    lim_y = np.where(np.abs(dy_mode) <= m_tvb * mesh.dy**2, dy_mode, _minmod3(dy_mode, fwd_y, bwd_y))
    troubled = np.any((lim_x != dx_mode) | (lim_y != dy_mode), axis=-1)
    if np.any(troubled):
        new = np.zeros_like(out.coeffs[troubled])
        new[:, 0, :] = out.coeffs[troubled][:, 0, :]
        new[:, ix, :] = lim_x[troubled] / sqrt3
        new[:, iy, :] = lim_y[troubled] / sqrt3
        out.coeffs[troubled] = new
    return out, int(np.count_nonzero(troubled))


class LimiterChain:
    """Per-stage limiter pipeline: TVB minmod first, then the BP limiter.

    `last_diagnostics` are those of the latest call; `totals` accumulate over
    every call (every stage of every step, and any initial limiting)."""

    def __init__(
        self,
        region: Optional[InvariantRegion] = None,
        node_set: Optional[LimiterNodeSet] = None,
        m_tvb: Optional[float] = None,
        bp_enabled: bool = True,
    ):
        if bp_enabled and (region is None or node_set is None):
            raise ValueError("BP limiting needs a region and a node set")
        self.region = region
        self.node_set = node_set
        self.m_tvb = m_tvb
        self.bp_enabled = bp_enabled
        self.last_diagnostics = LimiterDiagnostics()
        self.totals = LimiterDiagnostics()

    def __call__(self, field: DGField) -> DGField:
        diag = LimiterDiagnostics()
        if self.m_tvb is not None:
            field, diag.troubled_cells = tvb_minmod_limit(field, self.m_tvb)
        if self.bp_enabled:
            field, bp_diag = bp_scaling_limit(field, self.region, self.node_set)
            diag.cells_limited = bp_diag.cells_limited
            diag.min_theta = bp_diag.min_theta
        self.last_diagnostics = diag
        self.totals.add(diag)
        return field
