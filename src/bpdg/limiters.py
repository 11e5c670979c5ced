"""Bound-preserving scaling limiter and TVB minmod oscillation limiter.

The BP limiter rescales each cell polynomial about its (already admissible)
cell average so that its values at the face-trace Gauss points and at the
active decomposition's internal nodes land inside the invariant region.  The
TVB limiter knocks cells with non-smooth linear modes down to a limited
linear reconstruction; both limiters preserve cell averages exactly, and
both change the field they are given.  Membership is the region's `contains`.

The Euler BP limiter (Zhang & Shu, JCP 229, 2010) evaluates each field once,
at its view of the node set, whose first rows are the residual's volume and
face points; those rows and the internal nodes off them go to arrays of
their own, so the rows handed on keep nothing else alive.
Density and pressure each get one theta per cell, aimed a stated round-off
margin above the floors; the pressure crossing is the closed-form root of a
quadratic, checked where it is used.  The limited values
`mean + theta*(v - mean)` and their pressure are returned with the field, for
the next residual to read, and those are what is certified: a changed cell
with a value still outside the region is collapsed to its average and counted
(`LimiterDiagnostics.collapsed_cells`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decomposition import ConvexDecomposition
from .dg_core import Basis2D, DGField, PointValues, apply_matrix, ghost_trace, mode_values
from .physics import AdmissibilityError, BoxScalar, EulerPositivity, InvariantRegion

# round-off bound of evaluating a scaled state, per unit of the magnitudes it sums
_MARGIN = 16.0 * np.finfo(float).eps
# bisection steps where the closed-form pressure crossing fails its check
_BACKOFF_STEPS = 20


@dataclass(frozen=True)
class NodeRows:
    """Reference offsets where a BP limiter enforces its bounds, with the
    basis values there."""

    offsets: np.ndarray  # (P, 2)
    matrix: np.ndarray  # (P, n_modes)

    def __len__(self) -> int:
        return len(self.offsets)

    def evaluate(self, field: DGField, split: Optional[int] = None):
        """Field values at the nodes of every cell, component-major: (m, P, nx, ny).

        This is `apply_matrix`'s result with its memory order made the
        logical order: a C-contiguous array whose (nx, ny) planes the
        limiters reduce over, one component at a time.  With `split`, rows
        [0, split) and [split, P) are evaluated into arrays of their own,
        returned as a list (an empty second one left out), so that each is
        freed on its own."""
        if split is None:
            return apply_matrix(self.matrix, field.coeffs).transpose(3, 2, 0, 1)
        return [apply_matrix(rows, field.coeffs).transpose(3, 2, 0, 1)
                for rows in (self.matrix[:split], self.matrix[split:]) if len(rows)]


@dataclass(frozen=True)
class LimiterNodeSet:
    """The BP limiters' nodes for one decomposition, one view per limiter.

    `box`: the face-trace rows of `Basis2D`'s stacked points, then every
    internal node of the decomposition: exactly the decomposition's points.
    `euler`: all the stacked rows (volume, then faces), so the first rows of
    an evaluation are the values the residual reads (the Euler flux itself
    needs positivity), then the internal nodes that are not volume Gauss
    points."""

    box: NodeRows
    euler: NodeRows


@dataclass
class LimiterDiagnostics:
    cells_limited: int = 0
    min_theta: float = 1.0
    troubled_cells: int = 0
    collapsed_cells: int = 0  # Euler cells the floor check sent to their average

    def add(self, other: "LimiterDiagnostics") -> None:
        """Fold in another limiting: counts add up, theta keeps the minimum."""
        self.cells_limited += other.cells_limited
        self.min_theta = min(self.min_theta, other.min_theta)
        self.troubled_cells += other.troubled_cells
        self.collapsed_cells += other.collapsed_cells


def build_node_set(decomp: ConvexDecomposition, basis: Basis2D) -> LimiterNodeSet:
    """The limiter nodes of `decomp` for `basis`, in the views `LimiterNodeSet` lists."""
    if decomp.dim != 2:
        raise ValueError("limiter node sets are 2D")
    internal = decomp.internal_offsets
    stacked, at_nodes = basis.eval_matrix.T, mode_values(basis.k, internal)  # (n_modes, points)
    faces = slice(basis.at_vol.stop, None)
    # both coordinates Gauss nodes: a volume point, already a stacked row
    new = ~(internal[:, :, None] == basis.face_rule.nodes).any(axis=2).all(axis=1)

    def rows(offsets, *matrices):
        return NodeRows(np.concatenate(offsets), np.concatenate(matrices, axis=1).T)

    return LimiterNodeSet(
        box=rows((basis.offsets[faces], internal), stacked[:, faces], at_nodes),
        euler=rows((basis.offsets, internal[new]), stacked, at_nodes[:, new]),
    )


def _scale_modes(field: DGField, theta: np.ndarray) -> None:
    """Scale each cell's higher modes by its theta, in place."""
    if np.all(theta == 1.0):
        return  # nothing limited: skip a strided multiply by ones
    field.coeffs[:, :, 1:, :] *= theta[:, :, None, None]


def bp_scaling_limit(
    field: DGField,
    region: InvariantRegion,
    nodes: LimiterNodeSet,
) -> tuple[DGField, LimiterDiagnostics, Optional[PointValues]]:
    """Largest-theta scaling p -> mean + theta*(p - mean) making all node
    values admissible, in `field` itself, which is returned with the
    diagnostics and, from the Euler limiter, the limited field's point values
    (None from the box limiter).  Requires every cell average in the region
    already.  Each region's limiter reads its own view of `nodes`."""
    if isinstance(region, BoxScalar):
        return _bp_limit_box(field, region, nodes.box)
    if isinstance(region, EulerPositivity):
        return _bp_limit_euler(field, region, nodes.euler)
    raise TypeError(f"unsupported region {region!r}")


def _require_means(region: InvariantRegion, mean: np.ndarray, p: Optional[np.ndarray] = None) -> None:
    """The BP limiters' precondition: every cell average (pressure `p`) in `region`."""
    inside = region.contains(mean, p)
    if not inside.all():
        i, j = (int(v) for v in np.argwhere(~inside)[0])
        raise AdmissibilityError(f"cell average outside {region} in cell ({i}, {j}) before BP "
                                 "limiting (BP dt policy violated upstream?)", cell=(i, j))


def _bp_limit_box(field: DGField, region: BoxScalar, nodes: NodeRows):
    _require_means(region, field.coeffs[:, :, 0, :])
    mean = field.coeffs[:, :, 0, 0]
    vals = nodes.evaluate(field)[0]  # (P, nx, ny)
    hi = vals.max(axis=0)
    lo = vals.min(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta_hi = np.where(hi > region.hi, (region.hi - mean) / (hi - mean), 1.0)
        theta_lo = np.where(lo < region.lo, (mean - region.lo) / (mean - lo), 1.0)
    theta = np.clip(np.minimum(theta_hi, theta_lo), 0.0, 1.0)
    _scale_modes(field, theta)
    return field, LimiterDiagnostics(
        cells_limited=int(np.count_nonzero(theta < 1.0)),
        min_theta=float(theta.min()),
    ), None


def _bp_limit_euler(field: DGField, region: EulerPositivity, nodes: NodeRows):
    model = field.model
    mean = field.coeffs[:, :, 0, :]  # (nx, ny, 4)
    mean_rho = mean[..., 0]
    mean_p = model.pressure(mean)
    _require_means(region, mean, mean_p)

    # the one evaluation, in two arrays: the stacked rows, the values the
    # next residual reads (returned rather than evaluated again), and the
    # internal nodes off them, which are not kept alive with those
    blocks = nodes.evaluate(field, len(field.basis.eval_matrix))  # [(4, rows, nx, ny)]

    # stage 1: scale the density modes so nodal rho >= eps_rho, aiming a
    # round-off margin above the floor; re-centre the limited cells' nodes
    rho_min = np.min([v[0].min(axis=0) for v in blocks], axis=0)
    theta_rho = np.ones_like(mean_rho)
    low = rho_min < region.eps_rho
    if np.any(low):
        m, r = mean_rho[low], rho_min[low]
        aim = region.eps_rho + _MARGIN * (np.abs(m) + np.abs(r))
        with np.errstate(divide="ignore"):  # a flat cell (r = m below the floor) gets theta 0
            th = theta_rho[low] = np.clip((m - aim) / (m - r), 0.0, 1.0)
        field.coeffs[low, 1:, 0] *= th[:, None]
        for v in blocks:
            v[0][:, low] = m + th * (v[0][:, low] - m)

    # stage 2: one theta per cell so nodal pressure stays above eps_p; in the
    # cells with a node below the floor every node short of floor + margin
    # gets its own crossing, and the cell takes the smallest
    p_blocks = [model.pressure(np.moveaxis(v, 0, -1)) for v in blocks]  # [(rows, nx, ny)]
    theta_p = np.ones_like(mean_rho)
    cells = np.any([np.any(~(p >= region.eps_p), axis=0) for p in p_blocks], axis=0)
    if np.any(cells):
        ci, cj = np.nonzero(cells)
        flagged = []  # (cell rows, cell columns, node states) of each block
        for v, p in zip(blocks, p_blocks):
            aim = _pressure_aim(model.gamma, region.eps_p, mean[ci, cj, 3], v[3][:, ci, cj])
            node, k = np.nonzero(~(p[:, ci, cj] >= aim))
            flagged.append((ci[k], cj[k], v[:, node, ci[k], cj[k]]))
        fi, fj, u_node = (np.concatenate(part, axis=-1) for part in zip(*flagged))
        u_mean = np.ascontiguousarray(mean[fi, fj].T)
        t = _pressure_crossing(model, u_mean, u_node, region.eps_p)
        np.minimum.at(theta_p, (fi, fj), t)
    scaled = theta_p < 1.0
    if np.any(scaled):
        th = theta_p[scaled]
        field.coeffs[scaled, 1:, :] *= th[:, None, None]
        # the limited values, by the crossing's own expression, and their pressure
        m = mean[scaled].T[:, None, :]  # (4, 1, cells)
        for v, p in zip(blocks, p_blocks):
            w = th * (v[:, :, scaled] - m)
            w += m
            v[:, :, scaled] = w
            p[:, scaled] = model.pressure(np.moveaxis(w, 0, -1))

    # the one counted fallback: a changed cell with a value still outside the
    # region is collapsed to its average (admissible by precondition, and
    # exact: mode 0 is the constant 1)
    theta = np.minimum(theta_rho, theta_p)
    changed = theta < 1.0
    collapsed = np.zeros_like(changed)
    if np.any(changed):
        inside = [region.contains(np.moveaxis(v[:, :, changed], 0, -1), p[:, changed]).all(axis=0)
                  for v, p in zip(blocks, p_blocks)]
        collapsed[changed] = ~np.all(inside, axis=0)
    if np.any(collapsed):
        field.coeffs[collapsed, 1:, :] = 0.0
        for v, p in zip(blocks, p_blocks):
            v[:, :, collapsed] = mean[collapsed].T[:, None, :]
            p[:, collapsed] = mean_p[collapsed]
        theta[collapsed] = 0.0
    return field, LimiterDiagnostics(
        cells_limited=int(np.count_nonzero(changed)),
        min_theta=float(theta.min()),
        collapsed_cells=int(np.count_nonzero(collapsed)),
    ), PointValues(blocks[0].transpose(2, 3, 1, 0), p_blocks[0].transpose(1, 2, 0))


def _pressure_aim(gamma: float, target, e_mean: np.ndarray, e_node: np.ndarray) -> np.ndarray:
    """`target` plus a bound on the round-off of a pressure computed at a
    state between a mean and a node with these energies."""
    return target + _MARGIN * (gamma - 1.0) * (np.abs(e_mean) + np.abs(e_node))


def _pressure_crossing(model, u_mean: np.ndarray, u_node: np.ndarray, target) -> np.ndarray:
    """Largest t in [0, 1], up to a round-off margin, with p(mean + t*(node - mean)) >= target.

    `u_mean` and `u_node` are component-major (4, B) and `target` a scalar or
    (B,); every mean's pressure must be at least its target.  Along the
    segment rho*p/(gamma - 1) = rho*E - |m|^2/2 is a quadratic in t, and the
    root of rho*(p - aim) that is in (0, 1] (p's superlevel sets are convex,
    so there is one) is taken by the cancellation-free formula, with `aim`
    from `_pressure_aim`: target + 16*eps*(gamma - 1)*(|E_mean| + |E_node|),
    a round-off margin.  The pressure at the root,
    computed as the limiter forms the scaled state, is checked against
    `target`; where the check fails (near vacuum, where the quadratic's
    coefficients cancel), t is bisected on [0, root] _BACKOFF_STEPS times,
    the failing nodes only.  So p is computed 1 + _BACKOFF_STEPS times at
    most, and the returned t is certified: at t = 0 the state is the mean."""
    gm1 = model.gamma - 1.0
    diff = u_node - u_mean
    rho, m1, m2, e = u_mean
    drho, dm1, dm2, de = diff
    target = np.broadcast_to(target, rho.shape)
    e_aim = e - _pressure_aim(model.gamma, target, e, u_node[3]) / gm1
    c = rho * e_aim - 0.5 * (m1 * m1 + m2 * m2)
    b = rho * de + drho * e_aim - (m1 * dm1 + m2 * dm2)
    a = drho * de - 0.5 * (dm1 * dm1 + dm2 * dm2)
    sq = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(b < 0.0, 2.0 * c / (sq - b), (b + sq) / (-2.0 * a))
    t[c <= 0.0] = 0.0  # the mean itself is short of the aim
    t[a + b + c >= 0.0] = 1.0  # the node is not
    np.clip(t, 0.0, 1.0, out=t)

    def certified(s, at):
        return model.pressure((s * diff[:, at] + u_mean[:, at]).T) >= target[at]

    fail = np.flatnonzero(~certified(t, slice(None)))
    if len(fail):
        lo, hi = np.zeros(len(fail)), t[fail]
        for _ in range(_BACKOFF_STEPS):
            mid = 0.5 * (lo + hi)
            good = certified(mid, fail)
            lo = np.where(good, mid, lo)
            hi = np.where(good, hi, mid)
        t[fail] = lo
    return t


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
    lose everything above linear, in `field` itself, which is returned.
    Applied componentwise on conserved variables.  Minmod runs only where a
    linear mode leaves the dead zone (elsewhere the mode is kept as it is),
    so most cells cost one comparison.
    """
    basis = field.basis
    if basis.k < 1:
        return field, 0
    mesh = field.mesh
    modes = (basis.mode_exps.index((1, 0)), basis.mode_exps.index((0, 1)))
    sqrt3 = np.sqrt(3.0)
    ext = _ghost_means(field)
    troubled = np.zeros((mesh.nx, mesh.ny), dtype=bool)
    lim = []
    for axis, mode, h in ((0, modes[0], mesh.dx), (1, modes[1], mesh.dy)):
        # face deviation carried by the linear mode: phi_(1,0)(1/2, .) = sqrt(3),
        # (m, nx, ny) as the coefficients are held, so the scan below is in memory order
        dev = sqrt3 * field.coeffs[:, :, mode, :].transpose(2, 0, 1)
        # the slopes outside the dead zone, a NaN slope too; flatnonzero, as
        # np.nonzero of a 3D mask took 8x longer on the jet
        outside = ~(np.abs(dev) <= m_tvb * h**2)
        comp, i, j = np.unravel_index(np.flatnonzero(outside), dev.shape)
        if len(comp):
            d = dev[comp, i, j]
            limited = _minmod3(d, *_neighbour_differences(ext[axis], (i, j, comp), axis))
            dev[comp, i, j] = limited
            moved = limited != d
            troubled[i[moved], j[moved]] = True
        lim.append(dev)
    if np.any(troubled):
        kept = field.coeffs[troubled]
        new = np.zeros_like(kept)
        new[:, 0, :] = kept[:, 0, :]
        for mode, dev in zip(modes, lim):
            new[:, mode, :] = dev[:, troubled].T / sqrt3
        field.coeffs[troubled] = new
    return field, int(np.count_nonzero(troubled))


def _neighbour_differences(ext: np.ndarray, at: tuple[np.ndarray, ...], axis: int):
    """Forward and backward differences along `axis` of the cell means padded
    by one ghost layer on that axis (`ext`), at the cells and components `at`."""
    index = list(at)
    index[axis] = at[axis] + 1
    mid = ext[tuple(index)]
    index[axis] = at[axis] + 2
    fwd = ext[tuple(index)] - mid
    index[axis] = at[axis]
    return fwd, mid - ext[tuple(index)]


@dataclass(frozen=True)
class LimiterChain:
    """Per-stage limiter pipeline: TVB minmod first, then the BP limiter.

    BP limiting is on exactly when a node set is given, and enforces the
    field's own invariant region (`field.model.region`) at those nodes.  Both
    limiters change the field they are given, so a caller passes a field it
    owns (as `ssp_step` passes each new stage).  A call returns the limited
    field, the call's `LimiterDiagnostics`, and the point values the BP
    limiter returned with it (only the Euler one does; else None)."""

    node_set: Optional[LimiterNodeSet] = None
    m_tvb: Optional[float] = None

    def __call__(self, field: DGField) -> tuple[DGField, LimiterDiagnostics, Optional[PointValues]]:
        diag, values = LimiterDiagnostics(), None
        if self.m_tvb is not None:
            field, diag.troubled_cells = tvb_minmod_limit(field, self.m_tvb)
        if self.node_set is not None:
            field, bp_diag, values = bp_scaling_limit(field, field.model.region, self.node_set)
            diag.add(bp_diag)
        return field, diag, values
