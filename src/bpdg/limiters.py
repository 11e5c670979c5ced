"""Bound-preserving scaling limiter and TVB minmod oscillation limiter.

The BP limiter rescales each cell polynomial about its (already admissible)
cell average so that its values at the face-trace Gauss points and at the
active decomposition's internal nodes land inside the invariant region.  The
TVB limiter knocks cells with non-smooth linear modes down to a limited
linear reconstruction; both limiters preserve cell averages exactly, and
both change the field they are given.  Membership is the region's `contains`.

The box limiter (Zhang & Shu's scaling limiter for a scalar law) reduces
every cell's nodal max and min, but forms theta, scales modes and counts only
in the cells whose max or min leaves the box: a cell inside keeps theta 1, so
the result is the all-cells formula's, bit for bit.

The Euler BP limiter (Zhang & Shu, JCP 229, 2010) evaluates each field once,
at its node set, whose first rows are the residual's volume and
face points; those rows and the internal nodes off them go to arrays of
their own, so the rows handed on keep nothing else alive.
Density and pressure each get one theta per cell, aimed a stated round-off
margin above the floors; the pressure crossing is the closed-form root of a
quadratic, checked where it is used.  Each block gets one full pass for its
density minimum and one for its pressure; everything after that (aims,
crossings, scaling, the pressure of the scaled values and the collapse
check) runs once per limiting, on one compact array of both blocks' nodes of
the flagged cells only: those with a node below a floor (a few percent of
the cells on the jets).  The limited values
`mean + theta*(v - mean)` and their pressure are returned with the field, for
the next residual to read, and those are what is certified: a changed cell
with a value still outside the region is collapsed to its average and counted
(`LimiterDiagnostics.collapsed_cells`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .decomposition import ConvexDecomposition
from .dg_core import Basis2D, DGField, PointValues, apply_matrix, ghost_trace, mode_values
from .physics import AdmissibilityError, BoxScalar, EulerPositivity, InvariantRegion

# round-off bound of evaluating a scaled state, per unit of the magnitudes it sums
_MARGIN = 16.0 * np.finfo(float).eps
# bisection steps where the closed-form pressure crossing fails its check
_BACKOFF_STEPS = 20


class NodeRows:
    """Reference offsets where a BP limiter enforces its bounds, with the
    basis values there."""

    def __init__(self, offsets: np.ndarray, matrix: np.ndarray):
        self.offsets = offsets  # (P, 2)
        self.matrix = matrix  # (P, n_modes)

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


class LimiterDiagnostics:
    def __init__(self, cells_limited: int = 0, min_theta: float = 1.0, troubled_cells: int = 0,
                 collapsed_cells: int = 0):
        self.cells_limited = cells_limited
        self.min_theta = min_theta
        self.troubled_cells = troubled_cells
        self.collapsed_cells = collapsed_cells  # Euler cells the floor check sent to their average

    def __eq__(self, other) -> bool:  # limitings compare by their counts
        return isinstance(other, LimiterDiagnostics) and vars(self) == vars(other)

    def add(self, other: "LimiterDiagnostics") -> None:
        """Fold in another limiting: counts add up, theta keeps the minimum."""
        self.cells_limited += other.cells_limited
        self.min_theta = min(self.min_theta, other.min_theta)
        self.troubled_cells += other.troubled_cells
        self.collapsed_cells += other.collapsed_cells


def build_node_set(decomp: ConvexDecomposition, basis: Basis2D, region: InvariantRegion) -> NodeRows:
    """The nodes of `decomp` for `basis` that `region`'s BP limiter reads.

    Box: the face-trace rows of `Basis2D`'s stacked points, then every
    internal node of the decomposition: exactly the decomposition's points.
    Euler: all the stacked rows (volume, then faces), so the first rows of
    an evaluation are the values the residual reads (the Euler flux itself
    needs positivity), then the internal nodes that are not volume Gauss
    points."""
    if decomp.dim != 2:
        raise ValueError("limiter node sets are 2D")
    internal = decomp.internal_offsets
    stacked, at_nodes = basis.eval_matrix.T, mode_values(basis.k, internal)  # (n_modes, points)
    if isinstance(region, BoxScalar):
        faces = slice(basis.at_vol.stop, None)
        offsets, matrices = (basis.offsets[faces], internal), (stacked[:, faces], at_nodes)
    elif isinstance(region, EulerPositivity):
        # both coordinates Gauss nodes: a volume point, already a stacked row
        new = ~(internal[:, :, None] == basis.face_rule.nodes).any(axis=2).all(axis=1)
        offsets, matrices = (basis.offsets, internal[new]), (stacked, at_nodes[:, new])
    else:
        raise TypeError(f"unsupported region {region!r}")
    return NodeRows(np.concatenate(offsets), np.concatenate(matrices, axis=1).T)


def bp_scaling_limit(
    field: DGField,
    region: InvariantRegion,
    nodes: NodeRows,
) -> tuple[DGField, LimiterDiagnostics, Optional[PointValues]]:
    """Largest-theta scaling p -> mean + theta*(p - mean) making all node
    values admissible, in `field` itself, which is returned with the
    diagnostics and, from the Euler limiter, the limited field's point values
    (None from the box limiter).  Requires every cell average in the region
    already.  `nodes` are `build_node_set`'s for `region`."""
    if isinstance(region, BoxScalar):
        return _bp_limit_box(field, region, nodes)
    if isinstance(region, EulerPositivity):
        return _bp_limit_euler(field, region, nodes)
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
    vals = nodes.evaluate(field)[0]  # (P, nx, ny)
    hi = vals.max(axis=0)
    lo = vals.min(axis=0)
    above, below = hi > region.hi, lo < region.lo
    cells = np.nonzero(above | below)  # theta is 1 everywhere else
    if not len(cells[0]):
        return field, LimiterDiagnostics(), None
    mean = field.coeffs[cells + (0, 0)]
    with np.errstate(divide="ignore", invalid="ignore"):
        theta_hi = np.where(above[cells], (region.hi - mean) / (hi[cells] - mean), 1.0)
        theta_lo = np.where(below[cells], (mean - region.lo) / (mean - lo[cells]), 1.0)
    theta = np.clip(np.minimum(theta_hi, theta_lo), 0.0, 1.0)
    field.coeffs[cells + (slice(1, None),)] *= theta[:, None, None]
    return field, LimiterDiagnostics(
        cells_limited=int(np.count_nonzero(theta < 1.0)),
        min_theta=min(1.0, float(theta.min())),
    ), None


def _bp_limit_euler(field: DGField, region: EulerPositivity, nodes: NodeRows):
    model = field.model
    mean_p = model.pressure(field.coeffs[:, :, 0, :])
    _require_means(region, field.coeffs[:, :, 0, :], mean_p)
    nx, ny = mean_p.shape
    # from here on every array has its cells on one axis, in C order, as an
    # (nx, ny) mask enumerates them; the coefficients are scaled through a
    # view, (nx*ny, n_modes, 4), written back at the end if reshape copied
    coeffs = field.coeffs.reshape(nx * ny, *field.coeffs.shape[2:])
    mean = coeffs[:, 0, :]  # (nx*ny, 4)

    # the one evaluation, in two arrays: the stacked rows, the values the
    # next residual reads (returned rather than evaluated again), and the
    # internal nodes off them, which are not kept alive with those
    split = len(field.basis.eval_matrix)
    planes = nodes.evaluate(field, split)  # [(4, rows, nx, ny)], C arrays
    blocks = [v.reshape(4, len(v[0]), nx * ny) for v in planes]  # views, so writes reach `planes`

    # stage 1: scale the density modes so nodal rho >= eps_rho, aiming a
    # round-off margin above the floor; re-centre the limited cells' nodes
    rho_min = np.min([v[0].min(axis=0) for v in blocks], axis=0)
    theta_rho = np.ones_like(rho_min)
    low = rho_min < region.eps_rho
    if np.any(low):
        m, r = mean[low, 0], rho_min[low]
        aim = region.eps_rho + _MARGIN * (np.abs(m) + np.abs(r))
        with np.errstate(divide="ignore"):  # a flat cell (r = m below the floor) gets theta 0
            th = theta_rho[low] = np.clip((m - aim) / (m - r), 0.0, 1.0)
        coeffs[low, 1:, 0] *= th[:, None]
        for v in blocks:
            v[0][:, low] = m + th * (v[0][:, low] - m)

    # stage 2: one theta per cell so nodal pressure stays above eps_p; in the
    # cells with a node below the floor every node short of floor + margin
    # gets its own crossing, and the cell takes the smallest.  One full
    # pressure pass per block; the rest runs once, on one compact array of
    # the flagged cells' nodes of both blocks, the density-limited cells among
    # them, and only the changed cells are scattered back
    p_planes = [model.pressure(np.moveaxis(v, 0, -1)) for v in planes]  # [(rows, nx, ny)], C arrays
    p_blocks = [p.reshape(len(p), nx * ny) for p in p_planes]
    values = PointValues(planes[0].transpose(2, 3, 1, 0), p_planes[0].transpose(1, 2, 0))
    short = ~(np.min([p.min(axis=0) for p in p_blocks], axis=0) >= region.eps_p)  # NaN is short too
    cells = np.flatnonzero(low | short)
    if not len(cells):
        return field, LimiterDiagnostics(), values
    v = np.concatenate([b[:, :, cells] for b in blocks], axis=1)  # (4, rows, cells)
    p = np.concatenate([b[:, cells] for b in p_blocks])  # (rows, cells)
    m = mean[cells].T  # (4, cells)
    aim = _pressure_aim(model.gamma, region.eps_p, m[3], v[3])
    node, c = np.nonzero(~(p >= aim) & short[cells])
    theta_p = np.ones(len(cells))
    if len(c):
        t = _pressure_crossing(model, np.ascontiguousarray(m[:, c]), v[:, node, c], region.eps_p)
        np.minimum.at(theta_p, c, t)
    # only the changed cells go on, and back: a cell with theta 1 keeps its
    # values, as (v - m) + m is not always v
    theta = np.minimum(theta_rho[cells], theta_p)
    changed = theta < 1.0
    if not changed.all():
        cells, theta, theta_p, v, p, m = (a[..., changed] for a in (cells, theta, theta_p, v, p, m))
    scaled = np.flatnonzero(theta_p < 1.0)
    if len(scaled):
        th = theta_p[scaled]
        coeffs[cells[scaled], 1:, :] *= th[:, None, None]
        # the limited values, by the crossing's own expression, and their pressure
        ms = m[:, None, scaled]  # (4, 1, scaled cells)
        w = th * (v[:, :, scaled] - ms)
        w += ms
        v[:, :, scaled] = w
        p[:, scaled] = model.pressure(w.transpose(1, 2, 0))

    # the one counted fallback: a changed cell with a value still outside the
    # region is collapsed to its average (admissible by precondition, and
    # exact: mode 0 is the constant 1)
    collapsed = np.flatnonzero(~region.contains(v.transpose(1, 2, 0), p).all(axis=0))
    if len(collapsed):
        coeffs[cells[collapsed], 1:, :] = 0.0
        v[:, :, collapsed] = m[:, None, collapsed]
        p[:, collapsed] = mean_p.reshape(-1)[cells[collapsed]]
        theta[collapsed] = 0.0
    for b, pb, rows in zip(blocks, p_blocks, (slice(split), slice(split, None))):
        b[:, :, cells] = v[:, rows]
        pb[:, cells] = p[rows]
    if not np.may_share_memory(coeffs, field.coeffs):  # cells not one axis in memory: reshape copied
        field.coeffs[...] = coeffs.reshape(field.coeffs.shape)
    return field, LimiterDiagnostics(
        cells_limited=len(cells),
        min_theta=float(theta.min(initial=1.0)),
        collapsed_cells=len(collapsed),
    ), values


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
    padded = []
    for axis, ((lo, hi), centres) in enumerate(zip(mesh.sides, (mesh.y_centers, mesh.x_centers))):
        cells = (slice(None),) * axis  # index prefix up to the cell index along `axis`
        first, last = mean[cells + (0,)], mean[cells + (-1,)]
        padded.append(np.concatenate([ghost_trace(lo, first, last, centres)[cells + (None,)], mean,
                                      ghost_trace(hi, last, first, centres)[cells + (None,)]], axis=axis))
    return tuple(padded)


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


class LimiterChain:
    """Per-stage limiter pipeline: TVB minmod first, then the BP limiter.

    BP limiting is on exactly when a node set is given, and enforces the
    field's own invariant region (`field.model.region`) at those nodes, which
    `build_node_set` built for it; an empty chain limits nothing.  Both
    limiters change the field they are given, so a caller passes a field it
    owns (as `ssp_step` passes each new stage).  A call returns the limited
    field, the call's `LimiterDiagnostics`, and the point values the BP
    limiter returned with it (only the Euler one does; else None)."""

    def __init__(self, node_set: Optional[NodeRows] = None, m_tvb: Optional[float] = None):
        self.node_set = node_set
        self.m_tvb = m_tvb

    def __call__(self, field: DGField) -> tuple[DGField, LimiterDiagnostics, Optional[PointValues]]:
        diag, values = LimiterDiagnostics(), None
        if self.m_tvb is not None:
            field, diag.troubled_cells = tvb_minmod_limit(field, self.m_tvb)
        if self.node_set is not None:
            field, bp_diag, values = bp_scaling_limit(field, field.model.region, self.node_set)
            diag.add(bp_diag)
        return field, diag, values
