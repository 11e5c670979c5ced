"""Modal DG discretization on a uniform 2D Cartesian mesh.

The basis is orthonormal under the cell-mean inner product, so the mode-0
coefficient of every cell *is* its cell average and the mode-0 row of the
semi-discrete residual coincides (to round-off) with the flux-difference
evolution equation of the cell averages.  That identity is what lets the
convex-decomposition CFL analysis apply to this solver verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

import numpy as np

from .decomposition import ConvexDecomposition, bp_max_dt
from .physics import AdmissibilityError, ConservationLawModel, lax_friedrichs_flux
from .quadrature import gauss_rule, legendre_table

PERIODIC = "periodic"
OUTFLOW = "outflow"


@dataclass(frozen=True)
class InflowSegment:
    """Prescribed state on part of a boundary side; outflow elsewhere on it."""

    state: np.ndarray  # conserved components (m,)
    lo: float
    hi: float


BoundaryCondition = str | InflowSegment


@dataclass(frozen=True)
class Mesh2D:
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    nx: int
    ny: int
    bc_left: BoundaryCondition = PERIODIC
    bc_right: BoundaryCondition = PERIODIC
    bc_bottom: BoundaryCondition = PERIODIC
    bc_top: BoundaryCondition = PERIODIC

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1 or self.x_hi <= self.x_lo or self.y_hi <= self.y_lo:
            raise ValueError("degenerate mesh")
        for a, b in ((self.bc_left, self.bc_right), (self.bc_bottom, self.bc_top)):
            if (a == PERIODIC) != (b == PERIODIC):
                raise ValueError("periodic boundaries must be paired")

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / self.nx

    @property
    def dy(self) -> float:
        return (self.y_hi - self.y_lo) / self.ny

    @property
    def x_centers(self) -> np.ndarray:
        return self.x_lo + (np.arange(self.nx) + 0.5) * self.dx

    @property
    def y_centers(self) -> np.ndarray:
        return self.y_lo + (np.arange(self.ny) + 0.5) * self.dy


def _mode_exps(k: int) -> list[tuple[int, int]]:
    return [(d - b, b) for d in range(k + 1) for b in range(d + 1)]


def _phi1d(k: int, offsets_1d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, ders = legendre_table(k, 2.0 * np.asarray(offsets_1d))
    scale = np.sqrt(2.0 * np.arange(k + 1) + 1.0)[:, None]
    return scale * vals, 2.0 * scale * ders


def mode_values(k: int, offsets: np.ndarray) -> np.ndarray:
    """Degree-k basis values at reference offsets (P, 2) -> (n_modes, P)."""
    offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
    px, _ = _phi1d(k, offsets[:, 0])
    py, _ = _phi1d(k, offsets[:, 1])
    return np.stack([px[a] * py[b] for a, b in _mode_exps(k)])


def apply_matrix(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """matrix (a, b) applied along axis 2 of x (nx, ny, b, m) -> (nx, ny, a, m).

    Evaluation (coefficients -> point values) and assembly (point terms ->
    modal rates) both go through here, as one gemm per component.  The result
    is a view of component-major, points-major memory (m, a, nx, ny): every
    component plane `out[:, :, i, c]` is one contiguous (nx, ny) block.  The
    model's elementwise physics on `u[..., c]` and the limiters' min and max
    over a cell's points then run over whole planes instead of stride-m
    reads.  An `x` already laid out so (a flux of such values) is read
    without a copy.  At k = 2 the gemm gives the same bits as the 2D gemm
    (scalar fields) and batched matmul (systems) it replaced, so no limiter
    decision moves; BLAS may round k = 3's 16-term volume sums differently.
    """
    nx, ny, b, m = x.shape
    planes = np.ascontiguousarray(x.transpose(3, 2, 0, 1)).reshape(m, b, nx * ny)
    return np.matmul(matrix, planes).reshape(m, -1, nx, ny).transpose(2, 3, 1, 0)


class Basis2D:
    """Orthonormal total-degree-k modal basis on [-1/2, 1/2]^2 (mean measure).

    Modes are products of scaled Legendre polynomials; mode 0 is the constant 1
    and the remaining modes average to zero over the cell.

    Every point value the residual reads comes from one stacked evaluation
    matrix: rows are the (k+1)^2 volume Gauss points, then the Q face-trace
    Gauss points of the x-, x+, y- and y+ faces (slices `at_vol`, `at_xm`,
    `at_xp`, `at_ym`, `at_yp`).  The residual's assembly matrices carry the
    quadrature weights.
    """

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("polynomial degree must be >= 0")
        self.k = k
        self.mode_exps = _mode_exps(k)
        self.n_modes = len(self.mode_exps)  # (k+1)(k+2)/2
        self.face_rule = gauss_rule(k + 1)
        # volume quadrature: (k+1)^2 tensor Gauss
        g = self.face_rule
        xi, eta = np.meshgrid(g.nodes, g.nodes, indexing="ij")
        self.vol_offsets = np.column_stack([xi.ravel(), eta.ravel()])
        self.vol_weights = np.outer(g.weights, g.weights).ravel()
        self.phi_vol, self.dphi_dxi_vol, self.dphi_deta_vol = self.eval_with_grads(self.vol_offsets)
        q = len(g)
        self.phi_xm = mode_values(k, np.column_stack([np.full(q, -0.5), g.nodes]))
        self.phi_xp = mode_values(k, np.column_stack([np.full(q, 0.5), g.nodes]))
        self.phi_ym = mode_values(k, np.column_stack([g.nodes, np.full(q, -0.5)]))
        self.phi_yp = mode_values(k, np.column_stack([g.nodes, np.full(q, 0.5)]))

        nv = len(self.vol_weights)
        self.at_vol = slice(0, nv)
        self.at_xm, self.at_xp, self.at_ym, self.at_yp = (
            slice(nv + f * q, nv + (f + 1) * q) for f in range(4)
        )
        self.eval_matrix = np.concatenate(
            [self.phi_vol, self.phi_xm, self.phi_xp, self.phi_ym, self.phi_yp], axis=1
        ).T  # (nv + 4q, n_modes)
        # assembly matrices (n_modes, points) with the quadrature weights
        # folded in; semidiscrete_residual applies one per flux term
        wv, wq = self.vol_weights, g.weights
        self.assemble_vol_x = self.dphi_dxi_vol * wv
        self.assemble_vol_y = self.dphi_deta_vol * wv
        self.assemble_xm, self.assemble_xp, self.assemble_ym, self.assemble_yp = (
            phi * wq for phi in (self.phi_xm, self.phi_xp, self.phi_ym, self.phi_yp)
        )

    def eval_with_grads(self, offsets: np.ndarray):
        offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
        px, dpx = _phi1d(self.k, offsets[:, 0])
        py, dpy = _phi1d(self.k, offsets[:, 1])
        phi = np.stack([px[a] * py[b] for a, b in self.mode_exps])
        dxi = np.stack([dpx[a] * py[b] for a, b in self.mode_exps])
        deta = np.stack([px[a] * dpy[b] for a, b in self.mode_exps])
        return phi, dxi, deta

    def stacked_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Values at the volume and face-trace points: (nx, ny, nv + 4q, m)."""
        return apply_matrix(self.eval_matrix, coeffs)


@dataclass
class DGField:
    """Per-cell modal coefficients, shape (nx, ny, n_modes, m).

    `values`, when set, are the field's point values, handed on by the code
    that last changed the coefficients so that the readers of this state do
    not evaluate it again.  The Euler BP limiter hands on the stacked rows of
    its node evaluation: in the cells it limits they are mean + theta*(v -
    mean), which matches an evaluation of the scaled coefficients up to
    round-off, and they and their pressure are the values it certified.
    `cli.run` attaches each step's start values, which its speeds and first
    stage share.
    Only code that will not change `coeffs` in place any more may set it, and
    code that changes the coefficients of a field carrying values must set
    it to None; `copy` and `like` drop it.
    """

    coeffs: np.ndarray
    basis: Basis2D
    mesh: Mesh2D
    model: ConservationLawModel
    values: Optional["PointValues"] = dataclass_field(default=None, repr=False, compare=False)

    @property
    def cell_averages(self) -> np.ndarray:
        return self.coeffs[:, :, 0, :]

    def copy(self) -> "DGField":
        return DGField(self.coeffs.copy(), self.basis, self.mesh, self.model)

    def like(self, coeffs: np.ndarray) -> "DGField":
        return DGField(coeffs, self.basis, self.mesh, self.model)


def project(
    u0: Callable[[np.ndarray, np.ndarray], np.ndarray],
    mesh: Mesh2D,
    basis: Basis2D,
    model: ConservationLawModel,
) -> DGField:
    """L2 projection of u0(x, y) -> (..., m) using a (k+2)^2 tensor Gauss rule."""
    g = gauss_rule(basis.k + 2)
    xi, eta = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    offsets = np.column_stack([xi.ravel(), eta.ravel()])
    weights = np.outer(g.weights, g.weights).ravel()
    phi = mode_values(basis.k, offsets)  # (n, G)
    x = mesh.x_centers[:, None, None] + offsets[None, None, :, 0] * mesh.dx
    y = mesh.y_centers[None, :, None] + offsets[None, None, :, 1] * mesh.dy
    vals = np.asarray(u0(x, y), dtype=float)
    if vals.shape != (mesh.nx, mesh.ny, len(weights), model.m):
        raise ValueError("initial-data callable returned the wrong shape")
    coeffs = np.einsum("ijgc,ng,g->ijnc", vals, phi, weights, optimize=True)
    return DGField(coeffs, basis, mesh, model)


def evaluate_at_offsets(field: DGField, offsets: np.ndarray) -> np.ndarray:
    """Field values at the same reference offsets in every cell: (nx, ny, P, m)."""
    return apply_matrix(mode_values(field.basis.k, offsets).T, field.coeffs)


def ghost_trace(bc: BoundaryCondition, interior: np.ndarray, wrap: np.ndarray,
                coords: np.ndarray) -> np.ndarray:
    """Exterior states along one boundary, for face traces and cell means
    alike: `wrap` (the opposite side's states) if periodic, else a copy of
    the `interior` states with the inflow state wherever `coords`, the
    positions along the boundary (shape of interior[..., 0]), lie in the
    inflow segment."""
    if bc == PERIODIC:
        return wrap
    ghost = interior.copy(order="K")  # keep the component-major layout
    if isinstance(bc, InflowSegment):
        inside = (coords >= bc.lo - 1e-12) & (coords <= bc.hi + 1e-12)
        ghost[inside] = bc.state
    elif bc != OUTFLOW:
        raise ValueError(f"unknown boundary condition {bc!r}")
    return ghost


def _face_coords(mesh: Mesh2D, along_y: bool, q_nodes: np.ndarray) -> np.ndarray:
    if along_y:
        return (mesh.y_centers[:, None] + q_nodes[None, :] * mesh.dy)
    return (mesh.x_centers[:, None] + q_nodes[None, :] * mesh.dx)


def _check_admissible(field: DGField, pts: np.ndarray, p: Optional[np.ndarray]) -> None:
    ok = field.model.check_admissible(pts, p)
    if not np.all(ok):
        bad = np.argwhere(~ok)[0]
        cell = (int(bad[0]), int(bad[1])) if len(bad) >= 2 else None
        raise AdmissibilityError(
            f"inadmissible state at quadrature/trace point in cell {cell}", cell=cell
        )


@dataclass(frozen=True)
class PointValues:
    """A field evaluated at every point the residual reads.

    `stacked` is Basis2D.stacked_values of the coefficients; `ghosts` are the
    exterior traces along the left, right, bottom and top boundaries.  All
    are component-major in memory, as `apply_matrix` returns them.
    `pressure` and `ghost_pressures` are the model's pressure of `stacked` and
    of each ghost (None for models without one, i.e. scalar laws); a periodic
    ghost's pressure is a slice of `pressure`, as its trace is of `stacked`."""

    stacked: np.ndarray
    ghosts: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    pressure: Optional[np.ndarray] = None
    ghost_pressures: tuple[Optional[np.ndarray], ...] = (None, None, None, None)


def _faces(a: np.ndarray, basis: Basis2D) -> tuple[np.ndarray, ...]:
    """The x-, x+, y- and y+ face traces of the stacked `a`."""
    return a[:, :, basis.at_xm], a[:, :, basis.at_xp], a[:, :, basis.at_ym], a[:, :, basis.at_yp]


def values_of_stacked(field: DGField, u: np.ndarray, p: Optional[np.ndarray] = None) -> PointValues:
    """PointValues from the stacked values `u` of `field` and their pressure `p`
    (computed here when the model has a pressure and `p` is not given)."""
    mesh, basis, model = field.mesh, field.basis, field.model
    pressure = getattr(model, "pressure", None)
    if p is None and pressure is not None:
        p = pressure(u)
    uxm, uxp, uym, uyp = _faces(u, basis)
    q_nodes = basis.face_rule.nodes
    y_face = _face_coords(mesh, True, q_nodes)
    x_face = _face_coords(mesh, False, q_nodes)
    ghosts = (
        ghost_trace(mesh.bc_left, uxm[0], uxp[-1], y_face),
        ghost_trace(mesh.bc_right, uxp[-1], uxm[0], y_face),
        ghost_trace(mesh.bc_bottom, uym[:, 0], uyp[:, -1], x_face),
        ghost_trace(mesh.bc_top, uyp[:, -1], uym[:, 0], x_face),
    )
    ghost_p = (None,) * 4
    if p is not None:
        pxm, pxp, pym, pyp = _faces(p, basis)
        bcs = (mesh.bc_left, mesh.bc_right, mesh.bc_bottom, mesh.bc_top)
        wraps = (pxp[-1], pxm[0], pyp[:, -1], pym[:, 0])
        ghost_p = tuple(w if bc == PERIODIC else pressure(g) for bc, g, w in zip(bcs, ghosts, wraps))
    return PointValues(u, ghosts, p, ghost_p)


def point_values(field: DGField) -> PointValues:
    """The field's point values: the ones it carries, or one fresh evaluation."""
    if field.values is not None:
        return field.values
    return values_of_stacked(field, field.basis.stacked_values(field.coeffs))


def global_max_speeds(field: DGField, values: Optional[PointValues] = None) -> tuple[float, float]:
    """Global per-axis max wave speed over volume and face quadrature points,
    including the exterior boundary trace states (e.g. inflow data).

    `values` are the field's point values when the caller already has them."""
    if values is None:
        values = point_values(field)
    mesh = field.mesh
    bcs = (mesh.bc_left, mesh.bc_right, mesh.bc_bottom, mesh.bc_top)
    # a periodic ghost is an interior trace, already in the stacked values
    sets = [(values.stacked, values.pressure)] + [
        (g, p) for g, p, bc in zip(values.ghosts, values.ghost_pressures, bcs) if bc != PERIODIC
    ]
    a1 = a2 = 0.0
    for pts, p in sets:
        s1, s2 = field.model.max_wave_speeds(pts, p)
        a1, a2 = max(a1, s1), max(a2, s2)
    return a1, a2


def _interface_flux(model, values: PointValues, basis: Basis2D, axis: int, alpha: float) -> np.ndarray:
    """Lax-Friedrichs flux at every face normal to `axis`, shape (nx+1, ny, Q, m)
    for x and (nx, ny+1, Q, m) for y, with the ghost traces outside the domain."""

    def sides(a, ghosts):
        left, right, bottom, top = ghosts
        xm, xp, ym, yp = _faces(a, basis)
        if axis == 0:
            return np.concatenate([left[None], xp], axis=0), np.concatenate([xm, right[None]], axis=0)
        return np.concatenate([bottom[:, None], yp], axis=1), np.concatenate([ym, top[:, None]], axis=1)

    minus, plus = sides(values.stacked, values.ghosts)
    p = values.pressure
    p_sides = (None, None) if p is None else sides(p, values.ghost_pressures)
    return lax_friedrichs_flux(model, minus, plus, axis, alpha, *p_sides)


def semidiscrete_residual(
    field: DGField,
    alphas: tuple[float, float] | float,
    values: Optional[PointValues] = None,
) -> np.ndarray:
    """Weak-form DG rate of change of the modal coefficients.

    `alphas` are the global Lax-Friedrichs viscosities per axis (a scalar is
    used for both); `values` are the field's point values when the caller
    already has them.  Raises AdmissibilityError if any quadrature or trace
    state is inadmissible, which signals a missing or failed limiter.
    """
    if np.isscalar(alphas):
        alphas = (float(alphas), float(alphas))
    mesh, basis, model = field.mesh, field.basis, field.model
    if values is None:
        values = point_values(field)
    u, p = values.stacked, values.pressure
    _check_admissible(field, u, p)
    uvol = u[:, :, basis.at_vol]
    pvol = None if p is None else p[:, :, basis.at_vol]

    # the terms are combined in this order and scaled after assembly, so the
    # rate is bit-identical to the per-term quadrature sums; one term's flux
    # array at a time is alive
    rate = (
        apply_matrix(basis.assemble_vol_x, model.flux(uvol, 0, pvol)) / mesh.dx
        + apply_matrix(basis.assemble_vol_y, model.flux(uvol, 1, pvol)) / mesh.dy
    )
    f = _interface_flux(model, values, basis, 0, alphas[0])
    rate -= (apply_matrix(basis.assemble_xp, f[1:]) - apply_matrix(basis.assemble_xm, f[:-1])) / mesh.dx
    f = _interface_flux(model, values, basis, 1, alphas[1])
    rate -= (
        apply_matrix(basis.assemble_yp, f[:, 1:]) - apply_matrix(basis.assemble_ym, f[:, :-1])
    ) / mesh.dy
    return rate


@dataclass(frozen=True)
class SspScheme:
    """Shu-Osher form: each stage is sum of alpha*u_m + dt*beta*F(u_m) terms."""

    name: str
    stages: tuple[tuple[tuple[float, float, int], ...], ...]

    @property
    def ssp_coefficient(self) -> float:
        return min(
            alpha / beta for stage in self.stages for alpha, beta, _ in stage if beta > 0
        )


SSPRK3 = SspScheme(
    "SSPRK3",
    (
        ((1.0, 1.0, 0),),
        ((0.75, 0.0, 0), (0.25, 0.25, 1)),
        ((1.0 / 3.0, 0.0, 0), (2.0 / 3.0, 2.0 / 3.0, 2)),
    ),
)

# five-stage fourth-order SSP scheme; effective SSP coefficient ~1.508
SSPRK4 = SspScheme(
    "SSPRK4",
    (
        ((1.0, 0.391752226571890, 0),),
        ((0.444370493651235, 0.0, 0), (0.555629506348765, 0.368410593050371, 1)),
        ((0.620101851488403, 0.0, 0), (0.379898148511597, 0.251891774271694, 2)),
        ((0.178079954393132, 0.0, 0), (0.821920045606868, 0.544974750228521, 3)),
        (
            (0.517231671970585, 0.0, 2),
            (0.096059710526147, 0.063692468666290, 3),
            (0.386708617503269, 0.226007483236906, 4),
        ),
    ),
)

SCHEMES = {"ssprk3": SSPRK3, "ssprk4": SSPRK4}


def ssp_step(
    field: DGField,
    scheme: SspScheme,
    dt: float,
    limiter_chain: Optional[Callable[[DGField], DGField]] = None,
    speeds: Optional[tuple[float, float]] = None,
) -> DGField:
    """One SSP-RK step with the limiter chain applied after every stage.

    Each stage state is evaluated once; its wave speeds (the Lax-Friedrichs
    viscosities) come from those values.  A state's point values are the
    ones it carries when it has them (`field`'s from the caller or from the
    last limiting, a stage's from the Euler BP limiter), and each state's
    values are dropped as soon as its rate is computed, so no stacked array
    is held across another stage's residual.  The returned field keeps the
    values its limiting handed on.  The `speeds` of `field` itself may be
    passed in when the caller already has them."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    states = [field]
    rates: dict[int, np.ndarray] = {}

    def rate(idx: int) -> np.ndarray:
        state = states[idx]
        v = point_values(state)
        state.values = None
        a = speeds if idx == 0 and speeds is not None else global_max_speeds(state, v)
        return semidiscrete_residual(state, a, v)

    for stage in scheme.stages:
        new = np.zeros_like(field.coeffs)
        for alpha, beta, idx in stage:
            new += alpha * states[idx].coeffs
            if beta != 0.0:
                if idx not in rates:
                    rates[idx] = rate(idx)
                new += dt * beta * rates[idx]
        stage_field = field.like(new)
        if limiter_chain is not None:
            stage_field = limiter_chain(stage_field)
        states.append(stage_field)
    return states[-1]


def step_controller(
    decomp: ConvexDecomposition,
    scheme: SspScheme,
    speeds: tuple[float, ...],
    spacings: tuple[float, ...],
    c0: float = 1.0,
) -> float:
    """Time step C_SSP * (BP bound of `decomp`) for cells of the given
    `spacings` at the per-axis wave `speeds`, `c0` the fraction of the bound
    taken.  `inf` when every speed is zero: a stationary field."""
    return scheme.ssp_coefficient * bp_max_dt(decomp, speeds, spacings, c0).max_dt


def error_norms(
    field: DGField,
    exact: Callable[[np.ndarray, np.ndarray, float], np.ndarray],
    t: float,
) -> tuple[float, float, float]:
    """Domain-averaged L1/L2 and pointwise Linf error vs exact(x, y, t),
    measured with a (k+3)^2 tensor Gauss rule per cell."""
    if exact is None:
        raise ValueError("model has no exact solution")
    mesh, basis = field.mesh, field.basis
    g = gauss_rule(basis.k + 3)
    xi, eta = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    offsets = np.column_stack([xi.ravel(), eta.ravel()])
    weights = np.outer(g.weights, g.weights).ravel()
    vals = evaluate_at_offsets(field, offsets)
    x = mesh.x_centers[:, None, None] + offsets[None, None, :, 0] * mesh.dx
    y = mesh.y_centers[None, :, None] + offsets[None, None, :, 1] * mesh.dy
    err = vals - np.asarray(exact(x, y, t), dtype=float)
    abs_err = np.abs(err).sum(axis=-1)
    n_cells = mesh.nx * mesh.ny
    l1 = float(np.einsum("ijg,g->", abs_err, weights) / n_cells)
    l2 = float(math.sqrt(np.einsum("ijg,g->", (err**2).sum(axis=-1), weights) / n_cells))
    linf = float(np.max(abs_err))
    return l1, l2, linf
