"""Modal DG discretization on a uniform 2D Cartesian mesh.

The basis is orthonormal under the cell-mean inner product, so the mode-0
coefficient of every cell *is* its cell average and the mode-0 row of the
semi-discrete residual coincides (to round-off) with the flux-difference
evolution equation of the cell averages.  That identity is what lets the
convex-decomposition CFL analysis apply to this solver verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .decomposition import ConvexDecomposition, bp_max_dt
from .physics import AdvectionModel, ConservationLawModel, lax_friedrichs_flux
from .quadrature import gauss_rule, legendre_table, tensor_gauss_rule

PERIODIC = "periodic"
OUTFLOW = "outflow"


@dataclass(frozen=True)
class InflowSegment:
    """Prescribed state on part of a boundary side; outflow elsewhere on it."""

    state: np.ndarray  # conserved components (m,)
    lo: float
    hi: float

    def covers(self, coords: np.ndarray) -> np.ndarray:
        """Whether each boundary position in `coords` lies in [lo, hi], up to 1e-12."""
        return (coords >= self.lo - 1e-12) & (coords <= self.hi + 1e-12)


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
    reads.  An `x` already laid out so is read without a copy: every
    coefficient array is (see `DGField`), and so are the fluxes of such
    values; any other layout is copied into it first.  At k = 2 the gemm
    gives the same bits as the 2D gemm (scalar fields) and batched matmul
    (systems) it replaced, so no limiter decision moves; BLAS may round
    k = 3's 16-term volume sums differently.
    """
    nx, ny, b, m = x.shape
    planes = np.ascontiguousarray(x.transpose(3, 2, 0, 1)).reshape(m, b, nx * ny)
    return np.matmul(matrix, planes).reshape(m, -1, nx, ny).transpose(2, 3, 1, 0)


class Basis2D:
    """Orthonormal total-degree-k modal basis on [-1/2, 1/2]^2 (mean measure).

    Modes are products of scaled Legendre polynomials; mode 0 is the constant 1
    and the remaining modes average to zero over the cell.

    Every point value the residual reads comes from one stacked evaluation
    matrix, `mode_values` at the stacked `offsets`: the (k+1)^2 volume Gauss
    points, then the Q face-trace Gauss points of the x-, x+, y- and y+
    faces (slices `at_vol`, `at_xm`, `at_xp`, `at_ym`, `at_yp`).  The BP
    limiters' node sets take their rows from it too.  The residual's
    assembly matrices carry the quadrature weights.
    """

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("polynomial degree must be >= 0")
        self.k = k
        self._stencil: Optional[LinearStencil] = None  # see linear_stencil
        self.mode_exps = _mode_exps(k)
        self.n_modes = len(self.mode_exps)  # (k+1)(k+2)/2
        self.face_rule = g = gauss_rule(k + 1)
        self.vol_offsets, self.vol_weights = tensor_gauss_rule(k + 1)
        q, nv = len(g), len(self.vol_weights)
        lo, hi = np.full(q, -0.5), np.full(q, 0.5)
        self.offsets = np.concatenate([
            self.vol_offsets,
            np.column_stack([lo, g.nodes]), np.column_stack([hi, g.nodes]),
            np.column_stack([g.nodes, lo]), np.column_stack([g.nodes, hi]),
        ])  # (nv + 4q, 2)
        self.at_vol = slice(0, nv)
        self.at_xm, self.at_xp, self.at_ym, self.at_yp = (
            slice(nv + f * q, nv + (f + 1) * q) for f in range(4)
        )
        self.eval_matrix = mode_values(k, self.offsets).T  # (nv + 4q, n_modes)
        self.phi_vol, self.phi_xm, self.phi_xp, self.phi_ym, self.phi_yp = (
            self.eval_matrix[at].T for at in (self.at_vol, self.at_xm, self.at_xp, self.at_ym, self.at_yp)
        )
        (px, dpx), (py, dpy) = (_phi1d(k, self.vol_offsets[:, axis]) for axis in (0, 1))
        self.dphi_dxi_vol = np.stack([dpx[a] * py[b] for a, b in self.mode_exps])
        self.dphi_deta_vol = np.stack([px[a] * dpy[b] for a, b in self.mode_exps])
        # assembly matrices (n_modes, points) with the quadrature weights
        # folded in; semidiscrete_residual applies one per flux term
        wv, wq = self.vol_weights, g.weights
        self.assemble_vol_x = self.dphi_dxi_vol * wv
        self.assemble_vol_y = self.dphi_deta_vol * wv
        self.assemble_xm, self.assemble_xp, self.assemble_ym, self.assemble_yp = (
            phi * wq for phi in (self.phi_xm, self.phi_xp, self.phi_ym, self.phi_yp)
        )

    def stacked_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Values at the volume and face-trace points: (nx, ny, nv + 4q, m)."""
        return apply_matrix(self.eval_matrix, coeffs)

    def linear_stencil(self, c: tuple[float, float], alphas: tuple[float, float],
                       spacings: tuple[float, float]) -> "LinearStencil":
        """The `LinearStencil` of these values, built from this basis's
        matrices.  The basis keeps the last one it built, keyed by the values
        themselves, so a run (one basis, a constant alpha = |c|) builds it
        once."""
        key = (tuple(map(float, c)), tuple(map(float, alphas)), tuple(map(float, spacings)))
        if self._stencil is None or self._stencil.key != key:
            self._stencil = LinearStencil.build(self, *key)
        return self._stencil


@dataclass(frozen=True)
class LinearStencil:
    """The weak-form DG residual of a linear flux f_d(u) = c_d u with global
    Lax-Friedrichs viscosities alpha_d, as n_modes x n_modes blocks on the
    modal coefficients (Cockburn & Shu, J. Sci. Comput. 16 (2001) 173-261):

        rate_ij = C u_ij + sum_d (P_d u_{ij+e_d} + M_d u_{ij-e_d}).

    With a_d = (c_d + alpha_d)/2 and b_d = (c_d - alpha_d)/2 the LF flux at a
    face is a_d u^- + b_d u^+, so, E being the basis values at the volume
    (vol) and face-trace (+, -) points and A the assembly matrices (Basis2D's,
    weights folded in):

        C   = sum_d (c_d A_vol,d E_vol - a_d A_+ E_+ + b_d A_- E_-) / h_d
        P_d = -b_d A_+ E_- / h_d        M_d = a_d A_- E_+ / h_d

    `neighbours` stacks P_x, M_x, P_y, M_y into one (4 n_modes, n_modes)
    matrix.  On a non-periodic side the boundary row's exterior trace is a
    ghost trace, which `ghost_lo[d]` = a_d A_- / h_d and `ghost_hi[d]` =
    -b_d A_+ / h_d assemble."""

    key: tuple
    centre: np.ndarray
    neighbours: np.ndarray
    ghost_lo: tuple[np.ndarray, np.ndarray]
    ghost_hi: tuple[np.ndarray, np.ndarray]

    @staticmethod
    def build(basis: Basis2D, c, alphas, spacings) -> "LinearStencil":
        e = basis.eval_matrix
        centre = np.zeros((basis.n_modes, basis.n_modes))
        neighbours, ghost_lo, ghost_hi = [], [], []
        for axis, (cd, alpha, h) in enumerate(zip(c, alphas, spacings)):
            a, b = 0.5 * (cd + alpha), 0.5 * (cd - alpha)
            vol, (lo, hi), (at_lo, at_hi) = _axis_matrices(basis, axis)
            centre += (cd * vol @ e[basis.at_vol] - a * hi @ e[at_hi] + b * lo @ e[at_lo]) / h
            neighbours += [-b * hi @ e[at_lo] / h, a * lo @ e[at_hi] / h]
            ghost_lo.append(a * lo / h)
            ghost_hi.append(-b * hi / h)
        return LinearStencil((c, alphas, spacings), centre, np.concatenate(neighbours),
                             tuple(ghost_lo), tuple(ghost_hi))


def _axis_matrices(basis: Basis2D, axis: int):
    """Volume assembly, (low, high) face assembly and (low, high) face-trace
    slices of `basis` along `axis`."""
    if axis == 0:
        return basis.assemble_vol_x, (basis.assemble_xm, basis.assemble_xp), (basis.at_xm, basis.at_xp)
    return basis.assemble_vol_y, (basis.assemble_ym, basis.assemble_yp), (basis.at_ym, basis.at_yp)


@dataclass
class DGField:
    """Per-cell modal coefficients, shape (nx, ny, n_modes, m).

    `coeffs` is held component-major in memory: a view of an (m, n_modes,
    nx, ny) C-array, the layout `apply_matrix` reads without a copy and
    returns its rates in.  `project` creates it so, `copy` and `zeros_like`
    (the SSP-RK stages) keep it, and the rates and the limiters' in-place
    scalings preserve it; a field built from other memory is still correct,
    it only costs a copy per evaluation.
    """

    coeffs: np.ndarray
    basis: Basis2D
    mesh: Mesh2D
    model: ConservationLawModel

    @property
    def cell_averages(self) -> np.ndarray:
        return self.coeffs[:, :, 0, :]

    def copy(self) -> "DGField":
        return DGField(self.coeffs.copy(order="K"), self.basis, self.mesh, self.model)

    def like(self, coeffs: np.ndarray) -> "DGField":
        return DGField(coeffs, self.basis, self.mesh, self.model)


def project(
    u0: Callable[[np.ndarray, np.ndarray], np.ndarray],
    mesh: Mesh2D,
    basis: Basis2D,
    model: ConservationLawModel,
) -> DGField:
    """L2 projection of u0(x, y) -> (..., m) using a (k+2)^2 tensor Gauss rule."""
    offsets, weights = tensor_gauss_rule(basis.k + 2)
    phi = mode_values(basis.k, offsets)  # (n, G)
    x = mesh.x_centers[:, None, None] + offsets[None, None, :, 0] * mesh.dx
    y = mesh.y_centers[None, :, None] + offsets[None, None, :, 1] * mesh.dy
    vals = np.asarray(u0(x, y), dtype=float)
    if vals.shape != (mesh.nx, mesh.ny, len(weights), model.m):
        raise ValueError("initial-data callable returned the wrong shape")
    coeffs = np.empty((model.m, basis.n_modes, mesh.nx, mesh.ny)).transpose(2, 3, 1, 0)
    np.einsum("ijgc,ng,g->ijnc", vals, phi, weights, optimize=True, out=coeffs)
    return DGField(coeffs, basis, mesh, model)


def evaluate_at_offsets(field: DGField, offsets: np.ndarray) -> np.ndarray:
    """Field values at the same reference offsets in every cell: (nx, ny, P, m)."""
    return apply_matrix(mode_values(field.basis.k, offsets).T, field.coeffs)


def ghost_trace(bc: BoundaryCondition, interior: np.ndarray, wrap: np.ndarray,
                coords: np.ndarray, of_state: Optional[Callable] = None) -> np.ndarray:
    """Exterior states along one boundary, for face traces (`_interface_flux`)
    and cell means (TVB) alike: `wrap` (the opposite side's states) if
    periodic, else a copy of the `interior` states with the inflow state
    wherever the inflow segment covers `coords`, the positions along the
    boundary (shape of interior[..., 0]).  With `of_state` the arrays hold a
    pointwise function of the states (e.g. the pressure) and the inflow
    points get `of_state(state)`."""
    if bc == PERIODIC:
        return wrap
    ghost = interior.copy(order="K")  # keep the component-major layout
    if isinstance(bc, InflowSegment):
        ghost[bc.covers(coords)] = bc.state if of_state is None else of_state(bc.state)
    elif bc != OUTFLOW:
        raise ValueError(f"unknown boundary condition {bc!r}")
    return ghost


def face_coords(mesh: Mesh2D, along_y: bool, q_nodes: np.ndarray) -> np.ndarray:
    """Positions of the face points `q_nodes` along a boundary, (cells, Q):
    along y for the left and right sides, along x for the bottom and top."""
    if along_y:
        return (mesh.y_centers[:, None] + q_nodes[None, :] * mesh.dy)
    return (mesh.x_centers[:, None] + q_nodes[None, :] * mesh.dx)


def _sides(field: DGField, axis: int):
    """The low and high boundary conditions normal to `axis`, and the face
    positions along them where `ghost_trace` reads any: only an inflow side
    does, so None when neither side is one."""
    mesh = field.mesh
    bcs = (mesh.bc_left, mesh.bc_right) if axis == 0 else (mesh.bc_bottom, mesh.bc_top)
    inflow = any(isinstance(bc, InflowSegment) for bc in bcs)
    return (*bcs, face_coords(mesh, axis == 0, field.basis.face_rule.nodes) if inflow else None)


def linear_flux(model: ConservationLawModel) -> bool:
    """Whether `model`'s flux is linear in u, f_d = c_d u: advection, the one
    such model.  Its residual is `LinearStencil` on the coefficients, and its
    speeds |c_d| need no point value, so its states are never evaluated at
    the stacked points."""
    return isinstance(model, AdvectionModel)


@dataclass(frozen=True)
class PointValues:
    """A field evaluated at every point the residual reads.

    `stacked` is Basis2D.stacked_values of the coefficients, component-major
    in memory as `apply_matrix` returns it; `pressure` is the model's
    pressure of `stacked` (None for models without one, i.e. scalar laws,
    or when the caller has not computed it: each reader then computes its
    own).  The exterior traces along the boundaries are not held:
    `_interface_flux` forms them from these where it reads them."""

    stacked: np.ndarray
    pressure: Optional[np.ndarray] = None


def point_values(field: DGField) -> PointValues:
    """The field's point values, evaluated afresh.  Code that already has
    them (those the Euler BP limiter returns with a field it limited) passes
    them on instead, to `global_max_speeds`, `semidiscrete_residual` and
    `ssp_step`."""
    u = field.basis.stacked_values(field.coeffs)
    pressure = getattr(field.model, "pressure", None)
    return PointValues(u, None if pressure is None else pressure(u))


def global_max_speeds(field: DGField, values: Optional[PointValues] = None) -> tuple[float, float]:
    """Global per-axis max wave speed over volume and face quadrature points,
    including the exterior boundary trace states: a ghost trace holds
    interior face traces, already in the stacked values, and an inflow
    segment's state at the face points it covers (`cli` checks it covers one).

    This pass is a state's one admissibility check: the model raises
    AdmissibilityError, naming the first cell, for an inadmissible or
    non-finite point value (a missing or failed limiter).  `values` are the
    field's point values when the caller already has them.  A linear flux
    (`linear_flux`) reads the coefficients instead: its speeds are |c_d|
    whatever the state, and a state is admissible for it when finite, which
    its coefficients are exactly when its point values are."""
    if linear_flux(field.model):
        own = (field.coeffs, None)
    else:
        values = point_values(field) if values is None else values
        own = (values.stacked, values.pressure)
    mesh = field.mesh
    bcs = (mesh.bc_left, mesh.bc_right, mesh.bc_bottom, mesh.bc_top)
    sets = [own] + [(bc.state, None) for bc in bcs if isinstance(bc, InflowSegment)]
    a1 = a2 = 0.0
    for pts, p in sets:
        s1, s2 = field.model.max_wave_speeds(pts, p)
        a1, a2 = max(a1, s1), max(a2, s2)
    return a1, a2


def _interface_flux(field: DGField, values: PointValues, axis: int, alpha: float) -> np.ndarray:
    """Lax-Friedrichs flux at every face normal to `axis`, shape (nx+1, ny, Q, m)
    for x and (nx, ny+1, Q, m) for y, from the face traces of `values`.

    The two boundaries' ghost traces are formed here by `ghost_trace`, and
    so are their pressures when `values` carry one: a periodic ghost is a
    view of the opposite face slice, an outflow ghost a copy of the interior
    face slice, and an inflow ghost that copy with the inflow state (its
    pressure `pressure(state)`) at the covered points."""
    basis, model = field.basis, field.model
    bc_lo, bc_hi, coords = _sides(field, axis)
    _, _, (at_lo, at_hi) = _axis_matrices(basis, axis)
    cells = (slice(None),) * axis  # index prefix up to the cell index along `axis`

    def sides(a, of_state=None):
        # the faces seen from their minus and plus cells; on each boundary
        # the interior trace and the opposite side's (its wrap)
        lo, hi = a[:, :, at_lo], a[:, :, at_hi]
        first, last = lo[cells + (0,)], hi[cells + (-1,)]
        g_lo = ghost_trace(bc_lo, first, last, coords, of_state)[cells + (None,)]
        g_hi = ghost_trace(bc_hi, last, first, coords, of_state)[cells + (None,)]
        return np.concatenate([g_lo, hi], axis=axis), np.concatenate([lo, g_hi], axis=axis)

    minus, plus = sides(values.stacked)
    p = values.pressure
    p_sides = (None, None) if p is None else sides(p, model.pressure)
    return lax_friedrichs_flux(model, minus, plus, axis, alpha, *p_sides)


def semidiscrete_residual(
    field: DGField,
    alphas: tuple[float, float] | float,
    values: Optional[PointValues] = None,
) -> np.ndarray:
    """Weak-form DG rate of change of the modal coefficients.

    `alphas` are the global Lax-Friedrichs viscosities per axis (a scalar is
    used for both); `values` are the field's point values when the caller
    already has them.  The states are not checked here: the speed pass that
    gives the viscosities (`global_max_speeds`) checks them.

    A linear flux (`linear_flux`) takes its `LinearStencil` on the
    coefficients and reads no point value; every other flux is evaluated at
    the stacked points, and its volume and LF face fluxes are assembled.
    """
    if np.isscalar(alphas):
        alphas = (float(alphas), float(alphas))
    if linear_flux(field.model):
        return _linear_residual(field, alphas)
    mesh, basis, model = field.mesh, field.basis, field.model
    if values is None:
        values = point_values(field)
    u, p = values.stacked, values.pressure
    uvol = u[:, :, basis.at_vol]
    pvol = None if p is None else p[:, :, basis.at_vol]

    def volume(axis: int, h: float) -> np.ndarray:
        t = apply_matrix((basis.assemble_vol_x, basis.assemble_vol_y)[axis], model.flux(uvol, axis, pvol))
        t /= h
        return t

    def faces(axis: int, h: float) -> np.ndarray:
        f = _interface_flux(field, values, axis, alphas[axis])
        lo, hi = (f[:-1], f[1:]) if axis == 0 else (f[:, :-1], f[:, 1:])
        t = apply_matrix((basis.assemble_xp, basis.assemble_yp)[axis], hi)
        t -= apply_matrix((basis.assemble_xm, basis.assemble_ym)[axis], lo)
        t /= h
        return t

    # vol_x/dx + vol_y/dy - (xp - xm)/dx - (yp - ym)/dy, combined in this
    # order and scaled after assembly, so the rate is bit-identical to the
    # per-term quadrature sums; accumulated in place, so besides the rate
    # one term and its flux array at a time are alive
    rate = volume(0, mesh.dx)
    rate += volume(1, mesh.dy)
    rate -= faces(0, mesh.dx)
    rate -= faces(1, mesh.dy)
    return rate


def _linear_residual(field: DGField, alphas: tuple[float, float]) -> np.ndarray:
    """`semidiscrete_residual` of a linear flux: its `LinearStencil` applied
    to the coefficients.  One gemm gives C u, one more the four neighbour
    blocks' products P_d u and M_d u in every cell; a cell adds the P_d
    product of its +e_d neighbour and the M_d product of its -e_d neighbour.
    On a periodic side the boundary row takes the wrapped cell's; on any
    other side its exterior trace is `ghost_trace` of the row's own trace
    (on an outflow side, the trace itself), assembled by the stencil's ghost
    matrices."""
    mesh, basis = field.mesh, field.basis
    stencil = basis.linear_stencil(field.model.c, alphas, (mesh.dx, mesh.dy))
    nx, ny, n, m = field.coeffs.shape
    u = np.ascontiguousarray(field.coeffs.transpose(3, 2, 0, 1))  # (m, n, nx, ny), no copy when component-major
    flat = u.reshape(m, n, nx * ny)
    rate = np.matmul(stencil.centre, flat)
    products = np.matmul(stencil.neighbours, flat).reshape(m, 4, n, nx * ny)
    grid = (m, n, nx, ny)
    for axis, shift in ((0, ny), (1, 1)):
        plus, minus = products[:, 2 * axis], products[:, 2 * axis + 1]

        def row(a, s):  # the cell rows `s` along `axis` of a flat (m, n, cells) array
            a = a.reshape(grid)
            return a[..., s] if axis == 1 else a[..., s, :]

        # the neighbour of a cell is `shift` cells on in the flat order; the
        # products no cell reads across its own axis's boundary are zeroed
        # first (along y they would wrap onto the next row of cells), and
        # kept for a periodic side
        wrap_plus, wrap_minus = row(plus, 0).copy(), row(minus, -1).copy()
        row(plus, 0)[...] = 0.0
        row(minus, -1)[...] = 0.0
        rate[..., :-shift] += plus[..., shift:]
        rate[..., shift:] += minus[..., :-shift]
        bc_lo, bc_hi, coords = _sides(field, axis)
        if bc_lo == PERIODIC:
            row(rate, -1)[...] += wrap_plus
            row(rate, 0)[...] += wrap_minus
            continue
        _, _, (at_lo, at_hi) = _axis_matrices(basis, axis)
        for bc, end, at, assemble in ((bc_lo, 0, at_lo, stencil.ghost_lo[axis]),
                                      (bc_hi, -1, at_hi, stencil.ghost_hi[axis])):
            own = np.matmul(basis.eval_matrix[at], row(flat, end)).transpose(2, 1, 0)  # (cells, Q, m)
            # a non-periodic side never reads `wrap`
            ghost = ghost_trace(bc, own, None, coords)
            row(rate, end)[...] += np.matmul(assemble, ghost.transpose(2, 1, 0))
    return rate.reshape(grid).transpose(2, 3, 1, 0)


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
    limiter_chain: Optional[Callable[[DGField], tuple]] = None,
    speeds: Optional[tuple[float, float]] = None,
    values: Optional[PointValues] = None,
) -> tuple[DGField, Optional[PointValues], list]:
    """One SSP-RK step with the limiter chain applied after every stage.

    Each stage state is evaluated once; its wave speeds (the Lax-Friedrichs
    viscosities) come from those values.  A linear flux's states
    (`linear_flux`) are not evaluated at all.  A state's point values are
    the ones handed in with it, if any (`values`, those of `field`; a
    stage's, those `limiter_chain` returns with it), else one evaluation,
    and the step lets go of them once the state's rate is computed.  A
    stage's rates are computed before its sum is allocated, and a state and
    its rate are dropped after the last stage that reads them.  `speeds`,
    those of `field`, may be passed in when the caller already has them.

    Returns the new field, the point values its limiting returned (None if
    none), and each stage's `LimiterDiagnostics` (none without a chain)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    states: list[Optional[DGField]] = [field]
    stage_values: list[Optional[PointValues]] = [values]
    del values  # the list's is the step's one reference, dropped by `rate`
    rates: dict[int, np.ndarray] = {}
    diagnostics = []
    # the last stage that reads each state, and each state's rate
    last_read = {idx: s for s, stage in enumerate(scheme.stages) for _, _, idx in stage}
    last_rated = {idx: s for s, stage in enumerate(scheme.stages) for _, beta, idx in stage if beta != 0.0}

    def rate(idx: int) -> np.ndarray:
        state, v = states[idx], stage_values[idx]
        stage_values[idx] = None
        if v is None and not linear_flux(state.model):
            v = point_values(state)
        a = speeds if idx == 0 and speeds is not None else global_max_speeds(state, v)
        return semidiscrete_residual(state, a, v)

    for s, stage in enumerate(scheme.stages):
        for _, beta, idx in stage:
            if beta != 0.0 and idx not in rates:
                rates[idx] = rate(idx)
        new = np.zeros_like(field.coeffs)
        for alpha, beta, idx in stage:
            new += alpha * states[idx].coeffs
            if beta != 0.0:
                new += dt * beta * rates[idx]
        for idx in range(len(states)):
            if last_read.get(idx) == s:
                states[idx] = stage_values[idx] = None
            if last_rated.get(idx) == s:
                rates.pop(idx)
        stage_field, limited = field.like(new), None
        if limiter_chain is not None:
            stage_field, diag, limited = limiter_chain(stage_field)
            diagnostics.append(diag)
        states.append(stage_field)
        stage_values.append(limited)
    return states[-1], stage_values[-1], diagnostics


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
    mesh = field.mesh
    offsets, weights = tensor_gauss_rule(field.basis.k + 3)
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
