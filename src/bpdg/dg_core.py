"""Modal DG discretization on a uniform 2D Cartesian mesh.

The basis is orthonormal under the cell-mean inner product, so the mode-0
coefficient of every cell *is* its cell average and the mode-0 row of the
semi-discrete residual coincides (to round-off) with the flux-difference
evolution equation of the cell averages.  That identity is what lets the
convex-decomposition CFL analysis apply to this solver verbatim.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .decomposition import ConvexDecomposition, bp_max_dt
from .physics import AdvectionModel, ConservationLawModel, lax_friedrichs_flux
from .quadrature import gauss_rule, legendre_table, tensor_gauss_rule

PERIODIC = "periodic"
OUTFLOW = "outflow"
# scaled stencils a basis keeps: the stages of two steps of SSPRK4 (a run's
# steps share one dt but its last, clipped one)
_TERMS_KEPT = 10


class InflowSegment:
    """Prescribed state on part of a boundary side; outflow elsewhere on it."""

    def __init__(self, state: np.ndarray, lo: float, hi: float):
        self.state = state  # conserved components (m,)
        self.lo = lo
        self.hi = hi

    def covers(self, coords: np.ndarray) -> np.ndarray:
        """Whether each boundary position in `coords` lies in [lo, hi], up to 1e-12."""
        return (coords >= self.lo - 1e-12) & (coords <= self.hi + 1e-12)


BoundaryCondition = str | InflowSegment


class Mesh2D:
    def __init__(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float, nx: int, ny: int,
                 bc_left: BoundaryCondition = PERIODIC, bc_right: BoundaryCondition = PERIODIC,
                 bc_bottom: BoundaryCondition = PERIODIC, bc_top: BoundaryCondition = PERIODIC):
        if nx < 1 or ny < 1 or x_hi <= x_lo or y_hi <= y_lo:
            raise ValueError("degenerate mesh")
        self.x_lo, self.x_hi, self.y_lo, self.y_hi, self.nx, self.ny = x_lo, x_hi, y_lo, y_hi, nx, ny
        self.bc_left, self.bc_right, self.bc_bottom, self.bc_top = bc_left, bc_right, bc_bottom, bc_top
        for a, b in self.sides:
            if (a == PERIODIC) != (b == PERIODIC):
                raise ValueError("periodic boundaries must be paired")

    @property
    def sides(self) -> tuple[tuple[BoundaryCondition, BoundaryCondition], ...]:
        """The (low, high) boundary conditions normal to each axis: ((left,
        right), (bottom, top))."""
        return (self.bc_left, self.bc_right), (self.bc_bottom, self.bc_top)

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
    vals, _ = legendre_table(k, 2.0 * offsets.T)  # both coordinates at once: (k+1, 2, P)
    phi = np.sqrt(2.0 * np.arange(k + 1) + 1.0)[:, None, None] * vals
    x, y = np.array(_mode_exps(k)).T  # each mode's x and y degree
    return phi[x, 0] * phi[y, 1]


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
    faces (slice `at_vol`, and per axis the (low, high) pair of slices
    `at_faces[axis]`).  The BP limiters' node sets take their rows from it
    too.  The residual's assembly matrices carry the quadrature weights:
    per axis `assemble_vol[axis]` and the (low, high) pair
    `assemble_faces[axis]`.  `parity[axis]`, (n_modes, 1), is each mode's
    sign when that axis's offset is negated: (-1)^a on x and (-1)^b on y
    for mode (a, b), so coefficients times it mirror the cell in that axis.
    """

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("polynomial degree must be >= 0")
        self.k = k
        self._stencil: Optional[LinearStencil] = None  # see linear_stencil
        self._terms: dict = {}  # the scaled stencils of `_stencil`, by (a, b)
        self._plan: Optional[BoundaryPlan] = None  # see boundary_plan
        self.mode_exps = _mode_exps(k)
        self.n_modes = len(self.mode_exps)  # (k+1)(k+2)/2
        self.parity = tuple(np.array([[(-1.0) ** exps[axis]] for exps in self.mode_exps]) for axis in (0, 1))
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
        self.at_faces = tuple(tuple(slice(nv + f * q, nv + (f + 1) * q) for f in (2 * axis, 2 * axis + 1))
                              for axis in (0, 1))
        self.eval_matrix = mode_values(k, self.offsets).T  # (nv + 4q, n_modes)
        # assembly matrices (n_modes, points) with the quadrature weights
        # folded in; semidiscrete_residual applies one per flux term
        (px, dpx), (py, dpy) = (_phi1d(k, self.vol_offsets[:, axis]) for axis in (0, 1))
        self.assemble_vol = tuple(np.stack([x[a] * y[b] for a, b in self.mode_exps]) * self.vol_weights
                                  for x, y in ((dpx, py), (px, dpy)))
        self.assemble_faces = tuple(tuple(self.eval_matrix[at].T * g.weights for at in pair)
                                    for pair in self.at_faces)

    def stacked_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Values at the volume and face-trace points: (nx, ny, nv + 4q, m)."""
        return apply_matrix(self.eval_matrix, coeffs)

    def linear_stencil(self, c: tuple[float, float], alphas: tuple[float, float],
                       spacings: tuple[float, float],
                       term: Optional[tuple[float, float]] = None) -> "LinearStencil":
        """The `LinearStencil` of these values, built from this basis's
        matrices, or with `term` = (a, b) its `scaled` stencil of a u + b rate.
        The basis keeps the last one it built, keyed by the values
        themselves, so a run (one basis, a constant alpha = |c|) builds it
        once, and with it its last few scaled ones: one per stage of a step
        at a constant dt.  The values as given are compared with the key
        first; only a miss normalises them to a new key."""
        if self._stencil is None or self._stencil.key != (c, alphas, spacings):
            key = (tuple(map(float, c)), tuple(map(float, alphas)), tuple(map(float, spacings)))
            if self._stencil is None or self._stencil.key != key:
                self._stencil = LinearStencil.build(self, *key)
                self._terms = {}
        if term is None:
            return self._stencil
        if term not in self._terms:
            if len(self._terms) >= _TERMS_KEPT:
                self._terms.clear()
            self._terms[term] = self._stencil.scaled(*term)
        return self._terms[term]

    def boundary_plan(self, mesh: Mesh2D, shape: tuple[int, ...]) -> "BoundaryPlan":
        """The `BoundaryPlan` of `mesh` for coefficients of `shape`.  The basis
        keeps the last one it built, keyed by the mesh's identity (the plan
        holds the mesh, so its id is not reused) and the shape, so a run
        builds it once per mesh."""
        plan = self._plan
        if plan is None or plan.mesh is not mesh or plan.shape != shape:
            plan = self._plan = BoundaryPlan(mesh, self.face_rule.nodes, shape)
        return plan


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

    `neighbours` holds P_x, M_x, P_y, M_y side by side, one (n_modes,
    4 n_modes) matrix: applied to a cell's four neighbours' coefficients
    stacked in that order (+x, -x, +y, -y), it sums all four terms in one
    product.  Across an outflow side a boundary cell's neighbour is the cell
    mirrored across that face (`Basis2D.parity`), whose trace there is the
    cell's own: the outflow exterior state, so no side needs other blocks.

    An SSP-RK stage term a u + b rate is affine in u too: `scaled(a, b)` is
    the stencil with centre a I + b C and every other block times b, so one
    application gives the term (`semidiscrete_residual`'s `term`).

    A run builds its stencil once, and each scaled one once per dt:
    `Basis2D.linear_stencil` keeps them.  What the residual reads of the
    mesh's boundaries is the basis's `BoundaryPlan`, also built once."""

    def __init__(self, key: tuple, centre: np.ndarray, neighbours: np.ndarray):
        self.key = key
        self.centre = centre
        self.neighbours = neighbours

    @staticmethod
    def build(basis: Basis2D, c, alphas, spacings) -> "LinearStencil":
        e = basis.eval_matrix
        centre = np.zeros((basis.n_modes, basis.n_modes))
        neighbours = []
        for cd, alpha, h, vol, (lo, hi), (at_lo, at_hi) in zip(c, alphas, spacings, basis.assemble_vol,
                                                               basis.assemble_faces, basis.at_faces):
            a, b = 0.5 * (cd + alpha), 0.5 * (cd - alpha)
            centre += (cd * vol @ e[basis.at_vol] - a * hi @ e[at_hi] + b * lo @ e[at_lo]) / h
            neighbours += [-b * hi @ e[at_lo] / h, a * lo @ e[at_hi] / h]
        return LinearStencil((c, alphas, spacings), centre, np.concatenate(neighbours, axis=1))

    def scaled(self, a: float, b: float) -> "LinearStencil":
        """The stencil of a u + b rate: centre a I + b C, the other blocks times b."""
        return LinearStencil(self.key, a * np.eye(len(self.centre)) + b * self.centre, b * self.neighbours)


class DGField:
    """Per-cell modal coefficients, shape (nx, ny, n_modes, m).

    `coeffs` is held component-major in memory: a view of an (m, n_modes,
    nx, ny) C-array, the layout `apply_matrix` reads without a copy and
    returns its rates in.  `project` creates it so, `copy` and `zeros_like`
    (the SSP-RK stages) keep it, and the rates and the limiters' in-place
    scalings preserve it; a field built from other memory is still correct,
    it only costs a copy per evaluation.
    """

    def __init__(self, coeffs: np.ndarray, basis: Basis2D, mesh: Mesh2D, model: ConservationLawModel):
        self.coeffs = coeffs
        self.basis = basis
        self.mesh = mesh
        self.model = model

    @property
    def cell_averages(self) -> np.ndarray:
        return self.coeffs[:, :, 0, :]

    def copy(self) -> "DGField":
        return DGField(self.coeffs.copy(order="K"), self.basis, self.mesh, self.model)

    def like(self, coeffs: np.ndarray) -> "DGField":
        return DGField(coeffs, self.basis, self.mesh, self.model)


def project(
    u0: Callable[[np.ndarray, np.ndarray], np.ndarray] | np.ndarray,
    mesh: Mesh2D,
    basis: Basis2D,
    model: ConservationLawModel,
) -> DGField:
    """L2 projection of u0(x, y) -> (..., m) using a (k+2)^2 tensor Gauss rule.

    A constant `u0`, one state (m,), is projected exactly, with no
    quadrature: the state in mode 0 (the constant 1) and zero in every
    other mode, so every cell holds the same bits on every mesh."""
    if not callable(u0):
        state = np.asarray(u0, dtype=float)
        if state.shape != (model.m,):
            raise ValueError("initial state has the wrong shape")
        coeffs = np.zeros((model.m, basis.n_modes, mesh.nx, mesh.ny))
        coeffs[:, 0] = state[:, None, None]
        return DGField(coeffs.transpose(2, 3, 1, 0), basis, mesh, model)
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


def _sides(mesh: Mesh2D, q_nodes: np.ndarray, axis: int):
    """The low and high boundary conditions normal to `axis`, and the
    positions of the face points `q_nodes` along them where `ghost_trace`
    reads any: only an inflow side does, so None when neither side is one."""
    bcs = mesh.sides[axis]
    inflow = any(isinstance(bc, InflowSegment) for bc in bcs)
    return (*bcs, face_coords(mesh, axis == 0, q_nodes) if inflow else None)


class BoundaryPlan:
    """What the residual reads of a mesh's boundaries, per axis, for
    coefficients of one shape (nx, ny, n_modes, m); `Basis2D.boundary_plan`
    builds it once per mesh.

    `sides[axis]` is `_sides` of the axis, which `_interface_flux` and
    `_linear_residual` read; it reads only periodic and outflow sides, and
    `linear` says every side is one.  The rest indexes its flat (m, n_modes,
    nx ny) arrays, cells in C order: a cell's +e_d neighbour is `shifts[d]`
    cells on, and `rows[d]` = (first, last) are the index tuples of the
    cell rows at the low and the high side normal to d."""

    def __init__(self, mesh: Mesh2D, q_nodes: np.ndarray, shape: tuple[int, ...]):
        nx, ny = shape[:2]
        self.mesh = mesh  # held, so the id `boundary_plan` keys by is not reused
        self.shape = shape
        self.sides = tuple(_sides(mesh, q_nodes, axis) for axis in (0, 1))
        self.linear = all(bc in (PERIODIC, OUTFLOW) for bcs in mesh.sides for bc in bcs)
        self.shifts = (ny, 1)
        self.rows = (((..., slice(0, ny)), (..., slice((nx - 1) * ny, None))),
                     ((..., slice(0, None, ny)), (..., slice(ny - 1, None, ny))))


def linear_flux(model: ConservationLawModel) -> bool:
    """Whether `model`'s flux is linear in u, f_d = c_d u: advection, the one
    such model.  Its residual is `LinearStencil` on the coefficients, and its
    speeds |c_d| need no point value, so its states are never evaluated at
    the stacked points."""
    return isinstance(model, AdvectionModel)


class PointValues:
    """A field evaluated at every point the residual reads.

    `stacked` is Basis2D.stacked_values of the coefficients, component-major
    in memory as `apply_matrix` returns it; `pressure` is the model's
    pressure of `stacked` (None for models without one, i.e. scalar laws,
    or when the caller has not computed it: each reader then computes its
    own).  The exterior traces along the boundaries are not held:
    `_interface_flux` forms them from these where it reads them."""

    def __init__(self, stacked: np.ndarray, pressure: Optional[np.ndarray] = None):
        self.stacked = stacked
        self.pressure = pressure


# `global_max_speeds`' result: per-axis speeds and the point values read (None: a linear flux)
SpeedPass = tuple[tuple[float, float], Optional[PointValues]]


def point_values(field: DGField) -> PointValues:
    """The field's point values, evaluated afresh: `global_max_speeds` calls
    this when no values were handed to it, and hands on what it read."""
    u = field.basis.stacked_values(field.coeffs)
    pressure = getattr(field.model, "pressure", None)
    return PointValues(u, None if pressure is None else pressure(u))


def global_max_speeds(field: DGField, values: Optional[PointValues] = None) -> SpeedPass:
    """Global per-axis max wave speed over volume and face quadrature points,
    including the exterior boundary trace states: a ghost trace holds
    interior face traces, already in the stacked values, and an inflow
    segment's state at the face points it covers (`cli` checks it covers one).

    Returns the speeds and the point values they were read from, for the
    residual of the same state: `values` when handed in (those the Euler BP
    limiter returned with the field), else the one evaluation of the field.
    A linear flux (`linear_flux`) reads the coefficients instead, in one
    call of the model's `max_wave_speeds`, and its values are None: its
    speeds are |c_d| whatever the state (its residual refuses an inflow
    side), and a state is admissible for it when finite, which its
    coefficients are exactly when its point values are.  Nothing is built
    or kept between calls.

    This pass is a state's one admissibility check: the model raises
    AdmissibilityError, naming the first cell, for an inadmissible or
    non-finite point value (a missing or failed limiter)."""
    if linear_flux(field.model):
        return field.model.max_wave_speeds(field.coeffs), None
    values = point_values(field) if values is None else values
    sets = [(values.stacked, values.pressure)]
    sets += [(bc.state, None) for bcs in field.mesh.sides for bc in bcs if isinstance(bc, InflowSegment)]
    a1 = a2 = 0.0
    for pts, p in sets:
        s1, s2 = field.model.max_wave_speeds(pts, p)
        a1, a2 = max(a1, s1), max(a2, s2)
    return (a1, a2), values


def _interface_flux(field: DGField, values: PointValues, axis: int, alpha: float) -> np.ndarray:
    """Lax-Friedrichs flux at every face normal to `axis`, shape (nx+1, ny, Q, m)
    for x and (nx, ny+1, Q, m) for y, from the face traces of `values`.

    The two boundaries' ghost traces are formed here by `ghost_trace`, and
    so are their pressures when `values` carry one: a periodic ghost is a
    view of the opposite face slice, an outflow ghost a copy of the interior
    face slice, and an inflow ghost that copy with the inflow state (its
    pressure `pressure(state)`) at the covered points."""
    basis, model = field.basis, field.model
    bc_lo, bc_hi, coords = basis.boundary_plan(field.mesh, field.coeffs.shape).sides[axis]
    at_lo, at_hi = basis.at_faces[axis]
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
    alphas: tuple[float, float],
    values: Optional[PointValues] = None,
    term: Optional[tuple[float, float]] = None,
) -> np.ndarray:
    """Weak-form DG rate of change of the modal coefficients.

    `alphas` are the global Lax-Friedrichs viscosities per axis and `values`
    the field's point values, both as `global_max_speeds` returns them: the
    states are not checked here, that speed pass checks them.

    A linear flux (`linear_flux`) takes its `LinearStencil` on the
    coefficients and reads no point value (`values` is None); every other
    flux's volume and LF face fluxes are formed from `values` and assembled.
    A linear flux may be given an SSP-RK stage's `term` = (a, b): it then
    returns a u + b rate, one application of the stencil `scaled(a, b)`.
    """
    if linear_flux(field.model):
        return _linear_residual(field, alphas, term)
    if term is not None:
        raise ValueError("only a linear flux's stage term is one stencil application")
    mesh, basis, model = field.mesh, field.basis, field.model
    u, p = values.stacked, values.pressure
    uvol = u[:, :, basis.at_vol]
    pvol = None if p is None else p[:, :, basis.at_vol]

    def volume(axis: int, h: float) -> np.ndarray:
        t = apply_matrix(basis.assemble_vol[axis], model.flux(uvol, axis, pvol))
        t /= h
        return t

    def faces(axis: int, h: float) -> np.ndarray:
        f = _interface_flux(field, values, axis, alphas[axis])
        lo, hi = (f[:-1], f[1:]) if axis == 0 else (f[:, :-1], f[:, 1:])
        assemble_lo, assemble_hi = basis.assemble_faces[axis]
        t = apply_matrix(assemble_hi, hi)
        t -= apply_matrix(assemble_lo, lo)
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


def _linear_residual(field: DGField, alphas: tuple[float, float],
                     term: Optional[tuple[float, float]]) -> np.ndarray:
    """`semidiscrete_residual` of a linear flux: its `LinearStencil` (scaled
    to `term`, if given) applied to the coefficients.  One operand stacks
    every cell's four neighbours' coefficients (+x, -x, +y, -y), each a flat
    shifted copy, so one gemm with the side-by-side neighbour blocks sums
    the four P_d u_{ij+e_d} and M_d u_{ij-e_d} terms; the operand is
    dropped before C u is added.
    On a periodic side the boundary row reads the wrapped cell, on an
    outflow side its own cell mirrored across that face (`Basis2D.parity`);
    any other side raises ValueError (no config gives advection an inflow).
    What is fixed for a run is built once and kept on the basis: the
    stencil and its scaled stencils (`Basis2D.linear_stencil`), and the
    shifts, boundary rows and sides (`Basis2D.boundary_plan`).  No array
    is kept between calls."""
    mesh, basis = field.mesh, field.basis
    stencil = basis.linear_stencil(field.model.c, alphas, (mesh.dx, mesh.dy), term)
    plan = basis.boundary_plan(mesh, field.coeffs.shape)
    if not plan.linear:
        raise ValueError("a linear flux's residual reads periodic and outflow sides only")
    nx, ny, n, m = field.coeffs.shape
    u = np.ascontiguousarray(field.coeffs.transpose(3, 2, 0, 1))  # (m, n, nx, ny), no copy when component-major
    flat = u.reshape(m, n, nx * ny)
    stacked = np.empty((m, 4, n, nx * ny))
    for axis, shift, (first, last), (bc_lo, _, _) in zip((0, 1), plan.shifts, plan.rows, plan.sides):
        plus, minus = stacked[:, 2 * axis], stacked[:, 2 * axis + 1]
        # the +e_d neighbour of a cell is `shift` cells on in the flat order;
        # the boundary rows are set after the shifted copies, which read
        # across the boundary there (along y, into the next row of cells)
        plus[..., :-shift] = flat[..., shift:]
        minus[..., shift:] = flat[..., :-shift]
        periodic = bc_lo == PERIODIC
        plus[last] = flat[first] if periodic else flat[last] * basis.parity[axis]
        minus[first] = flat[last] if periodic else flat[first] * basis.parity[axis]
    rate = np.matmul(stencil.neighbours, stacked.reshape(m, 4 * n, nx * ny))
    del stacked
    rate += np.matmul(stencil.centre, flat)
    return rate.reshape(m, n, nx, ny).transpose(2, 3, 1, 0)


class SspScheme:
    """Shu-Osher form: each stage is sum of alpha*u_m + dt*beta*F(u_m) terms."""

    def __init__(self, name: str, stages: tuple[tuple[tuple[float, float, int], ...], ...]):
        self.name = name
        self.stages = stages

    @property
    def ssp_coefficient(self) -> float:
        return min(
            alpha / beta for stage in self.stages for alpha, beta, _ in stage if beta > 0
        )

    @cached_property
    def schedule(self) -> tuple[dict[int, int], dict[int, int], frozenset[int]]:
        """What `ssp_step` reads of the stages, built on first use: the last
        stage that reads each state, the last that reads each state's rate,
        and the states whose rate one stage term alone reads."""
        last_read = {idx: s for s, stage in enumerate(self.stages) for _, _, idx in stage}
        last_rated = {idx: s for s, stage in enumerate(self.stages) for _, beta, idx in stage if beta != 0.0}
        readers = [idx for stage in self.stages for _, beta, idx in stage if beta != 0.0]
        return last_read, last_rated, frozenset(idx for idx in readers if readers.count(idx) == 1)


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
    start: Optional[SpeedPass] = None,
) -> tuple[DGField, Optional[PointValues], list]:
    """One SSP-RK step with the limiter chain applied after every stage.

    Each stage state goes through one speed pass (`global_max_speeds`),
    whose speeds are its Lax-Friedrichs viscosities and whose point values
    its residual reads: those handed in with the state (a stage's, those
    `limiter_chain` returns with it), else the pass's own evaluation (none
    for a linear flux, `linear_flux`).  `start` is `field`'s pass, when the
    caller has already made it; a caller that keeps no reference to it
    (`cli.run` does not) lets its values die with stage 0's rate.  The step
    lets go of a state's values once its rate is computed.  A stage's rates
    are computed before its sum is allocated, and a state and its rate are
    dropped after the last stage that reads them: which stage that is, and
    which states one stage term rates, is the scheme's `schedule`, built
    once per scheme.

    With a linear flux a state whose rate one stage term alpha u + dt beta
    rate reads is not rated on its own: its residual call returns that term
    (`semidiscrete_residual`'s `term`), and the stage adds its beta = 0
    terms to it.  A state two stages rate (SSPRK4's stage-3 state) is rated
    once and summed as every other flux's: zeros, then each alpha u and
    dt beta rate in the stage's order.

    Returns the new field, the point values its limiting returned (None if
    none), and each stage's `LimiterDiagnostics` (none without a chain)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    states: list[Optional[DGField]] = [field]
    # each state's (speeds, values): its speed pass, or (None, the values
    # handed in with it) until `rate` makes the pass
    passes: list = [(None, None) if start is None else start]
    del start  # the list's is the step's one reference, dropped by `rate`
    rates: dict[int, np.ndarray] = {}
    diagnostics = []
    last_read, last_rated, single = scheme.schedule
    # the states whose `rates` entry is their one stage term
    fused = single if linear_flux(field.model) else frozenset()

    def rate(idx: int, term=None) -> np.ndarray:
        state, (speeds, values) = states[idx], passes[idx]
        passes[idx] = None
        if speeds is None:
            speeds, values = global_max_speeds(state, values)
        return semidiscrete_residual(state, speeds, values, term)

    for s, stage in enumerate(scheme.stages):
        for alpha, beta, idx in stage:
            if beta != 0.0 and idx not in rates:
                rates[idx] = rate(idx, (alpha, dt * beta) if idx in fused else None)
        stage_terms = [rates.pop(idx) for _, beta, idx in stage if beta != 0.0 and idx in fused]
        new = stage_terms[0] if stage_terms else np.zeros_like(field.coeffs)
        for stage_term in stage_terms[1:]:
            new += stage_term
        for alpha, beta, idx in stage:
            if beta != 0.0 and idx in fused:
                continue
            new += alpha * states[idx].coeffs
            if beta != 0.0:
                new += dt * beta * rates[idx]
        for idx in range(len(states)):
            if last_read.get(idx) == s:
                states[idx] = passes[idx] = None
            if last_rated.get(idx) == s:
                rates.pop(idx, None)
        stage_field, limited = field.like(new), None
        if limiter_chain is not None:
            stage_field, diag, limited = limiter_chain(stage_field)
            diagnostics.append(diag)
        states.append(stage_field)
        passes.append((None, limited))
    return states[-1], passes[-1][1], diagnostics


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
