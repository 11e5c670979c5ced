"""Quiescent-region windows: step only the disturbed part of a run whose
cells all start from the same coefficients (a uniform ambient: the jets).

`Quiescence.of` selects the mechanism the way `dg_core.linear_flux` selects
the advection stencil, from the data alone, with no option: every cell of
the projected field must hold the same coefficients, the *reference*.  A
uniform start is projected exactly (`dg_core.project` of its one state), so
the selection holds on every mesh; a quadrature projection of a constant is
not bit-uniform on some (at k = 2, 1039 of the meshes with nx in 4-100 and
ny in 4-60, all odd x odd).  Advection's sine and Burgers' Riemann data
never start uniform, so their runs build no `Quiescence` and do no new work
per step.

Before each step (step 1's at the set-up) `Quiescence.window` marks the
*active* cells:

- every cell with a coefficient off the reference by more than the threshold
  tau = THRESHOLD_C * eps * max|reference|, or not a number;
- every cell next to a boundary whose ghost state is off the reference's
  mean by more than tau: an inflow segment's cells, those with a face point
  or a centre it covers (the same points `ghost_trace` gives the inflow state).

The window is the bounding box of the active cells (of cell (0, 0) when none
is), padded by stages + 1 cells on every side and clipped to the mesh.  The
cells outside it are *frozen*: the step leaves their bits as they are.
`Window.cut` copies the window into a field of its own, on the window as its
mesh, which the caller steps as it would the whole mesh (speed pass,
decomposition, one `ssp_step`), and `Window.paste` writes it back.  A window that spans the mesh is not
built: the caller steps the field itself, exactly as without a window.

Guarantees (each has a test in tests/test_window.py):

- **Set-up.**  The run's set-up, the initial speed pass (which picks the
  first node set) and limiting, runs on step 1's window, and step 1 reads
  the point values that limiting returned.  The frozen cells hold the exact
  constant: its TVB slopes are 0 and each of its node values is the
  constant, so whole-mesh limiting would leave them bit-unchanged and count
  nothing.  The initial field, its counts and mean bounds, and step 1's
  speeds and dt are the whole-mesh set-up's, bit for bit, with one stated
  exception: an ambient whose density lies in [eps_rho * EULER_FLOOR,
  eps_rho) is inside the region but below the BP limiter's floor at every
  node, and the limiter scales each cell it is given by theta 0 (a no-op on
  a constant) and counts it.  Its frozen cells are left unlimited and
  uncounted, as in any windowed step, so its initial `cells_limited` is the
  window's cell count, not the mesh's.
- **Speeds.**  A frozen cell is not active, so it lies within tau of the
  reference.  The padded window holds a cell that is not active unless it
  spans the mesh (a side that is not clipped has `pad` inactive rows), so the
  window's speeds cover every frozen cell's up to the O(tau) spread between
  inactive cells; and the inflow states' speeds enter through the window's
  own inflow sides, or are the reference's within tau.
- **Spacings.**  dt uses the full mesh's (dx, dy), and so does everything
  the step computes: a window mesh reads its `dx`, `dy` and cell centres
  from the full mesh, so they equal the full mesh's bit for bit.
- **BP argument.**  A window side inside the mesh is an outflow side: its
  ghost states are the window's own face traces (and own cell means for the
  TVB limiter).  The Lax-Friedrichs BP argument (Zhang & Shu, JCP 229, 2010)
  accepts any admissible exterior state, and a window's own traces are
  admissible wherever its interior traces are.  A periodic pair stays
  periodic only when the window spans that axis; a mesh side keeps its
  boundary condition (the inflow segment among them).
- **Frozen cells.**  They keep their bits, which were admissible after the
  step that last changed them, so they stay admissible.
- **Conservation.**  The flux out of the window through a side inside the
  mesh is not passed to the frozen neighbour, and the frozen cells do not
  take the update a whole-mesh step would give them.  Per step, the totals
  (sum of cell means times the cell area) therefore differ from those of a
  whole-mesh step from the same state by the flux through the boundary of
  the frozen region less the reference's flux (which sums to zero around a
  closed boundary).  Every state on that boundary is within tau of the
  reference in each coefficient, so within B*tau pointwise, with
  B = max over the stacked points of sum_n |phi_n|.  Under the BP CFL
  (dt * alpha_d / h_d <= 1/6 at k = 2 and 3) the flux difference through a
  face moves the totals by at most B*tau*|cell| per component: per step the
  change is at most B*tau*|cell| times the faces on
  the frozen region's boundary, at most 2(nx + ny) on the mesh's sides plus
  the window's perimeter.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .dg_core import OUTFLOW, PERIODIC, DGField, InflowSegment, Mesh2D, face_coords

# a cell is active when a coefficient is off the reference by more than
# THRESHOLD_C * eps * max|reference|
THRESHOLD_C = 64.0


class Window(Mesh2D):
    """The cells [i0, i1) x [j0, j1) of `full`, `bounds` = (i0, i1, j0, j1),
    as a mesh of their own.  Spacings and centres are `full`'s, bit for bit.
    A side inside `full` is an outflow side, a side of `full` keeps its
    boundary condition, and a periodic pair stays periodic only when the
    window spans that axis.  Windows of one mesh compare by their bounds."""

    def __init__(self, full: Mesh2D, bounds: tuple[int, int, int, int]):
        i0, i1, j0, j1 = bounds
        sides = []
        for (lo, hi), at_lo, at_hi in zip(full.sides, (i0 == 0, j0 == 0), (i1 == full.nx, j1 == full.ny)):
            if lo == PERIODIC and not (at_lo and at_hi):
                lo = hi = OUTFLOW
            sides += [lo if at_lo else OUTFLOW, hi if at_hi else OUTFLOW]
        x_lo, y_lo, dx, dy = full.x_lo, full.y_lo, full.dx, full.dy
        super().__init__(x_lo + i0 * dx, x_lo + i1 * dx, y_lo + j0 * dy, y_lo + j1 * dy, i1 - i0, j1 - j0, *sides)
        self.full = full
        self.bounds = tuple(bounds)

    def __eq__(self, other) -> bool:
        return isinstance(other, Window) and other.full is self.full and other.bounds == self.bounds

    @property
    def origin(self) -> tuple[int, int]:
        return self.bounds[0], self.bounds[2]

    @property
    def cells(self) -> tuple[slice, slice]:
        i0, i1, j0, j1 = self.bounds
        return slice(i0, i1), slice(j0, j1)

    @property
    def dx(self) -> float:
        return self.full.dx

    @property
    def dy(self) -> float:
        return self.full.dy

    @property
    def x_centers(self) -> np.ndarray:
        return self.full.x_centers[self.cells[0]]

    @property
    def y_centers(self) -> np.ndarray:
        return self.full.y_centers[self.cells[1]]

    def cut(self, field: DGField) -> DGField:
        """A copy of the window's cells of `field`, component-major as `DGField` holds them."""
        return DGField(field.coeffs[self.cells].copy(order="K"), field.basis, self, field.model)

    def paste(self, part: DGField, field: DGField) -> DGField:
        """`field` with the window's cells overwritten by `part`, in place."""
        field.coeffs[self.cells] = part.coeffs
        return field


class Quiescence:
    """The shared starting coefficients of a run and what follows from them:
    the threshold `tol`, the padding `pad`, and `seeds`, the (nx, ny) mask of
    the cells next to a boundary whose ghost state is off the reference."""

    def __init__(self, reference: np.ndarray, tol: float, pad: int, seeds: np.ndarray):
        self.reference = reference  # (m, n_modes, 1, 1): one cell's coefficients, component-major
        self.tol, self.pad, self.seeds = tol, pad, seeds

    @staticmethod
    def of(field: DGField, stages: int) -> Optional[Quiescence]:
        """The run's `Quiescence` when every cell of `field` holds the same
        coefficients, else None; `stages` is the RK scheme's stage count."""
        coeffs = field.coeffs.transpose(3, 2, 0, 1)  # (m, n_modes, nx, ny), memory order
        reference = coeffs[:, :, :1, :1].copy()
        if not np.array_equal(coeffs, np.broadcast_to(reference, coeffs.shape)):
            return None
        tol = THRESHOLD_C * np.finfo(float).eps * float(np.abs(reference).max())
        mesh = field.mesh
        seeds = np.zeros((mesh.nx, mesh.ny), dtype=bool)
        nodes = field.basis.face_rule.nodes
        for axis, centres in enumerate((mesh.y_centers, mesh.x_centers)):
            for bc, end in zip(mesh.sides[axis], (0, -1)):
                if isinstance(bc, InflowSegment) and np.abs(bc.state - reference[:, 0, 0, 0]).max() > tol:
                    covered = bc.covers(face_coords(mesh, axis == 0, nodes)).any(axis=1) | bc.covers(centres)
                    seeds[(slice(None),) * axis + (end,)] |= covered
        return Quiescence(reference, tol, stages + 1, seeds)

    def active(self, field: DGField, within: tuple[slice, slice] = np.s_[:, :]) -> np.ndarray:
        """(nx, ny) mask of the active cells of `field`, of which only those
        `within` these cells are looked for: the others are known inactive."""
        deviation = np.abs(field.coeffs[within].transpose(3, 2, 0, 1) - self.reference)
        active = self.seeds.copy()
        active[within] |= (~(deviation <= self.tol)).any(axis=(0, 1))  # a NaN coefficient is active
        return active

    def window(self, field: DGField, last: Optional[Window] = None) -> Optional[Window]:
        """The window to step `field` on next, or None when it spans the mesh.
        `last` is the window of the step before, if any: the cells outside it
        kept their bits, so they are still inactive and not looked at."""
        mesh = field.mesh
        active = self.active(field) if last is None else self.active(field, last.cells)
        bounds = []
        for axis, n in ((0, mesh.nx), (1, mesh.ny)):
            hit = np.flatnonzero(active.any(axis=1 - axis))
            lo, hi = (hit[0], hit[-1] + 1) if len(hit) else (0, 1)
            bounds += [max(int(lo) - self.pad, 0), min(int(hi) + self.pad, n)]
        if bounds == [0, mesh.nx, 0, mesh.ny]:
            return None
        return Window(mesh, tuple(bounds))
