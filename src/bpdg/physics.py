"""Conservation-law models: fluxes, wave speeds, invariant regions, LF flux.

States are numpy arrays whose last axis holds the conserved components
(m=1 for scalar laws, m=4 for 2D Euler: rho, rho*v1, rho*v2, E).  All
operations are vectorized over any number of leading axes.  A state array
may be a strided view, components last: the solver's point values keep each
component in its own contiguous plane, so `u[..., c]` is a contiguous read
there, and elementwise results inherit that layout.

Each invariant region is stated once, by its `contains(u, p=None)` mask (`p`
is the pressure of `u`, if known) with one named round-off slack: the scalar
box widened by `BOX_SLACK`, the Euler floors scaled by `EULER_FLOOR`.  A
mask is true only where its comparisons hold, so NaN is outside every region.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

BOX_SLACK = 1e-12
EULER_FLOOR = 1.0 - 1e-10


class AdmissibilityError(RuntimeError):
    """A state left the invariant region where the scheme required membership.

    A message names its `cell` as `cell (i, j)`."""

    def __init__(self, message: str, cell: tuple[int, int] | None = None):
        super().__init__(message)
        self.cell = cell

    def shifted(self, origin: tuple[int, int]) -> "AdmissibilityError":
        """This error with its cell moved by `origin`: the indices of a mesh
        whose window, at `origin`, raised it."""
        if self.cell is None:
            return self
        cell = (self.cell[0] + origin[0], self.cell[1] + origin[1])
        return AdmissibilityError(str(self).replace(f"cell {self.cell}", f"cell {cell}", 1), cell=cell)


def _require(ok: np.ndarray) -> None:
    """AdmissibilityError at the first False of an admissibility mask, whose
    first two indices name the cell when it is laid out (nx, ny, points)."""
    if not ok.all():
        bad = np.argwhere(~ok)[0]
        cell = (int(bad[0]), int(bad[1])) if ok.ndim >= 3 else None
        raise AdmissibilityError(f"inadmissible state at quadrature/trace point in cell {cell}", cell=cell)


class BoxScalar:
    """Scalar invariant region: the interval [lo, hi]."""

    def __init__(self, lo: float, hi: float):
        if not lo < hi:
            raise ValueError("box region needs lo < hi")
        self.lo, self.hi = lo, hi

    def __repr__(self) -> str:  # read in config-check and limiter messages
        return f"{type(self).__name__}(lo={self.lo!r}, hi={self.hi!r})"

    def contains(self, u: np.ndarray, p: Optional[np.ndarray] = None) -> np.ndarray:
        v = u[..., 0]
        return (v >= self.lo - BOX_SLACK) & (v <= self.hi + BOX_SLACK)


class EulerPositivity:
    """Euler admissible set {rho > 0, p > 0} with small numerical floors."""

    eps_rho = 1e-13
    eps_p = 1e-13

    def __init__(self, gamma: float = 5.0 / 3.0):
        self.gamma = gamma

    def __repr__(self) -> str:  # read in config-check and limiter messages
        return f"{type(self).__name__}(gamma={self.gamma!r})"

    def contains(self, u: np.ndarray, p: Optional[np.ndarray] = None) -> np.ndarray:
        if p is None:
            p = _pressure_raw(u, self.gamma)
        return (u[..., 0] >= self.eps_rho * EULER_FLOOR) & (p >= self.eps_p * EULER_FLOOR)


InvariantRegion = BoxScalar | EulerPositivity


def _pressure_raw(u: np.ndarray, gamma: float) -> np.ndarray:
    """p = (gamma-1)(E - (m1^2+m2^2)/(2 rho)); no admissibility checks."""
    rho = u[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        kinetic = (u[..., 1] ** 2 + u[..., 2] ** 2) / (2.0 * rho)
    return (gamma - 1.0) * (u[..., 3] - kinetic)


class AdvectionModel:
    """Linear advection u_t + c1 u_x + c2 u_y = 0."""

    m = 1
    name = "advection2d"

    def __init__(self, c=(1.0, 1.0), region: BoxScalar = BoxScalar(-1.0, 1.0),
                 exact_solution: Optional[Callable] = None):
        self.c = (float(c[0]), float(c[1]))
        self.region = region
        self.exact_solution = exact_solution

    def flux(self, u: np.ndarray, axis: int, p: Optional[np.ndarray] = None) -> np.ndarray:
        return self.c[axis] * u

    def max_wave_speed(self, u: np.ndarray, axis: int, p: Optional[np.ndarray] = None) -> np.ndarray:
        return np.full(u.shape[:-1], abs(self.c[axis]))

    def max_wave_speeds(self, u: np.ndarray, p: Optional[np.ndarray] = None) -> tuple[float, float]:
        _require(self.check_admissible(u))
        return abs(self.c[0]), abs(self.c[1])

    def check_admissible(self, u: np.ndarray, p: Optional[np.ndarray] = None) -> np.ndarray:
        return np.isfinite(u[..., 0])


class BurgersModel:
    """2D inviscid Burgers: f1 = f2 = u^2/2."""

    m = 1
    name = "burgers2d"
    exact_solution = None

    def __init__(self, region: BoxScalar):
        self.region = region

    def flux(self, u: np.ndarray, axis: int, p: Optional[np.ndarray] = None) -> np.ndarray:
        return 0.5 * u * u

    def max_wave_speed(self, u: np.ndarray, axis: int, p: Optional[np.ndarray] = None) -> np.ndarray:
        return np.abs(u[..., 0])

    def max_wave_speeds(self, u: np.ndarray, p: Optional[np.ndarray] = None) -> tuple[float, float]:
        s = float(np.max(np.abs(u[..., 0])))
        if not np.isfinite(s):  # a NaN or infinite value is in the maximum
            _require(self.check_admissible(u))
        return s, s

    def check_admissible(self, u: np.ndarray, p: Optional[np.ndarray] = None) -> np.ndarray:
        return np.isfinite(u[..., 0])


class EulerModel:
    """2D compressible Euler equations with ideal-gas closure.

    `flux`, `max_wave_speed`, `max_wave_speeds` and `check_admissible` take
    the pressure `p` of `u` when the caller already has it (the scalar models
    accept and ignore it), so a state's pressure is computed once for all of
    them."""

    m = 4
    name = "euler2d"
    exact_solution = None

    def __init__(self, gamma: float = 5.0 / 3.0):
        self.gamma = float(gamma)
        self.region = EulerPositivity(gamma=self.gamma)

    def pressure(self, u: np.ndarray) -> np.ndarray:
        return _pressure_raw(u, self.gamma)

    def flux(self, u: np.ndarray, axis: int, p: Optional[np.ndarray] = None) -> np.ndarray:
        rho = u[..., 0]
        v = u[..., 1 + axis] / rho
        if p is None:
            p = self.pressure(u)
        out = u * v[..., None]
        out[..., 1 + axis] += p
        out[..., 3] += p * v
        return out

    def _sound_speed(self, u: np.ndarray, p: Optional[np.ndarray]) -> np.ndarray:
        if p is None:
            p = self.pressure(u)
        _require(self.check_admissible(u, p))
        return np.sqrt(self.gamma * p / u[..., 0])

    def max_wave_speed(self, u: np.ndarray, axis: int, p: Optional[np.ndarray] = None) -> np.ndarray:
        c = self._sound_speed(u, p)
        return np.abs(u[..., 1 + axis] / u[..., 0]) + c

    def max_wave_speeds(self, u: np.ndarray, p: Optional[np.ndarray] = None) -> tuple[float, float]:
        """The maxima over `u` of `max_wave_speed` along x and along y, from
        one admissibility mask and one sound-speed pass."""
        c = self._sound_speed(u, p)
        return tuple(float(np.max(np.abs(u[..., 1 + axis] / u[..., 0]) + c)) for axis in (0, 1))

    def check_admissible(self, u: np.ndarray, p: Optional[np.ndarray] = None) -> np.ndarray:
        if p is None:
            p = self.pressure(u)
        return (u[..., 0] > 0.0) & (p > 0.0)

    def conserved(self, rho: float, v1: float, v2: float, p: float) -> np.ndarray:
        energy = p / (self.gamma - 1.0) + 0.5 * rho * (v1 * v1 + v2 * v2)
        return np.array([rho, rho * v1, rho * v2, energy])


ConservationLawModel = AdvectionModel | BurgersModel | EulerModel


def lax_friedrichs_flux(
    model: ConservationLawModel,
    u_left: np.ndarray,
    u_right: np.ndarray,
    axis: int,
    alpha: float,
    p_left: Optional[np.ndarray] = None,
    p_right: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Global Lax-Friedrichs flux 0.5(f(uL)+f(uR)) - 0.5*alpha*(uR-uL); `p_left`
    and `p_right` are the pressures of the two sides when the caller has them."""
    return 0.5 * (model.flux(u_left, axis, p_left) + model.flux(u_right, axis, p_right)) - 0.5 * alpha * (
        u_right - u_left
    )
