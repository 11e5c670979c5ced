"""1D Gauss and Gauss-Lobatto rules on the reference interval [-1/2, 1/2].

Weights are normalized to sum to 1 (cell-mean convention), so a rule applied
to a polynomial returns its mean over the cell rather than its integral.
Nodes are computed by Newton iteration on Legendre polynomials; no external
special-function library is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_NEWTON_TOL = 1e-15
_MAX_ORDER = 16


@dataclass(frozen=True)
class QuadratureRule1D:
    """Nodes/weights on [-1/2, 1/2]; weights sum to 1, nodes increasing."""

    nodes: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.nodes)


def legendre_table(k: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n and P_n' for n=0..k at t in [-1,1] by the three-term recurrence;
    shapes (k+1,) + t.shape."""
    t = np.asarray(t, dtype=float)
    vals = np.empty((k + 1,) + t.shape)
    ders = np.empty_like(vals)
    vals[0] = 1.0
    ders[0] = 0.0
    if k >= 1:
        vals[1] = t
        ders[1] = 1.0
    for n in range(2, k + 1):
        vals[n] = ((2 * n - 1) * t * vals[n - 1] - (n - 1) * vals[n - 2]) / n
        ders[n] = ders[n - 2] + (2 * n - 1) * vals[n - 1]
    return vals, ders


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n and P_n' at x (n >= 1), P_n' in closed form from P_n and P_{n-1}."""
    vals, _ = legendre_table(n, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        dp = n * (x * vals[n] - vals[n - 1]) / (x * x - 1.0)
    return vals[n], dp


def _symmetrize(nodes: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # enforce exact symmetry about 0 and a unit weight sum
    nodes = 0.5 * (nodes - nodes[::-1])
    if len(nodes) % 2 == 1:
        nodes[len(nodes) // 2] = 0.0
    weights = 0.5 * (weights + weights[::-1])
    weights = weights / weights.sum()
    return nodes, weights


def _frozen_rule(nodes: np.ndarray, weights: np.ndarray) -> QuadratureRule1D:
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule1D(nodes, weights)


@lru_cache(maxsize=_MAX_ORDER)
def gauss_rule(q: int) -> QuadratureRule1D:
    """Q-point Gauss rule, exact for degree <= 2Q-1 on [-1/2, 1/2].

    Rules are cached and shared between callers, so their arrays are
    read-only."""
    if not 1 <= q <= _MAX_ORDER:
        raise ValueError(f"Gauss point count must be in 1..{_MAX_ORDER}, got {q}")
    if q == 1:
        return _frozen_rule(np.array([0.0]), np.array([1.0]))
    # Chebyshev initial guesses, then Newton on P_q
    x = -np.cos(np.pi * (np.arange(1, q + 1) - 0.25) / (q + 0.5))
    for _ in range(100):
        p, dp = _legendre(q, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    _, dp = _legendre(q, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes, weights = _symmetrize(x / 2.0, w)
    return _frozen_rule(nodes, weights)


@lru_cache(maxsize=_MAX_ORDER)
def gauss_lobatto_rule(n: int) -> QuadratureRule1D:
    """L-point Gauss-Lobatto rule, exact for degree <= 2L-3; endpoints included.

    Endpoint weights are 1/(L(L-1)) under the unit-sum convention.  Rules
    are cached and shared between callers, so their arrays are read-only.
    """
    if not 2 <= n <= _MAX_ORDER:
        raise ValueError(f"Gauss-Lobatto point count must be in 2..{_MAX_ORDER}, got {n}")
    if n == 2:
        return _frozen_rule(np.array([-0.5, 0.5]), np.array([0.5, 0.5]))
    # interior nodes are the roots of P'_{n-1}; Newton on dp with second
    # derivative from the Legendre ODE
    m = n - 2
    x = -np.cos(np.pi * np.arange(1, m + 1) / (n - 1))
    for _ in range(100):
        p, dp = _legendre(n - 1, x)
        ddp = (2.0 * x * dp - (n - 1) * n * p) / (1.0 - x * x)
        dx = dp / ddp
        x = x - dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    x = np.concatenate(([-1.0], x, [1.0]))
    p, _ = _legendre(n - 1, x)
    w = 2.0 / (n * (n - 1) * p * p)
    nodes, weights = _symmetrize(x / 2.0, w)
    return _frozen_rule(nodes, weights)


def tensor_gauss_rule(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The q x q tensor Gauss rule on [-1/2, 1/2]^2: offsets (q^2, 2), the
    first coordinate varying slowest, and weights (q^2,) summing to 1."""
    g = gauss_rule(q)
    xi, eta = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    return np.column_stack([xi.ravel(), eta.ravel()]), np.outer(g.weights, g.weights).ravel()


def monomial_mean(m: int) -> float:
    """Exact mean of x^m over [-1/2, 1/2]: 0 for odd m, (1/2)^m/(m+1) for even."""
    if m % 2 == 1:
        return 0.0
    return 0.5**m / (m + 1)


def exactness_defect(rule: QuadratureRule1D, degree: int) -> float:
    """Max over monomials x^m, m <= degree, of |rule applied to x^m - exact mean|."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    defect = 0.0
    for m in range(degree + 1):
        approx = float(np.sum(rule.weights * rule.nodes**m))
        defect = max(defect, abs(approx - monomial_mean(m)))
    return defect
