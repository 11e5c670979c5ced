"""Modal basis, projection, residual (against an independent mean-update
oracle), SSP stepping, and the step controller."""

import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from bpdg import cli, dg_core, limiters
from bpdg.cli import RunConfig, parse_config, replace, run
from bpdg.decomposition import SpeedRatios, decomposition_for, optimal_2d, speed_ratios
from bpdg.dg_core import (
    Basis2D,
    DGField,
    InflowSegment,
    Mesh2D,
    OUTFLOW,
    PERIODIC,
    PointValues,
    SSPRK3,
    SSPRK4,
    SspScheme,
    _interface_flux,
    apply_matrix,
    error_norms,
    evaluate_at_offsets,
    face_coords,
    ghost_trace,
    global_max_speeds,
    mode_values,
    point_values,
    project,
    semidiscrete_residual,
    ssp_step,
    step_controller,
)
from bpdg.limiters import LimiterChain, bp_scaling_limit, build_node_set, tvb_minmod_limit
from bpdg.physics import (
    AdmissibilityError,
    AdvectionModel,
    BoxScalar,
    BurgersModel,
    EulerModel,
    EulerPositivity,
)
from bpdg.quadrature import gauss_rule

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _periodic_mesh(n, lo=-1.0, hi=1.0):
    return Mesh2D(lo, hi, lo, hi, n, n)


def _sine(x, y):
    return np.sin(np.pi * (x + y))[..., None]


def _value_at(field, i, j, offset):
    """The field in cell (i, j) at one reference offset, straight from the modes."""
    return field.coeffs[i, j].T @ mode_values(field.basis.k, np.array([offset]))[:, 0]


# ------------------------------------------------------------------- basis


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_gram_matrix_is_identity(k):
    basis = Basis2D(k)
    g = gauss_rule(k + 2)
    xi, eta = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    offsets = np.column_stack([xi.ravel(), eta.ravel()])
    weights = np.outer(g.weights, g.weights).ravel()
    phi = mode_values(basis.k, offsets)
    gram = np.einsum("ag,bg,g->ab", phi, phi, weights)
    np.testing.assert_allclose(gram, np.eye(basis.n_modes), atol=1e-13)


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_stacked_values_match_per_set_evaluation(k, m):
    basis = Basis2D(k)
    g = gauss_rule(k + 1)
    q = len(g)
    xi, eta = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    (at_xm, at_xp), (at_ym, at_yp) = basis.at_faces
    point_sets = [
        (basis.at_vol, np.column_stack([xi.ravel(), eta.ravel()])),
        (at_xm, np.column_stack([np.full(q, -0.5), g.nodes])),
        (at_xp, np.column_stack([np.full(q, 0.5), g.nodes])),
        (at_ym, np.column_stack([g.nodes, np.full(q, -0.5)])),
        (at_yp, np.column_stack([g.nodes, np.full(q, 0.5)])),
    ]
    coeffs = np.random.default_rng(k).normal(size=(5, 4, basis.n_modes, m))
    stacked = basis.stacked_values(coeffs)
    assert stacked.shape == (5, 4, (k + 1) ** 2 + 4 * q, m)
    for at, offsets in point_sets:
        expect = np.einsum("ijnc,np->ijpc", coeffs, mode_values(basis.k, offsets))
        np.testing.assert_allclose(stacked[:, :, at], expect, rtol=0, atol=1e-14)


def test_mode_zero_is_constant_one():
    basis = Basis2D(3)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.5, 0.5, (20, 2))
    np.testing.assert_allclose(mode_values(basis.k, pts)[0], 1.0, atol=1e-15)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_mode_values_are_the_per_mode_products_bit_for_bit(k):
    """One Legendre table for both coordinates and index arrays give the
    bits of the products formed mode by mode, each coordinate on its own."""
    pts = np.random.default_rng(k).uniform(-0.5, 0.5, (9, 2))
    px, _ = dg_core._phi1d(k, pts[:, 0])
    py, _ = dg_core._phi1d(k, pts[:, 1])
    expect = np.stack([px[a] * py[b] for a, b in dg_core._mode_exps(k)])
    np.testing.assert_array_equal(mode_values(k, pts), expect)
    np.testing.assert_array_equal(mode_values(k, pts[0]), expect[:, :1])


# -------------------------------------------------------------- projection


def test_project_constant():
    mesh = _periodic_mesh(4)
    basis = Basis2D(2)
    model = AdvectionModel()
    field = project(lambda x, y: np.ones(np.broadcast_shapes(x.shape, y.shape))[..., None],
                    mesh, basis, model)
    np.testing.assert_allclose(field.coeffs[:, :, 0, 0], 1.0, atol=1e-14)
    np.testing.assert_allclose(field.coeffs[:, :, 1:, 0], 0.0, atol=1e-14)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_project_a_constant_state_exactly(k):
    """A state, not a callable, is projected with no quadrature: mode 0 holds
    its bits in every cell, every other mode is 0, laid out as any projected
    field; the quadrature projection of the same constant agrees within a
    few eps (and on some meshes, as this one at k = 2, is not bit-uniform)."""
    model = EulerModel()
    state = model.conserved(5.0, 1.5, -0.5, 0.4127)
    mesh = Mesh2D(0.0, 2.0, -0.5, 0.5, 51, 51)
    exact = project(state, mesh, Basis2D(k), model)
    assert exact.coeffs.shape == (51, 51, Basis2D(k).n_modes, 4)
    assert exact.coeffs.transpose(3, 2, 0, 1).flags.c_contiguous
    np.testing.assert_array_equal(exact.coeffs[:, :, 0], np.broadcast_to(state, (51, 51, 4)))
    assert not exact.coeffs[:, :, 1:].any()
    quadrature = project(lambda x, y: np.broadcast_to(state, np.broadcast_shapes(x.shape, y.shape) + (4,)),
                         mesh, Basis2D(k), model)
    eps = np.finfo(float).eps
    np.testing.assert_allclose(quadrature.coeffs, exact.coeffs, rtol=0, atol=4 * eps * np.abs(state).max())
    with pytest.raises(ValueError, match="wrong shape"):
        project(state[:3], mesh, Basis2D(k), model)


def test_project_polynomial_round_trip():
    # any total-degree-3 polynomial is reproduced exactly by the k=3 space
    rng = np.random.default_rng(5)
    coefs = rng.normal(size=10)
    exps = [(a, b) for d in range(4) for a in range(d + 1) for b in [d - a]]

    def poly(x, y):
        out = sum(c * x**a * y**b for c, (a, b) in zip(coefs, exps))
        return out[..., None]

    mesh = _periodic_mesh(3)
    field = project(poly, mesh, Basis2D(3), AdvectionModel())
    for i, j, xi, eta in [(0, 0, 0.13, -0.41), (2, 1, -0.5, 0.5), (1, 2, 0.0, 0.27)]:
        x = mesh.x_centers[i] + xi * mesh.dx
        y = mesh.y_centers[j] + eta * mesh.dy
        got = evaluate_at_offsets(field, np.array([(xi, eta)]))[i, j, 0, 0]
        assert got == pytest.approx(poly(np.array(x), np.array(y))[0], abs=1e-12)


def test_project_sine_averages_in_bounds():
    mesh = _periodic_mesh(50)
    field = project(_sine, mesh, Basis2D(2), AdvectionModel())
    means = field.cell_averages
    assert means.min() >= -1.0 and means.max() <= 1.0


def test_evaluate_affine_reproduction():
    mesh = _periodic_mesh(5, 0.0, 1.0)
    field = project(lambda x, y: (x + 0.0 * y)[..., None], mesh, Basis2D(2), AdvectionModel())
    vals = evaluate_at_offsets(field, np.array([(0.25, -0.1)]))[..., 0, 0]
    expect = np.repeat((mesh.x_centers + 0.25 * mesh.dx)[:, None], mesh.ny, axis=1)
    np.testing.assert_allclose(vals, expect, rtol=0, atol=1e-13)


# ---------------------------------------------- residual vs mean-update oracle


def _mean_rate_oracle(field, alphas):
    """Flux-difference evolution of the cell averages, built only from point
    values taken straight from the modes and the face Gauss rule: an
    independent check on the mode-0 row of the weak-form residual."""
    from bpdg.physics import lax_friedrichs_flux

    mesh, basis, model = field.mesh, field.basis, field.model
    g = gauss_rule(basis.k + 1)
    nx, ny, m = mesh.nx, mesh.ny, model.m
    rate = np.zeros((nx, ny, m))
    for i in range(nx):
        for j in range(ny):
            for q, (node, w) in enumerate(zip(g.nodes, g.weights)):
                # x faces (periodic neighbors)
                u_m = _value_at(field, i, j, (0.5, node))
                u_p = _value_at(field, (i + 1) % nx, j, (-0.5, node))
                f_right = lax_friedrichs_flux(model, u_m, u_p, 0, alphas[0])
                u_m = _value_at(field, (i - 1) % nx, j, (0.5, node))
                u_p = _value_at(field, i, j, (-0.5, node))
                f_left = lax_friedrichs_flux(model, u_m, u_p, 0, alphas[0])
                rate[i, j] -= w * (f_right - f_left) / mesh.dx
                # y faces
                u_m = _value_at(field, i, j, (node, 0.5))
                u_p = _value_at(field, i, (j + 1) % ny, (node, -0.5))
                f_top = lax_friedrichs_flux(model, u_m, u_p, 1, alphas[1])
                u_m = _value_at(field, i, (j - 1) % ny, (node, 0.5))
                u_p = _value_at(field, i, j, (node, -0.5))
                f_bot = lax_friedrichs_flux(model, u_m, u_p, 1, alphas[1])
                rate[i, j] -= w * (f_top - f_bot) / mesh.dy
    return rate


def test_mean_equation_equivalence_advection():
    mesh = _periodic_mesh(10)
    field = project(_sine, mesh, Basis2D(2), AdvectionModel())
    alphas, values = global_max_speeds(field)
    rate = semidiscrete_residual(field, alphas, values)
    oracle = _mean_rate_oracle(field, alphas)
    np.testing.assert_allclose(rate[:, :, 0, :], oracle, atol=1e-13)


def test_mean_equation_equivalence_random_burgers():
    mesh = _periodic_mesh(6)
    basis = Basis2D(3)
    model = BurgersModel(BoxScalar(-2.0, 2.0))
    rng = np.random.default_rng(9)
    coeffs = 0.2 * rng.normal(size=(6, 6, basis.n_modes, 1))
    field = DGField(coeffs, basis, mesh, model)
    alphas, values = global_max_speeds(field)
    rate = semidiscrete_residual(field, alphas, values)
    oracle = _mean_rate_oracle(field, alphas)
    np.testing.assert_allclose(rate[:, :, 0, :], oracle, atol=1e-13)


def _einsum_residual(field, alphas):
    """The residual as first written, one einsum per evaluation and per
    quadrature sum: the oracle for the precomputed-matrix version.  It forms
    its own basis values (`mode_values`) and volume-point gradients (numpy's
    Legendre series) at the basis's quadrature points."""
    from numpy.polynomial import legendre

    from bpdg.physics import lax_friedrichs_flux

    mesh, basis, model = field.mesh, field.basis, field.model
    c = field.coeffs
    g = basis.face_rule
    lo, hi = np.full(len(g), -0.5), np.full(len(g), 0.5)
    phi_xm, phi_xp, phi_ym, phi_yp = (
        mode_values(basis.k, np.column_stack(xy))
        for xy in ((lo, g.nodes), (hi, g.nodes), (g.nodes, lo), (g.nodes, hi))
    )
    phi_vol = mode_values(basis.k, basis.vol_offsets)

    def scaled_legendre(n, x, der):  # d^der/dx^der of sqrt(2n+1) P_n(2x)
        return 2.0**der * legendre.legval(2.0 * x, legendre.legder(math.sqrt(2 * n + 1) * np.eye(n + 1)[n], der))

    xi, eta = basis.vol_offsets.T
    dphi_dxi_vol, dphi_deta_vol = (
        np.stack([scaled_legendre(a, xi, d_xi) * scaled_legendre(b, eta, 1 - d_xi) for a, b in basis.mode_exps])
        for d_xi in (1, 0)
    )

    def at(phi):
        return np.einsum("ijnc,nq->ijqc", c, phi, optimize=True)

    uxm, uxp, uym, uyp = (at(p) for p in (phi_xm, phi_xp, phi_ym, phi_yp))
    uvol = at(phi_vol)
    wv, wq = basis.vol_weights, basis.face_rule.weights
    rate = (
        np.einsum("ijgc,ng,g->ijnc", model.flux(uvol, 0), dphi_dxi_vol, wv, optimize=True) / mesh.dx
        + np.einsum("ijgc,ng,g->ijnc", model.flux(uvol, 1), dphi_deta_vol, wv, optimize=True) / mesh.dy
    )
    y_face = face_coords(mesh, True, basis.face_rule.nodes)
    x_face = face_coords(mesh, False, basis.face_rule.nodes)
    u_minus = np.concatenate([ghost_trace(mesh.bc_left, uxm[0], uxp[-1], y_face)[None], uxp], axis=0)
    u_plus = np.concatenate([uxm, ghost_trace(mesh.bc_right, uxp[-1], uxm[0], y_face)[None]], axis=0)
    fx = lax_friedrichs_flux(model, u_minus, u_plus, 0, alphas[0])
    rate -= (
        np.einsum("ijqc,nq,q->ijnc", fx[1:], phi_xp, wq, optimize=True)
        - np.einsum("ijqc,nq,q->ijnc", fx[:-1], phi_xm, wq, optimize=True)
    ) / mesh.dx
    u_minus = np.concatenate([ghost_trace(mesh.bc_bottom, uym[:, 0], uyp[:, -1], x_face)[:, None], uyp], axis=1)
    u_plus = np.concatenate([uym, ghost_trace(mesh.bc_top, uyp[:, -1], uym[:, 0], x_face)[:, None]], axis=1)
    fy = lax_friedrichs_flux(model, u_minus, u_plus, 1, alphas[1])
    rate -= (
        np.einsum("ijqc,nq,q->ijnc", fy[:, 1:], phi_yp, wq, optimize=True)
        - np.einsum("ijqc,nq,q->ijnc", fy[:, :-1], phi_ym, wq, optimize=True)
    ) / mesh.dy
    return rate


def _residual_cases():
    rng = np.random.default_rng(13)
    periodic = _periodic_mesh(7)
    outflow = Mesh2D(0.0, 1.0, 0.0, 2.0, 6, 5,
                     bc_left=OUTFLOW, bc_right=OUTFLOW, bc_bottom=OUTFLOW, bc_top=OUTFLOW)
    euler = EulerModel()
    jet = Mesh2D(0.0, 1.0, -0.5, 0.5, 6, 6, bc_left=InflowSegment(euler.conserved(5.0, 30.0, 0.0, 0.4127), -0.1, 0.1),
                 bc_right=OUTFLOW, bc_bottom=OUTFLOW, bc_top=OUTFLOW)
    for k in (2, 3):
        basis = Basis2D(k)
        coeffs = 0.3 * rng.normal(size=(7, 7, basis.n_modes, 1))
        yield DGField(coeffs, basis, periodic, AdvectionModel(c=(1.0, -0.7)))
        coeffs = 0.3 * rng.normal(size=(6, 5, basis.n_modes, 1))
        yield DGField(coeffs, basis, outflow, BurgersModel(BoxScalar(-2.0, 2.0)))
        coeffs = 0.01 * rng.normal(size=(6, 6, basis.n_modes, 4))
        coeffs[:, :, 0, :] = euler.conserved(5.0, 1.0, -2.0, 10.0)
        yield DGField(coeffs, basis, jet, euler)


@pytest.mark.parametrize("field", list(_residual_cases()), ids=lambda f: f"{f.model.name}-k{f.basis.k}")
def test_residual_matches_einsum_formula(field):
    alphas, values = global_max_speeds(field)
    expect = _einsum_residual(field, alphas)
    got = semidiscrete_residual(field, alphas, values)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-13 * np.abs(expect).max())
    # a fresh evaluation gives the same rate
    np.testing.assert_array_equal(semidiscrete_residual(field, alphas, point_values(field)), got)


def _linear_cases():
    """Advection on periodic, outflow and mixed meshes of 1 to 7 cells per
    axis at k = 2 and 3, for two velocities, with alpha = |c| and above."""
    rng = np.random.default_rng(29)
    kinds = {"periodic": (PERIODIC, PERIODIC), "outflow": (OUTFLOW, OUTFLOW),
             "x-periodic": (PERIODIC, OUTFLOW), "y-periodic": (OUTFLOW, PERIODIC)}
    for k in (2, 3):
        basis = Basis2D(k)
        for kind, (bx, by) in kinds.items():
            cases = []
            for nx in (1, 2, 3, 7):
                for ny in (1, 2, 3, 7):
                    mesh = Mesh2D(0.0, 1.0, -1.0, 0.5, nx, ny, bc_left=bx, bc_right=bx, bc_bottom=by, bc_top=by)
                    for c in ((1.0, -0.7), (-0.3, 0.0)):
                        for alphas in ((abs(c[0]), abs(c[1])), (abs(c[0]) + 0.4, abs(c[1]) + 0.25)):
                            coeffs = rng.normal(size=(nx, ny, basis.n_modes, 1))
                            cases.append((DGField(coeffs, basis, mesh, AdvectionModel(c)), alphas))
            yield pytest.param(cases, id=f"{kind}-k{k}")


@pytest.mark.parametrize("cases", list(_linear_cases()))
def test_linear_stencil_matches_einsum_formula(cases):
    """The advection residual, a block stencil on the coefficients, against
    the pointwise weak form (`_einsum_residual`), including meshes of one and
    two cells per axis where the boundary rows meet."""
    for field, alphas in cases:
        expect = _einsum_residual(field, alphas)
        got = semidiscrete_residual(field, alphas)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-13 * np.abs(expect).max(),
                                   err_msg=f"{field.mesh} c={field.model.c} alphas={alphas}")


def test_linear_stage_term_matches_rate_then_sum():
    """`semidiscrete_residual` with an SSP-RK stage term (a, b) = (alpha,
    dt beta), one application of the scaled stencil, against the arithmetic
    it replaced, a u + b rate, for every rated term of SSPRK3 and SSPRK4 at
    two time steps, on every `_linear_cases` mesh (periodic, outflow and
    mixed; k = 2 and 3).  Bound, per array: max|change| <= 16 eps (|a|
    max|u| + |b| max|rate|), the round-off of the term's two products and
    their sum; the largest seen is 2.2 eps times that sum."""
    eps = np.finfo(float).eps
    terms = [(alpha, beta) for scheme in (SSPRK3, SSPRK4) for stage in scheme.stages
             for alpha, beta, _ in stage if beta != 0.0]
    for param in _linear_cases():
        for field, alphas in param.values[0]:
            u, rate = field.coeffs, semidiscrete_residual(field, alphas)
            for dt in np.array([0.05, 0.3]) * min(field.mesh.dx, field.mesh.dy):
                for alpha, beta in terms:
                    a, b = alpha, dt * beta
                    expect = a * u + b * rate
                    got = semidiscrete_residual(field, alphas, term=(a, b))
                    bound = 16.0 * eps * (abs(a) * np.abs(u).max() + abs(b) * np.abs(rate).max())
                    assert np.abs(got - expect).max() <= bound, (field.mesh, a, b)


def _plan_cases():
    """Advection on periodic, outflow, mixed and inflow meshes of one shape,
    9 x 7 cells, at k = 2 and 3: per k, (kind, mesh, model, coeffs, alphas)."""
    rng = np.random.default_rng(31)
    kinds = {"periodic": (PERIODIC,) * 4, "outflow": (OUTFLOW,) * 4,
             "mixed": (PERIODIC, PERIODIC, OUTFLOW, OUTFLOW),
             "inflow": (InflowSegment(np.array([0.4]), -0.3, 0.2), OUTFLOW, OUTFLOW, OUTFLOW)}
    model = AdvectionModel(c=(0.8, -0.5))
    for k in (2, 3):
        n_modes = (k + 1) * (k + 2) // 2
        yield k, [(kind, Mesh2D(0.0, 1.0, -0.5, 0.5, 9, 7, *bcs), model, rng.normal(size=(9, 7, n_modes, 1)),
                   (0.8 + 0.1 * k, 0.5)) for kind, bcs in kinds.items()]


# the rates of pickled (k, mesh, model, coeffs, alphas, term) calls, each with a fresh basis
_FRESH_RATES = """
import pickle, sys
from bpdg.dg_core import Basis2D, DGField, semidiscrete_residual
with open(sys.argv[1], "rb") as f:
    calls = pickle.load(f)
rates = [semidiscrete_residual(DGField(coeffs, Basis2D(k), mesh, model), alphas, term=term)
         for k, mesh, model, coeffs, alphas, term in calls]
with open(sys.argv[2], "wb") as f:
    pickle.dump(rates, f)
"""


def test_boundary_plan_follows_the_mesh(tmp_path):
    """One basis per k rates advection on periodic, outflow, mixed and inflow
    meshes of one shape in turn, twice round, plainly and as a stage term,
    and so rebuilds its boundary plan (keyed by the mesh's identity) at
    every call.  Every plain rate matches `_einsum_residual` to the bound
    of `test_linear_stencil_matches_einsum_formula`, and every rate equals,
    bit for bit, its first round's and the one a fresh process computes
    with a fresh basis per mesh."""
    first, calls = {}, []
    for k, cases in _plan_cases():
        basis = Basis2D(k)
        for _ in range(2):
            for kind, mesh, model, coeffs, alphas in cases:
                field = DGField(coeffs, basis, mesh, model)
                for term in (None, (0.75, 0.01)):
                    rate = semidiscrete_residual(field, alphas, term=term)
                    assert basis._plan.mesh is mesh
                    key = (k, kind, term)
                    if key in first:
                        np.testing.assert_array_equal(rate, first[key], err_msg=str(key))
                        continue
                    first[key] = rate
                    calls.append((k, mesh, model, coeffs, alphas, term))
                    if term is None:
                        expect = _einsum_residual(field, alphas)
                        np.testing.assert_allclose(rate, expect, rtol=0, atol=1e-13 * np.abs(expect).max(),
                                                   err_msg=str(key))
    (tmp_path / "calls.pkl").write_bytes(pickle.dumps(calls))
    src = str(Path(dg_core.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-c", _FRESH_RATES, str(tmp_path / "calls.pkl"), str(tmp_path / "rates.pkl")],
                   check=True, env=env)
    fresh = pickle.loads((tmp_path / "rates.pkl").read_bytes())
    assert len(fresh) == len(first) == 16
    for (key, rate), other in zip(first.items(), fresh):
        np.testing.assert_array_equal(rate, other, err_msg=str(key))


def _former_linear_residual(field, alphas, term=None, magnitude=False):
    """The linear residual as it was before its neighbour terms were one gemm
    over each cell's stacked neighbours: one gemm gives C u, one more the
    four neighbour blocks' products P_d u and M_d u in every cell, and a
    cell adds the P_d product of its +e_d neighbour and the M_d product of
    its -e_d neighbour (on a periodic side the wrapped cell's); on any other
    side the ghost trace is assembled by the stencil's ghost matrices.  With
    `magnitude` every block, evaluation row, coefficient and inflow state is
    taken in absolute value: the sum |block| |u| of each entry, the scale
    of its round-off."""
    mesh, basis = field.mesh, field.basis
    stencil = basis.linear_stencil(field.model.c, alphas, (mesh.dx, mesh.dy), term)
    plan = basis.boundary_plan(mesh, field.coeffs.shape)
    size = np.abs if magnitude else np.asarray
    nx, ny, n, m = field.coeffs.shape
    flat = size(np.ascontiguousarray(field.coeffs.transpose(3, 2, 0, 1))).reshape(m, n, nx * ny)
    rate = np.matmul(size(stencil.centre), flat)
    blocks = np.concatenate(np.split(size(stencil.neighbours), 4, axis=1))  # P_x, M_x, P_y, M_y stacked
    products = np.matmul(blocks, flat).reshape(m, 4, n, nx * ny)
    for axis, shift, (first, last), (bc_lo, bc_hi, coords) in zip((0, 1), plan.shifts, plan.rows, plan.sides):
        plus, minus = products[:, 2 * axis], products[:, 2 * axis + 1]
        wrap_plus, wrap_minus = plus[first].copy(), minus[last].copy()
        plus[first] = 0.0
        minus[last] = 0.0
        rate[..., :-shift] += plus[..., shift:]
        rate[..., shift:] += minus[..., :-shift]
        if bc_lo == PERIODIC:
            rate[last] += wrap_plus
            rate[first] += wrap_minus
            continue
        for bc, row, at, assemble in zip((bc_lo, bc_hi), (first, last), basis.at_faces[axis],
                                         (stencil.ghost_lo[axis], stencil.ghost_hi[axis])):
            own = np.matmul(size(basis.eval_matrix[at]), flat[row]).transpose(2, 1, 0)
            if magnitude and isinstance(bc, InflowSegment):
                bc = InflowSegment(np.abs(bc.state), bc.lo, bc.hi)
            ghost = ghost_trace(bc, own, None, coords)
            rate[row] += np.matmul(size(assemble), ghost.transpose(2, 1, 0))
    return rate.reshape(m, n, nx, ny).transpose(2, 3, 1, 0)


def test_linear_residual_matches_the_former_products_then_shift():
    """The residual that sums the neighbour terms in one gemm over each
    cell's stacked neighbours against the products-then-shift one it
    replaced (`_former_linear_residual`), on every `_linear_cases` and
    `_plan_cases` mesh: periodic, outflow, mixed and inflow sides, 1 to 9
    cells per axis, k = 2 and 3, plainly and as every rated SSPRK3 stage
    term.  Bound, per entry: 8 eps sum |block| |u|, the former residual
    in absolute values; the largest seen is 1.9 eps times that sum."""
    eps = np.finfo(float).eps
    fields = [case for param in _linear_cases() for case in param.values[0]]
    for k, cases in _plan_cases():
        fields += [(DGField(coeffs, Basis2D(k), mesh, model), alphas) for _, mesh, model, coeffs, alphas in cases]
    assert {f.mesh.sides for f, _ in fields} >= {((PERIODIC,) * 2, (OUTFLOW,) * 2), ((OUTFLOW,) * 2,) * 2}
    assert any(isinstance(f.mesh.sides[0][0], InflowSegment) for f, _ in fields)
    for field, alphas in fields:
        dt = 0.3 * min(field.mesh.dx, field.mesh.dy)
        for term in [None] + [(alpha, dt * beta) for stage in SSPRK3.stages for alpha, beta, _ in stage if beta]:
            got = semidiscrete_residual(field, alphas, term=term)
            scale = _former_linear_residual(field, alphas, term, magnitude=True)
            change = np.abs(got - _former_linear_residual(field, alphas, term))
            assert np.all(change <= 8.0 * eps * scale), (field.mesh, field.basis.k, term)


def test_advection_run_builds_its_run_constant_state_once(monkeypatch):
    """The advection desk run to t_end 0.75 builds one boundary plan (one
    `_sides` call per axis) for its one mesh and one schedule for its
    scheme, and no residual call builds either: its 450 residual calls
    read them from the basis and the scheme."""
    counts = dict.fromkeys(("plan", "sides", "schedule", "residual"), 0)

    def counted(name, f):
        def call(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return call

    monkeypatch.setattr(dg_core, "BoundaryPlan", counted("plan", dg_core.BoundaryPlan))
    monkeypatch.setattr(dg_core, "_sides", counted("sides", dg_core._sides))
    monkeypatch.setattr(dg_core, "semidiscrete_residual", counted("residual", dg_core.semidiscrete_residual))
    schedule = SspScheme.__dict__["schedule"]
    monkeypatch.setattr(schedule, "func", counted("schedule", schedule.func))
    # a scheme whose schedule no earlier run built
    monkeypatch.setitem(dg_core.SCHEMES, "ssprk3", SspScheme(SSPRK3.name, SSPRK3.stages))
    report = run(replace(parse_config(CONFIG_DIR / "advection_desk.cfg"), t_end=0.75), write_outputs=False)
    assert report.steps == 150
    assert counts == {"plan": 1, "sides": 2, "schedule": 1, "residual": 3 * report.steps}


def test_only_a_linear_flux_takes_a_stage_term():
    burgers = list(_residual_cases())[1]
    assert burgers.model.name == "burgers2d"
    alphas, values = global_max_speeds(burgers)
    with pytest.raises(ValueError, match="linear flux"):
        semidiscrete_residual(burgers, alphas, values, term=(1.0, 0.1))


def _rate_then_sum_step(field, scheme, dt):
    """An unlimited SSP-RK step as it was before a linear stage term was one
    stencil application: each state rated once, each stage summed from zeros
    as alpha u, then dt beta rate, term by term.  Returns the new
    coefficients and the round-off scale of the sums, the sum over every
    term of |alpha| max|u| + |dt beta| max|rate|."""
    alphas, _ = global_max_speeds(field)
    states, rates, scale = [field.coeffs], {}, 0.0
    for stage in scheme.stages:
        for _, beta, idx in stage:
            if beta != 0.0 and idx not in rates:
                rates[idx] = semidiscrete_residual(field.like(states[idx]), alphas)
        new = np.zeros_like(field.coeffs)
        for alpha, beta, idx in stage:
            new += alpha * states[idx]
            scale += abs(alpha) * np.abs(states[idx]).max()
            if beta != 0.0:
                new += dt * beta * rates[idx]
                scale += abs(dt * beta) * np.abs(rates[idx]).max()
        states.append(new)
    return states[-1], scale


@pytest.mark.parametrize("scheme", [SSPRK3, SSPRK4], ids=["ssprk3", "ssprk4"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", ["periodic", "outflow", "mixed", "inflow"])
def test_linear_ssp_step_is_one_stage_term_per_stage(monkeypatch, kind, k, scheme):
    """A linear step makes one residual call per stage.  Each returns its
    stage term, but for a state two stages rate (SSPRK4's stage-3 state,
    read with beta 0.545 by stage 4 and 0.0637 by stage 5), which is rated
    once, without a term, and summed.  The step matches the rate-then-sum
    step to max|change| <= 16 eps times the round-off scale of its sums."""
    bcs = {"periodic": (PERIODIC,) * 4, "outflow": (OUTFLOW,) * 4, "mixed": (PERIODIC, PERIODIC, OUTFLOW, OUTFLOW),
           "inflow": (InflowSegment(np.array([0.4]), -0.3, 0.2), OUTFLOW, OUTFLOW, OUTFLOW)}[kind]
    mesh = Mesh2D(0.0, 1.0, -0.5, 0.5, 9, 7, *bcs)
    basis = Basis2D(k)
    coeffs = np.random.default_rng(k).normal(size=(9, 7, basis.n_modes, 1))
    field = DGField(coeffs, basis, mesh, AdvectionModel(c=(0.8, -0.5)))
    dt = 0.2 * mesh.dy
    terms = []
    residual = dg_core.semidiscrete_residual

    def recorded(state, alphas, values=None, term=None):
        terms.append(term)
        return residual(state, alphas, values, term)

    monkeypatch.setattr(dg_core, "semidiscrete_residual", recorded)
    got, _, _ = ssp_step(field, scheme, dt)
    monkeypatch.undo()
    expect = [(alpha, dt * beta) for stage in scheme.stages for alpha, beta, idx in stage if beta != 0.0]
    if scheme is SSPRK4:
        assert expect[3:5] == [(SSPRK4.stages[3][1][0], dt * SSPRK4.stages[3][1][1]),
                               (SSPRK4.stages[4][1][0], dt * SSPRK4.stages[4][1][1])]
        expect[3:5] = [None]  # state 3: one plain rate for both stages
    assert terms == expect and len(terms) == len(scheme.stages)
    ref, scale = _rate_then_sum_step(field, scheme, dt)
    assert np.abs(got.coeffs - ref).max() <= 16.0 * np.finfo(float).eps * scale


def _no_stacked_evaluation(*args):
    raise AssertionError("an advection state was evaluated at the stacked points")


@pytest.mark.parametrize("bc, k, scheme", [(PERIODIC, 2, "ssprk3"), (OUTFLOW, 3, "ssprk4")])
def test_advection_run_matches_the_pointwise_run(tmp_path, monkeypatch, bc, k, scheme):
    """A whole limited advection run through the block stencil against the
    same run with the flux taken as nonlinear, i.e. through the pointwise
    residual and speed pass: the same steps and limiter counts, and cell
    means equal to round-off.  The stencil run never evaluates a state at
    the stacked points: not in `cli.run`, nor in an `ssp_step` (SSPRK3 and
    SSPRK4), where only the BP limiter evaluates, at its own nodes."""
    cfg = RunConfig(nx=12, ny=10, k=k, scheme=scheme, bc=bc, t_end=0.3, advection_cy=-0.6,
                    limiter_bp=True, tvb_m=50.0)
    monkeypatch.setattr(Basis2D, "stacked_values", _no_stacked_evaluation)
    stencil = run(replace(cfg, out_dir=str(tmp_path / "stencil")))
    monkeypatch.undo()
    monkeypatch.setattr(dg_core, "linear_flux", lambda model: False)
    pointwise = run(replace(cfg, out_dir=str(tmp_path / "pointwise")))
    assert stencil.steps == pointwise.steps > 0
    assert stencil.limiting.cells_limited == pointwise.limiting.cells_limited > 0
    assert stencil.limiting.troubled_cells == pointwise.limiting.troubled_cells
    snapshot = f"field_{stencil.t_final:.6f}.csv"
    means = [np.loadtxt(tmp_path / side / snapshot, delimiter=",", skiprows=1)[:, 4]
             for side in ("stencil", "pointwise")]
    np.testing.assert_allclose(means[0], means[1], rtol=0, atol=1e-13)


def _planes_contiguous(a):
    """Whether every component plane of `a` (cells..., points, m) is one
    C-contiguous block, i.e. the memory is component-major, points-major."""
    return np.moveaxis(a, (-1, -2), (0, 1)).flags.c_contiguous


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("k", [2, 3])
def test_apply_matrix_matches_former_kernels(k, m):
    """The kernels apply_matrix had before its single layout, bit for bit
    (k = 3's volume sums to round-off): a 2D gemm with a points-major result
    for scalar fields, numpy's batched matmul of per-cell products for
    systems."""
    basis = Basis2D(k)
    coeffs = np.random.default_rng(10 * k + m).normal(size=(12, 7, basis.n_modes, m))
    stacked = apply_matrix(basis.eval_matrix, coeffs)
    flux = stacked[:, :, basis.at_vol] ** 2  # component-major, as the model's fluxes are
    terms = {
        "evaluation": (basis.eval_matrix, coeffs),
        "volume": (basis.assemble_vol[0], flux),
        "face": (basis.assemble_faces[0][1], stacked[:, :, basis.at_faces[0][1]]),
        "C-ordered": (basis.assemble_vol[1], np.ascontiguousarray(flux)),
    }
    for name, (matrix, x) in terms.items():
        got = apply_matrix(matrix, x)
        assert _planes_contiguous(got), name
        if m == 1:
            nx, ny, b, _ = x.shape
            former = (matrix @ x.reshape(nx * ny, b).T).reshape(-1, nx, ny, 1).transpose(1, 2, 0, 3)
        else:
            former = np.matmul(matrix, x)
        if k == 3 and name in ("volume", "C-ordered"):
            # the 16-term volume sums are not bit-stable across BLAS calls:
            # at some grid sizes OpenBLAS accumulates a per-cell product, a
            # transposed operand and one large gemm differently in the last
            # bit, so k = 3 moves by round-off (within the dot-product bound)
            bound = x.shape[2] * np.finfo(float).eps * np.matmul(np.abs(matrix), np.abs(x)).max()
            np.testing.assert_allclose(got, former, rtol=0, atol=bound, err_msg=name)
        else:
            np.testing.assert_array_equal(got, former, err_msg=name)


@pytest.mark.parametrize("field", [f for f in _residual_cases() if not isinstance(f.model, AdvectionModel)],
                         ids=lambda f: f"{f.model.name}-k{f.basis.k}")
def test_point_values_keep_component_planes_contiguous(field, formed_ghosts):
    """Stacked values, the ghost traces the flux forms (outflow and inflow
    sides) and their pressures, and both interface-flux arrays hold each
    component plane in one block."""
    basis, model = field.basis, field.model
    values = point_values(field)
    assert _planes_contiguous(values.stacked)
    ghosts, ghost_pressures = formed_ghosts(field, values)
    assert len(ghosts) == 4 and all(_planes_contiguous(g) for g in ghosts)
    if isinstance(model, EulerModel):
        assert isinstance(field.mesh.bc_left, InflowSegment)
        assert _planes_contiguous(values.pressure[..., None])
        assert len(ghost_pressures) == 4 and all(_planes_contiguous(p[..., None]) for p in ghost_pressures)
    alphas, _ = global_max_speeds(field, values)
    for axis in (0, 1):
        assert _planes_contiguous(_interface_flux(field, values, axis, alphas[axis]))
    assert _planes_contiguous(model.flux(values.stacked[:, :, basis.at_vol], 0, None))


def _euler_cases():
    """Euler fields on an inflow/outflow mesh and a periodic one, k = 2 and 3."""
    rng = np.random.default_rng(17)
    euler = EulerModel()
    jet = Mesh2D(0.0, 1.0, -0.5, 0.5, 6, 6, bc_left=InflowSegment(euler.conserved(5.0, 30.0, 0.0, 0.4127), -0.1, 0.1),
                 bc_right=OUTFLOW, bc_bottom=OUTFLOW, bc_top=OUTFLOW)
    for k in (2, 3):
        basis = Basis2D(k)
        for mesh in (jet, _periodic_mesh(6)):
            coeffs = 0.01 * rng.normal(size=(6, 6, basis.n_modes, 4))
            coeffs[:, :, 0, :] = euler.conserved(5.0, 1.0, -2.0, 10.0)
            yield DGField(coeffs, basis, mesh, euler)


@pytest.mark.parametrize("field", list(_euler_cases()),
                         ids=lambda f: f"{'periodic' if f.mesh.bc_left == PERIODIC else 'inflow'}-k{f.basis.k}")
def test_carried_pressure_changes_no_bit(field, formed_ghosts):
    values = point_values(field)
    model = field.model
    np.testing.assert_array_equal(values.pressure, model.pressure(values.stacked))
    # the flux forms each ghost's pressure as the ghost: the same bits as the
    # pressure of the ghost itself
    ghosts, ghost_pressures = formed_ghosts(field, values)
    assert len(ghost_pressures) == 4
    for ghost, p in zip(ghosts, ghost_pressures):
        np.testing.assert_array_equal(p, model.pressure(ghost))
    # the same points without their pressure: every reader computes its own
    bare = PointValues(values.stacked)
    assert formed_ghosts(field, bare)[1] == ()
    assert global_max_speeds(field, values)[0] == global_max_speeds(field, bare)[0]
    alphas, _ = global_max_speeds(field)
    np.testing.assert_array_equal(semidiscrete_residual(field, alphas, values),
                                  semidiscrete_residual(field, alphas, bare))


def _former_max_speeds(field, values):
    """The speed pass as it was while point values carried four ghost traces:
    the maximum over the stacked values and every full ghost trace."""
    mesh, basis, model = field.mesh, field.basis, field.model
    y_face, x_face = (face_coords(mesh, along_y, basis.face_rule.nodes) for along_y in (True, False))

    def ghosts(a, of_state=None):
        xm, xp, ym, yp = (a[:, :, at] for pair in basis.at_faces for at in pair)
        return (ghost_trace(mesh.bc_left, xm[0], xp[-1], y_face, of_state),
                ghost_trace(mesh.bc_right, xp[-1], xm[0], y_face, of_state),
                ghost_trace(mesh.bc_bottom, ym[:, 0], yp[:, -1], x_face, of_state),
                ghost_trace(mesh.bc_top, yp[:, -1], ym[:, 0], x_face, of_state))

    u, p = values.stacked, values.pressure
    a1 = a2 = 0.0
    for pts, q in zip((u, *ghosts(u)), (p, *ghosts(p, model.pressure))):
        s1, s2 = model.max_wave_speeds(pts, q)
        a1, a2 = max(a1, s1), max(a2, s2)
    return a1, a2


def _speed_cases():
    """Euler fields on periodic, outflow and inflow meshes at k = 2 and 3; the
    inflow segments cover one left-face point or all of them, and their state
    is the fastest along x (the interior's along y)."""
    rng = np.random.default_rng(23)
    euler = EulerModel()
    jet = euler.conserved(5.0, 30.0, 0.0, 0.4127)
    outflow = dict.fromkeys(("bc_left", "bc_right", "bc_bottom", "bc_top"), OUTFLOW)
    base = Mesh2D(0.0, 1.0, -0.5, 0.5, 6, 5, **outflow)
    for k in (2, 3):
        basis = Basis2D(k)
        one = face_coords(base, True, basis.face_rule.nodes)[2, 1]
        meshes = {"periodic": Mesh2D(0.0, 1.0, -0.5, 0.5, 6, 5), "outflow": base,
                  "inflow-one-point": Mesh2D(0.0, 1.0, -0.5, 0.5, 6, 5,
                                             **{**outflow, "bc_left": InflowSegment(jet, one, one)}),
                  "inflow-all-points": Mesh2D(0.0, 1.0, -0.5, 0.5, 6, 5,
                                              **{**outflow, "bc_left": InflowSegment(jet, -0.5, 0.5)})}
        for name, mesh in meshes.items():
            coeffs = 0.01 * rng.normal(size=(6, 5, basis.n_modes, 4))
            coeffs[:, :, 0, :] = euler.conserved(5.0, 1.0, -2.0, 10.0)
            yield pytest.param(DGField(coeffs, basis, mesh, euler), id=f"{name}-k{k}")


@pytest.mark.parametrize("field", list(_speed_cases()))
def test_speeds_equal_the_maximum_over_full_ghost_traces(field):
    """The speed pass reads the stacked values and each inflow state; the
    maximum is the same bits as the one over the stacked values and all
    four ghost traces, when every inflow segment covers a face point."""
    bc = field.mesh.bc_left
    if isinstance(bc, InflowSegment):
        covered = bc.covers(face_coords(field.mesh, True, field.basis.face_rule.nodes))
        assert covered.sum() in (1, covered.size)
    values = point_values(field)
    speeds, read = global_max_speeds(field, values)
    assert speeds == _former_max_speeds(field, values) and read is values
    assert global_max_speeds(field)[0] == speeds


def _limited_jet(n=(12, 6), k=2):
    model = EulerModel()
    inflow = InflowSegment(model.conserved(5.0, 30.0, 0.0, 0.4127), -0.1, 0.1)
    mesh = Mesh2D(0.0, 2.0, -0.5, 0.5, *n, bc_left=inflow, bc_right=OUTFLOW,
                  bc_bottom=OUTFLOW, bc_top=OUTFLOW)
    field = project(lambda x, y: np.broadcast_to(model.conserved(5.0, 0.0, 0.0, 0.4127),
                                                 np.broadcast_shapes(x.shape, y.shape) + (4,)).copy(),
                    mesh, Basis2D(k), model)
    speeds, _ = global_max_speeds(field)
    ratios = SpeedRatios((speeds[0] / mesh.dx, speeds[1] / mesh.dy))
    chain = LimiterChain(build_node_set(optimal_2d(k, ratios), field.basis, model.region), m_tvb=1.0)
    field, _, values = chain(field)
    return field, values, chain


def test_euler_pressure_computed_once_per_rk_state(monkeypatch):
    field, values, chain = _limited_jet()
    assert values is not None  # returned by the limiter
    model = field.model
    nx, ny = field.mesh.nx, field.mesh.ny
    # the limiter's two node blocks: the stacked rows and the internal nodes off them
    n_stacked = len(field.basis.eval_matrix)
    at_nodes = [(n_stacked, nx, ny), (len(chain.node_set) - n_stacked, nx, ny)]
    assert at_nodes[1][0] > 0
    stacked_shape = point_values(field).stacked.shape[:3]
    calls = []
    pressure = model.pressure

    def counted(u):
        calls.append(u.shape[:-1])
        return pressure(u)

    monkeypatch.setattr(model, "pressure", counted)
    (speeds, values), spacings = global_max_speeds(field, values), (field.mesh.dx, field.mesh.dy)
    dt = step_controller(optimal_2d(2, speed_ratios(speeds, spacings)), SSPRK3, speeds, spacings)
    _, limited, _ = ssp_step(field, SSPRK3, dt, chain, (speeds, values))
    # one full pass per limited stage state, at its limiter nodes, whose
    # stacked rows the next residual reuses; the step's start state reuses
    # the values of its own limiting
    assert all(calls.count(shape) == 3 for shape in at_nodes) and stacked_shape not in calls
    # no pass over a whole ghost trace: an outflow ghost's pressure is copied
    # from the interior face slice, and the inflow ghost's takes the inflow
    # state's pressure at its inflow points
    q = len(field.basis.face_rule)
    assert (ny, q) not in calls and (nx, q) not in calls
    assert () in calls
    # the others cover one state per cell at most: the limiter's check of
    # the cell means and the boundary traces (no stage is BP-limited here)
    assert all(np.prod(c) <= nx * ny for c in calls if c not in at_nodes)
    assert limited is not None
    # without a limiter each of the three evaluated states computes it once
    smooth = next(_euler_cases())
    monkeypatch.setattr(smooth.model, "pressure", counted)
    stacked_shape = point_values(smooth).stacked.shape[:3]
    calls.clear()
    _, plain, stages = ssp_step(smooth, SSPRK3, 1e-5)
    assert calls.count(stacked_shape) == 3 and plain is None and stages == []
    # a step whose stages are BP-limited (rough data, no TVB): per limiting one
    # full pass per node block, and at most one call on the limited cells'
    # nodes of both blocks at once, (all rows, cells), besides the cell means
    # and the crossings' (nodes,) checks
    chain = LimiterChain(chain.node_set)
    rough = field.copy()
    rough.coeffs[:, :, 1:, :] = 0.6 * np.random.default_rng(3).normal(size=rough.coeffs[:, :, 1:, :].shape)
    rough.coeffs[:, :, 1:, :] *= np.abs(rough.coeffs[:, :, :1, :])
    monkeypatch.setattr(model, "pressure", pressure)
    rough, _, values = chain(rough)
    limitings, bp_limit = [], limiters.bp_scaling_limit

    def recorded(*args):
        start = len(calls)
        out = bp_limit(*args)
        limitings.append((calls[start:], out[1]))
        return out

    monkeypatch.setattr(limiters, "bp_scaling_limit", recorded)
    monkeypatch.setattr(model, "pressure", counted)
    (speeds, values), spacings = global_max_speeds(rough, values), (rough.mesh.dx, rough.mesh.dy)
    dt = step_controller(optimal_2d(2, speed_ratios(speeds, spacings)), SSPRK3, speeds, spacings)
    ssp_step(rough, SSPRK3, dt, chain, (speeds, values))
    assert len(limitings) == 3 and sum(diag.cells_limited for _, diag in limitings) > 3
    compact_calls = 0
    for seen, diag in limitings:
        assert [c for c in seen if len(c) == 3] == at_nodes
        compact = [c for c in seen if len(c) == 2 and c[0] == len(chain.node_set)]
        assert len(compact) <= 1 and all(c[1] <= diag.cells_limited for c in compact)
        assert all(len(c) == 1 or c in compact or c in at_nodes or c == (nx, ny) for c in seen)
        compact_calls += len(compact)
    assert compact_calls > 0


def _step_data(x, y):
    # jump placed inside a cell so the projection carries a steep slope
    return np.where(np.broadcast_to(x, np.broadcast_shapes(x.shape, y.shape)) < 0.47, 0.8, -1.0)[..., None]


def test_coefficients_stay_component_major():
    """Every coefficient array is a view of (m, n_modes, nx, ny) C memory,
    the layout apply_matrix reads without a copy: after projection, copy,
    SSP-RK steps, and limiting that changes cells."""
    field = project(_sine, _periodic_mesh(8), Basis2D(2), AdvectionModel())
    assert _planes_contiguous(field.coeffs) and _planes_contiguous(field.copy().coeffs)
    assert _planes_contiguous(semidiscrete_residual(field, (1.0, 1.0)))
    for scheme in (SSPRK3, SSPRK4):
        assert _planes_contiguous(ssp_step(field, scheme, 1e-3)[0].coeffs), scheme.name
    # TVB with troubled cells, box BP limiting that limits
    outflow = Mesh2D(0.0, 1.0, 0.0, 1.0, 16, 16,
                     bc_left=OUTFLOW, bc_right=OUTFLOW, bc_bottom=OUTFLOW, bc_top=OUTFLOW)
    region = BoxScalar(-1.0, 0.8)
    shock = project(_step_data, outflow, Basis2D(2), BurgersModel(region))
    tvb, troubled = tvb_minmod_limit(shock.copy(), 1.0)
    assert troubled > 0 and _planes_contiguous(tvb.coeffs)
    box, diag, _ = bp_scaling_limit(shock, region,
                                    build_node_set(optimal_2d(2, SpeedRatios((1.0, 1.0))), shock.basis, region))
    assert diag.cells_limited > 0 and _planes_contiguous(box.coeffs)
    # Euler BP limiting that limits, and a jet step through the whole chain
    jet, values, chain = _limited_jet()
    assert _planes_contiguous(ssp_step(jet, SSPRK3, 1e-5, chain, global_max_speeds(jet, values))[0].coeffs)
    rough = jet.copy()
    rough.coeffs[:, :, 1:, :] = 0.6 * np.random.default_rng(3).normal(size=rough.coeffs[:, :, 1:, :].shape)
    rough.coeffs[:, :, 1:, :] *= np.abs(rough.coeffs[:, :, :1, :])
    limited, diag, _ = bp_scaling_limit(rough, EulerPositivity(), chain.node_set)
    assert diag.cells_limited > 0 and _planes_contiguous(limited.coeffs)


def test_small_jet_step_memory_budget():
    """tracemalloc peak of one limited SSPRK3 step on a 24x12 jet.  The
    budget is the peak measured before the coefficients were held
    component-major and dead stage states and rates dropped (840,800 bytes
    with numpy 2.4; 730,520 since): an extra array of stacked values or a
    stacked flux buffer held through a stage shows here."""
    field, values, chain = _limited_jet((24, 12))
    (speeds, values), spacings = global_max_speeds(field, values), (field.mesh.dx, field.mesh.dy)
    dt = step_controller(optimal_2d(2, speed_ratios(speeds, spacings)), SSPRK3, speeds, spacings)
    ssp_step(field.copy(), SSPRK3, dt, chain)  # fill the caches first
    tracemalloc.start()
    try:
        ssp_step(field, SSPRK3, dt, chain, (speeds, values))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 840_800, peak


def test_small_advection_step_memory_budget():
    """tracemalloc figures of box-limited SSPRK3 steps of advection on a
    24x12 periodic mesh, traced from before the step that builds the
    basis's stencils and boundary plan.
    - What that step leaves allocated once its result is dropped: the
      stencils and the plan, under half of one stacked-neighbours operand
      (4 n_modes nx ny doubles).  A buffer kept between residual calls
      shows here; a reused neighbour-products buffer left 71,058 bytes.
    - The peak of the next step, that included: at most the highest peak
      of three test orders (the test alone, in this file, and in the fast
      suite) since the residual drops its stacked operand before the
      centre product: 115,786 bytes with Python 3.11 and numpy 2.4
      (147,298 before, with a neighbour-products array)."""
    mesh = Mesh2D(-1.0, 1.0, -1.0, 1.0, 24, 12)
    model = AdvectionModel(c=(1.0, -0.5))
    field = project(_sine, mesh, Basis2D(2), model)
    (speeds, _), spacings = global_max_speeds(field), (mesh.dx, mesh.dy)
    decomp = optimal_2d(2, speed_ratios(speeds, spacings))
    chain = LimiterChain(build_node_set(decomp, field.basis, model.region))
    dt = step_controller(decomp, SSPRK3, speeds, spacings)
    tracemalloc.start()
    try:
        _, _, stages = ssp_step(field.copy(), SSPRK3, dt, chain)  # fills the caches
        assert sum(diag.cells_limited for diag in stages) > 0
        del stages
        kept = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ssp_step(field, SSPRK3, dt, chain, (speeds, None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept < 4 * field.basis.n_modes * mesh.nx * mesh.ny * 8 // 2, kept
    assert peak <= 115_786, peak


def _root(a: np.ndarray) -> np.ndarray:
    """The array that owns `a`'s memory."""
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before Python 3.11 a caller's frame holds a call's arguments until it returns")
def test_step_start_values_die_before_stage_1(monkeypatch):
    """`cli.run` keeps no reference to the step-start point values it hands
    to `ssp_step`: on a small jet, the memory of each step's stacked values
    is freed before stage 1's residual runs, stage 0's rate having read
    them last."""
    refs, residuals, dead = [], [], []
    speed_pass, residual = cli.global_max_speeds, dg_core.semidiscrete_residual

    def recorded_pass(field, values=None):
        speeds, values = speed_pass(field, values)
        refs.append(weakref.ref(_root(values.stacked)))
        residuals.clear()
        return speeds, values

    def recorded_residual(*args, **kwargs):
        residuals.append(None)
        if len(residuals) == 2:  # stage 1's
            dead.append(refs[-1]() is None)
        return residual(*args, **kwargs)

    monkeypatch.setattr(cli, "global_max_speeds", recorded_pass)
    monkeypatch.setattr(dg_core, "semidiscrete_residual", recorded_residual)
    jet = replace(parse_config(CONFIG_DIR / "mach80_jet_desk.cfg"), nx=24, ny=12, t_end=0.002)
    report = run(jet, write_outputs=False)
    assert report.steps > 3 and dead == [True] * report.steps


def test_constant_field_zero_rate():
    mesh = _periodic_mesh(8)
    basis = Basis2D(2)
    model = AdvectionModel()
    coeffs = np.zeros((8, 8, basis.n_modes, 1))
    coeffs[:, :, 0, 0] = 0.37
    field = DGField(coeffs, basis, mesh, model)
    rate = semidiscrete_residual(field, (1.0, 1.0))
    np.testing.assert_allclose(rate, 0.0, atol=1e-13)


def test_burgers_shock_field_finite_rates():
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, 10, 10,
                  bc_left=OUTFLOW, bc_right=OUTFLOW, bc_bottom=OUTFLOW, bc_top=OUTFLOW)
    model = BurgersModel(BoxScalar(-1.0, 0.8))

    def step_data(x, y):
        return np.where(np.broadcast_to(x, np.broadcast_shapes(x.shape, y.shape)) < 0.5,
                        0.8, -1.0)[..., None]

    field = project(step_data, mesh, Basis2D(2), model)
    alphas, values = global_max_speeds(field)
    rate = semidiscrete_residual(field, alphas, values)
    assert np.all(np.isfinite(rate))


def test_conservation_over_a_step():
    mesh = _periodic_mesh(12)
    model = BurgersModel(BoxScalar(-2.0, 2.0))
    field = project(lambda x, y: (0.5 * np.sin(np.pi * (x + y)))[..., None],
                    mesh, Basis2D(2), model)
    total0 = field.cell_averages.sum()
    stepped, _, _ = ssp_step(field, SSPRK3, 1e-3)
    total1 = stepped.cell_averages.sum()
    assert abs(total1 - total0) <= 1e-12 * max(1.0, abs(total0))


# ----------------------------------------------------------- time stepping


def test_ssp_coefficients():
    assert SSPRK3.ssp_coefficient == pytest.approx(1.0, abs=1e-14)
    assert SSPRK4.ssp_coefficient == pytest.approx(1.508, abs=1e-3)


def test_ssp_step_constant_identity():
    mesh = _periodic_mesh(6)
    basis = Basis2D(2)
    coeffs = np.zeros((6, 6, basis.n_modes, 1))
    coeffs[:, :, 0, 0] = -0.2
    field = DGField(coeffs, basis, mesh, AdvectionModel())
    for scheme in (SSPRK3, SSPRK4):
        out, _, _ = ssp_step(field, scheme, 0.01)
        np.testing.assert_allclose(out.coeffs, field.coeffs, atol=1e-13)


def test_wave_speeds_evaluated_once_per_rk_state(monkeypatch):
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, 8, 8,
                  bc_left=OUTFLOW, bc_right=OUTFLOW, bc_bottom=OUTFLOW, bc_top=OUTFLOW)
    model = BurgersModel(BoxScalar(-2.0, 2.0))
    field = project(lambda x, y: (0.5 * np.sin(np.pi * (x + y)))[..., None], mesh, Basis2D(2), model)
    calls = []
    speeds_of = model.max_wave_speeds

    def counted(u, p=None):
        calls.append(u.shape)
        return speeds_of(u, p)

    monkeypatch.setattr(model, "max_wave_speeds", counted)
    plain, _, _ = ssp_step(field, SSPRK3, 1e-3)
    # one two-axis pass per RK state, over its stacked values: an outflow
    # ghost is a copy of stacked face rows, already in their maximum
    stacked_shape = point_values(field).stacked.shape
    assert calls == [stacked_shape] * 3
    # a speed pass the caller already made is not made again
    start = global_max_speeds(field)
    calls.clear()
    reused, _, _ = ssp_step(field, SSPRK3, 1e-3, start=start)
    assert calls == [stacked_shape] * 2
    np.testing.assert_array_equal(reused.coeffs, plain.coeffs)
    # advection under SSPRK4, whose stage-3 state two stages rate: one pass
    # per RK state too, over its coefficients (a linear flux evaluates none)
    advection = AdvectionModel(c=(1.0, -0.5))
    field = project(lambda x, y: (0.5 * np.sin(np.pi * (x + y)))[..., None], mesh, Basis2D(2), advection)
    calls.clear()
    speeds_of = advection.max_wave_speeds  # the one `counted` calls from here on
    monkeypatch.setattr(advection, "max_wave_speeds", counted)
    ssp_step(field, SSPRK4, 1e-3)
    assert calls == [field.coeffs.shape] * len(SSPRK4.stages)


def _smooth_field(model, n=6):
    """A smooth admissible field of `model` on a periodic mesh."""
    if model.m == 1:
        return project(lambda x, y: (0.5 * _sine(x, y)), _periodic_mesh(n), Basis2D(2), model)

    def u0(x, y):
        rho = 1.0 + 0.2 * np.sin(np.pi * (x + y))
        return np.stack(np.broadcast_arrays(rho, 0.1 * rho, -0.2 * rho, 2.0 + 0 * rho), axis=-1)

    return project(u0, _periodic_mesh(n), Basis2D(2), model)


@pytest.mark.parametrize(
    "model, bad",
    [(AdvectionModel(), "nan"), (BurgersModel(BoxScalar(-1.0, 1.0)), "nan"), (EulerModel(), "nan"),
     (EulerModel(), "negative-pressure")],
    ids=["advection-nan", "burgers-nan", "euler-nan", "euler-negative-pressure"],
)
def test_inadmissible_state_raises_through_ssp_step(model, bad):
    field = _smooth_field(model)
    if bad == "nan":
        field.coeffs[2, 3, 1, 0] = np.nan
    else:
        field.coeffs[2, 3, 0, 3] = 0.0  # E below the kinetic energy: p < 0 at every point
    with pytest.raises(AdmissibilityError, match=r"in cell \(2, 3\)") as err:
        ssp_step(field, SSPRK3, 1e-4)
    assert err.value.cell == (2, 3)


@pytest.mark.parametrize("model", [AdvectionModel(), BurgersModel(BoxScalar(-1.0, 1.0)), EulerModel()],
                         ids=["advection", "burgers", "euler"])
def test_one_admissibility_mask_per_rk_state(model, monkeypatch):
    # the speed pass is the one check; Burgers checks its maximum instead,
    # and advection (a linear flux) the finiteness of the coefficients
    field = _smooth_field(model)
    masks = []
    check = model.check_admissible

    def counted(u, p=None):
        masks.append(u.shape)
        return check(u, p)

    monkeypatch.setattr(model, "check_admissible", counted)
    ssp_step(field, SSPRK3, 1e-4)
    if model.name == "burgers2d":
        assert masks == []
    elif model.name == "advection2d":
        assert masks == [field.coeffs.shape] * 3
    else:
        assert masks == [point_values(field).stacked.shape] * 3


def test_ssp_step_rejects_nonpositive_dt():
    mesh = _periodic_mesh(4)
    field = project(_sine, mesh, Basis2D(2), AdvectionModel())
    with pytest.raises(ValueError):
        ssp_step(field, SSPRK3, 0.0)


def test_bp_means_stay_in_box_under_optimal_policy():
    mesh = _periodic_mesh(20)
    model = AdvectionModel(region=BoxScalar(-1.0, 1.0))
    field = project(_sine, mesh, Basis2D(2), model)
    ratios = SpeedRatios((1.0 / mesh.dx, 1.0 / mesh.dy))
    decomp = optimal_2d(2, ratios)
    chain = LimiterChain(build_node_set(decomp, field.basis, model.region))
    field, _, _ = chain(field)
    for _ in range(20):
        # advection speeds are constant: the nodes' decomposition is the step's
        dt = step_controller(decomp, SSPRK3, global_max_speeds(field)[0], (mesh.dx, mesh.dy))
        field, _, _ = ssp_step(field, SSPRK3, dt, chain)
        means = field.cell_averages
        assert means.min() >= -1.0 - 1e-12 and means.max() <= 1.0 + 1e-12


# ---------------------------------------------------------- step controller


UNIT_SPEEDS, H = (1.0, 1.0), (0.1, 0.1)


def _at_unit_speeds(policy, k=2):
    return decomposition_for(policy, k, speed_ratios(UNIT_SPEEDS, H))


def test_step_controller_policies_match_table():
    h = H[0]
    assert step_controller(_at_unit_speeds("optimal"), SSPRK3, UNIT_SPEEDS, H) == pytest.approx(h / 8, rel=1e-13)
    assert step_controller(_at_unit_speeds("classic"), SSPRK3, UNIT_SPEEDS, H) == pytest.approx(h / 12, rel=1e-13)
    assert step_controller(_at_unit_speeds("jiangliu"), SSPRK3, UNIT_SPEEDS, H) == pytest.approx(h / 12, rel=1e-13)


def test_step_controller_scales_with_ssp_coefficient_and_c0():
    decomp = _at_unit_speeds("optimal")
    base = step_controller(decomp, SSPRK3, UNIT_SPEEDS, H)
    assert step_controller(decomp, SSPRK4, UNIT_SPEEDS, H) == pytest.approx(
        SSPRK4.ssp_coefficient * base, rel=1e-13
    )
    assert step_controller(decomp, SSPRK3, UNIT_SPEEDS, H, c0=0.5) == pytest.approx(0.5 * base, rel=1e-13)


def test_step_controller_zero_speed_fallback():
    # a field with zero speed at every point is stationary: no step bound
    mesh = _periodic_mesh(4)
    basis = Basis2D(2)
    coeffs = np.zeros((4, 4, basis.n_modes, 1))
    field = DGField(coeffs, basis, mesh, BurgersModel(BoxScalar(-1.0, 1.0)))
    (speeds, _), spacings = global_max_speeds(field), (mesh.dx, mesh.dy)
    assert speeds == (0.0, 0.0)
    decomp = decomposition_for("optimal", 2, speed_ratios(speeds, spacings))
    assert step_controller(decomp, SSPRK3, speeds, spacings) == math.inf


# ------------------------------------------------------ boundary conditions


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh2D(0.0, 1.0, 0.0, 1.0, 0, 4)
    with pytest.raises(ValueError):
        Mesh2D(1.0, 0.0, 0.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        Mesh2D(0.0, 1.0, 0.0, 1.0, 4, 4, bc_left=PERIODIC, bc_right=OUTFLOW,
               bc_bottom=OUTFLOW, bc_top=OUTFLOW)


def test_inflow_segment_feeds_wave_speed():
    model = EulerModel()
    inflow = InflowSegment(model.conserved(5.0, 30.0, 0.0, 0.4127), -0.05, 0.05)
    mesh = Mesh2D(0.0, 2.0, -0.5, 0.5, 8, 8, bc_left=inflow, bc_right=OUTFLOW,
                  bc_bottom=OUTFLOW, bc_top=OUTFLOW)
    ambient = model.conserved(5.0, 0.0, 0.0, 0.4127)
    basis = Basis2D(2)
    coeffs = np.zeros((8, 8, basis.n_modes, 4))
    coeffs[:, :, 0, :] = ambient
    field = DGField(coeffs, basis, mesh, model)
    (a1, _), _ = global_max_speeds(field)
    assert a1 > 30.0  # the prescribed inflow dominates the quiescent interior


# -------------------------------------------------------------- error norms


def test_error_norms_zero_field_vs_sine():
    mesh = _periodic_mesh(20)
    basis = Basis2D(2)
    model = AdvectionModel()
    field = DGField(np.zeros((20, 20, basis.n_modes, 1)), basis, mesh, model)
    exact = lambda x, y, t: np.sin(np.pi * (x + y - 2.0 * t))[..., None]
    l1, l2, linf = error_norms(field, exact, 0.3)
    assert l2 == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
    assert linf == pytest.approx(1.0, abs=1e-3)


def test_error_norms_exact_field_is_zero():
    mesh = _periodic_mesh(5)
    basis = Basis2D(2)
    coeffs = np.zeros((5, 5, basis.n_modes, 1))
    coeffs[:, :, 0, 0] = 0.4
    field = DGField(coeffs, basis, mesh, AdvectionModel())
    exact = lambda x, y, t: np.full(np.broadcast_shapes(x.shape, y.shape), 0.4)[..., None]
    assert error_norms(field, exact, 1.0) == (0.0, 0.0, 0.0)


def test_error_norms_requires_exact():
    field = project(_sine, _periodic_mesh(4), Basis2D(2), AdvectionModel())
    with pytest.raises(ValueError):
        error_norms(field, None, 0.0)
