"""Scaling limiter and TVB minmod limiter."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bpdg.decomposition import SpeedRatios, decomposition_for, jiang_liu_2d, optimal_2d, zhang_shu_2d
from bpdg.dg_core import (
    OUTFLOW,
    SSPRK3,
    Basis2D,
    DGField,
    InflowSegment,
    Mesh2D,
    apply_matrix,
    evaluate_at_offsets,
    mode_values,
    point_values,
    project,
    ssp_step,
)
from bpdg.limiters import (
    LimiterChain,
    LimiterNodeSet,
    _pressure_crossing,
    bp_scaling_limit,
    build_node_set,
    tvb_minmod_limit,
)
from bpdg.quadrature import gauss_rule
from bpdg.physics import (
    AdmissibilityError,
    AdvectionModel,
    BoxScalar,
    BurgersModel,
    EulerModel,
    EulerPositivity,
)

EQUAL = SpeedRatios((1.0, 1.0))


def _scalar_field(n=4, k=2, region=BoxScalar(-1.0, 1.0)):
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, n, n)
    basis = Basis2D(k)
    model = AdvectionModel(region=region)
    return DGField(np.zeros((n, n, basis.n_modes, 1)), basis, mesh, model)


# ---------------------------------------------------------------- node sets


def test_node_set_counts():
    assert len(build_node_set(optimal_2d(2, EQUAL), 2)) == 13  # 12 face + merged center
    assert len(build_node_set(zhang_shu_2d(2, EQUAL), 2)) == 17
    assert len(build_node_set(jiang_liu_2d(2), 2)) == 17
    assert len(build_node_set(zhang_shu_2d(3, EQUAL), 3)) == 24
    assert len(build_node_set(optimal_2d(3, SpeedRatios((2.0, 1.0))), 3)) <= 18


def _loop_dedup_node_set(decomp, k, include_volume):
    """Node offsets as first built: candidates in order, each dropped when
    within 1e-14 of a point already kept."""
    g = gauss_rule(k + 1)
    q = len(g)
    xi, eta = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    candidates = [
        np.column_stack([np.full(q, -0.5), g.nodes]),
        np.column_stack([np.full(q, 0.5), g.nodes]),
        np.column_stack([g.nodes, np.full(q, -0.5)]),
        np.column_stack([g.nodes, np.full(q, 0.5)]),
    ]
    if include_volume:
        candidates.append(np.column_stack([xi.ravel(), eta.ravel()]))
    candidates.append(decomp.internal_offsets)
    kept = []
    for p in np.concatenate([c for c in candidates if len(c)], axis=0):
        if not any(np.max(np.abs(p - e)) <= 1e-14 for e in kept):
            kept.append(p)
    return np.array(kept)


@pytest.mark.parametrize("include_volume", [False, True])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", ["optimal", "classic", "jiangliu"])
def test_vectorised_dedup_matches_loop(name, k, include_volume):
    ratios = SpeedRatios((2.0, 1.0))
    decomp = decomposition_for(name, k, ratios)
    nodes = build_node_set(decomp, k, include_volume=include_volume)
    np.testing.assert_array_equal(nodes.offsets, _loop_dedup_node_set(decomp, k, include_volume))
    np.testing.assert_allclose(nodes.matrix, mode_values(k, nodes.offsets).T, rtol=0, atol=1e-15)


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("k", [2, 3])
def test_node_values_component_major_same_bits(k, m):
    nodes = build_node_set(optimal_2d(k, SpeedRatios((1.0, 0.3))), k, include_volume=True)
    basis = Basis2D(k)
    coeffs = np.random.default_rng(k + m).normal(size=(7, 5, basis.n_modes, m))
    field = DGField(coeffs, basis, Mesh2D(0.0, 1.0, 0.0, 1.0, 7, 5),
                    AdvectionModel() if m == 1 else EulerModel())
    vals = nodes.evaluate(field)
    assert vals.shape == (m, len(nodes), 7, 5)
    np.testing.assert_array_equal(np.moveaxis(vals, (0, 1), (3, 2)), apply_matrix(nodes.matrix, coeffs))


def test_node_set_optional_volume_points():
    base = build_node_set(optimal_2d(2, EQUAL), 2)
    full = build_node_set(optimal_2d(2, EQUAL), 2, include_volume=True)
    assert len(full) == len(base) + 8  # 9 tensor Gauss points, center already present


def test_node_set_contains_face_traces_and_internal_nodes():
    d = optimal_2d(2, SpeedRatios((3.0, 1.0)))
    nodes = build_node_set(d, 2)
    for internal in d.internal_offsets:
        assert any(np.max(np.abs(internal - p)) <= 1e-14 for p in nodes.offsets)
    on_faces = np.isclose(np.abs(nodes.offsets), 0.5).any(axis=1)
    assert on_faces.sum() == 12


# ------------------------------------------------------------- box limiter


def test_box_theta_closed_form():
    # mean 0, nodal max 1.2, bound 1 -> theta = 5/6
    field = _scalar_field()
    amp = 1.2 / np.sqrt(3.0)  # linear mode hits amp*sqrt(3) on the x+ face
    field.coeffs[:, :, 1:, 0] = 0.0
    ix = field.basis.mode_exps.index((1, 0))
    field.coeffs[:, :, ix, 0] = amp
    nodes = build_node_set(optimal_2d(2, EQUAL), 2)
    out, diag = bp_scaling_limit(field, field.model.region, nodes)
    assert diag.min_theta == pytest.approx(5.0 / 6.0, abs=1e-13)
    vals = evaluate_at_offsets(out, nodes.offsets)[..., 0]
    assert vals.max() <= 1.0 + 1e-13
    np.testing.assert_allclose(out.cell_averages, field.cell_averages, atol=1e-15)


def test_box_limiter_identity_when_inside():
    mesh = Mesh2D(-1.0, 1.0, -1.0, 1.0, 6, 6)
    model = AdvectionModel(region=BoxScalar(-1.0, 1.0))
    field = project(lambda x, y: (0.5 * np.sin(np.pi * (x + y)))[..., None],
                    mesh, Basis2D(2), model)
    nodes = build_node_set(optimal_2d(2, EQUAL), 2)
    out, diag = bp_scaling_limit(field, model.region, nodes)
    assert diag.min_theta == 1.0 and diag.cells_limited == 0
    np.testing.assert_array_equal(out.coeffs, field.coeffs)


def test_box_limiter_idempotent():
    field = _scalar_field()
    ix = field.basis.mode_exps.index((1, 0))
    field.coeffs[:, :, ix, 0] = 1.0
    nodes = build_node_set(optimal_2d(2, EQUAL), 2)
    once, _ = bp_scaling_limit(field, field.model.region, nodes)
    twice, diag = bp_scaling_limit(once, field.model.region, nodes)
    assert diag.min_theta == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(twice.coeffs, once.coeffs, atol=1e-14)


def test_box_limiter_precondition_violation_names_cell():
    field = _scalar_field()
    field.coeffs[1, 2, 0, 0] = 1.5  # mean outside the box
    nodes = build_node_set(optimal_2d(2, EQUAL), 2)
    with pytest.raises(AdmissibilityError) as err:
        bp_scaling_limit(field, field.model.region, nodes)
    assert err.value.cell == (1, 2)


# ----------------------------------------------------------- Euler limiter


def _euler_field(n=3, k=2):
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, n, n)
    basis = Basis2D(k)
    model = EulerModel()
    coeffs = np.zeros((n, n, basis.n_modes, 4))
    coeffs[:, :, 0, :] = model.conserved(1.0, 0.1, -0.2, 1.0)
    return DGField(coeffs, basis, mesh, model)


def test_euler_limiter_restores_positive_pressure():
    field = _euler_field()
    model = field.model
    # drive one node to p = -0.1 via an energy linear mode in cell (1, 1)
    ix = field.basis.mode_exps.index((1, 0))
    u_mean = field.coeffs[1, 1, 0, :].copy()
    p_mean = model.pressure(u_mean)
    target_p = -0.1
    delta_e = (target_p - p_mean) / (model.gamma - 1.0)
    field.coeffs[1, 1, ix, 3] = delta_e / np.sqrt(3.0)  # face value offset = sqrt(3)*coef
    nodes = build_node_set(optimal_2d(2, EQUAL), 2)
    pre = evaluate_at_offsets(field, nodes.offsets)
    assert model.pressure(pre[1, 1]).min() < 0.0
    out, diag = bp_scaling_limit(field, EulerPositivity(), nodes)
    post = evaluate_at_offsets(out, nodes.offsets)
    assert model.pressure(post).min() >= 1e-13 - 1e-12
    assert np.all(post[..., 0] >= 1e-13 * (1 - 1e-10))
    np.testing.assert_allclose(out.cell_averages, field.cell_averages, atol=1e-15)
    assert diag.cells_limited == 1 and 0.0 < diag.min_theta < 1.0


def test_euler_limiter_density_stage():
    field = _euler_field()
    ix = field.basis.mode_exps.index((0, 1))
    field.coeffs[0, 0, ix, 0] = 1.0  # density dips negative on the y- face
    nodes = build_node_set(optimal_2d(2, EQUAL), 2)
    out, _ = bp_scaling_limit(field, EulerPositivity(), nodes)
    post = evaluate_at_offsets(out, nodes.offsets)
    assert post[..., 0].min() >= 1e-13 * (1 - 1e-10)


def test_euler_limiter_precondition_violation():
    field = _euler_field()
    field.coeffs[0, 1, 0, 3] = 0.0  # mean energy below kinetic -> p_mean < 0
    nodes = build_node_set(optimal_2d(2, EQUAL), 2)
    with pytest.raises(AdmissibilityError) as err:
        bp_scaling_limit(field, EulerPositivity(), nodes)
    assert err.value.cell == (0, 1)


def test_euler_limiter_identity_on_admissible_field():
    field = _euler_field()
    nodes = build_node_set(optimal_2d(2, EQUAL), 2)
    out, diag = bp_scaling_limit(field, EulerPositivity(), nodes)
    assert diag.min_theta == 1.0
    np.testing.assert_array_equal(out.coeffs, field.coeffs)


def _assert_same_values(got, expect):
    np.testing.assert_array_equal(got.stacked, expect.stacked)
    np.testing.assert_array_equal(got.pressure, expect.pressure)
    for g, e in zip(got.ghosts + got.ghost_pressures, expect.ghosts + expect.ghost_pressures):
        np.testing.assert_array_equal(g, e)


def _jet_field(n=4, k=2):
    model = EulerModel()
    inflow = InflowSegment(model.conserved(5.0, 30.0, 0.0, 0.4127), 0.3, 0.7)
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, n, n, bc_left=inflow, bc_right=OUTFLOW,
                  bc_bottom=OUTFLOW, bc_top=OUTFLOW)
    basis = Basis2D(k)
    coeffs = np.zeros((n, n, basis.n_modes, 4))
    coeffs[:, :, 0, :] = model.conserved(1.0, 0.1, -0.2, 1.0)
    return DGField(coeffs, basis, mesh, model)


def test_euler_limiter_hands_on_its_point_values():
    field = _jet_field()
    model = field.model
    ix = field.basis.mode_exps.index((1, 0))
    p_mean = model.pressure(field.coeffs[1, 1, 0, :])
    field.coeffs[1, 1, ix, 3] = (-0.1 - p_mean) / (model.gamma - 1.0) / np.sqrt(3.0)
    nodes = build_node_set(optimal_2d(2, EQUAL), 2, include_volume=True)
    out, diag = bp_scaling_limit(field, EulerPositivity(), nodes)
    assert diag.cells_limited == 1 and field.values is None
    _assert_same_values(out.values, point_values(out.like(out.coeffs)))


def test_collapsed_cell_values_are_its_average():
    # density dips below zero at the cell centre only: with a node set of the
    # face points alone the scaling leaves the cell as it is, and the
    # straggler check on the evaluated volume points collapses it
    field = _jet_field()
    k, basis = 2, field.basis
    for mode in ((2, 0), (0, 2)):
        field.coeffs[0, 0, basis.mode_exps.index(mode), 0] = 0.5
    g = gauss_rule(k + 1)
    q = len(g)
    faces = np.concatenate([
        np.column_stack([np.full(q, -0.5), g.nodes]), np.column_stack([np.full(q, 0.5), g.nodes]),
        np.column_stack([g.nodes, np.full(q, -0.5)]), np.column_stack([g.nodes, np.full(q, 0.5)]),
    ])
    nodes = LimiterNodeSet(faces, mode_values(k, faces).T)
    out, diag = bp_scaling_limit(field, EulerPositivity(), nodes)
    assert diag.cells_limited == 1 and diag.min_theta == 0.0
    assert np.all(out.coeffs[0, 0, 1:] == 0.0)
    _assert_same_values(out.values, point_values(out.like(out.coeffs)))
    # the collapsed boundary cell's ghost trace is the patched one
    np.testing.assert_array_equal(out.values.ghosts[0][0], np.broadcast_to(out.coeffs[0, 0, 0], (q, 4)))


def _bisection_loop(model, u_mean, u_node, target):
    """The bisection as first written: the oracle for _pressure_crossing."""
    t_lo = np.zeros(len(u_node))
    t_hi = np.ones(len(u_node))
    for _ in range(60):
        t_mid = 0.5 * (t_lo + t_hi)
        p_mid = model.pressure(u_mean + t_mid[:, None] * (u_node - u_mean))
        good = p_mid >= target
        t_lo = np.where(good, t_mid, t_lo)
        t_hi = np.where(good, t_hi, t_mid)
    return t_lo


@pytest.mark.parametrize("seed", range(5))
def test_pressure_crossing_matches_loop(seed):
    rng = np.random.default_rng(seed)
    model = EulerModel()
    b = 80
    # admissible means near vacuum, nodes with negative pressure
    rho = 10.0 ** rng.uniform(-12, 0, b)
    v = rng.uniform(-30, 30, (b, 2))
    p = 10.0 ** rng.uniform(-12, 0, b)
    u_mean = np.stack([model.conserved(*args) for args in zip(rho, v[:, 0], v[:, 1], p)])
    u_node = u_mean + u_mean * rng.uniform(-3, 3, (b, 4))
    u_node[:, 0] = np.abs(u_node[:, 0])
    target = np.maximum(1e-13, 1e-12 * np.abs(u_node[:, 3]))
    t = _pressure_crossing(model, u_mean.T, u_node.T, target)
    np.testing.assert_array_equal(t, _bisection_loop(model, u_mean, u_node, target))
    assert np.all((t >= 0.0) & (t <= 1.0))


# ------------------------------------------------- limiter property tests

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _higher_modes(rng, shape, amplitude):
    return amplitude * rng.normal(size=shape)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([2, 3]),
       amplitude=st.floats(0.0, 3.0), lo=st.floats(-2.0, 0.5), width=st.floats(0.01, 3.0))
def test_box_limiter_properties(seed, k, amplitude, lo, width):
    rng = np.random.default_rng(seed)
    region = BoxScalar(lo, lo + width)
    field = _scalar_field(n=4, k=k, region=region)
    field.coeffs[:, :, 0, 0] = rng.uniform(region.lo, region.hi, (4, 4))
    field.coeffs[:, :, 1:, 0] = _higher_modes(rng, (4, 4, field.basis.n_modes - 1), amplitude * width)
    nodes = build_node_set(optimal_2d(k, SpeedRatios(tuple(rng.uniform(0.1, 1.0, 2)))), k)
    out, diag = bp_scaling_limit(field, region, nodes)
    vals = evaluate_at_offsets(out, nodes.offsets)
    assert np.all(region.contains(vals, slack=1e-14 * max(1.0, abs(region.lo), abs(region.hi))))
    np.testing.assert_allclose(out.cell_averages, field.cell_averages, rtol=0, atol=1e-14)
    assert 0.0 <= diag.min_theta <= 1.0
    # each cell's higher modes are scaled by one theta in [0, 1]
    before = np.linalg.norm(field.coeffs[:, :, 1:, 0], axis=2)
    after = np.linalg.norm(out.coeffs[:, :, 1:, 0], axis=2)
    assert np.all(after <= before * (1.0 + 1e-15))


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([2, 3]),
       log_rho=st.floats(-10.0, 0.0), log_p=st.floats(-10.0, 0.0), amplitude=st.floats(0.0, 3.0))
def test_euler_limiter_properties_near_vacuum(seed, k, log_rho, log_p, amplitude):
    rng = np.random.default_rng(seed)
    field = _jet_field(n=4, k=k)
    model, region = field.model, EulerPositivity()
    rho = 10.0 ** (log_rho + rng.uniform(-1.0, 0.0, (4, 4)))
    p = 10.0 ** (log_p + rng.uniform(-1.0, 0.0, (4, 4)))
    v = rng.uniform(-5.0, 5.0, (4, 4, 2))
    mean = np.stack([rho, rho * v[..., 0], rho * v[..., 1],
                     p / (model.gamma - 1.0) + 0.5 * rho * (v ** 2).sum(axis=-1)], axis=-1)
    field.coeffs[:, :, 0, :] = mean
    field.coeffs[:, :, 1:, :] = _higher_modes(rng, (4, 4, field.basis.n_modes - 1, 4), amplitude) * np.abs(mean)[:, :, None, :]
    nodes = build_node_set(optimal_2d(k, EQUAL), k, include_volume=True)
    out, diag = bp_scaling_limit(field, region, nodes)
    np.testing.assert_allclose(out.cell_averages, field.cell_averages, rtol=0, atol=1e-14)
    assert 0.0 <= diag.min_theta <= 1.0
    # every value the residual evaluates is inside the region, on the floors
    values = out.values
    floor = 1.0 - 1e-10
    assert np.all(values.stacked[..., 0] >= region.eps_rho * floor)
    assert np.all(values.pressure >= region.eps_p * floor)
    _assert_same_values(values, point_values(out.like(out.coeffs)))
    # and so is every limiter node, up to the round-off of re-evaluating the
    # scaled coefficients (pressure cancels E against the kinetic energy)
    vals = evaluate_at_offsets(out, nodes.offsets)
    slack = 1e-14 * np.abs(vals[..., 3])
    assert np.all(vals[..., 0] >= region.eps_rho * floor)
    assert np.all(model.pressure(vals) >= region.eps_p * floor - slack)


# -------------------------------------------------------------- TVB minmod


def test_tvb_smooth_field_untouched():
    mesh = Mesh2D(-1.0, 1.0, -1.0, 1.0, 16, 16)
    field = project(lambda x, y: np.sin(np.pi * (x + y))[..., None],
                    mesh, Basis2D(2), AdvectionModel())
    out, troubled = tvb_minmod_limit(field, 50.0)
    assert troubled == 0
    np.testing.assert_array_equal(out.coeffs, field.coeffs)


def test_tvb_flags_discontinuity_and_preserves_means():
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, 16, 16)
    model = BurgersModel(BoxScalar(-1.0, 1.0))

    def step_data(x, y):
        # jump placed inside a cell so the projection carries a steep slope
        return np.where(np.broadcast_to(x, np.broadcast_shapes(x.shape, y.shape)) < 0.47,
                        0.8, -1.0)[..., None]

    field = project(step_data, mesh, Basis2D(2), model)
    out, troubled = tvb_minmod_limit(field, 1.0)
    assert troubled > 0
    assert abs(out.cell_averages.sum() - field.cell_averages.sum()) <= 1e-14 * 16 * 16


def test_tvb_noop_for_piecewise_constant_space():
    field = DGField(np.zeros((4, 4, 1, 1)), Basis2D(0),
                    Mesh2D(0.0, 1.0, 0.0, 1.0, 4, 4), AdvectionModel())
    out, troubled = tvb_minmod_limit(field, 1.0)
    assert troubled == 0


# ------------------------------------------------------------ limiter chain


def test_chain_requires_region_and_nodes_for_bp():
    with pytest.raises(ValueError):
        LimiterChain(bp_enabled=True)


def test_chain_applies_tvb_then_bp_and_records_diagnostics():
    field = _scalar_field(n=6)
    ix = field.basis.mode_exps.index((1, 0))
    field.coeffs[:, :, ix, 0] = 1.0
    chain = LimiterChain(
        region=field.model.region,
        node_set=build_node_set(optimal_2d(2, EQUAL), 2),
        m_tvb=0.1,
    )
    out = chain(field)
    diag = chain.last_diagnostics
    assert diag.min_theta <= 1.0
    nodes = chain.node_set
    vals = evaluate_at_offsets(out, nodes.offsets)[..., 0]
    assert vals.max() <= 1.0 + 1e-13 and vals.min() >= -1.0 - 1e-13


def test_chain_totals_cover_every_stage_of_a_step():
    field = _scalar_field(n=6)
    ix = field.basis.mode_exps.index((1, 0))
    field.coeffs[2, 3, ix, 0] = 1.0  # overshoots to sqrt(3) on the x+ face
    chain = LimiterChain(region=field.model.region, node_set=build_node_set(optimal_2d(2, EQUAL), 2))
    ssp_step(field, SSPRK3, 1e-6, chain)
    # every stage state mixes in the unlimited start state, so cell (2, 3) is
    # limited at each of the three stages; the last call sees only one
    assert chain.last_diagnostics.cells_limited == 1
    assert chain.totals.cells_limited == 3
    assert chain.totals.min_theta < 1.0
