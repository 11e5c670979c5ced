"""Scaling limiter and TVB minmod limiter."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bpdg.decomposition import SpeedRatios, decomposition_for, jiang_liu_2d, optimal_2d, zhang_shu_2d
from bpdg.dg_core import (
    OUTFLOW,
    PERIODIC,
    SSPRK3,
    Basis2D,
    DGField,
    InflowSegment,
    Mesh2D,
    PointValues,
    apply_matrix,
    evaluate_at_offsets,
    mode_values,
    point_values,
    project,
    ssp_step,
)
from bpdg import limiters
from bpdg.limiters import (
    LimiterChain,
    LimiterDiagnostics,
    NodeRows,
    _BACKOFF_STEPS,
    _pressure_crossing,
    bp_scaling_limit,
    build_node_set,
    tvb_minmod_limit,
)
from bpdg.quadrature import gauss_rule
from bpdg.physics import (
    BOX_SLACK,
    EULER_FLOOR,
    AdmissibilityError,
    AdvectionModel,
    BoxScalar,
    BurgersModel,
    EulerModel,
    EulerPositivity,
)

EQUAL = SpeedRatios((1.0, 1.0))
# a box and the Euler region: the box node set depends only on the region's type
BOX, EULER = BoxScalar(-1.0, 1.0), EulerPositivity()


def _scalar_field(n=4, k=2, region=BoxScalar(-1.0, 1.0)):
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, n, n)
    basis = Basis2D(k)
    model = AdvectionModel(region=region)
    return DGField(np.zeros((n, n, basis.n_modes, 1)), basis, mesh, model)


def _node_set(decomp, region=BOX):
    return build_node_set(decomp, Basis2D(decomp.poly_degree_k), region)


# ---------------------------------------------------------------- node sets


def test_node_set_counts():
    assert len(_node_set(optimal_2d(2, EQUAL))) == 13  # 12 face + merged center
    assert len(_node_set(zhang_shu_2d(2, EQUAL))) == 17
    assert len(_node_set(jiang_liu_2d(2))) == 17
    assert len(_node_set(zhang_shu_2d(3, EQUAL))) == 24
    assert len(_node_set(optimal_2d(3, SpeedRatios((2.0, 1.0))))) <= 18


def _loop_dedup_node_set(decomp, k, include_volume):
    """Node offsets by a loop, the layout the node sets had when they were
    built by deduplication: candidates in order (volume points first when
    included, then faces, then internal nodes), each dropped when within
    1e-14 of a point already kept."""
    g = gauss_rule(k + 1)
    q = len(g)
    xi, eta = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    candidates = [np.column_stack([xi.ravel(), eta.ravel()])] if include_volume else []
    candidates += [
        np.column_stack([np.full(q, -0.5), g.nodes]),
        np.column_stack([np.full(q, 0.5), g.nodes]),
        np.column_stack([g.nodes, np.full(q, -0.5)]),
        np.column_stack([g.nodes, np.full(q, 0.5)]),
        decomp.internal_offsets,
    ]
    kept = []
    for p in np.concatenate([c for c in candidates if len(c)], axis=0):
        if not any(np.max(np.abs(p - e)) <= 1e-14 for e in kept):
            kept.append(p)
    return np.array(kept)


@pytest.mark.parametrize("euler", [False, True])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", ["optimal", "classic", "jiangliu"])
def test_vectorised_dedup_matches_loop(name, k, euler):
    """The box and Euler node sets, built with no dedup pass, hold the points
    of the loop dedup of the candidates without and with the volume points."""
    ratios = SpeedRatios((2.0, 1.0))
    decomp = decomposition_for(name, k, ratios)
    nodes = _node_set(decomp, EULER if euler else BOX)
    np.testing.assert_array_equal(nodes.offsets, _loop_dedup_node_set(decomp, k, euler))
    np.testing.assert_allclose(nodes.matrix, mode_values(k, nodes.offsets).T, rtol=0, atol=1e-15)
    if euler:
        # the first rows are the basis's stacked evaluation rows, bit for bit
        stacked = Basis2D(k).eval_matrix
        np.testing.assert_array_equal(nodes.matrix[:len(stacked)], stacked)


# the internal nodes on volume Gauss points: the classic ones at k = 2, and
# the optimal centre, which equal ratios merge its two nodes into
ON_VOLUME_POINTS = {("optimal", 2): 1, ("classic", 2): 5, ("jiangliu", 2): 5}


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", ["optimal", "classic", "jiangliu"])
def test_node_set_views_are_stacked_and_internal_rows(name, k):
    basis = Basis2D(k)
    decomp = decomposition_for(name, k, EQUAL)
    box, euler = (build_node_set(decomp, basis, region) for region in (BOX, EULER))
    internal = decomp.internal_offsets
    rows = mode_values(k, internal).T
    on_volume = np.array([any(np.array_equal(p, v) for v in basis.vol_offsets) for p in internal])
    assert on_volume.sum() == ON_VOLUME_POINTS.get((name, k), 0)
    faces = slice(basis.at_vol.stop, None)
    # box: the face rows, then every internal node, bit for bit
    np.testing.assert_array_equal(box.offsets, np.concatenate([basis.offsets[faces], internal]))
    np.testing.assert_array_equal(box.matrix, np.concatenate([basis.eval_matrix[faces], rows]))
    # Euler: every stacked row, then the internal nodes off the volume points
    np.testing.assert_array_equal(euler.offsets, np.concatenate([basis.offsets, internal[~on_volume]]))
    np.testing.assert_array_equal(euler.matrix, np.concatenate([basis.eval_matrix, rows[~on_volume]]))
    np.testing.assert_array_equal(basis.eval_matrix, mode_values(k, basis.offsets).T)


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("k", [2, 3])
def test_node_values_component_major_same_bits(k, m):
    basis = Basis2D(k)
    nodes = build_node_set(optimal_2d(k, SpeedRatios((1.0, 0.3))), basis, EULER)
    coeffs = np.random.default_rng(k + m).normal(size=(7, 5, basis.n_modes, m))
    field = DGField(coeffs, basis, Mesh2D(0.0, 1.0, 0.0, 1.0, 7, 5),
                    AdvectionModel() if m == 1 else EulerModel())
    vals = nodes.evaluate(field)
    assert vals.shape == (m, len(nodes), 7, 5)
    np.testing.assert_array_equal(np.moveaxis(vals, (0, 1), (3, 2)), apply_matrix(nodes.matrix, coeffs))


def test_node_set_optional_volume_points():
    # the volume points only the Euler node set has
    decomp = optimal_2d(2, EQUAL)
    assert len(_node_set(decomp, EULER)) == len(_node_set(decomp)) + 8  # 9 tensor Gauss points, center already present


def test_node_set_contains_face_traces_and_internal_nodes():
    d = optimal_2d(2, SpeedRatios((3.0, 1.0)))
    nodes = _node_set(d)
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
    nodes = _node_set(optimal_2d(2, EQUAL))
    out, diag, _ = bp_scaling_limit(field.copy(), field.model.region, nodes)
    assert diag.min_theta == pytest.approx(5.0 / 6.0, abs=1e-13)
    vals = evaluate_at_offsets(out, nodes.offsets)[..., 0]
    assert vals.max() <= 1.0 + 1e-13
    np.testing.assert_allclose(out.cell_averages, field.cell_averages, atol=1e-15)


def test_box_limiter_identity_when_inside():
    mesh = Mesh2D(-1.0, 1.0, -1.0, 1.0, 6, 6)
    model = AdvectionModel(region=BoxScalar(-1.0, 1.0))
    field = project(lambda x, y: (0.5 * np.sin(np.pi * (x + y)))[..., None],
                    mesh, Basis2D(2), model)
    nodes = _node_set(optimal_2d(2, EQUAL))
    out, diag, _ = bp_scaling_limit(field.copy(), model.region, nodes)
    assert diag.min_theta == 1.0 and diag.cells_limited == 0
    np.testing.assert_array_equal(out.coeffs, field.coeffs)


def test_box_limiter_idempotent():
    field = _scalar_field()
    ix = field.basis.mode_exps.index((1, 0))
    field.coeffs[:, :, ix, 0] = 1.0
    nodes = _node_set(optimal_2d(2, EQUAL))
    once, _, _ = bp_scaling_limit(field, field.model.region, nodes)
    twice, diag, _ = bp_scaling_limit(once.copy(), field.model.region, nodes)
    assert diag.min_theta == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(twice.coeffs, once.coeffs, atol=1e-14)


def test_classic_box_limiter_limits_a_centre_overshoot():
    # at k = 2 the classic centre node is a volume Gauss point, which the
    # Euler node set reads among the stacked rows; the box one holds it itself
    field = _scalar_field()
    field.coeffs[:, :, 0, 0] = 0.5
    for exps in ((2, 0), (0, 2)):
        # peaks at mean + 0.8 at the centre; every face point lies below the mean
        field.coeffs[:, :, field.basis.mode_exps.index(exps), 0] = -0.8 / np.sqrt(5.0)
    nodes = _node_set(zhang_shu_2d(2, EQUAL))
    over = evaluate_at_offsets(field, nodes.offsets)[..., 0] > 1.0
    centre = (nodes.offsets == 0.0).all(axis=1)
    assert over[..., centre].all() and not over[..., ~centre].any()
    out, diag, _ = bp_scaling_limit(field, field.model.region, nodes)
    assert diag.cells_limited == 16 and diag.min_theta == pytest.approx(0.5 / 0.8, abs=1e-13)
    assert evaluate_at_offsets(out, nodes.offsets).max() <= 1.0 + 1e-13


def test_box_limiter_precondition_violation_names_cell():
    field = _scalar_field()
    field.coeffs[1, 2, 0, 0] = 1.5  # mean outside the box
    nodes = _node_set(optimal_2d(2, EQUAL))
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
    nodes = _node_set(optimal_2d(2, EQUAL), EULER)
    pre = evaluate_at_offsets(field, nodes.offsets)
    assert model.pressure(pre[1, 1]).min() < 0.0
    out, diag, _ = bp_scaling_limit(field.copy(), EulerPositivity(), nodes)
    post = evaluate_at_offsets(out, nodes.offsets)
    assert model.pressure(post).min() >= 1e-13 * (1 - 1e-10)
    assert np.all(post[..., 0] >= 1e-13 * (1 - 1e-10))
    np.testing.assert_allclose(out.cell_averages, field.cell_averages, atol=1e-15)
    assert diag.cells_limited == 1 and 0.0 < diag.min_theta < 1.0


def test_euler_limiter_density_stage():
    field = _euler_field()
    ix = field.basis.mode_exps.index((0, 1))
    field.coeffs[0, 0, ix, 0] = 1.0  # density dips negative on the y- face
    nodes = _node_set(optimal_2d(2, EQUAL), EULER)
    out, _, _ = bp_scaling_limit(field, EulerPositivity(), nodes)
    post = evaluate_at_offsets(out, nodes.offsets)
    assert post[..., 0].min() >= 1e-13 * (1 - 1e-10)


def test_euler_limiter_precondition_violation():
    field = _euler_field()
    field.coeffs[0, 1, 0, 3] = 0.0  # mean energy below kinetic -> p_mean < 0
    nodes = _node_set(optimal_2d(2, EQUAL), EULER)
    with pytest.raises(AdmissibilityError) as err:
        bp_scaling_limit(field, EulerPositivity(), nodes)
    assert err.value.cell == (0, 1)
    field.coeffs[0, 1, 0, 3] = field.coeffs[0, 0, 0, 3]
    field.coeffs[2, 0, 0, 1] = np.nan  # a NaN mean is outside the region too
    with pytest.raises(AdmissibilityError) as err:
        bp_scaling_limit(field, EulerPositivity(), nodes)
    assert err.value.cell == (2, 0)


def test_precondition_messages_quote_the_region_and_the_cell():
    """The BP limiters' precondition error quotes the region's repr, for a
    box and for the Euler region."""
    box = _scalar_field()
    box.coeffs[1, 2, 0, 0] = 1.5
    euler = _euler_field()
    euler.coeffs[0, 1, 0, 3] = 0.0
    for field, region, nodes, expected in (
            (box, BOX, _node_set(optimal_2d(2, EQUAL)), "BoxScalar(lo=-1.0, hi=1.0) in cell (1, 2)"),
            (euler, EULER, _node_set(optimal_2d(2, EQUAL), EULER),
             "EulerPositivity(gamma=1.6666666666666667) in cell (0, 1)")):
        with pytest.raises(AdmissibilityError) as err:
            bp_scaling_limit(field, region, nodes)
        assert str(err.value) == (f"cell average outside {expected} before BP limiting "
                                  "(BP dt policy violated upstream?)")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["flat-density", "sloped-density", "flat-pressure"])
def test_euler_limiter_accepts_means_within_the_floor_slack(case):
    # the limiter certifies its values to EULER_FLOOR times the floors, so an
    # update can leave a mean in [eps*EULER_FLOOR, eps); the precondition
    # used to refuse such a mean (mean < eps, no slack) and now takes it
    field, region = _euler_field(), EulerPositivity()
    low = 1e-13 * (1.0 - 0.5e-10)
    assert 1e-13 * EULER_FLOOR <= low < 1e-13
    rho, p = (1.0, low) if case == "flat-pressure" else (low, 1.0)
    field.coeffs[1, 1, 0, :] = field.model.conserved(rho, 0.0, 0.0, p)
    if case == "sloped-density":
        field.coeffs[1, 1, field.basis.mode_exps.index((1, 0)), 0] = 0.1 * low
    nodes = _node_set(optimal_2d(2, EQUAL), EULER)
    out, diag, values = bp_scaling_limit(field.copy(), region, nodes)
    np.testing.assert_array_equal(out.cell_averages, field.cell_averages)
    assert diag.cells_limited == 1 and diag.collapsed_cells == 0
    assert np.all(region.contains(values.stacked, values.pressure))


def test_euler_limiter_identity_on_admissible_field():
    field = _euler_field()
    nodes = _node_set(optimal_2d(2, EQUAL), EULER)
    out, diag, _ = bp_scaling_limit(field.copy(), EulerPositivity(), nodes)
    assert diag.min_theta == 1.0
    np.testing.assert_array_equal(out.coeffs, field.coeffs)


def _assert_same_values(field, got, expect, formed_ghosts):
    """The point values `got` and `expect` of `field`, and the ghost traces
    and ghost pressures the flux forms from each, are the same bits."""
    np.testing.assert_array_equal(got.stacked, expect.stacked)
    np.testing.assert_array_equal(got.pressure, expect.pressure)
    got_ghosts, expect_ghosts = (sum(formed_ghosts(field, v), ()) for v in (got, expect))
    assert len(got_ghosts) == len(expect_ghosts) == 8
    for g, e in zip(got_ghosts, expect_ghosts):
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


def _assert_hands_on(out, got, atol, formed_ghosts):
    """The point values `got` returned with `out` are within `atol` of a fresh
    evaluation of its coefficients (limited cells carry mean + theta*(v -
    mean), which differs from that evaluation by round-off), and their
    pressure and the ghost traces formed from them are exactly those of the
    values themselves."""
    np.testing.assert_allclose(got.stacked, point_values(out).stacked, rtol=0, atol=atol)
    _assert_same_values(out, got, PointValues(got.stacked, out.model.pressure(got.stacked)), formed_ghosts)


def test_euler_limiter_hands_on_its_point_values(formed_ghosts):
    field = _jet_field()
    model = field.model
    ix = field.basis.mode_exps.index((1, 0))
    p_mean = model.pressure(field.coeffs[1, 1, 0, :])
    field.coeffs[1, 1, ix, 3] = (-0.1 - p_mean) / (model.gamma - 1.0) / np.sqrt(3.0)
    nodes = _node_set(optimal_2d(2, EQUAL), EULER)
    out, diag, values = bp_scaling_limit(field.copy(), EulerPositivity(), nodes)
    assert diag.cells_limited == 1 and diag.collapsed_cells == 0
    _assert_hands_on(out, values, 1e-14, formed_ghosts)


def _owner(a):
    """The array that owns the memory `a` views."""
    while a.base is not None:
        a = a.base
    return a


def test_euler_limiter_hands_on_only_the_stacked_rows(formed_ghosts):
    """The internal nodes off the stacked points (two here) are evaluated into
    an array of their own: the values handed on keep no other row alive."""
    field = _jet_field(n=6)
    ix = field.basis.mode_exps.index((1, 0))
    p_mean = field.model.pressure(field.coeffs[2, 3, 0, :])
    field.coeffs[2, 3, ix, 3] = (-0.1 - p_mean) / (field.model.gamma - 1.0) / np.sqrt(3.0)
    nodes = _node_set(optimal_2d(2, SpeedRatios((1.0, 0.3))), EULER)
    n_stacked = len(field.basis.eval_matrix)
    assert len(nodes) == n_stacked + 2
    out, diag, values = bp_scaling_limit(field.copy(), EulerPositivity(), nodes)
    assert diag.cells_limited == 1
    assert values.stacked.shape == (6, 6, n_stacked, 4)
    assert _owner(values.stacked).nbytes == values.stacked.nbytes
    assert _owner(values.pressure).nbytes == values.pressure.nbytes
    _assert_hands_on(out, values, 1e-14, formed_ghosts)


def _reverse_from(rows, start):
    """`rows` with the rows from `start` on in reverse order."""
    order = np.r_[np.arange(start), np.arange(len(rows) - 1, start - 1, -1)]
    return NodeRows(rows.offsets[order], rows.matrix[order])


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("build", [optimal_2d, zhang_shu_2d])
def test_bp_limiting_ignores_the_order_of_internal_nodes(k, build, formed_ghosts):
    """Both BP limiters reduce over the nodes with max and min, so reordering
    a decomposition's internal nodes in either node set changes no bit of the
    coefficients, the returned values or the diagnostics."""
    decomp = build(k, SpeedRatios((1.0, 1.3)))
    box, euler_nodes = _node_set(decomp), _node_set(decomp, EULER)
    n_stacked = len(Basis2D(k).eval_matrix)
    box_r = _reverse_from(box, len(box) - decomp.internal_node_count)
    euler_r = _reverse_from(euler_nodes, n_stacked)
    assert not np.array_equal(box_r.offsets, box.offsets)
    rng = np.random.default_rng(k)

    scalar = _scalar_field(n=6, k=k)
    scalar.coeffs[:, :, 0, 0] = rng.uniform(-0.9, 0.9, (6, 6))
    scalar.coeffs[:, :, 1:, 0] = 0.4 * rng.normal(size=(6, 6, scalar.basis.n_modes - 1))

    euler = _euler_field(n=6, k=k)
    model = euler.model
    for i, j in np.ndindex(6, 6):
        rho, p = rng.uniform(0.01, 1.0, 2)
        mean = model.conserved(rho, *rng.uniform(-2.0, 2.0, 2), p)
        euler.coeffs[i, j, 0] = mean
        euler.coeffs[i, j, 1:] = 0.3 * np.abs(mean) * rng.normal(size=(euler.basis.n_modes - 1, 4))

    for field, region, nodes, reordered in ((scalar, scalar.model.region, box, box_r),
                                            (euler, EULER, euler_nodes, euler_r)):
        out, diag, values = bp_scaling_limit(field.copy(), region, nodes)
        out_r, diag_r, values_r = bp_scaling_limit(field.copy(), region, reordered)
        assert diag.cells_limited > 0
        assert diag_r == diag
        np.testing.assert_array_equal(out_r.coeffs, out.coeffs)
        if field is euler:
            _assert_same_values(out, values_r, values, formed_ghosts)
        else:
            assert values is values_r is None


def test_collapsed_cell_values_are_its_average(monkeypatch, formed_ghosts):
    # the counted fallback: a crossing that stops short of the floor (here a
    # stand-in returning t just below 1) leaves the changed cell's values
    # below it, so the cell is collapsed to its average, and so are its
    # returned values and its boundary ghost trace
    field = _jet_field()
    model = field.model
    ix = field.basis.mode_exps.index((1, 0))
    p_mean = model.pressure(field.coeffs[0, 0, 0, :])
    field.coeffs[0, 0, ix, 3] = (-0.1 - p_mean) / (model.gamma - 1.0) / np.sqrt(3.0)
    monkeypatch.setattr(limiters, "_pressure_crossing", lambda m, um, un, target: np.full(um.shape[1], 0.999))
    chain = LimiterChain(_node_set(optimal_2d(2, EQUAL), EULER))
    out, diag, values = chain(field)
    assert diag.cells_limited == 1 and diag.collapsed_cells == 1 and diag.min_theta == 0.0
    assert np.all(out.coeffs[0, 0, 1:] == 0.0)
    np.testing.assert_array_equal(values.stacked[0, 0], np.broadcast_to(out.coeffs[0, 0, 0], (21, 4)))
    _assert_hands_on(out, values, 1e-14, formed_ghosts)
    # the collapsed boundary cell's ghost trace, as the flux forms it, is its average too
    left = formed_ghosts(out, values)[0][0]
    np.testing.assert_array_equal(left[0], np.broadcast_to(out.coeffs[0, 0, 0], (3, 4)))


def test_euler_limiter_computes_pressure_once_at_full_size(monkeypatch):
    field = _jet_field(n=6)
    rng = np.random.default_rng(3)
    field.coeffs[:, :, 1:, :] = (_higher_modes(rng, (6, 6, field.basis.n_modes - 1, 4), 0.6)
                                 * np.abs(field.coeffs[:, :, :1, :]))
    nodes = _node_set(optimal_2d(2, EQUAL), EULER)
    model, calls = field.model, []
    pressure = model.pressure

    def counted(u):
        calls.append(u.shape[:-1])
        return pressure(u)

    monkeypatch.setattr(model, "pressure", counted)
    out, diag, _ = bp_scaling_limit(field, EulerPositivity(), nodes)
    assert diag.cells_limited > 0 and diag.collapsed_cells == 0
    at_nodes = [c for c in calls if len(c) == 3]
    crossing = [c for c in calls if len(c) == 1]
    handed_on = [c for c in calls if len(c) == 2 and c[0] == len(nodes)]
    # one pass at every node of every cell; the crossing's check on the
    # flagged nodes and its back-off on the failing ones; one pass over the
    # limited cells' nodes; the rest are the cell means and boundary traces
    assert at_nodes == [(len(nodes), 6, 6)]
    assert 1 < len(crossing) <= 1 + _BACKOFF_STEPS
    assert all(c[0] < crossing[0][0] for c in crossing[1:])
    assert len(handed_on) == 1 and handed_on[0][1] <= diag.cells_limited
    assert all(np.prod(c) <= 36 for c in calls if len(c) == 2 and c not in handed_on)


def _bisection_loop(model, u_mean, u_node, target):
    """The 60-step bisection the limiter once used: the oracle for _pressure_crossing."""
    t_lo = np.zeros(len(u_node))
    t_hi = np.ones(len(u_node))
    for _ in range(60):
        t_mid = 0.5 * (t_lo + t_hi)
        p_mid = model.pressure(u_mean + t_mid[:, None] * (u_node - u_mean))
        good = p_mid >= target
        t_lo = np.where(good, t_mid, t_lo)
        t_hi = np.where(good, t_hi, t_mid)
    return t_lo


def _segments(rng, b, speed, node_rho_scale=0.0):
    """Admissible means near vacuum and nodes off them, mostly at negative
    pressure; node densities scaled down by up to 10^node_rho_scale."""
    model = EulerModel()
    rho = 10.0 ** rng.uniform(-12, 0, b)
    v = rng.uniform(-speed, speed, (b, 2))
    p = 10.0 ** rng.uniform(-12, 0, b)
    u_mean = np.stack([model.conserved(*args) for args in zip(rho, v[:, 0], v[:, 1], p)])
    u_node = u_mean + u_mean * rng.uniform(-3, 3, (b, 4))
    u_node[:, 0] = np.abs(u_node[:, 0]) * 10.0 ** rng.uniform(node_rho_scale, 0, b)
    return model, u_mean, u_node


@pytest.mark.parametrize("seed", range(5))
def test_pressure_crossing_matches_loop(seed):
    model, u_mean, u_node = _segments(np.random.default_rng(seed), 80, 30.0)
    target = EulerPositivity().eps_p
    assert np.all(model.pressure(u_mean) >= target)  # the crossing's precondition
    t = _pressure_crossing(model, u_mean.T, u_node.T, target)
    t_loop = _bisection_loop(model, u_mean, u_node, target)
    assert np.all((t >= 0.0) & (t <= 1.0))
    # certified: the pressure at t, of the state formed as the limiter forms it
    assert np.all(model.pressure(t[:, None] * (u_node - u_mean) + u_mean) >= target)
    # and short of the loop's crossing by the round-off margin only
    assert np.all((t <= t_loop) & (t >= t_loop - 1e-11))


def test_pressure_crossing_backs_off_where_its_check_fails(monkeypatch):
    # fast means and nodes far thinner than them: the quadratic's coefficients
    # cancel, some roots fail the check, and those nodes are bisected
    model, u_mean, u_node = _segments(np.random.default_rng(7), 4000, 1000.0, node_rho_scale=-10.0)
    target = EulerPositivity().eps_p
    keep = model.pressure(u_mean) >= target
    u_mean, u_node = u_mean[keep], u_node[keep]
    passes = []
    pressure = model.pressure

    def counted(u):
        passes.append(len(u))
        return pressure(u)

    monkeypatch.setattr(model, "pressure", counted)
    t = _pressure_crossing(model, u_mean.T, u_node.T, target)
    assert passes[0] == len(t) and 1 < len(passes) <= 1 + _BACKOFF_STEPS
    assert all(n < len(t) for n in passes[1:])  # the failing nodes only
    assert np.all(pressure(t[:, None] * (u_node - u_mean) + u_mean) >= target)


# ------------------------------------------- Euler limiter, per-block oracle


def _former_bp_limit_euler(field, region, nodes):
    """The Euler BP limiter as it was before it limited the flagged cells of
    both node blocks once, in one compact array: here each block makes its
    own boolean-mask passes over whole (nx, ny) planes.  The oracle of
    `test_euler_limiter_matches_the_per_block_limiter`; it reads the
    crossing through the module, so a stand-in set there serves both."""
    model = field.model
    mean = field.coeffs[:, :, 0, :]
    mean_rho = mean[..., 0]
    mean_p = model.pressure(mean)
    limiters._require_means(region, mean, mean_p)
    blocks = nodes.evaluate(field, len(field.basis.eval_matrix))
    rho_min = np.min([v[0].min(axis=0) for v in blocks], axis=0)
    theta_rho = np.ones_like(mean_rho)
    low = rho_min < region.eps_rho
    if np.any(low):
        m, r = mean_rho[low], rho_min[low]
        aim = region.eps_rho + limiters._MARGIN * (np.abs(m) + np.abs(r))
        with np.errstate(divide="ignore"):
            th = theta_rho[low] = np.clip((m - aim) / (m - r), 0.0, 1.0)
        field.coeffs[low, 1:, 0] *= th[:, None]
        for v in blocks:
            v[0][:, low] = m + th * (v[0][:, low] - m)
    p_blocks = [model.pressure(np.moveaxis(v, 0, -1)) for v in blocks]
    theta_p = np.ones_like(mean_rho)
    cells = np.any([np.any(~(p >= region.eps_p), axis=0) for p in p_blocks], axis=0)
    if np.any(cells):
        ci, cj = np.nonzero(cells)
        flagged = []
        for v, p in zip(blocks, p_blocks):
            aim = limiters._pressure_aim(model.gamma, region.eps_p, mean[ci, cj, 3], v[3][:, ci, cj])
            node, k = np.nonzero(~(p[:, ci, cj] >= aim))
            flagged.append((ci[k], cj[k], v[:, node, ci[k], cj[k]]))
        fi, fj, u_node = (np.concatenate(part, axis=-1) for part in zip(*flagged))
        u_mean = np.ascontiguousarray(mean[fi, fj].T)
        t = limiters._pressure_crossing(model, u_mean, u_node, region.eps_p)
        np.minimum.at(theta_p, (fi, fj), t)
    scaled = theta_p < 1.0
    if np.any(scaled):
        th = theta_p[scaled]
        field.coeffs[scaled, 1:, :] *= th[:, None, None]
        m = mean[scaled].T[:, None, :]
        for v, p in zip(blocks, p_blocks):
            w = th * (v[:, :, scaled] - m)
            w += m
            v[:, :, scaled] = w
            p[:, scaled] = model.pressure(np.moveaxis(w, 0, -1))
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


# the mean densities of the cells the stand-in crossing below keeps at
# theta 1 (flagged, not changed) and moves past the floor (collapsed)
KEPT_RHO, LATE_RHO = 0.8, 0.7


def _stand_in_crossing(model, u_mean, u_node, target):
    t = _pressure_crossing(model, u_mean, u_node, target)
    t = np.where(u_mean[0] == KEPT_RHO, 1.0, t)
    return np.where(u_mean[0] == LATE_RHO, 0.5 * (1.0 + t), t)


def _dip(basis, axis, centre, depth):
    """Modes of (s - centre)**2 - depth, s the reference coordinate on `axis`:
    with t = 2s, s**2 = (2 P_2(t) + 1)/12 and s = P_1(t)/2, and the basis
    holds sqrt(2n + 1) P_n."""
    z = np.zeros(basis.n_modes)
    one, two = ((1, 0), (2, 0)) if axis == 0 else ((0, 1), (0, 2))
    z[0] = 1.0 / 12.0 + centre**2 - depth
    z[basis.mode_exps.index(one)] = -centre / np.sqrt(3.0)
    z[basis.mode_exps.index(two)] = 1.0 / (6.0 * np.sqrt(5.0))
    return z


def _oracle_field(k, nodes, rng, shape=(12, 8)):
    """Euler data on a non-square mesh that takes every path of the BP
    limiter.  Cells 0-6, each at rest with its own mean density:
    0 untouched; 1 density-limited only, with pressure just above its floor;
    2 pressure-short at the x = -1/2 face points only (stacked rows);
    3 pressure-short at an internal node only, by an energy dip there
    narrower than its distance to every stacked coordinate (a node set
    without internal rows gets a stacked-only cell); 4 short in both blocks;
    5 and 6 stacked-only cells of mean density KEPT_RHO and LATE_RHO.  The rest: fast means near vacuum with density
    slopes to near zero at a face, where some crossings fail their check
    and are bisected."""
    model, basis = EulerModel(), Basis2D(k)
    nx, ny = shape
    n = nx * ny
    coeffs = np.zeros((n, basis.n_modes, 4))
    rho = 10.0 ** rng.uniform(-8, 0, n)
    p = rho * 10.0 ** rng.uniform(-4, 2, n)  # far enough above the kinetic energy's round-off
    v = rng.uniform(-1000.0, 1000.0, (2, n))
    energy = p / (model.gamma - 1.0) + 0.5 * rho * (v**2).sum(axis=0)
    coeffs[:, 0] = np.stack([rho, rho * v[0], rho * v[1], energy], axis=1)
    coeffs[:, 1:, 1:] = rng.uniform(-1.0, 1.0, (n, basis.n_modes - 1, 3)) * np.abs(coeffs[:, :1, 1:])
    slope_x = basis.mode_exps.index((1, 0))
    coeffs[:, slope_x, 0] = (1.0 - 10.0 ** rng.uniform(-12, -6, n)) * rho / (0.5 * np.sqrt(3.0))

    def at_rest(cell, rho, energy):
        coeffs[cell] = 0.0
        coeffs[cell, 0, 0] = rho
        coeffs[cell, :, 3] = energy

    unit = np.eye(basis.n_modes)
    face_short = unit[0] + 1.02 / np.sqrt(3.0) * unit[slope_x]  # energy 1 + 2.04 x: below 0 only at x = -1/2
    at_rest(0, 1.0, unit[0])
    # rho = 0.9 - 2.2 x, -0.2 at x = 1/2; p 1.01 eps_p at x = -1/2: above the
    # floor, below the aim a crossing there would take
    at_rest(1, 0.9, unit[0] + (1.0 - 1.5 * 1.01 * EULER.eps_p) / np.sqrt(3.0) * unit[slope_x])
    coeffs[1, slope_x, 0] = -1.1 / np.sqrt(3.0)
    at_rest(2, 0.6, face_short)
    stacked = basis.offsets
    internal = nodes.offsets[len(stacked):]
    if len(internal):
        # the internal node's coordinate farthest from the stacked ones
        gaps = [np.abs(stacked[:, axis, None] - internal[0, axis]).min() for axis in (0, 1)]
        axis = int(np.argmax(gaps))
        depth = (gaps[axis] / 2.0) ** 2
        dip = _dip(basis, axis, internal[0, axis], depth) / depth  # -1 at the node, >= 3 at stacked points
        at_rest(3, 0.5, dip + 0.5 * unit[0])
        low = (mode_values(k, stacked).T @ dip).min()
        at_rest(4, 0.4, dip - (low + 0.1) * unit[0])  # -0.1 at the nearest stacked points
    else:
        at_rest(3, 0.5, face_short)
        at_rest(4, 0.4, face_short)
    at_rest(5, KEPT_RHO, face_short)
    at_rest(6, LATE_RHO, face_short)
    layout = np.ascontiguousarray(coeffs.reshape(nx, ny, basis.n_modes, 4).transpose(3, 2, 0, 1))
    mesh = Mesh2D(0.0, 1.2, -0.2, 0.4, nx, ny)
    return DGField(layout.transpose(2, 3, 1, 0), basis, mesh, model)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("build", [optimal_2d, zhang_shu_2d])
def test_euler_limiter_matches_the_per_block_limiter(k, build, monkeypatch):
    """The limiter gives the former per-block limiter's coefficients,
    diagnostics, handed-on values and pressure bit for bit, with the real
    crossing and with a stand-in that leaves a flagged cell unchanged and
    collapses another; on DGField's memory order and on one whose cells are
    not one axis in memory (the coefficients' reshape copies)."""
    basis = Basis2D(k)
    nodes = build_node_set(build(k, SpeedRatios((1.0, 0.3))), basis, EULER)
    field = _oracle_field(k, nodes, np.random.default_rng(k))
    model, n_stacked = field.model, len(basis.eval_matrix)

    # the paths taken: node values before limiting, by kind of cell
    at_nodes = np.einsum("pn,ijnc->ijpc", nodes.matrix, field.coeffs)
    short = ~(model.pressure(at_nodes) >= EULER.eps_p)
    in_stacked, in_internal = short[:, :, :n_stacked].any(axis=2), short[:, :, n_stacked:].any(axis=2)
    density = at_nodes[..., 0].min(axis=2) < EULER.eps_rho
    assert density[0, 1] and not short[0, 1].any()
    assert model.pressure(at_nodes[0, 1]).min() < 1.02 * EULER.eps_p
    assert in_stacked[0, 2] and not in_internal[0, 2]
    assert in_stacked[0, 4] and (in_internal[0, 4] or len(nodes) == n_stacked)
    if len(nodes) > n_stacked:
        assert in_internal[0, 3] and not in_stacked[0, 3]
    assert not density[0, 2:7].any() and not short[0, 0].any()

    crossing_checks = []
    pressure = model.pressure

    def counted(u):
        if u.ndim == 2 and u.shape[1] == 4:  # the crossing's checks, (nodes, 4)
            crossing_checks.append(len(u))
        return pressure(u)

    for crossing in (_pressure_crossing, _stand_in_crossing):
        monkeypatch.setattr(limiters, "_pressure_crossing", crossing)
        expect_out, expect_diag, expect = _former_bp_limit_euler(field.copy(), EULER, nodes)
        other_order = field.like(np.asfortranarray(field.coeffs))
        assert not np.may_share_memory(other_order.coeffs.reshape(-1, basis.n_modes, 4), other_order.coeffs)
        for start in (field.copy(), other_order):
            crossing_checks.clear()
            monkeypatch.setattr(model, "pressure", counted)
            out, diag, values = bp_scaling_limit(start, EULER, nodes)
            monkeypatch.setattr(model, "pressure", pressure)
            np.testing.assert_array_equal(out.coeffs, expect_out.coeffs)
            assert diag == expect_diag
            np.testing.assert_array_equal(values.stacked, expect.stacked)
            np.testing.assert_array_equal(values.pressure, expect.pressure)
        if crossing is _pressure_crossing:
            assert len(crossing_checks) > 1  # some crossings were bisected
            assert diag.collapsed_cells == 0
        else:
            assert diag.collapsed_cells == 1 and np.all(out.coeffs[0, 6, 1:] == 0.0)
            np.testing.assert_array_equal(out.coeffs[0, 5], field.coeffs[0, 5])  # flagged, kept
        np.testing.assert_array_equal(out.coeffs[0, 0], field.coeffs[0, 0])
        assert diag.cells_limited < field.mesh.nx * field.mesh.ny


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
    nodes = _node_set(optimal_2d(k, SpeedRatios(tuple(rng.uniform(0.1, 1.0, 2)))))
    out, diag, _ = bp_scaling_limit(field.copy(), region, nodes)
    vals = evaluate_at_offsets(out, nodes.offsets)
    # the limiter's own round-off bound, far inside the region's BOX_SLACK
    tol = 1e-14 * max(1.0, abs(region.lo), abs(region.hi))
    assert np.all((vals >= region.lo - tol) & (vals <= region.hi + tol))
    np.testing.assert_allclose(out.cell_averages, field.cell_averages, rtol=0, atol=1e-14)
    assert 0.0 <= diag.min_theta <= 1.0
    # each cell's higher modes are scaled by one theta in [0, 1]
    before = np.linalg.norm(field.coeffs[:, :, 1:, 0], axis=2)
    after = np.linalg.norm(out.coeffs[:, :, 1:, 0], axis=2)
    assert np.all(after <= before * (1.0 + 1e-15))


def _box_limit_all_cells(field, region, nodes):
    """The box limiter with theta formed at every cell: the oracle for
    `_bp_limit_box`, which forms it only where a node leaves the box."""
    mean = field.coeffs[:, :, 0, 0]
    vals = nodes.evaluate(field)[0]
    hi, lo = vals.max(axis=0), vals.min(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta_hi = np.where(hi > region.hi, (region.hi - mean) / (hi - mean), 1.0)
        theta_lo = np.where(lo < region.lo, (mean - region.lo) / (mean - lo), 1.0)
    theta = np.clip(np.minimum(theta_hi, theta_lo), 0.0, 1.0)
    if not np.all(theta == 1.0):
        field.coeffs[:, :, 1:, :] *= theta[:, :, None, None]
    return field, LimiterDiagnostics(cells_limited=int(np.count_nonzero(theta < 1.0)),
                                     min_theta=float(theta.min()))


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([2, 3]), family=st.sampled_from(["optimal", "classic"]),
       case=st.sampled_from(["none", "all", "both", "slack", "mixed"]),
       lo=st.floats(-2.0, 0.5), width=st.floats(0.01, 3.0))
def test_box_limiter_matches_the_all_cells_formula(seed, k, family, case, lo, width):
    """Bit for bit: the coefficients and diagnostics.  `none`: every cell
    inside, some flat exactly on a bound (a `>=` flag would divide 0 by 0
    there); `all`: every cell breaks both bounds; `both`: one cell does;
    `slack`: one mean within BOX_SLACK above the box, whose theta is 0."""
    rng = np.random.default_rng(seed)
    region = BoxScalar(lo, lo + width)
    n = 5
    field = _scalar_field(n=n, k=k, region=region)
    field.coeffs[:, :, 0, 0] = rng.uniform(region.lo, region.hi, (n, n))
    amplitude = {"none": 0.0, "all": 0.3, "both": 0.3, "slack": 0.3, "mixed": 1.0}[case]
    field.coeffs[:, :, 1:, 0] = _higher_modes(rng, (n, n, field.basis.n_modes - 1), amplitude * width)
    ix = field.basis.mode_exps.index((1, 0))
    if case == "none":
        field.coeffs[0, :, 0, 0] = region.hi
        field.coeffs[1, :, 0, 0] = region.lo
    elif case == "all":
        field.coeffs[:, :, ix, 0] = 2.0 * width  # face values mean -+ 2 sqrt(3) width
    elif case == "both":
        field.coeffs[2, 3, ix, 0] = -2.0 * width
    elif case == "slack":
        field.coeffs[2, 3, 0, 0] = region.hi + rng.uniform(0.1, 1.0) * BOX_SLACK
        field.coeffs[2, 3, ix, 0] = 0.1 * width
    ratios = SpeedRatios(tuple(rng.uniform(0.1, 1.0, 2)))
    nodes = _node_set((optimal_2d if family == "optimal" else zhang_shu_2d)(k, ratios))
    out, diag, _ = bp_scaling_limit(field.copy(), region, nodes)
    expect, expect_diag = _box_limit_all_cells(field.copy(), region, nodes)
    np.testing.assert_array_equal(out.coeffs.view(np.uint64), expect.coeffs.view(np.uint64))
    assert diag == expect_diag
    flagged = {"none": 0, "all": n * n}.get(case)
    if flagged is not None:
        assert diag.cells_limited == flagged
    if case == "slack":
        assert np.all(out.coeffs[2, 3, 1:] == 0.0)  # theta 0: the mean is above the box


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([2, 3]),
       log_rho=st.floats(-10.0, 0.0), log_p=st.floats(-10.0, 0.0), amplitude=st.floats(0.0, 3.0))
def test_euler_limiter_properties_near_vacuum(formed_ghosts, seed, k, log_rho, log_p, amplitude):
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
    nodes = _node_set(optimal_2d(k, EQUAL), EULER)
    out, diag, values = bp_scaling_limit(field.copy(), region, nodes)
    np.testing.assert_allclose(out.cell_averages, field.cell_averages, rtol=0, atol=1e-14)
    assert 0.0 <= diag.min_theta <= 1.0
    assert diag.collapsed_cells == 0  # the counted fallback is never taken
    # every value the residual evaluates is inside the region, on the floors
    floor = 1.0 - 1e-10
    assert np.all(values.stacked[..., 0] >= region.eps_rho * floor)
    assert np.all(values.pressure >= region.eps_p * floor)
    # and is the limited coefficients' evaluation up to round-off
    _assert_hands_on(out, values, 1e-14 * max(1.0, np.abs(values.stacked).max()), formed_ghosts)
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
    out, troubled = tvb_minmod_limit(field.copy(), 50.0)
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
    out, troubled = tvb_minmod_limit(field.copy(), 1.0)
    assert troubled > 0
    assert abs(out.cell_averages.sum() - field.cell_averages.sum()) <= 1e-14 * 16 * 16


def _tvb_all_cells(field, m_tvb):
    """The TVB limiter with minmod taken at every cell and component: the
    oracle for `tvb_minmod_limit`.  Returns the limited coefficients and the
    troubled count."""
    basis, mesh = field.basis, field.mesh
    ix, iy = basis.mode_exps.index((1, 0)), basis.mode_exps.index((0, 1))
    sqrt3 = np.sqrt(3.0)
    coeffs = field.coeffs.copy()
    ext_x, ext_y = limiters._ghost_means(field)

    def minmod(a, b, c):
        sign = np.sign(a)
        agree = (sign == np.sign(b)) & (sign == np.sign(c))
        return np.where(agree, sign * np.minimum(np.abs(a), np.minimum(np.abs(b), np.abs(c))), 0.0)

    dx_mode = sqrt3 * coeffs[:, :, ix, :]
    dy_mode = sqrt3 * coeffs[:, :, iy, :]
    lim_x = np.where(np.abs(dx_mode) <= m_tvb * mesh.dx**2, dx_mode,
                     minmod(dx_mode, ext_x[2:] - ext_x[1:-1], ext_x[1:-1] - ext_x[:-2]))
    lim_y = np.where(np.abs(dy_mode) <= m_tvb * mesh.dy**2, dy_mode,
                     minmod(dy_mode, ext_y[:, 2:] - ext_y[:, 1:-1], ext_y[:, 1:-1] - ext_y[:, :-2]))
    troubled = np.any((lim_x != dx_mode) | (lim_y != dy_mode), axis=-1)
    new = np.zeros_like(coeffs[troubled])
    new[:, 0, :] = coeffs[troubled][:, 0, :]
    new[:, ix, :] = lim_x[troubled] / sqrt3
    new[:, iy, :] = lim_y[troubled] / sqrt3
    coeffs[troubled] = new
    return coeffs, int(np.count_nonzero(troubled))


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 3]), m=st.sampled_from([1, 4]),
       periodic=st.booleans(), m_tvb=st.one_of(st.just(0.0), st.floats(0.0, 200.0)),
       amplitude=st.floats(0.0, 2.0), checkerboard=st.booleans())
@example(seed=0, k=2, m=4, periodic=True, m_tvb=0.0, amplitude=1.0, checkerboard=True)
@example(seed=1, k=2, m=1, periodic=False, m_tvb=0.0, amplitude=1.0, checkerboard=True)
def test_tvb_candidates_only_equal_all_cells(seed, k, m, periodic, m_tvb, amplitude, checkerboard):
    """Minmod on the dead-zone leavers only gives the all-cells formula's
    coefficients and troubled count bit for bit: with M = 0 (every nonzero
    slope a candidate), with a field where every cell is troubled, and on
    periodic and outflow meshes."""
    rng = np.random.default_rng(seed)
    bc = PERIODIC if periodic else OUTFLOW
    nx, ny = 5, 4
    mesh = Mesh2D(0.0, 1.0, 0.0, 0.8, nx, ny, bc_left=bc, bc_right=bc, bc_bottom=bc, bc_top=bc)
    basis = Basis2D(k)
    model = AdvectionModel() if m == 1 else EulerModel()
    coeffs = np.empty((m, basis.n_modes, nx, ny)).transpose(2, 3, 1, 0)  # component-major
    coeffs[...] = amplitude * rng.normal(size=coeffs.shape)
    if checkerboard:
        # neighbouring means alternate in sign, so minmod gives 0 everywhere
        i, j = np.indices((nx, ny))
        coeffs[:, :, 0, :] = np.where((i + j) % 2 == 0, 1.0, -1.0)[..., None]
    field = DGField(coeffs, basis, mesh, model)
    before = coeffs.copy()
    expect, expect_troubled = _tvb_all_cells(field, m_tvb)
    out, troubled = tvb_minmod_limit(field.copy(), m_tvb)
    np.testing.assert_array_equal(out.coeffs, expect)
    assert troubled == expect_troubled
    np.testing.assert_array_equal(field.coeffs, before)  # the input is left as it was
    ix, iy = basis.mode_exps.index((1, 0)), basis.mode_exps.index((0, 1))
    sloped = np.any((coeffs[:, :, ix, :] != 0.0) | (coeffs[:, :, iy, :] != 0.0), axis=-1)
    if checkerboard and m_tvb == 0.0 and sloped.all():
        assert troubled == nx * ny


def test_tvb_noop_for_piecewise_constant_space():
    field = DGField(np.zeros((4, 4, 1, 1)), Basis2D(0),
                    Mesh2D(0.0, 1.0, 0.0, 1.0, 4, 4), AdvectionModel())
    out, troubled = tvb_minmod_limit(field, 1.0)
    assert troubled == 0


# ------------------------------------------------------------ limiter chain


def test_chain_requires_region_and_nodes_for_bp():
    # BP limiting is on exactly when a node set is given, in the field's own region
    field = _scalar_field(n=6)
    ix = field.basis.mode_exps.index((1, 0))
    field.coeffs[2, 3, ix, 0] = 1.0  # overshoots to sqrt(3) on the x+ face
    off = LimiterChain()
    unlimited, diag, values = off(field.copy())
    np.testing.assert_array_equal(unlimited.coeffs, field.coeffs)
    assert diag == LimiterDiagnostics() and values is None
    on = LimiterChain(_node_set(optimal_2d(2, EQUAL)))
    limited, diag, values = on(field)
    assert diag.cells_limited == 1 and values is None  # the box limiter returns no values
    assert evaluate_at_offsets(limited, on.node_set.offsets)[2, 3].max() <= field.model.region.hi + 1e-13


def test_chain_applies_tvb_then_bp_and_records_diagnostics():
    field = _scalar_field(n=6)
    ix = field.basis.mode_exps.index((1, 0))
    field.coeffs[:, :, ix, 0] = 1.0
    chain = LimiterChain(_node_set(optimal_2d(2, EQUAL)), m_tvb=0.1)
    out, diag, _ = chain(field)
    assert diag.min_theta <= 1.0
    nodes = chain.node_set
    vals = evaluate_at_offsets(out, nodes.offsets)[..., 0]
    assert vals.max() <= 1.0 + 1e-13 and vals.min() >= -1.0 - 1e-13


def test_ssp_step_returns_every_stage_diagnostics():
    field = _scalar_field(n=6)
    ix = field.basis.mode_exps.index((1, 0))
    field.coeffs[2, 3, ix, 0] = 1.0  # overshoots to sqrt(3) on the x+ face
    chain = LimiterChain(_node_set(optimal_2d(2, EQUAL)))
    _, values, stages = ssp_step(field, SSPRK3, 1e-6, chain)
    # every stage state mixes in the unlimited start state, so cell (2, 3) is
    # limited at each of the three stages, one cell at each
    assert [diag.cells_limited for diag in stages] == [1, 1, 1]
    totals = LimiterDiagnostics()
    for diag in stages:
        totals.add(diag)
    assert totals.cells_limited == 3
    assert totals.min_theta < 1.0
    assert values is None
