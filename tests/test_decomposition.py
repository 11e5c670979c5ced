"""Convex decompositions: CFL steps, feasibility, node counts, optimality."""

import math

import numpy as np
import pytest

from bpdg.decomposition import (
    SpeedRatios,
    bp_max_dt,
    decomposition_for,
    jiang_liu_2d,
    jiang_liu_3d,
    linear_stability_dt,
    optimal_2d,
    optimal_3d,
    optimality_certificate,
    random_feasible_search,
    verify_exactness,
    zhang_shu_2d,
    zhang_shu_3d,
)

EQUAL2 = SpeedRatios((1.0, 1.0))
EQUAL3 = SpeedRatios((1.0, 1.0, 1.0))


def _rel_close(a, b, rel=1e-14):
    assert abs(a - b) <= rel * abs(b), f"{a} vs {b}"


# ---------------------------------------------------------------- CFL tables


@pytest.mark.parametrize("k", [2, 3])
def test_cfl_equal_ratio_special_cases_2d(k):
    unit = ((1.0, 1.0), (1.0, 1.0))
    _rel_close(bp_max_dt(optimal_2d(k, EQUAL2), *unit).max_dt, 1.0 / 8.0)
    _rel_close(bp_max_dt(zhang_shu_2d(k, EQUAL2), *unit).max_dt, 1.0 / 12.0)
    _rel_close(bp_max_dt(jiang_liu_2d(k), *unit).max_dt, 1.0 / 12.0)


@pytest.mark.parametrize("k", [2, 3])
def test_cfl_equal_ratio_special_cases_3d(k):
    unit = ((1.0,) * 3, (1.0,) * 3)
    _rel_close(bp_max_dt(optimal_3d(k, EQUAL3), *unit).max_dt, 1.0 / 10.0)
    _rel_close(bp_max_dt(zhang_shu_3d(k, EQUAL3), *unit).max_dt, 1.0 / 18.0)
    _rel_close(bp_max_dt(jiang_liu_3d(k), *unit).max_dt, 1.0 / 18.0)


@pytest.mark.parametrize("k", [2, 3])
def test_cfl_half_c0_special_cases(k):
    unit = ((1.0, 1.0), (1.0, 1.0))
    _rel_close(bp_max_dt(optimal_2d(k, EQUAL2), *unit, c0=0.5).max_dt, 1.0 / 16.0)
    _rel_close(bp_max_dt(zhang_shu_2d(k, EQUAL2), *unit, c0=0.5).max_dt, 1.0 / 24.0)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cfl_general_formulas_2d(k, seed):
    rng = np.random.default_rng(seed)
    phi = tuple(rng.uniform(0.1, 10.0, 2))
    r = SpeedRatios(phi)
    unit = (phi, (1.0, 1.0))  # speeds = phi, unit spacing
    psi = phi[0] + phi[1] + 2.0 * max(phi)
    _rel_close(bp_max_dt(optimal_2d(k, r), *unit).max_dt, 1.0 / (2.0 * psi), rel=1e-13)
    _rel_close(
        bp_max_dt(zhang_shu_2d(k, r), *unit).max_dt,
        1.0 / (6.0 * (phi[0] + phi[1])),
        rel=1e-13,
    )
    _rel_close(bp_max_dt(jiang_liu_2d(k), *unit).max_dt, 1.0 / (12.0 * max(phi)), rel=1e-13)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", [3, 4])
def test_cfl_general_formulas_3d(k, seed):
    rng = np.random.default_rng(seed)
    phi = tuple(rng.uniform(0.1, 10.0, 3))
    r = SpeedRatios(phi)
    unit = (phi, (1.0,) * 3)
    psi = sum(phi) + 2.0 * max(phi)
    _rel_close(bp_max_dt(optimal_3d(k, r), *unit).max_dt, 1.0 / (2.0 * psi), rel=1e-13)
    _rel_close(bp_max_dt(zhang_shu_3d(k, r), *unit).max_dt, 1.0 / (6.0 * sum(phi)), rel=1e-13)
    _rel_close(bp_max_dt(jiang_liu_3d(k), *unit).max_dt, 1.0 / (18.0 * max(phi)), rel=1e-13)


def test_linear_stability_steps():
    assert linear_stability_dt(2, (1.0, 1.0), (1.0, 1.0)) == pytest.approx(0.1, rel=1e-15)
    assert linear_stability_dt(3, (1.0, 1.0), (1.0, 1.0)) == pytest.approx(1.0 / 14.0, rel=1e-15)
    assert math.isinf(linear_stability_dt(2, (0.0, 0.0), (1.0, 1.0)))


def test_bp_max_dt_skips_zero_speed_axes():
    d = optimal_2d(2, EQUAL2)
    rep = bp_max_dt(d, (0.0, 2.0), (1.0, 1.0))
    assert not rep.unbounded
    assert "axis0" not in rep.formula_terms
    rep = bp_max_dt(d, (0.0, 0.0), (1.0, 1.0))
    assert rep.unbounded and math.isinf(rep.max_dt)


def test_bp_max_dt_validation():
    d = optimal_2d(2, EQUAL2)
    with pytest.raises(ValueError):
        bp_max_dt(d, (1.0,), (1.0, 1.0))
    with pytest.raises(ValueError):
        bp_max_dt(d, (1.0, 1.0), (1.0, 1.0), c0=0.0)
    with pytest.raises(ValueError):
        bp_max_dt(d, (-1.0, 1.0), (1.0, 1.0))


# ------------------------------------------------------- feasibility sweep


def _all_decomps(k, phi2, phi3):
    r2, r3 = SpeedRatios(phi2), SpeedRatios(phi3)
    return [
        optimal_2d(k, r2),
        zhang_shu_2d(k, r2),
        jiang_liu_2d(k),
        optimal_3d(k, r3),
        zhang_shu_3d(k, r3),
        jiang_liu_3d(k),
    ]


@pytest.mark.parametrize("k", [2, 3])
def test_feasibility_random_ratios(k):
    rng = np.random.default_rng(100 + k)
    for _ in range(100):
        phi2 = tuple(10.0 ** rng.uniform(-3, 3, 2))
        phi3 = tuple(10.0 ** rng.uniform(-3, 3, 3))
        for d in _all_decomps(k, phi2, phi3):
            assert all(w > 0 for pair in d.face_weights for w in pair), d.name
            if d.internal_node_count:
                assert np.all(d.internal_weights > 0), d.name
                assert np.all(np.abs(d.internal_offsets) <= 0.5 + 1e-14), d.name
            assert abs(d.total_weight() - 1.0) <= 1e-12, d.name
            assert verify_exactness(d) <= 1e-13, d.name


# ------------------------------------------------------------- node counts


@pytest.mark.parametrize("k,classic2d,classic3d", [(2, 5, 19), (3, 8, 48)])
def test_internal_node_counts(k, classic2d, classic3d):
    assert zhang_shu_2d(k, SpeedRatios((1.3, 0.7))).internal_node_count == classic2d
    assert jiang_liu_2d(k).internal_node_count == classic2d
    assert zhang_shu_3d(k, SpeedRatios((1.0, 2.0, 3.0))).internal_node_count == classic3d
    assert jiang_liu_3d(k).internal_node_count == classic3d
    assert optimal_2d(k, SpeedRatios((2.0, 1.0))).internal_node_count <= 2
    assert optimal_3d(k, SpeedRatios((3.0, 2.0, 1.0))).internal_node_count <= 4


@pytest.mark.parametrize("k", [2, 3])
def test_equal_ratio_internal_nodes_merge(k):
    # coincident nodes collapse to the cell center with summed weight
    assert optimal_2d(k, EQUAL2).internal_node_count == 1
    assert optimal_3d(k, EQUAL3).internal_node_count == 1


@pytest.mark.parametrize("k", [2, 3])
def test_optimal_cheaper_than_classic(k):
    assert optimal_2d(k, EQUAL2).internal_node_count < jiang_liu_2d(k).internal_node_count
    assert optimal_3d(k, EQUAL3).internal_node_count < jiang_liu_3d(k).internal_node_count


def test_optimal_2d_node_branch_follows_larger_ratio():
    d = optimal_2d(2, SpeedRatios((4.0, 1.0)))
    # larger x-ratio puts the internal nodes on the y-axis
    assert np.allclose(d.internal_offsets[:, 0], 0.0)
    assert np.any(d.internal_offsets[:, 1] != 0.0)
    d = optimal_2d(2, SpeedRatios((1.0, 4.0)))
    assert np.allclose(d.internal_offsets[:, 1], 0.0)


# ---------------------------------------------------- optimality certificate


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("phi", [(1.0, 1.0), (2.0, 1.0), (1.0, 5.0)])
def test_certificate_on_constructed_decompositions(k, phi):
    r = SpeedRatios(phi)
    for d in (optimal_2d(k, r), zhang_shu_2d(k, r), jiang_liu_2d(k)):
        result = optimality_certificate(k, r, d)
        assert result.verdict == "dominated", (d.name, result)
        assert result.dt_ratio is not None and result.dt_ratio <= 1.0 + 1e-12


def test_certificate_flags_moment_violations():
    # face weights too heavy: no exact completion exists for the quadratics
    base = optimal_2d(2, EQUAL2)
    heavy = type(base)(
        name="heavy",
        dim=2,
        poly_degree_k=2,
        face_weights=((0.3, 0.3), (0.3, 0.3)),
        transverse_rule=base.transverse_rule,
        internal_offsets=base.internal_offsets,
        internal_weights=base.internal_weights,
    )
    assert optimality_certificate(2, EQUAL2, heavy).verdict == "violates_moments"


def test_certificate_flags_infeasible_candidates():
    base = optimal_2d(2, EQUAL2)
    bad = type(base)(
        name="bad",
        dim=2,
        poly_degree_k=2,
        face_weights=((-0.1, 0.1), (0.1, 0.1)),
        transverse_rule=base.transverse_rule,
        internal_offsets=base.internal_offsets,
        internal_weights=base.internal_weights,
    )
    assert optimality_certificate(2, EQUAL2, bad).verdict == "infeasible"


@pytest.mark.parametrize("phi", [(1.0, 1.0), (2.0, 1.0), (1.0, 5.0)])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_random_search_never_beats_optimal(phi, seed):
    r = SpeedRatios(phi)
    best = random_feasible_search(2, r, trials=10_000, rng_seed=seed)
    dt_opt = bp_max_dt(optimal_2d(2, r), phi, (1.0, 1.0)).max_dt
    assert best is not None
    assert best <= dt_opt + 1e-10


def test_optimal_face_weights_satisfy_moment_constraints():
    for phi in ((1.0, 1.0), (3.0, 1.0), (0.2, 5.0)):
        d = optimal_2d(2, SpeedRatios(phi))
        s1 = sum(d.face_weights[0])
        s2 = sum(d.face_weights[1])
        assert 3 * s1 + s2 <= 1 + 1e-12
        assert s1 + 3 * s2 <= 1 + 1e-12


# ------------------------------------------------------------- validation


def test_speed_ratios_validation():
    with pytest.raises(ValueError):
        SpeedRatios((1.0,))
    with pytest.raises(ValueError):
        SpeedRatios((1.0, -1.0))
    with pytest.raises(ValueError):
        SpeedRatios((1.0, 2.0, 3.0, 4.0))


@pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf, 0.0])
@pytest.mark.parametrize("policy, dim", [(p, d) for p in ("optimal", "classic", "jiangliu") for d in (2, 3)])
def test_non_finite_speed_ratios_are_rejected(policy, dim, bad):
    """Every builder, reached through its policy: a ratio that is not finite
    and positive, on any axis, is a ValueError before a builder runs (an
    infinite one used to give NaN weights and a bp_max_dt of 0.0, a NaN one
    a bp_max_dt of inf)."""
    for axis in range(dim):
        phi = tuple(bad if i == axis else 1.0 for i in range(dim))
        with pytest.raises(ValueError, match="finite and positive"):
            decomposition_for(policy, 2, SpeedRatios(phi))
    # the same builders at finite ratios
    assert decomposition_for(policy, 2, SpeedRatios((1.0,) * dim)).dim == dim


# every builder, called with ratios of its own dimension
BUILDERS = {
    "optimal_2d": lambda k, r=EQUAL2: optimal_2d(k, r),
    "zhang_shu_2d": lambda k, r=EQUAL2: zhang_shu_2d(k, r),
    "jiang_liu_2d": jiang_liu_2d,
    "optimal_3d": lambda k, r=EQUAL3: optimal_3d(k, r),
    "zhang_shu_3d": lambda k, r=EQUAL3: zhang_shu_3d(k, r),
    "jiang_liu_3d": jiang_liu_3d,
}


@pytest.mark.parametrize("k", [0, 1, 4])
def test_unsupported_degree_rejected(k):
    for build in BUILDERS.values():
        with pytest.raises(ValueError, match=f"unsupported polynomial degree k={k}"):
            build(k)


def test_dimension_mismatch_rejected():
    for name in ("optimal_2d", "zhang_shu_2d", "optimal_3d", "zhang_shu_3d"):
        other = EQUAL3 if name.endswith("2d") else EQUAL2
        with pytest.raises(ValueError, match=f"expected {name[-2]}D input, got {other.dim}D"):
            BUILDERS[name](2, other)


def test_certificate_and_search_reject_other_dimensions():
    with pytest.raises(ValueError, match="expected 2D input, got 3D"):
        optimality_certificate(2, EQUAL2, optimal_3d(2, EQUAL3))
    with pytest.raises(ValueError, match="expected 2D input, got 3D"):
        optimality_certificate(2, EQUAL3, optimal_2d(2, EQUAL2))
    with pytest.raises(ValueError, match="expected 2D input, got 3D"):
        random_feasible_search(2, EQUAL3, trials=10, rng_seed=0)
    with pytest.raises(ValueError, match="unsupported polynomial degree"):
        random_feasible_search(4, EQUAL2, trials=10, rng_seed=0)


def test_decomposition_for_unknown_policy():
    # `linear` names no decomposition: it bounds no limiter nodes
    for name in ("bogus", "linear"):
        with pytest.raises(ValueError, match="unknown policy"):
            decomposition_for(name, 2, EQUAL2)
