"""Models, invariant regions, and the Lax-Friedrichs flux."""

import numpy as np
import pytest

from bpdg.physics import (
    BOX_SLACK,
    EULER_FLOOR,
    AdmissibilityError,
    AdvectionModel,
    BoxScalar,
    BurgersModel,
    EulerModel,
    EulerPositivity,
    lax_friedrichs_flux,
)

GAMMA = 5.0 / 3.0


def _random_admissible_euler(rng, n):
    rho = rng.uniform(0.1, 5.0, n)
    v1 = rng.uniform(-3.0, 3.0, n)
    v2 = rng.uniform(-3.0, 3.0, n)
    p = rng.uniform(0.1, 4.0, n)
    e = p / (GAMMA - 1.0) + 0.5 * rho * (v1**2 + v2**2)
    return np.stack([rho, rho * v1, rho * v2, e], axis=-1)


def test_pressure_closed_form():
    model = EulerModel(gamma=1.4)
    u = model.conserved(1.0, 2.0, -1.0, 0.7)
    assert model.pressure(u) == pytest.approx(0.7, rel=1e-14)


def test_conserved_round_trip():
    model = EulerModel()
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho, p = rng.uniform(0.1, 5.0, 2)
        v1, v2 = rng.uniform(-4.0, 4.0, 2)
        u = model.conserved(rho, v1, v2, p)
        assert u[0] == pytest.approx(rho)
        assert model.pressure(u) == pytest.approx(p, rel=1e-13)


def test_euler_flux_values():
    model = EulerModel(gamma=1.4)
    u = model.conserved(2.0, 3.0, -1.0, 5.0)
    f = model.flux(u, 0)
    rho, m1, m2, e = u
    p = model.pressure(u)
    v1 = m1 / rho
    np.testing.assert_allclose(
        f, [m1, m1 * v1 + p, m2 * v1, (e + p) * v1], rtol=1e-14
    )
    g = model.flux(u, 1)
    v2 = m2 / rho
    np.testing.assert_allclose(
        g, [m2, m1 * v2, m2 * v2 + p, (e + p) * v2], rtol=1e-14
    )


def test_wave_speeds():
    adv = AdvectionModel(c=(2.0, -0.5))
    u = np.array([[0.3]])
    assert adv.max_wave_speed(u, 0) == pytest.approx(2.0)
    assert adv.max_wave_speed(u, 1) == pytest.approx(0.5)

    burg = BurgersModel(BoxScalar(-1.0, 1.0))
    assert burg.max_wave_speed(np.array([-0.8]), 0) == pytest.approx(0.8)

    euler = EulerModel(gamma=1.4)
    u = euler.conserved(1.0, 2.0, 0.0, 1.0)
    expected = 2.0 + np.sqrt(1.4)
    assert euler.max_wave_speed(u, 0) == pytest.approx(expected, rel=1e-14)


def test_euler_wave_speed_rejects_inadmissible():
    model = EulerModel()
    with pytest.raises(AdmissibilityError):
        model.max_wave_speed(np.array([1.0, 10.0, 0.0, 1.0]), 0)  # negative pressure
    with pytest.raises(AdmissibilityError):
        model.max_wave_speeds(np.array([[1.0, 10.0, 0.0, 1.0]]))


def test_two_axis_speeds_equal_per_axis_maxima():
    """`max_wave_speeds` gives the bits of the per-axis `max_wave_speed` maxima,
    also on component-major views and with the pressure passed in."""
    rng = np.random.default_rng(5)
    euler = EulerModel()
    u = _random_admissible_euler(rng, 60).reshape(6, 10, 4)
    u = np.ascontiguousarray(u.transpose(2, 0, 1)).transpose(1, 2, 0)  # component-major view
    cases = [(AdvectionModel(c=(2.0, -0.5)), rng.uniform(-1.0, 1.0, (6, 10, 1))),
             (BurgersModel(BoxScalar(-1.0, 1.0)), rng.uniform(-1.0, 1.0, (6, 10, 1))),
             (euler, u)]
    for model, states in cases:
        per_axis = tuple(float(np.max(model.max_wave_speed(states, axis))) for axis in (0, 1))
        assert model.max_wave_speeds(states) == per_axis
    assert euler.max_wave_speeds(u, euler.pressure(u)) == euler.max_wave_speeds(u)


@pytest.mark.parametrize("axis", [0, 1])
def test_lax_friedrichs_consistency(axis):
    rng = np.random.default_rng(11)
    euler = EulerModel()
    u = _random_admissible_euler(rng, 50)
    alpha = float(np.max(euler.max_wave_speed(u, axis)))
    f = lax_friedrichs_flux(euler, u, u, axis, alpha)
    np.testing.assert_allclose(f, euler.flux(u, axis), atol=1e-14)

    burg = BurgersModel(BoxScalar(-1.0, 1.0))
    v = rng.uniform(-1.0, 1.0, (30, 1))
    f = lax_friedrichs_flux(burg, v, v, axis, 1.0)
    np.testing.assert_allclose(f, burg.flux(v, axis), atol=1e-14)


def test_lax_friedrichs_dissipation_sign():
    adv = AdvectionModel(c=(1.0, 0.0))
    ul = np.array([[0.0]])
    ur = np.array([[1.0]])
    f = lax_friedrichs_flux(adv, ul, ur, 0, alpha=1.0)
    # upwind value for rightward advection is the left state
    assert f[0, 0] == pytest.approx(0.0)


def test_box_region():
    box = BoxScalar(-1.0, 0.8)
    u = np.array([[-1.0], [0.0], [0.8], [0.81], [-1.1], [np.nan]])
    np.testing.assert_array_equal(box.contains(u), [True, True, True, False, False, False])
    # the slack is the one round-off allowance, at both ends
    edge = np.array([[-1.0 - BOX_SLACK], [0.8 + BOX_SLACK]])
    assert np.all(box.contains(edge))
    assert not np.any(box.contains(np.nextafter(edge, [[-np.inf], [np.inf]])))
    with pytest.raises(ValueError):
        BoxScalar(1.0, 1.0)


def test_euler_region():
    region = EulerPositivity(gamma=GAMMA)
    model = EulerModel(gamma=GAMMA)
    good = model.conserved(1.0, 1.0, 1.0, 1.0)
    bad_p = np.array([1.0, 10.0, 0.0, 1.0])
    bad_rho = np.array([-1.0, 0.0, 0.0, 1.0])
    assert region.contains(good)
    assert not region.contains(bad_p)
    assert not region.contains(bad_rho)
    for component in range(4):  # a NaN in any component
        nan = good.copy()
        nan[component] = np.nan
        assert not region.contains(nan)
    assert not region.contains(good, p=np.nan)
    # each floor may be missed by its EULER_FLOOR factor, not by one ulp more
    rho_edge = region.eps_rho * EULER_FLOOR
    assert region.contains(model.conserved(rho_edge, 0.0, 0.0, 1.0))
    assert not region.contains(model.conserved(np.nextafter(rho_edge, 0.0), 0.0, 0.0, 1.0))
    p_edge = region.eps_p * EULER_FLOOR
    assert region.contains(good, p=p_edge)
    assert not region.contains(good, p=np.nextafter(p_edge, 0.0))
    # a given pressure is used as it is
    assert region.contains(bad_p, p=1.0)


def test_admissibility_error_carries_cell():
    err = AdmissibilityError("boom", cell=(3, 4))
    assert err.cell == (3, 4)
    assert isinstance(err, RuntimeError)


def test_check_admissible_vectorized():
    model = EulerModel()
    rng = np.random.default_rng(3)
    u = _random_admissible_euler(rng, 40).reshape(8, 5, 4)
    assert model.check_admissible(u).all()
    u[2, 3] = [1.0, 10.0, 0.0, 1.0]
    ok = model.check_admissible(u)
    assert not ok[2, 3] and ok.sum() == 39
