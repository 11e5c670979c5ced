"""Gauss and Gauss-Lobatto rules against the closed-form monomial means."""

import numpy as np
import pytest

from bpdg.quadrature import (
    exactness_defect,
    gauss_lobatto_rule,
    gauss_rule,
    monomial_mean,
)


@pytest.mark.parametrize("q", range(1, 9))
def test_gauss_exact_to_claimed_degree(q):
    assert exactness_defect(gauss_rule(q), 2 * q - 1) <= 1e-13


@pytest.mark.parametrize("q", range(1, 9))
def test_gauss_not_exact_beyond_claimed_degree(q):
    # the first missed monomial x^(2q) has a tiny mean at high degree, so the
    # defect floor is relative to it rather than a fixed absolute constant
    assert exactness_defect(gauss_rule(q), 2 * q) > 1e-4 * monomial_mean(2 * q)


def test_cached_gauss_rule_is_read_only():
    # Gauss-Lobatto rules too, the two-point one included
    for rule_fn, n in ((gauss_rule, 3), (gauss_lobatto_rule, 3), (gauss_lobatto_rule, 2)):
        rule = rule_fn(n)
        assert rule_fn(n) is rule
        assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0


@pytest.mark.parametrize("n", range(2, 9))
def test_lobatto_exact_to_claimed_degree(n):
    assert exactness_defect(gauss_lobatto_rule(n), 2 * n - 3) <= 1e-13


@pytest.mark.parametrize("n", range(2, 9))
def test_lobatto_endpoint_weight(n):
    rule = gauss_lobatto_rule(n)
    expected = 1.0 / (n * (n - 1))
    assert abs(rule.weights[0] - expected) <= 1e-14
    assert abs(rule.weights[-1] - expected) <= 1e-14


@pytest.mark.parametrize("rule_fn,order", [(gauss_rule, 7), (gauss_lobatto_rule, 7)])
def test_symmetry_and_unit_sum(rule_fn, order):
    rule = rule_fn(order)
    np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-15)
    np.testing.assert_allclose(rule.weights, rule.weights[::-1], atol=1e-15)
    assert abs(rule.weights.sum() - 1.0) <= 1e-15
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)


def test_nodes_inside_reference_interval():
    for q in range(1, 17):
        assert np.all(np.abs(gauss_rule(q).nodes) < 0.5)
    for n in range(2, 17):
        r = gauss_lobatto_rule(n)
        assert r.nodes[0] == -0.5 and r.nodes[-1] == 0.5


def test_monomial_mean_values():
    assert monomial_mean(0) == 1.0
    assert monomial_mean(1) == 0.0
    assert monomial_mean(2) == pytest.approx(1.0 / 12.0, abs=1e-16)
    assert monomial_mean(4) == pytest.approx(1.0 / 80.0, abs=1e-16)
    assert monomial_mean(7) == 0.0


def test_lobatto_three_point_matches_simpson():
    rule = gauss_lobatto_rule(3)
    np.testing.assert_allclose(rule.nodes, [-0.5, 0.0, 0.5], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-15)


@pytest.mark.parametrize("bad", [0, -1, 17])
def test_gauss_rejects_bad_order(bad):
    with pytest.raises(ValueError):
        gauss_rule(bad)


@pytest.mark.parametrize("bad", [1, 0, 17])
def test_lobatto_rejects_bad_order(bad):
    with pytest.raises(ValueError):
        gauss_lobatto_rule(bad)


def test_exactness_defect_rejects_negative_degree():
    with pytest.raises(ValueError):
        exactness_defect(gauss_rule(2), -1)
