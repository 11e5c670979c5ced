"""End-to-end acceptance suite: ten criteria, one test (and one pass/fail
line) each.  Some of these run full desk-scale experiments and take a few
minutes in total."""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from bpdg.cli import RunConfig, convergence_study, efficiency_compare, parse_config, run
from bpdg.decomposition import (
    SpeedRatios,
    bp_max_dt,
    jiang_liu_2d,
    jiang_liu_3d,
    optimal_2d,
    optimal_3d,
    optimality_certificate,
    random_feasible_search,
    verify_exactness,
    zhang_shu_2d,
    zhang_shu_3d,
)
from bpdg.physics import AdmissibilityError
from bpdg.quadrature import exactness_defect, gauss_lobatto_rule, gauss_rule

CONFIG_DIR = Path(__file__).parents[1] / "configs"


def _report(number, name, detail=""):
    print(f"ACCEPTANCE {number} ({name}): PASS {detail}".rstrip())


def test_criterion_01_quadrature_exactness():
    start = time.perf_counter()
    for q in range(1, 9):
        assert exactness_defect(gauss_rule(q), 2 * q - 1) <= 1e-13
    for n in range(2, 9):
        rule = gauss_lobatto_rule(n)
        assert exactness_defect(rule, 2 * n - 3) <= 1e-13
        assert abs(rule.weights[0] - 1.0 / (n * (n - 1))) <= 1e-14
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "quadrature exactness", f"[{elapsed:.2f}s]")


def test_criterion_02_decomposition_feasibility():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for k in (2, 3):
        for _ in range(100):
            r2 = SpeedRatios(tuple(10.0 ** rng.uniform(-3, 3, 2)))
            r3 = SpeedRatios(tuple(10.0 ** rng.uniform(-3, 3, 3)))
            for d in (optimal_2d(k, r2), zhang_shu_2d(k, r2), jiang_liu_2d(k),
                      optimal_3d(k, r3)):
                assert all(w > 0 for pair in d.face_weights for w in pair)
                if d.internal_node_count:
                    assert np.all(d.internal_weights > 0)
                    assert np.all(np.abs(d.internal_offsets) <= 0.5 + 1e-14)
                assert abs(d.total_weight() - 1.0) <= 1e-12
                assert verify_exactness(d) <= 1e-13
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, "decomposition feasibility", f"[{elapsed:.2f}s]")


def test_criterion_03_cfl_table_reproduction():
    start = time.perf_counter()
    eq2, eq3 = SpeedRatios((1.0, 1.0)), SpeedRatios((1.0, 1.0, 1.0))
    unit2 = ((1.0, 1.0), (1.0, 1.0))
    unit3 = ((1.0,) * 3, (1.0,) * 3)

    def rel(a, b):
        assert abs(a - b) <= 1e-14 * abs(b), (a, b)

    for k in (2, 3):
        # general formulas, random ratios
        rng = np.random.default_rng(30 + k)
        for _ in range(20):
            phi2 = tuple(rng.uniform(0.05, 20.0, 2))
            psi = sum(phi2) + 2 * max(phi2)
            rel(bp_max_dt(optimal_2d(k, SpeedRatios(phi2)), phi2, (1.0, 1.0)).max_dt,
                1.0 / (2.0 * psi))
            rel(bp_max_dt(zhang_shu_2d(k, SpeedRatios(phi2)), phi2, (1.0, 1.0)).max_dt,
                1.0 / (6.0 * sum(phi2)))
            rel(bp_max_dt(jiang_liu_2d(k), phi2, (1.0, 1.0)).max_dt,
                1.0 / (12.0 * max(phi2)))
            phi3 = tuple(rng.uniform(0.05, 20.0, 3))
            rel(bp_max_dt(optimal_3d(k, SpeedRatios(phi3)), phi3, (1.0,) * 3).max_dt,
                1.0 / (2.0 * (sum(phi3) + 2 * max(phi3))))
            rel(bp_max_dt(zhang_shu_3d(k, SpeedRatios(phi3)), phi3, (1.0,) * 3).max_dt,
                1.0 / (6.0 * sum(phi3)))
            rel(bp_max_dt(jiang_liu_3d(k), phi3, (1.0,) * 3).max_dt,
                1.0 / (18.0 * max(phi3)))
        # equal-ratio special cases
        rel(bp_max_dt(optimal_2d(k, eq2), *unit2).max_dt, 1.0 / 8.0)
        rel(bp_max_dt(zhang_shu_2d(k, eq2), *unit2).max_dt, 1.0 / 12.0)
        rel(bp_max_dt(optimal_3d(k, eq3), *unit3).max_dt, 1.0 / 10.0)
        rel(bp_max_dt(zhang_shu_3d(k, eq3), *unit3).max_dt, 1.0 / 18.0)
        # c0 = 1/2 cases
        rel(bp_max_dt(optimal_2d(k, eq2), *unit2, c0=0.5).max_dt, 1.0 / 16.0)
        rel(bp_max_dt(zhang_shu_2d(k, eq2), *unit2, c0=0.5).max_dt, 1.0 / 24.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(3, "CFL table reproduction", f"[{elapsed:.2f}s]")


def test_criterion_04_optimality():
    start = time.perf_counter()
    phis = [(1.0, 1.0), (2.0, 1.0), (1.0, 5.0)]
    for k in (2, 3):
        for phi in phis:
            r = SpeedRatios(phi)
            for d in (optimal_2d(k, r), zhang_shu_2d(k, r), jiang_liu_2d(k)):
                assert optimality_certificate(k, r, d).verdict == "dominated"
    for phi in phis:
        r = SpeedRatios(phi)
        dt_opt = bp_max_dt(optimal_2d(2, r), phi, (1.0, 1.0)).max_dt
        for seed in range(1, 6):
            best = random_feasible_search(2, r, trials=10_000, rng_seed=seed)
            assert best is not None and best <= dt_opt + 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(4, "optimality certificate + random search", f"[{elapsed:.2f}s]")


def test_criterion_05_node_counts():
    eq2, eq3 = SpeedRatios((1.0, 1.0)), SpeedRatios((1.0, 1.0, 1.0))
    assert zhang_shu_2d(2, eq2).internal_node_count == 5
    assert zhang_shu_2d(3, eq2).internal_node_count == 8
    assert jiang_liu_2d(2).internal_node_count == 5
    assert jiang_liu_2d(3).internal_node_count == 8
    assert zhang_shu_3d(2, eq3).internal_node_count == 19
    assert zhang_shu_3d(3, eq3).internal_node_count == 48
    assert jiang_liu_3d(2).internal_node_count == 19
    assert jiang_liu_3d(3).internal_node_count == 48
    for k in (2, 3):
        for phi in ((1.0, 1.0), (3.0, 1.0), (0.5, 2.0)):
            assert optimal_2d(k, SpeedRatios(phi)).internal_node_count <= 2
        for phi in ((1.0, 1.0, 1.0), (1.0, 2.0, 3.0)):
            assert optimal_3d(k, SpeedRatios(phi)).internal_node_count <= 4
    _report(5, "internal node counts")


@pytest.mark.slow
def test_criterion_06_maximum_principle():
    start = time.perf_counter()
    details = []
    for k, scheme in ((2, "ssprk3"), (3, "ssprk4")):
        for n in (50, 100):
            base = dict(model="advection2d", nx=n, ny=n, k=k, scheme=scheme,
                        dt_policy="optimal")
            short = run(RunConfig(**base, t_end=0.2), write_outputs=False)
            full = run(RunConfig(**base, t_end=2.0), write_outputs=False)
            assert full.min_mean[0] >= -1.0 - 1e-12
            assert full.max_mean[0] <= 1.0 + 1e-12
            assert not full.bp_violation
            ratio = full.l2 / short.l2
            assert ratio <= 3.0, (k, n, ratio)
            details.append(f"k={k},N={n}:L2ratio={ratio:.2f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(6, "maximum principle + bounded error", f"[{'; '.join(details)}] [{elapsed:.1f}s]")


@pytest.mark.slow
def test_criterion_07_convergence_orders():
    start = time.perf_counter()
    grids = [20, 40, 80, 160]
    cfg2 = RunConfig(model="advection2d", k=2, scheme="ssprk3", t_end=0.2,
                     dt_policy="optimal", limiter_bp=False)
    rows = convergence_study(cfg2, grids, write_outputs=False)
    orders2 = [r[4] for r in rows[1:]]
    assert all(o >= 2.7 for o in orders2), orders2
    cfg3 = RunConfig(model="advection2d", k=3, scheme="ssprk4", t_end=0.2,
                     dt_policy="optimal", limiter_bp=False)
    rows = convergence_study(cfg3, grids, write_outputs=False)
    orders3 = [r[4] for r in rows[1:]]
    assert all(o >= 3.7 for o in orders3), orders3
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(7, "convergence orders",
            f"[k2:{','.join(f'{o:.2f}' for o in orders2)}; "
            f"k3:{','.join(f'{o:.2f}' for o in orders3)}] [{elapsed:.1f}s]")


@pytest.mark.slow
def test_criterion_08_burgers_riemann():
    start = time.perf_counter()
    cfg = parse_config(CONFIG_DIR / "burgers_riemann_desk.cfg")
    cfg.out_dir = "out/_acc8"
    classic = RunConfig(**{**cfg.__dict__, "dt_policy": "classic"})
    cmp_report = efficiency_compare(cfg, classic, write_outputs=False)
    for rep in (cmp_report.report_a, cmp_report.report_b):
        assert rep.min_mean[0] >= -1.0 - 1e-12
        assert rep.max_mean[0] <= 0.8 + 1e-12
        assert not rep.bp_violation
    assert abs(cmp_report.step_ratio - cmp_report.predicted_ratio) <= 0.05 * cmp_report.predicted_ratio
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(8, "Burgers Riemann bounds + step ratio",
            f"[ratio={cmp_report.step_ratio:.3f} vs predicted {cmp_report.predicted_ratio:.3f}]"
            f" [{elapsed:.1f}s]")


@pytest.mark.slow
def test_criterion_09_euler_jets():
    start = time.perf_counter()
    details = []
    for name in ("mach80_jet_desk.cfg", "mach2000_jet_desk.cfg"):
        cfg = parse_config(CONFIG_DIR / name)
        report = run(cfg, write_outputs=False)
        assert not report.bp_violation, name
        assert report.min_mean[0] > 0.0, name
        details.append(f"{name.split('_')[0]}:{report.steps} steps")
    # limiter-off contrast: terminates with the admissibility error, not NaNs
    off = parse_config(CONFIG_DIR / "mach80_jet_desk.cfg")
    off.limiter_bp = False
    off.tvb_m = None
    with pytest.raises(AdmissibilityError):
        run(off, write_outputs=False)
    elapsed = time.perf_counter() - start
    assert elapsed < 1200.0
    _report(9, "Euler jets positivity", f"[{'; '.join(details)}] [{elapsed:.1f}s]")


@pytest.mark.slow
def test_criterion_10_efficiency_direction():
    start = time.perf_counter()
    details = []
    # equal-speed advection pair: ratio pinned near 12/8 = 1.5
    adv = RunConfig(model="advection2d", nx=100, ny=100, k=2, t_end=2.0,
                    dt_policy="optimal")
    adv_classic = RunConfig(**{**adv.__dict__, "dt_policy": "classic"})
    cmp_adv = efficiency_compare(adv, adv_classic, write_outputs=False)
    assert cmp_adv.steps_a < cmp_adv.steps_b
    assert 1.45 <= cmp_adv.step_ratio <= 1.55
    details.append(f"advection {cmp_adv.steps_a}/{cmp_adv.steps_b} "
                   f"({cmp_adv.wall_a:.1f}s/{cmp_adv.wall_b:.1f}s)")
    # Burgers pair: speeds equal across axes by symmetry of the data
    bur = parse_config(CONFIG_DIR / "burgers_riemann_desk.cfg")
    bur_classic = RunConfig(**{**bur.__dict__, "dt_policy": "classic"})
    cmp_bur = efficiency_compare(bur, bur_classic, write_outputs=False)
    assert cmp_bur.steps_a < cmp_bur.steps_b
    assert 1.45 <= cmp_bur.step_ratio <= 1.55
    details.append(f"burgers {cmp_bur.steps_a}/{cmp_bur.steps_b} "
                   f"({cmp_bur.wall_a:.1f}s/{cmp_bur.wall_b:.1f}s)")
    elapsed = time.perf_counter() - start
    _report(10, "efficiency direction", f"[{'; '.join(details)}] [{elapsed:.1f}s]")
