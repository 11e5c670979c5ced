"""Config parsing, run reports, CSV outputs, CLI exit codes, determinism."""

import filecmp
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from bpdg import cli, decomposition, dg_core
from bpdg.cli import (
    _KEY_PARSERS,
    ConfigError,
    RunConfig,
    convergence_study,
    decomp_report,
    efficiency_compare,
    main,
    parse_config,
    problem,
    replace,
    run,
)
from bpdg.dg_core import Basis2D
from bpdg.limiters import LimiterChain, LimiterDiagnostics, NodeRows
from bpdg.physics import EULER_FLOOR, AdvectionModel, BurgersModel, EulerModel
from bpdg.window import Quiescence

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# run in a fresh interpreter: which of `argparse` and `dataclasses` importing
# `bpdg.cli` loads, how many classes the `bpdg` modules define, and which of
# them are dataclasses
_IMPORT_CLI = """
import json, sys
import bpdg.cli
loaded = [name for name in ("argparse", "dataclasses") if name in sys.modules]
import dataclasses
classes = [c for name, module in list(sys.modules.items()) if name.split(".")[0] == "bpdg"
           for c in vars(module).values() if isinstance(c, type) and c.__module__ == name]
print(json.dumps([loaded, len(classes),
                  sorted(f"{c.__module__}.{c.__qualname__}" for c in classes if dataclasses.is_dataclass(c))]))
"""

ADVECTION_SMALL = """
model = advection2d
nx = 16
ny = 16
k = 2
t_end = 0.1
dt_policy = optimal
limiter.bp = on
scheme = ssprk3
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ----------------------------------------------------------------- parsing


def test_parse_defaults_and_overrides(tmp_path):
    path = _write(tmp_path, "a.cfg", ADVECTION_SMALL)
    cfg = parse_config(path)
    assert cfg.model == "advection2d" and cfg.nx == 16 and cfg.k == 2
    assert cfg.t_end == 0.1 and cfg.limiter_bp is True
    assert cfg.scheme == "ssprk3"  # untouched default


def test_parse_comments_and_blank_lines(tmp_path):
    path = _write(tmp_path, "a.cfg", "# header\n\nnx = 8  # trailing comment\n")
    assert parse_config(path).nx == 8


def test_parse_unknown_key_reports_line_number(tmp_path):
    path = _write(tmp_path, "a.cfg", "model = advection2d\nwibble = 3\n")
    with pytest.raises(ConfigError, match=r":2:.*wibble"):
        parse_config(path)


def test_parse_bad_value_reports_line_number(tmp_path):
    path = _write(tmp_path, "a.cfg", "nx = many\n")
    with pytest.raises(ConfigError, match=r":1:"):
        parse_config(path)


def test_parse_missing_equals(tmp_path):
    path = _write(tmp_path, "a.cfg", "just words\n")
    with pytest.raises(ConfigError, match=r":1:"):
        parse_config(path)


def test_parse_limiter_keys(tmp_path):
    path = _write(
        tmp_path, "a.cfg",
        "limiter.bp = off\nlimiter.tvb_M = 2.5\n",
    )
    cfg = parse_config(path)
    assert cfg.limiter_bp is False and cfg.tvb_m == 2.5
    path = _write(tmp_path, "b.cfg", "limiter.tvb_M = off\n")
    assert parse_config(path).tvb_m is None


# every key, in `RunConfig`'s order, each set to a value other than its
# default; the Euler jet keys keep the whole valid together
EVERY_KEY = """model = euler2d
gamma = 1.4
advection_cx = 2.0
advection_cy = -0.5
x_lo = 0.0
x_hi = 2.0
y_lo = -0.5
y_hi = 0.5
nx = 12
ny = 6
k = 3
scheme = ssprk4
dt_policy = jiang-liu
c0 = 0.5
limiter.bp = off
limiter.tvb_M = 1.0
t_end = 0.25
output_every = 0.05
out_dir = every_out
bc = outflow
initial = uniform
region_lo = -2.0
region_hi = 3.0
riemann_states = 0.1, 0.2, 0.3, 0.4
ambient = 1.0, 0.5, 0.0, 1.0
inflow = 5, 30, 0, 0.4127
inflow_lo = -0.1
inflow_hi = 0.1
"""


def test_a_file_setting_every_key_parses_to_its_run_config(tmp_path):
    expected = RunConfig(
        model="euler2d", gamma=1.4, advection_cx=2.0, advection_cy=-0.5, x_lo=0.0, x_hi=2.0, y_lo=-0.5,
        y_hi=0.5, nx=12, ny=6, k=3, scheme="ssprk4", dt_policy="jiangliu", c0=0.5, limiter_bp=False,
        tvb_m=1.0, t_end=0.25, output_every=0.05, out_dir="every_out", bc="outflow", initial="uniform",
        region_lo=-2.0, region_hi=3.0, riemann_states=(0.1, 0.2, 0.3, 0.4), ambient=(1.0, 0.5, 0.0, 1.0),
        inflow=(5.0, 30.0, 0.0, 0.4127), inflow_lo=-0.1, inflow_hi=0.1,
    )
    assert [line.split(" = ")[0] for line in EVERY_KEY.splitlines()] == list(_KEY_PARSERS)
    assert all(getattr(expected, name) != default for name, default, *_ in cli._CONFIG_KEYS)
    cfg = parse_config(_write(tmp_path, "every.cfg", EVERY_KEY))
    assert cfg == expected
    assert problem(cfg).cfg == cfg


def test_run_config_keeps_the_contract_its_callers_read():
    table = cli._CONFIG_KEYS
    assert vars(RunConfig()) == {name: default for name, default, *_ in table}
    cfg = RunConfig(nx=8)
    new = replace(cfg, nx=16, dt_policy="classic")
    assert (new.nx, new.ny, new.dt_policy) == (16, 50, "classic")
    assert vars(cfg) == {**vars(RunConfig()), "nx": 8}  # left as it was
    assert replace(cfg) == cfg and replace(cfg) is not cfg
    for make in (lambda: RunConfig(nz=8), lambda: replace(cfg, nz=8), lambda: RunConfig(**{"limiter.bp": False})):
        with pytest.raises(TypeError, match="unexpected keyword"):
            make()
    # by value
    assert RunConfig(nx=8) == cfg
    assert RunConfig(nx=9) != cfg
    assert cfg != vars(cfg)
    # the file keys in table order, two of them dotted
    assert [attr for attr, _ in _KEY_PARSERS.values()] == [name for name, *_ in table]
    assert {key: attr for key, (attr, _) in _KEY_PARSERS.items() if key != attr} == {
        "limiter.bp": "limiter_bp", "limiter.tvb_M": "tvb_m"}
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        parsed = parse_config(path)
        assert problem(parsed).cfg == parsed, path.name


@pytest.mark.parametrize(
    "text, key",
    [("nx = 8\nny = 8\n# again\nnx = 4\n", "nx"),
     ("limiter.tvb_M = 1\nny = 8\nk = 3\nlimiter.tvb_M = off\n", "limiter.tvb_M")],
    ids=["nx", "file-key"],
)
def test_a_key_set_twice_is_a_config_error(tmp_path, capsys, text, key):
    # the later value used to win silently: the first file ran on 4 cells and exited 0
    cfg = _write(tmp_path, "twice.cfg", text + f"out_dir = {tmp_path / 'o'}\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"config error: {cfg}:4: {key} is set again, first at line 1"]
    assert not (tmp_path / "o").exists()
    # a config built in code holds each key once: either value validates
    for in_code in RunConfig(nx=8), RunConfig(nx=4), RunConfig(tvb_m=1.0), RunConfig(tvb_m=None):
        assert problem(in_code).cfg == in_code


# -------------------------------------------------------------------- runs


def test_run_writes_report_and_field(tmp_path):
    cfg = RunConfig(model="advection2d", nx=10, ny=10, t_end=0.05,
                    out_dir=str(tmp_path / "out"))
    report = run(cfg)
    assert report.steps > 0 and not report.bp_violation
    assert abs(report.t_final - 0.05) <= 1e-12 * 0.05
    out = Path(cfg.out_dir)
    assert (out / "report.csv").exists()
    fields = sorted(out.glob("field_*.csv"))
    assert len(fields) == 1
    lines = fields[0].read_text().splitlines()
    assert lines[0] == "i,j,x,y,u0"
    assert len(lines) == 1 + 100


REPORT_HEADER = "steps,t_final,min_mean0,max_mean0,bp_violation,l1,l2,linf,cells_limited,min_theta,troubled_cells"


@pytest.mark.parametrize("cfg", [RunConfig(nx=8, ny=8, t_end=0.05),
                                 RunConfig(model="burgers2d", nx=8, ny=8, t_end=0.05)],
                         ids=["with-norms", "without-norms"])
def test_report_csv_header_and_row(tmp_path, cfg):
    report = run(replace(cfg, out_dir=str(tmp_path)))
    header, row = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()
    assert header == report.csv_header() == REPORT_HEADER
    assert row == report.csv_row()
    assert len(row.split(",")) == len(header.split(",")) == 11
    assert (report.l1 is None) == (row.split(",")[5] == "")


def test_run_output_cadence(tmp_path):
    cfg = RunConfig(model="advection2d", nx=8, ny=8, t_end=0.1, output_every=0.05,
                    out_dir=str(tmp_path / "out"))
    run(cfg)
    snapshots = sorted(Path(cfg.out_dir).glob("field_*.csv"))
    assert len(snapshots) >= 2


def test_run_is_deterministic(tmp_path):
    reports = []
    for name in ("r1", "r2"):
        cfg = RunConfig(model="burgers2d", x_lo=0.0, x_hi=1.0, y_lo=0.0, y_hi=1.0,
                        nx=12, ny=12, t_end=0.05, bc="outflow", initial="riemann4",
                        region_lo=-1.0, region_hi=0.8, tvb_m=10.0,
                        out_dir=str(tmp_path / name))
        run(cfg)
        reports.append(Path(cfg.out_dir))
    a, b = reports
    assert filecmp.cmp(a / "report.csv", b / "report.csv", shallow=False)
    fa = sorted(p.name for p in a.glob("field_*.csv"))
    fb = sorted(p.name for p in b.glob("field_*.csv"))
    assert fa == fb
    for name in fa:
        assert filecmp.cmp(a / name, b / name, shallow=False)


def test_run_rejects_unknown_scheme_and_model():
    with pytest.raises(ConfigError):
        run(RunConfig(model="advection2d", scheme="rk99"), write_outputs=False)
    with pytest.raises(ConfigError):
        run(RunConfig(model="heat"), write_outputs=False)


@pytest.mark.parametrize(
    "changes",
    [dict(nx=0), dict(ny=-3), dict(k=4), dict(dt_policy="jiang_liu"), dict(dt_policy="linear"),
     dict(x_hi=-2.0), dict(y_lo=1.0), dict(gamma=1.0), dict(c0=0.0), dict(c0=5.0), dict(t_end=-1.0),
     dict(model="euler2d", initial="uniform", inflow=(1.0, 2.0)), dict(ambient=(5.0, 0.0, 0.4127)),
     dict(riemann_states=(0.1, 0.2, 0.3, 0.4, 0.5)), dict(region_lo=1.0), dict(t_end=float("inf")),
     dict(limiter_bp="maybe"), dict(tvb_m="M"),
     dict(model="euler2d", initial="uniform", ambient=(5.0, 0.0, 0.0, -0.4)),
     dict(advection_cx=float("nan")), dict(tvb_m=-1.0), dict(output_every=float("nan")),
     dict(region_hi=float("inf")), dict(region_lo=float("nan")), dict(region_hi=0.5), dict(initial="uniform"),
     dict(model="burgers2d", inflow=(5.0, 30.0, 0.0, 0.4127))],
    ids=["zero-cells", "negative-cells", "unsupported-degree", "unknown-policy", "linear-policy",
         "x-bounds-reversed", "empty-y-range", "gamma-one", "zero-c0", "c0-above-one", "negative-t-end",
         "two-inflow-values", "three-ambient-values", "five-riemann-states", "empty-region",
         "infinite-t-end", "bp-not-a-bool", "tvb-not-a-number", "negative-ambient-pressure",
         "nan-velocity", "negative-tvb", "nan-output-every", "infinite-region", "nan-region",
         "sine-outside-region", "uniform-advection", "scalar-inflow"],
)
def test_run_validates_configs_built_in_code(changes):
    with pytest.raises(ConfigError):
        run(RunConfig(**{"nx": 6, "ny": 6, "t_end": 0.01, **changes}), write_outputs=False)


def test_run_accepts_jiang_liu_spelling_in_code():
    spelled = run(RunConfig(nx=6, ny=6, t_end=0.02, dt_policy="jiang-liu"), write_outputs=False)
    plain = run(RunConfig(nx=6, ny=6, t_end=0.02, dt_policy="jiangliu"), write_outputs=False)
    assert spelled.steps == plain.steps and spelled.l1 == plain.l1


JET_SMALL = """
model = euler2d
x_lo = 0.0
x_hi = 2.0
y_lo = -0.5
y_hi = 0.5
nx = 16
ny = 8
t_end = 0.004
bc = outflow
initial = uniform
ambient = 5.0, 0.0, 0.0, 0.4127
inflow = 5.0, 30.0, 0.0, 0.4127
inflow_lo = -0.1
inflow_hi = 0.1
limiter.tvb_M = 1.0
"""


def test_report_counts_every_limiting(tmp_path, monkeypatch):
    calls = []
    limit = LimiterChain.__call__

    def recorded(self, field):
        out = limit(self, field)
        calls.append(out[1])
        return out

    monkeypatch.setattr(LimiterChain, "__call__", recorded)
    cfg = parse_config(_write(tmp_path, "jet.cfg", JET_SMALL))
    report = run(cfg, write_outputs=False)
    # the initial projection's limiting and three stages per step
    assert len(calls) == 1 + 3 * report.steps
    assert report.limiting.cells_limited == sum(d.cells_limited for d in calls) > 0
    assert report.limiting.troubled_cells == sum(d.troubled_cells for d in calls) > 0
    assert report.limiting.min_theta == min(d.min_theta for d in calls) < 1.0
    # more than the last stage of each step alone would give
    last_stages = calls[3::3]
    assert report.limiting.cells_limited > sum(d.cells_limited for d in last_stages)


def test_report_combines_the_initial_and_every_returned_stage_diagnostics(tmp_path, monkeypatch):
    initial, stages, stepping = [], [], []
    limit, step = LimiterChain.__call__, cli.ssp_step

    def recorded_limit(self, field):
        out = limit(self, field)
        if not stepping:
            initial.append(out[1])  # before the first step: the initial limiting
        return out

    def recorded_step(*args, **kwargs):
        stepping.append(True)
        out = step(*args, **kwargs)
        stages.append(out[2])
        return out

    monkeypatch.setattr(LimiterChain, "__call__", recorded_limit)
    monkeypatch.setattr(cli, "ssp_step", recorded_step)
    report = run(parse_config(_write(tmp_path, "jet.cfg", JET_SMALL)), write_outputs=False)
    assert len(initial) == 1 and len(stages) == report.steps > 0
    assert all(len(step_stages) == 3 for step_stages in stages)
    combined = LimiterDiagnostics()
    for diag in initial + [d for step_stages in stages for d in step_stages]:
        combined.add(diag)
    assert combined.cells_limited > 0 and combined.troubled_cells > 0
    assert report.limiting.cells_limited == combined.cells_limited
    assert report.limiting.min_theta == combined.min_theta
    assert report.limiting.troubled_cells == combined.troubled_cells


def test_euler_run_evaluates_each_rk_state_once(tmp_path, monkeypatch):
    calls = []
    stacked, at_nodes = Basis2D.stacked_values, NodeRows.evaluate

    def counted_stacked(self, coeffs):
        calls.append("stacked")
        return stacked(self, coeffs)

    def counted_nodes(self, field, *split):
        calls.append("nodes")
        return at_nodes(self, field, *split)

    monkeypatch.setattr(Basis2D, "stacked_values", counted_stacked)
    monkeypatch.setattr(NodeRows, "evaluate", counted_nodes)
    # the whole-mesh path: tests/test_window.py counts the windowed one's
    monkeypatch.setattr(Quiescence, "window", lambda self, field, last=None: None)
    report = run(parse_config(_write(tmp_path, "jet.cfg", JET_SMALL)), write_outputs=False)
    # the projection's, for the first node set's speeds, and one per limited
    # state (the initial limiting and three stages per step), at the limiter
    # nodes: a state's speeds and residual reuse the stacked rows its
    # limiting returned
    assert report.steps > 0 and len(calls) == 2 + 3 * report.steps
    assert calls.count("stacked") == 1


def _record_decompositions(monkeypatch):
    """Record, in order, each node set the run builds (with its
    decomposition), each step's dt decomposition and each limiting's nodes."""
    events = []
    build, bound, limit = cli.build_node_set, dg_core.bp_max_dt, LimiterChain.__call__

    def recorded_build(decomp, basis, region):
        nodes = build(decomp, basis, region)
        events.append(("build", decomp, nodes))
        return nodes

    def recorded_bound(decomp, *args, **kwargs):
        events.append(("dt", decomp, None))
        return bound(decomp, *args, **kwargs)

    def recorded_limit(self, field):
        events.append(("limit", None, self.node_set))
        return limit(self, field)

    monkeypatch.setattr(cli, "build_node_set", recorded_build)
    monkeypatch.setattr(dg_core, "bp_max_dt", recorded_bound)
    monkeypatch.setattr(LimiterChain, "__call__", recorded_limit)
    return events, build


@pytest.mark.parametrize(
    "model, policy",
    [("advection", "optimal"), ("advection", "classic"), ("jet", "optimal"), ("jet", "jiangliu")],
)
def test_limiter_nodes_come_from_the_decomposition_of_the_step_dt(tmp_path, monkeypatch, model, policy):
    events, build = _record_decompositions(monkeypatch)
    if model == "jet":
        cfg = parse_config(_write(tmp_path, "jet.cfg", JET_SMALL + f"dt_policy = {policy}\n"))
    else:
        cfg = RunConfig(nx=8, ny=8, t_end=0.1, advection_cx=1.0, advection_cy=0.5, dt_policy=policy)
    basis, region = Basis2D(cfg.k), problem(cfg).model.region
    report = run(cfg, write_outputs=False)
    euler = cfg.model == "euler2d"
    # the steps' dt bounds: those after the first node set is built (the
    # advection config check bounds dt once before it)
    first_build = next(i for i, (kind, _, _) in enumerate(events) if kind == "build")
    steps = [i for i, (kind, _, _) in enumerate(events) if kind == "dt" and i > first_build]
    assert len(steps) == report.steps > 0
    built_from = {id(nodes): decomp for kind, decomp, nodes in events if kind == "build"}
    for start, end in zip(steps, steps[1:] + [len(events)]):
        decomp = events[start][1]
        assert decomp.name.startswith({"optimal": "optimal", "classic": "zhang-shu",
                                       "jiangliu": "jiang-liu"}[policy])
        limited = [nodes for kind, _, nodes in events[start:end] if kind == "limit"]
        assert len(limited) == 3  # every stage of the step
        for nodes in limited:
            np.testing.assert_array_equal(built_from[id(nodes)].internal_offsets, decomp.internal_offsets)
            np.testing.assert_array_equal(nodes.offsets, build(decomp, basis, region).offsets)
    builds = sum(kind == "build" for kind, _, _ in events)
    if euler:
        assert 1 <= builds <= 1 + report.steps
    else:
        assert builds == 1  # constant speeds: the nodes never move


def test_jet_builds_one_optimal_decomposition_per_step(tmp_path, monkeypatch):
    calls = []
    optimal = decomposition.optimal_2d

    def counted(k, ratios):
        calls.append(ratios)
        return optimal(k, ratios)

    monkeypatch.setattr(decomposition, "optimal_2d", counted)
    report = run(parse_config(_write(tmp_path, "jet.cfg", JET_SMALL)), write_outputs=False)
    # one per step for both its dt and its nodes, the first step's being
    # the initial limiting's (built at the same speeds)
    assert report.steps > 0 and len(calls) == report.steps


@pytest.mark.parametrize("model", ["advection", "burgers"])
def test_decomposition_rebuilt_only_when_the_speeds_change(monkeypatch, model):
    """Each step bounds dt once.  The stepping loop builds a decomposition
    only at a step whose speeds differ from the previous step's: never for
    advection (constant speeds), at some steps for this Burgers run (10 of
    its 26 repeat their speeds).  The first step's speeds are those of the
    initial limiting, whose decomposition it takes."""
    events = []
    decompose, bound = cli._decomposition, dg_core.bp_max_dt

    class MarkedReport(cli.RunReport):
        def __init__(self, *args, **kwargs):
            events.append("loop")
            super().__init__(*args, **kwargs)

    def recorded_decomposition(*args):
        events.append("decomposition")
        return decompose(*args)

    def recorded_bound(*args, **kwargs):
        events.append("dt")
        return bound(*args, **kwargs)

    monkeypatch.setattr(cli, "RunReport", MarkedReport)
    monkeypatch.setattr(cli, "_decomposition", recorded_decomposition)
    monkeypatch.setattr(dg_core, "bp_max_dt", recorded_bound)
    if model == "advection":
        cfg = RunConfig(nx=8, ny=8, t_end=0.1, advection_cx=1.0, advection_cy=0.5)
    else:
        cfg = RunConfig(model="burgers2d", x_lo=0.0, x_hi=1.0, y_lo=0.0, y_hi=1.0, nx=16, ny=16, t_end=0.2,
                        bc="outflow", initial="riemann4", region_lo=-1.0, region_hi=0.8, tvb_m=10.0)
    report = run(cfg, write_outputs=False)
    loop = events[events.index("loop"):]
    speeds = [tuple(entry[1:]) for entry in report.speed_history]
    changes = sum(a != b for a, b in zip(speeds, speeds[1:]))
    assert loop.count("dt") == report.steps > 1
    assert loop.count("decomposition") == changes
    if model == "advection":
        assert changes == 0
    else:
        assert 0 < changes < report.steps - 1


def test_bp_violation_uses_the_region_floor(monkeypatch):
    # BP limiting off, a state at rest whose density lies in [eps/2,
    # eps*EULER_FLOOR): outflow keeps every mean there, inside the old
    # check's eps/2 floor but outside the region the BP limiter requires
    rho = 0.75e-13
    project = cli.project

    def thinned(u0, mesh, basis, model):
        field = project(u0, mesh, basis, model)
        field.coeffs[..., 0] *= rho
        return field

    monkeypatch.setattr(cli, "project", thinned)
    cfg = RunConfig(model="euler2d", initial="uniform", ambient=(1.0, 0.0, 0.0, 1.0), bc="outflow",
                    nx=4, ny=4, limiter_bp=False, t_end=1e-9)
    report = run(cfg, write_outputs=False)
    assert report.steps >= 1
    assert 1e-13 / 2 <= report.min_mean[0] <= report.max_mean[0] < 1e-13 * EULER_FLOOR
    assert report.bp_violation


def test_burgers_means_stay_in_region():
    cfg = RunConfig(model="burgers2d", x_lo=0.0, x_hi=1.0, y_lo=0.0, y_hi=1.0,
                    nx=16, ny=16, t_end=0.2, bc="outflow", initial="riemann4",
                    region_lo=-1.0, region_hi=0.8, tvb_m=10.0)
    report = run(cfg, write_outputs=False)
    assert report.min_mean[0] >= -1.0 - 1e-12
    assert report.max_mean[0] <= 0.8 + 1e-12
    assert not report.bp_violation


# ----------------------------------------------------------- study helpers


def test_convergence_study_orders(tmp_path):
    cfg = RunConfig(model="advection2d", k=2, t_end=0.1, limiter_bp=False,
                    out_dir=str(tmp_path / "conv"))
    rows = convergence_study(cfg, [10, 20, 40])
    assert rows[-1][4] > 2.5
    csv = (tmp_path / "conv" / "errors.csv").read_text().splitlines()
    assert csv[0] == "N,l1,l2,linf,order_l1"
    assert len(csv) == 4


def test_node_set_choice_changes_little():
    # the policy sets both dt and the node set; at c0 = 2/3 the optimal step
    # is the classic one (h/12 at equal speeds), so only the nodes differ
    base = RunConfig(model="advection2d", nx=40, ny=40, k=2, t_end=0.2)
    l1, steps = {}, {}
    for ns, c0 in (("optimal", 2.0 / 3.0), ("classic", 1.0)):
        report = run(RunConfig(**{**base.__dict__, "dt_policy": ns, "c0": c0}), write_outputs=False)
        l1[ns], steps[ns] = report.l1, report.steps
    assert steps["optimal"] == steps["classic"]
    assert abs(l1["optimal"] - l1["classic"]) <= 0.1 * max(l1.values())


def test_decomp_report_contents(capsys):
    csv = decomp_report(2, (1.0, 1.0, 1.0), 1.0)
    text = capsys.readouterr().out
    assert "optimal" in text and "zhang-shu" in text
    rows = {tuple(line.split(",")[:2]): line.split(",") for line in csv.splitlines()[1:]}
    assert float(rows[("2", "optimal")][2]) == pytest.approx(1 / 8, rel=1e-13)
    assert float(rows[("2", "zhang-shu")][2]) == pytest.approx(1 / 12, rel=1e-13)
    assert float(rows[("3", "optimal")][2]) == pytest.approx(1 / 10, rel=1e-13)
    assert float(rows[("3", "jiang-liu")][2]) == pytest.approx(1 / 18, rel=1e-13)
    assert int(rows[("2", "zhang-shu")][4]) == 5
    assert int(rows[("3", "zhang-shu")][4]) == 19


def test_decomp_report_half_c0(capsys):
    csv = decomp_report(2, (1.0, 1.0), 0.5)
    capsys.readouterr()
    rows = {line.split(",")[1]: line.split(",") for line in csv.splitlines()[1:]}
    assert float(rows["optimal"][2]) == pytest.approx(1 / 16, rel=1e-13)
    assert float(rows["zhang-shu"][2]) == pytest.approx(1 / 24, rel=1e-13)


def test_efficiency_compare_requires_matching_problem():
    a = RunConfig(model="advection2d", nx=8, ny=8, t_end=0.05)
    b = RunConfig(model="advection2d", nx=10, ny=10, t_end=0.05)
    with pytest.raises(ConfigError):
        efficiency_compare(a, b, write_outputs=False)


def test_efficiency_compare_names_the_first_differing_key():
    # another domain and velocity are another problem: its step ratio says
    # nothing about the policies
    a = RunConfig(model="advection2d", nx=8, ny=8, t_end=0.05)
    b = replace(a, x_hi=3.0, advection_cx=4.0, dt_policy="classic")
    with pytest.raises(ConfigError, match="advection_cx is 1.0 vs 4.0"):
        efficiency_compare(a, b, write_outputs=False)
    with pytest.raises(ConfigError, match="limiter.bp"):
        efficiency_compare(a, replace(a, limiter_bp=False), write_outputs=False)


def test_efficiency_compare_allows_the_scheme_keys_to_differ(tmp_path):
    a = RunConfig(model="advection2d", nx=8, ny=8, t_end=0.05, out_dir=str(tmp_path / "a"))
    b = replace(a, dt_policy="classic", scheme="ssprk4", c0=0.5, output_every=0.01,
                out_dir=str(tmp_path / "b"))
    cmp_report = efficiency_compare(a, b, write_outputs=False)
    assert cmp_report.steps_b > cmp_report.steps_a


def test_efficiency_compare_advection_ratio():
    a = RunConfig(model="advection2d", nx=20, ny=20, t_end=0.2, dt_policy="optimal")
    b = RunConfig(model="advection2d", nx=20, ny=20, t_end=0.2, dt_policy="classic")
    cmp_report = efficiency_compare(a, b, write_outputs=False)
    assert cmp_report.steps_b > cmp_report.steps_a
    assert 1.45 <= cmp_report.step_ratio <= 1.55
    assert cmp_report.predicted_ratio == pytest.approx(1.5, abs=1e-6)


# -------------------------------------------------------------- CLI proper


def test_importing_cli_loads_no_argparse_and_no_dataclasses():
    """`import bpdg.cli`, which every run pays before its first step, loads
    neither `argparse` (only `main` parses arguments) nor `dataclasses`, and
    no `bpdg` class is a dataclass: a dataclass compiles its generated
    methods at import."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", _IMPORT_CLI], check=True, env=env, capture_output=True, text=True)
    loaded, n_classes, dataclasses = json.loads(out.stdout)
    assert loaded == []
    assert n_classes > 20  # the classes were found: RunConfig, Problem, the records
    assert dataclasses == []


def test_cli_run_success(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", ADVECTION_SMALL + f"out_dir = {tmp_path / 'o'}\n")
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("steps,")


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "nonsense = 1\n")
    assert main(["run", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    ["nx = 0", "k = 4", "dt_policy = jiang_liu", "x_hi = -2.0", "y_lo = 1.0", "gamma = 1.0",
     "c0 = 0", "c0 = 5", "t_end = -1", "inflow = 1, 2", "ambient = 5.0, 0.0, 0.4127",
     "riemann_states = 0.1 0.2 0.3 0.4 0.5", "region_lo = 1.0", "fallback_dt = 0", "t_end = inf",
     "dt_policy = linear", "ambient = 5, 0, 0, -0.4", "inflow = 5, 30, 0, -0.4", "inflow = 0, 30, 0, 0.4",
     "ambient = nan, 0, 0, 1", "advection_cx = nan", "advection_cy = inf", "x_hi = inf",
     "inflow_lo = nan", "limiter.tvb_M = -1", "limiter.tvb_M = nan", "output_every = -1",
     "output_every = nan", "model = foo", "bc = wall", "initial = gauss", "region_hi = inf",
     "region_lo = -inf", "region_hi = nan", "region_hi = 0.5", "initial = uniform", "inflow = 5, 30, 0, 0.4127"],
    ids=["zero-cells", "unsupported-degree", "unknown-policy", "x-bounds-reversed", "empty-y-range",
         "gamma-one", "zero-c0", "c0-above-one", "negative-t-end", "two-inflow-values",
         "three-ambient-values", "five-riemann-states", "empty-region", "zero-fallback-dt",
         "infinite-t-end", "linear-policy", "negative-ambient-pressure", "negative-inflow-pressure",
         "zero-inflow-density", "nan-ambient", "nan-velocity", "infinite-velocity", "infinite-domain",
         "nan-inflow-bound", "negative-tvb", "nan-tvb", "negative-output-every", "nan-output-every",
         "unknown-model", "unknown-bc", "unknown-initial", "infinite-region", "negative-infinite-region",
         "nan-region", "sine-outside-region", "uniform-advection", "scalar-inflow"],
)
def test_cli_invalid_value_exit_code(tmp_path, capsys, line):
    cfg = _write(tmp_path, "bad.cfg", ADVECTION_SMALL + f"{line}\nout_dir = {tmp_path / 'o'}\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    # one line, naming the file, the offending line (the 10th) and its key
    assert len(err) == 1 and err[0].startswith(f"config error: {cfg}:10:") and line.split()[0] in err[0]


def _io_probe(tmp_path, case):
    """(argv, what the error names) of one unreadable input or unwritable output."""
    good = _write(tmp_path, "good.cfg", ADVECTION_SMALL + f"out_dir = {tmp_path / 'o'}\n")
    missing = tmp_path / "missing.cfg"
    if case == "missing-config":
        return ["run", str(missing)], f"{missing}: cannot read: "
    if case == "config-is-a-directory":
        return ["run", str(tmp_path)], f"{tmp_path}: cannot read: "
    if case == "non-utf8-config":
        path = tmp_path / "latin1.cfg"
        path.write_bytes("# d\xe9j\xe0 vu\nnx = 8\n".encode("latin-1"))
        return ["run", str(path)], f"{path}: cannot read: "
    if case == "compare-missing-second-config":
        return ["compare", str(good), str(missing)], f"{missing}: cannot read: "
    if case == "csv-into-a-missing-directory":
        csv = tmp_path / "nowhere" / "table.csv"
        return ["decomp-report", "--csv", str(csv)], f"--csv: cannot write {csv}: "
    blocker = _write(tmp_path, "blocker", "a regular file\n")
    cfg = _write(tmp_path, "under.cfg", ADVECTION_SMALL + f"out_dir = {blocker / 'o'}\n")
    return ["run", str(cfg)], f"out_dir: cannot create {blocker / 'o'}: "


@pytest.mark.parametrize("case", ["missing-config", "config-is-a-directory", "non-utf8-config",
                                  "compare-missing-second-config", "csv-into-a-missing-directory",
                                  "out-dir-under-a-regular-file"])
def test_unreadable_input_or_unwritable_output_exit_code(tmp_path, capsys, case):
    argv, named = _io_probe(tmp_path, case)
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    # one line naming the path (or the key) and then the reason, no traceback
    prefix = "config error: " + named
    assert len(err) == 1 and err[0].startswith(prefix) and len(err[0]) > len(prefix)


def test_domain_bounds_error_cites_the_later_line(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", "x_hi = 0.5\nnx = 4\nx_lo = 0.5\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:3: x_lo = 0\.5 must be below x_hi = 0\.5"):
        parse_config(cfg)


BURGERS_OUTSIDE = "model = burgers2d\ninitial = riemann4\nregion_hi = 0.5\n"
JET_KEYS = "model = euler2d\ninitial = uniform\nbc = outflow\n"


@pytest.mark.parametrize(
    "text, line, complaint",
    [(BURGERS_OUTSIDE, 3, "region_lo, region_hi, riemann_states: initial riemann4 data"),
     (BURGERS_OUTSIDE + "riemann_states = 0.1, 0.2, 0.3, 0.6\n", 4, "initial riemann4 data"),
     ("region_lo = -0.5\nmodel = burgers2d\n", 1, "region_lo, region_hi: initial sine data"),
     ("initial = uniform\nnx = 4\nmodel = euler2d\nambient = 5e-14, 0, 0, 0.4\n", 4,
      "gamma, ambient: initial uniform data"),
     ("ambient = 5e-14, 0, 0, 0.4\nmodel = euler2d\ninitial = uniform\n", 3, "initial uniform data"),
     ("model = euler2d\nbc = outflow\n", 1, "initial 'sine' is not defined for euler2d"),
     ("inflow = 5, 30, 0, 0.4\nmodel = burgers2d\n", 2, "inflow segments are only supported for euler2d"),
     ("model = euler2d\ninitial = uniform\ninflow = 5e-14, 30, 0, 0.4127\n", 3,
      "gamma, inflow: inflow state (5e-14, 30.0, 0.0, 0.4127) lies outside"),
     ("inflow = 5, 30, 0, 1e-14\nmodel = euler2d\ninitial = uniform\ngamma = 1.4\n", 4, "inflow state"),
     ("model = euler2d\ninitial = uniform\ninflow = 5, 30, 0, 0.4127\n", 3,
      "bc, inflow: an inflow segment needs bc = outflow, got periodic"),
     (JET_KEYS + "inflow = 5, 30, 0, 0.4127\ninflow_lo = 0.05\ninflow_hi = -0.05\n", 6,
      "inflow_lo, inflow_hi: the inflow segment [0.05, -0.05] meets none"),
     ("inflow_hi = 3.0\ninflow_lo = 2.0\n" + JET_KEYS + "inflow = 5, 30, 0, 0.4127\n", 6,
      "the inflow segment [2.0, 3.0] meets none of the left boundary's face quadrature points"),
     ("nx = 8\nny = 8\nadvection_cx = 1e200\nadvection_cy = 1e200\nt_end = 0.1\n", 5,
      "advection_cx, advection_cy, t_end: the time step 3.125e-202 is below half an ulp of t_end = 0.1")],
    ids=["riemann-region", "riemann-states", "sine-region", "ambient-below-floor", "ambient-initial",
         "euler-sine", "scalar-inflow", "inflow-below-floor", "inflow-gamma", "periodic-inflow",
         "inverted-inflow-segment", "inflow-segment-off-the-domain", "advection-step-below-half-an-ulp"],
)
def test_cross_key_error_cites_the_latest_line(tmp_path, text, line, complaint):
    path = _write(tmp_path, "bad.cfg", text)
    with pytest.raises(ConfigError, match=rf"bad\.cfg:{line}: .*") as err:
        parse_config(path)
    assert complaint in str(err.value)
    # the same complaint, without a line, for a config built in code
    cfg = RunConfig()
    for raw in text.splitlines():
        key, value = (part.strip() for part in raw.split("="))
        attr, parser = _KEY_PARSERS[key]
        cfg = replace(cfg, **{attr: parser(value)})
    with pytest.raises(ConfigError) as err_in_code:
        problem(cfg)
    assert str(err_in_code.value) == str(err.value).split(": ", 1)[1]


def test_riemann_states_inside_a_narrow_region_are_accepted(tmp_path):
    # the sine's range is not asked of riemann4 data
    cfg = parse_config(_write(tmp_path, "ok.cfg", BURGERS_OUTSIDE + "riemann_states = 0.1, 0.2, 0.3, 0.4\n"))
    assert problem(cfg).cfg == cfg


def test_burgers_desk_with_a_narrower_region_is_a_config_error(tmp_path, capsys):
    # its riemann_states reach 0.8: this used to fail at step 1 as a BP dt violation (exit 3)
    text = (CONFIG_DIR / "burgers_riemann_desk.cfg").read_text(encoding="utf-8")
    cfg = _write(tmp_path, "narrow.cfg", text.replace("region_hi = 0.8", "region_hi = 0.5"))
    assert main(["run", str(cfg)]) == 2
    lineno = text.splitlines().index("region_hi = 0.8") + 1
    assert capsys.readouterr().err.startswith(f"config error: {cfg}:{lineno}: region_lo, region_hi, riemann_states")


def test_jet_desk_with_inflow_below_the_floor_is_a_config_error(tmp_path, capsys):
    # it used to parse and then crawl at a dt set by a sound speed near 4e6
    text = (CONFIG_DIR / "mach80_jet_desk.cfg").read_text(encoding="utf-8")
    cfg = _write(tmp_path, "thin.cfg", text.replace("inflow = 5.0,", "inflow = 5e-14,"))
    assert main(["run", str(cfg)]) == 2
    lineno = text.splitlines().index("inflow = 5.0, 30.0, 0.0, 0.4127") + 1
    assert capsys.readouterr().err.startswith(f"config error: {cfg}:{lineno}: gamma, inflow: inflow state")


@pytest.mark.parametrize("lo, hi", [("0.05", "-0.05"), ("0.3", "0.3001"), ("2.0", "3.0")],
                         ids=["inverted", "between-gauss-points", "off-the-domain"])
def test_jet_desk_with_an_inflow_segment_meeting_no_face_point_is_a_config_error(tmp_path, capsys, lo, hi):
    # each used to run one step with no inflow applied and exit 0
    text = (CONFIG_DIR / "mach80_jet_desk.cfg").read_text(encoding="utf-8")
    probe = text.replace("inflow_lo = -0.05", f"inflow_lo = {lo}").replace("inflow_hi = 0.05", f"inflow_hi = {hi}")
    cfg = _write(tmp_path, "probe.cfg", probe.replace("t_end = 0.07", "t_end = 0.0005"))
    assert main(["run", str(cfg)]) == 2
    lineno = max(text.splitlines().index(line) + 1 for line in
                 ("inflow = 5.0, 30.0, 0.0, 0.4127", "inflow_lo = -0.05", "inflow_hi = 0.05"))
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}:{lineno}: inflow_lo, inflow_hi: the inflow segment [{lo}, {hi}]")
    with pytest.raises(ConfigError, match="meets none of the left boundary's face quadrature points"):
        problem(replace(parse_config(CONFIG_DIR / "mach80_jet_desk.cfg"),
                                inflow_lo=float(lo), inflow_hi=float(hi)))


def test_an_inflow_segment_meeting_one_face_point_runs():
    cfg = parse_config(CONFIG_DIR / "mach80_jet_desk.cfg")
    nodes = Basis2D(cfg.k).face_rule.nodes
    y = cfg.y_lo + (cfg.y_hi - cfg.y_lo) / cfg.ny * (0.5 + nodes[1])  # the middle point of the first face
    cfg = replace(cfg, nx=8, t_end=1e-4, inflow_lo=y, inflow_hi=y)
    assert run(cfg, write_outputs=False).steps > 0


def test_cli_rejects_safety_above_one(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", ADVECTION_SMALL + f"safety = 2.0\nout_dir = {tmp_path / 'o'}\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "safety" in err[0] and ":10:" in err[0]


@pytest.mark.parametrize(
    "line",
    ["limiter.node_set = optimal", "safety = 1.0", "fallback_dt = 0.001"],
    ids=["node-set", "safety", "fallback-dt"],
)
def test_cli_rejects_deleted_keys(tmp_path, capsys, line):
    # values these keys used to accept: dt_policy alone names the
    # decomposition, c0 is the one dt fraction, a zero-speed step is unbounded
    cfg = _write(tmp_path, "old.cfg", ADVECTION_SMALL + f"{line}\nout_dir = {tmp_path / 'o'}\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    key = line.split()[0]
    assert len(err) == 1 and err[0] == f"config error: {cfg}:10: unknown key {key!r}"


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_configs_parse_and_validate(path):
    cfg = parse_config(path)
    assert problem(cfg).cfg == cfg


def test_cli_accepts_jiang_liu_spelling(tmp_path, capsys):
    text = ADVECTION_SMALL.replace("dt_policy = optimal", "dt_policy = jiang-liu")  # a key is set once
    cfg = _write(tmp_path, "jl.cfg", text + f"out_dir = {tmp_path / 'o'}\n")
    assert parse_config(cfg).dt_policy == "jiangliu"
    assert main(["run", str(cfg)]) == 0


def test_cli_admissibility_exit_code(tmp_path, capsys):
    jet = """
model = euler2d
x_lo = 0.0
x_hi = 1.0
y_lo = -0.25
y_hi = 0.25
nx = 30
ny = 16
t_end = 0.001
bc = outflow
initial = uniform
ambient = 5.0, 0.0, 0.0, 0.4127
inflow = 5.0, 800.0, 0.0, 0.4127
limiter.bp = off
"""
    cfg = _write(tmp_path, "jet.cfg", jet + f"out_dir = {tmp_path / 'o'}\n")
    assert main(["run", str(cfg)]) == 3
    assert "admissibility" in capsys.readouterr().err


def test_cli_decomp_report(tmp_path, capsys):
    out_csv = tmp_path / "table.csv"
    assert main(["decomp-report", "--k", "2", "--phi", "1", "1", "--csv", str(out_csv)]) == 0
    capsys.readouterr()
    assert out_csv.read_text().startswith("dim,scheme,")


@pytest.mark.parametrize(
    "flags, key",
    [(["--k", "4"], "k:"), (["--phi", "1", "-1"], "phi:"), (["--c0", "0"], "c0:"), (["--c0", "-1"], "c0:"),
     (["--phi", "1"], "phi takes")],
    ids=["unsupported-degree", "negative-phi", "zero-c0", "negative-c0", "one-phi"],
)
def test_cli_decomp_report_config_error_exit_code(capsys, flags, key):
    assert main(["decomp-report", *flags]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: " + key)


def test_cli_converge(tmp_path, capsys):
    cfg = _write(tmp_path, "c.cfg",
                 "model = advection2d\nk = 2\nt_end = 0.05\nlimiter.bp = off\n"
                 f"out_dir = {tmp_path / 'o'}\n")
    assert main(["converge", str(cfg), "--grids", "8", "16"]) == 0
    assert "order" in capsys.readouterr().out.splitlines()[0]


def _must_not_run(*args, **kwargs):
    raise AssertionError("a run started")


def test_converge_refuses_a_model_without_exact_solution_before_any_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve", _must_not_run)
    cfg = _write(tmp_path, "burgers.cfg", "model = burgers2d\ninitial = riemann4\nbc = outflow\n"
                 f"out_dir = {tmp_path / 'o'}\n")
    with pytest.raises(ConfigError, match="exact solution"):
        convergence_study(parse_config(cfg), [64, 32])
    assert main(["converge", str(cfg), "--grids", "64", "32"]) == 2
    assert "exact solution" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_converge_checks_every_grid_before_any_run(tmp_path, capsys, monkeypatch):
    # grid 8 used to run to the end before grid 0 failed on nx, a key the
    # file never set, and its out_dir was already created
    monkeypatch.setattr(cli, "solve", _must_not_run)
    cfg = _write(tmp_path, "c.cfg", ADVECTION_SMALL + f"out_dir = {tmp_path / 'o'}\n")
    assert main(["converge", str(cfg), "--grids", "8", "0"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: --grids: grid 0: bad value for nx: expected at least 1 cell, got 0"]
    assert not (tmp_path / "o").exists()


def _count_builds(monkeypatch):
    """A Counter of the models, full meshes (not `Window`s) and bases built
    from now on, by class name."""
    built = Counter()
    for cls in (AdvectionModel, BurgersModel, EulerModel, Basis2D, dg_core.Mesh2D):
        def counted(self, *args, __init__=cls.__init__, **kwargs):
            if type(self).__name__ != "Window":
                built[type(self).__name__] += 1
            __init__(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


@pytest.mark.parametrize("config", ["jet", "advection"])
def test_a_run_builds_its_model_mesh_and_basis_once(tmp_path, monkeypatch, config):
    # at the parent of this test a jet's parse_config and run built three of each
    path = (_write(tmp_path, "jet.cfg", JET_SMALL) if config == "jet"
            else _write(tmp_path, "adv.cfg", ADVECTION_SMALL))
    built = _count_builds(monkeypatch)
    cfg = parse_config(path)
    assert built["Basis2D"] == 0  # the inflow check reads the cached face rule
    built.clear()
    run(cfg, write_outputs=False)
    model = "EulerModel" if config == "jet" else "AdvectionModel"
    assert built == {model: 1, "Mesh2D": 1, "Basis2D": 1}


def test_compare_and_converge_build_one_problem_per_run(tmp_path, monkeypatch):
    problems = []

    def counted_problem(cfg):
        problems.append((cfg.nx, cfg.dt_policy))
        return problem(cfg)

    text = "model = advection2d\nnx = 8\nny = 8\nt_end = 0.05\n"
    a = parse_config(_write(tmp_path, "a.cfg", text + "dt_policy = optimal\n"))
    b = parse_config(_write(tmp_path, "b.cfg", text + "dt_policy = classic\n"))
    monkeypatch.setattr(cli, "problem", counted_problem)
    built = _count_builds(monkeypatch)
    efficiency_compare(a, b, write_outputs=False)
    assert problems == [(8, "optimal"), (8, "classic")]
    assert built == {"AdvectionModel": 2, "Mesh2D": 2, "Basis2D": 2}
    problems.clear()
    built.clear()
    convergence_study(replace(a, t_end=0.01), [4, 8], write_outputs=False)
    assert problems == [(4, "optimal"), (8, "optimal")]
    assert built == {"AdvectionModel": 2, "Mesh2D": 2, "Basis2D": 2}


def test_cli_run_and_compare_build_each_problem_once(tmp_path, monkeypatch, capsys):
    # `main` used to check each file (one problem) and then run its config
    # (another): 2 problems per run and 4 per compare
    text = ADVECTION_SMALL.replace("t_end = 0.1", "t_end = 0.05")
    a = _write(tmp_path, "a.cfg", text + f"out_dir = {tmp_path / 'oa'}\n")
    b = _write(tmp_path, "b.cfg", text.replace("optimal", "classic") + f"out_dir = {tmp_path / 'ob'}\n")
    expected = run(parse_config(a), write_outputs=False)
    problems = []

    def counted_problem(cfg):
        problems.append(cfg.dt_policy)
        return problem(cfg)

    monkeypatch.setattr(cli, "problem", counted_problem)
    assert main(["run", str(a)]) == 0
    assert problems == ["optimal"]
    assert capsys.readouterr().out.splitlines()[:2] == [expected.csv_header(), expected.csv_row()]
    problems.clear()
    assert main(["compare", str(a), str(b)]) == 0
    assert problems == ["optimal", "classic"]


@pytest.mark.parametrize("key, line", [("inflow", "inflow = 5.0, 1e300, 0.0, 0.4127"),
                                       ("ambient", "ambient = 5.0, 0.0, 1e300, 0.4127")])
def test_a_state_whose_energy_overflows_is_a_config_error_without_a_warning(tmp_path, capsys, key, line):
    # its pressure used to warn of overflow and an invalid subtraction before
    # the config error: a traceback where RuntimeWarnings are errors
    text = (CONFIG_DIR / "mach80_jet_desk.cfg").read_text(encoding="utf-8")
    old = next(raw for raw in text.splitlines() if raw.startswith(f"{key} = "))
    cfg = _write(tmp_path, "huge.cfg", text.replace(old, line).replace("out_dir = ", f"out_dir = {tmp_path}/"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    lineno = text.splitlines().index(old) + 1
    complaint = "gamma, inflow: inflow state" if key == "inflow" else "gamma, ambient: initial uniform data"
    assert len(err) == 1 and err[0].startswith(f"config error: {cfg}:{lineno}: {complaint}")


def test_decomp_report_at_a_ratio_whose_floor_underflows(capsys):
    # 1e-12 of the largest ratio underflows to 0; the zero ratio is floored
    # at the smallest positive float instead, and the tables are exact
    assert main(["decomp-report", "--phi", "0", "1e-320"]) == 0
    csv = decomp_report(2, (0.0, 1e-320), 1.0)
    capsys.readouterr()
    defects = [float(line.split(",")[-1]) for line in csv.splitlines()[1:]]
    assert len(defects) == 3 and max(defects) <= 1e-14


def test_decomp_report_at_ratios_whose_psi_overflows_is_a_config_error(capsys):
    assert main(["decomp-report", "--phi", "1e308", "1e308"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: phi:") and "not finite" in err[0]


def test_advection_at_a_speed_whose_ratio_floor_underflows_runs():
    # |c_x|/h_x is subnormal and c_y = 0: its floor used to underflow to 0 and
    # end the run in a traceback; the step is unbounded and lands on t_end
    report = run(RunConfig(nx=8, ny=8, t_end=0.1, advection_cx=1e-320, advection_cy=0.0), write_outputs=False)
    assert report.steps == 1 and report.t_final == 0.1


def test_advection_at_a_speed_whose_ratio_overflows_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "fast.cfg", ADVECTION_SMALL + "advection_cx = 1e308\nadvection_cy = 0\n"
                 f"out_dir = {tmp_path / 'o'}\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {cfg}:11: advection_cx, advection_cy:")
    assert "not finite" in err[0]


@pytest.mark.parametrize("ulps, refused", [(0.4, True), (0.6, False)])
def test_advection_step_below_half_an_ulp_of_t_end_is_a_config_error(ulps, refused):
    # equal speeds c on 8 x 8 cells of [-1, 1]^2: the optimal dt is h/(8c) = 1/(32c)
    t_end = 0.1
    cfg = RunConfig(nx=8, ny=8, t_end=t_end, advection_cx=1.0, advection_cy=1.0)
    c = 1.0 / (32.0 * ulps * math.ulp(t_end))
    if refused:
        with pytest.raises(ConfigError, match="below half an ulp of t_end"):
            problem(replace(cfg, advection_cx=c, advection_cy=c))
    else:
        problem(replace(cfg, advection_cx=c, advection_cy=c))


def test_cli_compare_zero_velocity(tmp_path, capsys):
    # a stationary field bounds no step: one step to t_end under both policies
    text = "model = advection2d\nadvection_cx = 0\nadvection_cy = 0\nnx = 8\nny = 8\nt_end = 0.01\n"
    a = _write(tmp_path, "a.cfg", text + f"dt_policy = optimal\nout_dir = {tmp_path / 'oa'}\n")
    b = _write(tmp_path, "b.cfg", text + f"dt_policy = classic\nout_dir = {tmp_path / 'ob'}\n")
    assert main(["compare", str(a), str(b)]) == 0
    steps_a, steps_b, step_ratio, predicted = capsys.readouterr().out.splitlines()[1].split(",")[:4]
    assert steps_a == steps_b == "1" and float(step_ratio) == float(predicted) == 1.0


def test_cli_compare_different_problems_exit_code(tmp_path, capsys):
    text = "model = advection2d\nnx = 8\nny = 8\nt_end = 0.05\n"
    a = _write(tmp_path, "a.cfg", text + "dt_policy = optimal\n")
    b = _write(tmp_path, "b.cfg", text + "dt_policy = classic\nx_hi = 3\nadvection_cx = 4\n")
    assert main(["compare", str(a), str(b)]) == 2
    assert "advection_cx" in capsys.readouterr().err


def test_cli_compare_refuses_one_out_dir_for_both_configs(tmp_path, capsys):
    # B's report.csv and snapshots would replace A's: a config error, before
    # either run writes anything; the same directory spelled two ways too
    text = "model = advection2d\nnx = 8\nny = 8\nt_end = 0.05\n"
    a = _write(tmp_path, "a.cfg", text + f"dt_policy = optimal\nout_dir = {tmp_path / 'o'}\n")
    b = _write(tmp_path, "b.cfg", text + f"dt_policy = classic\nout_dir = {tmp_path / 'x' / '..' / 'o'}\n")
    assert main(["compare", str(a), str(b)]) == 2
    assert "out_dir" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # without outputs there is nothing to lose
    cmp_report = efficiency_compare(parse_config(a), parse_config(b), write_outputs=False)
    assert cmp_report.steps_b > cmp_report.steps_a > 0


def test_readme_config_table_lists_the_parsed_keys():
    # each key once, with a default stated (no `-`)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config keys", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    assert sorted(key.strip(" `") for keys, _ in rows for key in keys.split(",")) == sorted(_KEY_PARSERS)
    assert [keys for keys, default in rows if default.strip() == "-"] == []


def test_cli_compare(tmp_path, capsys):
    text = "model = advection2d\nnx = 10\nny = 10\nt_end = 0.1\n"
    a = _write(tmp_path, "a.cfg", text + f"dt_policy = optimal\nout_dir = {tmp_path / 'oa'}\n")
    b = _write(tmp_path, "b.cfg", text + f"dt_policy = classic\nout_dir = {tmp_path / 'ob'}\n")
    assert main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("steps_a,")
