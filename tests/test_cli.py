"""Config parsing, run reports, CSV outputs, CLI exit codes, determinism."""

import filecmp
from pathlib import Path

import numpy as np
import pytest

from bpdg.cli import (
    _KEY_PARSERS,
    ConfigError,
    RunConfig,
    convergence_study,
    decomp_report,
    efficiency_compare,
    main,
    parse_config,
    run,
)
from bpdg.dg_core import Basis2D
from bpdg.limiters import LimiterChain

ADVECTION_SMALL = """
model = advection2d
nx = 16
ny = 16
k = 2
t_end = 0.1
dt_policy = optimal
limiter.bp = on
limiter.node_set = optimal
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
        "limiter.bp = off\nlimiter.tvb_M = 2.5\nlimiter.node_set = classic\n",
    )
    cfg = parse_config(path)
    assert cfg.limiter_bp is False and cfg.tvb_m == 2.5 and cfg.node_set == "classic"
    path = _write(tmp_path, "b.cfg", "limiter.tvb_M = off\n")
    assert parse_config(path).tvb_m is None


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
    [dict(nx=0), dict(ny=-3), dict(k=4), dict(safety=2.0), dict(safety=0.0),
     dict(dt_policy="jiang_liu"), dict(node_set="bogus"), dict(x_hi=-2.0), dict(y_lo=1.0),
     dict(gamma=1.0), dict(c0=0.0), dict(c0=5.0), dict(t_end=-1.0),
     dict(model="euler2d", initial="uniform", inflow=(1.0, 2.0)), dict(ambient=(5.0, 0.0, 0.4127)),
     dict(riemann_states=(0.1, 0.2, 0.3, 0.4, 0.5)), dict(region_lo=1.0), dict(fallback_dt=0.0),
     dict(t_end=float("inf"))],
    ids=["zero-cells", "negative-cells", "unsupported-degree", "safety-above-one",
         "zero-safety", "unknown-policy", "unknown-node-set", "x-bounds-reversed", "empty-y-range",
         "gamma-one", "zero-c0", "c0-above-one", "negative-t-end", "two-inflow-values",
         "three-ambient-values", "five-riemann-states", "empty-region", "zero-fallback-dt",
         "infinite-t-end"],
)
def test_run_validates_configs_built_in_code(changes):
    with pytest.raises(ConfigError):
        run(RunConfig(**{"nx": 6, "ny": 6, "t_end": 0.01, **changes}), write_outputs=False)


def test_run_accepts_jiang_liu_spelling_in_code():
    spelled = run(RunConfig(nx=6, ny=6, t_end=0.02, dt_policy="jiang-liu", node_set="jiang-liu"),
                  write_outputs=False)
    plain = run(RunConfig(nx=6, ny=6, t_end=0.02, dt_policy="jiangliu", node_set="jiangliu"),
                write_outputs=False)
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
        calls.append(self.last_diagnostics)
        return out

    monkeypatch.setattr(LimiterChain, "__call__", recorded)
    cfg = parse_config(_write(tmp_path, "jet.cfg", JET_SMALL))
    report = run(cfg, write_outputs=False)
    # the initial projection's limiting and three stages per step
    assert len(calls) == 1 + 3 * report.steps
    assert report.cells_limited_total == sum(d.cells_limited for d in calls) > 0
    assert report.troubled_total == sum(d.troubled_cells for d in calls) > 0
    assert report.min_theta == min(d.min_theta for d in calls) < 1.0
    # more than the last stage of each step alone would give
    last_stages = calls[3::3]
    assert report.cells_limited_total > sum(d.cells_limited for d in last_stages)


def test_euler_run_evaluates_each_rk_state_once(tmp_path, monkeypatch):
    calls = []
    stacked = Basis2D.stacked_values

    def counted(self, coeffs):
        calls.append(coeffs.shape)
        return stacked(self, coeffs)

    monkeypatch.setattr(Basis2D, "stacked_values", counted)
    report = run(parse_config(_write(tmp_path, "jet.cfg", JET_SMALL)), write_outputs=False)
    # the projection's, for the first node set's speeds, and one per limited
    # state (the initial limiting and three stages per step): a state's
    # speeds and residual reuse the values its limiting handed on
    assert report.steps > 0 and len(calls) == 2 + 3 * report.steps


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
    base = RunConfig(model="advection2d", nx=40, ny=40, k=2, t_end=0.2)
    l1 = {}
    for ns in ("optimal", "classic"):
        cfg = RunConfig(**{**base.__dict__, "node_set": ns})
        l1[ns] = run(cfg, write_outputs=False).l1
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


def test_efficiency_compare_advection_ratio():
    a = RunConfig(model="advection2d", nx=20, ny=20, t_end=0.2, dt_policy="optimal")
    b = RunConfig(model="advection2d", nx=20, ny=20, t_end=0.2, dt_policy="classic")
    cmp_report = efficiency_compare(a, b, write_outputs=False)
    assert cmp_report.steps_b > cmp_report.steps_a
    assert 1.45 <= cmp_report.step_ratio <= 1.55
    assert cmp_report.predicted_ratio == pytest.approx(1.5, abs=1e-6)


# -------------------------------------------------------------- CLI proper


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
     "riemann_states = 0.1 0.2 0.3 0.4 0.5", "region_lo = 1.0", "fallback_dt = 0", "t_end = inf"],
    ids=["zero-cells", "unsupported-degree", "unknown-policy", "x-bounds-reversed", "empty-y-range",
         "gamma-one", "zero-c0", "c0-above-one", "negative-t-end", "two-inflow-values",
         "three-ambient-values", "five-riemann-states", "empty-region", "zero-fallback-dt",
         "infinite-t-end"],
)
def test_cli_invalid_value_exit_code(tmp_path, capsys, line):
    cfg = _write(tmp_path, "bad.cfg", ADVECTION_SMALL + f"{line}\nout_dir = {tmp_path / 'o'}\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    # one line, naming the file, the offending line (the 10th) and its key
    assert len(err) == 1 and err[0].startswith(f"config error: {cfg}:10:") and line.split()[0] in err[0]


def test_domain_bounds_error_cites_the_later_line(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", "x_hi = 0.5\nnx = 4\nx_lo = 0.5\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:3: x_lo = 0\.5 must be below x_hi = 0\.5"):
        parse_config(cfg)


def test_cli_rejects_safety_above_one(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", ADVECTION_SMALL + f"safety = 2.0\nout_dir = {tmp_path / 'o'}\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "safety" in err[0] and ":10:" in err[0]


def test_cli_accepts_jiang_liu_spelling(tmp_path, capsys):
    text = ADVECTION_SMALL + "dt_policy = jiang-liu\nlimiter.node_set = jiang-liu\n"
    cfg = _write(tmp_path, "jl.cfg", text + f"out_dir = {tmp_path / 'o'}\n")
    assert parse_config(cfg).dt_policy == parse_config(cfg).node_set == "jiangliu"
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


def test_cli_converge(tmp_path, capsys):
    cfg = _write(tmp_path, "c.cfg",
                 "model = advection2d\nk = 2\nt_end = 0.05\nlimiter.bp = off\n"
                 f"out_dir = {tmp_path / 'o'}\n")
    assert main(["converge", str(cfg), "--grids", "8", "16"]) == 0
    assert "order" in capsys.readouterr().out.splitlines()[0]


def test_cli_compare_zero_velocity(tmp_path, capsys):
    # every step takes fallback_dt under both policies: a predicted ratio of 1
    text = "model = advection2d\nadvection_cx = 0\nadvection_cy = 0\nnx = 8\nny = 8\nt_end = 0.01\n"
    a = _write(tmp_path, "a.cfg", text + f"dt_policy = optimal\nout_dir = {tmp_path / 'oa'}\n")
    b = _write(tmp_path, "b.cfg", text + f"dt_policy = classic\nout_dir = {tmp_path / 'ob'}\n")
    assert main(["compare", str(a), str(b)]) == 0
    steps_a, steps_b, step_ratio, predicted = capsys.readouterr().out.splitlines()[1].split(",")[:4]
    assert steps_a == steps_b == "10" and float(step_ratio) == float(predicted) == 1.0


def test_readme_config_table_lists_the_parsed_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config keys", 1)[1].split("\n#", 1)[0]
    cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    assert {key.strip(" `") for cell in cells for key in cell.split(",")} == set(_KEY_PARSERS)


def test_cli_compare(tmp_path, capsys):
    text = "model = advection2d\nnx = 10\nny = 10\nt_end = 0.1\n"
    a = _write(tmp_path, "a.cfg", text + f"dt_policy = optimal\nout_dir = {tmp_path / 'oa'}\n")
    b = _write(tmp_path, "b.cfg", text + f"dt_policy = classic\nout_dir = {tmp_path / 'ob'}\n")
    assert main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("steps_a,")
