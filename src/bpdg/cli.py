"""Command-line driver: configs, experiment runs, reports.

Subcommands:
    run <config>                 time-step a problem and write CSV outputs
    converge <config> --grids    grid-refinement study with observed orders
    decomp-report --k --phi      CFL/node-count tables for the decompositions
    compare <configA> <configB>  paired-run step/wall-time comparison

Config files are line-oriented ``key = value`` UTF-8 text with ``#`` comments;
unknown keys are rejected with the offending line number.
Exit codes: 0 success, 2 config error, 3 admissibility failure.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import decomposition as dc
from .dg_core import (
    Basis2D,
    DGField,
    InflowSegment,
    Mesh2D,
    OUTFLOW,
    PERIODIC,
    SCHEMES,
    error_norms,
    face_coords,
    global_max_speeds,
    project,
    ssp_step,
    step_controller,
)
from .limiters import LimiterChain, LimiterDiagnostics, build_node_set
from .physics import (
    AdmissibilityError,
    AdvectionModel,
    BoxScalar,
    BurgersModel,
    EulerModel,
)
from .quadrature import gauss_rule
from .window import Quiescence


class ConfigError(Exception):
    """A config a command cannot take; `keys` are the config keys the
    complaint is about (`parse_config` cites the latest line setting one)."""

    def __init__(self, message: str, keys: tuple[str, ...] = ()):
        super().__init__(message)
        self.keys = keys


def _parse_bool(text: str) -> bool:
    if text.lower() in ("on", "true", "yes", "1"):
        return True
    if text.lower() in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected on/off, got {text!r}")


def _parse_finite(lo: float = -math.inf, strict: bool = False):
    """Parser for a finite float at least `lo` (above it if `strict`)."""

    def parse(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and (value > lo if strict else value >= lo)):
            bound = "" if lo == -math.inf else f" {'above' if strict else 'at least'} {lo:g}"
            raise ValueError(f"expected a finite value{bound}, got {value}")
        return value

    return parse


def _parse_optional(parse):
    """`parse`, or None for `off`/`none`."""
    return lambda text: None if text.lower() in ("off", "none") else parse(text)


def _parse_four_floats(text: str) -> tuple[float, ...]:
    values = tuple(_parse_finite()(tok) for tok in text.replace(",", " ").split())
    if len(values) != 4:
        raise ValueError(f"expected 4 values, got {len(values)}")
    return values


def _parse_euler_state(text: str) -> tuple[float, ...]:
    """rho, v1, v2, p of an admissible Euler state: finite, rho > 0 and p > 0."""
    values = _parse_four_floats(text)
    if not (values[0] > 0.0 and values[3] > 0.0):
        raise ValueError(f"expected density and pressure above 0, got {values[0]} and {values[3]}")
    return values


def _parse_cell_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(f"expected at least 1 cell, got {n}")
    return n


def _parse_degree(text: str) -> int:
    k = int(text)
    if k not in dc.SUPPORTED_K:
        raise ValueError(f"supported degrees are {', '.join(map(str, dc.SUPPORTED_K))}, got {k}")
    return k


def _parse_fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"expected a value in (0, 1], got {value}")
    return value


def _parse_choice(*names: str):
    """Parser for one of `names`, case-insensitive; `jiang-liu` is the
    spelled-out `jiangliu` policy."""

    def parse(text: str) -> str:
        name = text.lower().replace("jiang-liu", "jiangliu")
        if name not in names:
            raise ValueError(f"expected one of {', '.join(names)}, got {text!r}")
        return name

    return parse


# the config keys, in the order `problem` parses them and `efficiency_compare`
# names the first that differs: a `RunConfig` attribute, its default, the
# parser of its config-file text and, where it differs, its file key
_CONFIG_KEYS = (
    ("model", "advection2d", _parse_choice(AdvectionModel.name, BurgersModel.name, EulerModel.name)),
    ("gamma", 5.0 / 3.0, _parse_finite(1.0, strict=True)),
    ("advection_cx", 1.0, _parse_finite()),
    ("advection_cy", 1.0, _parse_finite()),
    ("x_lo", -1.0, _parse_finite()),
    ("x_hi", 1.0, _parse_finite()),
    ("y_lo", -1.0, _parse_finite()),
    ("y_hi", 1.0, _parse_finite()),
    ("nx", 50, _parse_cell_count),
    ("ny", 50, _parse_cell_count),
    ("k", 2, _parse_degree),
    ("scheme", "ssprk3", _parse_choice(*SCHEMES)),
    ("dt_policy", "optimal", _parse_choice(*dc.POLICIES)),
    ("c0", 1.0, _parse_fraction),
    ("limiter_bp", True, _parse_bool, "limiter.bp"),
    ("tvb_m", None, _parse_optional(_parse_finite(0.0)), "limiter.tvb_M"),
    ("t_end", 0.5, _parse_finite(0.0, strict=True)),
    ("output_every", 0.0, _parse_finite(0.0)),
    ("out_dir", "out", str),
    ("bc", "periodic", _parse_choice(PERIODIC, OUTFLOW)),
    ("initial", "sine", _parse_choice("sine", "riemann4", "uniform")),
    ("region_lo", -1.0, _parse_finite()),
    ("region_hi", 1.0, _parse_finite()),
    ("riemann_states", (-0.2, -1.0, 0.5, 0.8), _parse_four_floats),
    ("ambient", (5.0, 0.0, 0.0, 0.4127), _parse_euler_state),
    ("inflow", None, _parse_euler_state),  # None: no inflow segment
    ("inflow_lo", -0.05, _parse_finite()),
    ("inflow_hi", 0.05, _parse_finite()),
)
_DEFAULTS = {name: default for name, default, *_ in _CONFIG_KEYS}
# config-file key -> (RunConfig attribute, parser of its text)
_KEY_PARSERS = {key[0] if key else name: (name, parse) for name, _, parse, *key in _CONFIG_KEYS}


class RunConfig:
    """A run's config: one attribute per row of `_CONFIG_KEYS`, given by
    keyword or else the row's default.  Configs holding equal values are
    equal.  A plain class, as every record here (see `bpdg`)."""

    def __init__(self, **values):
        unknown = values.keys() - _DEFAULTS.keys()
        if unknown:
            raise TypeError(f"RunConfig got unexpected keyword arguments: {', '.join(sorted(unknown))}")
        vars(self).update(_DEFAULTS, **values)

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"RunConfig({', '.join(f'{name}={value!r}' for name, value in vars(self).items())})"


def replace(cfg: RunConfig, **changes) -> RunConfig:
    """A new config holding `cfg`'s values with `changes` (the contract of
    `dataclasses.replace`: TypeError for a name that is not a config key's)."""
    return type(cfg)(**{**vars(cfg), **changes})


class Problem:
    """A validated config and what a run of it is built from, each built
    once: its model, its mesh (an inflow segment on its left side), its
    scheme and the mesh's spacings (dx, dy)."""

    def __init__(self, cfg: RunConfig, model, mesh: Mesh2D):
        self.cfg, self.model, self.mesh = cfg, model, mesh
        self.scheme = SCHEMES[cfg.scheme]
        self.spacings = (mesh.dx, mesh.dy)


def problem(cfg: RunConfig) -> Problem:
    """The problem `cfg` defines, with every value of `cfg` run through its
    key's parser, as `parse_config` reads it (so `jiang-liu` becomes
    `jiangliu`); each parser reads back the text of its own type: `str` of a
    float is exact and bools print as True/False.

    ConfigError, with its keys, for a value `parse_config` would reject, or
    else for the first of these values valid alone but not together: an
    empty interval or a domain side whose length overflows (x, y, then the
    scalar region's interval), an initial condition the
    model lacks, an inflow on a scalar model, initial data or an inflow state
    outside the model's invariant region (a state whose energy overflows
    among them), an inflow without outflow boundaries, advection speed
    ratios |c_d|/h_d that `speed_ratios` refuses or whose time step is below
    half an ulp of t_end, an inflow segment that meets no left-face
    quadrature point."""
    changes = {}
    for key, (attr, parser) in _KEY_PARSERS.items():
        value = getattr(cfg, attr)
        if value is None and attr == "inflow":
            continue  # no inflow segment
        try:
            text = ", ".join(str(float(v)) for v in value) if isinstance(value, (tuple, list)) else str(value)
            changes[attr] = parser(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}", (key,)) from exc
    cfg = replace(cfg, **changes)
    for lo, hi in (("x_lo", "x_hi"), ("y_lo", "y_hi"), ("region_lo", "region_hi")):
        if not getattr(cfg, lo) < getattr(cfg, hi):
            raise ConfigError(f"{lo} = {getattr(cfg, lo)} must be below {hi} = {getattr(cfg, hi)}", (lo, hi))
        if lo != "region_lo" and not math.isfinite(getattr(cfg, hi) - getattr(cfg, lo)):
            raise ConfigError(f"{hi} - {lo} = {getattr(cfg, hi)} - {getattr(cfg, lo)} overflows", (lo, hi))
    if (cfg.model == EulerModel.name) != (cfg.initial == "uniform"):
        raise ConfigError(f"initial {cfg.initial!r} is not defined for {cfg.model}", ("model", "initial"))
    if cfg.inflow is not None and cfg.model != EulerModel.name:
        raise ConfigError(f"inflow segments are only supported for {EulerModel.name}", ("model", "inflow"))
    region = BoxScalar(cfg.region_lo, cfg.region_hi)  # a scalar model's
    if cfg.model == AdvectionModel.name:
        c = (cfg.advection_cx, cfg.advection_cy)

        def exact(x, y, t):
            return np.sin(np.pi * (x + y - (c[0] + c[1]) * t))[..., None]
        # exact only on a periodic domain whose sides are whole sine periods 2, to 1e-12 relative
        periods = [(n, round(n / 2.0)) for n in (cfg.x_hi - cfg.x_lo, cfg.y_hi - cfg.y_lo)]
        solved = cfg.bc == PERIODIC and all(p >= 1 and abs(n - 2.0 * p) <= 1e-12 * n for n, p in periods)
        model = AdvectionModel(c, region, exact if solved and cfg.initial == "sine" else None)
    else:
        model = BurgersModel(region) if cfg.model == BurgersModel.name else EulerModel(cfg.gamma)
    keys, data = {"sine": (("region_lo", "region_hi"), (-1.0, 1.0)),  # the range of the sine
                  "riemann4": (("region_lo", "region_hi", "riemann_states"), cfg.riemann_states),
                  "uniform": (("gamma", "ambient"), cfg.ambient)}[cfg.initial]
    states = model.conserved(*data) if cfg.initial == "uniform" else np.array(data)[:, None]
    inflow = None if cfg.inflow is None else model.conserved(*cfg.inflow)
    with np.errstate(over="ignore", invalid="ignore"):  # an energy that overflows is outside, not a warning
        if not np.all(model.region.contains(states)):
            raise ConfigError(f"{', '.join(keys)}: initial {cfg.initial} data {data} lie outside "
                              f"the invariant region {model.region}", ("initial", *keys))
        if inflow is not None and not np.all(model.region.contains(inflow)):
            raise ConfigError(f"gamma, inflow: inflow state {cfg.inflow} lies outside "
                              f"the invariant region {model.region}", ("gamma", "inflow"))
    # an inflow is Euler's and the speed checks below advection's: either may come first
    if inflow is not None and cfg.bc != OUTFLOW:
        raise ConfigError(f"bc, inflow: an inflow segment needs bc = {OUTFLOW}, got {cfg.bc}", ("bc", "inflow"))
    # the bc names are the boundary kinds PERIODIC and OUTFLOW
    left = cfg.bc if inflow is None else InflowSegment(inflow, cfg.inflow_lo, cfg.inflow_hi)
    prob = Problem(cfg, model, Mesh2D(cfg.x_lo, cfg.x_hi, cfg.y_lo, cfg.y_hi, cfg.nx, cfg.ny,
                                      left, cfg.bc, cfg.bc, cfg.bc))
    if cfg.model == AdvectionModel.name:
        keys = ("advection_cx", "advection_cy", "x_lo", "x_hi", "y_lo", "y_hi", "nx", "ny")
        speeds = (abs(cfg.advection_cx), abs(cfg.advection_cy))
        phi = tuple(c / h for c, h in zip(speeds, prob.spacings))
        try:
            dc.speed_ratios(phi, (1.0, 1.0))
        except ValueError:
            raise ConfigError(f"advection_cx, advection_cy: the speed ratios |c_d|/h_d = {phi[0]:g}, {phi[1]:g} "
                              "admit no decomposition: psi = sum + 2*max of them is not finite", keys) from None
        # advection's dt is the same every step: below half an ulp of t_end,
        # t + dt rounds back to t before t reaches t_end
        dt = step_controller(_decomposition(cfg, speeds, prob.spacings), prob.scheme, speeds, prob.spacings, cfg.c0)
        if dt < 0.5 * math.ulp(cfg.t_end):
            raise ConfigError(f"advection_cx, advection_cy, t_end: the time step {dt:g} is below half an ulp of "
                              f"t_end = {cfg.t_end:g}, so t would never reach t_end",
                              keys + ("t_end", "scheme", "dt_policy", "c0"))
    if inflow is not None and not prob.mesh.bc_left.covers(
            face_coords(prob.mesh, True, gauss_rule(cfg.k + 1).nodes)).any():
        raise ConfigError(f"inflow_lo, inflow_hi: the inflow segment [{cfg.inflow_lo}, {cfg.inflow_hi}] meets "
                          "none of the left boundary's face quadrature points", ("inflow", "inflow_lo", "inflow_hi"))
    return prob


def _reason(exc: Exception) -> str:
    """An OS or decoding error's message without its repeated path."""
    return exc.strerror if isinstance(exc, OSError) and exc.strerror else str(exc)


def parse_config(path: str | Path) -> RunConfig:
    """The config file at `path`; ConfigError for a file that cannot be read
    as UTF-8 text, for any line or value `RunConfig` cannot take, and for a
    key set on two lines."""
    return _file_problem(path).cfg


def _file_problem(path: str | Path) -> Problem:
    """The problem the config file at `path` defines (see `parse_config`),
    its complaints cited at the line of the latest key they name."""
    cfg = RunConfig()
    key_lines = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {_reason(exc)}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        attr, parser = _KEY_PARSERS[key]
        try:
            setattr(cfg, attr, parser(value))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        if key in key_lines:
            raise ConfigError(f"{path}:{lineno}: {key} is set again, first at line {key_lines[key]}")
        key_lines[key] = lineno
    try:
        return problem(cfg)
    except ConfigError as exc:
        # reported at the latest line of the keys involved
        lineno = max((key_lines.get(key, 0) for key in exc.keys), default=0)
        raise ConfigError(f"{path}:{lineno}: {exc}", exc.keys) from exc


def _build_initial(cfg: RunConfig, model):
    """The initial data `project` takes: a callable u0(x, y), or the one
    state of a uniform start, which it projects exactly."""
    if cfg.initial == "sine":
        return lambda x, y: np.sin(np.pi * (x + y))[..., None]
    if cfg.initial == "riemann4":
        ul, ur, ll, lr = cfg.riemann_states

        def u0(x, y):
            left = x < 0.5
            lower = y < 0.5
            vals = np.where(
                lower, np.where(left, ll, lr), np.where(left, ul, ur)
            )
            return vals[..., None]

        return u0
    return model.conserved(*cfg.ambient)


def _out_dir(cfg: RunConfig) -> Path:
    """`cfg.out_dir`, created if missing; ConfigError naming `out_dir` when it
    cannot be (a path through or onto a regular file, no permission)."""
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out_dir: cannot create {out_dir}: {_reason(exc)}") from exc
    return out_dir


def _decomposition(cfg: RunConfig, speeds: tuple[float, float],
                   spacings: tuple[float, float]) -> dc.ConvexDecomposition:
    """The decomposition `cfg.dt_policy` names at these wave speeds: the one
    source of both a step's dt and the BP limiter's nodes."""
    return dc.decomposition_for(cfg.dt_policy, cfg.k, dc.speed_ratios(speeds, spacings))


class RunReport:
    """A run's report, built before its first step from the initial data's
    mean bounds and limiting; `run` updates it as it steps."""

    def __init__(self, min_mean: np.ndarray, max_mean: np.ndarray, bp_violation: bool,
                 limiting: LimiterDiagnostics):
        self.steps = 0
        self.wall_time = self.t_final = 0.0
        self.min_mean, self.max_mean, self.bp_violation = min_mean, max_mean, bp_violation
        self.l1 = self.l2 = self.linf = None  # error norms, for a model with an exact solution
        # every limiting of the run: the initial one's and each stage's
        self.limiting = limiting
        self.speed_history = []  # (dt, a1, a2)

    # report.csv's columns: fields of the report or of its limiting, and
    # the three `csv_row` derives; wall time is reported on stdout, never in
    # the CSV, so identical configs produce byte-identical output files
    COLUMNS = ("steps", "t_final", "min_mean0", "max_mean0", "bp_violation", "l1", "l2", "linf",
               "cells_limited", "min_theta", "troubled_cells")

    def csv_header(self) -> str:
        return ",".join(self.COLUMNS)

    def csv_row(self) -> str:
        values = {**vars(self), **vars(self.limiting), "min_mean0": float(self.min_mean[0]),
                  "max_mean0": float(self.max_mean[0]), "bp_violation": int(self.bp_violation)}
        return ",".join("" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)
                        for v in map(values.__getitem__, self.COLUMNS))


def _write_field_csv(path: Path, field: DGField) -> None:
    # formatted from Python floats (`tolist`), each coordinate once, and
    # written a row of cells at a time, each row's means by one `%` template
    # that holds its indices and coordinates (their text has no `%`): the
    # same text as formatting the numpy scalars, at a fraction of the time,
    # without the whole file in memory
    mesh = field.mesh
    m = field.model.m
    xs, ys = ([f"{v:.17g}" for v in centers.tolist()] for centers in (mesh.x_centers, mesh.y_centers))
    cells = [(f"{j},", f",{y}" + ",%.17g" * m + "\n") for j, y in enumerate(ys)]
    with path.open("w", encoding="utf-8") as out:
        out.write("i,j,x,y," + ",".join(f"u{c}" for c in range(m)) + "\n")
        for i, x in enumerate(xs):
            row = "".join(f"{i},{j}{x}{tail}" for j, tail in cells)
            out.write(row % tuple(field.cell_averages[i].ravel().tolist()))


def _failure(exc: AdmissibilityError, window, t: float, step: int) -> AdmissibilityError:
    """`exc`, raised in `step` (the set-up counts as step 1's start) on
    `window` (None: the whole mesh), with its cell named in full-mesh
    indices and the time and step appended."""
    if window is not None:
        exc = exc.shifted(window.origin)
    return AdmissibilityError(f"{exc} (t = {t:.6g}, step {step})", cell=exc.cell)


def run(cfg: RunConfig, write_outputs: bool = True) -> RunReport:
    """Run the problem `cfg` defines (see `solve`)."""
    return solve(problem(cfg), write_outputs)


def solve(prob: Problem, write_outputs: bool = True) -> RunReport:
    """Project initial data, time-step to t_end with per-stage limiting,
    write field snapshots and a run report."""
    cfg, model, scheme, spacings = prob.cfg, prob.model, prob.scheme, prob.spacings
    out_dir = _out_dir(cfg) if write_outputs else None
    basis = Basis2D(cfg.k)
    field = project(_build_initial(cfg, model), prob.mesh, basis, model)

    # the decomposition in use and the speeds it was built at; the chain
    # limits at its nodes, built from the internal offsets `node_offsets`
    decomp = decomp_speeds = node_offsets = None
    chain = LimiterChain(m_tvb=cfg.tvb_m)  # without BP limiting

    def decompose(speeds: tuple[float, float]) -> None:
        # the initial limiting's and every step's one build path: a new
        # decomposition only at new speeds, a new chain only at new nodes
        nonlocal decomp, decomp_speeds, chain, node_offsets
        if speeds != decomp_speeds:
            decomp, decomp_speeds = _decomposition(cfg, speeds, spacings), speeds
            if cfg.limiter_bp and not np.array_equal(decomp.internal_offsets, node_offsets):
                chain = LimiterChain(build_node_set(decomp, basis, model.region), cfg.tvb_m)
                node_offsets = decomp.internal_offsets

    # a run whose cells all start equal (a uniform ambient) steps only the
    # window of its disturbed cells; `window` is the one `values` belong to
    # (None: the whole mesh).  Its set-up, the initial speed pass and
    # limiting, runs on step 1's window too: a frozen cell holds the exact
    # constant, which limiting leaves as it is
    quiescence = Quiescence.of(field, len(scheme.stages))
    window = None if quiescence is None else quiescence.window(field)
    stepped = field if window is None else window.cut(field)
    try:
        if cfg.limiter_bp:
            decompose(global_max_speeds(stepped)[0])
        # `values`: the point values of `stepped` its last limiting returned
        stepped, initial, values = chain(stepped)
    except AdmissibilityError as exc:
        raise _failure(exc, window, 0.0, 1) from exc
    field = stepped if window is None else window.paste(stepped, field)

    # the means are reduced and checked here over every cell, then over the
    # cells each step stepped (a frozen cell keeps its last reduced bits);
    # the report adds each stage's limiting to a copy of the initial one's
    means = field.cell_averages
    report = RunReport(min_mean=means.min(axis=(0, 1)), max_mean=means.max(axis=(0, 1)),
                       bp_violation=not np.all(model.region.contains(means)),
                       limiting=LimiterDiagnostics(**vars(initial)))
    t = 0.0
    next_output = cfg.output_every if cfg.output_every > 0 else math.inf
    start = time.perf_counter()
    while t < cfg.t_end * (1.0 - 1e-12):
        try:
            if quiescence is not None and report.steps:  # step 1 takes the set-up's window and values
                cut = quiescence.window(field, window)
                if cut != window:  # an equal window is kept, and with it the basis's boundary plan
                    values, window = None, cut  # those of another window
            stepped = field if window is None else window.cut(field)
            # one speed pass: the speeds and stage 0 of the step read the
            # values the last limiting returned, else its one evaluation;
            # popped from `handover` into the call, they are held by
            # `ssp_step` alone (a Python 3.11 call takes over its arguments),
            # which drops them after stage 0's rate
            handover = [global_max_speeds(stepped, values)]
            speeds, values = handover[0][0], None
            # one decomposition per step: its dt is the step's, its nodes
            # are where every stage of the step is limited (the optimal
            # internal nodes follow the speed ratio); dt bounded every step
            decompose(speeds)
            dt = step_controller(decomp, scheme, speeds, spacings, cfg.c0)
            if t + dt > cfg.t_end:
                # clip the final step to land exactly on t_end; an unbounded
                # step (every speed zero) lands there at once
                dt = cfg.t_end - t
            stepped, values, stage_diagnostics = ssp_step(stepped, scheme, dt, chain, handover.pop())
            field = stepped if window is None else window.paste(stepped, field)
        except AdmissibilityError as exc:
            raise _failure(exc, window, t, report.steps + 1) from exc
        t += dt
        report.steps += 1
        for diag in stage_diagnostics:
            report.limiting.add(diag)
        report.speed_history.append((dt, *speeds))
        means = stepped.cell_averages
        report.min_mean = np.minimum(report.min_mean, means.min(axis=(0, 1)))
        report.max_mean = np.maximum(report.max_mean, means.max(axis=(0, 1)))
        if not np.all(model.region.contains(means)):
            report.bp_violation = True
        if write_outputs and t >= next_output - 1e-12:
            _write_field_csv(out_dir / f"field_{t:.6f}.csv", field)
            next_output += cfg.output_every
    report.wall_time = time.perf_counter() - start
    report.t_final = t

    if model.exact_solution is not None:
        report.l1, report.l2, report.linf = error_norms(field, model.exact_solution, t)
    if write_outputs:
        _write_field_csv(out_dir / f"field_{t:.6f}.csv", field)
        (out_dir / "report.csv").write_text(
            report.csv_header() + "\n" + report.csv_row() + "\n", encoding="utf-8"
        )
    return report


# the convergence table's header, in errors.csv and on stdout
_ERRORS_HEADER = "N,l1,l2,linf,order_l1"


def convergence_study(cfg: RunConfig, grids: list[int], write_outputs: bool = True):
    """Run each grid and tabulate (N, L1, L2, Linf, observed L1 order).
    ConfigError, before any run, naming `--grids` for a grid `cfg` cannot
    take, and for a model without an exact solution."""
    problems = []
    for n in grids:
        try:
            problems.append(problem(replace(cfg, nx=n, ny=n)))
        except ConfigError as exc:
            raise ConfigError(f"--grids: grid {n}: {exc}", exc.keys) from exc
    if any(prob.model.exact_solution is None for prob in problems):
        raise ConfigError("convergence study needs a model with an exact solution")
    out = _out_dir(cfg) if write_outputs else None
    rows = []
    prev = None  # the last grid's (n, l1)
    for n, prob in zip(grids, problems):
        rep = solve(prob, write_outputs=False)
        # the L1 error falls as h^order, h = 1/n; no order between equal grids
        order = float("nan")
        if prev and n != prev[0]:
            order = math.log2(prev[1] / rep.l1) / math.log2(n / prev[0])
        rows.append((n, rep.l1, rep.l2, rep.linf, order))
        prev = n, rep.l1
    if write_outputs:
        lines = [_ERRORS_HEADER]
        for n, l1, l2, linf, order in rows:
            lines.append(f"{n},{l1:.17g},{l2:.17g},{linf:.17g},{order:.17g}")
        (out / "errors.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows


def _decomp_rows(k: int, phi: tuple[float, ...], c0: float):
    """(name, dt, dt at equal ratios, internal nodes, exactness defect) per
    policy, named by its decomposition without the dimension suffix."""
    ones = (1.0,) * len(phi)
    rows = []
    for policy in dc.POLICIES:
        d = dc.decomposition_for(policy, k, dc.speed_ratios(phi, ones))
        d_eq = dc.decomposition_for(policy, k, dc.speed_ratios(ones, ones))
        dt = dc.bp_max_dt(d, phi, ones, c0).max_dt
        dt_eq = dc.bp_max_dt(d_eq, ones, ones, c0).max_dt
        rows.append((d.name.rsplit("-", 1)[0], dt, dt_eq, d.internal_node_count, dc.verify_exactness(d)))
    return rows


def decomp_report(k: int, phi: tuple[float, ...], c0: float, out=None) -> str:
    """Print per-scheme CFL steps, equal-ratio special cases, node counts, and
    exactness defects for 2D (and 3D when three ratios are given); returns CSV.
    ConfigError for a degree, ratios or c0 the tables are not defined for."""
    def check(key: str, parse, value):
        try:
            parse(str(value))
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc

    check("k", _parse_degree, k)
    if len(phi) not in (2, 3):
        raise ConfigError("phi takes 2 or 3 values")
    if not all(math.isfinite(v) and v >= 0.0 for v in phi):
        raise ConfigError(f"phi: expected finite nonnegative ratios, got {' '.join(map(str, phi))}")
    try:
        dc.speed_ratios(phi, (1.0,) * len(phi))
    except ValueError as exc:
        raise ConfigError(f"phi: {exc}") from exc
    check("c0", _parse_fraction, c0)
    if out is None:
        out = sys.stdout
    csv_lines = ["dim,scheme,dt,dt_equal_ratio,internal_nodes,exactness_defect"]
    for dim_phi in ([phi[:2]] if len(phi) == 2 else [phi[:2], phi]):
        dim = len(dim_phi)
        rows = _decomp_rows(k, dim_phi, c0)
        print(f"\n{dim}D decompositions, k={k}, phi={dim_phi}, c0={c0}", file=out)
        print(f"{'scheme':<12}{'dt':>16}{'dt(equal phi)':>16}{'nodes':>8}{'defect':>12}", file=out)
        for name, dt, dt_eq, nodes, defect in rows:
            print(f"{name:<12}{dt:>16.8g}{dt_eq:>16.8g}{nodes:>8}{defect:>12.2e}", file=out)
            csv_lines.append(f"{dim},{name},{dt:.17g},{dt_eq:.17g},{nodes},{defect:.3e}")
        ls = dc.linear_stability_dt(k, dim_phi, (1.0,) * dim)
        print(f"{'linear-stab':<12}{ls:>16.8g}", file=out)
    return "\n".join(csv_lines) + "\n"


class CompareReport:
    """The two runs' reports, with their step counts, wall times and step
    ratio B/A, and the step ratio the dt formulas predict."""

    def __init__(self, report_a: RunReport, report_b: RunReport, predicted_ratio: float):
        self.report_a, self.report_b, self.predicted_ratio = report_a, report_b, predicted_ratio
        self.steps_a, self.steps_b = report_a.steps, report_b.steps
        self.wall_a, self.wall_b = report_a.wall_time, report_b.wall_time
        self.step_ratio = report_b.steps / report_a.steps


# the keys two compared configs may set differently: the scheme under test
# and where its outputs go; every other key defines the problem
_COMPARE_MAY_DIFFER = ("dt_policy", "scheme", "c0", "out_dir", "output_every")


def efficiency_compare(cfg_a: RunConfig, cfg_b: RunConfig, write_outputs: bool = True) -> CompareReport:
    """Run both configs on the same problem and compare step counts against the
    ratio predicted by the dt formulas at the recorded wave speeds.
    ConfigError naming the first key outside `_COMPARE_MAY_DIFFER` whose
    values differ, and, when outputs are written, naming `out_dir` if both
    configs write to one directory (B's outputs would replace A's)."""
    return _compare(problem(cfg_a), problem(cfg_b), write_outputs)


def _compare(prob_a: Problem, prob_b: Problem, write_outputs: bool) -> CompareReport:
    """`efficiency_compare` of two problems already built."""
    cfg_a, cfg_b = prob_a.cfg, prob_b.cfg
    for key, (attr, _) in _KEY_PARSERS.items():
        a, b = getattr(cfg_a, attr), getattr(cfg_b, attr)
        if key not in _COMPARE_MAY_DIFFER and a != b:
            raise ConfigError(f"compare requires the same problem in both configs: {key} is {a} vs {b}")
    if write_outputs and Path(cfg_a.out_dir).resolve() == Path(cfg_b.out_dir).resolve():
        raise ConfigError(f"out_dir: both configs write to {cfg_a.out_dir}; compare needs one directory each")
    rep_a = solve(prob_a, write_outputs=write_outputs)
    rep_b = solve(prob_b, write_outputs=write_outputs)

    def policy_dt(prob: Problem, speeds: tuple[float, float]) -> float:
        return step_controller(_decomposition(prob.cfg, speeds, prob.spacings), prob.scheme, speeds,
                               prob.spacings, prob.cfg.c0)

    # integrate 1/tau over run A's recorded speed history for both policies
    # (one problem: their spacings are equal); an unbounded step (zero
    # speeds) counts as none under either
    n_a = n_b = 0.0
    for dt, *speeds in rep_a.speed_history:
        n_a += dt / policy_dt(prob_a, speeds)
        n_b += dt / policy_dt(prob_b, speeds)
    return CompareReport(rep_a, rep_b, predicted_ratio=n_b / n_a if n_a > 0.0 else 1.0)


def main(argv: Optional[list[str]] = None) -> int:
    import argparse  # here, not at module level: importing `bpdg.cli` to run a config needs no parser

    parser = argparse.ArgumentParser(prog="bpdg", description="bound-preserving DG solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("config")

    p_conv = sub.add_parser("converge", help="grid-refinement study")
    p_conv.add_argument("config")
    p_conv.add_argument("--grids", type=int, nargs="+", required=True)

    p_dec = sub.add_parser("decomp-report", help="decomposition CFL/node tables")
    p_dec.add_argument("--k", type=int, default=2)
    p_dec.add_argument("--phi", type=float, nargs="+", default=[1.0, 1.0])
    p_dec.add_argument("--c0", type=float, default=1.0)
    p_dec.add_argument("--csv", help="also write the CSV table to this path")

    p_cmp = sub.add_parser("compare", help="paired efficiency comparison")
    p_cmp.add_argument("config_a")
    p_cmp.add_argument("config_b")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            report = solve(_file_problem(args.config))
            print(report.csv_header())
            print(report.csv_row())
            print(f"wall_time_s,{report.wall_time:.3f}")
        elif args.command == "converge":
            rows = convergence_study(parse_config(args.config), args.grids)
            print(_ERRORS_HEADER)
            for n, l1, l2, linf, order in rows:
                print(f"{n},{l1:.6e},{l2:.6e},{linf:.6e},{order:.3f}")
        elif args.command == "decomp-report":
            csv = decomp_report(args.k, tuple(args.phi), args.c0)
            if args.csv:
                try:
                    Path(args.csv).write_text(csv, encoding="utf-8")
                except OSError as exc:
                    raise ConfigError(f"--csv: cannot write {args.csv}: {_reason(exc)}") from exc
        elif args.command == "compare":
            cmp_report = _compare(_file_problem(args.config_a), _file_problem(args.config_b), True)
            # the header is the report's field names, each printed in its format
            columns = (("steps_a", "d"), ("steps_b", "d"), ("step_ratio", ".4f"), ("predicted_ratio", ".4f"),
                       ("wall_a", ".3f"), ("wall_b", ".3f"))
            print(",".join(name for name, _ in columns))
            print(",".join(format(getattr(cmp_report, name), spec) for name, spec in columns))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AdmissibilityError as exc:
        print(f"admissibility failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
