"""One benchmark run in a fresh process: import bpdg, run one config, write timings.

    python perfbench/child.py <config> <result.json> <plain|traced|setup>

Timings are perf_counter seconds relative to the moment `import bpdg` starts.
Hooks are installed from outside: no file of the program is changed.  A hook
replaces a function in every bpdg module that holds it by name, so calls
through `from .dg_core import ssp_step` are seen too.

- always: the stepping loop starts when `RunReport` is constructed, and each
  step ends when `ssp_step` returns.  In setup mode the child stops there.
- traced: every function in LAYERS records a span (name, start, end,
  parent span).  Spans stay in memory and are written with the result, under
  the run id (the name of the run's directory).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import numpy  # noqa: F401  imported before the clock starts: its import cost is not bpdg's

# (span name, module, attribute).  The physics entries are methods, wrapped on
# every model class that defines them.
LAYERS = (
    ("quadrature.gauss_rule", "quadrature", "gauss_rule"),
    ("decomposition.optimal_2d", "decomposition", "optimal_2d"),
    ("decomposition.zhang_shu_2d", "decomposition", "zhang_shu_2d"),
    ("decomposition.bp_max_dt", "decomposition", "bp_max_dt"),
    ("physics.lax_friedrichs_flux", "physics", "lax_friedrichs_flux"),
    ("dg_core.project", "dg_core", "project"),
    ("dg_core.evaluate_at_offsets", "dg_core", "evaluate_at_offsets"),
    ("dg_core.global_max_speeds", "dg_core", "global_max_speeds"),
    ("dg_core.semidiscrete_residual", "dg_core", "semidiscrete_residual"),
    ("dg_core.ssp_step", "dg_core", "ssp_step"),
    ("dg_core.step_controller", "dg_core", "step_controller"),
    ("limiters.build_node_set", "limiters", "build_node_set"),
    ("limiters.bp_scaling_limit", "limiters", "bp_scaling_limit"),
    ("limiters.tvb_minmod_limit", "limiters", "tvb_minmod_limit"),
    ("cli.output", "cli", "_write_field_csv"),
    ("cli.run", "cli", "run"),
)
METHODS = (
    ("physics.flux", "flux"),
    ("physics.max_wave_speed", "max_wave_speed"),
    ("physics.pressure", "pressure"),
)
MODEL_CLASSES = ("AdvectionModel", "BurgersModel", "EulerModel")


def _cells(field) -> int:
    return field.coeffs.shape[0] * field.coeffs.shape[1]


# cells the call acted on, out of cells it examined
COUNTERS = {
    "limiters.bp_scaling_limit": lambda args, out: (out[1].cells_limited, _cells(args[0])),
    "limiters.tvb_minmod_limit": lambda args, out: (out[1], _cells(args[0])),
}


def _bpdg_modules():
    return [m for name, m in list(sys.modules.items()) if name == "bpdg" or name.startswith("bpdg.")]


def replace_everywhere(original, replacement) -> None:
    for module in _bpdg_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """In-memory spans [name, start, end, parent index, counter or None]."""

    def __init__(self, t0: float):
        self.t0 = t0
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock, t0 = self.spans, self._stack, time.perf_counter, self.t0
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock() - t0
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock() - t0
                stack.pop()
            if count is not None:
                span[4] = count(args, out)
            return out

        traced.__wrapped__ = fn
        return traced


def install_tracer(tracer: Tracer) -> list[str]:
    """Wrap every layer function; returns the names that were not found."""
    missing = []
    for name, module_name, attr in LAYERS:
        module = sys.modules.get(f"bpdg.{module_name}")
        original = getattr(module, attr, None)
        if original is None:
            missing.append(name)
            continue
        replace_everywhere(original, tracer.wrap(name, original))
    physics = sys.modules["bpdg.physics"]
    for name, method in METHODS:
        found = False
        for cls_name in MODEL_CLASSES:
            cls = getattr(physics, cls_name, None)
            if cls is not None and method in vars(cls):
                setattr(cls, method, tracer.wrap(name, vars(cls)[method]))
                found = True
        if not found:
            missing.append(name)
    return missing


class _SetupDone(Exception):
    pass


def main(argv: list[str]) -> int:
    config, result_path, mode = argv[1], argv[2], argv[3]
    trace, setup_only = mode == "traced", mode == "setup"
    clock = time.perf_counter
    t0 = clock()
    import bpdg.cli as cli
    from bpdg import dg_core

    loop_starts: list[float] = []
    step_ends: list[float] = []

    class MarkedReport(cli.RunReport):
        def __init__(self, *args, **kwargs):
            loop_starts.append(clock() - t0)
            if setup_only:
                raise _SetupDone
            super().__init__(*args, **kwargs)

    replace_everywhere(cli.RunReport, MarkedReport)

    tracer = Tracer(t0) if trace else None
    missing = install_tracer(tracer) if tracer else []

    stepper = dg_core.ssp_step

    def timed_step(*args, **kwargs):
        out = stepper(*args, **kwargs)
        step_ends.append(clock() - t0)
        return out

    replace_everywhere(stepper, timed_step)

    cfg = cli.parse_config(config)
    try:
        report = cli.run(cfg)
    except _SetupDone:
        report = None
    t_done = clock() - t0
    if not loop_starts:
        raise RuntimeError("the stepping loop was never entered (RunReport not constructed)")

    result = {"t_loop": loop_starts[0]}
    if report is not None:
        result.update(
            run_id=os.path.basename(os.path.dirname(os.path.abspath(result_path))),
            t_done=t_done,
            step_ends=step_ends,
            steps=report.steps,
            cells=cfg.nx * cfg.ny,
            stages=len(dg_core.SCHEMES[cfg.scheme].stages),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            missing_layers=missing,
        )
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
