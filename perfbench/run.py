"""End-to-end and per-layer benchmark of the bpdg solver.

    python3 perfbench/run.py --workload advection-optimal --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S]   # every workload, plus ratios
    python3 perfbench/run.py --smoke                          # quick self-check

Each run of the solver (`bpdg.cli.run` on a seeded desk config) happens in a
fresh child process, one at a time: a closed loop with a single client.  A
measurement repeats the run until `--seconds` would be exceeded and checks
every run's outputs; runs that fail enter no figure.  `--trace 0` prints the
end-to-end metrics; `--trace 1` alternates untraced and traced runs and prints
the per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

sys.path.insert(0, str(Path(__file__).resolve().parent))
from child import LAYERS, METHODS  # noqa: E402
from workloads import WORKLOADS, Workload, check_run, perturbation, write_config  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
CHILD = Path(__file__).resolve().parent / "child.py"
# a whole invocation must finish within 180 s; no child may run past this
BUDGET_S = 170.0
SMOKE_JET_T_END = 0.0005
SETUP_REPEATS = 11
# each step's figure is its fastest of at least this many repeats, so one of
# the host's slow stretches (10-25 s long, up to 1.5x slower) has to cover all
# of them to slow it; the Mach 80 run (11-15 s a repeat) gets exactly this many
MIN_ROUNDS = 3


@dataclasses.dataclass
class ChildRun:
    mode: str  # "plain", "traced" or "setup"
    problems: list[str]
    result: dict | None
    wall_s: float

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def solve_s(self) -> float:
        return self.result["t_done"] - self.result["t_loop"]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # one BLAS/OpenMP thread per child: with the default two threads on a
    # 2-core box the Mach 80 run burned twice the CPU time and its wall time
    # spread from 8.5 s to 17.7 s
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # glibc keeps freed memory instead of unmapping it: otherwise every large
    # numpy temporary is a fresh mmap whose pages fault in again (about 1800
    # faults per Mach 80-sized array pass), and on a virtual machine the cost of
    # a fault varies with the host's load; this alone took the Mach 80 step
    # time of four runs from 110-160 ms to 107-118 ms
    env.update(MALLOC_MMAP_THRESHOLD_="1073741824", MALLOC_TRIM_THRESHOLD_="4294967296", MALLOC_TOP_PAD_="268435456")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(workload: Workload, seed: int, mode: str, index: int, deadline: float) -> ChildRun:
    run_dir = WORK / f"{workload.name}-s{seed}-{index}"
    shutil.rmtree(run_dir, ignore_errors=True)
    values = write_config(workload, seed, ROOT, run_dir.relative_to(ROOT))
    result_path = run_dir / "result.json"
    start = time.perf_counter()
    result = None
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(run_dir / "run.cfg"), str(result_path), mode],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        problems = ["timed out"]
    else:
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            problems = [f"exit code {proc.returncode}: {tail[0]}"]
        else:
            result = json.loads(result_path.read_text(encoding="utf-8"))
            problems = [] if mode == "setup" else check_run(workload, seed, values, run_dir)
    wall = time.perf_counter() - start
    shutil.rmtree(run_dir, ignore_errors=True)
    return ChildRun(mode, problems, result, wall)


def measure(workload: Workload, seed: int, seconds: float, trace: bool, budget_end: float) -> list[ChildRun]:
    """Rounds of full runs (an untraced/traced pair when tracing) until the
    next round would end past `seconds`; at least MIN_ROUNDS untraced rounds.
    An untraced measurement also starts SETUP_REPEATS set-up-only children,
    half before the rounds and half after, so set-up is sampled across the
    whole measurement rather than in one stretch of a few seconds."""
    setups = 0 if trace else SETUP_REPEATS
    runs = [run_child(workload, seed, "setup", i, budget_end) for i in range(setups // 2)]
    end = time.perf_counter() + seconds
    first = None
    for rounds in itertools.count(1):
        round_start = time.perf_counter()
        for mode in (("plain", "traced") if trace else ("plain",)):
            run = run_child(workload, seed, mode, len(runs), budget_end)
            if run.ok:
                first = first or run
                # the solver is deterministic, so repeats must take the same steps
                if len(run.result["step_ends"]) != len(first.result["step_ends"]):
                    run.problems.append("step count differs between repeats of the same input")
            runs.append(run)
            status = f"ok, solve {run.solve_s:.3f} s" if run.ok else "FAILED: " + "; ".join(run.problems)
            print(f"run {len(runs)} ({mode}): {run.wall_s:.3f} s wall, {status}", flush=True)
        now = time.perf_counter()
        if rounds >= (1 if trace else MIN_ROUNDS) and now + (now - round_start) > end:
            break
    runs += [run_child(workload, seed, "setup", len(runs) + i, budget_end) for i in range(setups - setups // 2)]
    return runs


# ---------------------------------------------------------------- metrics


def _step_samples_ms(result: dict) -> list[float]:
    edges = [result["t_loop"]] + result["step_ends"]
    return [1e3 * (b - a) for a, b in zip(edges, edges[1:])]


def end_to_end(runs: list[ChildRun]) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count), from the untraced runs that passed.

    The full runs of one measurement repeat identical work step by step, so
    each step's time is taken as its fastest repeat, and likewise the time
    outside the steps.  Other load on the host slows whole stretches of
    seconds, and this keeps those stretches out of the figures.
    """
    full = [r for r in runs if r.ok and r.mode == "plain"]
    setups = [r.result["t_loop"] for r in runs if r.ok and r.mode in ("plain", "setup")]
    metrics = {"success_rate": (sum(r.ok for r in runs) / len(runs), len(runs))}
    if not full:
        return metrics
    per_run = [_step_samples_ms(r.result) for r in full]
    steps_ms = [min(repeats) for repeats in zip(*per_run)]
    rest_ms = min(1e3 * r.solve_s - sum(samples) for r, samples in zip(full, per_run))
    solve_s = 1e-3 * (sum(steps_ms) + rest_ms)
    result = full[0].result
    n = len(full)
    metrics.update(
        solve_s=(solve_s, n),
        setup_s=(statistics.median(setups), len(setups)),
        step_ms_p50=(statistics.median(steps_ms), len(steps_ms)),
        step_ms_p90=(statistics.quantiles(steps_ms, n=10, method="inclusive")[8], len(steps_ms)),
        cell_updates_per_s=(result["cells"] * result["stages"] * result["steps"] / solve_s, n),
        steps=(result["steps"], n),
        peak_rss_mb=(statistics.median(r.result["peak_rss_mb"] for r in full), n),
    )
    return metrics


# cli.run is the root span; the snapshot writer and the projection run once
# per run, so they are reported as totals rather than per step
TOTALS = {"cli.output": "cli.output_ms", "dg_core.project": "dg_core.project.ms"}
LAYER_NAMES = [name for name, *_ in LAYERS + METHODS if name != "cli.run" and name not in TOTALS]


def layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer figures of one traced run, over its stepping loop."""
    spans = result["spans"]
    t_loop, t_done, steps = result["t_loop"], result["t_done"], result["steps"]
    covered_by_children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered_by_children[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    acted: dict[str, list[int]] = {}
    total_s: dict[str, float] = {}
    covered = 0.0
    for i, (name, start, end, parent, count) in enumerate(spans):
        total_s[name] = total_s.get(name, 0.0) + end - start
        if start < t_loop or name == "cli.run":
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - covered_by_children[i]
        if count is not None:
            acc = acted.setdefault(name, [0, 0])
            acc[0] += count[0]
            acc[1] += count[1]
        if parent < 0 or spans[parent][0] == "cli.run":
            covered += end - start
    out = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls_per_step"] = calls.get(name, 0) / steps
        out[f"{name}.self_ms_per_step"] = 1e3 * self_s.get(name, 0.0) / steps
    for name, ratio in (("limiters.bp_scaling_limit", "limited_fraction"), ("limiters.tvb_minmod_limit", "troubled_fraction")):
        limited, cells = acted.get(name, (0, 0))
        out[f"{name}.{ratio}"] = limited / cells if cells else 0.0
    for name, metric in TOTALS.items():
        out[metric] = 1e3 * total_s.get(name, 0.0)
    out["trace.coverage_pct"] = 100.0 * covered / (t_done - t_loop)
    return out


def per_layer(runs: list[ChildRun]) -> dict[str, tuple[float, int]]:
    traced = [r for r in runs if r.ok and r.mode == "traced"]
    plain = [r for r in runs if r.ok and r.mode == "plain"]
    if not traced:
        return {}
    each = [layer_metrics(r.result) for r in traced]
    metrics = {name: (statistics.median(m[name] for m in each), len(each)) for name in each[0]}
    if plain:
        overhead = statistics.median(r.solve_s for r in traced) / statistics.median(r.solve_s for r in plain)
        metrics["trace.overhead_pct"] = (100.0 * (overhead - 1.0), len(traced))
    return metrics


# ---------------------------------------------------------------- reporting


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment(workload: Workload, seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "perturbation": perturbation(seed),
        "t_end": workload.t_end,
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": _cache_sizes(),
    }


def _cache_sizes() -> dict[str, str]:
    """Cache sizes as glibc reports them (from cpuid, no files read)."""
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    wanted = {"LEVEL1_DCACHE_SIZE": "L1d", "LEVEL2_CACHE_SIZE": "L2", "LEVEL3_CACHE_SIZE": "L3"}
    sizes = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in wanted:
            sizes[wanted[parts[0]]] = parts[1]
    return sizes


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def print_table(title: str, metrics: dict[str, tuple[float, int]], units: dict[str, str]) -> None:
    print(title)
    for name, unit in units.items():
        if name in metrics:
            value, n = metrics[name]
            print(f"  {name:<48} {value:>14.6g} {unit:<10} n={n}")
        else:
            print(f"  {name:<48} {'missing':>14} {unit}")


def result_line(runs: list[ChildRun], metrics: dict[str, tuple[float, int]], units: dict[str, str]) -> dict:
    failed = sum(not r.ok for r in runs)
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in units.items() if name in metrics},
    }


def benchmark(workload: Workload, seed: int, seconds: float, trace: bool, budget_end: float):
    """Measure one workload; returns (runs, metrics, units of the reported set)."""
    print("env: " + json.dumps(environment(workload, seed)), flush=True)
    runs = measure(workload, seed, seconds, trace, budget_end)
    key = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec()[key]}
    metrics = per_layer(runs) if trace else end_to_end(runs)
    failed = sum(not r.ok for r in runs)
    print_table(f"{workload.name} seed {seed}: {len(runs)} children, fail_rate {failed}/{len(runs)}", metrics, units)
    if not trace and "step_ms_p90" in metrics and metrics["step_ms_p90"][1] < 100:
        print("warning: fewer than 100 step samples, so fewer than 10 lie beyond p90")
    return runs, metrics, units


def program_present() -> bool:
    return (ROOT / "src" / "bpdg" / "cli.py").is_file() and all(
        (ROOT / "configs" / w.config).is_file() for w in WORKLOADS.values()
    )


def smoke(budget_end: float) -> int:
    """Short runs of every workload, traced and untraced: every named metric is
    emitted with its unit, and the traced counts match the scheme's structure."""
    errors = []
    if [w["name"] for w in spec()["workloads"]] != list(WORKLOADS):
        errors.append("workloads in BENCHMARK.json differ from workloads.py")
    for workload in WORKLOADS.values():
        if workload.l1_seed0 is None:
            workload = dataclasses.replace(workload, t_end=SMOKE_JET_T_END)
        runs = [run_child(workload, 0, mode, i, budget_end) for i, mode in enumerate(("plain", "traced", "setup"))]
        errors += [f"{workload.name}: {p}" for r in runs for p in r.problems]
        layers = per_layer(runs)
        for key, metrics in (("end_to_end", end_to_end(runs)), ("per_layer", layers)):
            for m in spec()[key]:
                if m["name"] not in metrics:
                    errors.append(f"{workload.name}: {key} metric {m['name']} not emitted")
                elif not m.get("unit"):
                    errors.append(f"{workload.name}: metric {m['name']} has no unit")
        traced = runs[1].result or {}
        stages = traced.get("stages")
        residual = layers.get("dg_core.semidiscrete_residual.calls_per_step", (None,))[0]
        if residual != stages:
            errors.append(f"{workload.name}: {residual} residuals per step, expected one per stage ({stages})")
        if traced.get("missing_layers"):
            errors.append(f"{workload.name}: layers not found: {traced['missing_layers']}")
        print(f"smoke {workload.name}: {'ok' if not errors else 'FAILED'}", flush=True)
    for e in errors:
        print("smoke error: " + e)
    print(json.dumps({"smoke": "fail" if errors else "pass", "errors": len(errors)}))
    return 1 if errors else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload and print the derived ratios")
    parser.add_argument("--smoke", action="store_true", help="short self-check of metrics and traced counts")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    budget_end = time.perf_counter() + BUDGET_S

    if not program_present():
        print(f"error: bpdg sources or configs not found under {ROOT}", file=sys.stderr)
        return 2
    if not (args.workload or args.all or args.smoke):
        parser.error("one of --workload, --all or --smoke is required")
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    WORK.mkdir(exist_ok=True)
    # compile once up front, so the first child does not pay for it in setup_s
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    if args.smoke:
        return smoke(budget_end)
    if args.all:
        summary = {}
        for workload in WORKLOADS.values():
            runs, metrics, units = benchmark(workload, args.seed, seconds, False, time.perf_counter() + BUDGET_S)
            summary[workload.name] = result_line(runs, metrics, units)
        opt, cls = summary["advection-optimal"]["metrics"], summary["advection-classic"]["metrics"]
        for name in ("steps", "solve_s"):
            if name in opt and name in cls:
                ratio = cls[name]["value"] / opt[name]["value"]
                print(f"ratio {name} classic/optimal = {ratio:.4f} ({cls[name]['value']:.6g} / {opt[name]['value']:.6g}, not gated)")
        print(json.dumps(summary))
        return 0 if all(s["correct"] for s in summary.values()) else 1

    workload = WORKLOADS[args.workload]
    runs, metrics, units = benchmark(workload, args.seed, seconds, bool(args.trace), budget_end)
    line = result_line(runs, metrics, units)
    missing = sorted(set(units) - set(line["metrics"]))
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
    print(json.dumps(line))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
