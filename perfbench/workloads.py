"""Benchmark workloads: which desk config each runs, how a seed perturbs it,
and how a finished run is checked for correctness.

The program only ever sees a generated config file; the seed stays here.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # desk config under configs/
    t_end: float
    # L1 error against the exact solution at seed 0, from the solver as first
    # benchmarked; None for runs without an exact solution
    l1_seed0: Optional[float] = None


# Why each workload is in the set: BENCHMARK.json and README.md.  The jet's
# t_end gives 103 steps, enough for ten beyond the p90 step time, while three
# repeats of it still fit in the run length.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("advection-optimal", "advection_desk.cfg", 0.75, l1_seed0=1.062387484806357e-04),
        Workload("advection-classic", "advection_classic.cfg", 0.75, l1_seed0=4.725249939222445e-05),
        Workload("euler-jet-mach80", "mach80_jet_desk.cfg", 0.0075),
    )
}

# A seed moves only these inputs, by at most these relative amounts.  Both
# advection workloads draw the same velocity factors from the same seed, so
# their step and wall ratios stay comparable.
VELOCITY_SPREAD = 0.01
AMBIENT_PRESSURE_SPREAD = 0.02

# Loose enough for round-off and reordered sums, and for the velocity
# perturbation above, which alone moves the optimal run's L1 error by up to 8%
# (the node set follows the speed ratio); a broken scheme is off by orders of
# magnitude.
L1_REL_TOL = 0.25


def perturbation(seed: int) -> dict[str, float]:
    """Relative factors a seed applies; seed 0 leaves the desk configs as they are."""
    if seed == 0:
        return {"cx": 1.0, "cy": 1.0, "ambient_p": 1.0}
    rng = random.Random(seed)
    return {
        "cx": 1.0 + rng.uniform(-VELOCITY_SPREAD, VELOCITY_SPREAD),
        "cy": 1.0 + rng.uniform(-VELOCITY_SPREAD, VELOCITY_SPREAD),
        "ambient_p": 1.0 + rng.uniform(-AMBIENT_PRESSURE_SPREAD, AMBIENT_PRESSURE_SPREAD),
    }


def read_config(path: Path) -> dict[str, str]:
    values = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


def write_config(workload: Workload, seed: int, root: Path, out_dir: Path) -> dict[str, str]:
    """Write the seeded config into root/out_dir/run.cfg and return its values.

    `out_dir` is relative to `root`, where the solver runs."""
    values = read_config(root / "configs" / workload.config)
    factors = perturbation(seed)
    values["t_end"] = repr(workload.t_end)
    values["out_dir"] = str(out_dir)
    if values.get("model") == "advection2d":
        values["advection_cx"] = repr(float(values["advection_cx"]) * factors["cx"])
        values["advection_cy"] = repr(float(values["advection_cy"]) * factors["cy"])
    if values.get("model") == "euler2d":
        ambient = [float(v) for v in values["ambient"].replace(",", " ").split()]
        ambient[3] *= factors["ambient_p"]
        values["ambient"] = ", ".join(repr(v) for v in ambient)
    (root / out_dir).mkdir(parents=True, exist_ok=True)
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    (root / out_dir / "run.cfg").write_text(text, encoding="utf-8")
    return values


def _final_snapshot(out_dir: Path) -> list[dict[str, float]]:
    snaps = sorted(out_dir.glob("field_*.csv"), key=lambda p: float(p.stem[len("field_"):]))
    if not snaps:
        raise ValueError("no field snapshot written")
    with snaps[-1].open(encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def check_run(workload: Workload, seed: int, values: dict[str, str], out_dir: Path) -> list[str]:
    """Problems found in a finished run's report.csv and final snapshot; empty if correct.

    Step counts are deliberately not checked: a legitimate change of dt must
    show up in the `steps` metric, not as a failure.
    """
    problems = []
    with (out_dir / "report.csv").open(encoding="utf-8") as fh:
        report = next(csv.DictReader(fh))
    t_end = float(values["t_end"])
    if not math.isclose(float(report["t_final"]), t_end, rel_tol=1e-9):
        problems.append(f"t_final {report['t_final']} != t_end {t_end}")
    if report["bp_violation"] != "0":
        problems.append("bp_violation set in report.csv")
    cells = _final_snapshot(out_dir)
    if values["model"] == "advection2d":
        lo, hi = float(values["region_lo"]), float(values["region_hi"])
        if float(report["min_mean0"]) < lo - 1e-12 or float(report["max_mean0"]) > hi + 1e-12:
            problems.append("cell means left [region_lo, region_hi] during the run")
        if any(not lo - 1e-12 <= c["u0"] <= hi + 1e-12 for c in cells):
            problems.append("final cell means outside [region_lo, region_hi]")
        l1 = float(report["l1"])
        ref = workload.l1_seed0
        if not abs(l1 / ref - 1.0) <= L1_REL_TOL:
            problems.append(f"L1 error {l1:.6e} not within {L1_REL_TOL:.0%} of {ref:.6e} (seed {seed})")
    else:
        gamma = float(values["gamma"])
        rho = min(c["u0"] for c in cells)
        if not rho > 0.0:
            problems.append(f"final cell-mean density not positive: min rho {rho:.3e}")
        else:
            p = min((gamma - 1.0) * (c["u3"] - 0.5 * (c["u1"] ** 2 + c["u2"] ** 2) / c["u0"]) for c in cells)
            if not p > 0.0:
                problems.append(f"final cell-mean pressure not positive: min p {p:.3e}")
        if float(report["min_mean0"]) <= 0.0:
            problems.append("a cell-mean density was not positive during the run")
    return problems
