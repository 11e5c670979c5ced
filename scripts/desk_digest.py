"""Byte-identity gate for refactors: run the desk configs, print output digests.

    python3 scripts/desk_digest.py [--keep DIR] [--against KEPT] > digests.txt

Runs, from the `src/` next to this script:

- `advection_desk.cfg`, `advection_classic.cfg`, `burgers_riemann_desk.cfg`
  and `mach80_jet_desk.cfg` (the jet with `t_end` 0.0075);
- `mach80_jet_desk.cfg` under the classic policy to `t_end` 0.002, the one
  desk run whose limiter nodes include internal nodes on volume Gauss points;
- `advection_desk.cfg` at k = 3 with SSPRK4 on 100x100 cells to `t_end` 0.2;
- `decomp-report` at k = 2 and k = 3 for phi = (1, 2, 3), and again for
  phi = (1, 1, 1): equal ratios are the paper's headline case and the one
  place where the optimal internal nodes merge;
- `compare` of `advection_desk.cfg` against `advection_classic.cfg`;
- `converge` of `advection_desk.cfg` on grids 8 and 16 to `t_end` 0.1.

Runs write into a temporary directory (or DIR with `--keep`).  It prints one
`sha256  name/file` line per `report.csv`, `field_*.csv` and decomp-report
CSV, the compare row's step counts and ratios at full precision (wall times
left out), and last the `sha256  converge/errors.csv` line.  Run it on two
commits and diff the output: a refactor that keeps results bit-identical
prints the same lines.

`--against KEPT` then compares the CSVs with those another commit's run kept
in KEPT (`--keep KEPT`): for each file whose bytes differ it prints one
`against name/file:` line with the largest |change| of each column relative
to that column's largest magnitude in KEPT, and for each run with such a file
its `steps` and `cells_limited`, kept -> now.  Round-off moves then read as
numbers, not only as different digests.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bpdg.cli import convergence_study, decomp_report, efficiency_compare, parse_config, replace, run  # noqa: E402

# run name -> (config, overrides)
DESK = {
    "advection_desk": ("advection_desk.cfg", {}),
    "advection_classic": ("advection_classic.cfg", {}),
    "burgers_riemann_desk": ("burgers_riemann_desk.cfg", {}),
    "mach80_jet_desk": ("mach80_jet_desk.cfg", {"t_end": 0.0075}),
    "mach80_jet_classic": ("mach80_jet_desk.cfg", {"dt_policy": "classic", "t_end": 0.002}),
    "advection_k3_ssprk4": (
        "advection_desk.cfg", {"k": 3, "scheme": "ssprk4", "nx": 100, "ny": 100, "t_end": 0.2}
    ),
}
# phi -> name suffix of the decomp-report digest lines
DECOMP_PHI = {(1.0, 2.0, 3.0): "", (1.0, 1.0, 1.0): "_equal"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_desk(out_root: Path) -> list[str]:
    lines = []
    for name, (config, overrides) in DESK.items():
        out_dir = out_root / name
        run(replace(parse_config(ROOT / "configs" / config), out_dir=str(out_dir), **overrides))
        for path in sorted(out_dir.glob("*.csv")):
            lines.append(f"{_sha(path.read_bytes())}  {name}/{path.name}")
    (out_root / "decomp_report").mkdir(parents=True, exist_ok=True)
    for phi, suffix in DECOMP_PHI.items():
        for k in (2, 3):
            name = f"decomp_report/k{k}{suffix}.csv"
            table = decomp_report(k, phi, 1.0, out=io.StringIO())
            (out_root / name).write_text(table, encoding="utf-8")
            lines.append(f"{_sha(table.encode('utf-8'))}  {name}")
    cmp = efficiency_compare(
        parse_config(ROOT / "configs" / "advection_desk.cfg"),
        parse_config(ROOT / "configs" / "advection_classic.cfg"),
        write_outputs=False,
    )
    lines.append(
        f"compare advection_desk advection_classic: steps {cmp.steps_a} {cmp.steps_b}"
        f" step_ratio {cmp.step_ratio:.17g} predicted_ratio {cmp.predicted_ratio:.17g}"
    )
    out_dir = out_root / "converge"
    cfg = replace(parse_config(ROOT / "configs" / "advection_desk.cfg"), out_dir=str(out_dir), t_end=0.1)
    convergence_study(cfg, [8, 16])
    lines.append(f"{_sha((out_dir / 'errors.csv').read_bytes())}  converge/errors.csv")
    return lines


def _columns(path: Path) -> dict[str, np.ndarray]:
    """A CSV's columns as floats, an empty field as NaN."""
    with path.open(encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {name: np.array([float(row[c]) if row[c] else np.nan for row in rows[1:]])
            for c, name in enumerate(rows[0])}


def _column_changes(kept: Path, now: Path) -> str:
    """Each column's largest |change| relative to its largest magnitude in `kept`."""
    old, new = _columns(kept), _columns(now)
    parts = []
    for name, a in old.items():
        b = new.get(name)
        if b is None or len(b) != len(a):
            parts.append(f"{name} {'missing' if b is None else f'rows {len(a)} -> {len(b)}'}")
            continue
        delta = np.abs(b - a)
        delta[np.isnan(a) & np.isnan(b)] = 0.0
        scale = np.nanmax(np.abs(a), initial=0.0)
        parts.append(f"{name} {delta.max(initial=0.0) / (scale or 1.0):.2g}")
    return " ".join(parts)


def against(out_root: Path, kept_root: Path) -> list[str]:
    """The `--against` lines for the outputs in `out_root` and those kept in `kept_root`."""
    lines = []
    for run_dir in sorted(p for p in out_root.iterdir() if p.is_dir()):
        moved = False
        for path in sorted(run_dir.glob("*.csv")):
            name = path.relative_to(out_root)
            kept = kept_root / name
            if not kept.exists():
                lines.append(f"against {name}: not in {kept_root}")
            elif kept.read_bytes() != path.read_bytes():
                lines.append(f"against {name}: {_column_changes(kept, path)}")
                moved = True
        report, kept_report = run_dir / "report.csv", kept_root / run_dir.name / "report.csv"
        if moved and report.exists() and kept_report.exists():
            a, b = _columns(kept_report), _columns(report)
            lines.append(f"against {run_dir.name}: " + " ".join(
                f"{key} {a[key][0]:.0f} -> {b[key][0]:.0f}" for key in ("steps", "cells_limited")))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", help="write the outputs here instead of a temporary directory")
    parser.add_argument("--against", metavar="KEPT",
                        help="compare the outputs with those kept in KEPT by another run's --keep")
    args = parser.parse_args(argv)
    with nullcontext(args.keep) if args.keep else tempfile.TemporaryDirectory() as out:
        lines = digest_desk(Path(out))
        if args.against:
            lines += against(Path(out), Path(args.against))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
