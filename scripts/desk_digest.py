"""Byte-identity gate for refactors: run the desk configs, print output digests.

    python3 scripts/desk_digest.py [--keep DIR] > digests.txt

Runs, from the `src/` next to this script:

- `advection_desk.cfg`, `advection_classic.cfg`, `burgers_riemann_desk.cfg`
  and `mach80_jet_desk.cfg` (the jet with `t_end` 0.0075);
- `advection_desk.cfg` at k = 3 with SSPRK4 on 100x100 cells to `t_end` 0.2;
- `decomp-report` at k = 2 and k = 3 for phi = (1, 2, 3);
- `compare` of `advection_desk.cfg` against `advection_classic.cfg`.

Runs write into a temporary directory (or DIR with `--keep`).  It prints one
`sha256  name/file` line per `report.csv`, `field_*.csv` and decomp-report
CSV, and the compare row's step counts and ratios at full precision (wall
times left out).  Run it on two commits and diff the output: a refactor that
keeps results bit-identical prints the same lines.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bpdg.cli import decomp_report, efficiency_compare, parse_config, run  # noqa: E402

# run name -> (config, overrides)
DESK = {
    "advection_desk": ("advection_desk.cfg", {}),
    "advection_classic": ("advection_classic.cfg", {}),
    "burgers_riemann_desk": ("burgers_riemann_desk.cfg", {}),
    "mach80_jet_desk": ("mach80_jet_desk.cfg", {"t_end": 0.0075}),
    "advection_k3_ssprk4": (
        "advection_desk.cfg", {"k": 3, "scheme": "ssprk4", "nx": 100, "ny": 100, "t_end": 0.2}
    ),
}
DECOMP_PHI = (1.0, 2.0, 3.0)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_desk(out_root: Path) -> list[str]:
    lines = []
    for name, (config, overrides) in DESK.items():
        out_dir = out_root / name
        run(replace(parse_config(ROOT / "configs" / config), out_dir=str(out_dir), **overrides))
        for path in sorted(out_dir.glob("*.csv")):
            lines.append(f"{_sha(path.read_bytes())}  {name}/{path.name}")
    for k in (2, 3):
        csv = decomp_report(k, DECOMP_PHI, 1.0, out=io.StringIO())
        lines.append(f"{_sha(csv.encode('utf-8'))}  decomp_report/k{k}.csv")
    cmp = efficiency_compare(
        parse_config(ROOT / "configs" / "advection_desk.cfg"),
        parse_config(ROOT / "configs" / "advection_classic.cfg"),
        write_outputs=False,
    )
    lines.append(
        f"compare advection_desk advection_classic: steps {cmp.steps_a} {cmp.steps_b}"
        f" step_ratio {cmp.step_ratio:.17g} predicted_ratio {cmp.predicted_ratio:.17g}"
    )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", help="write the outputs here instead of a temporary directory")
    args = parser.parse_args(argv)
    if args.keep:
        lines = digest_desk(Path(args.keep))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            lines = digest_desk(Path(tmp))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
