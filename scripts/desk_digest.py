"""Byte-identity gate for refactors: run the desk configs, print output digests.

    python3 scripts/desk_digest.py [--keep DIR] > digests.txt

Runs `advection_desk.cfg`, `advection_classic.cfg`, `burgers_riemann_desk.cfg`
and `mach80_jet_desk.cfg` (the jet with `t_end` 0.0075) from the `src/` next to
this script, writing into a temporary directory (or DIR with `--keep`), and
prints one `sha256  config/file` line per `report.csv` and `field_*.csv`.
Run it on two commits and diff the output: a refactor that keeps results
bit-identical prints the same lines.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bpdg.cli import parse_config, run  # noqa: E402

# config -> t_end override (None keeps the config's own)
DESK = {
    "advection_desk.cfg": None,
    "advection_classic.cfg": None,
    "burgers_riemann_desk.cfg": None,
    "mach80_jet_desk.cfg": 0.0075,
}


def digest_desk(out_root: Path) -> list[str]:
    lines = []
    for name, t_end in DESK.items():
        cfg = parse_config(ROOT / "configs" / name)
        out_dir = out_root / Path(name).stem
        cfg = replace(cfg, out_dir=str(out_dir), t_end=cfg.t_end if t_end is None else t_end)
        run(cfg)
        for path in sorted(out_dir.glob("*.csv")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {Path(name).stem}/{path.name}")
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
