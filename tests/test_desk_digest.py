"""`scripts/desk_digest.py --against`: the change of each moved CSV column."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "desk_digest.py"
_spec = importlib.util.spec_from_file_location("desk_digest", SCRIPT)
desk_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(desk_digest)

HEADER = "steps,t_final,min_mean0,max_mean0,bp_violation,l1,l2,linf,cells_limited,min_theta,troubled_cells\n"


def _write(root, run, files):
    (root / run).mkdir(parents=True)
    for name, text in files.items():
        (root / run / name).write_text(text, encoding="utf-8")


def test_against_reports_only_the_outputs_that_moved(tmp_path):
    kept, now = tmp_path / "kept", tmp_path / "now"
    field = "i,j,u0\n0,0,2.0\n0,1,-4.0\n"
    report = HEADER + "150,0.75,-1,1,0,1e-4,,,52,0.5,0\n"
    for root, u in ((kept, "-4.0"), (now, "-3.0")):
        _write(root, "moved", {"field_0.750000.csv": field.replace("-4.0", u), "report.csv": report})
        _write(root, "same", {"field_0.750000.csv": field, "report.csv": report})
    _write(now, "new", {"report.csv": report})
    lines = desk_digest.against(now, kept)
    assert lines == [
        "against moved/field_0.750000.csv: i 0 j 0 u0 0.25",  # |-3 - -4| / max|kept u0|
        "against moved: steps 150 -> 150 cells_limited 52 -> 52",
        f"against new/report.csv: not in {kept}",
    ]
