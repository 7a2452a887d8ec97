"""tools/dim_scaling.py prints one median per dimension and fails on a failing report."""
import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parents[1] / "tools" / "dim_scaling.py"
spec = importlib.util.spec_from_file_location("dim_scaling", PATH)
dim_scaling = importlib.util.module_from_spec(spec)
spec.loader.exec_module(dim_scaling)


def test_one_line_per_dimension_and_every_report_passes(capsys):
    assert dim_scaling.main() == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [int(row.split()[0]) for row in rows] == [4, 6, 8, 10, 12, 14]
    assert all(float(row.split()[1]) > 0 for row in rows)


def test_a_failing_report_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setattr(dim_scaling, "report_ms", lambda params: (1.0, False))
    assert dim_scaling.main() == 1
    assert "30 report(s) failed" in capsys.readouterr().err
