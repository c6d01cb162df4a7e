"""Demos run here end to end, with their own asserts."""

import csv
import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def load_demo(filename):
    spec = importlib.util.spec_from_file_location(Path(filename).stem, DEMOS / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_published_metrics_table_demo(tmp_path, capsys):
    demo = load_demo("03_published_metrics_table.py")
    out_csv = tmp_path / "table.csv"
    # main() asserts that each recomputed STT is within 1% of the printed one
    demo.main(["--csv", str(out_csv)])
    with out_csv.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["target"] for row in rows] == [
        "G77:99.9%", "G77:100%", "G81:99.9%", "G81:100%", "G72:100%",
    ]
    assert [row["successes"] for row in rows] == ["66", "21", "86", "3", "34"]
    # published rows carry no trial time, so there is no TTT to report
    assert all(row["ttt_s"] == "" for row in rows)
    assert float(rows[0]["stt_sweeps"]) == pytest.approx(341_500.1071)
    out = capsys.readouterr().out
    assert "655x" in out and "3,561x" in out
