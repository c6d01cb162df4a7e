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


def test_validate_record_solutions_demo(monkeypatch, capsys):
    # without GSET_DIR the demo checks the bundled texts' shape only;
    # it runs on import and asserts the synthetic round trip itself
    monkeypatch.delenv("GSET_DIR", raising=False)
    load_demo("01_validate_record_solutions.py")
    out = capsys.readouterr().out
    assert "exact optimum cut" in out
    assert "broken string rejected: invalid hex character 'x' at position 0" in out
    for name in ("G72", "G77", "G81"):
        assert f"\n{name}: header=" in out
    assert out.rstrip().endswith("see scripts/fetch_gset.py)")


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


def test_torus_campaign_demo(capsys):
    summary = load_demo("02_torus_campaign.py").main()
    assert summary.num_trials == sum(summary.cut_histogram.values()) == 100
    # probe campaigns on this torus never exceed 46, the demo's top target
    assert summary.highest_cut <= 46
    replayed = capsys.readouterr().out.splitlines()[-1]
    assert replayed.startswith("replayed trial 50 ")
    best, logged = replayed.split("best_cut ")[1].split(" == logged ")
    assert best == logged


def test_sweep_ladder_demo(tmp_path):
    demo = load_demo("04_sweep_ladder.py")
    out_csv = tmp_path / "ladder.csv"
    # main() asserts that the greedy highest-cut curve never falls
    demo.main(["--csv", str(out_csv)])
    with out_csv.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["sweeps"]) for row in rows] == list(demo.LADDER)
    assert all(float(row["highest_cut"]) >= float(row["average_cut"]) for row in rows)
