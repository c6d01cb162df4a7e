"""Demos and the README's quick start and campaign examples run here end to end."""

import csv
import importlib.util
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import gsetbench
from gsetbench.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = DEMOS.parent / "README.md"


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
    # 99.9% targets are the smallest cut at or above 99.9% of the best
    assert [row["target_cut"] for row in rows] == ["9931", "9940", "14046", "14060", "7008"]
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


def run_readme_example(config_name, tmp_path, monkeypatch, capsys):
    """Write the README's ``config_name`` block to tmp_path and run the
    commands of the sh block after it there; their config and stdouts."""
    _, rest = README.read_text().split(f"```ini\n# {config_name}\n", 1)
    config, rest = rest.split("```", 1)
    commands = rest.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    monkeypatch.chdir(tmp_path)
    (tmp_path / config_name).write_text(config)
    outputs = []
    for command in commands:
        program, *argv = shlex.split(command, comments=True)
        assert program == "gsetbench"
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    return config, outputs


def test_readme_campaign_example(tmp_path, monkeypatch, capsys):
    # the camp.cfg block and the two commands after it, as the README gives them
    _, (campaign_out, report_out) = run_readme_example("camp.cfg", tmp_path, monkeypatch, capsys)
    assert report_out == campaign_out
    assert "num_trials=100" in campaign_out and "target=within_two" in report_out
    # every exported name resolves
    assert [name for name in gsetbench.__all__ if not hasattr(gsetbench, name)] == []


def test_readme_scan_example(tmp_path, monkeypatch, capsys):
    # a scan config has no sweeps line; its stdout is the scan CSV
    config, (out,) = run_readme_example("scan.cfg", tmp_path, monkeypatch, capsys)
    assert "sweeps =" not in config
    ladder = [int(tok) for tok in config.split("sweep_scan =", 1)[1].split()]
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["sweeps", "highest_cut", "average_cut"]
    assert [int(row[0]) for row in rows[1:]] == ladder
    assert all(int(row[1]) >= float(row[2]) for row in rows[1:])


def test_readme_quick_start(tmp_path):
    # the block as written, under sh -e, with gsetbench bound to this checkout
    block = README.read_text().split("## Quick start\n", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    script = tmp_path / "quick_start.sh"
    script.write_text(f'gsetbench() {{ {shlex.quote(sys.executable)} -m gsetbench.cli "$@"; }}\n'
                      + block)
    path = [str(DEMOS.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run(["sh", "-e", str(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert "cut=10 config=c318" in lines
    assert "PASS cut matches expected 10" in lines
