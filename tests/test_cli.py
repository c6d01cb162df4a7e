import json

import pytest

from gsetbench.campaign import mix_seed, parse_record, read_log, replay_record, summarize
from gsetbench.cli import CliError, human_time, main, resolve_instance
from gsetbench.codec import encode_hex
from gsetbench.instances import TorusSpec, generate_torus, parse_gset
from gsetbench.oracle import exact_max_cut


@pytest.fixture
def torus():
    return generate_torus(TorusSpec(4, 4, seed=1))


@pytest.fixture
def torus_file(tmp_path, torus):
    from gsetbench.instances import write_gset

    path = tmp_path / "t44.txt"
    path.write_text(write_gset(torus))
    return path


def solution_file(tmp_path, torus, spins, header=True):
    path = tmp_path / "sol.txt"
    body = encode_hex(spins) + "\n"
    if header:
        body = f"# instance={torus.name} n={torus.n}\n" + body
    path.write_text(body)
    return path


def test_human_time():
    assert human_time(4.68e-4) == "0.468 ms"
    assert human_time(0.0782) == "78.2 ms"
    assert human_time(0.9072) == "0.907 s"
    assert human_time(25_800) == "2.58e+04 s"
    assert human_time(2e-9) == "2 ns"
    assert human_time(5e-5) == "50 us"
    assert human_time(1.2e-4) == "0.12 ms"


def test_resolve_instance_forms(torus, torus_file, tmp_path, monkeypatch):
    assert resolve_instance(str(torus_file)) == torus
    assert resolve_instance("torus:4x4:1") == torus
    with pytest.raises(CliError, match="cannot resolve"):
        resolve_instance("no-such-thing")
    # registry names resolve through the search directory
    reg = {"tiny": {"n": 16, "m": 32, "best_cut": 10}}
    reg_path = tmp_path / "reg.json"
    reg_path.write_text(json.dumps(reg))
    monkeypatch.setenv("GSETBENCH_REGISTRY", str(reg_path))
    (tmp_path / "tiny.txt").write_text(torus_file.read_text())
    assert resolve_instance("tiny", tmp_path).n == 16
    # registered shape must match the file
    bad = {"tiny": {"n": 9, "m": 18, "best_cut": 10}}
    reg_path.write_text(json.dumps(bad))
    with pytest.raises(CliError, match="expected n=9"):
        resolve_instance("tiny", tmp_path)


def test_validate_pass(tmp_path, torus, capsys):
    _, config = exact_max_cut(torus)
    sol = solution_file(tmp_path, torus, config)
    code = main(["validate", "torus:4x4:1", str(sol), "--expect-cut", "10",
                 "--best-known", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "cut=10" in out
    assert "quality=100.000%" in out
    assert "PASS" in out


def test_validate_fail_exit_code(tmp_path, torus, capsys):
    spins = (1,) * torus.n
    sol = solution_file(tmp_path, torus, spins)
    code = main(["validate", "torus:4x4:1", str(sol), "--expect-cut", "10"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    assert "cut=0" in out


def test_validate_header_n_mismatch(tmp_path, torus, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("# instance=other n=9\nffff\n")
    code = main(["validate", "torus:4x4:1", str(sol)])
    err = capsys.readouterr().err
    assert code == 1
    assert "n=9" in err


def test_validate_decode_error_reports_position(tmp_path, torus, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("ffflffffffffffff\n")  # stray l at position 3
    code = main(["validate", "torus:4x4:1", str(sol)])
    err = capsys.readouterr().err
    assert code == 1
    assert "position 3" in err


def test_validate_substitute_is_loud(tmp_path, torus, capsys):
    _, config = exact_max_cut(torus)
    hex_payload = encode_hex(config)
    broken = hex_payload.replace(hex_payload[0], "l", 1)
    sol = tmp_path / "sol.txt"
    sol.write_text(broken + "\n")
    code = main(["validate", "torus:4x4:1", str(sol),
                 "--substitute", f"l={hex_payload[0]}", "--expect-cut", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "substitute" in out
    assert "position 0" in out
    assert "PASS" in out


def test_evaluate_csv_format(tmp_path, torus, capsys):
    _, config = exact_max_cut(torus)
    sol = solution_file(tmp_path, torus, config)
    code = main(["evaluate", "torus:4x4:1", str(sol), "--format", "csv"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "instance,n,cut,energy,quality"
    assert out[1].startswith("torus:4x4:1,16,10,-22")


def test_oracle_command(torus_file, capsys):
    assert main(["oracle", str(torus_file)]) == 0
    out = capsys.readouterr().out
    assert "cut=10" in out and "config=" in out


def test_oracle_size_limit(tmp_path, capsys):
    code = main(["oracle", "torus:5x5:1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "limited" in err


def test_gen_torus_roundtrip(tmp_path, torus, capsys):
    out_path = tmp_path / "gen.txt"
    assert main(["gen-torus", "4", "4", "--seed", "1", "-o", str(out_path)]) == 0
    assert parse_gset(out_path.read_text()) == torus
    assert main(["gen-torus", "4", "4", "--seed", "1"]) == 0
    assert parse_gset(capsys.readouterr().out) == torus


def test_gen_torus_rejects_tiny_grid(capsys):
    assert main(["gen-torus", "2", "4", "--seed", "1"]) == 1
    assert "3x3" in capsys.readouterr().err


def test_solve_prints_replayable_record(torus, capsys):
    code = main(["solve", "torus:4x4:1", "--kind", "simulated_annealing",
                 "--sweeps", "20", "--seed", "9", "--include-spins"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    record = parse_record(out)
    assert record.kind == "simulated_annealing"
    assert record.spins_hex is not None
    replay_record(torus, record)


def campaign_config_file(tmp_path, extra=""):
    path = tmp_path / "camp.cfg"
    path.write_text(
        "instance = torus:4x4:1\n"
        "kind = simulated_annealing\n"
        "sweeps = 30\n"
        "num_trials = 10\n"
        "master_seed = 777\n"
        "target = optimum 10\n"
        + extra
    )
    return path


def test_campaign_and_report_agree(tmp_path, capsys):
    cfg = campaign_config_file(tmp_path)
    log = tmp_path / "run.log"
    assert main(["campaign", str(cfg), "--log", str(log)]) == 0
    campaign_out = capsys.readouterr().out
    assert main(["report", str(log), "--target", "optimum:10"]) == 0
    report_out = capsys.readouterr().out
    assert campaign_out == report_out
    assert "target=optimum" in campaign_out


def _timing_free_tokens(output):
    skip = ("avg_trial_time_s=", "ttt_s=")
    return [
        tok
        for line in output.splitlines()
        for tok in line.split()
        if not tok.startswith(skip)
    ]


@pytest.mark.parametrize("include_spins", [False, True])
@pytest.mark.parametrize(
    "kind, temps",
    [("greedy_local_search", []), ("simulated_annealing", ["--temp-start", "2.5"])],
)
def test_solve_prints_the_campaign_log_line(tmp_path, capsys, kind, temps, include_spins):
    cfg = tmp_path / "camp.cfg"
    cfg.write_text(
        f"instance = torus:4x4:1\nkind = {kind}\nsweeps = 30\n"
        "num_trials = 5\nmaster_seed = 777\n"
        + ("temp_start = 2.5\n" if temps else "")
    )
    log = tmp_path / "run.log"
    spins = ["--include-spins"] if include_spins else []
    assert main(["campaign", str(cfg), "--log", str(log)] + spins) == 0
    index = 3
    capsys.readouterr()
    assert main(["solve", "torus:4x4:1", "--kind", kind, "--sweeps", "30",
                 "--seed", str(mix_seed(777, index))] + temps + spins) == 0
    solved = capsys.readouterr().out.split()
    logged = log.read_text().splitlines()[index].split()
    assert solved[0] == "index=0"
    assert logged[0] == f"index={index}"
    assert any(tok.startswith("spins=") for tok in solved) == include_spins

    def untimed(tokens):
        return [tok for tok in tokens if not tok.startswith("wall_time_s=")]

    assert untimed(solved[1:]) == untimed(logged[1:])


@pytest.mark.parametrize(
    "torn_in", ["index", "instance", "best_cut", "wall_time_s", "before format"]
)
def test_resume_drops_a_record_torn_by_a_crash(tmp_path, capsys, torn_in):
    cfg = tmp_path / "camp.cfg"
    cfg.write_text(
        "instance = torus:4x4:1\nkind = greedy_local_search\nsweeps = 10\n"
        "num_trials = 6\nmaster_seed = 777\n"
    )
    log = tmp_path / "run.log"
    assert main(["campaign", str(cfg), "--log", str(log)]) == 0
    whole = summarize(read_log(log)).deterministic_fields()
    *kept, last = log.read_text().splitlines()
    if torn_in == "before format":
        cut = last.index(" format=")
    else:
        # two characters into the field's value
        cut = last.index(f"{torn_in}=") + len(torn_in) + 3
    log.write_text("\n".join(kept) + "\n" + last[:cut])
    capsys.readouterr()

    assert main(["campaign", str(cfg), "--log", str(log), "--resume"]) == 0
    assert "dropped an unterminated last line" in capsys.readouterr().err
    records = read_log(log)
    assert summarize(records).deterministic_fields() == whole
    # the torn wall time (a value like "1.") was not kept
    assert all(record.wall_time_s < 1.0 for record in records)
    assert main(["report", str(log)]) == 0


def test_campaign_resume_flag(tmp_path, capsys):
    cfg = campaign_config_file(tmp_path)
    log = tmp_path / "run.log"
    assert main(["campaign", str(cfg), "--log", str(log)]) == 0
    first = capsys.readouterr().out
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines[:4]) + "\n")
    assert main(["campaign", str(cfg), "--log", str(log), "--resume"]) == 0
    second = capsys.readouterr().out
    assert _timing_free_tokens(first) == _timing_free_tokens(second)
    assert len(log.read_text().splitlines()) == 10


def test_campaign_summary_csv(tmp_path, capsys):
    cfg = campaign_config_file(tmp_path)
    out_csv = tmp_path / "summary.csv"
    assert main(["campaign", str(cfg), "--summary-csv", str(out_csv)]) == 0
    capsys.readouterr()
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("target,")
    assert lines[1].startswith("optimum,10,")


def test_campaign_scan_csv(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        "instance = torus:4x4:1\n"
        "kind = greedy_local_search\n"
        "sweeps = 1\n"
        "num_trials = 6\n"
        "master_seed = 5\n"
        "sweep_scan = 2, 4, 8\n"
    )
    assert main(["campaign", str(cfg)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "sweeps,highest_cut,average_cut"
    assert len(out) == 4


def test_campaign_bad_config_lines(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("instance = torus:4x4:1\nnonsense\n")
    assert main(["campaign", str(cfg)]) == 1
    assert "key = value" in capsys.readouterr().err
    cfg.write_text("instance = torus:4x4:1\nkind = greedy_local_search\nsweeps = 5\n")
    assert main(["campaign", str(cfg)]) == 1
    assert "num_trials" in capsys.readouterr().err


def test_report_rejects_mixed_log(tmp_path, capsys):
    cfg_a = campaign_config_file(tmp_path)
    log = tmp_path / "mixed.log"
    assert main(["campaign", str(cfg_a), "--log", str(log)]) == 0
    cfg_b = tmp_path / "b.cfg"
    cfg_b.write_text(
        "instance = torus:4x4:1\nkind = simulated_annealing\nsweeps = 40\n"
        "num_trials = 4\nmaster_seed = 3\n"
    )
    log_b = tmp_path / "b.log"
    assert main(["campaign", str(cfg_b), "--log", str(log_b)]) == 0
    log.write_text(log.read_text() + log_b.read_text())
    capsys.readouterr()
    assert main(["report", str(log)]) == 1
    assert "mix" in capsys.readouterr().err


def test_project_known_values(capsys):
    assert main(["project", "234000"]) == 0
    assert capsys.readouterr().out.strip() == "0.468 ms"
    assert main(["project", "39100000"]) == 0
    assert capsys.readouterr().out.strip() == "78.2 ms"
    assert main(["project", "1000", "--sweep-time", "1e-6"]) == 0
    assert capsys.readouterr().out.strip() == "1 ms"


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc_info:
        main(["no-such-command"])
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2


def test_missing_file_is_a_clean_error(capsys):
    assert main(["report", "/nonexistent/file.log"]) == 1
    assert "error:" in capsys.readouterr().err
