import argparse
import io
import re
import sys
from pathlib import Path

import pytest

from conftest import deterministic_fields
from gsetbench import campaign as campaign_mod
from gsetbench import registry, solvers
from gsetbench.campaign import (
    LOG_FORMAT,
    format_record,
    parse_record,
    read_log,
    replay_record,
    summarize,
)
from gsetbench.cli import build_parser, main, resolve_instance
from gsetbench.codec import encode_hex
from gsetbench.instances import TorusSpec, _ascii_float, _decimal, generate_torus, parse_gset
from gsetbench.oracle import exact_max_cut
from gsetbench.registry import RegistryEntry


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


def registered(monkeypatch, name, n, m, best_cut, best_energy):
    """Make ``name`` the one registry entry for the rest of the test."""
    monkeypatch.setattr(registry, "_BUILTIN", (RegistryEntry(name, n, m, best_cut, best_energy),))


def test_resolve_instance_forms(torus, torus_file, tmp_path, monkeypatch):
    assert resolve_instance(str(torus_file)) == torus
    assert resolve_instance("torus:4x4:1") == torus
    with pytest.raises(ValueError, match="cannot resolve"):
        resolve_instance("no-such-thing")
    # registry names resolve through $GSET_DIR
    energy = torus.total_weight() - 20
    registered(monkeypatch, "tiny", 16, 32, 10, energy)
    monkeypatch.setenv("GSET_DIR", str(tmp_path))
    (tmp_path / "tiny.txt").write_text(torus_file.read_text())
    assert resolve_instance("tiny").n == 16
    # registered shape must match the file
    registered(monkeypatch, "tiny", 9, 18, 10, energy)
    with pytest.raises(ValueError, match="expected n=9"):
        resolve_instance("tiny")


@pytest.mark.parametrize("name", ["torus:4x4:1_0", "torus:4x4:\u0661\u0660"])
def test_a_torus_name_is_read_by_the_gset_rule(capsys, name):
    assert main(["oracle", name]) == 1
    assert capsys.readouterr() == ("", f"error: bad torus name {name!r}\n")


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


G81_MISMATCH = ("error: cannot score against G81: registry has n=20000 m=40000, "
                "instance has n=16 m=32\n")


@pytest.mark.parametrize("source", ["header", "name", "file-stem"])
def test_validate_refuses_a_registry_entry_of_another_size(tmp_path, torus, torus_file,
                                                           capsys, source):
    _, config = exact_max_cut(torus)
    sol = tmp_path / "sol.txt"
    header = "# instance=G81 n=16\n" if source == "header" else ""
    sol.write_text(header + encode_hex(config) + "\n")
    instance, flags = str(torus_file), []
    if source == "name":
        flags = ["--name", "G81"]
    elif source == "file-stem":
        instance = str(tmp_path / "G81.txt")
        Path(instance).write_text(torus_file.read_text())
    assert main(["validate", instance, str(sol)] + flags) == 1
    assert capsys.readouterr() == ("", G81_MISMATCH)
    # --best-known is taken as given
    assert main(["validate", instance, str(sol), "--best-known", "10"] + flags) == 0
    assert "quality=100.000%" in capsys.readouterr().out


def test_validate_scores_against_a_matching_registry_entry(tmp_path, torus, torus_file,
                                                           capsys, monkeypatch):
    registered(monkeypatch, "tiny", 16, 32, 10, torus.total_weight() - 20)
    _, config = exact_max_cut(torus)
    sol = solution_file(tmp_path, torus, config)
    assert main(["validate", str(torus_file), str(sol), "--name", "tiny"]) == 0
    assert "quality=100.000%" in capsys.readouterr().out


def test_scoring_checks_the_registry_energy_against_the_total_weight(
        tmp_path, torus, capsys, monkeypatch):
    weight = torus.total_weight()
    _, config = exact_max_cut(torus)
    sol = solution_file(tmp_path, torus, config)
    argv = ["validate", "torus:4x4:1", str(sol)]
    registered(monkeypatch, "torus:4x4:1", 16, 32, 10, weight - 20)
    assert main(argv) == 0
    assert "quality=100.000%" in capsys.readouterr().out
    registered(monkeypatch, "torus:4x4:1", 16, 32, 10, weight - 18)
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"error: cannot score against torus:4x4:1: registry best_energy={weight - 18} "
            f"+ 2*best_cut=10 is not the instance's total weight {weight}\n")
    # --best-known is taken as given
    assert main(argv + ["--best-known", "10"]) == 0


def test_validate_header_n_mismatch(tmp_path, torus, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("# instance=other n=9\nffff\n")
    code = main(["validate", "torus:4x4:1", str(sol)])
    err = capsys.readouterr().err
    assert code == 1
    assert "n=9" in err


@pytest.mark.parametrize("text, message", [
    ("# n=1_6\nffff\n", "solution header has non-integer n='1_6'"),
    ("# n=\u0661\u0666\nffff\n", "solution header has non-integer n='\u0661\u0666'"),
    # a # line is a header line wherever it stands
    ("\n# n=15\nffff\n", "solution header says n=15, instance has n=16"),
    ("ffff\n# n=15\n", "solution header says n=15, instance has n=16"),
], ids=["underscore", "arabic-indic", "after-a-blank-line", "after-the-payload"])
def test_validate_reads_every_header_n_by_the_gset_rule(tmp_path, capsys, text, message):
    sol = tmp_path / "sol.txt"
    sol.write_text(text)
    assert main(["validate", "torus:4x4:1", str(sol)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


@pytest.mark.parametrize("substitute, code, out", [
    ("ab", 1, ""),
    ("x=1", 0, "substitute x=1: no occurrences\n"),
])
def test_validate_substitute_says_what_it_did_not_do(tmp_path, torus, capsys, substitute, code,
                                                     out):
    _, config = exact_max_cut(torus)
    sol = solution_file(tmp_path, torus, config)
    assert main(["validate", "torus:4x4:1", str(sol), "--substitute", substitute]) == code
    if code:
        assert capsys.readouterr() == (
            out, f"error: --substitute expects CHAR=CHAR, got {substitute!r}\n")
    else:
        assert capsys.readouterr().out == (
            out + "instance=torus:4x4:1 n=16 cut=10 energy=-22\n")


def test_validate_csv_format(tmp_path, torus, capsys):
    _, config = exact_max_cut(torus)
    sol = solution_file(tmp_path, torus, config)
    code = main(["validate", "torus:4x4:1", str(sol), "--format", "csv"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "instance,n,cut,energy,quality"
    assert out[1].startswith("torus:4x4:1,16,10,-22")


def test_oracle_command(torus_file, capsys):
    assert main(["oracle", str(torus_file)]) == 0
    out = capsys.readouterr().out
    assert "cut=10" in out and "config=" in out
    assert main(["oracle", "torus:4x4:1", "--format", "csv"]) == 0
    assert capsys.readouterr() == ("cut,config\n10,c318\n", "")


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
    assert record.solver.kind == "simulated_annealing"
    assert record.spins_hex is not None
    replay_record(torus, record)


def test_solve_refuses_an_unloggable_instance_name_before_the_trial(tmp_path, monkeypatch,
                                                                   capsys):
    # a file's stem names its instance, and a stem may hold a space
    monkeypatch.chdir(tmp_path)
    assert main(["gen-torus", "4", "4", "--seed", "1", "-o", "t44.txt"]) == 0
    Path("my t44.txt").write_text(Path("t44.txt").read_text())
    capsys.readouterr()
    monkeypatch.setattr(solvers, "run_trials", lambda *a: pytest.fail("a trial ran"))
    assert main(["solve", "my t44.txt", "--sweeps", "3", "--seed", "1"]) == 1
    assert capsys.readouterr() == ("", "error: instance name 'my t44' not loggable\n")


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_solve_refuses_a_seed_outside_64_bits_before_the_trial(monkeypatch, capsys, seed):
    monkeypatch.setattr(solvers, "_sweep_layout", lambda *a: pytest.fail("a trial ran"))
    assert main(["solve", "torus:4x4:1", "--sweeps", "3", "--seed", seed]) == 1
    assert capsys.readouterr() == ("", f"error: seed must fit in 64 bits, got {seed}\n")


PLAIN_CONFIG = (
    "instance = torus:4x4:1\n"
    "kind = simulated_annealing\n"
    "sweeps = 30\n"
    "num_trials = 10\n"
    "master_seed = 777\n"
    "target = optimum 10\n"
)


def campaign_config_file(tmp_path, extra=""):
    path = tmp_path / "camp.cfg"
    path.write_text(PLAIN_CONFIG + extra)
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


@pytest.mark.parametrize("include_spins", ["false", "true"])
@pytest.mark.parametrize("instance", ["torus:4x5:1003", "torus:6x8:2"])
@pytest.mark.parametrize("schedule", [
    "kind = greedy_local_search\n",
    "kind = simulated_annealing\ntemp_start = 0.1\ntemp_end = 1e-05\n",
    "kind = simulated_annealing\n",
], ids=["greedy", "cold-annealing", "annealing"])
def test_batched_records_read_back_as_their_lines(tmp_path, monkeypatch, capsys,
                                                  include_spins, instance, schedule):
    # 23 trials in batches of 5 rows (n = 20, slot fields) or 2 rows
    # (n = 48, stencil fields): every line is its record's one spelling,
    # and the log's report prints the live summary byte for byte
    monkeypatch.setattr(campaign_mod, "_BATCH_SPINS", 100)
    cfg, log = tmp_path / "batched.cfg", tmp_path / "batched.log"
    cfg.write_text(f"instance = {instance}\n{schedule}sweeps = 12\nnum_trials = 23\n"
                   f"master_seed = 9\ntarget = top 30\ninclude_spins = {include_spins}\n")
    assert main(["campaign", str(cfg), "--log", str(log)]) == 0
    live = capsys.readouterr().out
    lines = log.read_text().splitlines()
    assert len(lines) == 23
    assert [format_record(parse_record(line)) for line in lines] == lines
    assert all((" spins=" in line) == (include_spins == "true") for line in lines)
    assert main(["report", str(log), "--target", "top:30"]) == 0
    assert capsys.readouterr().out == live


def _timing_free_tokens(output):
    skip = ("avg_trial_time_s=", "ttt_s=")
    return [
        tok
        for line in output.splitlines()
        for tok in line.split()
        if not tok.startswith(skip)
    ]


SOLVE_KINDS = (("greedy_local_search", []), ("simulated_annealing", ["--temp-start", "2.5"]))
# (the instance as the config and the solve line spell it, the name its
# records carry, id prefix); the canonical spelling's rows are named by kind
SPELLINGS = (("torus:4x4:1", "torus:4x4:1", ""), ("t44.txt", "t44", "path-"),
             ("torus:04x4:1", "torus:4x4:1", "padded-"),
             ("torus:4x4:+1", "torus:4x4:1", "signed-"))


@pytest.mark.parametrize("include_spins", [False, True])
@pytest.mark.parametrize("spelling, name, kind, temps", [
    pytest.param(spelling, name, kind, temps, id=f"{prefix}{kind}-temps{i}")
    for spelling, name, prefix in SPELLINGS for i, (kind, temps) in enumerate(SOLVE_KINDS)
])
def test_solve_prints_the_campaign_log_line(tmp_path, monkeypatch, capsys, spelling, name,
                                            kind, temps, include_spins):
    monkeypatch.chdir(tmp_path)
    assert main(["gen-torus", "4", "4", "--seed", "1", "-o", "t44.txt"]) == 0
    Path("camp.cfg").write_text(
        f"instance = {spelling}\nkind = {kind}\nsweeps = 30\n"
        "num_trials = 5\nmaster_seed = 777\n"
        + ("temp_start = 2.5\n" if temps else "")
        + ("include_spins = true\n" if include_spins else "")
    )
    assert main(["campaign", "camp.cfg", "--log", "run.log"]) == 0
    campaign_out = capsys.readouterr().out
    assert main(["report", "run.log"]) == 0
    assert capsys.readouterr().out == campaign_out
    index = 3
    spins = ["--include-spins"] if include_spins else []
    assert main(["solve", spelling, "--kind", kind, "--sweeps", "30",
                 "--seed", str(solvers.splitmix64([777], [index])[0, 0])] + temps + spins) == 0
    solved = capsys.readouterr().out.split()
    logged = Path("run.log").read_text().splitlines()[index].split()
    assert solved[0] == "index=0"
    assert logged[0] == f"index={index}"
    assert logged[1] == f"instance={name}"
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
    whole = deterministic_fields(summarize(read_log(log)))
    *kept, last = log.read_text().splitlines()
    if torn_in == "before format":
        cut = last.index(" format=")
    else:
        # two characters into the field's value
        cut = last.index(f"{torn_in}=") + len(torn_in) + 3
    log.write_text("\n".join(kept) + "\n" + last[:cut])
    capsys.readouterr()

    assert main(["campaign", str(cfg), "--log", str(log), "--resume"]) == 0
    assert capsys.readouterr().err == f"{log}: left out an unterminated last line ({cut} bytes)\n"
    records = read_log(log)
    assert deterministic_fields(summarize(records)) == whole
    # the torn wall time (a value like "1.") was not kept
    assert all(record.wall_time_s < 1.0 for record in records)
    assert main(["report", str(log)]) == 0


@pytest.mark.parametrize("torn_in", ["index", "spins", "before format"])
def test_report_leaves_out_a_torn_last_record(tmp_path, capsys, torn_in):
    # a crash, or a live campaign caught mid-write, leaves the last line
    # unterminated; report reads the records before it, as a resume keeps
    cfg = tmp_path / "camp.cfg"
    cfg.write_text("instance = torus:6x6:1\nkind = greedy_local_search\nsweeps = 10\n"
                   "num_trials = 5\nmaster_seed = 777\ninclude_spins = true\n")
    log, kept_log = tmp_path / "run.log", tmp_path / "kept.log"
    assert main(["campaign", str(cfg), "--log", str(log)]) == 0
    *kept, last = log.read_text().splitlines(keepends=True)
    kept_log.write_text("".join(kept))
    cut = last.index(" format=") if torn_in == "before format" else last.index(f"{torn_in}=") + 9
    log.write_text("".join(kept) + last[:cut])
    capsys.readouterr()
    assert main(["report", str(kept_log), "--target", "t:20"]) == 0
    whole_records = capsys.readouterr().out
    assert main(["report", str(log), "--target", "t:20"]) == 0
    assert capsys.readouterr() == (
        whole_records, f"{log}: left out an unterminated last line ({cut} bytes)\n")


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


def test_campaign_without_resume_refuses_a_log_with_records(tmp_path, capsys):
    cfg = campaign_config_file(tmp_path)
    log = tmp_path / "run.log"
    assert main(["campaign", str(cfg), "--log", str(log)]) == 0
    before = log.read_bytes()
    capsys.readouterr()
    assert main(["campaign", str(cfg), "--log", str(log)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {log}: already holds records; pass --resume to "
                   "finish that campaign, or choose another log path\n")
    assert log.read_bytes() == before
    assert main(["report", str(log)]) == 0
    # an empty log is still fine
    empty = tmp_path / "empty.log"
    empty.write_text("")
    assert main(["campaign", str(cfg), "--log", str(empty)]) == 0
    assert len(read_log(empty)) == 10


def test_report_refuses_a_record_with_an_unknown_field(tmp_path, capsys):
    cfg = campaign_config_file(tmp_path)
    log = tmp_path / "run.log"
    assert main(["campaign", str(cfg), "--log", str(log)]) == 0
    capsys.readouterr()
    log.write_text(log.read_text().replace(" format=", " bogus=7 format=", 1))
    assert main(["report", str(log)]) == 1
    assert "record has unknown field bogus" in capsys.readouterr().err


def test_campaign_summary_csv(tmp_path, capsys):
    # the summary table is campaign's --format csv stdout, and report's
    cfg = campaign_config_file(tmp_path)
    log = tmp_path / "run.log"
    assert main(["campaign", str(cfg), "--log", str(log), "--format", "csv"]) == 0
    campaign_out = capsys.readouterr().out
    assert main(["report", str(log), "--format", "csv", "--target", "optimum:10"]) == 0
    assert capsys.readouterr() == (campaign_out, "")
    lines = campaign_out.splitlines()
    assert lines[0].startswith("target,")
    assert lines[1].startswith("optimum,10,")
    assert len(lines) == 2


def test_campaign_scan_csv(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(SCAN_CONFIG)
    assert main(["campaign", str(cfg)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "sweeps,highest_cut,average_cut"
    assert len(out) == 4


SCAN_BASE = "instance = torus:4x4:1\nkind = greedy_local_search\nnum_trials = 6\nmaster_seed = 5\n"
SCAN_CONFIG = SCAN_BASE + "sweep_scan = 2, 4, 8\n"


def scan_refusal(extra, flags, message, row):
    """A row of test_scan_refuses_what_it_would_ignore under the id pytest
    gave it as row ``row`` of the seven-row list, so that a row's id stays
    when a row before it goes."""
    return pytest.param(extra, flags, message, id=f"{extra}-flags{row}-{message}")


@pytest.mark.parametrize("extra, flags, message", [
    scan_refusal("", ["--log", "run.log"], "--log does not apply to a sweep_scan config", 0),
    scan_refusal("", ["--resume"], "--resume does not apply to a sweep_scan config", 2),
    scan_refusal("target = opt 10\n", [], "a target line does not apply to a sweep_scan config",
                 3),
    scan_refusal("include_spins = true\n", [],
                 "include_spins does not apply to a sweep_scan config", 4),
    scan_refusal("", ["--format", "kv"], "--format does not apply to a sweep_scan config", 6),
])
def test_scan_refuses_what_it_would_ignore(tmp_path, monkeypatch, capsys, extra, flags, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scan.cfg").write_text(SCAN_CONFIG + extra)
    assert main(["campaign", "scan.cfg"] + flags) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.cfg"]


# (config text, flags, message with {cfg} for the config path)
READER_ERRORS = {
    "unknown-key": (PLAIN_CONFIG + "temp_strat = 9.0\n", ["--log", "run.log"],
                    "{cfg}:7: unknown key 'temp_strat'"),
    "include_spin": (PLAIN_CONFIG + "include_spin = true\n", ["--log", "run.log"],
                     "{cfg}:7: unknown key 'include_spin'"),
    "include_spins-maybe": (PLAIN_CONFIG + "include_spins = maybe\n", ["--log", "run.log"],
                            "{cfg}: include_spins must be true or false, got 'maybe'"),
    "scan-sweeps": (SCAN_CONFIG + "sweeps = 999999\n", [],
                    "sweeps does not apply to a sweep_scan config"),
    "empty-ladder": (SCAN_BASE + "sweep_scan =\n", [],
                     "{cfg}: sweep_scan must be nonempty when given"),
    "ladder-0-5": (SCAN_BASE + "sweep_scan = 0 5\n", [],
                   "{cfg}: sweep_scan entries must be positive"),
    "ladder-5-5": (SCAN_BASE + "sweep_scan = 5 5\n", [],
                   "{cfg}: sweep_scan entries must be strictly increasing"),
    "duplicate-key": (PLAIN_CONFIG.replace("sweeps = 30\n", "sweeps = 30\nsweeps = 40\n"),
                      ["--log", "run.log"], "{cfg}:4: duplicate key 'sweeps'"),
    "missing-key": (PLAIN_CONFIG.replace("num_trials = 10\n", ""), ["--log", "run.log"],
                    "{cfg}: missing required key 'num_trials'"),
    "workers-0": (PLAIN_CONFIG, ["--log", "run.log", "--workers", "0"],
                  "workers must be positive, got 0"),
    # without a log there is nothing to resume, and the campaign would run
    # every trial and keep none of them
    "resume-without-log": (PLAIN_CONFIG, ["--resume"],
                           "a resume needs the log of the campaign to finish"),
}


@pytest.mark.parametrize("text, flags, message", READER_ERRORS.values(), ids=READER_ERRORS)
def test_campaign_reader_refuses(tmp_path, monkeypatch, capsys, text, flags, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "camp.cfg").write_text(text)
    assert main(["campaign", "camp.cfg"] + flags) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(cfg='camp.cfg')}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["camp.cfg"]


@pytest.mark.parametrize("word, logged", [("1", True), ("TRUE", True), ("Yes", True),
                                          ("0", False), ("False", False), ("no", False)])
def test_include_spins_spellings(tmp_path, capsys, word, logged):
    cfg = campaign_config_file(tmp_path, f"include_spins = {word}\n")
    log = tmp_path / "run.log"
    assert main(["campaign", str(cfg), "--log", str(log)]) == 0
    assert all((r.spins_hex is not None) == logged for r in read_log(log))


def test_config_comments_and_blank_lines_are_skipped(tmp_path, capsys):
    plain = campaign_config_file(tmp_path)
    assert main(["campaign", str(plain)]) == 0
    want = capsys.readouterr()
    commented = tmp_path / "commented.cfg"
    commented.write_text("# a comment line\n\n" + PLAIN_CONFIG.replace(
        "sweeps = 30\n", "sweeps = 30  # trailing comment\n"))
    assert main(["campaign", str(commented)]) == 0
    got = capsys.readouterr()
    assert _timing_free_tokens(got.out) == _timing_free_tokens(want.out)
    assert got.err == want.err == ""


def test_campaign_bad_config_lines(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("instance = torus:4x4:1\nnonsense\n")
    assert main(["campaign", str(cfg)]) == 1
    assert "key = value" in capsys.readouterr().err
    cfg.write_text("instance = torus:4x4:1\nkind = greedy_local_search\nsweeps = 5\n")
    assert main(["campaign", str(cfg)]) == 1
    assert "num_trials" in capsys.readouterr().err


# (fields, config message after "{cfg}:7: ", --target message): a target
# line and a --target flag read the same fields, each with its own text
TARGET_ERRORS = [
    (["opt"], "target wants LABEL CUT [CONFIDENCE]",
     "--target wants LABEL:CUT[:CONFIDENCE], got 'opt'"),
    (["opt", "10", "0.9", "x"], "target wants LABEL CUT [CONFIDENCE]",
     "--target wants LABEL:CUT[:CONFIDENCE], got 'opt:10:0.9:x'"),
    (["opt", "1.5"], "invalid literal for int() with base 10: '1.5'",
     "bad --target 'opt:1.5': invalid literal for int() with base 10: '1.5'"),
    (["opt", "x", "2"], "invalid literal for int() with base 10: 'x'",
     "bad --target 'opt:x:2': invalid literal for int() with base 10: 'x'"),
    (["opt", "10", "1.5"], "confidence must be in (0, 1), got 1.5",
     "bad --target 'opt:10:1.5': confidence must be in (0, 1), got 1.5"),
    (["opt", "10", "0"], "confidence must be in (0, 1), got 0.0",
     "bad --target 'opt:10:0': confidence must be in (0, 1), got 0.0"),
    (["opt", "10", "1"], "confidence must be in (0, 1), got 1.0",
     "bad --target 'opt:10:1': confidence must be in (0, 1), got 1.0"),
    (["opt", "10", "high"], "could not convert string to float: 'high'",
     "bad --target 'opt:10:high': could not convert string to float: 'high'"),
    # int() and float() alone read 1_0 as 10 and Arabic-Indic digits too
    (["opt", "1_0"], "invalid literal for int() with base 10: '1_0'",
     "bad --target 'opt:1_0': invalid literal for int() with base 10: '1_0'"),
    (["opt", "\u0661\u0660"], "invalid literal for int() with base 10: '\u0661\u0660'",
     "bad --target 'opt:\u0661\u0660': invalid literal for int() with base 10: "
     "'\u0661\u0660'"),
    (["opt", "10", "0.9_9"], "could not convert string to float: '0.9_9'",
     "bad --target 'opt:10:0.9_9': could not convert string to float: '0.9_9'"),
    # a label is one word of the summary's key=value output
    (["x=y", "3"], "target label must be nonempty, without whitespace or '=', got 'x=y'",
     "bad --target 'x=y:3': target label must be nonempty, without whitespace or '=', "
     "got 'x=y'"),
]


@pytest.mark.parametrize("fields, config_message, flag_message", TARGET_ERRORS)
def test_bad_targets_exit_one_with_their_message(tmp_path, capsys, fields,
                                                 config_message, flag_message):
    cfg = campaign_config_file(tmp_path, "target = " + " ".join(fields) + "\n")
    assert main(["campaign", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"error: {cfg}:7: {config_message}\n")
    good = campaign_config_file(tmp_path)
    log = tmp_path / "run.log"
    assert main(["campaign", str(good), "--log", str(log)]) == 0
    capsys.readouterr()
    assert main(["report", str(log), "--target", ":".join(fields)]) == 1
    assert capsys.readouterr() == ("", f"error: {flag_message}\n")


@pytest.mark.parametrize("label", ["a b", "", "x=y", "a\tb", "a\u00a0b"])
def test_report_refuses_a_target_label_that_breaks_the_summary(tmp_path, capsys, label):
    # the summary line target=a b ... would no longer split into key=value words
    log = tmp_path / "run.log"
    assert main(["campaign", str(campaign_config_file(tmp_path)), "--log", str(log)]) == 0
    capsys.readouterr()
    assert main(["report", str(log), "--target", f"{label}:5"]) == 1
    assert capsys.readouterr() == ("", (
        f"error: bad --target {label + ':5'!r}: target label must be nonempty, without "
        f"whitespace or '=', got {label!r}\n"))


# a config's integers and floats are read only as ASCII text: int() and
# float() alone read 1_0 as 10 and Arabic-Indic digits as digits
@pytest.mark.parametrize("old, new, message", [
    ("num_trials = 10", "num_trials = 1_0", "invalid literal for int() with base 10: '1_0'"),
    ("master_seed = 777", "master_seed = \u0661\u0662",
     "invalid literal for int() with base 10: '\u0661\u0662'"),
    ("sweeps = 30", "sweeps = 3\u0660", "invalid literal for int() with base 10: '3\u0660'"),
    ("sweeps = 30", "sweep_scan = 10 2_0",
     "invalid literal for int() with base 10: '2_0'"),
    ("sweeps = 30", "sweeps = 30\ntemp_start = 2_5",
     "could not convert string to float: '2_5'"),
    ("sweeps = 30", "sweeps = 30\ntemp_end = 0.\u0660\u0665",
     "could not convert string to float: '0.\u0660\u0665'"),
])
def test_campaign_config_numbers_are_ascii(tmp_path, capsys, old, new, message):
    cfg = tmp_path / "camp.cfg"
    cfg.write_text(PLAIN_CONFIG.replace(old, new).replace("target = optimum 10\n", ""))
    assert main(["campaign", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"error: {cfg}: {message}\n")


@pytest.mark.parametrize("source", ["config", "report"])
def test_a_repeated_target_label_is_refused(tmp_path, monkeypatch, capsys, source):
    # two rows under one label could not be told apart in the summary
    monkeypatch.chdir(tmp_path)
    if source == "config":
        Path("camp.cfg").write_text(PLAIN_CONFIG.replace("optimum", "a") + "target = a 9\n")
        argv = ["campaign", "camp.cfg", "--log", "run.log"]
        message = "camp.cfg:7: duplicate target label 'a'"
    else:
        assert main(["campaign", str(campaign_config_file(tmp_path)), "--log", "run.log"]) == 0
        capsys.readouterr()
        argv = ["report", "run.log", "--target", "a:8", "--target", "a:9"]
        message = "bad --target 'a:9': duplicate target label 'a'"
    files = {p: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # refused before any trial ran: no log is written or changed
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == files


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


def spliced_log(tmp_path, capsys, extra_b):
    """Trials 0-2 of a 6-trial annealing campaign with master seed 777,
    then trials 3-5 of the same config with ``extra_b`` added."""
    base = ("instance = torus:4x4:1\nkind = simulated_annealing\nsweeps = 30\n"
            "num_trials = 6\n")
    lines = []
    for name, extra, kept in (("a", "master_seed = 777\n", slice(0, 3)),
                              ("b", extra_b, slice(3, 6))):
        cfg, log = tmp_path / f"{name}.cfg", tmp_path / f"{name}.log"
        cfg.write_text(base + extra)
        assert main(["campaign", str(cfg), "--log", str(log)]) == 0
        lines += log.read_text().splitlines()[kept]
    mixed = tmp_path / "mixed.log"
    mixed.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    return mixed


def test_report_refuses_a_log_that_mixes_schedules(tmp_path, capsys):
    # same instance, kind and sweeps; another temp_end and master seed
    mixed = spliced_log(tmp_path, capsys, "master_seed = 778\ntemp_end = 0.1\n")
    assert main(["report", str(mixed)]) == 1
    schedule = "instance=torus:4x4:1 kind=simulated_annealing sweeps=30 temp_start=3.0"
    assert capsys.readouterr() == ("", (
        f"error: {mixed}: records mix campaigns: trial 3 ran {schedule} temp_end=0.1 "
        f"master_seed=778, not {schedule} temp_end=0.05 master_seed=777\n"))


def test_report_refuses_a_log_that_mixes_master_seeds(tmp_path, capsys):
    mixed = spliced_log(tmp_path, capsys, "master_seed = 778\n")
    assert main(["report", str(mixed)]) == 1
    schedule = ("instance=torus:4x4:1 kind=simulated_annealing sweeps=30 temp_start=3.0 "
                "temp_end=0.05")
    assert capsys.readouterr() == ("", (
        f"error: {mixed}: records mix campaigns: trial 3 ran {schedule} master_seed=778, "
        f"not {schedule} master_seed=777\n"))


SPLICED = ("instance=torus:4x4:1 kind=simulated_annealing sweeps=30 temp_start=3.0 "
           "temp_end={} master_seed={}")

# Faults of spliced_log: (what b.cfg sets, an edit of the log's lines,
# the num_trials of the resumed a.cfg, the refusal)
LOG_FAULTS = {
    "master-seed": ("master_seed = 778\n", None, 6, "records mix campaigns: trial 3 ran "
                    f"{SPLICED.format(0.05, 778)}, not {SPLICED.format(0.05, 777)}"),
    "schedule": ("master_seed = 777\ntemp_end = 0.1\n", None, 6, "records mix campaigns: "
                 f"trial 3 ran {SPLICED.format(0.1, 777)}, not {SPLICED.format(0.05, 777)}"),
    "past-num-trials": ("master_seed = 777\n", None, 5, "trial index 5 outside 0..4"),
    "duplicate-index": ("master_seed = 777\n", lambda lines: lines + lines[:1], 6,
                        "duplicate trial index 0"),
    "format-2": ("master_seed = 777\n",
                 lambda lines: [lines[0].replace(" format=3", " format=2"), *lines[1:]], 6,
                 "record has log format '2', this version reads format 3; re-run the campaign"),
}


@pytest.mark.parametrize("tail", ["index=6 instance=torus:4x4:1 kind=sim", ""],
                         ids=["torn", "whole"])
@pytest.mark.parametrize("extra_b, edit, num_trials, reason", LOG_FAULTS.values(),
                         ids=LOG_FAULTS)
def test_a_refused_resume_leaves_the_log_as_it_was(tmp_path, capsys, extra_b, edit,
                                                    num_trials, reason, tail):
    log = spliced_log(tmp_path, capsys, extra_b)
    lines = log.read_text().splitlines(keepends=True)
    log.write_text("".join(edit(lines) if edit else lines) + tail)
    cfg = tmp_path / "a.cfg"
    cfg.write_text(cfg.read_text().replace("num_trials = 6", f"num_trials = {num_trials}"))
    before = log.read_bytes()
    note = f"{log}: left out an unterminated last line ({len(tail)} bytes)\n" if tail else ""
    refusal = ("", f"{note}error: {log}: {reason}\n")
    assert main(["campaign", str(cfg), "--log", str(log), "--resume"]) == 1
    assert log.read_bytes() == before
    assert capsys.readouterr() == refusal
    if num_trials < 6:
        # a log does not hold its campaign's trial count: report reads all six
        assert main(["report", str(log)]) == 0
        out, err = capsys.readouterr()
        assert "num_trials=6" in out and err == note
    else:
        assert main(["report", str(log)]) == 1
        assert capsys.readouterr() == refusal


GREEDY_LINE = ("index=1 instance=torus:4x4:1 kind=greedy_local_search sweeps=10 seed=7 "
               f"best_cut=12 sweeps_executed=3 wall_time_s=1.0e-04 format={LOG_FORMAT}")


def report_with_second_record(tmp_path, capsys, old, new):
    """The error of ``report`` on a valid greedy record followed by
    GREEDY_LINE with ``old`` replaced by ``new``, less its prefix."""
    log = tmp_path / "run.log"
    log.write_text(GREEDY_LINE.replace("index=1", "index=0") + "\n")
    assert main(["report", str(log)]) == 0
    capsys.readouterr()
    log.write_text(log.read_text() + GREEDY_LINE.replace(old, new) + "\n")
    assert main(["report", str(log)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {log}: ") and err.endswith("\n")
    return err[len(f"error: {log}: "):-1]


@pytest.mark.parametrize("old, new, message", [
    ("kind=greedy_local_search", "kind=bogus",
     "unknown solver kind 'bogus', expected one of "
     "('greedy_local_search', 'simulated_annealing')"),
    ("kind=greedy_local_search", "kind=simulated_annealing",
     "simulated annealing needs temp_start and temp_end"),
    (" best_cut=12", " temp_start=2.5 best_cut=12", "greedy local search takes no temperatures"),
    ("sweeps=10", "sweeps=-4", "sweeps must be positive, got -4"),
    ("seed=7", "seed=18446744073709551616",
     "seed must fit in 64 bits, got 18446744073709551616"),
])
def test_report_refuses_a_record_with_an_invalid_schedule(tmp_path, capsys, old, new, message):
    assert report_with_second_record(tmp_path, capsys, old, new) == f"trial 1: {message}"


def test_solve_at_a_tiny_temperature_rejects_every_worsening_flip(capsys):
    # |delta| / 1e-310 overflows a double: the exponent's limit is -inf,
    # so a worsening flip's probability is 0, with no overflow warning
    assert main(["solve", "torus:6x6:1", "--kind", "simulated_annealing", "--sweeps", "5",
                 "--seed", "3", "--temp-start", "1", "--temp-end", "1e-310"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("index=0 instance=torus:6x6:1 ")
    assert f" format={LOG_FORMAT}\n" in out


# an infinite start made every later temperature NaN and a ratio that
# rounds to 0 made them 0; solve, a campaign config and a log record
# all refuse such a schedule
@pytest.mark.parametrize("start, end, message", [
    ("inf", "1", "need 0 < temp_end < temp_start < inf, got (inf, 1.0)"),
    ("1e308", "1e-308", "temp_end / temp_start rounds to 0, got (1e+308, 1e-308)"),
    ("nan", "1", "need 0 < temp_end < temp_start < inf, got (nan, 1.0)"),
])
def test_every_reader_refuses_a_degenerate_annealing_schedule(tmp_path, capsys, start, end,
                                                              message):
    solve = ["solve", "torus:6x6:1", "--kind", "simulated_annealing", "--sweeps", "5",
             "--seed", "3"]
    assert main(solve + ["--temp-start", start, "--temp-end", end]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")

    cfg = tmp_path / "camp.cfg"
    cfg.write_text("instance = torus:6x6:1\nkind = simulated_annealing\nsweeps = 5\n"
                   f"num_trials = 2\nmaster_seed = 1\ntemp_start = {start}\n"
                   f"temp_end = {end}\n")
    assert main(["campaign", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"error: {cfg}: {message}\n")

    assert main(solve) == 0
    line = capsys.readouterr().out.replace("temp_start=3.0", f"temp_start={start}")
    log = tmp_path / "run.log"
    log.write_text(line.replace("temp_end=0.05", f"temp_end={end}"))
    assert main(["report", str(log)]) == 1
    assert capsys.readouterr() == ("", f"error: {log}: trial 0: {message}\n")


# a record's numbers are read only as the ASCII text a log holds
@pytest.mark.parametrize("old, new, message", [
    ("best_cut=12", "best_cut=1_2", "invalid literal for int() with base 10: '1_2'"),
    ("best_cut=12", "best_cut=+\u0661\u0662",
     "invalid literal for int() with base 10: '+\u0661\u0662'"),
    ("sweeps=10", "sweeps=1\u0660", "invalid literal for int() with base 10: '1\u0660'"),
    ("seed=7", "seed=0_7", "invalid literal for int() with base 10: '0_7'"),
    ("sweeps_executed=3", "sweeps_executed=\uff13",
     "invalid literal for int() with base 10: '\uff13'"),
    ("wall_time_s=1.0e-04", "wall_time_s=1_0.5", "could not convert string to float: '1_0.5'"),
    ("wall_time_s=1.0e-04", "wall_time_s=\u0661.0",
     "could not convert string to float: '\u0661.0'"),
])
def test_report_reads_record_numbers_as_ascii(tmp_path, capsys, old, new, message):
    assert report_with_second_record(tmp_path, capsys, old, new) == f"trial 1: {message}"


# each row breaks one outcome field; a report must not average such a trial
@pytest.mark.parametrize("old, new, message", [
    ("index=1", "index=-1", "trial -1: trial index must be non-negative, got -1"),
    ("sweeps_executed=3", "sweeps_executed=50",
     "trial 1: sweeps_executed must be in 1..10, got 50"),
    ("sweeps_executed=3", "sweeps_executed=0",
     "trial 1: sweeps_executed must be in 1..10, got 0"),
    ("wall_time_s=1.0e-04", "wall_time_s=-1.0",
     "trial 1: wall_time_s must be finite and >= 0, got -1.0"),
    ("wall_time_s=1.0e-04", "wall_time_s=nan",
     "trial 1: wall_time_s must be finite and >= 0, got nan"),
    ("wall_time_s=1.0e-04", "wall_time_s=inf",
     "trial 1: wall_time_s must be finite and >= 0, got inf"),
])
def test_report_refuses_a_record_with_an_invalid_outcome(tmp_path, capsys, old, new, message):
    assert report_with_second_record(tmp_path, capsys, old, new) == message


DATA = Path(__file__).resolve().parent / "data"

# logs written by the format-3 code, with their `report` output in kv and
# csv, and the configs that wrote them; the format2_*.log files are the
# logs the same configs wrote under per-trial PCG64 streams
FORMAT3_LOGS = {
    "format3_annealing": "instance = torus:5x5:2\nkind = simulated_annealing\nsweeps = 4\n"
                         "num_trials = 5\nmaster_seed = 31\ntemp_start = 2.5\n"
                         "include_spins = true\n",
    "format3_greedy": "instance = torus:5x5:2\nkind = greedy_local_search\nsweeps = 10\n"
                      "num_trials = 3\nmaster_seed = 32\n",
}


def untimed(path):
    return re.sub(r"wall_time_s=\S+", "", path.read_text())


@pytest.mark.parametrize("name", sorted(FORMAT3_LOGS))
def test_a_format_3_log_reads_back_to_the_same_summary(tmp_path, capsys, name):
    log = DATA / f"{name}.log"
    for fmt in ("kv", "csv"):
        assert main(["report", str(log), "--target", "top:18", "--target", "near:16:0.9",
                     "--format", fmt]) == 0
        assert capsys.readouterr() == ((DATA / f"{name}.{fmt}").read_bytes().decode(), "")
    # its config writes the same log again, apart from the wall times
    cfg, again = tmp_path / "camp.cfg", tmp_path / "again.log"
    cfg.write_text(FORMAT3_LOGS[name])
    assert main(["campaign", str(cfg), "--log", str(again)]) == 0
    assert untimed(again) == untimed(log)


@pytest.mark.parametrize("kind", ("annealing", "greedy"))
def test_a_format_2_log_is_refused(tmp_path, capsys, kind):
    old = DATA / f"format2_{kind}.log"
    assert main(["report", str(old)]) == 1
    message = "record has log format '2', this version reads format 3; re-run the campaign"
    assert capsys.readouterr() == ("", f"error: {old}: {message}\n")
    # resuming it runs nothing and leaves it as it was
    cfg, log = tmp_path / "camp.cfg", tmp_path / "old.log"
    cfg.write_text(FORMAT3_LOGS[f"format3_{kind}"])
    log.write_bytes(old.read_bytes())
    assert main(["campaign", str(cfg), "--log", str(log), "--resume"]) == 1
    assert capsys.readouterr() == ("", f"error: {log}: {message}\n")
    assert log.read_bytes() == old.read_bytes()


# logs written by the format-3 code on graphs whose fields need int16
# (|w| up to 300) and int64 (|w| up to 2^40), with the configs that wrote
# them; test_solvers checks them against the spin-by-spin reference
WEIGHTED_LOGS = {
    f"weighted_{weights}_{kind}": f"instance = {DATA / f'weighted_{weights}.gset'}\n" + cfg
    for weights, temp_start in (("300", "900.0"), ("2e40", "3e12"))
    for kind, cfg in (
        ("annealing", "kind = simulated_annealing\nsweeps = 30\nnum_trials = 6\n"
                      f"master_seed = 41\ntemp_start = {temp_start}\ntemp_end = 0.5\n"
                      "include_spins = true\n"),
        ("greedy", "kind = greedy_local_search\nsweeps = 20\nnum_trials = 6\nmaster_seed = 42\n"),
    )
}


@pytest.mark.parametrize("name", sorted(WEIGHTED_LOGS))
def test_weighted_logs_are_written_again_unchanged(tmp_path, name):
    cfg, again = tmp_path / "camp.cfg", tmp_path / "again.log"
    cfg.write_text(WEIGHTED_LOGS[name])
    assert main(["campaign", str(cfg), "--log", str(again)]) == 0
    assert untimed(again) == untimed(DATA / f"{name}.log")


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc_info:
        main(["no-such-command"])
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2


COMMANDS = ("validate", "oracle", "gen-torus", "solve", "campaign", "report")


def exit_output(capsys, parse):
    """(exit code, stdout, stderr) of a parse that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc_info:
        parse()
    return (exc_info.value.code, *capsys.readouterr())


@pytest.mark.parametrize("argv", [[cmd, "-h"] for cmd in COMMANDS] + [
    ["validate"],
    ["campaign", "c.cfg", "--workers", "x"],
    ["solve", "torus:4x4:1", "--kind", "exhaustive"],
    # left over by the subcommand, so reported by the top-level parser
    ["oracle", "torus:4x4:1", "--bogus"],
    ["gen-torus", "4", "4", "--seed", "1", "extra"],
    # removed commands, unknown to both
    ["evaluate", "torus:4x4:1", "sol.txt"],
    ["project", "1e6"],
])
def test_main_says_what_the_full_parser_says(argv, monkeypatch, capsys):
    # main builds only the invoked command's parser; its help, usage errors
    # and exit codes must be those of the parser holding every command
    monkeypatch.setenv("COLUMNS", "80")
    full = exit_output(capsys, lambda: build_parser().parse_args(argv))
    assert exit_output(capsys, lambda: main(argv)) == full
    code, out, err = full
    if "-h" in argv:
        assert code == 0 and out.startswith(f"usage: gsetbench {argv[0]} ") and err == ""
    else:
        assert code == 2 and out == "" and "error:" in err


def test_top_level_messages_list_every_command(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = exit_output(capsys, lambda: main(["-h"]))
    assert code == 0
    listed = re.findall(r"^    (\S+)\s", out, re.MULTILINE)
    assert listed == list(COMMANDS)
    code, _, err = exit_output(capsys, lambda: main(["no-such-command"]))
    assert code == 2
    assert "invalid choice: 'no-such-command' (choose from " in err
    assert all(f"'{cmd}'" in err for cmd in COMMANDS)
    code, _, err = exit_output(capsys, lambda: main([]))
    assert code == 2 and "the following arguments are required: command" in err


# (argv with X where the number goes, the argument a usage error names)
NUMERIC_ARGUMENTS = [
    (["validate", "torus:4x4:1", "sol.txt", "--expect-cut", "X"], "--expect-cut"),
    (["validate", "torus:4x4:1", "sol.txt", "--best-known", "X"], "--best-known"),
    (["gen-torus", "X", "4", "--seed", "1"], "rows"),
    (["gen-torus", "4", "X", "--seed", "1"], "cols"),
    (["gen-torus", "4", "4", "--seed", "X"], "--seed"),
    (["solve", "torus:4x4:1", "--sweeps", "X", "--seed", "1"], "--sweeps"),
    (["solve", "torus:4x4:1", "--sweeps", "3", "--seed", "X"], "--seed"),
    (["solve", "torus:4x4:1", "--sweeps", "3", "--seed", "1", "--temp-start", "X"],
     "--temp-start"),
    (["solve", "torus:4x4:1", "--sweeps", "3", "--seed", "1", "--temp-end", "X"], "--temp-end"),
    (["campaign", "c.cfg", "--workers", "X"], "--workers"),
]


@pytest.mark.parametrize("text", ["1_0", "\u0661\u0662", "1_0.5"])
@pytest.mark.parametrize("argv, name", NUMERIC_ARGUMENTS, ids=[
    f"{argv[0]}-{name}" for argv, name in NUMERIC_ARGUMENTS])
def test_command_line_numbers_are_read_by_the_gset_rule(tmp_path, monkeypatch, capsys, argv,
                                                         name, text):
    # int() and float() alone read 1_0 as 10 and Arabic-Indic digits too
    monkeypatch.chdir(tmp_path)
    code, out, err = exit_output(capsys, lambda: main([text if a == "X" else a for a in argv]))
    assert (code, out) == (2, "")
    reads = "float" if name in ("--temp-start", "--temp-end") else "int"
    assert err.endswith(f"error: argument {name}: invalid {reads} value: {text!r}\n")
    assert list(tmp_path.iterdir()) == []


# each subcommand's option strings, in the order its parser adds them
OPTIONS = {
    "validate": ["--expect-cut", "--best-known", "--name", "--substitute", "--format"],
    "oracle": ["--format"],
    "gen-torus": ["--seed", "-o", "--output"],
    "solve": ["--kind", "--sweeps", "--seed", "--temp-start", "--temp-end", "--include-spins"],
    "campaign": ["--log", "--workers", "--resume", "--format"],
    "report": ["--target", "--format"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_takes_exactly_its_options(command):
    (subparsers,) = (action for action in build_parser(command)._actions
                     if isinstance(action, argparse._SubParsersAction))
    parser = subparsers.choices[command]
    assert [s for action in parser._actions for s in action.option_strings] == (
        ["-h", "--help"] + OPTIONS[command])


def test_every_typed_argument_is_read_by_a_shared_reader():
    # a type=int or type=float would read 1_0 and non-ASCII digits again
    (subparsers,) = (action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction))
    types = {action.type for parser in subparsers.choices.values()
             for action in parser._actions} - {None}
    # each type calls one of the two readers, under the name argparse prints
    assert {(getattr(t, "func", t), t.__name__) for t in types} == {
        (_decimal, "int"), (_ascii_float, "float")}


# each asks for a result that another path gives: validate scores a
# solution, stdout redirected is a CSV file, a target line carries its
# confidence, $GSET_DIR names the instance directory and every summary
# prints the hardware projection as hw_ttt_s
@pytest.mark.parametrize("argv", [
    ["evaluate", "torus:4x4:1", "sol.txt"],
    ["campaign", "camp.cfg", "--summary-csv", "s.csv"],
    ["report", "run.log", "--summary-csv", "s.csv"],
    ["campaign", "scan.cfg", "--scan-csv", "s.csv"],
    ["campaign", "camp.cfg", "--confidence", "0.5"],
    ["report", "run.log", "--target", "optimum:10", "--confidence", "0.5"],
    ["validate", "torus:4x4:1", "sol.txt", "--instance-dir", "."],
    ["oracle", "torus:4x4:1", "--instance-dir", "."],
    ["solve", "torus:4x4:1", "--sweeps", "3", "--seed", "1", "--instance-dir", "."],
    ["campaign", "camp.cfg", "--instance-dir", "."],
    ["project", "341500"],
])
def test_a_removed_command_or_option_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    Path("camp.cfg").write_text(PLAIN_CONFIG)
    Path("scan.cfg").write_text(SCAN_CONFIG)
    assert main(["campaign", "camp.cfg", "--log", "run.log"]) == 0
    assert main(["solve", "torus:4x4:1", "--sweeps", "3", "--seed", "1"]) == 0
    Path("sol.txt").write_text("c318\n")
    capsys.readouterr()
    files = {p: p.read_bytes() for p in tmp_path.iterdir()}
    code, out, err = exit_output(capsys, lambda: main(argv))
    assert (code, out) == (2, "")
    assert err.startswith("usage: gsetbench ") and (
        "invalid choice: 'evaluate'" in err or "invalid choice: 'project'" in err
        or "unrecognized arguments: --" in err)
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == files


def test_main_without_arguments_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["gsetbench", "oracle", "torus:4x4:1"])
    assert main() == 0
    assert capsys.readouterr().out.startswith("cut=10 config=")


# (the file made not UTF-8, the command that reads it)
NON_UTF8 = {
    "instance": ("t44.txt", ["validate", "t44.txt", "sol.txt"]),
    "solution": ("sol.txt", ["validate", "t44.txt", "sol.txt"]),
    "config": ("camp.cfg", ["campaign", "camp.cfg", "--log", "run.log", "--resume"]),
    "resumed-log": ("run.log", ["campaign", "camp.cfg", "--log", "run.log", "--resume"]),
    "report-log": ("run.log", ["report", "run.log"]),
}


@pytest.mark.parametrize("name, argv", NON_UTF8.values(), ids=NON_UTF8)
def test_a_file_that_is_not_utf8_is_refused_by_name(tmp_path, monkeypatch, capsys, name, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["gen-torus", "4", "4", "--seed", "1", "-o", "t44.txt"]) == 0
    Path("sol.txt").write_text("# n=16\nc318\n")
    Path("camp.cfg").write_text(PLAIN_CONFIG)
    assert main(["campaign", "camp.cfg", "--log", "run.log"]) == 0
    capsys.readouterr()
    Path(name).write_bytes(b"\xff" + Path(name).read_bytes())
    files = {p: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(argv) == 1
    assert capsys.readouterr() == ("", (
        f"error: {name}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"))
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == files


@pytest.mark.parametrize("data, code, err", [
    (b"# n=16\nc318\n", 0, ""),
    (b"\xffc318\n", 1, "error: -: 'utf-8' codec can't decode byte 0xff in position 0: "
                       "invalid start byte\n"),
])
def test_validate_reads_a_solution_on_stdin_as_utf8(monkeypatch, capsys, data, code, err):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert main(["validate", "torus:4x4:1", "-"]) == code
    assert capsys.readouterr().err == err


def test_missing_file_is_a_clean_error(capsys):
    assert main(["report", "/nonexistent/file.log"]) == 1
    assert "error:" in capsys.readouterr().err
