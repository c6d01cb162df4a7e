import csv
import io
import math
import random
import re
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import deterministic_fields
from gsetbench import campaign
from gsetbench.campaign import (
    CampaignConfig,
    RecordSet,
    TrialRecord,
    format_records,
    master_seed_of,
    parse_record,
    read_log,
    replay_record,
    run_campaign,
    summarize,
    write_scan_csv,
)
from gsetbench.cli import main
from gsetbench.codec import decode_hex
from gsetbench.instances import ProblemInstance, TorusSpec, generate_torus
from gsetbench.metrics import TargetSpec, write_summary_csv
from gsetbench.solvers import ANNEALING, GREEDY, SolverConfig, default_config, splitmix64


def make_record(index, cut, sweeps=50, time=0.001, **kw):
    return TrialRecord(
        index=index,
        instance="torus:4x4:1",
        solver=SolverConfig(ANNEALING, sweeps, 3.0, 0.05),
        seed=int(splitmix64([1], [index])[0, 0]),
        best_cut=cut,
        sweeps_executed=sweeps,
        wall_time_s=time,
        **kw,
    )


def record_columns(rows):
    """The columns of ``make_record`` rows, for a ``RecordSet``."""
    return dict(
        index=np.array([r.index for r in rows], dtype=np.int64),
        seed=np.array([r.seed for r in rows], dtype=np.uint64),
        best_cut=np.array([r.best_cut for r in rows], dtype=np.int64),
        sweeps_executed=np.array([r.sweeps_executed for r in rows], dtype=np.int64),
        wall_time_s=np.array([r.wall_time_s for r in rows], dtype=np.float64),
        spins_hex=[r.spins_hex for r in rows],
    )


def record_set(rows):
    """Rows of one instance and solver config as one set."""
    return RecordSet(rows[0].instance, rows[0].solver, **record_columns(rows))


def record_line(record):
    """The log line of one record, without its newline."""
    return format_records(record_set([record]))[:-1]


def logged_seeds(instance, log, master_seed, num_trials):
    """The seeds a one-sweep greedy campaign logs, in trial order."""
    config = CampaignConfig(solver=default_config(GREEDY, 1), num_trials=num_trials,
                            master_seed=master_seed)
    run_campaign(instance, config, log_path=log)
    return [r.seed for r in sorted(read_log(log), key=lambda r: r.index)]


def test_mix_seed_reference_vectors(torus, tmp_path):
    # a campaign mixes master seed and trial index into the trial seed:
    # trials 0..2 of master seed 1234567 get the first three outputs of
    # the reference SplitMix64 stream from 1234567
    assert logged_seeds(torus, tmp_path / "c.log", 1234567, 3) == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_mix_seed_validation_and_spread(torus, tmp_path):
    solver = default_config(GREEDY, 1)
    with pytest.raises(ValueError, match="master seed must fit in 64 bits, got 18446744073709551616"):
        CampaignConfig(solver=solver, num_trials=1, master_seed=2**64)
    with pytest.raises(ValueError, match="master seed must be an integer, got 1.0"):
        CampaignConfig(solver=solver, num_trials=1, master_seed=1.0)
    seeds = logged_seeds(torus, tmp_path / "a.log", 42, 1000)
    assert logged_seeds(torus, tmp_path / "b.log", np.uint64(42), 1000) == seeds
    assert len(set(seeds)) == 1000
    assert all(0 <= s < 2**64 for s in seeds)


def test_master_seed_of_inverts_splitmix64():
    rng = random.Random(2014)
    pairs = [(m, i) for m in (0, 2**64 - 1) for i in (0, 2**40 + 3)]
    pairs += [(rng.getrandbits(64), rng.randrange(2**32)) for _ in range(2000)]
    for master, index in pairs:
        assert master_seed_of(int(splitmix64([master], [index])[0, 0]), index) == master


def test_master_seed_of_inverts_uint64_arrays_as_it_inverts_ints():
    rng = np.random.default_rng(2014)
    seeds = [0, 2**64 - 1] + rng.integers(2**64, size=200, dtype=np.uint64).tolist()
    for index in (0, 2**40):
        indices = np.full(len(seeds), index, dtype=np.uint64)
        masters = master_seed_of(np.array(seeds, dtype=np.uint64), indices)
        assert masters.dtype == np.uint64
        assert masters.tolist() == [master_seed_of(seed, index) for seed in seeds]
    # and with each seed at its own index
    indices = rng.integers(2**41, size=len(seeds), dtype=np.uint64)
    assert master_seed_of(np.array(seeds, dtype=np.uint64), indices).tolist() == [
        master_seed_of(seed, index) for seed, index in zip(seeds, indices.tolist())]


def test_campaign_config_validation():
    solver = default_config(GREEDY, 10)
    with pytest.raises(ValueError, match="num_trials"):
        CampaignConfig(solver=solver, num_trials=0, master_seed=1)
    with pytest.raises(ValueError, match="master seed must fit in 64 bits, got -1"):
        CampaignConfig(solver=solver, num_trials=1, master_seed=-1)
    with pytest.raises(ValueError, match="master seed must be an integer, got 2.0"):
        CampaignConfig(solver=solver, num_trials=1, master_seed=2.0)


def test_seeds_of_integer_types_are_kept_as_python_ints():
    config = CampaignConfig(solver=default_config(GREEDY, 10), num_trials=1,
                            master_seed=np.uint64(2**64 - 1))
    assert type(config.master_seed) is int and config.master_seed == 2**64 - 1
    record = replace(make_record(0, 9), seed=True)
    assert type(record.seed) is int
    assert record_line(record) == record_line(replace(record, seed=1))


def test_record_roundtrip():
    record = make_record(3, 9, spins_hex="c318")
    assert parse_record(record_line(record)) == record
    bare = TrialRecord(
        index=0, instance="g", solver=SolverConfig(GREEDY, 5), seed=7,
        best_cut=4, sweeps_executed=2, wall_time_s=0.5,
    )
    assert parse_record(record_line(bare)) == bare


def test_parse_record_rejects_malformed_lines():
    with pytest.raises(ValueError, match="malformed"):
        parse_record("index=0 what")
    with pytest.raises(ValueError, match="missing field"):
        parse_record("index=0 instance=x kind=greedy_local_search")


def test_parse_record_refuses_other_log_formats():
    line = record_line(make_record(0, 5, spins_hex="c318"))
    assert line.endswith(" format=3")
    with pytest.raises(ValueError, match="log format 1.*re-run the campaign"):
        parse_record(line[: -len(" format=3")])
    with pytest.raises(ValueError, match="log format '2', this version reads format 3; re-run"):
        parse_record(line[:-1] + "2")
    with pytest.raises(ValueError, match="log format '4'"):
        parse_record(line[:-1] + "4")


def test_summarize_aggregates():
    records = record_set([make_record(i, cut) for i, cut in enumerate((5, 5, 7, 9))])
    summary = summarize(records, targets=(TargetSpec("six", 6),))
    assert summary.highest_cut == 9
    assert summary.min_cut == 5
    assert summary.average_cut == 6.5
    assert summary.cut_histogram == {5: 2, 7: 1, 9: 1}
    assert sum(summary.cut_histogram.values()) == summary.num_trials
    outcome = summary.targets[0]
    assert outcome.successes == 2
    assert outcome.p_s == 0.5
    assert round(outcome.p_s * outcome.trials) == outcome.successes


def test_summarize_is_order_insensitive():
    records = [make_record(i, cut) for i, cut in enumerate((5, 8, 7, 9, 5))]
    # a plain float sum of these wall times depends on their order
    timed = [make_record(i, 5, time=t) for i, t in enumerate((1.0, 1e-16, 1e-16))]
    for rows in (records, timed):
        a = summarize(record_set(rows), targets=(TargetSpec("t", 7),))
        b = summarize(record_set(rows[::-1]), targets=(TargetSpec("t", 7),))
        assert a == b


def test_summarize_unreachable_target():
    records = record_set([make_record(i, 5) for i in range(4)])
    outcome = summarize(records, targets=(TargetSpec("high", 100),)).targets[0]
    assert outcome.successes == 0
    assert outcome.repetitions is None
    assert outcome.stt_sweeps is None
    assert outcome.ttt_s is None


def test_summarize_rejects_bad_record_sets():
    record = make_record(0, 5)
    empty = RecordSet(record.instance, record.solver, **record_columns([]))
    # read_log gives None for a log without records
    for records in (empty, None):
        with pytest.raises(ValueError, match="^cannot summarize an empty record set$"):
            summarize(records)
    with pytest.raises(ValueError, match="mix"):
        summarize(record_set([record, mixed_record(1, 5)]))
    with pytest.raises(ValueError, match="duplicate"):
        summarize(record_set([record, make_record(0, 6)]))


def test_single_trial_summary_degenerates():
    summary = summarize(record_set([make_record(0, 7)]))
    assert summary.highest_cut == summary.min_cut == summary.average_cut == 7


@pytest.fixture
def torus():
    return generate_torus(TorusSpec(4, 4, seed=1))


def campaign_config(num_trials=12, sweeps=30, kind=ANNEALING, **kw):
    return CampaignConfig(
        solver=default_config(kind, sweeps),
        num_trials=num_trials,
        master_seed=777,
        **kw,
    )


# campaign_config() in the log's words
CAMPAIGN_777 = ("instance=torus:4x4:1 kind=simulated_annealing sweeps=30 temp_start=3.0 "
                "temp_end=0.05 master_seed=777")


def refused_resume(log, ran, runs):
    """The whole message of a resume refused for another campaign, as a pattern."""
    message = f"{log}: records mix campaigns: trial 0 ran {ran}, not {runs}"
    return f"^{re.escape(message)}$"


def test_run_campaign_writes_one_record_per_trial(torus, tmp_path):
    log = tmp_path / "campaign.log"
    summary = run_campaign(torus, campaign_config(), log_path=log)
    records = read_log(log)
    assert len(records) == 12
    assert sorted(r.index for r in records) == list(range(12))
    assert {r.seed for r in records} == set(splitmix64([777], range(12))[0].tolist())
    assert deterministic_fields(summarize(records)) == deterministic_fields(summary)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind, include_spins", [(ANNEALING, True), (GREEDY, False)])
def test_campaign_keeps_each_record_as_its_line_reads(torus, tmp_path, monkeypatch, workers,
                                                      kind, include_spins):
    kept = []

    def keeping(records, targets=()):
        kept.extend(records)
        return summarize(records, targets)

    monkeypatch.setattr(campaign, "summarize", keeping)
    log = tmp_path / "campaign.log"
    summary = run_campaign(torus, campaign_config(kind=kind), log_path=log, workers=workers,
                           include_spins=include_spins)
    lines = log.read_text().splitlines()
    assert sorted(kept, key=lambda r: r.index) == sorted(map(parse_record, lines),
                                                         key=lambda r: r.index)
    assert all((r.spins_hex is not None) == include_spins for r in kept)
    assert summary == summarize(read_log(log))


def test_parallel_equals_serial(torus):
    config = campaign_config(num_trials=16)
    serial = run_campaign(torus, config, workers=1)
    parallel = run_campaign(torus, config, workers=4)
    assert deterministic_fields(serial) == deterministic_fields(parallel)


def test_parallel_batches_on_a_fresh_instance_equal_serial():
    # more workers than cores, frequent thread switches, and a layout
    # that the first batches must build while the others wait
    config = CampaignConfig(
        solver=default_config(ANNEALING, 10),
        num_trials=24,
        master_seed=5,
    )
    serial = run_campaign(generate_torus(TorusSpec(6, 6, seed=2)), config)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = run_campaign(generate_torus(TorusSpec(6, 6, seed=2)), config, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert deterministic_fields(parallel) == deterministic_fields(serial)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failed_batch_stops_the_campaign(torus, tmp_path, monkeypatch, workers):
    # one trial per batch; trial 3 fails and the batches after it are
    # slow, so the pool cannot start more than one per worker meanwhile
    monkeypatch.setattr(campaign, "_BATCH_SPINS", torus.n)
    index_of = {seed: i for i, seed in enumerate(splitmix64([777], range(12))[0].tolist())}
    started = []
    run_trials = campaign.run_trials

    def failing_at_trial_3(instance, config, seeds):
        (index,) = [index_of[seed] for seed in seeds]
        started.append(index)
        if index == 3:
            raise RuntimeError("trial 3 failed")
        if index > 3:
            time.sleep(0.2)
        return run_trials(instance, config, seeds)

    monkeypatch.setattr(campaign, "run_trials", failing_at_trial_3)
    log = tmp_path / "campaign.log"
    config = campaign_config()
    with pytest.raises(RuntimeError, match="trial 3 failed"):
        run_campaign(torus, config, log_path=log, workers=workers)
    assert len(started) <= 3 + 1 + workers
    assert [record.index for record in read_log(log)] == [0, 1, 2]

    monkeypatch.setattr(campaign, "run_trials", run_trials)
    resumed = run_campaign(torus, config, log_path=log, workers=workers, resume=True)
    assert deterministic_fields(resumed) == deterministic_fields(run_campaign(torus, config))
    assert sorted(record.index for record in read_log(log)) == list(range(12))


def test_rerun_reproduces_summary(torus):
    config = campaign_config()
    a = run_campaign(torus, config)
    b = run_campaign(torus, config)
    assert deterministic_fields(a) == deterministic_fields(b)


def test_resume_runs_only_missing_trials(torus, tmp_path):
    log = tmp_path / "campaign.log"
    config = campaign_config()
    full = run_campaign(torus, config, log_path=log)
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines[:5]) + "\n")
    resumed = run_campaign(torus, config, log_path=log, resume=True)
    assert deterministic_fields(resumed) == deterministic_fields(full)
    assert len(read_log(log)) == 12


def test_resume_without_a_log_is_refused_before_any_trial(torus, tmp_path, monkeypatch):
    # there is nothing to resume, and the trials would be kept nowhere
    monkeypatch.setattr(campaign, "run_trials", lambda *a: pytest.fail("a trial ran"))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="^a resume needs the log of the campaign to finish$"):
        run_campaign(torus, campaign_config(), resume=True)
    assert list(tmp_path.iterdir()) == []


def test_resume_rejects_foreign_log(torus, tmp_path):
    log = tmp_path / "campaign.log"
    run_campaign(torus, campaign_config(sweeps=30), log_path=log)
    ran = CAMPAIGN_777.replace("sweeps=30", "sweeps={}")
    with pytest.raises(ValueError, match=refused_resume(log, ran.format(30), ran.format(99))):
        run_campaign(torus, campaign_config(sweeps=99), log_path=log, resume=True)


def test_resume_rejects_log_with_other_master_seed(torus, tmp_path):
    # same instance/kind/sweeps, but the trial seeds derive from a
    # different master; resuming must not silently adopt them
    log = tmp_path / "campaign.log"
    run_campaign(torus, campaign_config(), log_path=log)
    other = replace(campaign_config(), master_seed=778)
    ran = CAMPAIGN_777.replace("master_seed=777", "master_seed={}")
    with pytest.raises(ValueError, match=refused_resume(log, ran.format(777), ran.format(778))):
        run_campaign(torus, other, log_path=log, resume=True)


def test_resume_rejects_log_with_other_schedule(torus, tmp_path):
    log = tmp_path / "campaign.log"
    config = campaign_config()
    run_campaign(torus, config, log_path=log)
    retuned = replace(config, solver=replace(config.solver, temp_start=5.0))
    ran = CAMPAIGN_777.replace("temp_start=3.0", "temp_start={}")
    with pytest.raises(ValueError, match=refused_resume(log, ran.format(3.0), ran.format(5.0))):
        run_campaign(torus, retuned, log_path=log, resume=True)


@pytest.mark.parametrize("name", ["my t44", "a=b"])
def test_campaign_refuses_an_unloggable_instance_name_before_any_trial(torus, tmp_path,
                                                                       monkeypatch, name):
    # a file's stem names its instance, and a stem may hold a space
    monkeypatch.setattr(campaign, "run_trials", lambda *a: pytest.fail("a trial ran"))
    log = tmp_path / "campaign.log"
    named = ProblemInstance(torus.n, torus.edges, name=name)
    with pytest.raises(ValueError, match=re.escape(f"instance name {name!r} not loggable")):
        run_campaign(named, campaign_config(), log_path=log)
    assert not log.exists()


def test_replay_record_reproduces_best_cut(torus, tmp_path):
    log = tmp_path / "campaign.log"
    run_campaign(torus, campaign_config(num_trials=6), log_path=log)
    for record in read_log(log):
        replay_record(torus, record)


def test_replay_record_detects_tampering(torus):
    record = make_record(0, 1, sweeps=30)
    record = replace(record, seed=int(splitmix64([777], [0])[0, 0]))
    with pytest.raises(RuntimeError, match="replay"):
        replay_record(torus, record)


def test_include_spins_logs_decodable_configs(torus, tmp_path):
    log = tmp_path / "campaign.log"
    run_campaign(torus, campaign_config(num_trials=3), log_path=log, include_spins=True)
    from gsetbench.evaluate import cut_value

    for record in read_log(log):
        spins = decode_hex(record.spins_hex, torus.n)
        assert cut_value(torus, spins) == record.best_cut


def test_sweep_scan_shape(torus):
    # a ladder is one campaign per budget under one master seed
    config = campaign_config(num_trials=8, kind=GREEDY)
    summaries = [run_campaign(torus, replace(config, solver=replace(config.solver, sweeps=s)))
                 for s in (2, 4, 8)]
    assert [s.sweeps_per_trial for s in summaries] == [2, 4, 8]
    for s in summaries:
        assert s.num_trials == 8
        assert s.highest_cut >= s.average_cut
    highs = [s.highest_cut for s in summaries]
    assert highs == sorted(highs)


def test_scan_csv_roundtrip():
    summaries = [
        summarize(record_set([make_record(i, cut, sweeps=sweeps)
                              for i, cut in enumerate(cuts)]))
        for sweeps, cuts in ((10, (14, 7, 10)), (30, (15, 7)))
    ]
    buf = io.StringIO()
    write_scan_csv(summaries, buf)
    parsed = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert parsed == [
        {"sweeps": "10", "highest_cut": "14", "average_cut": "10.33333333"},
        {"sweeps": "30", "highest_cut": "15", "average_cut": "11"},
    ]


def test_summary_csv_has_target_rows(torus):
    config = campaign_config(
        num_trials=10,
        targets=(TargetSpec("easy", 1), TargetSpec("impossible", 10_000)),
    )
    summary = run_campaign(torus, config)
    buf = io.StringIO()
    write_summary_csv(summary.targets, buf)
    parsed = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert len(parsed) == 2
    assert parsed[0]["target"] == "easy"
    assert float(parsed[0]["r"]) == 1.0
    assert parsed[1]["r"] == "unreachable"


def test_read_log_skips_blank_and_comment_lines(tmp_path):
    log = tmp_path / "log.txt"
    record = make_record(0, 5)
    log.write_text(f"# campaign log\n\n{record_line(record)}\n")
    assert list(read_log(log)) == [record]


def test_read_log_rejects_torn_line_glued_to_next_record(torus, tmp_path):
    # a crash cut record 4 short, and the next append landed on its line
    log = tmp_path / "campaign.log"
    config = campaign_config(num_trials=6, sweeps=10, kind=GREEDY)
    run_campaign(torus, config, log_path=log)
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines[:4] + [lines[4][:60] + lines[5]]) + "\n")
    with pytest.raises(ValueError, match="repeats field instance"):
        read_log(log)


def test_read_log_refuses_a_record_of_another_instance_or_schedule(torus, tmp_path,
                                                                  monkeypatch):
    # a log spliced from two campaigns is refused by its reader alone, at
    # the first record that cannot join the first record's columns, even
    # after a duplicate
    config = campaign_config(num_trials=3, sweeps=10, kind=GREEDY)
    runs = "instance=torus:4x4:1 kind=greedy_local_search sweeps=10 master_seed=777"
    others = [(generate_torus(TorusSpec(4, 4, seed=2)), config, runs.replace(":1 ", ":2 ")),
              (torus, replace(config, solver=default_config(GREEDY, 20)),
               runs.replace("sweeps=10", "sweeps=20"))]
    run_campaign(torus, config, log_path=tmp_path / "first.log")
    lines = (tmp_path / "first.log").read_text().splitlines(keepends=True)
    for k, (instance, other_config, ran) in enumerate(others):
        other, spliced = tmp_path / f"other{k}.log", tmp_path / f"spliced{k}.log"
        run_campaign(instance, other_config, log_path=other)
        trial_2 = other.read_text().splitlines(keepends=True)[2]
        spliced.write_text("".join([*lines[:2], lines[1], trial_2, lines[2]]))
        message = f"{spliced}: records mix campaigns: trial 2 ran {ran}, not {runs}"
        with monkeypatch.context() as patch:
            patch.setattr(campaign, "_check_records", lambda *a: pytest.fail("a set was checked"))
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                read_log(spliced)


@pytest.mark.parametrize("text", ["\n# notes\n\n", "# notes, unterminated",
                                  record_line(make_record(0, 5))[:40]])
def test_a_log_without_records_reads_as_none(tmp_path, capsys, text):
    # blank and comment lines, or one torn record, which is left out
    log = tmp_path / "campaign.log"
    log.write_text(text)
    assert read_log(log) is None
    capsys.readouterr()
    note = f"{log}: left out an unterminated last line (40 bytes)\n" if "=" in text else ""
    assert main(["report", str(log)]) == 1
    assert capsys.readouterr().err == f"{note}error: {log}: cannot summarize an empty record set\n"


def test_appends_start_on_a_fresh_line(torus, tmp_path, capsys):
    # a log that holds only an unterminated comment takes a new campaign
    # and a resume alike: the comment is no torn record, so it is kept
    # and read without a note
    config = campaign_config(num_trials=3, sweeps=10, kind=GREEDY)
    for name, resume in (("new.log", False), ("resumed.log", True)):
        log = tmp_path / name
        log.write_text("# greedy on torus:4x4:1")
        assert read_log(log) is None
        run_campaign(torus, config, log_path=log, resume=resume)
        after = log.read_text().splitlines()
        assert after[0] == "# greedy on torus:4x4:1"
        assert [parse_record(line).index for line in after[1:]] == [0, 1, 2]
    assert capsys.readouterr().err == ""


def test_new_campaign_refuses_a_log_that_holds_records(torus, tmp_path):
    log = tmp_path / "campaign.log"
    config = campaign_config(num_trials=3, sweeps=10, kind=GREEDY)
    run_campaign(torus, config, log_path=log)
    before = log.read_bytes()
    for text in (before, before[:40]):
        log.write_bytes(text)
        with pytest.raises(ValueError, match=f"^{log}: already holds records; pass --resume"):
            run_campaign(torus, config, log_path=log)
        assert log.read_bytes() == text
    # blank and comment lines hold no records
    log.write_text("\n# notes\n\n")
    run_campaign(torus, config, log_path=log)
    assert len(read_log(log)) == 3


def test_parse_record_rejects_unknown_fields():
    line = record_line(make_record(0, 5))
    with pytest.raises(ValueError, match="record has unknown field bogus"):
        parse_record(line.replace(" format=3", " bogus=7 format=3"))
    # a record from another log format gets the format message first
    with pytest.raises(ValueError, match="log format '2'"):
        parse_record(line.replace(" format=3", " bogus=7 format=2"))
    with pytest.raises(ValueError, match="log format 1"):
        parse_record(line.replace(" format=3", " bogus=7"))


# each value breaks one rule of a record; the sweep budget is 50
BAD_VALUES = [
    ("index", -1, "trial index must be non-negative, got -1"),
    ("sweeps_executed", 0, "sweeps_executed must be in 1..50, got 0"),
    ("sweeps_executed", 51, "sweeps_executed must be in 1..50, got 51"),
    ("wall_time_s", -1e-9, "wall_time_s must be finite and >= 0, got -1e-09"),
    ("wall_time_s", math.nan, "wall_time_s must be finite and >= 0, got nan"),
    ("wall_time_s", math.inf, "wall_time_s must be finite and >= 0, got inf"),
]


@pytest.mark.parametrize("field, value, message", BAD_VALUES)
def test_a_record_set_refuses_a_bad_row_in_the_words_of_its_record(field, value, message):
    rows = [make_record(i, 5) for i in range(5)]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(rows[2], **{field: value})
    # the first row at fault sits mid-list, and a later one breaks
    # another rule
    columns = record_columns(rows)
    columns[field][2] = value
    columns["sweeps_executed"][4] = 99
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RecordSet(rows[0].instance, rows[0].solver, **columns)
    # a log line gets the same words, after its trial's
    line = re.sub(rf"(?<!\S){field}=\S+", f"{field}={value}", record_line(rows[2]))
    trial = value if field == "index" else 2
    with pytest.raises(ValueError, match=f"^trial {trial}: {re.escape(message)}$"):
        parse_record(line)


def test_a_record_holds_what_a_record_set_column_can():
    for field in ("index", "best_cut", "sweeps_executed"):
        record = replace(make_record(0, 5), solver=SolverConfig(GREEDY, 2**64))
        values = {"index": 0, "best_cut": 5, "sweeps_executed": 50, field: 2**63}
        message = ("index, best_cut and sweeps_executed must fit in int64, got "
                   "{index}, {best_cut} and {sweeps_executed}".format(**values))
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(record, **{field: 2**63})
    # a seed fits its uint64 column by the seed's own rule
    assert replace(make_record(0, 5), best_cut=-(2**63)).best_cut == -(2**63)


def mixed_record(index, cut):
    """Trial ``index`` of make_record's campaign under another master seed."""
    return replace(make_record(index, cut), seed=int(splitmix64([2], [index])[0, 0]))


@pytest.mark.parametrize("rows, message", [
    # an earlier duplicate precedes a later master-seed mix
    ([make_record(0, 5), make_record(1, 5), make_record(1, 6), mixed_record(3, 5)],
     "duplicate trial index 1"),
    # but a record of another schedule is refused when the log is read,
    # before any duplicate or master-seed mix
    ([make_record(0, 5), make_record(1, 5), make_record(1, 6),
      make_record(3, 5, sweeps=60)],
     "records mix campaigns: trial 3 ran instance=torus:4x4:1 kind=simulated_annealing "
     "sweeps=60 temp_start=3.0 temp_end=0.05 master_seed=1, not instance=torus:4x4:1 "
     "kind=simulated_annealing sweeps=50 temp_start=3.0 temp_end=0.05 master_seed=1"),
    # and a mix precedes a later duplicate
    ([make_record(0, 5), mixed_record(1, 5), make_record(0, 6)],
     "records mix campaigns: trial 1 ran instance=torus:4x4:1 kind=simulated_annealing "
     "sweeps=50 temp_start=3.0 temp_end=0.05 master_seed=2, not instance=torus:4x4:1 "
     "kind=simulated_annealing sweeps=50 temp_start=3.0 temp_end=0.05 master_seed=1"),
    # a record that is both a mix and a duplicate is named as a mix
    ([make_record(0, 5), mixed_record(0, 6)],
     "records mix campaigns: trial 0 ran instance=torus:4x4:1 kind=simulated_annealing "
     "sweeps=50 temp_start=3.0 temp_end=0.05 master_seed=2, not instance=torus:4x4:1 "
     "kind=simulated_annealing sweeps=50 temp_start=3.0 temp_end=0.05 master_seed=1"),
    ([make_record(0, 5), make_record(1, 5, sweeps=60), make_record(0, 6)],
     "records mix campaigns: trial 1 ran instance=torus:4x4:1 kind=simulated_annealing "
     "sweeps=60 temp_start=3.0 temp_end=0.05 master_seed=1, not instance=torus:4x4:1 "
     "kind=simulated_annealing sweeps=50 temp_start=3.0 temp_end=0.05 master_seed=1"),
])
def test_the_first_record_at_fault_is_named(tmp_path, rows, message):
    log = tmp_path / "campaign.log"
    log.write_text("".join(record_line(r) + "\n" for r in rows))
    if len({(r.instance, r.solver) for r in rows}) > 1:
        # a row of another schedule cannot join the first row's columns
        with pytest.raises(ValueError, match=f"^{re.escape(f'{log}: {message}')}$"):
            read_log(log)
        return
    for records in (read_log(log), record_set(rows)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            summarize(records)


def test_an_index_past_the_trial_count_is_named_after_an_earlier_fault(torus, tmp_path):
    log = tmp_path / "campaign.log"
    config = campaign_config(num_trials=6, sweeps=10, kind=GREEDY)
    run_campaign(torus, config, log_path=log)
    lines = log.read_text().splitlines()
    for order, message in (((1, 1, 5), "duplicate trial index 1"),
                           ((0, 5, 1), "trial index 5 outside 0..3")):
        log.write_text("".join(lines[i] + "\n" for i in order))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{log}: {message}')}$"):
            run_campaign(torus, replace(config, num_trials=4), log_path=log, resume=True)


@pytest.mark.parametrize("kind", [ANNEALING, GREEDY])
def test_a_campaign_without_resume_builds_no_trial_record(torus, tmp_path, monkeypatch, kind):
    def refused(self):
        raise AssertionError("a TrialRecord was built")

    log = tmp_path / "campaign.log"
    config = campaign_config(num_trials=400, kind=kind, targets=(TargetSpec("t", 8),))
    monkeypatch.setattr(TrialRecord, "__post_init__", refused)
    summary = run_campaign(torus, config, log_path=log, include_spins=True)
    monkeypatch.undo()
    # reading the log makes its rows; summarizing its set and checking it
    # for a resume of the finished campaign make none
    records = read_log(log)
    monkeypatch.setattr(TrialRecord, "__post_init__", refused)
    assert summary == summarize(records, config.targets)
    monkeypatch.setattr(campaign, "_read_records", lambda path, data: (records, len(data)))
    resumed = run_campaign(torus, config, log_path=log, resume=True, include_spins=True)
    assert resumed == summary


@pytest.mark.parametrize("kind", [ANNEALING, GREEDY])
@pytest.mark.parametrize("include_spins", [False, True])
@pytest.mark.parametrize("torn", [False, True])
def test_a_record_set_summarizes_as_its_rows_and_its_log(torus, tmp_path, monkeypatch, kind,
                                                        include_spins, torn):
    # five trials per batch, each batch with its own wall time
    monkeypatch.setattr(campaign, "_BATCH_SPINS", 5 * torus.n)
    kept = []

    def keeping(records, targets=()):
        kept.append(records)
        return summarize(records, targets)

    monkeypatch.setattr(campaign, "summarize", keeping)
    log = tmp_path / "campaign.log"
    config = campaign_config(num_trials=23, kind=kind,
                             targets=(TargetSpec("low", 6), TargetSpec("high", 10)))
    run_campaign(torus, config, log_path=log, include_spins=include_spins)
    if torn:
        # a crash tore record 9 and lost the rest; the resume runs them again
        lines = log.read_text().splitlines(keepends=True)
        log.write_text("".join(lines[:9]) + lines[9][:50])
        kept.clear()
        run_campaign(torus, config, log_path=log, resume=True, include_spins=include_spins)
    (records,) = kept
    assert isinstance(records, campaign.RecordSet)
    assert len(np.unique(records.wall_time_s)) > 1
    rows = list(records)
    assert sorted(rows, key=lambda r: r.index) == list(read_log(log))
    summary = summarize(records, config.targets)
    for other in (record_set(rows[::-1]), read_log(log)):
        again = summarize(other, config.targets)
        assert again == summary
        assert again.avg_trial_time_s.hex() == summary.avg_trial_time_s.hex()
