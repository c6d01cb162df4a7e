import csv
import io
import sys
from dataclasses import replace

import pytest

from gsetbench.campaign import (
    CampaignConfig,
    ScanRow,
    TrialRecord,
    decode_record_spins,
    format_record,
    mix_seed,
    parse_record,
    read_log,
    replay_record,
    run_campaign,
    summarize,
    sweep_scan,
    write_scan_csv,
)
from gsetbench.instances import TorusSpec, generate_torus
from gsetbench.metrics import TargetSpec, write_summary_csv
from gsetbench.solvers import ANNEALING, GREEDY, default_config


def make_record(index, cut, sweeps=50, time=0.001, **kw):
    return TrialRecord(
        index=index,
        instance="torus:4x4:1",
        kind=ANNEALING,
        sweeps=sweeps,
        seed=mix_seed(1, index),
        best_cut=cut,
        sweeps_executed=sweeps,
        wall_time_s=time,
        temp_start=3.0,
        temp_end=0.05,
        **kw,
    )


def test_mix_seed_reference_vectors():
    # first three outputs of the reference SplitMix64 stream from 1234567
    assert [mix_seed(1234567, i) for i in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_mix_seed_validation_and_spread():
    with pytest.raises(ValueError):
        mix_seed(-1, 0)
    with pytest.raises(ValueError):
        mix_seed(2**64, 0)
    with pytest.raises(ValueError):
        mix_seed(0, -1)
    seeds = {mix_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)


def test_campaign_config_validation():
    solver = default_config(GREEDY, 10, seed=0)
    with pytest.raises(ValueError, match="num_trials"):
        CampaignConfig(instance_name="x", solver=solver, num_trials=0, master_seed=1)
    with pytest.raises(ValueError, match="64 bits"):
        CampaignConfig(instance_name="x", solver=solver, num_trials=1, master_seed=-1)
    with pytest.raises(ValueError, match="strictly increasing"):
        CampaignConfig(
            instance_name="x", solver=solver, num_trials=1, master_seed=1,
            sweep_scan=(10, 10),
        )
    with pytest.raises(ValueError, match="nonempty"):
        CampaignConfig(
            instance_name="x", solver=solver, num_trials=1, master_seed=1,
            sweep_scan=(),
        )


def test_record_roundtrip():
    record = make_record(3, 9, spins_hex="c318")
    assert parse_record(format_record(record)) == record
    bare = TrialRecord(
        index=0, instance="g", kind=GREEDY, sweeps=5, seed=7,
        best_cut=4, sweeps_executed=2, wall_time_s=0.5,
    )
    assert parse_record(format_record(bare)) == bare


def test_parse_record_rejects_malformed_lines():
    with pytest.raises(ValueError, match="malformed"):
        parse_record("index=0 what")
    with pytest.raises(ValueError, match="missing field"):
        parse_record("index=0 instance=x kind=greedy_local_search")


def test_parse_record_refuses_other_log_formats():
    line = format_record(make_record(0, 5, spins_hex="c318"))
    assert line.endswith(" format=2")
    with pytest.raises(ValueError, match="log format 1.*re-run the campaign"):
        parse_record(line[: -len(" format=2")])
    with pytest.raises(ValueError, match="log format '3'"):
        parse_record(line[:-1] + "3")


def test_summarize_aggregates():
    records = [make_record(i, cut) for i, cut in enumerate((5, 5, 7, 9))]
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
    a = summarize(records, targets=(TargetSpec("t", 7),))
    b = summarize(list(reversed(records)), targets=(TargetSpec("t", 7),))
    assert a == b


def test_summarize_unreachable_target():
    records = [make_record(i, 5) for i in range(4)]
    outcome = summarize(records, targets=(TargetSpec("high", 100),)).targets[0]
    assert outcome.successes == 0
    assert outcome.repetitions is None
    assert outcome.stt_sweeps is None
    assert outcome.ttt_s is None


def test_summarize_rejects_bad_record_sets():
    with pytest.raises(ValueError, match="empty"):
        summarize([])
    with pytest.raises(ValueError, match="mix"):
        summarize([make_record(0, 5), make_record(1, 5, sweeps=60)])
    with pytest.raises(ValueError, match="duplicate"):
        summarize([make_record(0, 5), make_record(0, 6)])


def test_single_trial_summary_degenerates():
    summary = summarize([make_record(0, 7)])
    assert summary.highest_cut == summary.min_cut == summary.average_cut == 7


@pytest.fixture
def torus():
    return generate_torus(TorusSpec(4, 4, seed=1))


def campaign_config(num_trials=12, sweeps=30, kind=ANNEALING, **kw):
    return CampaignConfig(
        instance_name="torus:4x4:1",
        solver=default_config(kind, sweeps, seed=0),
        num_trials=num_trials,
        master_seed=777,
        **kw,
    )


def test_run_campaign_writes_one_record_per_trial(torus, tmp_path):
    log = tmp_path / "campaign.log"
    summary = run_campaign(torus, campaign_config(), log_path=log)
    records = read_log(log)
    assert len(records) == 12
    assert sorted(r.index for r in records) == list(range(12))
    assert {r.seed for r in records} == {mix_seed(777, i) for i in range(12)}
    assert summarize(records).deterministic_fields() == summary.deterministic_fields()


def test_parallel_equals_serial(torus):
    config = campaign_config(num_trials=16)
    serial = run_campaign(torus, config, workers=1)
    parallel = run_campaign(torus, config, workers=4)
    assert serial.deterministic_fields() == parallel.deterministic_fields()


def test_parallel_batches_on_a_fresh_instance_equal_serial():
    # more workers than cores, frequent thread switches, and a layout
    # that the first batches must build while the others wait
    config = CampaignConfig(
        instance_name="torus:6x6:2",
        solver=default_config(ANNEALING, 10, seed=0),
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
    assert parallel.deterministic_fields() == serial.deterministic_fields()


def test_rerun_reproduces_summary(torus):
    config = campaign_config()
    a = run_campaign(torus, config)
    b = run_campaign(torus, config)
    assert a.deterministic_fields() == b.deterministic_fields()


def test_resume_runs_only_missing_trials(torus, tmp_path):
    log = tmp_path / "campaign.log"
    config = campaign_config()
    full = run_campaign(torus, config, log_path=log)
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines[:5]) + "\n")
    resumed = run_campaign(torus, config, log_path=log, resume=True)
    assert resumed.deterministic_fields() == full.deterministic_fields()
    assert len(read_log(log)) == 12


def test_resume_rejects_foreign_log(torus, tmp_path):
    log = tmp_path / "campaign.log"
    run_campaign(torus, campaign_config(sweeps=30), log_path=log)
    with pytest.raises(ValueError, match="different campaign"):
        run_campaign(torus, campaign_config(sweeps=99), log_path=log, resume=True)


def test_resume_rejects_log_with_other_master_seed(torus, tmp_path):
    # same instance/kind/sweeps, but the trial seeds derive from a
    # different master; resuming must not silently adopt them
    log = tmp_path / "campaign.log"
    run_campaign(torus, campaign_config(), log_path=log)
    other = replace(campaign_config(), master_seed=778)
    with pytest.raises(ValueError, match="master seed"):
        run_campaign(torus, other, log_path=log, resume=True)


def test_resume_rejects_log_with_other_schedule(torus, tmp_path):
    log = tmp_path / "campaign.log"
    config = campaign_config()
    run_campaign(torus, config, log_path=log)
    retuned = replace(config, solver=replace(config.solver, temp_start=5.0))
    with pytest.raises(ValueError, match="temperature schedule"):
        run_campaign(torus, retuned, log_path=log, resume=True)


def test_campaign_rejects_instance_name_mismatch(torus):
    config = CampaignConfig(
        instance_name="torus:9x9:9",
        solver=default_config(GREEDY, 5, seed=0),
        num_trials=2,
        master_seed=1,
    )
    with pytest.raises(ValueError, match="names instance"):
        run_campaign(torus, config)


def test_replay_record_reproduces_best_cut(torus, tmp_path):
    log = tmp_path / "campaign.log"
    run_campaign(torus, campaign_config(num_trials=6), log_path=log)
    for record in read_log(log):
        replay_record(torus, record)


def test_replay_record_detects_tampering(torus):
    record = replace(make_record(0, 1, sweeps=30), seed=mix_seed(777, 0))
    with pytest.raises(RuntimeError, match="replay"):
        replay_record(torus, record)


def test_include_spins_logs_decodable_configs(torus, tmp_path):
    log = tmp_path / "campaign.log"
    run_campaign(torus, campaign_config(num_trials=3), log_path=log, include_spins=True)
    from gsetbench.evaluate import cut_value

    for record in read_log(log):
        spins = decode_record_spins(record, torus.n)
        assert cut_value(torus, spins) == record.best_cut
    plain = make_record(0, 5)
    with pytest.raises(ValueError, match="without spins"):
        decode_record_spins(plain, torus.n)


def test_sweep_scan_shape(torus):
    config = campaign_config(num_trials=8, kind=GREEDY, sweep_scan=(2, 4, 8))
    rows = sweep_scan(torus, config)
    assert [r.sweeps for r in rows] == [2, 4, 8]
    for row in rows:
        assert row.highest_cut >= row.average_cut
    highs = [r.highest_cut for r in rows]
    assert highs == sorted(highs)


def test_sweep_scan_requires_ladder(torus):
    with pytest.raises(ValueError, match="ladder"):
        sweep_scan(torus, campaign_config())


def test_scan_csv_roundtrip():
    rows = [ScanRow(10, 14, 10.3), ScanRow(30, 15, 11.0)]
    buf = io.StringIO()
    write_scan_csv(rows, buf)
    parsed = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert parsed[0] == {"sweeps": "10", "highest_cut": "14", "average_cut": "10.3"}


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
    log.write_text(f"# campaign log\n\n{format_record(record)}\n")
    assert read_log(log) == [record]


def test_read_log_rejects_torn_line_glued_to_next_record(torus, tmp_path):
    # a crash cut record 4 short, and the next append landed on its line
    log = tmp_path / "campaign.log"
    config = campaign_config(num_trials=6, sweeps=10, kind=GREEDY)
    run_campaign(torus, config, log_path=log)
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines[:4] + [lines[4][:60] + lines[5]]) + "\n")
    with pytest.raises(ValueError, match="repeats field instance"):
        read_log(log)


def test_appends_start_on_a_fresh_line(torus, tmp_path):
    log = tmp_path / "campaign.log"
    config = campaign_config(num_trials=3, sweeps=10, kind=GREEDY)
    run_campaign(torus, config, log_path=log)
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines[:2]) + "\n" + lines[2][:40])
    run_campaign(torus, config, log_path=log)
    after = log.read_text().splitlines()
    assert after[:3] == lines[:2] + [lines[2][:40]]
    assert [parse_record(line).index for line in after[3:]] == [0, 1, 2]
