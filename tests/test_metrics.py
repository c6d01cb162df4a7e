import csv
import io
import math
import re
from dataclasses import replace

import pytest

from gsetbench.metrics import (
    TargetOutcome,
    TargetSpec,
    project_hw_ttt,
    repetitions_to_target,
    write_summary_csv,
)


def test_repetitions_basic_points():
    assert repetitions_to_target(1.0) == 1.0
    # high success probability clamps at one repetition
    assert repetitions_to_target(0.999) == 1.0
    r = repetitions_to_target(0.66)
    assert math.isclose(r, math.log(0.01) / math.log(0.34))
    assert repetitions_to_target(0.5, confidence=0.75) == 2.0


def test_repetitions_errors():
    with pytest.raises(ValueError, match=re.escape("must be in (0, 1], got 0.0")):
        repetitions_to_target(0.0)
    with pytest.raises(ValueError):
        repetitions_to_target(1.5)
    with pytest.raises(ValueError):
        repetitions_to_target(-0.1)
    with pytest.raises(ValueError):
        repetitions_to_target(0.5, confidence=1.0)
    with pytest.raises(ValueError):
        repetitions_to_target(0.5, confidence=0.0)


def test_sweeps_and_time_to_target_scale_repetitions():
    r = repetitions_to_target(0.66)
    row = TargetOutcome(TargetSpec("t", 50), successes=66, trials=100,
                        sweeps_per_trial=80_000, trial_time_s=0.25)
    assert row.stt_sweeps == 80_000 * r
    assert row.ttt_s == 0.25 * r
    with pytest.raises(ValueError, match="sweeps_per_trial must be positive"):
        replace(row, sweeps_per_trial=0)


def test_hardware_projection():
    assert project_hw_ttt(234_000) == pytest.approx(4.68e-4)
    with pytest.raises(ValueError):
        project_hw_ttt(0)
    # positive and finite, but the product underflows to 0
    with pytest.raises(ValueError, match="projected time 1e-316 sweeps x 2e-09 s is outside "
                                         "the range of a double"):
        project_hw_ttt(1e-316)
    assert project_hw_ttt(1e308) == 2e299
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"sweeps to target .* finite, got {bad}"):
            project_hw_ttt(bad)


def test_target_spec_validation():
    assert TargetSpec("best", 100).confidence == 0.99
    with pytest.raises(ValueError):
        TargetSpec("bad", 100, confidence=1.0)
    # a label is one word of key=value output, as an instance name is
    for label in ("", "a b", "x=y", "a\nb", "a\u2003b"):
        with pytest.raises(ValueError, match="target label must be nonempty"):
            TargetSpec(label, 100)
    assert TargetSpec("99.9%:x", 100).label == "99.9%:x"


def outcome(successes, trials, sweeps_per_trial, trial_time_s=None, **kw):
    return TargetOutcome(
        target=TargetSpec(kw.pop("label", "opt"), kw.pop("cut", 50), kw.pop("confidence", 0.99)),
        successes=successes,
        trials=trials,
        sweeps_per_trial=sweeps_per_trial,
        trial_time_s=trial_time_s,
    )


@pytest.mark.parametrize("label, confidence, message", [
    ("a b", 0.5, "target label must be nonempty"),
    ("a=b", 0.5, "target label must be nonempty"),
    ("a", 1.5, "confidence must be in (0, 1), got 1.5"),
    ("a", 0.0, "confidence must be in (0, 1), got 0.0"),
])
def test_an_outcome_holds_only_a_target_its_spec_accepts(label, confidence, message):
    # the target's label, cut and confidence exist only as a TargetSpec, so
    # no outcome carries a target the spec refuses into a summary or a CSV
    with pytest.raises(ValueError, match=re.escape(message)):
        TargetOutcome(TargetSpec(label, 5, confidence), successes=1, trials=2,
                      sweeps_per_trial=10)
    with pytest.raises(TypeError):
        TargetOutcome(label, 5, confidence, 1, 2, 10, 1.0)
    with pytest.raises(TypeError, match="target must be a TargetSpec"):
        TargetOutcome((label, 5, confidence), successes=1, trials=2, sweeps_per_trial=10)


def test_target_outcome_validation_and_probability():
    stats = outcome(successes=7, trials=100, sweeps_per_trial=50)
    # stored as integers: deriving the count back is exact
    assert round(stats.p_s * stats.trials) == stats.successes
    assert outcome(successes=66, trials=100, sweeps_per_trial=1).p_s == 0.66
    assert outcome(successes=0, trials=5, sweeps_per_trial=1).p_s == 0.0
    assert outcome(successes=5, trials=5, sweeps_per_trial=1).p_s == 1.0
    with pytest.raises(ValueError, match=re.escape("successes must be in 0..4, got 5")):
        outcome(successes=5, trials=4, sweeps_per_trial=1)
    with pytest.raises(ValueError, match=re.escape("successes must be in 0..5, got -1")):
        outcome(successes=-1, trials=5, sweeps_per_trial=1)
    with pytest.raises(ValueError, match="trials must be positive, got 0"):
        outcome(successes=0, trials=0, sweeps_per_trial=1)
    with pytest.raises(ValueError):
        outcome(successes=0, trials=1, sweeps_per_trial=0)


def test_target_outcome_derivations():
    row = outcome(successes=66, trials=100, sweeps_per_trial=80_000, trial_time_s=0.5)
    r = repetitions_to_target(0.66)
    assert row.repetitions == r
    assert row.stt_sweeps == 80_000 * r
    assert row.ttt_s == 0.5 * r
    assert row.hw_ttt_s == pytest.approx(80_000 * r * 2e-9)
    # the confidence carries through to r
    assert outcome(66, 100, 1, confidence=0.9).repetitions == repetitions_to_target(
        0.66, confidence=0.9
    )
    # no trial time: sweeps figures only
    untimed = outcome(successes=66, trials=100, sweeps_per_trial=80_000)
    assert untimed.ttt_s is None
    assert untimed.stt_sweeps is not None
    # a zero trial time (all wall times logged as 0) is a figure, not an error
    assert outcome(successes=5, trials=10, sweeps_per_trial=5, trial_time_s=0.0).ttt_s == 0.0


def test_target_outcome_unreachable_target():
    row = outcome(successes=0, trials=10, sweeps_per_trial=100, trial_time_s=0.5)
    assert row.repetitions is None
    assert row.stt_sweeps is None
    assert row.ttt_s is None
    assert row.hw_ttt_s is None


def test_metrics_csv_rendering():
    rows = [
        outcome(successes=9, trials=10, sweeps_per_trial=50, trial_time_s=0.001,
                label="a", cut=10),
        outcome(successes=0, trials=10, sweeps_per_trial=50, label="b", cut=10),
        outcome(successes=5, trials=10, sweeps_per_trial=50, label="c", cut=10),
    ]
    buf = io.StringIO()
    write_summary_csv(rows, buf)
    parsed = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert list(parsed[0]) == [
        "target", "target_cut", "successes", "trials", "r",
        "stt_sweeps", "ttt_s", "hw_ttt_s",
    ]
    assert len(parsed) == 3
    assert parsed[0]["target"] == "a"
    assert float(parsed[0]["r"]) == pytest.approx(repetitions_to_target(0.9))
    assert float(parsed[0]["ttt_s"]) == pytest.approx(0.001 * repetitions_to_target(0.9))
    assert parsed[1]["r"] == "unreachable"
    assert parsed[1]["stt_sweeps"] == "unreachable"
    assert parsed[1]["hw_ttt_s"] == "unreachable"
    # reachable but untimed: the time column is empty, the rest is filled
    assert parsed[2]["ttt_s"] == ""
    assert float(parsed[2]["stt_sweeps"]) == pytest.approx(50 * repetitions_to_target(0.5))
