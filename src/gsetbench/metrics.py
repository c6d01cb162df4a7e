"""Time-to-target benchmarking math.

Given repeated independent solver trials, the expected number of
repetitions needed to reach a target cut at least once with confidence
c is

    r = ln(1 - c) / ln(1 - P_s),    floored at 1,

where P_s = successes / trials is the per-trial success probability.
r is real-valued on purpose (it is an expectation, not a schedule) and
is not rounded up. Sweeps-to-target multiplies r by the per-trial
sweep budget; time-to-target multiplies by the per-trial wall time.
A sweeps-to-target figure is projected onto special-purpose hardware
by multiplying with a per-sweep time of 2 ns per full sweep.
This is the time-to-solution of Rønnow et al., "Defining and detecting
quantum speedup" (Science 2014).

``TargetOutcome`` is the one record of a campaign against one target:
it keeps the integer counts and derives every figure above from them.
``write_summary_csv`` writes a table of outcomes.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

DEFAULT_CONFIDENCE = 0.99
DEFAULT_HW_SWEEP_TIME_S = 2e-9

# what a word of key=value output cannot hold; \s matches exactly the
# characters str.isspace() calls whitespace
_UNLOGGABLE = re.compile(r"[\s=]")


@dataclass(frozen=True)
class TargetSpec:
    """A named target cut with the confidence used for r. The label is
    one word of a summary's key=value output: nonempty, with no
    whitespace and no ``=``."""

    label: str
    cut: int
    confidence: float = DEFAULT_CONFIDENCE

    def __post_init__(self) -> None:
        if not self.label or _UNLOGGABLE.search(self.label):
            raise ValueError(f"target label must be nonempty, without whitespace "
                             f"or '=', got {self.label!r}")
        if not (0.0 < self.confidence < 1.0):
            raise ValueError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )


def repetitions_to_target(p_s: float, confidence: float = DEFAULT_CONFIDENCE) -> float:
    """Expected repetitions to hit the target once with the given confidence.

    A target never reached (p_s = 0) has no finite count and is refused.
    """
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if not (0.0 < p_s <= 1.0):
        raise ValueError(f"success probability must be in (0, 1], got {p_s}")
    if p_s == 1.0:
        return 1.0
    return max(1.0, math.log(1.0 - confidence) / math.log(1.0 - p_s))


def project_hw_ttt(stt_sweeps: float) -> float:
    """Wall time implied by a sweeps-to-target figure at
    ``DEFAULT_HW_SWEEP_TIME_S`` per sweep."""
    if not (0 < stt_sweeps < math.inf):
        raise ValueError(f"sweeps to target must be positive and finite, got {stt_sweeps}")
    seconds = stt_sweeps * DEFAULT_HW_SWEEP_TIME_S
    # the product cannot overflow, but a positive stt below about 1e-315
    # underflows to 0
    if seconds == 0:
        raise ValueError(f"projected time {stt_sweeps:g} sweeps x {DEFAULT_HW_SWEEP_TIME_S:g} s "
                         "is outside the range of a double")
    return seconds


@dataclass(frozen=True)
class TargetOutcome:
    """Success counts of one campaign against one ``TargetSpec``, and the
    time-to-target figures derived from them.

    Counts are kept as integers; every figure is derived on demand so no
    rounding is baked in. Each figure is None when the target was never
    reached, and ``ttt_s`` is also None when no trial time is known.
    """

    target: TargetSpec
    successes: int
    trials: int
    sweeps_per_trial: int
    trial_time_s: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.target, TargetSpec):
            raise TypeError(f"target must be a TargetSpec, got {self.target!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if not (0 <= self.successes <= self.trials):
            raise ValueError(f"successes must be in 0..{self.trials}, got {self.successes}")
        if self.sweeps_per_trial < 1:
            raise ValueError(
                f"sweeps_per_trial must be positive, got {self.sweeps_per_trial}"
            )

    @property
    def p_s(self) -> float:
        return self.successes / self.trials

    @property
    def repetitions(self) -> float | None:
        if self.successes == 0:
            return None
        return repetitions_to_target(self.p_s, self.target.confidence)

    @property
    def stt_sweeps(self) -> float | None:
        r = self.repetitions
        return None if r is None else self.sweeps_per_trial * r

    @property
    def ttt_s(self) -> float | None:
        # no positivity check: a log whose wall times all read 0 reports ttt_s=0
        r = self.repetitions
        if r is None or self.trial_time_s is None:
            return None
        return self.trial_time_s * r

    @property
    def hw_ttt_s(self) -> float | None:
        stt = self.stt_sweeps
        return None if stt is None else project_hw_ttt(stt)


def write_summary_csv(outcomes, stream) -> None:
    """One row per target outcome.

    The figures of a target never reached read ``unreachable``; a
    time-to-target without a known trial time is left empty.
    """
    writer = csv.writer(stream)
    writer.writerow(
        ["target", "target_cut", "successes", "trials", "r",
         "stt_sweeps", "ttt_s", "hw_ttt_s"]
    )
    for t in outcomes:
        figures = (t.repetitions, t.stt_sweeps, t.ttt_s, t.hw_ttt_s)
        if t.successes == 0:
            cells = ["unreachable"] * len(figures)
        else:
            cells = ["" if v is None else f"{v:.10g}" for v in figures]
        writer.writerow([t.target.label, t.target.cut, t.successes, t.trials, *cells])
