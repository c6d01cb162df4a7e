"""Multi-trial solver campaigns with persistent, replayable logs.

A campaign runs ``num_trials`` independent trials of one solver config
on one instance. Trial i's seed is word i of the stream seeded at the
campaign master seed: each batch takes its trials' seeds from one
``solvers.splitmix64`` call, the function that draws every trial's
spins and uniforms, so the set of trials is the same regardless of
worker count or execution order, campaigns are reproducible across
runs, and any single logged trial can be re-run in isolation.
SplitMix64's output mix is a bijection, so ``master_seed_of`` recovers
a record's master seed from its seed and index.

Trials run in batches through the solvers' batched kernel. Each
finished trial appends one self-describing key=value line to the log,
ending in ``format=3``, and the stream is flushed per batch, so a
crashed campaign can be resumed from whatever records made it to disk;
a report and a resume read and check it by one rule, in which only a
terminated line is a record. ``trial_records`` is the one place records
are made, a batch's at a time, for campaigns and single ``solve`` runs
alike, and ``format_records`` the one place they are written. The batch
builder rounds the wall time once to the value the lines hold, so a
record reads back from its line unchanged and a campaign summarizes the
records it wrote, as a later report of the log does. Summaries aggregate
only order-insensitive quantities over the record set, which is what
makes parallel output identical to serial output; their per-target
figures are ``metrics.TargetOutcome`` objects.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from gsetbench.codec import encode_hex
from gsetbench.instances import ProblemInstance, _ascii_float, _decimal, _read_utf8, check_seed
from gsetbench.metrics import _UNLOGGABLE, TargetOutcome, TargetSpec
from gsetbench.solvers import (
    SPLITMIX_GAMMA,
    SPLITMIX_MULTIPLIERS,
    SolverConfig,
    TrialResult,
    run_trial,
    run_trials,
    splitmix64,
)

# Version of the trial streams a log's records replay under. Format 3
# draws every trial's words from counter-based SplitMix64 streams;
# format 2 logs came from per-trial numpy PCG64 streams and format 1
# logs from a shuffled per-spin loop, and neither can be replayed.
LOG_FORMAT = "3"

# A batch holds at most this many spins (trials x n), which keeps its
# arrays to a few MB whatever the instance size.
_BATCH_SPINS = 1 << 18

_MASK64 = (1 << 64) - 1
_UNMIX_1, _UNMIX_2 = (pow(m, -1, 1 << 64) for m in SPLITMIX_MULTIPLIERS)


def master_seed_of(seed, index):
    """The master seed whose trial ``index`` gets ``seed``, the master
    seed m with ``splitmix64([m], [index])`` equal to ``seed``: it undoes
    that word's steps (an addition, xorshifts, products with odd
    constants), each a bijection of 64-bit words. A right xorshift by
    s >= 22 is undone by xoring in the word shifted by s and 2s.

    ``seed`` and ``index`` are ints, or uint64 arrays, whose arithmetic
    wraps modulo 2^64 and makes the mask a no-op, for a record set's
    master seeds in one pass.
    """
    z = ((seed ^ (seed >> 31) ^ (seed >> 62)) * _UNMIX_2) & _MASK64
    z = ((z ^ (z >> 27) ^ (z >> 54)) * _UNMIX_1) & _MASK64
    z ^= (z >> 30) ^ (z >> 60)
    return (z - (index + 1) * SPLITMIX_GAMMA) & _MASK64


@dataclass(frozen=True)
class CampaignConfig:
    """What to run on the instance ``run_campaign`` is given: solver
    config, trial count, targets.

    Every trial runs ``solver`` under its own seed, mixed from the
    master seed. A sweep ladder is one campaign per budget, each with
    the config's sweeps replaced and the same master seed.
    """

    solver: SolverConfig
    num_trials: int
    master_seed: int
    targets: tuple[TargetSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.num_trials < 1:
            raise ValueError(f"num_trials must be positive, got {self.num_trials}")
        object.__setattr__(self, "master_seed", check_seed(self.master_seed, "master seed"))


@dataclass(frozen=True)
class TrialRecord:
    """One logged trial: the solver config and seed it ran, enough to
    replay it exactly, and what it found."""

    index: int
    instance: str
    solver: SolverConfig
    seed: int
    best_cut: int
    sweeps_executed: int
    wall_time_s: float
    spins_hex: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.index < 0:
            raise ValueError(f"trial index must be non-negative, got {self.index}")
        if not (1 <= self.sweeps_executed <= self.solver.sweeps):
            raise ValueError(f"sweeps_executed must be in 1..{self.solver.sweeps}, "
                             f"got {self.sweeps_executed}")
        if not (0.0 <= self.wall_time_s < math.inf):
            raise ValueError(f"wall_time_s must be finite and >= 0, got {self.wall_time_s}")

    @property
    def campaign(self) -> tuple:
        """(instance, solver config, master seed): one campaign's records share it."""
        return self.instance, self.solver, master_seed_of(self.seed, self.index)


def _campaign_text(campaign: tuple) -> str:
    """A campaign identity in the log's key=value words."""
    instance, solver, master_seed = campaign
    words = f"instance={instance} kind={solver.kind} sweeps={solver.sweeps}"
    if solver.temp_start is not None:
        words += f" temp_start={solver.temp_start!r} temp_end={solver.temp_end!r}"
    return f"{words} master_seed={master_seed}"


def check_loggable(instance_name: str) -> None:
    """Refuse an instance name that a record's key=value words cannot hold."""
    if _UNLOGGABLE.search(instance_name):
        raise ValueError(f"instance name {instance_name!r} not loggable")


def format_records(records) -> str:
    """The log lines of ``records``, each ending in a newline. The words
    of a record's campaign but its master seed, and its wall time, are
    formatted once for each run of records sharing them, as a batch's
    records share one instance name, solver config and wall time."""
    lines = []
    instance = solver = wall = None
    for r in records:
        if r.wall_time_s is not wall:
            wall = r.wall_time_s
            wall_text = f"{wall:.6e}"
        if r.instance is not instance or r.solver is not solver:
            instance, solver = r.instance, r.solver
            check_loggable(instance)
            words = f"instance={instance} kind={solver.kind} sweeps={solver.sweeps}"
            temps = ""
            if solver.temp_start is not None:
                temps += f" temp_start={solver.temp_start!r}"
            if solver.temp_end is not None:
                temps += f" temp_end={solver.temp_end!r}"
        spins = "" if r.spins_hex is None else f" spins={r.spins_hex}"
        # format last, so that a record cut short anywhere lacks it
        lines.append(f"index={r.index} {words} seed={r.seed} best_cut={r.best_cut} "
                     f"sweeps_executed={r.sweeps_executed} wall_time_s={wall_text}"
                     f"{temps}{spins} format={LOG_FORMAT}\n")
    return "".join(lines)


def format_record(record: TrialRecord) -> str:
    """The log line of ``record``, without its newline."""
    return format_records([record])[:-1]


_REQUIRED_FIELDS = ("index", "instance", "kind", "sweeps", "seed", "best_cut",
                    "sweeps_executed", "wall_time_s")
_RECORD_FIELDS = {*_REQUIRED_FIELDS, "temp_start", "temp_end", "spins", "format"}


def parse_record(line: str) -> TrialRecord:
    """A log line as a record.

    A missing field, another log format and an unknown field are refused
    in that order; then the record is built, so a schedule or seed the
    solvers would refuse is refused when the log is read.
    """
    fields: dict[str, str] = {}
    for tok in line.split():
        if "=" not in tok:
            raise ValueError(f"malformed record token {tok!r}")
        k, v = tok.split("=", 1)
        if k in fields:
            # a torn line with the next record appended to it repeats keys
            raise ValueError(f"record repeats field {k}")
        fields[k] = v
    missing = [key for key in _REQUIRED_FIELDS if key not in fields]
    if missing:
        raise ValueError(f"record is missing field {missing[0]}")
    if "format" not in fields:
        raise ValueError(
            "record has no format field: it was written in log format 1, whose "
            "trial streams this version no longer reproduces; re-run the campaign"
        )
    if fields["format"] != LOG_FORMAT:
        raise ValueError(
            f"record has log format {fields['format']!r}, this version reads "
            f"format {LOG_FORMAT}; re-run the campaign"
        )
    unknown = sorted(fields.keys() - _RECORD_FIELDS)
    if unknown:
        raise ValueError(f"record has unknown field {unknown[0]}")
    try:
        temps = [_ascii_float(fields[k]) if k in fields else None
                 for k in ("temp_start", "temp_end")]
        return TrialRecord(
            index=_decimal(fields["index"]),
            instance=fields["instance"],
            solver=SolverConfig(fields["kind"], _decimal(fields["sweeps"]), *temps),
            seed=_decimal(fields["seed"]),
            best_cut=_decimal(fields["best_cut"]),
            sweeps_executed=_decimal(fields["sweeps_executed"]),
            wall_time_s=_ascii_float(fields["wall_time_s"]),
            spins_hex=fields.get("spins"),
        )
    except ValueError as exc:
        raise ValueError(f"trial {fields['index']}: {exc}") from None


def _read_records(path, data: bytes) -> tuple[list[TrialRecord], int]:
    """The records of log ``path``, whose bytes are ``data``, and how many
    leading bytes to keep. Each terminated line not blank or # is a record.
    An unterminated last line that would be one, torn by a crash or still
    being written, is left out with a note on stderr, and the kept bytes
    end before it; any other unterminated line is kept. A refusal names
    the log."""
    end = data.rfind(b"\n") + 1
    keep = len(data) if data[end:].strip()[:1] in (b"", b"#") else end
    if keep < len(data):
        print(f"{path}: left out an unterminated last line ({len(data) - keep} bytes)",
              file=sys.stderr)
    lines = map(str.strip, _read_utf8(path, data[:end]).splitlines())
    try:
        return [parse_record(line) for line in lines if line and line[0] != "#"], keep
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_log(path) -> list[TrialRecord]:
    """The records of a log file; blank and # lines and a torn last
    record are left out, as a resume leaves them."""
    return _read_records(path, Path(path).read_bytes())[0]


def replay_record(instance: ProblemInstance, record: TrialRecord) -> TrialResult:
    """Re-run a logged trial. best_cut must reproduce exactly."""
    result = run_trial(instance, record.solver, record.seed)
    if result.best_cut != record.best_cut:
        raise RuntimeError(
            f"replay of trial {record.index} produced best_cut={result.best_cut}, "
            f"log says {record.best_cut}"
        )
    return result


@dataclass(frozen=True)
class CampaignSummary:
    instance: str
    kind: str
    sweeps_per_trial: int
    num_trials: int
    highest_cut: int
    min_cut: int
    average_cut: float
    cut_histogram: dict[int, int]
    avg_trial_time_s: float
    targets: tuple[TargetOutcome, ...]


def _check_records(records, campaign: tuple, num_trials: int | None = None) -> None:
    """Refuse records that are not trials of one ``campaign``, each once:
    a record of another campaign, a repeated trial index, or, given
    ``num_trials``, an index past it. The master seeds are recovered in
    one pass; the first record at fault is named."""
    # an index is taken modulo 2^64, as the scalar inversion takes it
    masters = master_seed_of(np.array([r.seed for r in records], dtype=np.uint64),
                             np.array([r.index & _MASK64 for r in records], dtype=np.uint64))
    seen = set()
    for r, master_seed in zip(records, masters.tolist()):
        ran = (r.instance, r.solver, master_seed)
        if ran != campaign:
            raise ValueError(f"records mix campaigns: trial {r.index} ran "
                             f"{_campaign_text(ran)}, not {_campaign_text(campaign)}")
        if r.index in seen:
            raise ValueError(f"duplicate trial index {r.index}")
        if num_trials is not None and r.index >= num_trials:
            raise ValueError(f"trial index {r.index} outside 0..{num_trials - 1}")
        seen.add(r.index)


def summarize(records, targets=()) -> CampaignSummary:
    """Aggregate trial records into a campaign summary.

    Order-insensitive: any permutation of the same records gives the
    same summary. Records must share one ``TrialRecord.campaign``:
    mixing scan rungs or campaigns in one summary is an error.
    """
    records = list(records)
    if not records:
        raise ValueError("cannot summarize an empty record set")
    first = records[0]
    _check_records(records, first.campaign)

    cuts = [r.best_cut for r in records]
    histogram: dict[int, int] = {}
    for c in cuts:
        histogram[c] = histogram.get(c, 0) + 1
    trials = len(records)
    avg_time = math.fsum(r.wall_time_s for r in records) / trials

    outcomes = tuple(
        TargetOutcome(
            target=target,
            successes=sum(1 for c in cuts if c >= target.cut),
            trials=trials,
            sweeps_per_trial=first.solver.sweeps,
            trial_time_s=avg_time,
        )
        for target in targets
    )

    return CampaignSummary(
        instance=first.instance,
        kind=first.solver.kind,
        sweeps_per_trial=first.solver.sweeps,
        num_trials=trials,
        highest_cut=max(cuts),
        min_cut=min(cuts),
        average_cut=sum(cuts) / trials,
        cut_histogram=histogram,
        avg_trial_time_s=avg_time,
        targets=outcomes,
    )


def trial_records(
    instance_name: str,
    solver: SolverConfig,
    indices,
    seeds,
    best_cuts,
    sweeps_executed,
    wall_time_s: float,
    best_spins=None,
) -> list[TrialRecord]:
    """The log records of a batch of finished trials of ``solver`` on the
    instance ``instance_name``: trial ``indices[i]`` ran under ``seeds[i]``
    and found ``best_cuts[i]`` in ``sweeps_executed[i]`` sweeps. They hold
    the rows of ``best_spins`` if given. The batch's wall time per trial
    is rounded once, as the log lines write it."""
    wall = float(f"{wall_time_s:.6e}")
    spins = repeat(None) if best_spins is None else map(encode_hex, best_spins)
    return [
        TrialRecord(index, instance_name, solver, seed, cut, executed, wall, spins_hex)
        for index, seed, cut, executed, spins_hex in zip(indices, seeds, best_cuts,
                                                         sweeps_executed, spins)
    ]


def _run_batch(
    instance: ProblemInstance,
    config: CampaignConfig,
    indices: list[int],
    include_spins: bool,
) -> list[TrialRecord]:
    seeds = splitmix64([config.master_seed], indices)[0]
    batch = run_trials(instance, config.solver, seeds)
    return trial_records(instance.name, config.solver, indices, seeds.tolist(),
                         batch.best_cuts.tolist(), batch.sweeps_executed.tolist(),
                         batch.wall_time_s, batch.best_spins if include_spins else None)


def _batches(pending: list[int], n: int, workers: int) -> list[list[int]]:
    """Split trial indices into capped batches, at least one per worker."""
    size = max(1, min(_BATCH_SPINS // n, -(-len(pending) // workers)))
    return [pending[i : i + size] for i in range(0, len(pending), size)]


def run_campaign(
    instance: ProblemInstance,
    config: CampaignConfig,
    *,
    log_path=None,
    workers: int = 1,
    resume: bool = False,
    include_spins: bool = False,
) -> CampaignSummary:
    """Run (or finish) a campaign and summarize it.

    With ``resume``, trials whose records are on disk are not re-run, and
    a torn last record is cut off and its trial runs again; the whole log
    is read and checked first, so a refused resume leaves it as it was.
    Without it, a log that holds records is refused. Trials run in
    batches, taken in order by one loop: in the calling thread at one
    worker, from ``workers`` pool threads otherwise. Worker count affects
    wall time only, never the summary. An exception stops the campaign
    once the running batches end. Records carry ``instance.name``; a name
    the log cannot hold is refused first.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if resume and log_path is None:
        raise ValueError("a resume needs the log of the campaign to finish")
    check_loggable(instance.name)

    done: dict[int, TrialRecord] = {}
    log = None
    if log_path is not None:
        path = Path(log_path)
        data = path.read_bytes() if path.exists() else b""
        records, keep = _read_records(log_path, data)
        try:
            if not resume and (records or keep < len(data)):
                raise ValueError("already holds records; pass --resume to finish that "
                                 "campaign, or choose another log path")
            _check_records(records, (instance.name, config.solver, config.master_seed),
                           config.num_trials)
        except ValueError as exc:
            raise ValueError(f"{log_path}: {exc}") from None
        done.update((record.index, record) for record in records)
        if keep < len(data):
            os.truncate(path, keep)
        log = path.open("a")
        if keep and not data[:keep].endswith(b"\n"):
            log.write("\n")
    pool = None
    try:
        pending = [i for i in range(config.num_trials) if i not in done]
        batches = _batches(pending, instance.n, workers)
        run = partial(_run_batch, instance, config, include_spins=include_spins)
        if workers > 1 and len(batches) > 1:
            # numpy releases the GIL inside the kernel, so threads overlap
            pool = ThreadPoolExecutor(max_workers=workers)
        for batch in (pool.map if pool else map)(run, batches):
            if log is not None:
                log.write(format_records(batch))
                log.flush()
            # each record reads back from its line unchanged, so a later
            # report of the log reproduces this summary bit for bit
            done.update((record.index, record) for record in batch)
    finally:
        if pool is not None:
            # on any exception, Ctrl-C included, batches not yet started
            # are dropped and the running ones finish
            pool.shutdown(cancel_futures=True)
        if log is not None:
            log.close()

    return summarize([done[i] for i in range(config.num_trials)], config.targets)


def write_scan_csv(summaries, stream) -> None:
    """Highest and average cut per rung of a sweep scan."""
    writer = csv.writer(stream)
    writer.writerow(["sweeps", "highest_cut", "average_cut"])
    for s in summaries:
        writer.writerow([s.sweeps_per_trial, s.highest_cut, f"{s.average_cut:.10g}"])
