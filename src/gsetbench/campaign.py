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

Trials run in batches through the solvers' batched kernel, and a
campaign keeps its records as columns, one ``RecordSet`` per batch and
one for the records a resumed log holds: the instance name and solver
config they ran, and an array per field. A ``TrialRecord`` is one row,
made only when a set is read row by row or a log line is parsed.
``trial_records`` builds a batch's set from the kernel's arrays, for
campaigns and single ``solve`` runs alike, and ``format_records``
writes a set's lines, each ending in ``format=3``. The log is flushed
per batch, so a crashed campaign can be resumed from whatever records
made it to disk; a report and a resume read it by one rule, in which
only a terminated line is a record, into one set, the only place where
rows become columns, and check that set by one rule. The batch builder
rounds the wall time once to the value the lines hold, so a record
reads back from its line unchanged and a campaign summarizes the
records it wrote, as a later report of the log does. ``summarize``
reads a set's columns alone; it aggregates only order-insensitive
quantities, which is what makes parallel output identical to serial
output. Its per-target figures are ``metrics.TargetOutcome`` objects.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain
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
        # a record set holds these in int64 columns
        if not (self.index < 2**63 and -(2**63) <= self.best_cut < 2**63
                and self.sweeps_executed < 2**63):
            raise ValueError(f"index, best_cut and sweeps_executed must fit in int64, got "
                             f"{self.index}, {self.best_cut} and {self.sweeps_executed}")

    @property
    def campaign(self) -> tuple:
        """(instance, solver config, master seed): one campaign's records share it."""
        return self.instance, self.solver, master_seed_of(self.seed, self.index)


# a record set's columns and their dtypes
_COLUMNS = {"index": np.int64, "seed": np.uint64, "best_cut": np.int64,
            "sweeps_executed": np.int64, "wall_time_s": np.float64}


@dataclass(frozen=True, eq=False)
class RecordSet:
    """Records of trials of ``solver`` on the instance ``instance``, a
    column per field, row i being one trial's: int64 ``index``,
    ``best_cut`` and ``sweeps_executed``, uint64 ``seed``, float64
    ``wall_time_s``, and the list ``spins_hex``, each row's hex spins or
    None.

    It is also the sequence of its rows' ``TrialRecord``s, each made
    when it is read. Its columns are checked by ``TrialRecord``'s rules,
    one numpy pass each (a seed fits its column by dtype), and the first
    row at fault is refused in ``TrialRecord``'s words.
    """

    instance: str
    solver: SolverConfig
    index: np.ndarray
    seed: np.ndarray
    best_cut: np.ndarray
    sweeps_executed: np.ndarray
    wall_time_s: np.ndarray
    spins_hex: list

    def __post_init__(self) -> None:
        wall = self.wall_time_s
        bad = ((self.index < 0) | (self.sweeps_executed < 1)
               | (self.sweeps_executed > self.solver.sweeps)
               | ~((0.0 <= wall) & (wall < math.inf)))
        if bad.any():
            self[int(bad.argmax())]  # the row's TrialRecord refuses it
            raise RuntimeError("a record set and TrialRecord disagree on a row")

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, i) -> TrialRecord:
        return TrialRecord(int(self.index[i]), self.instance, self.solver, int(self.seed[i]),
                           int(self.best_cut[i]), int(self.sweeps_executed[i]),
                           float(self.wall_time_s[i]), self.spins_hex[i])


def _joined(sets: list[RecordSet]) -> RecordSet:
    """The rows of ``sets``, which share one instance and solver, in order."""
    if len(sets) == 1:
        return sets[0]
    return RecordSet(sets[0].instance, sets[0].solver,
                     *(np.concatenate([getattr(s, c) for s in sets]) for c in _COLUMNS),
                     list(chain.from_iterable(s.spins_hex for s in sets)))


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


def format_records(records: RecordSet) -> str:
    """The log lines of ``records``, each ending in a newline. The words
    of the set's campaign but its master seed are formatted once, and a
    wall time once for each run of rows sharing it, as a batch's rows
    share one."""
    instance, solver = records.instance, records.solver
    check_loggable(instance)
    head = f" instance={instance} kind={solver.kind} sweeps={solver.sweeps} seed="
    temps = ""
    if solver.temp_start is not None:
        temps += f" temp_start={solver.temp_start!r}"
    if solver.temp_end is not None:
        temps += f" temp_end={solver.temp_end!r}"
    columns = [getattr(records, c).tolist() for c in ("index", "seed", "best_cut",
                                                       "sweeps_executed")]
    columns.append(["" if h is None else f" spins={h}" for h in records.spins_hex])
    # runs of equal walls are told apart by their bits, as -0.0 equals
    # 0.0 but is written with its sign
    walls = records.wall_time_s
    bits = walls.view(np.uint64)
    ends = [*(np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist(), len(walls)]
    lines = []
    for start, end in zip([0, *ends], ends):
        tail = f" wall_time_s={walls[start]:.6e}{temps}"
        # format last, so that a record cut short anywhere lacks it
        lines += [f"index={index}{head}{seed} best_cut={cut} sweeps_executed={executed}"
                  f"{tail}{spins} format={LOG_FORMAT}\n"
                  for index, seed, cut, executed, spins in zip(*(c[start:end] for c in columns))]
    return "".join(lines)


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


def _read_records(path, data: bytes) -> tuple[RecordSet | None, int]:
    """The records of log ``path``, whose bytes are ``data``, as one set,
    or None if it holds none, and how many leading bytes to keep. Each
    terminated line not blank or # is a record. An unterminated last line
    that would be one, torn by a crash or still being written, is left
    out with a note on stderr, and the kept bytes end before it; any other
    unterminated line is kept. A record of another instance or solver
    config than the first cannot join its columns and is refused. A
    refusal names the log."""
    end = data.rfind(b"\n") + 1
    keep = len(data) if data[end:].strip()[:1] in (b"", b"#") else end
    if keep < len(data):
        print(f"{path}: left out an unterminated last line ({len(data) - keep} bytes)",
              file=sys.stderr)
    lines = map(str.strip, _read_utf8(path, data[:end]).splitlines())
    try:
        rows = [parse_record(line) for line in lines if line and line[0] != "#"]
        if not rows:
            return None, keep
        first = rows[0]
        for row in rows:
            if row.instance != first.instance or row.solver != first.solver:
                raise ValueError(f"records mix campaigns: trial {row.index} ran "
                                 f"{_campaign_text(row.campaign)}, not "
                                 f"{_campaign_text(first.campaign)}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    columns = (np.array([getattr(r, c) for r in rows], dtype) for c, dtype in _COLUMNS.items())
    return RecordSet(first.instance, first.solver, *columns, [r.spins_hex for r in rows]), keep


def read_log(path) -> RecordSet | None:
    """The records of a log file as one set, or None if it holds none;
    blank and # lines and a torn last record are left out, as a resume
    leaves them."""
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


def _check_records(records: RecordSet, campaign: tuple | None = None,
                   num_trials: int | None = None) -> RecordSet:
    """``records`` as one set of trials of ``campaign``, by default the
    first record's, each once: a record of another campaign, a repeated
    trial index, or, given ``num_trials``, an index past it is refused.
    The master seeds are recovered in one pass, and the first record at
    fault is named."""
    masters = master_seed_of(records.seed, records.index.astype(np.uint64))
    if campaign is None:
        campaign = (records.instance, records.solver, int(masters[0]))
    mixed = masters != campaign[2]
    if (records.instance, records.solver) != campaign[:2]:
        mixed[:] = True
    first = np.zeros(len(records), dtype=bool)
    first[np.unique(records.index, return_index=True)[1]] = True
    fault = mixed | ~first
    if num_trials is not None:
        fault |= records.index >= num_trials
    if fault.any():
        i = int(fault.argmax())
        index = int(records.index[i])
        if mixed[i]:
            ran = (records.instance, records.solver, int(masters[i]))
            raise ValueError(f"records mix campaigns: trial {index} ran "
                             f"{_campaign_text(ran)}, not {_campaign_text(campaign)}")
        if not first[i]:
            raise ValueError(f"duplicate trial index {index}")
        raise ValueError(f"trial index {index} outside 0..{num_trials - 1}")
    return records


def summarize(records: RecordSet, targets=()) -> CampaignSummary:
    """Aggregate a set of trial records into a campaign summary.

    Order-insensitive: any permutation of the same records gives the
    same summary. Records must share one ``TrialRecord.campaign``: mixing
    scan rungs or campaigns in one summary is an error, and so is an
    empty set or the None that ``read_log`` gives for a log without
    records.
    """
    if not records:
        raise ValueError("cannot summarize an empty record set")
    records = _check_records(records)

    cuts, counts = np.unique(records.best_cut, return_counts=True)
    histogram = dict(zip(cuts.tolist(), counts.tolist()))
    trials = len(records)
    avg_time = math.fsum(records.wall_time_s.tolist()) / trials
    solver = records.solver

    outcomes = tuple(
        TargetOutcome(
            target=target,
            successes=sum(count for cut, count in histogram.items() if cut >= target.cut),
            trials=trials,
            sweeps_per_trial=solver.sweeps,
            trial_time_s=avg_time,
        )
        for target in targets
    )

    return CampaignSummary(
        instance=records.instance,
        kind=solver.kind,
        sweeps_per_trial=solver.sweeps,
        num_trials=trials,
        highest_cut=int(cuts[-1]),
        min_cut=int(cuts[0]),
        average_cut=sum(cut * count for cut, count in histogram.items()) / trials,
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
) -> RecordSet:
    """The record set of a batch of finished trials of ``solver`` on the
    instance ``instance_name``: trial ``indices[i]`` ran under ``seeds[i]``
    and found ``best_cuts[i]`` in ``sweeps_executed[i]`` sweeps. It holds
    the rows of ``best_spins`` if given. The batch's wall time per trial
    is rounded once, as the log lines write it."""
    walls = np.full(len(indices), float(f"{wall_time_s:.6e}"))
    columns = (indices, seeds, best_cuts, sweeps_executed, walls)
    spins = [None] * len(walls) if best_spins is None else list(map(encode_hex, best_spins))
    return RecordSet(instance_name, solver, *map(np.asarray, columns, _COLUMNS.values()), spins)


def _run_batch(
    instance: ProblemInstance,
    config: CampaignConfig,
    indices: np.ndarray,
    include_spins: bool,
) -> RecordSet:
    seeds = splitmix64([config.master_seed], indices)[0]
    batch = run_trials(instance, config.solver, seeds)
    return trial_records(instance.name, config.solver, indices, seeds, batch.best_cuts,
                         batch.sweeps_executed, batch.wall_time_s,
                         batch.best_spins if include_spins else None)


def _batches(pending: np.ndarray, n: int, workers: int) -> list[np.ndarray]:
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

    campaign = (instance.name, config.solver, config.master_seed)
    # the record sets of the resumed log, if it holds records, and of each batch
    sets = []
    log = None
    if log_path is not None:
        path = Path(log_path)
        data = path.read_bytes() if path.exists() else b""
        records, keep = _read_records(log_path, data)
        try:
            if not resume and (records or keep < len(data)):
                raise ValueError("already holds records; pass --resume to finish that "
                                 "campaign, or choose another log path")
            if records:
                sets.append(_check_records(records, campaign, config.num_trials))
        except ValueError as exc:
            raise ValueError(f"{log_path}: {exc}") from None
        if keep < len(data):
            os.truncate(path, keep)
        log = path.open("a")
        if keep and not data[:keep].endswith(b"\n"):
            log.write("\n")
    pool = None
    try:
        ran = np.zeros(config.num_trials, dtype=bool)
        for done in sets:
            ran[done.index] = True
        batches = _batches(np.flatnonzero(~ran), instance.n, workers)
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
            sets.append(batch)
    finally:
        if pool is not None:
            # on any exception, Ctrl-C included, batches not yet started
            # are dropped and the running ones finish
            pool.shutdown(cancel_futures=True)
        if log is not None:
            log.close()

    return summarize(_joined(sets), config.targets)


def write_scan_csv(summaries, stream) -> None:
    """Highest and average cut per rung of a sweep scan."""
    writer = csv.writer(stream)
    writer.writerow(["sweeps", "highest_cut", "average_cut"])
    for s in summaries:
        writer.writerow([s.sweeps_per_trial, s.highest_cut, f"{s.average_cut:.10g}"])
