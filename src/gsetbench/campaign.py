"""Multi-trial solver campaigns with persistent, replayable logs.

A campaign runs ``num_trials`` independent trials of one solver config
on one instance. Trial i gets its own seed derived from the campaign
master seed by a fixed SplitMix64 mix, so the set of trials is the
same regardless of worker count or execution order, campaigns are
reproducible across runs, and any single logged trial can be re-run in
isolation.

Trials run in batches through the solvers' batched kernel. Each
finished trial appends one self-describing key=value line to the log,
ending in ``format=2``, and the stream is flushed per batch, so a
crashed campaign can be resumed from whatever records made it to disk;
an unterminated last line, a record cut short by the crash, is dropped
on resume. ``trial_record`` is
the one place a record is made from a finished trial, for campaigns
and single ``solve`` runs alike. Summaries aggregate only
order-insensitive quantities over the record set, which is what makes
parallel output identical to serial output; their per-target figures
are ``metrics.TargetOutcome`` objects.
"""

from __future__ import annotations

import csv
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from gsetbench.codec import decode_hex, encode_hex
from gsetbench.instances import ProblemInstance
from gsetbench.metrics import TargetOutcome, TargetSpec
from gsetbench.solvers import SolverConfig, TrialResult, run_trial, run_trials

# Version of the trial streams a log's records replay under. Format 2
# sweeps colour classes with one uniform per spin per sweep; format 1
# logs came from a shuffled per-spin loop and cannot be replayed.
LOG_FORMAT = "2"

# A batch holds at most this many spins (trials x n), which keeps its
# arrays to a few MB whatever the instance size.
_BATCH_SPINS = 1 << 18

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def mix_seed(master_seed: int, index: int) -> int:
    """Seed for trial ``index``: output index+1 of a SplitMix64 stream.

    This is the reference SplitMix64 generator (Steele, Lea and
    Flood's finalizer), chosen because it is tiny, portable and easy
    to reimplement bit-exactly anywhere.
    """
    if not (0 <= master_seed < 2**64):
        raise ValueError(f"master seed must fit in 64 bits, got {master_seed}")
    if index < 0:
        raise ValueError(f"trial index must be non-negative, got {index}")
    z = (master_seed + (index + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class CampaignConfig:
    """What to run: instance, solver template, trial count, targets.

    The solver template's seed field is ignored; per-trial seeds come
    from the master seed. ``sweep_scan`` optionally lists per-trial
    sweep budgets for a ladder scan.
    """

    instance_name: str
    solver: SolverConfig
    num_trials: int
    master_seed: int
    targets: tuple[TargetSpec, ...] = ()
    sweep_scan: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.num_trials < 1:
            raise ValueError(f"num_trials must be positive, got {self.num_trials}")
        if not (0 <= self.master_seed < 2**64):
            raise ValueError(f"master seed must fit in 64 bits, got {self.master_seed}")
        if self.sweep_scan is not None:
            if not self.sweep_scan:
                raise ValueError("sweep_scan must be nonempty when given")
            if any(s < 1 for s in self.sweep_scan):
                raise ValueError("sweep_scan entries must be positive")
            if any(b <= a for a, b in zip(self.sweep_scan, self.sweep_scan[1:])):
                raise ValueError("sweep_scan entries must be strictly increasing")


@dataclass(frozen=True)
class TrialRecord:
    """One logged trial: enough to replay it exactly."""

    index: int
    instance: str
    kind: str
    sweeps: int
    seed: int
    best_cut: int
    sweeps_executed: int
    wall_time_s: float
    temp_start: float | None = None
    temp_end: float | None = None
    spins_hex: str | None = None


def format_record(record: TrialRecord) -> str:
    if any(c.isspace() or c == "=" for c in record.instance):
        raise ValueError(f"instance name {record.instance!r} not loggable")
    parts = [
        f"index={record.index}",
        f"instance={record.instance}",
        f"kind={record.kind}",
        f"sweeps={record.sweeps}",
        f"seed={record.seed}",
        f"best_cut={record.best_cut}",
        f"sweeps_executed={record.sweeps_executed}",
        f"wall_time_s={record.wall_time_s:.6e}",
    ]
    if record.temp_start is not None:
        parts.append(f"temp_start={record.temp_start!r}")
    if record.temp_end is not None:
        parts.append(f"temp_end={record.temp_end!r}")
    if record.spins_hex is not None:
        parts.append(f"spins={record.spins_hex}")
    # last, so that a record cut short anywhere lacks it
    parts.append(f"format={LOG_FORMAT}")
    return " ".join(parts)


_RECORD_FIELDS = {"index", "instance", "kind", "sweeps", "seed", "best_cut", "sweeps_executed",
                  "wall_time_s", "temp_start", "temp_end", "spins", "format"}


def parse_record(line: str) -> TrialRecord:
    fields: dict[str, str] = {}
    for tok in line.split():
        if "=" not in tok:
            raise ValueError(f"malformed record token {tok!r}")
        k, v = tok.split("=", 1)
        if k in fields:
            # a torn line with the next record appended to it repeats keys
            raise ValueError(f"record repeats field {k}")
        fields[k] = v
    try:
        record = TrialRecord(
            index=int(fields["index"]),
            instance=fields["instance"],
            kind=fields["kind"],
            sweeps=int(fields["sweeps"]),
            seed=int(fields["seed"]),
            best_cut=int(fields["best_cut"]),
            sweeps_executed=int(fields["sweeps_executed"]),
            wall_time_s=float(fields["wall_time_s"]),
            temp_start=float(fields["temp_start"]) if "temp_start" in fields else None,
            temp_end=float(fields["temp_end"]) if "temp_end" in fields else None,
            spins_hex=fields.get("spins"),
        )
    except KeyError as exc:
        raise ValueError(f"record is missing field {exc.args[0]}") from None
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
    return record


def _is_record(line: str) -> bool:
    stripped = line.strip()
    return bool(stripped) and not stripped.startswith("#")


def read_log(path) -> list[TrialRecord]:
    """Parse all records from a log file, skipping blank and # lines."""
    return [
        parse_record(line.strip())
        for line in Path(path).read_text().splitlines()
        if _is_record(line)
    ]


def solver_config_for_record(record: TrialRecord) -> SolverConfig:
    return SolverConfig(
        kind=record.kind,
        sweeps=record.sweeps,
        seed=record.seed,
        temp_start=record.temp_start,
        temp_end=record.temp_end,
    )


def replay_record(instance: ProblemInstance, record: TrialRecord) -> TrialResult:
    """Re-run a logged trial. best_cut must reproduce exactly."""
    result = run_trial(instance, solver_config_for_record(record))
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

    def deterministic_fields(self) -> dict:
        """Everything except wall-clock derived values; equal across
        serial and parallel runs of the same campaign."""
        return {
            "instance": self.instance,
            "kind": self.kind,
            "sweeps_per_trial": self.sweeps_per_trial,
            "num_trials": self.num_trials,
            "highest_cut": self.highest_cut,
            "min_cut": self.min_cut,
            "average_cut": self.average_cut,
            "cut_histogram": tuple(sorted(self.cut_histogram.items())),
            "targets": tuple(replace(t, trial_time_s=None) for t in self.targets),
        }


def summarize(records, targets=()) -> CampaignSummary:
    """Aggregate trial records into a campaign summary.

    Order-insensitive: any permutation of the same records gives the
    same summary. Records must share one instance, solver kind and
    sweep budget (mixing scan rungs in one summary is an error).
    """
    records = list(records)
    if not records:
        raise ValueError("cannot summarize an empty record set")
    first = records[0]
    for r in records:
        if (r.instance, r.kind, r.sweeps) != (first.instance, first.kind, first.sweeps):
            raise ValueError(
                "records mix campaigns: "
                f"({r.instance}, {r.kind}, {r.sweeps}) vs "
                f"({first.instance}, {first.kind}, {first.sweeps})"
            )
    seen = set()
    for r in records:
        if r.index in seen:
            raise ValueError(f"duplicate trial index {r.index}")
        seen.add(r.index)

    cuts = [r.best_cut for r in records]
    histogram: dict[int, int] = {}
    for c in cuts:
        histogram[c] = histogram.get(c, 0) + 1
    trials = len(records)
    avg_time = sum(r.wall_time_s for r in records) / trials

    outcomes = tuple(
        TargetOutcome(
            label=target.label,
            cut=target.cut,
            confidence=target.confidence,
            successes=sum(1 for c in cuts if c >= target.cut),
            trials=trials,
            sweeps_per_trial=first.sweeps,
            trial_time_s=avg_time,
        )
        for target in targets
    )

    return CampaignSummary(
        instance=first.instance,
        kind=first.kind,
        sweeps_per_trial=first.sweeps,
        num_trials=trials,
        highest_cut=max(cuts),
        min_cut=min(cuts),
        average_cut=sum(cuts) / trials,
        cut_histogram=histogram,
        avg_trial_time_s=avg_time,
        targets=outcomes,
    )


def _drop_torn_tail(path: Path) -> None:
    """Cut an unterminated last line, a record torn by a crash, off a log."""
    with path.open("rb+") as fh:
        data = fh.read()
        if not data or data.endswith(b"\n"):
            return
        keep = data.rfind(b"\n") + 1
        fh.truncate(keep)
    print(
        f"{path}: dropped an unterminated last line ({len(data) - keep} bytes); "
        "its trial runs again",
        file=sys.stderr,
    )


class _LogWriter:
    """Append-only record sink, flushed per batch; thread-safe.

    Appends always start on a fresh line, so they never extend a line
    that a crash left unterminated.
    """

    def __init__(self, path):
        self._path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._handle = None
        if self._path is not None:
            self._handle = self._path.open("a")
            if self._handle.tell() > 0:
                with self._path.open("rb") as fh:
                    fh.seek(-1, 2)
                    if fh.read(1) != b"\n":
                        self._handle.write("\n")

    def write(self, lines) -> None:
        if self._handle is None:
            return
        text = "".join(line + "\n" for line in lines)
        with self._lock:
            self._handle.write(text)
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def trial_record(
    index: int,
    instance_name: str,
    solver: SolverConfig,
    result: TrialResult,
    include_spins: bool,
) -> TrialRecord:
    """The log record of one finished trial, with its best spins if asked."""
    return TrialRecord(
        index=index,
        instance=instance_name,
        kind=solver.kind,
        sweeps=solver.sweeps,
        seed=solver.seed,
        best_cut=result.best_cut,
        sweeps_executed=result.sweeps_executed,
        wall_time_s=result.wall_time_s,
        temp_start=solver.temp_start,
        temp_end=solver.temp_end,
        spins_hex=encode_hex(result.best_spins) if include_spins else None,
    )


def _run_batch(
    instance: ProblemInstance,
    config: CampaignConfig,
    indices: list[int],
    include_spins: bool,
) -> list[TrialRecord]:
    solvers = [
        replace(config.solver, seed=mix_seed(config.master_seed, i)) for i in indices
    ]
    results = run_trials(instance, solvers)
    return [
        trial_record(i, config.instance_name, solver, result, include_spins)
        for i, solver, result in zip(indices, solvers, results)
    ]


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

    With ``resume`` and an existing log, trials whose records are
    already on disk are not re-run; only the missing indices execute,
    and an unterminated last line is dropped first. Trials run in
    batches, which ``workers`` threads share; worker count affects wall
    time only, never the summary.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if config.instance_name and instance.name and config.instance_name != instance.name:
        raise ValueError(
            f"config names instance {config.instance_name!r} "
            f"but got {instance.name!r}"
        )

    done: dict[int, TrialRecord] = {}
    if not resume and log_path is not None and Path(log_path).exists():
        if any(_is_record(line) for line in Path(log_path).read_text().splitlines()):
            raise ValueError(
                f"log {log_path} already holds records; pass --resume to finish "
                "that campaign, or choose another log path"
            )
    if resume and log_path is not None and Path(log_path).exists():
        _drop_torn_tail(Path(log_path))
        for record in read_log(log_path):
            if (record.instance, record.kind, record.sweeps) != (
                config.instance_name,
                config.solver.kind,
                config.solver.sweeps,
            ):
                raise ValueError(
                    f"log {log_path} belongs to a different campaign "
                    f"({record.instance}, {record.kind}, {record.sweeps})"
                )
            if record.index in done:
                raise ValueError(f"log has duplicate trial index {record.index}")
            if not (0 <= record.index < config.num_trials):
                raise ValueError(
                    f"log trial index {record.index} outside 0..{config.num_trials - 1}"
                )
            if record.seed != mix_seed(config.master_seed, record.index):
                raise ValueError(
                    f"log {log_path} belongs to a different campaign "
                    f"(trial {record.index} seed does not derive from "
                    f"master seed {config.master_seed})"
                )
            if (record.temp_start, record.temp_end) != (
                config.solver.temp_start,
                config.solver.temp_end,
            ):
                raise ValueError(
                    f"log {log_path} belongs to a different campaign "
                    f"(trial {record.index} has a different temperature schedule)"
                )
            done[record.index] = record

    pending = [i for i in range(config.num_trials) if i not in done]
    batches = _batches(pending, instance.n, workers)
    writer = _LogWriter(log_path)

    def finish(records: list[TrialRecord]) -> None:
        lines = [format_record(record) for record in records]
        writer.write(lines)
        for line in lines:
            # aggregate what the log says, so a later report of the log
            # reproduces this summary bit for bit
            record = parse_record(line)
            done[record.index] = record

    try:
        if workers == 1 or len(batches) <= 1:
            for batch in batches:
                finish(_run_batch(instance, config, batch, include_spins))
        else:
            # numpy releases the GIL inside the kernel, so threads overlap
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_run_batch, instance, config, batch, include_spins)
                    for batch in batches
                ]
                for future in futures:
                    finish(future.result())
    finally:
        writer.close()

    records = [done[i] for i in range(config.num_trials)]
    return summarize(records, config.targets)


@dataclass(frozen=True)
class ScanRow:
    sweeps: int
    highest_cut: int
    average_cut: float


def sweep_scan(
    instance: ProblemInstance,
    config: CampaignConfig,
    *,
    workers: int = 1,
) -> list[ScanRow]:
    """One full campaign per sweep-ladder entry; rows for plotting.

    Every rung reuses the same master seed, so rung k's trial i is a
    budget-extended version of rung k-1's trial i.
    """
    if not config.sweep_scan:
        raise ValueError("config.sweep_scan must be a nonempty ladder")
    rows = []
    for sweeps in config.sweep_scan:
        rung = replace(
            config,
            solver=replace(config.solver, sweeps=sweeps),
            sweep_scan=None,
        )
        summary = run_campaign(instance, rung, workers=workers)
        rows.append(
            ScanRow(
                sweeps=sweeps,
                highest_cut=summary.highest_cut,
                average_cut=summary.average_cut,
            )
        )
    return rows


def write_scan_csv(rows, stream) -> None:
    writer = csv.writer(stream)
    writer.writerow(["sweeps", "highest_cut", "average_cut"])
    for row in rows:
        writer.writerow([row.sweeps, row.highest_cut, f"{row.average_cut:.10g}"])


def decode_record_spins(record: TrialRecord, n: int) -> tuple[int, ...]:
    """Spins stored in a record, if the campaign logged them."""
    if record.spins_hex is None:
        raise ValueError(f"trial {record.index} was logged without spins")
    return decode_hex(record.spins_hex, n)
