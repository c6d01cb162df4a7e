"""Registry of known benchmark instances and published results.

The builtin registry covers the three large toroidal Gset instances
G72, G77 and G81 (|V| in the tens of thousands, degree 4, +-1 weights)
together with the best cut values reported in the literature and, for
G81, the history of published record cuts. Users can extend or
override entries by pointing GSETBENCH_REGISTRY at a JSON file.

Record solution bitstrings for the three instances ship with the
package under ``data/solutions``; GSETBENCH_SOLUTIONS_DIR overrides
the lookup directory. Instance files themselves are large and are not
bundled; ``locate_instance_file`` searches a directory given
explicitly or via GSET_DIR.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path


@dataclass(frozen=True)
class HistoricalCut:
    """One published cut value for an instance."""

    method: str
    year: int
    cut: int

    @property
    def label(self) -> str:
        return f"{self.method} ({self.year})"


@dataclass(frozen=True)
class RegistryEntry:
    """Catalogue row for a named benchmark instance."""

    name: str
    n: int
    m: int
    best_cut: int
    best_energy: int | None = None
    historic_cuts: tuple[HistoricalCut, ...] = ()

    def __post_init__(self) -> None:
        for h in self.historic_cuts:
            if h.cut > self.best_cut:
                raise ValueError(
                    f"{self.name}: historic cut {h.cut} ({h.label}) "
                    f"exceeds best known {self.best_cut}"
                )


# Published G81 cuts, best first. The 2025 record is the one whose
# bitstring ships with this package.
_G81_HISTORY = (
    HistoricalCut("Cosm", 2025, 14_060),
    HistoricalCut("GES-PR", 2017, 14_056),
    HistoricalCut("GES-PR", 2015, 14_048),
    HistoricalCut("PF-ESL", 2022, 14_038),
    HistoricalCut("MOH", 2017, 14_036),
    HistoricalCut("Breakout local search", 2013, 14_030),
    HistoricalCut("Simulated bifurcation machine", 2021, 13_992),
    HistoricalCut("Rank-two relaxation", 2002, 13_662),
    HistoricalCut("SDP dual scaling", 2000, 13_448),
)

_BUILTIN = (
    RegistryEntry(name="G72", n=10_000, m=20_000, best_cut=7_008, best_energy=-14_022),
    RegistryEntry(name="G77", n=14_000, m=28_000, best_cut=9_940, best_energy=-19_672),
    RegistryEntry(
        name="G81",
        n=20_000,
        m=40_000,
        best_cut=14_060,
        best_energy=-28_086,
        historic_cuts=_G81_HISTORY,
    ),
)

# Published wall-clock time-to-target of the strongest classical
# reference (GES-PR) for reaching 99.9% of the best cut, in seconds.
REFERENCE_TTT_S: dict[tuple[str, str], float] = {
    ("G77", "99.9%"): 25_800.0,  # about 7 hours
    ("G81", "99.9%"): 276_000.0,  # about 77 hours
}


def builtin_registry() -> dict[str, RegistryEntry]:
    return {e.name: e for e in _BUILTIN}


def _historic_cut(row) -> HistoricalCut:
    if not isinstance(row, list) or len(row) != 3:
        raise ValueError(f"historic_cuts rows are [method, year, cut], got {row!r}")
    return HistoricalCut(method=str(row[0]), year=int(row[1]), cut=int(row[2]))


def load_registry() -> dict[str, RegistryEntry]:
    """Builtin registry, with GSETBENCH_REGISTRY JSON entries merged on top.

    The JSON file maps instance name to an object with keys n, m and
    best_cut, and optional best_energy and historic_cuts (rows of
    method, year, cut). A malformed file raises one ValueError naming
    the file and the entry.
    """
    reg = builtin_registry()
    override = os.environ.get("GSETBENCH_REGISTRY")
    if override:
        raw = json.loads(Path(override).read_text())
        if not isinstance(raw, dict) or not all(isinstance(row, dict) for row in raw.values()):
            raise ValueError(f"{override}: expected an object mapping names to objects")
        for name, row in raw.items():
            try:
                history = tuple(map(_historic_cut, row.get("historic_cuts", ())))
                reg[name] = RegistryEntry(
                    name=name,
                    n=int(row["n"]),
                    m=int(row["m"]),
                    best_cut=int(row["best_cut"]),
                    best_energy=None
                    if row.get("best_energy") is None
                    else int(row["best_energy"]),
                    historic_cuts=history,
                )
            except KeyError as exc:
                raise ValueError(f"{override}: entry {name!r} has no {exc.args[0]!r}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{override}: entry {name!r}: {exc}") from None
    return reg


def solution_text(name: str) -> str:
    """Record solution file contents for a registered instance.

    Looks in GSETBENCH_SOLUTIONS_DIR first (file ``<name>.txt``), then
    falls back to the copy bundled with the package.
    """
    override = os.environ.get("GSETBENCH_SOLUTIONS_DIR")
    if override:
        candidate = Path(override) / f"{name}.txt"
        if candidate.exists():
            return candidate.read_text()
    ref = resources.files("gsetbench").joinpath(f"data/solutions/{name}.txt")
    if not ref.is_file():
        raise FileNotFoundError(f"no bundled solution for {name!r}")
    return ref.read_text()


def locate_instance_file(name: str, search_dir=None) -> Path:
    """Find the Gset file for a named instance.

    Tries ``<dir>/<name>`` then ``<dir>/<name>.txt`` where dir is the
    argument or the GSET_DIR environment variable.
    """
    base = search_dir or os.environ.get("GSET_DIR")
    if not base:
        raise FileNotFoundError(
            f"no directory to search for instance {name!r}; "
            "pass a directory or set GSET_DIR"
        )
    for candidate in (Path(base) / name, Path(base) / f"{name}.txt"):
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"instance file for {name!r} not found under {base}")
