"""Registry of known benchmark instances and published results.

The builtin registry covers the three large toroidal Gset instances
G72, G77 and G81 (|V| in the tens of thousands, degree 4, +-1 weights)
with their sizes, best known cuts and record energies, and the
published time-to-target of the strongest classical reference. Any
other best cut to score against is given as ``validate --best-known N``.

Record solution bitstrings for the three instances ship with the
package under ``data/solutions``; GSETBENCH_SOLUTIONS_DIR overrides
the lookup directory. Instance files themselves are large and are not
bundled; ``locate_instance_file`` searches the directory GSET_DIR
names.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from gsetbench.instances import _read_utf8


@dataclass(frozen=True)
class RegistryEntry:
    """Catalogue row for a named benchmark instance."""

    name: str
    n: int
    m: int
    best_cut: int
    best_energy: int


_BUILTIN = (
    RegistryEntry(name="G72", n=10_000, m=20_000, best_cut=7_008, best_energy=-14_022),
    RegistryEntry(name="G77", n=14_000, m=28_000, best_cut=9_940, best_energy=-19_672),
    RegistryEntry(name="G81", n=20_000, m=40_000, best_cut=14_060, best_energy=-28_086),
)

# Published wall-clock time-to-target of the strongest classical
# reference (GES-PR) for reaching 99.9% of the best cut, in seconds.
REFERENCE_TTT_S: dict[tuple[str, str], float] = {
    ("G77", "99.9%"): 25_800.0,  # about 7 hours
    ("G81", "99.9%"): 276_000.0,  # about 77 hours
}


def load_registry() -> dict[str, RegistryEntry]:
    """The built-in entries by name."""
    return {e.name: e for e in _BUILTIN}


def solution_text(name: str) -> str:
    """Record solution file contents for a registered instance.

    Looks in GSETBENCH_SOLUTIONS_DIR first (file ``<name>.txt``), then
    falls back to the copy bundled with the package.
    """
    override = os.environ.get("GSETBENCH_SOLUTIONS_DIR")
    if override:
        candidate = Path(override) / f"{name}.txt"
        if candidate.exists():
            return _read_utf8(candidate)
    ref = resources.files("gsetbench").joinpath(f"data/solutions/{name}.txt")
    if not ref.is_file():
        raise FileNotFoundError(f"no bundled solution for {name!r}")
    return ref.read_text()


def locate_instance_file(name: str) -> Path:
    """Find the Gset file for a named instance.

    Tries ``<dir>/<name>`` then ``<dir>/<name>.txt`` where dir is the
    GSET_DIR environment variable.
    """
    base = os.environ.get("GSET_DIR")
    if not base:
        raise FileNotFoundError(
            f"no directory to search for instance {name!r}; set GSET_DIR"
        )
    for candidate in (Path(base) / name, Path(base) / f"{name}.txt"):
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"instance file for {name!r} not found under {base}")
