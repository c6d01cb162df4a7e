"""Exact evaluation of spin configurations.

For an instance with signed integer weights w_uv and spins s in
{-1, +1}^n:

* cut value   C(s) = 1/2 * sum_{(u,v)} w_uv * (1 - s_u s_v)
* Ising energy E(s) = sum_{(u,v)} w_uv * s_u s_v   (zero field,
  coupling J_uv = -w_uv, so E = -sum J_uv s_u s_v)

Both are exact integers; the two are computed independently rather
than derived from each other, and satisfy W = E + 2*C where W is the
total edge weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gsetbench.instances import ProblemInstance


def _spin_array(instance: ProblemInstance, spins) -> np.ndarray:
    arr = np.asarray(spins, dtype=np.int64)
    if arr.shape != (instance.n,):
        raise ValueError(
            f"configuration has {arr.size} spins, instance has {instance.n} variables"
        )
    if not np.all(np.abs(arr) == 1):
        raise ValueError("spins must be -1 or +1")
    return arr


def cut_value(instance: ProblemInstance, spins) -> int:
    """Weighted cut of the configuration, as an exact integer.

    An edge contributes its weight when its endpoints take opposite
    spins and nothing otherwise.
    """
    s = _spin_array(instance, spins)
    opposite = s[instance.eu] != s[instance.ev]
    return int(instance.ew[opposite].sum())


def ising_energy(instance: ProblemInstance, spins) -> int:
    """Zero-field Ising energy sum_(u,v) w_uv * s_u * s_v, exact integer."""
    s = _spin_array(instance, spins)
    return int((instance.ew * s[instance.eu] * s[instance.ev]).sum())


def flip_delta_cut(instance: ProblemInstance, spins, k: int) -> int:
    """Change in cut value if variable k (1-based) were flipped.

    Evaluated on the pre-flip spins: delta = s_k * sum_{j in N(k)} w_kj * s_j.
    Accepts any indexable spins container; no copy is made.
    """
    if not (1 <= k <= instance.n):
        raise ValueError(f"variable {k} out of range 1..{instance.n}")
    v = k - 1
    at = (instance.eu == v) | (instance.ev == v)
    # the far end of an edge at v is the sum of its endpoints minus v
    far = (instance.eu[at] + instance.ev[at] - v).tolist()
    return spins[v] * sum(w * spins[j] for j, w in zip(far, instance.ew[at].tolist()))


def solution_quality(cut: int, best_known: int) -> float:
    """Cut value as a fraction of the best known cut."""
    if best_known <= 0:
        raise ValueError(f"best known cut must be positive, got {best_known}")
    return cut / best_known


def format_quality_percent(quality: float) -> str:
    """Render a quality fraction as a percentage with 3 decimals, e.g. 99.986%."""
    return f"{quality * 100:.3f}%"


@dataclass(frozen=True)
class EvaluationReport:
    """Evaluation of one configuration against one instance."""

    instance: str
    n: int
    cut: int
    energy: int
    quality: float | None = None

    def to_kv(self) -> str:
        """Single-line key=value rendering."""
        parts = [
            f"instance={self.instance}",
            f"n={self.n}",
            f"cut={self.cut}",
            f"energy={self.energy}",
        ]
        if self.quality is not None:
            parts.append(f"quality={format_quality_percent(self.quality)}")
        return " ".join(parts)


def evaluate_solution(
    instance: ProblemInstance, spins, best_known: int | None = None
) -> EvaluationReport:
    """Evaluate spins on an instance, optionally scoring against a best known cut."""
    cut = cut_value(instance, spins)
    energy = ising_energy(instance, spins)
    quality = solution_quality(cut, best_known) if best_known is not None else None
    return EvaluationReport(
        instance=instance.name, n=instance.n, cut=cut, energy=energy, quality=quality
    )
