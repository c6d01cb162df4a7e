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


def cut_values(instance: ProblemInstance, spins: np.ndarray) -> np.ndarray:
    """Weighted cut of each row of an (R, n) array of +-1 spins, as exact
    int64 integers: an edge contributes its weight when its endpoints
    take opposite spins and nothing otherwise. The rows are not checked.
    """
    opposite = np.take(spins, instance.eu, axis=1) != np.take(spins, instance.ev, axis=1)
    # einsum casts the mask in small buffers, where a matmul would cast
    # it whole to int64
    return np.einsum("re,e->r", opposite, instance.ew)


def cut_value(instance: ProblemInstance, spins) -> int:
    """Weighted cut of the configuration, as an exact integer."""
    s = _spin_array(instance, spins)
    return int(cut_values(instance, s[np.newaxis])[0])


def ising_energy(instance: ProblemInstance, spins) -> int:
    """Zero-field Ising energy sum_(u,v) w_uv * s_u * s_v, exact integer."""
    s = _spin_array(instance, spins)
    return int((instance.ew * s[instance.eu] * s[instance.ev]).sum())


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
    # one conversion for both: a tuple of n ints costs more than either sum
    s = _spin_array(instance, spins)
    cut = cut_value(instance, s)
    energy = ising_energy(instance, s)
    quality = solution_quality(cut, best_known) if best_known is not None else None
    return EvaluationReport(
        instance=instance.name, n=instance.n, cut=cut, energy=energy, quality=quality
    )
