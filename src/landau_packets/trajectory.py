"""Time-sampled expectation-value trajectories, their CSV form and
pairwise comparison metrics.

The CSV schema is fixed:

    t,Px,Py,Pz,S0,Sx,Sy,Sz,resSP,resSS

one row per sample, every value printed with 17 significant digits so the
doubles round-trip exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .operators import MOMENTUM_OBSERVABLES, OBSERVABLES, SPIN_OBSERVABLES

CSV_HEADER = ",".join(("t", *OBSERVABLES, "resSP", "resSS"))


@dataclass(frozen=True)
class Trajectory:
    """Sampled momentum and four-spin expectation values.

    ``p`` has shape (T, 3); ``s`` has shape (T, 4) ordered (S0, Sx, Sy, Sz);
    ``p0`` is the energy component completing the momentum four-vector.
    ``res_sp`` and ``res_ss`` are the per-sample residuals of the
    orthogonality and unit-norm invariants of the four-spin.
    """

    times: np.ndarray
    p: np.ndarray
    s: np.ndarray | None = None
    p0: np.ndarray | None = None
    res_sp: np.ndarray | None = None
    res_ss: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.times.ndim != 1:
            raise DomainError("times: must be one-dimensional")
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("times: must be strictly increasing")
        if self.p.shape != (self.times.size, 3):
            raise DomainError(f"p: expected shape {(self.times.size, 3)}, got {self.p.shape}")
        if self.s is not None and self.s.shape != (self.times.size, 4):
            raise DomainError(f"s: expected shape {(self.times.size, 4)}, got {self.s.shape}")

    def four_momentum(self) -> np.ndarray:
        """Stack (p0, p) into shape (T, 4)."""
        if self.p0 is None:
            raise DomainError("p0: energy component not available")
        return np.column_stack([self.p0, self.p])

    def to_csv(self, path) -> None:
        if self.s is None or self.res_sp is None or self.res_ss is None:
            raise DomainError("trajectory: CSV schema needs spin components and residuals")
        table = np.column_stack([self.times, self.p, self.s, self.res_sp, self.res_ss])
        rows = [CSV_HEADER] + [",".join(f"{v:.17g}" for v in row) for row in table.tolist()]
        with open(path, "w", newline="\n") as handle:
            handle.write("\n".join(rows) + "\n")


@dataclass(frozen=True)
class TrajectoryComparison:
    """Per-component deviations between two trajectories on one time grid."""

    linf: dict[str, float]
    l2: dict[str, float]
    max_linf: float


def compare_trajectories(a: Trajectory, b: Trajectory) -> TrajectoryComparison:
    """L-infinity and L2 deviations, component by component.

    Both trajectories must be sampled on the same grid; spin components are
    compared only when both carry them.
    """
    if a.times.shape != b.times.shape or not np.array_equal(a.times, b.times):
        raise DomainError("times: comparison needs identical time grids")
    linf: dict[str, float] = {}
    l2: dict[str, float] = {}
    scale = 1.0 / math.sqrt(a.times.size)
    for j, name in enumerate(MOMENTUM_OBSERVABLES):
        diff = a.p[:, j] - b.p[:, j]
        linf[name] = float(np.max(np.abs(diff)))
        l2[name] = float(np.linalg.norm(diff) * scale)
    if a.s is not None and b.s is not None:
        for j, name in enumerate(SPIN_OBSERVABLES):
            diff = a.s[:, j] - b.s[:, j]
            linf[name] = float(np.max(np.abs(diff)))
            l2[name] = float(np.linalg.norm(diff) * scale)
    return TrajectoryComparison(linf=linf, l2=l2, max_linf=max(linf.values()))
