"""Time-sampled expectation-value trajectories, their four-spin invariant
residuals, their CSV form and a component-wise comparison.

A trajectory with spin components and the energy component derives the
residuals of the classical spin-vector relations from its own arrays:

    resSP = |S.P|                        (+,-,-,-) four-dot
    resSS = ||S_vec|^2 - (S^0)^2 - 1|    spacelike unit norm

The CSV schema is fixed:

    t,Px,Py,Pz,S0,Sx,Sy,Sz,resSP,resSS

one row per sample, every value printed with 17 significant digits so the
doubles round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .operators import OBSERVABLES

CSV_COLUMNS = ("t", *OBSERVABLES, "resSP", "resSS")
CSV_HEADER = ",".join(CSV_COLUMNS)
#: one CSV row; %.17g prints each value as format(v, ".17g") does
CSV_ROW = ",".join(["%.17g"] * len(CSV_COLUMNS))


@dataclass(frozen=True)
class Trajectory:
    """Sampled momentum and four-spin expectation values.

    ``p`` has shape (T, 3); ``s`` has shape (T, 4) ordered (S0, Sx, Sy, Sz);
    ``p0`` is the energy component completing the momentum four-vector.
    When ``s`` and ``p0`` are given, ``res_sp`` and ``res_ss`` are the
    per-sample residuals of the orthogonality and unit-norm invariants of
    the four-spin; otherwise they are None.
    """

    times: np.ndarray
    p: np.ndarray
    s: np.ndarray | None = None
    p0: np.ndarray | None = None
    res_sp: np.ndarray | None = field(init=False, default=None)
    res_ss: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.times.ndim != 1:
            raise DomainError("times: must be one-dimensional")
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("times: must be strictly increasing")
        if self.p.shape != (self.times.size, 3):
            raise DomainError(f"p: expected shape {(self.times.size, 3)}, got {self.p.shape}")
        if self.s is not None and self.s.shape != (self.times.size, 4):
            raise DomainError(f"s: expected shape {(self.times.size, 4)}, got {self.s.shape}")
        if self.s is None or self.p0 is None:
            return
        s = self.s
        sp = s[:, 0] * self.p0 - np.sum(s[:, 1:] * self.p, axis=1)
        ss = np.sum(s[:, 1:] ** 2, axis=1) - s[:, 0] ** 2
        object.__setattr__(self, "res_sp", np.abs(sp))
        object.__setattr__(self, "res_ss", np.abs(ss - 1.0))

    def four_momentum(self) -> np.ndarray:
        """Stack (p0, p) into shape (T, 4)."""
        if self.p0 is None:
            raise DomainError("p0: energy component not available")
        return np.column_stack([self.p0, self.p])

    def to_csv(self, path) -> None:
        if self.res_sp is None:
            raise DomainError("trajectory: CSV schema needs spin components and the energy")
        table = np.column_stack([self.times, self.p, self.s, self.res_sp, self.res_ss])
        rows = [CSV_HEADER] + [CSV_ROW % tuple(row) for row in table.tolist()]
        with open(path, "w", newline="\n") as handle:
            handle.write("\n".join(rows) + "\n")


def compare_trajectories(a: Trajectory, b: Trajectory) -> dict[str, float]:
    """L-infinity deviation of each component, keyed by observable name.

    Both trajectories must be sampled on the same grid; spin components are
    compared only when both carry them.
    """
    if a.times.shape != b.times.shape or not np.array_equal(a.times, b.times):
        raise DomainError("times: comparison needs identical time grids")
    x, y = a.p, b.p
    if a.s is not None and b.s is not None:
        x, y = np.hstack([x, a.s]), np.hstack([y, b.s])
    return {name: float(d) for name, d in zip(OBSERVABLES, np.max(np.abs(x - y), axis=0))}
