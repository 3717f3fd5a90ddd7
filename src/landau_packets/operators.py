"""Closed-form matrix elements of the momentum and spin observables between
neighboring Landau levels, held as one block table per observable.

The transverse momentum components connect adjacent levels only and are
diagonal in the spin quantum number; the transverse spin components flip
the spin quantum number and also connect adjacent levels; the longitudinal
spin components are diagonal in the level index with both spin-diagonal and
spin-flip parts.  Every element uses the kinematic factors (b_perp, b, b_z,
B) of the ``SpinKinematics`` of the packet's reference level, the frozen
regime in which the closed-form trajectories are exact, so no element
depends on the level and a band over any contiguous window is one complex
table of shape (3, S, S): level offset d = m_bra - m_ket in {-1, 0, +1},
spin of the bra, spin of the ket; S = 1 for spin-0 and S = 2 for
spin-1/2.  The element between two states of the window is
table[m_bra - m_ket + 1, spin_bra, spin_ket].  A window of levels is a
``range`` of step 1 in the packet and its bands alike, with one rule,
``check_window``.  The table built for a window records that range, so that
``entries`` can list its nonzero elements by state; the engine reads only
the array.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .kinematics import SCALAR, SPINOR, FieldConfig, SpinKinematics

MOMENTUM_OBSERVABLES = ("Px", "Py", "Pz")
SPIN_OBSERVABLES = ("S0", "Sx", "Sy", "Sz")
#: every observable, in the column order of trajectories and their CSV form
OBSERVABLES = MOMENTUM_OBSERVABLES + SPIN_OBSERVABLES

#: spin label used for spin-0 states, where zeta is not a quantum number
NO_SPIN = 0

#: level offsets d = m_bra - m_ket along the first axis of a block table
OFFSETS = (-1, 0, 1)
DOWN, SAME, UP = range(3)


def spin_labels(kind: str) -> tuple[int, ...]:
    """Spin labels along the spin axes of a block table."""
    return (NO_SPIN,) if kind == SCALAR else (-1, 1)


def check_window(levels: range) -> None:
    """Reject anything but a nonempty ``range`` of step 1, the one form of a
    window of levels; the check takes the same time at any length."""
    if not (isinstance(levels, range) and levels.step == 1 and levels):
        # a sequence is named by its type: it may hold 10^4 levels
        shown = repr(levels) if isinstance(levels, range) else type(levels).__name__
        raise DomainError(f"levels: must be a nonempty range of step 1, got {shown}")


def block_table(observable: str, kind: str, kin: SpinKinematics) -> np.ndarray:
    """Elements of one observable between level m + d (bra) and level m
    (ket), shape (3, S, S): offset d, spin of the bra, spin of the ket, from
    the factors b_perp, b, b_z and energy B of the reference ``kin``.

    The x and y spin components flip zeta, with the raising branch weighted
    by (b - zeta) and the lowering branch by (b + zeta), zeta the spin of
    the ket.
    """
    zeta = np.array(spin_labels(kind), dtype=float)  # spin of the ket, last axis
    diag = np.eye(zeta.size, dtype=bool)
    b_perp, b, b_z, energy = kin.b_perp, kin.b, kin.b_z, kin.energy
    table = np.zeros((3, zeta.size, zeta.size), dtype=complex)
    if observable == "Px":
        table[UP] = np.where(diag, 0.5j * b_perp, 0)
        table[DOWN] = np.where(diag, -0.5j * b_perp, 0)
    elif observable == "Py":
        table[UP] = table[DOWN] = np.where(diag, 0.5 * b_perp, 0)
    elif observable == "Pz":
        table[SAME] = np.where(diag, b_z, 0)
    elif observable == "Sx":
        table[UP] = np.where(diag, 0, 0.5j * (b - zeta))
        table[DOWN] = np.where(diag, 0, -0.5j * (b + zeta))
    elif observable == "Sy":
        table[UP] = np.where(diag, 0, 0.5 * (b - zeta))
        table[DOWN] = np.where(diag, 0, 0.5 * (b + zeta))
    elif observable == "Sz":
        table[SAME] = np.where(diag, zeta * energy / b, b_perp * b_z / b)
    elif observable == "S0":
        table[SAME] = np.where(diag, zeta * b_z / b, energy * b_perp / b)
    else:
        raise DomainError(f"observable: must be one of {OBSERVABLES}, got {observable!r}")
    return table


class BandTable(np.ndarray):
    """Block table of one observable, a plain (3, S, S) array that also
    records the ``levels`` range of the window it was built for.  Views and
    results of arithmetic record the empty window."""

    levels: range = range(0)

    @property
    def entries(self) -> dict[tuple[int, int, int, int], complex]:
        """Nonzero elements keyed by (m_bra, zeta_bra, m_ket, zeta_ket)."""
        zetas = spin_labels(SCALAR if self.shape[-1] == 1 else SPINOR)
        out: dict[tuple[int, int, int, int], complex] = {}
        for m_ket in self.levels:
            for i, d in enumerate(OFFSETS):
                if m_ket + d not in self.levels:
                    continue
                for k, zeta_ket in enumerate(zetas):
                    for j, zeta_bra in enumerate(zetas):
                        value = complex(self[i, j, k])
                        if value != 0j:
                            out[(m_ket + d, zeta_bra, m_ket, zeta_ket)] = value
        return out


def hermiticity_defect(table: np.ndarray) -> float:
    """Largest deviation of a block element from the conjugate of its
    mirror, the element at the opposite offset with the spins swapped."""
    mirror = table[::-1].conj().transpose(0, 2, 1)
    return float(np.max(np.abs(table - mirror)))


def build_operator_band(
    levels: range,
    observable: str,
    cfg: FieldConfig,
    reference_n: int,
    kind: str = SPINOR,
    zeta_ref: int = 1,
) -> BandTable:
    """Read-only block table of one observable over the window ``levels``,
    a nonempty range of step 1, with the kinematic factors frozen at the
    reference state (``reference_n``, ``zeta_ref``)."""
    check_window(levels)
    if kind == SCALAR and observable in SPIN_OBSERVABLES:
        raise DomainError(f"observable: {observable} is undefined for spin-0 states")
    # from_field rejects a kind other than SCALAR and SPINOR, block_table an
    # unknown observable
    table = block_table(observable, kind, SpinKinematics.from_field(cfg, reference_n, zeta_ref, kind)).view(BandTable)
    table.levels = levels
    table.setflags(write=False)
    return table
