"""Wave packets over neighboring Landau levels and their bilinear
amplitude sums.

A packet is a superposition of the states of a contiguous window of levels
in one field: it holds the field, the window as a ``range`` of step 1, the
helicity sign epsilon of its reference state and its amplitudes, one array
of shape (levels, S) with the spins ordered as in the block tables of the
bands.  Everything else is derived: the kind from the number of spin
columns, the reference level n as the window's center, and the frozen
``SpinKinematics`` of the reference state (n, epsilon) in the packet's
field, which is all the engine reads besides the amplitudes.  The builders
spread unit probability uniformly over the window; spin-1/2 packets
additionally fix the ratio of the two spin amplitudes at every level to the
mixing ratio kappa of the reference level, which is what ties the packet to
a definite longitudinal polarization.  The bilinear sums of the amplitudes
are what the time-dependent expectation values contract against; for the
uniform equal-phase construction the adjacent-level sums carry the
semiclassical contrast factor (N-1)/N and the same-level sums reproduce the
polarization constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kinematics import SCALAR, SPINOR, FieldConfig, SpinKinematics
from .operators import DOWN, SAME, check_window


@dataclass(frozen=True)
class PacketSpec:
    """A superposition over a contiguous window of levels in one field.

    ``amplitudes`` is a read-only complex array of shape (levels, S): row i
    holds level ``levels[i]``, the columns the spins of ``spin_labels``.
    One column makes a spin-0 packet, two a spin-1/2 packet (``kind``); the
    helicity sign ``epsilon`` is the spin of the reference state, whose
    level ``n`` is the window's center, and ``reference`` holds that
    state's frozen kinematics in ``field``.  The constructor rejects another
    column count, a window that ``check_window`` rejects (the pair sums pair
    row i with row i + 1 as the levels m and m + 1) or that starts below the
    kind's lowest level (0 for spin-0, 1 for spin-1/2).
    """

    field: FieldConfig
    levels: range
    epsilon: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.epsilon not in (-1, 1):
            raise DomainError(f"epsilon: must be +1 or -1, got {self.epsilon}")
        check_window(self.levels)
        amplitudes = np.array(self.amplitudes, dtype=complex)
        rows = len(self.levels)
        if amplitudes.shape not in ((rows, 1), (rows, 2)):
            raise DomainError(f"amplitudes: expected shape ({rows}, 1) or ({rows}, 2), got {amplitudes.shape}")
        if not np.all(np.isfinite(amplitudes)):
            raise DomainError("amplitudes: must be finite")
        amplitudes.setflags(write=False)
        object.__setattr__(self, "amplitudes", amplitudes)
        _check_lowest_level(self.kind, self.levels)

    @property
    def kind(self) -> str:
        """SCALAR for one spin column, SPINOR for two."""
        return SCALAR if self.amplitudes.shape[1] == 1 else SPINOR

    @property
    def n(self) -> int:
        """The reference level, the center of the window; an even window
        has one level more above it than below."""
        return self.levels[(len(self.levels) - 1) // 2]

    @functools.cached_property
    def reference(self) -> SpinKinematics:
        """The frozen kinematics of the reference state (n, epsilon) in the
        packet's field, computed once."""
        return SpinKinematics.from_field(self.field, self.n, self.epsilon, self.kind)


@dataclass(frozen=True)
class StructureSums:
    """Bilinear amplitude sums entering the closed-form trajectories.

    adjacent_same_spin   sum over adjacent pairs, spin preserved; equals
                         (N-1)/N for the uniform equal-phase packet.
    adjacent_spin_flip   sum over adjacent pairs with a spin flip; the
                         construction gives (N-1)/N * kappa/(kappa^2+1).
    diagonal_spin_flip   same-level spin-flip sum, kappa/(kappa^2+1).
    population_imbalance difference of the two spin populations,
                         (kappa^2-1)/(kappa^2+1).
    """

    adjacent_same_spin: complex
    adjacent_spin_flip: complex
    diagonal_spin_flip: complex
    population_imbalance: complex


def _check_lowest_level(kind: str, levels: range) -> None:
    first, last = levels[0], levels[-1]
    if kind == SPINOR and first < 1:
        raise DomainError(f"levels: window {first}..{last} reaches below the first spin-1/2 level")
    if first < 0:
        raise DomainError(f"levels: window {first}..{last} reaches below the ground level")


def _level_window(n: int, count: int) -> range:
    # odd counts sit symmetrically about n; even counts put the extra level above
    if count < 1:
        raise DomainError(f"levels: need at least one level, got {count}")
    m_min = n - (count - 1) // 2
    return range(m_min, m_min + count)


def spinor_window_fits(n: int, count: int) -> bool:
    """Whether the spin-1/2 window of ``count`` levels centered on n starts at level 1 or above."""
    return _level_window(n, count)[0] >= 1


def build_scalar_packet(n: int, levels: int, cfg: FieldConfig) -> PacketSpec:
    """Uniform equal-phase packet of spin-0 states on ``levels`` levels
    centered on n, in the field ``cfg``.

    A packet with other phases is this one with its amplitudes replaced
    (``dataclasses.replace``); ``PacketSpec`` checks their shape.
    """
    window = _level_window(n, levels)
    amplitudes = np.full((levels, 1), 1.0 / math.sqrt(levels))
    return PacketSpec(field=cfg, levels=window, epsilon=1, amplitudes=amplitudes)


def build_spinor_packet(n: int, levels: int, cfg: FieldConfig, epsilon: int = 1) -> PacketSpec:
    """Uniform equal-phase packet of spin-1/2 states with helicity sign
    ``epsilon`` on ``levels`` levels centered on n, in the field ``cfg``.

    Every level carries the same spin amplitude ratio kappa, so the packet
    normalization splits as 1/N per level regardless of kappa.  As for
    ``build_scalar_packet``, other phases are applied by replacing the
    amplitudes.
    """
    window = _level_window(n, levels)
    # a window below level 1 is reported before a ratio that is undefined at h = 0
    _check_lowest_level(SPINOR, window)
    kappa = SpinKinematics.from_field(cfg, n, epsilon).kappa
    down = 1.0 / math.sqrt(levels * (kappa * kappa + 1.0))
    amplitudes = np.tile([down, kappa * down], (levels, 1))
    return PacketSpec(field=cfg, levels=window, epsilon=epsilon, amplitudes=amplitudes)


def normalization_defect(packet: PacketSpec) -> float:
    """|sum of squared amplitude magnitudes - 1|."""
    return abs(float(np.sum(np.abs(packet.amplitudes) ** 2)) - 1.0)


def pair_sums(psi: np.ndarray) -> np.ndarray:
    """Sums over m of conj(psi[t, m + d, b]) * psi[t, m, k] for the level
    offsets d = -1, 0, +1.

    ``psi`` has shape (T, levels, S); the result has shape (T, 3, S, S), the
    layout of a band's block table.  The d = -1 sums are the conjugate
    transposes of the d = +1 sums.
    """
    bra = psi.conj().transpose(0, 2, 1)
    same = bra @ psi
    up = bra[:, :, 1:] @ psi[:, :-1]
    down = up.conj().transpose(0, 2, 1)
    return np.stack([down, same, up], axis=1)


def structure_sums(packet: PacketSpec) -> StructureSums:
    """Bilinear amplitude sums of a packet: its pair sums at t = 0.

    The adjacent sums run over every pair (m, m+1) inside the window, with
    the bra at m; the diagonal sums run over the window itself.  Spin-0
    packets only populate the same-spin adjacent sum.
    """
    sums = pair_sums(packet.amplitudes[None])[0]
    if packet.kind != SPINOR:
        return StructureSums(complex(sums[DOWN, 0, 0]), 0j, 0j, 0j)
    minus, plus = 0, 1  # spin indices of zeta = -1 and zeta = +1
    return StructureSums(
        adjacent_same_spin=complex(np.trace(sums[DOWN])),
        adjacent_spin_flip=complex(sums[DOWN, plus, minus]),
        diagonal_spin_flip=complex(sums[SAME, plus, minus]),
        population_imbalance=complex(sums[SAME, plus, plus] - sums[SAME, minus, minus]),
    )


def contrast_factor(levels: int | None) -> float:
    """Semiclassical contrast (N-1)/N of an N-level uniform packet;
    ``None`` selects the infinite-window limit 1.0, the classical curve."""
    if levels is None:
        return 1.0
    if levels < 1:
        raise DomainError(f"levels: must be >= 1, got {levels}")
    return (levels - 1.0) / levels
