"""Time evolution of expectation values: the packet state psi(t) contracted
with the block tables of the observables, the closed-form trajectories it
reproduces, the polarization tensor and the four-vector invariant
residuals.

The engine evolves every basis state of the packet's amplitude array with
its own phase, psi(t) = a * exp(-i*dE*t), once per block of time samples,
and contracts the pair sums of that one psi(t) with the block tables of
every observable at once: <psi(t)|V|psi(t)> for all bands together.  The
energies dE are measured from the reference state (n, epsilon).  In
uniform-gap mode they are exactly (m - n)*omega +
(zeta - epsilon)*omega_a/2, the frequencies the closed forms use, so the
phases are exactly periodic; in exact mode each basis state keeps its own
level energy and the packet slowly dephases, the effect the semiclassical
freezing discards.

Metric convention: signature (+,-,-,-), Levi-Civita eps^{0123} = +1.  The
four-spin of these packets is spacelike, so the unit-norm residual is
evaluated against |S_vec|^2 - (S^0)^2 = 1.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import AccuracyError, DomainError
from .kinematics import (
    SCALAR,
    SPINOR,
    FieldConfig,
    SpinKinematics,
    anomalous_frequency,
    cyclotron_frequency,
    energy_scalar,
    energy_spinor,
)
from .operators import (
    MOMENTUM_OBSERVABLES,
    OBSERVABLES,
    OperatorBand,
    build_operator_band,
    spin_labels,
)
from .packets import PacketSpec, contrast_factor, pair_sums
from .trajectory import Trajectory

UNIFORM_GAP = "uniform-gap"
EXACT = "exact"

#: tolerance on the imaginary residue of a Hermitian expectation value
HERMITIAN_IMAG_TOL = 1e-12

#: time samples evolved at once; bounds the memory held by psi(t)
TIME_BLOCK = 64


@dataclass(frozen=True)
class EnergyModel:
    """Phase energies of the packet's basis states.

    In uniform-gap mode every adjacent-level gap equals the reference
    cyclotron frequency and every spin splitting equals the reference
    anomalous frequency, which keeps the phases exactly periodic.  In exact
    mode each state carries its true level energy.
    """

    mode: str
    kind: str
    cfg: FieldConfig
    reference_n: int
    zeta_ref: int = 1

    def __post_init__(self) -> None:
        if self.mode not in (UNIFORM_GAP, EXACT):
            raise DomainError(f"mode: must be '{UNIFORM_GAP}' or '{EXACT}', got {self.mode!r}")
        if self.kind not in (SCALAR, SPINOR):
            raise DomainError(f"kind: must be 'scalar' or 'spinor', got {self.kind!r}")

    @property
    def omega(self) -> float:
        """Adjacent-level gap at the reference level."""
        return cyclotron_frequency(self.cfg, self.reference_n, self.zeta_ref, self.kind)[0]

    @property
    def omega_a(self) -> float:
        """Spin splitting at the reference level (zero for spin-0)."""
        if self.kind == SCALAR:
            return 0.0
        return anomalous_frequency(self.cfg, self.reference_n)[0]

    def _energy(self, m: int, zeta: int) -> float:
        if self.kind == SCALAR:
            return energy_scalar(self.cfg, m)
        return energy_spinor(self.cfg, m, zeta)

    @property
    def reference_energy(self) -> float:
        """Level energy of the reference state (n, zeta_ref)."""
        return self._energy(self.reference_n, self.zeta_ref)

    def relative_energies(self, levels) -> np.ndarray:
        """Energies of the states (level, spin) less the reference energy,
        shape (len(levels), S) with the spins ordered as in the block
        tables."""
        zetas = spin_labels(self.kind)
        if self.mode == EXACT:
            base = self.reference_energy
            return np.array([[self._energy(m, z) - base for z in zetas] for m in levels])
        energies = (np.asarray(levels)[:, None] - self.reference_n) * self.omega
        if self.kind == SPINOR:
            energies = energies + 0.5 * (np.array(zetas) - self.zeta_ref) * self.omega_a
        return energies


def expectation_series(
    packet: PacketSpec, bands: Iterable[OperatorBand], em: EnergyModel, times: np.ndarray
) -> np.ndarray:
    """Real expectation values <psi(t)|V|psi(t)> of a sequence of bands on a
    time grid, shape (T, len(bands)).

    psi(t) is evaluated once per block of TIME_BLOCK samples and its pair
    sums are contracted with every block table in one product.  The
    imaginary residue of the Hermitian sums is checked against
    HERMITIAN_IMAG_TOL and discarded.
    """
    bands = tuple(bands)
    for band in bands:
        if band.levels != packet.levels:
            raise DomainError(
                f"levels: packet window {packet.levels} does not match band window {band.levels}"
            )
        if not packet.kind == band.kind == em.kind:
            raise DomainError(
                f"kind: packet {packet.kind!r}, band {band.kind!r} and energy model {em.kind!r} differ"
            )
    times = np.asarray(times, dtype=float)
    energies = em.relative_energies(packet.levels)
    coefficients = np.stack([band.blocks.reshape(-1) for band in bands], axis=1)
    values = np.empty((times.size, len(bands)), dtype=complex)
    for start in range(0, times.size, TIME_BLOCK):
        t = times[start : start + TIME_BLOCK, None, None]
        psi = packet.amplitudes * np.exp(-1j * energies * t)
        values[start : start + TIME_BLOCK] = pair_sums(psi).reshape(t.size, -1) @ coefficients
    residue = float(np.max(np.abs(values.imag))) if values.size else 0.0
    if residue > HERMITIAN_IMAG_TOL:
        raise AccuracyError(
            f"imaginary residue {residue:.3e} of Hermitian expectation exceeds {HERMITIAN_IMAG_TOL}"
        )
    return values.real


def sample_times(omega: float, samples: int = 256, t_max: float | None = None) -> np.ndarray:
    """Uniform time grid over [0, t_max), default two cyclotron periods.

    The endpoint is excluded, so with the default 256 samples the grid hits
    the quarter period exactly; the transverse-momentum extremum is then a
    grid point.
    """
    if samples < 2:
        raise DomainError(f"samples: must be >= 2, got {samples}")
    if t_max is None:
        if omega <= 0:
            raise DomainError("omega: need a positive frequency to choose a default span")
        t_max = 4.0 * math.pi / omega
    if t_max <= 0:
        raise DomainError(f"t_max: must be > 0, got {t_max}")
    return t_max * np.arange(samples) / samples


def closed_form_momentum(kin: SpinKinematics, levels: int | None, omega: float, times) -> np.ndarray:
    """Momentum expectation of an N-level packet: a circle of radius
    (N-1)/N * b_perp traversed at the cyclotron frequency, plus the
    constant longitudinal component.  ``levels=None`` gives the classical
    limit of unit contrast."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    f = contrast_factor(levels)
    out = np.empty((t.size, 3))
    out[:, 0] = -f * kin.b_perp * np.sin(omega * t)
    out[:, 1] = f * kin.b_perp * np.cos(omega * t)
    out[:, 2] = kin.b_z
    return out if np.ndim(times) else out[0]


def closed_form_spin(
    kin: SpinKinematics, levels: int | None, omega: float, omega_a: float, times
) -> np.ndarray:
    """Four-spin expectation (S0, Sx, Sy, Sz) of an N-level packet.

    The transverse components carry the contrast factor (N-1)/N and mix the
    cyclotron and anomalous rotations; the longitudinal and time components
    oscillate at the anomalous frequency alone.  ``levels=None`` gives the
    classical limit of unit contrast.
    """
    t = np.atleast_1d(np.asarray(times, dtype=float))
    f = contrast_factor(levels)
    cw, sw = np.cos(omega * t), np.sin(omega * t)
    ca, sa = np.cos(omega_a * t), np.sin(omega_a * t)
    out = np.empty((t.size, 4))
    out[:, 0] = (kin.b_z / kin.b) * kin.zeta_z + kin.energy * (kin.b_perp / kin.b) * kin.zeta_perp * ca
    out[:, 1] = -f * kin.zeta_perp * (cw * sa + kin.b * sw * ca)
    out[:, 2] = -f * kin.zeta_perp * (sw * sa - kin.b * cw * ca)
    out[:, 3] = (kin.energy / kin.b) * kin.zeta_z + (kin.b_z * kin.b_perp / kin.b) * kin.zeta_perp * ca
    return out if np.ndim(times) else out[0]


def _levi_civita() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    for perm in permutations(range(4)):
        inversions = sum(
            1 for i in range(4) for j in range(i + 1, 4) if perm[i] > perm[j]
        )
        eps[perm] = -1.0 if inversions % 2 else 1.0
    return eps


_EPS = _levi_civita()
_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


def lower_index(v: np.ndarray) -> np.ndarray:
    """Lower a four-vector index with the (+,-,-,-) metric."""
    return _METRIC @ np.asarray(v, dtype=float)


def polarization_series(s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Antisymmetric tensors eps^{mu nu alpha beta} S_alpha P_beta built from
    four-spins and four-momenta of shape (..., 4); the result has shape
    (..., 4, 4).

    Contracting either index with the four-momentum gives zero identically.
    """
    s_low = np.asarray(s, dtype=float) @ _METRIC
    p_low = np.asarray(p, dtype=float) @ _METRIC
    return np.einsum("mnab,...a,...b->...mn", _EPS, s_low, p_low)


@dataclass(frozen=True)
class InvariantReport:
    """Per-sample residuals of the classical spin-vector relations.

    res_sp        |S.P| with the (+,-,-,-) four-dot.
    res_ss        ||S_vec|^2 - (S^0)^2 - 1| (spacelike unit norm).
    p_perp_defect spread of the transverse momentum magnitude.
    p_z_drift     spread of the longitudinal momentum.
    """

    res_sp: np.ndarray
    res_ss: np.ndarray
    p_perp_defect: float
    p_z_drift: float


def compute_invariants(p: np.ndarray, s: np.ndarray, p0: np.ndarray) -> InvariantReport:
    """Evaluate the four-vector invariants on sampled component arrays."""
    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    sp = s[:, 0] * p0 - np.sum(s[:, 1:] * p, axis=1)
    ss = np.sum(s[:, 1:] ** 2, axis=1) - s[:, 0] ** 2
    p_perp = np.hypot(p[:, 0], p[:, 1])
    return InvariantReport(
        res_sp=np.abs(sp),
        res_ss=np.abs(ss - 1.0),
        p_perp_defect=float(np.max(p_perp) - np.min(p_perp)),
        p_z_drift=float(np.max(p[:, 2]) - np.min(p[:, 2])),
    )


def invariant_report(traj: Trajectory) -> InvariantReport:
    """Evaluate the four-vector invariants along a trajectory."""
    if traj.s is None or traj.p0 is None:
        raise DomainError("trajectory: invariants need spin components and the energy")
    return compute_invariants(traj.p, traj.s, traj.p0)


def build_packet_bands(packet: PacketSpec, cfg: FieldConfig) -> dict[str, OperatorBand]:
    """All observable bands over the packet's level window, in the order of
    OBSERVABLES."""
    names = MOMENTUM_OBSERVABLES if packet.kind == SCALAR else OBSERVABLES
    return {
        name: build_operator_band(
            packet.levels, name, cfg, packet.n, kind=packet.kind, zeta_ref=packet.epsilon
        )
        for name in names
    }


def evolve_packet(
    packet: PacketSpec, cfg: FieldConfig, times: np.ndarray, mode: str = UNIFORM_GAP
) -> Trajectory:
    """Run the generic engine over a time grid and collect a trajectory.

    The energy component of the four-momentum is the packet-averaged level
    energy, which is time independent.
    """
    times = np.asarray(times, dtype=float)
    em = EnergyModel(
        mode=mode, kind=packet.kind, cfg=cfg, reference_n=packet.n, zeta_ref=packet.epsilon
    )
    values = expectation_series(packet, build_packet_bands(packet, cfg).values(), em, times)
    p = values[:, : len(MOMENTUM_OBSERVABLES)]
    weights = np.abs(packet.amplitudes) ** 2
    mean_energy = em.reference_energy + float(np.sum(weights * em.relative_energies(packet.levels)))
    p0 = np.full(times.size, mean_energy)

    if packet.kind == SCALAR:
        return Trajectory(times=times, p=p, p0=p0)

    s = values[:, len(MOMENTUM_OBSERVABLES) :]
    report = compute_invariants(p, s, p0)
    return Trajectory(times=times, p=p, s=s, p0=p0, res_sp=report.res_sp, res_ss=report.res_ss)


def closed_form_trajectory(
    kin: SpinKinematics, levels: int | None, omega: float, omega_a: float, times: np.ndarray
) -> Trajectory:
    """Trajectory of the closed forms, with the reference energy as the
    four-momentum time component."""
    times = np.asarray(times, dtype=float)
    p = closed_form_momentum(kin, levels, omega, times)
    s = closed_form_spin(kin, levels, omega, omega_a, times)
    p0 = np.full(times.size, kin.energy)
    report = compute_invariants(p, s, p0)
    return Trajectory(times=times, p=p, s=s, p0=p0, res_sp=report.res_sp, res_ss=report.res_ss)
