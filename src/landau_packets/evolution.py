"""Time evolution of expectation values: the packet state psi(t) contracted
with the block tables of the observables, the closed-form trajectories it
reproduces and the polarization tensor.

Everything here derives from the packet: its reference state (n, epsilon)
fixes the phase energies of ``relative_energies`` and its level window the
bands, and a ``Trajectory`` derives its invariant residuals from its own
samples.  The engine evolves every basis state of the packet's amplitude
array with its own phase, psi(t) = a * exp(-i*dE*t), and contracts the pair
sums of that one psi(t) with the block tables of every observable at once:
<psi(t)|V|psi(t)> for all bands together.

Exponentials are taken only at anchor samples, every ANCHOR_STRIDE-th one:
sample j with anchor k = ANCHOR_STRIDE * floor(j / ANCHOR_STRIDE) gets

    psi(t_j) = [a * exp(-i*dE*t_k)] * exp(-i*dE*(t_j - t_k)).

The second factor comes from one table of ANCHOR_STRIDE steps, built from
the first anchor's offsets and reused by every anchor whose offsets match
them to within a few ulp of |t|, as on every grid of ``sample_times``; an
anchor of any other grid takes the exponentials of its own offsets in the
same formula.  The default 256 samples then cost 32 exponentials per state
instead of 256.  The anchors sit at fixed sample indices, so the block of
TIME_BLOCK samples evolved at once bounds memory without changing a value.

The energies dE are measured from the reference state.  In
uniform-gap mode they are exactly (m - n)*omega +
(zeta - epsilon)*omega_a/2, the frequencies the closed forms use, so the
phases are exactly periodic; in exact mode each basis state keeps its own
level energy and the packet slowly dephases, the effect the semiclassical
freezing discards.

Metric convention: signature (+,-,-,-), Levi-Civita eps^{0123} = +1.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
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

#: time samples evolved at once; bounds the memory held by psi(t), whose
#: (TIME_BLOCK, levels, S) block stays in cache at 10^4 levels
TIME_BLOCK = 32

#: samples per anchor; psi(t) takes its exponentials at every
#: ANCHOR_STRIDE-th sample, whatever TIME_BLOCK is
ANCHOR_STRIDE = 16

#: an anchor's offsets match the step table's to within this many ulp of |t|
_OFFSET_ULPS = 4


def _level_energy(cfg: FieldConfig, kind: str, m: int, zeta: int) -> float:
    return energy_scalar(cfg, m) if kind == SCALAR else energy_spinor(cfg, m, zeta)


def relative_energies(packet: PacketSpec, cfg: FieldConfig, mode: str = UNIFORM_GAP) -> np.ndarray:
    """Phase energies of the packet's basis states less the energy of its
    reference state (n, epsilon), shape (levels, S) like the amplitudes.

    In uniform-gap mode every adjacent-level gap equals the cyclotron
    frequency of the reference level and every spin splitting its anomalous
    frequency (zero for spin-0), which keeps the phases exactly periodic.
    In exact mode each state carries its true level energy.
    """
    if mode not in (UNIFORM_GAP, EXACT):
        raise DomainError(f"mode: must be '{UNIFORM_GAP}' or '{EXACT}', got {mode!r}")
    kind, n, zeta_ref = packet.kind, packet.n, packet.epsilon
    zetas = spin_labels(kind)
    if mode == EXACT:
        base = _level_energy(cfg, kind, n, zeta_ref)
        return np.array([[_level_energy(cfg, kind, m, z) - base for z in zetas] for m in packet.levels])
    omega = cyclotron_frequency(cfg, n, zeta_ref, kind)[0]
    energies = (np.asarray(packet.levels)[:, None] - n) * omega
    if kind == SPINOR:
        omega_a = anomalous_frequency(cfg, n)[0]
        energies = energies + 0.5 * (np.array(zetas) - zeta_ref) * omega_a
    return energies


def _phases(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i*dE*t) for every time, shape (len(times), levels, S)."""
    return np.exp(-1j * energies * times[:, None, None])


def expectation_series(
    packet: PacketSpec, bands: Iterable[OperatorBand], energies: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """Real expectation values <psi(t)|V|psi(t)> of a sequence of bands on a
    time grid, shape (T, len(bands)), with ``energies`` the phase energies
    of ``relative_energies``.

    psi(t) is stepped from its anchor samples (see the module docstring)
    one block of TIME_BLOCK samples at a time, and the pair sums of each
    block are contracted with every block table in one product.  The
    imaginary residue of the Hermitian sums is checked against
    HERMITIAN_IMAG_TOL and discarded.
    """
    bands = tuple(bands)
    for band in bands:
        if (band.levels, band.kind) != (packet.levels, packet.kind):
            raise DomainError(
                f"levels, kind: band window {band.levels} of kind {band.kind!r} does not match "
                f"the packet's {packet.levels} of kind {packet.kind!r}"
            )
    if np.shape(energies) != packet.amplitudes.shape:
        raise DomainError(
            f"energies: expected shape {packet.amplitudes.shape}, got {np.shape(energies)}"
        )
    times = np.asarray(times, dtype=float)
    coefficients = np.stack([band.blocks.reshape(-1) for band in bands], axis=1)
    stride = ANCHOR_STRIDE
    position = np.arange(times.size) % stride
    offsets = times - times[np.arange(times.size) - position]  # t_j - t_k
    steps = _phases(energies, offsets[:stride])
    # an anchor reuses the step table when all its offsets are the first
    # anchor's to within a few ulp of |t|, as on every uniform grid; on any
    # other grid it takes the exponentials of its own offsets
    matches = np.abs(offsets - offsets[position]) <= _OFFSET_ULPS * np.spacing(np.abs(times))
    reuse = [bool(matches[k : k + stride].all()) for k in range(0, times.size, stride)]
    values = np.empty((times.size, len(bands)), dtype=complex)
    for start in range(0, times.size, TIME_BLOCK):
        stop = min(start + TIME_BLOCK, times.size)
        first = start - start % stride
        anchors = packet.amplitudes * _phases(energies, times[first:stop:stride])
        psi = np.empty((stop - start, *energies.shape), dtype=complex)
        for psi_anchor, k in zip(anchors, range(first, stop, stride)):
            lo, hi = max(k, start), min(k + stride, stop)
            step = steps[lo - k : hi - k] if reuse[k // stride] else _phases(energies, offsets[lo:hi])
            np.multiply(psi_anchor, step, out=psi[lo - start : hi - start])
        values[start:stop] = pair_sums(psi).reshape(stop - start, -1) @ coefficients
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
    energies = relative_energies(packet, cfg, mode)
    values = expectation_series(packet, build_packet_bands(packet, cfg).values(), energies, times)
    p = values[:, : len(MOMENTUM_OBSERVABLES)]
    weights = np.abs(packet.amplitudes) ** 2
    reference = _level_energy(cfg, packet.kind, packet.n, packet.epsilon)
    p0 = np.full(times.size, reference + float(np.sum(weights * energies)))
    s = None if packet.kind == SCALAR else values[:, len(MOMENTUM_OBSERVABLES) :]
    return Trajectory(times=times, p=p, s=s, p0=p0)


def closed_form_trajectory(
    kin: SpinKinematics, levels: int | None, omega: float, omega_a: float, times: np.ndarray
) -> Trajectory:
    """Trajectory of the closed forms, with the reference energy as the
    four-momentum time component."""
    times = np.asarray(times, dtype=float)
    p = closed_form_momentum(kin, levels, omega, times)
    s = closed_form_spin(kin, levels, omega, omega_a, times)
    return Trajectory(times=times, p=p, s=s, p0=np.full(times.size, kin.energy))
