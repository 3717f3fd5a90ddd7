"""Time evolution of expectation values: the packet state psi(t) contracted
with the block tables of the observables, the closed-form trajectories it
reproduces and the polarization tensor.

Everything here derives from the packet, the engine's only input: it
carries its field, and its reference state (n, epsilon), the center of its
window, fixes one frozen ``SpinKinematics`` (``PacketSpec.reference``),
which the block tables of the bands, the phase energies of
``relative_energies`` and the energy p0 all read; ``expectation_series``
builds every band of the packet's kind over the packet's own level window
in its own field, so no band can come from another window or field; and a
``Trajectory`` derives its invariant residuals from its own samples.  The
engine evolves every basis state of the packet's amplitude array with its
own phase, psi(t) = a * exp(-i*dE*t), and contracts the pair sums of
psi(t) with the block tables of every observable at once:
<psi(t)|V|psi(t)> for all bands together.

Exponentials are taken only at anchor samples, every s-th one for the
anchor stride s = ``anchor_stride(T)`` of a grid of T samples: sample j with
anchor k = s * floor(j / s) has

    psi(t_j) = A_k * s_r,  A_k = a * exp(-i*dE*t_k),  s_r = exp(-i*dE*(t_j - t_k)).

The steps s_r come from one table of s rows, built from the first anchor's
offsets and reused by every anchor whose offsets match them to within a few
ulp of |t|, as on every grid of ``sample_times``; an anchor of any other
grid takes the exponentials of its own offsets.  A state then costs T/s + s
exponentials instead of T, least at s ~ sqrt(T), so s is the largest power
of two <= sqrt(T), never below MIN_ANCHOR_STRIDE: the default 256 samples
take 16 + 16 per state, the 8192 of one anomalous period 128 + 64.  Each
exponential is the cosine and sine of the real angle -dE*t, which are the
bits np.exp gives the complex rate -i*dE*t.

psi(t) itself is never formed.  Each pair sum, over m of
conj(psi[m + d, b]) * psi[m, k], factors into a product of an anchor part
and a step part, so the sums of all anchors and steps are matrix products
per level offset and spin pair (``_factored_pair_sums``), with an anchor off
the table taking the same products against its own steps.  Anchors and
steps are stored spin-major, (S, rows, levels), so both parts are products
of contiguous rows.  The anchors are evolved in blocks of TIME_BLOCK, and
each product takes one block and MIN_ANCHOR_STRIDE steps, the products of
every grid under 1024 samples, since BLAS may sum an entry of a larger
product in another order; the last block is padded with zero anchors and
every step table with zero offsets, so every product has the same shape
and no value depends on the block or on where it ends.

The level axis is worked through in chunks of LEVEL_CHUNK levels, each
with its own step table and its anchors block by block.  A chunk reads one
level past the ones it owns, so that its d = +1 sums close the pair
(m, m + 1) across its upper border, while its d = 0 sums cover only its
own levels: every pair is summed once.  The block tables do not depend on
m, so each chunk's sums are contracted with them at once and added into
the result.  The phases held at any time are O(S * (TIME_BLOCK + s) *
LEVEL_CHUNK) values and the pair sums of one block O(S^2 * TIME_BLOCK * s),
plus O(levels + samples) for the packet, the energies, the time offsets and
the result.  A packet of at most LEVEL_CHUNK levels is one chunk and gets
the bits of a sum over all its levels at once.

The energies dE are measured from the reference state.  In
uniform-gap mode they are exactly (m - n)*omega +
(zeta - epsilon)*omega_a/2, the rates of the reference the closed forms
turn at (omega_a = 0 for spin-0), so the phases are exactly periodic; in
exact mode each basis state keeps its own level energy and the packet
slowly dephases, the effect the semiclassical freezing discards.

Metric convention: signature (+,-,-,-), Levi-Civita eps^{0123} = +1.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from .errors import AccuracyError, DomainError
from .kinematics import SCALAR, SpinKinematics, level_energy
from .operators import (
    DOWN,
    MOMENTUM_OBSERVABLES,
    OBSERVABLES,
    SAME,
    UP,
    build_operator_band,
    spin_labels,
)
from .packets import PacketSpec, contrast_factor
from .trajectory import Trajectory

UNIFORM_GAP = "uniform-gap"
EXACT = "exact"

#: tolerance on the imaginary residue of a Hermitian expectation value
HERMITIAN_IMAG_TOL = 1e-12

#: anchors evolved at once, the rows of one pair-sum product; the last
#: block is padded with zero anchors, so every product has TIME_BLOCK rows
TIME_BLOCK = 16

#: levels whose phases and pair sums are held at once; a chunk reads one
#: level past the ones it owns, and a packet of at most LEVEL_CHUNK levels
#: is one chunk
LEVEL_CHUNK = 1024

#: least samples per anchor, and steps of one pair-sum product; a grid of
#: fewer than 1024 samples takes its exponentials at every
#: MIN_ANCHOR_STRIDE-th one (``anchor_stride``)
MIN_ANCHOR_STRIDE = 16

#: an anchor's offsets match the step table's to within this many ulp of |t|
_OFFSET_ULPS = 4


def relative_energies(packet: PacketSpec, mode: str = UNIFORM_GAP) -> np.ndarray:
    """Phase energies of the packet's basis states less the energy of its
    reference state (n, epsilon), shape (levels, S) like the amplitudes.

    Both modes read the packet's ``reference``: in uniform-gap
    mode every adjacent-level gap is its ``omega`` and every spin splitting
    its ``omega_a`` (zero for spin-0), which keeps the phases exactly
    periodic; in exact mode each state carries its true level energy, less
    the reference ``energy``.
    """
    if mode not in (UNIFORM_GAP, EXACT):
        raise DomainError(f"mode: must be '{UNIFORM_GAP}' or '{EXACT}', got {mode!r}")
    kind, cfg, kin, levels = packet.kind, packet.field, packet.reference, packet.levels
    zetas = spin_labels(kind)
    if mode == EXACT:
        return np.array([[level_energy(cfg, m, z, kind) - kin.energy for z in zetas] for m in levels])
    # np.arange, not np.asarray: numpy reads a range element by element
    offsets = np.arange(levels.start, levels.stop)[:, None] - packet.n
    return offsets * kin.omega + 0.5 * (np.array(zetas) - packet.epsilon) * kin.omega_a


def _phases(energies: np.ndarray, times: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-i*dE*t) for every time, spin-major: shape (S, len(times), levels)
    for phase energies dE of shape (S, levels).

    The cosine and sine of the real angle theta = -dE*t go into the real and
    imaginary parts; adding 0.0 turns theta = -0 into +0, the sign the
    complex product -i*dE*t gives it, so the result is np.exp(-1j*dE*t) bit
    for bit.
    """
    if out is None:
        out = np.empty((energies.shape[0], times.size, energies.shape[1]), dtype=complex)
    theta = np.multiply(energies[:, None, :], -times[:, None])
    theta += 0.0
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def anchor_stride(samples: int) -> int:
    """Samples per anchor on a grid of ``samples``: the largest power of two
    <= sqrt(samples), never below MIN_ANCHOR_STRIDE, so that a state takes
    about samples / s + s exponentials."""
    return max(MIN_ANCHOR_STRIDE, 1 << (math.isqrt(max(samples, 1)).bit_length() - 1))


def _factored_pair_sums(anchors: np.ndarray, steps: np.ndarray, owned: int) -> np.ndarray:
    """Pair sums of psi = anchors[:, K] * steps[:, r] for every anchor K and
    step r, shape (K, R, 3, S, S) in the layout of ``pair_sums``, without
    forming psi.

    ``anchors`` (S, K, levels), one block of K <= TIME_BLOCK anchors, and
    ``steps`` (S, R, levels) are spin-major and span a run of levels whose
    first ``owned`` are summed over: the d = 0 sums cover those levels, the
    d = +1 sums every pair (m, m + 1) of the run, which takes in one level
    past the owned ones when the run has it.  The sum over m of
    conj(psi[m + d, b]) * psi[m, k] factors into X[K, m] * Y[r, m], with
    X = conj(anchors[b, K, m + d]) * anchors[k, K, m] and Y the same product
    of the steps: one (K x levels) @ (levels x MIN_ANCHOR_STRIDE) product
    per tile of steps, offset d in {0, +1} and spin pair (b, k), over
    contiguous rows.  The d = -1 sums are the conjugate transposes of the
    d = +1 sums.
    """
    spins, rows, levels = anchors.shape
    sums = np.empty((rows, steps.shape[1], 3, spins, spins), dtype=complex)
    # a one-row product would go through BLAS's matrix-vector kernel, which
    # sums less accurately, so x keeps a zero second row
    x = np.zeros((max(rows, 2), levels), dtype=complex)
    y = np.empty((steps.shape[1], levels), dtype=complex)
    for d, width in ((0, owned), (1, levels - 1)):
        for b in range(spins):
            for k in range(spins):
                xb, yb = x[:rows, :width], y[:, :width]
                np.multiply(np.conjugate(anchors[b, :, d : d + width], out=xb), anchors[k, :, :width], out=xb)
                np.multiply(np.conjugate(steps[b, :, d : d + width], out=yb), steps[k, :, :width], out=yb)
                # MIN_ANCHOR_STRIDE steps per product, whatever the table:
                # BLAS may sum an entry of a wider product in another order
                for col in range(0, y.shape[0], MIN_ANCHOR_STRIDE):
                    cols = slice(col, col + MIN_ANCHOR_STRIDE)
                    sums[:, cols, SAME + d, b, k] = (x[:, :width] @ yb[cols].T)[:rows]
    sums[:, :, DOWN] = sums[:, :, UP].conj().swapaxes(-1, -2)
    return sums


def expectation_series(packet: PacketSpec, energies: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Real expectation values <psi(t)|V|psi(t)> of every observable of the
    packet's kind on a time grid, shape (T, observables) in the order of
    OBSERVABLES (MOMENTUM_OBSERVABLES for spin-0), with ``energies`` the
    phase energies of ``relative_energies``.

    The bands are built over the packet's own level window in its own
    field, frozen at its reference state (n, epsilon).  The pair sums of
    psi(t) are factored over anchors and steps (see the module docstring),
    LEVEL_CHUNK levels and one block of anchors at a time, and contracted
    with every block table in one product.  The imaginary residue of the Hermitian sums is
    checked against HERMITIAN_IMAG_TOL and discarded.
    """
    if np.shape(energies) != packet.amplitudes.shape:
        raise DomainError(
            f"energies: expected shape {packet.amplitudes.shape}, got {np.shape(energies)}"
        )
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise DomainError("times: must be finite")
    names = MOMENTUM_OBSERVABLES if packet.kind == SCALAR else OBSERVABLES
    bands = (
        build_operator_band(packet.levels, name, packet.field, packet.n, kind=packet.kind, zeta_ref=packet.epsilon)
        for name in names
    )
    coefficients = np.stack([band.reshape(-1) for band in bands], axis=1)
    stride = anchor_stride(times.size)
    anchor_times = times[::stride]
    # offsets t_j - t_k by anchor and step, padded with zero steps past the
    # last sample so that every step table has ``stride`` rows
    index = np.arange(times.size)
    offsets = np.zeros((max(anchor_times.size, 1), stride))
    offsets.flat[: times.size] = times - times[index - index % stride]
    slack = np.full(offsets.shape, np.inf)
    slack.flat[: times.size] = _OFFSET_ULPS * np.spacing(np.abs(times))
    # an anchor reuses the step table when all its offsets are the first
    # anchor's to within a few ulp of |t|, as on every uniform grid; on any
    # other grid it takes the exponentials of its own offsets
    reuse = np.all(np.abs(offsets - offsets[0]) <= slack, axis=1)
    energies = np.ascontiguousarray(np.transpose(energies), dtype=float)  # spin-major, (S, levels)
    spins, levels = energies.shape
    # -0 is the identity of addition, so a packet of one chunk keeps the
    # bits of its sums, signed zeros included
    values = np.full((times.size, len(names)), complex(-0.0, -0.0))
    for low in range(0, levels, LEVEL_CHUNK):
        # the chunk owns LEVEL_CHUNK levels and reads one more, which closes
        # its last (m, m + 1) pair
        owned = min(LEVEL_CHUNK, levels - low)
        run = slice(low, min(low + owned + 1, levels))
        chunk = energies[:, run]
        amplitudes = packet.amplitudes.T[:, None, run]
        table = _phases(chunk, offsets[0])
        anchors = np.zeros((spins, TIME_BLOCK, chunk.shape[1]), dtype=complex)
        for first in range(0, anchor_times.size, TIME_BLOCK):
            count = min(TIME_BLOCK, anchor_times.size - first)
            block = _phases(chunk, anchor_times[first : first + count], out=anchors[:, :count])
            np.multiply(amplitudes, block, out=block)
            anchors[:, count:] = 0  # the last block is padded to the same rows
            sums = _factored_pair_sums(anchors, table, owned)
            for row in np.flatnonzero(~reuse[first : first + count]):
                own = _phases(chunk, offsets[first + row])
                sums[row] = _factored_pair_sums(anchors[:, row : row + 1], own, owned)[0]
            start, stop = first * stride, min((first + TIME_BLOCK) * stride, times.size)
            values[start:stop] += sums.reshape(-1, coefficients.shape[0])[: stop - start] @ coefficients
    residue = float(np.max(np.abs(values.imag))) if values.size else 0.0
    # written so that a NaN residue fails too
    if not residue <= HERMITIAN_IMAG_TOL:
        raise AccuracyError(
            f"imaginary residue {residue:.3e} of Hermitian expectation exceeds {HERMITIAN_IMAG_TOL} "
            f"at reference energy E = {packet.reference.energy:.6g}; the residue grows with "
            "E^2 = 1 + b_z^2 + 4hn, so a smaller b_z, h or n lowers it"
        )
    return values.real


def sample_times(omega: float, samples: int = 256, t_max: float | None = None) -> np.ndarray:
    """Uniform time grid over [0, t_max), default two cyclotron periods.

    The endpoint is excluded, so on the default span the grid hits the
    quarter period exactly when ``samples`` is a multiple of 8, as the
    default 256 is; the transverse-momentum extremum is then a grid point,
    and ``Trajectory.amplitude_factor`` reads the factor exactly.  Other
    counts miss it: 250 samples read the factor 5.3e-5 low at 3 levels, and
    4 samples read 0.
    """
    if samples < 2:
        raise DomainError(f"samples: must be >= 2, got {samples}")
    if t_max is None:
        if not 0 < omega < math.inf:
            raise DomainError(f"omega: need a positive finite frequency to choose a default span, got {omega}")
        t_max = 4.0 * math.pi / omega
    if not 0 < t_max < math.inf:
        raise DomainError(f"t_max: must be finite and > 0, got {t_max}")
    if t_max * (samples - 1) == math.inf:
        raise DomainError(f"t_max: {t_max} times {samples - 1} overflows the grid of {samples} samples")
    return t_max * np.arange(samples) / samples


def closed_form_momentum(kin: SpinKinematics, levels: int | None, times) -> np.ndarray:
    """Momentum expectation of an N-level packet: a circle of radius
    (N-1)/N * b_perp traversed at the cyclotron frequency ``kin.omega``,
    plus the constant longitudinal component.  ``levels=None`` gives the
    classical limit of unit contrast."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    f = contrast_factor(levels)
    out = np.empty((t.size, 3))
    out[:, 0] = -f * kin.b_perp * np.sin(kin.omega * t)
    out[:, 1] = f * kin.b_perp * np.cos(kin.omega * t)
    out[:, 2] = kin.b_z
    return out if np.ndim(times) else out[0]


def closed_form_spin(kin: SpinKinematics, levels: int | None, times) -> np.ndarray:
    """Four-spin expectation (S0, Sx, Sy, Sz) of an N-level packet.

    The transverse components carry the contrast factor (N-1)/N and mix the
    cyclotron rotation at ``kin.omega`` and the anomalous one at
    ``kin.omega_a``; the longitudinal and time components oscillate at the
    anomalous frequency alone.  ``levels=None`` gives the classical limit
    of unit contrast.
    """
    t = np.atleast_1d(np.asarray(times, dtype=float))
    f = contrast_factor(levels)
    cw, sw = np.cos(kin.omega * t), np.sin(kin.omega * t)
    ca, sa = np.cos(kin.omega_a * t), np.sin(kin.omega_a * t)
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


def evolve_packet(packet: PacketSpec, times: np.ndarray, mode: str = UNIFORM_GAP) -> Trajectory:
    """Run the generic engine over a time grid and collect a trajectory.

    The energy component of the four-momentum is the packet-averaged level
    energy, the reference energy plus the mean phase energy, which is time
    independent.
    """
    times = np.asarray(times, dtype=float)
    energies = relative_energies(packet, mode)
    values = expectation_series(packet, energies, times)
    p = values[:, : len(MOMENTUM_OBSERVABLES)]
    weights = np.abs(packet.amplitudes) ** 2
    p0 = np.full(times.size, packet.reference.energy + float(np.sum(weights * energies)))
    s = None if packet.kind == SCALAR else values[:, len(MOMENTUM_OBSERVABLES) :]
    return Trajectory(times=times, p=p, s=s, p0=p0)


def closed_form_trajectory(kin: SpinKinematics, levels: int | None, times: np.ndarray) -> Trajectory:
    """Trajectory of the closed forms at the rates of ``kin``, with the
    reference energy as the four-momentum time component."""
    times = np.asarray(times, dtype=float)
    p = closed_form_momentum(kin, levels, times)
    s = closed_form_spin(kin, levels, times)
    return Trajectory(times=times, p=p, s=s, p0=np.full(times.size, kin.energy))
