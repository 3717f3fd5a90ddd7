"""Classical reference dynamics: the classical reference of a packet (its
anomaly-free kinematics, turning at the lab-time cyclotron and anomalous
frequencies, and its initial state) and a fixed-step integrator for
covariant spin precession in a constant magnetic field along z.  The closed-form classical motion is the
unit-contrast limit of the closed forms in ``evolution``.  The lab-time
rates ``cyclotron_omega`` and ``anomalous_omega`` are the one home of the
closed forms that a reference's level gap and zeta-splitting approach.

The integrator advances the pair (u, S) of four-vectors in lab time,
u = (gamma, b_vec) the dimensionless four-momentum and S the four-spin,

    du/d(tau) = K u_low,
    dS/d(tau) = (g/2) K S_low + (g/2 - 1) u (S_low K u_low),

with d(tau) = dt/gamma and K the dimensionless field tensor whose only
nonzero components are K^{12} = -K^{21} = 2h for a negative charge in a
field of strength h along +z.  A magnetic field does no work, so gamma is
conserved; orthogonality S.u and the spacelike norm of S are conserved by
the equation and drift only through integrator error, which each run's
residuals record: the ``trajectory`` command aborts past its drift limit,
and ``verify`` checks the drift against its own tolerance.

The scheme is the order-8 Dormand-Prince tableau (the 12-stage DOP853 of
Hairer, Norsett & Wanner, Solving Ordinary Differential Equations I,
Sec. II.10, used at a fixed step).  The reference's step
(``ClassicalReference.step``) resolves one period of the fastest of the
cyclotron rotation, the anomalous precession and the anomalous coupling
frequency of ``spin_coupling_omega`` with STEPS_PER_PERIOD = 32 points;
the coupling frequency takes over above level 2 * 10^3 at the physical
anomaly and h = 0.1, and without it the invariant drift at level 10^4
reads 5.1e-7 instead of 1.1e-9.  Over one anomalous period (about 135
cyclotron periods at the physical anomaly) its error against the closed
form is 7e-10 at the default ``verify`` configuration.

The scheme uses that both equations are linear, the momentum
equation in (u1, u2) and the spin equation in S once u is given, and that
both are unchanged by a rotation about the field.  Written in the frame of
the momentum, one step of a given length is therefore the same linear map
for every step: the momentum gains delta * u (a scaled quarter turn, the
tableau's stability polynomial minus 1), and the transverse spin (s1, s2),
resolved along and across the momentum, gains a 2 x 2 map of itself, s0 and
s3 a row of it.  The 12 stages run once per distinct step length, as
numpy arrays over the lengths and in double-double arithmetic (about
2^-100 relative), so each map is its exact value rounded once.  That
matters twice over:

- an error in a map repeats on every step of its length, so it grows
  linearly with the step count where fresh roundoff grows as its square
  root; delta is moreover applied as hi + lo (for the spin maps the low
  parts moved no residual beyond roundoff);
- the anomalous term shears the spin along the momentum with entries of
  order a k b^2 dt / gamma (about 36 at level 10^5 and anomaly 5).  In the
  lab basis those entries multiply the large spin components and cancel;
  along and across the momentum they multiply only the small transverse
  component.

The maps depend on the momentum's length rho only through the spin
equation, and rho moves only by roundoff and by the scheme's amplitude
error (1.9e-15 per step at 32 steps per period), so each step takes the
map at rho plus its first-order change in rho^2.  Two scalar loops then
apply the maps in order: the momentum's, and the transverse spin's, turned
to each step's momentum direction; s0 and s3 follow as running sums of
their rows.  u0 and u3 stay fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .doubledouble import _dd_mul_add, _two_prod
from .errors import DomainError
from .evolution import closed_form_momentum, closed_form_spin
from .kinematics import FieldConfig, SpinKinematics
from .trajectory import Trajectory

#: default resolution, by the order-8 scheme, of one period of the faster rotation
STEPS_PER_PERIOD = 32

#: most order-8 steps one run may take: 9 times the 1.1e6 steps of the
#: largest validated run (``verify`` at level 10^6 and anomaly 5).  At the
#: cap a run takes about 12 s and memory by the sample; recording every step
#: (``step_grid``) holds 64 bytes a step, 0.64 GB
MAX_STEPS = 10**7

#: the order-8 Dormand-Prince tableau (DOP853, Hairer, Norsett & Wanner):
#: nodes c, stage matrix a (row i holds the i entries left of the diagonal)
#: and order-8 weights b, each rounded to the nearest double
_DOP853_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0,
)
_DOP853_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
        -0.015319437748624402, 0.008273789163814023,
    ),
    (
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
        27.59209969944671, 20.154067550477894, -43.48988418106996,
    ),
    (
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
        21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627,
    ),
    (
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
        -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
        -3.0467644718982196,
    ),
    (
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
        -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
        12.360567175794303, 0.6433927460157636,
    ),
)
_DOP853_B = (
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259,
)

#: relative change of the momentum's length at which the order-8 scheme
#: takes the derivative of its frame maps in rho^2
_RHO_STEP = 2.0**-20
#: steps the order-8 scheme advances between two conversions of lists to arrays
_DOP853_BLOCK = 1024


@dataclass(frozen=True)
class ClassicalState:
    """Instantaneous classical state: four-momentum u, four-spin s, g-factor."""

    u: tuple[float, float, float, float]
    s: tuple[float, float, float, float]
    g_factor: float


def cyclotron_omega(h_field: float, gamma: float) -> float:
    """Lab-time cyclotron frequency 2h/gamma of the classical motion."""
    return 2.0 * h_field / gamma


def anomalous_omega(h_field: float, gamma: float, b: float, anomaly: float) -> float:
    """Lab-time anomalous precession frequency anomaly * 2h * b / gamma, the
    anomaly being the ratio g/2 - 1.  At gamma = sqrt(b_z^2 + b^2) it is the
    closed form that a level's zeta-splitting approaches to relative
    O((anomaly*h)^2)."""
    return anomaly * 2.0 * h_field * b / gamma


def spin_coupling_omega(h_field: float, gamma: float, b_perp: float, g_factor: float) -> float:
    """Lab-time frequency (2h/gamma) * b_perp * sqrt((g/2 - 1) * g/2) that
    the anomalous term adds to the linearized spin precession.

    With the momentum held fixed, the transverse spin components (S^1, S^2)
    obey a linear system whose frequency is the root sum square of
    (g/2) * omega and this one.  The exact motion does not oscillate at it,
    but the local error of a step grows with the Jacobian of the right-hand
    side, so the step has to resolve it once it exceeds omega, about where
    gamma^2 * anomaly reaches 1.
    """
    half_g = 0.5 * g_factor
    return 2.0 * h_field / gamma * b_perp * math.sqrt(abs((half_g - 1.0) * half_g))


@dataclass(frozen=True)
class ClassicalReference:
    """Classical motion matching the full-contrast packet at one level: the
    anomaly-free kinematics, turning at the lab-time cyclotron and
    anomalous frequencies, the initial state, whose g-factor is
    2(1 + anomaly), and the order-8 step that resolves its rates."""

    kin: SpinKinematics
    init: ClassicalState
    step: float


def classical_reference(cfg: FieldConfig, n: int, epsilon: int = 1) -> ClassicalReference:
    """The classical reference of the packet centered on level n: the
    kinematics of level n at anomaly 0 (B^2 = b^2 + b_z^2 exactly, so the
    four-spin invariants close identically), turning at ``cyclotron_omega``
    and ``anomalous_omega`` instead of the level gaps.  Its ``step`` is
    ``default_step`` at the anomalous precession and coupling frequencies."""
    kin = SpinKinematics.from_field(replace(cfg, anomaly=0.0), n, epsilon)
    g = 2.0 * (1.0 + cfg.anomaly)
    p = closed_form_momentum(kin, None, 0.0)
    s = closed_form_spin(kin, None, 0.0)
    init = ClassicalState(
        u=(kin.energy, float(p[0]), float(p[1]), float(p[2])),
        s=(float(s[0]), float(s[1]), float(s[2]), float(s[3])),
        g_factor=g,
    )
    omega_a = anomalous_omega(cfg.h, kin.energy, kin.b, 0.5 * g - 1.0)
    coupling = spin_coupling_omega(cfg.h, kin.energy, kin.b_perp, g)
    return ClassicalReference(
        kin=replace(kin, omega=cyclotron_omega(cfg.h, kin.energy), omega_a=omega_a),
        init=init,
        step=default_step(cfg.h, kin.energy, omega_a, coupling),
    )


def _quarter_turn(x: np.ndarray) -> np.ndarray:
    """(x1, x2) -> (-x2, x1) along the first axis."""
    return np.stack([-x[1], x[0]])


def _frame_steps(lengths: np.ndarray, rho: np.ndarray, k: float, inv: float, g: float):
    """One order-8 step for each lane, taken in the frame of the momentum
    and in double-double arithmetic: the momentum starts at (rho, 0), the
    two unit spins at (1, 0) along and (0, 1) across it, and the step has
    the lane's length.  Returns, each as a pair (hi, lo), the increment of
    the momentum divided by rho (components, lanes), those of the spins
    (components, spins, lanes), and dt * sum_i b_i q_i of each spin
    (spins, lanes).
    """
    half_g = 0.5 * g
    a = half_g - 1.0
    omega = _two_prod(k, inv)
    hk = _two_prod(half_g, k)
    # the stage matrix, its last row the weights b, read at each call
    weights = np.zeros((13, 12))
    for i, row in enumerate((*_DOP853_A, _DOP853_B)):
        weights[i, : len(row)] = row
    # rows: the momentum over rho, then (s1, s2) x (along, across)
    start = np.zeros((6, lengths.size))
    start[0], start[2], start[5] = 1.0, 1.0, 1.0
    # sum_j weights[i, j] * rate_j of each row i over the stages j taken so
    # far; a rate holds the six rows of start, then q of each spin
    sum_h, sum_l = np.zeros((2, 13, 8, lengths.size))
    for stage in range(12):
        yh, yl = _dd_mul_add(lengths, 0.0, sum_h[stage, :6], sum_l[stage, :6], start, 0.0)
        uh, ul = _dd_mul_add(rho, 0.0, yh[:2], yl[:2], 0.0, 0.0)
        sh, sl = yh[2:].reshape(2, 2, -1), yl[2:].reshape(2, 2, -1)
        # q = k (s1 u2 - s2 u1); ds/dt = ((g/2) k J s + a q u) / gamma, du/dt = k J u / gamma
        qh, ql = _dd_mul_add(sh[0], sl[0], uh[1], ul[1], 0.0, 0.0)
        qh, ql = _dd_mul_add(-sh[1], -sl[1], uh[0], ul[0], qh, ql)
        qh, ql = _dd_mul_add(k, 0.0, qh, ql, 0.0, 0.0)
        ah, al = _dd_mul_add(a, 0.0, qh, ql, 0.0, 0.0)
        dh, dl = _dd_mul_add(ah, al, uh[:, None], ul[:, None], 0.0, 0.0)
        dh, dl = _dd_mul_add(*hk, _quarter_turn(sh), _quarter_turn(sl), dh, dl)
        dh, dl = _dd_mul_add(inv, 0.0, dh, dl, 0.0, 0.0)
        mh, ml = _dd_mul_add(*omega, _quarter_turn(yh[:2]), _quarter_turn(yl[:2]), 0.0, 0.0)
        rows = np.flatnonzero(weights[:, stage])
        sum_h[rows], sum_l[rows] = _dd_mul_add(
            weights[rows, stage, None, None], 0.0,
            np.concatenate([mh, dh.reshape(4, -1), qh]), np.concatenate([ml, dl.reshape(4, -1), ql]),
            sum_h[rows], sum_l[rows],
        )
    dh, dl = _dd_mul_add(lengths, 0.0, sum_h[12], sum_l[12], 0.0, 0.0)
    return (dh[:2], dl[:2]), (dh[2:6].reshape(2, 2, -1), dl[2:6].reshape(2, 2, -1)), (dh[6:], dl[6:])


def _dop853_samples(init: ClassicalState, k: float, record_times: np.ndarray, substeps: np.ndarray) -> np.ndarray:
    """The order-8 states (u0, u1, u2, u3, s0, s1, s2, s3) on ``record_times``,
    with k = 2h; the span between two samples is split evenly into its
    number of ``substeps``."""
    lengths = np.diff(record_times) / substeps
    gamma, u1, u2, u3 = init.u
    s0, s1, s2, s3 = init.s
    inv = 1.0 / gamma
    a = 0.5 * init.g_factor - 1.0
    a3 = a * u3 * inv

    # one frame step per distinct length, at the momentum's length rho and
    # at rho (1 + _RHO_STEP) for the derivative in rho^2
    distinct, which = np.unique(lengths, return_inverse=True)
    rho = math.hypot(u1, u2)
    rho_next = rho * (1.0 + _RHO_STEP) + _RHO_STEP
    lanes = distinct.size
    (mh, ml), (sh, _), (qh, _) = _frame_steps(
        np.tile(distinct, 2), np.repeat([rho, rho_next], lanes), k, inv, init.g_factor
    )
    delta_hi = (mh[0] + 1j * mh[1])[:lanes]
    delta_lo = (ml[0] + 1j * ml[1])[:lanes]
    spin = sh[0] + 1j * sh[1]
    d_rho2 = rho_next**2 - rho**2
    spin, spin_slope = spin[:, :lanes], (spin[:, lanes:] - spin[:, :lanes]) / d_rho2
    q, q_slope = qh[:, :lanes], (qh[:, lanes:] - qh[:, :lanes]) / d_rho2

    ends = np.cumsum(substeps)
    steps = int(ends[-1]) if ends.size else 0
    out = np.empty((record_times.size, 8))
    out[0] = init.u + init.s
    out[1:, 0] = gamma
    out[1:, 3] = u3
    z, sigma = complex(u1, u2), complex(s1, s2)
    for begin in range(0, steps, _DOP853_BLOCK):
        # the length of each step of the block, by the span between samples it lies in
        ix = which[np.searchsorted(ends, np.arange(begin, min(begin + _DOP853_BLOCK, steps)), side="right")]
        # the momentum: u1 + i u2 gains delta (u1 + i u2), delta carried as hi + lo
        zs = [z]
        for d_hi, d_lo in zip(delta_hi[ix].tolist(), delta_lo[ix].tolist()):
            z = z + (d_hi * z + d_lo * z)
            zs.append(z)
        zs = np.array(zs)
        # the spin: the frame maps at each step's momentum length, turned to
        # its direction e
        radius = np.abs(zs[:-1])
        e = np.divide(zs[:-1], radius, out=np.ones(ix.size, dtype=complex), where=radius > 0)
        shift = (radius - rho) * (radius + rho)
        along, across = e * (spin[:, ix] + shift * spin_slope[:, ix])
        q_along, q_across = q[:, ix] + shift * q_slope[:, ix]
        sigmas = [sigma]
        for ce, ds_a, ds_c in zip(e.conj().tolist(), along.tolist(), across.tolist()):
            w = ce * sigma
            p, r = w.real, w.imag
            sigma = sigma + (p * ds_a + r * ds_c)
            sigmas.append(sigma)
        sigmas = np.array(sigmas)
        # p + i r = conj(e) sigma before each step, formed as Python forms it
        sr, si = sigmas.real[:-1], sigmas.imag[:-1]
        p, r = e.real * sr + e.imag * si, e.real * si - e.imag * sr
        dq = p * q_along + r * q_across
        s0s = np.cumsum(np.concatenate([[s0], a * dq]))
        s3s = np.cumsum(np.concatenate([[s3], a3 * dq]))
        s0, s3 = s0s[-1], s3s[-1]
        first, last = np.searchsorted(ends, (begin, begin + ix.size), side="right")
        at = ends[first:last] - begin
        rows = slice(first + 1, last + 1)
        out[rows, 1] = zs.real[at]
        out[rows, 2] = zs.imag[at]
        out[rows, 4] = s0s[at]
        out[rows, 5] = sigmas.real[at]
        out[rows, 6] = sigmas.imag[at]
        out[rows, 7] = s3s[at]
    return out


def default_step(h_field: float, gamma: float, *rates: float) -> float:
    """Step resolving one period of the fastest of the cyclotron rotation
    and the frequencies ``rates`` with STEPS_PER_PERIOD points."""
    omega = cyclotron_omega(h_field, gamma)
    if omega <= 0:
        raise DomainError("h_field: need a positive field for a default step")
    return 2.0 * math.pi / (max((omega, *map(abs, rates))) * STEPS_PER_PERIOD)


def step_counts(record_times: np.ndarray, dt: float, source: str = "record_times") -> np.ndarray:
    """The number of steps of at most ``dt`` between consecutive samples;
    DomainError naming ``source``, the grid's origin, above MAX_STEPS in
    all, a span whose count overflows or is NaN included."""
    with np.errstate(over="ignore"):
        counts = np.maximum(np.ceil(np.diff(record_times) / dt - 1e-12), 1.0)
    total = float(np.sum(counts))
    if not total <= MAX_STEPS:
        raise DomainError(
            f"{source}: reaching t = {record_times[-1]} takes {total:.3g} steps of at most {dt:.3g}, "
            f"more than {MAX_STEPS}"
        )
    return counts.astype(np.intp)


def step_grid(t_max: float, dt: float, source: str) -> np.ndarray:
    """The record grid of every step of an even split of [0, t_max] into
    steps of at most ``dt``.  The span is checked against MAX_STEPS by
    ``step_counts`` before the grid is allocated; DomainError naming
    ``source``, the knob that set the span, past the cap or for a span that
    is not positive."""
    step_counts(np.array([0.0, t_max]), dt, source)
    if not t_max > 0:
        raise DomainError(f"{source}: need a span t_max > 0, got {t_max}")
    steps = max(1, math.ceil(t_max / dt))
    return t_max * np.arange(steps + 1) / steps


def bmt_integrate(init: ClassicalState, h_field: float, record_times: np.ndarray, dt: float) -> Trajectory:
    """Integrate the spin precession from ``init`` and record its states on
    ``record_times``, a grid starting at 0.  The integrator lands on each
    sample exactly, splitting each span between samples evenly into the
    ``step_counts`` steps of at most ``dt``.  A run of more than MAX_STEPS
    steps raises DomainError before anything is allocated.  The invariant
    drift is left to the caller, in the trajectory's residuals.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError(f"dt: must be finite and > 0, got {dt}")
    record_times = np.asarray(record_times, dtype=float)
    if record_times.ndim != 1 or record_times.size == 0:
        raise DomainError("record_times: need a non-empty 1-D grid")
    if not np.all(np.isfinite(record_times)):
        raise DomainError("record_times: every time must be finite")
    if record_times[0] != 0.0:
        raise DomainError("record_times: grid must start at t = 0")
    arr = _dop853_samples(init, 2.0 * h_field, record_times, step_counts(record_times, dt))
    return Trajectory(times=record_times, p=arr[:, 1:4], s=arr[:, 4:8], p0=arr[:, 0])
