"""Classical reference dynamics: the classical reference of a packet (its
anomaly-free kinematics, lab-time cyclotron and anomalous frequencies and
initial state) and a fixed-step integrator for covariant spin precession
in a constant magnetic field along z.  The closed-form classical motion is the
unit-contrast limit of the closed forms in ``evolution``.

The integrator advances the pair (u, S) of four-vectors in lab time,
u = (gamma, b_vec) the dimensionless four-momentum and S the four-spin,

    du/d(tau) = K u_low,
    dS/d(tau) = (g/2) K S_low + (g/2 - 1) u (S_low K u_low),

with d(tau) = dt/gamma and K the dimensionless field tensor whose only
nonzero components are K^{12} = -K^{21} = 2h for a negative charge in a
field of strength h along +z.  A magnetic field does no work, so gamma is
conserved; orthogonality S.u and the spacelike norm of S are conserved by
the equation and drift only through integrator error, which is monitored.

The scheme is the order-8 Dormand-Prince tableau (the 12-stage DOP853 of
Hairer, Norsett & Wanner, Solving Ordinary Differential Equations I,
Sec. II.10, used at a fixed step).  Its default step resolves one period of
the fastest of the cyclotron rotation, the anomalous precession and the
anomalous coupling frequency of ``spin_coupling_omega`` with
STEPS_PER_PERIOD = 32 points; the coupling frequency takes over above level
2 * 10^3 at the physical anomaly and h = 0.1, and without it the invariant
drift at level 10^4 reads 5.1e-7 instead of 1.1e-9.  Over one anomalous
period (about 135 cyclotron periods at the physical anomaly) its error
against the closed form is 7e-10 at the default ``verify`` configuration.

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
apply the maps in order: the momentum's, and the spin's, turned to each
step's momentum direction.  u0 and u3 stay fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationAccuracyError
from .evolution import closed_form_momentum, closed_form_spin, closed_form_trajectory
from .kinematics import FieldConfig, SpinKinematics
from .trajectory import Trajectory

#: default resolution, by the order-8 scheme, of one period of the faster rotation
STEPS_PER_PERIOD = 32

#: invariant drift beyond this aborts the run
DRIFT_LIMIT = 1e-6

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


def anomalous_omega(h_field: float, gamma: float, b: float, g_factor: float) -> float:
    """Lab-time anomalous precession frequency (g/2 - 1) * 2h * b / gamma."""
    return (0.5 * g_factor - 1.0) * 2.0 * h_field * b / gamma


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
    anomaly-free kinematics, the lab-time cyclotron and anomalous
    frequencies and the initial state, whose g-factor is 2(1 + anomaly)."""

    kin: SpinKinematics
    omega: float
    omega_a: float
    init: ClassicalState

    def closed_form(self, times: np.ndarray) -> Trajectory:
        """The unit-contrast closed-form trajectory on a time grid."""
        return closed_form_trajectory(self.kin, None, self.omega, self.omega_a, times)


def classical_reference(cfg: FieldConfig, n: int, epsilon: int = 1) -> ClassicalReference:
    """The classical reference of the packet centered on level n."""
    kin = SpinKinematics.from_field(cfg, n, epsilon, anomaly_free=True)
    g = 2.0 * (1.0 + cfg.anomaly)
    p = closed_form_momentum(kin, None, 1.0, 0.0)
    s = closed_form_spin(kin, None, 1.0, 1.0, 0.0)
    init = ClassicalState(
        u=(kin.energy, float(p[0]), float(p[1]), float(p[2])),
        s=(float(s[0]), float(s[1]), float(s[2]), float(s[3])),
        g_factor=g,
    )
    return ClassicalReference(
        kin=kin,
        omega=cyclotron_omega(cfg.h, kin.energy),
        omega_a=anomalous_omega(cfg.h, kin.energy, kin.b, g),
        init=init,
    )


def _two_prod(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly: Dekker's
    product, on Veltkamp's split of each factor at 2^27 + 1."""
    p = a * b
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_mul_add(xh, xl, yh, yl, ch, cl):
    """x * y + c for unevaluated sums x = xh + xl, y = yh + yl and
    c = ch + cl, to about twice working precision, as a pair (hi, lo)."""
    p, e = _two_prod(xh, yh)
    s = p + ch
    t = s - p
    e = e + (xh * yl + xl * yh) + ((p - (s - t)) + (ch - t)) + cl
    hi = s + e
    return hi, e - (hi - s)


def _dd_combination(coefficients, terms):
    """sum_i c_i x_i for doubles c_i and pairs x_i, as a pair."""
    hi, lo = 0.0, 0.0
    for coefficient, (th, tl) in zip(coefficients, terms):
        if coefficient:
            hi, lo = _dd_mul_add(coefficient, 0.0, th, tl, hi, lo)
    return hi, lo


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
    # rows: the momentum over rho, then (s1, s2) x (along, across)
    start = np.zeros((6, lengths.size))
    start[0], start[2], start[5] = 1.0, 1.0, 1.0
    rates, qs = [], []
    for row in _DOP853_A:
        yh, yl = _dd_mul_add(lengths, 0.0, *_dd_combination(row, rates), start, 0.0)
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
        rates.append((np.concatenate([mh, dh.reshape(4, -1)]), np.concatenate([ml, dl.reshape(4, -1)])))
        qs.append((qh, ql))
    dh, dl = _dd_mul_add(lengths, 0.0, *_dd_combination(_DOP853_B, rates), 0.0, 0.0)
    dq = _dd_mul_add(lengths, 0.0, *_dd_combination(_DOP853_B, qs), 0.0, 0.0)
    return (dh[:2], dl[:2]), (dh[2:].reshape(2, 2, -1), dl[2:].reshape(2, 2, -1)), dq


def _dop853_samples(init: ClassicalState, k: float, record_times: np.ndarray, dt: float) -> np.ndarray:
    """The order-8 states (u0, u1, u2, u3, s0, s1, s2, s3) on ``record_times``,
    with k = 2h; the steps between two samples split their span evenly into
    pieces no longer than ``dt``."""
    spans = np.diff(record_times)
    substeps = np.maximum(np.ceil(spans / dt - 1e-12), 1.0).astype(np.intp)
    lengths = spans / substeps
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

    step = np.repeat(which, substeps)
    ends = np.cumsum(substeps)
    out = np.empty((record_times.size, 8))
    out[0] = init.u + init.s
    out[1:, 0] = gamma
    out[1:, 3] = u3
    z, sigma = complex(u1, u2), complex(s1, s2)
    for begin in range(0, step.size, _DOP853_BLOCK):
        ix = step[begin:begin + _DOP853_BLOCK]
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
        sigmas, s0s, s3s = [sigma], [s0], [s3]
        for ce, ds_a, ds_c, dq_a, dq_c in zip(
            e.conj().tolist(), along.tolist(), across.tolist(), q_along.tolist(), q_across.tolist()
        ):
            w = ce * sigma
            p, r = w.real, w.imag
            sigma = sigma + (p * ds_a + r * ds_c)
            dq = p * dq_a + r * dq_c
            s0 = s0 + a * dq
            s3 = s3 + a3 * dq
            sigmas.append(sigma)
            s0s.append(s0)
            s3s.append(s3)
        first, last = np.searchsorted(ends, (begin, begin + ix.size), side="right")
        at = ends[first:last] - begin
        rows = slice(first + 1, last + 1)
        out[rows, 1] = zs.real[at]
        out[rows, 2] = zs.imag[at]
        sigmas = np.array(sigmas)
        out[rows, 4] = np.array(s0s)[at]
        out[rows, 5] = sigmas.real[at]
        out[rows, 6] = sigmas.imag[at]
        out[rows, 7] = np.array(s3s)[at]
    return out


def default_step(h_field: float, gamma: float, *rates: float) -> float:
    """Step resolving one period of the fastest of the cyclotron rotation
    and the frequencies ``rates`` with STEPS_PER_PERIOD points."""
    omega = cyclotron_omega(h_field, gamma)
    if omega <= 0:
        raise DomainError("h_field: need a positive field for a default step")
    return 2.0 * math.pi / (max((omega, *map(abs, rates))) * STEPS_PER_PERIOD)


def bmt_integrate(
    init: ClassicalState,
    h_field: float,
    t_max: float | None = None,
    dt: float | None = None,
    record_times: np.ndarray | None = None,
    check_drift: bool = True,
) -> Trajectory:
    """Integrate the spin precession and collect a trajectory.

    Either ``record_times`` gives the sample grid (starting at 0) and the
    integrator lands on each sample exactly with substeps no longer than
    ``dt``, or ``t_max`` is split into uniform steps of at most ``dt`` and
    every step is recorded.  The default ``dt`` is ``default_step`` at the
    anomalous precession and coupling frequencies of ``init``.  Invariant
    drift beyond DRIFT_LIMIT raises IntegrationAccuracyError unless
    ``check_drift`` is false.
    """
    gamma = init.u[0]
    if dt is None:
        b = math.sqrt(1.0 + init.u[1] ** 2 + init.u[2] ** 2)  # sqrt(1 + b_perp^2)
        dt = default_step(
            h_field,
            gamma,
            anomalous_omega(h_field, gamma, b, init.g_factor),
            spin_coupling_omega(h_field, gamma, math.hypot(init.u[1], init.u[2]), init.g_factor),
        )
    elif not (math.isfinite(dt) and dt > 0):
        raise DomainError(f"dt: must be finite and > 0, got {dt}")
    if record_times is None:
        if t_max is None or not (math.isfinite(t_max) and t_max > 0):
            raise DomainError(f"t_max: must be finite and > 0, got {t_max}")
        steps = max(1, math.ceil(t_max / dt))
        record_times = t_max * np.arange(steps + 1) / steps
    else:
        record_times = np.asarray(record_times, dtype=float)
        if record_times.ndim != 1 or record_times.size == 0:
            raise DomainError("record_times: need a non-empty 1-D grid")
        if not np.all(np.isfinite(record_times)):
            raise DomainError("record_times: every time must be finite")
        if record_times[0] != 0.0:
            raise DomainError("record_times: grid must start at t = 0")

    arr = _dop853_samples(init, 2.0 * h_field, record_times, dt)
    traj = Trajectory(times=record_times, p=arr[:, 1:4], s=arr[:, 4:8], p0=arr[:, 0])
    if check_drift:
        worst = max(float(np.max(traj.res_sp)), float(np.max(traj.res_ss)))
        if worst > DRIFT_LIMIT:
            raise IntegrationAccuracyError(
                f"invariant drift {worst:.3e} exceeds {DRIFT_LIMIT}; reduce the step"
            )
    return traj
