"""Classical reference dynamics: the classical reference of a packet (its
anomaly-free kinematics, lab-time cyclotron and anomalous frequencies and
initial state) and fixed-step integrators for covariant spin precession in
a constant magnetic field along z.  The closed-form classical motion is the
unit-contrast limit of the closed forms in ``evolution``.

The integrators advance the pair (u, S) of four-vectors in lab time,
u = (gamma, b_vec) the dimensionless four-momentum and S the four-spin,

    du/d(tau) = K u_low,
    dS/d(tau) = (g/2) K S_low + (g/2 - 1) u (S_low K u_low),

with d(tau) = dt/gamma and K the dimensionless field tensor whose only
nonzero components are K^{12} = -K^{21} = 2h for a negative charge in a
field of strength h along +z.  A magnetic field does no work, so gamma is
conserved; orthogonality S.u and the spacelike norm of S are conserved by
the equation and drift only through integrator error, which is monitored.

There are two schemes.  The default is the order-8 Dormand-Prince scheme
(the 12-stage DOP853 tableau of Hairer, Norsett & Wanner, Solving Ordinary
Differential Equations I, Sec. II.10, used at a fixed step) at
STEPS_PER_PERIOD = 32 steps per period of the fastest of the cyclotron
rotation, the anomalous precession and the anomalous coupling frequency of
``spin_coupling_omega``; the last one takes over above level 2 * 10^3 at
the physical anomaly and h = 0.1, and without it the invariant drift at
level 10^4 reads 5.1e-7 instead of 1.1e-9.  Over one
anomalous period (about 135 cyclotron periods at the physical anomaly) it
takes 32 times fewer steps than RK4 at 1024 steps per period, and its error
against the closed form is about 100 times smaller (7e-10 against 6e-8 at
the default ``verify`` configuration).  Classical RK4 is kept for the
convergence-order check, which sets its step explicitly.

Each scheme runs the steps between two recorded samples in one kernel,
``_dop853_steps`` or ``_rk4_steps``, on eight Python-float locals and the
same derivative expressions.  Scalar arithmetic on Python floats costs a
fraction of the same arithmetic on numpy scalars or through per-stage
tuples, so the grid is converted with ``tolist`` before integrating.  The
RK4 kernel performs the operations of the componentwise RK4 update in the
same order, so its results are the same bits; it only drops what is
constant (u0 and u3, whose derivative is 0) or never read (the stage values
of s0 and s3).  The order-8 kernel unrolls its stages with the tableau's
entries as named locals and skips its zero entries; a generic loop over the
tableau's rows took three times as long per step.
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


def _rk4_steps(y: tuple, k: float, g: float, dt: float, steps: int) -> tuple:
    """Advance y = (u0, u1, u2, u3, s0, s1, s2, s3) by ``steps`` RK4 steps
    of length ``dt`` in lab time, with k = 2h and g the g-factor."""
    u0, u1, u2, u3, s0, s1, s2, s3 = y
    # u0 and u3 have derivative 0 and stay fixed; the stage values of s0 and
    # s3 feed no derivative, so only their updates are formed
    inv = 1.0 / u0
    half_g = 0.5 * g
    a = half_g - 1.0
    mk = -k
    mhk = -half_g * k
    hk = half_g * k
    hdt = 0.5 * dt
    sixth = dt / 6.0
    # u3 = -0.0 becomes u3 + hdt * 0.0 after the first stage, as in the
    # componentwise update; every later stage sees that value
    au3_first = a * u3
    u3 = u3 + hdt * 0.0
    au3 = a * u3
    for _ in range(steps):
        q = k * (s1 * u2 - s2 * u1)
        d1u1 = mk * u2 * inv
        d1u2 = k * u1 * inv
        d1s0 = a * q
        d1s1 = (mhk * s2 + a * u1 * q) * inv
        d1s2 = (hk * s1 + a * u2 * q) * inv
        d1s3 = au3_first * q * inv
        au3_first = au3

        v1 = u1 + hdt * d1u1
        v2 = u2 + hdt * d1u2
        w1 = s1 + hdt * d1s1
        w2 = s2 + hdt * d1s2
        q = k * (w1 * v2 - w2 * v1)
        d2u1 = mk * v2 * inv
        d2u2 = k * v1 * inv
        d2s0 = a * q
        d2s1 = (mhk * w2 + a * v1 * q) * inv
        d2s2 = (hk * w1 + a * v2 * q) * inv
        d2s3 = au3 * q * inv

        v1 = u1 + hdt * d2u1
        v2 = u2 + hdt * d2u2
        w1 = s1 + hdt * d2s1
        w2 = s2 + hdt * d2s2
        q = k * (w1 * v2 - w2 * v1)
        d3u1 = mk * v2 * inv
        d3u2 = k * v1 * inv
        d3s0 = a * q
        d3s1 = (mhk * w2 + a * v1 * q) * inv
        d3s2 = (hk * w1 + a * v2 * q) * inv
        d3s3 = au3 * q * inv

        v1 = u1 + dt * d3u1
        v2 = u2 + dt * d3u2
        w1 = s1 + dt * d3s1
        w2 = s2 + dt * d3s2
        q = k * (w1 * v2 - w2 * v1)
        d4u1 = mk * v2 * inv
        d4u2 = k * v1 * inv
        d4s0 = a * q
        d4s1 = (mhk * w2 + a * v1 * q) * inv
        d4s2 = (hk * w1 + a * v2 * q) * inv
        d4s3 = au3 * q * inv

        u1 = u1 + sixth * (d1u1 + 2.0 * (d2u1 + d3u1) + d4u1)
        u2 = u2 + sixth * (d1u2 + 2.0 * (d2u2 + d3u2) + d4u2)
        s0 = s0 + sixth * (d1s0 + 2.0 * (d2s0 + d3s0) + d4s0)
        s1 = s1 + sixth * (d1s1 + 2.0 * (d2s1 + d3s1) + d4s1)
        s2 = s2 + sixth * (d1s2 + 2.0 * (d2s2 + d3s2) + d4s2)
        s3 = s3 + sixth * (d1s3 + 2.0 * (d2s3 + d3s3) + d4s3)
    return (u0, u1, u2, u3, s0, s1, s2, s3)


def _dop853_steps(y: tuple, k: float, g: float, dt: float, steps: int) -> tuple:
    """Advance y = (u0, u1, u2, u3, s0, s1, s2, s3) by ``steps`` steps of the
    order-8 Dormand-Prince scheme of length ``dt`` in lab time, with k = 2h
    and g the g-factor."""
    (
        (), (a1_0,), (a2_0, a2_1), (a3_0, _, a3_2), (a4_0, _, a4_2, a4_3),
        (a5_0, _, _, a5_3, a5_4), (a6_0, _, _, a6_3, a6_4, a6_5),
        (a7_0, _, _, a7_3, a7_4, a7_5, a7_6), (a8_0, _, _, a8_3, a8_4, a8_5, a8_6, a8_7),
        (a9_0, _, _, a9_3, a9_4, a9_5, a9_6, a9_7, a9_8),
        (a10_0, _, _, a10_3, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
        (a11_0, _, _, a11_3, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10),
    ) = _DOP853_A
    b0, _, _, _, _, b5, b6, b7, b8, b9, b10, b11 = _DOP853_B
    u0, u1, u2, u3, s0, s1, s2, s3 = y
    # u0 and u3 have derivative 0 and stay fixed.  s0 and s3 feed no
    # derivative, and theirs (a * q and a * u3 * q / u0) differ from q by a
    # constant factor, so the weights b are applied to the stage values of q
    inv = 1.0 / u0
    half_g = 0.5 * g
    a = half_g - 1.0
    mk = -k
    mhk = -half_g * k
    hk = half_g * k
    au3 = a * u3
    for _ in range(steps):
        q0 = k * (s1 * u2 - s2 * u1)
        d0u1, d0u2 = mk * u2 * inv, k * u1 * inv
        d0s1 = (mhk * s2 + a * u1 * q0) * inv
        d0s2 = (hk * s1 + a * u2 * q0) * inv

        v1 = u1 + dt * (a1_0 * d0u1)
        v2 = u2 + dt * (a1_0 * d0u2)
        w1 = s1 + dt * (a1_0 * d0s1)
        w2 = s2 + dt * (a1_0 * d0s2)
        q1 = k * (w1 * v2 - w2 * v1)
        d1u1, d1u2 = mk * v2 * inv, k * v1 * inv
        d1s1 = (mhk * w2 + a * v1 * q1) * inv
        d1s2 = (hk * w1 + a * v2 * q1) * inv

        v1 = u1 + dt * (a2_0 * d0u1 + a2_1 * d1u1)
        v2 = u2 + dt * (a2_0 * d0u2 + a2_1 * d1u2)
        w1 = s1 + dt * (a2_0 * d0s1 + a2_1 * d1s1)
        w2 = s2 + dt * (a2_0 * d0s2 + a2_1 * d1s2)
        q2 = k * (w1 * v2 - w2 * v1)
        d2u1, d2u2 = mk * v2 * inv, k * v1 * inv
        d2s1 = (mhk * w2 + a * v1 * q2) * inv
        d2s2 = (hk * w1 + a * v2 * q2) * inv

        v1 = u1 + dt * (a3_0 * d0u1 + a3_2 * d2u1)
        v2 = u2 + dt * (a3_0 * d0u2 + a3_2 * d2u2)
        w1 = s1 + dt * (a3_0 * d0s1 + a3_2 * d2s1)
        w2 = s2 + dt * (a3_0 * d0s2 + a3_2 * d2s2)
        q3 = k * (w1 * v2 - w2 * v1)
        d3u1, d3u2 = mk * v2 * inv, k * v1 * inv
        d3s1 = (mhk * w2 + a * v1 * q3) * inv
        d3s2 = (hk * w1 + a * v2 * q3) * inv

        v1 = u1 + dt * (a4_0 * d0u1 + a4_2 * d2u1 + a4_3 * d3u1)
        v2 = u2 + dt * (a4_0 * d0u2 + a4_2 * d2u2 + a4_3 * d3u2)
        w1 = s1 + dt * (a4_0 * d0s1 + a4_2 * d2s1 + a4_3 * d3s1)
        w2 = s2 + dt * (a4_0 * d0s2 + a4_2 * d2s2 + a4_3 * d3s2)
        q4 = k * (w1 * v2 - w2 * v1)
        d4u1, d4u2 = mk * v2 * inv, k * v1 * inv
        d4s1 = (mhk * w2 + a * v1 * q4) * inv
        d4s2 = (hk * w1 + a * v2 * q4) * inv

        v1 = u1 + dt * (a5_0 * d0u1 + a5_3 * d3u1 + a5_4 * d4u1)
        v2 = u2 + dt * (a5_0 * d0u2 + a5_3 * d3u2 + a5_4 * d4u2)
        w1 = s1 + dt * (a5_0 * d0s1 + a5_3 * d3s1 + a5_4 * d4s1)
        w2 = s2 + dt * (a5_0 * d0s2 + a5_3 * d3s2 + a5_4 * d4s2)
        q5 = k * (w1 * v2 - w2 * v1)
        d5u1, d5u2 = mk * v2 * inv, k * v1 * inv
        d5s1 = (mhk * w2 + a * v1 * q5) * inv
        d5s2 = (hk * w1 + a * v2 * q5) * inv

        v1 = u1 + dt * (a6_0 * d0u1 + a6_3 * d3u1 + a6_4 * d4u1 + a6_5 * d5u1)
        v2 = u2 + dt * (a6_0 * d0u2 + a6_3 * d3u2 + a6_4 * d4u2 + a6_5 * d5u2)
        w1 = s1 + dt * (a6_0 * d0s1 + a6_3 * d3s1 + a6_4 * d4s1 + a6_5 * d5s1)
        w2 = s2 + dt * (a6_0 * d0s2 + a6_3 * d3s2 + a6_4 * d4s2 + a6_5 * d5s2)
        q6 = k * (w1 * v2 - w2 * v1)
        d6u1, d6u2 = mk * v2 * inv, k * v1 * inv
        d6s1 = (mhk * w2 + a * v1 * q6) * inv
        d6s2 = (hk * w1 + a * v2 * q6) * inv

        v1 = u1 + dt * (a7_0 * d0u1 + a7_3 * d3u1 + a7_4 * d4u1 + a7_5 * d5u1 + a7_6 * d6u1)
        v2 = u2 + dt * (a7_0 * d0u2 + a7_3 * d3u2 + a7_4 * d4u2 + a7_5 * d5u2 + a7_6 * d6u2)
        w1 = s1 + dt * (a7_0 * d0s1 + a7_3 * d3s1 + a7_4 * d4s1 + a7_5 * d5s1 + a7_6 * d6s1)
        w2 = s2 + dt * (a7_0 * d0s2 + a7_3 * d3s2 + a7_4 * d4s2 + a7_5 * d5s2 + a7_6 * d6s2)
        q7 = k * (w1 * v2 - w2 * v1)
        d7u1, d7u2 = mk * v2 * inv, k * v1 * inv
        d7s1 = (mhk * w2 + a * v1 * q7) * inv
        d7s2 = (hk * w1 + a * v2 * q7) * inv

        v1 = u1 + dt * (a8_0 * d0u1 + a8_3 * d3u1 + a8_4 * d4u1 + a8_5 * d5u1 + a8_6 * d6u1
                        + a8_7 * d7u1)
        v2 = u2 + dt * (a8_0 * d0u2 + a8_3 * d3u2 + a8_4 * d4u2 + a8_5 * d5u2 + a8_6 * d6u2
                        + a8_7 * d7u2)
        w1 = s1 + dt * (a8_0 * d0s1 + a8_3 * d3s1 + a8_4 * d4s1 + a8_5 * d5s1 + a8_6 * d6s1
                        + a8_7 * d7s1)
        w2 = s2 + dt * (a8_0 * d0s2 + a8_3 * d3s2 + a8_4 * d4s2 + a8_5 * d5s2 + a8_6 * d6s2
                        + a8_7 * d7s2)
        q8 = k * (w1 * v2 - w2 * v1)
        d8u1, d8u2 = mk * v2 * inv, k * v1 * inv
        d8s1 = (mhk * w2 + a * v1 * q8) * inv
        d8s2 = (hk * w1 + a * v2 * q8) * inv

        v1 = u1 + dt * (a9_0 * d0u1 + a9_3 * d3u1 + a9_4 * d4u1 + a9_5 * d5u1 + a9_6 * d6u1
                        + a9_7 * d7u1 + a9_8 * d8u1)
        v2 = u2 + dt * (a9_0 * d0u2 + a9_3 * d3u2 + a9_4 * d4u2 + a9_5 * d5u2 + a9_6 * d6u2
                        + a9_7 * d7u2 + a9_8 * d8u2)
        w1 = s1 + dt * (a9_0 * d0s1 + a9_3 * d3s1 + a9_4 * d4s1 + a9_5 * d5s1 + a9_6 * d6s1
                        + a9_7 * d7s1 + a9_8 * d8s1)
        w2 = s2 + dt * (a9_0 * d0s2 + a9_3 * d3s2 + a9_4 * d4s2 + a9_5 * d5s2 + a9_6 * d6s2
                        + a9_7 * d7s2 + a9_8 * d8s2)
        q9 = k * (w1 * v2 - w2 * v1)
        d9u1, d9u2 = mk * v2 * inv, k * v1 * inv
        d9s1 = (mhk * w2 + a * v1 * q9) * inv
        d9s2 = (hk * w1 + a * v2 * q9) * inv

        v1 = u1 + dt * (a10_0 * d0u1 + a10_3 * d3u1 + a10_4 * d4u1 + a10_5 * d5u1
                        + a10_6 * d6u1 + a10_7 * d7u1 + a10_8 * d8u1 + a10_9 * d9u1)
        v2 = u2 + dt * (a10_0 * d0u2 + a10_3 * d3u2 + a10_4 * d4u2 + a10_5 * d5u2
                        + a10_6 * d6u2 + a10_7 * d7u2 + a10_8 * d8u2 + a10_9 * d9u2)
        w1 = s1 + dt * (a10_0 * d0s1 + a10_3 * d3s1 + a10_4 * d4s1 + a10_5 * d5s1
                        + a10_6 * d6s1 + a10_7 * d7s1 + a10_8 * d8s1 + a10_9 * d9s1)
        w2 = s2 + dt * (a10_0 * d0s2 + a10_3 * d3s2 + a10_4 * d4s2 + a10_5 * d5s2
                        + a10_6 * d6s2 + a10_7 * d7s2 + a10_8 * d8s2 + a10_9 * d9s2)
        q10 = k * (w1 * v2 - w2 * v1)
        d10u1, d10u2 = mk * v2 * inv, k * v1 * inv
        d10s1 = (mhk * w2 + a * v1 * q10) * inv
        d10s2 = (hk * w1 + a * v2 * q10) * inv

        v1 = u1 + dt * (a11_0 * d0u1 + a11_3 * d3u1 + a11_4 * d4u1 + a11_5 * d5u1
                        + a11_6 * d6u1 + a11_7 * d7u1 + a11_8 * d8u1 + a11_9 * d9u1
                        + a11_10 * d10u1)
        v2 = u2 + dt * (a11_0 * d0u2 + a11_3 * d3u2 + a11_4 * d4u2 + a11_5 * d5u2
                        + a11_6 * d6u2 + a11_7 * d7u2 + a11_8 * d8u2 + a11_9 * d9u2
                        + a11_10 * d10u2)
        w1 = s1 + dt * (a11_0 * d0s1 + a11_3 * d3s1 + a11_4 * d4s1 + a11_5 * d5s1
                        + a11_6 * d6s1 + a11_7 * d7s1 + a11_8 * d8s1 + a11_9 * d9s1
                        + a11_10 * d10s1)
        w2 = s2 + dt * (a11_0 * d0s2 + a11_3 * d3s2 + a11_4 * d4s2 + a11_5 * d5s2
                        + a11_6 * d6s2 + a11_7 * d7s2 + a11_8 * d8s2 + a11_9 * d9s2
                        + a11_10 * d10s2)
        q11 = k * (w1 * v2 - w2 * v1)
        d11u1, d11u2 = mk * v2 * inv, k * v1 * inv
        d11s1 = (mhk * w2 + a * v1 * q11) * inv
        d11s2 = (hk * w1 + a * v2 * q11) * inv

        u1 = u1 + dt * (b0 * d0u1 + b5 * d5u1 + b6 * d6u1 + b7 * d7u1 + b8 * d8u1 + b9 * d9u1
                        + b10 * d10u1 + b11 * d11u1)
        u2 = u2 + dt * (b0 * d0u2 + b5 * d5u2 + b6 * d6u2 + b7 * d7u2 + b8 * d8u2 + b9 * d9u2
                        + b10 * d10u2 + b11 * d11u2)
        s1 = s1 + dt * (b0 * d0s1 + b5 * d5s1 + b6 * d6s1 + b7 * d7s1 + b8 * d8s1 + b9 * d9s1
                        + b10 * d10s1 + b11 * d11s1)
        s2 = s2 + dt * (b0 * d0s2 + b5 * d5s2 + b6 * d6s2 + b7 * d7s2 + b8 * d8s2 + b9 * d9s2
                        + b10 * d10s2 + b11 * d11s2)
        q = dt * (b0 * q0 + b5 * q5 + b6 * q6 + b7 * q7 + b8 * q8 + b9 * q9 + b10 * q10 + b11 * q11)
        s0 = s0 + a * q
        s3 = s3 + au3 * q * inv
    return (u0, u1, u2, u3, s0, s1, s2, s3)


_KERNELS = {4: _rk4_steps, 8: _dop853_steps}


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
    order: int = 8,
) -> Trajectory:
    """Integrate the spin precession and collect a trajectory.

    Either ``record_times`` gives the sample grid (starting at 0) and the
    integrator lands on each sample exactly with substeps no longer than
    ``dt``, or ``t_max`` is split into uniform steps of at most ``dt`` and
    every step is recorded.  ``order`` selects the scheme: 8 (order-8
    Dormand-Prince) or 4 (classical RK4).  The default ``dt`` is
    ``default_step`` at the anomalous precession and coupling frequencies of
    ``init``, which is sized for the order-8 scheme, so RK4 needs an
    explicit ``dt``.  Invariant drift beyond DRIFT_LIMIT raises
    IntegrationAccuracyError unless ``check_drift`` is false.
    """
    kernel = _KERNELS.get(order)
    if kernel is None:
        raise DomainError(f"order: must be 4 or 8, got {order}")
    gamma = init.u[0]
    if dt is None:
        if order != 8:
            raise DomainError(f"dt: the default step is sized for order 8; order {order} needs dt")
        b = math.sqrt(1.0 + init.u[1] ** 2 + init.u[2] ** 2)  # sqrt(1 + b_perp^2)
        dt = default_step(
            h_field,
            gamma,
            anomalous_omega(h_field, gamma, b, init.g_factor),
            spin_coupling_omega(h_field, gamma, math.hypot(init.u[1], init.u[2]), init.g_factor),
        )
    if record_times is None:
        if t_max is None or t_max <= 0:
            raise DomainError(f"t_max: must be > 0, got {t_max}")
        steps = max(1, math.ceil(t_max / dt))
        record_times = t_max * np.arange(steps + 1) / steps
    else:
        record_times = np.asarray(record_times, dtype=float)
        if record_times[0] != 0.0:
            raise DomainError("record_times: grid must start at t = 0")

    k = 2.0 * h_field
    g = init.g_factor
    y = init.u + init.s
    samples = [y]
    grid = record_times.tolist()
    for t_prev, t_next in zip(grid[:-1], grid[1:]):
        span = t_next - t_prev
        substeps = max(1, math.ceil(span / dt - 1e-12))
        y = kernel(y, k, g, span / substeps, substeps)
        samples.append(y)

    arr = np.asarray(samples)
    traj = Trajectory(times=record_times, p=arr[:, 1:4], s=arr[:, 4:8], p0=arr[:, 0])
    if check_drift:
        worst = max(float(np.max(traj.res_sp)), float(np.max(traj.res_ss)))
        if worst > DRIFT_LIMIT:
            raise IntegrationAccuracyError(
                f"invariant drift {worst:.3e} exceeds {DRIFT_LIMIT}; reduce the step"
            )
    return traj
