"""Classical reference dynamics: the classical reference of a packet (its
anomaly-free kinematics, lab-time cyclotron and anomalous frequencies and
initial state) and a fixed-step RK4 integrator for covariant spin
precession in a constant magnetic field along z.  The closed-form classical
motion is the unit-contrast limit of the closed forms in ``evolution``.

The integrator advances the pair (u, S) of four-vectors in lab time,
u = (gamma, b_vec) the dimensionless four-momentum and S the four-spin,

    du/d(tau) = K u_low,
    dS/d(tau) = (g/2) K S_low + (g/2 - 1) u (S_low K u_low),

with d(tau) = dt/gamma and K the dimensionless field tensor whose only
nonzero components are K^{12} = -K^{21} = 2h for a negative charge in a
field of strength h along +z.  A magnetic field does no work, so gamma is
conserved; orthogonality S.u and the spacelike norm of S are conserved by
the equation and drift only through integrator error, which is monitored.

The RK4 steps between two recorded samples run in one kernel,
``_rk4_steps``, on eight Python-float locals.  It performs the operations of
the componentwise RK4 update in the same order, so its results are the same
bits; it only drops what is constant (u0 and u3, whose derivative is 0) or
never read (the stage values of s0 and s3).  Scalar arithmetic on Python
floats costs a fraction of the same arithmetic on numpy scalars or through
per-stage tuples, so the grid is converted with ``tolist`` before
integrating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationAccuracyError
from .evolution import closed_form_momentum, closed_form_spin, closed_form_trajectory
from .kinematics import FieldConfig, SpinKinematics
from .trajectory import Trajectory

#: default resolution of one period of the faster rotation
STEPS_PER_PERIOD = 1024

#: invariant drift beyond this aborts the run
DRIFT_LIMIT = 1e-6


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


def default_step(h_field: float, gamma: float, omega_a: float = 0.0) -> float:
    """Step resolving one period of the faster of the cyclotron rotation
    and the anomalous precession ``omega_a`` with STEPS_PER_PERIOD points."""
    omega = cyclotron_omega(h_field, gamma)
    if omega <= 0:
        raise DomainError("h_field: need a positive field for a default step")
    return 2.0 * math.pi / (max(omega, abs(omega_a)) * STEPS_PER_PERIOD)


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
    anomalous frequency of ``init``.  Invariant drift beyond DRIFT_LIMIT
    raises IntegrationAccuracyError unless ``check_drift`` is false.
    """
    gamma = init.u[0]
    if dt is None:
        b = math.sqrt(1.0 + init.u[1] ** 2 + init.u[2] ** 2)  # sqrt(1 + b_perp^2)
        dt = default_step(h_field, gamma, anomalous_omega(h_field, gamma, b, init.g_factor))
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
        y = _rk4_steps(y, k, g, span / substeps, substeps)
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
