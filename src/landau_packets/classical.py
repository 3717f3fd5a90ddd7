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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationAccuracyError
from .evolution import (
    closed_form_momentum,
    closed_form_spin,
    closed_form_trajectory,
    compute_invariants,
)
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


def _rhs(y: tuple, k: float, g: float) -> tuple:
    # lab-time right-hand side; y = (u0, u1, u2, u3, s0, s1, s2, s3)
    u0, u1, u2, u3, s0, s1, s2, s3 = y
    inv = 1.0 / u0
    half_g = 0.5 * g
    a = half_g - 1.0
    q = k * (s1 * u2 - s2 * u1)
    return (
        0.0,
        -k * u2 * inv,
        k * u1 * inv,
        0.0,
        a * q,
        (-half_g * k * s2 + a * u1 * q) * inv,
        (half_g * k * s1 + a * u2 * q) * inv,
        a * u3 * q * inv,
    )


def _rk4(y: tuple, k: float, g: float, dt: float) -> tuple:
    k1 = _rhs(y, k, g)
    k2 = _rhs(tuple(a + 0.5 * dt * b for a, b in zip(y, k1)), k, g)
    k3 = _rhs(tuple(a + 0.5 * dt * b for a, b in zip(y, k2)), k, g)
    k4 = _rhs(tuple(a + dt * b for a, b in zip(y, k3)), k, g)
    return tuple(
        a + dt / 6.0 * (b1 + 2.0 * (b2 + b3) + b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    )


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
    for t_prev, t_next in zip(record_times[:-1], record_times[1:]):
        span = t_next - t_prev
        substeps = max(1, math.ceil(span / dt - 1e-12))
        sub = span / substeps
        for _ in range(substeps):
            y = _rk4(y, k, g, sub)
        samples.append(y)

    arr = np.asarray(samples)
    p = arr[:, 1:4]
    s = arr[:, 4:8]
    p0 = arr[:, 0]
    report = compute_invariants(p, s, p0)
    traj = Trajectory(
        times=record_times, p=p, s=s, p0=p0, res_sp=report.res_sp, res_ss=report.res_ss
    )
    if check_drift:
        worst = max(float(np.max(report.res_sp)), float(np.max(report.res_ss)))
        if worst > DRIFT_LIMIT:
            raise IntegrationAccuracyError(
                f"invariant drift {worst:.3e} exceeds {DRIFT_LIMIT}; reduce the step"
            )
    return traj
