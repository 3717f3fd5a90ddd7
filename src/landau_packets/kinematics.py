"""Dimensionless kinematics of Landau levels for spin-0 and spin-1/2 particles.

UNITS: everything is dimensionless. Energies are measured in units of the
rest energy m0*c^2, momenta in m0*c, times in hbar/(m0*c^2) and frequencies
in m0*c^2/hbar.  The magnetic field enters only through the strength
h = mu0*H/(m0*c^2) (mu0 the Bohr magneton); the anomalous part of the
magnetic moment enters only through the product anomaly*h.

Conventions:
- transverse momentum of level n:  b_perp = 2*sqrt(h*(n + 1/2)) for spin-0
  states and b_perp = 2*sqrt(h*n) for spin-1/2 states;
- b = sqrt(1 + b_perp^2), the transverse energy factor;
- spin-1/2 level energy  B = sqrt(b_z^2 + (b + zeta*anomaly*h)^2);
- the cyclotron frequency is defined operationally as the gap between
  adjacent levels, the anomalous frequency as the zeta-splitting of one
  level.  ``SpinKinematics.from_field`` is the one place that computes
  them and the spin mixing ratio kappa of a reference level; their
  large-n / small-anomaly closed forms are the classical lab-time rates of
  ``classical.cyclotron_omega`` and ``classical.anomalous_omega``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, SingularConfigurationError

#: One-loop QED value alpha/(2*pi) of the anomalous-moment ratio.
DEFAULT_ANOMALY = 1.16141e-3

SCALAR = "scalar"
SPINOR = "spinor"


@dataclass(frozen=True)
class FieldConfig:
    """Global run parameters.

    Attributes
    ----------
    h : float
        Dimensionless field strength mu0*H/(m0*c^2), >= 0.
    anomaly : float
        Anomalous-moment ratio, >= 0.  Zero selects the pure Dirac case.
    b_z : float
        Longitudinal momentum p_z/(m0*c).
    """

    h: float
    anomaly: float = DEFAULT_ANOMALY
    b_z: float = 0.0

    def __post_init__(self) -> None:
        for name in ("h", "anomaly", "b_z"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name}: must be finite, got {value}")
        if not math.isfinite(self.b_z * self.b_z):
            raise DomainError(f"b_z: too large, b_z**2 overflows, got {self.b_z}")
        if self.h < 0:
            raise DomainError(f"h: field strength must be >= 0, got {self.h}")
        if self.anomaly < 0:
            raise DomainError(f"anomaly: must be >= 0, got {self.anomaly}")


def transverse_momentum(h: float, n: int, kind: str = SPINOR) -> float:
    """Transverse momentum b_perp of level n, in units of m0*c.

    Spin-0 levels carry the half-quantum zero-point offset, spin-1/2
    levels do not.
    """
    if h < 0:
        raise DomainError(f"h: must be >= 0, got {h}")
    if n < 0:
        raise DomainError(f"n: must be >= 0, got {n}")
    if kind == SCALAR:
        return 2.0 * math.sqrt(h * (n + 0.5))
    if kind == SPINOR:
        return 2.0 * math.sqrt(h * n)
    raise DomainError(f"kind: must be 'scalar' or 'spinor', got {kind!r}")


def energy_scalar(cfg: FieldConfig, n: int) -> float:
    """Level energy of a spin-0 state, in units of m0*c^2."""
    b_perp = transverse_momentum(cfg.h, n, SCALAR)
    return math.sqrt(1.0 + cfg.b_z**2 + b_perp**2)


def energy_spinor(cfg: FieldConfig, n: int, zeta: int) -> float:
    """Level energy of a spin-1/2 state with spin quantum number zeta."""
    if zeta not in (-1, 1):
        raise DomainError(f"zeta: must be +1 or -1, got {zeta}")
    b_perp = transverse_momentum(cfg.h, n, SPINOR)
    b = math.sqrt(1.0 + b_perp**2)
    return math.sqrt(cfg.b_z**2 + (b + zeta * cfg.anomaly * cfg.h) ** 2)


def level_energy(cfg: FieldConfig, n: int, zeta: int, kind: str) -> float:
    """Level energy of state (n, zeta) of a spin-0 or spin-1/2 particle;
    zeta is not read for spin-0."""
    if kind == SCALAR:
        return energy_scalar(cfg, n)
    if kind == SPINOR:
        return energy_spinor(cfg, n, zeta)
    raise DomainError(f"kind: must be 'scalar' or 'spinor', got {kind!r}")


@dataclass(frozen=True)
class SpinKinematics:
    """Frozen kinematic snapshot of the reference level of a packet, with
    the rates its closed forms turn at.

    The block tables, the engine's phase energies and energy, and the
    closed-form trajectories all read one of these, so building it once
    pins the semiclassical freezing consistently: the momentum circles at
    ``omega`` and the spin precesses relative to it at ``omega_a``.
    ``from_field`` sets these to the exact level gaps;
    ``classical.classical_reference`` sets the classical lab-time rates.
    ``mixing`` is the spin mixing ratio kappa, None for a spin-0 reference;
    the constructor rejects a non-finite one.
    """

    b_perp: float
    b_z: float
    energy: float
    mixing: float | None
    omega: float
    omega_a: float

    def __post_init__(self) -> None:
        if self.mixing is not None and not math.isfinite(self.mixing):
            raise DomainError(f"kappa: must be finite, got {self.mixing}")

    @property
    def b(self) -> float:
        """Transverse energy factor sqrt(1 + b_perp^2)."""
        return math.sqrt(1.0 + self.b_perp**2)

    @property
    def kappa(self) -> float:
        """Spin mixing ratio A(+1)/A(-1); DomainError for a spin-0 reference."""
        if self.mixing is None:
            raise DomainError("kappa: a spin-0 reference has no spin mixing ratio")
        return self.mixing

    @property
    def zeta_perp(self) -> float:
        """Transverse polarization constant 2*kappa/(kappa^2 + 1)."""
        kappa = self.kappa
        return 2.0 * kappa / (kappa * kappa + 1.0)

    @property
    def zeta_z(self) -> float:
        """Longitudinal polarization constant (kappa^2 - 1)/(kappa^2 + 1).

        It carries the sign of kappa^2 - 1, so that it equals the population
        imbalance of the two spin components, and zeta_perp^2 + zeta_z^2 = 1
        identically."""
        kappa = self.kappa
        return (kappa * kappa - 1.0) / (kappa * kappa + 1.0)

    @classmethod
    def from_field(
        cls, cfg: FieldConfig, n: int, epsilon: int = 1, kind: str = SPINOR
    ) -> "SpinKinematics":
        """The snapshot at level n, branch zeta = epsilon, turning at the gap
        omega = E(n + 1) - E(n) and, for spin-1/2, the zeta-splitting
        omega_a = B(n, +1) - B(n, -1) of level n, with the mixing ratio

            kappa = (b_z + b * epsilon * |(b_perp, b_z)|) / (B(n, epsilon) * b_perp),

        the ratio A(+1)/A(-1) of the two spin amplitudes of a longitudinally
        polarized level.  This is the one place that computes a reference's
        gap, splitting and kappa; their large-n and small-anomaly limits are
        the lab-time rates of ``classical.cyclotron_omega`` and
        ``classical.anomalous_omega``.  A spin-0 reference has omega_a = 0,
        no mixing ratio and no epsilon.  SingularConfigurationError at a
        spin-1/2 b_perp = 0 (h = 0 or n = 0), where kappa is undefined."""
        b_perp = transverse_momentum(cfg.h, n, kind)
        if kind == SPINOR and epsilon not in (-1, 1):
            raise DomainError(f"epsilon: must be +1 or -1, got {epsilon}")
        energy = level_energy(cfg, n, epsilon, kind)
        omega = level_energy(cfg, n + 1, epsilon, kind) - energy
        if kind != SPINOR:
            return cls(b_perp=b_perp, b_z=cfg.b_z, energy=energy, mixing=None, omega=omega, omega_a=0.0)
        if b_perp == 0.0:
            raise SingularConfigurationError(
                "b_perp = 0 (h = 0 or n = 0): spin mixing ratio is undefined"
            )
        b = math.sqrt(1.0 + b_perp**2)
        return cls(
            b_perp=b_perp,
            b_z=cfg.b_z,
            energy=energy,
            mixing=(cfg.b_z + b * (epsilon * math.hypot(b_perp, cfg.b_z))) / (energy * b_perp),
            omega=omega,
            omega_a=energy_spinor(cfg, n, +1) - energy_spinor(cfg, n, -1),
        )
