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
  level; both come with their large-n / small-anomaly closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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

    def without_anomaly(self) -> "FieldConfig":
        return replace(self, anomaly=0.0)


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


def helicity_eigenvalue(b_perp: float, b_z: float, epsilon: int) -> float:
    """Eigenvalue of the longitudinal-polarization operator at t = 0."""
    if epsilon not in (-1, 1):
        raise DomainError(f"epsilon: must be +1 or -1, got {epsilon}")
    return epsilon * math.hypot(b_perp, b_z)


def spin_mixing_ratio(cfg: FieldConfig, n: int, epsilon: int) -> float:
    """Ratio kappa = A(+1)/A(-1) of the two spin amplitudes of a
    longitudinally polarized level.

    The level energy in the denominator is that of the zeta = epsilon
    branch.  Raises SingularConfigurationError for purely longitudinal
    motion (b_perp = 0), where the ratio is undefined.
    """
    if epsilon not in (-1, 1):
        raise DomainError(f"epsilon: must be +1 or -1, got {epsilon}")
    b_perp = transverse_momentum(cfg.h, n, SPINOR)
    if b_perp == 0.0:
        raise SingularConfigurationError(
            "b_perp = 0 (h = 0 or n = 0): spin mixing ratio is undefined"
        )
    b = math.sqrt(1.0 + b_perp**2)
    big_b = energy_spinor(cfg, n, epsilon)
    return (cfg.b_z + b * helicity_eigenvalue(b_perp, cfg.b_z, epsilon)) / (big_b * b_perp)


def polarization_constants(kappa: float) -> tuple[float, float]:
    """Transverse and longitudinal polarization constants (zeta_perp, zeta_z).

    zeta_perp = 2*kappa/(kappa^2 + 1); zeta_z carries the sign of
    kappa^2 - 1 so that zeta_z equals the population imbalance of the two
    spin components, and zeta_perp^2 + zeta_z^2 = 1 identically.
    """
    if not math.isfinite(kappa):
        raise DomainError(f"kappa: must be finite, got {kappa}")
    denom = kappa * kappa + 1.0
    return 2.0 * kappa / denom, (kappa * kappa - 1.0) / denom


def cyclotron_frequency(
    cfg: FieldConfig, n: int, zeta: int = 1, kind: str = SPINOR
) -> tuple[float, float]:
    """Orbital rotation frequency, in units of m0*c^2/hbar.

    Returns
    -------
    (omega_exact, omega_asymptotic)
        ``omega_exact`` is the energy gap between levels n+1 and n;
        ``omega_asymptotic`` is the relativistic cyclotron value 2*h/B(n),
        which the gap approaches as O(1/n).
    """
    if kind == SPINOR and n < 1:
        raise DomainError(f"n: spin-1/2 levels need n >= 1, got {n}")
    b_n = level_energy(cfg, n, zeta, kind)
    exact = level_energy(cfg, n + 1, zeta, kind) - b_n
    return exact, 2.0 * cfg.h / b_n


def anomalous_frequency(cfg: FieldConfig, n: int) -> tuple[float, float]:
    """Zeta-splitting of level n, in units of m0*c^2/hbar.

    Returns
    -------
    (omega_a_exact, omega_a_closed)
        ``omega_a_exact`` is the energy difference between the zeta = +1 and
        zeta = -1 branches; ``omega_a_closed`` is the closed form
        2*anomaly*h*b/sqrt(b_z^2 + b^2), accurate to relative
        O((anomaly*h)^2).
    """
    if n < 1:
        raise DomainError(f"n: spin-1/2 levels need n >= 1, got {n}")
    exact = energy_spinor(cfg, n, +1) - energy_spinor(cfg, n, -1)
    b_perp = transverse_momentum(cfg.h, n, SPINOR)
    b = math.sqrt(1.0 + b_perp**2)
    closed = 2.0 * cfg.anomaly * cfg.h * b / math.hypot(cfg.b_z, b)
    return exact, closed


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
    ``mixing`` is the spin mixing ratio kappa, None for a spin-0 reference.
    """

    b_perp: float
    b_z: float
    energy: float
    mixing: float | None
    omega: float
    omega_a: float

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
        return polarization_constants(self.kappa)[0]

    @property
    def zeta_z(self) -> float:
        """Longitudinal polarization constant (kappa^2 - 1)/(kappa^2 + 1)."""
        return polarization_constants(self.kappa)[1]

    @classmethod
    def from_field(
        cls, cfg: FieldConfig, n: int, epsilon: int = 1, kind: str = SPINOR
    ) -> "SpinKinematics":
        """The snapshot at level n, branch zeta = epsilon, turning at the gap
        to level n + 1 and the zeta-splitting of level n; a spin-0 reference
        has omega_a = 0, no mixing ratio and no epsilon.
        SingularConfigurationError at a spin-1/2 b_perp = 0 (h = 0 or
        n = 0), where the mixing ratio is undefined."""
        spinor = kind == SPINOR
        return cls(
            b_perp=transverse_momentum(cfg.h, n, kind),
            b_z=cfg.b_z,
            energy=level_energy(cfg, n, epsilon, kind),
            mixing=spin_mixing_ratio(cfg, n, epsilon) if spinor else None,
            omega=cyclotron_frequency(cfg, n, epsilon, kind)[0],
            omega_a=anomalous_frequency(cfg, n)[0] if spinor else 0.0,
        )
