"""Orthonormal Landau radial profiles and an independent quadrature oracle
for momentum matrix elements of the spin-0 states.

The radial profile of the state (n, s) is an exponentially weighted
generalized Laguerre polynomial in the field-scaled radial variable
rho = (e0*H / 2*hbar*c) * r^2,

    I(n, s; rho) = sqrt(s!/n!) * exp(-rho/2) * rho^((n-s)/2) * L_s^(n-s)(rho),

normalized so that the profiles with a common azimuthal index l = n - s are
orthonormal on [0, inf) in d(rho).  Evaluation runs the normalized upward
three-term recurrence in s, never forming factorials; the seed carries the
exponential and the power in log space, so the profiles stay finite and
accurate up to n of order 1e4.  The seed I(l, 0; rho) itself must stay above
the double-precision underflow limit, exp(-745): where it does not, the
profile comes back as 0.0 even when the recurrence would have lifted it to
a representable value.  At n = 1e4, s = 500 this happens at rho = l/2, where
the seed is exp(-922) and the profile 3.2e-127.

The quadrature oracle integrates products of profiles against weight-adapted
Gauss nodes on [0, inf).  Nodes come from the Jacobi matrix of the Laguerre
weight; the weights are pre-multiplied by exp(+x) (computed stably through
exponentially scaled orthonormal polynomials, streamed in O(order) memory),
so integrands are evaluated as the decaying functions they are.  Weights at
nodes beyond x ~ 1490 underflow and are dropped, which bounds the levels the
oracle can resolve (profiles of level n peak near rho ~ n).  Every oracle
value is recomputed at twice the order and rejected if the two disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import DomainError, QuadratureAccuracyError
from .kinematics import SCALAR, FieldConfig, QuantumNumbers, transverse_momentum

#: order-doubling tolerance for oracle integrals
CONVERGENCE_TOL = 1e-8


@dataclass(frozen=True)
class QuadratureSpec:
    """Number of nodes of the weight-adapted Gauss rule on [0, inf)."""

    order: int

    def __post_init__(self) -> None:
        if self.order < 1:
            raise DomainError(f"order: must be >= 1, got {self.order}")


def default_order(n: int, n_prime: int) -> int:
    """Node count covering the polynomial content of a product of two
    profiles, with headroom."""
    return 2 * (n + n_prime) + 8


@lru_cache(maxsize=64)
def radial_rule(order: int, alpha: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and exp-modified weights for integrals of decaying functions.

    The rule satisfies  sum_i w_i f(x_i) = integral_0^inf f(x) dx  exactly
    whenever f(x) = x^alpha * exp(-x) * p(x) with p a polynomial of degree
    <= 2*order - 1.  ``f`` is evaluated directly, including its decay, so
    far-tail nodes underflow harmlessly instead of overflowing.
    """
    if order < 1:
        raise DomainError(f"order: must be >= 1, got {order}")
    k = np.arange(order, dtype=float)
    diag = 2.0 * k + alpha + 1.0
    off = np.sqrt(np.arange(1.0, order) * (np.arange(1.0, order) + alpha))
    nodes = eigh_tridiagonal(diag, off, eigvals_only=True)
    # 1/w_i is the sum over k < order of p_k(x_i)^2 for the orthonormal
    # polynomials p_k; each p_k is scaled by sqrt(x^alpha exp(-x)), which
    # keeps it O(1), and the recurrence keeps only two rows
    log_seed = -0.5 * nodes - 0.5 * math.lgamma(alpha + 1.0)
    if alpha != 0.0:
        with np.errstate(divide="ignore"):
            log_seed = log_seed + 0.5 * alpha * np.log(nodes)
    prev = np.exp(log_seed)
    sumsq = prev * prev
    if order > 1:
        cur = (alpha + 1.0 - nodes) * prev / math.sqrt(alpha + 1.0)
        sumsq += cur * cur
        for j in range(1, order - 1):
            a_j = 2.0 * j + alpha + 1.0
            b_j = math.sqrt(j * (j + alpha))
            b_j1 = math.sqrt((j + 1.0) * (j + 1.0 + alpha))
            prev, cur = cur, ((a_j - nodes) * cur - b_j * prev) / b_j1
            sumsq += cur * cur
    # beyond x ~ 1490 the scaled seed underflows and the column dies; any
    # integrand this rule is meant for has decayed below double-precision
    # tininess there, so those nodes are dropped rather than left infinite
    weights = np.divide(1.0, sumsq, out=np.zeros_like(sumsq), where=sumsq > 0.0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def laguerre_I(n: int, s: int, rho) -> np.ndarray | float:
    """Radial profile I(n, s; rho) of the Landau state (n, s).

    Parameters
    ----------
    n, s : int
        Principal and radial quantum numbers with n >= s >= 0 (so that the
        azimuthal index l = n - s is non-negative).
    rho : float or array_like
        Field-scaled radial variable, >= 0.

    Returns
    -------
    float or ndarray
        Profile values; scalar input gives a scalar.
    """
    if s < 0:
        raise DomainError(f"s: must be >= 0, got {s}")
    if n < s:
        raise DomainError(f"n: need n >= s, got n={n}, s={s}")
    x = np.asarray(rho, dtype=float)
    if np.any(x < 0):
        raise DomainError("rho: must be >= 0")
    scalar_input = x.ndim == 0
    x = np.atleast_1d(x)
    l = n - s

    # seed I(l, 0) = exp(-rho/2) rho^(l/2) / sqrt(l!), in log space
    log_seed = -0.5 * x - 0.5 * math.lgamma(l + 1.0)
    if l > 0:
        positive = x > 0
        log_seed = np.where(positive, log_seed + 0.5 * l * np.log(np.where(positive, x, 1.0)), -np.inf)
    prev = np.exp(log_seed)
    if s == 0:
        return float(prev[0]) if scalar_input else prev

    # normalized upward recurrence in the radial number at fixed l:
    # I(l+k+1, k+1) = [(l + 2k + 1 - rho) I(l+k, k) - sqrt(k (l+k)) I(l+k-1, k-1)]
    #                 / sqrt((k+1)(l+k+1))
    cur = (l + 1.0 - x) * prev / math.sqrt(l + 1.0)
    for k in range(1, s):
        nxt = ((l + 2.0 * k + 1.0 - x) * cur - math.sqrt(k * (l + k)) * prev) / math.sqrt(
            (k + 1.0) * (l + k + 1.0)
        )
        prev, cur = cur, nxt
    return float(cur[0]) if scalar_input else cur


def orthonormality_defect(
    n: int, n_prime: int, s: int, s_prime: int, spec: QuadratureSpec | None = None
) -> float:
    """Deviation of the profile overlap from the Kronecker delta.

    Only states with equal azimuthal index l = n - s share an angular
    sector; requesting any other pair is a domain error.
    """
    if n - s != n_prime - s_prime:
        raise DomainError(
            f"azimuthal index mismatch: n-s={n - s} vs n'-s'={n_prime - s_prime}"
        )
    order = spec.order if spec is not None else default_order(n, n_prime)
    nodes, weights = radial_rule(order)
    overlap = float(np.dot(weights, laguerre_I(n, s, nodes) * laguerre_I(n_prime, s_prime, nodes)))
    return abs(overlap - (1.0 if n == n_prime else 0.0))


def _ladder_up_image(n: int, s: int, rho: np.ndarray) -> np.ndarray:
    """Radial image of the level-raising momentum component acting on (n, s):
    [2 rho d/d(rho) - l - rho] I(n, s)."""
    out = (2.0 * s - 2.0 * rho) * laguerre_I(n, s, rho)
    if s > 0:
        out = out - 2.0 * math.sqrt(s * n) * laguerre_I(n - 1, s - 1, rho)
    return out


def _ladder_down_image(n: int, s: int, rho: np.ndarray) -> np.ndarray:
    """Radial image of the level-lowering momentum component acting on (n, s):
    [2 rho d/d(rho) + l + rho] I(n, s)."""
    out = 2.0 * n * laguerre_I(n, s, rho)
    if s > 0:
        out = out - 2.0 * math.sqrt(s * n) * laguerre_I(n - 1, s - 1, rho)
    return out


def _radial_integral(func, order: int) -> float:
    """Evaluate an oracle integral at ``order`` and ``2*order`` nodes and
    insist the two agree."""
    coarse = func(*radial_rule(order))
    fine = func(*radial_rule(2 * order))
    if abs(fine - coarse) > CONVERGENCE_TOL:
        raise QuadratureAccuracyError(
            f"order-doubling check failed: |{fine} - {coarse}| > {CONVERGENCE_TOL}"
        )
    return fine


def momentum_element_quadrature(
    bra: QuantumNumbers,
    ket: QuantumNumbers,
    component: str,
    cfg: FieldConfig,
    spec: QuadratureSpec | None = None,
) -> complex:
    """Exact kinetic-momentum matrix element between two spin-0 Landau
    states, by analytic angular reduction and radial quadrature.

    The angular integral enforces the selection rule Delta l = +/-1 for the
    x and y components and Delta l = 0 for z; at fixed radial number, this
    means only adjacent levels are connected transversally.  Values are in
    units of m0*c.
    """
    if component not in ("x", "y", "z"):
        raise DomainError(f"component: must be 'x', 'y' or 'z', got {component!r}")
    if bra.s != ket.s:
        raise DomainError(f"s: bra and ket radial numbers must match, got {bra.s} != {ket.s}")
    if cfg.h <= 0:
        raise DomainError(f"h: momentum oracle needs h > 0, got {cfg.h}")
    order = spec.order if spec is not None else default_order(bra.n, ket.n)
    dn = bra.n - ket.n
    s = ket.s

    if component == "z":
        if dn != 0:
            return 0j
        overlap = _radial_integral(
            lambda x, w: float(np.dot(w, laguerre_I(ket.n, s, x) ** 2)), order
        )
        return complex(cfg.b_z * overlap)

    if dn == 1:
        radial = _radial_integral(
            lambda x, w: float(
                np.dot(w, laguerre_I(bra.n, s, x) * _ladder_up_image(ket.n, s, x) / np.sqrt(x))
            ),
            order,
        )
    elif dn == -1:
        radial = _radial_integral(
            lambda x, w: float(
                np.dot(w, laguerre_I(bra.n, s, x) * _ladder_down_image(ket.n, s, x) / np.sqrt(x))
            ),
            order,
        )
    else:
        return 0j

    circular = -1j * math.sqrt(cfg.h) * radial
    if component == "x":
        return circular / 2.0
    # y picks opposite signs from the raising and lowering circular parts
    return circular / 2j if dn == 1 else -circular / 2j


def semiclassical_convergence(
    s: int, h: float, n_list: list[int], b_z: float = 0.0
) -> list[tuple[int, float, float, float]]:
    """Deviation of the exact matrix elements from their frozen closed
    forms, per level.

    For each n, the oracle computes the exact transverse element connecting
    levels n and n+1 and compares its magnitude with b_perp(n)/2, the
    closed-form value frozen at the lower level; that deviation decays as
    O(1/n).  The longitudinal element is diagonal and already exact, so its
    defect |quad - b_z| sits at quadrature precision.  Returns rows
    (n, err_x, err_y, err_z).
    """
    cfg = FieldConfig(h=h, anomaly=0.0, b_z=b_z)
    rows = []
    for n in n_list:
        if n < 1:
            raise DomainError(f"n: convergence scan needs n >= 1, got {n}")
        bra = QuantumNumbers(n=n + 1, s=s)
        ket = QuantumNumbers(n=n, s=s)
        closed = 0.5 * transverse_momentum(h, n, SCALAR)
        err = []
        for component in ("x", "y"):
            exact = abs(momentum_element_quadrature(bra, ket, component, cfg))
            err.append(abs(exact - closed) / closed)
        diag = momentum_element_quadrature(QuantumNumbers(n, s), QuantumNumbers(n, s), "z", cfg)
        rows.append((n, err[0], err[1], abs(complex(diag) - b_z)))
    return rows


def fit_decay_exponent(ns, errors) -> float:
    """Least-squares slope of log(error) against log(n)."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
