"""Orthonormal Landau radial profiles and an independent quadrature oracle
for momentum matrix elements of the spin-0 states.

The radial profile of the state (n, s) is an exponentially weighted
generalized Laguerre polynomial in the field-scaled radial variable
rho = (e0*H / 2*hbar*c) * r^2,

    I(n, s; rho) = sqrt(s!/n!) * exp(-rho/2) * rho^((n-s)/2) * L_s^(n-s)(rho),

normalized so that the profiles with a common azimuthal index l = n - s are
orthonormal on [0, inf) in d(rho).  Evaluation runs the normalized upward
three-term recurrence in s, never forming factorials.  The seed I(l, 0; rho)
is taken in log space (from l = 100 on, about its peak rho ~ l, with
Stirling's series for log(l!), so the large terms never cancel), and the
recurrence runs on a mantissa that starts at 1 while the seed's logarithm and
every rescaling are carried apart: a seed below the underflow limit exp(-745)
still lifts to a representable profile (at n = 1e4, s = 500, rho = 4750 the
seed is exp(-922) and the profile 3.2e-127).

The quadrature oracle integrates each product of two profiles (n, s) and
(n', s') with a Gauss-Legendre rule on a finite window: the union of their
classical supports [(sqrt(n) - sqrt(s))^2, (sqrt(n) + sqrt(s))^2], padded
on both sides by 9*sqrt(n_max + 1) + 40 and clipped at 0.  The order is
200 + 2s, so every level at a given s shares one cached rule; the products
oscillate about 2s times across the window.  Every oracle value is
recomputed at twice the order and rejected if the two disagree by more
than CONVERGENCE_TOL.  A rule costs two passes of the Legendre recurrence
(``radial_rule``): one at Tricomi's estimates of the nodes, whose Taylor
polynomial of P_order, its derivatives taken from Legendre's equation,
corrects them, and one at the corrected nodes that confirms them and gives
the weights, or raises QuadratureAccuracyError.

``semiclassical_convergence`` accepts the box where this is validated,
max(1, s) <= n <= ORACLE_MAX_N = 1e4 and 0 <= s <= ORACLE_MAX_S = 100; from
s ~ 150 an order of 200 + 2s no longer resolves the profiles.

Order doubling cannot see what lies outside the window.  For s = 0,
I(n, 0; rho)^2 is the Gamma(n + 1) density (mean n + 1, standard deviation
sqrt(n + 1)), and the oracle integrands are Gamma(k) densities with
k = n, n + 1 or n + 2 up to constant factors.  By the Chernoff bound the
mass of a Gamma(k) density beyond t is at most
exp(-[(t - k) - k log(t/k)]), on either side of k; at the window's edges
that exponent is at least 40.5 for every n (its infimum 9^2/2 is
approached as n grows), so truncation costs at most 2 exp(-40.5) ~ 5e-18
of the integral's scale.  For s > 0 the profiles fall off faster past
their turning points: the mass outside the window is below 2e-21 at every
(n, s) sampled with 1 <= s <= 100 and n <= 1e4.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, QuadratureAccuracyError
from .kinematics import SCALAR, FieldConfig, transverse_momentum

#: order-doubling tolerance for oracle integrals
CONVERGENCE_TOL = 1e-8
#: the window reaches PAD_SCALE * sqrt(n + 1) + PAD_OFFSET past the classical
#: supports of its profiles
PAD_SCALE = 9.0
PAD_OFFSET = 40.0
#: Legendre order at s = 0; each unit of the radial number adds two nodes
BASE_ORDER = 200
#: largest level and radial number of a convergence scan (module docstring)
ORACLE_MAX_N = 10_000
ORACLE_MAX_S = 100
#: the profile recurrence moves a mantissa past this into the exponent
_RESCALE_ABOVE = 1e150
_LN2 = math.log(2.0)
#: levels from which the profile seed expands log(l!) by Stirling's series
_STIRLING_FROM = 100
#: terms of the Taylor polynomial of P_order about Tricomi's estimates, and
#: Newton steps taken on it; the roots it gives are within 1.2e-16 of those
#: of P_order at every order to 2000
_TAYLOR_TERMS = 5
_TAYLOR_STEPS = 3


def default_order(s: int) -> int:
    """Legendre order for profiles of radial number up to ``s``; every
    level at a given s shares one rule."""
    return BASE_ORDER + 2 * s


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for |x| < 1 by the three-term recurrence."""
    prev, cur = np.ones_like(x), x
    for j in range(2, n + 1):
        prev, cur = cur, ((2.0 * j - 1.0) * x * cur - (j - 1.0) * prev) / j
    return cur, n * (x * cur - prev) / (x * x - 1.0)


def _taylor_roots(n: int, x: np.ndarray) -> np.ndarray:
    """Roots of P_n near the estimates ``x``, from one pass of the
    recurrence: Newton's method on the Taylor polynomial of P_n about each
    estimate (Glaser, Liu & Rokhlin, SIAM J. Sci. Comput. 29 (2007) 1420).

    Its coefficients a_k = P_n^(k)(x) / k! follow from P_n and P_n' by
    Legendre's equation differentiated k times,
    (k + 1)(k + 2)(1 - x^2) a_{k+2} = 2(k + 1)^2 x a_{k+1} + (k(k + 1) - n(n + 1)) a_k.
    """
    p, dp = _legendre(n, x)
    one = (1.0 - x) * (1.0 + x)
    a = [p, dp]
    for k in range(_TAYLOR_TERMS - 2):
        a.append(
            (2.0 * (k + 1.0) ** 2 * x * a[k + 1] + (k * (k + 1.0) - n * (n + 1.0)) * a[k])
            / ((k + 1.0) * (k + 2.0) * one)
        )
    h = np.zeros_like(x)
    for _ in range(_TAYLOR_STEPS):
        f, df = a[-1], np.zeros_like(x)
        for c in a[-2::-1]:
            df = df * h + f
            f = f * h + c
        h -= f / df
    return x + h


@lru_cache(maxsize=64)
def radial_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], exact for
    polynomials of degree <= 2*order - 1, nodes ascending.

    Two passes of the three-term recurrence, for all nonnegative nodes at
    once: the first, at Tricomi's estimates
    (1 - (n - 1) / (8 n^3)) cos(pi (4k - 1) / (4n + 2)), corrects them by
    the Taylor polynomial of P_order (``_taylor_roots``); the second
    confirms that no Newton step on P_order is left above 1e-15 and gives
    the weights 2 / ((1 - x^2) P'(x)^2) at the nodes, or raises
    QuadratureAccuracyError where a step is left.  The negative nodes are
    the mirror images.
    """
    if order < 1:
        raise DomainError(f"order: must be >= 1, got {order}")
    n = order
    theta = math.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4.0 * n + 2.0)
    x = (1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(theta)
    if n % 2:
        x[-1] = 0.0  # P_n is odd: 0 is a root, and Newton keeps it
    x = _taylor_roots(n, x)
    p, dp = _legendre(n, x)
    if not np.max(np.abs(p / dp)) <= 1e-15:
        raise QuadratureAccuracyError(f"Gauss-Legendre nodes of order {n}: a Newton step above 1e-15 is left")
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes = np.concatenate([-x, x[::-1][n % 2:]])
    weights = np.concatenate([w, w[::-1][n % 2:]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def radial_window(*states: tuple[int, int]) -> tuple[float, float]:
    """Union of the classical supports [(sqrt(n) - sqrt(s))^2,
    (sqrt(n) + sqrt(s))^2] of the profiles (n, s), padded by
    PAD_SCALE * sqrt(n_max + 1) + PAD_OFFSET and clipped at 0."""
    pad = PAD_SCALE * math.sqrt(max(n for n, _ in states) + 1.0) + PAD_OFFSET
    lo = min((math.sqrt(n) - math.sqrt(s)) ** 2 for n, s in states) - pad
    hi = max((math.sqrt(n) + math.sqrt(s)) ** 2 for n, s in states) + pad
    return max(lo, 0.0), hi


def window_rule(order: int, window: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """``radial_rule(order)`` mapped affinely onto ``window``."""
    nodes, weights = radial_rule(order)
    lo, hi = window
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


def _log_seed(l: int, x: np.ndarray) -> np.ndarray:
    """log I(l, 0; x) = -x/2 + (l/2) log(x) - log(l!)/2."""
    if l < _STIRLING_FROM:
        with np.errstate(divide="ignore"):
            return -0.5 * x - 0.5 * math.lgamma(l + 1.0) + (0.5 * l * np.log(x) if l else 0.0)
    # the three terms are each ~l/2 and cancel to O(1) near the peak x ~ l;
    # with d = x - l and Stirling's series for log(l!) they never form
    d = x - l
    stirling = 1.0 / (12.0 * l) - 1.0 / (360.0 * l**3) + 1.0 / (1260.0 * l**5)
    with np.errstate(divide="ignore"):
        return 0.5 * (l * np.log1p(d / l) - d) - 0.25 * math.log(2.0 * math.pi * l) - 0.5 * stirling


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

    log_seed = _log_seed(l, x)
    if s == 0:
        prev = np.exp(log_seed)
        return float(prev[0]) if scalar_input else prev

    # normalized upward recurrence in the radial number at fixed l:
    # I(l+k+1, k+1) = [(l + 2k + 1 - rho) I(l+k, k) - sqrt(k (l+k)) I(l+k-1, k-1)]
    #                 / sqrt((k+1)(l+k+1))
    # run on mantissas that start at 1; the seed's logarithm, and every power
    # of two taken out of a mantissa that grows past _RESCALE_ABOVE, go to
    # ``log_scale``, so a seed below the underflow limit still lifts to a
    # representable profile
    log_scale = log_seed
    prev = np.ones_like(x)
    cur = (l + 1.0 - x) / math.sqrt(l + 1.0)
    for k in range(1, s):
        nxt = ((l + 2.0 * k + 1.0 - x) * cur - math.sqrt(k * (l + k)) * prev) / math.sqrt(
            (k + 1.0) * (l + k + 1.0)
        )
        prev, cur = cur, nxt
        if np.max(np.abs(cur)) > _RESCALE_ABOVE:
            exponent = np.where(np.abs(cur) > _RESCALE_ABOVE, np.frexp(cur)[1], 0)
            prev, cur = np.ldexp(prev, -exponent), np.ldexp(cur, -exponent)
            log_scale = log_scale + exponent * _LN2
    mantissa, exponent = np.frexp(cur)
    cur = mantissa * np.exp(log_scale + exponent * _LN2)
    return float(cur[0]) if scalar_input else cur


def orthonormality_defect(
    n: int, n_prime: int, s: int, s_prime: int, order: int | None = None
) -> float:
    """Deviation of the profile overlap from the Kronecker delta, with a
    Legendre rule of ``order`` nodes (default ``default_order``).

    Only states with equal azimuthal index l = n - s share an angular
    sector; requesting any other pair is a domain error.
    """
    if n - s != n_prime - s_prime:
        raise DomainError(
            f"azimuthal index mismatch: n-s={n - s} vs n'-s'={n_prime - s_prime}"
        )
    if order is None:
        order = default_order(max(s, s_prime))
    nodes, weights = window_rule(order, radial_window((n, s), (n_prime, s_prime)))
    overlap = float(np.dot(weights, laguerre_I(n, s, nodes) * laguerre_I(n_prime, s_prime, nodes)))
    return abs(overlap - (1.0 if n == n_prime else 0.0))


def _ladder_image(n: int, s: int, rho: np.ndarray, dn: int) -> np.ndarray:
    """Radial image of the momentum component that takes (n, s) to level
    n + dn, for dn = +1 (raising) or -1 (lowering):
    [2 rho d/d(rho) - dn*(l + rho)] I(n, s)."""
    out = (2.0 * s - 2.0 * rho if dn == 1 else 2.0 * n) * laguerre_I(n, s, rho)
    if s > 0:
        out = out - 2.0 * math.sqrt(s * n) * laguerre_I(n - 1, s - 1, rho)
    return out


def _radial_integral(func, window: tuple[float, float], order: int) -> float:
    """Evaluate an oracle integral over ``window`` at ``order`` and
    ``2*order`` nodes and insist the two agree."""
    coarse = func(*window_rule(order, window))
    fine = func(*window_rule(2 * order, window))
    if abs(fine - coarse) > CONVERGENCE_TOL:
        raise QuadratureAccuracyError(
            f"order-doubling check failed: |{fine} - {coarse}| > {CONVERGENCE_TOL}"
        )
    return fine


def momentum_element_quadrature(
    n_bra: int,
    n_ket: int,
    s: int,
    component: str,
    cfg: FieldConfig,
    order: int | None = None,
) -> complex:
    """Exact kinetic-momentum matrix element between the spin-0 Landau
    states (n_bra, s) and (n_ket, s), by analytic angular reduction and
    radial quadrature.

    The angular integral enforces the selection rule Delta l = +/-1 for the
    x and y components and Delta l = 0 for z; at fixed radial number, this
    means only adjacent levels are connected transversally.  One radial
    integral of the ladder image serves both transverse components: the y
    element is the x element times -i for dn = +1 and +i for dn = -1.
    Values are in units of m0*c.
    """
    if component not in ("x", "y", "z"):
        raise DomainError(f"component: must be 'x', 'y' or 'z', got {component!r}")
    if not 0 <= s <= min(n_bra, n_ket):
        raise DomainError(f"s: need 0 <= s <= min(n_bra, n_ket) = {min(n_bra, n_ket)}, got {s}")
    if cfg.h <= 0:
        raise DomainError(f"h: momentum oracle needs h > 0, got {cfg.h}")
    dn = n_bra - n_ket
    if order is None:
        order = default_order(s)
    window = radial_window((n_bra, s), (n_ket, s))

    if component == "z":
        if dn != 0:
            return 0j
        overlap = _radial_integral(
            lambda x, w: float(np.dot(w, laguerre_I(n_ket, s, x) ** 2)), window, order
        )
        return complex(cfg.b_z * overlap)

    if abs(dn) != 1:
        return 0j
    radial = _radial_integral(
        lambda x, w: float(
            np.dot(w, laguerre_I(n_bra, s, x) * _ladder_image(n_ket, s, x, dn) / np.sqrt(x))
        ),
        window,
        order,
    )
    circular = -1j * math.sqrt(cfg.h) * radial
    if component == "x":
        return circular / 2.0
    # y picks opposite signs from the raising and lowering circular parts
    return circular / 2j if dn == 1 else -circular / 2j


def semiclassical_convergence(
    radial_s: int, h: float, n_list: list[int], b_z: float = 0.0
) -> list[tuple[int, float, float, float]]:
    """Deviation of the exact matrix elements from their frozen closed
    forms, per level of ``n_list``, at the radial number ``radial_s``.

    For each n, the oracle computes the exact transverse element connecting
    levels n and n+1 and compares its magnitude with b_perp(n)/2, the
    closed-form value frozen at the lower level; that deviation decays as
    O(1/n).  The x element is integrated once: the y element differs from
    it by a factor -i, and dividing by 2j is exact, so err_y equals err_x
    bit for bit.  The longitudinal element is diagonal and already exact,
    so its defect |quad - b_z| sits at quadrature precision.  Returns rows
    (n, err_x, err_y, err_z); DomainError outside the validated box.
    """
    if any(n > ORACLE_MAX_N for n in n_list):
        raise DomainError(
            f"n_list: quadrature oracle is limited to n <= {ORACLE_MAX_N}, got {max(n_list)}: "
            "its windowed rules are validated up to there"
        )
    if not 0 <= radial_s <= ORACLE_MAX_S:
        raise DomainError(
            f"radial_s: quadrature oracle needs 0 <= s <= {ORACLE_MAX_S}, got {radial_s}: "
            "past that an order of 200 + 2s no longer resolves the profiles"
        )
    if any(n < max(radial_s, 1) for n in n_list):
        raise DomainError(
            f"n_list: levels must be >= max(1, radial_s) = {max(radial_s, 1)}, got {min(n_list)}"
        )
    cfg = FieldConfig(h=h, anomaly=0.0, b_z=b_z)
    rows = []
    for n in n_list:
        closed = 0.5 * transverse_momentum(h, n, SCALAR)
        exact = abs(momentum_element_quadrature(n + 1, n, radial_s, "x", cfg))
        err = abs(exact - closed) / closed
        diag = momentum_element_quadrature(n, n, radial_s, "z", cfg)
        rows.append((n, err, err, abs(diag - b_z)))
    return rows


def fit_decay_exponent(ns, errors) -> float:
    """Least-squares slope of log(error) against log(n); DomainError unless
    ``ns`` holds at least two distinct levels."""
    if len(set(ns)) < 2:
        raise DomainError(f"n_list: the decay fit needs at least two distinct levels, got {list(ns)}")
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
