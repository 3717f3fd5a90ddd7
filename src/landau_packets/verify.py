"""The self-verification suite behind the ``verify`` command.

Each check exercises one identity or property the package is built around
and reports a residual next to its tolerance.  The checks are the one
implementation of the release criteria: ``verify`` runs them against a
user-supplied configuration, in production installs, without pytest, and
the acceptance tests run the same functions at their own configurations.
A check reports a failure in its result rather than raising, so the
report is complete either way.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from . import classical, evolution, laguerre, operators, packets
from .errors import AccuracyError, DomainError
from .kinematics import FieldConfig, SpinKinematics, spin_mixing_ratio
from .trajectory import compare_trajectories

FACTOR_LAW_LEVELS = (1, 2, 3, 5, 10, 100, 1000)
ENGINE_LEVELS = (1, 2, 3, 5, 9)
#: the smaller residual of the anomaly-halving pair of ``check_invariants``
#: reads at least this many roundoff units u * E^2
HALVING_ROUNDOFF = 1e3
#: the roundoff unit of a double
_U = sys.float_info.epsilon


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float | None = None
    tolerance: float | None = None
    details: dict = field(default_factory=dict)

    @property
    def margin(self) -> float | None:
        """residual / tolerance, the share of its tolerance the check used;
        None when it reports no residual or no tolerance."""
        if self.residual is None or self.tolerance is None:
            return None
        return float(self.residual) / float(self.tolerance)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "residual": None if self.residual is None else float(self.residual),
            "tolerance": None if self.tolerance is None else float(self.tolerance),
            "margin": self.margin,
            "details": self.details,
        }


@dataclass
class VerificationReport:
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(bool(c.passed) for c in self.checks)

    def as_dict(self) -> dict:
        return {"passed": bool(self.passed), "checks": [c.as_dict() for c in self.checks]}


def _reports_accuracy_error(name: str):
    """Report an AccuracyError of the engine (its Hermitian-residue gate)
    as the failure of a check that evolves packets, the message in its
    details."""

    def decorate(check):
        @functools.wraps(check)
        def run(*args, **kwargs):
            try:
                return check(*args, **kwargs)
            except AccuracyError as exc:
                return CheckResult(name, False, details={"error": str(exc)})

        return run

    return decorate


def _fitting_levels(counts, n: int) -> list[int]:
    """The level counts whose spinor window centered on n fits."""
    return [count for count in counts if packets.spinor_window_fits(n, count)]


def check_packet_normalization(
    cfg: FieldConfig, n: int, epsilon: int, perturb: bool, seed: int = 0
) -> CheckResult:
    # numpy.random is imported only to perturb; it costs every other run 10-15 ms
    rng = np.random.default_rng(seed) if perturb else None
    worst = 0.0
    for levels in _fitting_levels((1, 3, 10), n):
        packet = packets.build_spinor_packet(n, levels, cfg, epsilon)
        if perturb:
            # scale element k of the (zeta, m)-sorted amplitudes, spin-major
            spin, row = divmod(int(rng.integers(packet.amplitudes.size)), len(packet.levels))
            amplitudes = packet.amplitudes.copy()
            amplitudes[row, spin] *= 1.5
            packet = replace(packet, amplitudes=amplitudes)
        worst = max(worst, packets.normalization_defect(packet))
    tol = 1e-14
    return CheckResult("packet-normalization", worst <= tol, worst, tol, {"perturbed": perturb})


def check_band_hermiticity(cfg: FieldConfig, n: int, epsilon: int) -> CheckResult:
    levels = range(max(n - 2, 1), n + 3)
    worst = 0.0
    for name in operators.OBSERVABLES:
        table = operators.build_operator_band(levels, name, cfg, n, zeta_ref=epsilon)
        # a table of any other shape is no band of offsets -1, 0, +1 between
        # two spins, and fails with a residual of 1
        banded = table.shape == (len(operators.OFFSETS), 2, 2)
        worst = max(worst, operators.hermiticity_defect(table) if banded else 1.0)
    tol = 1e-15
    return CheckResult("band-hermiticity", worst <= tol, worst, tol)


def check_structure_sums(cfg: FieldConfig, n: int, epsilon: int) -> CheckResult:
    kappa = spin_mixing_ratio(cfg, n, epsilon)
    worst = 0.0
    for levels in _fitting_levels(FACTOR_LAW_LEVELS, n):
        packet = packets.build_spinor_packet(n, levels, cfg, epsilon)
        sums = packets.structure_sums(packet)
        f = packets.contrast_factor(levels)
        worst = max(
            worst,
            abs(sums.adjacent_same_spin - f),
            abs(sums.diagonal_spin_flip - kappa / (kappa**2 + 1)),
            abs(sums.population_imbalance - (kappa**2 - 1) / (kappa**2 + 1)),
            abs(sums.adjacent_spin_flip - f * kappa / (kappa**2 + 1)),
        )
    tol = 1e-12
    # the adjacent spin-flip sum follows the quadratic form kappa/(kappa^2+1);
    # the linear form kappa/(kappa+1) sometimes quoted for it does not match
    # the construction and is reported here for the record, when three
    # levels fit above level 1; at kappa = -1 (b_z = 0, no anomaly,
    # epsilon = -1) it has no value
    details = {}
    if _fitting_levels((3,), n):
        f3 = packets.contrast_factor(3)
        packet3 = packets.build_spinor_packet(n, 3, cfg, epsilon)
        constructed = packets.structure_sums(packet3).adjacent_spin_flip.real
        details = {
            "adjacent_spin_flip_constructed_3_levels": constructed,
            "quadratic_form_value": f3 * kappa / (kappa**2 + 1),
            "linear_form_value": f3 * kappa / (kappa + 1) if kappa != -1 else None,
            "matches": "quadratic form kappa/(kappa^2+1)",
        }
    return CheckResult("structure-sums", worst <= tol, worst, tol, details)


@_reports_accuracy_error("engine-closed-form")
def check_engine_closed_form(cfg: FieldConfig, n: int, epsilon: int) -> CheckResult:
    worst = 0.0
    kin = SpinKinematics.from_field(cfg, n, epsilon)
    times = evolution.sample_times(kin.omega)
    for levels in _fitting_levels(ENGINE_LEVELS, n):
        packet = packets.build_spinor_packet(n, levels, cfg, epsilon)
        traj = evolution.evolve_packet(packet, times, mode=evolution.UNIFORM_GAP)
        closed = evolution.closed_form_trajectory(kin, levels, times)
        worst = max(worst, *compare_trajectories(traj, closed).values())
    tol = 1e-10
    return CheckResult("engine-closed-form", worst <= tol, worst, tol)


@_reports_accuracy_error("factor-law")
def check_factor_law(cfg: FieldConfig, n: int, epsilon: int) -> CheckResult:
    worst = 0.0
    rows = {}
    kin = SpinKinematics.from_field(cfg, n, epsilon)
    times = evolution.sample_times(kin.omega)
    for levels in _fitting_levels(FACTOR_LAW_LEVELS, n):
        packet = packets.build_spinor_packet(n, levels, cfg, epsilon)
        traj = evolution.evolve_packet(packet, times, mode=evolution.UNIFORM_GAP)
        factor = traj.amplitude_factor(kin.b_perp)
        rows[levels] = factor
        worst = max(worst, abs(factor - packets.contrast_factor(levels)))
    tol = 1e-10
    return CheckResult("factor-law", worst <= tol, worst, tol, {"factors": rows})


def check_invariants(cfg: FieldConfig, n: int, epsilon: int) -> CheckResult:
    ref = classical.classical_reference(cfg, n, epsilon)
    traj = evolution.closed_form_trajectory(ref.kin, None, evolution.sample_times(ref.kin.omega))
    worst = traj.invariant_residual
    tol = 1e-10

    # the orthogonality residual of the frozen kinematics scales linearly
    # with the anomaly, as anomaly * h^2 at small h; halving measures it
    # only where both runs stand above roundoff
    def max_res_sp(anomaly: float) -> tuple[float, float]:
        try:
            kin = SpinKinematics.from_field(replace(cfg, anomaly=anomaly), n, epsilon)
            t = evolution.closed_form_trajectory(kin, None, evolution.sample_times(kin.omega))
        except (DomainError, OverflowError):
            raise DomainError(
                f"h: at h={cfg.h} no anomaly lifts the orthogonality residual of "
                "four-vector-invariants above roundoff"
            ) from None
        return float(np.max(t.res_sp)), kin.energy

    # the first decade of anomalies from max(1e-3, min(anomaly, 2e-4 / h)),
    # where the law is still linear, up whose half run reads
    # HALVING_ROUNDOFF units u * E^2 or more
    base_anomaly = max(1e-3, min(cfg.anomaly, 2e-4 / cfg.h))
    while True:
        r_half, energy = max_res_sp(0.5 * base_anomaly)
        if r_half >= HALVING_ROUNDOFF * _U * energy**2:
            break
        base_anomaly *= 10.0
    r_full = max_res_sp(base_anomaly)[0]
    ratio = r_full / r_half
    linear = abs(ratio - 2.0) <= 0.2
    return CheckResult(
        "four-vector-invariants",
        worst <= tol and linear,
        worst,
        tol,
        {"anomaly_halving_ratio": ratio},
    )


def check_polarization_tensor(cfg: FieldConfig, n: int, epsilon: int) -> CheckResult:
    ref = classical.classical_reference(cfg, n, epsilon)
    times = evolution.sample_times(ref.kin.omega, samples=32)
    traj = evolution.closed_form_trajectory(ref.kin, None, times)
    p4 = traj.four_momentum()
    tensors = evolution.polarization_series(traj.s, p4)
    p_low = evolution.lower_index(p4.T).T
    worst = max(
        float(np.max(np.abs(tensors + tensors.transpose(0, 2, 1)))),
        float(np.max(np.abs(np.einsum("tmn,tn->tm", tensors, p_low)))),
    )
    tol = 1e-12 * max(1.0, ref.kin.energy**2)
    return CheckResult("polarization-tensor", worst <= tol, worst, tol)


def _drift_horizon(ref: classical.ClassicalReference) -> float:
    """Ten cyclotron periods, the span the invariant-drift check integrates."""
    return 10.0 * 2.0 * math.pi / ref.kin.omega


def check_bmt_match(cfg: FieldConfig, n: int, epsilon: int) -> CheckResult:
    ref = classical.classical_reference(cfg, n, epsilon)
    # one anomalous period; without an anomaly the spin does not precess
    # relative to the orbit, and the drift check's horizon stands in
    t_max = 2.0 * math.pi / ref.kin.omega_a if ref.kin.omega_a else _drift_horizon(ref)
    # one anomalous period grows as 1/anomaly: reject one past the step cap first
    classical.step_counts(np.array([0.0, t_max]), ref.step, "anomaly")
    times = evolution.sample_times(ref.kin.omega, samples=128, t_max=t_max)
    bmt = classical.bmt_integrate(ref.init, cfg.h, times, ref.step)
    closed = evolution.closed_form_trajectory(ref.kin, None, times)
    worst = max(compare_trajectories(bmt, closed).values())
    tol = 1e-6
    return CheckResult("bmt-closed-form-match", worst <= tol, worst, tol)


def check_rk4_order(cfg: FieldConfig, n: int, epsilon: int) -> CheckResult:
    """Criterion 7: halving the step of the order-8 scheme divides its
    deviation from the closed form by 2^8, within a factor of 2.  The
    function keeps the name of the RK4 check it replaced because the
    benchmark's tracer keys its per-check spans on that name."""
    ref = classical.classical_reference(cfg, n, epsilon)
    # 8 and 16 steps per period of the fastest rate, whatever the
    # reference's resolution, uniform over two cyclotron periods: a record
    # grid would cap each step at its spacing; the rates grow with n and
    # the anomaly
    coarse = ref.step * classical.STEPS_PER_PERIOD / 8.0
    dev = []
    for dt in (coarse, 0.5 * coarse):
        grid = classical.step_grid(4.0 * math.pi / ref.kin.omega, dt, "n, anomaly")
        traj = classical.bmt_integrate(ref.init, cfg.h, grid, dt)
        closed = evolution.closed_form_trajectory(ref.kin, None, traj.times)
        dev.append(max(compare_trajectories(traj, closed).values()))
    ratio = dev[0] / dev[1] if dev[1] > 0 else math.inf
    return CheckResult(
        "integrator-order", 128.0 <= ratio <= 512.0, ratio, None,
        {"expected": 256.0, "fine_deviation": dev[1]},
    )


def check_bmt_drift(cfg: FieldConfig, n: int, epsilon: int) -> CheckResult:
    ref = classical.classical_reference(cfg, n, epsilon)
    # the step resolves the spin coupling, whose rate grows with n and the anomaly
    grid = classical.step_grid(_drift_horizon(ref), ref.step, "n, anomaly")
    traj = classical.bmt_integrate(ref.init, cfg.h, grid, ref.step)
    worst = traj.invariant_residual
    gamma_drift = float(np.max(np.abs(traj.p0 - traj.p0[0])))
    tol = 1e-8
    return CheckResult(
        "bmt-invariant-drift", worst <= tol and gamma_drift <= 1e-10, worst, tol,
        {"gamma_drift": gamma_drift},
    )


def check_orthonormality(cfg: FieldConfig, n: int, epsilon: int) -> CheckResult:
    pairs = [(0, 0, 0, 0), (4, 4, 1, 1), (4, 6, 1, 3), (50, 50, 3, 3), (48, 50, 1, 3)]
    # one rule, at the order the largest radial number needs, serves every pair
    order = laguerre.default_order(max(max(p[2:]) for p in pairs))
    worst = 0.0
    for n1, n2, s1, s2 in pairs:
        worst = max(worst, laguerre.orthonormality_defect(n1, n2, s1, s2, order))
    tol = 1e-10
    return CheckResult("radial-orthonormality", worst <= tol, worst, tol)


def check_oracle_convergence(cfg: FieldConfig, n: int, epsilon: int) -> CheckResult:
    ns = [10, 20, 40, 80]
    rows = laguerre.semiclassical_convergence(0, 0.1, ns)
    exponent = laguerre.fit_decay_exponent(ns, [r[1] for r in rows])
    passed = abs(exponent + 1.0) <= 0.1
    return CheckResult(
        "oracle-convergence", passed, exponent, None,
        {"expected_exponent": -1.0, "rows": [list(r) for r in rows]},
    )


@_reports_accuracy_error("determinism")
def check_determinism(cfg: FieldConfig, n: int, epsilon: int) -> CheckResult:
    # three levels, or two where three reach below level 1
    packet = packets.build_spinor_packet(n, _fitting_levels((3, 2), n)[0], cfg, epsilon)
    times = evolution.sample_times(SpinKinematics.from_field(cfg, n, epsilon).omega)

    def render() -> bytes:
        traj = evolution.evolve_packet(packet, times, mode=evolution.UNIFORM_GAP)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trajectory.csv")
            traj.to_csv(path)
            with open(path, "rb") as handle:
                return handle.read()

    passed = render() == render()
    return CheckResult("determinism", passed, None, None)


ALL_CHECKS = (
    check_packet_normalization,
    check_band_hermiticity,
    check_structure_sums,
    check_engine_closed_form,
    check_factor_law,
    check_invariants,
    check_polarization_tensor,
    check_bmt_match,
    check_rk4_order,
    check_bmt_drift,
    check_orthonormality,
    check_oracle_convergence,
    check_determinism,
)


def run_all_checks(
    cfg: FieldConfig, n: int, epsilon: int = 1, perturb: bool = False, seed: int = 0
) -> VerificationReport:
    """Run the whole suite against one configuration."""
    results = []
    for check in ALL_CHECKS:
        if check is check_packet_normalization:
            results.append(check(cfg, n, epsilon, perturb, seed))
        else:
            results.append(check(cfg, n, epsilon))
    return VerificationReport(checks=results)
