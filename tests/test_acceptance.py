"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured residual next to the pinned tolerance.

Criteria 1, 2, 3a, 4, 5, 6, 7 and 8 run the shared ``verify`` checks at the
acceptance configurations; the checks carry the tolerances, and criterion 7
the window [128, 512] for the step-halving ratio of the order-8 integrator."""

import time

import numpy as np
import pytest

from landau_packets.evolution import UNIFORM_GAP, closed_form_momentum, evolve_packet, sample_times
from landau_packets.kinematics import FieldConfig, SpinKinematics
from landau_packets.packets import build_spinor_packet
from landau_packets.verify import (
    CheckResult,
    check_bmt_drift,
    check_bmt_match,
    check_determinism,
    check_engine_closed_form,
    check_factor_law,
    check_invariants,
    check_oracle_convergence,
    check_orthonormality,
    check_rk4_order,
    check_structure_sums,
    run_all_checks,
)

CFG = FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=0.5)
#: configuration of the classical-limit and integrator-order criteria
CLASSICAL_CFG = FieldConfig(h=0.1, anomaly=0.02, b_z=0.5)

# parameter sets spanning the longitudinal momentum, field strength and
# helicity ranges the engine is expected to cover
PARAM_SETS = [
    (FieldConfig(h=1e-3, anomaly=1.16141e-3, b_z=0.0), 1000, +1),
    (FieldConfig(h=1e-3, anomaly=1.16141e-3, b_z=0.5), 1000, -1),
    (FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=0.5), 100, +1),
    (FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=2.0), 100, -1),
    (FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=2.0), 50, +1),
]


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


def report_check(criterion: str, result: CheckResult, gate: str | None = None) -> None:
    """PASS/FAIL line of one shared check: its residual and its tolerance
    (or ``gate`` for checks whose gate is not a tolerance)."""
    gate = gate or f"tol {result.tolerance:.0e}"
    report(criterion, result.passed, f"{result.name} residual {result.residual:.3e} ({gate})")


def test_criterion_1_factor_law():
    """Momentum oscillation amplitude carries the factor (N-1)/N, up to
    1000 levels, and the whole check takes interactive time."""
    start = time.perf_counter()
    result = check_factor_law(CFG, 1200, +1)
    elapsed = time.perf_counter() - start
    fast = elapsed < 1.0
    report("1 factor law", result.passed and fast,
           f"max defect {result.residual:.2e} (tol 1e-10) at {sorted(result.details['factors'])} levels, "
           f"{elapsed:.2f}s (gate 1.0s)")
    assert result.passed
    assert fast


def test_criterion_2_engine_closed_form_equivalence():
    """Generic engine over frozen bands reproduces the closed forms."""
    results = [check_engine_closed_form(cfg, n, epsilon) for cfg, n, epsilon in PARAM_SETS]
    passed = all(r.passed for r in results)
    worst = max(r.residual for r in results)
    report("2 engine vs closed form", passed,
           f"max deviation {worst:.2e} over {len(results)} parameter sets (tol 1e-10)")
    assert passed


def test_criterion_3_classical_limit():
    """Full-contrast initial data: the order-8 integrator matches the closed
    forms; the N-level packet approaches the classical circle with gap
    b_perp/N."""
    match = check_bmt_match(CLASSICAL_CFG, 100, +1)
    drift = check_bmt_drift(CLASSICAL_CFG, 100, +1)
    report_check("3a BMT integrator vs closed form", match)
    report_check("3a BMT invariant drift", drift,
                 f"tol {drift.tolerance:.0e}; gamma drift {drift.details['gamma_drift']:.1e}, tol 1e-10")

    n_ref, levels = 1200, 100
    kin_q = SpinKinematics.from_field(CFG, n_ref, +1)
    grid = sample_times(kin_q.omega)
    packet = build_spinor_packet(n_ref, levels, CFG, +1)
    traj = evolve_packet(packet, grid, mode=UNIFORM_GAP)
    circle = closed_form_momentum(kin_q, None, grid)
    gap = float(np.max(np.abs(traj.p[:, :2] - circle[:, :2])))
    expected = kin_q.b_perp / levels
    gap_ok = abs(gap - expected) <= 1e-10 * expected
    report("3b quantum vs classical momentum gap", gap_ok, f"gap {gap:.6e} vs b_perp/N {expected:.6e}")
    assert match.passed and drift.passed and gap_ok


def test_criterion_4_invariants():
    """Four-spin relations hold at full contrast; the orthogonality
    residual scales linearly with the anomaly (halving 2e-3 -> 1e-3)."""
    at_cfg = check_invariants(CFG, 100, +1)
    halving = check_invariants(FieldConfig(h=CFG.h, anomaly=2e-3, b_z=CFG.b_z), 100, +1)
    report_check("4a invariants at full contrast", at_cfg)
    report("4b anomaly halving", halving.passed,
           f"residual ratio {halving.details['anomaly_halving_ratio']:.4f} (2.0 +- 10%)")
    assert at_cfg.passed and halving.passed


def test_criterion_5_oracle_convergence():
    """Quadrature elements approach the frozen closed form as 1/n;
    radial profiles are orthonormal."""
    decay = check_oracle_convergence(CFG, 100, +1)
    ortho = check_orthonormality(CFG, 100, +1)
    report_check("5a oracle decay exponent", decay, "-1 +- 0.1")
    report_check("5b orthonormality", ortho)
    assert decay.passed and ortho.passed


def test_criterion_6_structure_sums():
    """Amplitude sums reproduce their closed forms; the adjacent
    spin-flip sum follows the quadratic form."""
    result = check_structure_sums(CFG, 1200, +1)
    report_check("6a structure sums", result)
    details = result.details
    surfaced = (
        "quadratic_form_value" in details
        and "linear_form_value" in details
        and details["quadratic_form_value"] != details["linear_form_value"]
    )
    report("6b flip-sum discrepancy surfaced", surfaced,
           f"constructed {details['adjacent_spin_flip_constructed_3_levels']:.6f}, "
           f"quadratic {details['quadratic_form_value']:.6f}, linear {details['linear_form_value']:.6f}")
    assert result.passed and surfaced


def test_criterion_7_integrator_order():
    """Halving the step of the order-8 scheme cuts its closed-form
    deviation 2^8 = 256-fold."""
    result = check_rk4_order(CLASSICAL_CFG, 100, +1)
    report_check("7 integrator order", result, "256 within factor 2")
    assert result.passed


def test_criterion_8_determinism():
    """Identical configurations produce byte-identical CSV output."""
    result = check_determinism(CLASSICAL_CFG, 100, +1)
    report("8 determinism", result.passed, f"{result.name}: trajectory CSV byte-identical across reruns")
    assert result.passed


def _xfail(reason: str) -> pytest.MarkDecorator:
    return pytest.mark.xfail(strict=True, reason=reason)


#: ``verify``'s verdict over configurations (h, anomaly, b_z, n, epsilon) at
#: the edges of its range; each known failure is a strict xfail that names
#: the check it fails, so a fix shows as XPASS
VERDICTS = [
    pytest.param(0.1, 1.16141e-3, 0.5, 100, 1, id="default"),
    # the anomaly-halving pair of four-vector-invariants in the linear regime
    pytest.param(0.1, 5.0, 0.0, 1, -1, id="halving-h0.1-anomaly5-n1"),
    pytest.param(2.0, 5.0, 0.0, 100, -1, id="halving-h2-anomaly5"),
    pytest.param(10.0, 5.0, 0.0, 100, -1, id="halving-h10-anomaly5"),
    pytest.param(10.0, 5.0, 100.0, 100, 1, id="halving-h10-anomaly5-bz100"),
    pytest.param(0.5, 1.0, 0.0, 1, -1, id="halving-h0.5-anomaly1-n1"),
    pytest.param(0.1, 1.16141e-3, 0.5, 300_000, 1, id="n300000",
                 marks=_xfail("four-vector-invariants: 1.02e-10 against an absolute 1e-10")),
    pytest.param(0.1, 5.0, 0.5, 100_000, 1, id="n100000-anomaly5",
                 marks=_xfail("engine-closed-form: 5.36e-10 against 1e-10")),
    pytest.param(0.1, 0.0, 0.5, 100_000, 1, id="n100000-anomaly0",
                 marks=_xfail("bmt-invariant-drift: 4.99e-8 against an absolute 1e-8")),
    pytest.param(0.1, 1.16141e-3, 1000.0, 100, 1, id="bz1000",
                 marks=_xfail("four-vector-invariants: 2.33e-10, about u * E^2")),
    pytest.param(0.1, 1.16141e-3, 3000.0, 100, 1, id="bz3000",
                 marks=_xfail("four-vector-invariants 5.6e-9 and bmt-invariant-drift 4.3e-8")),
    pytest.param(0.1, 1.16141e-3, 40000.0, 100, 1, id="bz40000",
                 marks=_xfail("engine-closed-form, factor-law and determinism trip the absolute "
                              "Hermitian gate; four-vector-invariants and both order-8 checks fail")),
    pytest.param(1e-8, 5.0, 100.0, 1, -1, id="h1e-8-bz100-n1-minus",
                 marks=_xfail("four-vector-invariants: the halving climb reaches anomaly 5e7, ratio 1.71")),
    pytest.param(1e-8, 5.0, 100.0, 1, 1, id="h1e-8-bz100-n1-plus",
                 marks=_xfail("four-vector-invariants: the halving climb reaches anomaly 5e7, ratio 2.22")),
]


@pytest.mark.parametrize("h, anomaly, b_z, n, epsilon", VERDICTS)
def test_verify_verdict(h, anomaly, b_z, n, epsilon):
    report = run_all_checks(FieldConfig(h=h, anomaly=anomaly, b_z=b_z), n, epsilon)
    assert [check.name for check in report.checks if not check.passed] == []
