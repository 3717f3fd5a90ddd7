"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured residual next to the pinned tolerance."""

import math
import time

import numpy as np

from landau_packets.classical import (
    anomalous_omega,
    bmt_integrate,
    classical_state_from_kinematics,
    cyclotron_omega,
)
from landau_packets.evolution import (
    UNIFORM_GAP,
    closed_form_momentum,
    closed_form_spin,
    closed_form_trajectory,
    evolve_packet,
    sample_times,
)
from landau_packets.kinematics import (
    FieldConfig,
    SpinKinematics,
    anomalous_frequency,
    cyclotron_frequency,
)
from landau_packets.laguerre import (
    fit_decay_exponent,
    orthonormality_defect,
    semiclassical_convergence,
)
from landau_packets.packets import build_spinor_packet, contrast_factor, structure_sums
from landau_packets.trajectory import compare_trajectories
from landau_packets.verify import run_all_checks

CFG = FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=0.5)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


def test_criterion_1_factor_law():
    """Momentum oscillation amplitude carries the factor (N-1)/N."""
    n_ref = 1200
    kin = SpinKinematics.from_field(CFG, n_ref, +1)
    omega = cyclotron_frequency(CFG, n_ref, +1)[0]
    worst = 0.0
    slowest = 0.0
    for levels in (1, 2, 3, 5, 10, 100, 1000):
        start = time.perf_counter()
        packet = build_spinor_packet(n_ref, levels, CFG, +1)
        traj = evolve_packet(packet, CFG, sample_times(omega), mode=UNIFORM_GAP)
        elapsed = time.perf_counter() - start
        factor = float(np.max(np.abs(traj.p[:, 0]))) / kin.b_perp
        worst = max(worst, abs(factor - contrast_factor(levels)))
        slowest = max(slowest, elapsed)
    passed = worst <= 1e-10 and slowest < 1.0
    report("1 factor law", passed, f"max defect {worst:.2e} (tol 1e-10), slowest run {slowest:.2f}s")
    assert worst <= 1e-10
    assert slowest < 1.0


def test_criterion_2_engine_closed_form_equivalence():
    """Generic engine over frozen bands reproduces the closed forms."""
    param_sets = [
        (FieldConfig(h=1e-3, anomaly=1.16141e-3, b_z=0.0), 1000, +1),
        (FieldConfig(h=1e-3, anomaly=1.16141e-3, b_z=0.5), 1000, -1),
        (FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=0.5), 100, +1),
        (FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=2.0), 100, -1),
        (FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=2.0), 50, +1),
    ]
    worst = 0.0
    for cfg, n, epsilon in param_sets:
        kin = SpinKinematics.from_field(cfg, n, epsilon)
        omega = cyclotron_frequency(cfg, n, epsilon)[0]
        omega_a = anomalous_frequency(cfg, n)[0]
        times = sample_times(omega, samples=256)
        for levels in (1, 2, 3, 5, 9):
            packet = build_spinor_packet(n, levels, cfg, epsilon)
            traj = evolve_packet(packet, cfg, times, mode=UNIFORM_GAP)
            p_ref = closed_form_momentum(kin, levels, omega, times)
            s_ref = closed_form_spin(kin, levels, omega, omega_a, times)
            worst = max(
                worst,
                float(np.max(np.abs(traj.p - p_ref))),
                float(np.max(np.abs(traj.s - s_ref))),
            )
    passed = worst <= 1e-10
    report("2 engine vs closed form", passed, f"max deviation {worst:.2e} (tol 1e-10)")
    assert passed


def test_criterion_3_classical_limit():
    """Full-contrast initial data: RK4 matches the closed forms; the
    N-level packet approaches the classical circle with gap b_perp/N."""
    cfg = FieldConfig(h=0.1, anomaly=0.02, b_z=0.5)
    kin = SpinKinematics.from_field(cfg, 100, +1, anomaly_free=True)
    g = 2.0 * (1.0 + cfg.anomaly)
    omega = cyclotron_omega(cfg.h, kin.energy)
    omega_a = anomalous_omega(cfg.h, kin.energy, kin.b, g)
    times = sample_times(omega, samples=128, t_max=2 * math.pi / omega_a)
    init = classical_state_from_kinematics(kin, g)
    rk4 = bmt_integrate(init, cfg.h, record_times=times)
    ref = closed_form_trajectory(kin, None, omega, omega_a, times)
    rk4_gap = compare_trajectories(rk4, ref).max_linf
    rk4_ok = rk4_gap <= 1e-6
    report("3a BMT integrator vs closed form", rk4_ok, f"L_inf {rk4_gap:.2e} (tol 1e-6)")

    n_ref, levels = 1200, 100
    kin_q = SpinKinematics.from_field(CFG, n_ref, +1)
    omega_q = cyclotron_frequency(CFG, n_ref, +1)[0]
    grid = sample_times(omega_q)
    packet = build_spinor_packet(n_ref, levels, CFG, +1)
    traj = evolve_packet(packet, CFG, grid, mode=UNIFORM_GAP)
    circle = closed_form_momentum(kin_q, None, omega_q, grid)
    gap = float(np.max(np.abs(traj.p[:, :2] - circle[:, :2])))
    expected = kin_q.b_perp / levels
    gap_ok = abs(gap - expected) <= 1e-10 * expected
    report("3b quantum vs classical momentum gap", gap_ok, f"gap {gap:.6e} vs b_perp/N {expected:.6e}")
    assert rk4_ok and gap_ok


def test_criterion_4_invariants():
    """Four-spin relations hold at full contrast; the orthogonality
    residual scales linearly with the anomaly."""
    kin = SpinKinematics.from_field(CFG, 100, +1, anomaly_free=True)
    g = 2.0 * (1.0 + CFG.anomaly)
    omega = cyclotron_omega(CFG.h, kin.energy)
    omega_a = anomalous_omega(CFG.h, kin.energy, kin.b, g)
    traj = closed_form_trajectory(kin, None, omega, omega_a, sample_times(omega))
    worst = max(float(np.max(traj.res_sp)), float(np.max(traj.res_ss)))
    residual_ok = worst <= 1e-10
    report("4a invariants at full contrast", residual_ok, f"max residual {worst:.2e} (tol 1e-10)")

    def worst_sp(anomaly: float) -> float:
        cfg = FieldConfig(h=CFG.h, anomaly=anomaly, b_z=CFG.b_z)
        k = SpinKinematics.from_field(cfg, 100, +1)
        w = cyclotron_frequency(cfg, 100, +1)[0]
        wa = anomalous_frequency(cfg, 100)[0]
        t = closed_form_trajectory(k, None, w, wa, sample_times(w))
        return float(np.max(t.res_sp))

    ratio = worst_sp(2e-3) / worst_sp(1e-3)
    linear_ok = abs(ratio - 2.0) <= 0.2
    report("4b anomaly halving", linear_ok, f"residual ratio {ratio:.4f} (2.0 +- 10%)")
    assert residual_ok and linear_ok


def test_criterion_5_oracle_convergence():
    """Quadrature elements approach the frozen closed form as 1/n;
    radial profiles are orthonormal."""
    ns = [10, 20, 40, 80]
    rows = semiclassical_convergence(0, 0.1, ns)
    exponent = fit_decay_exponent(ns, [r[1] for r in rows])
    exponent_ok = abs(exponent + 1.0) <= 0.1
    report("5a oracle decay exponent", exponent_ok, f"exponent {exponent:.3f} (-1 +- 0.1)")

    worst = 0.0
    for n, n_prime, s, s_prime in [(0, 0, 0, 0), (4, 4, 1, 1), (4, 6, 1, 3), (50, 50, 3, 3), (48, 50, 1, 3)]:
        worst = max(worst, orthonormality_defect(n, n_prime, s, s_prime))
    ortho_ok = worst <= 1e-10
    report("5b orthonormality", ortho_ok, f"max defect {worst:.2e} (tol 1e-10)")
    assert exponent_ok and ortho_ok


def test_criterion_6_structure_sums():
    """Amplitude sums reproduce their closed forms; the adjacent
    spin-flip sum follows the quadratic form."""
    from landau_packets.kinematics import spin_mixing_ratio

    kappa = spin_mixing_ratio(CFG, 1200, +1)
    worst = 0.0
    for levels in (1, 2, 3, 5, 10, 100, 1000):
        sums = structure_sums(build_spinor_packet(1200, levels, CFG, +1))
        f = contrast_factor(levels)
        worst = max(
            worst,
            abs(sums.adjacent_same_spin - f),
            abs(sums.diagonal_spin_flip - kappa / (kappa**2 + 1)),
            abs(sums.population_imbalance - (kappa**2 - 1) / (kappa**2 + 1)),
        )
    sums_ok = worst <= 1e-12
    report("6a structure sums", sums_ok, f"max defect {worst:.2e} (tol 1e-12)")

    report_data = run_all_checks(CFG, 100, +1)
    sums_check = next(c for c in report_data.checks if c.name == "structure-sums")
    details = sums_check.details
    surfaced = (
        "quadratic_form_value" in details
        and "linear_form_value" in details
        and details["quadratic_form_value"] != details["linear_form_value"]
    )
    report("6b flip-sum discrepancy surfaced", surfaced,
           f"constructed {details['adjacent_spin_flip_constructed_3_levels']:.6f}, "
           f"quadratic {details['quadratic_form_value']:.6f}, linear {details['linear_form_value']:.6f}")
    assert sums_ok and surfaced


def test_criterion_7_rk4_order():
    """Halving the step cuts the closed-form deviation sixteenfold."""
    cfg = FieldConfig(h=0.1, anomaly=0.02, b_z=0.5)
    kin = SpinKinematics.from_field(cfg, 100, +1, anomaly_free=True)
    g = 2.0 * (1.0 + cfg.anomaly)
    omega = cyclotron_omega(cfg.h, kin.energy)
    omega_a = anomalous_omega(cfg.h, kin.energy, kin.b, g)
    period = 2 * math.pi / omega
    times = sample_times(omega, samples=64, t_max=2 * period)
    init = classical_state_from_kinematics(kin, g)
    ref = closed_form_trajectory(kin, None, omega, omega_a, times)
    deviations = []
    for dt in (period / 32, period / 64):
        rk4 = bmt_integrate(init, cfg.h, record_times=times, dt=dt, check_drift=False)
        deviations.append(compare_trajectories(rk4, ref).max_linf)
    ratio = deviations[0] / deviations[1]
    passed = 8.0 <= ratio <= 32.0
    report("7 RK4 order", passed, f"halving ratio {ratio:.2f} (16 within factor 2)")
    assert passed


def test_criterion_8_determinism(tmp_path):
    """Identical configurations produce byte-identical CSV output."""
    from landau_packets.cli import main

    args = ["trajectory", "--h", "0.1", "--anomaly", "0.02", "--b-z", "0.5",
            "--n", "100", "--levels", "3", "--seed", "7"]
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for target in dirs:
        assert main([*args, "--output-dir", str(target)]) == 0
    identical = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in ("trajectory.csv", "closed_form.csv", "classical.csv")
    )
    report("8 determinism", identical, "CSV outputs byte-identical across reruns")
    assert identical
