import math

import numpy as np
import pytest

from landau_packets.classical import (
    anomalous_omega,
    bmt_integrate,
    classical_state_from_kinematics,
    cyclotron_omega,
)
from landau_packets.errors import DomainError, IntegrationAccuracyError
from landau_packets.evolution import (
    closed_form_momentum,
    closed_form_trajectory,
    compute_invariants,
    evolve_packet,
    sample_times,
)
from landau_packets.kinematics import FieldConfig, SpinKinematics
from landau_packets.packets import build_spinor_packet
from landau_packets.trajectory import Trajectory, compare_trajectories

CFG = FieldConfig(h=0.1, anomaly=0.02, b_z=0.5)
N_REF = 100


def reference_setup(cfg=CFG, n=N_REF, epsilon=1):
    kin = SpinKinematics.from_field(cfg, n, epsilon, anomaly_free=True)
    g = 2.0 * (1.0 + cfg.anomaly)
    omega = cyclotron_omega(cfg.h, kin.energy)
    omega_a = anomalous_omega(cfg.h, kin.energy, kin.b, g)
    init = classical_state_from_kinematics(kin, g)
    return kin, g, omega, omega_a, init


class TestClassicalMomentum:
    # the classical circle is the unit-contrast closed form
    KIN = SpinKinematics(
        b_perp=2.0, b=math.sqrt(5.0), b_z=0.5, energy=math.sqrt(5.25),
        kappa=1.0, zeta_perp=1.0, zeta_z=0.0, epsilon=1,
    )

    def test_at_zero(self):
        np.testing.assert_allclose(closed_form_momentum(self.KIN, None, 0.1, 0.0), [0.0, 2.0, 0.5])

    def test_half_period(self):
        omega = 0.25
        p = closed_form_momentum(self.KIN, None, omega, math.pi / omega)
        np.testing.assert_allclose(p, [0.0, -2.0, 0.5], atol=1e-14)

    def test_circular(self):
        t = np.linspace(0, 80, 101)
        p = closed_form_momentum(self.KIN, None, 0.1, t)
        np.testing.assert_allclose(np.hypot(p[:, 0], p[:, 1]), 2.0, rtol=1e-14)


class TestInitialConditions:
    def test_invariants_at_start(self):
        _, _, _, _, init = reference_setup()
        report = compute_invariants(np.array([init.u[1:]]), np.array([init.s]), np.array([init.u[0]]))
        assert report.res_sp[0] < 1e-13
        assert report.res_ss[0] < 1e-13

    def test_matches_full_contrast_forms(self):
        kin, g, omega, omega_a, init = reference_setup()
        assert init.u[0] == pytest.approx(kin.energy)
        np.testing.assert_allclose(init.u[1:], [0.0, kin.b_perp, kin.b_z], atol=1e-14)
        assert init.s[2] == pytest.approx(kin.zeta_perp * kin.b, rel=1e-14)


class TestBmtIntegration:
    def test_matches_closed_form_over_anomalous_period(self):
        kin, g, omega, omega_a, init = reference_setup()
        times = sample_times(omega, samples=128, t_max=2 * math.pi / omega_a)
        rk4 = bmt_integrate(init, CFG.h, record_times=times)
        ref = closed_form_trajectory(kin, None, omega, omega_a, times)
        assert compare_trajectories(rk4, ref).max_linf < 1e-6

    def test_helicity_conserved_at_g2(self):
        cfg = FieldConfig(h=0.1, anomaly=0.0, b_z=0.0)
        kin, g, omega, _, init = reference_setup(cfg)
        assert g == 2.0
        traj = bmt_integrate(init, cfg.h, t_max=10 * 2 * math.pi / omega)
        longitudinal = np.sum(traj.p * traj.s[:, 1:], axis=1) / np.linalg.norm(traj.p, axis=1)
        assert np.max(np.abs(longitudinal - longitudinal[0])) < 1e-8

    def test_free_motion_keeps_spin(self):
        kin, g, _, _, init = reference_setup()
        traj = bmt_integrate(init, 0.0, t_max=50.0, dt=0.1, check_drift=False)
        assert np.max(np.abs(traj.s - traj.s[0])) < 1e-14
        assert np.max(np.abs(traj.p - traj.p[0])) < 1e-14

    def test_invariant_drift_bounded(self):
        kin, g, omega, _, init = reference_setup()
        traj = bmt_integrate(init, CFG.h, t_max=10 * 2 * math.pi / omega)
        assert max(np.max(traj.res_sp), np.max(traj.res_ss)) < 1e-8

    def test_energy_exactly_conserved(self):
        kin, g, omega, _, init = reference_setup()
        traj = bmt_integrate(init, CFG.h, t_max=2 * math.pi / omega)
        assert np.max(np.abs(traj.p0 - traj.p0[0])) < 1e-10

    def test_rk4_order(self):
        kin, g, omega, omega_a, init = reference_setup()
        period = 2 * math.pi / omega
        times = sample_times(omega, samples=64, t_max=2 * period)
        ref = closed_form_trajectory(kin, None, omega, omega_a, times)
        deviations = []
        for dt in (period / 32, period / 64):
            rk4 = bmt_integrate(init, CFG.h, record_times=times, dt=dt, check_drift=False)
            deviations.append(compare_trajectories(rk4, ref).max_linf)
        ratio = deviations[0] / deviations[1]
        assert 8.0 <= ratio <= 32.0

    def test_drift_error_raised_for_coarse_step(self):
        kin, g, omega, _, init = reference_setup()
        with pytest.raises(IntegrationAccuracyError):
            bmt_integrate(init, CFG.h, t_max=20 * 2 * math.pi / omega, dt=2 * math.pi / omega / 4)


class TestQuantumClassicalGap:
    @pytest.mark.parametrize("levels", [3, 10, 100])
    def test_transverse_gap_is_contrast_defect(self, levels):
        # quantum at contrast f vs classical circle at the same frequency:
        # the gap is exactly (1 - f) * b_perp = b_perp / N
        cfg = FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=0.5)
        packet = build_spinor_packet(1200, levels, cfg, +1)
        from landau_packets.kinematics import cyclotron_frequency

        omega = cyclotron_frequency(cfg, 1200, +1)[0]
        times = sample_times(omega)
        traj = evolve_packet(packet, cfg, times)
        kin = SpinKinematics.from_field(cfg, 1200, +1)
        classical = closed_form_momentum(kin, None, omega, times)
        gap = np.max(np.abs(traj.p[:, :2] - classical[:, :2]))
        assert gap == pytest.approx(kin.b_perp / levels, rel=1e-10)

    def test_ten_thousand_levels_relative_gap(self):
        # at N = 1e4 the relative transverse gap is 1e-4
        from landau_packets.evolution import EnergyModel, UNIFORM_GAP, expectation_series
        from landau_packets.operators import build_operator_band

        cfg = FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=0.5)
        n_ref, levels = 12000, 10000
        packet = build_spinor_packet(n_ref, levels, cfg, +1)
        em = EnergyModel(mode=UNIFORM_GAP, kind="spinor", cfg=cfg, reference_n=n_ref, zeta_ref=1)
        times = sample_times(em.omega)
        kin = SpinKinematics.from_field(cfg, n_ref, +1)
        circle = closed_form_momentum(kin, None, em.omega, times)
        gap = 0.0
        for j, name in enumerate(("Px", "Py")):
            band = build_operator_band(packet.levels, name, cfg, n_ref, zeta_ref=1)
            series = expectation_series(packet, band, em, times)
            gap = max(gap, float(np.max(np.abs(series - circle[:, j]))))
        assert gap / kin.b_perp == pytest.approx(1e-4, rel=1e-9)


class TestCompareTrajectories:
    def test_identical_is_zero(self):
        kin, g, omega, omega_a, init = reference_setup()
        times = sample_times(omega, samples=16)
        traj = closed_form_trajectory(kin, None, omega, omega_a, times)
        result = compare_trajectories(traj, traj)
        assert result.max_linf == 0.0
        assert all(v == 0.0 for v in result.l2.values())

    def test_grid_mismatch_rejected(self):
        kin, g, omega, omega_a, init = reference_setup()
        a = closed_form_trajectory(kin, None, omega, omega_a, sample_times(omega, samples=16))
        b = closed_form_trajectory(kin, None, omega, omega_a, sample_times(omega, samples=32))
        with pytest.raises(DomainError):
            compare_trajectories(a, b)


class TestTrajectoryContainer:
    def test_times_must_increase(self):
        with pytest.raises(DomainError):
            Trajectory(times=np.array([0.0, 0.0, 1.0]), p=np.zeros((3, 3)))

    def test_csv_requires_spin(self, tmp_path):
        traj = Trajectory(times=np.array([0.0, 1.0]), p=np.zeros((2, 3)))
        with pytest.raises(DomainError):
            traj.to_csv(tmp_path / "t.csv")
