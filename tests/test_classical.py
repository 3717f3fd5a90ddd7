import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from landau_packets.classical import (
    _DOP853_A,
    _DOP853_B,
    _DOP853_C,
    STEPS_PER_PERIOD,
    ClassicalState,
    _frame_steps,
    anomalous_omega,
    bmt_integrate,
    classical_reference,
    cyclotron_omega,
    default_step,
    spin_coupling_omega,
    step_grid,
)
from landau_packets import classical, verify
from landau_packets.errors import DomainError
from landau_packets.evolution import (
    closed_form_momentum,
    closed_form_trajectory,
    evolve_packet,
    sample_times,
)
from landau_packets.kinematics import FieldConfig, SpinKinematics
from landau_packets.packets import build_spinor_packet
from landau_packets.trajectory import Trajectory, compare_trajectories

CFG = FieldConfig(h=0.1, anomaly=0.02, b_z=0.5)
N_REF = 100

REF = classical_reference(CFG, N_REF)


class TestClassicalMomentum:
    # the classical circle is the unit-contrast closed form
    KIN = SpinKinematics(b_perp=2.0, b_z=0.5, energy=math.sqrt(5.25), mixing=1.0, omega=0.1, omega_a=0.0)

    def test_at_zero(self):
        np.testing.assert_allclose(closed_form_momentum(self.KIN, None, 0.0), [0.0, 2.0, 0.5])

    def test_half_period(self):
        omega = 0.25
        p = closed_form_momentum(replace(self.KIN, omega=omega), None, math.pi / omega)
        np.testing.assert_allclose(p, [0.0, -2.0, 0.5], atol=1e-14)

    def test_circular(self):
        t = np.linspace(0, 80, 101)
        p = closed_form_momentum(self.KIN, None, t)
        np.testing.assert_allclose(np.hypot(p[:, 0], p[:, 1]), 2.0, rtol=1e-14)


class TestInitialConditions:
    def test_invariants_at_start(self):
        init = REF.init
        start = Trajectory(
            times=np.zeros(1), p=np.array([init.u[1:]]), s=np.array([init.s]), p0=np.array([init.u[0]])
        )
        assert start.res_sp[0] < 1e-13
        assert start.res_ss[0] < 1e-13

    def test_matches_full_contrast_forms(self):
        kin, init = REF.kin, REF.init
        assert init.g_factor == 2.0 * (1.0 + CFG.anomaly)
        assert init.u[0] == pytest.approx(kin.energy)
        np.testing.assert_allclose(init.u[1:], [0.0, kin.b_perp, kin.b_z], atol=1e-14)
        assert init.s[2] == pytest.approx(kin.zeta_perp * kin.b, rel=1e-14)

    def test_turns_at_the_lab_time_rates(self):
        kin, g = REF.kin, REF.init.g_factor
        assert kin.omega == cyclotron_omega(CFG.h, kin.energy)
        assert kin.omega_a == anomalous_omega(CFG.h, kin.energy, kin.b, 0.5 * g - 1.0)


class TestBmtIntegration:
    def test_helicity_conserved_at_g2(self):
        cfg = FieldConfig(h=0.1, anomaly=0.0, b_z=0.0)
        ref = classical_reference(cfg, N_REF)
        assert ref.init.g_factor == 2.0
        grid = step_grid(10 * 2 * math.pi / ref.kin.omega, ref.step, "t_max")
        traj = bmt_integrate(ref.init, cfg.h, grid, ref.step)
        longitudinal = np.sum(traj.p * traj.s[:, 1:], axis=1) / np.linalg.norm(traj.p, axis=1)
        assert np.max(np.abs(longitudinal - longitudinal[0])) < 1e-8

    def test_free_motion_keeps_spin(self):
        traj = bmt_integrate(REF.init, 0.0, step_grid(50.0, 0.1, "t_max"), 0.1)
        assert np.max(np.abs(traj.s - traj.s[0])) < 1e-14
        assert np.max(np.abs(traj.p - traj.p[0])) < 1e-14

    def test_default_step_resolves_fast_precession(self):
        # at anomaly 5 the spin precesses 32 times faster than the orbit turns
        cfg = FieldConfig(h=0.1, anomaly=5.0, b_z=0.5)
        ref = classical_reference(cfg, N_REF)
        assert ref.kin.omega_a > 30 * ref.kin.omega
        times = sample_times(ref.kin.omega_a, samples=64, t_max=4 * 2 * math.pi / ref.kin.omega_a)
        traj = bmt_integrate(ref.init, cfg.h, times, ref.step)
        assert max(compare_trajectories(traj, closed_form_trajectory(ref.kin, None, times)).values()) < 1e-6

    @pytest.mark.parametrize("anomaly,n", [(1.16141e-3, 100), (1.16141e-3, 10000), (0.02, 1000), (5.0, 100)])
    def test_spin_coupling_is_the_linearized_frequency(self, anomaly, n):
        # with u fixed, dS/dt = [(g/2) K eta + (g/2 - 1) u (eta K eta u)^T] S / gamma
        # has eigenvalues 0, 0 and +-i sqrt(((g/2) omega)^2 + coupling^2)
        cfg = FieldConfig(h=0.1, anomaly=anomaly, b_z=0.5)
        ref = classical_reference(cfg, n)
        u = np.array(ref.init.u)
        half_g = 0.5 * ref.init.g_factor
        eta = np.diag([1.0, -1.0, -1.0, -1.0])
        field = np.zeros((4, 4))
        field[1, 2], field[2, 1] = 2 * cfg.h, -2 * cfg.h
        jacobian = (half_g * field @ eta + (half_g - 1) * np.outer(u, eta @ field @ eta @ u)) / u[0]
        frequency = np.max(np.abs(np.linalg.eigvals(jacobian).imag))
        coupling = spin_coupling_omega(cfg.h, u[0], ref.kin.b_perp, ref.init.g_factor)
        assert frequency == pytest.approx(math.hypot(half_g * ref.kin.omega, coupling), rel=1e-10)

    @pytest.mark.parametrize("n", [100, 10000])
    def test_default_step_resolves_spin_coupling(self, n):
        # at the physical anomaly the coupling overtakes the cyclotron
        # rotation near level 2000; below, the default step is unchanged
        cfg = FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=0.5)
        ref = classical_reference(cfg, n)
        gamma = ref.init.u[0]
        coupling = spin_coupling_omega(cfg.h, gamma, ref.kin.b_perp, ref.init.g_factor)
        t_max = 10 * 2 * math.pi / ref.kin.omega
        traj = bmt_integrate(ref.init, cfg.h, step_grid(t_max, ref.step, "t_max"), ref.step)
        fastest = max(ref.kin.omega, abs(ref.kin.omega_a), coupling)
        assert (coupling < ref.kin.omega) == (n == 100)
        assert traj.times.size - 1 == math.ceil(t_max / (2 * math.pi / (fastest * STEPS_PER_PERIOD)))
        assert ref.step == 2 * math.pi / (fastest * STEPS_PER_PERIOD)
        assert default_step(cfg.h, gamma) == 2 * math.pi / (cyclotron_omega(cfg.h, gamma) * STEPS_PER_PERIOD)
        # the tolerance of verify's invariant-drift check; 5.1e-7 at n = 10^4
        # with the cyclotron step alone
        assert max(float(np.max(traj.res_sp)), float(np.max(traj.res_ss))) <= 1e-8

    def test_step_blocks_leave_the_samples_unchanged(self, monkeypatch):
        # 16 to 96 steps between samples, of a different length in every
        # span; blocks of 7 steps end inside nearly every span
        periods = np.cumsum(np.r_[0.0, np.linspace(0.5, 3.0, 40)])
        times = periods * 2 * math.pi / REF.kin.omega
        expected = bmt_integrate(REF.init, CFG.h, times, REF.step)
        monkeypatch.setattr(classical, "_DOP853_BLOCK", 7)
        blocked = bmt_integrate(REF.init, CFG.h, times, REF.step)
        assert np.array_equal(np.column_stack([blocked.p0, blocked.p, blocked.s]),
                              np.column_stack([expected.p0, expected.p, expected.s]))

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"record_times": [0.0, 1.0], "dt": 0.0}, "dt"),
            ({"record_times": [0.0, 1.0], "dt": -1.0}, "dt"),
            ({"record_times": [0.0, 1.0], "dt": math.nan}, "dt"),
            ({"record_times": [0.0, 1.0], "dt": math.inf}, "dt"),
            ({"t_max": math.nan}, "t_max"),
            ({"t_max": math.inf}, "t_max"),
            ({"t_max": -1.0}, "t_max"),
            ({"record_times": []}, "record_times"),
            ({"record_times": [0.0, math.nan]}, "record_times"),
            ({"record_times": [0.0, math.inf]}, "record_times"),
            # more than MAX_STEPS steps, rejected before the grid or the step
            # indices are allocated, without an overflow warning
            ({"t_max": 1e300, "dt": 1e-300}, "t_max"),
            ({"t_max": 1e12}, "t_max"),
            ({"record_times": [0.0, 1e12]}, "record_times"),
        ],
    )
    def test_bad_step_input_rejected(self, kwargs, field):
        # a span goes through step_grid, a grid straight to bmt_integrate
        dt = kwargs.get("dt", REF.step)
        with warnings.catch_warnings(), pytest.raises(DomainError, match=f"^{field}:"):
            warnings.simplefilter("error")
            if "t_max" in kwargs:
                step_grid(kwargs["t_max"], dt, "t_max")
            else:
                bmt_integrate(REF.init, CFG.h, kwargs["record_times"], dt)

    @pytest.mark.parametrize("anomaly", [0.0, 1.16141e-3, 5.0])
    def test_negative_zero_b_z_keeps_pz(self, anomaly):
        # Pz = u3 has derivative 0, so the default scheme returns b_z itself
        cfg = FieldConfig(h=0.1, anomaly=anomaly, b_z=-0.0)
        ref = classical_reference(cfg, N_REF)
        grid = step_grid(3 * 2 * math.pi / ref.kin.omega, ref.step, "t_max")
        traj = bmt_integrate(ref.init, cfg.h, grid, ref.step)
        assert np.all(traj.p[:, 2] == 0.0) and np.all(np.signbit(traj.p[:, 2]))


class TestDormandPrinceTableau:
    """The transcribed DOP853 tableau and the order-8 scheme that applies it:
    double-double frame steps, one per step length, applied in order."""

    def test_shape(self):
        assert len(_DOP853_C) == len(_DOP853_A) == len(_DOP853_B) == 12
        assert [len(row) for row in _DOP853_A] == list(range(12))

    def test_row_sums_are_nodes(self):
        for row, c in zip(_DOP853_A, _DOP853_C):
            assert abs(math.fsum(row) - c) <= 1e-14

    @pytest.mark.parametrize("row, source, target", [(5, 3, 4), (7, 4, 3)])
    def test_moved_coefficient_fails_the_order_check(self, monkeypatch, row, source, target):
        # moving a coefficient within its row keeps the row sum, which
        # test_row_sums_are_nodes reads; the convergence order drops to
        # about 2 (ratios 3.3 and 3.5)
        coefficients = list(_DOP853_A[row])
        coefficients[target] += coefficients[source]
        coefficients[source] = 0.0
        mutated = _DOP853_A[:row] + (tuple(coefficients),) + _DOP853_A[row + 1:]
        monkeypatch.setattr(classical, "_DOP853_A", mutated)
        result = verify.check_rk4_order(FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=0.5), N_REF, 1)
        assert not result.passed, result.residual

    @pytest.mark.parametrize("power", range(8))
    def test_quadrature_conditions(self, power):
        # sum b c^k = 1/(k+1) for k < 8; k = 0 is sum b = 1
        total = math.fsum(b * c**power for b, c in zip(_DOP853_B, _DOP853_C))
        assert abs(total - 1.0 / (power + 1)) <= 1e-14

    def test_literals_match_scipy(self):
        coefficients = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        assert _DOP853_C == tuple(coefficients.C[:12].tolist())
        for i, row in enumerate(_DOP853_A):
            assert row == tuple(coefficients.A[i, :i].tolist())
        assert _DOP853_B == tuple(coefficients.B.tolist())

    @pytest.mark.parametrize("anomaly", [0.0, 1.16141e-3, 5.0])
    @pytest.mark.parametrize("b_z", [0.5, -0.0])
    def test_kernel_matches_dense_stages(self, anomaly, b_z):
        # the order-8 scheme against every stage formed from the whole
        # tableau and the componentwise right-hand side
        cfg = FieldConfig(h=0.1, anomaly=anomaly, b_z=b_z)
        ref = classical_reference(cfg, N_REF)
        dt = default_step(cfg.h, ref.init.u[0], ref.kin.omega_a)
        times = dt * np.arange(201)
        traj = bmt_integrate(ref.init, cfg.h, times, dt)
        y = ref.init.u + ref.init.s
        reference = [y]
        for _ in range(200):
            y = _reference_dop853(y, 2.0 * cfg.h, ref.init.g_factor, dt)
            reference.append(y)
        ours = np.column_stack([traj.p0, traj.p, traj.s])
        np.testing.assert_allclose(ours, np.asarray(reference), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("anomaly, n", [(1.16141e-3, 100), (0.02, 1)])
    def test_follows_dense_stages_over_long_runs(self, anomaly, n):
        # over 4000 steps of 1/32 period the momentum's length moves by the
        # scheme's amplitude error, 1.9e-15 per step; maps taken at the
        # initial length without the first-order correction in rho^2 stray
        # 1.1e-10 and 1.9e-11 from the componentwise stages, with it 1e-12
        cfg = FieldConfig(h=0.1, anomaly=anomaly, b_z=0.5)
        ref = classical_reference(cfg, n)
        dt = default_step(cfg.h, ref.init.u[0], ref.kin.omega_a)
        times = dt * np.arange(4001)
        traj = bmt_integrate(ref.init, cfg.h, times, dt)
        y = ref.init.u + ref.init.s
        reference = [y]
        for _ in range(4000):
            y = _reference_dop853(y, 2.0 * cfg.h, ref.init.g_factor, dt)
            reference.append(y)
        ours = np.column_stack([traj.p0, traj.p, traj.s])
        np.testing.assert_allclose(ours, np.asarray(reference), rtol=0.0, atol=5e-12)

    def test_momentum_along_the_field(self):
        # no transverse momentum, so no direction to resolve the spin along:
        # the spin turns about z at (g/2) times the cyclotron frequency
        init = ClassicalState(u=(1.25, 0.0, 0.0, 0.75), s=(0.6, 0.0, 1.0, 1.0), g_factor=2.5)
        dt = 0.3
        traj = bmt_integrate(init, 0.1, dt * np.arange(101), dt)
        y = init.u + init.s
        reference = [y]
        for _ in range(100):
            y = _reference_dop853(y, 0.2, init.g_factor, dt)
            reference.append(y)
        ours = np.column_stack([traj.p0, traj.p, traj.s])
        np.testing.assert_allclose(ours, np.asarray(reference), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("length, rho, anomaly", [(0.1792443004305824, 141.4, 5.0), (0.19634954084936207, 6.3, 1.16141e-3)])
    def test_frame_steps_to_twice_working_precision(self, length, rho, anomaly):
        # every map the scheme applies against the same step in exact
        # rational arithmetic on the same doubles, to 1e-29 of the largest
        # entry (about 2^-96; double precision alone gives 2^-53)
        k, inv, g = 0.2, 1.0 / 141.42, 2.0 * (1.0 + anomaly)
        (mh, ml), (sh, sl), (qh, ql) = _frame_steps(np.array([length]), np.array([rho]), k, inv, g)
        ours = [Fraction(hi) + Fraction(lo) for hi, lo in zip(
            np.concatenate([mh.ravel(), sh.ravel(), qh.ravel()]), np.concatenate([ml.ravel(), sl.ravel(), ql.ravel()])
        )]
        exact = _exact_frame_step(length, rho, k, inv, g)
        scale = max(abs(x) for x in exact)
        assert all(abs(got - x) <= 1e-29 * scale for got, x in zip(ours, exact))


def _exact_frame_step(length: float, rho: float, k: float, inv: float, g: float) -> list:
    # one DOP853 step in Fractions from the momentum (rho, 0) and the unit
    # spins (1, 0) and (0, 1): the increments of the momentum over rho, of
    # s1 and s2 of each spin, and dt * sum_i b_i q_i of each spin
    h, rho, k, inv = map(Fraction, (length, rho, k, inv))
    half_g, a = Fraction(0.5 * g), Fraction(0.5 * g - 1.0)
    start = [Fraction(1), Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(1)]
    rates, qs = [], []
    for row in _DOP853_A:
        y = [v + h * sum((Fraction(c) * r[i] for c, r in zip(row, rates)), Fraction(0)) for i, v in enumerate(start)]
        u1, u2 = rho * y[0], rho * y[1]
        spins = [(y[2], y[4]), (y[3], y[5])]
        q = [k * (s1 * u2 - s2 * u1) for s1, s2 in spins]
        ds = [((-half_g * k * s2 + a * qq * u1) * inv, (half_g * k * s1 + a * qq * u2) * inv)
              for (s1, s2), qq in zip(spins, q)]
        rates.append([-k * inv * y[1], k * inv * y[0], ds[0][0], ds[1][0], ds[0][1], ds[1][1]])
        qs.append(q)
    def weighted(terms, i):
        return h * sum((Fraction(b) * t[i] for b, t in zip(_DOP853_B, terms)), Fraction(0))
    return [weighted(rates, i) for i in range(6)] + [weighted(qs, i) for i in range(2)]


def _reference_rhs(y: tuple, k: float, g: float) -> tuple:
    # the componentwise right-hand side the frame maps of the order-8
    # scheme must reproduce
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


def _reference_dop853(y: tuple, k: float, g: float, dt: float) -> tuple:
    stages = []
    for row in _DOP853_A:
        stage = tuple(v + dt * sum(a * d[i] for a, d in zip(row, stages)) for i, v in enumerate(y))
        stages.append(_reference_rhs(stage, k, g))
    return tuple(v + dt * sum(b * d[i] for b, d in zip(_DOP853_B, stages)) for i, v in enumerate(y))


SWEEP_LEVELS = (1, 100, 10**4, 10**5)
SWEEP_ANOMALIES = (0.0, 1.16141e-3, 0.02, 1.0, 5.0)


class TestIntegratorSweep:
    """The three order-8 checks of ``verify`` over the levels and anomalies
    it is validated for, at the CLI's default b_z."""

    @pytest.mark.parametrize("anomaly", SWEEP_ANOMALIES)
    @pytest.mark.parametrize("n", SWEEP_LEVELS)
    def test_closed_form_match(self, n, anomaly):
        result = verify.check_bmt_match(FieldConfig(h=0.1, anomaly=anomaly, b_z=0.5), n, 1)
        assert result.passed, result.residual

    @pytest.mark.parametrize("anomaly", SWEEP_ANOMALIES)
    @pytest.mark.parametrize("n", SWEEP_LEVELS)
    def test_integrator_order(self, n, anomaly):
        # the fine run stays above roundoff, so the ratio measures the scheme
        result = verify.check_rk4_order(FieldConfig(h=0.1, anomaly=anomaly, b_z=0.5), n, 1)
        assert 128.0 <= result.residual <= 512.0 and result.passed
        assert result.details["fine_deviation"] > 1e-10

    @pytest.mark.parametrize(
        "n, anomaly",
        [
            pytest.param(
                n, anomaly,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="reads 5.0e-8: the absolute 1e-8 is applied to four-dots of gamma-sized vectors",
                ),
            )
            if (n, anomaly) == (10**5, 0.0) else (n, anomaly)
            for n in SWEEP_LEVELS
            for anomaly in SWEEP_ANOMALIES
        ],
    )
    def test_invariant_drift(self, n, anomaly):
        result = verify.check_bmt_drift(FieldConfig(h=0.1, anomaly=anomaly, b_z=0.5), n, 1)
        assert result.passed, result.residual

    def test_drift_span_past_the_step_cap_names_n_and_anomaly(self):
        # the step resolves the spin coupling, whose rate grows with n and
        # the anomaly: ten cyclotron periods here take 1.1e7 steps, and the
        # check rejects them before integrating
        with pytest.raises(DomainError, match="^n, anomaly: "):
            verify.check_bmt_drift(FieldConfig(h=0.1, anomaly=5.0, b_z=0.5), 10**8, 1)

    def test_overflowing_anomalous_period_names_the_anomaly(self):
        # the anomalous rate 2e-315 has a period past the largest double
        with pytest.raises(DomainError, match="^anomaly: reaching t = inf"):
            verify.check_bmt_match(FieldConfig(h=1e-300, anomaly=1e-15, b_z=0.5), 100, 1)

    def test_paper_scale_match_keeps_its_roundoff(self):
        # 5.4e-11 is the scheme's own error here (a long-double run of the
        # same steps reads it); a momentum step map off by 1e-15 relative,
        # the same error on each of its steps, reads 1.1e-10
        result = verify.check_bmt_match(FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=0.5), 10**4, 1)
        assert result.residual <= 1e-10


class TestQuantumClassicalGap:
    @pytest.mark.parametrize("levels", [3, 10, 100])
    def test_transverse_gap_is_contrast_defect(self, levels):
        # quantum at contrast f vs classical circle at the same frequency:
        # the gap is exactly (1 - f) * b_perp = b_perp / N
        cfg = FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=0.5)
        packet = build_spinor_packet(1200, levels, cfg, +1)
        kin = SpinKinematics.from_field(cfg, 1200, +1)
        times = sample_times(kin.omega)
        traj = evolve_packet(packet, times)
        classical = closed_form_momentum(kin, None, times)
        gap = np.max(np.abs(traj.p[:, :2] - classical[:, :2]))
        assert gap == pytest.approx(kin.b_perp / levels, rel=1e-10)

    def test_ten_thousand_levels_relative_gap(self):
        # at N = 1e4 the relative transverse gap is 1e-4
        from landau_packets.evolution import expectation_series, relative_energies

        cfg = FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=0.5)
        n_ref, levels = 12000, 10000
        packet = build_spinor_packet(n_ref, levels, cfg, +1)
        kin = SpinKinematics.from_field(cfg, n_ref, +1)
        times = sample_times(kin.omega)
        circle = closed_form_momentum(kin, None, times)
        series = expectation_series(packet, relative_energies(packet), times)[:, :2]
        gap = float(np.max(np.abs(series - circle[:, :2])))
        assert gap / kin.b_perp == pytest.approx(1e-4, rel=1e-9)


class TestCompareTrajectories:
    def test_identical_is_zero(self):
        traj = closed_form_trajectory(REF.kin, None, sample_times(REF.kin.omega, samples=16))
        result = compare_trajectories(traj, traj)
        assert list(result) == ["Px", "Py", "Pz", "S0", "Sx", "Sy", "Sz"]
        assert all(v == 0.0 for v in result.values())

    def test_spin_compared_only_when_both_carry_it(self):
        traj = closed_form_trajectory(REF.kin, None, sample_times(REF.kin.omega, samples=16))
        momentum_only = Trajectory(times=traj.times, p=traj.p + 0.25)
        assert compare_trajectories(traj, momentum_only) == pytest.approx(
            {"Px": 0.25, "Py": 0.25, "Pz": 0.25}, rel=1e-12
        )

    def test_grid_mismatch_rejected(self):
        a = closed_form_trajectory(REF.kin, None, sample_times(REF.kin.omega, samples=16))
        b = closed_form_trajectory(REF.kin, None, sample_times(REF.kin.omega, samples=32))
        with pytest.raises(DomainError):
            compare_trajectories(a, b)


class TestTrajectoryContainer:
    def test_times_must_increase(self):
        with pytest.raises(DomainError):
            Trajectory(times=np.array([0.0, 0.0, 1.0]), p=np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_times_must_be_finite(self, bad):
        # a NaN passes the increase check, since NaN <= 0 is false
        with pytest.raises(DomainError, match="^times: must be finite$"):
            Trajectory(times=np.array([0.0, bad, 2.0]), p=np.zeros((3, 3)))
        with pytest.raises(DomainError, match="^times: must be finite$"):
            Trajectory(times=np.array([0.0, 1.0, bad]), p=np.zeros((3, 3)))

    def test_csv_requires_spin(self, tmp_path):
        traj = Trajectory(times=np.array([0.0, 1.0]), p=np.zeros((2, 3)))
        with pytest.raises(DomainError):
            traj.to_csv(tmp_path / "t.csv")

    def test_csv_rows_match_per_value_formatting(self, tmp_path):
        # one %-format per row prints the bytes format(v, ".17g") prints
        special = [-0.0, 5e-324, 1e308, np.inf, -np.inf, 3.0, -2.0, 1e16, 0.1, 1 / 3]
        times = np.array([-0.0, 5e-324, 1.0, 2.0, 1e308])
        values = np.resize(np.array(special), (5, 8))
        with np.errstate(all="ignore"):
            traj = Trajectory(times=times, p=values[:, :3], s=values[:, 3:7], p0=values[:, 7])
            table = np.column_stack([traj.times, traj.p, traj.s, traj.res_sp, traj.res_ss])
        traj.to_csv(tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_bytes().decode().split("\n")
        expected = [",".join(f"{v:.17g}" for v in row) for row in table.tolist()]
        assert lines[1:] == expected + [""]
        for token in ("-0,", "4.9406564584124654e-324", "1e+308", "-inf", "nan", ",3,"):
            assert token in "\n".join(lines)
