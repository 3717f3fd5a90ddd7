import math

import numpy as np
import pytest

from landau_packets.errors import DomainError, SingularConfigurationError
from landau_packets.kinematics import (
    SCALAR,
    SPINOR,
    FieldConfig,
    SpinKinematics,
    anomalous_frequency,
    cyclotron_frequency,
    energy_scalar,
    energy_spinor,
    helicity_eigenvalue,
    level_energy,
    polarization_constants,
    spin_mixing_ratio,
    transverse_momentum,
)
from landau_packets.laguerre import fit_decay_exponent


class TestTransverseMomentum:
    def test_zero_field(self):
        assert transverse_momentum(0.0, 5, SCALAR) == 0.0

    def test_scalar_ground(self):
        assert transverse_momentum(0.125, 0, SCALAR) == pytest.approx(0.5, abs=1e-15)

    def test_spinor_first(self):
        assert transverse_momentum(0.25, 1, SPINOR) == pytest.approx(1.0, abs=1e-15)

    def test_monotone_in_n_and_h(self):
        values_n = [transverse_momentum(0.1, n, SPINOR) for n in range(0, 20)]
        assert all(b > a for a, b in zip(values_n, values_n[1:]))
        values_h = [transverse_momentum(h, 7, SCALAR) for h in np.linspace(0.01, 1, 10)]
        assert all(b > a for a, b in zip(values_h, values_h[1:]))

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            transverse_momentum(-0.1, 3)
        with pytest.raises(DomainError):
            transverse_momentum(0.1, -1)


class TestEnergies:
    def test_scalar_rest_energy(self):
        cfg = FieldConfig(h=0.0, anomaly=0.0, b_z=0.0)
        assert energy_scalar(cfg, 3) == 1.0

    def test_scalar_free_particle(self):
        cfg = FieldConfig(h=0.0, anomaly=0.0, b_z=math.sqrt(3.0))
        assert energy_scalar(cfg, 0) == pytest.approx(2.0, abs=1e-15)

    def test_scalar_printed_value(self):
        cfg = FieldConfig(h=0.125, anomaly=0.0, b_z=0.0)
        assert energy_scalar(cfg, 1) == pytest.approx(math.sqrt(1.75), abs=1e-15)

    def test_spinor_rest_energy(self):
        cfg = FieldConfig(h=0.0, anomaly=0.0, b_z=0.0)
        assert energy_spinor(cfg, 4, +1) == 1.0
        assert energy_spinor(cfg, 4, -1) == 1.0

    def test_zeta_degenerate_without_anomaly(self):
        cfg = FieldConfig(h=0.25, anomaly=0.0, b_z=0.0)
        up = energy_spinor(cfg, 1, +1)
        down = energy_spinor(cfg, 1, -1)
        assert up == down == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_anomaly_shift(self):
        cfg = FieldConfig(h=0.25, anomaly=0.2, b_z=0.0)
        assert energy_spinor(cfg, 1, +1) == pytest.approx(math.sqrt(2.0) + 0.05, abs=1e-15)

    def test_ordering_and_floor(self):
        cfg = FieldConfig(h=0.1, anomaly=0.01, b_z=1.5)
        assert energy_spinor(cfg, 5, +1) >= energy_spinor(cfg, 5, -1)
        assert energy_spinor(cfg, 5, -1) >= abs(cfg.b_z)

    def test_scalar_strictly_increasing_in_n(self):
        cfg = FieldConfig(h=0.05, anomaly=0.0, b_z=0.3)
        energies = [energy_scalar(cfg, n) for n in range(10)]
        assert all(b > a for a, b in zip(energies, energies[1:]))


class TestLevelEnergy:
    """The one kind branch of the level energies."""

    CFG = FieldConfig(h=0.1, anomaly=0.02, b_z=0.5)

    @pytest.mark.parametrize("n", [0, 1, 7, 10**4])
    def test_the_bits_of_the_kind_energy(self, n):
        assert level_energy(self.CFG, n, 1, SCALAR) == energy_scalar(self.CFG, n)
        assert level_energy(self.CFG, n, -1, SCALAR) == energy_scalar(self.CFG, n)
        for zeta in (-1, 1):
            assert level_energy(self.CFG, n, zeta, SPINOR) == energy_spinor(self.CFG, n, zeta)

    def test_rates_read_the_kind_energy(self):
        # the gap and the reference energy are differences and values of level_energy
        for kind in (SCALAR, SPINOR):
            exact, _ = cyclotron_frequency(self.CFG, 7, -1, kind)
            assert exact == level_energy(self.CFG, 8, -1, kind) - level_energy(self.CFG, 7, -1, kind)
            assert SpinKinematics.from_field(self.CFG, 7, -1, kind).energy == level_energy(self.CFG, 7, -1, kind)

    def test_unknown_kind_rejected(self):
        message = "^kind: must be 'scalar' or 'spinor', got 'vector'$"
        with pytest.raises(DomainError, match=message):
            level_energy(self.CFG, 7, 1, "vector")
        with pytest.raises(DomainError, match=message):
            cyclotron_frequency(self.CFG, 7, 1, "vector")
        with pytest.raises(DomainError, match=message):
            SpinKinematics.from_field(self.CFG, 7, 1, "vector")


class TestHelicityEigenvalue:
    def test_zero(self):
        assert helicity_eigenvalue(0.0, 0.0, +1) == 0.0

    def test_pythagorean(self):
        assert helicity_eigenvalue(3.0, 4.0, -1) == -5.0

    def test_transverse_only(self):
        assert helicity_eigenvalue(1.7, 0.0, +1) == pytest.approx(1.7, abs=1e-15)


class TestSpinMixingRatio:
    def test_symmetric_transverse_case(self):
        # b_z = 0, no anomaly: B = b, so kappa = epsilon
        cfg = FieldConfig(h=0.3, anomaly=0.0, b_z=0.0)
        assert spin_mixing_ratio(cfg, 4, +1) == pytest.approx(1.0, abs=1e-14)
        assert spin_mixing_ratio(cfg, 4, -1) == pytest.approx(-1.0, abs=1e-14)

    def test_two_by_two_eigenproblem_oracle(self):
        # the mixing ratio is the eigenvector ratio of the 2x2 block of the
        # time component of the spin operator at one level (no anomaly)
        cfg = FieldConfig(h=0.25, anomaly=0.0, b_z=1.0)
        n, epsilon = 1, +1
        b_perp = transverse_momentum(cfg.h, n, SPINOR)
        b = math.sqrt(1.0 + b_perp**2)
        big_b = energy_spinor(cfg, n, +1)
        matrix = np.array(
            [[cfg.b_z / b, big_b * b_perp / b], [big_b * b_perp / b, -cfg.b_z / b]]
        )
        eigvals, eigvecs = np.linalg.eigh(matrix)
        branch = int(np.argmax(eigvals)) if epsilon == 1 else int(np.argmin(eigvals))
        ratio = eigvecs[0, branch] / eigvecs[1, branch]
        kappa = spin_mixing_ratio(cfg, n, epsilon)
        assert kappa == pytest.approx(ratio, rel=1e-12)
        # frozen value computed from the oracle: kappa = sqrt(3)
        assert kappa == pytest.approx(1.7320508075688772, rel=1e-12)
        # the eigenvalue is the helicity eigenvalue
        assert eigvals[branch] == pytest.approx(
            helicity_eigenvalue(b_perp, cfg.b_z, epsilon), rel=1e-12
        )

    def test_singular_configuration(self):
        with pytest.raises(SingularConfigurationError):
            spin_mixing_ratio(FieldConfig(h=0.0, anomaly=0.0, b_z=0.5), 3, +1)
        with pytest.raises(SingularConfigurationError):
            spin_mixing_ratio(FieldConfig(h=0.3, anomaly=0.0, b_z=0.5), 0, +1)


class TestPolarizationConstants:
    @pytest.mark.parametrize(
        "kappa,expected",
        [(1.0, (1.0, 0.0)), (0.0, (0.0, -1.0)), (3.0, (0.6, 0.8))],
    )
    def test_exact_values(self, kappa, expected):
        zp, zz = polarization_constants(kappa)
        assert zp == pytest.approx(expected[0], abs=1e-15)
        assert zz == pytest.approx(expected[1], abs=1e-15)

    def test_unit_circle(self):
        rng = np.random.default_rng(7)
        for kappa in rng.uniform(-50, 50, size=200):
            zp, zz = polarization_constants(float(kappa))
            assert abs(zp**2 + zz**2 - 1.0) < 1e-15

    def test_zeta_z_matches_population_imbalance_sign(self):
        for kappa in (-2.5, -0.3, 0.4, 5.0):
            _, zz = polarization_constants(kappa)
            assert zz == pytest.approx((kappa**2 - 1) / (kappa**2 + 1), abs=1e-15)


class TestCyclotronFrequency:
    def test_zero_field(self):
        cfg = FieldConfig(h=0.0, anomaly=0.0, b_z=0.2)
        assert cyclotron_frequency(cfg, 3, kind=SCALAR) == (0.0, 0.0)

    def test_scalar_closed_forms(self):
        cfg = FieldConfig(h=0.125, anomaly=0.0, b_z=0.0)
        n = 6
        exact, asym = cyclotron_frequency(cfg, n, kind=SCALAR)
        expected_exact = math.sqrt(1 + 4 * cfg.h * (n + 1.5)) - math.sqrt(1 + 4 * cfg.h * (n + 0.5))
        expected_asym = 2 * cfg.h / math.sqrt(1 + 4 * cfg.h * (n + 0.5))
        assert exact == pytest.approx(expected_exact, rel=1e-15)
        assert asym == pytest.approx(expected_asym, rel=1e-15)

    def test_gap_shrinks_tenfold_per_decade(self):
        cfg = FieldConfig(h=0.1, anomaly=0.0, b_z=0.3)

        def rel_gap(n):
            exact, asym = cyclotron_frequency(cfg, n, kind=SPINOR)
            return abs(exact - asym) / asym

        ratio = rel_gap(100) / rel_gap(1000)
        assert 8.5 < ratio < 11.5

    def test_gap_decay_exponent(self):
        cfg = FieldConfig(h=0.1, anomaly=0.0, b_z=0.3)
        ns = [100, 1000, 10000]
        gaps = []
        for n in ns:
            exact, asym = cyclotron_frequency(cfg, n, kind=SPINOR)
            gaps.append(abs(exact - asym) / asym)
        assert fit_decay_exponent(ns, gaps) == pytest.approx(-1.0, abs=0.1)

    def test_spinor_needs_first_level(self):
        cfg = FieldConfig(h=0.1, anomaly=0.0, b_z=0.0)
        with pytest.raises(DomainError):
            cyclotron_frequency(cfg, 0, kind=SPINOR)


class TestAnomalousFrequency:
    def test_no_anomaly(self):
        cfg = FieldConfig(h=0.2, anomaly=0.0, b_z=0.4)
        assert anomalous_frequency(cfg, 5) == (0.0, 0.0)

    def test_transverse_reduction(self):
        cfg = FieldConfig(h=0.2, anomaly=0.01, b_z=0.0)
        _, closed = anomalous_frequency(cfg, 5)
        assert closed == pytest.approx(2 * cfg.anomaly * cfg.h, rel=1e-15)

    def test_high_level_agreement(self):
        cfg = FieldConfig(h=1e-3, anomaly=0.00116, b_z=0.5)
        exact, closed = anomalous_frequency(cfg, 10**6)
        assert abs(exact - closed) / closed < 1e-4

    def test_defect_vanishes_quadratically(self):
        # halving the anomaly quarters the relative closed-form defect
        def rel_defect(anomaly):
            cfg = FieldConfig(h=0.01, anomaly=anomaly, b_z=1.0)
            exact, closed = anomalous_frequency(cfg, 100)
            return abs(exact - closed) / closed

        ratio = rel_defect(0.2) / rel_defect(0.1)
        assert ratio == pytest.approx(4.0, rel=0.05)


class TestSpinKinematics:
    def test_invariants_hold(self):
        cfg = FieldConfig(h=0.07, anomaly=0.002, b_z=0.9)
        kin = SpinKinematics.from_field(cfg, 40, -1)
        assert kin.b == pytest.approx(math.sqrt(1 + kin.b_perp**2), rel=1e-15)
        assert kin.zeta_perp**2 + kin.zeta_z**2 == pytest.approx(1.0, abs=1e-14)
        assert kin.zeta_perp == pytest.approx(2 * kin.kappa / (kin.kappa**2 + 1), rel=1e-14)

    def test_anomaly_free_energy(self):
        cfg = FieldConfig(h=0.07, anomaly=0.1, b_z=0.9)
        kin = SpinKinematics.from_field(cfg.without_anomaly(), 40, +1)
        assert kin.energy == pytest.approx(math.hypot(kin.b, kin.b_z), rel=1e-15)

    def test_rates_are_the_level_gaps(self):
        cfg = FieldConfig(h=0.07, anomaly=0.002, b_z=0.9)
        for epsilon in (-1, 1):
            kin = SpinKinematics.from_field(cfg, 40, epsilon)
            assert kin.omega == cyclotron_frequency(cfg, 40, epsilon)[0]
            assert kin.omega == energy_spinor(cfg, 41, epsilon) - energy_spinor(cfg, 40, epsilon)
            assert kin.omega_a == anomalous_frequency(cfg, 40)[0]
            assert kin.omega_a == energy_spinor(cfg, 40, 1) - energy_spinor(cfg, 40, -1)

    @pytest.mark.parametrize("epsilon", [-1, 1])
    def test_scalar_reference(self, epsilon):
        # a spin-0 reference: half-quantum b_perp, its own energy and gap,
        # no anomalous rotation
        cfg = FieldConfig(h=0.07, anomaly=0.002, b_z=0.9)
        kin = SpinKinematics.from_field(cfg, 40, epsilon, kind=SCALAR)
        assert kin.b_perp == transverse_momentum(cfg.h, 40, SCALAR)
        assert kin.b_z == cfg.b_z
        assert kin.energy == energy_scalar(cfg, 40)
        assert kin.omega == energy_scalar(cfg, 41) - energy_scalar(cfg, 40)
        assert kin.omega_a == 0.0

    @pytest.mark.parametrize("name", ["kappa", "zeta_perp", "zeta_z"])
    def test_scalar_reference_has_no_polarization(self, name):
        kin = SpinKinematics.from_field(FieldConfig(h=0.07), 40, kind=SCALAR)
        with pytest.raises(DomainError, match="^kappa: a spin-0 reference"):
            getattr(kin, name)


class TestFieldConfig:
    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            FieldConfig(h=-0.1)
        with pytest.raises(DomainError):
            FieldConfig(h=0.1, anomaly=-1e-3)

    @pytest.mark.parametrize("field", ["h", "anomaly", "b_z"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        values = {"h": 0.1, "anomaly": 1e-3, "b_z": 0.5, field: value}
        with pytest.raises(DomainError, match=f"^{field}: must be finite"):
            FieldConfig(**values)

    def test_rejects_b_z_whose_square_overflows(self):
        with pytest.raises(DomainError, match="^b_z:"):
            FieldConfig(h=0.1, b_z=-1e200)
