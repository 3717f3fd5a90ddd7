import math
from dataclasses import replace

import numpy as np
import pytest

from landau_packets.errors import DomainError, SingularConfigurationError
from landau_packets.kinematics import SCALAR, SPINOR, FieldConfig, SpinKinematics
from landau_packets.operators import (
    MOMENTUM_OBSERVABLES,
    NO_SPIN,
    OBSERVABLES,
    OFFSETS,
    block_table,
    build_operator_band,
    hermiticity_defect,
    spin_labels,
)

CFG = FieldConfig(h=0.25, anomaly=0.01, b_z=0.7)
B_PERP = 1.0  # spinor value at h = 0.25, n = 1


def element(observable, kind, m_bra, zeta_bra, m_ket, zeta_ket, b_perp, b_z, energy=1.0):
    """One matrix element read off the block table built from the given
    kinematic factors; b = sqrt(1 + b_perp^2) follows from b_perp."""
    kin = SpinKinematics(b_perp=b_perp, b_z=b_z, energy=energy, mixing=None, omega=0.0, omega_a=0.0)
    table = block_table(observable, kind, kin)
    zetas = spin_labels(kind)
    return table[m_bra - m_ket + 1, zetas.index(zeta_bra), zetas.index(zeta_ket)]


def scalar_momentum(m_bra, m_ket, component, b_perp, b_z):
    return element(f"P{component}", SCALAR, m_bra, NO_SPIN, m_ket, NO_SPIN, b_perp, b_z)


def spinor_momentum(m_bra, zeta_bra, m_ket, zeta_ket, component, b_perp, b_z):
    return element(f"P{component}", SPINOR, m_bra, zeta_bra, m_ket, zeta_ket, b_perp, b_z)


def spin(m_bra, zeta_bra, m_ket, zeta_ket, component, b_z, b_perp, energy):
    name = "S0" if component == "0" else f"S{component}"
    return element(name, SPINOR, m_bra, zeta_bra, m_ket, zeta_ket, b_perp, b_z, energy)


class TestScalarMomentumElements:
    def test_diagonal_x_vanishes(self):
        assert scalar_momentum(4, 4, "x", 1.0, 0.0) == 0j

    def test_raising_y(self):
        assert scalar_momentum(5, 4, "y", 1.0, 0.0) == 0.5

    def test_raising_x(self):
        assert scalar_momentum(5, 4, "x", 1.0, 0.0) == 0.5j

    def test_lowering_x(self):
        assert scalar_momentum(3, 4, "x", 2.0, 0.0) == -1j

    def test_z_diagonal(self):
        assert scalar_momentum(4, 4, "z", 1.0, 0.7) == 0.7
        assert scalar_momentum(5, 4, "z", 1.0, 0.7) == 0j


class TestSpinorMomentumElements:
    def test_spin_flip_vanishes(self):
        for component in ("x", "y", "z"):
            assert spinor_momentum(5, -1, 4, +1, component, 2.0, 0.7) == 0j

    def test_z_diagonal(self):
        assert spinor_momentum(4, +1, 4, +1, "z", 2.0, 0.7) == 0.7

    def test_lowering_x(self):
        assert spinor_momentum(3, -1, 4, -1, "x", 2.0, 0.7) == -1j


class TestSpinElements:
    B = 1.5
    B_PERP = math.sqrt(B**2 - 1)  # b = sqrt(1 + b_perp^2) = B
    ENERGY = 2.0

    def test_sz_diagonal(self):
        value = spin(4, +1, 4, +1, "z", 0.7, self.B_PERP, self.ENERGY)
        assert value == pytest.approx(self.ENERGY / self.B)
        value = spin(4, -1, 4, -1, "z", 0.7, self.B_PERP, self.ENERGY)
        assert value == pytest.approx(-self.ENERGY / self.B)

    def test_s0_flip(self):
        value = spin(4, -1, 4, +1, "0", 0.7, self.B_PERP, self.ENERGY)
        assert value == pytest.approx(self.ENERGY * self.B_PERP / self.B)

    def test_sx_diagonal_vanishes(self):
        for zeta_prime in (-1, +1):
            assert spin(4, zeta_prime, 4, +1, "x", 0.7, self.B_PERP, self.ENERGY) == 0j

    def test_sx_branches(self):
        up = spin(5, -1, 4, +1, "x", 0.7, self.B_PERP, self.ENERGY)
        assert up == pytest.approx(0.5j * (self.B - 1))
        down = spin(3, -1, 4, +1, "x", 0.7, self.B_PERP, self.ENERGY)
        assert down == pytest.approx(-0.5j * (self.B + 1))

    def test_sy_branches(self):
        up = spin(5, -1, 4, +1, "y", 0.7, self.B_PERP, self.ENERGY)
        assert up == pytest.approx(0.5 * (self.B - 1))
        down = spin(3, -1, 4, +1, "y", 0.7, self.B_PERP, self.ENERGY)
        assert down == pytest.approx(0.5 * (self.B + 1))

    def test_spin_conserving_transverse_vanishes(self):
        assert spin(5, +1, 4, +1, "x", 0.7, self.B_PERP, self.ENERGY) == 0j
        assert spin(5, -1, 4, -1, "y", 0.7, self.B_PERP, self.ENERGY) == 0j


def window_count(table, level_count):
    """Nonzero elements of a band over ``level_count`` adjacent levels: the
    elements of offset d appear once per level pair (m + d, m) in the
    window."""
    return sum(
        int(np.count_nonzero(table[d + 1])) * max(level_count - abs(d), 0) for d in OFFSETS
    )


class TestOperatorBands:
    def test_single_level_px_empty(self):
        # one level holds only the offset-0 block, which Px leaves empty
        table = build_operator_band(range(7, 8), "Px", CFG, 7)
        assert window_count(table, 1) == 0

    def test_pz_structure_count(self):
        table = build_operator_band(range(6, 9), "Pz", CFG, 7)
        assert window_count(table, 3) == 6  # 2 spins x 3 levels, diagonal
        np.testing.assert_array_equal(table[1], np.diag([0.7, 0.7]))
        assert not np.any(table[[0, 2]])

    @pytest.mark.parametrize(
        "kind,counts",
        [
            pytest.param(SCALAR, {"Px": 12, "Py": 12, "Pz": 7}, id=SCALAR),
            pytest.param(SPINOR, {"Px": 24, "Py": 24, "Pz": 14, "Sx": 24, "Sy": 24, "Sz": 28, "S0": 28}, id=SPINOR),
        ],
    )
    def test_element_count_over_seven_levels(self, kind, counts):
        # over L = 7 levels with S spins and b_z != 0: 2 (L - 1) S for the
        # transverse components, S L for Pz and 2 S L for Sz and S0
        cfg = FieldConfig(h=0.1, b_z=0.4)
        for name, count in counts.items():
            table = build_operator_band(range(8, 15), name, cfg, 11, kind=kind)
            assert window_count(table, 7) == count, name

    @pytest.mark.parametrize("kind", [SCALAR, SPINOR])
    def test_entries_list_the_table_by_state(self, kind):
        zetas = spin_labels(kind)
        for name in OBSERVABLES if kind == SPINOR else MOMENTUM_OBSERVABLES:
            table = build_operator_band(range(7, 10), name, CFG, 8, kind=kind)
            entries = table.entries
            assert len(entries) == window_count(table, 3), name
            for (m_bra, zeta_bra, m_ket, zeta_ket), value in entries.items():
                assert value == table[m_bra - m_ket + 1, zetas.index(zeta_bra), zetas.index(zeta_ket)]

    def test_every_band_is_hermitian_and_banded(self):
        for name in OBSERVABLES:
            table = build_operator_band(range(5, 10), name, CFG, 7)
            assert hermiticity_defect(table) == 0.0
            assert table.shape == (len(OFFSETS), 2, 2)

    def test_momentum_blocks_spin_diagonal(self):
        table = build_operator_band(range(5, 10), "Px", CFG, 7)
        assert np.any(table)
        assert not np.any(table[:, [0, 1], [1, 0]])

    def test_transverse_spin_blocks_spin_flip(self):
        for name in ("Sx", "Sy"):
            table = build_operator_band(range(5, 10), name, CFG, 7)
            assert np.any(table)
            assert not np.any(table[:, [0, 1], [0, 1]])

    def test_scalar_band(self):
        table = build_operator_band(range(6, 9), "Py", CFG, 7, kind=SCALAR)
        assert table.shape == (len(OFFSETS), 1, 1)
        with pytest.raises(DomainError):
            build_operator_band(range(6, 9), "Sx", CFG, 7, kind=SCALAR)

    def test_unknown_observable_rejected(self):
        with pytest.raises(DomainError, match=r"^observable: must be one of \('Px', .*\), got 'Q'$"):
            build_operator_band(range(6, 9), "Q", CFG, 7)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError, match="^kind: must be 'scalar' or 'spinor', got 'vector'$"):
            build_operator_band(range(6, 9), "Px", CFG, 7, kind="vector")

    def test_non_contiguous_rejected(self):
        with pytest.raises(DomainError, match=r"^levels: must be a nonempty range of step 1, got range\(4, 8, 2\)$"):
            build_operator_band(range(4, 8, 2), "Px", CFG, 6)
        with pytest.raises(DomainError, match=r"^levels: must be a nonempty range of step 1, got range\(6, 6\)$"):
            build_operator_band(range(6, 6), "Px", CFG, 6)
        # a sequence is no window, even one of contiguous levels
        with pytest.raises(DomainError, match="^levels: must be a nonempty range of step 1, got list$"):
            build_operator_band([1, 2, 3], "Px", CFG, 2)

    def test_frozen_mode_uses_reference_level(self):
        # the element between (7, +1) and (6, +1), offset +1
        table = build_operator_band(range(6, 8), "Py", CFG, 7)
        expected = 0.5 * 2.0 * math.sqrt(CFG.h * 7)
        assert table[2, 1, 1] == pytest.approx(expected, rel=1e-14)
        table_low_ref = build_operator_band(range(6, 8), "Py", CFG, 6)
        assert table_low_ref[2, 1, 1] == pytest.approx(0.5 * 2.0 * math.sqrt(CFG.h * 6), rel=1e-14)

    def test_one_read_only_table_per_band(self):
        spinor = build_operator_band(range(5, 10), "Sx", CFG, 7)
        scalar = build_operator_band(range(5, 10), "Px", CFG, 7, kind=SCALAR)
        assert spinor.shape == (3, 2, 2) and spinor.levels == range(5, 10)
        assert scalar.shape == (3, 1, 1) and scalar.levels == range(5, 10)
        assert spinor[::-1].levels == range(0) and spinor.entries
        for table in (spinor, scalar):
            with pytest.raises(ValueError):
                table[0, 0, 0] = 1.0

    def test_non_hermitian_table_detected(self):
        table = build_operator_band(range(5, 10), "Px", CFG, 7).copy()
        table[2, 0, 0] += 0.5
        assert hermiticity_defect(table) == 0.5

    def test_band_check_rejects_a_table_of_another_shape(self, monkeypatch):
        # a zero table of offsets -2 ... +2 is Hermitian but no band
        from landau_packets import operators, verify

        monkeypatch.setattr(operators, "build_operator_band", lambda *args, **kwargs: np.zeros((5, 2, 2)))
        result = verify.check_band_hermiticity(CFG, 7, +1)
        assert not result.passed
        assert result.residual == 1.0

    @pytest.mark.parametrize("kind", [SCALAR, SPINOR])
    @pytest.mark.parametrize("zeta_ref", [-1, 1])
    def test_table_is_the_reference_kinematics_table(self, kind, zeta_ref):
        # a band's table is block_table of the one frozen reference, bit for bit
        kin = SpinKinematics.from_field(CFG, 7, zeta_ref, kind)
        for name in MOMENTUM_OBSERVABLES if kind == SCALAR else OBSERVABLES:
            table = build_operator_band(range(6, 9), name, CFG, 7, kind=kind, zeta_ref=zeta_ref)
            assert table.tobytes() == block_table(name, kind, kin).tobytes()

    @pytest.mark.parametrize("cfg,reference_n", [(replace(CFG, h=0.0), 7), (CFG, 0)])
    def test_spinor_band_without_transverse_momentum_rejected(self, cfg, reference_n):
        # b_perp = 0 leaves the spin mixing ratio of the reference undefined
        with pytest.raises(SingularConfigurationError):
            build_operator_band(range(3), "Px", cfg, reference_n)
        build_operator_band(range(3), "Px", cfg, reference_n, kind=SCALAR)


class TestQuadratureOracleAgreement:
    """Frozen closed-form elements against the exact quadrature values."""

    def test_phases_match_and_deviation_shrinks(self):
        from landau_packets.laguerre import momentum_element_quadrature

        cfg = FieldConfig(h=0.05, anomaly=0.0, b_z=0.3)
        deviations = []
        for n in (20, 80):
            for component in ("x", "y"):
                # the element between levels n + 1 and n, offset +1
                closed = build_operator_band(range(n, n + 2), f"P{component}", cfg, n, kind=SCALAR)[2, 0, 0]
                exact = momentum_element_quadrature(n + 1, n, 0, component, cfg)
                # identical phase: the ratio is real and close to one
                ratio = exact / closed
                assert abs(ratio.imag) < 1e-12
                assert ratio.real > 0
                if component == "x":
                    deviations.append(abs(ratio - 1))
        assert deviations[1] < deviations[0]
        assert deviations[0] == pytest.approx(1 / (4 * 20), rel=0.1)

    @pytest.mark.parametrize("s", [0, 7])
    @pytest.mark.parametrize("dn", [1, -1])
    def test_y_magnitude_is_x_magnitude(self, s, dn):
        # the y element is the x element times -i (dn = +1) or +i (dn = -1),
        # so the convergence scan reports one error for both
        from landau_packets.laguerre import momentum_element_quadrature

        cfg = FieldConfig(h=0.05, anomaly=0.0, b_z=0.3)
        x = momentum_element_quadrature(30 + dn, 30, s, "x", cfg)
        y = momentum_element_quadrature(30 + dn, 30, s, "y", cfg)
        assert x != 0 and abs(y) == abs(x)
        assert y == (-1j * dn) * x
