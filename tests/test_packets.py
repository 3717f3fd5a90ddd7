import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from landau_packets.errors import DomainError, SingularConfigurationError
from landau_packets.kinematics import SCALAR, SPINOR, FieldConfig, SpinKinematics, spin_mixing_ratio
from landau_packets.operators import build_operator_band, spin_labels
from landau_packets.packets import (
    PacketSpec,
    build_scalar_packet,
    build_spinor_packet,
    contrast_factor,
    normalization_defect,
    structure_sums,
)

CFG = FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=0.5)


def with_phases(packet, phases):
    """The packet with its amplitudes at level i turned by exp(i*phases[i])."""
    return replace(packet, amplitudes=packet.amplitudes * np.exp(1j * phases)[:, None])


def amplitude_of(packet):
    """Look up the amplitude of the state (zeta, m) element by element."""
    zetas = spin_labels(packet.kind)
    return lambda zeta, m: packet.amplitudes[m - packet.levels[0], zetas.index(zeta)]


class TestScalarPackets:
    def test_three_level_adjacent_sum(self):
        packet = build_scalar_packet(10, 3, CFG)
        assert packet.levels == range(9, 12)
        sums = structure_sums(packet)
        assert sums.adjacent_same_spin.real == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert sums.adjacent_same_spin.imag == 0.0

    def test_single_level(self):
        packet = build_scalar_packet(10, 1, CFG)
        assert structure_sums(packet).adjacent_same_spin == 0j

    def test_five_level(self):
        packet = build_scalar_packet(100, 5, CFG)
        assert structure_sums(packet).adjacent_same_spin.real == pytest.approx(0.8, abs=1e-14)

    def test_even_window_sits_above(self):
        packet = build_scalar_packet(10, 4, CFG)
        assert packet.levels == range(9, 13)

    def test_window_below_ground_rejected(self):
        with pytest.raises(DomainError, match=r"^levels: window -1\.\.3 reaches below the ground level$"):
            build_scalar_packet(1, 5, CFG)

    def test_normalized(self):
        for levels in (1, 2, 3, 7, 64):
            assert normalization_defect(build_scalar_packet(100, levels, CFG)) < 1e-14


class TestSpinorPackets:
    def test_equal_split_at_unit_kappa(self):
        cfg = FieldConfig(h=0.1, anomaly=0.0, b_z=0.0)  # kappa = 1
        packet = build_spinor_packet(10, 3, cfg, +1)
        for amplitude in packet.amplitudes.flat:
            assert abs(amplitude) == pytest.approx(1 / math.sqrt(6), rel=1e-14)

    def test_mixing_ratio_between_components(self):
        packet = build_spinor_packet(50, 5, CFG, +1)
        kappa = spin_mixing_ratio(CFG, 50, +1)
        for minus, plus in packet.amplitudes:
            assert plus == pytest.approx(kappa * minus, rel=1e-14)

    def test_normalized(self):
        for levels in (1, 2, 3, 10, 101):
            packet = build_spinor_packet(200, levels, CFG, -1)
            assert normalization_defect(packet) < 1e-14

    def test_per_level_probability_uniform(self):
        packet = build_spinor_packet(50, 5, CFG, +1)
        for minus, plus in packet.amplitudes:
            prob = abs(plus) ** 2 + abs(minus) ** 2
            assert prob == pytest.approx(0.2, rel=1e-14)

    def test_window_below_first_level_rejected(self):
        message = r"^levels: window 0\.\.4 reaches below the first spin-1/2 level$"
        with pytest.raises(DomainError, match=message):
            build_spinor_packet(2, 5, CFG, +1)
        # reported before the mixing ratio that h = 0 leaves undefined
        with pytest.raises(DomainError, match=message):
            build_spinor_packet(2, 5, FieldConfig(h=0.0, anomaly=0.0, b_z=0.5), +1)

    def test_propagates_singular_configuration(self):
        with pytest.raises(SingularConfigurationError):
            build_spinor_packet(10, 3, FieldConfig(h=0.0, anomaly=0.0, b_z=0.5), +1)


class TestStructureSums:
    @pytest.mark.parametrize("levels", [1, 2, 3, 5, 10, 100, 1000])
    def test_adjacent_same_spin_contrast(self, levels):
        packet = build_spinor_packet(1200, levels, CFG, +1)
        sums = structure_sums(packet)
        assert abs(sums.adjacent_same_spin - contrast_factor(levels)) < 1e-12

    @pytest.mark.parametrize("levels", [1, 3, 10, 100])
    def test_diagonal_sums_level_independent(self, levels):
        packet = build_spinor_packet(1200, levels, CFG, +1)
        sums = structure_sums(packet)
        kappa = spin_mixing_ratio(CFG, 1200, +1)
        assert abs(sums.diagonal_spin_flip - kappa / (kappa**2 + 1)) < 1e-12
        assert abs(sums.population_imbalance - (kappa**2 - 1) / (kappa**2 + 1)) < 1e-12

    def test_adjacent_spin_flip_quadratic_form(self):
        # the constructed sum follows kappa/(kappa^2+1), not kappa/(kappa+1)
        packet = build_spinor_packet(100, 3, CFG, +1)
        sums = structure_sums(packet)
        kappa = spin_mixing_ratio(CFG, 100, +1)
        f = contrast_factor(3)
        assert abs(sums.adjacent_spin_flip - f * kappa / (kappa**2 + 1)) < 1e-14
        linear_variant = f * kappa / (kappa + 1)
        assert abs(sums.adjacent_spin_flip - linear_variant) > 1e-3

    def test_spin_flip_sum_symmetric(self):
        # the two orderings of the adjacent spin-flip sum agree
        packet = build_spinor_packet(100, 4, CFG, -1)
        amp = amplitude_of(packet)
        forward = sum(amp(+1, m).conjugate() * amp(-1, m + 1) for m in packet.levels[:-1])
        backward = sum(amp(-1, m).conjugate() * amp(+1, m + 1) for m in packet.levels[:-1])
        assert forward == pytest.approx(backward, rel=1e-14)

    def test_matches_explicit_loops(self):
        # reference: the sums written out term by term over the window
        rng = np.random.default_rng(5)
        packet = with_phases(build_spinor_packet(100, 7, CFG, -1), rng.uniform(0, 2 * math.pi, size=7))
        amp = amplitude_of(packet)
        adjacent = packet.levels[:-1]
        expected = (
            sum(amp(z, m).conjugate() * amp(z, m + 1) for m in adjacent for z in (-1, 1)),
            sum(amp(+1, m).conjugate() * amp(-1, m + 1) for m in adjacent),
            sum(amp(+1, m).conjugate() * amp(-1, m) for m in packet.levels),
            sum(abs(amp(+1, m)) ** 2 - abs(amp(-1, m)) ** 2 for m in packet.levels),
        )
        sums = structure_sums(packet)
        actual = (
            sums.adjacent_same_spin,
            sums.adjacent_spin_flip,
            sums.diagonal_spin_flip,
            sums.population_imbalance,
        )
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-15)
        scalar = with_phases(build_scalar_packet(10, 4, CFG), rng.uniform(0, 2 * math.pi, size=4))
        scalar_amp = amplitude_of(scalar)
        expected_scalar = sum(
            scalar_amp(0, m).conjugate() * scalar_amp(0, m + 1) for m in scalar.levels[:-1]
        )
        scalar_sums = structure_sums(scalar)
        assert abs(scalar_sums.adjacent_same_spin - expected_scalar) <= 1e-15
        flips = (scalar_sums.adjacent_spin_flip, scalar_sums.diagonal_spin_flip, scalar_sums.population_imbalance)
        assert flips == (0j, 0j, 0j)

    def test_random_phases_degrade_contrast(self):
        rng = np.random.default_rng(11)
        phases = rng.uniform(0, 2 * math.pi, size=9)
        clean = build_spinor_packet(100, 9, CFG, +1)
        noisy = with_phases(clean, phases)
        clean_sums = structure_sums(clean)
        noisy_sums = structure_sums(noisy)
        assert abs(noisy_sums.adjacent_same_spin) < abs(clean_sums.adjacent_same_spin)
        assert noisy_sums.population_imbalance == pytest.approx(
            clean_sums.population_imbalance, rel=1e-12
        )
        assert normalization_defect(noisy) < 1e-14


class TestNormalizationDefect:
    def test_scaled_amplitudes(self):
        packet = build_scalar_packet(10, 3, CFG)
        scaled = PacketSpec(
            field=packet.field,
            levels=packet.levels,
            epsilon=packet.epsilon,
            amplitudes=2.0 * packet.amplitudes,
        )
        assert normalization_defect(scaled) == pytest.approx(3.0, abs=1e-14)

    def test_empty(self):
        empty = PacketSpec(field=CFG, levels=range(10, 11), epsilon=1, amplitudes=np.zeros((1, 1)))
        assert normalization_defect(empty) == 1.0


class TestAmplitudeArray:
    def test_read_only_copy(self):
        source = np.full((3, 2), 1 / math.sqrt(6), dtype=complex)
        packet = PacketSpec(field=CFG, levels=range(9, 12), epsilon=1, amplitudes=source)
        source[0, 0] = 0.0
        assert packet.amplitudes[0, 0] == 1 / math.sqrt(6)
        with pytest.raises(ValueError):
            packet.amplitudes[0, 0] = 0.0

    def test_shape_must_match_levels_and_spins(self):
        with pytest.raises(DomainError, match=r"^amplitudes: expected shape \(3, 1\) or \(3, 2\), got \(2, 2\)$"):
            PacketSpec(field=CFG, levels=range(9, 12), epsilon=1, amplitudes=np.ones((2, 2)))

    @pytest.mark.parametrize("columns", [0, 3])
    def test_spin_columns_must_be_one_or_two(self, columns):
        # one column is a spin-0 packet and two a spin-1/2 packet; no other
        # count names a kind
        with pytest.raises(DomainError, match=rf"^amplitudes: expected shape \(3, 1\) or \(3, 2\), got \(3, {columns}\)$"):
            PacketSpec(field=CFG, levels=range(4, 7), epsilon=1, amplitudes=np.ones((3, columns)))

    def test_kind_from_the_spin_columns(self):
        assert PacketSpec(field=CFG, levels=range(4, 7), epsilon=1, amplitudes=np.ones((3, 1))).kind == SCALAR
        assert PacketSpec(field=CFG, levels=range(4, 7), epsilon=1, amplitudes=np.ones((3, 2))).kind == SPINOR

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_amplitudes_must_be_finite(self, bad):
        packet = build_spinor_packet(100, 3, CFG)
        with pytest.raises(DomainError, match="^amplitudes: must be finite$"):
            replace(packet, amplitudes=np.full((3, 2), bad))
        amplitudes = packet.amplitudes.copy()
        amplitudes[1, 0] = bad
        with pytest.raises(DomainError, match="^amplitudes: must be finite$"):
            replace(packet, amplitudes=amplitudes)


class TestWindow:
    """The constructor's checks of the window and the helicity sign."""

    @pytest.mark.parametrize(
        "levels,shown",
        [
            ((99, 100, 101), "tuple"),
            ([99, 100, 101], "list"),
            ((99, 100, 100), "tuple"),
            (range(99, 104, 2), "range(99, 104, 2)"),
            (range(101, 98, -1), "range(101, 98, -1)"),
            (range(100, 100), "range(100, 100)"),
        ],
        ids=["tuple", "list", "repeated", "gapped", "descending", "empty"],
    )
    def test_window_must_ascend_in_steps_of_one(self, levels, shown):
        # the packet and a band reject a non-window by the one rule, in the same words
        message = f"levels: must be a nonempty range of step 1, got {shown}"
        packet = build_spinor_packet(100, 3, CFG)
        with pytest.raises(DomainError) as from_packet:
            replace(packet, levels=levels)
        with pytest.raises(DomainError) as from_band:
            build_operator_band(levels, "Px", CFG, 100)
        assert str(from_packet.value) == str(from_band.value) == message

    def test_spinor_window_below_first_level_rejected(self):
        packet = build_spinor_packet(100, 3, CFG)
        with pytest.raises(DomainError, match=r"^levels: window -1\.\.1 reaches below the first spin-1/2 level$"):
            replace(packet, levels=range(-1, 2))
        with pytest.raises(DomainError, match="first spin-1/2 level"):
            replace(packet, levels=range(3))

    def test_scalar_window_below_ground_rejected(self):
        packet = build_scalar_packet(10, 3, CFG)
        assert replace(packet, levels=range(3)).levels == range(3)
        with pytest.raises(DomainError, match=r"^levels: window -1\.\.1 reaches below the ground level$"):
            replace(packet, levels=range(-1, 2))

    def test_empty_window_rejected(self):
        with pytest.raises(DomainError, match=r"^levels: must be a nonempty range of step 1, got range\(10, 10\)$"):
            PacketSpec(field=CFG, levels=range(10, 10), epsilon=1, amplitudes=np.zeros((0, 1)))
        with pytest.raises(DomainError, match="^levels: need at least one level, got 0$"):
            build_scalar_packet(10, 0, CFG)

    @pytest.mark.parametrize("epsilon", [0, 2, -2])
    def test_epsilon_must_be_a_sign(self, epsilon):
        packet = build_spinor_packet(100, 3, CFG)
        with pytest.raises(DomainError, match=f"^epsilon: must be \\+1 or -1, got {epsilon}$"):
            replace(packet, epsilon=epsilon)


class TestDerivedReference:
    """The packet's field, window and amplitudes fix its reference state."""

    def test_fields_are_the_field_the_window_the_sign_and_the_amplitudes(self):
        assert [f.name for f in fields(PacketSpec)] == ["field", "levels", "epsilon", "amplitudes"]

    @pytest.mark.parametrize("name", ["n", "kind"])
    def test_derived_values_cannot_be_set(self, name):
        packet = build_spinor_packet(100, 3, CFG)
        with pytest.raises(TypeError):
            replace(packet, **{name: 5})
        with pytest.raises(FrozenInstanceError):
            setattr(packet, name, 5)

    @pytest.mark.parametrize("levels,center", [(1, 100), (2, 100), (3, 100), (4, 100), (5, 100)])
    def test_reference_level_is_the_window_center(self, levels, center):
        # an even window has the extra level above its center
        assert build_spinor_packet(100, levels, CFG).n == center
        assert build_scalar_packet(100, levels, CFG).n == center
        shifted = replace(build_spinor_packet(100, levels, CFG), levels=range(200, 200 + levels))
        assert shifted.n == 200 + (levels - 1) // 2

    def test_reference_follows_the_field(self):
        # a packet moved to another field evolves at that field's rates
        packet = build_spinor_packet(100, 3, CFG, -1)
        moved = replace(packet, field=replace(CFG, b_z=0.6))
        assert packet.reference == SpinKinematics.from_field(CFG, 100, -1)
        assert moved.reference == SpinKinematics.from_field(replace(CFG, b_z=0.6), 100, -1)
        with pytest.raises(FrozenInstanceError):
            packet.reference = moved.reference
