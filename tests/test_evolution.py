import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from landau_packets import evolution
from landau_packets.classical import classical_reference
from landau_packets.errors import DomainError
from landau_packets.evolution import (
    EXACT,
    UNIFORM_GAP,
    closed_form_momentum,
    closed_form_spin,
    closed_form_trajectory,
    evolve_packet,
    expectation_series,
    lower_index,
    polarization_series,
    relative_energies,
    sample_times,
)
from landau_packets.kinematics import (
    SCALAR,
    SPINOR,
    FieldConfig,
    SpinKinematics,
    anomalous_frequency,
    cyclotron_frequency,
    energy_scalar,
    energy_spinor,
    transverse_momentum,
)
from landau_packets.operators import OBSERVABLES, build_operator_band, spin_labels
from landau_packets.packets import build_scalar_packet, build_spinor_packet, contrast_factor
from landau_packets.trajectory import Trajectory

CFG = FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=0.5)
N_REF = 100

# parameter sets spanning the longitudinal momentum, field strength and
# helicity ranges the engine is expected to cover (the same sets as
# acceptance criterion 2, which checks them all at once)
PARAM_SETS = [
    (FieldConfig(h=1e-3, anomaly=1.16141e-3, b_z=0.0), 1000, +1),
    (FieldConfig(h=1e-3, anomaly=1.16141e-3, b_z=0.5), 1000, -1),
    (FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=0.5), 100, +1),
    (FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=2.0), 100, -1),
    (FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=2.0), 50, +1),
]


def with_phases(packet, phases):
    """The packet with its amplitudes at level i turned by exp(i*phases[i])."""
    return replace(packet, amplitudes=packet.amplitudes * np.exp(1j * phases)[:, None])


def engine_setup(cfg, n, levels, epsilon, mode=UNIFORM_GAP):
    packet = build_spinor_packet(n, levels, cfg, epsilon)
    energies = relative_energies(packet, mode)
    times = sample_times(cyclotron_frequency(cfg, n, epsilon)[0])
    return packet, energies, times


class TestEnergyModel:
    def test_uniform_gap_phases_are_pure_multiples(self):
        omega = cyclotron_frequency(CFG, N_REF, 1)[0]
        omega_a = anomalous_frequency(CFG, N_REF)[0]
        packet = build_spinor_packet(N_REF, 3, CFG, +1)  # levels 99, 100, 101
        energies = relative_energies(packet, UNIFORM_GAP)  # spins ordered (-1, +1)
        assert energies[1, 1] == 0.0
        assert energies[2, 1] == omega
        assert energies[0, 1] == -omega
        assert energies[1, 0] == -omega_a
        assert energies[2, 0] == omega - omega_a

    def test_exact_mode_gaps_vary(self):
        packet = build_spinor_packet(N_REF, 4, CFG, +1)  # levels 99 to 102
        energies = relative_energies(packet, EXACT)
        assert energies[1, 1] == 0.0
        gap_low = energies[1, 1] - energies[0, 1]
        gap_high = energies[3, 1] - energies[2, 1]
        assert gap_low != gap_high

    def test_uniform_gap_exactly_periodic(self):
        # without the spin splitting the engine output repeats after one
        # cyclotron period, to rounding
        cfg = FieldConfig(h=0.1, anomaly=0.0, b_z=0.5)
        packet, energies, _ = engine_setup(cfg, N_REF, 5, +1)
        period = 2 * math.pi / cyclotron_frequency(cfg, N_REF, 1)[0]
        probes = np.array([0.0, 0.3 * period, 0.8 * period])
        first = expectation_series(packet, energies, probes)
        second = expectation_series(packet, energies, probes + period)
        for name in ("Px", "Py", "Sx", "Sz"):
            column = OBSERVABLES.index(name)
            np.testing.assert_allclose(second[:, column], first[:, column], atol=1e-12)

    def test_rejects_unknown_mode(self):
        with pytest.raises(DomainError):
            relative_energies(build_spinor_packet(N_REF, 3, CFG, +1), "frozen")


class TestGenericExpectation:
    def test_pz_at_zero(self, monkeypatch):
        packet, energies, _ = engine_setup(CFG, N_REF, 3, +1)
        # the imaginary residue must stay below 1e-15, not just the default gate
        monkeypatch.setattr(evolution, "HERMITIAN_IMAG_TOL", 1e-15)
        value = expectation_series(packet, energies, [0.0])[0, OBSERVABLES.index("Pz")]
        assert value == pytest.approx(CFG.b_z, rel=1e-14)

    def test_px_at_zero(self):
        packet, energies, _ = engine_setup(CFG, N_REF, 3, +1)
        assert abs(expectation_series(packet, energies, [0.0])[0, OBSERVABLES.index("Px")]) < 1e-14

    def test_scalar_py_half_period(self):
        packet = build_scalar_packet(10, 3, CFG)
        energies = relative_energies(packet)
        half_period = math.pi / cyclotron_frequency(CFG, 10, kind=SCALAR)[0]
        value = expectation_series(packet, energies, [half_period])[0, OBSERVABLES.index("Py")]
        expected = -(2.0 / 3.0) * transverse_momentum(CFG.h, 10, SCALAR)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_mismatched_energies_rejected(self):
        # energies of another packet's window do not fit this packet's states
        packet, _, _ = engine_setup(CFG, N_REF, 3, +1)
        _, other, _ = engine_setup(CFG, N_REF, 5, +1)
        with pytest.raises(DomainError, match="energies"):
            expectation_series(packet, other, [0.0])
        scalar = build_scalar_packet(N_REF, 3, CFG)
        with pytest.raises(DomainError, match="energies"):
            expectation_series(packet, relative_energies(scalar), [0.0])

    def test_evolve_packet_computes_energies_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return relative_energies(*args)

        monkeypatch.setattr(evolution, "relative_energies", counted)
        packet, _, times = engine_setup(CFG, N_REF, 3, +1)
        evolve_packet(packet, times, mode=EXACT)
        assert len(calls) == 1

    @pytest.mark.parametrize("build", [build_scalar_packet, build_spinor_packet])
    def test_bands_record_the_packet_window(self, monkeypatch, build):
        # every band the engine builds is over the packet's own range
        bands = []

        def recorded(*args, **kwargs):
            bands.append(build_operator_band(*args, **kwargs))
            return bands[-1]

        monkeypatch.setattr(evolution, "build_operator_band", recorded)
        packet = build(N_REF, 5, CFG)
        evolve_packet(packet, sample_times(packet.reference.omega, 16))
        assert len(bands) == (3 if packet.kind == SCALAR else 7)
        assert isinstance(packet.levels, range)
        assert all(band.levels is packet.levels for band in bands)

    def test_hermitian_residue_gate(self, monkeypatch):
        from landau_packets.errors import AccuracyError

        def broken(levels, observable, *args, **kwargs):
            table = build_operator_band(levels, observable, *args, **kwargs)
            if observable != "Px":
                return table
            table = table.copy()
            table[2, 0, 0] += 0.5  # breaks Hermiticity
            return table

        monkeypatch.setattr(evolution, "build_operator_band", broken)
        packet, energies, times = engine_setup(CFG, N_REF, 3, +1)
        with pytest.raises(AccuracyError):
            expectation_series(packet, energies, times)

    def test_hermitian_residue_gate_fails_a_nan_residue(self):
        # NaN > tol is false, so the gate is written as not residue <= tol;
        # the amplitudes are set past the packet's own finiteness check
        from landau_packets.errors import AccuracyError

        packet, energies, times = engine_setup(CFG, N_REF, 3, +1)
        object.__setattr__(packet, "amplitudes", np.full(packet.amplitudes.shape, complex(np.nan)))
        with pytest.raises(AccuracyError, match="imaginary residue nan"):
            expectation_series(packet, energies, times)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_rejected(self, bad):
        packet, energies, times = engine_setup(CFG, N_REF, 3, +1)
        times = times.copy()
        times[5] = bad
        with pytest.raises(DomainError, match="^times: must be finite$"):
            expectation_series(packet, energies, times)

    def test_one_state_evaluation_per_time_block(self, monkeypatch):
        # every observable is contracted with the same pair sums: one
        # factored pass per block of TIME_BLOCK anchors and step table, not
        # one per observable, whatever the run of levels and the stride; the
        # last block is padded to TIME_BLOCK anchors, and an anchor off the
        # step table takes one more pass of its own
        calls = []

        def counted(anchors, steps, owned):
            calls.append((anchors.shape, steps.shape, owned))
            return factored(anchors, steps, owned)

        factored = evolution._factored_pair_sums
        monkeypatch.setattr(evolution, "_factored_pair_sums", counted)
        packet, _, _ = engine_setup(CFG, N_REF, 5, +1)
        omega = cyclotron_frequency(CFG, N_REF, 1)[0]
        block = evolution.TIME_BLOCK

        # 1024 samples at stride 32: 32 anchors over 5 levels are two
        # blocks against a 32-row step table
        evolve_packet(packet, sample_times(omega, samples=1024))
        assert calls == [((2, block, 5), (2, 32, 5), 5)] * 2

        # 1100 samples at stride 32: 35 anchors, the third block padded
        calls.clear()
        evolve_packet(packet, sample_times(omega, samples=1100))
        assert calls == [((2, block, 5), (2, 32, 5), 5)] * 3

        stride = evolution.MIN_ANCHOR_STRIDE
        calls.clear()
        times = sample_times(omega, samples=40)
        times[20] += 0.25 * times[1]  # the second of three anchors leaves the table
        evolve_packet(packet, times)
        assert calls == [((2, block, 5), (2, stride, 5), 5), ((2, 1, 5), (2, stride, 5), 5)]

        # chunks of two levels own levels (0, 1), (2, 3) and (4,), and read
        # one level more where there is one: the same passes once per chunk
        calls.clear()
        monkeypatch.setattr(evolution, "LEVEL_CHUNK", 2)
        evolve_packet(packet, times)
        runs = [(3, 2), (3, 2), (1, 1)]
        assert calls == [
            call
            for width, owned in runs
            for call in (
                ((2, block, width), (2, stride, width), owned),
                ((2, 1, width), (2, stride, width), owned),
            )
        ]

    def test_anchor_stride_from_the_grid_length(self):
        # the largest power of two <= sqrt(T), never below 16
        samples = [0, 1, 2, 40, 256, 1023, 1024, 4095, 8192, 65536]
        strides = [16, 16, 16, 16, 16, 16, 32, 32, 64, 256]
        assert [evolution.anchor_stride(size) for size in samples] == strides

    def test_horizon_takes_its_exponentials_at_the_anchors_and_steps(self, monkeypatch):
        # the 100-level, 8192-sample horizon evaluates T/s + s = 128 + 64
        # phases per state
        rows = []

        def counted(energies, times, out=None):
            rows.append(np.size(times))
            return phases(energies, times, out)

        phases = evolution._phases
        monkeypatch.setattr(evolution, "_phases", counted)
        packet = build_spinor_packet(100, 100, CFG, +1)
        energies = relative_energies(packet, EXACT)
        period = 2 * math.pi / classical_reference(CFG, 100, +1).kin.omega_a
        times = sample_times(cyclotron_frequency(CFG, 100, 1)[0], samples=8192, t_max=period)
        expectation_series(packet, energies, times)
        assert sum(rows) <= 8192 // 64 + 64

    def test_anchor_sums_do_not_depend_on_their_block(self):
        # an anchor's pair sums are the same bits alone (off the table) as in
        # a block, under one BLAS thread and two: a one-row product would
        # take BLAS's matrix-vector kernel, and with two threads a block of
        # 16 anchors times a table of 32 or more steps in one product gives
        # other last bits than the anchor alone at 150 and 300 levels.  A run
        # of n levels of which n - 1 are owned is a chunk that reads one
        # level more
        src = str(Path(evolution.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        probe = """
import numpy as np
from landau_packets import evolution
rng = np.random.default_rng(5)
for levels, table in ((1000, 16), (150, 64), (300, 64)):
    energies = rng.uniform(-50.0, 50.0, (2, levels))
    anchors = evolution._phases(energies, rng.uniform(0.0, 1.0, evolution.TIME_BLOCK))
    steps = evolution._phases(energies, rng.uniform(0.0, 0.1, table))
    for owned in (levels, levels - 1):
        block = evolution._factored_pair_sums(anchors, steps, owned)
        for row in (0, 7, evolution.TIME_BLOCK - 1):
            alone = evolution._factored_pair_sums(anchors[:, row : row + 1], steps, owned)[0]
            np.testing.assert_array_equal(alone, block[row])
print("ok")
"""
        for threads in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", probe],
                env={**env, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stdout + result.stderr
            assert result.stdout.split() == ["ok"]

    def test_phases_are_the_complex_exponentials(self):
        # cos and sin of the real angle are np.exp of -i*dE*t bit for bit,
        # signed zeros included, at dE = 0 and t = 0 too
        rng = np.random.default_rng(11)
        energies = rng.uniform(-5e3, 5e3, (2, 300))
        energies[0, :3] = 0.0, -0.0, 1e-300
        times = np.r_[0.0, -0.0, 1e-300, rng.uniform(-1e3, 1e3, 13)]
        expected = np.exp(-1j * energies[:, None, :] * times[:, None])
        phases = evolution._phases(energies, times)
        np.testing.assert_array_equal(phases.view(np.uint64), expected.view(np.uint64))

    def test_time_blocks_do_not_change_values(self, monkeypatch):
        # blocks of 7 anchors move the values by roundoff only
        packet, energies, _ = engine_setup(CFG, N_REF, 5, +1)
        times = sample_times(cyclotron_frequency(CFG, N_REF, 1)[0], samples=1024)
        jittered = times + 0.25 * times[1] * np.sin(np.arange(times.size))
        whole = [expectation_series(packet, energies, grid) for grid in (times, jittered)]
        monkeypatch.setattr(evolution, "TIME_BLOCK", 7)
        for grid, values in zip((times, jittered), whole):
            np.testing.assert_allclose(expectation_series(packet, energies, grid), values, rtol=0, atol=1e-15)

    def test_level_chunks_do_not_change_values(self, monkeypatch):
        # 50 levels in chunks of 7 against one chunk, in both energy models,
        # on a uniform and a jittered grid, for spin-1/2 and spin-0 packets;
        # 8.9e-15 measured, on values up to 6.3
        _, _, times = engine_setup(CFG, N_REF, 50, +1)
        jittered = times + 0.25 * times[1] * np.sin(np.arange(times.size))
        cases = [
            (packet, relative_energies(packet, mode), grid)
            for packet in (build_spinor_packet(N_REF, 50, CFG, +1), build_scalar_packet(N_REF, 50, CFG))
            for mode in (UNIFORM_GAP, EXACT)
            for grid in (times, jittered)
        ]
        whole = [expectation_series(packet, energies, grid) for packet, energies, grid in cases]
        monkeypatch.setattr(evolution, "LEVEL_CHUNK", 7)
        for (packet, energies, grid), values in zip(cases, whole):
            np.testing.assert_allclose(
                expectation_series(packet, energies, grid), values, rtol=0, atol=2e-14
            )

    def test_memory_does_not_grow_with_the_levels(self):
        # the phase sum holds one chunk of levels at a time: 3.0 MiB traced
        # at 32768 levels, where arrays over every level took 49.1 MiB
        packet, energies, times = engine_setup(CFG, 10**5, 32768, +1)
        tracemalloc.start()
        try:
            expectation_series(packet, energies, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


#: 2*pi to the precision of long double (64-bit mantissa on x86)
TWO_PI = np.longdouble("6.283185307179586476925286766559005768")
EXTENDED = np.finfo(np.longdouble).nmant >= 63


def reference_series(packet, cfg, energies, times, block=16):
    """Expectation values of every observable with the phases dE*t formed
    in long double and reduced mod 2*pi before the exponential, and the pair
    sums accumulated in long double, independently of the engine and of
    ``pair_sums``."""
    bands = [build_operator_band(packet.levels, name, cfg, packet.n, zeta_ref=packet.epsilon) for name in OBSERVABLES]
    coefficients = np.stack([band.reshape(-1) for band in bands], axis=1)
    energies = np.asarray(energies, dtype=np.longdouble)
    out = np.empty((len(times), len(bands)))
    for start in range(0, len(times), block):
        t = np.asarray(times[start : start + block], dtype=np.longdouble)[:, None, None]
        phases = np.fmod(energies * t, TWO_PI).astype(float)
        psi = (packet.amplitudes * np.exp(-1j * phases)).astype(np.clongdouble)
        same = np.einsum("tmb,tmk->tbk", psi.conj(), psi)
        up = np.einsum("tmb,tmk->tbk", psi[:, 1:].conj(), psi[:, :-1])
        sums = np.stack([up.conj().transpose(0, 2, 1), same, up], axis=1)
        out[start : start + block] = (sums.reshape(t.shape[0], -1).astype(complex) @ coefficients).real
    return out


@pytest.mark.skipif(not EXTENDED, reason="the reference needs an extended-precision long double")
class TestPhaseAccuracy:
    """The engine's psi(t) against phases reduced in long double."""

    def test_ten_thousand_levels_uniform_gap(self):
        # 1.9e-13 measured; exponentials of every dE*t in double precision
        # read 1.4e-12 here
        packet, energies, times = engine_setup(CFG, 10000, 10000, +1)
        values = expectation_series(packet, energies, times)
        reference = reference_series(packet, CFG, energies, times)
        assert np.max(np.abs(values - reference)) < 1e-12

    def test_ten_thousand_levels_at_stride_32(self):
        # 1024 samples take 32 anchors of 32 steps; 2.2e-13 measured
        packet, energies, _ = engine_setup(CFG, 10000, 10000, +1)
        times = sample_times(cyclotron_frequency(CFG, 10000, 1)[0], samples=1024)
        assert evolution.anchor_stride(times.size) == 32
        values = expectation_series(packet, energies, times)
        reference = reference_series(packet, CFG, energies, times)
        assert np.max(np.abs(values - reference)) < 1e-12

    def test_ten_thousand_levels_partial_last_anchor(self):
        # the default grid cut to 250 samples: the last anchor steps 10
        # samples through the first rows of the table; 1.9e-13 measured
        packet, energies, times = engine_setup(CFG, 10000, 10000, +1)
        values = expectation_series(packet, energies, times[:250])
        reference = reference_series(packet, CFG, energies, times[:250])
        assert np.max(np.abs(values - reference)) < 1e-12

    def test_ten_thousand_levels_off_the_step_table(self):
        # every sample jittered by up to 0.4 of the sample interval, so every
        # anchor takes its own steps; 3.6e-13 measured
        packet, energies, times = engine_setup(CFG, 10000, 10000, +1)
        rng = np.random.default_rng(3)
        times = np.abs(times + 0.4 * times[1] * rng.uniform(-1.0, 1.0, times.size))
        values = expectation_series(packet, energies, times)
        reference = reference_series(packet, CFG, energies, times)
        assert np.max(np.abs(values - reference)) < 5e-12

    def test_two_chunks_and_a_level(self):
        # 2*LEVEL_CHUNK + 1 levels: two full chunks and one of a single
        # level; 2.2e-13 measured
        levels = 2 * evolution.LEVEL_CHUNK + 1
        packet, energies, times = engine_setup(CFG, 10000, levels, +1)
        values = expectation_series(packet, energies, times)
        reference = reference_series(packet, CFG, energies, times)
        assert np.max(np.abs(values - reference)) < 1e-12

    def test_exact_mode_over_one_anomalous_period(self):
        # the exact-mode trajectory of the horizon benchmark: 100 levels at
        # n = 100, 8192 samples over one anomalous period at stride 64;
        # 2.0e-12 measured
        cfg = FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=0.5)
        packet = build_spinor_packet(100, 100, cfg, +1)
        energies = relative_energies(packet, EXACT)
        period = 2 * math.pi / classical_reference(cfg, 100, +1).kin.omega_a
        times = sample_times(cyclotron_frequency(cfg, 100, 1)[0], samples=8192, t_max=period)
        values = expectation_series(packet, energies, times)
        rows = np.r_[np.arange(0, 8192, 37), 8191]
        reference = reference_series(packet, cfg, energies, times[rows])
        assert np.max(np.abs(values[rows] - reference)) < 1e-11


class TestEngineMatchesClosedForms:
    @pytest.mark.parametrize("cfg,n,epsilon", PARAM_SETS)
    @pytest.mark.parametrize("levels", [1, 2, 3, 5, 9])
    def test_uniform_gap_equivalence(self, cfg, n, epsilon, levels):
        packet, energies, times = engine_setup(cfg, n, levels, epsilon)
        traj = evolve_packet(packet, times)
        kin = SpinKinematics.from_field(cfg, n, epsilon)
        p_ref = closed_form_momentum(kin, levels, times)
        s_ref = closed_form_spin(kin, levels, times)
        assert np.max(np.abs(traj.p - p_ref)) < 1e-10
        assert np.max(np.abs(traj.s - s_ref)) < 1e-10

    def test_factor_law(self):
        kin = SpinKinematics.from_field(CFG, N_REF, +1)
        for levels in (1, 2, 3, 5, 9):
            packet, energies, times = engine_setup(CFG, N_REF, levels, +1)
            traj = evolve_packet(packet, times)
            factor = np.max(np.abs(traj.p[:, 0])) / kin.b_perp
            assert abs(factor - contrast_factor(levels)) < 1e-10

    def test_transverse_magnitude_constant(self):
        packet, energies, times = engine_setup(CFG, N_REF, 5, +1)
        traj = evolve_packet(packet, times)
        p_perp = np.hypot(traj.p[:, 0], traj.p[:, 1])
        assert np.max(p_perp) - np.min(p_perp) < 1e-12
        assert np.max(traj.p[:, 2]) - np.min(traj.p[:, 2]) < 1e-14


class TestClosedForms:
    def test_momentum_at_zero(self):
        kin = replace(SpinKinematics.from_field(CFG, N_REF, +1), omega=0.3)
        p0 = closed_form_momentum(kin, 5, 0.0)
        np.testing.assert_allclose(p0, [0.0, 0.8 * kin.b_perp, CFG.b_z], atol=1e-14)

    def test_spin_at_zero(self):
        kin = replace(SpinKinematics.from_field(CFG, N_REF, +1), omega=0.3, omega_a=0.01)
        s0 = closed_form_spin(kin, 5, 0.0)
        f = contrast_factor(5)
        expected = [
            (kin.b_z / kin.b) * kin.zeta_z + kin.energy * (kin.b_perp / kin.b) * kin.zeta_perp,
            0.0,
            f * kin.zeta_perp * kin.b,
            (kin.energy / kin.b) * kin.zeta_z + (kin.b_z * kin.b_perp / kin.b) * kin.zeta_perp,
        ]
        np.testing.assert_allclose(s0, expected, atol=1e-14)

    def test_rigid_rotation_at_g2(self):
        # kappa = 1, b_z = 0, no anomalous rotation: spin follows momentum
        cfg = FieldConfig(h=0.1, anomaly=0.0, b_z=0.0)
        omega = 0.27
        kin = replace(SpinKinematics.from_field(cfg, 50, +1), omega=omega, omega_a=0.0)
        times = sample_times(omega, samples=64)
        s = closed_form_spin(kin, None, times)
        np.testing.assert_allclose(s[:, 1], -kin.b * np.sin(omega * times), atol=1e-13)
        np.testing.assert_allclose(s[:, 2], kin.b * np.cos(omega * times), atol=1e-13)

    def test_full_contrast_norm_closes(self):
        cfg = FieldConfig(h=0.1, anomaly=0.05, b_z=0.5)
        omega = 0.03
        kin = replace(SpinKinematics.from_field(cfg.without_anomaly(), N_REF, +1), omega=omega, omega_a=0.004)
        for t in (0.0, math.pi / (4 * omega), math.pi / omega):
            s = closed_form_spin(kin, None, t)
            p = closed_form_momentum(kin, None, t)
            norm = s[1] ** 2 + s[2] ** 2 + s[3] ** 2 - s[0] ** 2
            dot = s[0] * kin.energy - s[1] * p[0] - s[2] * p[1] - s[3] * p[2]
            assert abs(norm - 1.0) < 1e-10
            assert abs(dot) < 1e-10


class TestPolarizationTensor:
    def test_single_component(self):
        pi = polarization_series(np.array([0.0, 0, 0, 1]), np.array([1.0, 0, 0, 0]))
        assert pi[1, 2] == 1.0
        assert pi[2, 1] == -1.0
        assert np.count_nonzero(pi) == 2

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s, p = rng.normal(size=4), rng.normal(size=4)
            pi = polarization_series(s, p)
            assert np.max(np.abs(pi + pi.T)) == 0.0

    def test_transversality(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s, p = rng.normal(size=4), rng.normal(size=4)
            pi = polarization_series(s, p)
            assert np.max(np.abs(pi @ lower_index(p))) < 1e-12

    def test_series_along_trajectory(self):
        ref = classical_reference(FieldConfig(h=0.1, anomaly=0.0, b_z=0.5), N_REF)
        traj = closed_form_trajectory(ref.kin, None, sample_times(ref.kin.omega, samples=16))
        p4 = traj.four_momentum()
        tensors = polarization_series(traj.s, p4)
        assert tensors.shape == (16, 4, 4)
        p_low = p4 @ np.diag([1.0, -1, -1, -1])
        contraction = np.einsum("tmn,tn->tm", tensors, p_low)
        assert np.max(np.abs(contraction)) < 1e-12
        for i in (0, 7):
            np.testing.assert_allclose(tensors[i], polarization_series(traj.s[i], p4[i]), atol=1e-14)


class TestInvariantReport:
    def test_full_contrast_residuals_vanish(self):
        ref = classical_reference(FieldConfig(h=0.1, anomaly=0.05, b_z=0.5), N_REF)
        traj = closed_form_trajectory(ref.kin, None, sample_times(ref.kin.omega))
        assert np.max(traj.res_sp) < 1e-10
        assert np.max(traj.res_ss) < 1e-10

    def test_finite_window_norm_residual_positive(self):
        ref = classical_reference(FieldConfig(h=0.1, anomaly=0.0, b_z=0.5), N_REF)
        traj = closed_form_trajectory(ref.kin, 3, sample_times(ref.kin.omega))
        assert np.min(traj.res_ss) > 0.0

    def test_zero_spin_unit_residual(self):
        traj = Trajectory(times=np.arange(4.0), p=np.zeros((4, 3)), s=np.zeros((4, 4)), p0=np.ones(4))
        np.testing.assert_allclose(traj.res_ss, 1.0)

    def test_residuals_derived_from_samples(self):
        # S.P = S0*P0 - S_vec.P_vec and |S_vec|^2 - S0^2 - 1, sample by sample
        s = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, 1.0]])
        p = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0]])
        traj = Trajectory(times=np.array([0.0, 1.0]), p=p, s=s, p0=np.array([5.0, 4.0]))
        np.testing.assert_array_equal(traj.res_sp, [3.0, 5.0])
        np.testing.assert_array_equal(traj.res_ss, [2.0, 9.0])

    def test_no_residuals_without_spin_or_energy(self):
        times, p = np.arange(3.0), np.zeros((3, 3))
        for traj in (
            Trajectory(times=times, p=p, p0=np.ones(3)),
            Trajectory(times=times, p=p, s=np.zeros((3, 4))),
        ):
            assert traj.res_sp is None and traj.res_ss is None
        with pytest.raises(TypeError):
            Trajectory(times=times, p=p, res_sp=np.zeros(3))


class TestExactMode:
    def test_matches_entry_by_entry_sum(self):
        # reference: the double sum over basis states, one term per band
        # entry with the phase exp(i*(E_bra - E_ket)*t) of absolute energies
        rng = np.random.default_rng(7)
        packet = with_phases(build_spinor_packet(N_REF, 5, CFG, +1), rng.uniform(0, 2 * math.pi, size=5))
        energies = relative_energies(packet, EXACT)
        times = sample_times(cyclotron_frequency(CFG, N_REF, 1)[0], samples=16)
        zetas = spin_labels(SPINOR)
        states = list(product(range(len(packet.levels)), range(len(zetas))))
        actual = expectation_series(packet, energies, times)
        for column, name in enumerate(OBSERVABLES):
            table = build_operator_band(packet.levels, name, CFG, N_REF)
            expected = np.zeros(times.size, dtype=complex)
            for (ib, jb), (ik, jk) in product(states, states):
                if abs(ib - ik) > 1:
                    continue
                value = table[ib - ik + 1, jb, jk]
                weight = packet.amplitudes[ib, jb].conjugate() * packet.amplitudes[ik, jk] * value
                mb, mk = packet.levels[ib], packet.levels[ik]
                gap = energy_spinor(CFG, mb, zetas[jb]) - energy_spinor(CFG, mk, zetas[jk])
                expected += weight * np.exp(1j * gap * times)
            np.testing.assert_allclose(actual[:, column], expected.real, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("n", [1000, 10000])
    def test_contrast_follows_dirichlet_kernel(self, n):
        # with the level energies expanded to second order about n, the
        # contrast |P_perp|/b_perp of an odd N-level packet is the Dirichlet
        # kernel (1/N)|sin((N-1) e2 t/2) / sin(e2 t/2)|, e2 the second
        # difference of the energy: it dephases and revives with period
        # 4 pi/|e2|.  The third-order phase, at most |e3| ((N-1)/2)^2 t/2 on
        # each of the N-1 adjacent pairs, e3 the third difference, bounds
        # the deviation analytically.
        levels = 11
        energy = [energy_scalar(CFG, n + j) for j in (-2, -1, 0, 1, 2)]
        e2 = energy[3] - 2 * energy[2] + energy[1]
        e3 = energy[4] - 3 * energy[3] + 3 * energy[2] - energy[1]
        times = 4 * math.pi / abs(e2) * np.arange(2001) / 2000
        traj = evolve_packet(build_scalar_packet(n, levels, CFG), times, mode=EXACT)
        contrast = np.hypot(traj.p[:, 0], traj.p[:, 1]) / transverse_momentum(CFG.h, n, SCALAR)

        half_phase = 0.5 * e2 * times
        denominator = np.sin(half_phase)
        vanishes = np.abs(denominator) < 1e-12  # the kernel's limit is (N-1)/N
        kernel = np.where(
            vanishes,
            (levels - 1) / levels,
            np.abs(np.sin((levels - 1) * half_phase) / np.where(vanishes, 1.0, denominator)) / levels,
        )
        bound = (levels - 1) / levels * abs(e3) * ((levels - 1) / 2) ** 2 * times / 2
        assert vanishes[[0, 1000, 2000]].all()
        assert contrast[0] == pytest.approx((levels - 1) / levels, abs=1e-12)
        assert np.all(np.abs(contrast[1:] - kernel[1:]) <= bound[1:])
        assert contrast.min() < 0.1  # dephased between the revivals

    def test_dephasing_shrinks_with_level(self):
        devs = {}
        for n in (100, 1000, 10000):
            packet, energies, times = engine_setup(CFG, n, 5, +1)
            uniform = evolve_packet(packet, times, mode=UNIFORM_GAP)
            exact = evolve_packet(packet, times, mode=EXACT)
            devs[n] = np.max(np.abs(uniform.p - exact.p))
        assert devs[100] > devs[1000] > devs[10000]

    def test_dephasing_grows_with_time(self):
        packet, energies, times = engine_setup(CFG, 100, 5, +1)
        uniform = evolve_packet(packet, times, mode=UNIFORM_GAP)
        exact = evolve_packet(packet, times, mode=EXACT)
        half = times.size // 2
        first = np.max(np.abs(uniform.p[:half] - exact.p[:half]))
        second = np.max(np.abs(uniform.p[half:] - exact.p[half:]))
        assert second > first


class TestSampling:
    def test_quarter_period_on_grid(self):
        omega = 0.37
        times = sample_times(omega)
        assert math.pi / (2 * omega) in times

    def test_span_and_exclusive_endpoint(self):
        omega = 0.37
        times = sample_times(omega, samples=128)
        assert times[0] == 0.0
        assert times[-1] < 4 * math.pi / omega

    def test_validation(self):
        with pytest.raises(DomainError):
            sample_times(0.3, samples=1)
        with pytest.raises(DomainError):
            sample_times(0.3, t_max=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_span_rejected(self, bad):
        with pytest.raises(DomainError, match="^t_max: must be finite and > 0, got"):
            sample_times(1.0, 4, t_max=bad)
        with pytest.raises(DomainError, match="^omega: need a positive finite frequency"):
            sample_times(bad, 4)

    def test_overflowing_grid_rejected(self):
        # 1e308 * 3 overflows before the division by the sample count
        with pytest.raises(DomainError, match="^t_max: 1e[+]308 times 3 overflows the grid of 4 samples$"):
            sample_times(1.0, 4, t_max=1e308)
        assert sample_times(1.0, 4, t_max=1e307)[-1] == 1e307 * 3 / 4
