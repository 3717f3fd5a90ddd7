"""Property tests over the parameter envelope of the engine tests.

The draws cover field strength, longitudinal momentum, anomaly, helicity,
reference level and level count inside the ranges spanned by
``tests/test_acceptance.py::PARAM_SETS``, and time grids of any spacing and
length.  ``derandomize=True`` fixes the examples, so every run checks the
same configurations.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    relative_energies,
    sample_times,
)
from landau_packets.kinematics import (
    SCALAR,
    SPINOR,
    FieldConfig,
    SpinKinematics,
    energy_scalar,
    energy_spinor,
)
from landau_packets.operators import OBSERVABLES, OFFSETS, build_operator_band, hermiticity_defect
from landau_packets.packets import (
    build_scalar_packet,
    build_spinor_packet,
    contrast_factor,
    normalization_defect,
    pair_sums,
    structure_sums,
)

configurations = st.tuples(
    st.floats(min_value=1e-3, max_value=0.1),  # h
    st.floats(min_value=0.0, max_value=2.0),  # b_z
    st.floats(min_value=0.0, max_value=1.16141e-3),  # anomaly
    st.sampled_from((-1, 1)),  # epsilon
    st.integers(min_value=50, max_value=1000),  # reference level n
    st.integers(min_value=1, max_value=9),  # level count N
)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(configurations)
def test_bands_packet_and_engine(config):
    h, b_z, anomaly, epsilon, n, levels = config
    cfg = FieldConfig(h=h, anomaly=anomaly, b_z=b_z)
    packet = build_spinor_packet(n, levels, cfg, epsilon)
    assert normalization_defect(packet) <= 1e-14

    for name in OBSERVABLES:
        table = build_operator_band(packet.levels, name, cfg, n, zeta_ref=epsilon)
        assert hermiticity_defect(table) == 0.0
        assert table.shape == (len(OFFSETS), 2, 2)

    kin = SpinKinematics.from_field(cfg, n, epsilon)
    times = sample_times(kin.omega, samples=64)
    traj = evolve_packet(packet, times, mode=UNIFORM_GAP)
    p_ref = closed_form_momentum(kin, levels, times)
    s_ref = closed_form_spin(kin, levels, times)
    assert np.max(np.abs(traj.p - p_ref)) < 1e-10
    assert np.max(np.abs(traj.s - s_ref)) < 1e-10


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(configurations, st.sampled_from((SCALAR, SPINOR)))
def test_packet_derives_its_reference(config, kind):
    # a builder's packet carries the builder's field and derives the
    # builder's reference level and kind, and the frozen kinematics of that
    # reference state; a spin-0 packet has epsilon = +1
    h, b_z, anomaly, epsilon, n, levels = config
    cfg = FieldConfig(h=h, anomaly=anomaly, b_z=b_z)
    if kind == SCALAR:
        packet, epsilon = build_scalar_packet(n, levels, cfg), 1
    else:
        packet = build_spinor_packet(n, levels, cfg, epsilon)
    assert (packet.field, packet.n, packet.kind, packet.epsilon) == (cfg, n, kind, epsilon)
    expected = SpinKinematics.from_field(cfg, n, epsilon, kind)
    for name in (f.name for f in fields(SpinKinematics)):
        assert getattr(packet.reference, name) == getattr(expected, name), name


# uniform grids, grids with every sample jittered by up to half a spacing
# and grids of random spacings, with sample counts that are rarely
# multiples of the anchor stride or the time block
grids = st.tuples(
    st.integers(min_value=1, max_value=150),  # samples
    st.sampled_from(("uniform", "jittered", "uneven")),
    st.integers(min_value=0, max_value=2**32 - 1),  # seed of the spacings
    st.floats(min_value=0.5, max_value=20.0),  # span in cyclotron periods
)


def grid_times(samples, kind, seed, periods, omega):
    span = periods * 2 * np.pi / omega
    if kind == "uniform":
        return sample_times(omega, samples=max(samples, 2), t_max=span)
    rng = np.random.default_rng(seed)
    if kind == "jittered":
        times = span * (np.arange(samples) + rng.uniform(-0.5, 0.5, samples)) / samples
        return np.sort(np.abs(times))
    return span * np.cumsum(rng.uniform(0.0, 2.0, samples)) / samples


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(configurations, grids, st.sampled_from((UNIFORM_GAP, EXACT)))
def test_expectation_series_on_any_grid(config, grid, mode):
    # the anchored psi(t) equals a * exp(-i*dE*t) formed sample by sample,
    # whether an anchor reuses the step table or takes its own exponentials
    h, b_z, anomaly, epsilon, n, levels = config
    cfg = FieldConfig(h=h, anomaly=anomaly, b_z=b_z)
    packet = build_spinor_packet(n, levels, cfg, epsilon)
    energies = relative_energies(packet, mode)
    times = grid_times(*grid, packet.reference.omega)
    coefficients = np.stack(
        [build_operator_band(packet.levels, name, cfg, n, zeta_ref=epsilon).reshape(-1) for name in OBSERVABLES],
        axis=1,
    )
    direct = np.array([
        (pair_sums((packet.amplitudes * np.exp(-1j * energies * t))[None]).reshape(-1) @ coefficients).real
        for t in times
    ])
    values = expectation_series(packet, energies, times)
    assert values.shape == direct.shape
    assert np.max(np.abs(values - direct)) <= 1e-12


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(configurations)
def test_reference_carries_the_bits_of_the_rate_formulas(config):
    # from_field's gap, splitting, kappa and polarization constants are the
    # formulas they were once computed by, operation for operation
    h, b_z, anomaly, epsilon, n, _ = config
    cfg = FieldConfig(h=h, anomaly=anomaly, b_z=b_z)
    kin = SpinKinematics.from_field(cfg, n, epsilon)
    b_perp = 2.0 * math.sqrt(h * n)
    b = math.sqrt(1.0 + b_perp**2)
    big_b = energy_spinor(cfg, n, epsilon)
    helicity = epsilon * math.hypot(b_perp, b_z)
    kappa = (b_z + b * helicity) / (big_b * b_perp)
    denom = kappa * kappa + 1.0
    assert (kin.b_perp, kin.b, kin.energy) == (b_perp, b, big_b)
    assert kin.omega == energy_spinor(cfg, n + 1, epsilon) - big_b
    assert kin.omega_a == energy_spinor(cfg, n, +1) - energy_spinor(cfg, n, -1)
    assert kin.kappa == kappa
    assert (kin.zeta_perp, kin.zeta_z) == (2.0 * kappa / denom, (kappa * kappa - 1.0) / denom)
    scalar = SpinKinematics.from_field(cfg, n, kind=SCALAR)
    assert scalar.omega == energy_scalar(cfg, n + 1) - energy_scalar(cfg, n)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(configurations)
def test_structure_sums(config):
    # the bilinear sums of the closed forms: (N-1)/N, kappa/(kappa^2+1),
    # (kappa^2-1)/(kappa^2+1) and their product, as verify's criterion
    h, b_z, anomaly, epsilon, n, levels = config
    cfg = FieldConfig(h=h, anomaly=anomaly, b_z=b_z)
    kappa = SpinKinematics.from_field(cfg, n, epsilon).kappa
    f = contrast_factor(levels)
    sums = structure_sums(build_spinor_packet(n, levels, cfg, epsilon))
    assert abs(sums.adjacent_same_spin - f) <= 1e-12
    assert abs(sums.diagonal_spin_flip - kappa / (kappa**2 + 1)) <= 1e-12
    assert abs(sums.population_imbalance - (kappa**2 - 1) / (kappa**2 + 1)) <= 1e-12
    assert abs(sums.adjacent_spin_flip - f * kappa / (kappa**2 + 1)) <= 1e-12


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(configurations)
def test_four_vector_invariants(config):
    # the classical four-spin stays orthogonal to the four-momentum and of
    # unit spacelike norm along its closed form, to verify's tolerance
    h, b_z, anomaly, epsilon, n, _ = config
    ref = classical_reference(FieldConfig(h=h, anomaly=anomaly, b_z=b_z), n, epsilon)
    traj = closed_form_trajectory(ref.kin, None, sample_times(ref.kin.omega))
    assert float(np.max(traj.res_sp)) <= 1e-10
    assert float(np.max(traj.res_ss)) <= 1e-10
    # and the polarization tensor built from them is antisymmetric and
    # orthogonal to the four-momentum
    p4 = traj.four_momentum()
    tensors = evolution.polarization_series(traj.s, p4)
    tol = 1e-12 * max(1.0, ref.kin.energy**2)
    assert np.max(np.abs(tensors + tensors.transpose(0, 2, 1))) <= tol
    assert np.max(np.abs(np.einsum("tmn,tn->tm", tensors, evolution.lower_index(p4.T).T))) <= tol


windows = st.builds(
    range,
    st.integers(min_value=-5, max_value=12),  # start
    st.integers(min_value=-5, max_value=12),  # stop
    st.sampled_from((1, 1, 1, 2, 3, -1, -2)),  # step
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(windows, st.sampled_from((range, tuple, list)))
def test_band_window_check(window, form):
    # accepted exactly as a nonempty range of step 1, which records itself;
    # the same levels as a tuple or a list are no window, and the table
    # does not depend on the window
    levels = window if form is range else form(window)
    cfg = FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=0.5)
    if form is range and window.step == 1 and window:
        table = build_operator_band(levels, "Sx", cfg, 100)
        assert table.levels is levels
        assert table.tobytes() == build_operator_band(range(1), "Sx", cfg, 100).tobytes()
    else:
        with pytest.raises(DomainError, match="^levels: must be a nonempty range of step 1, got "):
            build_operator_band(levels, "Sx", cfg, 100)
