"""Property tests over the parameter envelope of the engine tests.

The draws cover field strength, longitudinal momentum, anomaly, helicity,
reference level and level count inside the ranges spanned by
``tests/test_acceptance.py::PARAM_SETS``.  ``derandomize=True`` fixes the
examples, so every run checks the same configurations.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from landau_packets.evolution import (
    UNIFORM_GAP,
    build_packet_bands,
    closed_form_momentum,
    closed_form_spin,
    evolve_packet,
    sample_times,
)
from landau_packets.kinematics import FieldConfig, SpinKinematics, anomalous_frequency, cyclotron_frequency
from landau_packets.packets import build_spinor_packet, normalization_defect

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

    for band in build_packet_bands(packet, cfg).values():
        assert band.hermiticity_defect() == 0.0
        assert band.band_width_defect() == 0

    omega = cyclotron_frequency(cfg, n, epsilon)[0]
    omega_a = anomalous_frequency(cfg, n)[0]
    times = sample_times(omega, samples=64)
    traj = evolve_packet(packet, cfg, times, mode=UNIFORM_GAP)
    kin = SpinKinematics.from_field(cfg, n, epsilon)
    p_ref = closed_form_momentum(kin, levels, omega, times)
    s_ref = closed_form_spin(kin, levels, omega, omega_a, times)
    assert np.max(np.abs(traj.p - p_ref)) < 1e-10
    assert np.max(np.abs(traj.s - s_ref)) < 1e-10
