"""The CSV writer of ``Trajectory``: its bytes equal format(v, ".17g") for
every double, and its array path, not the per-value fallback, writes the
values of real tables.  Also the figures a trajectory reports of itself:
its momentum amplitude factor and its largest invariant residual."""

import math
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau_packets import FieldConfig, cli, trajectory
from landau_packets.errors import DomainError
from landau_packets.classical import classical_reference
from landau_packets.trajectory import CSV_BLOCK_ROWS, CSV_HEADER, Trajectory, _csv_block


def per_value_text(table: np.ndarray) -> bytes:
    return "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in table.tolist()).encode()


def assert_identical(values, columns: int = 10) -> None:
    values = np.asarray(values, dtype=float)
    table = np.resize(values, (-(-values.size // columns), columns))
    assert _csv_block(table) == per_value_text(table)


@pytest.fixture
def fallback_calls(monkeypatch):
    """Counts the values the writer leaves to the per-value "%.17g"."""
    calls = []
    original = trajectory._format_value

    def counting(value):
        calls.append(value)
        return original(value)

    monkeypatch.setattr(trajectory, "_format_value", counting)
    return calls


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40), st.integers(1, 10))
def test_raw_bit_patterns_match_per_value_formatting(patterns, columns):
    # every 64-bit pattern: subnormals, +-0, +-inf and NaNs among them
    assert_identical([struct.unpack("<d", struct.pack("<Q", p))[0] for p in patterns], columns)


def test_random_bit_patterns_match_per_value_formatting():
    bits = np.random.default_rng(11).integers(0, 2**64, size=2 * 10**5, dtype=np.uint64)
    assert_identical(bits.view(np.float64))


def test_powers_of_ten_and_neighbours_match():
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_identical(np.concatenate([values, -values]))


def test_notation_switch_points_match():
    # %g turns to exponent notation below 1e-4 and from 1e17 on
    edges = [1e-4, 1e-5, 1e16, 1e17, 0.5e-4, 99999999999999984.0]
    values = [np.nextafter(v, d) for v in edges for d in (0.0, np.inf)] + edges
    text = _csv_block(np.array([values]))
    assert b"0.0001," in text and b"9.9999999999999991e-05," in text and b"1e+17," in text
    assert_identical(values + [-v for v in values])


def test_round_up_to_the_next_power_matches():
    # doubles just below 10^k whose 17 digits round up to 10^k
    for k in (-14, 98):
        value = float(f"1e{k}")
        assert Fraction(value) < Fraction(10) ** k and format(value, ".17g") == f"1e{k:+03d}"
    values = [1e-14, 1e98, 9.9999999999999999e22, 0.99999999999999999, 99999999999999999.0]
    assert_identical(values + [-v for v in values])


def test_exact_half_ulp_ties_match():
    # doubles with 18 significant digits ending in 5, a tie at 17: 10^E +
    # 2^(E-17) (10^(16-E) exact) and small odd multiples of 2^-j (10^(16-E)
    # inexact from E = -7 on)
    ties = [10.0**e + 2.0 ** (e - 17) for e in range(16)] + [0.5 + 2.0**-18]
    ties += [m * 2.0**-j for j in range(20, 110) for m in range(1, 40, 2)]
    ties = [v for v in ties if len(Decimal(v).as_tuple().digits) == 18]
    assert len(ties) == 42 and all(Decimal(v).as_tuple().digits[-1] == 5 for v in ties)
    assert_identical(ties + [-v for v in ties])


def test_near_ties_match():
    # x = m 2^-(u+k) with m 5^k = 2^(u-1) + r (mod 2^u): x 10^k lies r 2^-u
    # from a 17-digit tie, closer than the double-double error of 10^k, k > 22
    near = []
    for k in range(23, 30):
        for u in range(53, 64):
            inverse = pow(5**k, -1, 2**u)
            for r in range(-16, 17):
                m = (2 ** (u - 1) + r) * inverse % 2**u
                if r and 2**52 <= m < 2**53 and 10**16 * 2**u <= m * 5**k < 10**17 * 2**u:
                    near.append(math.ldexp(m, -(u + k)))
    assert len(near) == 45
    assert_identical(near + [-v for v in near])


def test_block_boundaries_match(tmp_path):
    rows = 2 * CSV_BLOCK_ROWS + 1
    rng = np.random.default_rng(5)
    values = rng.standard_normal((rows, 8)) * 10.0 ** rng.integers(-20, 20, size=(rows, 8))
    traj = Trajectory(times=np.arange(rows) * 0.1, p=values[:, :3], s=values[:, 3:7], p0=values[:, 7])
    traj.to_csv(tmp_path / "t.csv")
    table = np.column_stack([traj.times, traj.p, traj.s, traj.res_sp, traj.res_ss])
    assert (tmp_path / "t.csv").read_bytes() == CSV_HEADER.encode() + b"\n" + per_value_text(table)


def test_normal_doubles_use_the_array_path(fallback_calls):
    values = np.random.default_rng(3).standard_normal(10**5)
    assert_identical(values)
    assert len(fallback_calls) <= 10


def test_horizon_tables_use_the_array_path(tmp_path, fallback_calls):
    # the trajectory call of the horizon-verify benchmark: one anomalous
    # period at level 100, 100 levels, three tables of 8192 rows
    cfg = FieldConfig(h=0.1, anomaly=1.16141e-3, b_z=0.5)
    t_max = 2 * math.pi / abs(classical_reference(cfg, 100).kin.omega_a)
    code = cli.main([
        "trajectory", "--h", "0.1", "--anomaly", "1.16141e-3", "--b-z", "0.5", "--mode", "exact",
        "--n", "100", "--levels", "100", "--samples", "8192", "--t-max", repr(t_max),
        "--output-dir", str(tmp_path),
    ])
    assert code == cli.EXIT_OK
    values = 0
    for name in ("trajectory.csv", "closed_form.csv", "classical.csv"):
        text = (tmp_path / name).read_bytes()
        table = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
        assert table.shape == (8192, 10)
        assert text == CSV_HEADER.encode() + b"\n" + per_value_text(table)
        values += table.size
    assert len(fallback_calls) <= values // 10**4


# three samples whose residuals are exact in binary: res_sp = |S0 p0 - S.P|
# reads (0, 0, 0.5), res_ss = ||S|^2 - S0^2 - 1| reads (0, 1.25, 0.0625)
HAND_MADE = dict(
    times=np.array([0.0, 1.0, 2.0]),
    p=np.array([[0.5, 0.0, 0.0], [-1.5, 0.0, 0.0], [1.0, 0.0, 0.0]]),
    s=np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.5], [0.25, 1.0, 0.0, 0.0]]),
    p0=np.array([1.0, 1.0, 2.0]),
)


class TestTrajectorySummaries:
    def test_amplitude_factor_is_the_largest_px_over_b_perp(self):
        traj = Trajectory(**HAND_MADE)
        assert traj.amplitude_factor(0.5) == 3.0
        assert Trajectory(times=traj.times, p=traj.p).amplitude_factor(1.5) == 1.0

    def test_invariant_residual_is_the_larger_of_both_residuals(self):
        traj = Trajectory(**HAND_MADE)
        np.testing.assert_array_equal(traj.res_sp, [0.0, 0.0, 0.5])
        np.testing.assert_array_equal(traj.res_ss, [0.0, 1.25, 0.0625])
        assert traj.invariant_residual == 1.25
        # a momentum along the spin raises res_sp above res_ss
        p = HAND_MADE["p"].copy()
        p[2, 0] = 4.0
        assert Trajectory(**{**HAND_MADE, "p": p}).invariant_residual == 3.5

    @pytest.mark.parametrize("missing", ["s", "p0"])
    def test_invariant_residual_needs_spin_and_energy(self, missing):
        traj = Trajectory(**{**HAND_MADE, missing: None})
        with pytest.raises(DomainError, match="^trajectory: invariant residuals need spin components and the energy$"):
            traj.invariant_residual
