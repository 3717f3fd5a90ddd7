import math

import mpmath
import numpy as np
import pytest

from landau_packets import laguerre
from landau_packets.errors import DomainError, QuadratureAccuracyError
from landau_packets.kinematics import SCALAR, FieldConfig, transverse_momentum
from landau_packets.laguerre import (
    fit_decay_exponent,
    laguerre_I,
    momentum_element_quadrature,
    orthonormality_defect,
    radial_rule,
    radial_window,
    semiclassical_convergence,
    window_rule,
)

RHO = np.linspace(0.0, 14.0, 29)


class TestProfileClosedForms:
    """Small-n profiles against their explicit closed forms."""

    def test_ground(self):
        np.testing.assert_allclose(laguerre_I(0, 0, RHO), np.exp(-RHO / 2), atol=1e-14)
        assert laguerre_I(0, 0, 0.0) == 1.0

    def test_n1(self):
        np.testing.assert_allclose(
            laguerre_I(1, 0, RHO), np.exp(-RHO / 2) * np.sqrt(RHO), atol=1e-14
        )
        np.testing.assert_allclose(
            laguerre_I(1, 1, RHO), np.exp(-RHO / 2) * (1 - RHO), atol=1e-14
        )

    def test_n2(self):
        np.testing.assert_allclose(
            laguerre_I(2, 1, RHO),
            np.exp(-RHO / 2) * np.sqrt(RHO) * (2 - RHO) / math.sqrt(2),
            atol=1e-14,
        )
        np.testing.assert_allclose(
            laguerre_I(2, 2, RHO),
            np.exp(-RHO / 2) * (1 - 2 * RHO + RHO**2 / 2),
            atol=1e-13,
        )

    def test_n3(self):
        np.testing.assert_allclose(
            laguerre_I(3, 1, RHO),
            np.exp(-RHO / 2) * RHO * (3 - RHO) / math.sqrt(6),
            atol=1e-13,
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            laguerre_I(1, 2, 0.5)
        with pytest.raises(DomainError):
            laguerre_I(2, 1, -0.5)


class TestLargeLevelStability:
    """The recurrence stays accurate where naive factorial prefactors
    overflow long before."""

    @pytest.mark.parametrize("n", [500, 2000, 10000])
    @pytest.mark.parametrize("s", [0, 1, 2, 5])
    def test_against_log_space_direct_form(self, n, s):
        l = n - s
        # sample the oscillatory window, where the profile is O(1)
        center = float(n)
        width = 4.0 * math.sqrt(max(s, 1) * n)
        rho = np.linspace(max(center - width, 1.0), center + width, 9)
        log_pref = -rho / 2 + 0.5 * l * np.log(rho) + 0.5 * (math.lgamma(s + 1) - math.lgamma(n + 1))
        # rho = n is an exact zero of L_1^(n-1); zeroprec lets mpmath return it
        poly = [float(mpmath.laguerre(s, l, r, zeroprec=200)) for r in rho]
        direct = np.exp(log_pref) * np.array(poly)
        ours = laguerre_I(n, s, rho)
        np.testing.assert_allclose(ours, direct, rtol=1e-9, atol=1e-12)


def _mp_profile(n: int, s: int, rho: float):
    """I(n, s; rho) at 50 digits, the prefactor taken through loggamma."""
    with mpmath.workdps(50):
        l = n - s
        x = mpmath.mpf(rho)
        log_pref = (
            0.5 * (mpmath.loggamma(s + 1) - mpmath.loggamma(n + 1)) - x / 2 + l * mpmath.log(x) / 2
        )
        return mpmath.exp(log_pref) * mpmath.laguerre(s, l, x)


def _spot_points():
    for n, s in [(10**4, 0), (10**4, 1), (10**4, 50), (10**4, 500), (5000, 100), (1000, 10)]:
        l = n - s
        for rho in (float(l), l + 2.0 * math.sqrt(l), 1.5 * l):
            yield n, s, rho
    # the log-space seed is exp(-922) here, below the underflow limit
    yield 10**4, 500, 4750.0


class TestHighPrecisionReference:
    """Large-level profiles against a 50-digit evaluation."""

    @pytest.mark.parametrize("n, s, rho", list(_spot_points()))
    def test_spot_values(self, n, s, rho):
        exact = _mp_profile(n, s, rho)
        assert float(abs(laguerre_I(n, s, rho) - exact) / abs(exact)) < 1e-10


class TestOrthonormality:
    @pytest.mark.parametrize("n,s", [(0, 0), (1, 0), (5, 2)])
    def test_unit_norm(self, n, s):
        assert orthonormality_defect(n, n, s, s) < 1e-12

    def test_cross_orthogonality(self):
        # equal azimuthal index, different levels
        assert orthonormality_defect(3, 5, 1, 3) < 1e-10
        assert orthonormality_defect(4, 6, 1, 3) < 1e-10

    def test_spec_cases(self):
        assert orthonormality_defect(0, 0, 0, 0, order=32) < 1e-12
        assert orthonormality_defect(4, 4, 1, 1) < 1e-10

    def test_defects_up_to_fifty(self):
        for n, n_prime, s, s_prime in [(50, 50, 3, 3), (48, 50, 1, 3), (20, 50, 0, 30)]:
            assert orthonormality_defect(n, n_prime, s, s_prime) < 1e-10

    def test_mismatched_azimuthal_index(self):
        with pytest.raises(DomainError):
            orthonormality_defect(3, 4, 1, 1)


class TestRadialRule:
    def test_plain_exponential_moments(self):
        # the oracle's n = 10 window, [0, 79.8], holds x^k exp(-x) for k <= 10
        nodes, weights = window_rule(64, radial_window((10, 0)))
        assert np.dot(weights, np.exp(-nodes)) == pytest.approx(1.0, rel=1e-13)
        assert np.dot(weights, nodes**3 * np.exp(-nodes)) == pytest.approx(6.0, rel=1e-13)
        assert np.dot(weights, nodes**10 * np.exp(-nodes)) == pytest.approx(
            math.factorial(10), rel=1e-12
        )

    @pytest.mark.parametrize("order", [1, 2, 12, 200, 400])
    def test_polynomial_exactness_on_window(self, order):
        # the Legendre polynomials of the mapped variable up to degree
        # 2*order - 1 span every polynomial the rule must integrate exactly
        lo, hi = 3.25, 1.0e4 + 17.5
        nodes, weights = window_rule(order, (lo, hi))
        t = (2.0 * nodes - lo - hi) / (hi - lo)
        moments = weights @ np.polynomial.legendre.legvander(t, 2 * order - 1) / (hi - lo)
        expected = np.zeros(2 * order)
        expected[0] = 1.0
        assert np.max(np.abs(moments - expected)) < 1e-13
        # and no further: P_order vanishes at every node, so P_order^2 sums to 0
        p_order = np.polynomial.legendre.legval(t, [0.0] * order + [1.0])
        assert np.dot(weights, p_order**2) / (hi - lo) < 1e-13 < 1.0 / (2 * order + 1)

    def test_end_weights_against_forty_digits(self):
        # the weights 2 / ((1 - x^2) P_n'(x)^2) where 1 - x^2 is smallest, at
        # the roots of P_n found to 40 digits.  At order 400 they read
        # 1.93e-12: the weight at a node rounded to double moves by
        # delta_x / (1 - x) from the one at the root
        for order, bound in ((200, 1e-13), (400, 1.95e-12)):
            nodes, weights = radial_rule(order)

            def legendre_and_slope(x):
                p = mpmath.legendre(order, x)
                return p, order * (x * p - mpmath.legendre(order - 1, x)) / (x * x - 1)

            with mpmath.workdps(40):
                for i in (0, -1):
                    x = mpmath.mpf(nodes[i])
                    for _ in range(6):
                        p, slope = legendre_and_slope(x)
                        x -= p / slope
                    _, slope = legendre_and_slope(x)
                    exact = 2 / ((1 - x * x) * slope**2)
                    assert abs(nodes[i] - x) <= 1e-16
                    assert abs(weights[i] - exact) <= bound * exact

    @pytest.mark.parametrize("order", [1, 2, 3, 7, 200, 201, 206, 400, 801, 2000])
    def test_two_recurrence_passes(self, order, monkeypatch):
        # one pass at Tricomi's estimates feeds the Taylor polynomial, and
        # one at its roots confirms them and gives the weights
        calls = []

        def counted(n, x):
            calls.append(n)
            return legendre(n, x)

        legendre = laguerre._legendre
        monkeypatch.setattr(laguerre, "_legendre", counted)
        radial_rule.__wrapped__(order)
        assert 0 < len(calls) <= 2

    def test_unconfirmed_nodes_raise(self, monkeypatch):
        # without the Taylor correction Tricomi's estimates are left as they
        # are, and the confirming pass finds Newton steps above 1e-15
        monkeypatch.setattr(laguerre, "_TAYLOR_STEPS", 0)
        with pytest.raises(QuadratureAccuracyError, match="order 400"):
            radial_rule.__wrapped__(400)

    @pytest.mark.parametrize("order", [1, 2, 3, 7, 200, 201, 400, 801])
    def test_rule_is_symmetric_and_ascending(self, order):
        nodes, weights = radial_rule(order)
        assert np.all(np.diff(nodes) > 0)
        np.testing.assert_array_equal(nodes, -nodes[::-1])
        np.testing.assert_array_equal(weights, weights[::-1])
        assert abs(np.sum(weights) - 2.0) <= 1e-14

    def test_cached_rule_read_only(self):
        nodes, weights = radial_rule(200)
        assert radial_rule(200)[0] is nodes
        for array in (nodes, weights):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_order_must_be_positive(self):
        with pytest.raises(DomainError):
            radial_rule(0)
        with pytest.raises(DomainError):
            orthonormality_defect(0, 0, 0, 0, order=0)
        with pytest.raises(DomainError):
            momentum_element_quadrature(5, 5, 0, "z", FieldConfig(h=0.1), order=-1)

    def test_window_covers_classical_supports(self):
        pad = 9.0 * math.sqrt(10**4 + 2) + 40.0
        lo, hi = radial_window((10**4, 100), (10**4 + 1, 100))
        assert lo == pytest.approx(90.0**2 - pad)
        assert hi == pytest.approx((math.sqrt(10**4 + 1) + 10.0) ** 2 + pad)
        assert radial_window((5, 2))[0] == 0.0


class TestWindowTruncation:
    """Order doubling cannot see what lies outside the window; doubling the
    pad shows nothing of the integrals was left there."""

    CFG = FieldConfig(h=0.1, anomaly=0.0, b_z=0.5)

    def _oracle_values(self, n):
        values = [momentum_element_quadrature(n + 1, n, 0, c, self.CFG) for c in "xy"]
        values.append(momentum_element_quadrature(n, n, 0, "z", self.CFG))
        if n > 0:
            values += [momentum_element_quadrature(n - 1, n, 0, c, self.CFG) for c in "xy"]
        values.append(orthonormality_defect(n, n, 0, 0))
        return np.array(values)

    @pytest.mark.parametrize("n", [0, 20, 200, 10**4])
    def test_doubled_pad_moves_nothing(self, n, monkeypatch):
        values = self._oracle_values(n)
        monkeypatch.setattr(laguerre, "PAD_SCALE", 2 * laguerre.PAD_SCALE)
        monkeypatch.setattr(laguerre, "PAD_OFFSET", 2 * laguerre.PAD_OFFSET)
        wide = self._oracle_values(n)
        assert np.all(np.abs(wide - values) < 1e-12 * np.maximum(np.abs(wide), 1.0))


class TestMomentumOracle:
    CFG = FieldConfig(h=0.125, anomaly=0.0, b_z=0.7)

    def test_diagonal_z(self):
        value = momentum_element_quadrature(5, 5, 2, "z", self.CFG)
        assert value.imag == 0.0
        assert value.real == pytest.approx(0.7, rel=1e-12)

    def test_z_independent_of_order(self):
        lo = momentum_element_quadrature(5, 5, 2, "z", self.CFG, order=32)
        hi = momentum_element_quadrature(5, 5, 2, "z", self.CFG, order=128)
        assert abs(lo - hi) < 1e-13

    def test_selection_rules(self):
        for dn in (0, 2, -2, 3):
            value = momentum_element_quadrature(5 + dn, 5, 2, "x", self.CFG)
            assert abs(value) <= 1e-10
        off_z = momentum_element_quadrature(7, 5, 2, "z", self.CFG)
        assert off_z == 0j

    @pytest.mark.parametrize("n,s", [(1, 0), (5, 2), (40, 1)])
    def test_ladder_values(self, n, s):
        # exact transverse elements are the oscillator ladder values
        # sqrt(h*(n+1)) raising and sqrt(h*n) lowering, with the same
        # phase pattern as the closed forms
        h = self.CFG.h
        up_x = momentum_element_quadrature(n + 1, n, s, "x", self.CFG)
        up_y = momentum_element_quadrature(n + 1, n, s, "y", self.CFG)
        assert up_x == pytest.approx(1j * math.sqrt(h * (n + 1)), rel=1e-10)
        assert up_y == pytest.approx(math.sqrt(h * (n + 1)), rel=1e-10)
        down_x = momentum_element_quadrature(n - 1, n, s, "x", self.CFG)
        down_y = momentum_element_quadrature(n - 1, n, s, "y", self.CFG)
        assert down_x == pytest.approx(-1j * math.sqrt(h * n), rel=1e-10)
        assert down_y == pytest.approx(math.sqrt(h * n), rel=1e-10)

    def test_hermitian_pairing(self):
        up = momentum_element_quadrature(6, 5, 2, "x", self.CFG)
        down = momentum_element_quadrature(5, 6, 2, "x", self.CFG)
        assert up == pytest.approx(down.conjugate(), rel=1e-12)

    def test_first_transition_magnitude(self):
        # closed form frozen at the lower level underestimates by O(1/n)
        cfg = FieldConfig(h=0.125, anomaly=0.0, b_z=0.0)
        value = momentum_element_quadrature(2, 1, 0, "y", cfg)
        closed = 0.5 * transverse_momentum(cfg.h, 1, SCALAR)
        assert abs(value) == pytest.approx(0.5, rel=1e-10)
        assert abs(abs(value) - closed) / closed < 0.2

    @pytest.mark.parametrize(
        "n_bra, n_ket, s", [(-1, 0, 0), (0, -1, 0), (6, 5, -1), (6, 5, 6), (1, 2, 2)]
    )
    def test_radial_number_outside_both_states_rejected(self, n_bra, n_ket, s):
        # 0 <= s <= min(n_bra, n_ket), checked before the window takes sqrt(n)
        with pytest.raises(DomainError, match="^s: "):
            momentum_element_quadrature(n_bra, n_ket, s, "x", self.CFG)

    def test_needs_field(self):
        with pytest.raises(DomainError):
            momentum_element_quadrature(6, 5, 2, "x", FieldConfig(h=0.0))

    def test_underresolved_quadrature_detected(self):
        with pytest.raises(QuadratureAccuracyError):
            momentum_element_quadrature(41, 40, 0, "y", self.CFG, order=6)


class TestSemiclassicalConvergence:
    def test_matches_laguerre_weight_rule(self):
        # rel_err_x = rel_err_y at h = 0.1, s = 0, as the earlier Gauss rule
        # for the Laguerre weight on [0, inf) computed them
        frozen = {
            20: 0.012121654694946443,
            100: 0.0024844758788770626,
            200: 0.0012461064024756059,
        }
        for n, err_x, err_y, _ in semiclassical_convergence(0, 0.1, list(frozen)):
            assert err_x == pytest.approx(frozen[n], rel=1e-10)
            assert err_y == pytest.approx(frozen[n], rel=1e-10)

    def test_error_decreases(self):
        rows = semiclassical_convergence(0, 0.1, [10, 40])
        assert rows[1][1] < rows[0][1]
        assert rows[1][2] < rows[0][2]

    def test_decay_exponent(self):
        ns = [10, 20, 40, 80]
        rows = semiclassical_convergence(0, 0.1, ns)
        exponent = fit_decay_exponent(ns, [r[1] for r in rows])
        assert exponent == pytest.approx(-1.0, abs=0.1)

    def test_exponent_field_independent(self):
        ns = [10, 20, 40, 80]
        exps = []
        for h in (0.01, 0.1):
            rows = semiclassical_convergence(0, h, ns)
            exps.append(fit_decay_exponent(ns, [r[2] for r in rows]))
        assert exps[0] == pytest.approx(exps[1], abs=1e-6)

    @pytest.mark.parametrize(
        "radial_s, n_list, prefix",
        [(0, [10, 10**4 + 1], "n_list"), (101, [200, 400], "radial_s"), (-1, [10, 20], "radial_s"),
         (20, [10, 40], "n_list"), (0, [0, 10], "n_list")],
    )
    def test_scan_outside_the_box_rejected(self, radial_s, n_list, prefix):
        with pytest.raises(DomainError, match=f"^{prefix}: "):
            semiclassical_convergence(radial_s, 0.1, n_list)

    def test_box_edges_accepted(self):
        rows = semiclassical_convergence(100, 0.1, [100, 10**4])
        assert [row[0] for row in rows] == [100, 10**4]

    @pytest.mark.parametrize("ns", [[], [40], [40, 40]])
    def test_fit_needs_two_distinct_levels(self, ns):
        with pytest.raises(DomainError, match="^n_list: the decay fit needs at least two"):
            fit_decay_exponent(ns, [0.01] * len(ns))

    def test_exponent_radial_independent(self):
        ns = [10, 20, 40, 80]
        rows = semiclassical_convergence(2, 0.05, ns)
        exponent = fit_decay_exponent(ns, [r[1] for r in rows])
        assert exponent == pytest.approx(-1.0, abs=0.1)
