import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ionpulse import (
    JointState,
    PhysicalParams,
    Pulse,
    RabiUnderflowError,
    apply_pulse_amplitudes,
    rabi_column,
    rabi_frequency,
)

from conftest import laguerre_rabi, mpmath_rabi, pulse_coefficient


class TestPhysicalParams:
    def test_valid(self):
        p = PhysicalParams(eta=0.25, omega_carrier=5e4, fock_dim=8)
        assert p.eta == 0.25
        assert p.fock_dim == 8
        # a numpy integer is stored as an int, so params_to_dict stays JSON
        assert type(PhysicalParams(0.25, 5e4, np.int64(8)).fock_dim) is int

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": 0.0, "omega_carrier": 5e4, "fock_dim": 4},
            {"eta": -0.1, "omega_carrier": 5e4, "fock_dim": 4},
            {"eta": math.inf, "omega_carrier": 5e4, "fock_dim": 4},
            {"eta": 0.25, "omega_carrier": 0.0, "fock_dim": 4},
            {"eta": 0.25, "omega_carrier": 5e4, "fock_dim": 1},
            {"eta": 0.25, "omega_carrier": 5e4, "fock_dim": 8.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PhysicalParams(**kwargs)


class TestRabiFrequency:
    def test_ground_carrier_value(self, params):
        # single-term series: W_00 = (W/2) e^{-eta^2/2}
        expected = (5e4 / 2.0) * math.exp(-0.25**2 / 2.0)
        got = rabi_frequency(params, 0, 0)
        assert got.m == 0 and got.k == 0
        assert got.value == pytest.approx(expected, rel=1e-14)
        assert got.value == pytest.approx(2.4231e4, rel=1e-4)

    def test_lamb_dicke_limit(self):
        # eta -> 0+: every eta-dependent factor -> 1, leaving W/2
        p = PhysicalParams(eta=1e-9, omega_carrier=5e4, fock_dim=4)
        assert rabi_frequency(p, 0, 0).value == pytest.approx(2.5e4, rel=1e-12)

    def test_m1_k1_against_laguerre_identity(self, params):
        # L_1^1(x) = 2 - x evaluated by hand
        eta = params.eta
        expected = (
            (params.omega_carrier / 2.0)
            * math.exp(-(eta**2) / 2.0)
            * eta
            * math.sqrt(1.0 / 2.0)
            * (2.0 - eta**2)
        )
        assert rabi_frequency(params, 1, 1).value == pytest.approx(expected, rel=1e-13)

    def test_series_matches_laguerre_closed_form(self):
        worst = 0.0
        for eta in (0.1, 0.25, 0.5, 0.9):
            p = PhysicalParams(eta=eta, omega_carrier=5e4, fock_dim=4)
            for m in range(0, 21, 4):
                for k in range(0, 9, 2):
                    series = rabi_frequency(p, m, k).value
                    closed = laguerre_rabi(eta, 5e4, m, k)
                    worst = max(worst, abs(series - closed) / abs(closed))
        assert worst <= 1e-12

    def test_monotone_increasing_in_eta_for_fixed_k(self):
        # d W_0k / d eta > 0 on (0, 0.9] for k >= 1
        etas = np.linspace(0.05, 0.9, 18)
        for k in (1, 2, 5, 10):
            values = [
                rabi_frequency(PhysicalParams(e, 5e4, 4), 0, k).value for e in etas
            ]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_monotone_decreasing_in_k(self):
        for eta in (0.202, 0.5, 0.9):
            p = PhysicalParams(eta, 5e4, 4)
            values = [rabi_frequency(p, 0, k).value for k in range(1, 12)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_positive_where_no_laguerre_zero_reachable(self):
        # L_0^k = 1 and L_1^k(x) = 1 + k - x have no zero below x = k + 1,
        # so W_{m,k} > 0 for m <= 1 whenever eta^2 < k + 1; higher m can
        # legitimately cross a Laguerre zero at large eta
        for eta in (0.1, 0.5, 0.9, 1.0):
            p = PhysicalParams(eta, 5e4, 4)
            for m in (0, 1):
                for k in range(0, 8):
                    if eta * eta < k + 1:
                        assert rabi_frequency(p, m, k).value > 0.0

    def test_sign_flip_past_laguerre_zero(self):
        # eta = 0.9, m = 2, k = 0: x = 0.81 lies past the first zero of L_2
        p = PhysicalParams(0.9, 5e4, 4)
        assert rabi_frequency(p, 2, 0).value < 0.0

    def test_negative_indices_rejected(self, params):
        with pytest.raises(ValueError):
            rabi_frequency(params, -1, 0)
        with pytest.raises(ValueError):
            rabi_frequency(params, 0, -2)

    def test_underflow_carries_log_magnitude(self):
        p = PhysicalParams(eta=0.1, omega_carrier=5e4, fock_dim=4)
        with pytest.raises(RabiUnderflowError) as excinfo:
            rabi_frequency(p, 0, 250)
        assert excinfo.value.log_magnitude < math.log(2.3e-308)
        assert math.isfinite(excinfo.value.log_magnitude)


SMALLEST_NORMAL = 2.2250738585072014e-308


class TestRabiColumn:
    @pytest.mark.parametrize("eta", [0.25, 0.9, 1.5, 3.0])
    def test_matches_mpmath(self, eta):
        # the range where the alternating power series lost every digit
        # (eta = 1.5, m = 200 gave W = 841 rad/s against a true -2066)
        omega, m_max = 5e4, 400
        for k in (0, 1, 3, 10, 30):
            column = rabi_column(eta, omega, k, m_max + 1)
            for m in sorted(set(range(0, m_max + 1, 9)) | {1, m_max - 1, m_max}):
                err = abs(float(mpmath_rabi(eta, omega, m, k)) - column[m])
                assert err <= 1e-12 * omega, (m, k, err / omega)

    def test_underflow_raised_exactly_where_magnitude_is_subnormal(self):
        # eta = 0.05, k = 150: the lowest m fall below the smallest normal
        # double, and |W_{m,k}| climbs back above it as m grows
        eta, omega, k = 0.05, 5e4, 150
        params = PhysicalParams(eta=eta, omega_carrier=omega, fock_dim=k + 50)
        expected = [m for m in range(50) if abs(mpmath_rabi(eta, omega, m, k)) < SMALLEST_NORMAL]
        assert 0 < len(expected) < 50
        raised = []
        for m in range(50):
            try:
                value = rabi_frequency(params, m, k).value
            except RabiUnderflowError as exc:
                assert (exc.m, exc.k) == (m, k)
                raised.append(m)
            else:
                exact = float(mpmath_rabi(eta, omega, m, k))
                assert value == pytest.approx(exact, rel=1e-12)
        assert raised == expected
        # a consumer of the whole column needs the underflowing pairs
        with pytest.raises(RabiUnderflowError) as excinfo:
            rabi_column(eta, omega, k, 50)
        assert excinfo.value.m == 0
        with pytest.raises(RabiUnderflowError):
            apply_pulse_amplitudes(
                JointState.ground(params.fock_dim).amplitudes, params, Pulse.red(k, 0.0, 1e-5)
            )

    def test_one_value_per_coupling(self, params):
        # a column's entries do not depend on its length, and rabi_frequency
        # reads the column the pulse kernel uses
        for eta in (0.25, 1.5):
            for k in (0, 1, 5, 30):
                full = rabi_column(eta, 5e4, k, 400)
                for size in (0, 1, 2, 7, 16, 123):
                    np.testing.assert_array_equal(rabi_column(eta, 5e4, k, size), full[:size])
        for k in (0, 1, 5):
            kernel = rabi_column(params.eta, params.omega_carrier, k, params.fock_dim - k)
            scalars = [rabi_frequency(params, m, k).value for m in range(params.fock_dim + 3)]
            assert scalars[: kernel.size] == kernel.tolist()

    def test_read_only(self):
        column = rabi_column(0.25, 5e4, 1, 8)
        with pytest.raises(ValueError):
            column[0] = 0.0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            rabi_column(0.25, 5e4, -1, 8)


class TestPulseCoefficient:
    def test_zero_duration(self, params):
        coeff = pulse_coefficient(params, "carrier", 0, 3, 1.2, 0.0)
        assert coeff.c == 0
        assert coeff.c_tilde == 0

    def test_carrier_quarter_period(self, params):
        # phi = pi/2, W_00 t = pi/2: C = -i e^{-i pi/2} = -1
        w = rabi_frequency(params, 0, 0).value
        coeff = pulse_coefficient(params, "carrier", 0, 0, math.pi / 2, (math.pi / 2) / w)
        assert coeff.c == pytest.approx(-1.0, abs=1e-12)
        assert coeff.c_tilde == pytest.approx(1.0, abs=1e-12)

    def test_red_first_order_full_transfer(self, params):
        w = rabi_frequency(params, 0, 1).value
        coeff = pulse_coefficient(params, "red", 1, 0, 0.0, (math.pi / 2) / w)
        assert coeff.c == pytest.approx(1.0, abs=1e-12)
        assert coeff.c_tilde == pytest.approx(-1.0, abs=1e-12)

    @given(
        kind_k=st.sampled_from([("carrier", 0), ("red", 1), ("red", 3), ("blue", 2)]),
        m=st.integers(0, 9),
        phase=st.floats(0, 2 * math.pi),
        duration=st.floats(0, 1e-3),
    )
    def test_algebra(self, kind_k, m, phase, duration):
        kind, k = kind_k
        p = PhysicalParams(eta=0.25, omega_carrier=5e4, fock_dim=16)
        coeff = pulse_coefficient(p, kind, k, m, phase, duration)
        assert coeff.c_tilde == -coeff.c.conjugate()
        w = rabi_frequency(p, m, k).value
        assert abs(coeff.c) == pytest.approx(abs(math.sin(w * duration)), abs=1e-15)
        assert abs(coeff.c) ** 2 + (math.sqrt(1 - abs(coeff.c) ** 2)) ** 2 == pytest.approx(
            1.0, abs=1e-15
        )

    def test_kind_validation(self, params):
        with pytest.raises(ValueError):
            pulse_coefficient(params, "carrier", 1, 0, 0.0, 1e-5)
        with pytest.raises(ValueError):
            pulse_coefficient(params, "red", 0, 0, 0.0, 1e-5)
        with pytest.raises(ValueError):
            pulse_coefficient(params, "green", 1, 0, 0.0, 1e-5)
        with pytest.raises(ValueError):
            pulse_coefficient(params, "carrier", 0, 0, 0.0, -1e-5)
