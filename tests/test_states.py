import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ionpulse import (
    EXCITED,
    GROUND,
    JointState,
    PhysicalParams,
    Pulse,
    PulseSchedule,
    TruncationOverflowError,
    apply_pulse,
    apply_pulse_amplitudes,
    build_hamiltonian,
    fidelity,
    propagate,
    pulse_coefficient,
    rabi_frequency,
    run_schedule,
)

from conftest import random_guarded_amplitudes


# Property tests sweep these: the oracle's ladder series, the reference
# below, stays accurate to about 1e-10 W here.
ETAS = (0.25, 0.9, 1.5)
MAX_DIM = 40


def _quarter(params, m, k):
    """Duration with sin(W_{m,k} t) = 1."""
    return (math.pi / 2) / rabi_frequency(params, m, k).value


class TestJointState:
    def test_ground(self):
        s = JointState.ground(4)
        assert s.dim == 4
        assert s.amplitude(0, GROUND) == 1.0
        assert s.population(0, EXCITED) == 0.0

    def test_fock(self):
        s = JointState.fock(2, 5, internal=EXCITED)
        assert s.population(2, EXCITED) == 1.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            JointState(np.ones(8, dtype=complex))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            JointState(np.ones((2, 2), dtype=complex))
        with pytest.raises(ValueError):
            JointState(np.array([1.0, 0.0, 0.0]))

    def test_amplitudes_read_only(self):
        s = JointState.ground(4)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_populations_shape(self):
        s = JointState.ground(6)
        pops = s.populations()
        assert pops.shape == (6, 2)
        assert pops.sum() == pytest.approx(1.0)


class TestPulse:
    def test_phase_normalized(self):
        p = Pulse.red(1, 2 * math.pi + 0.5, 1e-5)
        assert p.phase == pytest.approx(0.5)

    def test_kind_k_pairing(self):
        with pytest.raises(ValueError):
            Pulse("carrier", 1, 0.0, 1e-5)
        with pytest.raises(ValueError):
            Pulse("red", 0, 0.0, 1e-5)
        with pytest.raises(ValueError):
            Pulse("blue", -1, 0.0, 1e-5)

    def test_negative_duration(self):
        with pytest.raises(ValueError):
            Pulse.carrier(0.0, -1e-6)


class TestCarrier:
    def test_zero_duration_is_identity(self, params, rng):
        amps = random_guarded_amplitudes(rng, params.fock_dim, "carrier", 0)
        state = JointState(amps)
        out = apply_pulse(state, params, Pulse.carrier(1.3, 0.0))
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_quarter_period_flips_with_phase(self, params):
        # |0>|g>, phi = pi/2, W_00 t = pi/2  ->  -|0>|e>
        pulse = Pulse.carrier(math.pi / 2, _quarter(params, 0, 0))
        out = apply_pulse(JointState.ground(params.fock_dim), params, pulse)
        assert out.amplitude(0, EXCITED) == pytest.approx(-1.0, abs=1e-12)
        assert abs(out.amplitude(0, GROUND)) <= 1e-12

    def test_conditional_rotation_differs_per_level(self, params):
        # (|0> + |5>)|g>/sqrt(2): the two components rotate by different angles
        amps = np.zeros(2 * params.fock_dim, dtype=complex)
        amps[2 * 0 + GROUND] = amps[2 * 5 + GROUND] = 1 / math.sqrt(2)
        t = 2e-5
        out = apply_pulse(JointState(amps), params, Pulse.carrier(0.0, t))
        w0 = rabi_frequency(params, 0, 0).value
        w5 = rabi_frequency(params, 5, 0).value
        assert w0 != w5
        assert out.amplitude(0, GROUND) == pytest.approx(math.cos(w0 * t) / math.sqrt(2), abs=1e-12)
        assert out.amplitude(5, GROUND) == pytest.approx(math.cos(w5 * t) / math.sqrt(2), abs=1e-12)
        assert abs(out.amplitude(0, EXCITED)) != pytest.approx(abs(out.amplitude(5, EXCITED)), abs=1e-6)


class TestRed:
    def test_low_levels_invariant(self, params, rng):
        k = 3
        for m in range(k):
            state = JointState.fock(m, params.fock_dim)
            out = apply_pulse(state, params, Pulse.red(k, rng.uniform(0, 2 * math.pi), 1e-4))
            assert out.population(m, GROUND) == pytest.approx(1.0, abs=1e-15)

    def test_full_transfer_phase(self, params):
        # |0>|e> --red-n full transfer--> -(-i)^(n-1) e^{i phi} |n>|g>
        n, phi = 4, 0.8
        state = JointState.fock(0, params.fock_dim, internal=EXCITED)
        out = apply_pulse(state, params, Pulse.red(n, phi, _quarter(params, 0, n)))
        expected = -((-1j) ** (n - 1)) * cmath.exp(1j * phi)
        assert out.amplitude(n, GROUND) == pytest.approx(expected, abs=1e-12)

    def test_zero_duration_is_identity(self, params, rng):
        amps = random_guarded_amplitudes(rng, params.fock_dim, "red", 2)
        out = apply_pulse(JointState(amps), params, Pulse.red(2, 0.7, 0.0))
        np.testing.assert_allclose(out.amplitudes, amps, atol=1e-15)

    def test_guard_violation_raises(self, params):
        state = JointState.fock(params.fock_dim - 1, params.fock_dim, internal=EXCITED)
        with pytest.raises(TruncationOverflowError):
            apply_pulse(state, params, Pulse.red(2, 0.0, 1e-5))


class TestBlue:
    def test_low_excited_invariant(self, params, rng):
        k = 3
        for m in range(k):
            state = JointState.fock(m, params.fock_dim, internal=EXCITED)
            out = apply_pulse(state, params, Pulse.blue(k, rng.uniform(0, 2 * math.pi), 1e-4))
            assert out.population(m, EXCITED) == pytest.approx(1.0, abs=1e-15)

    def test_full_transfer_phase(self, params):
        # |0>|g> --blue-n full transfer--> i^(n-1) e^{-i phi} |n>|e>
        n, phi = 3, 1.1
        pulse = Pulse.blue(n, phi, _quarter(params, 0, n))
        out = apply_pulse(JointState.ground(params.fock_dim), params, pulse)
        expected = (1j) ** (n - 1) * cmath.exp(-1j * phi)
        assert out.amplitude(n, EXCITED) == pytest.approx(expected, abs=1e-12)

    def test_guard_violation_raises(self, params):
        state = JointState.fock(params.fock_dim - 1, params.fock_dim)
        with pytest.raises(TruncationOverflowError):
            apply_pulse(state, params, Pulse.blue(1, 0.0, 1e-5))


def _loop_reference(amps, params, pulse):
    """The pulse as one 2x2 block per pair, built pair by pair."""
    kind, k, dim = pulse.kind, pulse.k, params.fock_dim
    out = np.array(amps, dtype=complex)
    for m in range(dim - k):
        coeff = pulse_coefficient(params, kind, k, m, pulse.phase, pulse.duration)
        survive = math.cos(rabi_frequency(params, m, k).value * pulse.duration)
        lo = 2 * (m + k if kind == "red" else m) + GROUND
        up = 2 * (m + k if kind == "blue" else m) + EXCITED
        out[lo] = survive * amps[lo] + coeff.c_tilde * amps[up]
        out[up] = coeff.c * amps[lo] + survive * amps[up]
    return out


@settings(max_examples=60, deadline=None)
@given(
    kind_k=st.sampled_from([("carrier", 0), ("red", 1), ("red", 4), ("blue", 1), ("blue", 3)]),
    eta=st.sampled_from(ETAS),
    dim=st.integers(6, MAX_DIM),
    phase=st.floats(0, 2 * math.pi),
    duration=st.floats(0, 5e-4),
    seed=st.integers(0, 2**31),
)
def test_kernel_matches_oracle_and_pair_loop(kind_k, eta, dim, phase, duration, seed):
    kind, k = kind_k
    params = PhysicalParams(eta=eta, omega_carrier=5e4, fock_dim=dim)
    amps = random_guarded_amplitudes(np.random.default_rng(seed), dim, kind, k)
    pulse = Pulse(kind, k, phase, duration)
    out = apply_pulse_amplitudes(amps, params, pulse)
    np.testing.assert_allclose(out, _loop_reference(amps, params, pulse), rtol=0, atol=1e-13)
    ham = build_hamiltonian(params, kind, k, pulse.phase)
    oracle = propagate(ham, JointState(amps), duration).amplitudes
    # the oracle's series error at eta = 1.5, D = 40 times t <= 5e-4 s
    np.testing.assert_allclose(out, oracle, rtol=0, atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    kind_k=st.sampled_from([("carrier", 0), ("red", 1), ("red", 4), ("blue", 1), ("blue", 3)]),
    eta=st.sampled_from(ETAS),
    dim=st.integers(6, MAX_DIM),
    phase=st.floats(0, 2 * math.pi),
    duration=st.floats(0, 5e-4),
    seed=st.integers(0, 2**31),
)
def test_unitarity_on_guarded_states(kind_k, eta, dim, phase, duration, seed):
    kind, k = kind_k
    params = PhysicalParams(eta=eta, omega_carrier=5e4, fock_dim=dim)
    rng = np.random.default_rng(seed)
    amps = random_guarded_amplitudes(rng, params.fock_dim, kind, k)
    out = apply_pulse_amplitudes(amps, params, Pulse(kind, k, phase, duration))
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    kind_k=st.sampled_from([("carrier", 0), ("red", 2), ("blue", 1)]),
    eta=st.sampled_from(ETAS),
    dim=st.integers(6, MAX_DIM),
    phase=st.floats(0, 2 * math.pi),
    duration=st.floats(0, 5e-4),
    seed=st.integers(0, 2**31),
)
def test_inverse_pulse_is_phase_shifted_by_pi(kind_k, eta, dim, phase, duration, seed):
    # each 2x2 block is a rotation; shifting the laser phase by pi realizes
    # its inverse with the same duration
    kind, k = kind_k
    params = PhysicalParams(eta=eta, omega_carrier=5e4, fock_dim=dim)
    rng = np.random.default_rng(seed)
    amps = random_guarded_amplitudes(rng, params.fock_dim, kind, k)
    forward = apply_pulse_amplitudes(amps, params, Pulse(kind, k, phase, duration))
    back = apply_pulse_amplitudes(forward, params, Pulse(kind, k, phase + math.pi, duration))
    np.testing.assert_allclose(back, amps, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    kind_k=st.sampled_from([("carrier", 0), ("red", 1), ("blue", 2)]),
    eta=st.sampled_from(ETAS),
    dim=st.integers(6, MAX_DIM),
    seed=st.integers(0, 2**31),
)
def test_linearity_on_raw_vectors(kind_k, eta, dim, seed):
    kind, k = kind_k
    params = PhysicalParams(eta=eta, omega_carrier=5e4, fock_dim=dim)
    rng = np.random.default_rng(seed)
    psi = random_guarded_amplitudes(rng, params.fock_dim, kind, k)
    chi = random_guarded_amplitudes(rng, params.fock_dim, kind, k)
    a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    pulse = Pulse(kind, k, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2e-4))
    lhs = apply_pulse_amplitudes(a * psi + b * chi, params, pulse)
    rhs = a * apply_pulse_amplitudes(psi, params, pulse) + b * apply_pulse_amplitudes(
        chi, params, pulse
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("kind,k", [("red", 1), ("red", 3), ("blue", 2)])
def test_block_structure_couples_only_k_apart(kind, k, params):
    # amplitude moves only between Fock indices differing by exactly k
    for m in range(params.fock_dim - k):
        for s in (GROUND, EXCITED):
            state = JointState.fock(m, params.fock_dim, internal=s)
            out = apply_pulse(state, params, Pulse(kind, k, 0.3, 1.3e-4))
            support = {i // 2 for i in np.nonzero(np.abs(out.amplitudes) > 1e-14)[0]}
            assert all(abs(f - m) in (0, k) for f in support)


class TestRunSchedule:
    def test_zero_durations_keep_initial(self, params):
        schedule = PulseSchedule(
            params,
            (Pulse.carrier(0.3, 0.0), Pulse.red(1, 0.1, 0.0), Pulse.blue(2, 0.9, 0.0)),
        )
        out = run_schedule(JointState.ground(params.fock_dim), schedule)
        assert out.population(0, GROUND) == pytest.approx(1.0, abs=1e-15)

    def test_trace_lengths(self, params):
        schedule = PulseSchedule(
            params, (Pulse.carrier(0.0, 1e-5), Pulse.red(1, 0.0, 1e-5))
        )
        final, trace = run_schedule(JointState.ground(params.fock_dim), schedule, keep_trace=True)
        assert len(trace) == 2
        np.testing.assert_array_equal(trace[-1].amplitudes, final.amplitudes)

    def test_error_carries_pulse_index(self):
        params = PhysicalParams(eta=0.25, omega_carrier=5e4, fock_dim=3)
        schedule = PulseSchedule(
            params,
            (
                Pulse.blue(2, 0.0, (math.pi / 2) / rabi_frequency(params, 0, 2).value),
                Pulse.red(1, 0.0, 1e-4),  # would raise |2>|e> to |3>|g>
            ),
        )
        with pytest.raises(TruncationOverflowError) as excinfo:
            run_schedule(JointState.ground(params.fock_dim), schedule)
        assert excinfo.value.pulse_index == 1

    def test_dim_mismatch(self, params):
        schedule = PulseSchedule(params, (Pulse.carrier(0.0, 1e-5),))
        with pytest.raises(ValueError):
            run_schedule(JointState.ground(params.fock_dim + 1), schedule)


class TestFidelity:
    def test_self_is_one(self, params, rng):
        s = JointState(random_guarded_amplitudes(rng, 8, "carrier", 0))
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_is_zero(self):
        a = JointState.fock(0, 4, internal=GROUND)
        b = JointState.fock(0, 4, internal=EXCITED)
        assert fidelity(a, b) == 0.0

    def test_global_phase_invariance(self, rng):
        amps = random_guarded_amplitudes(rng, 6, "carrier", 0)
        for gamma in (0.1, 1.7, math.pi):
            rotated = JointState(amps * cmath.exp(1j * gamma))
            assert fidelity(JointState(amps), rotated) == pytest.approx(1.0, abs=1e-14)
            assert fidelity(JointState(amps), rotated, up_to_global_phase=False) < 1.0

    def test_exact_phase_detects_sign(self):
        a = JointState.fock(1, 4)
        b = JointState(-a.amplitudes)
        assert fidelity(a, b) == pytest.approx(1.0)
        assert fidelity(a, b, up_to_global_phase=False) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(JointState.ground(4), JointState.ground(5))
