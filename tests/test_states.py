import cmath
import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from ionpulse import (
    EXCITED,
    GROUND,
    BellTarget,
    CoherentTarget,
    JointState,
    ParityCoherentTarget,
    PhaseStateTarget,
    PhysicalParams,
    Pulse,
    PulseSchedule,
    RabiUnderflowError,
    SuperpositionTarget,
    TruncationOverflowError,
    apply_pulse_amplitudes,
    build_hamiltonian,
    compile_target,
    fidelity,
    propagate,
    rabi_column,
    rabi_frequency,
    run_schedule,
)
from ionpulse import states
from ionpulse.core import _column, ipow
from ionpulse.states import _support

from ionpulse.serialization import load_schedule, save_schedule

from conftest import (
    pulse_coefficient,
    random_guarded_amplitudes,
    signed_zero_amplitudes,
)


# Property tests sweep these: the oracle's ladder series, the reference
# below, stays accurate to about 1e-10 W here.
ETAS = (0.25, 0.9, 1.5)
MAX_DIM = 40


def _apply(state, params, pulse):
    """One pulse as a one-pulse schedule, which checks the state's dimension."""
    return run_schedule(state, PulseSchedule(params, (pulse,)))


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

    @pytest.mark.parametrize(
        "args,message",
        [
            ((True, 4), "expected an integer, got True"),
            ((1, 4, True), "expected an integer, got True"),
            ((1.0, 4), "expected an integer, got 1.0"),
            ((1, 4.0), "expected an integer, got 4.0"),
            ((1, 4, 2), "internal index must be 0 (g) or 1 (e), got 2"),
            (("1", 4), "expected an integer, got '1'"),
            ((1, "4"), "expected an integer, got '4'"),
            ((1, 4, "0"), "expected an integer, got '0'"),
            ((4, 4), "Fock index 4 outside truncation 0..3"),
            ((-1, 4), "Fock index -1 outside truncation 0..3"),
        ],
    )
    def test_fock_reads_integers_as_pulses_do(self, args, message):
        # a bool is not read as 1 and a float is no bare numpy IndexError
        with pytest.raises(ValueError) as got:
            JointState.fock(*args)
        assert str(got.value) == message

    @pytest.mark.parametrize(
        "args,message",
        [
            ((-2, 0), "Fock index -2 outside truncation 0..4"),
            ((5, 0), "Fock index 5 outside truncation 0..4"),
            ((1, 2), "internal index must be 0 (g) or 1 (e), got 2"),
            ((True, 0), "expected an integer, got True"),
            ((3.0, 0), "expected an integer, got 3.0"),
            ((3, 1.0), "expected an integer, got 1.0"),
        ],
    )
    @pytest.mark.parametrize("read", ["amplitude", "population"])
    def test_amplitude_reads_its_indices_as_fock_does(self, read, args, message):
        # a negative m wrapped to the top level, s = 2 read the next level's
        # |g>, a bool read m = 1, and a float or m = dim was numpy's IndexError
        with pytest.raises(ValueError) as got:
            getattr(JointState.fock(3, 5), read)(*args)
        assert str(got.value) == message

    def test_fock_takes_numpy_integers(self):
        s = JointState.fock(np.int64(1), np.int32(4), np.int8(EXCITED))
        assert np.array_equal(s.amplitudes, JointState.fock(1, 4, EXCITED).amplitudes)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            JointState(np.ones(8, dtype=complex))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="norm"):
            JointState([math.nan, 1.0, 0.0, 0.0])

    # strings and bools were cast to complex and built |0>|g>; a list mixing
    # bools with floats numpy reads as floats, so it is not refused
    @pytest.mark.parametrize(
        "amps",
        [["1", "0", "0", "0"], [True, False, False, False], [b"1", b"0", b"0", b"0"],
         np.array([1.0, 0.0, 0.0, 0.0], dtype=object), [None, 1.0, 0.0, 0.0]],
        ids=["str", "bool", "bytes", "object", "none"],
    )
    def test_rejects_amplitudes_that_are_not_numbers(self, amps):
        with pytest.raises(ValueError, match="amplitudes must be numbers, got dtype"):
            JointState(amps)

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
        p = Pulse("red", 1, 2 * math.pi + 0.5, 1e-5)
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
            Pulse("carrier", 0, 0.0, -1e-6)

    @pytest.mark.parametrize(
        "phase,duration,message",
        [(0.0, math.nan, "duration must be finite"), (math.inf, 1e-5, "phase must be finite")],
    )
    def test_non_finite_field_refused(self, phase, duration, message):
        with pytest.raises(ValueError, match=message):
            Pulse("carrier", 0, phase, duration)

    @pytest.mark.parametrize("k", [2.0, True, "2"])
    def test_non_integer_order_refused(self, k):
        with pytest.raises(ValueError, match="expected an integer"):
            Pulse("red", k, 0.0, 1e-5)

    def test_numpy_integer_order_stored_as_int(self, params, tmp_path):
        pulse = Pulse("red", np.int64(2), 0.0, 1e-5)
        assert type(pulse.k) is int
        # the schedule file is JSON, which has no numpy integers
        save_schedule(str(tmp_path / "s.json"), PulseSchedule(params, (pulse,)))

    @pytest.mark.parametrize("real", [np.float32, np.float64, int], ids=lambda t: t.__name__)
    def test_real_fields_stored_as_float(self, real, tmp_path):
        params = PhysicalParams(real(1), real(50000), 4)
        schedule = PulseSchedule(params, (Pulse("red", 1, real(2), real(1)),))
        pulse = schedule.pulses[0]
        for value in (params.eta, params.omega_carrier, pulse.phase, pulse.duration):
            assert type(value) is float
        # JSON has no numpy floats, and a bool would be written as true
        save_schedule(str(tmp_path / "s.json"), schedule)
        assert load_schedule(str(tmp_path / "s.json")) == schedule

    @pytest.mark.parametrize("value", [True, "1e-5"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: PhysicalParams(v, 5e4, 4),
            lambda v: PhysicalParams(0.25, v, 4),
            lambda v: Pulse("red", 1, v, 1e-5),
            lambda v: Pulse("red", 1, 0.0, v),
        ],
        ids=["eta", "omega_carrier", "phase", "duration"],
    )
    def test_non_number_real_field_refused(self, build, value):
        with pytest.raises(ValueError, match="expected a number"):
            build(value)


class TestCarrier:
    def test_zero_duration_is_identity(self, params, rng):
        amps = random_guarded_amplitudes(rng, params.fock_dim, "carrier", 0)
        state = JointState(amps)
        out = _apply(state, params, Pulse("carrier", 0, 1.3, 0.0))
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_quarter_period_flips_with_phase(self, params):
        # |0>|g>, phi = pi/2, W_00 t = pi/2  ->  -|0>|e>
        pulse = Pulse("carrier", 0, math.pi / 2, _quarter(params, 0, 0))
        out = _apply(JointState.ground(params.fock_dim), params, pulse)
        assert out.amplitude(0, EXCITED) == pytest.approx(-1.0, abs=1e-12)
        assert abs(out.amplitude(0, GROUND)) <= 1e-12

    def test_conditional_rotation_differs_per_level(self, params):
        # (|0> + |5>)|g>/sqrt(2): the two components rotate by different angles
        amps = np.zeros(2 * params.fock_dim, dtype=complex)
        amps[2 * 0 + GROUND] = amps[2 * 5 + GROUND] = 1 / math.sqrt(2)
        t = 2e-5
        out = _apply(JointState(amps), params, Pulse("carrier", 0, 0.0, t))
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
            out = _apply(state, params, Pulse("red", k, rng.uniform(0, 2 * math.pi), 1e-4))
            assert out.population(m, GROUND) == pytest.approx(1.0, abs=1e-15)

    def test_full_transfer_phase(self, params):
        # |0>|e> --red-n full transfer--> -(-i)^(n-1) e^{i phi} |n>|g>
        n, phi = 4, 0.8
        state = JointState.fock(0, params.fock_dim, internal=EXCITED)
        out = _apply(state, params, Pulse("red", n, phi, _quarter(params, 0, n)))
        expected = -((-1j) ** (n - 1)) * cmath.exp(1j * phi)
        assert out.amplitude(n, GROUND) == pytest.approx(expected, abs=1e-12)

    def test_zero_duration_is_identity(self, params, rng):
        amps = random_guarded_amplitudes(rng, params.fock_dim, "red", 2)
        out = _apply(JointState(amps), params, Pulse("red", 2, 0.7, 0.0))
        np.testing.assert_allclose(out.amplitudes, amps, atol=1e-15)

    def test_guard_violation_raises(self, params):
        state = JointState.fock(params.fock_dim - 1, params.fock_dim, internal=EXCITED)
        with pytest.raises(TruncationOverflowError):
            _apply(state, params, Pulse("red", 2, 0.0, 1e-5))


class TestBlue:
    def test_low_excited_invariant(self, params, rng):
        k = 3
        for m in range(k):
            state = JointState.fock(m, params.fock_dim, internal=EXCITED)
            out = _apply(state, params, Pulse("blue", k, rng.uniform(0, 2 * math.pi), 1e-4))
            assert out.population(m, EXCITED) == pytest.approx(1.0, abs=1e-15)

    def test_full_transfer_phase(self, params):
        # |0>|g> --blue-n full transfer--> i^(n-1) e^{-i phi} |n>|e>
        n, phi = 3, 1.1
        pulse = Pulse("blue", n, phi, _quarter(params, 0, n))
        out = _apply(JointState.ground(params.fock_dim), params, pulse)
        expected = (1j) ** (n - 1) * cmath.exp(-1j * phi)
        assert out.amplitude(n, EXCITED) == pytest.approx(expected, abs=1e-12)

    def test_guard_violation_raises(self, params):
        state = JointState.fock(params.fock_dim - 1, params.fock_dim)
        with pytest.raises(TruncationOverflowError):
            _apply(state, params, Pulse("blue", 1, 0.0, 1e-5))


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
            out = _apply(state, params, Pulse(kind, k, 0.3, 1.3e-4))
            support = {i // 2 for i in np.nonzero(np.abs(out.amplitudes) > 1e-14)[0]}
            assert all(abs(f - m) in (0, k) for f in support)


class TestRunSchedule:
    def test_zero_durations_keep_initial(self, params):
        schedule = PulseSchedule(
            params,
            (Pulse("carrier", 0, 0.3, 0.0), Pulse("red", 1, 0.1, 0.0), Pulse("blue", 2, 0.9, 0.0)),
        )
        out = run_schedule(JointState.ground(params.fock_dim), schedule)
        assert out.population(0, GROUND) == pytest.approx(1.0, abs=1e-15)

    def test_trace_lengths(self, params):
        schedule = PulseSchedule(
            params, (Pulse("carrier", 0, 0.0, 1e-5), Pulse("red", 1, 0.0, 1e-5))
        )
        final, trace = run_schedule(JointState.ground(params.fock_dim), schedule, keep_trace=True)
        assert len(trace) == 2
        np.testing.assert_array_equal(trace[-1].amplitudes, final.amplitudes)

    def test_error_carries_pulse_index(self):
        params = PhysicalParams(eta=0.25, omega_carrier=5e4, fock_dim=3)
        schedule = PulseSchedule(
            params,
            (
                Pulse("blue", 2, 0.0, (math.pi / 2) / rabi_frequency(params, 0, 2).value),
                Pulse("red", 1, 0.0, 1e-4),  # would raise |2>|e> to |3>|g>
            ),
        )
        with pytest.raises(TruncationOverflowError) as excinfo:
            run_schedule(JointState.ground(params.fock_dim), schedule)
        assert excinfo.value.pulse_index == 1

    def test_dim_mismatch(self, params):
        schedule = PulseSchedule(params, (Pulse("carrier", 0, 0.0, 1e-5),))
        with pytest.raises(ValueError):
            run_schedule(JointState.ground(params.fock_dim + 1), schedule)


def _dense_reference(amps, params, pulses):
    """Every pulse rotates all of its D - k pairs, one 2x2 block each, by the
    kernel's expression, and scans its guard cells; the state after each pulse.
    An underflowing coupling raises where its pair holds amplitude and turns
    a pair of zeros by no angle."""
    amps, dim, states = np.array(amps, dtype=complex), params.fock_dim, []
    for i, p in enumerate(pulses):
        pairs, s = max(dim - p.k, 0), EXCITED if p.kind == "red" else GROUND
        bad = np.flatnonzero(np.abs(amps[2 * pairs + s :: 2]) > 1e-12)
        if p.kind != "carrier" and bad.size:
            raise TruncationOverflowError(
                f"{p.kind} k={p.k} pulse would push |{pairs + bad[0]}>|{'ge'[s]}> past truncation "
                f"D={dim}; increase fock_dim",
                pulse_index=i,
            )
        lo = 2 * (np.arange(pairs) + p.k * (p.kind == "red")) + GROUND
        up = 2 * (np.arange(pairs) + p.k * (p.kind == "blue")) + EXCITED
        column, lost = _column(params.eta, params.omega_carrier, p.k, pairs)
        for m, log_mag in lost.items():
            if amps[lo[m]] or amps[up[m]]:
                raise RabiUnderflowError(m, p.k, log_mag, pulse_index=i)
        angle = np.where(np.isnan(column), 0.0, column) * p.duration
        sin, cos = np.sin(angle), np.cos(angle)
        c = (-1j if p.kind == "carrier" else ipow(p.k - 1)) * cmath.exp(-1j * p.phase)
        a_lo, a_up = amps[lo], amps[up]
        amps[lo] = cos * a_lo - (c.conjugate() * sin) * a_up
        amps[up] = (c * sin) * a_lo + cos * a_up
        states.append(amps.copy())
    return states


def _start(name, dim, rng):
    """|0>|g>; a random state on the levels below dim / 3 in g and e; or a
    random state on every level, below the guard tolerance on the top three."""
    if name == "ground":
        return JointState.ground(dim).amplitudes
    amps = rng.normal(size=2 * dim) + 1j * rng.normal(size=2 * dim)
    if name == "mid_ladder":
        amps[2 * (dim // 3) :] = 0.0
    else:
        amps[2 * (dim - 3) :] *= 1e-14
    return amps / np.linalg.norm(amps)


def _mixed_schedule(params, rng, size, max_k=3):
    """Red, blue and carrier pulses of orders 0-max_k; at 3 orders repeat."""
    kinds = ("carrier", "red", "blue")
    pulses = []
    for kind in rng.choice(kinds, size=size):
        k = 0 if kind == "carrier" else int(rng.integers(1, max_k + 1))
        pulses.append(Pulse(str(kind), k, rng.uniform(0, 2 * math.pi), rng.uniform(0, 3e-4)))
    return PulseSchedule(params, tuple(pulses))


def _fitting_schedule(params, rng, size, amps):
    """Red, blue and carrier pulses whose sideband orders the support can take:
    each below D less the top level of the cells its guard scans, above the
    guard tolerance in amps and moved by the pulses before it as the support
    bound moves (the module docstring of states).  A sideband that no order
    fits is a carrier."""
    dim, pulses = params.fock_dim, []
    top_g, top_e = (int(np.flatnonzero(np.abs(amps[s::2]) > 1e-12).max(initial=-1)) for s in (0, 1))
    for kind in rng.choice(("carrier", "red", "blue"), size=size).tolist():
        guard = top_e if kind == "red" else top_g
        if kind == "carrier" or guard >= dim - 1:
            kind, k = "carrier", 0
        else:
            k = int(rng.integers(1, dim - max(guard, 0)))
        k_g, k_e = k * (kind == "red"), k * (kind == "blue")
        n = max(min(max(top_g - k_g, top_e - k_e) + 1, dim - k), 0)
        top_g, top_e = (max(top_g, n - 1 + k_g), max(top_e, n - 1 + k_e)) if n else (top_g, top_e)
        pulses.append(Pulse(kind, k, rng.uniform(0, 2 * math.pi), rng.uniform(0, 3e-4)))
    return PulseSchedule(params, tuple(pulses))


def _matches_dense_reference(amps, schedule) -> str:
    """Assert that every state of run_schedule's trace equals the dense
    reference's, or that both raise the same error type, message and
    pulse index; return what was compared."""
    try:
        want = _dense_reference(amps, schedule.params, schedule.pulses)
    except (TruncationOverflowError, RabiUnderflowError) as err:
        with pytest.raises(type(err)) as got:
            run_schedule(JointState(amps), schedule, keep_trace=True)
        index = getattr(got.value, "pulse_index", None)
        assert (type(got.value), str(got.value), index) == (
            type(err), str(err), getattr(err, "pulse_index", None)
        )
        return type(err).__name__
    final, trace = run_schedule(JointState(amps), schedule, keep_trace=True)
    assert len(trace) == len(want)
    for state, expected in zip(trace + [final], want + want[-1:]):
        np.testing.assert_array_equal(state.amplitudes, expected)
    return "states"


class TestSupportBoundedKernel:
    """The kernel rotates only the pairs the support bound lets hold amplitude;
    a dense reference that rotates every pair must agree with it exactly."""

    @pytest.mark.parametrize("start", ["ground", "mid_ladder", "full_support"])
    @pytest.mark.parametrize("eta", [0.25, 0.9, 1.5])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_reference_with_trace(self, start, eta, seed):
        rng = np.random.default_rng(seed)
        params = PhysicalParams(eta=eta, omega_carrier=5e4, fock_dim=int(rng.integers(8, 40)))
        schedule = _mixed_schedule(params, rng, int(rng.integers(1, 25)))
        _matches_dense_reference(_start(start, params.fock_dim, rng), schedule)

    # eta log-uniform over four decades and orders up to D - 1 that the support
    # can take: huge angles on empty pairs and, at small eta, coupling
    # underflows; one example in eight draws any order up to D - 1, and most
    # of those overflow the truncation
    @settings(max_examples=400, deadline=None)
    @given(
        log_eta=st.floats(math.log(1e-3), math.log(30.0)),
        dim=st.integers(6, 160),
        start=st.sampled_from(["ground", "mid_ladder", "full_support", "underflow"]),
        size=st.integers(1, 24),
        seed=st.integers(0, 2**31),
    )
    def test_matches_dense_reference_over_a_wide_range(self, log_eta, dim, start, size, seed):
        rng = np.random.default_rng(seed)
        eta = min(math.exp(log_eta), 30.0)
        if start == "underflow":  # where every W_{m,k} of the top 20 orders underflows
            eta, dim = min(eta, 1e-2), max(dim, 140)
        params = PhysicalParams(eta=eta, omega_carrier=5e4, fock_dim=dim)
        amps = _start(start, dim, rng)
        if rng.integers(8):
            schedule = _fitting_schedule(params, rng, size, amps)
        else:
            schedule = _mixed_schedule(params, rng, size, max_k=dim - 1)
        if start == "underflow":
            # a red pulse of one of those orders goes first, on all amplitude in
            # |m>|e> of a pair m whose coupling underflows: the kernel raises there
            k = dim - 1 - int(rng.integers(20))
            m = int(rng.choice(sorted(_column(eta, params.omega_carrier, k, dim - k)[1])))
            schedule = PulseSchedule(params, (Pulse("red", k, 0.3, 1e-4), *schedule.pulses))
            amps = JointState.fock(m, dim, EXCITED).amplitudes
        event(_matches_dense_reference(amps, schedule))

    @pytest.mark.parametrize("eta", [0.25, 0.9, 1.5, 3.0])
    @pytest.mark.parametrize("n_max,dim", [(5, 7), (20, 62), (60, 182)])
    def test_ladder_matches_dense_reference(self, eta, n_max, dim):
        params = PhysicalParams(eta=eta, omega_carrier=5e4, fock_dim=dim)
        rng = np.random.default_rng(n_max)
        c = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
        schedule = compile_target(SuperpositionTarget(c / np.linalg.norm(c)), params).schedule
        for start in ("ground", "mid_ladder"):
            amps = _start(start, dim, rng)
            want = _dense_reference(amps, params, schedule.pulses)[-1]
            np.testing.assert_array_equal(run_schedule(JointState(amps), schedule).amplitudes, want)

    def test_overflow_carries_the_pulse_index_and_message(self):
        params = PhysicalParams(eta=0.25, omega_carrier=5e4, fock_dim=6)
        quarter = (math.pi / 2) / rabi_frequency(params, 0, 3).value
        # blue 3 lifts |0>|g> to |3>|e>; the red 3 after it would push that to |6>|g>
        pulses = (Pulse("carrier", 0, 0.0, 0.0), Pulse("blue", 3, 0.0, quarter),
                  Pulse("red", 1, 0.2, 1e-5), Pulse("red", 3, 0.0, 1e-5),
                  Pulse("carrier", 0, 0.1, 1e-5))
        ground = JointState.ground(params.fock_dim)
        with pytest.raises(TruncationOverflowError) as want:
            _dense_reference(ground.amplitudes, params, pulses)
        with pytest.raises(TruncationOverflowError) as got:
            run_schedule(ground, PulseSchedule(params, pulses))
        assert got.value.pulse_index == want.value.pulse_index == 3
        assert str(got.value) == str(want.value)

    def test_underflow_is_raised_where_its_pulse_comes_up(self):
        # W_{m,120} underflows at eta = 1e-3; pulses of three orders go in one run
        params = PhysicalParams(eta=1e-3, omega_carrier=5e4, fock_dim=125)
        with pytest.raises(RabiUnderflowError):
            rabi_column(params.eta, params.omega_carrier, 120, 5)
        top = JointState.fock(params.fock_dim - 1, params.fock_dim, internal=EXCITED)
        guarded = PulseSchedule(params, (Pulse("carrier", 0, 0.0, 1e-5), Pulse("red", 1, 0.0, 1e-5),
                                         Pulse("red", 120, 0.0, 1e-5)))
        with pytest.raises(TruncationOverflowError) as got:
            run_schedule(top, guarded)
        assert got.value.pulse_index == 1
        with pytest.raises(RabiUnderflowError):
            run_schedule(JointState.ground(params.fock_dim), guarded)

    @pytest.mark.parametrize("start", ["ground", "mid_ladder", "full_support"])
    def test_one_pulse_call_matches_a_one_pulse_schedule(self, start):
        rng = np.random.default_rng(7)
        params = PhysicalParams(eta=0.9, omega_carrier=5e4, fock_dim=30)
        amps = _start(start, params.fock_dim, rng)
        for pulse in _mixed_schedule(params, rng, 12).pulses:
            try:
                want = _apply(JointState(amps), params, pulse).amplitudes
            except TruncationOverflowError as err:
                with pytest.raises(TruncationOverflowError) as got:
                    apply_pulse_amplitudes(amps, params, pulse, pulse_index=5)
                assert (str(got.value), got.value.pulse_index) == (str(err), 5)
                continue
            np.testing.assert_array_equal(apply_pulse_amplitudes(amps, params, pulse), want)

    @pytest.mark.parametrize("phase", [0.0, math.pi / 2, 1.0])
    @pytest.mark.parametrize("kind,k", [("carrier", 0), ("red", 1), ("red", 3), ("blue", 2)])
    def test_signed_zeros_match_dense_reference_bit_for_bit(self, kind, k, phase):
        # a raw vector whose parts are +-0.0 or +-1, empty in the pulse's
        # guard cells and nonzero at the top, so that the bound covers every
        # pair; each amplitude matches the reference bit for bit, -0.0 included
        params = PhysicalParams(eta=0.9, omega_carrier=5e4, fock_dim=120)
        amps = signed_zero_amplitudes(np.random.default_rng(k), 240)
        guard = EXCITED if kind == "red" else GROUND
        if kind != "carrier":
            amps[2 * (params.fock_dim - k) + guard :: 2] = 0.0
        amps[-2 + (1 - guard)] = 1.0
        pulse = Pulse(kind, k, phase, 1e-4)
        got = apply_pulse_amplitudes(amps, params, pulse)
        want = _dense_reference(amps, params, [pulse])[0]
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("kind,k", [("red", 8), ("blue", 8), ("red", 9)])
    def test_one_pulse_call_refuses_an_order_past_the_truncation(self, kind, k):
        # the one-pulse PulseSchedule, which the one-pulse call runs and
        # build_hamiltonian builds, owns the rule and its message: red 8 at
        # D = 8 has no pair
        params = PhysicalParams(eta=0.25, omega_carrier=5e4, fock_dim=8)
        with pytest.raises(ValueError) as owner:
            PulseSchedule(params, (Pulse(kind, k, 0.3, 1e-5),))
        assert str(owner.value) == f"pulse 0: sideband order k={k} needs k < fock_dim=8"
        ground = JointState.ground(params.fock_dim).amplitudes
        for call in (lambda: apply_pulse_amplitudes(ground, params, Pulse(kind, k, 0.3, 1e-5)),
                     lambda: build_hamiltonian(params, kind, k, 0.3)):
            with pytest.raises(ValueError) as got:
                call()
            assert (type(got.value), str(got.value)) == (ValueError, str(owner.value))

    @pytest.mark.parametrize("index", [0, 2])
    def test_schedule_refuses_an_angle_past_the_double_range(self, index):
        # every |W_{m,k}| <= W/2, so W/2 * duration bounds each angle: past the
        # double range the kernel's sin and cos once read inf and gave NaN
        params = PhysicalParams(eta=0.25, omega_carrier=5e4, fock_dim=4)
        pulses = [Pulse("carrier", 0, 0.0, 1e-5)] * 3
        pulses[index] = Pulse("carrier", 0, 0.0, 1e308)
        with pytest.raises(ValueError) as got:
            PulseSchedule(params, pulses)
        assert str(got.value) == (f"pulse {index}: angle W/2 * duration overflows a double, "
                                  "duration_s=1e+308")
        PulseSchedule(params, [Pulse("carrier", 0, 0.0, 7e303)])  # W/2 * 7e303 = 1.75e308

    @pytest.mark.parametrize("shape", [(14,), (10,), (3, 4), (12, 1)])
    def test_one_pulse_call_refuses_a_vector_of_another_shape(self, shape):
        # _support's rule, the schedule loops' own; a (3, 4) array has the
        # right size, and its message names the shape it got
        params = PhysicalParams(eta=0.25, omega_carrier=5e4, fock_dim=6)
        amps = np.zeros(shape, dtype=complex)
        amps.flat[0] = 1.0
        with pytest.raises(ValueError) as got:
            apply_pulse_amplitudes(amps, params, Pulse("red", 1, 0.0, 1e-5))
        assert str(got.value) == f"initial state shape {shape} != (12,) for fock_dim 6"

    def test_empty_pairs_keep_positive_zeros(self):
        # pairs past the support bound are not rotated, so their zeros stay +0.0;
        # rotating them would leave -0.0 in some of them here
        params = PhysicalParams(eta=0.25, omega_carrier=5e4, fock_dim=10)
        pulses = (Pulse("carrier", 0, 2.0, 1e-4), Pulse("red", 1, 4.0, 7e-5))
        schedule = PulseSchedule(params, pulses)
        out = run_schedule(JointState.ground(params.fock_dim), schedule).amplitudes.view(float)
        assert not np.signbit(out[out == 0.0]).any()


def _dense_support(amps, dim, pulses):
    """Each pulse's pair count, from an exact mask of the levels that can hold
    amplitude (the nonzero entries, then every member of a pair counted): the
    top pair with a member that can, plus one, or every pair of the pulse when
    one of its guard cells (the levels its pairs would push past D) can.  Also
    whether each pulse's guard cells can hold amplitude."""
    can = [amps[s::2] != 0 for s in (GROUND, EXCITED)]
    sizes, scans = [], []
    for p in pulses:
        lo, up = p.k * (p.kind == "red"), p.k * (p.kind == "blue")
        m = np.arange(dim - p.k)
        scans.append(bool(can[EXCITED if p.kind == "red" else GROUND][dim - p.k :].any()))
        holds = np.full(m.size, scans[-1]) | can[GROUND][m + lo] | can[EXCITED][m + up]
        sizes.append(int(np.flatnonzero(holds).max(initial=-1)) + 1)
        can[GROUND][m[holds] + lo] = can[EXCITED][m[holds] + up] = True
    return sizes, scans


class TestOneSupportRule:
    """states._support is the one support bound: the kernel rotates, and the
    oracle builds, the pairs it counts."""

    @pytest.mark.parametrize("start", ["ground", "third_excited", "half_support", "full_support"])
    def test_counts_the_pairs_that_can_hold_amplitude(self, start):
        # 60 seeded schedules of repeated orders up to D - 1, each from the start;
        # only the bound is taken, so no guard check limits the orders
        for seed in range(60):
            rng = np.random.default_rng(seed)
            dim = int(rng.integers(6, 80))
            orders = rng.choice(np.arange(1, dim), size=3).tolist()
            pulses = []
            for kind in rng.choice(("carrier", "red", "blue"), size=int(rng.integers(1, 40))):
                k = 0 if kind == "carrier" else int(rng.choice(orders))
                pulses.append(Pulse(str(kind), k, 0.0, 1e-5))
            amps = np.zeros(2 * dim, dtype=complex)
            if start == "ground":
                amps[0] = 1.0
            elif start == "third_excited":
                amps[2 * (dim // 3) + EXCITED] = 1.0
            else:  # random on the levels below D / 2 with holes, or on every level
                top = dim // 2 if start == "half_support" else dim
                amps[: 2 * top] = rng.normal(size=2 * top) * (rng.random(2 * top) < 0.6)
                amps[2 * top - 1] = 1.0
            sizes, plan, width, _ = _support(amps, dim, pulses)
            want, scans = _dense_support(amps, dim, pulses)
            assert sizes == want and width == max(want), seed
            assert [scan for _, _, scan in plan] == scans, seed
            assert [(lo, up) for lo, up, _ in plan] == [
                (p.k * (p.kind == "red"), p.k * (p.kind == "blue")) for p in pulses
            ]


def _reservoir_calls(monkeypatch) -> list:
    """What each call of states._reservoir returns, in order, from now on."""
    calls, reservoir = [], states._reservoir

    def spy(*args):
        calls.append(reservoir(*args))
        return calls[-1]

    monkeypatch.setattr(states, "_reservoir", spy)
    return calls


def _same_bits(got, want):
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _ladder_target(family, n):
    """A target of a family that compiles to a carrier and red deposits, top level n."""
    c = (1.0, 1j) @ np.random.default_rng(n).normal(size=(2, n + 1))
    return {
        "phase_state": lambda: PhaseStateTarget(n, 0.3),
        "superposition": lambda: SuperpositionTarget(tuple(c / np.linalg.norm(c))),
        "coherent": lambda: CoherentTarget(1.1 - 0.7j, n),
        "even_coherent": lambda: ParityCoherentTarget(0.9j, n, "even"),
        "odd_coherent": lambda: ParityCoherentTarget(1.3, n, "odd"),
        "bell": BellTarget,
    }[family]()


class TestReservoirRuns:
    """A run whose pulses after the first turn one shared upper member against
    distinct empty lower members (every ladder from |0>|g>) goes through
    states._reservoir at once; it must match the per-pulse loop, which a trace
    keeps, and the dense reference bit for bit, and every other run falls back."""

    def _check(self, amps, schedule):
        """Run schedule from amps without and with a trace (which keeps the loop),
        bit for bit, and against the dense reference, bit for bit where a part is
        nonzero (its rotated empty pairs may hold -0.0); the final amplitudes."""
        got = run_schedule(JointState(amps), schedule).amplitudes
        _same_bits(got, run_schedule(JointState(amps), schedule, keep_trace=True)[0].amplitudes)
        want = (_dense_reference(amps, schedule.params, schedule.pulses) or [amps])[-1].view(float)
        np.testing.assert_array_equal(got.view(float), want)
        _same_bits(got.view(float)[want != 0.0], want[want != 0.0])
        return got

    @pytest.mark.parametrize("family", ["phase_state", "superposition", "coherent",
                                        "even_coherent", "odd_coherent", "bell"])
    @pytest.mark.parametrize("eta", [0.25, 0.9, 1.5, 3.0])
    def test_ladders_take_the_path_bit_for_bit(self, family, eta, monkeypatch):
        calls = _reservoir_calls(monkeypatch)
        for n in (1, 2, 3, 8, 21, 55, 80):
            target = _ladder_target(family, n)
            for dim in (n + 2, 3 * n + 2):
                schedule = compile_target(target, PhysicalParams(eta, 5e4, dim)).schedule
                calls.clear()
                self._check(JointState.ground(dim).amplitudes, schedule)
                # the untraced run alone calls it, once: a ladder from |0>|g> is one run
                assert calls == ([True] if len(schedule.pulses) > 1 else []), (n, dim)

    def test_a_reservoir_with_an_exact_zero_part_falls_back(self, monkeypatch):
        # a carrier at laser phase 0 leaves -i sin(W t) in |0>|e>: its real part is
        # an exact zero, which the loop's added +-0 could sign otherwise
        params = PhysicalParams(eta=0.25, omega_carrier=5e4, fock_dim=12)
        ladder = compile_target(PhaseStateTarget(9, 0.3), params).schedule.pulses
        pulses = (Pulse("carrier", 0, 0.0, ladder[0].duration), *ladder[1:])
        schedule, ground = PulseSchedule(params, pulses), JointState.ground(params.fock_dim)
        calls = _reservoir_calls(monkeypatch)
        self._check(ground.amplitudes, schedule)
        assert calls == [False]
        assert run_schedule(ground, schedule, keep_trace=True)[1][0].amplitude(0, EXCITED).real == 0

    def test_a_seeded_deposit_level_keeps_the_loop(self, monkeypatch):
        # amplitude in |5>|g> widens the bound past one pair a pulse
        params = PhysicalParams(eta=0.9, omega_carrier=5e4, fock_dim=92)
        schedule = compile_target(PhaseStateTarget(30, 0.3), params).schedule
        amps = JointState.ground(params.fock_dim).amplitudes.copy()
        amps[2 * 5 + GROUND] = 1e-3j
        calls = _reservoir_calls(monkeypatch)
        self._check(amps / np.linalg.norm(amps), schedule)
        assert calls == []

    def test_an_underflow_keeps_the_loop(self, monkeypatch):
        # W_{0,400} underflows at eta = 0.25: the loop raises at pulse 1
        params = PhysicalParams(eta=0.25, omega_carrier=5e4, fock_dim=402)
        pulses = (Pulse("carrier", 0, 0.3, 1e-5), Pulse("blue", 400, 0.0, 1e-3))
        ground = JointState.ground(params.fock_dim)
        calls = _reservoir_calls(monkeypatch)
        with pytest.raises(RabiUnderflowError) as want:
            _dense_reference(ground.amplitudes, params, pulses)
        with pytest.raises(RabiUnderflowError) as got:
            run_schedule(ground, PulseSchedule(params, pulses))
        assert (str(got.value), got.value.pulse_index) == (str(want.value), 1)
        assert calls == []

    def test_runs_of_three_each_take_the_path(self, monkeypatch):
        # 40 pulses in runs of 3: each run's first pulse goes through the loop
        # and its other two through the path; the last run, one pulse, the loop alone
        params = PhysicalParams(eta=1.5, omega_carrier=5e4, fock_dim=119)
        schedule = compile_target(PhaseStateTarget(39, 0.3), params).schedule
        ground = JointState.ground(params.fock_dim)
        one_run = run_schedule(ground, schedule).amplitudes
        monkeypatch.setattr(states, "RUN_PAIRS", 3)
        calls = _reservoir_calls(monkeypatch)
        _same_bits(self._check(ground.amplitudes, schedule), one_run)
        assert calls == [True] * 13

    @pytest.mark.parametrize("plans", [
        ((1, 0, False), (2, 0, False), (3, 0, True)),  # a guard scan
        ((1, 0, False), (2, 1, False), (3, 0, False)),  # another upper member
        ((1, 0, False), (2, 0, False), (1, 0, False)),  # a lower member twice
        ((1, 0, False), (4, 0, False), (3, 0, False)),  # amplitude in |4>|g>
    ])
    def test_other_pulses_are_refused_untouched(self, plans):
        amps = np.zeros(12, dtype=complex)
        amps[0 + EXCITED], amps[2 * 4 + GROUND] = 0.6 - 0.6j, 0.1 + 0.2j
        before = amps.copy()
        cos, back = np.full(3, 0.5 + 0j), np.full(3, 0.3 - 0.1j)
        assert states._reservoir(amps, plans, cos, back) is False
        _same_bits(amps, before)


def _awkward(rng, size):
    """Complex values whose parts are random, +-0.0, +-1.0 or subnormal."""
    parts = rng.normal(size=(2, size))
    odd = rng.random((2, size)) < 0.4
    parts[odd] = rng.choice([0.0, -0.0, 1.0, -1.0, 5e-324, -2.5e-310], size=odd.sum())
    z = np.empty(size, dtype=complex)
    z.real, z.imag = parts
    return z


def test_complex_products_round_alike_in_every_layout():
    # the kernel multiplies by a real cosine cast to complex; the oracle
    # multiplies a run's interleaved coefficients, that cosine among them, by
    # gathered amplitudes one pulse's slice at a time, and adds and subtracts
    # strided views of the products.  The expressions they are pinned to
    # multiply whole vectors by a real or a complex factor, so bit-identity
    # needs numpy to round each product alike in every layout and at every
    # offset, zeros of either sign and subnormals included.
    rng = np.random.default_rng(21)
    n = 5000
    x, y = _awkward(rng, 2 * n).reshape(2, n), _awkward(rng, 2 * n).reshape(2, n)
    cos = _awkward(rng, n).real

    def bits(z):
        return np.ascontiguousarray(z).view(np.uint64)

    want = bits(x[0] * y[0])
    np.testing.assert_array_equal(bits(np.repeat(x[0], 2)[::2] * np.repeat(y[0], 2)[::2]), want)
    np.testing.assert_array_equal(bits((x[0][::-1] * y[0][::-1])[::-1]), want)
    # slices of one interleaved product, at every offset and of 1-7 pairs
    coeffs = np.stack((cos, x[0], x[1], cos), axis=-1).ravel()
    amps = np.stack((y[0], y[1], y[0], y[1]), axis=-1).ravel()
    ends = np.cumsum(rng.integers(1, 8, size=n))
    ends = [0, *ends[ends < n].tolist(), n]
    terms = np.concatenate(
        [coeffs[4 * a : 4 * b] * amps[4 * a : 4 * b] for a, b in zip(ends, ends[1:])]
    )
    for column, product in enumerate((cos * y[0], x[0] * y[1], x[1] * y[0], cos * y[1])):
        np.testing.assert_array_equal(bits(terms[column::4]), bits(product))
    # sums and differences of strided views, as of contiguous vectors
    new = terms[0::2] + terms[1::2]
    np.subtract(terms[0::4], terms[1::4], new[0::2])
    np.testing.assert_array_equal(bits(new[0::2]), bits(cos * y[0] - x[0] * y[1]))
    np.testing.assert_array_equal(bits(new[1::2]), bits(x[1] * y[0] + cos * y[1]))
    # negating a factor negates the product, but where a part of the product
    # is an exact zero its sign may differ: so the kernel and the oracle keep
    # each difference a subtraction and never negate a coefficient
    flipped, negated = ((-x[0]) * y[0]).view(float), (-(x[0] * y[0])).view(float)
    np.testing.assert_array_equal(flipped, negated)  # as numbers: -0.0 == 0.0
    nonzero = negated != 0.0
    np.testing.assert_array_equal(bits(flipped[nonzero]), bits(negated[nonzero]))


def test_running_products_and_added_zeros_round_as_the_pulse_loop():
    # states._reservoir rests on two numpy facts.  np.multiply.accumulate over a
    # start and real cosines cast to complex gives, in every part that is not an
    # exact zero, the products the per-pulse loop takes one element at a time
    # (cos_j times the upper member): a cosine whose imaginary part is exactly
    # zero adds only +-0 terms to each part, so no nonzero part can move, though
    # a zero's sign can (here it does).  And the loop's sum of that
    # product and the +-0 an empty member contributes is the product in every
    # nonzero part.
    rng = np.random.default_rng(22)
    starts, cos = _awkward(rng, 300), _awkward(rng, 300 * 12).real.reshape(300, 12)
    cos = cos.astype(complex)

    def parts(z):
        return np.ascontiguousarray(z).view(float)

    for start, chain in zip(starts, cos):
        run = np.multiply.accumulate(np.concatenate(([start], chain)))
        steps = [np.array([start])]
        for j in range(chain.size):
            steps.append(chain[j : j + 1] * steps[-1])
        want = parts(np.concatenate(steps))
        np.testing.assert_array_equal(parts(run), want)  # as numbers: -0.0 == 0.0
        np.testing.assert_array_equal(parts(run)[want != 0.0].view(np.uint64),
                                      want[want != 0.0].view(np.uint64))
    x, zeros = _awkward(rng, 5000), np.empty(5000, dtype=complex)
    zeros.real, zeros.imag = rng.choice([0.0, -0.0], size=(2, 5000))
    nonzero = parts(x) != 0.0
    for total in (zeros + x, x + zeros):
        np.testing.assert_array_equal(parts(total)[nonzero].view(np.uint64),
                                      parts(x)[nonzero].view(np.uint64))
    # where a part is an exact zero the sum can flip its sign: the check on the product
    assert not np.signbit(np.float64(-0.0) + np.float64(0.0))


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
            assert states._overlaps(amps, rotated.amplitudes)[1] < 1.0  # exact phase

    def test_exact_phase_detects_sign(self):
        a = JointState.fock(1, 4)
        b = JointState(-a.amplitudes)
        assert fidelity(a, b) == pytest.approx(1.0)
        assert states._overlaps(a.amplitudes, b.amplitudes)[1] == 0.0  # exact phase

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(JointState.ground(4), JointState.ground(5))
