import cmath
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ionpulse import (
    EXCITED,
    GROUND,
    BellTarget,
    CoherentTarget,
    FockTarget,
    JointState,
    ParityCoherentTarget,
    PhaseStateTarget,
    PhysicalParams,
    Pulse,
    PulseSchedule,
    RabiUnderflowError,
    SuperpositionTarget,
    TruncationOverflowError,
    compile_target,
    default_fock_dim,
    fidelity,
    rabi_frequency,
    run_schedule,
    target_state_vector,
    verify_schedule,
)
from ionpulse import core, oracle, states, synthesis
from ionpulse.cli import main
from ionpulse.core import ipow
from ionpulse.serialization import report_to_dict, target_from_dict
from ionpulse.synthesis import _coherent_weights

from conftest import mpmath_rabi, run_alternating

GOLDEN = Path(__file__).parent / "golden"


def _params(dim, eta=0.25, omega=5e4):
    return PhysicalParams(eta=eta, omega_carrier=omega, fock_dim=dim)


def _w(params, m, k):
    return rabi_frequency(params, m, k).value


def _random_target(rng, n):
    c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return c / np.linalg.norm(c)


def analytic_superposition_weights(schedule):
    """Composed sin/cos weight products for a carrier + red-1..N schedule.

    Test-side reimplementation of the closed-form amplitudes the inversion
    recursion targets; compared componentwise against simulation.
    """
    params = schedule.params
    carrier, reds = schedule.pulses[0], schedule.pulses[1:]
    n = len(reds)
    th0 = _w(params, 0, 0) * carrier.duration
    weights = np.zeros(n + 1, dtype=complex)
    weights[0] = math.cos(th0)
    running = math.sin(th0)
    for j, pulse in enumerate(reds, start=1):
        th = _w(params, 0, j) * pulse.duration
        phase_factor = -((-1j) ** j) * cmath.exp(1j * (pulse.phase - carrier.phase))
        weights[j] = phase_factor * running * math.sin(th)
        running *= math.cos(th)
    return weights


class TestCompileFock:
    def test_n0_empty_schedule(self):
        report = compile_target(FockTarget(0), _params(4))
        assert len(report.schedule.pulses) == 0
        assert report.fidelity_vs_target == 1.0
        assert report.schedule.total_duration == 0.0

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_two_pulses_and_fidelity(self, n):
        params = _params(n + 4)
        report = compile_target(FockTarget(n), params)
        assert len(report.schedule.pulses) == 2
        assert report.fidelity_vs_target >= 1 - 1e-10
        rerun = run_schedule(JointState.ground(params.fock_dim), report.schedule)
        assert fidelity(JointState.fock(n, params.fock_dim), rerun) >= 1 - 1e-10

    def test_blue_then_carrier_final_phase(self):
        # the carrier's phase turns the -i^n of laser phases zero into +1
        n, params = 3, _params(8)
        report = compile_target(FockTarget(n), params)
        assert report.schedule.provenance == "fock(n=3, strategy=blue-then-carrier)"
        amp = report.predicted_final.amplitude(n, GROUND)
        assert amp == pytest.approx(1.0, abs=1e-12)
        assert report.exact_phase_fidelity >= 1 - 1e-12

    def test_carrier_then_red_final_phase(self):
        # emitted where W_{n,0} = 0 (L_1(1) = 0); the ladder solves the red
        # phase, so the final amplitude is +1 too
        n, params = 1, _params(5, eta=1.0)
        report = compile_target(FockTarget(n), params)
        assert [p.kind for p in report.schedule.pulses] == ["carrier", "red"]
        amp = report.predicted_final.amplitude(n, GROUND)
        assert amp == pytest.approx(1.0, abs=1e-12)
        assert report.exact_phase_fidelity >= 1 - 1e-12

    def test_sideband_duration_scales_inversely_with_coupling(self):
        params = _params(16)
        t1 = compile_target(FockTarget(1), params).schedule.pulses[0].duration
        t10 = compile_target(FockTarget(10), params).schedule.pulses[0].duration
        ratio = _w(params, 0, 1) / _w(params, 0, 10)
        assert t10 / t1 == pytest.approx(ratio, rel=1e-12)

    def test_truncation_too_small(self):
        with pytest.raises(ValueError):
            compile_target(FockTarget(3), _params(4))


class TestCarrierSignChange:
    """W_{n,0} is proportional to L_n(eta^2), which is negative or zero here.

    The blue-then-carrier Fock schedule turns pair n by pi/2 on the
    carrier, so it must rotate by |W_{n,0}| with the sign folded into the
    laser phase; where W_{n,0} is zero it cannot, and carrier-then-red is
    emitted instead.
    """

    @pytest.mark.parametrize(
        "eta,n", [(1.2, 1), (math.sqrt(2.0), 2), (0.25, 25), (0.25, 34), (0.25, 100)]
    )
    def test_fock_past_laguerre_zero(self, eta, n):
        params = _params(default_fock_dim(FockTarget(n)), eta=eta)
        assert _w(params, n, 0) < 0.0
        report = compile_target(FockTarget(n), params)
        assert all(p.duration > 0.0 for p in report.schedule.pulses)
        rerun = run_schedule(JointState.ground(params.fock_dim), report.schedule)
        assert fidelity(JointState.fock(n, params.fock_dim), rerun) >= 1 - 1e-9
        # the same final phase as below the zero (see test_blue_then_carrier_final_phase)
        assert rerun.amplitude(n, GROUND) == pytest.approx(1.0, abs=1e-9)
        assert report.exact_phase_fidelity >= 1 - 1e-12

    @pytest.mark.parametrize("eta,n", [(1.2, 1), (math.sqrt(2.0), 2)])
    def test_oracle_agrees_past_laguerre_zero(self, eta, n):
        params = _params(default_fock_dim(FockTarget(n)), eta=eta)
        schedule = compile_target(FockTarget(n), params).schedule
        assert verify_schedule(JointState.ground(params.fock_dim), schedule) >= 1 - 1e-9

    def test_fock_zero_coupling_names_other_strategy(self):
        params = _params(5, eta=1.0)  # L_1(1) = 0
        assert _w(params, 1, 0) == 0.0
        report = compile_target(FockTarget(1), params)
        assert report.schedule.provenance == "fock(n=1, strategy=carrier-then-red)"
        assert report.fidelity_vs_target >= 1 - 1e-9
        assert verify_schedule(JointState.ground(params.fock_dim), report.schedule) >= 1 - 1e-9


class TestCompileSuperposition:
    def test_vacuum_target_all_zero_durations(self):
        report = compile_target(SuperpositionTarget([1.0, 0.0, 0.0]), _params(6))
        assert all(p.duration == 0.0 for p in report.schedule.pulses)
        assert report.predicted_final.population(0, GROUND) == pytest.approx(1.0, abs=1e-15)

    def test_equal_pair_durations_match_worked_values(self):
        # c = (1, e^{i theta})/sqrt(2): carrier 3.24e-5 s then red-1 2.6e-4 s
        target = SuperpositionTarget(np.array([1.0, cmath.exp(0.9j)]) / math.sqrt(2))
        report = compile_target(target, _params(6))
        t0, t1 = (p.duration for p in report.schedule.pulses)
        assert t0 == pytest.approx(3.24e-5, rel=0.01)
        assert t1 == pytest.approx(2.6e-4, rel=0.01)

    def test_schedule_length_is_n_plus_one(self, rng):
        for n in (1, 3, 7):
            c = _random_target(rng, n)
            report = compile_target(SuperpositionTarget(c), _params(3 * n + 2))
            assert len(report.schedule.pulses) == n + 1

    def test_random_targets_round_trip(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            c = _random_target(rng, n)
            params = _params(n + 4)
            report = compile_target(SuperpositionTarget(c), params)
            assert report.fidelity_vs_target >= 1 - 1e-10
            # run_schedule reproduces the predicted state exactly
            rerun = run_schedule(JointState.ground(params.fock_dim), report.schedule)
            assert np.max(np.abs(rerun.amplitudes - report.predicted_final.amplitudes)) == 0.0
            # and the target itself, up to the recorded global rotation
            target = np.zeros(2 * params.fock_dim, dtype=complex)
            target[2 * np.arange(n + 1) + GROUND] = c * cmath.exp(
                1j * report.target_rotation_rad
            )
            np.testing.assert_allclose(
                report.predicted_final.amplitudes, target, atol=1e-12
            )

    def test_weight_equation_consistency(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            c = _random_target(rng, n)
            params = _params(n + 4)
            report = compile_target(SuperpositionTarget(c), params)
            weights = analytic_superposition_weights(report.schedule)
            simulated = np.array(
                [report.predicted_final.amplitude(j, GROUND) for j in range(n + 1)]
            )
            np.testing.assert_allclose(weights, simulated, atol=1e-10)

    def test_zero_intermediate_amplitude_skips_pulse(self):
        c = np.array([0.6, 0.0, 0.8], dtype=complex)
        report = compile_target(SuperpositionTarget(c), _params(8))
        assert [(p.kind, p.k) for p in report.schedule.pulses] == [("carrier", 0), ("red", 2)]
        assert all(p.duration > 0.0 for p in report.schedule.pulses)
        assert report.fidelity_vs_target >= 1 - 1e-10

    @pytest.mark.parametrize(
        "amplitudes,kept",
        [((0.6, 5e-324, 0.8), [("carrier", 0), ("red", 2)]), ((1.0, 1e-320), [])],
    )
    def test_turn_below_the_smallest_duration_emits_no_pulse(self, amplitudes, kept):
        # a subnormal amplitude's turn over |W| rounds to a duration of 0; a
        # dropped carrier leaves an empty reservoir, so no deposit follows it
        target = SuperpositionTarget(amplitudes)
        report = compile_target(target, _params(default_fock_dim(target), eta=1.0))
        assert [(p.kind, p.k) for p in report.schedule.pulses] == kept
        assert all(p.duration > 0.0 for p in report.schedule.pulses)
        assert report.exact_phase_fidelity >= 1 - 1e-12

    def test_zero_leading_amplitude(self):
        c = np.array([0.0, 0.6, 0.8], dtype=complex)
        params = _params(8)
        report = compile_target(SuperpositionTarget(c), params)
        # carrier is a quarter period: arccos(0)
        assert report.schedule.pulses[0].duration == pytest.approx(
            (math.pi / 2) / _w(params, 0, 0), rel=1e-12, abs=0.0
        )
        assert report.fidelity_vs_target >= 1 - 1e-10

    def test_trailing_zeros_trimmed(self):
        report = compile_target(SuperpositionTarget([0.6, 0.8, 0.0, 0.0]), _params(10))
        assert len(report.schedule.pulses) == 2

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            SuperpositionTarget([0.5, 0.5])

    def test_truncation_too_small(self):
        with pytest.raises(ValueError):
            target = SuperpositionTarget(_random_target(np.random.default_rng(0), 4))
            compile_target(target, _params(5))

    def test_nan_amplitude_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            SuperpositionTarget([math.nan, 0.6])


class TestCompilePhaseState:
    def test_n1_durations(self):
        report = compile_target(PhaseStateTarget(1, 0.3), _params(6))
        t0, t1 = (p.duration for p in report.schedule.pulses)
        assert t0 == pytest.approx(3.24e-5, rel=0.01)
        assert t1 == pytest.approx(2.6e-4, rel=0.01)

    def test_theta_only_changes_phases(self):
        a = compile_target(PhaseStateTarget(1, 0.0), _params(6))
        b = compile_target(PhaseStateTarget(1, math.pi), _params(6))
        for pa, pb in zip(a.schedule.pulses, b.schedule.pulses):
            assert pa.duration == pytest.approx(pb.duration, rel=1e-15, abs=0.0)
        dphi = (b.schedule.pulses[1].phase - a.schedule.pulses[1].phase) % (2 * math.pi)
        assert dphi == pytest.approx(math.pi, abs=1e-12)

    def test_uniform_magnitudes(self):
        n = 10
        report = compile_target(PhaseStateTarget(n, 2 * math.pi / 3), _params(3 * n + 2))
        mags = [abs(report.predicted_final.amplitude(j, GROUND)) for j in range(n + 1)]
        np.testing.assert_allclose(mags, 1 / math.sqrt(n + 1), atol=1e-10)
        assert report.fidelity_vs_target >= 1 - 1e-10

    @pytest.mark.parametrize(
        "target",
        [PhaseStateTarget(1, 1.1), PhaseStateTarget(6, 1.1), PhaseStateTarget(20, 1.1),
         CoherentTarget(2.5, 27)],
        ids=["phase-1", "phase-6", "phase-20", "coherent-2.5-27"],
    )
    @pytest.mark.parametrize("eta", [0.25, 1.5])
    def test_durations_match_closed_forms(self, target, eta):
        # t_0 = atan(|c_{>0}| / c_0) / W_00 and t_j = atan(|c_j| / |c_{>j}|) / W_0j
        # from the exact magnitudes; for the phase state of N levels
        # atan(1 / sqrt(N - j)) = asin(1 / sqrt(N - j + 1))
        mpmath = pytest.importorskip("mpmath")
        n = target.n_max
        with mpmath.workdps(30):
            if isinstance(target, PhaseStateTarget):
                mags = [mpmath.mpf(1)] * (n + 1)
            else:
                a = mpmath.mpf(abs(target.alpha))
                mags = [a**j / mpmath.sqrt(mpmath.factorial(j)) for j in range(n + 1)]
            tails = [mpmath.sqrt(mpmath.fsum(m**2 for m in mags[j + 1 :])) for j in range(n + 1)]
            angles = [mpmath.atan(tails[0] / mags[0])]
            angles += [mpmath.atan(mags[j] / tails[j]) for j in range(1, n)] + [mpmath.pi / 2]
        params = _params(3 * n + 2, eta=eta)
        report = compile_target(target, params)
        for j, (pulse, angle) in enumerate(zip(report.schedule.pulses, angles, strict=True)):
            want = float(angle) / _w(params, 0, j)
            assert pulse.duration == pytest.approx(want, rel=1e-12, abs=0.0), j

    def test_solved_phases_match_closed_form(self):
        # with the pi/2 carrier convention the solved sideband phases land
        # on phi_j = (j-1) pi/2 + j theta exactly
        theta, n = 0.7, 4
        report = compile_target(PhaseStateTarget(n, theta), _params(3 * n + 2))
        assert report.schedule.pulses[0].phase == pytest.approx(math.pi / 2, abs=1e-15)
        for j in range(1, n + 1):
            expected = ((j - 1) * math.pi / 2 + j * theta) % (2 * math.pi)
            assert report.schedule.pulses[j].phase == pytest.approx(expected, abs=1e-12)

    def test_invalid_n(self):
        with pytest.raises(ValueError, match="n_max >= 1"):
            PhaseStateTarget(0, 0.0)


# alphas whose overlaps are 1 to far below a double's precision; the odd
# overlap once lost 1e-14 to 4e-14 of it in its logarithm
SMALL_ALPHAS = [2.0**-499, 1e-100, 1e-50]

# (alpha, n_max) for the truncation overlaps; e^{-|alpha|^2} is subnormal
# from |alpha| = 26.6 and zero from 27.3 on
OVERLAP_CASES = [(0.0, 5), (0.1, 4), (0.5, 6), (1.5 + 0.5j, 9), (20, 300), (27.2, 2000), (30, 2000)]
OVERLAP_CASES += [(alpha, 3) for alpha in SMALL_ALPHAS]


def _overlap_tolerance(alpha) -> float:
    """e^{-|alpha|^2} enters through its exponent, rounded to a few eps |alpha|^2.

    Passed with abs=0.0: pytest.approx's default abs of 1e-12 would swamp it.
    """
    return 1e-14 + 4e-16 * abs(alpha) ** 2


class TestCompileCoherent:
    def test_alpha_zero_empty(self):
        report = compile_target(CoherentTarget(0.0, 5), _params(8))
        assert len(report.schedule.pulses) == 0
        assert report.truncation_overlap == 1.0

    def test_alpha_one_overlap_and_fidelity(self):
        n = 12
        params = _params(3 * n + 2)
        report = compile_target(CoherentTarget(1.0, n), params)
        assert report.truncation_overlap is not None
        assert 1 - report.truncation_overlap <= 1e-9
        # reference truncated renormalized coherent vector, built directly
        ref = np.array([1.0 / math.sqrt(math.factorial(j)) for j in range(n + 1)])
        ref = ref / np.linalg.norm(ref)
        target = np.zeros(2 * params.fock_dim, dtype=complex)
        target[2 * np.arange(n + 1) + GROUND] = ref
        assert fidelity(JointState(target), report.predicted_final) >= 1 - 1e-10

    def test_complex_alpha(self):
        report = compile_target(CoherentTarget(0.5 + 0.5j, 8), _params(26))
        assert report.fidelity_vs_target >= 1 - 1e-10

    def test_invalid_n(self):
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            CoherentTarget(1.0, -1)

    @pytest.mark.parametrize(
        "target",
        [CoherentTarget(26.7, 900), ParityCoherentTarget(30, 1200, "odd")],
        ids=["coherent", "odd_coherent"],
    )
    def test_weights_past_the_double_range_stay_normalized(self, target):
        # alpha^j / sqrt(j!) peaks near e^{|alpha|^2 / 2}, and the sum of
        # squares passes the largest double from |alpha| = 26.7 on
        weights, _ = target._weights()
        assert np.all(np.isfinite(weights))
        assert abs(np.linalg.norm(weights) - 1) <= 1e-12

    @pytest.mark.parametrize("alpha,n", OVERLAP_CASES)
    def test_truncation_overlap_is_the_captured_weight(self, alpha, n):
        # kept Poisson terms: e^{-|a|^2} sum_{j <= n} |a|^{2j} / j!
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            lam = mpmath.mpf(abs(alpha)) ** 2
            kept = mpmath.fsum(lam**j / mpmath.factorial(j) for j in range(n + 1))
            expected = float(kept * mpmath.exp(-lam))
        _, overlap = _coherent_weights(alpha, n)
        assert overlap == pytest.approx(expected, rel=_overlap_tolerance(alpha), abs=0.0)

    def test_unreachable_level_names_the_underflowing_coupling(self):
        # the weights reach level 900, but at eta = 0.25 W_{0,k} underflows
        # from k = 203 on; the error names that, not unnormalized weights
        target = CoherentTarget(26.7, 900)
        with pytest.raises(RabiUnderflowError, match=r"m=0, k=203 underflows"):
            compile_target(target, _params(default_fock_dim(target)))


class TestCompileEvenOddCoherent:
    def test_even_support(self):
        n = 8
        params = _params(3 * n + 2)
        report = compile_target(ParityCoherentTarget(1.0, n, "even"), params)
        final = report.predicted_final
        for j in range(params.fock_dim):
            if j % 2 == 1:
                assert abs(final.amplitude(j, GROUND)) <= 1e-12
            assert abs(final.amplitude(j, EXCITED)) <= 1e-12
        assert {p.k for p in report.schedule.pulses[1:]} == {2, 4, 6, 8}

    def test_even_matches_cat_state_projection(self):
        # (|a> + |-a>)/norm keeps exactly the even Fock components
        n, alpha = 8, 1.0
        params = _params(3 * n + 2)
        report = compile_target(ParityCoherentTarget(alpha, n, "even"), params)
        plus = np.array([alpha**j / math.sqrt(math.factorial(j)) for j in range(n + 1)])
        minus = np.array([(-alpha) ** j / math.sqrt(math.factorial(j)) for j in range(n + 1)])
        cat = plus + minus
        cat = cat / np.linalg.norm(cat)
        target = np.zeros(2 * params.fock_dim, dtype=complex)
        target[2 * np.arange(n + 1) + GROUND] = cat
        assert fidelity(JointState(target), report.predicted_final) >= 1 - 1e-10

    def test_odd_support(self):
        n = 7
        params = _params(3 * n + 2)
        report = compile_target(ParityCoherentTarget(0.8, n, "odd"), params)
        final = report.predicted_final
        for j in range(0, params.fock_dim, 2):
            assert abs(final.amplitude(j, GROUND)) <= 1e-12

    @pytest.mark.parametrize("alpha", [1e-160, 1e-162, 1e-170, 1e-200j])
    def test_odd_weight_below_the_double_range_is_fock_one(self, alpha):
        # |alpha|^2 is subnormal or zero: the kept weights are scaled up by
        # exact powers of two, and the overlap takes its limit
        target = ParityCoherentTarget(alpha, 3, "odd")
        assert default_fock_dim(target) == 3
        report = compile_target(target, _params(3))
        assert report.truncation_overlap == 1.0
        assert report.predicted_final.population(1, GROUND) == pytest.approx(1.0, abs=1e-15)
        assert report.exact_phase_fidelity >= 1 - 1e-12

    def test_odd_small_alpha_limit_is_fock_one(self):
        report = compile_target(ParityCoherentTarget(1e-7, 1, "odd"), _params(6))
        assert report.predicted_final.population(1, GROUND) == pytest.approx(1.0, abs=1e-12)
        exact_zero = compile_target(ParityCoherentTarget(0.0, 5, "odd"), _params(17))
        assert exact_zero.predicted_final.population(1, GROUND) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("alpha,n", OVERLAP_CASES)
    def test_truncation_overlap_is_the_parity_states_captured_weight(self, alpha, n, parity):
        # kept same-parity Poisson terms over all of them: cosh or sinh |a|^2
        mpmath = pytest.importorskip("mpmath")
        rem = 0 if parity == "even" else 1
        with mpmath.workdps(30):
            lam = mpmath.mpf(abs(alpha)) ** 2
            kept = mpmath.fsum(lam**j / mpmath.factorial(j) for j in range(rem, n + 1, 2))
            whole = mpmath.cosh(lam) if parity == "even" else mpmath.sinh(lam)
            expected = 1.0 if alpha == 0 else float(kept / whole)
        _, overlap = _coherent_weights(alpha, n, rem)
        assert overlap == pytest.approx(expected, rel=_overlap_tolerance(alpha), abs=0.0)

    @pytest.mark.parametrize("alpha", SMALL_ALPHAS)
    def test_small_alpha_odd_overlap_is_one(self, alpha):
        assert _coherent_weights(alpha, 3, 1)[1] == 1.0

    def test_bad_parity(self):
        with pytest.raises(ValueError, match="parity must be 'even' or 'odd'"):
            ParityCoherentTarget(1.0, 4, "mixed")


# each once failed on a reservoir read back from the simulation: an
# ArithmeticError, a divide by zero or components 1.2e-4 off themselves
SMALL_TAIL_TARGETS = [
    CoherentTarget(0.1, 5),
    CoherentTarget(0.1, 7),
    ParityCoherentTarget(0.1, 8, "even"),
    CoherentTarget(0.5, 12),
    SuperpositionTarget((1, 1e-9, 1e-17)),
    ParityCoherentTarget(1e-7, 5, "odd"),
]


class TestSmallTailAmplitudes:
    # the suite turns warnings into errors, the divide by zero included
    @pytest.mark.parametrize("eta", [0.25, 0.7, 1.5])
    @pytest.mark.parametrize("target", SMALL_TAIL_TARGETS, ids=repr)
    def test_every_component_lands_on_itself(self, target, eta):
        # within 1e-10 of itself, give or take the rounding of the turn
        # that split it off: a double angle near pi/2 fixes the cosine it
        # leaves behind only to about eps of the reservoir it turned
        params = _params(default_fock_dim(target), eta=eta)
        report = compile_target(target, params)
        turn = cmath.exp(1j * report.target_rotation_rad)
        ideal = (target_state_vector(target, params).amplitudes * turn)[GROUND::2]
        final = report.predicted_final.amplitudes[GROUND::2]
        reservoirs = np.sqrt(np.cumsum(np.abs(ideal[::-1]) ** 2))[::-1]  # |c_{>=j}|
        step = 2 if isinstance(target, ParityCoherentTarget) else 1
        for j in np.flatnonzero(ideal):
            split = 4 * np.finfo(float).eps * reservoirs[max(j - step, 0)]
            assert abs(final[j] - ideal[j]) <= 1e-10 * abs(ideal[j]) + split, j
        assert verify_schedule(JointState.ground(params.fock_dim), report.schedule) >= 1 - 1e-12


class TestCompileBell:
    def test_carrier_duration(self):
        report = compile_target(BellTarget(), _params(5))
        assert report.schedule.pulses[0].duration == pytest.approx(6.48e-5, rel=0.01)

    def test_fidelity(self):
        report = compile_target(BellTarget(), _params(5))
        assert report.fidelity_vs_target >= 1 - 1e-10

    def test_half_transfer_red_duration(self):
        params = _params(5)
        report = compile_target(BellTarget(), params)
        expected = math.asin(1 / math.sqrt(2)) / _w(params, 0, 1)
        assert report.schedule.pulses[1].duration == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_reduced_populations_are_half(self):
        final = compile_target(BellTarget(), _params(5)).predicted_final
        pops = final.populations()
        assert pops[:, GROUND].sum() == pytest.approx(0.5, abs=1e-12)
        assert pops[:, EXCITED].sum() == pytest.approx(0.5, abs=1e-12)
        assert pops[0].sum() == pytest.approx(0.5, abs=1e-12)
        assert pops[1].sum() == pytest.approx(0.5, abs=1e-12)

    def test_truncation(self):
        with pytest.raises(ValueError):
            compile_target(BellTarget(), _params(2))


class TestEntanglingCarrierSchedule:
    """A carrier pulse appended to a compiled superposition is a schedule.

    It splits each level j into d_j^g = c_j cos(W_j0 t) and
    d_j^e = -i c_j e^{-i phi} sin(W_j0 t); W_j0 depends on j, so every level
    gets its own mixing angle and the state is entangled.  The reference
    takes W_j0 from mpmath, not from the kernel that runs the schedule.
    """

    @pytest.mark.parametrize("n", [0, 1, 4, 10])
    @pytest.mark.parametrize("eta", [0.25, 0.9, 1.5])
    def test_matches_mpmath_and_the_oracle(self, rng, eta, n):
        target = SuperpositionTarget(tuple(_random_target(rng, n)))
        params = _params(default_fock_dim(target), eta=eta)
        report = compile_target(target, params)
        # the ladder lands the target turned so that c_0 is real and nonnegative
        c = np.array(target.amplitudes) * cmath.exp(1j * report.target_rotation_rad)
        t, phi = rng.uniform(1e-5, 6e-5), rng.uniform(0.0, 2 * math.pi)
        pulses = report.schedule.pulses + (Pulse("carrier", 0, phi, t),)
        schedule = PulseSchedule(params, pulses)
        final = run_schedule(JointState.ground(params.fock_dim), schedule)
        mpmath = pytest.importorskip("mpmath")
        for j in range(n + 1):
            with mpmath.workdps(30):
                angle = mpmath_rabi(eta, params.omega_carrier, j, 0) * mpmath.mpf(t)
                cos, sin = float(mpmath.cos(angle)), float(mpmath.sin(angle))
            d_e = -1j * c[j] * cmath.exp(-1j * phi) * sin
            assert abs(final.amplitude(j, GROUND) - c[j] * cos) <= 1e-12, j
            assert abs(final.amplitude(j, EXCITED) - d_e) <= 1e-12, j
        assert np.all(final.amplitudes[2 * (n + 1) :] == 0.0)
        # the carrier reads W_{m,0} on every populated m, which no ladder from ground does
        assert verify_schedule(JointState.ground(params.fock_dim), schedule) >= 1 - 1e-12


def recursion_step_red1(params, g, e, phase, duration):
    """First-red-sideband amplitude recursion, coded directly from the
    per-pair coefficient definitions (test-side check of the operators)."""
    dim = g.size
    ng, ne = np.zeros_like(g), np.zeros_like(e)
    c = [
        cmath.exp(-1j * phase) * math.sin(_w(params, m, 1) * duration)
        for m in range(dim)
    ]
    cosf = [math.cos(_w(params, m, 1) * duration) for m in range(dim)]
    for j in range(dim):
        ng[j] = g[j] * (1.0 if j == 0 else cosf[j - 1])
        if j >= 1:
            ng[j] += e[j - 1] * (-c[j - 1].conjugate())
        ne[j] = e[j] * cosf[j]
        if j + 1 < dim:
            ne[j] += g[j + 1] * c[j]
    return ng, ne


def recursion_step_blue1(params, g, e, phase, duration):
    dim = g.size
    ng, ne = np.zeros_like(g), np.zeros_like(e)
    c = [
        cmath.exp(-1j * phase) * math.sin(_w(params, m, 1) * duration)
        for m in range(dim)
    ]
    cosf = [math.cos(_w(params, m, 1) * duration) for m in range(dim)]
    for j in range(dim):
        ng[j] = g[j] * cosf[j]
        if j + 1 < dim:
            ng[j] += e[j + 1] * (-c[j].conjugate())
        ne[j] = e[j] * (1.0 if j == 0 else cosf[j - 1])
        if j >= 1:
            ne[j] += g[j - 1] * c[j - 1]
    return ng, ne


class TestGenerateAlternating:
    def test_zero_sidebands_carrier_pi(self):
        params = _params(6)
        t_pi = (math.pi / 2) / _w(params, 0, 0)
        final = run_alternating(params, t_pi, 0.9, [(0.0, 0.0)] * 3)
        assert final.population(0, EXCITED) == pytest.approx(1.0, abs=1e-12)

    def test_single_red_matches_pair_coefficients(self):
        # partial carrier then one red pulse: d0g unchanged, d1g = d0e * C~
        params = _params(6)
        t_c = 0.35 / _w(params, 0, 0)
        phi_c, phi_r = 0.4, 1.3
        t_r = 0.8 / _w(params, 0, 1)
        final = run_alternating(params, t_c, phi_c, [(t_r, phi_r)])

        d0g = math.cos(_w(params, 0, 0) * t_c)
        d0e = -1j * cmath.exp(-1j * phi_c) * math.sin(_w(params, 0, 0) * t_c)
        c_tilde = -(
            cmath.exp(-1j * phi_r) * math.sin(_w(params, 0, 1) * t_r)
        ).conjugate()
        assert final.amplitude(0, GROUND) == pytest.approx(d0g, abs=1e-12)
        assert final.amplitude(1, GROUND) == pytest.approx(d0e * c_tilde, abs=1e-12)

    def test_support_pattern(self, rng):
        params = _params(12)
        n_sb = 6
        sidebands = [
            (rng.uniform(0, math.pi / _w(params, 0, 1)), rng.uniform(0, 2 * math.pi))
            for _ in range(n_sb)
        ]
        final, trace = run_alternating(
            params, 0.3 / _w(params, 0, 0), 0.2, sidebands, keep_trace=True
        )
        # after sideband pulse i, red (odd i) has lifted the ground component
        # to level i and blue (even i) the excited one
        for i, state in enumerate(trace[1:], start=1):
            g_max, e_max = (i, i - 1) if i % 2 == 1 else (i - 1, i)
            amps = np.abs(state.amplitudes.reshape(params.fock_dim, 2))
            assert np.all(amps[g_max + 1 :, GROUND] <= 1e-12)
            assert np.all(amps[e_max + 1 :, EXCITED] <= 1e-12)
        # after an even number of sideband pulses: ground <= n-1, excited <= n
        for m in range(n_sb, params.fock_dim):
            assert abs(final.amplitude(m, GROUND)) <= 1e-12
        for m in range(n_sb + 1, params.fock_dim):
            assert abs(final.amplitude(m, EXCITED)) <= 1e-12

    def test_parity_segregation_after_full_carrier(self, rng):
        params = _params(12)
        t_pi = (math.pi / 2) / _w(params, 0, 0)
        sidebands = [
            (rng.uniform(0, math.pi / _w(params, 0, 1)), rng.uniform(0, 2 * math.pi))
            for _ in range(6)
        ]
        final = run_alternating(params, t_pi, rng.uniform(0, 2 * math.pi), sidebands)
        for m in range(0, params.fock_dim, 2):
            assert abs(final.amplitude(m, GROUND)) <= 1e-12
        for m in range(1, params.fock_dim, 2):
            assert abs(final.amplitude(m, EXCITED)) <= 1e-12

    def test_recursion_checker_agrees_with_operators(self, rng):
        params = _params(14)
        for _ in range(6):
            n_sb = int(rng.integers(1, 9))
            t_c = rng.uniform(0, math.pi / _w(params, 0, 0))
            phi_c = rng.uniform(0, 2 * math.pi)
            sidebands = [
                (rng.uniform(0, math.pi / _w(params, 0, 1)), rng.uniform(0, 2 * math.pi))
                for _ in range(n_sb)
            ]
            final = run_alternating(params, t_c, phi_c, sidebands)

            g = np.zeros(params.fock_dim, dtype=complex)
            e = np.zeros(params.fock_dim, dtype=complex)
            g[0] = math.cos(_w(params, 0, 0) * t_c)
            e[0] = -1j * cmath.exp(-1j * phi_c) * math.sin(_w(params, 0, 0) * t_c)
            for i, (t, phi) in enumerate(sidebands):
                step = recursion_step_red1 if i % 2 == 0 else recursion_step_blue1
                g, e = step(params, g, e, phi, t)

            for m in range(params.fock_dim):
                assert final.amplitude(m, GROUND) == pytest.approx(g[m], abs=1e-10)
                assert final.amplitude(m, EXCITED) == pytest.approx(e[m], abs=1e-10)

    def test_truncation_guard(self):
        message = "blue k=1 pulse would push |3>|g> past truncation D=4"
        with pytest.raises(TruncationOverflowError, match=re.escape(message)) as exc:
            run_alternating(_params(4), 1e-5, 0.0, [(1e-5, 0.0)] * 4)
        assert exc.value.pulse_index == 4


class TestConstruction:
    """Every field is checked when the target is built, before any params exist.

    Checks that the per-variant classes above already test are not repeated.
    """

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "variant,args,message",
        [
            (FockTarget, (-1,), "Fock index must be >= 0"),
            (SuperpositionTarget, ((),), "nonempty"),
            (CoherentTarget, (complex(math.nan, 0), 3), "alpha must be finite"),
            (CoherentTarget, (complex(0, math.inf), 3), "alpha must be finite"),
            (ParityCoherentTarget, (math.inf, 3, "even"), "alpha must be finite"),
            (ParityCoherentTarget, (1.0, -1, "even"), "n_max must be >= 0"),
            (ParityCoherentTarget, (0.5, 0, "odd"), "n_max=0 excludes every odd level"),
            (PhaseStateTarget, (3, math.inf), "theta must be finite"),
            (PhaseStateTarget, (3, math.nan), "theta must be finite"),
            (FockTarget, (2.5,), "expected an integer"),
            (FockTarget, (True,), "expected an integer"),
            (PhaseStateTarget, (4.0, 0.3), "expected an integer"),
            (CoherentTarget, (0.5, "3"), "expected an integer"),
            (ParityCoherentTarget, (0.5, False, "even"), "expected an integer"),
        ],
    )
    def test_invalid_field_raises_on_construction(self, variant, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            variant(*args)

    def test_integer_fields_accept_numpy_integers(self):
        assert FockTarget(np.int64(3)) == FockTarget(3)
        assert type(FockTarget(np.int64(3)).n) is int
        assert PhaseStateTarget(np.int32(4), 0.3) == PhaseStateTarget(4, 0.3)


DISPATCH_TARGETS = [
    FockTarget(2),
    SuperpositionTarget((0.6, 0.8j)),
    PhaseStateTarget(2, 0.5),
    CoherentTarget(0.7, 6),
    ParityCoherentTarget(0.9, 6, "even"),
    BellTarget(),
    # top Fock level 0 or 1: the empty and the trimmed schedules
    FockTarget(0),
    CoherentTarget(0, 4),
    ParityCoherentTarget(0.0, 5, "odd"),
    SuperpositionTarget((1, 0, 0)),
]


class TestDispatch:
    @pytest.mark.parametrize("target", DISPATCH_TARGETS)
    def test_compile_target_round_trip(self, target):
        params = _params(default_fock_dim(target))
        report = compile_target(target, params)
        assert report.fidelity_vs_target >= 1 - 1e-10
        assert report_to_dict(report)["total_duration_s"] == report.schedule.total_duration

    @pytest.mark.parametrize("eta", [0.25, 0.9, 1.0, 1.2, 1.5, 3.0])
    @pytest.mark.parametrize("target", DISPATCH_TARGETS)
    def test_default_fock_dim_loses_nothing(self, target, eta):
        # a truncation three times the default emits the same pulses, and
        # its final state is the default's with zeros appended
        dim = default_fock_dim(target)
        small = compile_target(target, _params(dim, eta=eta))
        large = compile_target(target, _params(3 * dim, eta=eta))
        assert [(p.kind, p.k, p.phase.hex(), p.duration.hex()) for p in small.schedule.pulses] == [
            (p.kind, p.k, p.phase.hex(), p.duration.hex()) for p in large.schedule.pulses
        ]
        padded = np.zeros(2 * 3 * dim, dtype=complex)
        padded[: 2 * dim] = small.predicted_final.amplitudes
        assert np.array_equal(large.predicted_final.amplitudes, padded)

    # PhysicalParams itself refuses a fock_dim below 2
    @pytest.mark.parametrize("target", [t for t in DISPATCH_TARGETS if default_fock_dim(t) > 2])
    def test_one_below_default_fock_dim_refused(self, target):
        dim = default_fock_dim(target) - 1
        message = f"fock_dim {dim} too small for top Fock level {dim - 1} (need >= {dim + 1})"
        with pytest.raises(ValueError, match=re.escape(message)):
            compile_target(target, _params(dim))

    def test_target_state_vector_consistency(self):
        params = _params(8)
        vec = target_state_vector(FockTarget(3), params)
        assert vec.population(3, GROUND) == 1.0
        bell = target_state_vector(BellTarget(), params)
        assert bell.population(0, EXCITED) == pytest.approx(0.5)

    # each variant builds its ideal state from its own fields, so a kernel
    # error cannot move the state that the kernel's output is scored against
    @pytest.mark.parametrize("tag", sorted(synthesis._VARIANTS))
    def test_target_state_vector_never_runs_the_kernel(self, tag, monkeypatch):
        def refuse(*args):
            raise AssertionError("the pulse kernel ran")

        monkeypatch.setattr(states, "_run", refuse)
        target = target_from_dict(json.loads((GOLDEN / f"{tag}.json").read_text())["target"])
        dim = default_fock_dim(target)
        assert target_state_vector(target, _params(dim)).dim == dim

    # the ideal state needs no guard level; PhysicalParams refuses a fock_dim below 2
    @pytest.mark.parametrize("target", [t for t in DISPATCH_TARGETS if default_fock_dim(t) > 3])
    def test_target_state_vector_needs_only_the_top_level(self, target):
        top = default_fock_dim(target) - 2
        assert target_state_vector(target, _params(top + 1)).dim == top + 1
        message = f"fock_dim {top} cannot hold top Fock level {top} (need >= {top + 1})"
        with pytest.raises(ValueError, match=re.escape(message)):
            target_state_vector(target, _params(top))

    @pytest.mark.parametrize("eta", [0.25, 0.9, 1.0, 1.2, 1.5, 3.0])
    @pytest.mark.parametrize("target", DISPATCH_TARGETS)
    def test_schedule_reaches_the_ideal_state(self, target, eta):
        params = _params(default_fock_dim(target), eta=eta)
        report = compile_target(target, params)
        reached = fidelity(target_state_vector(target, params), report.predicted_final)
        assert reached >= 1 - 1e-10
        # the report scores the same ideal state, and its final state is the schedule's
        assert abs(report.fidelity_vs_target - reached) <= 1e-15
        final = run_schedule(JointState.ground(params.fock_dim), report.schedule)
        assert np.array_equal(final.amplitudes, report.predicted_final.amplitudes)


# one Fock level each, |0>|g> up to a global phase, and the turn the report prints
ONE_LEVEL_TARGETS = [
    (SuperpositionTarget((1,)), "0.0"),
    (SuperpositionTarget((1j,)), "-1.5707963267948966"),
    (CoherentTarget(0, 5), "0.0"),
    (CoherentTarget(0.5, 0), "0.0"),
    (ParityCoherentTarget(0, 4, "even"), "0.0"),
    (FockTarget(0), "0.0"),
]


class TestOneLevelTargets:
    @pytest.mark.parametrize("target,turn", ONE_LEVEL_TARGETS, ids=repr)
    def test_compile_to_an_empty_schedule(self, target, turn):
        report = compile_target(target, _params(default_fock_dim(target)))
        assert report.schedule.pulses == ()
        assert report.fidelity_vs_target == 1.0
        assert report.exact_phase_fidelity == pytest.approx(1.0, abs=1e-15)
        assert json.dumps(report_to_dict(report)["target_rotation_rad"]) == turn


class TestOnePassOverTheTarget:
    """The weights are built once per compile_target and target_state_vector."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = synthesis._coherent_weights

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(synthesis, "_coherent_weights", counted)
        return calls

    @pytest.mark.parametrize(
        "target", [CoherentTarget(2.5, 60), ParityCoherentTarget(2.5, 60, "odd")], ids=repr
    )
    def test_compile_and_ideal_state_build_the_weights_once(self, target, builds):
        params = _params(default_fock_dim(target))
        builds.clear()
        compile_target(target, params)
        assert len(builds) == 1
        target_state_vector(target, params)
        assert len(builds) == 2

    def test_cli_synthesize_builds_them_at_most_twice(self, builds, tmp_path, capsys):
        # once for the default fock_dim, once for the compile
        path = tmp_path / "target.json"
        path.write_text(json.dumps({"variant": "coherent", "alpha": [2.5, 0.0], "n_max": 60}))
        assert main(["synthesize", "--target", str(path)]) == 0
        assert len(builds) <= 2


_UNIT = st.floats(-1.0, 1.0)


@st.composite
def json_targets(draw):
    """A target document of any JSON tag, with its top Fock level in 0..60."""
    tag = draw(st.sampled_from(sorted(synthesis._VARIANTS)))
    top = draw(st.integers(0, 60))
    doc = {"variant": tag}
    if tag == "fock":
        doc["n"] = top
    elif tag == "superposition":
        pairs = np.array(draw(st.lists(st.tuples(_UNIT, _UNIT), min_size=top + 1, max_size=top + 1)))
        norm = np.linalg.norm(pairs)
        assume(norm >= 1e-150)  # so that the normalized draw is a unit vector to rounding
        doc["amplitudes"] = (pairs / norm).tolist()
    elif tag == "phase_state":
        doc["n_max"], doc["theta_rad"] = max(top, 1), draw(st.floats(-10.0, 10.0))
    elif tag != "bell":
        doc["alpha"] = [draw(st.floats(-8.0, 8.0)), draw(st.floats(-8.0, 8.0))]
        doc["n_max"] = max(top, 1) if tag == "odd_coherent" else top
    return doc


class TestWideRange:
    """Every tag over eta in [1e-3, 30]: the target, phase included, or a typed error."""

    @settings(max_examples=100, deadline=None)
    @given(doc=json_targets(), eta=st.floats(math.log(1e-3), math.log(30.0)).map(math.exp))
    def test_compiles_exactly_or_raises_underflow(self, doc, eta):
        target = target_from_dict(doc)
        try:
            report = compile_target(target, _params(default_fock_dim(target), eta=eta))
        except RabiUnderflowError:
            return
        assert report.fidelity_vs_target >= 1 - 1e-9
        assert report.exact_phase_fidelity >= 1 - 1e-9
        assert all(p.duration > 0.0 for p in report.schedule.pulses)


class TestCouplingColumnsFollowTheSupport:
    """The compilers and the kernel build coupling columns, and the oracle its
    pairs, only as far as the support bound lets a pulse reach, whatever the
    truncation."""

    def _sizes(self, monkeypatch):
        """Every size asked of the cached column builder, by core and the kernel."""
        sizes, build = [], core._column

        def spy(eta, omega, k, size):
            sizes.append(size)
            return build(eta, omega, k, size)

        monkeypatch.setattr(core, "_column", spy)
        monkeypatch.setattr(states, "_column", spy)
        return sizes

    @pytest.mark.parametrize("target,longest", [(PhaseStateTarget(5, 0.3), 1), (FockTarget(3), 4)])
    def test_no_column_longer_than_the_support(self, monkeypatch, target, longest):
        # a ladder from |0>|g> rotates pair m = 0 of each pulse; the Fock n = 3
        # carrier turns pair 3, so no column needs more than n + 1 entries
        sizes = self._sizes(monkeypatch)
        params = _params(10**5)
        report = compile_target(target, params)
        assert report.fidelity_vs_target >= 1 - 1e-12
        assert verify_schedule(JointState.ground(params.fock_dim), report.schedule) >= 1 - 1e-12
        assert sizes and max(sizes) == longest

    def test_oracle_pairs_follow_the_blue_bound(self, monkeypatch):
        # Fock n = 3 is a blue-3 pulse from |0>|g>, whose one pair that can
        # hold amplitude is m = 0, and a carrier on the four levels 0-3
        params = _params(10)
        schedule = compile_target(FockTarget(3), params).schedule
        assert [(p.kind, p.k) for p in schedule.pulses] == [("blue", 3), ("carrier", 0)]
        build, built = oracle._pairs, []

        def spy(params, pulses, sizes, ks, table):
            built.extend(sizes)
            return build(params, pulses, sizes, ks, table)

        monkeypatch.setattr(oracle, "_pairs", spy)
        assert verify_schedule(JointState.ground(params.fock_dim), schedule) >= 1 - 1e-12
        assert built == [1, 4]


class TestPhasesSolvedFromTheKernelCoefficient:
    """Every laser phase is solved from states._coefficient, the kernel's one
    statement of its coefficient convention; a compile runs the kernel only
    for its report."""

    @pytest.mark.parametrize("tag", sorted(path.stem for path in GOLDEN.glob("*.json")))
    def test_a_compile_runs_the_kernel_once(self, monkeypatch, tag):
        target = target_from_dict(json.loads((GOLDEN / f"{tag}.json").read_text())["target"])
        run, calls = states._run, []

        def spy(*args):
            calls.append(args)
            return run(*args)

        monkeypatch.setattr(states, "_run", spy)
        compile_target(target, _params(default_fock_dim(target)))
        assert len(calls) == 1

    @pytest.mark.parametrize("eta", [0.25, 1.0, 1.5])
    @pytest.mark.parametrize(
        "target,global_phase",
        [
            (FockTarget(1), True),
            (FockTarget(3), True),
            (PhaseStateTarget(4, 0.3), False),
            (CoherentTarget(1 + 1j, 8), False),
            (ParityCoherentTarget(1.5, 9, "odd"), True),
            (SuperpositionTarget((0.6, 0.0, 0.48j, 0.0, -0.64)), False),
            (BellTarget(), False),
        ],
        ids=repr,
    )
    def test_lands_the_target_under_a_moved_kernel_convention(
        self, monkeypatch, target, global_phase, eta
    ):
        # the kernel's sideband coefficient i^(k-1) read as i^k, as in test_oracle's
        # test_flags_a_kernel_phase_convention_it_does_not_share: the compiled phases
        # follow the kernel, and the oracle, which keeps its own convention, still
        # refuses the schedule where the mutant moves more than a global phase (it
        # turns every deposit of a target without |0>|g>, and Fock's blue pulse, alike)
        monkeypatch.setattr(states, "ipow", lambda n: ipow(n + 1))
        params = _params(default_fock_dim(target), eta=eta)
        report = compile_target(target, params)
        assert report.fidelity_vs_target >= 1 - 1e-12
        if not global_phase:
            assert verify_schedule(JointState.ground(params.fock_dim), report.schedule) < 1 - 1e-8
