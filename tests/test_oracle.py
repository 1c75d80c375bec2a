import cmath
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from ionpulse import (
    EXCITED,
    GROUND,
    FockTarget,
    HamiltonianMatrix,
    JointState,
    PhaseStateTarget,
    PhysicalParams,
    Pulse,
    PulseSchedule,
    apply_pulse_amplitudes,
    build_hamiltonian,
    compile_target,
    default_fock_dim,
    fidelity,
    propagate,
    rabi_frequency,
    run_schedule,
    states,
    verify_schedule,
)
from ionpulse import oracle
from ionpulse.core import ipow
from ionpulse.oracle import _oracle_final, _series

from conftest import (
    dense,
    loop_series,
    mpmath_rabi,
    random_guarded_amplitudes,
    signed_zero_amplitudes,
)


def _params(dim, eta=0.25):
    return PhysicalParams(eta=eta, omega_carrier=5e4, fock_dim=dim)


def _peak(call):
    """call() and the tracemalloc peak in bytes while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _perturb_closed_form(monkeypatch, order):
    """Scale the closed-form W_{0,order} the pulse kernel reads by 1 + 1e-3."""
    exact = states._column

    def wrong(eta, omega, k, size):
        column, lost = exact(eta, omega, k, size)
        if k == order and size:
            column = column.copy()
            column[0] *= 1 + 1e-3
        return column, lost

    monkeypatch.setattr(states, "_column", wrong)


class TestBuildHamiltonian:
    def test_hermitian_by_construction(self, params):
        for kind, k in (("carrier", 0), ("red", 1), ("red", 4), ("blue", 2)):
            h = dense(build_hamiltonian(params, kind, k, 0.77))
            assert np.array_equal(h, h.conj().T)

    def test_carrier_lamb_dicke_limit(self):
        # eta -> 0: H = (W/2)(e^{-i phi} sigma+ + h.c.) identically on Fock
        params = _params(6, eta=1e-10)
        phi = 0.6
        h = dense(build_hamiltonian(params, "carrier", 0, phi))
        w = params.omega_carrier / 2.0
        expected_ge = w * np.exp(-1j * phi)
        for m in range(params.fock_dim):
            assert h[2 * m + EXCITED, 2 * m + GROUND] == pytest.approx(
                expected_ge, rel=1e-9
            )

    @pytest.mark.parametrize("kind,k", [("red", 1), ("red", 3), ("blue", 1), ("blue", 2), ("carrier", 0)])
    def test_coupling_magnitudes_equal_rabi(self, kind, k):
        # ladder-assembled elements reproduce the series Rabi frequencies
        params = _params(20)
        h = dense(build_hamiltonian(params, kind, k, 0.3))
        for m in range(params.fock_dim - k):
            if kind == "red":
                row, col = 2 * m + EXCITED, 2 * (m + k) + GROUND
            elif kind == "blue":
                row, col = 2 * (m + k) + EXCITED, 2 * m + GROUND
            else:
                row, col = 2 * m + EXCITED, 2 * m + GROUND
            w = rabi_frequency(params, m, k).value
            assert abs(h[row, col]) == pytest.approx(abs(w), rel=1e-10)

    def test_couplings_only_k_apart(self, params):
        ham = build_hamiltonian(params, "red", 2, 0.0)
        assert ham.pairs.shape == (params.fock_dim - 2, 2)
        for i, j in ham.pairs:
            (mi, si), (mj, sj) = divmod(int(i), 2), divmod(int(j), 2)
            assert (si, sj) == (EXCITED, GROUND)
            assert mj - mi == 2

    @pytest.mark.parametrize(
        "eta,dim,k",
        [(0.25, 242, k) for k in (0, 10, 40, 60, 80)]
        + [(0.25, 182, 60), (0.9, 122, 20), (0.9, 122, 30)]
        + [
            # the alternating series cancels where eta^2 m is large; the
            # relative error measured at the worst m is in each reason
            pytest.param(*cell, marks=pytest.mark.xfail(strict=True, reason=why))
            for cell, why in (
                ((0.25, 242, 1), "1.5e-12 at m = 196, next to a Laguerre zero"),
                ((0.9, 122, 0), "6.7e-9 at m = 100"),
                ((0.9, 122, 1), "1.5e-7 at m = 118"),
                ((0.9, 122, 10), "6.4e-10 at m = 99"),
                ((1.5, 122, 10), "1.3e-4 at m = 111"),
            )
        ],
    )
    def test_couplings_match_mpmath(self, eta, dim, k):
        # every element of the coupled diagonal, relative to itself: the
        # high orders of a ladder schedule sit on its smallest elements
        params = _params(dim, eta)
        h = dense(build_hamiltonian(params, "carrier" if k == 0 else "red", k, 0.3))
        for m in range(dim - k):
            exact = abs(float(mpmath_rabi(eta, params.omega_carrier, m, k)))
            coupling = abs(h[2 * m + EXCITED, 2 * (m + k) + GROUND])
            assert abs(coupling - exact) <= 1e-12 * exact, (m, abs(coupling - exact) / exact)

    def test_truncation_errors(self, params):
        with pytest.raises(ValueError):
            build_hamiltonian(params, "red", params.fock_dim, 0.0)
        with pytest.raises(ValueError):
            build_hamiltonian(params, "carrier", 1, 0.0)

    @pytest.mark.parametrize(
        "kind,k,phase",
        [
            ("red", True, 0.0),
            ("red", 1.0, 0.0),
            ("red", 1, math.nan),
            ("blue", 2, math.inf),
            ("red", 1, "0.3"),
            ("green", 1, 0.0),
            ("carrier", 1, 0.0),
        ],
    )
    def test_refuses_what_a_pulse_refuses(self, params, kind, k, phase):
        # a bool order is not read as 1, a non-finite phase gives no NaN
        # couplings, and a float order or a string phase is no bare TypeError
        with pytest.raises(ValueError) as want:
            Pulse(kind, k, phase, 0.0)
        with pytest.raises(ValueError) as got:
            build_hamiltonian(params, kind, k, phase)
        assert str(got.value) == str(want.value)

    def test_verifies_past_a_dense_matrix_budget_in_a_few_mib(self):
        # a dense (2D, 2D) H at D = 2897 would take 512.2 MiB; the coupled
        # pairs take O(D)
        params = _params(2897)
        w = rabi_frequency(params, 0, 1).value
        schedule = PulseSchedule(params, (Pulse("red", 1, 0.0, 1.0 / w),))
        fid, peak = _peak(lambda: verify_schedule(JointState.fock(1, params.fock_dim), schedule))
        assert fid >= 1 - 1e-12
        assert peak < 4 * 2**20

    def test_a_long_schedule_verifies_in_a_few_mib(self):
        # from |0>|g> pulse i of the 400 has i + 1 pairs, 80,200 in all; both
        # loops hold a run of at most RUN_PAIRS of them at a time
        params = _params(2897)
        fid, peak = _peak(lambda: verify_schedule(JointState.ground(params.fock_dim), _climb(params)))
        assert fid >= 1 - 1e-12
        assert peak < 4 * 2**20


def _climb(params):
    """400 alternating blue-1 and red-1 pulses: from |0>|g> each climbs one level."""
    w = rabi_frequency(params, 0, 1).value
    return PulseSchedule(params, tuple(
        Pulse(("blue", "red")[i % 2], 1, 0.1 * i, 0.3 / w) for i in range(400)
    ))


class TestRunBudget:
    """Both pulse loops go in runs of at most states.RUN_PAIRS pairs, or of one
    wider pulse, as many pulses a run as the schedule's widest pulse allows."""

    def test_runs_hold_as_many_pulses_as_the_budget_allows(self, monkeypatch):
        # pulse i of the climb has i + 1 pairs, so RUN_PAIRS // 400 pulses go in
        # a run; each loop takes one sine pass a run
        params = _params(2897)
        kernel, runs, build = [], [], oracle._pairs

        def sin(angle):
            kernel.append(angle.size)
            return np.sin(angle)

        def spy(params, pulses, sizes, ks, table):
            runs.append(sum(sizes))
            return build(params, pulses, sizes, ks, table)

        monkeypatch.setattr(states, "np", SimpleNamespace(**{**vars(np), "sin": sin}))
        monkeypatch.setattr(oracle, "_pairs", spy)
        assert verify_schedule(JointState.ground(params.fock_dim), _climb(params)) >= 1 - 1e-12
        step = states.RUN_PAIRS // 400
        assert kernel == runs == [sum(range(i + 1, i + step + 1)) for i in range(0, 400, step)]
        assert len(runs) == 10 and max(runs) <= states.RUN_PAIRS

    def test_a_full_support_ladder_runs_in_a_few_mib(self, rng):
        # every level below the top 81 holds amplitude, so each pulse of the
        # N = 80 ladder has up to D pairs; a run of 81 of them held 14.4 MiB
        # in the kernel and 26.6 MiB in the oracle
        params = _params(2000)
        schedule = compile_target(PhaseStateTarget(80, 0.3), params).schedule
        amps = rng.normal(size=4000) + 1j * rng.normal(size=4000)
        amps[2 * (2000 - 81) :] = 0.0
        initial = JointState(amps / np.linalg.norm(amps))
        run_schedule(initial, schedule)  # caches the coupling columns it reads
        _, kernel_peak = _peak(lambda: run_schedule(initial, schedule))
        _, oracle_peak = _peak(lambda: _oracle_final(initial, schedule))
        assert kernel_peak < 4 * 2**20
        assert oracle_peak < 8 * 2**20

    def test_a_ladder_checks_its_pairs_in_a_few_mib(self):
        # one pair a pulse from |0>|g>: checking that no pulse of the run puts
        # a state in two pairs takes O(pairs), not O(pulses D) (125 MiB here)
        params = _params(10**5)
        schedule = compile_target(PhaseStateTarget(80, 0.3), params).schedule
        ground = JointState.ground(params.fock_dim)
        final, peak = _peak(lambda: _oracle_final(ground, schedule))
        assert fidelity(final, run_schedule(ground, schedule)) >= 1 - 1e-9
        assert peak < 16 * 2**20


def _start(rng, dim, partial):
    """A random state on every level, or only on |m>|g>, m <= dim/2, and |3>|e>."""
    amps = rng.normal(size=2 * dim) + 1j * rng.normal(size=2 * dim)
    if partial:
        amps[2 * (dim // 2) + 2 :: 2] = 0.0
        amps[1::2] = 0.0
        amps[2 * 3 + EXCITED] = 1.0
    return JointState(amps / np.linalg.norm(amps))


def _long_schedule(params, rng):
    # 30 pulses of five orders, at most 36 pairs each from |0>|g> at the rng
    # fixture's seed; they reach no level past 4 * 30, so the kernel's
    # truncation guard passes at D = 128
    orders = [("carrier", 0), ("red", 1), ("blue", 2), ("red", 3), ("blue", 4)]
    return PulseSchedule(params, tuple(
        Pulse(*orders[int(i)], float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, 1e-3)))
        for i in rng.integers(len(orders), size=30)
    ))


def _pair_reference(amps, params, pulses):
    """Each pulse on every pair of its build_hamiltonian, pair (i, j) updated
    by one expression per member: the oracle's arithmetic, written out."""
    amps = np.array(amps, dtype=complex)
    for p in pulses:
        ham = build_hamiltonian(params, p.kind, p.k, p.phase)
        mag = np.abs(ham.couplings)
        angle = mag * p.duration
        cos = np.cos(angle)
        ratio = np.divide(np.sin(angle), mag, out=np.sin(angle), where=mag != 0.0)
        off = -1j * ham.couplings * ratio
        i, j = ham.pairs.T
        a_i, a_j = amps[i], amps[j]
        amps[i] = cos * a_i + off * a_j
        amps[j] = cos * a_j - off.conj() * a_i
    return amps


class TestSeries:
    @pytest.mark.parametrize("dim", [17, 62, 122])
    @pytest.mark.parametrize("eta", [0.25, 0.9, 1.5, 3.0])
    def test_rows_match_the_per_order_loop(self, eta, dim):
        # the carrier, low and high sideband orders (a red and a blue pulse
        # of one order read one row) and the last order the diagonal holds
        ks = sorted({0, 1, 2, 3, 7, dim // 3, dim // 2, dim - 2, dim - 1})
        x = eta * eta
        for orders in (ks, ks[1:], ks[-1:]):
            # the whole diagonal, and the narrower tables of a support bound:
            # each element is the per-order loop's, bit for bit
            for width in sorted({dim - orders[0], dim // 2, 1, 0}):
                rows = _series(x, dim, orders, width)
                assert rows.shape == (len(orders), width)
                for row, k in zip(rows, orders):
                    assert np.array_equal(row[: dim - k], loop_series(x, dim, k)[:width]), (k, width)
                    assert not row[dim - k :].any(), (k, width)

    @pytest.mark.parametrize("dim", [17, 62, 122])
    @pytest.mark.parametrize("eta", [0.25, 0.9, 1.5, 3.0])
    def test_rows_with_no_short_order_match_the_per_order_loop(self, eta, dim):
        # every order holds the whole width, so no row is zeroed past its end
        x, orders = eta * eta, [0, 1, 2, 3, 7]
        for width in (2, dim // 2):
            rows = _series(x, dim, orders, width)
            assert rows.shape == (len(orders), width)
            for row, k in zip(rows, orders):
                want = loop_series(x, dim, k)[:width]
                assert np.array_equal(row.view(np.uint64), want.view(np.uint64)), (k, width)

    @pytest.mark.parametrize("eta", [0.25, 3.0])
    @pytest.mark.parametrize(
        "orders", [list(range(321)), [3, 150, 300, 301, 314]], ids=["all", "some"]
    )
    def test_width_one_head_matches_the_per_order_loop(self, eta, orders):
        # a table one element wide holds m = 0 alone, its j = 0 term: one running
        # product of sqrt(i) / i; at D = 330 the heads of orders up to 320 run from
        # normal numbers through subnormal ones (from order 301) to zero (from 314)
        x = eta * eta
        rows = _series(x, 330, orders, 1)
        assert rows.shape == (len(orders), 1)
        want = np.array([loop_series(x, 330, k)[0] for k in orders])
        assert rows[:, 0].view(np.uint64).tolist() == want.view(np.uint64).tolist()
        heads = dict(zip(orders, rows[:, 0].tolist()))
        assert np.finfo(float).tiny < heads[300] and 0.0 < heads[301] < np.finfo(float).tiny
        assert heads[314] == 0.0
        assert _series(x, 330, orders, 0).shape == (len(orders), 0)

    def test_head_of_a_high_order_takes_a_few_mib(self):
        # the j = 0 terms are one running product over i <= max k; at
        # D = 2897 that product over every element would take 192 MiB, but
        # order 2896 holds only m = 0
        rows, peak = _peak(lambda: _series(0.0625, 2897, [0, 2896], 2897))
        assert np.array_equal(rows[1, :1], loop_series(0.0625, 2897, 2896))
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("start", ["ground", "partial", "seeded"])
    @pytest.mark.parametrize("case", ["mixed", "long", "phase5", "phase20", "phase80"])
    @pytest.mark.parametrize("eta", [0.25, 0.9, 1.5])
    def test_schedule_matches_per_pulse_propagation(self, monkeypatch, eta, case, start, rng):
        # one series loop and runs of pulses on the pairs that can hold
        # amplitude give the amplitudes of one Hamiltonian per pulse on all
        # its pairs, bit for bit: repeated carriers, red and blue at one order
        # and random phases ("mixed"), a schedule of many runs at a budget of
        # 180 pairs ("long") and compiled phase states, from |0>|g>, from a
        # state populated up to level D/2 in |g> and at |3>|e> ("partial")
        # and from every level
        if case.startswith("phase"):
            target = PhaseStateTarget(int(case[5:]), 0.3)
            params = _params(default_fock_dim(target), eta)
            schedule = compile_target(target, params).schedule
        elif case == "long":
            params = _params(128, eta)
            schedule = _long_schedule(params, rng)
            monkeypatch.setattr(states, "RUN_PAIRS", 180)
        else:
            params = _params(40, eta)
            orders = [("carrier", 0), ("red", 3), ("blue", 3), ("carrier", 0), ("red", 1),
                      ("blue", 12), ("red", 12), ("carrier", 0), ("blue", 39)]
            schedule = PulseSchedule(params, tuple(
                Pulse(kind, k, float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, 1e-3)))
                for kind, k in orders
            ))
        state = initial = JointState.ground(params.fock_dim)
        if start != "ground":
            state = initial = _start(rng, params.fock_dim, start == "partial")
        for p in schedule.pulses:
            state = propagate(build_hamiltonian(params, p.kind, p.k, p.phase), state, p.duration)
        final = _oracle_final(initial, schedule).amplitudes
        assert np.array_equal(final, state.amplitudes)
        # and the pair update, pinned by a reference that shares none of its code
        want = _pair_reference(initial.amplitudes, params, schedule.pulses)
        np.testing.assert_array_equal(final, want)

    @pytest.mark.parametrize("phase", [0.0, math.pi / 2, 1.0])
    @pytest.mark.parametrize("kind,k", [("carrier", 0), ("red", 1), ("red", 3), ("blue", 2)])
    def test_pair_update_keeps_the_sign_of_zero(self, kind, k, phase):
        # from a state on every level, whose parts are +-0.0 or one value,
        # the pulse turns all of its pairs, as the reference does; each
        # amplitude matches it bit for bit, -0.0 included
        params = _params(120, 0.9)
        amps = signed_zero_amplitudes(np.random.default_rng(k), 240)
        amps[-2:] = 1.0  # the top level holds amplitude: every pair can
        initial = JointState(amps / np.linalg.norm(amps))
        schedule = PulseSchedule(params, (Pulse(kind, k, phase, 1e-4),))
        got = _oracle_final(initial, schedule).amplitudes
        want = _pair_reference(initial.amplitudes, params, schedule.pulses)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize(
        "dim,orders,sizes",
        [
            # red 3 from |0>|g> has no pair that can hold amplitude
            (10, [("red", 3), ("carrier", 0), ("red", 3), ("blue", 2)], [0, 1, 1, 4]),
            # red 9 reaches |9>|g>, the guard cell of blue 1, whose bound then
            # stops at D - 1 pairs, and the carrier and red 2 at D - k
            (10, [("carrier", 0), ("red", 9), ("blue", 1), ("carrier", 0), ("red", 2)],
             [1, 1, 9, 10, 8]),
        ],
        ids=["empty_pulse", "guard_cells"],
    )
    def test_pairs_stop_at_the_support_bound(self, monkeypatch, rng, dim, orders, sizes):
        params = _params(dim, 0.9)
        schedule = PulseSchedule(params, tuple(
            Pulse(kind, k, float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, 1e-3)))
            for kind, k in orders
        ))
        state = initial = JointState.ground(dim)
        for p in schedule.pulses:
            state = propagate(build_hamiltonian(params, p.kind, p.k, p.phase), state, p.duration)
        build, built = oracle._pairs, []

        def spy(params, pulses, n, ks, table):
            built.extend(n)
            return build(params, pulses, n, ks, table)

        monkeypatch.setattr(oracle, "_pairs", spy)
        assert np.array_equal(_oracle_final(initial, schedule).amplitudes, state.amplitudes)
        assert built == sizes

    @pytest.mark.parametrize("start", ["ground", "partial"])
    def test_builds_the_pairs_the_kernel_rotates(self, monkeypatch, rng, start):
        # the kernel's pair count of each pulse, read from the np.subtract that
        # writes its lower members, is the size oracle._pairs gets for it, over
        # 20 schedules of five orders from |0>|g> or from a state on the levels
        # up to D/2 in |g> and at |3>|e>
        params = _params(128)
        rotated, built, build = [], [], oracle._pairs

        def subtract(a, b, out):
            rotated.append(out.size)
            return np.subtract(a, b, out=out)

        def spy(params, pulses, sizes, ks, table):
            built.extend(sizes)
            return build(params, pulses, sizes, ks, table)

        monkeypatch.setattr(states, "np", SimpleNamespace(**{**vars(np), "subtract": subtract}))
        monkeypatch.setattr(oracle, "_pairs", spy)
        for _ in range(20):
            initial = JointState.ground(params.fock_dim)
            if start == "partial":
                initial = _start(rng, params.fock_dim, partial=True)
            schedule = _long_schedule(params, rng)
            rotated.clear()
            built.clear()
            assert verify_schedule(initial, schedule) >= 1 - 1e-9
            assert rotated == built and len(built) == len(schedule.pulses)

    def test_series_table_spans_only_the_support_bound(self, monkeypatch):
        # from |0>|g> every pulse of the N = 80 ladder has one pair that can
        # hold amplitude, so D = 242 sums the series of its 81 orders at m = 0,
        # and its 81 pulses of one pair each go in one run
        params = _params(242)
        schedule = compile_target(PhaseStateTarget(80, 0.3), params).schedule
        series, pairs, shapes, runs = oracle._series, oracle._pairs, [], []

        def spy(*args):
            table = series(*args)
            shapes.append(table.shape)
            return table

        def run_spy(params, pulses, *args):
            runs.append(len(pulses))
            return pairs(params, pulses, *args)

        monkeypatch.setattr(oracle, "_series", spy)
        monkeypatch.setattr(oracle, "_pairs", run_spy)
        assert verify_schedule(JointState.ground(242), schedule) >= 1 - 1e-9
        assert shapes == [(81, 1)]
        assert runs == [81]

    @pytest.mark.parametrize(
        "where,value,match",
        [
            pytest.param((1, 1), lambda p: p[1, 0], "itself", id="self_pair"),
            pytest.param((1, 1), lambda p: 256, "outside", id="index_past_2D"),
            pytest.param((2, 1), lambda p: p[1, 1], "more than one other", id="state_in_two_pairs"),
        ],
    )
    def test_checks_every_pulse_of_every_run(self, monkeypatch, rng, where, value, match):
        # at a budget of 5 * 36 pairs the schedule goes in six runs of five;
        # _pairs goes wrong past the first pulse of the sixth run, and the
        # shared HamiltonianMatrix checks must catch it
        params = _params(128)
        schedule = _long_schedule(params, rng)
        monkeypatch.setattr(states, "RUN_PAIRS", 5 * 36)
        build, calls = oracle._pairs, []

        def wrong(params, pulses, sizes, ks, table):
            pairs, couplings = build(params, pulses, sizes, ks, table)
            calls.append(len(pulses))
            if len(calls) == 6:
                pairs = pairs.copy()
                pulse = pairs[sizes[0] :]  # the run's second pulse first
                pulse[where] = value(pulse)
            return pairs, couplings

        monkeypatch.setattr(oracle, "_pairs", wrong)
        with pytest.raises(ValueError, match=match):
            verify_schedule(JointState.ground(params.fock_dim), schedule)
        assert calls == [5] * 6

    def test_rejects_an_order_past_the_truncation_mid_schedule(self):
        # red k = D has no pair, so the kernel would pass it from |0>|g>; the
        # schedule refuses it when built, before either loop can run it
        params = _params(8)
        pulses = (Pulse("carrier", 0, 0.0, 0.0), Pulse("red", 8, 0.0, 1e-5), Pulse("red", 1, 0.3, 1e-5))
        with pytest.raises(ValueError, match="pulse 1: sideband order k=8 needs k < fock_dim=8"):
            PulseSchedule(params, pulses)


class TestPropagate:
    def test_zero_duration_identity(self, params, rng):
        state = JointState(random_guarded_amplitudes(rng, params.fock_dim, "carrier", 0))
        ham = build_hamiltonian(params, "carrier", 0, 0.2)
        out = propagate(ham, state, 0.0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-14)

    @pytest.mark.parametrize(
        "duration,message",
        [
            (math.nan, "duration must be finite and >= 0, got nan"),
            (math.inf, "duration must be finite and >= 0, got inf"),
            (-1e-6, "duration must be finite and >= 0, got -1e-06"),
            (True, "expected a number, got True"),
        ],
    )
    def test_refuses_a_duration_as_a_pulse_does(self, params, duration, message):
        # not later, as a state norm off by nan, and a bool is not read as 1 s
        ham = build_hamiltonian(params, "red", 1, 0.2)
        with pytest.raises(ValueError) as got:
            propagate(ham, JointState.ground(params.fock_dim), duration)
        assert str(got.value) == message

    def test_full_rabi_cycle_returns(self, params):
        # W_00 t = pi: |0>|g> returns to itself up to a sign
        w = rabi_frequency(params, 0, 0).value
        ham = build_hamiltonian(params, "carrier", 0, 1.0)
        out = propagate(ham, JointState.ground(params.fock_dim), math.pi / w)
        assert out.population(0, GROUND) == pytest.approx(1.0, abs=1e-11)
        assert out.amplitude(0, GROUND).real == pytest.approx(-1.0, abs=1e-11)

    def test_norm_preserved(self, params, rng):
        ham = build_hamiltonian(params, "blue", 2, 0.4)
        state = JointState(random_guarded_amplitudes(rng, params.fock_dim, "blue", 2))
        out = propagate(ham, state, 0.2)
        assert abs(np.linalg.norm(out.amplitudes) - 1) <= 1e-11

    @pytest.mark.parametrize("eta", [0.25, 0.9, 1.5])
    def test_matches_dense_expm(self, eta, rng):
        # random pulses on random states, each for a duration that turns the
        # most strongly coupled pair by up to 2 and by up to 100 turns
        worst = 0.0
        for _ in range(30):
            dim = int(rng.integers(6, 61))
            kind = ("red", "blue", "carrier")[int(rng.integers(3))]
            k = 0 if kind == "carrier" else int(rng.integers(1, min(6, dim - 1) + 1))
            ham = build_hamiltonian(_params(dim, eta), kind, k, float(rng.uniform(0, 2 * math.pi)))
            amps = rng.normal(size=2 * dim) + 1j * rng.normal(size=2 * dim)
            amps /= np.linalg.norm(amps)
            fastest = float(np.max(np.abs(ham.couplings)))
            for turns in (2, 100):
                duration = float(rng.uniform(0, turns * 2 * math.pi / fastest))
                out = propagate(ham, JointState(amps), duration).amplitudes
                exact = expm(-1j * dense(ham) * duration) @ amps
                worst = max(worst, float(np.linalg.norm(out - exact)))
        assert worst <= 1e-12

    def test_zero_coupling_leaves_its_pair_unchanged(self, rng):
        # at eta = 1 the carrier element m = 1 is 1 - 1 = 0 exactly, so the
        # block of pair {|1,g>, |1,e>} is zero
        ham = build_hamiltonian(_params(12, eta=1.0), "carrier", 0, 0.4)
        assert ham.couplings[1] == 0.0
        amps = rng.normal(size=24) + 1j * rng.normal(size=24)
        amps /= np.linalg.norm(amps)
        duration = 3.0 / np.max(np.abs(ham.couplings))
        out = propagate(ham, JointState(amps), duration).amplitudes
        assert np.array_equal(out[2:4], amps[2:4])
        assert np.linalg.norm(out - expm(-1j * dense(ham) * duration) @ amps) <= 1e-12

    def test_rejects_non_hermitian(self):
        # pairs (0, 1) and (1, 0) would set H[0, 1] = 1e4 and H[1, 0] = 2e4
        with pytest.raises(ValueError, match="more than one other"):
            HamiltonianMatrix(np.array([[0, 1], [1, 0]]), np.array([1e4, 2e4], complex), 16)

    @pytest.mark.parametrize(
        "pairs,couplings,match",
        [
            pytest.param([[0, 3], [2, 2]], 2, "itself", id="self_pair"),
            pytest.param([[0, 3], [1, 32]], 2, "outside", id="index_past_2D"),
            pytest.param([[0, -1]], 1, "outside", id="negative_index"),
            pytest.param([[0, 3], [1, 2]], 3, "shape", id="length_mismatch"),
            pytest.param([0, 3], 1, "shape", id="flat_pairs"),
            pytest.param([[0.0, 3.0]], 1, "shape", id="float_pairs"),
        ],
    )
    def test_rejects_a_malformed_pair_list(self, pairs, couplings, match):
        with pytest.raises(ValueError, match=match):
            HamiltonianMatrix(np.array(pairs), np.ones(couplings, complex), 16)

    def test_rejects_a_state_coupled_to_two_others(self):
        with pytest.raises(ValueError, match="more than one other"):
            HamiltonianMatrix(np.array([[0, 1], [0, 3]]), np.array([1e4, 2e4], complex), 16)

    def test_energy_conserved_along_evolution(self, params, rng):
        ham = build_hamiltonian(params, "red", 1, 0.8)
        amps = random_guarded_amplitudes(rng, params.fock_dim, "red", 1)
        state = JointState(amps)
        h = dense(ham)
        e0 = float(np.vdot(amps, h @ amps).real)
        assert abs(e0) > 1.0  # a generic state carries nonzero coupling energy
        for t in (1e-5, 7e-5, 3e-4, 2e-3):
            evolved = propagate(ham, state, t).amplitudes
            et = float(np.vdot(evolved, h @ evolved).real)
            assert abs(et - e0) <= 1e-9 * abs(e0)


class TestOracleEquivalence:
    def test_closed_form_matches_propagation(self, rng):
        params = _params(24)
        worst = 0.0
        for _ in range(40):
            kind = ("red", "blue", "carrier")[int(rng.integers(3))]
            k = 0 if kind == "carrier" else int(rng.integers(1, 6))
            phase = float(rng.uniform(0, 2 * math.pi))
            w0k = rabi_frequency(params, 0, k).value
            duration = float(rng.uniform(0, 5 * math.pi / w0k))
            amps = random_guarded_amplitudes(rng, params.fock_dim, kind, k)
            closed = apply_pulse_amplitudes(amps, params, Pulse(kind, k, phase, duration))
            ham = build_hamiltonian(params, kind, k, phase)
            oracle = propagate(ham, JointState(amps), duration)
            worst = max(worst, float(np.linalg.norm(closed - oracle.amplitudes)))
        assert worst <= 1e-8


class TestVerifySchedule:
    def test_empty_schedule(self, params):
        schedule = PulseSchedule(params, ())
        assert verify_schedule(JointState.ground(params.fock_dim), schedule) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_fock_five(self):
        params = _params(12)
        report = compile_target(FockTarget(5), params)
        fid = verify_schedule(JointState.ground(params.fock_dim), report.schedule)
        assert fid >= 1 - 1e-8

    def test_phase_state_four(self):
        params = _params(14)
        report = compile_target(PhaseStateTarget(4, math.pi / 3), params)
        fid = verify_schedule(JointState.ground(params.fock_dim), report.schedule)
        assert fid >= 1 - 1e-8

    @pytest.mark.parametrize(
        "check", [run_schedule, _oracle_final, verify_schedule], ids=["kernel", "oracle", "verify"]
    )
    def test_refuses_a_state_of_another_dimension(self, check):
        # one rule, states._support's, for both passes: the oracle pass alone
        # returned a 7-level state for a D = 6 schedule
        schedule = compile_target(PhaseStateTarget(4, 0.3), _params(6)).schedule
        with pytest.raises(ValueError, match="initial dim 7 != schedule fock_dim 6"):
            check(JointState.ground(7), schedule)

    def test_reads_the_support_rule_once(self, monkeypatch):
        # the kernel and the oracle pass both run from one states._support plan
        params = _params(14)
        schedule = compile_target(PhaseStateTarget(4, math.pi / 3), params).schedule
        support, calls = states._support, []

        def counted(amps, dim, pulses):
            calls.append(len(pulses))
            return support(amps, dim, pulses)

        monkeypatch.setattr(states, "_support", counted)
        monkeypatch.setattr(oracle, "_support", counted)
        assert verify_schedule(JointState.ground(params.fock_dim), schedule) >= 1 - 1e-12
        assert calls == [len(schedule.pulses)]

    @pytest.mark.parametrize("name", ["_run", "_oracle_pass"], ids=["kernel", "oracle"])
    def test_checks_the_norm_of_both_finals(self, monkeypatch, name):
        # verify reads the two finals as raw arrays; each is still held to the
        # norm a JointState is: a final scaled by 1 + 1e-9 is refused
        params = _params(14)
        schedule = compile_target(PhaseStateTarget(4, math.pi / 3), params).schedule
        ground = JointState.ground(params.fock_dim)
        assert verify_schedule(ground, schedule) >= 1 - 1e-12
        final = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *args: final(*args) * (1 + 1e-9))
        with pytest.raises(ValueError, match=r"^state norm deviates from 1 by 1\.000e-09$"):
            verify_schedule(ground, schedule)

    def test_flags_a_wrong_closed_form_coupling(self, monkeypatch):
        """A closed-form W_{0,2} off by 1e-3 relative fails the 1e-8 gate.

        The infidelity goes as the square of the rotation-angle error, so
        the 1e-6 perturbation one might first reach for gives 2.3e-13 here,
        below any fidelity tolerance the CLI uses; 1e-3 gives 2.3e-7.
        """
        params = _params(14)
        schedule = compile_target(PhaseStateTarget(4, math.pi / 3), params).schedule
        ground = JointState.ground(params.fock_dim)
        assert verify_schedule(ground, schedule) >= 1 - 1e-12
        _perturb_closed_form(monkeypatch, 2)
        assert verify_schedule(ground, schedule) < 1 - 1e-8

    @pytest.mark.parametrize(
        "name,mutant",
        [
            # the kernel's sideband coefficient i^(k-1) read as i^k: 1 - F = 0.32
            ("ipow", lambda n: ipow(n + 1)),
            # the kernel's laser phase factor exp(-i phi) read as exp(+i phi): 1 - F = 0.96
            ("cmath", SimpleNamespace(exp=lambda z: cmath.exp(z.conjugate()))),
        ],
        ids=["sideband_power_of_i", "laser_phase_sign"],
    )
    def test_flags_a_kernel_phase_convention_it_does_not_share(self, monkeypatch, name, mutant):
        """The oracle's phases come from the ladder series, not the kernel's.

        Changing a phase convention in the pulse kernel alone must fail the
        gate; an oracle that read the kernel's convention would pass.
        """
        params = _params(14)
        schedule = compile_target(PhaseStateTarget(4, math.pi / 3), params).schedule
        ground = JointState.ground(params.fock_dim)
        monkeypatch.setattr(states, name, mutant)
        assert verify_schedule(ground, schedule) < 1 - 1e-8

    def test_a_bound_one_pair_short_fails_the_all_pairs_reference(self, monkeypatch, rng):
        """Both pulse loops take their pairs from the one support bound,
        states._support, so verify, which compares the loops, cannot see a
        wrong bound; the references that bound nothing can.

        A bound that leaves out each pulse's top pair fails the all-pairs
        build_hamiltonian/propagate reference from a partly populated start, in
        the kernel and in the oracle alike, while verify still passes.
        """
        params = _params(14)
        schedule = compile_target(PhaseStateTarget(4, math.pi / 3), params).schedule
        state = initial = _start(rng, params.fock_dim, partial=True)
        for p in schedule.pulses:
            state = propagate(build_hamiltonian(params, p.kind, p.k, p.phase), state, p.duration)
        assert fidelity(run_schedule(initial, schedule), state) >= 1 - 1e-12
        assert fidelity(_oracle_final(initial, schedule), state) >= 1 - 1e-12
        support = states._support

        def one_short(amps, dim, pulses):
            sizes, plan, width, step = support(amps, dim, pulses)
            return [max(n - 1, 0) for n in sizes], plan, width, step

        monkeypatch.setattr(states, "_support", one_short)
        monkeypatch.setattr(oracle, "_support", one_short)
        assert fidelity(run_schedule(initial, schedule), state) < 1 - 1e-8
        assert fidelity(_oracle_final(initial, schedule), state) < 1 - 1e-8
        assert verify_schedule(initial, schedule) >= 1 - 1e-12

    @pytest.mark.parametrize("dim", [82, 242])
    def test_phase_state_eighty(self, monkeypatch, dim):
        # N = 80 at eta = 0.25, at the default truncation (D = 82) and at
        # D = 242; a closed-form W_{0,80} off by 1e-3 relative reads 1 - F = 3.0e-8
        target = PhaseStateTarget(80, 0.3)
        assert default_fock_dim(target) == 82
        params = _params(dim)
        schedule = compile_target(PhaseStateTarget(80, 0.3), params).schedule
        ground = JointState.ground(params.fock_dim)
        assert verify_schedule(ground, schedule) >= 1 - 1e-9
        _perturb_closed_form(monkeypatch, 80)
        assert verify_schedule(ground, schedule) < 1 - 1e-8
