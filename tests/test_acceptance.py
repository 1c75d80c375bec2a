"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on
failure) in addition to the usual pytest verdict.
"""

import csv
import io
import math

import numpy as np

from ionpulse import (
    EXCITED,
    GROUND,
    BellTarget,
    CoherentTarget,
    FockTarget,
    JointState,
    PhaseStateTarget,
    PhysicalParams,
    Pulse,
    SuperpositionTarget,
    apply_pulse_amplitudes,
    build_hamiltonian,
    compile_target,
    propagate,
    rabi_frequency,
    verify_schedule,
)
from ionpulse.cli import main as cli_main

from conftest import laguerre_rabi, random_guarded_amplitudes, run_alternating

ETA, OMEGA = 0.25, 5.0e4
FIG_ETAS = (0.1, 0.202, 0.25, 0.35, 0.5, 0.9)


def _report(number, description, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance {number:>2}] {verdict}: {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number}: {description} {detail}"


def _params(dim, eta=ETA):
    return PhysicalParams(eta=eta, omega_carrier=OMEGA, fock_dim=dim)


def test_01_phase_state_durations():
    report = compile_target(PhaseStateTarget(1, 0.7), _params(6))
    t0, t1 = (p.duration for p in report.schedule.pulses)
    ok = abs(t0 - 3.24e-5) <= 0.01 * 3.24e-5 and abs(t1 - 2.6e-4) <= 0.01 * 2.6e-4
    _report(1, "phase-state N=1 durations 3.24e-5 s / 2.6e-4 s within 1%", ok,
            f"t0={t0:.5e}, t1={t1:.5e}")


def test_02_bell_duration_and_fidelity():
    report = compile_target(BellTarget(), _params(5))
    t0 = report.schedule.pulses[0].duration
    ok_t = abs(t0 - 6.48e-5) <= 0.01 * 6.48e-5
    ok_f = report.fidelity_vs_target >= 1 - 1e-10
    _report(2, "Bell carrier duration 6.48e-5 s within 1%, fidelity >= 1-1e-10",
            ok_t and ok_f, f"t0={t0:.5e}, 1-f={1 - report.fidelity_vs_target:.2e}")


def test_03_two_pulse_fock():
    params = _params(32)
    worst = 1.0
    ok = True
    for n in range(1, 16):
        report = compile_target(FockTarget(n), params)
        ok = ok and len(report.schedule.pulses) == 2
        worst = min(worst, report.fidelity_vs_target)
    ok = ok and worst >= 1 - 1e-10
    _report(3, "Fock n=1..15 at D=32: exactly 2 pulses, fidelity >= 1-1e-10", ok,
            f"worst 1-f={1 - worst:.2e}")


def test_04_oracle_equivalence():
    rng = np.random.default_rng(1234)
    params = _params(40)
    worst = 0.0
    for _ in range(100):
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
    _report(4, "100 random pulses: closed form vs matrix exponential <= 1e-8",
            worst <= 1e-8, f"worst 2-norm distance {worst:.2e}")


def test_05_series_laguerre_identity():
    worst = 0.0
    for eta in FIG_ETAS:
        params = _params(4, eta=eta)
        for m in range(31):
            for k in range(11):
                series = rabi_frequency(params, m, k).value
                closed = laguerre_rabi(eta, OMEGA, m, k)
                worst = max(worst, abs(series - closed) / abs(closed))
    _report(5, "series vs associated-Laguerre closed form, rel err <= 1e-10 "
               "(m <= 30, k <= 10, six etas)", worst <= 1e-10, f"worst {worst:.2e}")


def test_06_superposition_compiler_soundness():
    rng = np.random.default_rng(56789)
    worst_fid, worst_oracle, worst_weight = 1.0, 1.0, 0.0
    for _ in range(200):
        n = int(rng.integers(1, 11))
        c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        c /= np.linalg.norm(c)
        params = _params(n + 4)
        report = compile_target(SuperpositionTarget(c), params)
        worst_fid = min(worst_fid, report.fidelity_vs_target)
        worst_oracle = min(
            worst_oracle,
            verify_schedule(JointState.ground(params.fock_dim), report.schedule),
        )
        # analytic composed weights vs simulated amplitudes
        from test_synthesis import analytic_superposition_weights

        weights = analytic_superposition_weights(report.schedule)
        simulated = np.array(
            [report.predicted_final.amplitude(j, GROUND) for j in range(n + 1)]
        )
        worst_weight = max(worst_weight, float(np.max(np.abs(weights - simulated))))
    ok = worst_fid >= 1 - 1e-10 and worst_oracle >= 1 - 1e-8 and worst_weight <= 1e-10
    _report(6, "200 random superpositions: fidelity >= 1-1e-10, oracle >= 1-1e-8, "
               "weight equations <= 1e-10", ok,
            f"1-f={1 - worst_fid:.2e}, 1-oracle={1 - worst_oracle:.2e}, dw={worst_weight:.2e}")


def test_07_coherent_approximation():
    from ionpulse import fidelity

    n = 12
    params = _params(3 * n + 2)
    report = compile_target(CoherentTarget(1.0, n), params)
    # independent Poisson tail: 1 - sum_{j<=N} e^{-1}/j!
    tail = 1.0 - math.fsum(math.exp(-1.0) / math.factorial(j) for j in range(n + 1))
    ref = np.array([1.0 / math.sqrt(math.factorial(j)) for j in range(n + 1)])
    ref /= np.linalg.norm(ref)
    target = np.zeros(2 * params.fock_dim, dtype=complex)
    target[2 * np.arange(n + 1) + GROUND] = ref
    overlap = fidelity(JointState(target), report.predicted_final)
    ok = overlap >= 1 - 1e-10 and tail <= 1e-9
    _report(7, "coherent alpha=1, N=12: overlap >= 1-1e-10, Poisson tail <= 1e-9",
            ok, f"1-overlap={1 - overlap:.2e}, tail={tail:.2e}")


def test_08_parity_segregation():
    rng = np.random.default_rng(97531)
    params = _params(12)
    w00 = rabi_frequency(params, 0, 0).value
    w01 = rabi_frequency(params, 0, 1).value
    t_invert = (math.pi / 2) / w00  # |C|^2 = 1: starts the alternation in |0>|e>
    sidebands = [
        (float(rng.uniform(0, math.pi / w01)), float(rng.uniform(0, 2 * math.pi)))
        for _ in range(6)
    ]
    final = run_alternating(params, t_invert, float(rng.uniform(0, 2 * math.pi)), sidebands)
    leak = 0.0
    for m in range(0, params.fock_dim, 2):
        leak = max(leak, abs(final.amplitude(m, GROUND)))
    for m in range(1, params.fock_dim, 2):
        leak = max(leak, abs(final.amplitude(m, EXCITED)))
    _report(8, "6 alternating pulses from |0>|e>: even(g)/odd(e) amplitudes <= 1e-12",
            leak <= 1e-12, f"max leak {leak:.2e}")


def test_09_rabi_table_monotonicity(capsys):
    code = cli_main(["rabi", "--m-max", "0", "--k-max", "10"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    table = {
        (float(r["eta"]), int(r["k"])): float(r["rabi_over_omega"]) for r in rows
    }
    etas = sorted({float(r["eta"]) for r in rows})
    ok = True
    for k in range(1, 11):  # increasing in eta for fixed k >= 1
        values = [table[(e, k)] for e in etas]
        ok = ok and all(b > a for a, b in zip(values, values[1:]))
    for e in etas:  # decreasing in k for fixed eta
        values = [table[(e, k)] for k in range(11)]
        ok = ok and all(b < a for a, b in zip(values, values[1:]))
    with capsys.disabled():
        _report(9, "rabi table: W_0k/W increasing in eta (k >= 1), decreasing in k", ok)


def test_10_unitarity_suite():
    rng = np.random.default_rng(24680)
    params = _params(16)
    worst = 0.0
    for _ in range(1000):
        kind = ("red", "blue", "carrier")[int(rng.integers(3))]
        k = 0 if kind == "carrier" else int(rng.integers(1, 5))
        pulse = Pulse(
            kind,
            k,
            float(rng.uniform(0, 2 * math.pi)),
            float(rng.uniform(0, 5e-4)),
        )
        amps = random_guarded_amplitudes(rng, params.fock_dim, kind, k)
        out = apply_pulse_amplitudes(amps, params, pulse)
        worst = max(worst, abs(float(np.linalg.norm(out)) - 1.0))
    _report(10, "1000 randomized pulse applications preserve norm to <= 1e-12",
            worst <= 1e-12, f"worst deviation {worst:.2e}")
