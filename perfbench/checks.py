"""Output checks for the benchmark, with references independent of ionpulse.

Target vectors are built here from each target's JSON description, and
couplings come from mpmath's associated Laguerre polynomials, so no check
reuses the code path it judges.  Each checker returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math

import numpy as np

SYNTH_TOL = 1e-9  # 1 - fidelity of a compiled and simulated state
ORACLE_TOL = 1e-8  # 1 - oracle fidelity, the CLI's default verify tolerance
COUPLING_TOL = 1e-9  # |W - W_mpmath| / omega_carrier
SMALLEST_NORMAL = 2.2250738585072014e-308
MP_DPS = 60  # digits; enough for L_m^k(eta^2) with m <= 400, eta <= 3

_G, _E = 0, 1


# ---------------------------------------------------------------------------
# Reference states


def reference_vector(spec: dict, dim: int) -> np.ndarray:
    """Ideal state of a target, given in the target JSON schema."""
    variant = spec["variant"]
    amps = np.zeros(2 * dim, dtype=complex)
    if variant == "bell":
        amps[2 * 0 + _E] = amps[2 * 1 + _G] = 1.0 / math.sqrt(2.0)
        return amps
    if variant == "fock":
        c = np.zeros(spec["n"] + 1, dtype=complex)
        c[-1] = 1.0
    elif variant == "phase_state":
        n = spec["n_max"]
        c = np.array([cmath.exp(1j * j * spec["theta_rad"]) for j in range(n + 1)])
    elif variant == "superposition":
        c = np.array([complex(re, im) for re, im in spec["amplitudes"]])
    elif variant in ("coherent", "even_coherent", "odd_coherent"):
        alpha = complex(*spec["alpha"])
        c = np.array(
            [alpha**j / math.sqrt(math.factorial(j)) for j in range(spec["n_max"] + 1)]
        )
        if variant != "coherent":
            keep = 0 if variant == "even_coherent" else 1
            c[np.arange(c.size) % 2 != keep] = 0.0
    else:
        raise ValueError(f"no reference for target variant {variant!r}")
    amps[2 * np.arange(c.size) + _G] = c / np.linalg.norm(c)
    return amps


def overlap_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 of two normalized vectors; the global phase is discarded."""
    return abs(complex(np.vdot(a, b))) ** 2


# ---------------------------------------------------------------------------
# Reference couplings (mpmath)


def mp_rabi(eta: float, omega: float, m: int, k: int):
    """W_{m,k} = (W/2) e^{-eta^2/2} eta^k sqrt(m!/(m+k)!) L_m^k(eta^2), as mpf."""
    import mpmath  # imported on first use: keeps it out of set-up time and peak RSS

    with mpmath.workdps(MP_DPS):
        e = mpmath.mpf(eta)
        x = e * e
        ratio = mpmath.exp(mpmath.loggamma(m + 1) - mpmath.loggamma(m + k + 1))
        return (
            mpmath.mpf(omega) / 2 * mpmath.exp(-x / 2) * e**k
            * mpmath.sqrt(ratio) * mpmath.laguerre(m, k, x)
        )


def coupling_error(value, reference, omega: float) -> float:
    """|W - W_mpmath| / omega_carrier; value None stands for an underflow error."""
    import mpmath

    if value is None:
        return 0.0 if abs(reference) < SMALLEST_NORMAL else math.inf
    return float(abs(mpmath.mpf(value) - reference) / omega)


def reference_final(pulses, eta: float, omega: float, dim: int) -> dict:
    """Evolve |0>|g> through a schedule using mpmath couplings.

    Only populated pairs are rotated, with the documented pulse algebra:
    C = u e^{-i phi} sin(W t), survival cos(W t), C~ = -conj(C), where
    u = -i for the carrier and i^(k-1) for a sideband of order k.
    Returns {(m, s): amplitude}.
    """
    amps = {(0, _G): 1 + 0j}
    cache = {}
    for p in pulses:
        k = p["k"]
        pairs = set()  # lower Fock index m of each touched pair
        for m, s in amps:
            if p["kind"] == "carrier":
                pairs.add(m)
            elif p["kind"] == "red":  # (|m+k>|g>, |m>|e>)
                pairs.add(m - k if s == _G else m)
            else:  # blue: (|m>|g>, |m+k>|e>)
                pairs.add(m if s == _G else m - k)
        unit = -1j if p["kind"] == "carrier" else 1j ** ((k - 1) % 4)
        phase_unit = cmath.exp(-1j * p["phase_rad"])
        new = dict(amps)
        for m in sorted(pairs):
            if m < 0 or m + k >= dim:
                continue  # no partner inside the truncation: the level is untouched
            if p["kind"] == "carrier":
                lo, up = (m, _G), (m, _E)
            elif p["kind"] == "red":
                lo, up = (m + k, _G), (m, _E)
            else:
                lo, up = (m, _G), (m + k, _E)
            if (m, k) not in cache:
                cache[m, k] = float(mp_rabi(eta, omega, m, k))
            angle = cache[m, k] * p["duration_s"]
            c = unit * phase_unit * math.sin(angle)
            survive = math.cos(angle)
            a_lo, a_up = amps.get(lo, 0j), amps.get(up, 0j)
            new[lo] = survive * a_lo - c.conjugate() * a_up
            new[up] = c * a_lo + survive * a_up
        amps = {key: a for key, a in new.items() if a != 0}
    return amps


# ---------------------------------------------------------------------------
# Checkers


def check_synth(spec, report, final, reloaded) -> list[str]:
    """Compiled-and-simulated state reaches the target; JSON round trip is exact."""
    problems = []
    dim = report.schedule.params.fock_dim
    infid = 1.0 - overlap_fidelity(reference_vector(spec, dim), final.amplitudes)
    if not infid <= SYNTH_TOL:
        problems.append(f"1 - fidelity = {infid:.3e} > {SYNTH_TOL:g}")
    if not np.array_equal(final.amplitudes, report.predicted_final.amplitudes):
        problems.append("run_schedule final state differs from report.predicted_final")
    original = report.schedule
    if reloaded.params != original.params or len(reloaded.pulses) != len(original.pulses):
        problems.append("reloaded schedule has other params or pulse count")
    else:
        for i, (a, b) in enumerate(zip(original.pulses, reloaded.pulses)):
            if (a.kind, a.k, a.phase, a.duration) != (b.kind, b.k, b.phase, b.duration):
                problems.append(f"reloaded pulse {i} differs: {a} != {b}")
                break
    return problems


def check_oracle(oracle_fidelity: float) -> list[str]:
    infid = 1.0 - oracle_fidelity
    if not infid <= ORACLE_TOL:
        return [f"1 - oracle fidelity = {infid:.3e} > {ORACLE_TOL:g}"]
    return []


def check_cli(returncode: int, stdout: str, needs_pass: bool, spec=None) -> list[str]:
    """Exit code 0 and parseable JSON; verify docs need "pass": true.

    A simulate doc (spec given) must also hold the target state.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if needs_pass and doc.get("pass") is not True:
        return [f'"pass" is {doc.get("pass")!r}']
    if spec is not None:
        final = np.array([complex(re, im) for re, im in doc["final"]["amplitudes"]])
        infid = 1.0 - overlap_fidelity(reference_vector(spec, final.size // 2), final)
        if not infid <= SYNTH_TOL:
            return [f"simulated state: 1 - fidelity = {infid:.3e} > {SYNTH_TOL:g}"]
    return []


def check_coupling(values, eta: float, omega: float, k: int) -> tuple[list[str], float]:
    """Compare a column W_{0..M,k} (None marks an underflow error) with mpmath.

    Returns (problems, max |W - W_mpmath| / omega_carrier).
    """
    problems, worst = [], 0.0
    for m, value in enumerate(values):
        err = coupling_error(value, mp_rabi(eta, omega, m, k), omega)
        worst = max(worst, err)
        if not err <= COUPLING_TOL and not problems:
            problems.append(f"W_{{{m},{k}}} at eta={eta:g}: |error| / W = {err:.3e}")
    return problems, worst


def check_fock(n: int, pulses, eta: float, omega: float, dim: int) -> list[str]:
    """The schedule, replayed with exact couplings, must reach |n>|g>."""
    amps = reference_final(pulses, eta, omega, dim)
    norm = sum(abs(a) ** 2 for a in amps.values())
    infid = 1.0 - abs(amps.get((n, _G), 0j)) ** 2 / norm
    if not infid <= SYNTH_TOL:
        return [f"Fock {n} at eta={eta:g}: exact-coupling 1 - fidelity = {infid:.3e}"]
    return []


# ---------------------------------------------------------------------------
# Checker self-test


def self_test(ip) -> list[str]:
    """Feed each checker one good and one deliberately corrupted result.

    Returns the checkers that failed to tell them apart.
    """
    bad = []
    params = ip.PhysicalParams(0.25, 5.0e4, 17)
    spec = {"variant": "phase_state", "n_max": 5, "theta_rad": 0.3}
    report = ip.compile_target(ip.PhaseStateTarget(5, 0.3), params)
    final = ip.run_schedule(ip.JointState.ground(17), report.schedule)
    pulses = list(report.schedule.pulses)
    pulses[2] = dataclasses.replace(pulses[2], duration=pulses[2].duration * (1 + 1e-6))
    corrupt = dataclasses.replace(report.schedule, pulses=tuple(pulses))
    if check_synth(spec, report, final, report.schedule) or not check_synth(
        spec, report, final, corrupt
    ):
        bad.append("check_synth (duration corrupted by 1e-6)")

    if check_oracle(1.0 - 1e-12) or not check_oracle(1.0 - 1e-6):
        bad.append("check_oracle (fidelity 1 - 1e-6)")

    column = [ip.rabi_frequency(params, m, 1).value for m in range(8)]
    corrupted = list(column)
    corrupted[3] *= 1 + 1e-6
    if check_coupling(column, 0.25, 5.0e4, 1)[0] or not check_coupling(
        corrupted, 0.25, 5.0e4, 1
    )[0]:
        bad.append("check_coupling (W_{3,1} corrupted by 1e-6)")

    doc = {"oracle_fidelity": 1.0, "pass": True}
    if check_cli(0, json.dumps(doc), True) or not check_cli(
        0, json.dumps(dict(doc, **{"pass": False})), True
    ):
        bad.append('check_cli ("pass": false)')

    fock = ip.compile_target(ip.FockTarget(2), ip.PhysicalParams(0.25, 5.0e4, 8))
    docs = [{"kind": p.kind, "k": p.k, "phase_rad": p.phase, "duration_s": p.duration}
            for p in fock.schedule.pulses]
    skewed = [dict(d) for d in docs]
    skewed[0]["duration_s"] *= 1 + 1e-3
    if check_fock(2, docs, 0.25, 5.0e4, 8) or not check_fock(2, skewed, 0.25, 5.0e4, 8):
        bad.append("check_fock (duration corrupted by 1e-3)")
    return bad
