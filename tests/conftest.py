import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from ionpulse import JointState, PhysicalParams, Pulse, PulseSchedule, rabi_frequency, run_schedule
from ionpulse.core import ipow


@pytest.fixture
def params():
    return PhysicalParams(eta=0.25, omega_carrier=5.0e4, fock_dim=16)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def laguerre_rabi(eta: float, omega: float, m: int, k: int) -> float:
    """Independent closed form (W/2) e^{-x/2} eta^k sqrt(m!/(m+k)!) L_m^k(x)."""
    x = eta * eta
    log_pref = (
        math.log(omega / 2.0)
        + k * math.log(eta)
        - x / 2.0
        + 0.5 * (math.lgamma(m + 1) - math.lgamma(m + k + 1))
    )
    return math.exp(log_pref) * float(eval_genlaguerre(m, k, x))


def mpmath_rabi(eta: float, omega: float, m: int, k: int):
    """W_{m,k} from mpmath's associated Laguerre polynomial at 60 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        e = mpmath.mpf(eta)
        x = e * e
        ratio = mpmath.exp(mpmath.loggamma(m + 1) - mpmath.loggamma(m + k + 1))
        return (
            mpmath.mpf(omega) / 2 * mpmath.exp(-x / 2) * e**k
            * mpmath.sqrt(ratio) * mpmath.laguerre(m, k, x)
        )


def random_guarded_amplitudes(rng, dim: int, kind: str, k: int) -> np.ndarray:
    """Normalized random state with zero amplitude in the pulse's guard cells."""
    amps = rng.normal(size=2 * dim) + 1j * rng.normal(size=2 * dim)
    if kind == "red":
        for m in range(dim - k, dim):
            amps[2 * m + 1] = 0.0
    elif kind == "blue":
        for m in range(dim - k, dim):
            amps[2 * m + 0] = 0.0
    return amps / np.linalg.norm(amps)


def signed_zero_amplitudes(rng, size: int) -> np.ndarray:
    """A raw vector whose real and imaginary parts are each +0.0, -0.0, +1.0
    or -1.0: a pair update meets every mix of zero, real and imaginary
    members, where the sign of a zero result depends on how it is computed."""
    amps = np.empty(size, dtype=complex)
    amps.real, amps.imag = rng.choice([0.0, -0.0, 1.0, -1.0], size=(2, size))
    return amps


def run_alternating(params, carrier_duration, carrier_phase, sidebands, keep_trace=False):
    """Run a carrier, then red-1, blue-1, red-1, ... pulses, from |0>|g>.

    sidebands lists each sideband pulse's (duration, phase).
    """
    pulses = [Pulse("carrier", 0, carrier_phase, carrier_duration)] + [
        Pulse("red" if i % 2 == 0 else "blue", 1, phase, duration)
        for i, (duration, phase) in enumerate(sidebands)
    ]
    schedule = PulseSchedule(params, tuple(pulses))
    return run_schedule(JointState.ground(params.fock_dim), schedule, keep_trace=keep_trace)


def dense(ham) -> np.ndarray:
    """The (2D, 2D) matrix a HamiltonianMatrix stands for."""
    h = np.zeros((2 * ham.fock_dim, 2 * ham.fock_dim), dtype=complex)
    i, j = ham.pairs.T
    h[i, j] = ham.couplings
    h[j, i] = ham.couplings.conj()
    return h


def loop_series(x: float, dim: int, k: int) -> np.ndarray:
    """The coupled-diagonal series of one order k, in a loop of its own.

    The oracle sums all orders of a schedule in one loop; this is the
    per-order loop it must reproduce bit for bit.
    """
    m = np.arange(dim - k, dtype=float)
    i = np.arange(1.0, k + 1)
    term = np.prod(np.sqrt(m[:, None] + i) / i, axis=1)
    diagonal = term.copy()
    for j in range(m.size - 1):
        term *= -x * (m - j) / ((j + 1) * (j + k + 1))
        diagonal += term
    return diagonal


@dataclass(frozen=True)
class PulseCoefficient:
    """Transition amplitude pair (C, C~) of one pulse on one Fock pair.

    C~ = -conj(C) always; |C| = |sin(W_{m,k} t)| <= 1.
    """

    c: complex
    c_tilde: complex


def pulse_coefficient(
    params: PhysicalParams,
    kind: str,
    k: int,
    m: int,
    phase: float,
    duration: float,
) -> PulseCoefficient:
    """Transition amplitude pair (C, C~) for one pulse acting on pair index m.

    The pulse kernel's reference, one pair at a time: for red/blue
    sidebands C = i^(k-1) e^{-i phase} sin(W_{m,k} duration); for the
    carrier C = -i e^{-i phase} sin(W_{m,0} duration).  m indexes the
    lower Fock level of the coupled pair.
    """
    Pulse(kind, k, phase, duration)  # refuses what a pulse refuses
    if not 0 <= m < params.fock_dim:
        raise ValueError(f"pair index m={m} outside truncation 0..{params.fock_dim - 1}")
    w = rabi_frequency(params, m, k).value
    s = math.sin(w * duration)
    unit = -1j if kind == "carrier" else ipow(k - 1)
    c = unit * complex(math.cos(phase), -math.sin(phase)) * s
    return PulseCoefficient(c, -c.conjugate())
