import math

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from ionpulse import PhysicalParams


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


def dense(ham) -> np.ndarray:
    """The (2D, 2D) matrix a HamiltonianMatrix stands for."""
    h = np.zeros((2 * ham.fock_dim, 2 * ham.fock_dim), dtype=complex)
    i, j = ham.pairs.T
    h[i, j] = ham.couplings
    h[j, i] = ham.couplings.conj()
    return h
