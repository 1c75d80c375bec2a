"""Trap/laser parameters and sideband Rabi frequencies.

A classical laser tuned to the carrier (w_L = w0) or to the k-th red/blue
sideband (w_L = w0 -/+ k*w_trap) of a harmonically trapped two-level ion
couples |m>|e| <-> |m+k>|g> (red) or |m>|g> <-> |m+k>|e> (blue) with the
all-orders Rabi frequency

    W_{m,k} = (W/2) exp(-eta^2/2) eta^k sqrt(m!/(m+k)!) L_m^k(eta^2)

where eta is the Lamb-Dicke parameter, W the carrier Rabi frequency and
L_m^k an associated Laguerre polynomial.  All angular frequencies are in
rad/s, durations in seconds.

_column builds a column W_{0..size-1,k} from the normalized Laguerre
three-term recurrence (the matrix-element form of Cahill & Glauber,
Phys. Rev. 177, 1857 (1969)):

    g_0 = 1,
    g_{n+1} = sqrt((n+1)/(n+1+k)) ((2n+1+k-x) g_n - sqrt(n(n+k)) g_{n-1}) / (n+1),
    W_{n,k} = (W/2) eta^k exp(-x/2) / sqrt(k!) * g_n,       x = eta^2,

with the prefactor taken in log space.  Unlike the alternating power
series in x, the recurrence does not cancel catastrophically: against
mpmath at 60 digits, |W_{m,k} - exact| <= 7e-14 W for eta in {0.25, 0.9, 1.5, 3},
m <= 400 and k in {0, 1, 3, 10, 30}.  Entry m does not depend on the
column's size, so the kernel, the compilers and the CLI read one W_{m,k}.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_ETA", "DEFAULT_OMEGA_RAD_S", "PhysicalParams", "RabiValue", "RabiUnderflowError",
    "rabi_column", "rabi_frequency",
]

# Defaults mirror a 40Ca+ quadrupole-transition trap (729 nm, 135 kHz trap).
DEFAULT_ETA = 0.25
DEFAULT_OMEGA_RAD_S = 5.0e4

# Smallest positive normal double; couplings below this raise.
_LOG_MIN_NORMAL = math.log(2.2250738585072014e-308)

# Running terms of the recurrence are divided by this power of two
# whenever they grow past it, so no column overflows however large k is.
_RESCALE = 2.0**500
_LOG_RESCALE = 500 * math.log(2.0)

# Exact integer powers of i (complex ** drifts for large exponents).
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


def parse_int(value) -> int:
    """An integer (numpy's too) as an int; floats, bools and strings are refused."""
    if type(value) is int:  # the common case, ahead of the slow ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def parse_float(value) -> float:
    """A real number (numpy's too) as a float; bools and strings are refused, not coerced."""
    if type(value) is float:  # the common case, ahead of the slow ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def ipow(n: int) -> complex:
    """i**n, exact for any integer n."""
    return _I_POW[n % 4]


class RabiUnderflowError(ArithmeticError):
    """Coupling magnitude below the representable double range.

    Carries ``log_magnitude``, the natural log of the unrepresentable
    |W_{m,k}| in rad/s, and ``pulse_index`` where a schedule's pulse needed it.
    """

    def __init__(self, m: int, k: int, log_magnitude: float, pulse_index: int | None = None):
        super().__init__(
            f"Rabi frequency for m={m}, k={k} underflows double precision "
            f"(ln|W| = {log_magnitude:.2f})"
        )
        self.m = m
        self.k = k
        self.log_magnitude = log_magnitude
        self.pulse_index = pulse_index


def _check_rates(eta: float, omega: float):
    if not (eta > 0.0 and math.isfinite(eta)):
        raise ValueError(f"eta must be positive and finite, got {eta}")
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ValueError(f"omega_carrier must be positive and finite, got {omega}")


@dataclass(frozen=True)
class PhysicalParams:
    """Trap and laser constants for one compiled schedule.

    eta           -- Lamb-Dicke parameter, held fixed across the sidebands
                     of a schedule (it varies only negligibly over small k).
    omega_carrier -- carrier Rabi frequency in rad/s.
    fock_dim      -- motional truncation dimension D (Fock levels 0..D-1).
    """

    eta: float
    omega_carrier: float
    fock_dim: int

    def __post_init__(self):
        object.__setattr__(self, "eta", parse_float(self.eta))
        object.__setattr__(self, "omega_carrier", parse_float(self.omega_carrier))
        _check_rates(self.eta, self.omega_carrier)
        dim = parse_int(self.fock_dim)
        if dim < 2:
            raise ValueError(f"fock_dim must be an integer >= 2, got {dim}")
        object.__setattr__(self, "fock_dim", dim)


@dataclass(frozen=True)
class RabiValue:
    """Rabi frequency W_{m,k} of the |m> <-> |m+k| sideband transition."""

    m: int
    k: int
    value: float  # rad/s


@functools.lru_cache(maxsize=1024, typed=True)
def _column(eta: float, omega: float, k: int, size: int) -> tuple[np.ndarray, dict]:
    """W_{0..size-1,k}, NaN where |W| underflows, and {m: ln|W_{m,k}|} of those m.

    g_n = sqrt(n! k!/(n+k)!) L_n^k(x) runs the recurrence of the module
    docstring; whenever |g| passes _RESCALE both carried terms are divided
    by it (exactly: a power of two) and its log joins the prefactor.  The
    cache holds at most 1024 columns, 8 size bytes each: 8 KB if all are
    the one-entry columns of ladders from |0>|g>, 0.8 GB if all have 10^5
    entries.  Inputs are checked on a miss only; typed, so that k = 1.0
    misses k = 1's entry.
    """
    _check_rates(eta, omega)
    if parse_int(k) < 0 or parse_int(size) < 0:
        raise ValueError(f"sideband order and column size must be >= 0, got k={k}, size={size}")
    x = eta * eta
    log_pref = math.log(omega / 2.0) + k * math.log(eta) - x / 2.0 - 0.5 * math.lgamma(k + 1)
    if size == 1:  # g_0 = 1 at no scale: the entry is exp(log_pref) by the np.exp below
        lost = {0: log_pref} if log_pref < _LOG_MIN_NORMAL else {}
        values = np.where(bool(lost), np.nan, np.exp(np.array([log_pref])))
        values.setflags(write=False)
        return values, lost
    n = np.arange(max(size - 1, 0), dtype=float)
    a = np.sqrt((n + 1.0) / (n + 1.0 + k)) / (n + 1.0)
    g, log_scale = [1.0], [0.0]
    prev, cur, scale = 0.0, 1.0, 0.0
    for p, q in zip((a * (2.0 * n + 1.0 + k - x)).tolist(), (a * np.sqrt(n * (n + k))).tolist()):
        prev, cur = cur, p * cur - q * prev
        if abs(cur) > _RESCALE:
            prev, cur, scale = prev / _RESCALE, cur / _RESCALE, scale + _LOG_RESCALE
        g.append(cur)
        log_scale.append(scale)
    g = np.array(g[:size])
    with np.errstate(divide="ignore"):
        log_mag = log_pref + np.array(log_scale[:size]) + np.log(np.abs(g))
    values = np.copysign(np.exp(log_mag), g)
    lost = np.flatnonzero((log_mag < _LOG_MIN_NORMAL) & (g != 0.0))
    values[lost] = np.nan
    values.setflags(write=False)
    return values, {int(m): float(log_mag[m]) for m in lost}


def _coupling(eta: float, omega: float, m: int, k: int, size: int) -> float:
    """W_{m,k} from the column (k, size > m); RabiUnderflowError only if this entry underflows."""
    values, lost = _column(eta, omega, k, size)
    if m in lost:
        raise RabiUnderflowError(m, k, lost[m])
    return float(values[m])


def rabi_column(eta: float, omega: float, k: int, size: int) -> np.ndarray:
    """W_{m,k} in rad/s for m = 0..size-1, as one read-only array.

    Memoized per (eta, omega, k, size) in a bounded cache; entry m does not
    depend on size, so it equals the pulse kernel's W_{m,k} at any width.
    Raises RabiUnderflowError for the first m whose magnitude drops below
    the representable double range.
    """
    values, lost = _column(eta, omega, k, size)
    if lost:
        m = min(lost)
        raise RabiUnderflowError(m, k, lost[m])
    return values


def rabi_frequency(params: PhysicalParams, m: int, k: int) -> RabiValue:
    """All-orders sideband Rabi frequency W_{m,k}.

    m -- Fock index of the lower motional level of the pair (>= 0).
    k -- sideband order (0 for the carrier).

    Reads the column of order k as long as params' pairs of that order, at
    least m + 1.  Raises ValueError for negative or non-integer indices and
    RabiUnderflowError when this magnitude drops below the double range.
    """
    m, k = parse_int(m), parse_int(k)
    if m < 0 or k < 0:
        raise ValueError(f"Fock index and sideband order must be >= 0, got m={m}, k={k}")
    w = _coupling(params.eta, params.omega_carrier, m, k, max(m + 1, params.fock_dim - k))
    return RabiValue(m, k, w)
