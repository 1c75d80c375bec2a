"""Trap/laser parameters, sideband Rabi frequencies, and pulse coefficients.

A classical laser tuned to the carrier (w_L = w0) or to the k-th red/blue
sideband (w_L = w0 -/+ k*w_trap) of a harmonically trapped two-level ion
couples |m>|e| <-> |m+k>|g> (red) or |m>|g> <-> |m+k>|e> (blue) with the
all-orders Rabi frequency

    W_{m,k} = (W/2) exp(-eta^2/2) eta^k sqrt(m!/(m+k)!) L_m^k(eta^2)

where eta is the Lamb-Dicke parameter, W the carrier Rabi frequency and
L_m^k an associated Laguerre polynomial.  All angular frequencies are in
rad/s, durations in seconds.

rabi_column builds a whole column W_{0..size-1,k} at once from the
normalized Laguerre three-term recurrence (the matrix-element form of
Cahill & Glauber, Phys. Rev. 177, 1857 (1969)):

    g_0 = 1,
    g_{n+1} = sqrt((n+1)/(n+1+k)) ((2n+1+k-x) g_n - sqrt(n(n+k)) g_{n-1}) / (n+1),
    W_{n,k} = (W/2) eta^k exp(-x/2) / sqrt(k!) * g_n,       x = eta^2,

with the prefactor taken in log space.  Unlike the alternating power
series in x, the recurrence does not cancel catastrophically: against
mpmath at 60 digits, |W_{m,k} - exact| <= 7e-14 W for eta in {0.25, 0.9, 1.5, 3},
m <= 400 and k in {0, 1, 3, 10, 30}.  Columns are memoized, so the pulse
kernel, the compilers and the CLI all read one value per W_{m,k}.

A square pulse of duration t and initial laser phase phi acts on each
coupled pair as a 2x2 rotation built from the transition amplitude

    red/blue:  C = i^(k-1) exp(-i phi) sin(W_{m,k} t)
    carrier:   C = -i      exp(-i phi) sin(W_{m,0} t)

and its back-transition partner C~ = -conj(C).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_ETA",
    "DEFAULT_OMEGA_RAD_S",
    "DEFAULT_TRAP_FREQ_RAD_S",
    "DEFAULT_ATOMIC_FREQ_RAD_S",
    "PhysicalParams",
    "RabiValue",
    "PulseCoefficient",
    "RabiUnderflowError",
    "rabi_column",
    "rabi_frequency",
    "pulse_coefficient",
    "shortest_duration_for",
    "lamb_dicke_parameter",
]

# Defaults mirror a 40Ca+ quadrupole-transition trap (729 nm, 135 kHz trap).
DEFAULT_ETA = 0.25
DEFAULT_OMEGA_RAD_S = 5.0e4
DEFAULT_TRAP_FREQ_RAD_S = 2.0 * math.pi * 135.0e3
DEFAULT_ATOMIC_FREQ_RAD_S = 2.0 * math.pi * 4.11e14

_HBAR = 1.054571817e-34  # J s
_SPEED_OF_LIGHT = 299792458.0  # m / s

# Smallest positive normal double; couplings below this raise.
_LOG_MIN_NORMAL = math.log(2.2250738585072014e-308)

# Running terms of the recurrence are divided by this power of two
# whenever they grow past it, so no column overflows however large k is.
_RESCALE = 2.0**500
_LOG_RESCALE = 500 * math.log(2.0)

_PULSE_KINDS = ("red", "blue", "carrier")

# Exact integer powers of i and -i (complex ** drifts for large exponents).
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


def ipow(n: int) -> complex:
    """i**n, exact for any integer n."""
    return _I_POW[n % 4]


def neg_ipow(n: int) -> complex:
    """(-i)**n, exact for any integer n."""
    return _I_POW[-n % 4]


class RabiUnderflowError(ArithmeticError):
    """Coupling magnitude below the representable double range.

    Carries ``log_magnitude``, the natural log of the unrepresentable
    |W_{m,k}| in rad/s.
    """

    def __init__(self, m: int, k: int, log_magnitude: float):
        super().__init__(
            f"Rabi frequency for m={m}, k={k} underflows double precision "
            f"(ln|W| = {log_magnitude:.2f})"
        )
        self.m = m
        self.k = k
        self.log_magnitude = log_magnitude


@dataclass(frozen=True)
class PhysicalParams:
    """Trap and laser constants for one compiled schedule.

    eta           -- Lamb-Dicke parameter, held fixed across the sidebands
                     of a schedule (it varies only negligibly over small k).
    omega_carrier -- carrier Rabi frequency in rad/s.
    fock_dim      -- motional truncation dimension D (Fock levels 0..D-1).
    trap_freq     -- trap frequency in rad/s (informational).
    atomic_freq   -- atomic transition frequency in rad/s (informational).
    """

    eta: float
    omega_carrier: float
    fock_dim: int
    trap_freq: float = DEFAULT_TRAP_FREQ_RAD_S
    atomic_freq: float = DEFAULT_ATOMIC_FREQ_RAD_S

    def __post_init__(self):
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if not (self.omega_carrier > 0.0 and math.isfinite(self.omega_carrier)):
            raise ValueError(
                f"omega_carrier must be positive and finite, got {self.omega_carrier}"
            )
        if not isinstance(self.fock_dim, int) or self.fock_dim < 2:
            raise ValueError(f"fock_dim must be an integer >= 2, got {self.fock_dim}")


@dataclass(frozen=True)
class RabiValue:
    """Rabi frequency W_{m,k} of the |m> <-> |m+k| sideband transition."""

    m: int
    k: int
    value: float  # rad/s


@dataclass(frozen=True)
class PulseCoefficient:
    """Transition amplitude pair (C, C~) of one pulse on one Fock pair.

    C~ = -conj(C) always; |C| = |sin(W_{m,k} t)| <= 1.
    """

    c: complex
    c_tilde: complex


# Bounded: a phase-state schedule at N reads N + 1 columns.
@functools.lru_cache(maxsize=1024)
def _column(eta: float, omega: float, k: int, size: int) -> tuple[np.ndarray, dict]:
    """W_{0..size-1,k}, NaN where |W| underflows, and {m: ln|W_{m,k}|} of those m.

    g_n = sqrt(n! k!/(n+k)!) L_n^k(x) runs the recurrence of the module
    docstring; whenever |g| passes _RESCALE both carried terms are divided
    by it (exactly: a power of two) and its log joins the prefactor.
    """
    if k < 0:
        raise ValueError(f"sideband order must be >= 0, got k={k}")
    x = eta * eta
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
    log_pref = math.log(omega / 2.0) + k * math.log(eta) - x / 2.0 - 0.5 * math.lgamma(k + 1)
    with np.errstate(divide="ignore"):
        log_mag = log_pref + np.array(log_scale[:size]) + np.log(np.abs(g))
    values = np.copysign(np.exp(log_mag), g)
    lost = np.flatnonzero((log_mag < _LOG_MIN_NORMAL) & (g != 0.0))
    values[lost] = np.nan
    values.setflags(write=False)
    return values, {int(m): float(log_mag[m]) for m in lost}


def rabi_column(eta: float, omega: float, k: int, size: int) -> np.ndarray:
    """W_{m,k} in rad/s for m = 0..size-1, as one read-only array.

    Memoized per (eta, omega, k, size) in a bounded cache; entry m does not
    depend on size, so every consumer of a coupling sees one value.
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

    Reads the column that the pulse kernel uses for params.  Raises
    ValueError for negative indices and RabiUnderflowError when this
    magnitude drops below the representable double range.
    """
    if m < 0 or k < 0:
        raise ValueError(f"Fock index and sideband order must be >= 0, got m={m}, k={k}")
    values, lost = _column(params.eta, params.omega_carrier, k, max(m + 1, params.fock_dim - k))
    if m in lost:
        raise RabiUnderflowError(m, k, lost[m])
    return RabiValue(m, k, float(values[m]))


def _check_kind(kind: str, k: int):
    if kind not in _PULSE_KINDS:
        raise ValueError(f"unknown pulse kind {kind!r}")
    if kind == "carrier":
        if k != 0:
            raise ValueError(f"carrier pulses have k = 0, got k={k}")
    elif k < 1:
        raise ValueError(f"{kind} sideband order must be >= 1, got k={k}")


def pulse_coefficient(
    params: PhysicalParams,
    kind: str,
    k: int,
    m: int,
    phase: float,
    duration: float,
) -> PulseCoefficient:
    """Transition amplitude pair (C, C~) for one pulse acting on pair index m.

    For red/blue sidebands C = i^(k-1) e^{-i phase} sin(W_{m,k} duration);
    for the carrier C = -i e^{-i phase} sin(W_{m,0} duration).  m indexes
    the lower Fock level of the coupled pair.
    """
    _check_kind(kind, k)
    if duration < 0.0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    if not 0 <= m < params.fock_dim:
        raise ValueError(f"pair index m={m} outside truncation 0..{params.fock_dim - 1}")
    w = rabi_frequency(params, m, k).value
    s = math.sin(w * duration)
    unit = -1j if kind == "carrier" else ipow(k - 1)
    c = unit * complex(math.cos(phase), -math.sin(phase)) * s
    return PulseCoefficient(c, -c.conjugate())


def shortest_duration_for(
    params: PhysicalParams,
    kind: str,
    k: int,
    m: int,
    target: float,
    branch: str = "sin",
) -> float:
    """Smallest t >= 0 with sin(W_{m,k} t) = target (or cos, branch="cos").

    target must lie in [0, 1]; the principal branch is used (no extra
    2 pi n / W offsets), which is the shortest realizable duration.
    """
    _check_kind(kind, k)
    if branch not in ("sin", "cos"):
        raise ValueError(f"branch must be 'sin' or 'cos', got {branch!r}")
    if not 0.0 <= target <= 1.0:
        raise ValueError(f"target must lie in [0, 1], got {target}")
    w = rabi_frequency(params, m, k).value
    if w <= 0.0:
        raise ValueError(
            f"W_{{{m},{k}}} = {w} is not positive; no shortest duration exists"
        )
    angle = math.asin(target) if branch == "sin" else math.acos(target)
    return angle / w


def lamb_dicke_parameter(
    mass_kg: float, trap_freq_rad_s: float, laser_freq_rad_s: float
) -> float:
    """eta = (w_laser / c) sqrt(hbar / (2 M w_trap)) for a travelling wave.

    Convenience only: compiled schedules always use the eta stored in
    PhysicalParams, which experiments quote directly.
    """
    if mass_kg <= 0 or trap_freq_rad_s <= 0 or laser_freq_rad_s <= 0:
        raise ValueError("mass and frequencies must be positive")
    kappa = laser_freq_rad_s / _SPEED_OF_LIGHT
    return kappa * math.sqrt(_HBAR / (2.0 * mass_kg * trap_freq_rad_s))
