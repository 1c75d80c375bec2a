"""Truncated Fock x two-level state vectors and exact square-pulse operators.

States live on the 2*D dimensional space spanned by |m>|g> and |m>|e> for
m = 0..D-1.  Amplitudes are stored interleaved with the internal index
fastest: amplitudes[2*m + s] with s = 0 (ground) or 1 (excited).  This
layout is part of the on-disk state format and must not change.

Each pulse decomposes into independent 2x2 rotations of coupled pairs:

    carrier:  (|m>|g>, |m>|e>)        rotation angle W_{m,0} t
    red k:    (|m+k>|g>, |m>|e>)      rotation angle W_{m,k} t
    blue k:   (|m>|g>, |m+k>|e>)      rotation angle W_{m,k} t

with the block [[cos(W t), C~], [C, cos(W t)]] acting on (lower, upper) of
the pair, built from the transition amplitude of a pulse with initial
laser phase phi

    red/blue:  C = i^(k-1) exp(-i phi) sin(W_{m,k} t)
    carrier:   C = -i      exp(-i phi) sin(W_{m,0} t)

and its back-transition partner C~ = -conj(C).  The cosine is signed:
past a quarter Rabi period the survival amplitude goes negative, which
the compact sqrt(1 - |C|^2) notation hides but the Schrodinger dynamics
(and the matrix-exponential oracle) require.  _coefficient(k, phi), the
factor of sin(W t) in C, is the one place that holds this convention:
the kernel applies it and the compilers solve every laser phase from it.

A sideband pulse of order k would push |m>|e> (red) or |m>|g> (blue) with
m >= D - k past the truncation boundary.  Such states must carry zero
amplitude before the pulse is applied ("support guard"); this keeps every
operator exactly unitary on the guarded subspace instead of silently
clipping probability.

Support bound: top_g and top_e, the highest levels that can hold
amplitude in |g> and |e>, come from the initial state's nonzero entries
and move with each pulse's kind and k.  A pulse has amplitude only in
its pairs m < n: n = min(max(top_e, top_g - k) + 1, D - k) for red k,
g and e swapped for blue k, n = max(top_g, top_e) + 1 for the carrier.
Only those rotate, coupled from one column per order as long as the
largest n, and the guard cells are scanned only once the bound reaches
them, so a pulse costs O(populated pairs), not O(D).  The other pairs
hold exact zeros, which keep their sign, where a rotation could have left
-0.0; nonzero amplitudes are bit-identical to rotating all, and an
underflowing W_{m,k} raises only where its pair holds amplitude.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import PhysicalParams, RabiUnderflowError, _check_kind, _column, ipow
from .core import parse_float, parse_int

__all__ = [
    "GROUND",
    "EXCITED",
    "JointState",
    "Pulse",
    "PulseSchedule",
    "TruncationOverflowError",
    "apply_pulse_amplitudes",
    "run_schedule",
    "fidelity",
]

GROUND = 0
EXCITED = 1

NORM_TOL = 1e-12
GUARD_TOL = 1e-12
RUN_PAIRS = 2**14  # a run of pulses holds at most this many pairs, or one wider pulse

TWO_PI = 2.0 * math.pi


class TruncationOverflowError(ValueError):
    """A sideband pulse would raise amplitude past the Fock truncation."""

    def __init__(self, message: str, pulse_index: int | None = None):
        super().__init__(message)
        self.pulse_index = pulse_index


@dataclass(frozen=True)
class Pulse:
    """One square laser pulse: sideband kind/order, initial phase, duration.

    kind is "red", "blue" or "carrier"; k, stored as an int, is 0 iff
    carrier.  phase and duration are stored as floats, the phase in [0, 2 pi).
    """

    kind: str
    k: int
    phase: float
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "k", parse_int(self.k))
        _check_kind(self.kind, self.k)
        duration, phase = parse_float(self.duration), parse_float(self.phase)
        if not (duration >= 0.0 and math.isfinite(duration)):
            raise ValueError(f"duration must be finite and >= 0, got {duration}")
        if not math.isfinite(phase):
            raise ValueError(f"phase must be finite, got {phase}")
        object.__setattr__(self, "duration", duration)
        object.__setattr__(self, "phase", phase % TWO_PI)


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered pulse list plus the physical parameters it was compiled for.

    provenance is a free-text label of the producing routine, a str.
    Schedules may be empty (a target already equal to the initial state
    compiles to no pulses).  Every pulse's order k is below params.fock_dim.
    """

    params: PhysicalParams
    pulses: tuple[Pulse, ...]
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(self, "pulses", tuple(self.pulses))
        if not isinstance(self.provenance, str):
            raise ValueError(f"provenance must be a string, got {self.provenance!r}")
        dim = self.params.fock_dim
        for i, pulse in enumerate(self.pulses):
            if pulse.k >= dim:
                raise ValueError(f"pulse {i}: sideband order k={pulse.k} needs k < fock_dim={dim}")

    @property
    def total_duration(self) -> float:
        return float(sum(p.duration for p in self.pulses))


class JointState:
    """Normalized complex amplitude vector over |m> x {|g>, |e>}.

    Immutable value type; the backing array is read-only.  Construction
    rejects vectors whose norm deviates from 1 by more than 1e-12.
    """

    __slots__ = ("_amps",)

    def __init__(self, amplitudes):
        arr = np.array(amplitudes, dtype=complex)
        if arr.ndim != 1 or arr.size < 4 or arr.size % 2 != 0:
            raise ValueError(
                f"amplitudes must be a flat vector of even length >= 4, got shape {arr.shape}"
            )
        norm = float(np.linalg.norm(arr))
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
        arr.setflags(write=False)
        object.__setattr__(self, "_amps", arr)

    @classmethod
    def ground(cls, dim: int) -> "JointState":
        """|0>|g> on a dim-level Fock space."""
        return cls.fock(0, dim)

    @classmethod
    def fock(cls, n: int, dim: int, internal: int = GROUND) -> "JointState":
        """|n>|g> or |n>|e>."""
        if not 0 <= n < dim:
            raise ValueError(f"Fock index {n} outside truncation 0..{dim - 1}")
        if internal not in (GROUND, EXCITED):
            raise ValueError(f"internal index must be 0 (g) or 1 (e), got {internal}")
        amps = np.zeros(2 * dim, dtype=complex)
        amps[2 * n + internal] = 1.0
        return cls(amps)

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amps

    @property
    def dim(self) -> int:
        return self._amps.size // 2

    def amplitude(self, m: int, s: int) -> complex:
        return complex(self._amps[2 * m + s])

    def population(self, m: int, s: int) -> float:
        return abs(self.amplitude(m, s)) ** 2

    def populations(self) -> np.ndarray:
        """(dim, 2) array of abs(z) ** 2, columns (g, e), by the scalar abs (not np.abs)."""
        return np.array([abs(z) ** 2 for z in self._amps.tolist()]).reshape(self.dim, 2)

    def __repr__(self) -> str:
        return f"JointState(dim={self.dim})"


def _check_guard(amps: np.ndarray, kind: str, k: int, dim: int, pulse_index: int):
    """Raise if a red or blue k pulse would push amplitude past the truncation."""
    s, first = EXCITED if kind == "red" else GROUND, max(dim - k, 0)
    bad = np.flatnonzero(np.abs(amps[2 * first + s :: 2]) > GUARD_TOL)
    if bad.size:
        m = first + int(bad[0])
        raise TruncationOverflowError(
            f"{kind} k={k} pulse would push |{m}>|{'ge'[s]}> past truncation D={dim}; "
            "increase fock_dim",
            pulse_index=pulse_index,
        )


def _coefficient(k: int, phase: float) -> complex:
    """C / sin(W t) of an order-k pulse at laser phase phase (k = 0: the carrier)."""
    return (ipow(k - 1) if k else -1j) * cmath.exp(-1j * phase)


def _run(amps: np.ndarray, params: PhysicalParams, pulses, trace: list | None) -> np.ndarray:
    """The pulses applied in turn to a copy of amps, each to its pairs m < n
    of the support bound; a trace list gets the state after each pulse.

    Lower pair members sit at flat indices 2*(m + k if red else m) + GROUND,
    upper ones at 2*(m + k if blue else m) + EXCITED: two stride-2 slices.
    One sine and one cosine pass a run; errors carry their pulse's index.
    """
    dim, amps = params.fock_dim, np.array(amps, dtype=complex)
    top = [int(max(amps[s::2].nonzero()[0][-1:], default=-1)) for s in (GROUND, EXCITED)]
    plan, sizes = [], []
    for p in pulses:  # the bound moves with kind and k alone
        shift = (p.k * (p.kind == "red"), p.k * (p.kind == "blue"))  # of (lower, upper)
        n = max(min(max(top[0] - shift[0], top[1] - shift[1]) + 1, dim - p.k), 0)
        plan.append((n, shift, top[EXCITED if p.kind == "red" else GROUND] >= dim - p.k))
        sizes.append(n)
        top = [max(t, n - 1 + d) for t, d in zip(top, shift)] if n else top
    width, eta, omega = max(sizes, default=0), params.eta, params.omega_carrier
    columns = {p.k: _column(eta, omega, p.k, width) for p in pulses}
    lost, step = any(marks for _, marks in columns.values()), max(RUN_PAIRS // max(width, 1), 1)
    for start in range(0, len(pulses), step):
        run, counts = pulses[start : start + step], sizes[start : start + step]
        w = np.concatenate([columns[p.k][0][:n] for p, n in zip(run, counts)])
        if lost:  # an underflow, marked NaN, turns a pair of zeros by no angle
            nan, w = np.isnan(w), np.nan_to_num(w, nan=0.0)
        angle = w * np.repeat([p.duration for p in run], counts)
        sin, cos, end = np.sin(angle), np.cos(angle), 0
        c = np.repeat([_coefficient(p.k, p.phase) for p in run], counts)
        # a complex cosine keeps every product below on one dtype, so none takes a cast
        cos, fwd, back = cos.astype(complex), c * sin, c.conj() * sin
        for i, (p, (n, shift, scan)) in enumerate(zip(run, plan[start : start + step]), start):
            if scan:  # else the bound proves the guard cells empty
                _check_guard(amps, p.kind, p.k, dim, i)
            lo = slice(2 * shift[0] + GROUND, 2 * (shift[0] + n), 2)
            up = slice(2 * shift[1] + EXCITED, 2 * (shift[1] + n), 2)
            s, end = slice(end, end + n), end + n
            a_lo, a_up = amps[lo], amps[up]  # views: both right-hand sides are built first
            # an underflowing coupling raises where its pair holds amplitude
            if lost and (held := nan[s] & ((a_lo != 0) | (a_up != 0))).any():
                raise RabiUnderflowError(m := int(held.argmax()), p.k, columns[p.k][1][m], i)
            amps[lo], amps[up] = cos[s] * a_lo - back[s] * a_up, fwd[s] * a_lo + cos[s] * a_up
            if trace is not None:
                trace.append(JointState(amps))
    return amps


def apply_pulse_amplitudes(
    amps: np.ndarray, params: PhysicalParams, pulse: Pulse, pulse_index: int | None = None
) -> np.ndarray:
    """Raw linear pulse action on an amplitude vector, as a new array.

    Does not require or enforce normalization (the action is linear), but
    does enforce the truncation support guard.
    """
    dim, amps = params.fock_dim, np.asarray(amps, dtype=complex)
    if amps.shape != (2 * dim,):
        raise ValueError(f"amplitude vector must have shape ({2 * dim},), got {amps.shape}")
    try:
        return _run(amps, params, (pulse,), None)
    except (TruncationOverflowError, RabiUnderflowError) as err:
        err.pulse_index = pulse_index
        raise


def run_schedule(initial: JointState, schedule: PulseSchedule, keep_trace: bool = False):
    """Left-to-right application of a schedule.

    Returns the final JointState, or (final, trace) with the state after
    each pulse when keep_trace is set.  Truncation-overflow errors carry
    the index of the offending pulse.
    """
    if initial.dim != schedule.params.fock_dim:
        raise ValueError(
            f"initial dim {initial.dim} != schedule fock_dim {schedule.params.fock_dim}"
        )
    trace = [] if keep_trace else None
    final = JointState(_run(initial.amplitudes, schedule.params, schedule.pulses, trace))
    return (final, trace) if keep_trace else final


def fidelity(a: JointState, b: JointState, up_to_global_phase: bool = True) -> float:
    """Overlap fidelity of two pure states, in [0, 1].

    Default |<a|b>|^2 discards the unobservable global phase.  With
    up_to_global_phase=False the overlap is taken as max(0, Re<a|b>)^2,
    which is 1 only when the states match including phase.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    ov = complex(np.vdot(a.amplitudes, b.amplitudes))
    val = abs(ov) ** 2 if up_to_global_phase else max(0.0, ov.real) ** 2
    return min(1.0, float(val))
