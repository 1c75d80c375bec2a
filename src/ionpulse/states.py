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

Support bound (_support; the oracle takes its pairs and runs from it too): top_g
and top_e, the highest levels that can hold amplitude in |g> and |e>, come
from the initial state's nonzero entries and move with each pulse's kind
and k, nothing else, so it is kinematics.  A pulse has amplitude only in
its pairs m < n: n = min(max(top_e, top_g - k) + 1, D - k) for red k,
g and e swapped for blue k, n = max(top_g, top_e) + 1 for the carrier.
Only those rotate, coupled from one column per order as long as the
largest n, and the guard cells are scanned only once the bound reaches
them, so a pulse costs O(populated pairs), not O(D).  The other pairs
hold exact zeros, which keep their sign, where a rotation could have left
-0.0; nonzero amplitudes are bit-identical to rotating all, and an
underflowing W_{m,k} raises only where its pair holds amplitude.

Reservoir runs (_reservoir): in a run of one pair a pulse with no trace and
no underflow, the pulses after the first, which the loop takes, go at once
if they scan no guard cell and turn one shared upper member against distinct
lower members holding exact zeros, as a ladder's deposits from |0>|e> do: the
upper member as one running product of the cosines, every deposit in one
np.subtract.  Each nonzero part is the loop's: the same products, and the +-0
the loop adds from an empty member moves none.  A product with an exact-zero
part, whose sign could differ, sends the run back to the loop, as others go.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import accumulate, count

import numpy as np

from .core import PhysicalParams, RabiUnderflowError, _column, ipow
from .core import parse_float, parse_int

__all__ = ["GROUND", "EXCITED", "JointState", "Pulse", "PulseSchedule",
           "TruncationOverflowError", "apply_pulse_amplitudes", "run_schedule", "fidelity"]

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
        object.__setattr__(self, "k", k := parse_int(self.k))
        if self.kind not in ("red", "blue", "carrier"):
            raise ValueError(f"unknown pulse kind {self.kind!r}")
        if self.kind == "carrier":
            if k != 0:
                raise ValueError(f"carrier pulses have k = 0, got k={k}")
        elif k < 1:
            raise ValueError(f"{self.kind} sideband order must be >= 1, got k={k}")
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
            raise ValueError(f"amplitudes must be a flat vector of even length >= 4, "
                             f"got shape {arr.shape}")
        _check_norm(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "_amps", arr)

    @classmethod
    def ground(cls, dim: int) -> "JointState":
        """|0>|g> on a dim-level Fock space."""
        return cls.fock(0, dim)

    @classmethod
    def fock(cls, n: int, dim: int, internal: int = GROUND) -> "JointState":
        """|n>|g> or |n>|e>; n, dim and internal are integers, as parse_int reads them."""
        n, dim, internal = parse_int(n), parse_int(dim), parse_int(internal)
        index, amps = cls._index(n, internal, dim), np.zeros(2 * dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    @staticmethod
    def _index(m, s, dim: int) -> int:
        """2 m + s, the flat index of |m>|s> on dim levels; m and s read by parse_int."""
        m, s = parse_int(m), parse_int(s)
        if not 0 <= m < dim:
            raise ValueError(f"Fock index {m} outside truncation 0..{dim - 1}")
        if s not in (GROUND, EXCITED):
            raise ValueError(f"internal index must be 0 (g) or 1 (e), got {s}")
        return 2 * m + s

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amps

    @property
    def dim(self) -> int:
        return self._amps.size // 2

    def amplitude(self, m: int, s: int) -> complex:
        return complex(self._amps[self._index(m, s, self.dim)])

    def population(self, m: int, s: int) -> float:
        return abs(self.amplitude(m, s)) ** 2

    def populations(self) -> np.ndarray:
        """(dim, 2) array of abs(z) ** 2, columns (g, e), by the scalar abs (not np.abs)."""
        return np.array([abs(z) ** 2 for z in self._amps.tolist()]).reshape(self.dim, 2)

    def __repr__(self) -> str:
        return f"JointState(dim={self.dim})"


def _check_norm(amps: np.ndarray):
    """Raise ValueError unless the norm of amps is 1 within NORM_TOL."""
    norm = float(np.linalg.norm(amps))
    if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
        raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")


def _check_guard(amps: np.ndarray, kind: str, k: int, dim: int, pulse_index: int):
    """Raise if a red or blue k pulse (k < dim) would push amplitude past the truncation."""
    s, first = EXCITED if kind == "red" else GROUND, dim - k
    bad = np.flatnonzero(np.abs(amps[2 * first + s :: 2]) > GUARD_TOL)
    if bad.size:
        m = first + int(bad[0])
        raise TruncationOverflowError(f"{kind} k={k} pulse would push |{m}>|{'ge'[s]}> past "
                                      f"truncation D={dim}; increase fock_dim", pulse_index)


def _coefficient(k: int, phase: float) -> complex:
    """C / sin(W t) of an order-k pulse at laser phase phase (k = 0: the carrier)."""
    return (ipow(k - 1) if k else -1j) * cmath.exp(-1j * phase)


def _support(amps: np.ndarray, dim: int, pulses):
    """The support bound from amps, an initial state of 2 dim amplitudes (else
    ValueError), pulse by pulse (module docstring): the pair counts n and each
    pulse's (lower shift, upper shift, scan): the k or 0 its pairs' member levels
    take, and whether the bound reaches its guard cells; then the run rule of
    both pulse loops: the widest pulse's pair count, and as many pulses a run
    as RUN_PAIRS pairs of it leave room for (at least 1)."""
    if amps.size != 2 * dim:
        raise ValueError(f"initial dim {amps.size // 2} != schedule fock_dim {dim}")
    top_g, top_e = (int(max(amps[s::2].nonzero()[0][-1:], default=-1)) for s in (GROUND, EXCITED))
    sizes, plan = [], []
    for p in pulses:  # the bound moves with kind and k alone; comparisons, not min/max calls
        k, room = p.k, dim - p.k
        lo, up = (k, 0) if p.kind == "red" else (0, k)
        plan.append((lo, up, (top_e if lo else top_g) >= room))
        top = top_g - lo if top_g - lo > top_e - up else top_e - up  # the top pair holding any
        top = room - 1 if top >= room else top
        if top >= 0:
            top_g = top + lo if top + lo > top_g else top_g
            top_e = top + up if top + up > top_e else top_e
        sizes.append(top + 1 if top >= 0 else 0)
    width = max(sizes, default=0)
    return sizes, plan, width, max(RUN_PAIRS // max(width, 1), 1)


def _run(amps: np.ndarray, params: PhysicalParams, pulses, trace: list | None, support=None):
    """The pulses applied in turn to a copy of amps, each to its pairs m < n of
    support (amps' _support if None); a trace list gets the state after each pulse.

    Lower pair members sit at flat indices 2*(m + k if red else m) + GROUND,
    upper ones at 2*(m + k if blue else m) + EXCITED: two stride-2 views.
    One sine and one cosine pass a run; errors carry their pulse's index.
    """
    dim, amps = params.fock_dim, np.array(amps, dtype=complex)
    sizes, plan, width, step = support or _support(amps, dim, pulses)
    columns = {k: _column(params.eta, params.omega_carrier, k, width) for k in {p.k for p in pulses}}
    lost = any(marks for _, marks in columns.values())
    for start in range(0, len(pulses), step):
        span = slice(start, start + step)
        run, counts, plans = pulses[span], sizes[span], plan[span]
        if one := width == 1 and 0 not in counts:  # one pair a pulse: whole columns, no repeat
            w, reps = np.concatenate([columns[p.k][0] for p in run]), 1
        else:
            w, reps = np.concatenate([columns[p.k][0][:n] for p, n in zip(run, counts)]), counts
        if lost:  # an underflow, marked NaN, turns a pair of zeros by no angle
            nan, w = np.isnan(w), np.nan_to_num(w, nan=0.0)
        angle = w * np.array([p.duration for p in run]).repeat(reps)
        sin, cos, ends = np.sin(angle), np.cos(angle), list(accumulate(counts))
        c = np.array([_coefficient(p.k, p.phase) for p in run]).repeat(reps)
        # a complex cosine keeps every product below on one dtype, so none takes a cast
        cos, fwd, back = cos.astype(complex), c * sin, c.conj() * sin
        shared = one and len(run) > 1 and not lost  # may be a reservoir run
        for i, p, (lo, up, scan), a, b in zip(count(start), run, plans, [0, *ends], ends):
            if scan:  # else the bound proves the guard cells empty
                _check_guard(amps, p.kind, p.k, dim, i)
            a_lo = amps[2 * lo + GROUND : 2 * (lo + b - a) : 2]
            a_up = amps[2 * up + EXCITED : 2 * (up + b - a) : 2]
            # an underflowing coupling raises where its pair holds amplitude
            if lost and (held := nan[a:b] & ((a_lo != 0) | (a_up != 0))).any():
                raise RabiUnderflowError(m := int(held.argmax()), p.k, columns[p.k][1][m], i)
            # all four products are taken before either member is written
            cos_s = cos[a:b]
            terms = cos_s * a_lo, back[a:b] * a_up, fwd[a:b] * a_lo, cos_s * a_up
            np.subtract(terms[0], terms[1], a_lo)
            np.add(terms[2], terms[3], a_up)
            if trace is not None:
                trace.append(JointState(amps))
            elif shared and i == start and _reservoir(amps, plans[1:], cos[1:], back[1:]):
                break  # the run's other pulses, at once
    return amps


def _reservoir(amps: np.ndarray, plans, cos, back) -> bool:
    """Apply a reservoir run's pulses after its first to amps (module docstring)
    and return True; return False, amps untouched, if they are not all such."""
    (lows, ups, scans), up = zip(*plans), 2 * plans[0][1] + EXCITED
    if (len(set(lows)) < len(lows) or len(set(ups)) > 1 or any(scans)
            or amps[(lows := 2 * np.array(lows) + GROUND)].any()):
        return False
    # step j is the loop's cos_j * upper; the loop adds fwd_j * 0 = +-0 to it
    run = np.multiply.accumulate(np.concatenate((amps[up : up + 1], cos)))
    if not run[1:].view(float).all():
        return False
    amps[lows], amps[up] = np.subtract(cos * amps[lows], back * run[:-1]), run[-1]
    return True


def apply_pulse_amplitudes(amps: np.ndarray, params: PhysicalParams, pulse: Pulse,
                           pulse_index: int | None = None) -> np.ndarray:
    """Raw linear pulse action on an amplitude vector, as a new array.

    Does not require or enforce normalization (the action is linear), but
    does enforce the truncation support guard.
    """
    dim, amps = params.fock_dim, np.asarray(amps, dtype=complex)
    if amps.shape != (2 * dim,):
        raise ValueError(f"amplitude vector must have shape ({2 * dim},), got {amps.shape}")
    if not pulse.k < dim:  # as PulseSchedule and build_hamiltonian refuse it
        raise ValueError(f"sideband order k={pulse.k} needs k < fock_dim={dim}")
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
    return _overlaps(a.amplitudes, b.amplitudes)[0 if up_to_global_phase else 1]


def _overlaps(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """fidelity's two values of amplitude vectors a and b, from one np.vdot."""
    ov = complex(np.vdot(a, b))
    return min(1.0, abs(ov) ** 2), min(1.0, max(0.0, ov.real) ** 2)
