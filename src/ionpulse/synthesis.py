"""Target states, each compiling itself into a laser pulse schedule.

compile_target(target, params) returns a PulseSchedule together with the
forward-simulated final state and its fidelity against the target
(SynthesisReport).  The inversion strategy is shared: a carrier pulse
splits the ground-state amplitude, leaving a reservoir in |0>|e>, and a
sequence of ascending red sideband pulses peels amplitude off the
reservoir and deposits it at the requested Fock levels, so the motional
state ends in |g>.  What the reservoir holds before the level-j deposit
is the norm of the amplitudes not yet deposited, |c_{>=j}|, so every
turn angle follows from the target's tail norms a_j = |c_{>j}| alone:

    theta_0 = atan2(a_0, c_0)        carrier, cos(W_00 t_0) = c_0
    theta_j = atan2(|c_j|, a_j)      red j, sin(W_0j t_j) = |c_j| / |c_{>=j}|

with t_j = theta_j / W_0j.  Only the levels j >= 1 with c_j != 0 get a
red pulse, and the top one takes theta = pi/2 (the reservoir is fully
deposited).  Every laser phase is solved by _land from states._coefficient,
the kernel's pulse coefficient: the reservoir's phase is the carrier's, which
the red turns only scale, and each deposit lands with the target's argument.
Solved phases make the compiler immune to sign-convention drift in the
coefficient algebra; quoting fixed phases does not.

compile_target takes one pass over the target: it builds the weights
once, turns them by 0.0 - arg(c_0) (0.0 when c_0 = 0) so that c_0 is
real and nonnegative, as the carrier deposits it, and hands them to the
variant's _compile(params, c).  That pure function returns only the
PulseSchedule, which lands the turned ideal state phase included;
compile_target alone runs it and fills every report field.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import _LOG_RESCALE, _RESCALE, PhysicalParams, _coupling
from .core import parse_complex, parse_float, parse_int
from .states import EXCITED, GROUND, NORM_TOL, TWO_PI, JointState, Pulse, PulseSchedule
from .states import _coefficient, _overlaps, run_schedule

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class SynthesisReport:
    """Compiled schedule plus forward-simulation diagnostics, all from compile_target.

    fidelity_vs_target discards the global phase; exact_phase_fidelity
    does not: it scores the target turned by target_rotation_rad, which
    every schedule lands.  truncation_overlap, for coherent targets, is the
    weight the kept levels capture.  The oracle checks the schedule on its
    own: verify_schedule.
    """

    schedule: PulseSchedule
    predicted_final: JointState
    fidelity_vs_target: float
    exact_phase_fidelity: float
    target_rotation_rad: float
    final_internal_state: str
    truncation_overlap: float | None

    def __post_init__(self):
        if not 0.0 <= self.fidelity_vs_target <= 1.0:
            raise ValueError(f"fidelity {self.fidelity_vs_target} outside [0, 1]")


# Shared machinery
def _turn(params: PhysicalParams, kind: str, k: int, m: int, angle: float, phase: float) -> Pulse:
    """Pulse turning pair m of a (kind, k) tuning by angle at laser phase phase.

    W_{m,k} can be negative past a Laguerre zero.  A pulse of duration
    angle / |W| at phase + pi then gives the same 2x2 block as a positive
    coupling would: the sign of sin(W t) folds into e^{-i phase}.  W is
    read alone, so only its own underflow raises.  No caller asks for a
    zero coupling: W_{0,k} > 0, and FockTarget checks W_{n,0}.
    """
    w = _coupling(params.eta, params.omega_carrier, m, k, m + 1)
    return Pulse(kind, k, phase + (math.pi if w < 0.0 else 0.0), angle / abs(w))


def _land(params: PhysicalParams, kind: str, k: int, m: int, angle: float, source, desired,
          up: bool) -> Pulse:
    """Pulse turning pair m by angle so that source, in its lower member if up
    else its upper one, lands in the other member at arg(desired).

    With unit = _coefficient(k, 0.0), source moves up as unit e^{-i phase}
    and down as -conj(unit) e^{i phase}, times sin(angle) > 0; the phase is
    solved from them, not quoted.
    """
    unit = _coefficient(k, 0.0)
    moved = cmath.phase(unit * source if up else -unit.conjugate() * source)
    phase = moved - cmath.phase(desired) if up else cmath.phase(desired) - moved
    return _turn(params, kind, k, m, angle, phase % TWO_PI)


def _validated_target(amplitudes) -> np.ndarray:
    c = np.asarray(amplitudes, dtype=complex)
    norm = float(np.linalg.norm(c))
    if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
        raise ValueError(f"target amplitudes not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    c = c / norm
    # trimmed after the last nonzero amplitude, where the ladder ends
    last = int(np.max(np.nonzero(np.abs(c))[0]))
    return c[: last + 1]


def _ladder(c: np.ndarray, params: PhysicalParams, provenance: str) -> PulseSchedule:
    """The carrier and red ladder depositing the checked, turned weights c.

    c_0 is real and nonnegative, so the carrier leaves it in |0>|g>; one
    red pulse goes to each level j >= 1 with c_j != 0, unless its turn is
    too small for a nonzero duration.  A one-level target is |0>|g>, and so
    is one whose carrier turn is too small: no pulses.
    """
    if c.size == 1:
        return PulseSchedule(params, (), provenance)
    mags = np.abs(c)
    # tails[j] = |c_{>j}|, accumulated from the top so that no square underflows
    tails = np.append(np.hypot.accumulate(mags[::-1])[::-1][1:], 0.0)
    carrier = _turn(params, "carrier", 0, 0, math.atan2(tails[0], c[0].real), _HALF_PI)
    if carrier.duration == 0.0:  # an empty reservoir: every deposit would be wasted
        return PulseSchedule(params, (), provenance)
    # |0>|e> holds the carrier's C, W_00 > 0, which each red turn scales by cos(theta_j) >= 0
    reservoir = _coefficient(0, carrier.phase)
    pulses = [carrier] + [
        _land(params, "red", j, 0, math.atan2(mags[j], tails[j]), reservoir, complex(c[j]), False)
        for j in (np.flatnonzero(mags[1:]) + 1).tolist()
    ]
    return PulseSchedule(params, tuple(p for p in pulses if p.duration > 0.0), provenance)


def _coherent_weights(alpha: complex, n_max: int, rem: int | None = None):
    """Normalized alpha^j / sqrt(j!) for j = 0..n_max, and the weight they capture.

    The captured weight is sum_{j<=n_max} e^{-|a|^2} |a|^{2j} / j!.  With
    rem, only the levels with j % 2 == rem are kept, and the weight is over
    their untruncated sum e^{-|a|^2} (1 +- e^{-2|a|^2}) / 2.  At alpha = 0
    only the lowest kept level remains (|1> for the odd state).
    """
    if alpha == 0:
        c = np.zeros((rem or 0) + 1, dtype=complex)
        c[-1] = 1.0
        return c, 1.0
    c = np.empty(n_max + 1, dtype=complex)
    c[0] = 1.0
    scale = 0.0  # ln of what the weights were divided by
    for j in range(1, n_max + 1):
        c[j] = c[j - 1] * alpha / math.sqrt(j)
        while abs(c[j]) > _RESCALE:  # all divided, exactly, so that their norm stays finite
            c[: j + 1] /= _RESCALE
            scale += _LOG_RESCALE
    if rem is not None:
        c[1 - rem :: 2] = 0.0
    # only the odd levels of an alpha below 2^-500: multiplied, exactly, until no square underflows
    while np.max(np.abs(c)) < 1.0 / _RESCALE:
        c, scale = c * _RESCALE, scale - _LOG_RESCALE
    # the kept |a|^{2j} / j!, summed; e^{-|a|^2} and the divisions are undone in log space
    kept = c.real @ c.real + c.imag @ c.imag
    if scale < 0.0:  # |a|^2 < 2^-1000: the kept levels capture all of the weight
        return c / math.sqrt(kept), 1.0
    lam = abs(alpha) ** 2
    whole = 1.0  # the share of the untruncated state that the kept parity holds
    if rem is not None:
        whole = (1.0 + math.exp(-2.0 * lam) if rem == 0 else -math.expm1(-2.0 * lam)) / 2.0
    # divided before the log, so a ratio near 1 keeps its digits at small alpha
    captured = math.exp(math.log(kept / whole) + 2.0 * scale - lam)
    return c / math.sqrt(kept), min(1.0, captured)


# Target variants
class TargetState:
    """A target variant: a frozen dataclass that parses (by core's parsers) and checks its fields.

    _weights() returns (c, truncation_overlap): c holds one weight per Fock
    level up to the top one, and truncation_overlap is None but for coherent
    targets.  The targets in |g> check, normalize and trim c after its last
    nonzero weight in one place, _validated_target.

    compile_target and target_state_vector build c once and pass it on:
    _vector(params, c) gives the ideal state, and _compile(params, c),
    given c turned so that c_0 is real and nonnegative, returns the
    PulseSchedule taking |0>|g> to _vector(params, c), phase included.
    Every variant builds its ideal state from its own fields, and _vector
    never runs the pulse kernel, so a kernel error cannot move the state
    the kernel's output is scored against.
    _FINAL_INTERNAL_STATE is the internal state it ends in.  _VARIANTS maps each
    JSON tag to (variant, the JSON keys of its leading fields in order, the fields the tag fixes).
    """

    _FINAL_INTERNAL_STATE = "g"

    def _vector(self, params: PhysicalParams, c: np.ndarray) -> JointState:
        amps = np.zeros(2 * params.fock_dim, dtype=complex)
        amps[GROUND : 2 * c.size : 2] = c
        return JointState(amps)


@dataclass(frozen=True)
class FockTarget(TargetState):
    """Motional number state |n>, reached by two full transfers.

    A blue-n full transfer followed by a carrier returning |e> to |g>, unless
    a carrier transfer into |e> followed by a red-n full transfer (the ladder)
    is at least 2x shorter in total, as near a Laguerre zero of W_{n,0}; where
    W_{n,0} = 0 (e.g. eta = 1, n = 1) the carrier cannot turn pair n at all, and
    the ladder is emitted.  The provenance names the choice.  Multi-quantum
    sidebands make any n reachable with exactly two pulses, and the carrier's
    phase lands |n>|g> at +1; n = 0 compiles to an empty schedule.
    """

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", parse_int(self.n))
        if self.n < 0:
            raise ValueError(f"Fock index must be >= 0, got {self.n}")

    def _weights(self):
        c = np.zeros(self.n + 1, dtype=complex)
        c[self.n] = 1.0
        return _validated_target(c), None

    def _compile(self, params, c):
        n = self.n
        if n == 0 or _coupling(params.eta, params.omega_carrier, n, 0, n + 1) == 0.0:
            strategy = "blue-then-carrier" if n == 0 else "carrier-then-red"
            return _ladder(c, params, f"fock(n={n}, strategy={strategy})")
        # two full transfers, sin(|W| t) = 1; the carrier lands the blue one's |n>|e> at +1
        blue = _turn(params, "blue", n, 0, _HALF_PI, 0.0)
        carrier = _land(params, "carrier", 0, n, _HALF_PI, _coefficient(n, blue.phase), 1.0, False)
        pair = PulseSchedule(params, (blue, carrier), f"fock(n={n}, strategy=blue-then-carrier)")
        ladder = _ladder(c, params, f"fock(n={n}, strategy=carrier-then-red)")
        return ladder if 2.0 * ladder.total_duration <= pair.total_duration else pair


@dataclass(frozen=True)
class SuperpositionTarget(TargetState):
    """Finite Fock superposition sum_j c_j |j>, c normalized.

    Compiled to a carrier and N ascending red sideband pulses; trailing
    zero amplitudes are trimmed.
    """

    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        if not (isinstance(c := self.amplitudes, (list, tuple)) or np.ndim(c) == 1) or not len(c):
            raise ValueError(f"target amplitudes must be a nonempty 1-D sequence, got {c!r}")
        object.__setattr__(self, "amplitudes", tuple(map(parse_complex, self.amplitudes)))
        _validated_target(self.amplitudes)

    def _weights(self):
        return _validated_target(self.amplitudes), None

    def _compile(self, params, c):
        return _ladder(c, params, f"superposition(N={c.size - 1}, sideband=red)")


@dataclass(frozen=True)
class PhaseStateTarget(TargetState):
    """Uniform-magnitude phase state sum_j e^{i j theta} |j> / sqrt(N+1).

    Compiled through the superposition inverter; the durations take the
    closed forms t_0 = arccos(1/sqrt(N+1))/W_00 and
    t_j = arcsin(1/sqrt(N-j+1))/W_0j.
    """

    n_max: int
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "n_max", parse_int(self.n_max))
        if self.n_max < 1:
            raise ValueError(f"phase state needs n_max >= 1, got {self.n_max}")
        object.__setattr__(self, "theta", parse_float(self.theta))
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if not math.isfinite(self.theta * min(self.n_max, 2**1023)):  # an int float() can take
            raise ValueError(f"theta * n_max must be finite, got theta={self.theta}")

    def _weights(self):
        c = np.exp(1j * self.theta * np.arange(self.n_max + 1)) / math.sqrt(self.n_max + 1)
        return _validated_target(c), None

    def _compile(self, params, c):
        return _ladder(c, params, f"phase_state(N={self.n_max}, theta={self.theta:.6g})")


@dataclass(frozen=True)
class CoherentTarget(TargetState):
    """Coherent state alpha truncated at Fock level n_max and renormalized.

    The report's truncation_overlap is how much of the untruncated
    coherent state the kept levels capture, so the approximation quality
    is visible.
    """

    alpha: complex
    n_max: int
    _rem = None  # the parity of the kept levels; None keeps them all

    def __post_init__(self):
        object.__setattr__(self, "alpha", parse_complex(self.alpha))
        if not cmath.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if not math.isfinite((r := math.hypot(self.alpha.real, self.alpha.imag)) * r):
            raise ValueError(f"|alpha|^2 must be finite, got alpha={self.alpha}")
        object.__setattr__(self, "n_max", parse_int(self.n_max))
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")

    def _weights(self):
        c, overlap = _coherent_weights(self.alpha, self.n_max, self._rem)
        return _validated_target(c), overlap

    def _compile(self, params, c):
        kind = "coherent" if self._rem is None else f"{self.parity}_coherent"
        return _ladder(c, params, f"{kind}(alpha={self.alpha:.6g}, N={self.n_max})")


@dataclass(frozen=True)
class ParityCoherentTarget(CoherentTarget):
    """Even or odd coherent state (only even/odd Fock levels), truncated.

    Compiled with red sidebands on its nonzero levels only, so the other
    parity never acquires amplitude.  At alpha = 0, or where |alpha|^2
    underflows, the odd state degenerates to its lowest component |1>.
    truncation_overlap is that of its parity.
    """

    parity: str  # "even" | "odd"

    def __post_init__(self):
        super().__post_init__()
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        if self.parity == "odd" and self.n_max == 0:
            raise ValueError(f"truncation n_max={self.n_max} excludes every {self.parity} level")

    @property
    def _rem(self):
        return 0 if self.parity == "even" else 1


@dataclass(frozen=True)
class BellTarget(TargetState):
    """Maximally entangled (|0>|e> + |1>|g>)/sqrt(2).

    Compiled to a full carrier transfer into |0>|e>, at the laser phase
    that leaves it +1 there, followed by a red-1 half transfer
    (sin = 1/sqrt(2)) whose phase is solved so that both components land
    at +1/sqrt(2).
    """

    _FINAL_INTERNAL_STATE = "entangled"

    def _weights(self):
        # c_0 sits in |e>, c_1 in |g>; renormalizing would move them by an ulp
        return np.full(2, 1.0 / math.sqrt(2.0), dtype=complex), None

    def _vector(self, params, c):
        amps = np.zeros(2 * params.fock_dim, dtype=complex)
        amps[2 * 0 + EXCITED], amps[2 * 1 + GROUND] = c
        return JointState(amps)

    def _compile(self, params, c):
        carrier = _land(params, "carrier", 0, 0, _HALF_PI, 1.0, complex(c[0]), True)
        theta, reservoir = math.asin(1.0 / math.sqrt(2.0)), _coefficient(0, carrier.phase)
        red = _land(params, "red", 1, 0, theta, reservoir, complex(c[1]), False)
        return PulseSchedule(params, (carrier, red), provenance="bell")


_VARIANTS = {"fock": (FockTarget, ("n",), ()), "bell": (BellTarget, (), ()),
             "superposition": (SuperpositionTarget, ("amplitudes",), ()),
             "phase_state": (PhaseStateTarget, ("n_max", "theta_rad"), ()),
             "coherent": (CoherentTarget, ("alpha", "n_max"), ()),
             "even_coherent": (ParityCoherentTarget, ("alpha", "n_max"), ("even",)),
             "odd_coherent": (ParityCoherentTarget, ("alpha", "n_max"), ("odd",))}


# Dispatch
def default_fock_dim(target: TargetState) -> int:
    """The smallest fock_dim compile_target accepts for target: its top Fock level + 2."""
    return target._weights()[0].size + 1


def compile_target(target: TargetState, params: PhysicalParams) -> SynthesisReport:
    """Compile any TargetState variant under the given parameters.

    fock_dim must reach past the target's top Fock level by one empty
    guard level: at least default_fock_dim(target).
    """
    c, overlap = target._weights()
    need = c.size + 1
    if params.fock_dim < need:
        raise ValueError(f"fock_dim {params.fock_dim} too small for top Fock level {need - 2} "
                         f"(need >= {need})")
    rotation = 0.0 if c[0] == 0 else 0.0 - cmath.phase(complex(c[0]))  # never -0.0
    turn = cmath.exp(1j * rotation)
    schedule = target._compile(params, c * turn)
    final = run_schedule(JointState.ground(params.fock_dim), schedule)
    ideal = target._vector(params, c).amplitudes * turn  # checked by _vector; turn is a phase
    fields = (rotation, target._FINAL_INTERNAL_STATE, overlap)
    return SynthesisReport(schedule, final, *_overlaps(ideal, final.amplitudes), *fields)


def target_state_vector(target: TargetState, params: PhysicalParams) -> JointState:
    """The ideal state a target describes, independent of any schedule.

    fock_dim must hold the target's top Fock level.
    """
    c, _ = target._weights()
    if params.fock_dim < c.size:
        raise ValueError(f"fock_dim {params.fock_dim} cannot hold top Fock level {c.size - 1} "
                         f"(need >= {c.size})")
    return target._vector(params, c)
