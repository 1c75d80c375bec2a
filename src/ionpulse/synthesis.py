"""Target states, each compiling itself into a laser pulse schedule.

compile_target(target, params) returns a PulseSchedule together with the
forward-simulated final state and its fidelity against the target
(SynthesisReport).  The inversion strategy is shared: a carrier pulse
splits the ground-state amplitude, leaving a reservoir in one internal
level, and a sequence of ascending sideband pulses peels amplitude off
the reservoir and deposits it at the requested Fock levels.  Durations
follow the recursion

    t_0:        cos(W_00 t_0) = |c_0|        (carrier)
    t_j:        sin(W_0j t_j) = |c_j| / r_{j-1},   r_j = r_{j-1} cos(W_0j t_j)
    t_N:        sin(W_0N t_N) = 1            (reservoir fully deposited)

and every laser phase is solved numerically from the actual residual
amplitude so that each deposited component lands with the target's
argument.  Solved phases make the compiler immune to sign-convention
drift in the coefficient algebra; quoting fixed phases does not.

Targets are pre-rotated by a global phase so c_0 is real nonnegative
(the carrier deposit is forced real); the rotation is recorded in the
report.  The reservoir is |0>|e> and every deposit is made by a red
sideband, so the motional state ends in |g>.

Each variant's _compile returns its schedule, the final amplitudes it
tracked while building it and the report fields it fixes.  compile_target
alone builds the report: it scores those amplitudes against the ideal
state (target_state_vector) turned by the recorded rotation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import _RESCALE, PhysicalParams, neg_ipow, parse_int, rabi_frequency
from .states import (
    EXCITED,
    GROUND,
    JointState,
    Pulse,
    PulseSchedule,
    apply_pulse_amplitudes,
    fidelity,
    run_schedule,
)

__all__ = [
    "FockTarget",
    "SuperpositionTarget",
    "PhaseStateTarget",
    "CoherentTarget",
    "ParityCoherentTarget",
    "BellTarget",
    "EntangledCarrierTarget",
    "TargetState",
    "SynthesisReport",
    "compile_target",
    "target_state_vector",
    "default_fock_dim",
]

_HALF_PI = math.pi / 2.0
_TWO_PI = 2.0 * math.pi

@dataclass(frozen=True)
class SynthesisReport:
    """Compiled schedule plus forward-simulation diagnostics.

    fidelity_vs_target discards the global phase; exact_phase_fidelity
    does not.  oracle_fidelity stays None until filled by the
    Hamiltonian-propagation verifier.  target_rotation_rad is the global
    phase by which the user's target was rotated before inversion.
    """

    schedule: PulseSchedule
    predicted_final: JointState
    fidelity_vs_target: float
    exact_phase_fidelity: float
    oracle_fidelity: float | None = None
    target_rotation_rad: float = 0.0
    final_internal_state: str = "g"
    truncation_overlap: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.fidelity_vs_target <= 1.0:
            raise ValueError(f"fidelity {self.fidelity_vs_target} outside [0, 1]")

    @property
    def total_duration_s(self) -> float:
        return self.schedule.total_duration


# ---------------------------------------------------------------------------
# Shared machinery


def _solved_phase(desired: complex, probe: complex) -> float:
    """Laser phase placing a deposit of known modulus at arg(desired).

    probe is the deposit amplitude evaluated at phase 0; the deposit
    scales as e^{i*phase}.
    """
    return (cmath.phase(desired) - cmath.phase(probe)) % _TWO_PI


def _turn(params: PhysicalParams, kind: str, k: int, m: int, angle: float, phase: float) -> Pulse:
    """Pulse turning pair m of a (kind, k) tuning by angle at laser phase phase.

    W_{m,k} can be negative past a Laguerre zero.  A pulse of duration
    angle / |W| at phase + pi then gives the same 2x2 block as a positive
    coupling would: the sign of sin(W t) folds into e^{-i phase}.  A
    coupling of exactly zero cannot turn the pair.
    """
    w = rabi_frequency(params, m, k).value
    if w == 0.0:
        raise ValueError(
            f"W_{{{m},{k}}} = 0 at eta = {params.eta}: a {kind} pulse cannot turn pair {m}"
        )
    return Pulse(kind, k, phase + (math.pi if w < 0.0 else 0.0), angle / abs(w))


def _validated_target(amplitudes) -> np.ndarray:
    c = np.asarray(amplitudes, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("target amplitudes must be a nonempty 1-D sequence")
    norm = float(np.linalg.norm(c))
    if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError(f"target amplitudes not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    c = c / norm
    # trailing exact zeros make the final full-transfer pulse ill-posed
    last = int(np.max(np.nonzero(np.abs(c))[0]))
    return c[: last + 1]


def _rotated(c: np.ndarray) -> tuple[np.ndarray, float]:
    """Rotate the target so c[0] is real nonnegative; return (c', angle)."""
    if abs(c[0]) == 0.0:
        return c, 0.0
    angle = -cmath.phase(complex(c[0]))
    return c * cmath.exp(1j * angle), angle


def _invert_ladder(
    c: np.ndarray, params: PhysicalParams, levels: Sequence[int]
) -> tuple[list[Pulse], np.ndarray]:
    """Carrier + ascending red sideband pulses depositing the amplitudes c in |g>.

    c must already be rotated (c[0] real >= 0).  levels lists the sideband
    orders to emit, ascending, ending at the index of the last nonzero
    amplitude; every nonzero c_j with j >= 1 must appear in levels.
    """
    nonzero = {int(j) for j in np.nonzero(np.abs(c))[0] if j >= 1}
    if list(levels) != sorted(set(levels)) or not nonzero <= set(levels):
        raise ValueError(f"deposit levels {levels} cannot realize the target support")
    if levels and levels[-1] != c.size - 1:
        raise ValueError("last deposit level must be the last nonzero amplitude")

    amps = JointState.ground(params.fock_dim).amplitudes
    # reservoir in |0>|e>, deposits land in |j>|g> via the C~ amplitude
    carrier = _turn(params, "carrier", 0, 0, math.acos(min(1.0, float(c[0].real))), _HALF_PI)
    pulses = [carrier]
    amps = apply_pulse_amplitudes(amps, params, carrier)

    for pos, j in enumerate(levels):
        res = complex(amps[2 * 0 + EXCITED])
        last = pos == len(levels) - 1
        if last:
            sin_theta, theta = 1.0, _HALF_PI
        elif abs(c[j]) == 0.0:
            pulses.append(Pulse("red", j, 0.0, 0.0))
            continue
        else:
            ratio = abs(c[j]) / abs(res)
            if ratio > 1.0 + 1e-12:
                raise ArithmeticError(
                    f"amplitude inversion broke down at level {j}: "
                    f"required sin = {ratio} > 1 (numerical corruption)"
                )
            sin_theta = min(1.0, ratio)
            theta = math.asin(sin_theta)
        probe = res * (-neg_ipow(j - 1)) * sin_theta  # C~ at phase 0
        pulse = _turn(params, "red", j, 0, theta, _solved_phase(complex(c[j]), probe))
        pulses.append(pulse)
        amps = apply_pulse_amplitudes(amps, params, pulse)
    return pulses, amps


def _compile_weighted(
    c: np.ndarray, params: PhysicalParams, provenance: str, levels: Sequence[int] | None = None
):
    """_compile's triple for the ladder depositing the checked weights c."""
    c_rot, rotation = _rotated(c)
    if levels is None:
        levels = range(1, c.size)
    pulses, amps = _invert_ladder(c_rot, params, list(levels))
    return PulseSchedule(params, tuple(pulses), provenance), amps, {"target_rotation_rad": rotation}


def _empty(params: PhysicalParams, provenance: str, **extra):
    """_compile's triple for a target that is the ground state |0>|g> itself."""
    ground = JointState.ground(params.fock_dim).amplitudes
    return PulseSchedule(params, (), provenance), ground, extra


def _coherent_weights(alpha: complex, n_max: int) -> np.ndarray:
    """Unnormalized alpha^j / sqrt(j!) for j = 0..n_max, up to one power-of-two factor."""
    c = np.empty(n_max + 1, dtype=complex)
    c[0] = 1.0
    for j in range(1, n_max + 1):
        c[j] = c[j - 1] * alpha / math.sqrt(j)
        if abs(c[j]) > _RESCALE:  # all divided, exactly, so that their norm stays finite
            c[: j + 1] /= _RESCALE
    return c


def _poisson_head(alpha: complex, n_max: int, rem: int | None = None) -> float:
    """sum_{j<=n_max} e^{-|a|^2} |a|^{2j} / j!, the captured coherent weight.

    With rem, only the terms with j % 2 == rem, over their untruncated sum
    e^{-|a|^2} (1 +- e^{-2|a|^2}) / 2: the captured even or odd weight.
    """
    lam = abs(alpha) ** 2
    if lam == 0.0:
        return 1.0
    p = math.exp(-lam)
    total = 0.0 if rem == 1 else p
    for j in range(1, n_max + 1):
        p *= lam / j
        if rem is None or j % 2 == rem:
            total += p
    if rem is not None:
        total /= (1.0 + math.exp(-2.0 * lam) if rem == 0 else -math.expm1(-2.0 * lam)) / 2.0
    return min(1.0, total)


# ---------------------------------------------------------------------------
# Target variants


def complex_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def parse_float(value) -> float:
    """A JSON number as a float; bools and strings are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def parse_complex(value) -> complex:
    """A JSON number or [re, im] pair of numbers as a complex."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(parse_float(value[0]), parse_float(value[1]))
    return complex(parse_float(value))


# JSON codecs (encode, decode) of target fields
_INT = (int, parse_int)
_FLOAT = (float, parse_float)
_COMPLEX = (complex_pair, parse_complex)
_COMPLEXES = (
    lambda zs: [complex_pair(z) for z in zs],
    lambda value: tuple(parse_complex(z) for z in value),
)


class TargetState:
    """A target variant: a frozen dataclass that checks its fields when built.

    _JSON maps each JSON key to (field, codec), _vector(params) gives the
    ideal state and _top_level() the top Fock level.  By default both read
    _weights(): _amplitudes(), the motional weights in |g>, checked,
    normalized and trimmed after the last nonzero one, in one place.

    _compile(params) returns (schedule, amplitudes, extra): the final
    amplitudes are those its pulses gave from |0>|g> as it built them, and
    extra holds the report fields it fixes (target_rotation_rad,
    truncation_overlap, final_internal_state).  _VARIANTS maps each JSON
    tag to its variant.
    """

    _JSON: dict = {}

    def _weights(self) -> np.ndarray:
        return _validated_target(self._amplitudes())

    def _top_level(self) -> int:
        return self._weights().size - 1

    def _vector(self, params: PhysicalParams) -> JointState:
        c = self._weights()
        amps = np.zeros(2 * params.fock_dim, dtype=complex)
        amps[GROUND : 2 * c.size : 2] = c
        return JointState(amps)


@dataclass(frozen=True)
class FockTarget(TargetState):
    """Motional number state |n>, reached by two full transfers.

    A blue-n full transfer followed by a carrier returning |e> to |g>.
    Where W_{n,0} = 0 (a Laguerre zero, e.g. eta = 1, n = 1) the carrier
    cannot turn pair n, so a carrier transfer into |e> followed by a red-n
    full transfer is emitted instead; the provenance names the choice.
    Multi-quantum sidebands make any n reachable with exactly two pulses;
    n = 0 compiles to an empty schedule.
    """

    n: int
    _JSON = {"n": ("n", _INT)}

    def __post_init__(self):
        object.__setattr__(self, "n", parse_int(self.n))
        if self.n < 0:
            raise ValueError(f"Fock index must be >= 0, got {self.n}")

    def _amplitudes(self):
        c = np.zeros(self.n + 1, dtype=complex)
        c[self.n] = 1.0
        return c

    def _compile(self, params):
        n = self.n
        if n == 0:
            return _empty(params, "fock(n=0, strategy=blue-then-carrier)")
        # two full transfers: sin(|W| t) = 1 on both pulses
        if rabi_frequency(params, n, 0).value == 0.0:
            strategy = "carrier-then-red"
            pulses = (
                _turn(params, "carrier", 0, 0, _HALF_PI, 0.0),
                _turn(params, "red", n, 0, _HALF_PI, 0.0),
            )
        else:
            strategy = "blue-then-carrier"
            pulses = (
                _turn(params, "blue", n, 0, _HALF_PI, 0.0),
                _turn(params, "carrier", 0, n, _HALF_PI, 0.0),
            )
        schedule = PulseSchedule(params, pulses, provenance=f"fock(n={n}, strategy={strategy})")
        return schedule, run_schedule(JointState.ground(params.fock_dim), schedule).amplitudes, {}


@dataclass(frozen=True)
class SuperpositionTarget(TargetState):
    """Finite Fock superposition sum_j c_j |j>, c normalized.

    Compiled to a carrier and N ascending red sideband pulses; trailing
    zero amplitudes are trimmed.
    """

    amplitudes: tuple[complex, ...]
    _JSON = {"amplitudes": ("amplitudes", _COMPLEXES)}

    def __post_init__(self):
        object.__setattr__(
            self, "amplitudes", tuple(complex(a) for a in self.amplitudes)
        )
        _validated_target(self.amplitudes)

    def _amplitudes(self):
        return self.amplitudes

    def _compile(self, params):
        c = self._weights()
        return _compile_weighted(c, params, f"superposition(N={c.size - 1}, sideband=red)")


@dataclass(frozen=True)
class PhaseStateTarget(TargetState):
    """Uniform-magnitude phase state sum_j e^{i j theta} |j> / sqrt(N+1).

    Compiled through the superposition inverter; the durations take the
    closed forms t_0 = arccos(1/sqrt(N+1))/W_00 and
    t_j = arcsin(1/sqrt(N-j+1))/W_0j.
    """

    n_max: int
    theta: float
    _JSON = {"n_max": ("n_max", _INT), "theta_rad": ("theta", _FLOAT)}

    def __post_init__(self):
        object.__setattr__(self, "n_max", parse_int(self.n_max))
        if self.n_max < 1:
            raise ValueError(f"phase state needs n_max >= 1, got {self.n_max}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")

    def _amplitudes(self):
        return np.exp(1j * self.theta * np.arange(self.n_max + 1)) / math.sqrt(self.n_max + 1)

    def _compile(self, params):
        provenance = f"phase_state(N={self.n_max}, theta={self.theta:.6g})"
        return _compile_weighted(self._weights(), params, provenance)


@dataclass(frozen=True)
class CoherentTarget(TargetState):
    """Coherent state alpha truncated at Fock level n_max and renormalized.

    The report's truncation_overlap is how much of the untruncated
    coherent state the kept levels capture, so the approximation quality
    is visible.
    """

    alpha: complex
    n_max: int
    _JSON = {"alpha": ("alpha", _COMPLEX), "n_max": ("n_max", _INT)}

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        if not cmath.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        object.__setattr__(self, "n_max", parse_int(self.n_max))
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")

    def _amplitudes(self):
        c = _coherent_weights(self.alpha, self.n_max)
        return c / np.linalg.norm(c)

    def _compile(self, params):
        provenance = f"coherent(alpha={self.alpha:.6g}, N={self.n_max})"
        overlap = {"truncation_overlap": _poisson_head(self.alpha, self.n_max)}
        if self.alpha == 0:
            return _empty(params, provenance, **overlap)
        schedule, amps, extra = _compile_weighted(self._weights(), params, provenance)
        return schedule, amps, extra | overlap


@dataclass(frozen=True)
class ParityCoherentTarget(CoherentTarget):
    """Even or odd coherent state (only even/odd Fock levels), truncated.

    Compiled with red sidebands of that parity only, so the other parity
    never acquires amplitude.  At alpha = 0 the odd state degenerates to
    its lowest component |1>.  truncation_overlap is that of its parity.
    """

    parity: str  # "even" | "odd"

    def __post_init__(self):
        super().__post_init__()
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        if self.parity == "odd" and self.n_max == 0:
            raise ValueError(f"truncation n_max={self.n_max} excludes every {self.parity} level")

    def _amplitudes(self):
        """Normalized weights of one parity up to the last nonzero one.

        At alpha = 0 only the lowest level of the parity remains.  Trimmed
        here, so the norm _weights() takes again has no zero tail to sum.
        """
        rem = 0 if self.parity == "even" else 1
        if self.alpha == 0:
            c = np.zeros(rem + 1, dtype=complex)
            c[rem] = 1.0
            return c
        c = _coherent_weights(self.alpha, self.n_max)
        c[np.arange(self.n_max + 1) % 2 != rem] = 0.0
        c /= np.linalg.norm(c)
        return c[: int(np.max(np.nonzero(np.abs(c))[0])) + 1]

    def _compile(self, params):
        provenance = f"{self.parity}_coherent(alpha={self.alpha:.6g}, N={self.n_max})"
        rem = 0 if self.parity == "even" else 1
        overlap = {"truncation_overlap": _poisson_head(self.alpha, self.n_max, rem)}
        if self.alpha == 0 and self.parity == "even":
            return _empty(params, provenance, **overlap)
        c = self._weights()
        levels = [j for j in range(1, c.size) if j % 2 == rem]
        schedule, amps, extra = _compile_weighted(c, params, provenance, levels)
        return schedule, amps, extra | overlap


@dataclass(frozen=True)
class BellTarget(TargetState):
    """Maximally entangled (|0>|e> + |1>|g>)/sqrt(2).

    Compiled to a full carrier transfer into |0>|e> followed by a red-1
    half transfer (sin = 1/sqrt(2)); the red phase is solved so both
    components carry the same argument.
    """

    def _top_level(self):
        return 1

    def _vector(self, params):
        amps = np.zeros(2 * params.fock_dim, dtype=complex)
        amps[2 * 0 + EXCITED] = amps[2 * 1 + GROUND] = 1.0 / math.sqrt(2.0)
        return JointState(amps)

    def _compile(self, params):
        carrier = _turn(params, "carrier", 0, 0, _HALF_PI, 0.0)  # sin(W_00 t0) = 1
        amps = JointState.ground(params.fock_dim).amplitudes
        amps = apply_pulse_amplitudes(amps, params, carrier)

        res = complex(amps[2 * 0 + EXCITED])
        theta = math.asin(1.0 / math.sqrt(2.0))
        probe = res * (-neg_ipow(0)) * math.sin(theta)  # C~ deposit at phase 0
        phi = _solved_phase(res * math.cos(theta), probe)
        red = _turn(params, "red", 1, 0, theta, phi)
        amps = apply_pulse_amplitudes(amps, params, red)

        schedule = PulseSchedule(params, (carrier, red), provenance="bell")
        return schedule, amps, {"final_internal_state": "entangled"}


@dataclass(frozen=True)
class EntangledCarrierTarget(SuperpositionTarget):
    """Fock superposition followed by one entangling carrier pulse.

    The appended carrier splits each level j into d_j^g = c_j cos(W_j0 t)
    and d_j^e = -i c_j e^{-i phi} sin(W_j0 t); because W_j0 depends on j,
    every level acquires its own mixing angle and the result is entangled.
    """

    carrier_duration: float
    carrier_phase: float
    _JSON = {
        "amplitudes": ("amplitudes", _COMPLEXES),
        "carrier_duration_s": ("carrier_duration", _FLOAT),
        "carrier_phase_rad": ("carrier_phase", _FLOAT),
    }

    def __post_init__(self):
        super().__post_init__()
        # a negative or non-finite duration or phase fails as it would in the pulse
        self._carrier()

    def _carrier(self) -> Pulse:
        return Pulse.carrier(self.carrier_phase, self.carrier_duration)

    def _vector(self, params):
        superposition = super()._vector(params).amplitudes
        return JointState(apply_pulse_amplitudes(superposition, params, self._carrier()))

    def _compile(self, params):
        schedule, amps, extra = super()._compile(params)
        carrier = self._carrier()
        provenance = f"entangled_carrier(N={len(schedule.pulses) - 1})"
        schedule = PulseSchedule(params, schedule.pulses + (carrier,), provenance)
        amps = apply_pulse_amplitudes(amps, params, carrier)
        return schedule, amps, extra | {"final_internal_state": "entangled"}


# JSON tag -> (variant, the field values the tag fixes)
_VARIANTS = {
    "fock": (FockTarget, {}),
    "superposition": (SuperpositionTarget, {}),
    "phase_state": (PhaseStateTarget, {}),
    "coherent": (CoherentTarget, {}),
    "even_coherent": (ParityCoherentTarget, {"parity": "even"}),
    "odd_coherent": (ParityCoherentTarget, {"parity": "odd"}),
    "bell": (BellTarget, {}),
    "entangled_carrier": (EntangledCarrierTarget, {}),
}


# ---------------------------------------------------------------------------
# Dispatch


def default_fock_dim(target: TargetState) -> int:
    """The smallest fock_dim compile_target accepts for target: its top Fock level + 2."""
    return target._top_level() + 2


def compile_target(target: TargetState, params: PhysicalParams) -> SynthesisReport:
    """Compile any TargetState variant under the given parameters.

    fock_dim must reach past the target's top Fock level by one empty
    guard level: at least default_fock_dim(target).
    """
    need = default_fock_dim(target)
    if params.fock_dim < need:
        raise ValueError(
            f"fock_dim {params.fock_dim} too small for top Fock level "
            f"{need - 2} (need >= {need})"
        )
    schedule, amps, extra = target._compile(params)
    final = JointState(amps)
    turn = cmath.exp(1j * extra.get("target_rotation_rad", 0.0))
    ideal = JointState(target._vector(params).amplitudes * turn)
    exact = fidelity(ideal, final, up_to_global_phase=False)
    return SynthesisReport(schedule, final, fidelity(ideal, final), exact, **extra)


def target_state_vector(target: TargetState, params: PhysicalParams) -> JointState:
    """The ideal state a target describes, independent of any schedule."""
    return target._vector(params)
