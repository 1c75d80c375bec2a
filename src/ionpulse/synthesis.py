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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import PhysicalParams, neg_ipow, rabi_column, rabi_frequency
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
    "AlternatingTarget",
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


def _after_carrier(
    c: np.ndarray, params: PhysicalParams, duration: float, phase: float
) -> JointState:
    """sum_j c_j |j>|g> after one carrier pulse, level by level.

    Level j splits into c_j cos(W_j0 t) |j>|g> and
    -i e^{-i phase} c_j sin(W_j0 t) |j>|e>.
    """
    angle = rabi_column(params.eta, params.omega_carrier, 0, params.fock_dim)[: c.size] * duration
    amps = np.zeros(2 * params.fock_dim, dtype=complex)
    amps[GROUND : 2 * c.size : 2] = c * np.cos(angle)
    amps[EXCITED : 2 * c.size : 2] = -1j * cmath.exp(-1j * phase) * c * np.sin(angle)
    return JointState(amps)


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


def _motional_vector(c: np.ndarray, dim: int) -> JointState:
    """sum_j c_j |j>|g> on a dim-level Fock space."""
    amps = np.zeros(2 * dim, dtype=complex)
    amps[GROUND : 2 * c.size : 2] = c
    return JointState(amps)


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
    amplitudes, params: PhysicalParams, provenance: str, levels: Sequence[int] | None = None
) -> SynthesisReport:
    c = _validated_target(amplitudes)
    n_top = c.size - 1
    if params.fock_dim <= n_top + 1:
        raise ValueError(
            f"fock_dim {params.fock_dim} too small for top Fock level {n_top} "
            f"(need > {n_top + 1})"
        )
    c_rot, rotation = _rotated(c)
    if levels is None:
        levels = list(range(1, n_top + 1))
    pulses, amps = _invert_ladder(c_rot, params, list(levels))
    return _report(
        PulseSchedule(params, tuple(pulses), provenance=provenance),
        JointState(amps),
        _motional_vector(c_rot, params.fock_dim),
        target_rotation_rad=rotation,
    )


def _report(
    schedule: PulseSchedule, final: JointState, target: JointState, **extra
) -> SynthesisReport:
    """Report on a schedule whose simulated final state is final."""
    return SynthesisReport(
        schedule=schedule,
        predicted_final=final,
        fidelity_vs_target=fidelity(target, final),
        exact_phase_fidelity=fidelity(target, final, up_to_global_phase=False),
        **extra,
    )


def _ground_report(params: PhysicalParams, provenance: str, **extra) -> SynthesisReport:
    """Empty schedule for a target that is the ground state |0>|g> itself."""
    ground = JointState.ground(params.fock_dim)
    return _report(PulseSchedule(params, (), provenance), ground, ground, **extra)


def _coherent_weights(alpha: complex, n_max: int) -> np.ndarray:
    """Unnormalized alpha^j / sqrt(j!) for j = 0..n_max."""
    c = np.empty(n_max + 1, dtype=complex)
    c[0] = 1.0
    for j in range(1, n_max + 1):
        c[j] = c[j - 1] * alpha / math.sqrt(j)
    return c


def _poisson_head(alpha: complex, n_max: int) -> float:
    """sum_{j<=n_max} e^{-|a|^2} |a|^{2j} / j!  (captured coherent weight)."""
    lam = abs(alpha) ** 2
    p = math.exp(-lam)
    total = p
    for j in range(1, n_max + 1):
        p *= lam / j
        total += p
    return min(1.0, total)


# ---------------------------------------------------------------------------
# Target variants


def complex_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def parse_int(value) -> int:
    """A JSON integer; floats, bools and strings are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


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
_TIMED_PHASES = (
    lambda pairs: [{"duration_s": t, "phase_rad": p} for t, p in pairs],
    lambda value: tuple((parse_float(p["duration_s"]), parse_float(p["phase_rad"])) for p in value),
)


class TargetState:
    """A target variant: a frozen dataclass that checks its fields when built.

    _compile(params) compiles it, _JSON maps each JSON key to (field,
    codec), _reach() gives (top Fock level, top sideband order) of the
    schedule, and _vector(params) the ideal state: by default the
    motional superposition of _amplitudes(), the weights _compile
    inverts, in |g>.  _VARIANTS maps each JSON tag to its variant.
    """

    _JSON: dict = {}

    def _vector(self, params: PhysicalParams) -> JointState:
        return _motional_vector(self._amplitudes(), params.fock_dim)


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
        if self.n < 0:
            raise ValueError(f"Fock index must be >= 0, got {self.n}")

    def _reach(self):
        return self.n, self.n

    def _vector(self, params):
        return JointState.fock(self.n, params.fock_dim)

    def _compile(self, params):
        n = self.n
        if n == 0:
            return _ground_report(params, "fock(n=0, strategy=blue-then-carrier)")
        if params.fock_dim <= n + 1:
            raise ValueError(
                f"fock_dim {params.fock_dim} too small for Fock target {n} (need > {n + 1})"
            )
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
        final = run_schedule(JointState.ground(params.fock_dim), schedule)
        return _report(schedule, final, JointState.fock(n, params.fock_dim))


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

    def _reach(self):
        n = max(len(self.amplitudes) - 1, 1)
        return n, n

    def _amplitudes(self):
        return _validated_target(self.amplitudes)

    def _compile(self, params):
        n_top = int(np.max(np.nonzero(np.abs(self.amplitudes))[0]))
        provenance = f"superposition(N={n_top}, sideband=red)"
        return _compile_weighted(self.amplitudes, params, provenance)


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
        if self.n_max < 1:
            raise ValueError(f"phase state needs n_max >= 1, got {self.n_max}")

    def _reach(self):
        return self.n_max, self.n_max

    def _amplitudes(self):
        return np.exp(1j * self.theta * np.arange(self.n_max + 1)) / math.sqrt(self.n_max + 1)

    def _compile(self, params):
        provenance = f"phase_state(N={self.n_max}, theta={self.theta:.6g})"
        return _compile_weighted(self._amplitudes(), params, provenance)


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
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")

    def _reach(self):
        n = max(self.n_max, 1)
        return n, n

    def _amplitudes(self):
        c = _coherent_weights(self.alpha, self.n_max)
        return c / np.linalg.norm(c)

    def _compile(self, params):
        provenance = f"coherent(alpha={self.alpha:.6g}, N={self.n_max})"
        if self.alpha == 0:
            return _ground_report(params, provenance, truncation_overlap=1.0)
        report = _compile_weighted(self._amplitudes(), params, provenance=provenance)
        return replace(report, truncation_overlap=_poisson_head(self.alpha, self.n_max))


@dataclass(frozen=True)
class ParityCoherentTarget(CoherentTarget):
    """Even or odd coherent state (only even/odd Fock levels), truncated.

    Compiled with red sidebands of that parity only, so the other parity
    never acquires amplitude.  At alpha = 0 the odd state degenerates to
    its lowest component |1>.
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

        At alpha = 0 only the lowest level of the parity remains.
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
        if self.alpha == 0 and self.parity == "even":
            return _ground_report(params, provenance, truncation_overlap=1.0)
        rem = 0 if self.parity == "even" else 1
        c = self._amplitudes()
        levels = [j for j in range(1, c.size) if j % 2 == rem]
        return _compile_weighted(c, params, provenance=provenance, levels=levels)


@dataclass(frozen=True)
class BellTarget(TargetState):
    """Maximally entangled (|0>|e> + |1>|g>)/sqrt(2).

    Compiled to a full carrier transfer into |0>|e> followed by a red-1
    half transfer (sin = 1/sqrt(2)); the red phase is solved so both
    components carry the same argument.
    """

    def _reach(self):
        return 1, 1

    def _vector(self, params):
        amps = np.zeros(2 * params.fock_dim, dtype=complex)
        amps[2 * 0 + EXCITED] = amps[2 * 1 + GROUND] = 1.0 / math.sqrt(2.0)
        return JointState(amps)

    def _compile(self, params):
        if params.fock_dim < 3:
            raise ValueError(f"fock_dim must be >= 3 for the Bell target, got {params.fock_dim}")
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
        target = self._vector(params)
        return _report(schedule, JointState(amps), target, final_internal_state="entangled")


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
        if self.carrier_duration < 0.0:
            raise ValueError(f"carrier duration must be >= 0, got {self.carrier_duration}")

    def _vector(self, params):
        return _after_carrier(self._amplitudes(), params, self.carrier_duration, self.carrier_phase)

    def _compile(self, params):
        base = super()._compile(params)
        extra = Pulse.carrier(self.carrier_phase, self.carrier_duration)
        amps = apply_pulse_amplitudes(base.predicted_final.amplitudes, params, extra)
        schedule = PulseSchedule(
            params,
            base.schedule.pulses + (extra,),
            provenance=f"entangled_carrier(N={len(base.schedule.pulses) - 1})",
        )
        # closed-form target from the rotated superposition weights
        c_rot = base.predicted_final.amplitudes[GROUND::2]
        target = _after_carrier(c_rot, params, self.carrier_duration, self.carrier_phase % _TWO_PI)
        return _report(
            schedule,
            JointState(amps),
            target,
            target_rotation_rad=base.target_rotation_rad,
            final_internal_state="entangled",
        )


@dataclass(frozen=True)
class AlternatingTarget(TargetState):
    """Forward-generated state: carrier then alternating red-1/blue-1 pulses.

    sideband_pulses is a sequence of (duration, phase) pairs; the first
    sideband pulse is red, the second blue, and so on.  After pulse i the
    ground component occupies Fock levels <= i (odd i) or <= i-1 (even i)
    and conversely for the excited component.  When the carrier fully
    inverts the ion (|sin(W_00 t)| = 1, initial state |0>|e>), the
    alternation keeps ground amplitude on odd levels and excited
    amplitude on even levels only.
    """

    carrier_duration: float
    carrier_phase: float
    sideband_pulses: tuple[tuple[float, float], ...]
    _JSON = {
        "carrier_duration_s": ("carrier_duration", _FLOAT),
        "carrier_phase_rad": ("carrier_phase", _FLOAT),
        "sideband_pulses": ("sideband_pulses", _TIMED_PHASES),
    }

    def __post_init__(self):
        object.__setattr__(
            self,
            "sideband_pulses",
            tuple((float(t), float(p)) for t, p in self.sideband_pulses),
        )

    def _reach(self):
        return len(self.sideband_pulses), 1

    def _vector(self, params):
        raise ValueError("alternating targets are forward-generated and have no closed form")

    def _compile(self, params):
        n_sb = len(self.sideband_pulses)
        if params.fock_dim <= n_sb + 2:
            raise ValueError(
                f"fock_dim {params.fock_dim} too small for {n_sb} alternating pulses "
                f"(need > {n_sb + 2})"
            )
        pulses = [Pulse.carrier(self.carrier_phase, self.carrier_duration)]
        for i, (t, phi) in enumerate(self.sideband_pulses):
            pulses.append(Pulse("red" if i % 2 == 0 else "blue", 1, phi, t))

        schedule = PulseSchedule(
            params, tuple(pulses), provenance=f"alternating(n_sideband={n_sb})"
        )
        return SynthesisReport(
            schedule=schedule,
            predicted_final=run_schedule(JointState.ground(params.fock_dim), schedule),
            fidelity_vs_target=1.0,
            exact_phase_fidelity=1.0,
            final_internal_state="entangled",
        )


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
    "alternating": (AlternatingTarget, {}),
}


# ---------------------------------------------------------------------------
# Dispatch


def default_fock_dim(target: TargetState) -> int:
    """Truncation with guard headroom: max Fock index + 2*max order + 2."""
    n, k = target._reach()
    return max(n + 2 * k + 2, 4)


def compile_target(target: TargetState, params: PhysicalParams) -> SynthesisReport:
    """Compile any TargetState variant under the given parameters."""
    return target._compile(params)


def target_state_vector(target: TargetState, params: PhysicalParams) -> JointState:
    """The ideal state a target describes, independent of any schedule.

    AlternatingTarget has no closed-form target (it is forward-generated)
    and raises ValueError.
    """
    return target._vector(params)
