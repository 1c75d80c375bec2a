"""Compilers that turn target quantum states into laser pulse schedules.

Every compiler emits a PulseSchedule together with the forward-simulated
final state and its fidelity against the target (SynthesisReport).  The
inversion strategy is shared: a carrier pulse splits the ground-state
amplitude, leaving a reservoir in one internal level, and a sequence of
ascending sideband pulses peels amplitude off the reservoir and deposits
it at the requested Fock levels.  Durations follow the recursion

    t_0:        cos(W_00 t_0) = |c_0|        (carrier, red variant)
    t_j:        sin(W_0j t_j) = |c_j| / r_{j-1},   r_j = r_{j-1} cos(W_0j t_j)
    t_N:        sin(W_0N t_N) = 1            (reservoir fully deposited)

and every laser phase is solved numerically from the actual residual
amplitude so that each deposited component lands with the target's
argument.  Solved phases make the compiler immune to sign-convention
drift in the coefficient algebra; quoting fixed phases does not.

Targets are pre-rotated by a global phase so c_0 is real nonnegative
(the carrier deposit for the red variant is forced real); the rotation
is recorded in the report.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from .core import PhysicalParams, ipow, neg_ipow, rabi_column, rabi_frequency
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
    "compile_fock",
    "compile_superposition",
    "compile_phase_state",
    "compile_coherent",
    "compile_even_odd_coherent",
    "compile_bell",
    "compile_entangled_carrier",
    "generate_alternating",
    "compile_target",
    "target_state_vector",
    "default_fock_dim",
]

_HALF_PI = math.pi / 2.0
_TWO_PI = 2.0 * math.pi

# ---------------------------------------------------------------------------
# Target descriptions


@dataclass(frozen=True)
class FockTarget:
    """Motional number state |n>."""

    n: int


@dataclass(frozen=True)
class SuperpositionTarget:
    """Finite Fock superposition sum_j c_j |j>, c normalized."""

    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "amplitudes", tuple(complex(a) for a in self.amplitudes)
        )


@dataclass(frozen=True)
class PhaseStateTarget:
    """Uniform-magnitude phase state sum_j e^{i j theta} |j> / sqrt(N+1)."""

    n_max: int
    theta: float


@dataclass(frozen=True)
class CoherentTarget:
    """Coherent state alpha truncated at Fock level n_max and renormalized."""

    alpha: complex
    n_max: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))


@dataclass(frozen=True)
class ParityCoherentTarget:
    """Even or odd coherent state (only even/odd Fock levels), truncated."""

    alpha: complex
    n_max: int
    parity: str  # "even" | "odd"

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")


@dataclass(frozen=True)
class BellTarget:
    """Maximally entangled (|0>|e> + |1>|g>)/sqrt(2)."""


@dataclass(frozen=True)
class EntangledCarrierTarget:
    """Fock superposition followed by one entangling carrier pulse."""

    amplitudes: tuple[complex, ...]
    carrier_duration: float
    carrier_phase: float

    def __post_init__(self):
        object.__setattr__(
            self, "amplitudes", tuple(complex(a) for a in self.amplitudes)
        )


@dataclass(frozen=True)
class AlternatingTarget:
    """Forward-generated state: carrier then alternating red-1/blue-1 pulses.

    sideband_pulses is a sequence of (duration, phase) pairs; the first
    sideband pulse is red, the second blue, and so on.
    """

    carrier_duration: float
    carrier_phase: float
    sideband_pulses: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "sideband_pulses",
            tuple((float(t), float(p)) for t, p in self.sideband_pulses),
        )


TargetState = Union[
    FockTarget,
    SuperpositionTarget,
    PhaseStateTarget,
    CoherentTarget,
    ParityCoherentTarget,
    BellTarget,
    EntangledCarrierTarget,
    AlternatingTarget,
]


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
    total_duration_s: float
    oracle_fidelity: float | None = None
    target_rotation_rad: float = 0.0
    final_internal_state: str = "g"
    truncation_overlap: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.fidelity_vs_target <= 1.0:
            raise ValueError(f"fidelity {self.fidelity_vs_target} outside [0, 1]")


# ---------------------------------------------------------------------------
# Shared machinery


def default_fock_dim(target: TargetState) -> int:
    """Truncation with guard headroom: max Fock index + 2*max order + 2."""
    if isinstance(target, FockTarget):
        n = k = target.n
    elif isinstance(target, (SuperpositionTarget, EntangledCarrierTarget)):
        n = k = max(len(target.amplitudes) - 1, 1)
    elif isinstance(target, (PhaseStateTarget, CoherentTarget, ParityCoherentTarget)):
        n = k = max(target.n_max, 1)
    elif isinstance(target, BellTarget):
        n = k = 1
    elif isinstance(target, AlternatingTarget):
        n, k = len(target.sideband_pulses), 1
    else:
        raise TypeError(f"unknown target {type(target).__name__}")
    return max(n + 2 * k + 2, 4)


def _solved_phase(desired: complex, probe: complex, sign: int) -> float:
    """Laser phase placing a deposit of known modulus at arg(desired).

    probe is the deposit amplitude evaluated at phase 0; the deposit
    scales as e^{i*sign*phase}.
    """
    return (sign * (cmath.phase(desired) - cmath.phase(probe))) % _TWO_PI


def _turn(
    params: PhysicalParams, kind: str, k: int, m: int, angle: float, phase: float, hint: str = ""
) -> Pulse:
    """Pulse turning pair m of a (kind, k) tuning by angle at laser phase phase.

    W_{m,k} can be negative past a Laguerre zero.  A pulse of duration
    angle / |W| at phase + pi then gives the same 2x2 block as a positive
    coupling would: the sign of sin(W t) folds into e^{-i phase}.  A
    coupling of exactly zero cannot turn the pair; hint names a way out.
    """
    w = rabi_frequency(params, m, k).value
    if w == 0.0:
        raise ValueError(
            f"W_{{{m},{k}}} = 0 at eta = {params.eta}: a {kind} pulse cannot turn pair {m}{hint}"
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
    if abs(norm - 1.0) > 1e-12:
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


def _motional_vector(c: np.ndarray, dim: int, internal: int) -> JointState:
    amps = np.zeros(2 * dim, dtype=complex)
    amps[2 * np.arange(c.size) + internal] = c
    return JointState(amps)


def _invert_ladder(
    c: np.ndarray,
    params: PhysicalParams,
    levels: Sequence[int],
    sideband: str,
    carrier_phase: float,
) -> tuple[list[Pulse], np.ndarray]:
    """Carrier + ascending sideband pulses depositing the amplitudes c.

    c must already be rotated (c[0] real >= 0).  levels lists the sideband
    orders to emit, ascending, ending at the index of the last nonzero
    amplitude; every nonzero c_j with j >= 1 must appear in levels.
    """
    dim = params.fock_dim
    nonzero = {int(j) for j in np.nonzero(np.abs(c))[0] if j >= 1}
    if list(levels) != sorted(set(levels)) or not nonzero <= set(levels):
        raise ValueError(f"deposit levels {levels} cannot realize the target support")
    if levels and levels[-1] != c.size - 1:
        raise ValueError("last deposit level must be the last nonzero amplitude")

    amps = np.zeros(2 * dim, dtype=complex)
    amps[2 * 0 + GROUND] = 1.0
    pulses: list[Pulse] = []

    if sideband == "red":
        # reservoir in |0>|e>, deposits land in |j>|g> via the C~ amplitude
        theta0 = math.acos(min(1.0, float(c[0].real)))
    elif sideband == "blue":
        # reservoir in |0>|g>, c_0 itself is deposited into |0>|e> via C
        theta0 = math.asin(min(1.0, float(abs(c[0]))))
        if abs(c[0]) > 0.0:
            probe = -1j * math.sin(theta0)
            carrier_phase = _solved_phase(complex(c[0]), probe, -1)
    else:
        raise ValueError(f"sideband must be 'red' or 'blue', got {sideband!r}")
    carrier = _turn(params, "carrier", 0, 0, theta0, carrier_phase)
    pulses.append(carrier)
    amps = apply_pulse_amplitudes(amps, params, carrier)

    reservoir_idx = 2 * 0 + (EXCITED if sideband == "red" else GROUND)
    for pos, j in enumerate(levels):
        res = complex(amps[reservoir_idx])
        last = pos == len(levels) - 1
        if last:
            sin_theta, theta = 1.0, _HALF_PI
        elif abs(c[j]) == 0.0:
            pulses.append(Pulse(sideband, j, 0.0, 0.0))
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
        if sideband == "red":
            probe = res * (-neg_ipow(j - 1)) * sin_theta  # C~ at phase 0
            phi = _solved_phase(complex(c[j]), probe, 1)
        else:
            probe = res * ipow(j - 1) * sin_theta  # C at phase 0
            phi = _solved_phase(complex(c[j]), probe, -1)
        pulse = _turn(params, sideband, j, 0, theta, phi)
        pulses.append(pulse)
        amps = apply_pulse_amplitudes(amps, params, pulse)
    return pulses, amps


def _compile_weighted(
    amplitudes,
    params: PhysicalParams,
    sideband: str,
    provenance: str,
    levels: Sequence[int] | None = None,
    restore_ground: bool = False,
    carrier_phase: float = _HALF_PI,
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
    pulses, amps = _invert_ladder(c_rot, params, list(levels), sideband, carrier_phase)

    internal = GROUND if sideband == "red" else EXCITED
    if sideband == "blue" and restore_ground:
        support = np.nonzero(np.abs(c_rot))[0]
        if support.size == 1:
            # single Fock level: the carrier acts as a pure internal rotation
            n = int(support[0])
            res = complex(amps[2 * n + EXCITED])
            probe = res * -1j  # C~ at phase 0, sin = 1
            phi = _solved_phase(complex(c_rot[n]), probe, 1)
            restore = _turn(params, "carrier", 0, n, _HALF_PI, phi, "; compile with sideband='red'")
            pulses.append(restore)
            amps = apply_pulse_amplitudes(amps, params, restore)
            internal = GROUND

    return _report(
        PulseSchedule(params, tuple(pulses), provenance=provenance),
        JointState(amps),
        _motional_vector(c_rot, params.fock_dim, internal),
        target_rotation_rad=rotation,
        final_internal_state="g" if internal == GROUND else "e",
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
        total_duration_s=schedule.total_duration,
        **extra,
    )


def _empty_report(params: PhysicalParams, provenance: str, **extra) -> SynthesisReport:
    schedule = PulseSchedule(params, (), provenance=provenance)
    final = JointState.ground(params.fock_dim)
    return SynthesisReport(
        schedule=schedule,
        predicted_final=final,
        fidelity_vs_target=1.0,
        exact_phase_fidelity=1.0,
        total_duration_s=0.0,
        **extra,
    )


# ---------------------------------------------------------------------------
# Compilers


def compile_fock(
    n: int, params: PhysicalParams, strategy: str = "blue-then-carrier"
) -> SynthesisReport:
    """Two-pulse schedule driving |0>|g> to the Fock state |n>|g>.

    Either a blue-n full transfer followed by a carrier returning |e> to
    |g>, or a carrier transfer into |e> followed by a red-n full transfer.
    Multi-quantum sidebands make any n reachable with exactly two pulses;
    n = 0 compiles to an empty schedule.
    """
    if n < 0:
        raise ValueError(f"Fock index must be >= 0, got {n}")
    provenance = f"fock(n={n}, strategy={strategy})"
    if n == 0:
        return _empty_report(params, provenance)
    if params.fock_dim <= n + 1:
        raise ValueError(
            f"fock_dim {params.fock_dim} too small for Fock target {n} (need > {n + 1})"
        )
    # two full transfers: sin(|W| t) = 1 on both pulses
    if strategy == "blue-then-carrier":
        pulses = (
            _turn(params, "blue", n, 0, _HALF_PI, 0.0),
            _turn(params, "carrier", 0, n, _HALF_PI, 0.0, "; use strategy='carrier-then-red'"),
        )
    elif strategy == "carrier-then-red":
        pulses = (
            _turn(params, "carrier", 0, 0, _HALF_PI, 0.0),
            _turn(params, "red", n, 0, _HALF_PI, 0.0),
        )
    else:
        raise ValueError(
            f"strategy must be 'blue-then-carrier' or 'carrier-then-red', got {strategy!r}"
        )
    schedule = PulseSchedule(params, pulses, provenance=provenance)
    final = run_schedule(JointState.ground(params.fock_dim), schedule)
    return _report(schedule, final, JointState.fock(n, params.fock_dim))


def compile_superposition(
    amplitudes,
    params: PhysicalParams,
    sideband: str = "red",
    restore_ground: bool = False,
) -> SynthesisReport:
    """Carrier + N ascending sideband pulses realizing sum_j c_j |j>.

    The red variant ends with the motional superposition in |g>; the blue
    variant ends in |e>.  restore_ground appends a correcting carrier only
    when the motional state is a single Fock level (the carrier rotation
    angle W_{m,0} t depends on m, so no single pulse can uniformly return
    a multi-level superposition from |e>); otherwise the report documents
    the |e> termination.  Trailing zero amplitudes are trimmed.
    """
    c = np.asarray(amplitudes, dtype=complex)
    nz = np.nonzero(np.abs(c))[0]
    n_top = int(nz.max()) if nz.size else 0
    return _compile_weighted(
        c,
        params,
        sideband,
        provenance=f"superposition(N={n_top}, sideband={sideband})",
        restore_ground=restore_ground,
    )


def compile_phase_state(
    n_max: int, theta: float, params: PhysicalParams
) -> SynthesisReport:
    """Uniform-magnitude phase state sum_j e^{i j theta} |j> / sqrt(N+1).

    Compiled through the superposition inverter; the resulting durations
    are additionally checked against their closed forms
    t_0 = arccos(1/sqrt(N+1))/W_00 and t_j = arcsin(1/sqrt(N-j+1))/W_0j.
    """
    if n_max < 1:
        raise ValueError(f"phase state needs n_max >= 1, got {n_max}")
    c = np.exp(1j * theta * np.arange(n_max + 1)) / math.sqrt(n_max + 1)
    report = _compile_weighted(
        c,
        params,
        "red",
        provenance=f"phase_state(N={n_max}, theta={theta:.6g})",
    )
    w = [rabi_frequency(params, 0, j).value for j in range(n_max + 1)]
    expected = [math.acos(1.0 / math.sqrt(n_max + 1)) / w[0]]
    expected += [math.asin(1.0 / math.sqrt(n_max - j + 1)) / w[j] for j in range(1, n_max + 1)]
    for pulse, t_exp in zip(report.schedule.pulses, expected):
        if abs(pulse.duration - t_exp) > 1e-9 * t_exp:
            raise RuntimeError(
                f"phase-state duration {pulse.duration} deviates from closed form {t_exp}"
            )
    return report


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


def compile_coherent(alpha, n_max: int, params: PhysicalParams) -> SynthesisReport:
    """Truncated, renormalized coherent state with c_j proportional to alpha^j/sqrt(j!).

    truncation_overlap reports how much of the untruncated coherent state
    the kept levels capture, so the approximation quality is visible.
    """
    alpha = complex(alpha)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    provenance = f"coherent(alpha={alpha:.6g}, N={n_max})"
    if alpha == 0:
        return _empty_report(params, provenance, truncation_overlap=1.0)
    c = _coherent_weights(alpha, n_max)
    c /= np.linalg.norm(c)
    report = _compile_weighted(c, params, "red", provenance=provenance)
    return replace(report, truncation_overlap=_poisson_head(alpha, n_max))


def compile_even_odd_coherent(
    alpha, n_max: int, parity: str, params: PhysicalParams
) -> SynthesisReport:
    """Even or odd coherent state using only even- or odd-order red sidebands.

    Restricting the pulse orders to one parity guarantees the other parity
    never acquires amplitude.  At alpha = 0 the odd state degenerates to
    its lowest component |1>.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    alpha = complex(alpha)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    rem = 0 if parity == "even" else 1
    provenance = f"{parity}_coherent(alpha={alpha:.6g}, N={n_max})"
    if alpha == 0 and parity == "even":
        return _empty_report(params, provenance, truncation_overlap=1.0)
    if n_max < rem:
        raise ValueError(f"truncation n_max={n_max} excludes every {parity} level")
    if alpha == 0:  # odd limit: single lowest component
        c = np.zeros(2, dtype=complex)
        c[1] = 1.0
    else:
        c = _coherent_weights(alpha, n_max)
        c[np.arange(n_max + 1) % 2 != rem] = 0.0
        c /= np.linalg.norm(c)
        c = c[: int(np.max(np.nonzero(np.abs(c))[0])) + 1]
    levels = [j for j in range(1, c.size) if j % 2 == rem]
    return _compile_weighted(c, params, "red", provenance=provenance, levels=levels)


def compile_bell(params: PhysicalParams) -> SynthesisReport:
    """Two pulses to (|0>|e> + |1>|g>)/sqrt(2) from |0>|g>.

    A full carrier transfer into |0>|e> followed by a red-1 half transfer
    (sin = 1/sqrt(2)); the red phase is solved so both components carry
    the same argument.
    """
    if params.fock_dim < 3:
        raise ValueError(f"fock_dim must be >= 3 for the Bell target, got {params.fock_dim}")
    carrier = _turn(params, "carrier", 0, 0, _HALF_PI, 0.0)  # sin(W_00 t0) = 1
    amps = JointState.ground(params.fock_dim).amplitudes
    amps = apply_pulse_amplitudes(amps, params, carrier)

    res = complex(amps[2 * 0 + EXCITED])
    theta = math.asin(1.0 / math.sqrt(2.0))
    probe = res * (-neg_ipow(0)) * math.sin(theta)  # C~ deposit at phase 0
    phi = _solved_phase(res * math.cos(theta), probe, 1)
    red = _turn(params, "red", 1, 0, theta, phi)
    amps = apply_pulse_amplitudes(amps, params, red)

    schedule = PulseSchedule(params, (carrier, red), provenance="bell")
    target = target_state_vector(BellTarget(), params)
    return _report(schedule, JointState(amps), target, final_internal_state="entangled")


def compile_entangled_carrier(
    amplitudes,
    carrier_duration: float,
    carrier_phase: float,
    params: PhysicalParams,
) -> SynthesisReport:
    """Fock superposition followed by one conditional carrier pulse.

    The appended carrier splits each level j into d_j^g = c_j cos(W_j0 t)
    and d_j^e = -i c_j e^{-i phi} sin(W_j0 t); because W_j0 depends on j,
    every level acquires its own mixing angle and the result is entangled.
    """
    if carrier_duration < 0.0:
        raise ValueError(f"carrier duration must be >= 0, got {carrier_duration}")
    base = compile_superposition(amplitudes, params)
    extra = Pulse.carrier(carrier_phase, carrier_duration)
    amps = apply_pulse_amplitudes(base.predicted_final.amplitudes, params, extra)
    schedule = PulseSchedule(
        params,
        base.schedule.pulses + (extra,),
        provenance=f"entangled_carrier(N={len(base.schedule.pulses) - 1})",
    )
    # closed-form target from the rotated superposition weights
    c_rot = base.predicted_final.amplitudes[GROUND::2]
    target = _after_carrier(c_rot, params, carrier_duration, carrier_phase % _TWO_PI)
    return _report(
        schedule,
        JointState(amps),
        target,
        target_rotation_rad=base.target_rotation_rad,
        final_internal_state="entangled",
    )


def generate_alternating(
    carrier_duration: float,
    carrier_phase: float,
    sideband_pulses: Sequence[tuple[float, float]],
    params: PhysicalParams,
) -> SynthesisReport:
    """Forward generator: carrier, then red-1, blue-1, red-1, ... pulses.

    After pulse i the ground component occupies Fock levels <= i (odd i)
    or <= i-1 (even i) and conversely for the excited component.  When the
    carrier fully inverts the ion (|sin(W_00 t)| = 1, initial state
    |0>|e>), the alternation keeps ground amplitude on odd levels and
    excited amplitude on even levels only.
    """
    n_sb = len(sideband_pulses)
    if params.fock_dim <= n_sb + 2:
        raise ValueError(
            f"fock_dim {params.fock_dim} too small for {n_sb} alternating pulses "
            f"(need > {n_sb + 2})"
        )
    pulses = [Pulse.carrier(carrier_phase, carrier_duration)]
    for i, (t, phi) in enumerate(sideband_pulses):
        pulses.append(Pulse("red" if i % 2 == 0 else "blue", 1, phi, t))

    schedule = PulseSchedule(
        params, tuple(pulses), provenance=f"alternating(n_sideband={n_sb})"
    )
    return SynthesisReport(
        schedule=schedule,
        predicted_final=run_schedule(JointState.ground(params.fock_dim), schedule),
        fidelity_vs_target=1.0,
        exact_phase_fidelity=1.0,
        total_duration_s=schedule.total_duration,
        final_internal_state="entangled",
    )


# ---------------------------------------------------------------------------
# Dispatch and reference vectors


def compile_target(target: TargetState, params: PhysicalParams) -> SynthesisReport:
    """Compile any TargetState variant under the given parameters."""
    if isinstance(target, FockTarget):
        return compile_fock(target.n, params)
    if isinstance(target, SuperpositionTarget):
        return compile_superposition(target.amplitudes, params)
    if isinstance(target, PhaseStateTarget):
        return compile_phase_state(target.n_max, target.theta, params)
    if isinstance(target, CoherentTarget):
        return compile_coherent(target.alpha, target.n_max, params)
    if isinstance(target, ParityCoherentTarget):
        return compile_even_odd_coherent(target.alpha, target.n_max, target.parity, params)
    if isinstance(target, BellTarget):
        return compile_bell(params)
    if isinstance(target, EntangledCarrierTarget):
        return compile_entangled_carrier(
            target.amplitudes, target.carrier_duration, target.carrier_phase, params
        )
    if isinstance(target, AlternatingTarget):
        return generate_alternating(
            target.carrier_duration, target.carrier_phase, target.sideband_pulses, params
        )
    raise TypeError(f"unknown target {type(target).__name__}")


def target_state_vector(target: TargetState, params: PhysicalParams) -> JointState:
    """The ideal state a target describes, independent of any schedule.

    AlternatingTarget has no closed-form target (it is forward-generated)
    and raises ValueError.
    """
    dim = params.fock_dim
    if isinstance(target, FockTarget):
        return JointState.fock(target.n, dim)
    if isinstance(target, SuperpositionTarget):
        c = _validated_target(target.amplitudes)
        return _motional_vector(c, dim, GROUND)
    if isinstance(target, PhaseStateTarget):
        c = np.exp(1j * target.theta * np.arange(target.n_max + 1))
        return _motional_vector(c / math.sqrt(target.n_max + 1), dim, GROUND)
    if isinstance(target, CoherentTarget):
        if target.alpha == 0:
            return JointState.ground(dim)
        c = _coherent_weights(target.alpha, target.n_max)
        return _motional_vector(c / np.linalg.norm(c), dim, GROUND)
    if isinstance(target, ParityCoherentTarget):
        rem = 0 if target.parity == "even" else 1
        if target.alpha == 0:
            return JointState.ground(dim) if rem == 0 else JointState.fock(1, dim)
        c = _coherent_weights(target.alpha, target.n_max)
        c[np.arange(target.n_max + 1) % 2 != rem] = 0.0
        return _motional_vector(c / np.linalg.norm(c), dim, GROUND)
    if isinstance(target, BellTarget):
        amps = np.zeros(2 * dim, dtype=complex)
        amps[2 * 0 + EXCITED] = amps[2 * 1 + GROUND] = 1.0 / math.sqrt(2.0)
        return JointState(amps)
    if isinstance(target, EntangledCarrierTarget):
        c = _validated_target(target.amplitudes)
        return _after_carrier(c, params, target.carrier_duration, target.carrier_phase)
    if isinstance(target, AlternatingTarget):
        raise ValueError("alternating targets are forward-generated and have no closed form")
    raise TypeError(f"unknown target {type(target).__name__}")
