"""Independent verification by Hamiltonian matrix exponentiation.

The interaction-picture coupling for each laser tuning is the
normal-ordered ladder-operator series

    red k:    pref * sigma+ . sum_j (-eta^2)^j  adag^j a^(j+k) / (j! (j+k)!)  + h.c.
    blue k:   pref * sigma+ . sum_j (-eta^2)^j  adag^(j+k) a^j / (j! (j+k)!)  + h.c.
    carrier:  pref * sigma+ . sum_j (-eta^2)^j  adag^j a^j     / (j!)^2       + h.c.

with pref = (W/2) (i eta)^k exp(-eta^2/2 - i phi).  Each pulse couples
one diagonal, and its element m is a finite sum: a^(j+k) annihilates
|m+k> past j = m.  The series is summed to that last term for every m,
with no cutoff, as a running product of ladder matrix elements,

    t_0 = sqrt((m+k)!/m!) / k!,   t_(j+1) = t_j (-eta^2) (m-j) / ((j+1)(j+k+1)).

The sum still alternates, so it loses digits where eta^2 m is large
(1.3e-4 relative at eta = 1.5, m = 111, k = 10).

No closed-form Rabi frequency enters the construction; that the coupling
magnitudes equal the W_{m,k} of ionpulse.core is asserted in tests, which
is precisely what makes this an independent check of the pulse operators.

States are propagated through exp(-i H t) via the eigendecomposition of
the Hermitian matrix, which stays stable for arbitrarily long durations
(slow high-order sidebands need t of order seconds).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np

from .core import PhysicalParams, _check_kind, ipow
from .states import JointState, PulseSchedule, fidelity, run_schedule
from .synthesis import SynthesisReport

__all__ = [
    "HamiltonianMatrix",
    "build_hamiltonian",
    "propagate",
    "verify_schedule",
    "verify_report",
]

_HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Interaction Hamiltonian H/hbar (rad/s) on the 2*D truncated space.

    series_terms is the number of series terms summed: the length of the
    coupled diagonal.
    """

    entries: np.ndarray
    kind: str
    k: int
    phase: float
    series_terms: int

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def hermiticity_residual(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))


def build_hamiltonian(
    params: PhysicalParams,
    kind: str,
    k: int,
    phase: float,
) -> HamiltonianMatrix:
    """Assemble the coupling matrix for one laser tuning.

    Only the diagonal the pulse couples is summed, each element to its
    last term j = m (see the module docstring).
    """
    _check_kind(kind, k)
    if not k < params.fock_dim:
        raise ValueError(f"sideband order k={k} needs k < fock_dim={params.fock_dim}")
    x = params.eta * params.eta
    m = np.arange(params.fock_dim - k, dtype=float)
    # j = 0 term: [a^k]_{m,m+k} / k! = sqrt((m+k)!/m!) / k!
    i = np.arange(1.0, k + 1)
    term = np.prod(np.sqrt(m[:, None] + i) / i, axis=1)
    diagonal = term.copy()
    for j in range(m.size - 1):
        # the (m - j) factor zeroes every term of element m past j = m
        term *= -x * (m - j) / ((j + 1) * (j + k + 1))
        diagonal += term
    series = np.diag(diagonal, {"red": k, "blue": -k, "carrier": 0}[kind])

    pref = (
        (params.omega_carrier / 2.0)
        * ipow(k)
        * (params.eta**k)
        * cmath.exp(-x / 2.0 - 1j * phase)
    )
    sigma_plus = np.array([[0.0, 0.0], [1.0, 0.0]])  # |e><g| in (g, e) order
    half = pref * np.kron(series, sigma_plus)
    entries = half + half.conj().T
    return HamiltonianMatrix(entries, kind, k, phase, m.size)


def _propagate_amplitudes(entries: np.ndarray, amps: np.ndarray, duration: float) -> np.ndarray:
    evals, evecs = np.linalg.eigh(entries)
    return evecs @ (np.exp(-1j * evals * duration) * (evecs.conj().T @ amps))


def propagate(ham: HamiltonianMatrix, state: JointState, duration: float) -> JointState:
    """exp(-i H t) |state> via eigendecomposition; norm preserved to 1e-11."""
    entries = ham.entries
    scale = float(np.max(np.abs(entries))) if entries.size else 0.0
    if ham.hermiticity_residual > _HERMITICITY_TOL * (1.0 + scale):
        raise ValueError("Hamiltonian is not Hermitian")
    if entries.shape != (2 * state.dim, 2 * state.dim):
        raise ValueError(
            f"Hamiltonian shape {entries.shape} does not match state dim {state.dim}"
        )
    if duration < 0.0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    return JointState(_propagate_amplitudes(entries, state.amplitudes, duration))


def _oracle_final(initial: JointState, schedule: PulseSchedule) -> JointState:
    """The schedule's final state by Hamiltonian exponentiation, pulse by pulse."""
    amps = initial.amplitudes
    for pulse in schedule.pulses:
        ham = build_hamiltonian(schedule.params, pulse.kind, pulse.k, pulse.phase)
        amps = _propagate_amplitudes(ham.entries, amps, pulse.duration)
    return JointState(amps)


def verify_schedule(initial: JointState, schedule: PulseSchedule) -> float:
    """Fidelity (global phase discarded) of closed-form vs oracle evolution.

    The closed-form path runs the 2x2-block pulse operators; the oracle
    path rebuilds each pulse's Hamiltonian and matrix-exponentiates.
    """
    return fidelity(run_schedule(initial, schedule), _oracle_final(initial, schedule))


def verify_report(report: SynthesisReport, initial: JointState | None = None) -> SynthesisReport:
    """Return a copy of the report with oracle_fidelity filled in."""
    if initial is None:
        initial = JointState.ground(report.schedule.params.fock_dim)
    return replace(report, oracle_fidelity=verify_schedule(initial, report.schedule))
