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

H is kept dense, but it is exponentiated by its own 2x2 blocks: the
coupled pairs are read from H's nonzero pattern (not from the pulse
kind), every block is diagonalized by one batched eigh, and a state in
no pair only picks up exp(-i H_ii t).  A pattern that couples a state to
more than one other is refused.  Eigendecomposition stays stable for
arbitrarily long durations (slow high-order sidebands need t of order
seconds), and a pulse costs O(D^2), the scan of H, in place of the
O(D^3) of a dense eigh.
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
# Largest dense (2D, 2D) complex Hamiltonian build_hamiltonian allocates: D <= 2896.
_MAX_HAMILTONIAN_BYTES = 512 * 2**20


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
    last term j = m (see the module docstring).  A fock_dim whose dense
    matrix would exceed _MAX_HAMILTONIAN_BYTES raises ValueError before
    anything is allocated.
    """
    _check_kind(kind, k)
    dim = params.fock_dim
    if not k < dim:
        raise ValueError(f"sideband order k={k} needs k < fock_dim={dim}")
    nbytes = (2 * dim) ** 2 * np.dtype(complex).itemsize
    if nbytes > _MAX_HAMILTONIAN_BYTES:
        raise ValueError(
            f"fock_dim={dim} needs a {nbytes / 2**20:.0f} MiB dense Hamiltonian, "
            f"over the oracle's {_MAX_HAMILTONIAN_BYTES // 2**20} MiB budget"
        )
    x = params.eta * params.eta
    m = np.arange(dim - k, dtype=float)
    # j = 0 term: [a^k]_{m,m+k} / k! = sqrt((m+k)!/m!) / k!
    i = np.arange(1.0, k + 1)
    term = np.prod(np.sqrt(m[:, None] + i) / i, axis=1)
    diagonal = term.copy()
    for j in range(m.size - 1):
        # the (m - j) factor zeroes every term of element m past j = m
        term *= -x * (m - j) / ((j + 1) * (j + k + 1))
        diagonal += term

    pref = (
        (params.omega_carrier / 2.0)
        * ipow(k)
        * (params.eta**k)
        * cmath.exp(-x / 2.0 - 1j * phase)
    )
    # element m couples |g, n_g> to |e, n_e>; sigma+ = |e><g| in (g, e) order
    n = np.arange(m.size)
    n_g, n_e = {"red": (n + k, n), "blue": (n, n + k), "carrier": (n, n)}[kind]
    rows, cols = 2 * n_e + 1, 2 * n_g
    coupling = pref * diagonal
    entries = np.zeros((2 * dim, 2 * dim), dtype=complex)
    entries[rows, cols] = coupling
    entries[cols, rows] = coupling.conj()
    return HamiltonianMatrix(entries, kind, k, phase, m.size)


def _propagate_amplitudes(entries: np.ndarray, amps: np.ndarray, duration: float) -> np.ndarray:
    """exp(-i H t) amps, H taken apart into the 2x2 blocks its nonzeros form."""
    rows, cols = np.nonzero(entries != 0)
    upper = rows < cols
    lo, up = rows[upper], cols[upper]
    if np.count_nonzero(rows > cols) != lo.size or not np.all(entries[up, lo]):
        raise ValueError("Hamiltonian's nonzero pattern is not symmetric")
    pairs = np.stack((lo, up), axis=1)
    if np.unique(pairs).size != pairs.size:
        raise ValueError("Hamiltonian couples a basis state to more than one other")
    evals, evecs = np.linalg.eigh(entries[pairs[:, :, None], pairs[:, None, :]])
    phased = np.exp(-1j * evals * duration) * np.einsum("pji,pj->pi", evecs.conj(), amps[pairs])
    out = np.exp(-1j * np.diagonal(entries).real * duration) * amps
    out[pairs] = np.einsum("pij,pj->pi", evecs, phased)
    return out


def propagate(ham: HamiltonianMatrix, state: JointState, duration: float) -> JointState:
    """exp(-i H t) |state> by eigendecomposition of H's 2x2 blocks; norm preserved to 1e-11."""
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
