"""Independent verification by Hamiltonian exponentiation.

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

H is held as what it is, disjoint two-level pairs |n_g, g> <-> |n_e, e>
and one coupling each, so it is Hermitian by construction and takes
O(D) memory.  It is exponentiated by its own 2x2 blocks, with the pairs
read from its pair list (not from the pulse kind).  A block
B = [[0, c], [conj(c), 0]] squares to |c|^2 I, so for any coupling c

    exp(-i t B) = cos(|c| t) I - i sin(|c| t) B / |c|,

computed for a run's pairs at once.  Nothing is iterated or factored, so the
error grows with t only as the rounding of the angle |c| t does: the
propagation stays stable for long durations (slow high-order sidebands
need t of order seconds).

A schedule sums the series of its K distinct orders in one loop of at
most D - 1 steps over K rows at most D long, O(K D^2) in all; each
element goes through the same floating-point operations, in the same
order, as in a loop over its own order alone.  The pulses then go in
runs of ceil(K/2), each one's pairs built, checked and exponentiated in
one pass, so only the gather and scatter of each pulse's blocks loops
over pulses.  A run holds at most half as many pairs as the series table
has elements, so memory stays O(K D) however long the schedule.
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


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Interaction Hamiltonian H/hbar (rad/s) on the 2*D truncated space.

    H[i, j] = c and H[j, i] = conj(c) for each pair (i, j) and its
    coupling c; every other element is zero.  A basis state is in at
    most one pair.
    """

    pairs: np.ndarray
    couplings: np.ndarray
    fock_dim: int

    def __post_init__(self):
        _check_pairs(self.pairs, self.couplings, self.fock_dim, [self.couplings.size])
        self.pairs.setflags(write=False)
        self.couplings.setflags(write=False)

    @property
    def series_terms(self) -> int:
        """Number of series summed: the length of the coupled diagonal."""
        return self.couplings.size


def _check_pairs(pairs: np.ndarray, couplings: np.ndarray, dim: int, sizes):
    """Raise ValueError unless pairs (P, 2) join distinct states of 2*dim, each
    in at most one pair of its pulse; sizes counts each pulse's pairs, in order."""
    if not (
        pairs.shape[1:] == (2,)
        and np.issubdtype(pairs.dtype, np.integer)
        and couplings.shape == pairs.shape[:1]
    ):
        raise ValueError(
            f"pairs need shape (P, 2) and an integer dtype, couplings shape (P,); got "
            f"{pairs.shape} {pairs.dtype} and {couplings.shape}"
        )
    if pairs.size and not (0 <= pairs.min() and pairs.max() < 2 * dim):
        raise ValueError(f"a pair index is outside [0, {2 * dim})")
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise ValueError("a pair couples a basis state to itself")
    # as intp, since numpy 1.x bincount refuses uint64; pulse p counts from 2 dim p
    offsets = np.repeat(2 * dim * np.arange(len(sizes)), sizes)
    if pairs.size and np.bincount((pairs.T.astype(np.intp, copy=False) + offsets).ravel()).max() > 1:
        raise ValueError("Hamiltonian couples a basis state to more than one other")


def _check_pulse(kind: str, k: int, dim: int):
    _check_kind(kind, k)
    if not k < dim:
        raise ValueError(f"sideband order k={k} needs k < fock_dim={dim}")


def _series(x: float, dim: int, ks: list[int]) -> np.ndarray:
    """Coupled-diagonal series of each order in ks, one row per order.

    Row r holds elements m < dim - ks[r], each summed to its last term
    j = m in one loop for all orders (see the module docstring), and zeros
    past them up to dim - min(ks).  Each k must be below dim.
    """
    m = np.arange(dim - min(ks, default=dim), dtype=float)
    term = np.zeros((len(ks), m.size))
    for row, k in zip(term, ks):
        # j = 0 term: [a^k]_{m,m+k} / k! = sqrt((m+k)!/m!) / k!
        i = np.arange(1.0, k + 1)
        row[: dim - k] = np.prod(np.sqrt(m[: dim - k, None] + i) / i, axis=1)
    diagonal = term.copy()
    # (j + 1)(j + k + 1) for every step and order, exact in floats below 2^53
    steps = np.arange(m.size - 1.0)[:, None, None]
    denominators = (steps + 1) * (steps + np.array(ks, dtype=float)[:, None] + 1)
    for j, denominator in enumerate(denominators):
        # the (m - j) factor zeroes every term of element m past j = m
        term *= -x * (m - j) / denominator
        diagonal += term
    return diagonal


def _pairs(params: PhysicalParams, pulses: list[tuple[str, int, float]], ks, table):
    """The coupled pairs of (kind, k, phase) pulses, pulse after pulse, their
    couplings from table (the _series rows of orders ks) and each pulse's count."""
    dim, eta, w = params.fock_dim, params.eta, params.omega_carrier / 2.0
    sizes = dim - np.array([k for _, k, _ in pulses], dtype=np.intp)
    m = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    pref = [w * ipow(k) * eta**k * cmath.exp(-eta * eta / 2.0 - 1j * phi) for _, k, phi in pulses]
    couplings = np.repeat(pref, sizes) * table[np.repeat(np.searchsorted(ks, dim - sizes), sizes), m]
    # element m couples |g, m + k_g> to |e, m + k_e>; sigma+ = |e><g| in (g, e) order
    k_e = np.repeat([k * (kind == "blue") for kind, k, _ in pulses], sizes)
    k_g = np.repeat([k * (kind == "red") for kind, k, _ in pulses], sizes)
    # stored column by column, so that each pulse gathers through contiguous indices
    return np.stack((2 * (m + k_e) + 1, 2 * (m + k_g))).T, couplings, sizes


def build_hamiltonian(params: PhysicalParams, kind: str, k: int, phase: float) -> HamiltonianMatrix:
    """Assemble the coupled pairs for one laser tuning, as a run of one pulse:
    each element of the diagonal it couples is summed to its last term j = m."""
    _check_pulse(kind, k, params.fock_dim)
    table = _series(params.eta * params.eta, params.fock_dim, [k])
    pairs, couplings, _ = _pairs(params, [(kind, k, phase)], [k], table)
    return HamiltonianMatrix(pairs, couplings, params.fock_dim)


def _evolve(amps: np.ndarray, pairs: np.ndarray, couplings: np.ndarray, durations, sizes):
    """exp(-i H t) amps in place, pulse after pulse of a run (sizes: each one's
    pair count), from cos(|c| t) and -i sin(|c| t) c / |c| (zero where c is)."""
    mag = np.abs(couplings)
    angle = mag * np.repeat(durations, sizes)
    cos = np.cos(angle)
    off = -1j * couplings
    off *= np.divide(np.sin(angle, out=angle), mag, out=angle, where=mag != 0.0)
    ends = np.cumsum(sizes).tolist()
    for a, b in zip([0, *ends], ends):
        i, j = pairs[a:b].T
        a_i, a_j = amps[i], amps[j]
        amps[i] = cos[a:b] * a_i + off[a:b] * a_j
        amps[j] = cos[a:b] * a_j - off[a:b].conj() * a_i


def propagate(ham: HamiltonianMatrix, state: JointState, duration: float) -> JointState:
    """exp(-i H t) |state>, block by block in closed form; norm preserved to 1e-11."""
    if ham.fock_dim != state.dim:
        raise ValueError(f"Hamiltonian fock_dim {ham.fock_dim} does not match state dim {state.dim}")
    if duration < 0.0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    amps = state.amplitudes.copy()
    _evolve(amps, ham.pairs, ham.couplings, [duration], [ham.couplings.size])
    return JointState(amps)


def _oracle_final(initial: JointState, schedule: PulseSchedule) -> JointState:
    """The schedule's final state by Hamiltonian exponentiation, in runs of
    pulses; every pulse is checked before the one series loop of all its orders."""
    params, pulses, dim = schedule.params, schedule.pulses, schedule.params.fock_dim
    for pulse in pulses:
        _check_pulse(pulse.kind, pulse.k, dim)
    ks = sorted({pulse.k for pulse in pulses})
    table = _series(params.eta * params.eta, dim, ks)
    amps = initial.amplitudes.copy()
    step = (len(ks) + 1) // 2 or 1  # pulses a run: see the module docstring
    for run in (pulses[i : i + step] for i in range(0, len(pulses), step)):
        pairs, couplings, sizes = _pairs(params, [(p.kind, p.k, p.phase) for p in run], ks, table)
        _check_pairs(pairs, couplings, dim, sizes)
        _evolve(amps, pairs, couplings, [p.duration for p in run], sizes)
    return JointState(amps)


def verify_schedule(initial: JointState, schedule: PulseSchedule) -> float:
    """Fidelity (global phase discarded) of closed-form vs oracle evolution.

    The closed-form path runs the 2x2-block pulse operators; the oracle
    path rebuilds each pulse's Hamiltonian and exponentiates it.
    """
    return fidelity(run_schedule(initial, schedule), _oracle_final(initial, schedule))


def verify_report(report: SynthesisReport, initial: JointState | None = None) -> SynthesisReport:
    """Return a copy of the report with oracle_fidelity filled in."""
    if initial is None:
        initial = JointState.ground(report.schedule.params.fock_dim)
    return replace(report, oracle_fidelity=verify_schedule(initial, report.schedule))
