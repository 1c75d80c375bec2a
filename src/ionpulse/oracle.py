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

Only the pairs that can hold amplitude are built: pulse p's pairs m < n_p,
n_p from the top levels of |g> and |e> that the initial state and earlier
pulses reach.  One running product and one loop of max n_p - 1 steps sum
the series of all K orders in O(K max n_p), each element as in a loop of its own.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .core import PhysicalParams, _check_kind, ipow
from .states import RUN_PAIRS, JointState, PulseSchedule, fidelity, run_schedule

__all__ = [
    "HamiltonianMatrix",
    "build_hamiltonian",
    "propagate",
    "verify_schedule",
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
    if (pairs[:, 0] == pairs[:, 1]).any():
        raise ValueError("a pair couples a basis state to itself")
    # pulse p's keys from 2 dim p, as intp (uint64 + int is float); stable sort: two ascending runs
    offsets = np.repeat(2 * dim * np.arange(len(sizes)), sizes)
    keys = np.sort(pairs.T.astype(np.intp, copy=False) + offsets, axis=None, kind="stable")
    if (keys[1:] == keys[:-1]).any():
        raise ValueError("Hamiltonian couples a basis state to more than one other")


def _series(x: float, dim: int, ks: list[int], width: int) -> np.ndarray:
    """Coupled-diagonal series of each order in ks, one row per order.

    Row r holds elements m < min(width, dim - ks[r]), each summed to its
    last term j = m in one loop for all orders (see the module docstring),
    and zeros past them up to width.  Each k must be below dim.
    """
    m, orders, lo = np.arange(width, dtype=float), np.array(ks, dtype=int), 1
    # j = 0 term: [a^k]_{m,m+k} / k! = sqrt((m+k)!/m!) / k!: one running product over i of
    # sqrt(m + i) / i, in blocks of at most max(K, 64) width entries on the m orders hold
    term, block, cap = np.ones((len(ks), width)), np.ones((1, width)), max(len(ks), 64) * width
    while lo <= max(ks, default=0) and width:
        first = np.searchsorted(orders, lo)  # orders from first on need the columns from lo on
        rows = min(width, dim - ks[first])
        i = np.arange(lo, min(lo + cap // rows, ks[-1] + 1), dtype=float)[:, None]
        block = np.cumprod(np.vstack((block[-1:, :rows], np.sqrt(m[:rows] + i) / i)), axis=0)
        held = slice(first, np.searchsorted(orders, lo + i.size))
        term[held, :rows] = block[orders[held] - lo + 1]
        lo += i.size
    term[m >= dim - orders[:, None]] = 0.0
    diagonal = term.copy()
    # (j + 1)(j + k + 1) for every step and order, exact in floats below 2^53
    steps = np.arange(width - 1.0)[:, None, None]
    denominators = (steps + 1) * (steps + np.array(ks, dtype=float)[:, None] + 1)
    for j, denominator in enumerate(denominators):
        # the (m - j) factor zeroes every term of element m past j = m
        term *= -x * (m - j) / denominator
        diagonal += term
    return diagonal


def _pairs(params: PhysicalParams, pulses: list[tuple[str, int, float]], sizes, ks, table):
    """The pairs m < n of (kind, k, phase) pulses, n from sizes, pulse after
    pulse, and their couplings from table (the _series rows of orders ks)."""
    dim, eta, w = params.fock_dim, params.eta, params.omega_carrier / 2.0
    m = np.arange(sum(sizes)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    pref = [w * ipow(k) * eta**k * cmath.exp(-eta * eta / 2.0 - 1j * phi) for _, k, phi in pulses]
    rows = np.searchsorted(ks, [k for _, k, _ in pulses])
    couplings = np.repeat(pref, sizes) * table[np.repeat(rows, sizes), m]
    # element m couples |g, m + k_g> to |e, m + k_e>; sigma+ = |e><g| in (g, e) order
    k_e = np.repeat([k * (kind == "blue") for kind, k, _ in pulses], sizes)
    k_g = np.repeat([k * (kind == "red") for kind, k, _ in pulses], sizes)
    return np.stack((2 * (m + k_e) + 1, 2 * (m + k_g)), axis=1), couplings


def build_hamiltonian(params: PhysicalParams, kind: str, k: int, phase: float) -> HamiltonianMatrix:
    """Assemble the coupled pairs for one laser tuning, as a run of one pulse
    on all its pairs: each element is summed to its last term j = m."""
    dim = params.fock_dim
    _check_kind(kind, k)
    if not k < dim:
        raise ValueError(f"sideband order k={k} needs k < fock_dim={dim}")
    table = _series(params.eta * params.eta, dim, [k], dim - k)
    return HamiltonianMatrix(*_pairs(params, [(kind, k, phase)], [dim - k], [k], table), dim)


def _evolve(amps: np.ndarray, pairs: np.ndarray, couplings: np.ndarray, durations, sizes):
    """exp(-i H t) amps in place, pulse after pulse of a run (sizes: each one's
    pair count): pair (i, j) takes (a_i, a_j) to (cos a_i + off a_j,
    cos a_j - conj(off) a_i), with cos = cos(|c| t) and off = -i sin(|c| t) c / |c|
    (zero where c is).  A pulse takes its pairs' four terms in one product."""
    mag = np.abs(couplings)
    angle = mag * np.repeat(durations, sizes)
    cos = np.cos(angle)
    off = -1j * couplings
    off *= np.divide(np.sin(angle, out=angle), mag, out=angle, where=mag != 0.0)
    coeffs = np.empty((off.size, 4), dtype=complex)  # times (a_i, a_j, a_i, a_j)
    coeffs[:, 0], coeffs[:, 1], coeffs[:, 2], coeffs[:, 3] = cos, off, off.conj(), cos
    coeffs, scatter = coeffs.ravel(), pairs.ravel()
    gather = np.concatenate((pairs, pairs), axis=1).ravel()
    ends = np.cumsum(sizes).tolist()
    for a, b in zip([0, *ends], ends):
        terms = coeffs[4 * a : 4 * b] * amps[gather[4 * a : 4 * b]]
        # a_j's sum is redone as a difference: a negated coefficient could sign a zero
        new = terms[0::2] + terms[1::2]
        np.subtract(terms[3::4], terms[2::4], new[1::2])
        amps[scatter[2 * a : 2 * b]] = new


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
    pulses, each on its pairs that can hold amplitude; the schedule holds
    only orders below fock_dim, so the one series loop sums every order."""
    params, pulses, dim = schedule.params, schedule.pulses, schedule.params.fock_dim
    # the top levels that can hold amplitude; pair m joins |g, m + k_g> and |e, m + k_e>
    top_g, top_e = (int(np.flatnonzero(initial.amplitudes[s::2]).max(initial=-1)) for s in (0, 1))
    sizes = []
    for p in pulses:
        k_g, k_e = p.k * (p.kind == "red"), p.k * (p.kind == "blue")
        sizes.append(n := max(min(max(top_g - k_g, top_e - k_e) + 1, dim - p.k), 0))
        top_g, top_e = (max(top_g, n - 1 + k_g), max(top_e, n - 1 + k_e)) if n else (top_g, top_e)
    ks, width = sorted({pulse.k for pulse in pulses}), max(sizes, default=0)
    table = _series(params.eta * params.eta, dim, ks, width)
    amps = initial.amplitudes.copy()
    step = max(RUN_PAIRS // max(width, 1), 1)
    for i in range(0, len(pulses), step):
        run, counts = pulses[i : i + step], sizes[i : i + step]
        pairs, couplings = _pairs(params, [(p.kind, p.k, p.phase) for p in run], counts, ks, table)
        _check_pairs(pairs, couplings, dim, counts)
        _evolve(amps, pairs, couplings, [p.duration for p in run], counts)
    return JointState(amps)


def verify_schedule(initial: JointState, schedule: PulseSchedule) -> float:
    """Fidelity (global phase discarded) of the closed-form pulse operators'
    final state against the oracle's, each pulse's Hamiltonian exponentiated."""
    return fidelity(run_schedule(initial, schedule), _oracle_final(initial, schedule))
