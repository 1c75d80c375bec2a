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
(1.3e-4 relative at eta = 1.5, m = 111, k = 10).  No closed-form Rabi
frequency enters; tests assert that the coupling magnitudes equal core's
W_{m,k}, which is what makes this an independent check of the pulse operators.

H is held as disjoint two-level pairs |n_g, g> <-> |n_e, e> and one coupling
each: Hermitian by construction, in O(D) memory.  Each 2x2 block
B = [[0, c], [conj(c), 0]], its pair read from the pair list (not the pulse
kind), squares to |c|^2 I, so exp(-i t B) = cos(|c| t) I - i sin(|c| t) B / |c|
for a run's pairs at once: nothing is iterated or factored, so the error grows
with t only as the rounding of |c| t does (slow sidebands need t of seconds).
A pulse takes its pairs' four terms in one numpy product, whose rounding Python's
complex product does not share.  In a run of at most one pair a pulse, Python
takes the two sums: each is two IEEE additions, rounded as numpy's, zero signs too.

Only pulse p's pairs m < n_p are built, n_p from states._support's bound, which a
verify computes once for the kernel and the oracle: kinematics, not couplings,
as the oracle reads each pulse's kind, order and phase itself.  One loop of
max n_p - 1 steps sums the series of all K orders in O(K max n_p), each element
as in a loop of its own; a table one element wide (every ladder from |0>|g>) is
the j = 0 terms at m = 0, 1/sqrt(k!), one running product of sqrt(i) / i.
"""

from __future__ import annotations

import cmath
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import PhysicalParams, ipow
from .states import JointState, Pulse, PulseSchedule, _check_norm, _overlaps, _run, _support


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Interaction Hamiltonian H/hbar (rad/s) on the 2*D truncated space: H[i, j] = c
    and H[j, i] = conj(c) for each pair (i, j) and its coupling c, zero elsewhere.
    A basis state is in at most one pair."""

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
    if pairs.shape[1:] != (2,) or pairs.dtype.kind not in "iu" or couplings.shape != pairs.shape[:1]:
        raise ValueError(f"pairs need shape (P, 2) and an integer dtype, couplings shape (P,); got "
                         f"{pairs.shape} {pairs.dtype} and {couplings.shape}")
    if pairs.size and not (0 <= pairs.min() and pairs.max() < 2 * dim):
        raise ValueError(f"a pair index is outside [0, {2 * dim})")
    if (pairs[:, 0] == pairs[:, 1]).any():
        raise ValueError("a pair couples a basis state to itself")
    if sum(sizes) == len(sizes) == len(pairs) and max(sizes, default=0) == 1:
        return  # one pair a pulse: only a pair that joins a state to itself holds it twice
    # pulse p's keys from 2 dim p, as intp (uint64 + int is float); stable sort: two ascending runs
    offsets = (2 * dim * np.arange(len(sizes))).repeat(sizes)
    keys = np.sort(pairs.T.astype(np.intp, copy=False) + offsets, axis=None, kind="stable")
    if (keys[1:] == keys[:-1]).any():
        raise ValueError("Hamiltonian couples a basis state to more than one other")


def _series(x: float, dim: int, ks: list[int], width: int) -> np.ndarray:
    """Coupled-diagonal series of each order in ks, one row per order.

    Row r holds elements m < min(width, dim - ks[r]), each summed to its
    last term j = m in one loop for all orders (see the module docstring),
    and zeros past them up to width.  Each k must be below dim.
    """
    if width < 2:  # m = 0 alone, if any: its j = 0 term sqrt(k!) / k!, one running product
        i = np.arange(1.0, max(ks, default=0) + 1)
        return np.concatenate(([1.0], np.sqrt(i) / i)).cumprod()[ks, None][:, :width]
    m, orders, lo = np.arange(width, dtype=float), np.array(ks, dtype=int), 1
    # j = 0 term: [a^k]_{m,m+k} / k! = sqrt((m+k)!/m!) / k!: one running product over i of
    # sqrt(m + i) / i, in blocks of at most max(K, 64) width entries on the m orders hold
    term, block, cap = np.ones((len(ks), width)), np.ones((1, width)), max(len(ks), 64) * width
    while lo <= max(ks, default=0):
        first = bisect_left(ks, lo)  # orders from first on need the columns from lo on
        rows = min(width, dim - ks[first])
        i = np.arange(lo, min(lo + cap // rows, ks[-1] + 1), dtype=float)[:, None]
        block = np.concatenate((block[-1:, :rows], np.sqrt(m[:rows] + i) / i)).cumprod(axis=0)
        held = slice(first, bisect_left(ks, lo + i.size))
        term[held, :rows] = block[orders[held] - lo + 1]
        lo += i.size
    if ks and dim - ks[-1] < width:  # some order stops before the width: zero its rows past it
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


def _pairs(params: PhysicalParams, pulses, sizes, ks, table):
    """The pairs m < n of the pulses, n from the int list sizes, pulse after
    pulse, and their couplings from table (the _series rows of orders ks)."""
    eta, w, pref, bases, rows = params.eta, params.omega_carrier / 2.0, [], [], []
    damp, row = -eta * eta / 2.0, {k: r for r, k in enumerate(ks)}
    for p in pulses:  # each pulse's kind read here, never the kernel's plan shifts
        k = p.k
        pref.append(w * ipow(k) * eta**k * cmath.exp(damp - 1j * p.phase))
        # pair m is (|e, m + k_e>, |g, m + k_g>), as sigma+ = |e><g|: its indices at m = 0, + 2 m
        bases += (2 * k + 1 if p.kind == "blue" else 1, 2 * k if p.kind == "red" else 0)
        rows.append(row[k])
    bases, pref, rows = np.array(bases).reshape(-1, 2), np.array(pref), np.array(rows)
    if table.shape[1] == 1 and sum(sizes) == len(sizes):  # one pair a pulse, at m = 0
        return bases, pref * table[rows, 0]
    sizes = np.array(sizes)
    m = np.arange(sizes.sum()) - (sizes.cumsum() - sizes).repeat(sizes)
    pairs = np.empty((m.size, 2), dtype=m.dtype)
    pairs[:, 0], pairs[:, 1] = bases.T.repeat(sizes, axis=1) + 2 * m
    return pairs, pref.repeat(sizes) * table[rows.repeat(sizes), m]


def build_hamiltonian(params: PhysicalParams, kind: str, k: int, phase: float) -> HamiltonianMatrix:
    """Assemble the coupled pairs for one laser tuning, as a run of one pulse on
    all its pairs: each element is summed to its last term j = m.  kind, k and
    phase are refused as a one-pulse PulseSchedule's, the phase taken modulo 2 pi."""
    (pulse,), dim = PulseSchedule(params, (Pulse(kind, k, phase, 0.0),)).pulses, params.fock_dim
    table, size = _series(params.eta * params.eta, dim, [pulse.k], dim - pulse.k), [dim - pulse.k]
    return HamiltonianMatrix(*_pairs(params, [pulse], size, [pulse.k], table), dim)


def _evolve(amps: np.ndarray, pairs: np.ndarray, couplings: np.ndarray, durations, sizes):
    """exp(-i H t) amps in place, pulse after pulse of a run (array durations and
    list sizes, each one's pair count): pair (i, j) takes (a_i, a_j) to (cos a_i + off a_j,
    cos a_j - conj(off) a_i), with cos = cos(|c| t) and off = -i sin(|c| t) c / |c|
    (zero where c is).  Numpy takes the products; at most one pair a pulse, Python the sums."""
    mag = np.abs(couplings)
    angle = mag * durations.repeat(sizes)
    cos = np.cos(angle)
    off = -1j * couplings
    off *= np.divide(np.sin(angle, out=angle), mag, out=angle, where=mag != 0.0)
    coeffs = np.empty((off.size, 4), dtype=complex)  # times (a_i, a_j, a_i, a_j)
    coeffs[:, 0], coeffs[:, 1], coeffs[:, 2], coeffs[:, 3] = cos, off, off.conj(), cos
    gather = np.concatenate((pairs, pairs), axis=1)
    if max(sizes, default=0) < 2:  # a pulse without pairs has no row here
        for c, g, (i, j) in zip(coeffs, gather, pairs.tolist()):
            t0, t1, t2, t3 = (c * amps[g]).tolist()
            amps[i], amps[j] = t0 + t1, t3 - t2
        return
    coeffs, scatter, gather = coeffs.ravel(), pairs.ravel(), gather.ravel()
    ends = list(accumulate(sizes))
    for a, b in zip([0, *ends], ends):
        terms = coeffs[4 * a : 4 * b] * amps[gather[4 * a : 4 * b]]
        # a_j's sum is redone as a difference: a negated coefficient could sign a zero
        new = terms[0::2] + terms[1::2]
        np.subtract(terms[3::4], terms[2::4], new[1::2])
        amps[scatter[2 * a : 2 * b]] = new


def propagate(ham: HamiltonianMatrix, state: JointState, duration: float) -> JointState:
    """exp(-i H t) |state>, block by block in closed form; norm preserved to 1e-11.
    The duration is refused as a Pulse's is."""
    if ham.fock_dim != state.dim:
        raise ValueError(f"Hamiltonian fock_dim {ham.fock_dim} does not match state dim {state.dim}")
    duration, amps = Pulse("carrier", 0, 0.0, duration).duration, state.amplitudes.copy()
    _evolve(amps, ham.pairs, ham.couplings, np.array([duration]), [ham.couplings.size])
    return JointState(amps)


def _oracle_pass(amps: np.ndarray, schedule: PulseSchedule, support=None) -> np.ndarray:
    """The schedule's final amplitudes from amps by Hamiltonian exponentiation, in the runs
    and on the pairs of support (amps' states._support if None); one series loop, all orders."""
    params, pulses, dim = schedule.params, schedule.pulses, schedule.params.fock_dim
    sizes, _, width, step = support or _support(amps, dim, pulses)
    table = _series(params.eta * params.eta, dim, ks := sorted({p.k for p in pulses}), width)
    amps, durations = amps.copy(), np.array([p.duration for p in pulses])
    for i in range(0, len(pulses), step):
        run, counts = pulses[i : i + step], sizes[i : i + step]
        pairs, couplings = _pairs(params, run, counts, ks, table)
        _check_pairs(pairs, couplings, dim, counts)
        _evolve(amps, pairs, couplings, durations[i : i + step], counts)
    return amps


def _finals(initial: JointState, schedule: PulseSchedule) -> tuple[np.ndarray, float]:
    """The kernel's final amplitudes of schedule from initial and the oracle's fidelity to them
    (global phase discarded): both passes from one _support plan, both finals' norms checked."""
    support = _support(amps := initial.amplitudes, schedule.params.fock_dim, schedule.pulses)
    _check_norm(kernel := _run(amps, schedule.params, schedule.pulses, None, support))
    _check_norm(oracle := _oracle_pass(amps, schedule, support))
    return kernel, _overlaps(kernel, oracle)[0]


def verify_schedule(initial: JointState, schedule: PulseSchedule) -> float:
    """Fidelity (global phase discarded) of the closed-form pulse operators'
    final state against the oracle's, each pulse's Hamiltonian exponentiated."""
    return _finals(initial, schedule)[1]
