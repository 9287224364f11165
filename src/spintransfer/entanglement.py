"""Entanglement measures for the single-excitation state.

Closed forms: pairwise concurrence C_ij = 2 |a_ij| and the PPT double
negativity N_{A,B} = sqrt(sigma^2 + 4 S_A S_B) - sigma, where a_ij are
the single-excitation density-matrix elements, S_X the total transfer
probability carried by part X and sigma the probability left outside
A u B.  Both come with brute-force oracles: the concurrence via the
spin-flipped two-qubit reduced density matrix, the negativity via an
explicit partial transpose of the reduced density matrix on A u B, built
entry by entry from the (m + 1)^2 entries between the empty state and
the m single excitations (no 2^m x 2^m array), whose whole block of
1 + m + m1 m2 of the 2^m states is diagonalized, m1 = |A|, m2 = |B|,
m = m1 + m2.

Each oracle recipe is written once, over many states:
_concurrence_oracles takes one (a_ij, P_i, P_j) per state and runs one
eigvals over the stack of spin-flip products, and _negativity_oracles
takes a list of (v, outside, m1) cases, groups them by split (m, m1)
and runs one eigvalsh per split over the blocks _partial_transposes
builds.  The per-state oracles are those recipes on one state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TransferState, _check_node, density_element

__all__ = [
    "Bipartition",
    "sigma",
    "concurrence",
    "concurrence_oracle",
    "negativity",
    "negativity_grid",
    "negativity_oracle",
]

# Eigenvalues of the partial transpose below this are counted as negative;
# values in [-1e-12, 0] are numerical zeros.
_NEGATIVE_FLOOR = -1e-12

# Cap on the nodes m one bipartition of the brute-force negativity spans.
# _transposed_positions writes every state as an int64 bit mask, which
# holds at most 63 spins; 12 keeps well inside that and covers every kind
# (at most 8 nodes).  The block diagonalized is small either way:
# 1 + m + m1 m2 states, at most 49 at m = 12.
_MAX_ORACLE_NODES = 12


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint, nonempty groups of 1-based node indices."""

    a: tuple
    b: tuple

    def __post_init__(self):
        a, b = tuple(self.a), tuple(self.b)
        for k in a + b:
            _check_node(k, math.inf)
        a, b = tuple(map(int, a)), tuple(map(int, b))
        if not a or not b:
            raise ValueError("both parts must be nonempty")
        if len(set(a)) != len(a) or len(set(b)) != len(b):
            raise ValueError("parts must hold distinct indices")
        if set(a) & set(b):
            raise ValueError("parts must be disjoint")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        # the 0-based rows of A then B, built once
        object.__setattr__(self, "_rows", np.array(a + b) - 1)
        self._rows.flags.writeable = False

    def __reduce__(self):
        return type(self), (self.a, self.b)

    def _check_nodes(self, n_nodes: int) -> None:
        """Require every node of both parts to lie in 1..n_nodes."""
        if max(self.a + self.b) > n_nodes:
            raise ValueError(f"partition {self.label()!r} names a node beyond {n_nodes}")

    def weights(self, probs: np.ndarray):
        """(S_A, S_B): probs summed over the nodes of each part, along axis 0."""
        self._check_nodes(len(probs))
        m1 = len(self.a)
        return probs[self._rows[:m1]].sum(axis=0), probs[self._rows[m1:]].sum(axis=0)

    def label(self) -> str:
        """Compact rendering like '15_48' for a=(1,5), b=(4,8).

        When some node is 10 or more, nodes are joined by '-' and the parts
        by '__', as in '1-12__3', so that no two partitions share a label.
        """
        if max(self.a + self.b) < 10:
            return "".join(map(str, self.a)) + "_" + "".join(map(str, self.b))
        return "-".join(map(str, self.a)) + "__" + "-".join(map(str, self.b))


def sigma(state: TransferState, nodes) -> float:
    """Probability not carried by the given nodes, 1 - sum_n P_{k0 n}."""
    nodes = tuple(nodes)
    for k in nodes:
        _check_node(k, state.n_nodes)
    idx = [k - 1 for k in set(nodes)]
    return float(1.0 - state.probabilities[idx].sum())


def _pair_element(state: TransferState, i, j) -> complex:
    """a_ij of two distinct nodes: density_element checks both node indices
    before the pair is asked to be distinct."""
    a_ij = density_element(state, i, j)
    if i == j:
        raise ValueError("concurrence needs two distinct nodes")
    return a_ij


def concurrence(state: TransferState, i: int, j: int) -> float:
    """Concurrence between nodes i and j, C_ij = 2 sqrt(P_i P_j)."""
    return 2.0 * abs(_pair_element(state, i, j))


# sigma_y x sigma_y written in the (|10>, |01>, |00>, |11>) basis used
# for the pair reduced density matrix below.
_FLIP = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


def _concurrence_oracles(a_ij, p_i, p_j) -> np.ndarray:
    """The spin-flip concurrence of a stack of pairs, from the (S,) arrays
    of their density-matrix elements a_ij and probabilities P_i, P_j.

    Builds each pair's two-qubit reduced density matrix in the
    (|10>, |01>, |00>, |11>) basis, forms the double spin flip
    rho_tilde = Y rho Y with Y = sigma_y x sigma_y, and evaluates the
    usual combination of the square-rooted eigenvalues of
    conj(rho_tilde) @ rho, with one eigvals over the (S, 4, 4) stack.
    """
    rho = np.zeros((len(a_ij), 4, 4), dtype=complex)
    rho[:, 0, 0] = p_i
    rho[:, 1, 1] = p_j
    rho[:, 0, 1] = a_ij
    rho[:, 1, 0] = np.conj(a_ij)
    rho[:, 2, 2] = 1.0 - p_i - p_j
    rho_tilde = _FLIP @ rho @ _FLIP
    ev = np.linalg.eigvals(np.conj(rho_tilde) @ rho).real
    # The product has a single nonzero eigenvalue for this state family;
    # anything far below the leading one is a numerical zero.  Flooring
    # those before the square root keeps eigensolver noise of order eps
    # from being amplified to sqrt(eps).  The cut is relative, so tiny
    # concurrences are resolved, not truncated.
    ev[ev < 1e-12 * np.maximum(ev.max(axis=-1, keepdims=True), 0.0)] = 0.0
    lam = np.sqrt(ev)
    return np.maximum(0.0, 2.0 * lam.max(axis=-1) - lam.sum(axis=-1))


def concurrence_oracle(state: TransferState, i: int, j: int) -> float:
    """Concurrence via the full spin-flip recipe, no closed form: the
    stacked recipe of _concurrence_oracles on the one pair (i, j)."""
    p = state.probabilities
    return float(_concurrence_oracles([_pair_element(state, i, j)], p[i - 1 : i], p[j - 1 : j])[0])


def negativity_grid(s_a, s_b):
    """Closed-form double negativity from the part weights S_A, S_B (scalars or arrays)."""
    sig = 1.0 - s_a - s_b
    return np.sqrt(sig * sig + 4.0 * s_a * s_b) - sig


def negativity(state: TransferState, p: Bipartition) -> float:
    """Double negativity between the parts of p, from the closed form."""
    return float(negativity_grid(*p.weights(state.probabilities)))


def _transposed_positions(m: int, m1: int):
    """Where transposing the first m1 of m spins moves the reduced density
    matrix's (m + 1)^2 entries between the empty state and the m single
    excitations, in that order, state t + 1 having factor t excited.

    Entry (i, j) moves to ((i & ~A) | (j & A), (j & ~A) | (i & A)), A the
    bit mask of the first m1 factors.  Returns (size, row_at, col_at):
    the number of states the moved entries reach, 1 + m + m1 (m - m1),
    and the (m + 1, m + 1) arrays of each entry's row and column in the
    size x size block over those states in ascending state order.
    """
    states = np.zeros(m + 1, dtype=np.int64)
    states[1:] = 1 << np.arange(m - 1, -1, -1)
    a_mask = ((1 << m1) - 1) << (m - m1)
    i, j = states[:, None], states[None, :]
    moved = np.stack([(i & ~a_mask) | (j & a_mask), (j & ~a_mask) | (i & a_mask)])
    targets, where = np.unique(moved, return_inverse=True)
    return targets.size, *where.reshape(moved.shape)


def _restriction(state: TransferState, p: Bipartition):
    """(v, sigma): the state's amplitudes on the nodes of A then B, and the
    probability outside A u B."""
    p._check_nodes(state.n_nodes)
    if p._rows.size > _MAX_ORACLE_NODES:
        raise ValueError(f"bipartition spans {p._rows.size} nodes, oracle cap is {_MAX_ORACLE_NODES}")
    return state.amplitudes[p._rows], 1.0 - state.probabilities[p._rows].sum()


def _partial_transposes(v, outside, m1: int) -> np.ndarray:
    """The partial transposes over the first m1 of m spins of a stack of
    reduced density matrices, from their (S, m) amplitudes v and the
    weights outside (S,) or scalar: an (S, size, size) complex array over
    the 1 + m + m1 (m - m1) states of _transposed_positions.

    Each reduced matrix is the outer product of (0, v) with its
    conjugate, with the outside weight added at <0|0>.
    """
    s, m = v.shape
    w = np.zeros((s, m + 1), dtype=complex)
    w[:, 1:] = v
    rho = w[:, :, None] * np.conj(w[:, None, :])
    rho[:, 0, 0] += outside
    size, row_at, col_at = _transposed_positions(m, m1)
    t_rho = np.zeros((s, size, size), dtype=complex)
    t_rho[:, row_at, col_at] = rho
    return t_rho


def _negativity_oracles(cases) -> np.ndarray:
    """The partial-transpose negativities of a sequence of (v, outside, m1)
    cases, one value per case in case order: v the amplitudes on the m
    nodes of A then B, outside the weight outside A u B, m1 = |A|.

    The cases are grouped by split (m, m1); each group's whole blocks from
    _partial_transposes go through one eigvalsh, whose zero rows add only
    exact zero eigenvalues.  Returns twice the absolute sum of each
    block's eigenvalues below _NEGATIVE_FLOOR.
    """
    splits = {}
    for index, (v, _, m1) in enumerate(cases):
        splits.setdefault((len(v), m1), []).append(index)
    oracle = np.empty(len(cases))
    for (_, m1), index in splits.items():
        v, outside, _ = zip(*(cases[k] for k in index))
        ev = np.linalg.eigvalsh(_partial_transposes(np.array(v), np.array(outside), m1))
        oracle[index] = 2.0 * np.abs(np.where(ev < _NEGATIVE_FLOOR, ev, 0.0).sum(axis=-1))
    return oracle


def negativity_oracle(state: TransferState, p: Bipartition) -> float:
    """Double negativity by explicit partial transposition.

    The reduced density matrix on A u B (m nodes, 2^m states) is a pure
    part from the amplitudes on those nodes plus the traced-out weight
    sigma on the no-excitation state, so only its (m + 1)^2 entries
    between the empty state and the m single excitations can be non-zero:
    the outer product of their amplitudes, with sigma added at <0|0>.
    Transposing the A spins moves each entry (i, j) to
    ((i & ~A) | (j & A), (j & ~A) | (i & A)), A the bit mask of the A
    spins, onto 1 + m + m1 m2 states: the empty state, the m single
    excitations and one A-B pair per m1 x m2 (25 of 256 for a box).  That
    block is diagonalized whole; the rest of the partial transpose
    carries exact zero eigenvalues, so no 2^m x 2^m array is built.
    Returns twice the absolute sum of the negative eigenvalues: the
    grouped recipe of _negativity_oracles on a list of one case.
    """
    return float(_negativity_oracles([(*_restriction(state, p), len(p.a))])[0])
