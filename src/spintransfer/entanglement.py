"""Entanglement measures for the single-excitation state.

Closed forms: pairwise concurrence C_ij = 2 |a_ij| and the PPT double
negativity N_{A,B} = sqrt(sigma^2 + 4 S_A S_B) - sigma, where a_ij are
the single-excitation density-matrix elements, S_X the total transfer
probability carried by part X and sigma the probability left outside
A u B.  Both come with brute-force oracles: the concurrence via the
spin-flipped two-qubit reduced density matrix, the negativity via an
explicit partial transpose of the reduced density matrix on A u B.
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

# Cap on the reduced space of the brute-force negativity (2**12 states).
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

    def _check_nodes(self, n_nodes: int) -> None:
        """Require every node of both parts to lie in 1..n_nodes."""
        if max(self.a + self.b) > n_nodes:
            raise ValueError(f"partition {self.label()!r} names a node beyond {n_nodes}")

    def weights(self, probs: np.ndarray):
        """(S_A, S_B): probs summed over the nodes of each part, along axis 0."""
        return tuple(probs[[k - 1 for k in part]].sum(axis=0) for part in (self.a, self.b))

    def label(self) -> str:
        """Compact rendering like '15_48' for a=(1,5), b=(4,8)."""
        return "".join(map(str, self.a)) + "_" + "".join(map(str, self.b))


def sigma(state: TransferState, nodes) -> float:
    """Probability not carried by the given nodes, 1 - sum_n P_{k0 n}."""
    nodes = tuple(nodes)
    for k in nodes:
        _check_node(k, state.n_nodes)
    idx = [k - 1 for k in set(nodes)]
    return float(1.0 - state.probabilities[idx].sum())


def concurrence(state: TransferState, i: int, j: int) -> float:
    """Concurrence between nodes i and j, C_ij = 2 sqrt(P_i P_j)."""
    if i == j:
        raise ValueError("concurrence needs two distinct nodes")
    return 2.0 * abs(density_element(state, i, j))


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


def concurrence_oracle(state: TransferState, i: int, j: int) -> float:
    """Concurrence via the full spin-flip recipe, no closed form.

    Builds the two-qubit reduced density matrix of the pair (i, j) in the
    (|10>, |01>, |00>, |11>) basis, forms the double spin flip
    rho_tilde = Y rho Y with Y = sigma_y x sigma_y, and evaluates the
    usual combination of the square-rooted eigenvalues of
    conj(rho_tilde) @ rho.
    """
    if i == j:
        raise ValueError("concurrence needs two distinct nodes")
    a_ij = density_element(state, i, j)
    p_i = state.probabilities[i - 1]
    p_j = state.probabilities[j - 1]
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = p_i
    rho[1, 1] = p_j
    rho[0, 1] = a_ij
    rho[1, 0] = np.conj(a_ij)
    rho[2, 2] = 1.0 - p_i - p_j
    rho_tilde = _FLIP @ rho @ _FLIP
    ev = np.linalg.eigvals(np.conj(rho_tilde) @ rho).real
    # The product has a single nonzero eigenvalue for this state family;
    # anything far below the leading one is a numerical zero.  Flooring
    # those before the square root keeps eigensolver noise of order eps
    # from being amplified to sqrt(eps).  The cut is relative, so tiny
    # concurrences are resolved, not truncated.
    ev[ev < 1e-12 * max(float(ev.max()), 0.0)] = 0.0
    lam = np.sqrt(ev)
    return float(max(0.0, 2.0 * lam.max() - lam.sum()))


def negativity_grid(s_a, s_b):
    """Closed-form double negativity from the part weights S_A, S_B (scalars or arrays)."""
    sig = 1.0 - s_a - s_b
    return np.sqrt(sig * sig + 4.0 * s_a * s_b) - sig


def negativity(state: TransferState, p: Bipartition) -> float:
    """Double negativity between the parts of p, from the closed form."""
    p._check_nodes(state.n_nodes)
    return float(negativity_grid(*p.weights(state.probabilities)))


def negativity_oracle(state: TransferState, p: Bipartition) -> float:
    """Double negativity by explicit partial transposition.

    Constructs the reduced density matrix on A u B -- a pure part from
    the amplitudes on those nodes plus the traced-out weight sigma on
    the no-excitation state -- transposes the A spins, and returns twice
    the absolute sum of the negative eigenvalues.
    """
    p._check_nodes(state.n_nodes)
    nodes = p.a + p.b
    m = len(nodes)
    if m > _MAX_ORACLE_NODES:
        raise ValueError(f"bipartition spans {m} nodes, oracle cap is {_MAX_ORACLE_NODES}")
    m1 = len(p.a)
    dim = 2**m
    # Pure part: factor t excited iff the excitation sits on nodes[t].
    v = np.zeros(dim, dtype=complex)
    for t, node in enumerate(nodes):
        v[1 << (m - 1 - t)] = state.amplitudes[node - 1]
    rho = np.outer(v, np.conj(v))
    rho[0, 0] += 1.0 - state.probabilities[[k - 1 for k in nodes]].sum()
    # Transpose the first m1 tensor factors (the A spins).
    t_rho = rho.reshape((2,) * (2 * m))
    for t in range(m1):
        t_rho = np.swapaxes(t_rho, t, m + t)
    ev = np.linalg.eigvalsh(t_rho.reshape(dim, dim))
    return float(2.0 * abs(ev[ev < _NEGATIVE_FLOOR].sum()))
