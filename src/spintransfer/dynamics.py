"""Time evolution of a single excitation over the spectral decomposition.

Amplitudes follow f_{k0 m}(tau) = sum_j u_{k0 j} u_{m j} exp(-i lambda_j
tau / 2); the identity shift of the single-excitation block is dropped as
a global phase, so reported phases (and the fidelity built from them)
are relative to that convention.  Node indices are 1-based throughout
the public surface.

evolve (one state) and amplitude_grid / probability_grid (a grid) take
any Spectrum: System.spectrum(), the sign basis with eigenvalues from
the closed-form coupling row, or the numeric eigh of a layout's coupling
matrix (hamiltonian.diagonalize), which serves as the reference.

sign_probability_grid is the real-valued route for the pair, the
rectangle and the box, whose eigenvectors are the sign basis whatever
the couplings: there the probabilities depend only on the first
coupling row.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import xor

import numpy as np

from .hamiltonian import Spectrum, sign_basis

__all__ = [
    "TransferState",
    "evolve",
    "amplitude_grid",
    "probability_grid",
    "sign_probability_grid",
    "tau_grid",
    "density_element",
    "fidelity",
]


@dataclass(frozen=True)
class TransferState:
    """Snapshot at time tau of an excitation launched from node k0.

    amplitudes[m-1] is f_{k0 m}; probabilities[m-1] = |f_{k0 m}|**2.
    """

    tau: float
    k0: int
    amplitudes: np.ndarray
    probabilities: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.amplitudes.shape[0]


# Cap on the steps of any one grid, and on the points of a sweep2d grid.
_MAX_GRID_POINTS = 1_000_000


def _check_node(k, n) -> None:
    """Require a 1-based node index: an integer, not a bool, in 1..n."""
    # type(k) is int excludes bool and skips the slower abstract-class check.
    integral = type(k) is int or (isinstance(k, numbers.Integral) and not isinstance(k, bool))
    if not (integral and 1 <= k <= n):
        raise ValueError(f"node index {k!r} must be an integer in 1..{n}")


def _uniform(lo: float, hi: float, step: float) -> np.ndarray:
    """lo + i * step for i = 0..floor((hi - lo) / step), each point the
    direct product, not an accumulated sum, and clipped to hi."""
    span = hi - lo
    # a ratio within a relative 1e-9 below an integer counts as that
    # integer: (26.4 - 26) / 0.1 = 3.999999999999986 gives 4.
    ratio = span / step * (1.0 + 1e-9)
    if not ratio <= _MAX_GRID_POINTS:
        raise ValueError(
            f"a span of {span!r} in steps of {step!r} makes {ratio:.3g} grid steps, "
            f"cap is {_MAX_GRID_POINTS}"
        )
    return np.minimum(lo + np.arange(int(ratio) + 1) * step, hi)


def tau_grid(T: float, dtau: float) -> np.ndarray:
    """Uniform times tau_i = i * dtau for i = 0..K, K = floor(T / dtau).

    Each point is the direct product i * dtau, not an accumulated sum, so
    halving dtau yields a grid containing the coarse one exactly; a last
    point that roundoff puts past T is clipped to T.
    """
    if not 0 < dtau <= T < np.inf:
        raise ValueError(f"need 0 < dtau <= T < inf, got T={T!r}, dtau={dtau!r}")
    return _uniform(0.0, T, dtau)


def amplitude_grid(spectrum: Spectrum, k0: int, taus: np.ndarray) -> np.ndarray:
    """Amplitudes f_{k0 m}(tau_i) as an (N, len(taus)) array."""
    _check_node(k0, spectrum.n_nodes)
    u = spectrum.eigenvectors
    w = u * u[k0 - 1]  # w[m, j] = u_{k0 j} u_{m j}
    phases = np.exp(-0.5j * np.outer(spectrum.eigenvalues, np.asarray(taus)))
    return w @ phases


def probability_grid(spectrum: Spectrum, k0: int, taus: np.ndarray) -> np.ndarray:
    """Transfer probabilities P_{k0 m}(tau_i) as an (N, len(taus)) array."""
    return np.abs(amplitude_grid(spectrum, k0, taus)) ** 2


def _sign_terms(s: int) -> tuple:
    """Per p = 1..N-1 (N = 2**s), the sign psi_p(x) of every node x and the
    terms of E_p as (sign, sine nodes, cosine nodes), nodes 0-based.

    The terms run over the subsets A of K_p = {g : psi_p(g) = -1} whose XOR
    is 0; such an A has even size and the sign (-1)**(|A| / 2).
    """
    psi = np.rint(sign_basis(s) * np.sqrt(2.0**s)).astype(int)
    table = []
    for p in range(1, 2**s):
        flipped = [g for g in range(2**s) if psi[p, g] < 0]
        terms = [
            ((-1) ** (size // 2), a, tuple(g for g in flipped if g not in a))
            for size in range(0, len(flipped) + 1, 2)
            for a in combinations(flipped, size)
            if reduce(xor, a, 0) == 0
        ]
        table.append((psi[p], terms))
    return tuple(table)


# sign_probability_grid's term tables by node count.
_SIGN_TERMS = {2**s: _sign_terms(s) for s in (1, 2, 3)}

# Absolute error of numpy's float64 sin and cos, in units of eps: below
# 0.26 eps for arguments up to 1e8 against long-double references
# (numpy 2.4), so this leaves a wide margin.
_TRIG_EPS = 4.0


def _sign_curvature(rows: np.ndarray) -> np.ndarray:
    """M = (1/2) sum_g d_1g**2 per row: |P_{k0 m}''(tau)| <= M for every m, k0, tau.

    P_m(tau) = sum_jk w_mj w_mk cos((lambda_j - lambda_k) tau / 2), and in
    the sign basis |w_mj w_mk| = 1/N**2 while
    sum_jk (lambda_j - lambda_k)**2 = 2 N**2 sum_g d_1g**2.
    """
    return 0.5 * (np.asarray(rows, dtype=float)[:, 1:] ** 2).sum(axis=1)


def _sign_rounding(rows: np.ndarray, tau_max: float) -> np.ndarray:
    """Bound per row on |computed - exact| of any sign_probability_grid
    sample at 0 <= tau <= tau_max, exact meaning P at the same float row
    and tau.

    Each factor cos(d_1g tau) or sin(d_1g tau) is off by at most
    eps (|d_1g| tau + _TRIG_EPS) (the rounded angle, then the function);
    a product of at most N such factors adds N eps, E_p's t terms add
    t eps each, and the log2(N) butterflies of sums at most t in size add
    log2(N) t eps.  So one sample is within
    eps t (sum_g |d_1g| tau_max + N (_TRIG_EPS + 1) + t + log2 N).
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[1]
    t = max(len(terms) for _, terms in _SIGN_TERMS[n])
    spread = np.abs(rows[:, 1:]).sum(axis=1) * tau_max
    return np.finfo(float).eps * t * (spread + n * (_TRIG_EPS + 1) + t + n.bit_length() - 1)


def sign_probability_grid(rows: np.ndarray, k0: int, taus: np.ndarray) -> np.ndarray:
    """P_{k0 m}(tau_i) of G sign-basis clusters as a (G, N, K) array.

    rows[c] is the first coupling row (d_11 = 0, d_12, ..., d_1N) of
    cluster c, for N = 2, 4 or 8 nodes numbered as in layout_chain2,
    layout_rectangle or layout_parallelepiped.  On 0-based nodes, with
    psi_p(x) = (-1)**popcount(p & x),

        P_{k0 m}(tau) = (1/N) sum_p psi_p(m XOR k0) E_p(tau),

    E_0 = 1 and E_p the sum over the subsets A of K_p = {g : psi_p(g) = -1}
    with XOR 0 of (-1)**(|A|/2) prod_{g in A} sin(d_1g tau)
    prod_{g in K_p - A} cos(d_1g tau).  Only real cos and sin are taken,
    and every sample is computed from its row and its tau alone, in the
    same order of operations, so it comes out bit for bit the same
    whichever other rows and times share the call.

    taus is one grid of K times shared by all rows, or a (G, K) array
    holding row c's own times in taus[c].
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] not in _SIGN_TERMS:
        raise ValueError(f"rows must have shape (G, N), G >= 1, N = 2, 4 or 8, got {rows.shape}")
    n_points, n = rows.shape
    _check_node(k0, n)
    taus = np.asarray(taus, dtype=float)
    if not (taus.ndim == 1 or taus.ndim == 2 and taus.shape[0] == n_points):
        raise ValueError(f"taus must have shape (K,) or ({n_points}, K), got {taus.shape}")
    table = _SIGN_TERMS[n]
    # d_1g tau for the nodes g >= 1, as (G, K) arrays; on a shared grid a
    # coupling that every row shares (d_12 = 1 along a sweep) is
    # evaluated once, as (1, K).
    angles = [
        rows[:1, g, None] * taus if np.all(rows[:, g] == rows[0, g]) else rows[:, g, None] * taus
        for g in range(1, n)
    ]
    sin = [np.sin(a) for a in angles] if n == 8 else None  # only the box's terms hold sines
    cos = [np.cos(a, out=a) for a in angles]
    # e[p] = psi_p(k0) E_p / N, so the Walsh-Hadamard transform over p
    # gives P_{k0 m} at e[m] directly; scaling by +-1/N is exact.
    e = np.empty((n, n_points, taus.shape[-1]))
    e[0] = 1.0 / n
    for p, (psi, terms) in enumerate(table, start=1):
        total = None
        for sign, sines, cosines in terms:
            term = reduce(np.multiply, [sin[g - 1] for g in sines] + [cos[g - 1] for g in cosines])
            total = term if total is None else total + sign * term
        np.multiply(total, psi[k0 - 1] / n, out=e[p])
    # Walsh-Hadamard transform, one butterfly at a time on whole (G, K)
    # slabs: they never overlap, so numpy takes no defensive copies.
    for bit in range(n.bit_length() - 1):
        for low in range(n):
            if not low >> bit & 1:
                high = low | 1 << bit
                plus = e[low] + e[high]
                np.subtract(e[low], e[high], out=e[high])
                e[low] = plus
    return e.transpose(1, 0, 2)


def evolve(spectrum: Spectrum, k0: int, tau: float) -> TransferState:
    """State of the excitation at a single time tau, which must be finite."""
    tau = float(tau)
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau!r}")
    amp = amplitude_grid(spectrum, k0, np.array([tau]))[:, 0]
    return TransferState(tau=tau, k0=k0, amplitudes=amp, probabilities=np.abs(amp) ** 2)


def density_element(state: TransferState, i: int, j: int) -> complex:
    """Density-matrix element a_ij = f_{k0 i} conj(f_{k0 j})."""
    n = state.n_nodes
    _check_node(i, n)
    _check_node(j, n)
    return complex(state.amplitudes[i - 1] * np.conj(state.amplitudes[j - 1]))


def fidelity(state: TransferState, m: int) -> float:
    """Transfer fidelity to node m for an arbitrary source qubit state.

    F = |f| cos(arg f) / 3 + |f|**2 / 6 + 1/2, which is 1 exactly for a
    perfect transfer (|f| = 1 with zero phase) and 1/2 for f = 0.
    """
    _check_node(m, state.n_nodes)
    f = state.amplitudes[m - 1]
    mod = abs(f)
    return float(mod * np.cos(np.angle(f)) / 3.0 + mod**2 / 6.0 + 0.5)
