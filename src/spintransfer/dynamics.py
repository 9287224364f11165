"""Time evolution of a single excitation over the spectral decomposition.

Amplitudes follow f_{k0 m}(tau) = sum_j u_{k0 j} u_{m j} exp(-i lambda_j
tau / 2); the identity shift of the single-excitation block is dropped as
a global phase, so reported phases (and the fidelity built from them)
are relative to that convention.  Node indices are 1-based throughout
the public surface.

evolve (the point route: one state, one exponential per eigenvalue) and
amplitude_grid (the grid route: amplitudes on tau_grid(T, dtau) from
factored phase tables) take any Spectrum: System.spectrum(), the sign
basis with eigenvalues from the closed-form coupling row, or the
numeric eigh of a layout's coupling matrix (hamiltonian.diagonalize),
which serves as the reference.  amplitude_grid also takes a stack of
spectra, as diagonalize returns for a stack of matrices.

sign_probability_grid is the one probability kernel, for the pair, the
rectangle and the box, whose eigenvectors are the sign basis whatever
the couplings: there the probabilities depend only on the first
coupling row, through one product of cosines per Walsh term (plus one
of sines for the box).  System.probability_grid evaluates it for one
system.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .hamiltonian import _PSI, Spectrum

__all__ = [
    "TransferState",
    "evolve",
    "amplitude_grid",
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
    """Require a 1-based node index: an integer, not a bool, in 1..n (any
    positive integer for n = math.inf)."""
    # type(k) is int excludes bool and skips the slower abstract-class check.
    integral = type(k) is int or (isinstance(k, numbers.Integral) and not isinstance(k, bool))
    if not (integral and 1 <= k <= n):
        bound = "a positive integer" if n == math.inf else f"an integer in 1..{n}"
        raise ValueError(f"node index {k!r} must be {bound}")


def _check_finite(**values) -> None:
    """Require each named value to be a finite real number: not a bool, a
    string, a sequence or a complex number, and not NaN or infinite."""
    for name, value in values.items():
        # type(value) is float skips the slower abstract-class check.
        real = type(value) is float or (
            isinstance(value, numbers.Real) and not isinstance(value, bool)
        )
        if not real:
            raise ValueError(f"{name} must be a real number, got {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {name}={value!r}")


def _check_angles(rate: float, tau_max: float, name: str = "d_1g") -> None:
    """Require every angle x tau, |x| <= rate and |tau| <= tau_max, to be
    finite; name is x's symbol in the message."""
    rate, tau_max = float(rate), float(tau_max)
    if not math.isfinite(rate * tau_max):
        raise ValueError(f"angle {name} tau overflows: max|{name}| {rate!r} x tau {tau_max!r}")


def _finite_max(name: str, array: np.ndarray) -> float:
    """max |array| (0 if empty); ValueError names the first value that is not finite."""
    top = float(np.abs(array).max(initial=0.0))
    if not math.isfinite(top):
        raise ValueError(f"{name} must be finite, got {float(array[~np.isfinite(array)][0])!r}")
    return top


def _extreme_eigenvalue(spectrum: Spectrum) -> float:
    """max_j |lambda_j|, read off the ends of the ascending eigenvalues (of
    every spectrum of a stack)."""
    lam = spectrum.eigenvalues
    if lam.ndim == 1:
        return max(abs(lam[0]), abs(lam[-1]))
    return max(np.abs(lam[..., 0]).max(), np.abs(lam[..., -1]).max())


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
    point that roundoff puts past T is clipped to T.  T and dtau must be
    finite real numbers.
    """
    _check_finite(T=T, dtau=dtau)
    if not 0 < dtau <= T:
        raise ValueError(f"need 0 < dtau <= T, got T={T!r}, dtau={dtau!r}")
    return _uniform(0.0, T, dtau)


def amplitude_grid(spectrum: Spectrum, k0: int, T: float, dtau: float) -> np.ndarray:
    """Amplitudes f_{k0 m}(tau_i) on tau_grid(T, dtau) as an (..., N, K) array.

    spectrum may be a stack (eigenvalues (..., N), eigenvectors
    (..., N, N)); each of its spectra gets the amplitudes, bit for bit,
    that it would get alone.  The phases factor by angle addition: with
    B = ceil(sqrt K) and i = q B + r, exp(-i lambda tau_i / 2) is the
    product of a coarse factor at tau_{qB} and a fine one at tau_r, so
    each eigenvalue takes B + ceil(K / B) complex exponentials instead of
    K.  The last point, which tau_grid may have clipped to T, is
    evaluated at its own time.  Every angle lambda_j tau_i must be finite.
    """
    _check_node(k0, spectrum.n_nodes)
    taus = tau_grid(T, dtau)
    _check_angles(_extreme_eigenvalue(spectrum), taus[-1], "lambda_j")
    k = taus.size
    b = math.isqrt(k - 1) + 1
    u, lam = spectrum.eigenvectors, spectrum.eigenvalues
    w = u * u[..., k0 - 1, None, :]  # w[..., m, j] = u_{k0 j} u_{m j}
    coarse = np.exp(-0.5j * (taus[::b, None] * lam[..., None, :]))  # (..., Q, N); taus[qB] = qB dtau
    fine = np.exp(-0.5j * (lam[..., :, None] * taus[:b]))  # (..., N, B)
    # amps[..., m, q, r] = sum_j w[..., m, j] coarse[..., q, j] fine[..., j, r]
    amps = (w[..., None, :] * coarse[..., None, :, :]) @ fine[..., None, :, :]
    amps = amps.reshape(*w.shape[:-1], -1)[..., :k]
    amps[..., -1] = (w @ np.exp(-0.5j * lam * taus[-1])[..., None])[..., 0]
    return amps


# K_p = {g : psi_p(g) = -1} for p = 1..N-1 by node count, in ascending g.
_FLIPPED = {n: [np.flatnonzero(psi[:, p] < 0) for p in range(1, n)] for n, psi in _PSI.items()}

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
    a product of at most N such factors adds N eps, E_p's t products
    (t = 2 for the box, its cosine and its sine product, else 1) add
    t eps each, and the log2(N) butterflies of sums at most t in size add
    log2(N) t eps.  So one sample is within
    eps t (sum_g |d_1g| tau_max + N (_TRIG_EPS + 1) + t + log2 N).
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[1]
    t = 2 if n == 8 else 1
    spread = np.abs(rows[:, 1:]).sum(axis=1) * tau_max
    return np.finfo(float).eps * t * (spread + n * (_TRIG_EPS + 1) + t + n.bit_length() - 1)


def sign_probability_grid(rows: np.ndarray, k0: int, taus: np.ndarray) -> np.ndarray:
    """P_{k0 m}(tau_i) of G sign-basis clusters as a (G, N, K) array.

    rows[c] is the first coupling row (d_11 = 0, d_12, ..., d_1N) of
    cluster c, for N = 2, 4 or 8 nodes numbered as in layout_chain2,
    layout_rectangle or layout_parallelepiped.  On 0-based nodes, with
    psi_p(x) = (-1)**popcount(p & x),

        P_{k0 m}(tau) = (1/N) sum_p psi_p(m XOR k0) E_p(tau),

    E_0 = 1 and, with K_p = {g : psi_p(g) = -1},

        E_p(tau) = prod_{g in K_p} cos(d_1g tau)
                   (+ prod_{g in K_p} sin(d_1g tau) for the box).

    E_p is the mean over q of exp(-i tau sum_{g in K_p} psi_q(g) d_1g);
    expanding the product leaves only the subsets of K_p with XOR 0,
    which for N <= 8 are the empty set and, for the box, K_p itself
    (four nodes, sign +1).  Only real cos and sin are taken,
    and every sample is computed from its row and its tau alone, in the
    same order of operations, so it comes out bit for bit the same
    whichever other rows and times share the call.

    taus is one grid of K times shared by all rows, or a (G, K) array
    holding row c's own times in taus[c].  Every row value and every tau
    must be finite, and so must every angle d_1g tau; ValueError says which
    is not before any probability is evaluated.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] not in _FLIPPED:
        raise ValueError(f"rows must have shape (G, N), G >= 1, N = 2, 4 or 8, got {rows.shape}")
    n_points, n = rows.shape
    _check_node(k0, n)
    taus = np.asarray(taus, dtype=float)
    if not (taus.ndim == 1 or taus.ndim == 2 and taus.shape[0] == n_points):
        raise ValueError(f"taus must have shape (K,) or ({n_points}, K), got {taus.shape}")
    _check_angles(_finite_max("rows", rows), _finite_max("taus", taus))
    # d_1g tau for the nodes g >= 1, as (G, K) arrays; on a shared grid a
    # coupling that every row shares (d_12 = 1 along a sweep) is
    # evaluated once, as (1, K).
    angles = [
        rows[:1, g, None] * taus if np.all(rows[:, g] == rows[0, g]) else rows[:, g, None] * taus
        for g in range(1, n)
    ]
    sin = [np.sin(a) for a in angles] if n == 8 else None  # only the box's E_p hold sines
    cos = [np.cos(a, out=a) for a in angles]
    # e[p] = psi_p(k0) E_p / N, so the Walsh-Hadamard transform over p
    # gives P_{k0 m} at e[m] directly; scaling by +-1/N is exact.
    scale = _PSI[n][k0 - 1] / n
    e = np.empty((n, n_points, taus.shape[-1]))
    e[0] = 1.0 / n
    for p, flipped in enumerate(_FLIPPED[n], start=1):
        total = reduce(np.multiply, [cos[g - 1] for g in flipped])
        if n == 8:
            total = total + reduce(np.multiply, [sin[g - 1] for g in flipped])
        np.multiply(total, scale[p], out=e[p])
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
    """State of the excitation at a single time tau, which must be a finite
    real number (not a bool or a string), and so must every angle
    lambda_j tau."""
    _check_finite(tau=tau)
    tau = float(tau)
    _check_node(k0, spectrum.n_nodes)
    _check_angles(_extreme_eigenvalue(spectrum), abs(tau), "lambda_j")
    u = spectrum.eigenvectors
    amp = (u * u[k0 - 1]) @ np.exp(-0.5j * spectrum.eigenvalues * tau)
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
