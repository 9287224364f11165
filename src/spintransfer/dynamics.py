"""Time evolution of a single excitation over the spectral decomposition.

Amplitudes follow f_{k0 m}(tau) = sum_j u_{k0 j} u_{m j} exp(-i lambda_j
tau / 2); the identity shift of the single-excitation block is dropped as
a global phase, so reported phases (and the fidelity built from them)
are relative to that convention.  Node indices are 1-based throughout
the public surface.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .hamiltonian import Spectrum

__all__ = [
    "TransferState",
    "evolve",
    "evolve_grid",
    "amplitude_grid",
    "probability_grid",
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


def _whole_steps(span: float, step: float) -> int:
    # floor(span / step), a ratio within a relative 1e-9 below an integer
    # counting as that integer: (26.4 - 26) / 0.1 = 3.999999999999986 gives 4.
    ratio = span / step * (1.0 + 1e-9)
    if not ratio <= _MAX_GRID_POINTS:
        raise ValueError(
            f"a span of {span!r} in steps of {step!r} makes {ratio:.3g} grid steps, "
            f"cap is {_MAX_GRID_POINTS}"
        )
    return int(ratio)


def tau_grid(T: float, dtau: float) -> np.ndarray:
    """Uniform times tau_i = i * dtau for i = 0..K, K = floor(T / dtau).

    Each point is the direct product i * dtau, not an accumulated sum, so
    halving dtau yields a grid containing the coarse one exactly; a last
    point that roundoff puts past T is clipped to T.
    """
    if not 0 < dtau <= T < np.inf:
        raise ValueError(f"need 0 < dtau <= T < inf, got T={T!r}, dtau={dtau!r}")
    return np.minimum(np.arange(_whole_steps(T, dtau) + 1) * dtau, T)


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


def evolve(spectrum: Spectrum, k0: int, tau: float) -> TransferState:
    """State of the excitation at a single time tau."""
    amp = amplitude_grid(spectrum, k0, np.array([float(tau)]))[:, 0]
    return TransferState(
        tau=float(tau), k0=k0, amplitudes=amp, probabilities=np.abs(amp) ** 2
    )


def evolve_grid(spectrum: Spectrum, k0: int, T: float, dtau: float):
    """States on the uniform grid tau_i = i * dtau, i = 0..floor(T/dtau)."""
    taus = tau_grid(T, dtau)
    amps = amplitude_grid(spectrum, k0, taus)
    probs = np.abs(amps) ** 2
    return [
        TransferState(
            tau=float(t), k0=k0, amplitudes=amps[:, i], probabilities=probs[:, i]
        )
        for i, t in enumerate(taus)
    ]


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
