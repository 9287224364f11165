"""Single-excitation block of the XXZ dipolar Hamiltonian and its spectrum.

With one flipped spin the only dynamically active block of the
Hamiltonian is H_1 = (D - Gamma I) / 2, where D carries the couplings
d_ij off the diagonal and A_nn = 2 sum_{i != n} d_in on it, and
Gamma = sum_{i<j} d_ij.  The Gamma shift is a multiple of the identity,
contributes a global phase only, and is dropped: build_D returns D as a
plain array.

diagonalize is the numeric reference spectrum (eigh), of one D or of a
stack of them.  For the pair, the
rectangle and the box, _sign_spectrum gives the same eigensystem in
closed form from the first coupling row; it is the one eigenvalue
formula, behind search.System.spectrum(), and verify.suite_spectra
checks it against diagonalize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CouplingMatrix

__all__ = [
    "Spectrum",
    "build_D",
    "diagonalize",
    "sign_basis",
]

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) and orthonormal eigenvectors of D, or of a
    stack of D's.

    eigenvectors[..., :, j] pairs with eigenvalues[..., j]; any leading
    axes of eigenvalues (..., N) and eigenvectors (..., N, N) index the
    stack, as diagonalize returns them for a stack of D's.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.eigenvalues.shape[-1]


def build_D(c: CouplingMatrix) -> np.ndarray:
    """Assemble D from a coupling matrix: d_ij off-diagonal, 2 sum d_in on it."""
    D = c.d.copy()
    np.fill_diagonal(D, 2.0 * c.d.sum(axis=0))
    return D


def diagonalize(D: np.ndarray) -> Spectrum:
    """Spectral decomposition of the symmetric array D, or of each matrix of
    a (..., N, N) stack of them; deterministic for identical input, and a
    stacked matrix gets the same spectrum as it would alone."""
    lam, u = np.linalg.eigh(D)
    return Spectrum(eigenvalues=lam, eigenvectors=u)


def _sign_spectrum(row: np.ndarray) -> Spectrum:
    """Spectrum of D for the pair, the rectangle and the box from its first row.

    For these clusters (N = 2, 4 or 8 nodes) every eigenvector of D is a
    sign pattern of sign_basis, whatever the couplings.  Row 1 of
    D u = lam u then gives each eigenvalue: with A_11 = 2 sum_k d_1k and
    u_1j > 0, lam_j = sum_k d_1k (2 + u_kj / u_1j).  row is
    (d_11 = 0, d_12, ..., d_1N); nothing checks that the rest of D has the
    symmetry this needs, so it takes the closed-form rows of
    search.coupling_rows, whose layouts have it.
    """
    n = len(row)
    lam = row @ _SIGN_RATIOS[n]
    order = np.argsort(lam, kind="stable")
    return Spectrum(eigenvalues=lam[order], eigenvectors=_SIGN_VECTORS[n][:, order])


def sign_basis(s: int) -> np.ndarray:
    """Orthonormal sign basis of dimension 2**s, one vector per row.

    Built by the doubling rule B_2M = ((1,1) x B_M, (1,-1) x B_M) / sqrt 2
    from B_1 = {(1)}; every component has magnitude 2**(-s/2).  s must be
    1, 2 or 3, where the rows are the eigenvectors of the pair, rectangle
    and parallelepiped, on which _sign_spectrum is built.
    """
    if isinstance(s, bool) or not isinstance(s, (int, np.integer)) or not 1 <= s <= 3:
        raise ValueError(f"s must be an integer in [1, 3], got {s!r}")
    basis = np.ones((1, 1))
    for _ in range(s):
        basis = np.vstack(
            [np.hstack([basis, basis]), np.hstack([basis, -basis])]
        ) / _SQRT2
    return basis


# Eigenvectors of _sign_spectrum by node count, one per column, and the
# matrix 2 + u_kj / u_1j that maps the first coupling row to eigenvalues.
_SIGN_VECTORS = {2**s: sign_basis(s).T for s in (1, 2, 3)}
_SIGN_RATIOS = {n: 2.0 + u / u[0] for n, u in _SIGN_VECTORS.items()}
