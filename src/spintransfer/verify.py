"""Cross-checks between independent code paths.

Each suite compares two routes to the same quantity: the spectral
evolution against the analytic probability formulas, the concurrence
and negativity closed forms against their brute-force density-matrix
oracles, and System.spectrum() (the sign basis, with eigenvalues from
the closed-form coupling row) against the numeric solver.  The
closed-form and spectra suites diagonalize real layouts with eigh, so
every analytic formula, the closed-form rows included, is checked
against an independent route; the oracle suites evolve
System.spectrum(), since there the oracle is the reference.  Randomized
draws use a fixed seed so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closedforms
from .dynamics import evolve, probability_grid, tau_grid
from .entanglement import (
    Bipartition,
    concurrence,
    concurrence_oracle,
    negativity,
    negativity_oracle,
)
from .geometry import (
    FIELD_ALONG_B,
    FIELD_PERPENDICULAR,
    b_to_delta,
    coupling_matrix,
    layout_rectangle,
)
from .hamiltonian import build_D, diagonalize
from .search import KINDS, System

__all__ = [
    "SuiteResult",
    "suite_closed_forms",
    "suite_concurrence",
    "suite_negativity",
    "suite_spectra",
    "run_all",
]

_SEED = 174


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool


def _result(name: str, dev: float, tol: float) -> SuiteResult:
    return SuiteResult(name, float(dev), tol, bool(dev <= tol))


def _random_system(rng) -> System:
    kind = str(rng.choice(list(KINDS)))
    n_nodes, params = KINDS[kind]
    deltas = {name: float(rng.uniform(0.1, 15.0)) for name in params}
    return System(kind, **deltas, k0=int(rng.integers(1, n_nodes + 1)))


def suite_closed_forms(draws: int = 300) -> SuiteResult:
    """Spectral-path probabilities vs the analytic formulas."""
    rng = np.random.default_rng(_SEED)
    dev = 0.0

    def compare(spec, k0, taus, expected):
        nonlocal dev
        probs = probability_grid(spec, k0, taus)
        dev = max(dev, float(np.abs(probs - np.stack(expected)).max()))

    taus = tau_grid(4.0 * np.pi, 0.01)
    c = coupling_matrix(System("chain2").layout())
    compare(diagonalize(build_D(c)), 1, taus, closedforms.two_node_P(taus))

    taus = tau_grid(30.0, 0.01)
    for _ in range(draws):
        mode = FIELD_PERPENDICULAR if rng.random() < 0.5 else FIELD_ALONG_B
        c = coupling_matrix(layout_rectangle(float(rng.uniform(0.3, 3.0)), mode))
        compare(diagonalize(build_D(c)), 1, taus, closedforms.rect_P(taus, c.d[0, 2], c.d[0, 3]))

    taus = tau_grid(60.0, 0.01)
    for kind, delta in (("rect-perp", 1.0), ("rect-along", 0.5)):
        c = coupling_matrix(System(kind, delta=delta).layout())
        compare(diagonalize(build_D(c)), 1, taus, closedforms.rect_degenerate_P(taus, c.d[0, 2]))
    c = coupling_matrix(System("box", delta1=1.0, delta2=1.0).layout())
    compare(diagonalize(build_D(c)), 1, taus, closedforms.cube_P(taus))

    return _result("closed-forms", dev, 1e-10)


def suite_concurrence(draws: int = 400) -> SuiteResult:
    """Pairwise concurrence closed form vs the spin-flip oracle."""
    rng = np.random.default_rng(_SEED + 1)
    dev = 0.0
    for _ in range(draws):
        sys = _random_system(rng)
        state = evolve(sys.spectrum(), sys.k0, float(rng.uniform(0.0, 40.0)))
        i, j = (int(x) + 1 for x in rng.choice(sys.n_nodes, size=2, replace=False))
        dev = max(dev, abs(concurrence(state, i, j) - concurrence_oracle(state, i, j)))
    return _result("concurrence-oracle", dev, 1e-10)


def suite_negativity(draws: int = 350) -> SuiteResult:
    """Double negativity closed form vs the partial-transpose oracle."""
    rng = np.random.default_rng(_SEED + 2)
    dev = 0.0
    for _ in range(draws):
        sys = _random_system(rng)
        n = sys.n_nodes
        state = evolve(sys.spectrum(), sys.k0, float(rng.uniform(0.0, 40.0)))
        perm = rng.permutation(n) + 1
        m1 = int(rng.integers(1, n))
        m2 = int(rng.integers(1, n - m1 + 1))
        part = Bipartition(tuple(perm[:m1]), tuple(perm[m1 : m1 + m2]))
        dev = max(dev, abs(negativity(state, part) - negativity_oracle(state, part)))
    return _result("negativity-oracle", dev, 1e-9)


def suite_spectra(draws: int = 200) -> SuiteResult:
    """System.spectrum() vs the numeric solver on the system's layout.

    Each drawn side b becomes a System through b_to_delta, so the
    closed-form coupling rows are checked along with the eigenvalue
    formula.  Eigenvalues are compared sorted; eigenvectors through the
    reconstruction U diag(lam) U^T, which both routes must return to
    the layout's D even across degeneracies.
    """
    rng = np.random.default_rng(_SEED + 3)
    dev = 0.0

    def compare(system):
        nonlocal dev
        D = build_D(coupling_matrix(system.layout()))
        closed, numeric = system.spectrum(), diagonalize(D)
        dev = max(dev, float(np.abs(closed.eigenvalues - numeric.eigenvalues).max()))
        for spec in (closed, numeric):
            u, lam = spec.eigenvectors, spec.eigenvalues
            dev = max(dev, float(np.abs(u @ np.diag(lam) @ u.T - D).max()))

    for _ in range(draws):
        mode = FIELD_PERPENDICULAR if rng.random() < 0.5 else FIELD_ALONG_B
        compare(System(mode, delta=b_to_delta(float(rng.uniform(0.3, 3.0)))))

    for _ in range(draws // 2):
        b1, b2 = float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0))
        compare(System("box", delta1=b_to_delta(b1), delta2=b_to_delta(b2)))

    return _result("spectra", dev, 1e-10)


def run_all() -> list:
    return [
        suite_closed_forms(),
        suite_concurrence(),
        suite_negativity(),
        suite_spectra(),
    ]
