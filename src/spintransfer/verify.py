"""Cross-checks between independent code paths.

Each suite compares two routes to the same quantity: the spectral
evolution against the analytic probability formulas, the concurrence
and negativity closed forms against their brute-force density-matrix
oracles, and System.spectrum() (the sign basis, with eigenvalues from
the closed-form coupling row) against the numeric solver.  The
closed-form and spectra suites diagonalize real layouts with eigh, so
every analytic formula, the closed-form rows included, is checked
against an independent route.  The closed-form suite also checks the
sign kernel behind System.probability_grid, the route of every sweep,
peak and CSV, against the pair, rectangle (at its two degenerate points,
|d14| = 1) and cube formulas, and the pruned route of FP sweeps against
the dense kernel: a small sweep's FP must equal it exactly.  It
recomputes the FN of two with-FN sweeps, where node pair (2, 4) sets it,
from the eigh of their layouts and an explicit loop over the node pairs.
The oracle suites evolve System.spectrum(), since there the oracle is
the reference.  Randomized draws use a fixed seed so runs are
reproducible, and each suite takes its draw count as a non-negative
integer.  A suite reduces all its deviations once, so a NaN among them
makes max_deviation NaN and fails the suite.

The layouts of the random draws are diagonalized as stacks, one eigh
per stack (the closed-form suite evolves them with one amplitude_grid
call per stack of _STACK); each matrix of a stack gets the spectrum and
amplitudes it would get alone, so the deviations are those of one call
per draw.  The oracle suites likewise evolve every draw (one evolve and
one closed-form call per draw) before they run each oracle once over
all their draws: one eigvals over the concurrence draws, and one
_negativity_oracles call over the negativity draws, which makes one
eigvalsh per split (|A u B|, |A|).  Each state gets the oracle value
the per-state concurrence_oracle or negativity_oracle gives it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import closedforms
from .dynamics import amplitude_grid, density_element, evolve, sign_probability_grid, tau_grid
from .entanglement import (
    Bipartition,
    _concurrence_oracles,
    _negativity_oracles,
    _restriction,
    concurrence,
    negativity,
    negativity_grid,
)
from .geometry import (
    FIELD_ALONG_B,
    FIELD_PERPENDICULAR,
    b_to_delta,
    coupling_matrix,
    layout_rectangle,
)
from .hamiltonian import Spectrum, build_D, diagonalize
from .search import KINDS, System, _fp, coupling_rows, sweep1d

__all__ = [
    "SuiteResult",
    "suite_closed_forms",
    "suite_concurrence",
    "suite_negativity",
    "suite_spectra",
    "run_all",
]

_SEED = 174

# The kinds in KINDS order, indexed by one integer draw per system.
_KIND_NAMES = tuple(KINDS)

# Random rectangles the closed-form suite diagonalizes and evolves at
# once: 4 x 4 amplitude rows of 3,001 samples per stack.
_STACK = 4

# sweep1d arguments of the pruned-route check: 29 rect-along points, each
# pruned (its curvature bound over 10 samples stays below 1).
_PRUNED_SWEEP = (FIELD_ALONG_B, (4.0, 11.0), 0.25, 10.0, 0.01)

# (kind, delta range, T) of the with-FN sweeps of the FN check, in steps of
# 0.05: node pair (2, 4) sets FN at their middle points, delta = 5.05 and 4.25.
_FN_SWEEPS = ((FIELD_PERPENDICULAR, (5.0, 5.1), 10.0), (FIELD_ALONG_B, (4.2, 4.3), 3.5))


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool


def _check_draws(draws) -> None:
    """Require a draw count: an integer, not a bool, and not negative."""
    if isinstance(draws, bool) or not isinstance(draws, numbers.Integral) or draws < 0:
        raise ValueError(f"draws must be a non-negative integer, got {draws!r}")


def _result(name: str, devs, tol: float) -> SuiteResult:
    """The suite passes if its largest deviation (0.0 if it has none) is at
    most tol; a NaN deviation propagates to max_deviation and fails it."""
    dev = float(np.max(devs, initial=0.0))
    return SuiteResult(name, dev, tol, bool(dev <= tol))


def _random_system(rng) -> System:
    kind = _KIND_NAMES[rng.integers(len(_KIND_NAMES))]
    n_nodes, params = KINDS[kind]
    deltas = {name: float(rng.uniform(0.1, 15.0)) for name in params}
    return System(kind, **deltas, k0=int(rng.integers(1, n_nodes + 1)))


def suite_closed_forms(draws: int = 300) -> SuiteResult:
    """Spectral-path probabilities vs the analytic formulas, the pruned
    sweep route vs the dense kernel, and sweep FN vs an explicit pair loop.

    Every closed form is compared with the eigh route on its layout
    (amplitude_grid, dtau = 0.01); the pair, the two degenerate
    rectangles (rect_P at |d14| = 1) and the cube are compared with the
    sign kernel (System.probability_grid) on the same grid as well.  The
    random rectangles are diagonalized, evolved and compared in stacks of
    _STACK.  The FP of one small rect-along sweep, which prunes, must
    equal the FP of the dense kernel on its rows exactly; if it does not,
    the deviation is inf.  The FN of two small with-FN rectangle sweeps
    (_FN_SWEEPS) is recomputed from one eigh per sweep of its stacked
    layouts' D, through amplitude_grid and negativity_grid over every
    node pair.
    """
    _check_draws(draws)
    rng = np.random.default_rng(_SEED)
    dtau = 0.01
    devs = []

    def compare(probs, expected):
        devs.append(np.abs(probs - np.stack(expected, axis=-2)).max())

    def spectral(D, T):
        """P_{1 m} on tau_grid(T, dtau) from the eigh of D or of a stack of D's."""
        return np.abs(amplitude_grid(diagonalize(D), 1, T, dtau)) ** 2

    def both_routes(system, T, closed_form):
        """The eigh route on system's layout and its sign kernel against
        closed_form(taus, d_1), d_1 the layout's first coupling row."""
        c = coupling_matrix(system.layout())
        taus = tau_grid(T, dtau)
        expected = closed_form(taus, c.d[0])
        compare(spectral(build_D(c), T), expected)
        compare(system.probability_grid(taus), expected)

    both_routes(System("chain2"), 4.0 * np.pi, lambda taus, d: closedforms.two_node_P(taus))

    taus = tau_grid(30.0, dtau)
    for start in range(0, draws, _STACK):
        cs = []
        for _ in range(min(_STACK, draws - start)):
            mode = FIELD_PERPENDICULAR if rng.random() < 0.5 else FIELD_ALONG_B
            cs.append(coupling_matrix(layout_rectangle(float(rng.uniform(0.3, 3.0)), mode)))
        d1 = np.stack([c.d[0] for c in cs])
        expected = closedforms.rect_P(taus, d1[:, 2, None], d1[:, 3, None])
        compare(spectral(np.stack([build_D(c) for c in cs]), 30.0), expected)

    for kind, delta in (("rect-perp", 1.0), ("rect-along", 0.5)):
        degenerate = System(kind, delta=delta)
        both_routes(degenerate, 60.0, lambda taus, d: closedforms.rect_P(taus, d[2], d[3]))
    both_routes(System("box", delta1=1.0, delta2=1.0), 60.0, lambda taus, d: closedforms.cube_P(taus))

    kind, _, _, sweep_T, sweep_dtau = _PRUNED_SWEEP
    sweep = sweep1d(*_PRUNED_SWEEP)
    rows = coupling_rows(kind, sweep.grid[:, None])
    dense = sign_probability_grid(rows, 1, tau_grid(sweep_T, sweep_dtau))
    if not np.array_equal(sweep.fp, _fp(dense)):
        devs.append(math.inf)

    for kind, delta_range, T in _FN_SWEEPS:
        sweep = sweep1d(kind, delta_range, 0.05, T, dtau, with_fn=True)
        D = np.stack([build_D(coupling_matrix(System(kind, delta=d).layout())) for d in sweep.grid])
        probs = spectral(D, T)
        best = [
            negativity_grid(probs[:, i], probs[:, j]).max(axis=-1)
            for i, j in combinations(range(probs.shape[-2]), 2)
        ]
        devs.append(np.abs(sweep.fn - np.min(best, axis=0)).max())

    return _result("closed-forms", devs, 1e-10)


def suite_concurrence(draws: int = 400) -> SuiteResult:
    """Pairwise concurrence closed form vs the spin-flip oracle.

    Every draw is evolved and its closed form taken first; the oracle then
    runs once over the stack of all draws (one eigvals of the (draws, 4, 4)
    spin-flip products).
    """
    _check_draws(draws)
    rng = np.random.default_rng(_SEED + 1)
    closed, a_ij, p_i, p_j = [], [], [], []
    for _ in range(draws):
        sys = _random_system(rng)
        state = evolve(sys.spectrum(), sys.k0, float(rng.uniform(0.0, 40.0)))
        i, j = (int(x) + 1 for x in rng.choice(sys.n_nodes, size=2, replace=False))
        closed.append(concurrence(state, i, j))
        a_ij.append(density_element(state, i, j))
        p_i.append(state.probabilities[i - 1])
        p_j.append(state.probabilities[j - 1])
    oracle = _concurrence_oracles(np.array(a_ij, dtype=complex), np.array(p_i), np.array(p_j))
    return _result("concurrence-oracle", np.abs(np.array(closed) - oracle), 1e-10)


def suite_negativity(draws: int = 350) -> SuiteResult:
    """Double negativity closed form vs the partial-transpose oracle.

    Every draw is evolved and its closed form taken first; the oracle then
    runs once over the list of all draws, which _negativity_oracles
    groups by split (|A u B|, |A|) into one eigvalsh per split of their
    whole 1 + m + m1 m2 blocks.
    """
    _check_draws(draws)
    rng = np.random.default_rng(_SEED + 2)
    closed, cases = [], []
    for _ in range(draws):
        sys = _random_system(rng)
        n = sys.n_nodes
        state = evolve(sys.spectrum(), sys.k0, float(rng.uniform(0.0, 40.0)))
        perm = rng.permutation(n) + 1
        m1 = int(rng.integers(1, n))
        m2 = int(rng.integers(1, n - m1 + 1))
        part = Bipartition(tuple(perm[:m1]), tuple(perm[m1 : m1 + m2]))
        closed.append(negativity(state, part))
        cases.append((*_restriction(state, part), m1))
    return _result("negativity-oracle", np.abs(np.array(closed) - _negativity_oracles(cases)), 1e-9)


def suite_spectra(draws: int = 200) -> SuiteResult:
    """System.spectrum() vs the numeric solver on the system's layout.

    Each drawn side b becomes a System through b_to_delta, so the
    closed-form coupling rows are checked along with the eigenvalue
    formula.  Eigenvalues are compared sorted; eigenvectors through the
    reconstruction U diag(lam) U^T, which both routes must return to
    the layout's D even across degeneracies.  The rectangles and the
    boxes are each diagonalized and reconstructed as one stack.
    """
    _check_draws(draws)
    rng = np.random.default_rng(_SEED + 3)
    devs = []

    def compare(systems):
        if not systems:
            return
        D = np.stack([build_D(coupling_matrix(system.layout())) for system in systems])
        spectra = [system.spectrum() for system in systems]
        closed = Spectrum(
            np.stack([spec.eigenvalues for spec in spectra]),
            np.stack([spec.eigenvectors for spec in spectra]),
        )
        numeric = diagonalize(D)
        devs.append(np.abs(closed.eigenvalues - numeric.eigenvalues).max())
        for spec in (closed, numeric):
            u, lam = spec.eigenvectors, spec.eigenvalues
            devs.append(np.abs((u * lam[:, None, :]) @ u.transpose(0, 2, 1) - D).max())

    rects = []
    for _ in range(draws):
        mode = FIELD_PERPENDICULAR if rng.random() < 0.5 else FIELD_ALONG_B
        rects.append(System(mode, delta=b_to_delta(float(rng.uniform(0.3, 3.0)))))
    compare(rects)

    boxes = []
    for _ in range(draws // 2):
        b1, b2 = float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0))
        boxes.append(System("box", delta1=b_to_delta(b1), delta2=b_to_delta(b2)))
    compare(boxes)

    return _result("spectra", devs, 1e-10)


def run_all() -> list:
    return [
        suite_closed_forms(),
        suite_concurrence(),
        suite_negativity(),
        suite_spectra(),
    ]
