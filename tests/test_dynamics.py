"""Evolution amplitudes, probabilities, grids, and fidelity."""

import re
from functools import reduce
from itertools import combinations
from operator import xor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eigh_spectrum
from spintransfer.dynamics import (
    _FLIPPED,
    TransferState,
    _sign_curvature,
    _sign_rounding,
    amplitude_grid,
    density_element,
    evolve,
    fidelity,
    sign_probability_grid,
    tau_grid,
)
from spintransfer.geometry import b_to_delta, coupling_matrix
from spintransfer.hamiltonian import Spectrum, build_D, diagonalize, sign_basis
from spintransfer.search import KINDS, System, coupling_rows

taus = st.floats(min_value=0.0, max_value=60.0, allow_nan=False)
deltas = st.floats(min_value=0.1, max_value=12.0, allow_nan=False)


def _random_system(rng) -> System:
    kind = rng.choice(["chain2", "rect-perp", "rect-along", "box"])
    if kind == "chain2":
        return System("chain2")
    if kind == "box":
        return System("box", delta1=float(rng.uniform(0.1, 12.0)), delta2=float(rng.uniform(0.1, 12.0)))
    return System(kind, delta=float(rng.uniform(0.1, 12.0)))


def test_tau_grid_shape_and_nesting():
    g = tau_grid(10.0, 0.01)
    assert g.size == 1001
    assert g[0] == 0.0
    assert g[-1] == pytest.approx(10.0, abs=1e-12)
    fine = tau_grid(10.0, 0.005)
    assert np.array_equal(g, fine[::2])


def test_tau_grid_rejects_bad_step():
    with pytest.raises(ValueError):
        tau_grid(10.0, 0.0)
    with pytest.raises(ValueError):
        tau_grid(1.0, 2.0)


@pytest.mark.parametrize(
    "T, dtau", [(np.nan, 0.01), (np.inf, 0.01), (1.0, np.nan), (1.0, np.inf), (-np.inf, 0.1)]
)
def test_tau_grid_rejects_non_finite(T, dtau):
    with pytest.raises(ValueError, match="inf|nan"):
        tau_grid(T, dtau)


@pytest.mark.parametrize(
    "T, dtau, name", [("5", 0.1, "T"), (5.0, None, "dtau"), (True, 0.5, "T"), (5.0, [0.1], "dtau")]
)
def test_tau_grid_rejects_non_numbers(T, dtau, name):
    # "5" and None used to raise TypeError from the comparison
    with pytest.raises(ValueError, match=f"^{name} must be a real number"):
        tau_grid(T, dtau)


@pytest.mark.parametrize("T, dtau", [(1e308, 1e-10), (2e6, 1.0)])
def test_tau_grid_rejects_oversized(T, dtau):
    # T / dtau overflows to inf in the first case and is finite but above
    # the cap in the second; both fail before anything is allocated.
    with pytest.raises(ValueError, match="cap is 1000000"):
        tau_grid(T, dtau)


@pytest.mark.parametrize("T, dtau", [(1.0, 1e-6), (10.0, 1e-5), (1e6, 1.0)])
def test_tau_grid_takes_exactly_the_cap_of_steps(T, dtau):
    # 1,000,000 steps is the cap itself, although the step ratio is
    # widened by a relative 1e-9 before it is compared
    taus = tau_grid(T, dtau)
    assert taus.size == 1_000_001
    assert taus[-1] == T


def test_tau_grid_refuses_one_step_past_the_cap():
    with pytest.raises(ValueError, match="makes 1000001 grid steps, cap is 1000000"):
        tau_grid(1e6 + 1, 1.0)


def test_tau_grid_stops_at_T():
    # 1 / 0.35 = 2.86: the last whole step is 0.7, not 1.05
    assert np.array_equal(tau_grid(1.0, 0.35), np.arange(3) * 0.35)
    assert tau_grid(4.0 * np.pi, 0.01)[-1] <= 4.0 * np.pi
    # 7 * 0.1 rounds to 0.7000000000000001; the grid stops at T itself
    assert tau_grid(0.7, 0.1)[-1] == 0.7


def test_tau_grid_sizes_of_even_ratios():
    # ratios that divide evenly up to roundoff keep their last point
    assert tau_grid(3.5, 0.01).size == 351
    assert tau_grid(6.0, 0.001).size == 6001
    assert tau_grid(10.0, 0.01).size == 1001
    assert tau_grid(26.4 - 26.0, 0.1).size == 5


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=100.0, allow_nan=False),
    st.floats(min_value=1e-3, max_value=1.0, allow_nan=False),
)
def test_tau_grid_points_within_T(T, frac):
    dtau = T * frac
    g = tau_grid(T, dtau)
    assert g[0] == 0.0
    assert np.all(g <= T)
    # no whole step is lost beyond the 1e-9 roundoff allowance
    assert g[-1] + dtau > T * (1.0 - 1e-9)


def test_identity_at_tau_zero():
    spec = System("box", delta1=2.0, delta2=3.0).spectrum()
    state = evolve(spec, 5, 0.0)
    assert state.probabilities[4] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(state.amplitudes).max() == pytest.approx(1.0, abs=1e-12)


def test_two_node_closed_form_pointwise():
    spec = System("chain2").spectrum()
    for state in (evolve(spec, 1, tau) for tau in tau_grid(4.0 * np.pi, 0.01)):
        assert state.probabilities[0] == pytest.approx(np.cos(state.tau / 2.0) ** 2, abs=1e-12)
        assert state.probabilities[1] == pytest.approx(np.sin(state.tau / 2.0) ** 2, abs=1e-12)


def test_two_node_complete_transfer_at_pi():
    state = evolve(System("chain2").spectrum(), 1, np.pi)
    assert state.probabilities[1] == pytest.approx(1.0, abs=1e-12)


def test_evolve_rejects_bad_source():
    spec = System("chain2").spectrum()
    with pytest.raises(ValueError):
        evolve(spec, 0, 1.0)
    with pytest.raises(ValueError):
        evolve(spec, 3, 1.0)
    with pytest.raises(ValueError, match="node index 2.5 must be an integer"):
        amplitude_grid(spec, 2.5, 1.0, 0.5)


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
def test_evolve_rejects_non_finite_tau(tau):
    # refused before any phase is taken, so no NaN probabilities come back
    with pytest.raises(ValueError, match=f"tau must be finite, got tau={tau!r}"):
        evolve(System("rect-along", delta=4.3).spectrum(), 1, tau)


@pytest.mark.parametrize("tau", [True, "2.9", 1 + 0j, None, [1.0], np.array([1.0])])
def test_evolve_rejects_a_time_that_is_not_a_real_number(tau):
    # one ValueError for every non-real time, as for T and dtau, so True
    # is not run at tau = 1 and "2.9" is not parsed
    with pytest.raises(ValueError, match=re.escape(f"tau must be a real number, got {tau!r}")):
        evolve(System("rect-along", delta=4.3).spectrum(), 1, tau)


@pytest.mark.parametrize("tau", [2, np.int64(2), np.float32(2.0), np.float64(2.0)])
def test_evolve_takes_any_real_scalar_time(tau):
    spec = System("rect-along", delta=4.3).spectrum()
    state = evolve(spec, 1, tau)
    assert type(state.tau) is float and state.tau == 2.0
    assert np.array_equal(state.amplitudes, evolve(spec, 1, 2.0).amplitudes)


def test_unitarity_over_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        sys = _random_system(rng)
        state = evolve(sys.spectrum(), int(rng.integers(1, sys.n_nodes + 1)), float(rng.uniform(0.0, 60.0)))
        assert abs(state.probabilities.sum() - 1.0) < 1e-10
        assert np.allclose(state.probabilities, np.abs(state.amplitudes) ** 2, atol=1e-14)


@settings(max_examples=120, deadline=None)
@given(delta=deltas, tau=taus)
def test_amplitude_symmetry_under_node_swap(delta, tau):
    # f_nm = f_mn: evolving from n and reading m equals the reverse
    spec = System("rect-along", delta=delta).spectrum()
    for n, m in ((1, 3), (2, 4), (1, 2)):
        fwd = evolve(spec, n, tau).amplitudes[m - 1]
        back = evolve(spec, m, tau).amplitudes[n - 1]
        assert fwd == pytest.approx(back, abs=1e-12)


def _assert_basis_invariant(sys, tau_values):
    # the numeric eigh of the layout and System.spectrum() (the closed-form
    # row) disagree on vector signs and degenerate rotations, never on
    # probabilities
    numeric, closed = eigh_spectrum(sys), sys.spectrum()
    for tau in tau_values:
        expected = evolve(numeric, sys.k0, tau).probabilities
        assert np.allclose(evolve(closed, sys.k0, tau).probabilities, expected, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["rect-perp", "rect-along"]), delta=deltas, tau=taus)
def test_probabilities_are_basis_invariant(kind, delta, tau):
    _assert_basis_invariant(System(kind, delta=delta), [tau])


def test_probabilities_basis_invariant_at_degeneracy():
    for sys in (
        System("rect-perp", delta=1.0),
        System("rect-along", delta=0.5, k0=2),
        System("box", delta1=1.0, delta2=1.0, k0=7),
    ):
        _assert_basis_invariant(sys, np.linspace(0.0, 20.0, 101))


def test_sign_kernel_matches_numeric_spectrum():
    # System.probability_grid (closed-form row, real kernel) against the
    # numeric eigh of the layout
    rng = np.random.default_rng(11)
    grid = tau_grid(10.0, 0.01)
    for _ in range(60):
        kind = str(rng.choice(list(KINDS)))
        n_nodes, names = KINDS[kind]
        deltas = {name: float(rng.uniform(0.5, 30.0)) for name in names}
        system = System(kind, **deltas, k0=int(rng.integers(1, n_nodes + 1)))
        numeric = np.abs(amplitude_grid(eigh_spectrum(system), system.k0, 10.0, 0.01)) ** 2
        assert np.abs(system.probability_grid(grid) - numeric).max() <= 1e-12


def _amplitude_systems(rng):
    """Systems for the grid-route tests: rectangles of side b in [0.3, 3],
    boxes of delta in [0.1, 15] and the pair, each with a random k0."""
    for _ in range(4):
        mode = str(rng.choice(["rect-perp", "rect-along"]))
        yield System(mode, delta=b_to_delta(float(rng.uniform(0.3, 3.0))), k0=int(rng.integers(1, 5)))
        deltas = rng.uniform(0.1, 15.0, size=2)
        yield System("box", delta1=float(deltas[0]), delta2=float(deltas[1]), k0=int(rng.integers(1, 9)))
    yield System("chain2", k0=2)


def test_amplitude_grid_matches_evolve():
    # the factored phase tables against one direct exponential per time,
    # on the numeric eigh and on System.spectrum(), for T up to 60
    rng = np.random.default_rng(16)
    for system in _amplitude_systems(rng):
        T, dtau = float(rng.uniform(1.0, 60.0)), float(rng.uniform(0.01, 0.1))
        for spec in (eigh_spectrum(system), system.spectrum()):
            grid = amplitude_grid(spec, system.k0, T, dtau)
            direct = np.stack([evolve(spec, system.k0, tau).amplitudes for tau in tau_grid(T, dtau)], axis=1)
            assert np.abs(grid - direct).max() <= 1e-12, (system, T, dtau)


@pytest.mark.parametrize("steps", [1, 2, 3, 48, 49, 97, 3000])
def test_amplitude_grid_shapes(steps):
    # T / dtau = 1, a perfect square (49), a prime (97), and sample counts
    # K = steps + 1 that are perfect squares (3, 48) or not
    system = System("box", delta1=2.0, delta2=3.0, k0=3)
    spec = system.spectrum()
    T = steps * 0.25
    grid = amplitude_grid(spec, 3, T, 0.25)
    assert grid.shape == (8, steps + 1)
    direct = np.stack([evolve(spec, 3, tau).amplitudes for tau in tau_grid(T, 0.25)], axis=1)
    assert np.abs(grid - direct).max() <= 1e-12
    assert np.abs(grid[:, 0] - np.eye(8)[2]).max() <= 1e-15  # tau = 0 is the identity


def test_amplitude_grid_last_point_clipped_to_T():
    # 10 steps of 0.1 (1 + 5e-10) overshoot T = 1 by 5e-10, within the
    # grid's roundoff allowance, so the last point is T itself
    dtau = 0.1 * (1.0 + 5e-10)
    assert tau_grid(1.0, dtau)[-1] == 1.0
    spec = System("rect-along", delta=4.3).spectrum()
    grid = amplitude_grid(spec, 1, 1.0, dtau)
    assert np.array_equal(grid[:, -1], evolve(spec, 1, 1.0).amplitudes)


def _eigh_stack(systems):
    """The numeric spectra of systems as one stacked Spectrum (eigh of a stack of D's)."""
    return diagonalize(np.stack([build_D(coupling_matrix(s.layout())) for s in systems]))


# T, dtau: a grid of 3,001 samples, one of 7,301, and one whose last
# point roundoff puts past T = 1, clipped to T
_STACK_GRIDS = [(30.0, 0.01), (7.3, 0.001), (1.0, 0.1 * (1.0 + 5e-10))]


@pytest.mark.parametrize("kind", ["rect-along", "box"])
@pytest.mark.parametrize("size", [1, 4, 7])
@pytest.mark.parametrize("k0", [1, 2])
@pytest.mark.parametrize("T, dtau", _STACK_GRIDS)
def test_amplitude_grid_stack_equals_single_calls(kind, size, k0, T, dtau):
    rng = np.random.default_rng(size)
    names = KINDS[kind][1]
    systems = [System(kind, **{n: float(rng.uniform(0.1, 15.0)) for n in names}) for _ in range(size)]
    stack = _eigh_stack(systems)
    assert stack.eigenvalues.shape == (size, KINDS[kind][0])
    assert stack.n_nodes == KINDS[kind][0]
    grid = amplitude_grid(stack, k0, T, dtau)
    assert grid.shape == (size, KINDS[kind][0], tau_grid(T, dtau).size)
    for i, system in enumerate(systems):
        single = eigh_spectrum(system)
        assert np.array_equal(grid[i], amplitude_grid(single, k0, T, dtau))
        spec = Spectrum(stack.eigenvalues[i], stack.eigenvectors[i])
        assert np.array_equal(grid[i], amplitude_grid(spec, k0, T, dtau))


def test_amplitude_grid_stack_rejects_bad_arguments():
    stack = _eigh_stack([System("rect-perp", delta=2.0), System("rect-along", delta=4.3)])
    with pytest.raises(ValueError, match="node index 5 must be an integer in 1..4"):
        amplitude_grid(stack, 5, 1.0, 0.1)
    # the largest |lambda_j| of the stack sets the overflow, whichever spectrum holds it
    big = float(np.abs(stack.eigenvalues).max())
    assert big == np.abs(stack.eigenvalues[1]).max() > np.abs(stack.eigenvalues[0]).max()
    with pytest.raises(ValueError, match=f"max\\|lambda_j\\| {big!r} x tau 1e\\+308"):
        amplitude_grid(stack, 1, 1e308, 1e303)


@pytest.mark.parametrize(
    "k0, T, dtau",
    [(0, 1.0, 0.1), (5, 1.0, 0.1), (True, 1.0, 0.1), (1, 1.0, 0.0), (1, 1.0, 2.0), (1, np.nan, 0.1),
     (1, 1.0, np.inf), (1, "1", 0.1), (1, 2e6, 1.0)],
)
def test_amplitude_grid_rejects_bad_arguments(k0, T, dtau):
    with pytest.raises(ValueError):
        amplitude_grid(System("rect-perp", delta=2.0).spectrum(), k0, T, dtau)


def _sign_rows(rng):
    """Rows of 37 clusters of each sign-basis size, from random parameters."""
    return [
        coupling_rows("chain2", np.zeros((37, 0))),
        coupling_rows("rect-along", rng.uniform(0.5, 30.0, size=(37, 1))),
        coupling_rows("box", rng.uniform(0.5, 30.0, size=(37, 2))),
    ]


def test_sign_kernel_nested_grid_is_exact():
    # every other sample of the halved grid is the coarse grid's sample, bit for bit
    coarse, fine = tau_grid(7.0, 0.01), tau_grid(7.0, 0.005)
    for rows in _sign_rows(np.random.default_rng(12)):
        for k0 in (1, rows.shape[1]):
            halved = sign_probability_grid(rows, k0, fine)
            assert np.array_equal(sign_probability_grid(rows, k0, coarse), halved[..., ::2])


def test_sign_kernel_point_alone_equals_point_in_block():
    grid = tau_grid(5.0, 0.01)
    for rows in _sign_rows(np.random.default_rng(13)):
        block = sign_probability_grid(rows, 2, grid)
        assert block.shape == (37, rows.shape[1], grid.size)
        for c in (0, 18, 36):
            assert np.array_equal(sign_probability_grid(rows[c : c + 1], 2, grid)[0], block[c])


def _rows_of_every_kind(rng, count=37):
    """(kind, rows) of count clusters of each kind, deltas in [0.5, 30]."""
    return [
        (kind, coupling_rows(kind, rng.uniform(0.5, 30.0, size=(count, len(names)))))
        for kind, (_, names) in KINDS.items()
    ]


def test_sign_kernel_per_row_times_equal_dense_samples():
    # (G, K) times gathered from a shared grid give that grid's samples bit for bit
    rng = np.random.default_rng(14)
    grid = tau_grid(6.0, 0.001)
    for kind, rows in _rows_of_every_kind(rng):
        picks = rng.integers(0, grid.size, size=(rows.shape[0], 9))
        for k0 in range(1, rows.shape[1] + 1):
            dense = sign_probability_grid(rows, k0, grid)
            gathered = sign_probability_grid(rows, k0, grid[picks])
            assert gathered.shape == (rows.shape[0], rows.shape[1], 9)
            assert np.array_equal(gathered, np.take_along_axis(dense, picks[:, None, :], axis=2)), (kind, k0)


def test_sign_kernel_conserves_probability():
    # the sweep route never meets the evolve audit of conftest, so check
    # sum_m P_m = 1 here, on a shared grid and on per-row times
    rng = np.random.default_rng(15)
    grid = tau_grid(30.0, 0.01)
    for kind, rows in _rows_of_every_kind(rng):
        own = rng.uniform(0.0, 30.0, size=(rows.shape[0], 500))
        for k0 in range(1, rows.shape[1] + 1):
            for times in (grid, own):
                total = sign_probability_grid(rows, k0, times).sum(axis=1)
                assert np.abs(total - 1.0).max() <= 1e-10, (kind, k0)


def _general_sign_terms(s: int) -> tuple:
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


_GENERAL_SIGN_TERMS = {2**s: _general_sign_terms(s) for s in (1, 2, 3)}


def _general_sign_probability_grid(rows, k0, taus):
    """sign_probability_grid with E_p summed over every XOR-zero subset of
    K_p, the general term loop the kernel was first written with."""
    n_points, n = rows.shape
    angles = [
        rows[:1, g, None] * taus if np.all(rows[:, g] == rows[0, g]) else rows[:, g, None] * taus
        for g in range(1, n)
    ]
    sin = [np.sin(a) for a in angles] if n == 8 else None
    cos = [np.cos(a, out=a) for a in angles]
    e = np.empty((n, n_points, taus.shape[-1]))
    e[0] = 1.0 / n
    for p, (psi, terms) in enumerate(_GENERAL_SIGN_TERMS[n], start=1):
        total = None
        for sign, sines, cosines in terms:
            term = reduce(np.multiply, [sin[g - 1] for g in sines] + [cos[g - 1] for g in cosines])
            total = term if total is None else total + sign * term
        np.multiply(total, psi[k0 - 1] / n, out=e[p])
    for bit in range(n.bit_length() - 1):
        for low in range(n):
            if not low >> bit & 1:
                high = low | 1 << bit
                plus = e[low] + e[high]
                np.subtract(e[low], e[high], out=e[high])
                e[low] = plus
    return e.transpose(1, 0, 2)


def test_sign_kernel_equals_general_subset_kernel():
    # one cosine product per E_p (plus one sine product for the box) gives
    # every sample of the general XOR-subset sum bit for bit
    rng = np.random.default_rng(18)
    grid = tau_grid(12.0, 0.01)
    for kind, rows in _rows_of_every_kind(rng, count=11):
        own = rng.uniform(0.0, 40.0, size=(rows.shape[0], 300))
        cases = ((rows, grid), (rows, own), (rows[:1], grid), (rows[:1], own[:1]))
        for k0 in range(1, rows.shape[1] + 1):
            for block, times in cases:
                expected = _general_sign_probability_grid(block, k0, times)
                assert np.array_equal(sign_probability_grid(block, k0, times), expected), (kind, k0)


def test_flipped_nodes_have_odd_overlap_parity():
    # K_p = {g : popcount(p & g) odd}; only the box's K_p has XOR 0, which
    # is what makes its sine product the one extra term
    for n, flipped in _FLIPPED.items():
        assert len(flipped) == n - 1
        for p, nodes in enumerate(flipped, start=1):
            assert nodes.tolist() == [g for g in range(n) if bin(p & g).count("1") % 2]
            assert (reduce(xor, nodes.tolist()) == 0) == (n == 8)
        terms = [len(t) for _, t in _GENERAL_SIGN_TERMS[n]]
        assert terms == [2 if n == 8 else 1] * (n - 1)


def test_sign_curvature_bounds_second_derivative():
    # |P''| <= (1/2) sum_g d_1g**2 for every node; the return probability
    # meets it at tau = 0, so the bound is tight
    rng = np.random.default_rng(16)
    h = 1e-3
    times = np.arange(-1, 4001) * h
    for kind, rows in _rows_of_every_kind(rng, count=9):
        bound = _sign_curvature(rows)
        roundoff = 8.0 * np.finfo(float).eps / h**2
        for k0 in range(1, rows.shape[1] + 1):
            p = sign_probability_grid(rows, k0, times)
            second = np.abs(p[..., 2:] - 2.0 * p[..., 1:-1] + p[..., :-2]).max(axis=(1, 2)) / h**2
            assert np.all(second <= bound + roundoff), (kind, k0)
            assert np.min(second / bound) > 0.99, (kind, k0)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no extended precision")
def test_sign_rounding_bound_covers_kernel_error():
    # against P evaluated in extended precision from the eigenvalues
    # lambda_p = sum_g psi_p(g) d_1g of the same float rows and times
    rng = np.random.default_rng(17)
    for kind, rows in _rows_of_every_kind(rng, count=9):
        n = rows.shape[1]
        tau_max = 40.0
        times = np.sort(rng.uniform(0.0, tau_max, size=300))
        psi = np.rint(sign_basis(n.bit_length() - 1) * np.sqrt(n)).astype(np.longdouble)
        lam = rows.astype(np.longdouble) @ psi.T  # (G, N) eigenvalues
        phases = np.exp(-0.5j * lam[..., None] * times.astype(np.longdouble))  # (G, p, K)
        for k0 in (1, n):
            amp = np.einsum("mp,gpk->gmk", psi * psi[:, k0 - 1], phases) / n
            exact = np.abs(amp) ** 2
            error = np.abs(sign_probability_grid(rows, k0, times) - exact).max(axis=(1, 2))
            assert np.all(error <= _sign_rounding(rows, tau_max)), (kind, k0)


def test_sign_kernel_rejects_bad_input():
    for rows in (np.zeros((1, 3)), np.zeros(4), np.zeros((0, 4))):
        with pytest.raises(ValueError, match="G >= 1, N = 2, 4 or 8"):
            sign_probability_grid(rows, 1, np.zeros(2))
    with pytest.raises(ValueError, match="node index 5"):
        sign_probability_grid(np.zeros((1, 4)), 5, np.zeros(2))
    for taus in (np.zeros((2, 3)), np.zeros((1, 1, 3)), np.float64(0.0)):
        with pytest.raises(ValueError, match=r"taus must have shape \(K,\) or \(1, K\)"):
            sign_probability_grid(np.zeros((1, 4)), 1, taus)


def test_density_element_definition():
    state = evolve(System("rect-along", delta=4.3).spectrum(), 1, 1.7)
    f = state.amplitudes
    for i in range(1, 5):
        assert density_element(state, i, i) == pytest.approx(state.probabilities[i - 1], abs=1e-14)
        for j in range(1, 5):
            a = density_element(state, i, j)
            assert a == pytest.approx(f[i - 1] * np.conj(f[j - 1]), abs=1e-15)
            assert a == pytest.approx(np.conj(density_element(state, j, i)), abs=1e-15)


def test_density_element_two_node_quadrature():
    state = evolve(System("chain2").spectrum(), 1, np.pi / 2.0)
    assert abs(density_element(state, 1, 2)) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_reference_points():
    spec = System("chain2").spectrum()
    state = evolve(spec, 1, 0.0)
    assert fidelity(state, 1) == pytest.approx(1.0, abs=1e-12)
    # complete transfer leaves zero amplitude on the source
    state = evolve(spec, 1, np.pi)
    assert fidelity(state, 1) == pytest.approx(0.5, abs=1e-10)
    apex = fidelity(state, 2)
    assert 1.0 / 6.0 <= apex <= 1.0


def test_fidelity_phase_extremes():
    minus = TransferState(0.0, 1, np.array([-1.0 + 0.0j, 0.0j]), np.array([1.0, 0.0]))
    assert fidelity(minus, 1) == pytest.approx(1.0 / 3.0, abs=1e-14)
    null = TransferState(0.0, 1, np.array([1.0 + 0.0j, 0.0j]), np.array([1.0, 0.0]))
    assert fidelity(null, 2) == pytest.approx(0.5, abs=1e-14)
