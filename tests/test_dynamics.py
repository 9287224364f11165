"""Evolution amplitudes, probabilities, grids, and fidelity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eigh_spectrum
from spintransfer.dynamics import (
    TransferState,
    _sign_curvature,
    _sign_rounding,
    density_element,
    evolve,
    fidelity,
    probability_grid,
    sign_probability_grid,
    tau_grid,
)
from spintransfer.hamiltonian import sign_basis
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


@pytest.mark.parametrize("T, dtau", [(1e308, 1e-10), (2e6, 1.0)])
def test_tau_grid_rejects_oversized(T, dtau):
    # T / dtau overflows to inf in the first case and is finite but above
    # the cap in the second; both fail before anything is allocated.
    with pytest.raises(ValueError, match="cap is 1000000"):
        tau_grid(T, dtau)


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
        probability_grid(spec, 2.5, np.zeros(1))


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
def test_evolve_rejects_non_finite_tau(tau):
    # refused before any phase is taken, so no NaN probabilities come back
    with pytest.raises(ValueError, match=f"tau must be finite, got {tau!r}"):
        evolve(System("rect-along", delta=4.3).spectrum(), 1, tau)


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
        numeric = probability_grid(eigh_spectrum(system), system.k0, grid)
        assert np.abs(system.probability_grid(grid) - numeric).max() <= 1e-12


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
