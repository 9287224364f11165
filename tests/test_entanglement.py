"""Concurrence and negativity closed forms against their oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintransfer.dynamics import TransferState, evolve
from spintransfer.entanglement import (
    Bipartition,
    concurrence,
    concurrence_oracle,
    negativity,
    negativity_grid,
    negativity_oracle,
    sigma,
)
from spintransfer.search import System

taus = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def _state(kind="box", tau=1.3, k0=1, **params):
    defaults = {"box": dict(delta1=3.0, delta2=7.0)}.get(kind, {})
    defaults.update(params)
    sys = System(kind, k0=k0, **defaults)
    return evolve(sys.spectrum(), k0, tau)


def test_bipartition_validation():
    with pytest.raises(ValueError):
        Bipartition((), (1,))
    with pytest.raises(ValueError):
        Bipartition((1, 2), (2, 3))
    with pytest.raises(ValueError):
        Bipartition((0,), (1,))
    with pytest.raises(ValueError):
        Bipartition((1, 1), (2,))
    # 1.7 used to be truncated to node 1
    with pytest.raises(ValueError, match="node index 1.7 must be an integer"):
        Bipartition((1.7,), (2,))
    assert Bipartition((1, 5), (4, 8)).label() == "15_48"


def test_bipartition_accepts_numpy_integers():
    part = Bipartition(np.array([1, 5]), (np.int64(4), 8))
    assert part.a == (1, 5) and part.b == (4, 8)
    assert all(type(k) is int for k in part.a + part.b)


@pytest.mark.parametrize("i", [True, 1.5])
def test_concurrence_rejects_non_integer_node(i):
    # True used to be read as node 1, 1.5 to fail with an IndexError
    with pytest.raises(ValueError, match=f"node index {i} must be an integer"):
        concurrence(_state("chain2"), i, 2)


def test_sigma_limits():
    state = _state()
    assert sigma(state, range(1, 9)) == pytest.approx(0.0, abs=1e-10)
    assert sigma(state, ()) == 1.0
    two = evolve(System("chain2").spectrum(), 1, np.pi / 2.0)
    assert sigma(two, (1, 2)) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_two_node_is_abs_sine():
    spec = System("chain2").spectrum()
    for tau in np.linspace(0.0, 4.0 * np.pi, 200):
        state = evolve(spec, 1, tau)
        assert concurrence(state, 1, 2) == pytest.approx(abs(np.sin(tau)), abs=1e-12)


def test_concurrence_maximal_at_quadrature():
    state = evolve(System("chain2").spectrum(), 1, np.pi / 2.0)
    assert concurrence(state, 1, 2) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_rejects_equal_nodes():
    state = _state()
    with pytest.raises(ValueError):
        concurrence(state, 3, 3)
    with pytest.raises(ValueError):
        concurrence_oracle(state, 3, 3)


def test_concurrence_vanishes_for_unexcited_pair():
    state = _state(tau=0.0)
    assert concurrence_oracle(state, 2, 3) == pytest.approx(0.0, abs=1e-14)


@settings(max_examples=150, deadline=None)
@given(tau=taus, i=st.integers(1, 8), j=st.integers(1, 8))
def test_concurrence_matches_oracle(tau, i, j):
    if i == j:
        return
    state = _state(tau=tau)
    assert concurrence(state, i, j) == pytest.approx(concurrence_oracle(state, i, j), abs=1e-10)


def test_flip_product_has_single_eigenvalue():
    # the spin-flipped product for these states is rank one with
    # eigenvalue 4|a_ij|^2
    from spintransfer.dynamics import density_element
    from spintransfer.entanglement import _FLIP

    state = _state(tau=2.4)
    i, j = 1, 5
    a = density_element(state, i, j)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = state.probabilities[i - 1]
    rho[1, 1] = state.probabilities[j - 1]
    rho[0, 1] = a
    rho[1, 0] = np.conj(a)
    rho[2, 2] = 1.0 - rho[0, 0].real - rho[1, 1].real
    ev = np.sort_complex(np.linalg.eigvals(np.conj(_FLIP @ rho @ _FLIP) @ rho))
    assert abs(ev[-1] - 4.0 * abs(a) ** 2) < 1e-12
    assert np.abs(ev[:-1]).max() < 1e-12


def test_negativity_two_node_is_abs_sine():
    spec = System("chain2").spectrum()
    part = Bipartition((1,), (2,))
    for tau in np.linspace(0.0, 4.0 * np.pi, 200):
        state = evolve(spec, 1, tau)
        assert negativity(state, part) == pytest.approx(abs(np.sin(tau)), abs=1e-10)


def test_negativity_one_vs_rest_values():
    # 2 sqrt(P (1-P)): maximal at P = 1/2, frozen value at P = 0.97
    p = 0.5
    state = TransferState(0.0, 1, np.array([np.sqrt(p), np.sqrt(1 - p)], dtype=complex), np.array([p, 1 - p]))
    assert negativity(state, Bipartition((1,), (2,))) == pytest.approx(1.0, abs=1e-12)
    p = 0.97
    state = TransferState(0.0, 1, np.array([np.sqrt(p), np.sqrt(1 - p)], dtype=complex), np.array([p, 1 - p]))
    assert negativity(state, Bipartition((1,), (2,))) == pytest.approx(0.3411744421846396, abs=1e-12)


def test_negativity_grid_broadcasts_the_closed_form():
    # scalars, arrays and mixed shapes give the pointwise closed form
    assert negativity_grid(0.5, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert negativity_grid(1.0, 0.0) == 0.0
    s_a = np.array([[0.1], [0.6]])
    s_b = np.array([0.2, 0.3, 0.4])
    grid = negativity_grid(s_a, s_b)
    assert grid.shape == (2, 3)
    for i in range(2):
        for k in range(3):
            assert grid[i, k] == negativity_grid(float(s_a[i, 0]), float(s_b[k]))
    state = _state(tau=2.1)
    part = Bipartition((1, 5), (4, 8))
    s = state.probabilities
    assert negativity(state, part) == negativity_grid(s[0] + s[4], s[3] + s[7])


def test_negativity_one_vs_rest_depends_only_on_p():
    # states from unrelated geometries but equal P_{k0 i} give equal N_{i,rest}
    a = _state("rect-along", tau=0.9, delta=4.3)
    target_p = float(a.probabilities[0])
    amp = np.sqrt([target_p, (1 - target_p) / 3, (1 - target_p) / 3, (1 - target_p) / 3]).astype(complex)
    amp *= np.exp(1j * np.array([0.3, -1.2, 2.2, 0.7]))
    b = TransferState(0.0, 1, amp, np.abs(amp) ** 2)
    pa = Bipartition((1,), (2, 3, 4))
    assert negativity(a, pa) == pytest.approx(negativity(b, pa), abs=1e-12)
    assert negativity(a, pa) == pytest.approx(2.0 * np.sqrt(target_p * (1.0 - target_p)), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(tau=taus, i=st.integers(1, 8), j=st.integers(1, 8))
def test_pair_negativity_never_exceeds_concurrence(tau, i, j):
    if i == j:
        return
    state = _state(tau=tau)
    c = concurrence(state, i, j)
    n = negativity(state, Bipartition((i,), (j,)))
    sig = sigma(state, (i, j))
    assert n == pytest.approx(np.sqrt(sig * sig + c * c) - sig, abs=1e-12)
    assert n <= c + 1e-12


def test_negativity_matches_oracle_randomized():
    rng = np.random.default_rng(31)
    for _ in range(300):
        kind = rng.choice(["chain2", "rect-perp", "rect-along", "box"])
        if kind == "chain2":
            sys = System("chain2")
        elif kind == "box":
            sys = System("box", delta1=float(rng.uniform(0.2, 10)), delta2=float(rng.uniform(0.2, 10)))
        else:
            sys = System(kind, delta=float(rng.uniform(0.2, 10)))
        n = sys.n_nodes
        state = evolve(sys.spectrum(), int(rng.integers(1, n + 1)), float(rng.uniform(0, 40)))
        perm = rng.permutation(n) + 1
        m1 = int(rng.integers(1, n))
        m2 = int(rng.integers(1, n - m1 + 1))
        part = Bipartition(tuple(perm[:m1]), tuple(perm[m1 : m1 + m2]))
        assert negativity(state, part) == pytest.approx(negativity_oracle(state, part), abs=1e-9)


def test_negativity_oracle_full_cover_partition():
    # complement may be empty: split all eight nodes into two quads
    state = _state(tau=5.0)
    part = Bipartition((1, 4, 5, 8), (2, 3, 6, 7))
    assert negativity(state, part) == pytest.approx(negativity_oracle(state, part), abs=1e-9)


def test_partial_transpose_has_single_negative_eigenvalue():
    state = _state(tau=2.0)
    part = Bipartition((1, 2), (5, 6))
    probs = state.probabilities
    s_a = probs[[0, 1]].sum()
    s_b = probs[[4, 5]].sum()
    sig = 1.0 - s_a - s_b
    lam1 = 0.5 * (sig - np.sqrt(sig * sig + 4.0 * s_a * s_b))
    assert negativity_oracle(state, part) == pytest.approx(2.0 * abs(lam1), abs=1e-12)


def test_negativity_oracle_size_cap():
    n = 14
    amp = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    state = TransferState(0.0, 1, amp, np.abs(amp) ** 2)
    part = Bipartition(tuple(range(1, 8)), tuple(range(8, 15)))
    with pytest.raises(ValueError):
        negativity_oracle(state, part)


def test_negativity_rejects_out_of_range_nodes():
    state = _state()
    with pytest.raises(ValueError):
        negativity(state, Bipartition((1,), (9,)))


def test_both_negativity_routes_name_a_node_beyond_n():
    # one Bipartition check against N serves the closed form, the oracle
    # and the CLI
    state = _state()
    for route in (negativity, negativity_oracle):
        with pytest.raises(ValueError, match="partition '15_49' names a node beyond 8"):
            route(state, Bipartition((1, 5), (4, 9)))
