"""Concurrence and negativity closed forms against their oracles."""

import copy
import itertools
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintransfer.dynamics import TransferState, density_element, evolve
from spintransfer.entanglement import (
    Bipartition,
    _concurrence_oracles,
    _negativity_oracles,
    _partial_transposes,
    _restriction,
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
    with pytest.raises(ValueError, match="node index 1.7 must be a positive integer"):
        Bipartition((1.7,), (2,))
    assert Bipartition((1, 5), (4, 8)).label() == "15_48"


@pytest.mark.parametrize("node", [0, -1, True])
def test_bipartition_names_a_node_that_is_not_a_positive_integer(node):
    # the message used to read "must be an integer in 1..inf"
    for a, b in [((node,), (1,)), ((2, 3), (4, node))]:
        with pytest.raises(ValueError) as err:
            Bipartition(a, b)
        assert str(err.value) == f"node index {node!r} must be a positive integer"


def test_bipartition_labels_are_distinct():
    # '12_3' named both {1,2} vs {3} and {12} vs {3}; labels of one-digit
    # nodes keep their form, the CLI's partition syntax
    assert Bipartition((1, 2), (3,)).label() == "12_3"
    assert Bipartition((12,), (3,)).label() == "12__3"
    assert Bipartition((1, 12), (3, 4)).label() == "1-12__3-4"
    groups = [(k,) for k in range(1, 13)] + list(itertools.combinations(range(1, 13), 2))
    labels = {}
    for a, b in itertools.product(groups, repeat=2):
        if not set(a) & set(b):
            label = Bipartition(a, b).label()
            assert "," not in label
            labels.setdefault(label, (a, b))
            assert labels[label] == (a, b), f"{label!r} names {labels[label]} and {(a, b)}"


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
    # one node past the cap
    state = _random_state(np.random.default_rng(13), 13)
    part = Bipartition(tuple(range(1, 7)), tuple(range(7, 14)))
    with pytest.raises(ValueError, match="bipartition spans 13 nodes, oracle cap is 12"):
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


def _full_matrix_oracle(state, p):
    """The textbook oracle, kept here as the reference: eigvalsh of the
    whole 2^m x 2^m partial transpose.

    The support oracle of the test names below is negativity_oracle.  It
    diagonalizes the whole block of the 1 + m + m1 m2 basis states that
    the partial transpose can reach, which holds its support; rows that
    are zero for a given state stay in the block."""
    nodes = p.a + p.b
    m = len(nodes)
    m1 = len(p.a)
    dim = 2**m
    v = np.zeros(dim, dtype=complex)
    for t, node in enumerate(nodes):
        v[1 << (m - 1 - t)] = state.amplitudes[node - 1]
    rho = np.outer(v, np.conj(v))
    rho[0, 0] += 1.0 - state.probabilities[[k - 1 for k in nodes]].sum()
    t_rho = rho.reshape((2,) * (2 * m))
    for t in range(m1):
        t_rho = np.swapaxes(t_rho, t, m + t)
    ev = np.linalg.eigvalsh(t_rho.reshape(dim, dim))
    return float(2.0 * abs(ev[ev < -1e-12].sum()))


def _random_state(rng, n):
    amp = rng.normal(size=n) + 1j * rng.normal(size=n)
    amp /= np.linalg.norm(amp)
    return TransferState(0.0, 1, amp, np.abs(amp) ** 2)


def _eigvalsh_sizes(monkeypatch):
    """Record the order of every matrix handed to np.linalg.eigvalsh."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        sizes.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return sizes


@pytest.mark.parametrize("m1, m2", [(m1, m - m1) for m in range(2, 9) for m1 in range(1, m)])
def test_support_oracle_matches_full_matrix_on_every_split(m1, m2):
    # 28 splits of up to 8 nodes: random 8-node states (weight outside
    # A u B unless m1 + m2 = 8, the full cover with sigma = 0), the box at
    # tau = 0 (no amplitude off k0) and at a generic time
    rng = np.random.default_rng(100 * m1 + m2)
    states = [_random_state(rng, 8) for _ in range(4)]
    start = _state(tau=0.0, k0=int(rng.integers(1, 9)))
    assert np.count_nonzero(start.amplitudes) == 1
    states += [start, _state(tau=float(rng.uniform(0.0, 40.0)))]
    for state in states:
        perm = tuple(int(k) for k in rng.permutation(8) + 1)
        part = Bipartition(perm[:m1], perm[m1 : m1 + m2])
        assert negativity_oracle(state, part) == pytest.approx(_full_matrix_oracle(state, part), abs=1e-12)


def test_support_oracle_weight_outside_both_parts(monkeypatch):
    # sigma = 1: rho^{T_A} is the projector on the empty state; the whole
    # 1 + 7 + 12 block goes to eigvalsh as a stack of one
    state = _state(tau=0.0, k0=8)
    part = Bipartition((1, 2, 3), (4, 5, 6, 7))
    assert _full_matrix_oracle(state, part) == 0.0
    sizes = _eigvalsh_sizes(monkeypatch)
    assert negativity_oracle(state, part) == 0.0
    assert sizes == [(1, 20, 20)]


def test_support_oracle_matches_full_matrix_at_ten_nodes():
    state = _random_state(np.random.default_rng(10), 10)
    part = Bipartition((2, 4, 6, 8, 10), (1, 3, 5, 7, 9))
    assert negativity_oracle(state, part) == pytest.approx(_full_matrix_oracle(state, part), abs=1e-12)


def test_support_oracle_builds_no_full_matrix_at_ten_nodes():
    # the 1024 x 1024 partial transpose alone is 16 MB; a warm call holds
    # only the block of 1 + 10 + 5 x 5 = 36 reachable states and its copies
    state = _random_state(np.random.default_rng(10), 10)
    part = Bipartition((2, 4, 6, 8, 10), (1, 3, 5, 7, 9))
    expected = negativity_oracle(state, part)
    tracemalloc.start()
    try:
        assert negativity_oracle(state, part) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_support_oracle_at_the_node_cap():
    # a full 4096 x 4096 eigvalsh takes minutes, so the reference here is
    # the closed form
    state = _random_state(np.random.default_rng(12), 12)
    part = Bipartition(tuple(range(1, 7)), tuple(range(7, 13)))
    assert negativity_oracle(state, part) == pytest.approx(negativity(state, part), abs=1e-12)


@pytest.mark.parametrize("a, b", [((1, 5), (4, 8)), ((1, 2, 3), (4, 5, 6, 7, 8)), ((6,), (2, 7))])
def test_support_oracle_diagonalizes_the_whole_block(monkeypatch, a, b):
    # the empty state, the m single excitations and the m1 m2 A-B pairs
    state = _state(tau=1.3)
    sizes = _eigvalsh_sizes(monkeypatch)
    negativity_oracle(state, Bipartition(a, b))
    m1, m2 = len(a), len(b)
    order = 1 + m1 + m2 + m1 * m2
    assert sizes == [(1, order, order)]


@pytest.mark.parametrize("i, j, bad", [(9, 9, 9), (True, True, True), (1.5, 1.5, 1.5), (1, 1.0, 1.0)])
@pytest.mark.parametrize("route", [concurrence, concurrence_oracle])
def test_concurrence_names_a_bad_node_before_asking_for_two(route, i, j, bad):
    # equal indices that are no node at all used to read "concurrence needs
    # two distinct nodes"; the node check comes first, as in density_element
    state = _state("rect-along", delta=4.3)
    with pytest.raises(ValueError) as err:
        route(state, i, j)
    assert str(err.value) == f"node index {bad!r} must be an integer in 1..4"


@pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda part: pickle.loads(pickle.dumps(part))])
def test_bipartition_copies_keep_read_only_rows(copy_of):
    part = Bipartition((1, 5), (4, 8))
    probs = _state(tau=2.1).probabilities
    twin = copy_of(part)
    assert twin == part and twin is not part
    assert not twin._rows.flags.writeable
    np.testing.assert_array_equal(twin._rows, [0, 4, 3, 7])
    assert twin.weights(probs) == part.weights(probs)


# Every kind at every k0 and these times; at tau = 0 the state sits on k0,
# so sigma = 1 for parts without it and the partial transpose has zero rows.
_STACK_TAUS = (0.0, np.pi, 2.0 * np.pi, 1.3, 37.7)
_STACK_KINDS = {
    "chain2": {},
    "rect-perp": dict(delta=6.2),
    "rect-along": dict(delta=4.3),
    "box": dict(delta1=3.0, delta2=7.0),
}


def _stack_states(kind):
    sys = System(kind, **_STACK_KINDS[kind])
    spec = sys.spectrum()
    return [evolve(spec, k0, tau) for k0 in range(1, sys.n_nodes + 1) for tau in _STACK_TAUS]


@pytest.mark.parametrize("kind", list(_STACK_KINDS))
def test_stacked_concurrence_equals_the_per_state_oracle(kind):
    # every ordered pair of every state, as one stack
    cases = [
        (state, i, j)
        for state in _stack_states(kind)
        for i, j in itertools.permutations(range(1, state.n_nodes + 1), 2)
    ]
    stacked = _concurrence_oracles(
        np.array([density_element(state, i, j) for state, i, j in cases]),
        np.array([state.probabilities[i - 1] for state, i, j in cases]),
        np.array([state.probabilities[j - 1] for state, i, j in cases]),
    )
    per_state = np.array([concurrence_oracle(state, i, j) for state, i, j in cases])
    assert stacked.shape == per_state.shape
    assert np.abs(stacked - per_state).max() <= 1e-15


@pytest.mark.parametrize("kind", list(_STACK_KINDS))
def test_stacked_negativity_equals_the_per_state_oracle(kind):
    # every split (m, m1) the kind has, each on one list of all its states
    # with nodes drawn per state; both routes diagonalize whole blocks
    rng = np.random.default_rng(7)
    states = _stack_states(kind)
    n = states[0].n_nodes
    for m in range(2, n + 1):
        for m1 in range(1, m):
            parts = []
            for _ in states:
                perm = tuple(int(k) for k in rng.permutation(n) + 1)
                parts.append(Bipartition(perm[:m1], perm[m1:m]))
            stacked = _negativity_oracles([(*_restriction(s, p), m1) for s, p in zip(states, parts)])
            per_state = np.array([negativity_oracle(state, part) for state, part in zip(states, parts)])
            assert stacked.shape == per_state.shape
            np.testing.assert_array_equal(stacked, per_state)


def test_grouped_negativity_equals_the_per_state_oracle_on_random_states():
    # 300 random states per node count 2..12, all splits mixed in one list;
    # half have an exactly zero amplitude in A u B, so their blocks have
    # zero rows
    rng = np.random.default_rng(0)
    states, parts = [], []
    for n in range(2, 13):
        for draw in range(300):
            amp = rng.normal(size=n) + 1j * rng.normal(size=n)
            perm = tuple(int(k) for k in rng.permutation(n) + 1)
            m1 = int(rng.integers(1, n))
            m2 = int(rng.integers(1, n - m1 + 1))
            if draw % 2:
                amp[perm[int(rng.integers(m1 + m2))] - 1] = 0.0
            amp /= np.linalg.norm(amp)
            states.append(TransferState(0.0, 1, amp, np.abs(amp) ** 2))
            parts.append(Bipartition(perm[:m1], perm[m1 : m1 + m2]))
    grouped = _negativity_oracles([(*_restriction(s, p), len(p.a)) for s, p in zip(states, parts)])
    per_state = np.array([negativity_oracle(state, part) for state, part in zip(states, parts)])
    np.testing.assert_array_equal(grouped, per_state)


@pytest.mark.parametrize("probs", [np.full(4, 0.25), np.full((4, 7), 0.25)])
def test_weights_name_a_node_beyond_n(probs):
    # a state's probabilities or an (N, K) grid, with no node 5 or 8
    with pytest.raises(ValueError, match="partition '15_48' names a node beyond 4"):
        Bipartition((1, 5), (4, 8)).weights(probs)


def test_partial_transposes_of_a_stack_are_those_of_each_state():
    # the builder on a stack equals it on each state alone, zero rows included
    states = _stack_states("box")
    part = Bipartition((2, 7), (1, 4, 5))
    v, outside = zip(*(_restriction(state, part) for state in states))
    stack = _partial_transposes(np.array(v), np.array(outside), 2)
    assert stack.shape == (len(states), 12, 12)
    for t_rho, v_s, outside_s in zip(stack, v, outside):
        np.testing.assert_array_equal(t_rho, _partial_transposes(v_s[None], outside_s, 2)[0])
    # tau = 0 with k0 = 3 outside A u B: sigma = 1 at <0|0>, all else zero
    empty = stack[2 * len(_STACK_TAUS)]
    assert empty[0, 0] == 1.0 and np.count_nonzero(empty) == 1
