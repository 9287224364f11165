"""Single-excitation matrix assembly and the two diagonalization routes:
the numeric eigh and System.spectrum() from the closed-form row."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintransfer.geometry import (
    FIELD_ALONG_B,
    FIELD_PERPENDICULAR,
    b_to_delta,
    coupling_matrix,
    layout_rectangle,
)
from spintransfer.hamiltonian import _SIGN_VECTORS, _sign_spectrum, build_D, diagonalize, sign_basis
from spintransfer.search import KINDS, System, coupling_rows

sides = st.floats(min_value=0.25, max_value=4.0, allow_nan=False)
modes = st.sampled_from([FIELD_PERPENDICULAR, FIELD_ALONG_B])


def _rect_D(b, mode):
    return build_D(coupling_matrix(layout_rectangle(b, mode)))


def test_build_D_diagonal_and_off_diagonal():
    c = coupling_matrix(layout_rectangle(1.5, FIELD_PERPENDICULAR))
    D = build_D(c)
    for n in range(4):
        assert D[n, n] == pytest.approx(2.0 * (c.d[n].sum()), rel=1e-14)
    off = ~np.eye(4, dtype=bool)
    assert np.array_equal(D[off], c.d[off])


def test_diagonalize_orders_and_reconstructs():
    D = _rect_D(0.8, FIELD_ALONG_B)
    spec = diagonalize(D)
    lam, u = spec.eigenvalues, spec.eigenvectors
    assert np.all(np.diff(lam) >= 0)
    assert np.allclose(u.T @ u, np.eye(4), atol=1e-13)
    assert np.allclose(u @ np.diag(lam) @ u.T, D, atol=1e-12)


def _assert_spectrum_matches_numeric(system):
    # System.spectrum() (sign basis, closed-form row) against eigh of the layout
    D = build_D(coupling_matrix(system.layout()))
    closed = system.spectrum()
    assert np.allclose(closed.eigenvalues, diagonalize(D).eigenvalues, atol=1e-10)
    u, lam = closed.eigenvectors, closed.eigenvalues
    assert np.allclose(u @ np.diag(lam) @ u.T, D, atol=1e-10)


@settings(max_examples=150, deadline=None)
@given(b=sides, mode=modes)
def test_analytic_rectangle_matches_numeric(b, mode):
    _assert_spectrum_matches_numeric(System(mode, delta=b_to_delta(b)))


@settings(max_examples=75, deadline=None)
@given(b1=sides, b2=sides)
def test_analytic_parallelepiped_matches_numeric(b1, b2):
    _assert_spectrum_matches_numeric(System("box", delta1=b_to_delta(b1), delta2=b_to_delta(b2)))


def test_analytic_chain2_matches_numeric():
    _assert_spectrum_matches_numeric(System("chain2"))


def test_analytic_eigenvalues_frozen():
    # Recorded from the per-geometry closed forms that the sign-basis
    # formula replaced.
    system = System("rect-along", delta=b_to_delta(1.3))
    assert np.allclose(
        system.spectrum().eigenvalues,
        [-1.9315346188455864, -0.5119456863046249, -0.33261022886265856, 1.889129923712447],
        rtol=0.0,
        atol=1e-12,
    )
    system = System("box", delta1=b_to_delta(0.7), delta2=b_to_delta(1.2))
    assert np.allclose(
        system.spectrum().eigenvalues,
        [
            1.1449112195885434, 1.8301424069095251, 2.320889555478338, 3.4363780446163092,
            5.141647248102079, 7.6477983025378675, 7.786680783598685, 11.479810052703943,
        ],
        rtol=0.0,
        atol=1e-12,
    )


def test_analytic_rectangle_survives_degeneracy():
    # b=1 collapses two eigenvalues; reconstruction must still hold
    system = System(FIELD_PERPENDICULAR, delta=b_to_delta(1.0))
    D = build_D(coupling_matrix(system.layout()))
    spec = system.spectrum()
    u, lam = spec.eigenvectors, spec.eigenvalues
    assert np.allclose(u @ np.diag(lam) @ u.T, D, atol=1e-12)


def test_sign_basis_small_cases():
    b1 = sign_basis(1)
    assert np.allclose(b1, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    b3 = sign_basis(3)
    assert b3.shape == (8, 8)
    assert np.allclose(np.abs(b3), 1.0 / (2.0 * np.sqrt(2.0)))


@settings(max_examples=10, deadline=None)
@given(s=st.integers(min_value=1, max_value=3))
def test_sign_basis_orthonormal_rows(s):
    b = sign_basis(s)
    assert b.shape == (2**s, 2**s)
    assert np.allclose(b @ b.T, np.eye(2**s), atol=1e-12)


def test_sign_basis_rejects_out_of_range():
    with pytest.raises(ValueError):
        sign_basis(0)
    # only the pair, rectangle and box sizes are built
    with pytest.raises(ValueError, match=r"s must be an integer in \[1, 3\], got 4"):
        sign_basis(4)
    # a bool is not a dimension, although True == 1
    with pytest.raises(ValueError, match="got True"):
        sign_basis(True)


def test_parallelepiped_eigenvectors_are_sign_patterns():
    # all eight eigenvectors of the box have entries +-1/sqrt(8)
    spec = System("box", delta1=b_to_delta(0.7), delta2=b_to_delta(1.2)).spectrum()
    assert np.allclose(np.abs(spec.eigenvectors), 1.0 / (2.0 * np.sqrt(2.0)), atol=1e-14)


def test_diagonalize_stack_equals_single_calls():
    # eigh of a (G, N, N) stack gives each matrix the spectrum it gets alone
    D = np.stack([_rect_D(b, mode) for b in (0.4, 1.0, 2.7) for mode in (FIELD_PERPENDICULAR, FIELD_ALONG_B)])
    stack = diagonalize(D)
    assert stack.n_nodes == 4
    assert stack.eigenvalues.shape == (6, 4) and stack.eigenvectors.shape == (6, 4, 4)
    for i, matrix in enumerate(D):
        single = diagonalize(matrix)
        assert np.array_equal(stack.eigenvalues[i], single.eigenvalues)
        assert np.array_equal(stack.eigenvectors[i], single.eigenvectors)


@pytest.mark.parametrize("kind", list(KINDS))
def test_sign_spectrum_table_equals_the_row_formula(kind):
    # the tabulated 2 + u_kj / u_1j gives the eigenvalues bit for bit as
    # the formula evaluated on every call did
    rng = np.random.default_rng(7)
    params = rng.uniform(0.1, 15.0, (50, len(KINDS[kind][1])))
    for row in coupling_rows(kind, params):
        u = _SIGN_VECTORS[len(row)]
        lam = row @ (2.0 + u / u[0])
        order = np.argsort(lam, kind="stable")
        spec = _sign_spectrum(row)
        assert np.array_equal(spec.eigenvalues, lam[order])
        assert np.array_equal(spec.eigenvectors, u[:, order])
