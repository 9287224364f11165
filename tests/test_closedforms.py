"""Analytic probability formulas: internal identities and spectral-path agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eigh_spectrum
from spintransfer.closedforms import cube_P, rect_P, two_node_P
from spintransfer.dynamics import amplitude_grid, tau_grid
from spintransfer.geometry import coupling_matrix
from spintransfer.search import KINDS, System, coupling_rows

taus = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
couplings = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)

GRID = tau_grid(30.0, 0.001)


def test_two_node_reference_points():
    assert two_node_P(0.0) == (1.0, 0.0)
    p11, p12 = two_node_P(np.pi)
    assert p11 == pytest.approx(0.0, abs=1e-30)
    assert p12 == pytest.approx(1.0, abs=1e-15)
    assert two_node_P(np.pi / 2.0)[0] == pytest.approx(0.5, abs=1e-15)


def test_rect_starts_localized():
    p = rect_P(0.0, 0.3, -1.7)
    assert p[0] == 1.0 and p[1] == p[2] == p[3] == 0.0


@settings(max_examples=200, deadline=None)
@given(tau=taus, d13=couplings, d14=couplings)
def test_rect_normalization_identity(tau, d13, d14):
    assert sum(rect_P(tau, d13, d14)) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(tau=taus, d13=couplings)
def test_rect_degenerate_consistency(tau, d13):
    # at d14 = +-1 nodes 2 and 4 are equivalent, and P_12 = sin(tau)**2 / 4
    for d14 in (1.0, -1.0):
        p11, p12, p13, p14 = rect_P(tau, d13, d14)
        assert p11 + p12 + p13 + p14 == pytest.approx(1.0, abs=1e-12)
        assert p12 == pytest.approx(p14, abs=1e-12)
        assert p12 == pytest.approx(np.sin(tau) ** 2 / 4.0, abs=1e-12)
        assert p12 <= 0.25 + 1e-12


@settings(max_examples=200, deadline=None)
@given(tau=taus)
def test_cube_normalization_and_bounds(tau):
    p = cube_P(tau)
    assert sum(p) == pytest.approx(1.0, abs=1e-12)
    assert p[1] <= 1.0 / 16.0 + 1e-12
    assert p[3] <= 1.0 / 16.0 + 1e-12
    assert p[5] <= 0.25 + 1e-12
    assert p[7] <= 0.25 + 1e-12


def test_cube_starts_localized():
    p = cube_P(0.0)
    assert p[0] == pytest.approx(1.0, abs=1e-15)
    assert max(p[1:]) == pytest.approx(0.0, abs=1e-15)


def _spectral(system):
    """P_{1 m} on GRID through the eigh of the system's layout."""
    return np.abs(amplitude_grid(eigh_spectrum(system), 1, 30.0, 0.001)) ** 2


def test_two_node_matches_spectral_path():
    probs = _spectral(System("chain2"))
    assert np.abs(probs - np.stack(two_node_P(GRID))).max() < 1e-10


@pytest.mark.parametrize("kind,delta", [("rect-perp", 4.3), ("rect-perp", 0.37), ("rect-along", 4.3), ("rect-along", 2.0)])
def test_rect_matches_spectral_path(kind, delta):
    sys = System(kind, delta=delta)
    d = coupling_matrix(sys.layout()).d
    expected = np.stack(rect_P(GRID, d[0, 2], d[0, 3]))
    assert np.abs(_spectral(sys) - expected).max() < 1e-10


@pytest.mark.parametrize("kind,delta", [("rect-perp", 1.0), ("rect-along", 0.5)])
def test_degenerate_rect_matches_spectral_path(kind, delta):
    # b = 1 perpendicular and b = 2**(1/3) along both sit at |d14| = 1
    sys = System(kind, delta=delta)
    d = coupling_matrix(sys.layout()).d
    assert abs(abs(d[0, 3]) - 1.0) < 1e-12
    expected = np.stack(rect_P(GRID, d[0, 2], d[0, 3]))
    assert np.abs(_spectral(sys) - expected).max() < 1e-10
    # nodes 2 and 4 are equivalent, with P = sin(tau)**2 / 4 <= 1/4
    assert np.abs(expected[1] - expected[3]).max() <= 1e-12
    assert np.abs(expected[1] - np.sin(GRID) ** 2 / 4.0).max() <= 1e-12


def test_cube_matches_spectral_path():
    expected = np.stack(cube_P(GRID))
    assert np.abs(_spectral(System("box", delta1=1.0, delta2=1.0)) - expected).max() < 1e-10


@pytest.mark.parametrize(
    "kind, deltas, expected, bound",
    [
        ("chain2", (), lambda g, d: two_node_P(g), 1e-14),
        ("rect-perp", (4.3,), lambda g, d: rect_P(g, d[2], d[3]), 1e-14),
        ("rect-along", (2.0,), lambda g, d: rect_P(g, d[2], d[3]), 1e-14),
        ("rect-perp", (1.0,), lambda g, d: rect_P(g, d[2], d[3]), 1e-14),
        ("rect-along", (0.5,), lambda g, d: rect_P(g, d[2], d[3]), 1e-14),
        ("box", (1.0, 1.0), lambda g, d: cube_P(g), 1e-13),
    ],
)
def test_probability_grid_matches_closed_forms(kind, deltas, expected, bound):
    # the sign-basis kernel behind System.probability_grid, to T = 100,
    # with the closed forms fed the same coupling row
    grid = tau_grid(100.0, 0.01)
    system = System(kind, **dict(zip(KINDS[kind][1], deltas)))
    d = coupling_rows(kind, [deltas])[0]
    assert np.abs(system.probability_grid(grid) - np.stack(expected(grid, d))).max() <= bound
