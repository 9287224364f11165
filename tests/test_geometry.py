"""Layouts, the delta parameterization, and dipolar couplings."""

import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintransfer.geometry import (
    FIELD_ALONG_B,
    FIELD_PERPENDICULAR,
    CouplingMatrix,
    NodeLayout,
    b_to_delta,
    coupling_matrix,
    delta_to_b,
    layout_chain2,
    layout_parallelepiped,
    layout_rectangle,
)

sides = st.floats(min_value=0.2, max_value=5.0, allow_nan=False)


def test_delta_to_b_frozen_value():
    assert delta_to_b(4.3) == pytest.approx(0.61495572381348684, abs=1e-16)


def test_delta_b_round_trip():
    for delta in (0.1, 0.5, 1.0, 4.3, 26.2):
        assert b_to_delta(delta_to_b(delta)) == pytest.approx(delta, rel=1e-14)


def test_delta_to_b_rejects_nonpositive():
    for value in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=re.escape(f"delta must be a real number in [1e-09, 1e+09], got {value!r}")):
            delta_to_b(value)
        with pytest.raises(ValueError, match=re.escape(f"b must be a real number in [0.001, 1000], got {value!r}")):
            b_to_delta(value)


@pytest.mark.parametrize("side", [0.0, -1.0, np.nan, np.inf])
def test_layouts_reject_non_finite_and_nonpositive_sides(side):
    # a NaN side gave NaN positions, an infinite one inf positions
    domain = f"must be a real number in [0.001, 1000], got {side!r}"
    for mode in (FIELD_PERPENDICULAR, FIELD_ALONG_B):
        with pytest.raises(ValueError, match=re.escape(f"b {domain}")):
            layout_rectangle(side, mode)
    with pytest.raises(ValueError, match=re.escape(f"b1 {domain}")):
        layout_parallelepiped(side, 1.0)
    with pytest.raises(ValueError, match=re.escape(f"b2 {domain}")):
        layout_parallelepiped(1.0, side)


def test_conversions_stay_inside_the_domain_at_its_edges():
    # b = delta**(-1/3) maps [1e-9, 1e9] onto [1e-3, 1e3]; each edge and
    # its round trip land inside the other domain, never a rounding past it
    assert [delta_to_b(x) for x in (1e-9, 1e9)] == [999.9999999999995, 0.0010000000000000005]
    assert [b_to_delta(y) for y in (1e-3, 1e3)] == [999999999.9999999, 1e-09]
    for x in (1e-9, 1e9):
        assert 1e-9 <= b_to_delta(delta_to_b(x)) <= 1e9
    for y in (1e-3, 1e3):
        assert 1e-3 <= delta_to_b(b_to_delta(y)) <= 1e3
    assert [b_to_delta(delta_to_b(x)) for x in (1e-9, 1e9)] == [1.0000000000000013e-09, 999999999.9999987]
    assert [delta_to_b(b_to_delta(y)) for y in (1e-3, 1e3)] == [0.0010000000000000005, 999.9999999999995]


def test_chain2_coupling_is_unity():
    c = coupling_matrix(layout_chain2())
    assert c.d.shape == (2, 2)
    assert c.d[0, 1] == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(b=sides)
def test_rectangle_perpendicular_couplings(b):
    d = coupling_matrix(layout_rectangle(b, FIELD_PERPENDICULAR)).d
    delta = b_to_delta(b)
    diag = (1.0 + b * b) ** -1.5
    assert d[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert d[0, 3] == pytest.approx(delta, rel=1e-12)
    assert d[0, 2] == pytest.approx(diag, rel=1e-12)
    # opposite sides and diagonals pair up
    assert d[1, 2] == pytest.approx(d[0, 3], rel=1e-12)
    assert d[1, 3] == pytest.approx(d[0, 2], rel=1e-12)
    assert d[2, 3] == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(b=sides)
def test_rectangle_along_couplings(b):
    d = coupling_matrix(layout_rectangle(b, FIELD_ALONG_B)).d
    b2 = b * b
    assert d[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert d[0, 3] == pytest.approx(-2.0 * b_to_delta(b), rel=1e-12)
    assert d[0, 2] == pytest.approx((1.0 - 3.0 * b2 / (1.0 + b2)) * (1.0 + b2) ** -1.5, rel=1e-12, abs=1e-12)


def test_rectangle_along_frozen_diagonal():
    d = coupling_matrix(layout_rectangle(delta_to_b(4.3), FIELD_ALONG_B)).d
    assert d[0, 2] == pytest.approx(0.10927602775685444, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(b1=sides, b2=sides)
def test_parallelepiped_couplings(b1, b2):
    d = coupling_matrix(layout_parallelepiped(b1, b2)).d
    q1, q2 = b1 * b1, b2 * b2
    expected = {
        (0, 1): 1.0,
        (0, 2): (1.0 + q1) ** -1.5,
        (0, 3): b1**-3,
        (0, 4): -2.0 * b2**-3,
        (0, 5): (1.0 - 3.0 * q2 / (1.0 + q2)) * (1.0 + q2) ** -1.5,
        (0, 6): (1.0 - 3.0 * q2 / (1.0 + q1 + q2)) * (1.0 + q1 + q2) ** -1.5,
        (0, 7): (1.0 - 3.0 * q2 / (q1 + q2)) * (q1 + q2) ** -1.5,
    }
    for (i, j), value in expected.items():
        assert d[i, j] == pytest.approx(value, rel=1e-12, abs=1e-12)


def test_parallelepiped_frozen_field_coupling():
    # height b2 with delta2 = 26.2 gives the strong negative on-axis coupling
    d = coupling_matrix(layout_parallelepiped(delta_to_b(9.0), delta_to_b(26.2))).d
    assert d[0, 4] == pytest.approx(-52.4, rel=1e-12)


def _norm_and_eye_couplings(layout):
    """d_ij by the np.linalg.norm and identity-mask recipe coupling_matrix
    used before it relied on NodeLayout's distinct nodes."""
    pos = layout.positions
    diff = pos[None, :, :] - pos[:, None, :]
    xi = np.linalg.norm(diff, axis=-1)
    off = ~np.eye(pos.shape[0], dtype=bool)
    xi_safe = np.where(off, xi, 1.0)
    cos2 = (diff @ layout.field_axis) ** 2 / xi_safe**2
    d = np.where(off, (1.0 - 3.0 * cos2) / xi_safe**3, 0.0)
    return (d + d.T) / 2.0


domain_sides = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(b=st.one_of(sides, domain_sides), mode=st.sampled_from([FIELD_PERPENDICULAR, FIELD_ALONG_B]))
def test_rectangle_couplings_bit_identical_to_the_norm_recipe(b, mode):
    layout = layout_rectangle(b, mode)
    assert np.array_equal(coupling_matrix(layout).d, _norm_and_eye_couplings(layout))


@settings(max_examples=200, deadline=None)
@given(b1=st.one_of(sides, domain_sides), b2=st.one_of(sides, domain_sides))
def test_box_couplings_bit_identical_to_the_norm_recipe(b1, b2):
    layout = layout_parallelepiped(b1, b2)
    assert np.array_equal(coupling_matrix(layout).d, _norm_and_eye_couplings(layout))


def test_layout_names_the_first_failed_check():
    # the checks run in order: unit axis, distinct nodes, then the 1-2 unit
    z = np.array([0.0, 0.0, 1.0])
    far_twins = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [3.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="node positions must be pairwise distinct"):
        NodeLayout(far_twins, z)
    with pytest.raises(ValueError, match="field_axis must have unit norm"):
        NodeLayout(far_twins, 2.0 * z)
    with pytest.raises(ValueError, match="node positions must be pairwise distinct"):
        NodeLayout(2.0 * far_twins, z)
    with pytest.raises(ValueError, match="distance between nodes 1 and 2 must equal 1"):
        NodeLayout(2.0 * far_twins[:3], z)


def test_layout_cannot_change_after_its_checks():
    # coupling_matrix relies on the checked layout: distinct nodes, unit axis
    positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 2.0, 0.0]])
    axis = np.array([0.0, 0.0, 1.0])
    layout = NodeLayout(positions, axis)
    positions[2] = positions[1]
    axis[2] = 2.0
    assert np.array_equal(layout.positions[2], [1.0, 2.0, 0.0]) and layout.field_axis[2] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        layout.positions[2] = layout.positions[1]
    with pytest.raises(ValueError, match="read-only"):
        layout.field_axis[2] = 2.0



def _copies(value):
    return copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))


def test_layout_and_coupling_copies_are_rebuilt_read_only():
    # copies and pickles of both held writeable arrays
    layout = layout_parallelepiped(0.7, 1.3)
    couplings = coupling_matrix(layout)
    for other in _copies(layout):
        assert np.array_equal(other.positions, layout.positions)
        assert np.array_equal(other.field_axis, layout.field_axis)
        assert np.array_equal(coupling_matrix(other).d, couplings.d)
        for array in (other.positions, other.field_axis):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5.0
    for other in (couplings, *_copies(couplings)):
        assert np.array_equal(other.d, couplings.d) and not other.d.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            other.d[0, 1] = 5.0


def test_coupling_matrix_keeps_the_checked_copy():
    # the checked d was the caller's array, so a later edit reached build_D
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    couplings = CouplingMatrix(d)
    d[0, 1] = 5.0
    assert np.array_equal(couplings.d, [[0.0, 1.0], [1.0, 0.0]])

@pytest.mark.parametrize(
    "d, message",
    [
        (np.zeros((2, 3)), "coupling matrix must be square"),
        (np.array([[0.0, 1.0], [2.0, 0.0]]), "must be symmetric with zero diagonal"),
        (np.array([[1.0, 1.0], [1.0, 0.0]]), "must be symmetric with zero diagonal"),
        (np.array([[0.0, np.nan], [np.nan, 0.0]]), "must be symmetric with zero diagonal"),
    ],
)
def test_coupling_matrix_rejects_bad_arrays(d, message):
    with pytest.raises(ValueError, match=message):
        CouplingMatrix(d)


def test_coupling_matrix_symmetry_and_zero_diagonal():
    d = coupling_matrix(layout_parallelepiped(0.7, 1.3)).d
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0.0)


def test_magic_angle_nulls_coupling():
    # third node along a direction with cos^2(theta) = 1/3 from the field axis
    positions = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [2.0 * np.sqrt(2.0 / 3.0), 0.0, 2.0 / np.sqrt(3.0)],
        ]
    )
    layout = NodeLayout(positions, np.array([0.0, 0.0, 1.0]))
    d = coupling_matrix(layout).d
    assert abs(d[0, 2]) < 1e-12


def test_layout_rejects_coincident_nodes():
    positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        NodeLayout(positions, np.array([0.0, 0.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_layout_rejects_non_finite_coordinates(bad):
    positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, bad, 0.0]])
    with pytest.raises(ValueError, match="must be finite"):
        NodeLayout(positions, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="must be finite"):
        NodeLayout(positions[:2], np.array([0.0, bad, 1.0]))


def test_layout_rejects_non_unit_axis():
    positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        NodeLayout(positions, np.array([0.0, 0.0, 2.0]))


def test_layout_rejects_unscaled_first_edge():
    positions = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        NodeLayout(positions, np.array([0.0, 0.0, 1.0]))


def test_rectangle_rejects_unknown_mode():
    with pytest.raises(ValueError):
        layout_rectangle(1.0, "diagonal")
