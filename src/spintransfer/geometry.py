"""Node layouts and dipolar coupling matrices for small spin clusters.

Lengths are measured in units of the node 1 - node 2 spacing, so every
layout satisfies xi_12 = 1.  A layout is a set of coordinates plus the
direction of the external field; the secular dipolar coupling between
nodes i and j is

    d_ij = (1 - 3 cos^2 theta_ij) / xi_ij^3,

with theta_ij the angle between the internode vector and the field axis.
The reference pair gives d_12 = 1 whenever the field is perpendicular to
the 1-2 segment, which is the case in all built-in layouts.

NodeLayout is the one place a layout is validated: its nodes are
pairwise distinct, so coupling_matrix takes every xi_ij, i != j, as
positive without checking it again.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FIELD_PERPENDICULAR",
    "FIELD_ALONG_B",
    "NodeLayout",
    "CouplingMatrix",
    "delta_to_b",
    "b_to_delta",
    "layout_chain2",
    "layout_rectangle",
    "layout_parallelepiped",
    "coupling_matrix",
]

# Field orientations for the rectangle: normal to its plane, or parallel
# to the side of length b.  Each is also the rectangle's System kind.
FIELD_PERPENDICULAR = "rect-perp"
FIELD_ALONG_B = "rect-along"


@dataclass(frozen=True)
class NodeLayout:
    """Coordinates of N >= 2 nodes plus the unit field axis.

    positions has shape (N, 3); field_axis has shape (3,) and unit norm.
    Every coordinate must be finite, and no two nodes may coincide.  The
    distance between nodes 1 and 2 must be 1, fixing the length unit.
    The checks run in that order; the node checks read one array of
    squared pairwise distances.  Both arrays are stored as read-only
    copies, so a layout cannot be changed after it has been checked, and
    copies and pickles are rebuilt through the constructor.
    """

    positions: np.ndarray
    field_axis: np.ndarray

    def __post_init__(self):
        # read-only copies, so the layout stays the one that was checked
        pos = np.array(self.positions, dtype=float)
        axis = np.array(self.field_axis, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 2:
            raise ValueError("positions must be an (N, 3) array with N >= 2")
        if axis.shape != (3,):
            raise ValueError("field_axis must be a 3-vector")
        if not (np.isfinite(pos).all() and np.isfinite(axis).all()):
            raise ValueError("positions and field_axis must be finite")
        if abs(math.sqrt(axis @ axis) - 1.0) > 1e-12:
            raise ValueError("field_axis must have unit norm")
        # squared distances from one difference array; only the N diagonal
        # entries may be zero
        diff = pos[:, None, :] - pos[None, :, :]
        sq = (diff * diff).sum(axis=-1)
        if np.count_nonzero(sq == 0.0) > pos.shape[0]:
            raise ValueError("node positions must be pairwise distinct")
        if abs(math.sqrt(sq[0, 1]) - 1.0) > 1e-12:
            raise ValueError("distance between nodes 1 and 2 must equal 1")
        pos.flags.writeable = axis.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "field_axis", axis)

    def __reduce__(self):
        return type(self), (self.positions, self.field_axis)

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric matrix of dimensionless couplings d_ij, zero diagonal.

    d is stored as a read-only copy, so the matrix stays the one that was
    checked; copies and pickles are rebuilt through the constructor.
    """

    d: np.ndarray

    def __post_init__(self):
        d = np.array(self.d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("coupling matrix must be square")
        if not (d == d.T).all() or d.diagonal().any():
            raise ValueError("coupling matrix must be symmetric with zero diagonal")
        d.flags.writeable = False
        object.__setattr__(self, "d", d)

    def __reduce__(self):
        return type(self), (self.d,)

    @property
    def n_nodes(self) -> int:
        return self.d.shape[0]


# The coupling-parameter domain, delta = b**-3 in [1e-9, 1e9], is the set
# of sides b in [1e-3, 1e3]; every closed-form coupling row is finite there,
# and delta_to_b and b_to_delta map each edge inside the other domain.
_DELTA_DOMAIN = (1e-9, 1e9)
_SIDE_DOMAIN = (1e-3, 1e3)


def _check_domain(names, values, domain=_DELTA_DOMAIN) -> None:
    """Require real numbers, not bools, in the coupling domain (or, given
    _SIDE_DOMAIN, the side domain): one scalar called names, or the rows
    of a (G, P) array or nested sequence whose column p is called names[p].
    ValueError names the argument and the first value outside the domain.
    """
    lo, hi = domain
    if isinstance(names, str):
        names, values = (names,), [[values]]
    elif isinstance(values, np.ndarray):
        if values.dtype.kind in "iuf" and ((values >= lo) & (values <= hi)).all():
            return
        values = values.tolist()
    for row in values:
        for name, value in zip(names, row):
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not lo <= value <= hi:
                raise ValueError(f"{name} must be a real number in [{lo:g}, {hi:g}], got {value!r}")


def delta_to_b(delta: float) -> float:
    """Side b = delta**(-1/3) in [1e-3, 1e3] of a coupling parameter delta in [1e-9, 1e9]."""
    _check_domain("delta", delta)
    return float(delta) ** (-1.0 / 3.0)


def b_to_delta(b: float) -> float:
    """Coupling parameter delta = b**(-3) in [1e-9, 1e9] of a side b in [1e-3, 1e3]."""
    _check_domain("b", b, _SIDE_DOMAIN)
    return float(b) ** (-3.0)


def layout_chain2() -> NodeLayout:
    """Two nodes at unit distance, field perpendicular to the segment."""
    return NodeLayout(
        positions=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        field_axis=np.array([0.0, 0.0, 1.0]),
    )


def layout_rectangle(b: float, field_mode: str) -> NodeLayout:
    """Rectangle of side lengths 1 (nodes 1-2) and b (nodes 1-4).

    Nodes are numbered around the rectangle with node 3 diagonal from
    node 1.  field_mode selects FIELD_PERPENDICULAR (field normal to the
    plane) or FIELD_ALONG_B (field parallel to the 1-4 side); the field
    axis is +z in both embeddings, so the rectangle sits in the x-y
    plane for the former and in the x-z plane for the latter.  b must be a
    real number in [1e-3, 1e3].
    """
    _check_domain("b", b, _SIDE_DOMAIN)
    if field_mode == FIELD_PERPENDICULAR:
        pos = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, b, 0.0], [0.0, b, 0.0]]
    elif field_mode == FIELD_ALONG_B:
        pos = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, b], [0.0, 0.0, b]]
    else:
        raise ValueError(f"unknown field_mode: {field_mode!r}")
    return NodeLayout(positions=np.array(pos), field_axis=np.array([0.0, 0.0, 1.0]))


def layout_parallelepiped(b1: float, b2: float) -> NodeLayout:
    """Right parallelepiped: base rectangle 1-2-3-4 (sides 1 and b1) in
    the x-y plane, nodes 5-8 the same rectangle shifted by b2 along +z.

    The field axis is +z, parallel to the 1-5 edge of length b2.  Both
    sides must be real numbers in [1e-3, 1e3].
    """
    _check_domain("b1", b1, _SIDE_DOMAIN)
    _check_domain("b2", b2, _SIDE_DOMAIN)
    base = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, b1, 0.0], [0.0, b1, 0.0]]
    )
    top = base + np.array([0.0, 0.0, b2])
    return NodeLayout(
        positions=np.vstack([base, top]), field_axis=np.array([0.0, 0.0, 1.0])
    )


def coupling_matrix(layout: NodeLayout) -> CouplingMatrix:
    """Dimensionless couplings d_ij = (1 - 3 cos^2 theta_ij) / xi_ij^3.

    A NodeLayout has pairwise distinct nodes, so every xi_ij, i != j, is
    positive; the diagonal is computed at xi = 1 and then zeroed.
    """
    pos = layout.positions
    diff = pos[None, :, :] - pos[:, None, :]
    xi = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(xi, 1.0)
    cos2 = (diff @ layout.field_axis) ** 2 / xi**2
    d = (1.0 - 3.0 * cos2) / xi**3
    np.fill_diagonal(d, 0.0)
    # exact symmetry, so CouplingMatrix validation never trips on roundoff
    d = (d + d.T) / 2.0
    return CouplingMatrix(d=d)
