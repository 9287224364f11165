"""Analytic transfer probabilities for the exactly solvable clusters.

These are independent of the spectral evolution code path: each function
evaluates a closed-form expression in tau directly.  Node 1 is the
initial node throughout, and every function accepts a scalar tau or an
array and returns one probability per node (duplicates shared where the
geometry forces equal probabilities).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "two_node_P",
    "rect_P",
    "cube_P",
]


def two_node_P(tau):
    """Two-node exchange: (P_11, P_12) = (cos^2, sin^2)(tau/2)."""
    tau = np.asarray(tau, dtype=float)
    c = np.cos(tau / 2.0)
    s = np.sin(tau / 2.0)
    return c * c, s * s


def rect_P(tau, d13: float, d14: float):
    """Rectangle probabilities (P_11, P_12, P_13, P_14) at couplings d13, d14.

    Node 2 is the near neighbour (unit edge), node 4 sits across the
    d14 edge and node 3 across the diagonal.
    """
    tau = np.asarray(tau, dtype=float)
    c = np.cos(tau)
    c14 = np.cos(d14 * tau)
    c13 = np.cos(d13 * tau)
    prod = c14 * c13
    p11 = 0.25 * (1.0 + c * (c14 + c13) + prod)
    p12 = 0.25 * (1.0 - c * (c14 + c13) + prod)
    p13 = 0.25 * (1.0 + c * (c14 - c13) - prod)
    p14 = 0.25 * (1.0 + c * (-c14 + c13) - prod)
    return p11, p12, p13, p14


def cube_P(tau):
    """Unit-cube probabilities (P_11 .. P_18), initial node at a corner.

    Nodes 2, 4, 5 are edge neighbours (5 along the field axis), 3, 6, 8
    face diagonals and 7 the body diagonal.
    """
    tau = np.asarray(tau, dtype=float)
    r8 = 4.0 * np.sqrt(2.0)
    c1 = np.cos(tau)
    c2 = np.cos(2.0 * tau)
    c3 = np.cos(3.0 * tau)
    c4 = np.cos(4.0 * tau)
    ca = np.cos(tau / r8)
    cb = np.cos(3.0 * tau / r8)
    s1 = np.sin(tau)
    s2 = np.sin(2.0 * tau)
    p11 = (7.0 + c4 + 8.0 * ca * (c1 + c2 * ca) + 4.0 * (c1 + c3) * cb) / 32.0
    p12 = s2 * s2 / 16.0
    p13 = (7.0 + c4 - 8.0 * ca * (c1 - c2 * ca) - 4.0 * (c1 + c3) * cb) / 32.0
    p15 = s1 * s1 / 8.0 * (3.0 + c2 + 4.0 * c1 * cb)
    p16 = (
        3.0
        + c4
        - 2.0 * np.cos((np.sqrt(2.0) - 8.0) * tau / 4.0)
        - 2.0 * np.cos((np.sqrt(2.0) + 8.0) * tau / 4.0)
    ) / 32.0
    p17 = s1 * s1 / 8.0 * (3.0 + c2 - 4.0 * c1 * cb)
    return p11, p12, p13, p12, p15, p16, p17, p16
