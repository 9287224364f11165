"""Transfer-window detection and min-max parameter sweeps.

A System bundles a cluster geometry with the initial node.  fp_value and
fn_value evaluate the two sweep objectives on a uniform time grid: the
worst-case best transfer probability over all target nodes, and the
worst-case best pairwise negativity over all node pairs.  sweep1d and
sweep2d scan them over the coupling-strength parameter delta = b**-3,
and hpst_times locates the per-node arrival peaks and the transfer
window (the time by which every node has been reached with probability
at least P0).

All of them evaluate P(tau) through dynamics.sign_probability_grid from
the closed-form first coupling rows of coupling_rows, and
System.spectrum() takes the sign basis with the eigenvalues of the same
row, so no layout, coupling matrix or eigensolver is built here.
System.layout() stays the reference geometry that verify and the tests
diagonalize numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .dynamics import (
    _MAX_GRID_POINTS,
    _check_angles,
    _check_finite,
    _check_node,
    _sign_curvature,
    _sign_rounding,
    _uniform,
    sign_probability_grid,
    tau_grid,
)
from .entanglement import negativity_grid
from .geometry import (
    FIELD_ALONG_B,
    FIELD_PERPENDICULAR,
    _check_domain,
    delta_to_b,
    layout_chain2,
    layout_parallelepiped,
    layout_rectangle,
)
from .hamiltonian import Spectrum, _sign_spectrum

__all__ = [
    "DISPLAY_MARGIN",
    "KINDS",
    "System",
    "PeakRecord",
    "SweepResult",
    "coupling_rows",
    "fp_value",
    "fn_value",
    "hpst_times",
    "sweep1d",
    "sweep2d",
]

# Every System kind: its node count and the coupling parameters it
# requires.  A rectangle's kind is its field mode.
KINDS = {
    "chain2": (2, ()),
    FIELD_PERPENDICULAR: (4, ("delta",)),
    FIELD_ALONG_B: (4, ("delta",)),
    "box": (8, ("delta1", "delta2")),
}


def _b2(delta):
    """b**2 of the side b = delta**(-1/3)."""
    return delta ** (-2.0 / 3.0)


def _dipolar(across, along):
    """(1 - 3 cos^2 theta) / xi^3 from the squared offsets across and along the field."""
    return (across - 2.0 * along) / (across + along) ** 2.5


def _box_row(delta1, delta2):
    """Base nodes 2-4 lie across the field; top nodes 5-8 sit one side b2 along it."""
    sq1, sq2 = _b2(delta1), _b2(delta2)
    top = (-2.0 * delta2, _dipolar(1.0, sq2), _dipolar(1.0 + sq1, sq2), _dipolar(sq1, sq2))
    return (1.0, (1.0 + sq1) ** -1.5, delta1, *top)


# d_12 .. d_1N of each kind from its parameter columns, in the node
# numbering of its layout (d_12 = 1 throughout; delta = b**-3 itself is
# the coupling across a side b perpendicular to the field).
_ROW_FORMS = {
    "chain2": lambda: (1.0,),
    FIELD_PERPENDICULAR: lambda delta: (1.0, (1.0 + _b2(delta)) ** -1.5, delta),
    FIELD_ALONG_B: lambda delta: (1.0, _dipolar(1.0, _b2(delta)), -2.0 * delta),
    "box": _box_row,
}


def coupling_rows(kind: str, params) -> np.ndarray:
    """First coupling rows (d_11 = 0, d_12, ..., d_1N) of G clusters, shape (G, N).

    params has shape (G, P): one row per cluster holding the kind's
    parameters (KINDS) in order, so (G, 0) for 'chain2'.  The closed forms
    equal coupling_matrix(System(kind, ...).layout()).d[0] up to roundoff
    and are elementwise, so a row does not depend on the others.  An
    unknown kind, a params array of another shape, or a parameter that is
    not a real number in the coupling domain [1e-9, 1e9] raises
    ValueError (naming the kind, the parameter and the first such value);
    inside the domain every row is finite.
    """
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown system kind {kind!r}")
    n_nodes, names = KINDS[kind]
    array = np.asarray(params)
    if array.ndim != 2 or array.shape[1] != len(names):
        raise ValueError(
            f"{kind} params must have shape (G, {len(names)}) for {names}, got {array.shape}"
        )
    _check_domain([f"{kind} {name}" for name in names], params)
    rows = np.zeros((array.shape[0], n_nodes))
    for g, column in enumerate(_ROW_FORMS[kind](*array.astype(float, copy=False).T), start=1):
        rows[:, g] = column
    return rows


# Points x N x tau samples of the probability block a sweep evaluates at
# once; a point whose own grid is larger takes a block by itself.
_BLOCK_ELEMENTS = 2**16

# An FP sweep's coarse pass evaluates every _COARSE_STRIDE-th tau sample
# (and the last); 8 to 10 evaluated the fewest samples on the acceptance
# sweeps.
_COARSE_STRIDE = 10

# Cap on a sweep's total work, points x tau samples x N: at the measured
# 9e7 samples/s, about two minutes.
_MAX_SWEEP_WORK = 10**10

# Interval membership uses fp >= p0 - margin.  Window endpoints are
# conventionally quoted at two decimals, so a grid point whose best
# probability rounds to the threshold (e.g. 0.8953 printing as 0.90)
# belongs to the window.  margin=0 gives the strict cut.
DISPLAY_MARGIN = 0.005


@dataclass(frozen=True)
class System:
    """A cluster geometry plus the initially excited node.

    kind selects the layout: 'chain2' (two nodes, no parameters),
    'rect-perp' / 'rect-along' (FIELD_PERPENDICULAR / FIELD_ALONG_B:
    rectangle with side b = delta**(-1/3), field perpendicular to the
    plane or along side b) and 'box' (rectangular parallelepiped, delta1
    for the in-plane side and delta2 for the height).  The coupling
    parameters a kind requires (KINDS) must be real numbers, not bools,
    in the coupling domain [1e-9, 1e9] (sides b in [1e-3, 1e3]); the
    others must be None.
    """

    kind: str
    delta: float | None = None
    delta1: float | None = None
    delta2: float | None = None
    k0: int = 1

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ValueError(f"unknown system kind {self.kind!r}")
        need = KINDS[self.kind][1]
        for name in ("delta", "delta1", "delta2"):
            value = getattr(self, name)
            if value is None and name in need:
                raise ValueError(f"{self.kind} requires {name}")
            if value is not None:
                if name not in need:
                    raise ValueError(f"{self.kind} takes no {name}")
                _check_domain(name, value)
        _check_node(self.k0, self.n_nodes)
        # the closed-form first coupling row, shape (1, N), built once
        object.__setattr__(self, "_row", coupling_rows(self.kind, [[getattr(self, n) for n in need]]))
        self._row.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return KINDS[self.kind][0]

    def layout(self):
        """The node layout, the reference geometry behind coupling_rows."""
        if self.kind == "chain2":
            return layout_chain2()
        if self.kind == "box":
            return layout_parallelepiped(delta_to_b(self.delta1), delta_to_b(self.delta2))
        return layout_rectangle(delta_to_b(self.delta), self.kind)

    def spectrum(self) -> Spectrum:
        """Spectrum of D: the sign basis, with eigenvalues from the
        closed-form coupling row (no layout and no eigensolver).  It agrees
        with the numeric eigh of the layout's coupling matrix to 1e-12 of
        max|D|, eigenvalues compared sorted."""
        return _sign_spectrum(self._row[0])

    def probability_grid(self, taus: np.ndarray) -> np.ndarray:
        """P_{k0 m}(tau_i) as an (N, len(taus)) array, from the closed-form
        coupling row through dynamics.sign_probability_grid.  taus must be
        a 1-D array of real numbers (not bools, strings or complex numbers);
        every tau must be finite, and so must every angle d_1g tau."""
        taus = np.asarray(taus)
        if taus.ndim != 1 or taus.dtype.kind not in "iuf":
            raise ValueError(f"taus must be a 1-D real array, got {taus.dtype}, shape {taus.shape}")
        tau_max = float(np.abs(taus).max(initial=0.0))
        if not math.isfinite(tau_max):
            raise ValueError(f"taus must be finite, got {float(taus[~np.isfinite(taus)][0])!r}")
        _check_angles(np.abs(self._row).max(), tau_max)
        return sign_probability_grid(self._row, self.k0, taus)[0]


@dataclass(frozen=True)
class PeakRecord:
    """Earliest high-probability arrival at one target node."""

    target: int
    tau_star: float
    p_star: float


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a parameter sweep.

    grid holds the swept points (delta values, or (delta1, delta2) rows
    for 2D), fp and optionally fn the objectives per point, hpst the
    per-point membership flags and intervals the maximal contiguous
    flagged runs (1D only; empty tuple for 2D).  samples counts the
    probability values evaluated: points x N x tau samples for a dense
    sweep, fewer where the coarse pass of an FP sweep pruned some.
    """

    grid: np.ndarray
    fp: np.ndarray
    fn: np.ndarray | None
    intervals: tuple
    hpst: np.ndarray
    p0: float
    margin: float
    samples: int


def _uniform_grid(name: str, bounds, step_name: str, step, strict: bool) -> np.ndarray:
    """The delta grid lo + i * step of dynamics._uniform, after checking
    the range argument called name (exactly two bounds in the coupling
    domain) and the step argument called step_name."""
    if np.shape(bounds) != (2,):
        raise ValueError(f"a range must be two bounds (lo, hi), got {bounds!r}")
    _check_domain(f"{name}[0]", bounds[0])
    _check_domain(f"{name}[1]", bounds[1])
    _check_finite(**{step_name: step})
    lo, hi, step = float(bounds[0]), float(bounds[1]), float(step)
    if step <= 0:
        raise ValueError("step must be positive")
    if hi < lo or (strict and hi <= lo):
        raise ValueError(f"degenerate range [{lo}, {hi}]")
    return _uniform(lo, hi, step)


# Probability grids of (..., N, K): each objective reduces the last two axes.
def _fp(probs: np.ndarray) -> np.ndarray:
    return probs.max(axis=-1).min(axis=-1)


def _fn(probs: np.ndarray) -> np.ndarray:
    # one node pair at a time, so no (..., pairs, K) array is built
    best = [
        negativity_grid(probs[..., i, :], probs[..., j, :]).max(axis=-1)
        for i, j in combinations(range(probs.shape[-2]), 2)
    ]
    return np.min(best, axis=0)


def fp_value(system: System, T: float, dtau: float) -> float:
    """min over target nodes of the best transfer probability in [0, T].

    All N nodes count as targets, the initial node included (its
    objective is the return probability).
    """
    return float(_fp(system.probability_grid(tau_grid(T, dtau))))


def fn_value(system: System, T: float, dtau: float) -> float:
    """min over unordered node pairs of the best pairwise negativity."""
    return float(_fn(system.probability_grid(tau_grid(T, dtau))))


def _refine(taus: np.ndarray, y: np.ndarray, i: int, dtau: float):
    """Parabolic vertex through (i-1, i, i+1); grid point if flat or at an edge."""
    if i == 0 or i == len(y) - 1:
        return float(taus[i]), float(y[i])
    d2 = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if d2 >= -1e-300:
        return float(taus[i]), float(y[i])
    h = 0.5 * (y[i - 1] - y[i + 1]) / d2
    return float(taus[i] + h * dtau), float(y[i] - 0.25 * (y[i - 1] - y[i + 1]) * h)


def hpst_times(system: System, T: float, dtau: float, p0: float = 0.9):
    """Per-node arrival peaks and the transfer window.

    For each target m, finds the earliest local maximum of P_{k0 m} on
    the time grid with grid value at least p0 (the grid boundaries
    count as maxima) and refines it by parabolic interpolation through
    the neighboring points.  Returns (records, window) where window is
    the largest tau_star once every node has a record, and None while
    any node is missing one.
    """
    _check_finite(p0=p0)
    taus = tau_grid(T, dtau)
    probs = system.probability_grid(taus)
    peak = probs >= p0
    peak[:, 1:] &= probs[:, 1:] >= probs[:, :-1]
    peak[:, :-1] &= probs[:, :-1] >= probs[:, 1:]
    first = peak.argmax(axis=1)
    records = [
        PeakRecord(int(m) + 1, *_refine(taus, probs[m], int(first[m]), dtau))
        for m in np.flatnonzero(peak.any(axis=1))
    ]
    window = max(r.tau_star for r in records) if len(records) == system.n_nodes else None
    return records, window


def _intervals_from_flags(grid: np.ndarray, flags: np.ndarray) -> tuple:
    """(first, last) grid values of every maximal run of flagged points."""
    # a run starts and ends where the flags, padded with False, change
    edges = np.flatnonzero(np.diff(np.concatenate(([False], flags, [False]))))
    return tuple((float(grid[a]), float(grid[b - 1])) for a, b in zip(edges[::2], edges[1::2]))


def _blocks(indices: np.ndarray, per_point: int) -> list:
    """indices in runs of _BLOCK_ELEMENTS // per_point (at least one)."""
    step = max(1, _BLOCK_ELEMENTS // per_point)
    return [indices[i : i + step] for i in range(0, len(indices), step)]


def _pruned_fp(rows: np.ndarray, taus: np.ndarray, coarse: np.ndarray):
    """FP of the rows (k0 = 1) on taus, equal to the dense result, and the
    number of probability values evaluated.

    The samples at the coarse indices of taus come first; every segment
    between two of them is stride = coarse[1] samples long but the last,
    which may be shorter.  Between the ends of a segment, h apart, P_m is
    at most the larger end plus M h**2 / 8 (M from _sign_curvature; the
    error of linear interpolation), plus twice the kernel's rounding
    bound: the ends and the skipped sample each carry it.  Only the
    segments where that bound reaches some node's coarse maximum get their
    inner samples evaluated, in one pass of one kernel row per segment:
    indices coarse[segment] + 1 .. + stride - 1, clipped to the last
    sample, which the coarse pass holds already, so only the unclipped
    ones count.  Every skipped sample is then below one that was
    evaluated.
    """
    probs = sign_probability_grid(rows, 1, taus[coarse])
    samples = probs.size
    best = probs.max(axis=-1)
    ends = np.maximum(probs[..., :-1], probs[..., 1:])
    del probs
    ends += (
        _sign_curvature(rows)[:, None] * np.diff(taus[coarse]) ** 2 / 8.0
        + 2.0 * _sign_rounding(rows, taus[-1])[:, None]
    )[:, None]
    # a last segment of length 1 has no inner samples
    point, segment = np.nonzero(np.any(ends >= best[..., None], axis=1) & (np.diff(coarse) > 1))
    del ends
    offsets = np.arange(1, coarse[1])
    for part in _blocks(np.arange(point.size), rows.shape[1] * offsets.size):
        inner = coarse[segment[part], None] + offsets
        samples += np.count_nonzero(inner < taus.size - 1) * rows.shape[1]
        fine = sign_probability_grid(rows[point[part]], 1, taus[np.minimum(inner, taus.size - 1)])
        np.maximum.at(best, point[part], fine.max(axis=-1))
    return best.min(axis=-1), samples


def _sweep(kind: str, grid, T: float, dtau: float, P0: float, margin: float, with_fn=False):
    """SweepResult of the kind's clusters (k0 = 1) at the grid points.

    Every kernel call holds at most _BLOCK_ELEMENTS probability values,
    or one point's dense grid.  FN sweeps evaluate each point's whole
    grid.  FP-only sweeps take a coarse pass first (_pruned_fp) unless the
    tau grid holds at most 2 * _COARSE_STRIDE + 1 samples, or a point's
    curvature bound over _COARSE_STRIDE samples reaches 1, when nothing
    could be pruned; either way FP is the dense grid's exactly.
    """
    _check_finite(P0=P0, margin=margin)
    taus = tau_grid(T, dtau)
    n_nodes = KINDS[kind][0]
    work = len(grid) * taus.size * n_nodes
    if work > _MAX_SWEEP_WORK:
        raise ValueError(
            f"sweep of {len(grid)} points x {taus.size} tau samples x {n_nodes} nodes "
            f"= {work:.3g}, cap is {_MAX_SWEEP_WORK:.3g}"
        )
    params = grid.reshape(len(grid), -1)
    # max|d_1g| is max(1, delta) for rect-perp, max(1, 2 delta) for
    # rect-along and max(1, delta1, 2 delta2) for the box, so the last grid
    # point, at the top of every range, has the largest angles.
    _check_angles(np.abs(coupling_rows(kind, params[-1:])).max(), taus[-1])
    fp = np.empty(len(grid))
    fn = np.empty(len(grid)) if with_fn else None
    samples = 0
    coarse = np.minimum(np.arange(0, taus.size - 1 + _COARSE_STRIDE, _COARSE_STRIDE), taus.size - 1)
    # A segment ending at some node's coarse maximum is always refined, so
    # on at most two segments the coarse pass skips next to nothing and
    # only adds kernel calls (1.3 to 2.2 times the dense time at 21 samples).
    all_dense = with_fn or taus.size <= 2 * _COARSE_STRIDE + 1
    h = _COARSE_STRIDE * float(dtau)  # h * h, unlike h ** 2, overflows to inf, not OverflowError
    for block in _blocks(np.arange(len(grid)), n_nodes * coarse.size):
        rows = coupling_rows(kind, params[block])
        dense = all_dense | (_sign_curvature(rows) * (h * h) / 8.0 >= 1.0)
        for part in _blocks(np.flatnonzero(dense), n_nodes * taus.size):
            probs = sign_probability_grid(rows[part], 1, taus)
            samples += probs.size
            fp[block[part]] = _fp(probs)
            if with_fn:
                fn[block[part]] = _fn(probs)
            del probs  # freed before the next block is allocated
        pruned = np.flatnonzero(~dense)
        if pruned.size:
            fp[block[pruned]], n = _pruned_fp(rows[pruned], taus, coarse)
            samples += n
    flags = fp >= P0 - margin
    intervals = _intervals_from_flags(grid, flags) if grid.ndim == 1 else ()
    return SweepResult(grid, fp, fn, intervals, flags, P0, margin, samples)


def sweep1d(
    mode: str,
    delta_range,
    delta_step: float,
    T: float,
    dtau: float,
    P0: float = 0.9,
    with_fn: bool = False,
    margin: float = DISPLAY_MARGIN,
) -> SweepResult:
    """Scan the rectangle objectives over delta.

    mode is the rectangle kind, FIELD_PERPENDICULAR ('rect-perp') or
    FIELD_ALONG_B ('rect-along').
    """
    if mode not in (FIELD_PERPENDICULAR, FIELD_ALONG_B):
        raise ValueError(f"unknown field mode {mode!r}")
    grid = _uniform_grid("delta_range", delta_range, "delta_step", delta_step, strict=True)
    return _sweep(mode, grid, T, dtau, P0, margin, with_fn)


def sweep2d(
    delta1_range,
    delta2_range,
    steps,
    T: float,
    dtau: float,
    P0: float = 0.9,
    margin: float = DISPLAY_MARGIN,
) -> SweepResult:
    """Scan the parallelepiped fp objective over the (delta1, delta2) grid.

    steps is one shared grid step (a number or a one-element sequence)
    or a (step1, step2) pair.  Either range may be a single point (lo == hi).
    """
    if np.ndim(steps) == 0:
        steps = (steps,)
    if np.shape(steps) not in ((1,), (2,)):
        raise ValueError(f"steps must be one step or a (step1, step2) pair, got {steps!r}")
    last = f"steps[{len(steps) - 1}]"
    g1 = _uniform_grid("delta1_range", delta1_range, "steps[0]", steps[0], strict=False)
    g2 = _uniform_grid("delta2_range", delta2_range, last, steps[-1], strict=False)
    if g1.size * g2.size > _MAX_GRID_POINTS:
        raise ValueError(f"sweep grid has {g1.size * g2.size} points, cap is {_MAX_GRID_POINTS}")
    grid = np.column_stack([np.repeat(g1, g2.size), np.tile(g2, g1.size)])
    return _sweep("box", grid, T, dtau, P0, margin)
