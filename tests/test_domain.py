"""The coupling-parameter domain: delta in [1e-9, 1e9], sides b in [1e-3, 1e3].

Inside it every closed-form coupling row, curvature and rounding bound is
finite and the kernel conserves probability; outside it every entry point
raises ValueError in one message form, and the CLI exits 2.
"""

import re
import warnings
from itertools import product

import numpy as np
import pytest

from spintransfer.cli import main
from spintransfer.dynamics import (
    _sign_curvature,
    _sign_rounding,
    amplitude_grid,
    evolve,
    sign_probability_grid,
    tau_grid,
)
from spintransfer.geometry import b_to_delta, delta_to_b, layout_parallelepiped, layout_rectangle
from spintransfer.search import KINDS, System, coupling_rows, fp_value, hpst_times, sweep1d, sweep2d

DELTA_EDGES = (1e-9, 1e9)
SIDE_EDGES = (1e-3, 1e3)


def _message(name, value, edges=DELTA_EDGES):
    lo, hi = edges
    return re.escape(f"{name} must be a real number in [{lo:g}, {hi:g}], got {value!r}")


def _domain_params(names):
    """Every corner of the domain plus 50 log-spaced points, as (G, P)."""
    corners = np.array(list(product(DELTA_EDGES, repeat=len(names))), dtype=float)
    spaced = np.logspace(-9.0, 9.0, 50)
    return np.vstack([corners, np.column_stack([spaced, spaced[::-1]])[:, : len(names)]])


@pytest.mark.parametrize("kind", KINDS)
def test_rows_bounds_and_kernel_are_finite_on_the_domain(kind):
    n_nodes, names = KINDS[kind]
    taus = tau_grid(10.0, 0.01)
    with np.errstate(all="raise"):
        rows = coupling_rows(kind, _domain_params(names))
        assert np.isfinite(rows).all()
        assert np.isfinite(_sign_curvature(rows)).all()
        assert np.isfinite(_sign_rounding(rows, taus[-1])).all()
        for k0 in range(1, n_nodes + 1):
            probs = sign_probability_grid(rows, k0, taus)
            assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-10


NON_NUMBERS = [True, "2", 1j]
OUTSIDE = [1e-200, 1e300, np.nan, np.inf, -np.inf, 0.0, -1.0]
DELTA_VALUES = NON_NUMBERS + OUTSIDE + [float(np.nextafter(1e-9, 0.0)), float(np.nextafter(1e9, np.inf))]
SIDE_VALUES = NON_NUMBERS + OUTSIDE + [float(np.nextafter(1e-3, 0.0)), float(np.nextafter(1e3, np.inf))]

# entry point -> (argument name, call with the value)
DELTA_ENTRIES = {
    "System rect-perp": ("delta", lambda v: System("rect-perp", delta=v)),
    "System rect-along": ("delta", lambda v: System("rect-along", delta=v, k0=3)),
    "System box delta1": ("delta1", lambda v: System("box", delta1=v, delta2=2.0)),
    "System box delta2": ("delta2", lambda v: System("box", delta1=2.0, delta2=v)),
    "coupling_rows rect-along": ("rect-along delta", lambda v: coupling_rows("rect-along", [[4.3], [v]])),
    "coupling_rows box delta1": ("box delta1", lambda v: coupling_rows("box", [[v, 2.0]])),
    "coupling_rows box delta2": ("box delta2", lambda v: coupling_rows("box", [[1.0, 2.0], [3.0, v]])),
    "sweep1d low": ("delta_range[0]", lambda v: sweep1d("rect-perp", (v, 2.0), 0.1, 1.0, 0.1)),
    "sweep1d high": ("delta_range[1]", lambda v: sweep1d("rect-along", (1.0, v), 0.1, 1.0, 0.1)),
    "sweep2d delta1 low": ("delta1_range[0]", lambda v: sweep2d((v, 2.0), (1.0, 2.0), 0.5, 1.0, 0.1)),
    "sweep2d delta1 high": ("delta1_range[1]", lambda v: sweep2d((1.0, v), (1.0, 2.0), 0.5, 1.0, 0.1)),
    "sweep2d delta2 low": ("delta2_range[0]", lambda v: sweep2d((1.0, 2.0), (v, 2.0), 0.5, 1.0, 0.1)),
    "sweep2d delta2 high": ("delta2_range[1]", lambda v: sweep2d((1.0, 2.0), (1.0, v), 0.5, 1.0, 0.1)),
    "delta_to_b": ("delta", delta_to_b),
}
SIDE_ENTRIES = {
    "b_to_delta": ("b", b_to_delta),
    "layout_rectangle rect-perp": ("b", lambda v: layout_rectangle(v, "rect-perp")),
    "layout_rectangle rect-along": ("b", lambda v: layout_rectangle(v, "rect-along")),
    "layout_parallelepiped b1": ("b1", lambda v: layout_parallelepiped(v, 1.0)),
    "layout_parallelepiped b2": ("b2", lambda v: layout_parallelepiped(1.0, v)),
}
CASES = [
    pytest.param(entry, value, DELTA_EDGES, id=f"{entry}-{value!r}")
    for entry in DELTA_ENTRIES
    for value in DELTA_VALUES
] + [
    pytest.param(entry, value, SIDE_EDGES, id=f"{entry}-{value!r}")
    for entry in SIDE_ENTRIES
    for value in SIDE_VALUES
]


@pytest.mark.parametrize("entry, value, edges", CASES)
def test_every_entry_rejects_values_outside_the_domain(entry, value, edges):
    name, call = {**DELTA_ENTRIES, **SIDE_ENTRIES}[entry]
    with pytest.raises(ValueError, match=_message(name, value, edges)):
        call(value)


# CLI flags of a coupling parameter, and the name its error carries
CLI_ENTRIES = {
    "simulate --delta": (["simulate", "--system", "rect-along"], "--delta", "delta"),
    "simulate --delta1": (["simulate", "--system", "box", "--delta2", "2"], "--delta1", "delta1"),
    "peaks --delta2": (["peaks", "--system", "box", "--delta1", "2"], "--delta2", "delta2"),
    "sweep --delta-min": (["sweep", "--system", "rect-perp", "--delta-max", "2"], "--delta-min", "delta_range[0]"),
    "sweep --delta-max": (["sweep", "--system", "rect-along", "--delta-min", "1"], "--delta-max", "delta_range[1]"),
    "sweep --delta1-max": (["sweep", "--system", "box", "--delta1-min", "1", "--delta2-min", "1",
                            "--delta2-max", "2"], "--delta1-max", "delta1_range[1]"),
    "sweep --delta2-min": (["sweep", "--system", "box", "--delta1-min", "1", "--delta1-max", "2",
                            "--delta2-max", "2"], "--delta2-min", "delta2_range[0]"),
}


@pytest.mark.parametrize("value", [v for v in DELTA_VALUES if isinstance(v, float)], ids=repr)
@pytest.mark.parametrize("entry", CLI_ENTRIES)
def test_cli_rejects_values_outside_the_domain(entry, value, tmp_path, capsys):
    argv, flag, name = CLI_ENTRIES[entry]
    out = tmp_path / "x.csv"
    # flag=value, so that argparse reads -inf as a value and not as a flag
    tail = ["--T", "1", "--dtau", "0.5"] + (["--out", str(out)] if argv[0] != "peaks" else [])
    assert main([*argv, f"{flag}={value!r}", *tail]) == 2
    assert re.search(_message(name, value), capsys.readouterr().err)
    assert not out.exists()


def test_examples_outside_the_domain_fail_early():
    # each used to return a meaningless result or raise TypeError/OverflowError
    with pytest.raises(ValueError, match=_message("delta", 1e300)):
        System("rect-perp", delta=1e300)  # gave a "peak" at tau* = 0.405
    with pytest.raises(ValueError, match=_message("delta_range[0]", 1e200)):
        sweep1d("rect-perp", (1e200, 2e200), 1e200, 1.0, 0.1)  # overflowed, FP = 0.177
    with pytest.raises(ValueError, match=_message("delta_range[1]", 2e9)):
        sweep1d("rect-perp", (1.0, 2e9), 0.5, 1.0, 0.1)
    with pytest.raises(ValueError, match=_message("delta", True)):
        delta_to_b(True)  # returned 1.0
    with pytest.raises(ValueError, match=_message("b", "2", SIDE_EDGES)):
        b_to_delta("2")
    with pytest.raises(ValueError, match=_message("b2", 1j, SIDE_EDGES)):
        layout_parallelepiped(1.0, 1j)
    with pytest.raises(ValueError, match=_message("b", 1e-200, SIDE_EDGES)):
        b_to_delta(1e-200)


def test_domain_edges_and_test_values_are_accepted():
    # the edges themselves, and the extremes the tests, demos, README and
    # benchmark use (delta 0.1 to 100.01, b 0.2 to 5)
    for delta in (*DELTA_EDGES, 0.1, 100.01):
        System("rect-perp", delta=delta)
        System("box", delta1=delta, delta2=delta)
        assert SIDE_EDGES[0] <= delta_to_b(delta) <= SIDE_EDGES[1]
    for b in (*SIDE_EDGES, 0.2, 5.0):
        layout_rectangle(b, "rect-along")
        layout_parallelepiped(b, b)
        assert DELTA_EDGES[0] <= b_to_delta(b) <= DELTA_EDGES[1]
    assert coupling_rows("box", np.array([[1e-9, 1e9], [1e9, 1e-9]])).shape == (2, 8)


ANGLE = re.escape("angle d_1g tau overflows")


def test_angle_overflow_is_refused():
    # max|d_1g| tau past the float range gave NaN probabilities and a
    # RuntimeWarning: max|d_1g| = 8.6 at delta = 4.3 along the field
    system = System("rect-along", delta=4.3)
    with pytest.raises(ValueError, match=ANGLE):
        system.probability_grid([0.0, 1e308])
    with pytest.raises(ValueError, match=ANGLE):
        hpst_times(system, 1e308, 1e303)
    with pytest.raises(ValueError, match=ANGLE):
        fp_value(system, 1e308, 1e303)
    with pytest.raises(ValueError, match=ANGLE):
        sweep1d("rect-along", (4.0, 4.1), 0.05, 1e308, 1e303)
    # the box's largest coupling is -2 delta2, at the top of the delta2 range
    with pytest.raises(ValueError, match=ANGLE):
        sweep2d((1.0, 1.0), (1.0, 1e9), 1e9, 1e300, 1e297)


def test_eigenvalue_angle_overflow_is_refused():
    # evolve returned NaN probabilities with an invalid-value RuntimeWarning
    # and amplitude_grid warned of an overflow; max|lambda_j| = 24.69 here
    spectrum = System("rect-along", delta=4.3).spectrum()
    message = re.escape("angle lambda_j tau overflows: max|lambda_j| 24.69")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau in (1e308, -1e308, 1e307):
            with pytest.raises(ValueError, match=message):
                evolve(spectrum, 1, tau)
        with pytest.raises(ValueError, match=message + ".* x tau 1e\\+308"):
            amplitude_grid(spectrum, 1, 1e308, 1e303)
        # the angles stay finite just below the float range: no error, no warning
        state = evolve(spectrum, 1, 1e306)
        assert abs(state.probabilities.sum() - 1.0) < 1e-12
        assert np.isfinite(amplitude_grid(spectrum, 1, 1e306, 1e301)).all()


def test_huge_finite_angles_are_evaluated():
    # max|d_1g| = 1 keeps 1e308 finite: the angles are meaningless but no
    # OverflowError or RuntimeWarning escapes the dense-route test of a sweep
    res = sweep1d("rect-perp", (0.1, 0.2), 0.05, 1e308, 1e303)
    assert np.all((res.fp >= 0.0) & (res.fp <= 1.0 + 1e-12))


def test_cli_angle_overflow_is_usage_error(tmp_path, capsys):
    # exited 0 with two RuntimeWarnings and a CSV of 79,097 nan values
    out = tmp_path / "x.csv"
    argv = ["simulate", "--system", "rect-along", "--delta", "4.3", "--T", "1e308",
            "--dtau", "1e303", "--out", str(out)]
    assert main(argv) == 2
    assert "angle d_1g tau overflows: max|d_1g| 8.6 x tau 1e+308" in capsys.readouterr().err
    assert not out.exists()
