"""Arrival peaks, min-max objectives, and the delta sweeps."""

import copy
import dataclasses
import pickle
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spintransfer.search as search
from conftest import eigh_spectrum
from spintransfer.dynamics import evolve, sign_probability_grid, tau_grid
from spintransfer.entanglement import negativity_grid
from spintransfer.geometry import FIELD_ALONG_B, FIELD_PERPENDICULAR, b_to_delta, coupling_matrix
from spintransfer.hamiltonian import build_D
from spintransfer.search import (
    DISPLAY_MARGIN,
    KINDS,
    System,
    coupling_rows,
    fn_value,
    fp_value,
    hpst_times,
    sweep1d,
    sweep2d,
)

# Frozen sweep regressions (delta step 0.01, default margin).  Values
# beyond the headline windows are genuine satellite runs of the
# objective, kept to pin the extraction end to end.
PERP_T10 = [(5.56, 9.29), (9.34, 9.62), (9.76, 9.95), (10.21, 10.26)]
PERP_T15 = [(2.79, 2.81), (5.56, 17.79), (17.85, 18.02), (18.21, 18.22)]
ALONG_T35 = [(2.33, 2.54), (2.62, 6.08)]
ALONG_T6 = [
    (1.82, 1.87),
    (2.32, 6.08),
    (14.11, 14.14),
    (14.37, 14.48),
    (14.63, 14.81),
    (14.89, 30.63),
]


def _assert_intervals(result, expected):
    assert len(result.intervals) == len(expected)
    for (lo, hi), (exp_lo, exp_hi) in zip(result.intervals, expected):
        assert lo == pytest.approx(exp_lo, abs=1e-9)
        assert hi == pytest.approx(exp_hi, abs=1e-9)


def test_system_validation():
    with pytest.raises(ValueError):
        System("triangle")
    with pytest.raises(ValueError):
        System("rect-perp")
    with pytest.raises(ValueError):
        System("box", delta1=1.0)
    with pytest.raises(ValueError):
        System("chain2", delta=2.0)
    with pytest.raises(ValueError):
        System("rect-along", delta=1.0, delta1=2.0)
    with pytest.raises(ValueError):
        System("chain2", k0=3)
    assert System("box", delta1=1.0, delta2=2.0).n_nodes == 8


@pytest.mark.parametrize(
    "params",
    [
        dict(kind="rect-perp", delta=np.nan),
        dict(kind="rect-along", delta=np.inf),
        dict(kind="rect-along", delta=-1.0),
        dict(kind="box", delta1=np.nan, delta2=1.0),
        dict(kind="box", delta1=1.0, delta2=np.inf),
        dict(kind="chain2", k0=True),
        dict(kind="chain2", k0=1.0),
        dict(kind="chain2", k0="1"),
        dict(kind="rect-perp", delta=True),
        dict(kind="rect-along", delta="1"),
        dict(kind="rect-perp", delta=1.0 + 0.0j),
        dict(kind="box", delta1="2", delta2=1.0),
        dict(kind="box", delta1=1.0, delta2=True),
    ],
)
def test_system_rejects_non_finite_and_mistyped(params):
    with pytest.raises(ValueError, match="must be"):
        System(**params)


def test_rectangle_field_mode_is_its_kind():
    assert System(FIELD_ALONG_B, delta=4.3) == System("rect-along", delta=4.3)
    assert System(FIELD_PERPENDICULAR, delta=4.3) == System("rect-perp", delta=4.3)


def test_system_accepts_numpy_integer_k0():
    assert System("box", delta1=1.0, delta2=2.0, k0=np.int64(8)).k0 == 8


# One System of every kind, k0 off node 1 where there is room.
_EVERY_KIND = [
    System("chain2", k0=2),
    System("rect-perp", delta=5.05, k0=3),
    System("rect-along", delta=4.3),
    System("box", delta1=9.0, delta2=26.2, k0=3),
]


@pytest.mark.parametrize("system", _EVERY_KIND, ids=lambda s: s.kind)
def test_system_builds_its_coupling_row_once(monkeypatch, system):
    # construction builds the row; the spectrum, the grids and the peaks read it
    kinds = []
    right = search.coupling_rows

    def counting(kind, params):
        kinds.append(kind)
        return right(kind, params)

    monkeypatch.setattr(search, "coupling_rows", counting)
    fresh = dataclasses.replace(system)
    taus = tau_grid(3.5, 0.01)
    fresh.spectrum()
    fresh.probability_grid(taus)
    fresh.probability_grid(taus[:100])
    hpst_times(fresh, 3.5, 0.01)
    assert kinds == [system.kind]


@pytest.mark.parametrize("system", _EVERY_KIND, ids=lambda s: s.kind)
def test_system_row_is_the_read_only_closed_form_row(system):
    params = [[getattr(system, name) for name in KINDS[system.kind][1]]]
    assert np.array_equal(system._row, coupling_rows(system.kind, params))
    assert not system._row.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        system._row[0, 1] = 2.0


@pytest.mark.parametrize("system", _EVERY_KIND, ids=lambda s: s.kind)
def test_system_copies_compare_hash_and_compute_as_the_original(system):
    # the stored row is no field: equality, hashing and repr read the
    # fields alone, and every copy computes what the original does
    assert "_row" not in repr(system)
    taus = tau_grid(3.5, 0.01)
    probs, spec = system.probability_grid(taus), system.spectrum()
    copies = [copy.copy(system), copy.deepcopy(system), pickle.loads(pickle.dumps(system))]
    for other in [*copies, dataclasses.replace(system)]:
        assert other == system and hash(other) == hash(system) and repr(other) == repr(system)
        assert np.array_equal(other.probability_grid(taus), probs)
        assert np.array_equal(other.spectrum().eigenvalues, spec.eigenvalues)
        assert np.array_equal(other.spectrum().eigenvectors, spec.eigenvectors)
    assert len({system, *copies}) == 1



@pytest.mark.parametrize("system", _EVERY_KIND, ids=lambda s: s.kind)
def test_system_copies_are_rebuilt_with_a_read_only_row(system):
    # a copied or unpickled row was writeable, so an edit could make a
    # copy's grid disagree with its fields
    taus = tau_grid(3.5, 0.01)
    for other in (copy.copy(system), copy.deepcopy(system), pickle.loads(pickle.dumps(system))):
        assert other == system and not other._row.flags.writeable
        assert np.array_equal(other._row, system._row)
        assert np.array_equal(other.probability_grid(taus), system.probability_grid(taus))
        with pytest.raises(ValueError, match="read-only"):
            other._row[0, 1] = 2.0


def test_params_are_every_coupling_parameter_in_kinds_order():
    assert search._PARAMS == ("delta", "delta1", "delta2")


@pytest.mark.parametrize("system", _EVERY_KIND, ids=lambda s: s.kind)
def test_system_refuses_every_parameter_its_kind_does_not_take(system):
    fields = {name: getattr(system, name) for name in KINDS[system.kind][1]}
    for name in search._PARAMS:
        if name not in fields:
            with pytest.raises(ValueError, match=f"^{system.kind} takes no {name}$"):
                System(system.kind, **fields, **{name: 2.0})

def test_replace_builds_the_new_row():
    taus = tau_grid(10.0, 0.01)
    rect = System("rect-perp", delta=5.05)
    moved, fresh = dataclasses.replace(rect, delta=5.1), System("rect-perp", delta=5.1)
    assert moved == fresh != rect
    assert np.array_equal(moved.probability_grid(taus), fresh.probability_grid(taus))
    assert not np.array_equal(moved.probability_grid(taus), rect.probability_grid(taus))
    box = System("box", delta1=9.0, delta2=26.2)
    assert np.array_equal(
        dataclasses.replace(box, k0=5).probability_grid(taus),
        System("box", delta1=9.0, delta2=26.2, k0=5).probability_grid(taus),
    )
    message = "delta must be a real number in [1e-09, 1e+09], got -1.0"
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(rect, delta=-1.0)
    with pytest.raises(ValueError, match="rect-perp takes no delta1"):
        dataclasses.replace(rect, delta1=2.0)


def test_coupling_rows_match_coupling_matrix():
    # the closed-form rows against the general layout route, relative to
    # the row's largest coupling (single entries near zero cancel in both)
    rng = np.random.default_rng(7)
    for kind, (n_nodes, names) in KINDS.items():
        params = rng.uniform(0.1, 30.0, size=(50, len(names)))
        rows = coupling_rows(kind, params)
        assert rows.shape == (50, n_nodes)
        for row, values in zip(rows, params):
            d = coupling_matrix(System(kind, **dict(zip(names, values))).layout()).d[0]
            assert np.abs(row - d).max() <= 1e-15 * np.abs(d).max()


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("tri", [[1.0]], "unknown system kind 'tri'"),
        (None, [[1.0]], "unknown system kind None"),
        ("chain2", [[1.0]], "chain2 params must have shape (G, 0) for (), got (1, 1)"),
        ("rect-along", [[1.0, 2.0]], "rect-along params must have shape (G, 1) for ('delta',), got (1, 2)"),
        ("rect-perp", [1.0, 2.0], "rect-perp params must have shape (G, 1) for ('delta',), got (2,)"),
        ("box", [[1.0]], "box params must have shape (G, 2) for ('delta1', 'delta2'), got (1, 1)"),
    ],
)
def test_coupling_rows_rejects_unknown_kind_and_wrong_shape(kind, params, message):
    # these raised KeyError and TypeError from inside the closed forms
    with pytest.raises(ValueError, match=re.escape(message)):
        coupling_rows(kind, params)


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("rect-perp", [[np.nan]], "rect-perp delta must be a real number in [1e-09, 1e+09], got nan"),
        ("rect-along", [[0.0]], "rect-along delta must be a real number in [1e-09, 1e+09], got 0.0"),
        ("rect-perp", [[-1.0]], "rect-perp delta must be a real number in [1e-09, 1e+09], got -1.0"),
        ("rect-along", [[2.0], [np.inf]], "rect-along delta must be a real number in [1e-09, 1e+09], got inf"),
        ("box", [[1.0, 2.0], [3.0, -np.inf]], "box delta2 must be a real number in [1e-09, 1e+09], got -inf"),
    ],
)
def test_coupling_rows_rejects_bad_parameters(kind, params, message):
    # NaN gave NaN rows, 0 and -1 a RuntimeWarning or inf/NaN rows, and inf
    # a finite row of no geometry
    with pytest.raises(ValueError, match=re.escape(message)):
        coupling_rows(kind, params)


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("rect-along", [[1e-300]], "rect-along delta must be a real number in [1e-09, 1e+09], got 1e-300"),
        ("box", [[1e-300, 1e-300]], "box delta1 must be a real number in [1e-09, 1e+09], got 1e-300"),
        ("box", [[1e300, 1e300]], "box delta1 must be a real number in [1e-09, 1e+09], got 1e+300"),
        # the first value outside the domain, in row order, is named
        ("box", [[1.0, 2.0], [1e300, 1.0], [3.0, 4.0], [1e-300, 1.0], [1e300, 1e300]],
         "box delta1 must be a real number in [1e-09, 1e+09], got 1e+300"),
    ],
)
def test_coupling_rows_rejects_rows_out_of_range(kind, params, message):
    # rect-along at 1e-300 overflowed in a power and gave d_13 = 0 with a
    # RuntimeWarning; the boxes divided by zero and held -inf.  Such
    # parameters lie outside the coupling domain.
    with pytest.raises(ValueError, match=re.escape(message)):
        coupling_rows(kind, params)


def test_spectrum_matches_eigh_on_every_kind():
    # System.spectrum() (sign basis, closed-form row) against the numeric
    # eigh of the layout: random systems of each kind (the pair among
    # them), then the degenerate rectangles (rect-perp at b = 1), the cube
    # and the box with sides 0.7 and 1.2; every eigenvector is a
    # +-1/sqrt(N) sign pattern
    rng = np.random.default_rng(19)
    times = np.concatenate([[0.0], rng.uniform(0.0, 40.0, size=20)])
    systems = [
        System(kind, **{name: float(rng.uniform(0.1, 30.0)) for name in names}, k0=int(rng.integers(1, n + 1)))
        for kind, (n, names) in KINDS.items()
        for _ in range(25)
    ]
    systems += [
        System("rect-perp", delta=1.0),
        System("rect-along", delta=0.5, k0=2),
        System("box", delta1=1.0, delta2=1.0, k0=7),
        System("box", delta1=b_to_delta(0.7), delta2=b_to_delta(1.2)),
    ]
    for system in systems:
        D = build_D(coupling_matrix(system.layout()))
        scale = np.abs(D).max()
        spec, numeric = system.spectrum(), eigh_spectrum(system)
        lam, u = spec.eigenvalues, spec.eigenvectors
        assert np.all(np.diff(lam) >= 0), system
        assert np.allclose(np.abs(u), 1.0 / np.sqrt(system.n_nodes), rtol=0.0, atol=1e-14), system
        assert np.abs(lam - numeric.eigenvalues).max() <= 1e-12 * scale, system
        assert np.abs(u @ np.diag(lam) @ u.T - D).max() <= 1e-12 * scale, system
        for tau in times:
            got = evolve(spec, system.k0, tau).probabilities
            expected = evolve(numeric, system.k0, tau).probabilities
            assert np.abs(got - expected).max() <= 1e-12, (system, tau)


def test_spectrum_arrays_are_not_shared():
    # each call returns its own arrays, so a caller's edit stays local
    system = System("rect-perp", delta=2.0)
    first = system.spectrum()
    before = first.eigenvectors.copy()
    first.eigenvectors[:] = 7.0
    assert np.array_equal(system.spectrum().eigenvectors, before)


def test_fp_frozen_rect_along():
    assert fp_value(System("rect-along", delta=4.3), 3.5, 0.01) == pytest.approx(
        0.9626197742791771, abs=1e-9
    )


def test_fp_bounded_for_degenerate_rect():
    # two targets are capped at 1/4, so the objective never beats it
    assert fp_value(System("rect-perp", delta=1.0), 40.0, 0.01) <= 0.25 + 1e-9
    assert fp_value(System("rect-perp", delta=1.0), 5.0, 0.01) <= 0.25 + 1e-9


def test_fp_frozen_box():
    assert fp_value(System("box", delta1=9.0, delta2=26.2), 25.0, 0.01) == pytest.approx(
        0.9006361423660529, abs=1e-9
    )


def test_fp_in_unit_interval():
    for system in (System("chain2"), System("rect-along", delta=2.2)):
        v = fp_value(system, 8.0, 0.02)
        assert 0.0 <= v <= 1.0


def test_fn_two_node_saturates():
    assert fn_value(System("chain2"), 4.0, 0.01) == pytest.approx(1.0, abs=1e-6)


def test_fn_band_for_perpendicular_hpst():
    # at a delta with fp >= 0.9 the pairwise objective sits near the
    # 0.8 to 0.9 band rather than collapsing
    fp = fp_value(System("rect-perp", delta=7.0), 10.0, 0.01)
    fn = fn_value(System("rect-perp", delta=7.0), 10.0, 0.01)
    assert fp >= 0.9
    assert 0.75 <= fn <= 0.95


def test_fn_can_lag_fp_along_mode():
    fp = fp_value(System("rect-along", delta=4.3), 3.5, 0.01)
    fn = fn_value(System("rect-along", delta=4.3), 3.5, 0.01)
    assert fp >= 0.9
    assert fn < fp


def test_hpst_times_rect_along_caption():
    records, window = hpst_times(System("rect-along", delta=4.3), 3.5, 0.01)
    by_target = {r.target: r for r in records}
    assert set(by_target) == {1, 2, 3, 4}
    assert by_target[1].tau_star == 0.0 and by_target[1].p_star == pytest.approx(1.0, abs=1e-12)
    assert by_target[4].tau_star == pytest.approx(0.3603, abs=1e-3)
    assert by_target[4].p_star == pytest.approx(0.9671, abs=1e-3)
    assert by_target[2].tau_star == pytest.approx(2.9249, abs=1e-3)
    assert by_target[3].tau_star == pytest.approx(3.2852, abs=1e-3)
    assert window == pytest.approx(3.2852, abs=1e-3)


def test_hpst_times_respects_threshold_before_refinement():
    # raising P0 above the best peak of a target drops its record and
    # the window with it
    records, window = hpst_times(System("rect-along", delta=4.3), 3.5, 0.01, p0=0.965)
    assert window is None
    assert all(r.p_star >= 0.965 for r in records)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["chain2", "rect-perp", "rect-along", "box"]),
    delta=st.floats(min_value=0.5, max_value=30.0),
    T=st.floats(min_value=0.05, max_value=12.0),
    frac=st.floats(min_value=0.002, max_value=0.5),
    p0=st.floats(min_value=0.0, max_value=1.0),
)
def test_peaks_and_window_lie_in_time_range(kind, delta, T, frac, p0):
    params = {"chain2": {}, "box": dict(delta1=delta, delta2=delta / 2.0)}.get(kind, {"delta": delta})
    records, window = hpst_times(System(kind, **params), T, T * frac, p0=p0)
    assert all(0.0 <= r.tau_star <= T for r in records)
    assert window is None or 0.0 <= window <= T


def _hpst_times_loop(system, T, dtau, p0):
    """Reference: the per-node loop hpst_times ran before its vectorized pass."""
    taus = tau_grid(T, dtau)
    probs = system.probability_grid(taus)
    records = []
    for m in range(1, system.n_nodes + 1):
        y = probs[m - 1]
        left = np.r_[True, y[1:] >= y[:-1]]
        right = np.r_[y[:-1] >= y[1:], True]
        for i in np.nonzero(left & right & (y >= p0))[0]:
            tau_star, p_star = search._refine(taus, y, int(i), dtau)
            records.append(search.PeakRecord(m, tau_star, p_star))
            break
    window = max(r.tau_star for r in records) if len(records) == system.n_nodes else None
    return records, window


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    delta1=st.floats(min_value=0.5, max_value=30.0),
    delta2=st.floats(min_value=0.5, max_value=30.0),
    k0=st.integers(min_value=1, max_value=8),
    T=st.floats(min_value=0.05, max_value=12.0),
    frac=st.floats(min_value=0.002, max_value=0.5),
    p0=st.floats(min_value=0.0, max_value=1.0) | st.just(1.5),
)
# node 2 of the pair peaks at the right edge, node 1 at the left one
@example(kind="chain2", delta1=1.0, delta2=1.0, k0=1, T=1.0, frac=0.01, p0=0.2)
@example(kind="box", delta1=9.0, delta2=26.2, k0=3, T=25.0, frac=0.0004, p0=1.5)
def test_hpst_times_equals_per_node_loop(kind, delta1, delta2, k0, T, frac, p0):
    params = {"chain2": {}, "box": dict(delta1=delta1, delta2=delta2)}.get(kind, {"delta": delta1})
    system = System(kind, k0=(k0 - 1) % KINDS[kind][0] + 1, **params)
    expected = _hpst_times_loop(system, T, T * frac, p0)
    records, window = hpst_times(system, T, T * frac, p0)
    assert records == expected[0] and window == expected[1]
    assert all(type(r.target) is int for r in records)
    if p0 > 1.0:  # above every sample
        assert records == [] and window is None


def test_hpst_times_peaks_at_grid_edges():
    records, window = hpst_times(System("chain2"), 1.0, 0.01, p0=0.2)
    assert [(r.target, r.tau_star) for r in records] == [(1, 0.0), (2, 1.0)]
    assert window == 1.0


def test_hpst_records_meet_threshold():
    records, _ = hpst_times(System("box", delta1=9.0, delta2=26.2), 25.0, 0.01)
    assert all(r.p_star >= 0.9 for r in records)


def test_sweep1d_perpendicular_frozen_intervals():
    res = sweep1d(FIELD_PERPENDICULAR, (4.0, 11.0), 0.01, 10.0, 0.01)
    _assert_intervals(res, PERP_T10)
    res = sweep1d(FIELD_PERPENDICULAR, (2.0, 19.0), 0.01, 15.0, 0.01)
    _assert_intervals(res, PERP_T15)


def test_sweep1d_along_frozen_intervals():
    res = sweep1d(FIELD_ALONG_B, (2.0, 7.0), 0.01, 3.5, 0.01)
    _assert_intervals(res, ALONG_T35)


def test_sweep1d_along_fine_grid_frozen_intervals():
    res = sweep1d(FIELD_ALONG_B, (1.5, 31.0), 0.01, 6.0, 0.001)
    _assert_intervals(res, ALONG_T6)


def test_sweep1d_strict_margin_shrinks_windows():
    # margin=0 is the strict cut; every strict run nests inside a
    # default-margin run
    loose = sweep1d(FIELD_ALONG_B, (2.0, 7.0), 0.01, 3.5, 0.01)
    strict = sweep1d(FIELD_ALONG_B, (2.0, 7.0), 0.01, 3.5, 0.01, margin=0.0)
    assert strict.margin == 0.0
    for lo, hi in strict.intervals:
        assert any(l - 1e-12 <= lo and hi <= h + 1e-12 for l, h in loose.intervals)
    assert sum(h - l for l, h in strict.intervals) <= sum(h - l for l, h in loose.intervals)


def test_sweep1d_intervals_sorted_disjoint():
    res = sweep1d(FIELD_PERPENDICULAR, (4.0, 11.0), 0.01, 10.0, 0.01)
    flat = [x for pair in res.intervals for x in pair]
    assert flat == sorted(flat)
    for (_, hi), (lo, _) in zip(res.intervals, res.intervals[1:]):
        assert hi < lo


def test_sweep1d_flags_match_intervals():
    res = sweep1d(FIELD_ALONG_B, (2.0, 4.0), 0.05, 3.5, 0.01)
    inside = np.zeros_like(res.hpst)
    for lo, hi in res.intervals:
        inside |= (res.grid >= lo - 1e-12) & (res.grid <= hi + 1e-12)
    assert np.array_equal(inside, res.hpst)
    assert np.array_equal(res.hpst, res.fp >= res.p0 - res.margin)


def test_sweep1d_rejects_degenerate_range():
    with pytest.raises(ValueError):
        sweep1d(FIELD_ALONG_B, (3.0, 3.0), 0.01, 3.5, 0.01)
    with pytest.raises(ValueError):
        sweep1d("sideways", (2.0, 3.0), 0.01, 3.5, 0.01)


def test_sweep1d_with_fn_column():
    res = sweep1d(FIELD_PERPENDICULAR, (6.8, 7.2), 0.1, 10.0, 0.02, with_fn=True)
    assert res.fn is not None and res.fn.shape == res.fp.shape
    assert np.all(res.fn >= 0.0)
    # the sweep and the single-point objectives are one evaluation path
    for k, delta in enumerate(res.grid):
        system = System("rect-perp", delta=delta)
        assert res.fp[k] == fp_value(system, 10.0, 0.02)
        assert res.fn[k] == fn_value(system, 10.0, 0.02)
    assert np.array_equal(res.fp, sweep1d(FIELD_PERPENDICULAR, (6.8, 7.2), 0.1, 10.0, 0.02).fp)


def test_fn_value_is_min_over_pairs_of_best_negativity():
    # the pair loop the vectorized objective replaces
    system = System("box", delta1=9.0, delta2=26.2, k0=3)
    probs = system.probability_grid(tau_grid(5.0, 0.01))
    best = min(
        negativity_grid(probs[i], probs[j]).max() for i in range(8) for j in range(i + 1, 8)
    )
    assert fn_value(system, 5.0, 0.01) == best


# Rectangle points where node pair (2, 4) sets FN, with dtau = 0.01: the
# FN, and the smallest best negativity over the other five pairs.
_PAIR_24_MINIMA = [
    (FIELD_PERPENDICULAR, 5.05, 10.0, 0.8118595766935862, 0.8897),
    (FIELD_ALONG_B, 4.25, 3.5, 0.2979043707859119, 0.3338),
]


def _best_negativity_per_pair(system, T, dtau) -> dict:
    """Best pairwise negativity of every 1-based node pair, by an explicit loop."""
    probs = system.probability_grid(tau_grid(T, dtau))
    n = system.n_nodes
    return {
        (i + 1, j + 1): negativity_grid(probs[i], probs[j]).max()
        for i in range(n)
        for j in range(i + 1, n)
    }


def _fn_routes(mode, delta, T):
    """FN of one rectangle by fn_value and by a with_fn sweep starting at delta."""
    res = sweep1d(mode, (delta, delta + 0.01), 0.01, T, 0.01, with_fn=True)
    assert res.grid[0] == delta
    return fn_value(System(mode, delta=delta), T, 0.01), res.fn[0]


@pytest.mark.parametrize("mode, delta, T, fn, _", _PAIR_24_MINIMA)
def test_fn_equals_the_pair_loop_where_pair_2_4_is_the_minimum(mode, delta, T, fn, _):
    best = _best_negativity_per_pair(System(mode, delta=delta), T, 0.01)
    assert len(best) == 6 and min(best, key=best.get) == (2, 4)
    assert min(best.values()) == fn
    assert _fn_routes(mode, delta, T) == (fn, fn)


@pytest.mark.parametrize("mode, delta, T, fn, others", _PAIR_24_MINIMA)
def test_fn_that_skips_pair_2_4_misses_the_pair_loop(monkeypatch, mode, delta, T, fn, others):
    # a mutation that the FN bands and the fn_value-vs-sweep tests let through
    def skipping(nodes, r):
        return [pair for pair in combinations(nodes, r) if pair != (1, 3)]

    monkeypatch.setattr(search, "combinations", skipping)
    loop = min(_best_negativity_per_pair(System(mode, delta=delta), T, 0.01).values())
    assert loop == fn
    for mutated in _fn_routes(mode, delta, T):
        assert mutated != loop
        assert mutated == pytest.approx(others, abs=5e-5)


@pytest.mark.parametrize(
    "mode, delta_range, size",
    [
        (FIELD_PERPENDICULAR, (4.0, 11.0), 701),
        (FIELD_PERPENDICULAR, (2.0, 19.0), 1701),
        (FIELD_ALONG_B, (2.0, 7.0), 501),
        (FIELD_ALONG_B, (1.5, 31.0), 2951),
    ],
    # ids fixed from when the field modes were the strings "perpendicular" and "along"
    ids=[
        "perpendicular-delta_range0-701",
        "perpendicular-delta_range1-1701",
        "along-delta_range2-501",
        "along-delta_range3-2951",
    ],
)
def test_sweep_grid_sizes_unchanged(mode, delta_range, size):
    # the delta grids of the frozen sweeps, on a two-point tau grid
    res = sweep1d(mode, delta_range, 0.01, 0.1, 0.1)
    assert res.grid.size == size
    assert res.grid[-1] == delta_range[1]


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(min_value=0.5, max_value=20.0),
    span=st.floats(min_value=1e-3, max_value=2.0),
    frac=st.floats(min_value=0.02, max_value=1.0),
)
def test_sweep_grid_points_within_range(lo, span, frac):
    hi, step = lo + span, span * frac
    res = sweep1d(FIELD_ALONG_B, (lo, hi), step, 0.1, 0.1)
    assert res.grid[0] == lo and np.all(res.grid <= hi)
    box = sweep2d((lo, hi), (lo, lo), step, 0.1, 0.1)
    assert np.all(box.grid[:, 0] <= hi) and np.all(box.grid[:, 1] == lo)


def test_sweep2d_line_through_box_point():
    res = sweep2d((9.0, 9.0), (26.0, 26.4), (0.01, 0.1), 25.0, 0.01)
    assert res.grid.shape == (5, 2)
    flagged = res.grid[res.hpst]
    assert len(flagged) == 1
    assert flagged[0][1] == pytest.approx(26.2, abs=1e-9)
    assert res.intervals == ()
    assert np.all((res.fp >= 0.0) & (res.fp <= 1.0))


def test_sweep2d_cube_point_is_blocked():
    res = sweep2d((1.0, 1.0), (1.0, 1.0), 1.0, 30.0, 0.01)
    assert res.fp[0] <= 1.0 / 16.0 + 1e-9
    assert not res.hpst[0]


def test_sweep2d_resource_cap():
    with pytest.raises(ValueError):
        sweep2d((1.0, 200.0), (1.0, 200.0), 0.01, 5.0, 0.1)


def test_sweep1d_grid_cap():
    # 5 / 1e-300 steps: rejected before any delta is evaluated
    with pytest.raises(ValueError, match="1e-300.*cap is 1000000"):
        sweep1d(FIELD_ALONG_B, (2.0, 7.0), 1e-300, 3.5, 0.1)


def test_delta_grid_takes_exactly_the_cap_of_steps():
    # a range of 1e6 steps is at the cap, not past it
    grid = search._uniform_grid("delta_range", (1.0, 2.0), "delta_step", 1e-6, strict=True)
    assert grid.size == 1_000_001
    assert grid[0] == 1.0 and grid[-1] == 2.0


def test_sweep_work_cap():
    # 100001 points x 100001 tau samples x 4 nodes: refused before any
    # point is evaluated
    with pytest.raises(ValueError, match="4e\\+10, cap is 1e\\+10"):
        sweep1d(FIELD_ALONG_B, (1.0, 2.0), 1e-5, 100.0, 0.001)


@pytest.mark.parametrize("lo", [0.0, -1.0])
def test_sweeps_reject_non_positive_delta(lo):
    message = f"must be a real number in [1e-09, 1e+09], got {lo!r}"
    with pytest.raises(ValueError, match=re.escape(f"delta_range[0] {message}")):
        sweep1d(FIELD_ALONG_B, (lo, 2.0), 0.1, 1.0, 0.1)
    with pytest.raises(ValueError, match=re.escape(f"delta1_range[0] {message}")):
        sweep2d((lo, 2.0), (1.0, 2.0), 0.1, 1.0, 0.1)
    with pytest.raises(ValueError, match=re.escape(f"delta2_range[0] {message}")):
        sweep2d((1.0, 2.0), (lo, 2.0), 0.1, 1.0, 0.1)


@pytest.mark.parametrize("bounds", [(4.0, 4.05, 99), (4.0,), 4.0, [[4.0, 4.05]]])
def test_sweeps_require_exactly_two_bounds(bounds):
    # a third value was ignored, so (4.0, 4.05, 99) swept 4.00..4.05
    message = re.escape(f"a range must be two bounds (lo, hi), got {bounds!r}")
    with pytest.raises(ValueError, match=message):
        sweep1d(FIELD_PERPENDICULAR, bounds, 0.01, 1.0, 0.1)
    with pytest.raises(ValueError, match=message):
        sweep2d((1.0, 2.0), bounds, 0.5, 1.0, 0.1)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (((1.0, 2.0), (0.1,), 1.0, 0.1), {}, "delta_step must be a real number, got (0.1,)"),
        (((1.0, None), 0.1, 1.0, 0.1), {}, "delta_range[1] must be a real number in [1e-09, 1e+09], got None"),
        ((("1", 2.0), 0.1, 1.0, 0.1), {}, "delta_range[0] must be a real number in [1e-09, 1e+09], got '1'"),
        (((1.0, 2.0), 0.1, "1", 0.1), {}, "T must be a real number, got '1'"),
        (((1.0, 2.0), 0.1, 1.0, None), {}, "dtau must be a real number, got None"),
        (((1.0, 2.0), 0.1, 1.0, 0.1), {"P0": "0.9"}, "P0 must be a real number, got '0.9'"),
        (((1.0, 2.0), 0.1, 1.0, 0.1), {"margin": None}, "margin must be a real number, got None"),
    ],
)
def test_sweep1d_rejects_non_numbers(args, kwargs, message):
    # each of these used to raise TypeError
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep1d(FIELD_PERPENDICULAR, *args, **kwargs)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (((1.0, 2.0), (1.0, 2.0), (0.5, "a"), 1.0, 0.1), {}, "steps[1] must be a real number, got 'a'"),
        (((1.0, 2.0), (1.0, 2.0), None, 1.0, 0.1), {}, "steps[0] must be a real number, got None"),
        (((1.0, 2.0), (None, 2.0), 0.5, 1.0, 0.1), {}, "delta2_range[0] must be a real number in [1e-09, 1e+09], got None"),
        (((1.0, "2"), (1.0, 2.0), 0.5, 1.0, 0.1), {}, "delta1_range[1] must be a real number in [1e-09, 1e+09], got '2'"),
        (((1.0, 2.0), (1.0, 2.0), 0.5, 1.0, "0.1"), {}, "dtau must be a real number, got '0.1'"),
        (((1.0, 2.0), (1.0, 2.0), 0.5, 1.0, 0.1), {"P0": None}, "P0 must be a real number, got None"),
    ],
)
def test_sweep2d_rejects_non_numbers(args, kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep2d(*args, **kwargs)


@pytest.mark.parametrize("steps", [(0.5, 0.5, 0.5), (), [[0.5, 0.5]]])
def test_sweep2d_requires_one_or_two_steps(steps):
    message = re.escape(f"steps must be one step or a (step1, step2) pair, got {steps!r}")
    with pytest.raises(ValueError, match=message):
        sweep2d((1.0, 2.0), (1.0, 2.0), steps, 1.0, 0.1)


def test_sweep2d_one_step_in_a_sequence_is_shared():
    shared = sweep2d((1.0, 2.0), (1.0, 2.0), 0.5, 1.0, 0.1)
    for steps in ((0.5,), [0.5], np.array([0.5]), (0.5, 0.5)):
        res = sweep2d((1.0, 2.0), (1.0, 2.0), steps, 1.0, 0.1)
        assert np.array_equal(res.grid, shared.grid) and np.array_equal(res.fp, shared.fp)


def test_sweep_blocks_are_bounded_and_each_point_is_its_fp_value(monkeypatch):
    # every kernel call holds at most _BLOCK_ELEMENTS values, or one
    # point's dense grid; every point comes out exactly as evaluated alone
    calls = []
    kernel = search.sign_probability_grid

    def recording(rows, k0, taus):
        calls.append((rows.shape[0], rows.shape[0] * rows.shape[1] * np.shape(taus)[-1]))
        return kernel(rows, k0, taus)

    def sweep(run, *args, dense_point, **kwargs):
        calls.clear()
        res = run(*args, **kwargs)
        assert calls
        for points, values in calls:
            assert values <= search._BLOCK_ELEMENTS or (points == 1 and values <= dense_point)
        return res

    monkeypatch.setattr(search, "sign_probability_grid", recording)
    res = sweep(sweep1d, FIELD_ALONG_B, (2.3, 2.4), 0.01, 6.0, 0.001, dense_point=4 * 6001)
    for delta, fp in zip(res.grid, res.fp):
        assert fp == fp_value(System("rect-along", delta=delta), 6.0, 0.001)
    # 10 box points of 8 x 2501 values
    res = sweep(sweep2d, (9.0, 9.1), (26.0, 26.4), (0.1, 0.1), 25.0, 0.01, dense_point=8 * 2501)
    for (d1, d2), fp in zip(res.grid, res.fp):
        assert fp == fp_value(System("box", delta1=d1, delta2=d2), 25.0, 0.01)
    # a point larger than a block takes one of its own
    sweep(sweep1d, FIELD_ALONG_B, (2.3, 2.32), 0.01, 20.0, 0.001, with_fn=True, dense_point=4 * 20001)
    assert calls == [(1, 4 * 20001)] * 3
    sweep(sweep1d, FIELD_ALONG_B, (2.3, 2.32), 0.01, 20.0, 0.001, dense_point=4 * 20001)


def _dense_samples(res, n_nodes, T, dtau):
    return len(res.grid) * n_nodes * tau_grid(T, dtau).size


def test_sweep_samples_count_evaluated_values():
    # FN sweeps and the box scan at T=1 (no segment can be skipped) are dense
    res = sweep1d(FIELD_ALONG_B, (2.0, 7.0), 0.01, 3.5, 0.01, with_fn=True)
    assert res.samples == _dense_samples(res, 4, 3.5, 0.01)
    res = sweep2d((1.0, 30.0), (1.0, 30.0), 0.25, 1.0, 0.05)
    assert res.samples == _dense_samples(res, 8, 1.0, 0.05)
    # the fine acceptance sweep evaluates under a fifth of its dense grid
    res = sweep1d(FIELD_ALONG_B, (1.5, 31.0), 0.01, 6.0, 0.001)
    assert 0 < res.samples <= 0.2 * _dense_samples(res, 4, 6.0, 0.001)


@pytest.mark.parametrize(
    "mode, delta_range, T, dtau, with_fn, samples",
    [
        (FIELD_PERPENDICULAR, (4.0, 11.0), 10.0, 0.01, False, 507592),
        (FIELD_PERPENDICULAR, (2.0, 19.0), 15.0, 0.01, False, 2173320),
        (FIELD_ALONG_B, (2.0, 7.0), 3.5, 0.01, True, 703404),
        (FIELD_ALONG_B, (1.5, 31.0), 6.0, 0.001, False, 8191952),
    ],
)
def test_acceptance_sweep_samples_unchanged(mode, delta_range, T, dtau, with_fn, samples):
    # the four acceptance sweeps as the benchmark runs them
    res = sweep1d(mode, delta_range, 0.01, T, dtau, with_fn=with_fn)
    assert res.samples == samples


def _record_time_shapes(monkeypatch) -> list:
    """Shapes of the times of every kernel call the sweeps make from now on."""
    shapes = []
    kernel = search.sign_probability_grid

    def recording(rows, k0, taus):
        shapes.append(np.shape(taus))
        return kernel(rows, k0, taus)

    monkeypatch.setattr(search, "sign_probability_grid", recording)
    return shapes


def _coarse_route_fp(kind, grid, T, dtau):
    """FP of every grid point through the coarse pass and pruned refinement."""
    taus = tau_grid(T, dtau)
    stride = search._COARSE_STRIDE
    coarse = np.minimum(np.arange(0, taus.size - 1 + stride, stride), taus.size - 1)
    rows = coupling_rows(kind, grid.reshape(len(grid), -1))
    return search._pruned_fp(rows, taus, coarse)[0]


@pytest.mark.parametrize(
    "run, kind, T, dtau",
    [
        # the box scan of the benchmark
        (lambda T, dtau: sweep2d((1.0, 30.0), (1.0, 30.0), 0.25, T, dtau), "box", 1.0, 0.05),
        # eleven HPST intervals
        (lambda T, dtau: sweep1d(FIELD_ALONG_B, (1.5, 7.0), 0.01, T, dtau), FIELD_ALONG_B,
         3.5, 0.175),
    ],
    ids=["box-scan", "rect-along"],
)
def test_short_tau_grids_take_the_dense_route(monkeypatch, run, kind, T, dtau):
    # 2 * _COARSE_STRIDE + 1 = 21 samples: every kernel call gets the
    # whole shared grid, and FP, flags and intervals equal the coarse route
    shapes = _record_time_shapes(monkeypatch)
    res = run(T, dtau)
    assert shapes and set(shapes) == {(2 * search._COARSE_STRIDE + 1,)}
    fp = _coarse_route_fp(kind, res.grid, T, dtau)
    assert np.array_equal(res.fp, fp)
    flags = fp >= 0.9 - DISPLAY_MARGIN
    assert np.array_equal(res.hpst, flags)
    assert res.intervals == (search._intervals_from_flags(res.grid, flags) if kind != "box" else ())


def test_22_tau_samples_take_the_coarse_pass(monkeypatch):
    shapes = _record_time_shapes(monkeypatch)
    sweep2d((1.0, 3.0), (1.0, 3.0), 0.25, 1.05, 0.05)
    assert (4,) in shapes  # coarse samples 0, 10, 20 and 21


@pytest.mark.parametrize("length", range(1, search._COARSE_STRIDE + 1))
def test_pruned_fp_on_every_last_segment_length(monkeypatch, length):
    # K tau samples leave a last coarse segment of (K - 1) mod 10 samples
    # (10 at 0), whose inner indices past the end are clipped to it
    T = round(10.0 + 0.01 * length, 2)
    taus = tau_grid(T, 0.01)
    assert ((taus.size - 1) % search._COARSE_STRIDE or search._COARSE_STRIDE) == length
    evaluated = {}
    kernel = search.sign_probability_grid

    def recording(rows, k0, times):
        for row, row_times in zip(rows, np.broadcast_to(times, (len(rows), np.shape(times)[-1]))):
            evaluated.setdefault(row.tobytes(), set()).update(row_times.tolist())
        return kernel(rows, k0, times)

    monkeypatch.setattr(search, "sign_probability_grid", recording)
    res = sweep1d(FIELD_ALONG_B, (4.0, 11.0), 0.5, T, 0.01)
    rows = coupling_rows(FIELD_ALONG_B, res.grid[:, None])
    assert np.array_equal(res.fp, search._fp(sign_probability_grid(rows, 1, taus)))
    # every point took the pruned route: its coarse pass holds the last sample
    assert len(evaluated) == len(res.grid)
    for times in evaluated.values():
        assert float(taus[-1]) in times and times <= set(taus.tolist())
    assert res.samples == 4 * sum(len(times) for times in evaluated.values())
    assert res.samples < _dense_samples(res, 4, T, 0.01)


def _intervals_by_loop(grid, flags) -> tuple:
    """The start/stop loop that _intervals_from_flags replaced, as its reference."""
    runs = []
    start = None
    for k, on in enumerate(flags):
        if on and start is None:
            start = k
        elif not on and start is not None:
            runs.append((float(grid[start]), float(grid[k - 1])))
            start = None
    if start is not None:
        runs.append((float(grid[start]), float(grid[-1])))
    return tuple(runs)


@settings(max_examples=300, deadline=None)
@given(flags=st.lists(st.booleans(), min_size=1, max_size=60))
@example(flags=[True] * 9)
@example(flags=[False] * 9)
@example(flags=[True])
@example(flags=[False])
@example(flags=[False, True, False])
@example(flags=[True, True, False, False, True])
@example(flags=[True, False, True, False, True])
def test_intervals_from_flags_equal_the_run_loop(flags):
    grid = 2.0 + 0.01 * np.arange(len(flags))
    flags = np.array(flags)
    assert search._intervals_from_flags(grid, flags) == _intervals_by_loop(grid, flags)


@pytest.mark.parametrize("mode", [FIELD_PERPENDICULAR, FIELD_ALONG_B])
def test_pruned_fp_equals_dense_at_large_delta_and_small_step(mode):
    # delta ~ 100 turns fast, dtau = 1e-5 makes the segments short
    res = sweep1d(mode, (100.0, 100.01), 0.01, 9.0, 1e-5)
    assert res.samples < 0.5 * _dense_samples(res, 4, 9.0, 1e-5)
    for delta, fp in zip(res.grid, res.fp):
        assert fp == fp_value(System(mode, delta=delta), 9.0, 1e-5)


def test_pruned_box_sweep_equals_dense():
    res = sweep2d((0.5, 2.0), (0.5, 2.0), 0.5, 25.0, 0.01)
    assert res.samples < _dense_samples(res, 8, 25.0, 0.01)
    for (d1, d2), fp in zip(res.grid, res.fp):
        assert fp == fp_value(System("box", delta1=d1, delta2=d2), 25.0, 0.01)


def test_sweep2d_grid_order():
    # delta1 major, delta2 minor, as the nested comprehension built it
    res = sweep2d((1.0, 2.0), (3.0, 3.3), (0.25, 0.1), 1.0, 0.5)
    g1 = search._uniform_grid("delta1_range", (1.0, 2.0), "steps[0]", 0.25, strict=False)
    g2 = search._uniform_grid("delta2_range", (3.0, 3.3), "steps[1]", 0.1, strict=False)
    assert np.array_equal(res.grid, np.array([(d1, d2) for d1 in g1 for d2 in g2]))


@pytest.mark.parametrize(
    "args, kwargs",
    [
        (((np.nan, 3.0), 0.1, 3.5, 0.1), {}),
        (((2.0, np.inf), 0.1, 3.5, 0.1), {}),
        (((2.0, 3.0), np.nan, 3.5, 0.1), {}),
        (((2.0, 3.0), 0.1, np.nan, 0.1), {}),
        (((2.0, 3.0), 0.1, 3.5, 0.1), {"P0": np.nan}),
        (((2.0, 3.0), 0.1, 3.5, 0.1), {"margin": np.inf}),
    ],
)
def test_sweep1d_rejects_non_finite(args, kwargs):
    with pytest.raises(ValueError, match="nan|inf"):
        sweep1d(FIELD_ALONG_B, *args, **kwargs)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        (((np.nan, 9.0), (26.0, 26.4), 0.1, 1.0, 0.1), {}),
        (((9.0, 9.0), (26.0, np.inf), 0.1, 1.0, 0.1), {}),
        (((9.0, 9.0), (26.0, 26.4), (0.1, np.nan), 1.0, 0.1), {}),
        (((9.0, 9.0), (26.0, 26.4), 0.1, 1.0, np.nan), {}),
        (((9.0, 9.0), (26.0, 26.4), 0.1, 1.0, 0.1), {"P0": np.nan}),
        (((9.0, 9.0), (26.0, 26.4), 0.1, 1.0, 0.1), {"margin": np.nan}),
    ],
)
def test_sweep2d_rejects_non_finite(args, kwargs):
    with pytest.raises(ValueError, match="nan|inf"):
        sweep2d(*args, **kwargs)


@pytest.mark.parametrize("p0", [np.nan, np.inf])
def test_hpst_times_rejects_non_finite_threshold(p0):
    # p0=nan used to return ([], None) as if no node were reached
    with pytest.raises(ValueError, match="p0"):
        hpst_times(System("rect-along", delta=4.3), 3.5, 0.01, p0=p0)
    with pytest.raises(ValueError, match="nan"):
        hpst_times(System("rect-along", delta=4.3), np.nan, 0.01)


@pytest.mark.parametrize("p0", ["x", None, True, (0.9,)])
def test_hpst_times_rejects_a_threshold_that_is_not_a_number(p0):
    # "x" used to raise TypeError from np.isfinite
    with pytest.raises(ValueError, match=re.escape(f"p0 must be a real number, got {p0!r}")):
        hpst_times(System("rect-along", delta=4.3), 3.5, 0.01, p0=p0)


@pytest.mark.parametrize(
    "taus",
    [[True, False], ["0.5"], np.zeros((1, 3)), [[0.5]], [0.5 + 0j], 0.5, [None]],
)
def test_probability_grid_rejects_taus_that_are_not_a_real_vector(taus):
    # a bool or a string is not a time, and a (1, K) array is not one grid
    with pytest.raises(ValueError, match=re.escape("taus must be a 1-D real array, got")):
        System("box", delta1=2.0, delta2=3.0).probability_grid(taus)


def test_probability_grid_takes_integer_taus():
    system = System("rect-perp", delta=7.0)
    expected = system.probability_grid([0.0, 1.0, 2.0])
    assert np.array_equal(system.probability_grid([0, 1, 2]), expected)


@pytest.mark.parametrize("taus", [[0.0, np.inf], [np.nan], [1.0, -np.inf, 2.0]])
def test_probability_grid_rejects_non_finite_taus(taus):
    # refused before any phase is taken, so no NaN probabilities come back
    bad = next(t for t in taus if not np.isfinite(t))
    with pytest.raises(ValueError, match=f"taus must be finite, got {bad!r}"):
        System("box", delta1=2.0, delta2=3.0).probability_grid(taus)


def test_grid_refinement_monotonicity_spot():
    sys = System("rect-along", delta=4.3)
    coarse = fp_value(sys, 3.5, 0.02)
    fine = fp_value(sys, 3.5, 0.01)
    assert coarse <= fine + 1e-15


def test_window_monotonicity_in_T():
    sys = System("rect-perp", delta=7.0)
    assert fp_value(sys, 5.0, 0.01) <= fp_value(sys, 10.0, 0.01) + 1e-15
