"""The seeded draws behind the randomized verify suites, and what the
spectra and closed-form suites catch."""

import inspect
import math
import re
from itertools import combinations

import numpy as np
import pytest

import spintransfer.cli as cli
import spintransfer.closedforms as closedforms
import spintransfer.dynamics as dynamics
import spintransfer.entanglement as entanglement
import spintransfer.geometry as geometry
import spintransfer.search as search
import spintransfer.verify as verify
from spintransfer.search import KINDS
from spintransfer.verify import (
    _random_system,
    run_all,
    suite_closed_forms,
    suite_concurrence,
    suite_negativity,
    suite_spectra,
)

# (kind, delta, delta1, delta2, k0) of the first draws from seed 174,
# recorded when each kind was still drawn by its own branch.
FIRST_DRAWS = [
    ("rect-perp", 12.503477626424392, None, None, 4),
    ("rect-perp", 6.239066265878042, None, None, 4),
    ("box", None, 8.140971414630915, 14.539054251995404, 1),
    ("rect-along", 12.71096113042114, None, None, 4),
    ("box", None, 0.30081912442542635, 13.827507777163623, 6),
    ("rect-along", 7.975006214830125, None, None, 1),
    ("rect-perp", 12.116339710741777, None, None, 2),
    ("rect-perp", 2.323333361511835, None, None, 1),
]


def test_random_system_draws_frozen():
    rng = np.random.default_rng(174)
    for expected in FIRST_DRAWS:
        s = _random_system(rng)
        assert (s.kind, s.delta, s.delta1, s.delta2, s.k0) == expected


def test_random_system_draws_match_the_choice_recipe():
    # the kind was drawn as str(rng.choice(list(KINDS))); one integer draw
    # indexing the kinds takes the same numbers from the stream
    rng, reference = np.random.default_rng(174), np.random.default_rng(174)
    for _ in range(1000):
        s = _random_system(rng)
        kind = str(reference.choice(list(KINDS)))
        n_nodes, params = KINDS[kind]
        deltas = {name: float(reference.uniform(0.1, 15.0)) for name in params}
        k0 = int(reference.integers(1, n_nodes + 1))
        assert s == search.System(kind, **deltas, k0=k0)
        assert type(s.kind) is str


def test_negativity_suite_fails_on_a_wrong_closed_form(monkeypatch):
    # the oracle, not the closed form, is the reference: 3 S_A S_B in place
    # of 4 S_A S_B must fail the suite
    source = inspect.getsource(entanglement.negativity_grid)
    right = "4.0 * s_a * s_b"
    assert source.count(right) == 1
    namespace = dict(vars(entanglement))
    exec(source.replace(right, "3.0 * s_a * s_b"), namespace)
    monkeypatch.setattr(entanglement, "negativity_grid", namespace["negativity_grid"])
    result = suite_negativity()
    assert not result.passed
    assert result.max_deviation > 1e-3


@pytest.mark.parametrize("kind", ["rect-perp", "rect-along", "box"])
def test_spectra_suite_fails_on_a_wrong_coupling_row(monkeypatch, kind):
    # System.spectrum() is built from the closed-form row, so a wrong row
    # must show against the eigh of the layout
    right = search._ROW_FORMS[kind]

    def wrong(*params):
        row = right(*params)
        return (*row[:-1], -row[-1])  # d_1N with its sign flipped

    monkeypatch.setitem(search._ROW_FORMS, kind, wrong)
    result = suite_spectra()
    assert not result.passed
    assert result.max_deviation > 1e-3


def test_closed_forms_suite_fails_on_a_wrong_sign_kernel(monkeypatch):
    # the kernel behind System.probability_grid, with the box's sine
    # product subtracted from its cosine product instead of added
    source = inspect.getsource(dynamics.sign_probability_grid)
    right = "total = total + reduce(np.multiply, [sin[g - 1]"
    assert source.count(right) == 1
    namespace = dict(vars(dynamics))
    exec(source.replace(right, right.replace("+", "-")), namespace)
    monkeypatch.setattr(search, "sign_probability_grid", namespace["sign_probability_grid"])
    results = {result.name: result for result in run_all()}
    assert not results["closed-forms"].passed
    assert results["closed-forms"].max_deviation > 0.1


def _mutated(module, name, right, wrong):
    """module.name compiled from its source with the one occurrence of right
    replaced by wrong."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(right) == 1
    namespace = dict(vars(module))
    exec(source.replace(right, wrong), namespace)
    return namespace[name]


def test_closed_forms_suite_fails_on_a_wrong_rectangle_formula(monkeypatch):
    # P_13 with the two cosines added: the stacked rectangle draws, taken
    # through one broadcast rect_P call per stack, must still see it
    wrong = _mutated(closedforms, "rect_P", "c * (c14 - c13)", "c * (c14 + c13)")
    monkeypatch.setattr(closedforms, "rect_P", wrong)
    result = suite_closed_forms()
    assert not result.passed
    assert result.max_deviation > 0.1


def test_spectra_suite_fails_on_a_wrong_dipolar_angle_factor(monkeypatch):
    # 1 - 2.9 cos^2 in place of 1 - 3 cos^2: the stacked eigh of the
    # layouts' D no longer matches the closed-form rows
    wrong = _mutated(geometry, "coupling_matrix", "3.0 * cos2", "2.9 * cos2")
    monkeypatch.setattr(verify, "coupling_matrix", wrong)
    result = suite_spectra()
    assert not result.passed
    assert result.max_deviation > 1e-3


def test_closed_forms_suite_fails_on_a_wrong_pruning_bound(monkeypatch):
    # a curvature bound 100 times too small lets the coarse pass skip
    # samples above the coarse maxima: the pruned sweep's FP no longer
    # equals the dense kernel's
    right = search._sign_curvature
    monkeypatch.setattr(search, "_sign_curvature", lambda rows: right(rows) / 100.0)
    result = suite_closed_forms()
    assert not result.passed
    assert result.max_deviation == np.inf


def test_pruned_route_check_runs_on_pruned_points():
    # every point of the check's sweep takes the coarse pass, so it
    # evaluates fewer samples than the dense grid
    kind, _, _, T, dtau = verify._PRUNED_SWEEP
    sweep = search.sweep1d(*verify._PRUNED_SWEEP)
    taus = dynamics.tau_grid(T, dtau)
    assert sweep.grid.size == 29
    rows = search.coupling_rows(kind, sweep.grid[:, None])
    h = search._COARSE_STRIDE * dtau
    assert (search._sign_curvature(rows) * h * h / 8.0 < 1.0).all()
    assert sweep.samples < sweep.grid.size * 4 * taus.size


@pytest.mark.parametrize("draws", [0, 1, 5])
def test_stacked_suites_take_any_draw_count(draws):
    # a last stack shorter than _STACK, and no box at all below 2 draws
    assert suite_closed_forms(draws).passed
    assert suite_spectra(draws).passed


def test_closed_forms_suite_fails_on_an_fn_that_skips_pair_2_4(monkeypatch):
    # node pair (2, 4) sets FN at the middle point of each FN check sweep;
    # an FN that skips it passes every other check of the suite
    def skipping(nodes, r):
        return [pair for pair in combinations(nodes, r) if pair != (1, 3)]

    monkeypatch.setattr(search, "combinations", skipping)
    result = suite_closed_forms()
    assert not result.passed
    assert result.max_deviation > 0.05



# (module, name, replacement, suite): a route that returns NaN where its
# suite compares it.
NAN_ROUTES = [
    (verify, "concurrence", lambda state, i, j: math.nan, suite_concurrence),
    (verify, "negativity", lambda state, part: math.nan, suite_negativity),
    (closedforms, "cube_P", lambda taus: (np.full(taus.shape, np.nan),) * 8, suite_closed_forms),
]


@pytest.mark.parametrize("module, name, nan_route, suite", NAN_ROUTES, ids=[r[1] for r in NAN_ROUTES])
def test_a_nan_deviation_fails_its_suite_and_the_cli(monkeypatch, capsys, module, name, nan_route, suite):
    # max(dev, nan) is dev, so a running max would drop the NaN and pass
    monkeypatch.setattr(module, name, nan_route)
    result = suite(20)
    assert not result.passed
    assert math.isnan(result.max_deviation)
    assert cli.main(["verify"]) == 1
    assert f"{result.name} max_dev=nan" in capsys.readouterr().out


@pytest.mark.parametrize("suite", [suite_closed_forms, suite_concurrence, suite_negativity, suite_spectra])
@pytest.mark.parametrize("draws", [-5, True, False, 2.5, 3.0, None])
def test_suites_refuse_a_bad_draw_count(suite, draws):
    message = f"draws must be a non-negative integer, got {draws!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        suite(draws)


def test_suites_take_a_numpy_integer_draw_count():
    assert suite_concurrence(np.int64(3)).passed
    assert suite_negativity(np.int64(3)).passed
