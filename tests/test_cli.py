"""Command-line behavior: CSV output, summaries, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spintransfer
from spintransfer.cli import _write_csv, build_parser, main
from spintransfer.dynamics import evolve
from spintransfer.entanglement import Bipartition, concurrence, negativity, negativity_grid
from spintransfer.geometry import NodeLayout
from spintransfer.search import KINDS, System, hpst_times
from spintransfer.verify import SuiteResult

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _load_csv(path):
    header = path.read_text().splitlines()[0].split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return header, data


def test_simulate_chain2_csv(tmp_path):
    out = tmp_path / "chain2.csv"
    code = main(
        ["simulate", "--system", "chain2", "--T", "6.2832", "--dtau", "0.01", "--out", str(out)]
    )
    assert code == 0
    header, data = _load_csv(out)
    assert header == ["tau", "P_1", "P_2"]
    assert data.shape == (629, 3)
    assert data[0] == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)
    near_pi = data[np.abs(data[:, 0] - np.pi).argmin()]
    assert near_pi[2] == pytest.approx(1.0, abs=1e-4)


def test_simulate_rect_writes_four_targets(tmp_path):
    out = tmp_path / "rect.csv"
    code = main(
        ["simulate", "--system", "rect-along", "--delta", "4.3", "--T", "3.5", "--out", str(out)]
    )
    assert code == 0
    header, data = _load_csv(out)
    assert header == ["tau", "P_1", "P_2", "P_3", "P_4"]
    assert np.allclose(data[:, 1:].sum(axis=1), 1.0, atol=1e-10)


def test_simulate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--system", "box", "--delta1", "9", "--delta2", "26.2", "--T", "2", "--out"]
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_values_keep_17_significant_digits(tmp_path):
    # one formatted write per file gives the bytes of format(x, ".17g")
    # per value, non-finite, signed-zero and subnormal values included
    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3])
    out = tmp_path / "x.csv"
    _write_csv(str(out), ["a", "b"], [values, values[::-1]])
    rows = zip(values, values[::-1])
    expected = "a,b\n" + "".join(",".join(format(float(x), ".17g") for x in r) + "\n" for r in rows)
    assert out.read_bytes() == expected.encode("ascii")


def test_entangle_chain2_matches_sine(tmp_path):
    out = tmp_path / "ent.csv"
    code = main(
        ["entangle", "--system", "chain2", "--T", "12.5664", "--out", str(out), "--partition", "1_2"]
    )
    assert code == 0
    header, data = _load_csv(out)
    assert header == ["tau", "N_1_2"]
    assert np.abs(data[:, 1] - np.abs(np.sin(data[:, 0]))).max() < 1e-10


def test_entangle_box_partitions(tmp_path):
    out = tmp_path / "ent.csv"
    code = main(
        [
            "entangle",
            "--system", "box",
            "--delta1", "9", "--delta2", "26.2",
            "--T", "1.0",
            "--out", str(out),
            "--partition", "15_48",
            "--partition", "1458_2367",
        ]
    )
    assert code == 0
    header, data = _load_csv(out)
    assert header == ["tau", "N_15_48", "N_1458_2367"]
    assert np.all(data[:, 1:] >= -1e-12)
    # each column is the library negativity of the system's probabilities
    probs = System("box", delta1=9.0, delta2=26.2).probability_grid(data[:, 0])
    parts = [Bipartition((1, 5), (4, 8)), Bipartition((1, 4, 5, 8), (2, 3, 6, 7))]
    for i, row in enumerate(data):
        for col, part in enumerate(parts, start=1):
            assert abs(row[col] - negativity_grid(*part.weights(probs[:, i]))) <= 1e-15


def test_entangle_requires_partitions(tmp_path):
    code = main(
        ["entangle", "--system", "chain2", "--T", "1", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


def test_entangle_rejects_malformed_partition(tmp_path):
    code = main(
        [
            "entangle",
            "--system", "chain2",
            "--T", "1",
            "--out", str(tmp_path / "x.csv"),
            "--partition", "1-2",
        ]
    )
    assert code == 2


def test_entangle_names_a_partition_node_beyond_n(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(
        ["entangle", "--system", "rect-along", "--delta", "2", "--T", "1",
         "--out", str(out), "--partition", "12_35"]
    )
    assert code == 2
    assert "error: partition '12_35' names a node beyond 4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "partition, message",
    [
        ("0_1", "node index 0 must be a positive integer"),
        ("12_30", "node index 0 must be a positive integer"),
        ("-1_2", "partition '-1_2' is not of the form '15_48'"),
        ("True_2", "partition 'True_2' is not of the form '15_48'"),
    ],
)
def test_entangle_names_a_partition_node_that_is_not_positive(tmp_path, capsys, partition, message):
    out = tmp_path / "x.csv"
    code = main(
        ["entangle", "--system", "rect-along", "--delta", "2", "--T", "1",
         "--out", str(out), f"--partition={partition}"]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_every_coupling_parameter_has_its_flags():
    # the flags come from KINDS, so a new kind or parameter needs no CLI edit
    parser = build_parser()
    for kind, (_, names) in KINDS.items():
        for name in names:
            for command in ("simulate", "entangle", "peaks"):
                argv = [command, "--system", kind, f"--{name}", "2.5", "--T", "1"]
                args = parser.parse_args(argv + (["--out", "x.csv"] if command != "peaks" else []))
                assert getattr(args, name) == 2.5
            args = parser.parse_args(
                ["sweep", "--system", kind, "--T", "1", "--out", "x.csv",
                 f"--{name}-min", "2", f"--{name}-max", "3", f"--{name}-step", "0.5"]
            )
            assert [getattr(args, f"{name}_{end}") for end in ("min", "max", "step")] == [2, 3, 0.5]


def test_sweep_prints_interval(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--system", "rect-along",
            "--delta-min", "2.0", "--delta-max", "7.0",
            "--T", "3.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("HPST interval")]
    assert "HPST interval: [2.62, 6.08]" in lines
    header, data = _load_csv(out)
    assert header == ["delta", "FP"]
    assert data.shape[0] == 501


def test_sweep_reports_empty_result(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--system", "rect-along",
            "--delta-min", "0.55", "--delta-max", "0.60",
            "--delta-step", "0.01",
            "--T", "2.0",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "no HPST interval found" in capsys.readouterr().out


def test_sweep_fn_column(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--system", "rect-perp",
            "--delta-min", "6.9", "--delta-max", "7.1",
            "--delta-step", "0.1",
            "--T", "10", "--dtau", "0.02",
            "--fn",
            "--out", str(out),
        ]
    )
    assert code == 0
    header, data = _load_csv(out)
    assert header == ["delta", "FP", "FN"]
    assert np.all(data[:, 2] >= 0.0)


def test_sweep_box_grid(tmp_path, capsys):
    out = tmp_path / "sweep2d.csv"
    code = main(
        [
            "sweep",
            "--system", "box",
            "--delta1-min", "9", "--delta1-max", "9",
            "--delta2-min", "26", "--delta2-max", "26.4",
            "--delta2-step", "0.1",
            "--T", "25",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "HPST points: 1 of 5" in capsys.readouterr().out
    header, data = _load_csv(out)
    assert header == ["delta1", "delta2", "FP"]
    assert data.shape == (5, 3)
    best = data[data[:, 2].argmax()]
    assert best[1] == pytest.approx(26.2, abs=1e-9)
    assert best[2] >= 0.9


def test_sweep_rejects_chain2(tmp_path):
    code = main(
        ["sweep", "--system", "chain2", "--T", "2", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


def test_sweep_rejects_fn_for_box(tmp_path):
    code = main(
        [
            "sweep",
            "--system", "box",
            "--delta1-min", "9", "--delta1-max", "9",
            "--delta2-min", "26", "--delta2-max", "26.4",
            "--T", "25", "--fn",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2


@pytest.mark.parametrize("flag", [["--k0", "3"], ["--delta", "5"]])
def test_sweep_rejects_system_flags(tmp_path, flag):
    # sweep reads neither a fixed coupling parameter nor k0
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--system", "rect-along", "--delta-min", "2", "--delta-max", "3",
              "--T", "1", "--out", str(tmp_path / "x.csv"), *flag])
    assert err.value.code == 2
    assert not (tmp_path / "x.csv").exists()


def test_sweep_names_missing_range_flag(tmp_path, capsys):
    out = ["--T", "1", "--out", str(tmp_path / "x.csv")]
    cases = [
        (["--system", "rect-perp", "--delta-max", "3"], "rect-perp sweep requires --delta-min"),
        (["--system", "rect-along", "--delta-min", "2"], "rect-along sweep requires --delta-max"),
        (["--system", "box", "--delta1-max", "3", "--delta2-min", "1", "--delta2-max", "2"],
         "box sweep requires --delta1-min"),
    ]
    for argv, message in cases:
        assert main(["sweep", *argv, *out]) == 2
        assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "range_flags, message",
    [
        (["--delta-min", "0", "--delta-max", "2"], "delta_range[0] must be a real number in [1e-09, 1e+09], got 0.0"),
        (["--delta-min", "-1", "--delta-max", "2"], "delta_range[0] must be a real number in [1e-09, 1e+09], got -1.0"),
        # 100001 points x 100001 tau samples x 4 nodes, refused before evaluation
        (["--delta-min", "1", "--delta-max", "2", "--delta-step", "1e-5", "--dtau", "0.001"],
         "cap is 1e+10"),
    ],
)
def test_sweep_usage_error_names_value(tmp_path, capsys, range_flags, message):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--system", "rect-along", *range_flags, "--T", "100",
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_peaks_rect_along(capsys):
    code = main(
        ["peaks", "--system", "rect-along", "--delta", "4.3", "--T", "3.5"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m tau_star p_star"
    rows = {int(l.split()[0]): (float(l.split()[1]), float(l.split()[2])) for l in lines[1:-1]}
    assert rows[4][0] == pytest.approx(0.3603, abs=1e-3)
    assert rows[3][1] == pytest.approx(0.963, abs=1e-3)
    assert lines[-1].startswith("T_window ")
    assert float(lines[-1].split()[1]) == pytest.approx(3.2852, abs=1e-3)


def test_peaks_chain2(capsys):
    code = main(["peaks", "--system", "chain2", "--T", "7"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    target2 = next(l for l in lines[1:] if l.startswith("2 "))
    assert float(target2.split()[1]) == pytest.approx(np.pi, abs=1e-3)
    assert float(target2.split()[2]) == pytest.approx(1.0, abs=1e-9)


def test_peaks_reports_undefined_window(capsys):
    code = main(
        ["peaks", "--system", "rect-along", "--delta", "4.3", "--T", "1.0"]
    )
    assert code == 0
    assert "T_window undefined" in capsys.readouterr().out


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_verify_fails_on_tampered_suite(monkeypatch, capsys):
    monkeypatch.setattr(
        "spintransfer.cli.run_all",
        lambda: [SuiteResult("closed-forms", 0.5, 1e-10, False)],
    )
    assert main(["verify"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_unwritable_output_is_io_error(tmp_path):
    code = main(
        [
            "simulate",
            "--system", "chain2",
            "--T", "1",
            "--out", str(tmp_path / "missing" / "out.csv"),
        ]
    )
    assert code == 3


def test_non_finite_value_is_usage_error(tmp_path, capsys):
    code = main(
        ["simulate", "--system", "chain2", "--T", "nan", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "T=nan" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_coupling_row_out_of_range_is_usage_error(tmp_path, capsys):
    # exited 0 with an overflow warning and P_3 = P_4 = 0 in the CSV
    out = tmp_path / "x.csv"
    code = main(["simulate", "--system", "rect-along", "--delta", "1e-300", "--T", "1",
                 "--dtau", "0.5", "--out", str(out)])
    assert code == 2
    assert "delta must be a real number in [1e-09, 1e+09], got 1e-300" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, value",
    [
        (["simulate", "--system", "chain2", "--T", "1e308", "--dtau", "1e-10"], "1e+308"),
        (["sweep", "--system", "rect-along", "--delta-min", "2", "--delta-max", "7",
          "--delta-step", "1e-300", "--T", "3.5"], "1e-300"),
    ],
)
def test_oversized_grid_is_usage_error(tmp_path, capsys, argv, value):
    code = main([*argv, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert value in err and "cap is 1000000" in err
    assert not (tmp_path / "x.csv").exists()


def test_p0_only_where_it_is_read(tmp_path, capsys):
    # peaks and sweep take --p0; simulate and entangle never read it
    assert main(["peaks", "--system", "rect-along", "--delta", "4.3", "--T", "3.5",
                 "--p0", "0.965"]) == 0
    assert "T_window undefined" in capsys.readouterr().out
    for flag in (["--p0", "0.5"], ["--threads", "2"]):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--system", "chain2", "--T", "1",
                  "--out", str(tmp_path / "x.csv"), *flag])
        assert err.value.code == 2


def test_unknown_system_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--system", "hexagon", "--T", "1", "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2


def _load_toml(path):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no tomllib
        tomllib = pytest.importorskip("tomli")
    with path.open("rb") as fh:
        return tomllib.load(fh)


def _child_env():
    """Environment whose PYTHONPATH starts with the source tree this suite imported.

    A child interpreter then runs the same spintransfer as the in-process
    tests, whatever copy is installed and however the suite was launched,
    and turns every RuntimeWarning into an error, as the suite does.
    """
    src = str(Path(spintransfer.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return env


def test_console_script_runs(tmp_path):
    # Checks the declared [project.scripts] entry, not an installed
    # executable: the launcher below is the one pip writes for it.
    entry = _load_toml(PYPROJECT)["project"]["scripts"]["spintransfer"]
    assert entry == "spintransfer.cli:main"
    module, attr = entry.split(":")
    launcher = tmp_path / "spintransfer"  # argparse takes prog from this name
    launcher.write_text(f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n")
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [
            sys.executable, str(launcher), "simulate",
            "--system", "chain2",
            "--T", "1", "--dtau", "0.1",
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_module_entry_point(tmp_path):
    out = tmp_path / "mod.csv"
    proc = subprocess.run(
        [
            sys.executable, "-m", "spintransfer.cli",
            "simulate",
            "--system", "chain2",
            "--T", "1", "--dtau", "0.1",
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_consecutive_main_calls_share_no_state(tmp_path, capsys):
    # every main() of a process parses with one parser; nothing a call
    # parsed (the --partition list, --k0) carries over to the next
    assert build_parser() is build_parser()
    ent = tmp_path / "ent.csv"
    assert main(["entangle", "--system", "box", "--delta1", "9", "--delta2", "26.2", "--k0", "2",
                 "--T", "1", "--out", str(ent), "--partition", "15_48",
                 "--partition", "1458_2367"]) == 0
    assert ent.read_text().splitlines()[0] == "tau,N_15_48,N_1458_2367"
    capsys.readouterr()
    assert main(["entangle", "--system", "box", "--delta1", "9", "--delta2", "26.2",
                 "--T", "1", "--out", str(tmp_path / "none.csv")]) == 2
    assert "at least one --partition is required" in capsys.readouterr().err
    assert not (tmp_path / "none.csv").exists()
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--system", "box", "--T", "1", "--out", str(tmp_path / "x.csv"),
              "--partition", "15_48"])
    assert err.value.code == 2
    argv = ["simulate", "--system", "box", "--delta1", "9", "--delta2", "26.2", "--T", "1"]
    assert main([*argv, "--out", str(tmp_path / "again.csv")]) == 0
    fresh = tmp_path / "fresh.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "spintransfer.cli", *argv, "--out", str(fresh)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "again.csv").read_bytes() == fresh.read_bytes()


def test_query_path_builds_no_layout_and_no_eigensolver(tmp_path, capsys, monkeypatch):
    # spectra, peaks, snapshots, entanglement and the CLI exports all run
    # from the closed-form coupling rows
    def forbidden(*args, **kwargs):
        raise AssertionError("layout or eigensolver on the query path")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(NodeLayout, "__post_init__", forbidden)
    systems = [
        System("chain2"),
        System("rect-perp", delta=1.0, k0=2),
        System("rect-along", delta=4.3),
        System("box", delta1=9.0, delta2=26.2, k0=3),
    ]
    for system in systems:
        spec = system.spectrum()
        hpst_times(system, 3.5, 0.01)
        state = evolve(spec, system.k0, 2.9)
        concurrence(state, 1, 2)
        negativity(state, Bipartition((1,), tuple(range(2, system.n_nodes + 1))))
    box = ["--system", "box", "--delta1", "9", "--delta2", "26.2", "--T", "1"]
    assert main(["simulate", *box, "--out", str(tmp_path / "s.csv")]) == 0
    assert main(["entangle", *box, "--out", str(tmp_path / "e.csv"), "--partition", "15_48"]) == 0
    assert main(["peaks", *box]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
