"""Self-tests of the benchmark, on every workload at reduced size.

    python3 -m pytest benchmarks
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = ("geometry", "hamiltonian", "dynamics", "search", "entanglement", "closedforms",
          "verify", "cli")


@pytest.fixture(scope="module")
def results():
    """One untraced and one traced pass of each workload at reduced size."""
    return {
        name: harness.run(name, seed=3, seconds=1e-3, trace=True, root=ROOT, small=True,
                          setup_runs=1)
        for name in workloads.WORKLOADS
    }


def _metrics(lines: list) -> dict:
    return json.loads(lines[-1])["metrics"]


def test_spec_names_the_workloads():
    assert set(w["name"] for w in SPEC["workloads"]) <= set(workloads.WORKLOADS)


def test_spec_workloads_reach_every_layer(results):
    reached = set().union(*(results[w["name"]]["shares"] for w in SPEC["workloads"]))
    assert reached == set(LAYERS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(results, name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics = _metrics(harness.report(results[name], trace))
        assert {m: v["unit"] for m, v in metrics.items()} == {
            m["name"]: m["unit"] for m in SPEC[key]
        }
        assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
    assert all(_metrics(harness.report(results[name], False))[m]["value"] > 0
               for m in harness.END_TO_END)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_outputs_match_the_reference(results, name):
    r = results[name]
    assert r["checked"] > 0
    assert r["failed"] == 0
    assert r["correct"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_replay_reproduces_untraced_outputs(results, name):
    assert results[name]["replay_identical"]
    assert results[name]["layers"]["trace.spans"] > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_output_perturbed_by_1e9_is_a_failure(tmp_path, name):
    ref = reference.load()
    call = workloads.build(name, 3, True, ref.pool, str(tmp_path))[0]
    got = call.outputs(call.run())
    expected = ref.outputs(call.ref_key)
    assert reference.check(got, expected)[1] == 0
    field = next(f for f, a in got.items()
                 if a.dtype.kind == "f" and a.size
                 and f.rsplit("/", 1)[-1] not in reference.EXACT_FLOAT_FIELDS)
    got[field] = got[field].copy()
    got[field].flat[0] += 1e-9
    checked, failed, changed = reference.check(got, expected)
    assert (failed, changed) == (1, 1)


def test_exact_outputs_admit_no_rounding(tmp_path):
    ref = reference.load()
    call = workloads.build("rect-sweeps", 3, False, ref.pool, str(tmp_path))[2]
    got = call.outputs(call.run())
    assert got["intervals"].size
    got["intervals"] = np.nextafter(got["intervals"], np.inf)
    assert reference.check(got, ref.outputs(call.ref_key))[1] == got["intervals"].size


def test_command_prints_the_result_last():
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "verify", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
