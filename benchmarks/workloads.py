"""Inputs and calls of the four benchmark workloads.

A workload is a list of calls into the package's public functions.  Each
call runs one unit of work (a sweep, a query, a verify run) and returns
its raw results; ``Call.outputs`` turns those into named numpy arrays,
outside the timed region, for the checks in reference.py.  Calls reach
the package through module attributes (``search.sweep1d``, never a name
bound at import time) so that tracing.py can intercept them.

Every workload uses the library defaults, ``threads=1`` included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from spintransfer import cli, dynamics, entanglement, geometry, search, verify

# Files the benchmark writes (CLI exports, traces) go under this
# directory of the checkout.
OUT_DIR = ".bench_out"

WORKLOADS = ("rect-sweeps", "box-scan", "queries", "verify")

# The four sweeps of SWEEPS in tests/test_acceptance.py: field mode,
# delta range, T and dtau, at the tests' delta step.  The rect-along
# T=3.5 sweep also computes FN.
RECT_SWEEPS = (
    (geometry.FIELD_PERPENDICULAR, (4.0, 11.0), 10.0, 0.01, False),
    (geometry.FIELD_PERPENDICULAR, (2.0, 19.0), 15.0, 0.01, False),
    (geometry.FIELD_ALONG_B, (2.0, 7.0), 3.5, 0.01, True),
    (geometry.FIELD_ALONG_B, (1.5, 31.0), 6.0, 0.001, False),
)
DELTA_STEP = 0.01

# box-scan: no point reaches the 0.9 cut at T=1, so the FP values are
# what the check pins.
BOX_RANGE = (1.0, 30.0)
BOX_STEP = 0.25
BOX_T, BOX_DTAU = 1.0, 0.05

# queries: each query is one geometry drawn from a fixed pool that
# reference.py records.  A stream holds QUERIES_PER_KIND queries of each
# kind, so its mix of cluster sizes does not depend on the seed.
KIND_NODES = {"chain2": 2, "rect-perp": 4, "rect-along": 4, "box": 8}
POOL_PER_KIND = 32
QUERIES_PER_KIND = 100
PEAKS_T, PEAKS_DTAU = 10.0, 0.01
SNAPSHOT_TAUS = tuple(0.5 * s for s in range(1, 21))
EXPORT_T, EXPORT_DTAU = 10.0, 0.5

# Reduced sizes, used for the warm-up before timing and by the self-tests.
SMALL_DELTA_SPAN = 0.2
SMALL_BOX_RANGE = (1.0, 3.0)
SMALL_QUERIES_PER_KIND = 2
SMALL_VERIFY_DRAWS = 10


@dataclass(frozen=True)
class Call:
    """One unit of a workload.

    run() is the timed part; outputs(raw) converts its result to named
    arrays.  ref_key names the recorded outputs this call must match.
    """

    label: str
    ref_key: str
    run: Callable[[], object]
    outputs: Callable[[object], dict]


def _sweep_outputs(result) -> dict:
    out = {
        "grid": result.grid,
        "fp": result.fp,
        "hpst": result.hpst,
        "intervals": np.array(result.intervals, dtype=float).reshape(-1, 2),
    }
    if result.fn is not None:
        out["fn"] = result.fn
    return out


def rect_sweeps(small: bool) -> list:
    scale = "small" if small else "full"
    calls = []
    for i, (mode, (lo, hi), T, dtau, with_fn) in enumerate(RECT_SWEEPS):
        if small:
            hi = lo + SMALL_DELTA_SPAN

        def run(mode=mode, lo=lo, hi=hi, T=T, dtau=dtau, with_fn=with_fn):
            return search.sweep1d(mode, (lo, hi), DELTA_STEP, T, dtau, with_fn=with_fn)

        calls.append(Call(f"sweep{i}", f"rect-sweeps/{scale}/sweep{i}", run, _sweep_outputs))
    return calls


def box_scan(small: bool) -> list:
    rng = SMALL_BOX_RANGE if small else BOX_RANGE
    scale = "small" if small else "full"

    def run():
        return search.sweep2d(rng, rng, BOX_STEP, BOX_T, BOX_DTAU)

    return [Call("sweep2d", f"box-scan/{scale}/sweep2d", run, _sweep_outputs)]


def make_pool(seed: int) -> list:
    """Query geometries: POOL_PER_KIND per kind, delta in [0.5, 30].

    Each query on a cluster of N >= 4 nodes carries two bipartitions for
    its CLI export.
    """
    rng = np.random.default_rng(seed)
    pool = []
    for kind, n in KIND_NODES.items():
        for _ in range(POOL_PER_KIND):
            q = {"kind": kind, "k0": int(rng.integers(1, n + 1))}
            if kind.startswith("rect"):
                q["delta"] = float(rng.uniform(0.5, 30.0))
            elif kind == "box":
                q["delta1"] = float(rng.uniform(0.5, 30.0))
                q["delta2"] = float(rng.uniform(0.5, 30.0))
            parts = []
            if n >= 4:
                for _ in range(2):
                    perm = rng.permutation(n) + 1
                    m1 = int(rng.integers(1, n))
                    m2 = int(rng.integers(1, n - m1 + 1))
                    a = "".join(map(str, perm[:m1]))
                    b = "".join(map(str, perm[m1 : m1 + m2]))
                    parts.append(f"{a}_{b}")
            q["partitions"] = parts
            pool.append(q)
    return pool


def query_stream(pool: list, seed: int, per_kind: int) -> list:
    """Pool indices of a seeded stream: per_kind draws of each kind, shuffled."""
    rnd = random.Random(seed)
    stream = []
    for kind in KIND_NODES:
        members = [i for i, q in enumerate(pool) if q["kind"] == kind]
        stream += rnd.choices(members, k=per_kind)
    rnd.shuffle(stream)
    return stream


def _system(q: dict):
    return search.System(q["kind"], delta=q.get("delta"), delta1=q.get("delta1"),
                         delta2=q.get("delta2"), k0=q["k0"])


def _export_argv(q: dict, out: str) -> list:
    argv = ["entangle" if q["partitions"] else "simulate", "--system", q["kind"]]
    for name in ("delta", "delta1", "delta2"):
        if name in q:
            argv += [f"--{name}", repr(q[name])]
    argv += ["--k0", str(q["k0"]), "--T", repr(EXPORT_T), "--dtau", repr(EXPORT_DTAU), "--out", out]
    for part in q["partitions"]:
        argv += ["--partition", part]
    return argv


def run_query(q: dict, out: str):
    """Peaks, 20 entanglement snapshots and one CLI export of one geometry."""
    system = _system(q)
    records, window = search.hpst_times(system, PEAKS_T, PEAKS_DTAU)
    spec = system.spectrum()
    others = tuple(range(2, system.n_nodes + 1))
    one_vs_rest = entanglement.Bipartition((1,), others)
    snapshots = []
    for tau in SNAPSHOT_TAUS:
        state = dynamics.evolve(spec, system.k0, tau)
        conc = [entanglement.concurrence(state, 1, j) for j in others]
        snapshots.append((state.probabilities, conc, entanglement.negativity(state, one_vs_rest)))
    rc = cli.main(_export_argv(q, out))
    return records, window, snapshots, rc, Path(out).read_bytes()


def query_outputs(raw) -> dict:
    records, window, snapshots, rc, csv = raw
    lines = csv.decode("ascii").splitlines()
    return {
        "peak_target": np.array([r.target for r in records], dtype=np.int64),
        "peak_tau": np.array([r.tau_star for r in records], dtype=float),
        "peak_p": np.array([r.p_star for r in records], dtype=float),
        "window": np.array([] if window is None else [window], dtype=float),
        "snap_prob": np.array([s[0] for s in snapshots]),
        "snap_conc": np.array([s[1] for s in snapshots], dtype=float),
        "snap_neg": np.array([s[2] for s in snapshots], dtype=float),
        "cli_rc": np.array([rc], dtype=np.int64),
        "csv_header": np.array(lines[0].split(",")),
        "csv_values": np.array([[float(x) for x in line.split(",")] for line in lines[1:]]),
        "csv_raw": np.frombuffer(csv, dtype=np.uint8),
    }


def query_call(pool: list, index: int, label: str, workdir: str) -> Call:
    out = str(Path(workdir) / "export.csv")
    return Call(label, f"queries/pool{index}", lambda: run_query(pool[index], out), query_outputs)


def queries(pool: list, seed: int, small: bool, workdir: str) -> list:
    per_kind = SMALL_QUERIES_PER_KIND if small else QUERIES_PER_KIND
    stream = query_stream(pool, seed, per_kind)
    return [query_call(pool, idx, f"q{pos}", workdir) for pos, idx in enumerate(stream)]


def _suite_outputs(suites) -> dict:
    out = {}
    for s in suites:
        out[f"{s.name}/passed"] = np.array([s.passed])
        out[f"{s.name}/max_deviation"] = np.array([s.max_deviation])
        out[f"{s.name}/tolerance"] = np.array([s.tolerance])
    return out


def verify_suites(small: bool) -> list:
    if small:
        def run():
            d = SMALL_VERIFY_DRAWS
            return [verify.suite_closed_forms(d), verify.suite_concurrence(d),
                    verify.suite_negativity(d), verify.suite_spectra(d)]
        return [Call("suites", "verify/small/suites", run, _suite_outputs)]
    return [Call("run_all", "verify/full/run_all", lambda: verify.run_all(), _suite_outputs)]


def build(name: str, seed: int, small: bool, pool: list, workdir: str) -> list:
    """Calls of workload name.  Only queries depends on the seed."""
    if name == "rect-sweeps":
        return rect_sweeps(small)
    if name == "box-scan":
        return box_scan(small)
    if name == "queries":
        return queries(pool, seed, small, workdir)
    if name == "verify":
        return verify_suites(small)
    raise ValueError(f"unknown workload {name!r}")
