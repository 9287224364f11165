"""Timing loop, checks and report of the spintransfer benchmark.

run.py pins the BLAS threads and puts the checkout's ``src`` on the path
before this module (and numpy) is imported.

One run of a workload:

1. records the environment and times a fixed numpy calibration loop
   (recorded only, never used to rescale a metric);
2. measures setup_s: SETUP_RUNS fresh interpreters, each timed from its
   start until spintransfer is imported and one box spectrum is ready,
   after one untimed start that fills the bytecode cache;
3. runs the workload once at reduced size as a warm-up;
4. runs whole passes of the workload until the next one would end after
   ``seconds``, checking the outputs of every pass against the
   reference.  wall_s is the sum over the workload's calls of each
   call's fastest wall time in the run, and cpu_s the sum of the CPU
   times of those same call executions: on a shared host, load from
   other processes only ever adds time, and a short call finds a quiet
   moment where a whole pass does not.  With tracing on, untraced and
   traced passes alternate, the traced outputs must equal the untraced
   ones bit for bit, and the per-layer metrics are medians over the
   traced passes;
5. times the calibration loop again and prints the report.  The last
   line of standard output is a JSON object with the keys correct,
   attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import reference
import tracing
import workloads

SETUP_RUNS = 11
SETUP_CODE = (
    "import time, spintransfer\n"
    "spintransfer.System('box', delta1=2.0, delta2=3.0).spectrum()\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)
CALIBRATION_REPEATS = 4

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def environment(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": reference.git_commit(root),
        "src_sha256": source_digest(root / "src"),
    }


def source_digest(src: Path) -> str:
    """sha256 over the package's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def calibrate() -> float:
    """Seconds for a fixed pure-numpy loop (complex exp and a small matmul)."""
    z = -0.5j * np.linspace(0.0, 60.0, 100_000)
    w = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
    start = time.perf_counter()
    for _ in range(CALIBRATION_REPEATS):
        (w @ np.exp(z).reshape(8, -1)).sum()
    return time.perf_counter() - start


def setup_time(src: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return float(out.stdout.strip()) - start


def timed_pass(calls: list, tracer=None) -> dict:
    """Run every call once; time the pass and each call (wall, CPU)."""
    raws, times = [], []
    wall0 = time.perf_counter()
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.call_id = i
        cpu = time.process_time()
        start = time.perf_counter()
        raws.append(call.run())
        times.append((time.perf_counter() - start, time.process_time() - cpu))
    wall = time.perf_counter() - wall0
    outputs = [call.outputs(raw) for call, raw in zip(calls, raws)]
    return {"wall": wall, "calls": times, "outputs": outputs}


def fastest_calls(passes: list) -> tuple:
    """Sums of wall and CPU time over the calls, each call at its fastest."""
    best = [min(times) for times in zip(*(p["calls"] for p in passes))]
    return sum(w for w, _ in best), sum(c for _, c in best)


def check_pass(calls: list, outputs: list, ref: reference.Reference) -> tuple:
    checked = failed = changed = 0
    for call, got in zip(calls, outputs):
        c, f, b = reference.check(got, ref.outputs(call.ref_key))
        checked, failed, changed = checked + c, failed + f, changed + b
    return checked, failed, changed


def identical(a: list, b: list) -> bool:
    """True when two passes gave the same outputs, bit for bit."""
    return all(
        x.keys() == y.keys()
        and all(x[k].dtype == y[k].dtype and x[k].shape == y[k].shape
                and x[k].tobytes() == y[k].tobytes() for k in x)
        for x, y in zip(a, b)
    )


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        small: bool = False, setup_runs: int = SETUP_RUNS) -> dict:
    """Run one workload and return its measurements; see the module docstring.

    small runs the reduced-size workload; the self-tests use it.
    """
    env = environment(root, seed)
    calibration = [calibrate()]
    setup_time(root / "src")
    setups = [setup_time(root / "src") for _ in range(setup_runs)]
    ref = reference.load()
    out_dir = root / workloads.OUT_DIR
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        timed_pass(workloads.build(workload, seed, True, ref.pool, work))
        calls = workloads.build(workload, seed, small, ref.pool, work)
        untraced, traced = [], []
        checked = failed = 0
        first = tracer = None
        replay_ok = True
        start = time.perf_counter()
        while True:
            for traced_pass in (False, True) if trace else (False,):
                tracer = tracing.Tracer() if traced_pass else None
                with tracer.installed() if traced_pass else contextlib.nullcontext():
                    p = timed_pass(calls, tracer)
                outputs = p.pop("outputs")
                c, f, changed = check_pass(calls, outputs, ref)
                checked, failed = checked + c, failed + f
                if first is None:
                    first, first_changed = outputs, changed
                if traced_pass:
                    replay_ok = replay_ok and identical(outputs, first)
                    p["layers"] = tracing.layer_metrics(tracer)
                    traced.append(p)
                else:
                    untraced.append(p)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(untraced) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration.append(calibrate())

    walls = [p["wall"] for p in untraced]
    wall_s, cpu_s = fastest_calls(untraced)
    result = {
        "workload": workload,
        "env": env,
        "calibration_s": calibration,
        "passes": len(untraced),
        "wall_s": walls,
        "setup_s": setups,
        "checked": checked,
        "failed": failed,
        "bits_changed": first_changed,
        "outputs": sum(len(o) for o in first),
        "metrics": {
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if workload == "queries":
        lat_ms = [1e3 * t for p in untraced for t, _ in p["calls"]]
        deciles = statistics.quantiles(lat_ms, n=10)
        result["queries"] = {"query_p50_ms": deciles[4], "query_p90_ms": deciles[8],
                             "samples": len(lat_ms)}
    if trace:
        # median_low keeps each count an exact value of one pass.
        layers = {k: statistics.median_low(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = fastest_calls(traced)[0] - wall_s
        result["layers"] = layers
        result["shares"] = tracing.layer_shares(tracer, traced[-1]["wall"])
        result["traced_passes"] = len(traced)
        result["replay_identical"] = replay_ok
        spans = out_dir / f"trace-{workload}.jsonl"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(root))
    result["correct"] = failed == 0 and (replay_ok or not trace)
    return result


def report(result: dict, trace: bool) -> list:
    """Human-readable lines, then the JSON result line."""
    m = result["metrics"]
    walls = result["wall_s"]
    q1, q3 = quartiles(walls)
    lines = [
        f"workload {result['workload']}",
        "env " + json.dumps(result["env"], sort_keys=True),
        "calibration_s start={:.6f} end={:.6f} (recorded only)".format(*result["calibration_s"]),
        f"wall_s {m['wall_s']!r} s (each call at its fastest of {result['passes']} passes; "
        f"whole passes: median {statistics.median(walls):.6f}, quartiles {q1:.6f}..{q3:.6f})",
        f"cpu_s {m['cpu_s']!r} s (the same call executions)",
        f"setup_s {m['setup_s']!r} s (median of {len(result['setup_s'])} fresh processes)",
        f"peak_rss_mb {m['peak_rss_mb']!r} MB",
    ]
    if "queries" in result:
        q = result["queries"]
        lines += [f"query_p50_ms {q['query_p50_ms']!r} ms ({q['samples']} queries)",
                  f"query_p90_ms {q['query_p90_ms']!r} ms ({q['samples']} queries)"]
    lines += [
        f"fail_frac {result['failed'] / result['checked']!r} ratio "
        f"({result['failed']} of {result['checked']} output values)",
        f"bits_changed {result['bits_changed']} of {result['outputs']} outputs of the "
        f"first pass differ from the reference in their raw bytes (information only)",
    ]
    if trace:
        lines.append(f"replay_identical {result['replay_identical']} "
                     f"({result['traced_passes']} traced passes vs the untraced outputs)")
        for name, unit in tracing.PER_LAYER.items():
            label = " (computed)" if unit in ("count", "B") and name != "trace.spans" else ""
            lines.append(f"{name} {result['layers'][name]!r} {unit}{label}")
        lines.append("shares " + json.dumps({k: round(v, 4) for k, v in result["shares"].items()}))
        lines.append(f"spans written to {result['spans_file']}")
    units = tracing.PER_LAYER if trace else END_TO_END
    values = result["layers"] if trace else m
    final = {
        "correct": result["correct"],
        "attempted": result["checked"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    lines.append(json.dumps(final))
    return lines


def main(argv: list, root: Path) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print("\n".join(report(result, bool(args.trace))), flush=True)
    return 0
