"""Reference outputs of the benchmark workloads and the check against them.

The reference was recorded from the package by running this file::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/reference.py

It holds the outputs of every call of every workload, at full and at
reduced size, and of every geometry in the query pool.  Floating-point
outputs (FP, FN, probabilities, negativities, concurrences, peak times)
must agree within TOLERANCE, the bound the roadmap sets for a new fast
path.  Integer, boolean and string outputs, the sweep grids, interval
endpoints and suite tolerances must agree exactly.  Each output also
carries the sha256 of its raw bytes; a change of those bytes is reported
but is not a failure, and outputs named ``*_raw`` (the CLI's CSV bytes)
are compared by digest only.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from spintransfer.search import DISPLAY_MARGIN

PATH = Path(__file__).with_name("reference.json")
TOLERANCE = 1e-12
POOL_SEED = 20090101
EXACT_FLOAT_FIELDS = {"grid", "intervals", "tolerance"}


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _encode(a) -> dict:
    a = np.asarray(a)
    enc = {"dtype": a.dtype.str, "shape": list(a.shape), "sha256": digest(a)}
    if a.dtype != np.uint8:
        enc["data"] = a.ravel().tolist()
    return enc


def _decode(enc: dict) -> dict:
    out = {"sha256": enc["sha256"]}
    if "data" in enc:
        out["array"] = np.array(enc["data"], dtype=enc["dtype"]).reshape(enc["shape"])
    return out


class Reference:
    """Recorded outputs keyed by Call.ref_key, plus the query pool."""

    def __init__(self, data: dict):
        self.meta = data["meta"]
        self.pool = data["pool"]
        self._raw = data["outputs"]
        self._decoded = {}

    def outputs(self, ref_key: str) -> dict:
        if ref_key not in self._decoded:
            self._decoded[ref_key] = {f: _decode(e) for f, e in self._raw[ref_key].items()}
        return self._decoded[ref_key]


def load(path: Path = PATH) -> Reference:
    with open(path, encoding="ascii") as fh:
        return Reference(json.load(fh))


def check(got: dict, ref: dict) -> tuple:
    """Compare one call's outputs with its reference.

    Returns (checked, failed, bits_changed): the number of output values
    compared, how many of them disagree, and how many outputs differ
    from the reference in their raw bytes.  A missing output, or one of
    another shape, fails as a whole.
    """
    checked = failed = changed = 0
    for field in got.keys() - ref.keys():
        n = max(np.asarray(got[field]).size, 1)
        checked += n
        failed += n
        changed += 1
    for field, r in ref.items():
        a = got.get(field)
        if a is None or digest(a) != r["sha256"]:
            changed += 1
        if "array" not in r:
            continue
        want = r["array"]
        n = max(want.size, 1)
        checked += n
        if a is None or a.shape != want.shape or a.dtype.kind != want.dtype.kind:
            failed += n
        elif want.dtype.kind == "f" and field.rsplit("/", 1)[-1] not in EXACT_FLOAT_FIELDS:
            failed += int(np.count_nonzero(~(np.abs(a - want) <= TOLERANCE)))
        else:
            failed += int(np.count_nonzero(a != want))
    return checked, failed, changed


def git_commit(root: Path) -> str:
    """HEAD of the git repository at root; "unknown" outside one."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def record(path: Path = PATH) -> None:
    """Run every call once and write its outputs to path."""
    import workloads

    root = Path(__file__).resolve().parent.parent
    scratch = root / workloads.OUT_DIR
    scratch.mkdir(exist_ok=True)
    pool = workloads.make_pool(POOL_SEED)
    outputs = {}
    with tempfile.TemporaryDirectory(dir=scratch) as work:
        calls = [workloads.query_call(pool, i, f"pool{i}", work) for i in range(len(pool))]
        for name in workloads.WORKLOADS:
            if name != "queries":
                for small in (False, True):
                    calls += workloads.build(name, 0, small, pool, work)
        for call in calls:
            outputs[call.ref_key] = {f: _encode(a) for f, a in call.outputs(call.run()).items()}
    fp = np.concatenate([np.asarray(o["fp"]["data"]) for k, o in outputs.items() if "fp" in o])
    meta = {
        "commit": git_commit(root),
        "numpy": np.__version__,
        "tolerance": TOLERANCE,
        "pool_seed": POOL_SEED,
        # Distance of the closest FP to the window cut P0 - margin: no
        # change within TOLERANCE can flip a membership flag while this
        # stays above it.
        "min_fp_cut_distance": float(np.abs(fp - (0.9 - DISPLAY_MARGIN)).min()),
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"meta": meta, "pool": pool, "outputs": outputs}, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    record()
