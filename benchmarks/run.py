"""Benchmark of the spintransfer package.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads (rect-sweeps, box-scan,
queries, verify) are described in benchmarks/README.md.  The run pins
BLAS and OpenMP to one thread before numpy is imported and uses the
package under the checkout's src/, never an installed copy; it exits
with code 2, printing no result, when that package is missing.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    if not (SRC / "spintransfer" / "__init__.py").is_file():
        print(f"error: no spintransfer package under {SRC}", file=sys.stderr)
        return 2
    for name in THREAD_ENV:
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
