"""wkmeans benchmark entry point.

    python3 bench/run.py --workload cluster-geo --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The package is not installed: the
workload runs in a fresh interpreter with PYTHONPATH=src (as the test suite
runs) and every BLAS and OpenMP thread pool pinned to one thread, so its
peak RSS and timings belong to that workload alone. The workload process
prints a report and, as its last line, the JSON result; see harness.py.
Exits 2 without a result when the checkout holds no wkmeans sources, and 1
when the run fails or exceeds its time limit.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def main() -> int:
    src = Path.cwd() / "src"
    if not (src / "wkmeans" / "__init__.py").is_file():
        print("error: run from the root of a wkmeans checkout (no src/wkmeans)", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in THREAD_VARS})
    harness = Path(__file__).resolve().with_name("harness.py")
    # A session of its own lets a timeout stop the workload and its children.
    proc = subprocess.Popen(
        [sys.executable, str(harness), *sys.argv[1:]], env=env, start_new_session=True
    )
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
