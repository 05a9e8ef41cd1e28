"""Episode benchmark for poissonprop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``. BLAS threads are capped at the number of usable cores and
``POISSONPROP_THREADS`` is cleared (one worker) before anything numeric is
imported. See perfbench/README.md for workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("small-episodes", "large-map", "wide-channels", "calibrated-head")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    os.environ.pop("POISSONPROP_THREADS", None)

    src = ROOT / "src"
    if not (src / "poissonprop" / "__init__.py").is_file():
        print(f"perfbench: no poissonprop source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import harness  # imports numpy; must follow the thread caps above

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), nproc)


if __name__ == "__main__":
    sys.exit(main())
