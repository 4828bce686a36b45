"""Benchmark entry point for csg_ldpc.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

``--trace 0`` times untraced ``csg_ldpc.cli.main`` passes and reports the
end-to-end metrics; ``--trace 1`` pairs each untraced pass with a traced
re-drive of the same inputs through the package's layers and reports the
per-layer metrics.  A readable report goes first; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits 2 without a result when the checkout lacks the package or its catalog.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/csg_ldpc/cli.py", "data/manifest.json")
# One BLAS/OpenMP thread per process: the 2-worker workload then uses at most
# two threads on a two-CPU machine, and timings do not depend on BLAS pools.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"error: checkout at {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, src)
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of {sorted(bench.WORKLOADS)}")
    result = bench.run(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
