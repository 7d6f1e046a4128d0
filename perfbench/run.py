"""hgeom benchmark: one process, one closed-loop caller, every layer.

    python3 perfbench/run.py --workload bulk-uniform --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  Inputs come from ``--seed``
only.  The run measures for ``--seconds`` of library time, checks every
output family against a 120-digit mpmath oracle or a known answer, and
prints as its last stdout line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``; per-layer metrics from a traced run plus the layer sweep with
``--trace 1``).  The line before it holds details: sample counts, tail
percentiles, failures per slice, machine.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Cap BLAS threads at the CPUs this process may use, before numpy loads;
# child processes inherit the setting.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

WORKLOADS = ("bulk-uniform", "bulk-hard", "fit-compose", "scan")

# Share of the measured seconds each family gets.  Every workload runs every
# family, so every end-to-end metric exists on each; the shares say which
# layers dominate.  Outside ``scan``, omega and cli feed no end-to-end metric
# and get just enough time to be run and checked; gap scans are ~0.1 s each,
# so they get enough time for a steady median.
_BULK = {"dist": .24, "map": .18, "dist1": .14, "fit": .08, "compose": .08,
         "omega": .04, "gap": .17, "cli": .07}
SHARES = {
    "bulk-uniform": _BULK,
    "bulk-hard": _BULK,
    "fit-compose": {"fit": .38, "compose": .19, "dist": .05, "map": .05, "dist1": .07,
                    "omega": .04, "gap": .15, "cli": .07},
    "scan": {"omega": .22, "gap": .22, "cli": .25, "snow": .05, "dist": .05,
             "map": .05, "dist1": .06, "fit": .05, "compose": .05},
}

# Fixed units per family for the traced run, so its self times and counts
# compare across commits.
_BULK_PLAN = {"dist": 12, "map": 12, "dist1": 36, "fit": 12, "compose": 8,
              "omega": 1, "gap": 2, "cli": 1}
TRACE_PLAN = {
    "bulk-uniform": _BULK_PLAN,
    "bulk-hard": _BULK_PLAN,
    "fit-compose": {"fit": 50, "compose": 32, "dist": 3, "map": 3, "dist1": 9,
                    "omega": 1, "gap": 2, "cli": 1},
    "scan": {"omega": 2, "gap": 8, "cli": 1, "snow": 4, "dist": 3, "map": 3,
             "dist1": 9, "fit": 12, "compose": 8},
}

SETUP_REPS = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Imports hgeom from this checkout's src/ or exits non-zero."""
    if not (SRC / "hgeom" / "__init__.py").is_file():
        sys.exit(f"error: no hgeom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hgeom
    import hgeom.cli  # noqa: F401  (the CLI layer is timed in-process too)

    if Path(hgeom.__file__).resolve().parent != SRC / "hgeom":
        sys.exit(f"error: imported hgeom from {hgeom.__file__}, not {SRC}")
    return hgeom


def main(argv=None):
    args = parse_args(argv)
    hg = import_library()
    import bench

    result, detail = bench.run(hg, args, SHARES[args.workload],
                               TRACE_PLAN[args.workload],
                               str(SRC), str(ROOT), SETUP_REPS)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
