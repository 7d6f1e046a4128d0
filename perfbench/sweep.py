"""Layer sweep: fixed-size timings and accuracy per layer, independent of the
workload being run.

    python3 perfbench/sweep.py --seed 1

prints the sweep alone as JSON.  The traced run (``run.py --trace 1``)
includes it in its per-layer metrics.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import numpy as np

import families as F
import inputs
import oracle

clock = time.perf_counter

KERNEL_DIMS = (2, 8, 64)
KERNEL_BATCHES = {"b1": 1, "b1e3": 1_000, "b1e5": 100_000}
MAP_BATCH = 20_000
FRAME_DIMS = (2, 5, 32)
# Draws of the fit and compose pools for the accuracy probes: one draw has a
# single problem per (slice, dim, k), too few for a miss share.
ACCURACY_DRAWS = 8


def per_call(fn, *args, budget=0.2, max_reps=200):
    """Median seconds per call over repeated calls filling ``budget``."""
    times = []
    start = clock()
    while len(times) < max_reps and (not times or clock() - start < budget):
        t0 = clock()
        fn(*args)
        times.append(clock() - t0)
    return statistics.median(times)


def kernel(hg, rng):
    """The distance kernel per pair; if ``_dd`` is ever removed, the public
    distance function that absorbed it."""
    fn = getattr(getattr(hg, "_dd", None), "minkowski_excess", hg.hyperbolic_distance)
    out = {}
    for d in KERNEL_DIMS:
        for tag, b in KERNEL_BATCHES.items():
            # a single pair reaches the kernel as two 1-d vectors
            x, y = rng.uniform(-10.0, 10.0, (2, b, d) if b > 1 else (2, d))
            t = per_call(fn, x, y)
            out[f"dd.minkowski_excess.ns_per_pair.d{d}.{tag}"] = (1e9 * t / b, "ns")
    return out


def maps(hg, rng):
    out = {}
    for d in KERNEL_DIMS:
        x, y = rng.uniform(-10.0, 10.0, (2, MAP_BATCH, d))
        g = hg.Isometry(y[0], np.linalg.qr(rng.standard_normal((d, d)))[0])
        t = per_call(hg.translation_apply, y, x)
        out[f"isometry.translation_apply.ns_per_point.d{d}"] = (1e9 * t / MAP_BATCH, "ns")
        t = per_call(hg.isometry_apply, g, x)
        out[f"isometry.isometry_apply.ns_per_point.d{d}"] = (1e9 * t / MAP_BATCH, "ns")
    return out


def frames(hg, rng):
    out = {}
    for d in FRAME_DIMS:
        src = rng.uniform(-1.0, 1.0, (d, d))
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        t = per_call(hg.gram.orthogonal_map, src, src @ q.T)
        out[f"gram.orthogonal_map.us.d{d}"] = (1e6 * t, "us")
    x, y = rng.uniform(-10.0, 10.0, (2, MAP_BATCH, 3))
    w = hg.builtin_gauge("sqrt")
    t = per_call(hg.snowflake_distance, w, "hyperbolic", x, y)
    out["homogeneity.snowflake_distance.ns_per_pair"] = (1e9 * t / MAP_BATCH, "ns")
    return out


def accuracy(hg, rng):
    """Share of oracle misses per distance regime, fit slice and compose
    slice, with the largest relative distance error per regime, and the miss
    share over all of these probes.  Unlike the timed workloads, the probes
    include the inputs where the seed library is known to miss
    (``inputs.DEFECT_REGIMES``, ``defects=True``)."""
    out = {}
    misses = []
    for regime in ("uniform",) + inputs.HARD_REGIMES:
        errs = []
        for d in KERNEL_DIMS:
            x, y = inputs.pairs(regime, 16, d, rng)
            vals = hg.hyperbolic_distance(x, y)
            errs += [oracle.dist_ok(v, a, b)[1] for v, a, b in zip(vals, x, y)]
        errs = np.array(errs)
        misses += list(errs > oracle.DIST_RTOL)
        out[f"core.hyperbolic_distance.bad_share.{regime}"] = (
            float(np.mean(errs > oracle.DIST_RTOL)), "share")
        out[f"core.hyperbolic_distance.max_rel_err.{regime}"] = (float(errs.max()), "ratio")
    pools = (("fit", [u for _ in range(ACCURACY_DRAWS)
                      for u in inputs.fits(rng, True, defects=True)]),
             ("compose", [u for _ in range(ACCURACY_DRAWS)
                          for u in F.with_isometries(hg, inputs.composes(rng, True, defects=True))]))
    for fam, pool in pools:
        tally = {}
        for u in pool:
            _, res = getattr(F, "run_" + fam)(hg, u)
            for sl, ok in getattr(F, "check_" + fam)(u, res):
                if sl.startswith(fam):
                    tally.setdefault(sl, []).append(not ok)
        name = {"fit": "isometry.fit_isometry", "compose": "isometry.isometry_compose"}[fam]
        for sl, bad in sorted(tally.items()):
            out[f"{name}.bad_share.{sl.split('.', 1)[1]}"] = (float(np.mean(bad)), "share")
            misses += bad
    out["ops_failed_share"] = (float(np.mean(misses)), "share")
    return out


def cli(hg, rng, env, tmp):
    """CLI import cost over a bare interpreter, and each subcommand timed
    in-process (main()) and as a process."""
    def wall(argv, reps=5):
        times = []
        for _ in range(reps):
            t0 = clock()
            subprocess.run([sys.executable, *argv], env=env, check=True,
                           capture_output=True, timeout=120)
            times.append(clock() - t0)
        return statistics.median(times)

    out = {"cli.import_ms": (1e3 * (wall(["-c", "import hgeom.cli"]) - wall(["-c", "pass"])), "ms")}
    x, y = rng.uniform(-10.0, 10.0, (2, 8))
    fit = inputs.fits(rng, False)[0]
    path = f"{tmp}/sweep_pairs.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"source": fit["src"].tolist(), "target": fit["tgt"].tolist()}, fh)
    pt = F.point_arg
    commands = {
        "dist": ["dist", pt(x), pt(y)],
        "fit": ["fit", path],
        "omega": ["omega", "--gauge", "sqrt"],
        "parallel": ["parallel", "[1,0]", "[0.3,1]", "--mu=1.5", "--mu=-2.0"],
    }
    for name, argv in commands.items():
        t = per_call(lambda: F.inproc_cli(hg, argv), budget=0.5, max_reps=5)
        out[f"cli.main_inproc_ms.{name}"] = (1e3 * t, "ms")
        out[f"cli.process_ms.{name}"] = (1e3 * wall(["-m", "hgeom.cli", *argv], 3), "ms")
    return out


def layer_sweep(hg, seed, env, tmp):
    rng = np.random.default_rng([seed, 7])
    out = {}
    for part in (kernel, maps, frames, accuracy):
        out.update(part(hg, rng))
    out.update(cli(hg, rng, env, tmp))
    return out


def main():
    import argparse
    import tempfile

    import run

    p = argparse.ArgumentParser(description="hgeom layer sweep")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    hg = run.import_library()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        res = layer_sweep(hg, args.seed, F.cli_env(str(run.SRC)), tmp)
    print(json.dumps({k: {"value": v, "unit": u} for k, (v, u) in res.items()}, indent=1))


if __name__ == "__main__":
    main()
