"""Pools, scheduler, correctness gate and metrics for one benchmark run."""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import zlib

import numpy as np

import families as F
import inputs
import oracle
import sweep
from spans import Tracer

clock = time.perf_counter
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


# -- pools ------------------------------------------------------------------

def gauge_of(hg, spec):
    if "table" in spec:
        return hg.table_gauge(*spec["table"])
    return hg.builtin_gauge(spec["builtin"], domain=spec["domain"])


def build_pools(hg, workload, seed, tmp):
    """Every family's pool of units for this workload, from the seed alone."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    hard = workload == "bulk-hard"
    regimes = inputs.TIMED_HARD_REGIMES if hard else ("uniform",)
    batches = inputs.batches(regimes, rng)
    for b in batches:
        b["iso"] = hg.Isometry(b["a"], b["U"])
    singles = inputs.singles(regimes, rng)
    fits = inputs.fits(rng, workload == "fit-compose")
    composes = F.with_isometries(hg, inputs.composes(rng, workload == "fit-compose"))
    gauges = [{"gauge": gauge_of(hg, spec), "passes": passes, "spec": spec}
              for spec, passes in inputs.gauges(rng)]
    gaps = inputs.gaps(rng)
    if workload != "scan":
        gaps = gaps[:2]
    pools = {
        "dist": batches,
        "map": batches,
        "dist1": [singles[i:i + F.SINGLE_CALLS]
                  for i in range(0, len(singles), F.SINGLE_CALLS)],
        "fit": fits,
        "compose": composes,
        "omega": [gauges],
        "gap": gaps,
        "cli": [cli_units(hg, workload, tmp, singles, fits, gauges, gaps)],
    }
    if workload == "scan":
        pools["snow"] = inputs.snowflakes(rng)
    return pools


def cli_units(hg, workload, tmp, singles, fits, gauges, gaps):
    """The CLI calls one pass of the cli family makes, in order."""
    if workload.startswith("bulk"):
        picks = [s for s in singles if s["dim"] == 8][:3]
        return [{"argv": ["dist", F.point_arg(s["x"]), F.point_arg(s["y"])], "x": s["x"], "y": s["y"]}
                for s in picks]
    if workload == "fit-compose":
        out = []
        for i, f in enumerate([f for f in fits if f["slice"] == "crit05"][:3]):
            path = f"{tmp}/pairs{i}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"source": f["src"].tolist(), "target": f["tgt"].tolist()}, fh)
            out.append({"argv": ["fit", path], "src": f["src"], "tgt": f["tgt"]})
        return out
    out = []
    for name in ("sqrt", "saturating", "square"):
        g = next(u["gauge"] for u in gauges if u["spec"].get("builtin") == name)
        out.append({"argv": ["omega", "--gauge", name], "gauge": g})
    table = next(u for u in gauges if "table" in u["spec"] and u["passes"])
    path = f"{tmp}/table.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(np.column_stack(table["spec"]["table"]).tolist(), fh)
    out.append({"argv": ["omega", "--table", path], "gauge": table["gauge"]})
    g = gaps[0]
    out.append({"argv": ["parallel", F.point_arg(g["a"]), F.point_arg(g["b"]), "--mu=1.5", "--mu=-2.0"],
                "a": g["a"], "b": g["b"], "mus": (1.5, -2.0)})
    return out


# -- the closed loop and its gate ---------------------------------------------

def signature(obj):
    """A hashable image of an output, exact to the bit."""
    if isinstance(obj, np.ndarray):
        return obj.tobytes()
    if isinstance(obj, (list, tuple)):
        return tuple(signature(o) for o in obj)
    if dataclasses.is_dataclass(obj):
        return tuple(signature(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, float):
        return obj.hex()
    return repr(obj)


class Runner:
    """Runs units of each family, records timings, and checks every output.

    The library is deterministic, so an output bit-identical to one already
    checked for the same pool unit reuses that verdict; every operation still
    counts as attempted.
    """

    def __init__(self, hg, pools, env):
        self.hg = hg
        self.pools = pools
        self.env = env
        self.records = []
        self.verdicts = []
        self._memo = {}
        self.cursor = dict.fromkeys(pools, 0)

    def run_unit(self, fam, pos):
        unit = self.pools[fam][pos % len(self.pools[fam])]
        if fam == "cli":
            return F.run_cli(unit, self.env)
        return getattr(F, "run_" + fam)(self.hg, unit)

    def check(self, fam, pos, out):
        pos %= len(self.pools[fam])
        key = (fam, pos, signature(out))
        if key not in self._memo:
            unit = self.pools[fam][pos]
            if fam == "cli":
                self._memo[key] = F.check_cli(self.hg, unit, out)
            else:
                self._memo[key] = getattr(F, "check_" + fam)(unit, out)
        return self._memo[key]

    def step(self, fam, record=True):
        pos = self.cursor[fam]
        self.cursor[fam] += 1
        recs, out = self.run_unit(fam, pos)
        verdicts = self.check(fam, pos, out)
        if record:
            self.records.extend(recs)
            self.verdicts.extend(verdicts)
        return sum(r[2] for r in recs)


def closed_loop(runner, shares, seconds, setup_rep, setup_reps):
    """Deficit round robin: always run the family furthest below its share,
    until the measured library time reaches ``seconds``.  Set-up samples are
    spread evenly through the run, outside the measured time."""
    spent = dict.fromkeys(shares, 0.0)
    total = 0.0
    setups = []
    while total < seconds:
        if len(setups) < setup_reps and total >= len(setups) * seconds / setup_reps:
            setups.append(setup_rep())
        fam = min(shares, key=lambda f: spent[f] / shares[f])
        dt = runner.step(fam)
        spent[fam] += dt
        total += dt
    return spent, setups


# -- metrics -----------------------------------------------------------------

def tail(values):
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it."""
    n = len(values)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(values, p))
    return 50.0, float(np.median(values))


def throughput(records, ops):
    """Items per second for an even mix of groups: each group's median rate,
    combined harmonically."""
    rates = {}
    for op, group, t, n in records:
        if op in ops:
            rates.setdefault((op, group), []).append(n / t)
    meds = [statistics.median(v) for v in rates.values()]
    return len(meds) / sum(1.0 / m for m in meds)


def latencies(records, op):
    return [r[2] for r in records if r[0] == op]


def p50(records, op):
    """Median latency for an even mix of groups: each group's median,
    combined geometrically.  The groups (regime or slice, dim, ...) are fixed
    by the workload, so neither the seed nor where a run stops can shift the
    figure between the modes of a mixed population."""
    groups = {}
    for o, group, t, _ in records:
        if o == op:
            groups.setdefault(group, []).append(t)
    return math.exp(statistics.fmean(math.log(statistics.median(v)) for v in groups.values()))


def gate(verdicts):
    by_slice = {}
    for sl, ok in verdicts:
        a, f = by_slice.get(sl, (0, 0))
        by_slice[sl] = (a + 1, f + (not ok))
    attempted = sum(a for a, _ in by_slice.values())
    failed = sum(f for _, f in by_slice.values())
    return attempted, failed, by_slice


def end_to_end(records, setup):
    return {
        "setup_s": (setup, "s"),
        "dist_pairs_per_s": (throughput(records, {"dist"}), "1/s"),
        "map_points_per_s": (throughput(records, {"translate", "iso_apply"}), "1/s"),
        "dist1_p50_us": (1e6 * p50(records, "dist1"), "us"),
        "fit_p50_ms": (1e3 * p50(records, "fit"), "ms"),
        "compose_p50_us": (1e6 * p50(records, "compose"), "us"),
        "gap_p50_ms": (1e3 * p50(records, "gap"), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


TAILS = {"dist1": ("dist1_tail_us", 1e6, "us"), "fit": ("fit_tail_ms", 1e3, "ms"),
         "compose": ("compose_tail_us", 1e6, "us"), "cli": ("cli_tail_ms", 1e3, "ms")}


def demoted(records):
    """Latencies kept per-layer because, under other tenants' load, they do
    not repeat from run to run within their bound: the tails, the CLI
    process median and the omega_validate median."""
    out = {name: (scale * tail(latencies(records, op))[1], unit)
           for op, (name, scale, unit) in TAILS.items()}
    out["cli_p50_ms"] = (1e3 * p50(records, "cli"), "ms")
    out["omega_p50_ms"] = (1e3 * p50(records, "omega"), "ms")
    return out


def samples(records):
    """Sample count, median and tail percentile used, per timed operation."""
    out = {}
    for op in sorted({r[0] for r in records}):
        t = latencies(records, op)
        out[op] = {"samples": len(t), "p50_s": statistics.median(t),
                   "tail_pct": tail(t)[0], "tail_s": tail(t)[1]}
    return out


# -- set-up -----------------------------------------------------------------

SETUP_CALLS = {
    "base": """
x = [0.5, -0.25]; y = [1.0, 2.0]
hg.hyperbolic_distance(x, y)
hg.hyperbolic_distance([x, y], [y, x])
hg.translation_apply(y, x)
g = hg.Isometry([0.1, 0.2], [[0.0, -1.0], [1.0, 0.0]])
hg.isometry_apply(g, [x, y])
pts = [[0.0, 0.0], [1.0, 0.5], [-0.5, 2.0]]
hg.fit_isometry(pts, hg.isometry_apply(g, pts))
hg.isometry_compose(g, hg.isometry_invert(g))
hg.omega_validate(hg.builtin_gauge("sqrt"), grid_size=20)
hg.omega_validate(hg.table_gauge([0.0, 1.0, 2.0], [0.0, 1.0, 1.5]), grid_size=20)
line = hg.parallel_family([1.0, 0.0], [0.0, 1.0], 1.5)
hg.line_min_gap(line, hg.two_vector_form_to_line([1.0, 0.0], [0.0, 1.0]), samples=100)
hg.curve_min_gap(lambda t: hg.geodesic_point(line, t),
                 lambda t: hg.two_vector_point([1.0, 0.0], [0.0, 1.0], t), samples=100)
hg.cli.build_parser()
""",
    "snow": """
w, _ = hg.normalize_euclidean_gauge(hg.builtin_gauge("sqrt"))
hg.snowflake_distance(w, "hyperbolic", [x, y], [y, x])
""",
}


def setup_script(families):
    body = SETUP_CALLS["base"] + (SETUP_CALLS["snow"] if "snow" in families else "")
    return ("import time\nt0 = time.perf_counter()\nimport hgeom as hg\nimport hgeom.cli\n"
            + body + "print(time.perf_counter() - t0)\n")


def setup_runner(env, families):
    """A callable giving one set-up sample: in a fresh interpreter, import
    hgeom, then make the first call of each entry point the workload uses."""
    script = setup_script(families)

    def rep():
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        return float(out.strip().splitlines()[-1])

    return rep


# -- entry ------------------------------------------------------------------

def machine(hg):
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "hgeom": hg.__version__}


def run(hg, args, shares, plan, src, root, setup_reps):
    env = F.cli_env(src)
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        t_start = clock()
        pools = build_pools(hg, args.workload, args.seed, tmp)
        runner = Runner(hg, pools, env)
        for fam in shares:                 # warm-up, not recorded
            if fam != "cli":               # the set-up warm start covers the CLI
                runner.step(fam, record=False)
        if args.trace:
            metrics, detail = traced(hg, runner, plan, args.seconds, args.seed, tmp)
            attempted, failed, by_slice = gate(runner.verdicts)
        else:
            setup_rep = setup_runner(env, shares)
            setup_rep()                    # warms the bytecode and file caches
            gc.collect()
            spent, setups = closed_loop(runner, shares, args.seconds, setup_rep, setup_reps)
            setup = statistics.median(setups)
            attempted, failed, by_slice = gate(runner.verdicts)
            metrics = end_to_end(runner.records, setup)
            detail = {"family_seconds": spent, "ops": samples(runner.records),
                      "per_layer_latencies": {k: v for k, (v, _) in demoted(runner.records).items()}}
        detail.update({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "wall_s": clock() - t_start, "machine": machine(hg),
            "slices": {s: {"attempted": a, "failed": f} for s, (a, f) in sorted(by_slice.items())},
            "tolerances": {"dist_rtol": oracle.DIST_RTOL, "iso_tol": oracle.ISO_TOL,
                           "map_rtol": oracle.MAP_RTOL, "oracle_dps": oracle.DPS},
        })
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def traced(hg, runner, plan, seconds, seed, tmp):
    """Passes over the fixed plan, alternately untraced and traced, until
    ``seconds`` have gone by.  Per-layer numbers come from the traced spans
    (times per pass), the tracing overhead from the difference between the
    two kinds of pass; the layer sweep follows."""
    order = [(fam, pos) for fam, n in plan.items() for pos in range(n)]
    tracer = Tracer()
    omega = runner.pools["omega"][0]
    gauges = {"plain": [u["gauge"] for u in omega],
              "traced": [tracer.wrap_gauge(u["gauge"]) for u in omega]}
    walls = {"plain": 0.0, "traced": 0.0}
    plain = []
    passes = 0
    start = clock()
    while not passes or clock() - start < seconds:
        for phase in ("plain", "traced"):
            for u, g in zip(omega, gauges[phase]):
                u["gauge"] = g
            if phase == "traced":
                tracer.install(hg)
            outs = []
            t0 = clock()
            for fam, pos in order:
                recs, out = runner.run_unit(fam, pos)
                outs.append((fam, pos, out))
                if phase == "plain":
                    plain.extend(recs)
            walls[phase] += clock() - t0
            tracer.uninstall()
            for fam, pos, out in outs:
                runner.verdicts.extend(runner.check(fam, pos, out))
        passes += 1
    metrics = {k: (v / passes if k.endswith("_s") else v, _unit(k))
               for k, v in tracer.summary().items()}
    overhead = (walls["traced"] - walls["plain"]) / passes
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead * passes / walls["plain"], "share")
    metrics.update(demoted(plain))
    metrics.update(sweep.layer_sweep(hg, seed, runner.env, tmp))
    detail = {"passes": passes, "plain_wall_s": walls["plain"],
              "traced_wall_s": walls["traced"], "plan": plan, "spans": len(tracer.t0)}
    return metrics, detail


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    return "count"
