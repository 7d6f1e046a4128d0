"""One runner and one checker per family of library calls.

A runner executes one unit of work from the family's pool, timing each
library call from outside, and returns ``(records, output)``; a record is
``(op, group, seconds, items)``.  A checker compares the output with the
oracle or a known answer and returns ``[(slice, ok), ...]``, one entry per
checked operation.  Library functions are looked up on the module at call
time, so the traced run sees the wrapped versions.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import asdict
from io import StringIO

import numpy as np

import oracle

clock = time.perf_counter


def timed(fn, *args, **kwargs):
    t0 = clock()
    out = fn(*args, **kwargs)
    return out, clock() - t0


# -- distances and maps ---------------------------------------------------

def run_dist(hg, u):
    d, t = timed(hg.hyperbolic_distance, u["x"], u["y"])
    return [("dist", (u["slice"], u["dim"]), t, len(u["x"]))], d


def check_dist(u, d):
    x, y = u["x"], u["y"]
    return [("dist." + u["slice"], oracle.dist_ok(d[i], x[i], y[i])[0])
            for i in u["idx"]]


def run_map(hg, u):
    n = len(u["x"])
    tr, t1 = timed(hg.translation_apply, u["y"], u["x"])
    iso, t2 = timed(hg.isometry_apply, u["iso"], u["x"])
    return [("translate", (u["slice"], u["dim"]), t1, n),
            ("iso_apply", (u["slice"], u["dim"]), t2, n)], (tr, iso)


def check_map(u, out):
    tr, iso = out
    res = []
    for i in u["idx"][:8]:
        x = oracle.vec(u["x"][i])
        y = oracle.vec(u["y"][i])
        nx = oracle.norm(x)
        exact = oracle.translate(y, x)
        res.append(("map." + u["slice"], oracle.map_ok(
            tr[i], exact, (1 + nx) * (1 + oracle.norm(y)))[0]))
        exact = oracle.apply_iso(u["a"], u["U"], x)
        res.append(("map." + u["slice"], oracle.map_ok(
            iso[i], exact, (1 + nx) * (1 + oracle.norm(oracle.vec(u["a"]))))[0]))
    return res


SINGLE_CALLS = 16


def run_dist1(hg, unit):
    recs, outs = [], []
    for u in unit:
        d, t = timed(hg.hyperbolic_distance, u["x"], u["y"])
        recs.append(("dist1", (u["slice"], u["dim"]), t, 1))
        outs.append(d)
    return recs, outs


def check_dist1(unit, outs):
    return [("dist1." + u["slice"], oracle.dist_ok(d, u["x"], u["y"])[0])
            for u, d in zip(unit, outs)]


# -- isometries -----------------------------------------------------------

def run_fit(hg, u):
    t0 = clock()
    try:
        out = hg.fit_isometry(u["src"], u["tgt"])
    except hg.GeometryError as exc:
        out = exc
    return [("fit", (u["slice"], u["dim"], u["k"]), clock() - t0, 1)], out


def check_fit(u, res):
    """Target residual, held-out distance preservation, and agreement with
    the generating isometry when the fit reports itself unique."""
    if isinstance(res, Exception):
        return [("fit." + u["slice"], False)]
    a, m = res.isometry.a, res.isometry.U
    ok = all(oracle.iso_ok(oracle.apply_iso(a, m, p), t)[0]
             for p, t in zip(u["src_mp"], u["tgt_mp"]))
    for h, h_img in zip(u["held_mp"], u["held_img_mp"]):
        img = oracle.apply_iso(a, m, h)
        for s, t in zip(u["src_mp"], u["tgt_mp"]):
            gap = abs(oracle.distance(img, t) - oracle.distance(h, s))
            ok = ok and float(gap) <= oracle.ISO_TOL
        if res.unique:
            ok = ok and oracle.iso_ok(img, h_img)[0]
    return [("fit." + u["slice"], ok)]


def with_isometries(hg, units):
    """Builds the Isometry objects of compose units once, before timing."""
    for u in units:
        u["g_iso"] = hg.Isometry(*u["g"])
        if "h" in u:
            u["h_iso"] = hg.Isometry(*u["h"])
    return units


def run_compose(hg, u):
    recs = []
    g, h = u["g_iso"], u.get("h_iso")
    if u["kind"] == "inverse":
        h, t = timed(hg.isometry_invert, g)
        recs.append(("invert", (u["slice"], u["dim"]), t, 1))
    t0 = clock()
    try:
        c = hg.isometry_compose(g, h)
    except hg.GeometryError as exc:
        c = exc
    recs.append(("compose", (u["slice"], u["dim"]), clock() - t0, 1))
    return recs, (h, c)


def check_compose(u, out):
    """g(h(p)) against the composite on probe points; g^-1(g(p)) = p."""
    h, c = out
    g = u["g_iso"]
    res = []
    probes = [oracle.vec(p) for p in u["probes"]]
    if u["kind"] == "inverse":
        ok = all(oracle.iso_ok(oracle.apply_iso(h.a, h.U, oracle.apply_iso(g.a, g.U, p)), p)[0]
                 for p in probes)
        res.append(("invert." + u["slice"], ok))
    if isinstance(c, Exception):
        return res + [("compose." + u["slice"], False)]
    ok = all(oracle.iso_ok(oracle.apply_iso(c.a, c.U, p),
                           oracle.apply_iso(g.a, g.U, oracle.apply_iso(h.a, h.U, p)))[0]
             for p in probes)
    return res + [("compose." + u["slice"], ok)]


# -- scans ----------------------------------------------------------------

OMEGA_GRID = 200


def run_omega(hg, unit):
    recs, outs = [], []
    for u in unit:
        rep, t = timed(hg.omega_validate, u["gauge"], grid_size=OMEGA_GRID)
        recs.append(("omega", (u["gauge"].label,), t, 1))
        outs.append(rep)
    return recs, outs


def check_omega(unit, reps):
    res = []
    for u, rep in zip(unit, reps):
        ok = rep.passed == u["passes"]
        if not u["passes"]:
            ok = ok and rep.violation is not None and rep.violation.condition == "subadditive"
        res.append(("omega", ok))
    return res


def run_gap(hg, u):
    a, b = u["a"], u["b"]
    g1 = hg.parallel_family(a, b, u["mu"])
    if u["kind"] == "line":
        g2 = hg.two_vector_form_to_line(a, b)
        out, t = timed(hg.line_min_gap, g1, g2)
        curve_b = lambda t: hg.geodesic_point(g2, t)  # noqa: E731
    else:
        curve_b = lambda t: hg.two_vector_point(a, b, t)  # noqa: E731
        out, t = timed(hg.curve_min_gap, lambda t: hg.geodesic_point(g1, t), curve_b)
    gap, s, tt = out
    return [("gap", (u["kind"],), t, 1)], (gap, hg.geodesic_point(g1, s), curve_b(tt))


def check_gap(u, out):
    """The scan bounds the true gap from above, stays positive (the lines
    are disjoint), and reports the distance between the points it returns."""
    gap, p, q = out
    exact = float(u["exact"])
    ok = 0.0 < gap and exact <= gap * (1 + 1e-12) and oracle.dist_ok(gap, p, q)[0]
    return [("gap." + u["kind"], ok)]


def run_snow(hg, u):
    t0 = clock()
    scaled, alpha = hg.normalize_euclidean_gauge(hg.builtin_gauge(u["gauge"]))
    out = hg.snowflake_distance(scaled, "hyperbolic", u["x"], u["y"])
    return [("snow", (u["gauge"],), clock() - t0, len(u["x"]))], (alpha, out)


def check_snow(u, out):
    # both builtin ray gauges used here normalize with alpha = 1 exactly
    alpha, vals = out
    w = {"sqrt": lambda d: oracle.MP.sqrt(d), "saturating": lambda d: d / (1 + d)}[u["gauge"]]
    res = [("snow.alpha", abs(alpha - 1.0) <= 1e-9)]
    for i in u["idx"]:
        exact = w(oracle.distance(oracle.vec(u["x"][i]), oracle.vec(u["y"][i])))
        err = abs(oracle.MP.mpf(float(vals[i])) - exact) / exact
        res.append(("snow", float(err) <= oracle.DIST_RTOL))
    return res


# -- CLI ------------------------------------------------------------------

def point_arg(v):
    """A point as the CLI parses it, every double written exactly."""
    return "[" + ",".join(repr(float(c)) for c in v) + "]"


def cli_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(unit, env):
    """Runs ``python -m hgeom.cli`` once per argv, one process at a time."""
    recs, outs = [], []
    for u in unit:
        t0 = clock()
        proc = subprocess.run([sys.executable, "-m", "hgeom.cli", *u["argv"]],
                              env=env, capture_output=True, text=True, timeout=120)
        recs.append(("cli", (u["argv"][0],), clock() - t0, 1))
        outs.append((proc.returncode, proc.stdout))
    return recs, outs


def inproc_cli(hg, argv):
    """The CLI's main() in this process, stdout captured."""
    buf = StringIO()
    with redirect_stdout(buf):
        code = hg.cli.main(list(argv))
    return code, buf.getvalue()


def _r(obj):
    """The CLI's rounding: 15 significant digits, numpy types unwrapped."""
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.15g}")
    if isinstance(obj, dict):
        return {k: _r(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_r(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _r(obj.tolist())
    return obj


def expected_cli(hg, u):
    """The library result the CLI stdout must reproduce."""
    kind = u["argv"][0]
    if kind == "dist":
        return f"{hg.hyperbolic_distance(u['x'], u['y']):.15g}"
    if kind == "fit":
        r = hg.fit_isometry(u["src"], u["tgt"])
        return _r({"a": r.isometry.a, "U": r.isometry.U, "unique": r.unique,
                   "max_residual": r.max_residual})
    if kind == "omega":
        g = u["gauge"]
        rep = hg.omega_validate(g, grid_size=OMEGA_GRID)
        return _r({"gauge": g.label, "domain": rep.domain, "grid_size": rep.grid_size,
                   "passed": rep.passed,
                   "violation": asdict(rep.violation) if rep.violation else None})
    if kind == "parallel":
        a, b = u["a"], u["b"]
        gaps = []
        for mu in u["mus"]:
            line = hg.parallel_family(a, b, mu)
            gap, _, _ = hg.curve_min_gap(lambda t, L=line: hg.geodesic_point(L, t),
                                         lambda t: hg.two_vector_point(a, b, t))
            gaps.append(gap)
        return _r(gaps)
    raise ValueError(kind)


def check_cli(hg, unit, outs):
    res = []
    for u, (code, stdout) in zip(unit, outs):
        kind = u["argv"][0]
        ok = code == 0
        if ok:
            want = expected_cli(hg, u)
            try:
                if kind == "dist":
                    ok = stdout.strip() == want
                elif kind == "parallel":
                    ok = json.loads(stdout)["min_gaps"] == want
                else:
                    ok = json.loads(stdout) == want
            except (ValueError, KeyError, TypeError):
                ok = False
        res.append(("cli." + kind, ok))
    return res
