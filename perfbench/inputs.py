"""Seeded input pools for the four workloads.

Everything here runs before timing starts.  Each pool entry is one unit of
work for one family; the scheduler cycles through a family's pool in order,
so the share of each slice in a run is fixed by the pool, not by chance.
Exact images and reference values are attached in mp (120 digits) where the
check needs them.
"""

from __future__ import annotations

import math

import numpy as np

import oracle

DIMS = (2, 8, 64)
BATCH = {2: 20_000, 8: 20_000, 64: 5_000}
SAMPLED = 32          # oracle-checked entries per batch
SINGLES = 48          # single-pair inputs per (regime, dim)
HARD_REGIMES = ("nearby", "far_radial", "far_antipodal", "wide")
# Where the seed library misses the oracle: the far nearly radial regime, the
# dim-32 one-point fit, fits at coordinate scale 1e2..1e4 and compose(g, g^-1)
# at |a| = 1e5.  Timed workloads leave these inputs out, so every timed
# operation is expected to pass its check; the layer sweep draws them
# (``defects=True``) and reports their miss share per regime and slice.
DEFECT_REGIMES = ("far_radial",)
TIMED_HARD_REGIMES = tuple(r for r in HARD_REGIMES if r not in DEFECT_REGIMES)


def _unit(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _loguniform(rng, lo, hi, n):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def _orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def pairs(regime, n, d, rng):
    """n point pairs of dimension d drawn from one conditioning regime."""
    if regime == "uniform":
        return rng.uniform(-10.0, 10.0, (n, d)), rng.uniform(-10.0, 10.0, (n, d))
    u = _unit(rng, n, d)
    v = _unit(rng, n, d)
    if regime == "nearby":
        # |x| <= 10, separation 1e-8 .. 1e-1
        x = u * rng.uniform(0.0, 10.0, (n, 1))
        return x, x + v * _loguniform(rng, 1e-8, 1e-1, n)[:, None]
    if regime == "far_radial":
        # |x| in 1e6 .. 1e8, radial offset 1e-6 .. 1e-1, tangential 1e-3 of it
        x = u * _loguniform(rng, 1e6, 1e8, n)[:, None]
        dr = _loguniform(rng, 1e-6, 1e-1, n)[:, None]
        return x, x + u * dr + v * (1e-3 * dr)
    if regime == "far_antipodal":
        x = u * _loguniform(rng, 1e6, 1e8, n)[:, None]
        y = -u * _loguniform(rng, 1e6, 1e8, n)[:, None]
        return x, y + v * rng.uniform(0.0, 1.0, (n, 1))
    if regime == "wide":
        return (u * _loguniform(rng, 1e-8, 1e8, n)[:, None],
                v * _loguniform(rng, 1e-8, 1e8, n)[:, None])
    raise ValueError(regime)


def batches(regimes, rng):
    out = []
    for regime in regimes:
        for d in DIMS:
            x, y = pairs(regime, BATCH[d], d, rng)
            a = y[0].copy()
            out.append({
                "slice": regime, "dim": d, "x": x, "y": y,
                "a": a, "U": _orthogonal(rng, d),
                "idx": rng.choice(BATCH[d], SAMPLED, replace=False),
            })
    return out


def singles(regimes, rng):
    groups = [(regime, d, *pairs(regime, SINGLES, d, rng))
              for regime in regimes for d in DIMS]
    # interleaved, so any run of consecutive calls mixes dims and regimes
    return [{"slice": regime, "dim": d, "x": x[i], "y": y[i]}
            for i in range(SINGLES) for regime, d, x, y in groups]


def _fit_problem(rng, d, k, box, scale, rotation_only, slice_):
    a = np.zeros(d) if rotation_only else rng.uniform(-box, box, d)
    u = _orthogonal(rng, d)
    src = rng.uniform(-1.0, 1.0, (k, d)) * scale
    held = rng.uniform(-1.0, 1.0, (3, d)) * scale
    src_mp = [oracle.vec(p) for p in src]
    held_mp = [oracle.vec(p) for p in held]
    tgt_mp = [oracle.apply_iso(a, u, p) for p in src_mp]
    return {
        "slice": slice_, "dim": d, "k": k, "a": a, "U": u,
        "src": src, "tgt": np.array([oracle.to_float(t) for t in tgt_mp]),
        "src_mp": src_mp, "tgt_mp": tgt_mp, "held_mp": held_mp,
        "held_img_mp": [oracle.apply_iso(a, u, p) for p in held_mp],
    }


def fits(rng, hard, defects=False):
    """Criterion-05 draw (box 5, k in {1, 2, dim, dim+2}); with ``hard`` also
    dim-32 fits (k in {2, 32, 34}), and with ``defects`` the dim-32 one-point
    fit and a fixed share at coordinate scale 1e2 .. 1e4."""
    out = []
    for d in (2, 3, 5):
        for k in (1, 2, d, d + 2):
            out.append(_fit_problem(rng, d, k, 5.0, 5.0, False, "crit05"))
    if hard:
        for k in ((1,) if defects else ()) + (2, 32, 34):
            out.append(_fit_problem(rng, 32, k, 5.0, 5.0, False, "d32"))
    if defects:
        for e in (2, 3, 4):
            for i, d in enumerate((2, 3, 5)):
                out.append(_fit_problem(rng, d, d + 2, 5.0, 10.0 ** e,
                                        i % 2 == 0, f"scale1e{e}"))
    # spread the slices through the cycle
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def _iso(rng, d, amag):
    a = _unit(rng, 1, d)[0] * amag
    return a, _orthogonal(rng, d)


def composes(rng, hard, defects=False):
    """Pairs (g, h) at |a| ~ 5, and g with its inverse at |a| = 1e1 (plus
    1e3 when ``hard``, and 1e5, where compose(g, g^-1) breaks, with
    ``defects``)."""
    out = []
    dims = (2, 3, 5)
    for d in dims:
        for _ in range(2):
            out.append({"kind": "pair", "slice": "box5", "dim": d,
                        "g": _iso(rng, d, rng.uniform(0.0, 5.0)),
                        "h": _iso(rng, d, rng.uniform(0.0, 5.0))})
    mags = (1e1,) + ((1e3,) if hard else ()) + ((1e5,) if defects else ())
    for m in mags:
        for d in dims:
            out.append({"kind": "inverse", "slice": f"inv_a{m:.0e}".replace("+0", ""),
                        "dim": d, "g": _iso(rng, d, m)})
    if hard:
        out.append({"kind": "pair", "slice": "d32", "dim": 32,
                    "g": _iso(rng, 32, 3.0), "h": _iso(rng, 32, 3.0)})
    for c in out:
        c["probes"] = rng.uniform(-1.0, 1.0, (3, c["dim"]))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def _table(rng, concave):
    xs = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 150.0, 24))])
    slopes = np.sort(rng.uniform(0.1, 2.0, 24))
    if concave:
        slopes = slopes[::-1]
    ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
    return xs, ys


def gauges(rng):
    """Gauges with known verdicts, as (spec, passes).  The sqrt ray gauge is
    five of the eleven calls, so the median call is always one of its."""
    sqrt = ({"builtin": "sqrt", "domain": "ray"}, True)
    return [
        sqrt, ({"builtin": "identity", "domain": "ray"}, True),
        sqrt, ({"builtin": "square", "domain": "ray"}, False),
        sqrt, ({"builtin": "saturating", "domain": "ray"}, True),
        sqrt, ({"builtin": "sqrt", "domain": "unit"}, True),
        sqrt, ({"table": _table(rng, True)}, True),
        ({"table": _table(rng, False)}, False),
    ]


def _exact_gap(a, b, mu):
    """Distance between the line span(mu a + b) and {sinh t a + cosh t b} in
    the plane, from the Minkowski normals of their planes:
    cosh d = |<n1, n2>| for ultraparallel lines."""
    mp = oracle.MP
    a = oracle.vec(a)
    b = oracle.vec(b)
    v = [mu * ai + bi for ai, bi in zip(a, b)]
    nv = mp.sqrt(v[0] ** 2 + v[1] ** 2)
    n1 = [mp.mpf(0), -v[1] / nv, v[0] / nv]
    bb = mp.sqrt(1 + b[0] ** 2 + b[1] ** 2)
    big_b = [bb, b[0], b[1]]
    big_w = [(a[0] * b[0] + a[1] * b[1]) / bb, a[0], a[1]]
    c = [big_b[1] * big_w[2] - big_b[2] * big_w[1],
         big_b[2] * big_w[0] - big_b[0] * big_w[2],
         big_b[0] * big_w[1] - big_b[1] * big_w[0]]
    n2 = [-c[0], c[1], c[2]]
    nn = mp.sqrt(-n2[0] ** 2 + n2[1] ** 2 + n2[2] ** 2)
    ip = (-n1[0] * n2[0] + n1[1] * n2[1] + n1[2] * n2[2]) / nn
    return mp.acosh(abs(ip)) if abs(ip) > 1 else mp.mpf(0)


def gaps(rng):
    """Parallel-family lines in the plane with their exact gaps.  (a, b) is
    the two-vector form of a line T_b(sinh(t) z), so it is a geodesic."""
    out = []
    for i, mu in enumerate((1.5, -2.0, 3.0, -1.5, 2.0, -3.0)):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        ang = phi + rng.uniform(math.radians(40.0), math.radians(140.0))
        b = rng.uniform(0.5, 2.0) * np.array([math.cos(phi), math.sin(phi)])
        z = np.array([math.cos(ang), math.sin(ang)])
        a = z + (float(z @ b) / (math.hypot(1.0, np.linalg.norm(b)) + 1.0)) * b
        out.append({"a": a, "b": b, "mu": mu, "kind": ("line", "curve")[i % 2],
                    "exact": _exact_gap(a, b, mu)})
    return out


def snowflakes(rng):
    x, y = pairs("uniform", 20_000, 3, rng)
    return [{"gauge": name, "x": x, "y": y,
             "idx": rng.choice(len(x), SAMPLED, replace=False)}
            for name in ("sqrt", "saturating")]
