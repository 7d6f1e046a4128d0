"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

All sampling is seeded, so the suite is deterministic.
"""

import math
import time

import numpy as np

from hgeom import (
    Angle,
    PartialIsometryError,
    builtin_gauge,
    dilation_residual,
    euclidean_distance,
    fit_isometry,
    geodesic_point,
    h1_embedding,
    hyperbolic_distance,
    is_right_angle,
    isometry_apply,
    line_min_gap,
    line_through,
    metrically_collinear,
    normalize_euclidean_gauge,
    parallel_family,
    projective_counterexample,
    projective_distance,
    segment_contains,
    snowflake_distance,
    sphere_euclidean_radius,
    sphere_fit_rotation,
    translation_apply,
    two_vector_form_to_line,
)
from hgeom.homogeneity import OmegaGauge

from util import (
    exact_hyperbolic_distance,
    naive_argument,
    naive_hyperbolic_distance,
    random_isometry,
    random_unit,
)

DIMS = (1, 2, 3, 8)
ACOSH_SQRT2 = 0.88137358701954303


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


def test_criterion_01_metric_axioms():
    rng = np.random.default_rng(0)
    t0 = time.time()
    worst_slack = math.inf
    sym_exact = True
    self_zero = True
    for dim in DIMS:
        x, y, z = rng.uniform(-10.0, 10.0, (3, 100_000, dim))
        dxy = hyperbolic_distance(x, y)
        dyz = hyperbolic_distance(y, z)
        dxz = hyperbolic_distance(x, z)
        worst_slack = min(worst_slack, float(np.min(dxy + dyz - dxz)))
        sym_exact &= bool(np.array_equal(dxy, hyperbolic_distance(y, x)))
        self_zero &= bool(np.all(hyperbolic_distance(x, x) == 0.0))
    elapsed = time.time() - t0
    ok = worst_slack >= -1e-9 and sym_exact and self_zero and elapsed < 10.0
    report(1, "metric axioms", ok,
           f"min triangle slack {worst_slack:.3e}, {elapsed:.2f}s")


def test_criterion_02_translation_laws():
    rng = np.random.default_rng(1)
    worst_iso = 0.0
    worst_bracket = 0.0
    worst_inverse = 0.0
    for dim in DIMS:
        y, a, b = rng.uniform(-10.0, 10.0, (3, 100_000, dim))
        d0 = hyperbolic_distance(a, b)
        d1 = hyperbolic_distance(translation_apply(y, a), translation_apply(y, b))
        worst_iso = max(worst_iso, float(np.max(np.abs(d1 - d0) / (1.0 + d0))))
        tu = translation_apply(y, a)
        lhs = np.hypot(1.0, np.linalg.norm(tu, axis=-1))
        rhs = (np.hypot(1.0, np.linalg.norm(a, axis=-1))
               * np.hypot(1.0, np.linalg.norm(y, axis=-1))
               + np.sum(a * y, axis=-1))
        worst_bracket = max(worst_bracket, float(np.max(np.abs(lhs - rhs) / lhs)))
        back = translation_apply(-y, translation_apply(y, b))
        err = np.linalg.norm(back - b, axis=-1) / (1.0 + np.linalg.norm(b, axis=-1))
        worst_inverse = max(worst_inverse, float(np.max(err)))
    ok = worst_iso <= 1e-9 and worst_bracket <= 1e-9 and worst_inverse <= 1e-9
    report(2, "translation isometry + bracket law", ok,
           f"iso {worst_iso:.2e}, bracket {worst_bracket:.2e}, "
           f"inverse {worst_inverse:.2e}")


def test_criterion_03_stable_vs_naive():
    rng = np.random.default_rng(2)
    worst_rel_naive = 0.0
    worst_rel_exact = 0.0
    worst_ratio = 0.0
    for sep_exp in range(1, 9):  # separations 1e-1 .. 1e-8
        sep = 10.0 ** (-sep_exp)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            x = random_unit(rng, n) * rng.uniform(0.0, 1.0)
            y = x + sep * random_unit(rng, n)
            d = hyperbolic_distance(x, y)
            if naive_argument(x, y) > 1.0 + 1e-8:
                naive = naive_hyperbolic_distance(x, y)
                worst_rel_naive = max(worst_rel_naive, abs(d - naive) / naive)
            if sep <= 1e-6:
                ref = exact_hyperbolic_distance(x, y)
                worst_rel_exact = max(worst_rel_exact, abs(d - ref) / ref)
    # the asymptotic equality of the two metrics at the origin
    for _ in range(200):
        n = int(rng.integers(1, 6))
        y = rng.uniform(1e-8, 1e-6) * random_unit(rng, n)
        ratio = hyperbolic_distance(np.zeros(n), y) / euclidean_distance(np.zeros(n), y)
        worst_ratio = max(worst_ratio, abs(ratio - 1.0))
    ok = worst_rel_naive <= 1e-6 and worst_rel_exact <= 1e-4 and worst_ratio <= 1e-4
    report(3, "stable vs naive distance", ok,
           f"naive rel {worst_rel_naive:.2e}, reference rel {worst_rel_exact:.2e}, "
           f"origin ratio dev {worst_ratio:.2e}")


def test_criterion_04_geodesic_unit_speed():
    rng = np.random.default_rng(3)
    worst = 0.0
    per_dim = 10_000 // len(DIMS)
    for dim in DIMS:
        base = rng.uniform(-10.0, 10.0, (per_dim, dim))
        z = random_unit(rng, dim, (per_dim,))
        s = rng.uniform(-10.0, 10.0, per_dim)
        t = rng.uniform(-10.0, 10.0, per_dim)
        coeff = z + (np.sum(z * base, axis=-1)
                     / (np.hypot(1.0, np.linalg.norm(base, axis=-1)) + 1.0))[:, None] * base
        p = np.sinh(s)[:, None] * coeff + np.cosh(s)[:, None] * base
        q = np.sinh(t)[:, None] * coeff + np.cosh(t)[:, None] * base
        d = hyperbolic_distance(p, q)
        worst = max(worst, float(np.max(np.abs(d - np.abs(s - t)))))
    ok = worst <= 1e-9
    report(4, "geodesic unit speed", ok, f"max |d - |s-t|| = {worst:.2e}")


def test_criterion_05_isometry_fitting_round_trip():
    rng = np.random.default_rng(4)
    worst_target = 0.0
    worst_heldout = 0.0
    worst_agree = 0.0
    for dim in (2, 3, 5):
        for k in (1, 2, dim, dim + 2):
            for _ in range(1000):
                g = random_isometry(rng, dim)
                pts = rng.uniform(-5.0, 5.0, (k, dim))
                result = fit_isometry(pts, isometry_apply(g, pts))
                worst_target = max(worst_target, result.max_residual)
                fresh = rng.uniform(-5.0, 5.0, (100, dim))
                mapped = isometry_apply(result.isometry, fresh)
                d0 = hyperbolic_distance(fresh[:-1], fresh[1:])
                d1 = hyperbolic_distance(mapped[:-1], mapped[1:])
                worst_heldout = max(worst_heldout, float(np.max(np.abs(d1 - d0))))
                if result.unique:
                    gap = hyperbolic_distance(isometry_apply(g, fresh), mapped)
                    worst_agree = max(worst_agree, float(np.max(gap)))
    ok = worst_target <= 1e-7 and worst_heldout <= 1e-7 and worst_agree <= 1e-7
    report(5, "isometry fitting round-trip", ok,
           f"targets {worst_target:.2e}, held-out {worst_heldout:.2e}, "
           f"agreement {worst_agree:.2e}")


def test_criterion_06_dilation_rigidity():
    grid = (1.01, 1.1, 2.0, 5.0, 10.0)
    identity_max = max(dilation_residual(1.0, t) for t in grid)
    others_ok = all(
        max(dilation_residual(c, t) for t in grid) >= 0.01
        for c in (0.5, 0.9, 1.1, 2.0)
    )
    spot = dilation_residual(2.0, 2.0)
    ok = identity_max <= 1e-12 and others_ok and abs(spot - 18.0) <= 1e-9
    report(6, "dilation rigidity", ok,
           f"c=1 max {identity_max:.2e}, spot(2,2) = {spot!r}")


def test_criterion_07_parallel_postulate_failure():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    base_line = two_vector_form_to_line(e1, e2)
    mus = (1.5, -1.5, 2.0, -2.0, 3.0, -3.0)
    lines = [parallel_family(e1, e2, mu) for mu in mus]
    gaps = [line_min_gap(line, base_line)[0] for line in lines]
    distinct = all(
        abs(l1.z[0] * l2.z[1] - l1.z[1] * l2.z[0]) > 1e-9
        for i, l1 in enumerate(lines)
        for l2 in lines[i + 1:]
    )
    through_origin = all(np.array_equal(line.a, np.zeros(2)) for line in lines)
    gaps_ok = all(gap > 1e-4 for gap in gaps)

    # uniqueness of the line through two points, via segment/collinearity
    rng = np.random.default_rng(6)
    unique_ok = True
    for _ in range(50):
        a, b = rng.uniform(-3.0, 3.0, (2, 2))
        if np.allclose(a, b):
            continue
        g = line_through(a, b)
        d = hyperbolic_distance(a, b)
        inside = geodesic_point(g, rng.uniform(0.0, 1.0) * d)
        beyond = geodesic_point(g, d + 1.0)
        off = a + np.array([0.1, 0.2])
        unique_ok &= segment_contains(a, b, inside)
        unique_ok &= metrically_collinear(a, b, inside)
        unique_ok &= metrically_collinear(a, b, beyond)
        unique_ok &= not segment_contains(a, b, beyond)
        unique_ok &= not metrically_collinear(a, b, off) or segment_contains(a, b, off)
    ok = distinct and through_origin and gaps_ok and unique_ok
    report(7, "parallel postulate failure", ok,
           f"min gap {min(gaps):.4f} over {len(lines)} lines")


def test_criterion_08_h1_isometry():
    s = np.linspace(-10.0, 10.0, 1000)
    pts = h1_embedding(s)
    d_next = hyperbolic_distance(pts[:-1], pts[1:])
    worst = float(np.max(np.abs(d_next - np.abs(np.diff(s)))))
    rng = np.random.default_rng(7)
    idx = rng.integers(0, 1000, (1000, 2))
    d_rand = hyperbolic_distance(pts[idx[:, 0]], pts[idx[:, 1]])
    worst = max(worst, float(np.max(np.abs(d_rand - np.abs(s[idx[:, 0]] - s[idx[:, 1]])))))
    ok = worst <= 1e-9
    report(8, "one-dimensional isometry", ok, f"max deviation {worst:.2e}")


def test_criterion_09_sphere_law():
    rng = np.random.default_rng(8)
    worst = 0.0
    for r in (0.1, 1.0, ACOSH_SQRT2, 5.0):
        rho = sphere_euclidean_radius(r)
        for dim in (2, 3, 8):
            u = random_unit(rng, dim, (334,))
            d = hyperbolic_distance(rho * u, np.zeros(dim))
            worst = max(worst, float(np.max(np.abs(d - r))))
    ok = worst <= 1e-9
    report(9, "sphere law", ok, f"max |d - r| = {worst:.2e}")


def test_criterion_10_right_angles():
    rng = np.random.default_rng(9)
    agree = True
    for _ in range(1000):
        dim = int(rng.integers(2, 4))
        z1 = random_unit(rng, dim)
        z2 = random_unit(rng, dim)
        euclid_right = abs(float(z1 @ z2)) <= 1e-9
        agree &= is_right_angle(Angle(np.zeros(dim), z1, z2)) == euclid_right
        w = z2 - float(z2 @ z1) * z1
        if np.linalg.norm(w) > 1e-6:
            agree &= is_right_angle(Angle(np.zeros(dim), z1, w))

    worst_fit = 0.0
    worst_ray = 0.0
    for _ in range(50):
        dim = 3
        frames = []
        for _ in range(2):
            v = rng.uniform(-3.0, 3.0, dim)
            u1 = random_unit(rng, dim)
            u2 = random_unit(rng, dim)
            u2 = u2 - float(u2 @ u1) * u1
            u2 /= np.linalg.norm(u2)
            frames.append((v, u1, u2))
        (p, u1, u2), (q, v1, v2) = frames

        def ray_point(vertex, direction, t):
            return translation_apply(vertex, math.sinh(t) * direction)

        src = np.array([p, ray_point(p, u1, 1.0), ray_point(p, u2, 1.0)])
        tgt = np.array([q, ray_point(q, v1, 1.0), ray_point(q, v2, 1.0)])
        result = fit_isometry(src, tgt)
        worst_fit = max(worst_fit, result.max_residual)
        for t in (0.5, 1.5):
            for u, v in ((u1, v1), (u2, v2)):
                gap = hyperbolic_distance(
                    isometry_apply(result.isometry, ray_point(p, u, t)),
                    ray_point(q, v, t),
                )
                worst_ray = max(worst_ray, float(gap))
    ok = agree and worst_fit <= 1e-8 and worst_ray <= 1e-8
    report(10, "right angles", ok,
           f"witness residual {worst_fit:.2e}, ray transport {worst_ray:.2e}")


def test_criterion_11_projective_counterexample():
    recs = {n: projective_counterexample(n) for n in (2, 3, 5)}
    ok = all(rec.verified for rec in recs.values())
    rec = recs[2]
    ips_ok = (
        abs(float(rec.x @ rec.z1) - 0.25) <= 1e-15
        and abs(float(rec.x @ rec.z2) - 0.25) <= 1e-15
        and abs(float(rec.y @ rec.z1) - math.sqrt(2.0) / 4.0) <= 1e-15
        and abs(float(rec.y @ rec.z2) + math.sqrt(2.0) / 4.0) <= 1e-15
    )
    dp_ok = all(
        abs(projective_distance(w, rec.z1) - projective_distance(w, rec.z2)) <= 1e-12
        for w in (rec.x, rec.y)
    )
    margin_ok = all(rec.gram_margin >= 0.1 for rec in recs.values())
    # no sign choice is fitted: each raises at a pair whose sphere distances
    # differ (each returned None before the fit raised)
    def rejected(e0, e1, e2):
        try:
            sphere_fit_rotation([e0 * rec.x, e1 * rec.y, e2 * rec.z1],
                                [rec.x, rec.y, rec.z2])
        except PartialIsometryError as exc:
            return exc.pair is not None
        return False

    rejected_ok = all(rejected(e0, e1, e2) for e0 in (1.0, -1.0)
                      for e1 in (1.0, -1.0) for e2 in (1.0, -1.0))
    ok = ok and ips_ok and dp_ok and margin_ok and rejected_ok
    report(11, "projective counterexample", ok,
           f"gram margin {recs[2].gram_margin:.3f}")


def test_criterion_12_gauge_suite():
    rng = np.random.default_rng(10)
    sqrt_ray = builtin_gauge("sqrt")
    sqrt_unit = builtin_gauge("sqrt", domain="unit")

    worst = math.inf
    x, y, z = rng.uniform(-10.0, 10.0, (3, 10_000, 3))
    for base in ("hyperbolic", "euclidean"):
        dxy = snowflake_distance(sqrt_ray, base, x, y)
        dyz = snowflake_distance(sqrt_ray, base, y, z)
        dxz = snowflake_distance(sqrt_ray, base, x, z)
        worst = min(worst, float(np.min(dxy + dyz - dxz)))
    u, v, w = (random_unit(rng, 3, (10_000,)) for _ in range(3))
    duv = snowflake_distance(sqrt_unit, "sphere", u, v)
    dvw = snowflake_distance(sqrt_unit, "sphere", v, w)
    duw = snowflake_distance(sqrt_unit, "sphere", u, w)
    worst = min(worst, float(np.min(duv + dvw - duw)))
    triangle_ok = worst >= -1e-12

    square = builtin_gauge("square")
    a, b, c = np.array([0.0]), np.array([1.0]), np.array([2.0])
    square_breaks = (
        snowflake_distance(square, "euclidean", a, c)
        > snowflake_distance(square, "euclidean", a, b)
        + snowflake_distance(square, "euclidean", b, c)
    )

    norm_ok = True
    examples = [
        (builtin_gauge("identity"), 1.0),
        (OmegaGauge(lambda t: 2.0 * np.asarray(t, dtype=float), "ray",
                    math.inf, label="double"), 1.0),
        (builtin_gauge("saturating"), 0.5),
    ]
    for gauge, target in examples:
        scaled, _ = normalize_euclidean_gauge(gauge)
        norm_ok &= abs(float(scaled(1.0)) - target) <= 1e-9

    ok = triangle_ok and square_breaks and norm_ok
    report(12, "gauge suite", ok, f"min snowflake triangle slack {worst:.2e}")
