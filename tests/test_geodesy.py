"""Geodesics, lines, segments, angles, spheres, parallels."""

import math

import mpmath as mp
import numpy as np
import pytest

from hgeom import (
    Angle,
    DegenerateInputError,
    DimensionError,
    DomainError,
    Geodesic,
    angle_measure,
    curve_min_gap,
    geodesic_point,
    h1_embedding,
    hyperbolic_distance,
    is_right_angle,
    line_min_gap,
    line_through,
    line_two_vector_form,
    metrically_collinear,
    parallel_family,
    segment_contains,
    sphere_euclidean_radius,
    translation_apply,
    transport_angle,
    two_vector_form_to_line,
    two_vector_point,
)

from hgeom import geodesy

from util import exact_line_gap, exact_parallel_gap, random_isometry, random_unit

SINH_1 = 1.1752011936438014
ACOSH_SQRT2 = 0.88137358701954303

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


class TestGeodesicPoint:
    def test_at_zero_is_base(self):
        g = Geodesic(np.zeros(2), E1)
        assert np.array_equal(geodesic_point(g, 0.0), np.zeros(2))

    def test_unit_parameter_from_origin(self):
        g = Geodesic(np.zeros(2), E1)
        p = geodesic_point(g, 1.0)
        assert p == pytest.approx([SINH_1, 0.0], abs=1e-15)
        assert hyperbolic_distance(p, np.zeros(2)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_translation_composition(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.uniform(-5, 5, 3)
            z = random_unit(rng, 3)
            t = rng.uniform(-5, 5)
            g = Geodesic(a, z)
            expected = translation_apply(a, math.sinh(t) * z)
            assert np.allclose(geodesic_point(g, t), expected, atol=1e-9, rtol=1e-9)

    def test_unit_speed(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = rng.integers(1, 6)
            g = Geodesic(rng.uniform(-10, 10, n), random_unit(rng, n))
            s, t = rng.uniform(-10, 10, 2)
            d = hyperbolic_distance(geodesic_point(g, s), geodesic_point(g, t))
            assert abs(d - abs(s - t)) <= 1e-9

    def test_direction_normalized(self):
        g = Geodesic(np.zeros(2), np.array([3.0, 0.0]))
        assert np.array_equal(g.z, E1)

    def test_zero_direction_rejected(self):
        with pytest.raises(DegenerateInputError):
            Geodesic(np.zeros(2), np.zeros(2))

    def test_huge_direction_normalized(self):
        # |z|^2 overflows; this returned [0, 0]
        z = Geodesic(np.zeros(2), np.array([1e200, 1e200])).z
        assert np.allclose(z, [math.sqrt(0.5)] * 2, rtol=0, atol=1e-15)

    def test_tiny_direction_normalized(self):
        # any finite nonzero vector is a direction, as for sphere_distance;
        # a length below 1e-12 raised DegenerateInputError
        assert np.array_equal(Geodesic(np.zeros(2), [1e-13, 0.0]).z, E1)
        assert np.array_equal(Geodesic(np.zeros(2), [0.0, 5e-324]).z, E2)
        angle = Angle(np.zeros(2), [1e-13, 0.0], [0.0, -1e-300])
        assert np.array_equal(angle.z1, E1) and np.array_equal(angle.z2, -E2)
        assert is_right_angle(angle)


# the three curves that take a parameter t from the caller
CURVES = {
    "geodesic_point": lambda t: geodesic_point(Geodesic(np.array([0.5, -1.0]), E1), t),
    "two_vector_point": lambda t: two_vector_point(E1, E2, t),
    "h1_embedding": h1_embedding,
}


class TestCurveParameter:
    # t = 800 returned inf or NaN coordinates, and a NaN t NaN ones
    @pytest.mark.parametrize("curve", sorted(CURVES))
    @pytest.mark.parametrize("t", [
        np.nan, np.inf, -np.inf, 800.0, -800.0, [0.0, np.nan], [0.0, 800.0], 1j, "t",
    ])
    def test_rejected(self, curve, t):
        with pytest.raises(DomainError):
            CURVES[curve](t)

    @pytest.mark.parametrize("curve", sorted(CURVES))
    def test_large_in_range(self, curve):
        p = CURVES[curve](np.array([-700.0, 700.0]))
        assert np.all(np.isfinite(p))


class TestDimensionChecks:
    # mismatched two-vector forms raised numpy's broadcasting or matmul
    # ValueError
    def test_two_vector_point(self):
        with pytest.raises(DimensionError):
            two_vector_point(E1, [0.0, 1.0, 0.0], 1.0)

    def test_two_vector_form_to_line(self):
        with pytest.raises(DimensionError):
            two_vector_form_to_line(E1, [0.0, 1.0, 0.0])

    def test_segment_contains(self):
        with pytest.raises(DimensionError):
            segment_contains(E1, E2, [0.0, 1.0, 0.0])

    def test_transport_angle(self):
        angle = Angle(np.array([0.1, 0.2]), E1, E2)
        with pytest.raises(DimensionError):
            transport_angle(random_isometry(np.random.default_rng(0), 3), angle)


class TestLineThrough:
    def test_span_line_from_origin(self):
        g = line_through(np.zeros(2), np.array([2.0, 0.0]))
        assert np.array_equal(g.a, np.zeros(2))
        assert np.allclose(g.z, E1, atol=1e-15)

    def test_negative_parameter_covers_opposite_ray(self):
        b = np.array([2.0, 0.0])
        g = line_through(np.zeros(2), b)
        p = geodesic_point(g, -1.0)
        # a negative multiple of b
        assert p[0] < 0.0 and abs(p[1]) < 1e-15

    def test_reaches_second_point_at_distance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = rng.uniform(-5, 5, (2, 3))
            g = line_through(a, b)
            d = hyperbolic_distance(a, b)
            assert np.max(np.abs(geodesic_point(g, d) - b)) < 1e-9 * (
                1.0 + np.max(np.abs(b))
            )

    def test_image_set_symmetric_in_endpoints(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(-3, 3, (2, 3))
        d = hyperbolic_distance(a, b)
        g_ab = line_through(a, b)
        g_ba = line_through(b, a)
        for t in np.linspace(-2.0, d + 2.0, 9):
            p = geodesic_point(g_ab, t)
            q = geodesic_point(g_ba, d - t)
            assert np.max(np.abs(p - q)) < 1e-9 * (1.0 + np.max(np.abs(p)))

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateInputError):
            line_through(np.ones(2), np.ones(2))


class TestSegmentsAndCollinearity:
    def test_endpoint_contained(self):
        a, b = np.zeros(2), np.array([2.0, 0.0])
        assert segment_contains(a, b, a)
        assert segment_contains(a, b, b)

    def test_arc_midpoint_contained(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = rng.uniform(-4, 4, (2, 3))
            g = line_through(a, b)
            mid = geodesic_point(g, 0.5 * hyperbolic_distance(a, b))
            assert segment_contains(a, b, mid)

    def test_off_line_point_not_contained(self):
        assert not segment_contains(
            np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])
        )

    def test_collinear_with_repeated_point(self):
        a, b = np.array([1.0, 2.0]), np.array([-1.0, 0.5])
        assert metrically_collinear(a, a, b)

    def test_points_on_a_geodesic_collinear(self):
        rng = np.random.default_rng(5)
        g = Geodesic(rng.uniform(-3, 3, 3), random_unit(rng, 3))
        p, q, r = (geodesic_point(g, t) for t in (-1.2, 0.4, 2.0))
        assert metrically_collinear(p, q, r)

    def test_orthogonal_triple_not_collinear(self):
        assert not metrically_collinear(np.zeros(2), E1, E2)

    def test_contained_points_stay_near_line(self):
        # points that genuinely lie on the segment are Euclidean-close to the
        # sampled image of the line
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b = rng.uniform(-3, 3, (2, 2))
            g = line_through(a, b)
            d = hyperbolic_distance(a, b)
            x = geodesic_point(g, rng.uniform(0, 1) * d)
            assert segment_contains(a, b, x)
            ts = np.linspace(0.0, d, 200)
            image = geodesic_point(g, ts)
            i = int(np.argmin(np.linalg.norm(image - x, axis=-1)))
            lo = ts[max(i - 1, 0)]
            hi = ts[min(i + 1, len(ts) - 1)]
            # polish the nearest sample parameter before measuring the gap
            for _ in range(80):
                m1 = lo + 0.382 * (hi - lo)
                m2 = hi - 0.382 * (hi - lo)
                f1 = np.linalg.norm(geodesic_point(g, m1) - x)
                f2 = np.linalg.norm(geodesic_point(g, m2) - x)
                if f1 < f2:
                    hi = m2
                else:
                    lo = m1
            gap = float(np.linalg.norm(geodesic_point(g, 0.5 * (lo + hi)) - x))
            assert gap <= 1e-6


def segment_reference(a, b, x, tol=1e-9):
    # the segment rule as three public distance calls
    d_ab = hyperbolic_distance(a, b)
    defect = hyperbolic_distance(a, x) + hyperbolic_distance(x, b) - d_ab
    return abs(defect) <= tol * (1.0 + d_ab)


def collinear_reference(a, b, c, tol=1e-9):
    # each middle-point choice through the segment rule, nine distances
    return (segment_reference(a, c, b, tol) or segment_reference(b, c, a, tol)
            or segment_reference(a, b, c, tol))


def right_angle_reference(angle, tol=1e-9):
    # all four angles with the opposite rays, each measured in chord form
    def chord(u, v):
        return 2.0 * math.atan2(np.linalg.norm(u - v), np.linalg.norm(u + v))

    z1, z2 = angle.z1, angle.z2
    measures = [chord(z1, z2), chord(-z2, z1), chord(z2, -z1), chord(-z1, -z2)]
    return max(measures) - min(measures) <= tol


class TestMatchesReferenceFormulations:
    # the shared _between rule and the two distinct chord angles give the
    # booleans of the formulations above, on the line and off it by 1e-10,
    # 3e-5 (where the defect is near tol) and 1e-3
    DIMS = (1, 2, 3, 8, 64)
    OFFSETS = (0.0, 1e-10, 3e-5, 1e-3)

    @pytest.mark.parametrize("dim", DIMS)
    def test_segment_and_collinear(self, dim):
        rng = np.random.default_rng(500 + dim)
        seen = set()
        for _ in range(12):
            a, b = rng.uniform(-3, 3, (2, dim))
            d = hyperbolic_distance(a, b)
            for t in (0.0, rng.uniform(0.0, 1.0), 1.0):
                on = geodesic_point(line_through(a, b), t * d)
                for eps in self.OFFSETS:
                    x = on + eps * random_unit(rng, dim)
                    got = segment_contains(a, b, x)
                    assert got == segment_reference(a, b, x)
                    seen.add(got)
                    for p, q, r in ((a, b, x), (x, a, b), (b, x, a)):
                        got = metrically_collinear(p, q, r)
                        assert got == collinear_reference(p, q, r)
        assert seen == {True, False} or dim == 1

    @pytest.mark.parametrize("dim", DIMS)
    def test_right_angle(self, dim):
        rng = np.random.default_rng(600 + dim)
        seen = set()
        for _ in range(40):
            z1, r = random_unit(rng, dim), random_unit(rng, dim)
            w = r - float(r @ z1) * z1
            normal = w / np.linalg.norm(w) if dim > 1 else r
            for z2 in [r] + [normal + eps * z1 for eps in self.OFFSETS]:
                angle = Angle(rng.uniform(-3, 3, dim), z1, z2)
                got = is_right_angle(angle)
                assert got == right_angle_reference(angle)
                seen.add(got)
        assert seen == {True, False} or dim == 1


class TestTwoLinesIntersect:
    def test_intersecting_lines_share_one_point(self):
        # two distinct lines through a common point: the near-intersection
        # set collapses to that point
        rng = np.random.default_rng(7)
        p = rng.uniform(-2, 2, 2)
        g1 = Geodesic(p, random_unit(rng, 2))
        g2 = Geodesic(p, random_unit(rng, 2))
        ts = np.linspace(-5, 5, 400)
        pts1 = geodesic_point(g1, ts)
        pts2 = geodesic_point(g2, ts)
        d = hyperbolic_distance(pts1[:, None, :], pts2[None, :, :])
        close1 = pts1[np.min(d, axis=1) <= 1e-6]
        if len(close1) > 1:
            diam = np.max(
                np.linalg.norm(close1[:, None, :] - close1[None, :, :], axis=-1)
            )
            assert diam <= 1e-5

    def test_geodesicity_dilation_form(self):
        # t -> gamma(t * d) on [0, 1] scales all parameter gaps by d
        rng = np.random.default_rng(8)
        a, b = rng.uniform(-4, 4, (2, 3))
        g = line_through(a, b)
        d = hyperbolic_distance(a, b)
        u, v = rng.uniform(0, 1, 2)
        dist = hyperbolic_distance(geodesic_point(g, u * d), geodesic_point(g, v * d))
        assert dist == pytest.approx(abs(u - v) * d, abs=1e-9)


def exact_ultraparallel_gap(a, b, mu, dps=120):
    """Distance between the line span(mu a + b) and the line
    {sinh(t) a + cosh(t) b} in the plane, from the unit Minkowski normals
    n1, n2 of their planes in the hyperboloid model: cosh d = |<n1, n2>|
    (Ratcliffe, Foundations of Hyperbolic Manifolds, ch. 3)."""
    with mp.workdps(dps):
        a = [mp.mpf(float(v)) for v in a]
        b = [mp.mpf(float(v)) for v in b]
        mu = mp.mpf(float(mu))

        def mink(x, y):
            return -x[0] * y[0] + x[1] * y[1] + x[2] * y[2]

        def normal(p, q):
            # Minkowski-orthogonal to p and q: J (p x q), J = diag(-1, 1, 1)
            return [-(p[1] * q[2] - p[2] * q[1]),
                    p[2] * q[0] - p[0] * q[2],
                    p[0] * q[1] - p[1] * q[0]]

        # plane of the first line: the origin's lift and the direction
        n1 = normal([1, 0, 0], [0, mu * a[0] + b[0], mu * a[1] + b[1]])
        # plane of the second line: b's lift and the tangent there
        lift_b = [mp.sqrt(1 + b[0] ** 2 + b[1] ** 2), b[0], b[1]]
        tangent = [(a[0] * b[0] + a[1] * b[1]) / lift_b[0], a[0], a[1]]
        n2 = normal(lift_b, tangent)
        return float(mp.acosh(abs(mink(n1, n2)) / mp.sqrt(mink(n1, n1) * mink(n2, n2))))


def ultraparallel_problem(seed):
    """A seeded line in two-vector form (a, b) and a parallel parameter mu."""
    rng = np.random.default_rng(100 + seed)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    ang = phi + rng.uniform(math.radians(30.0), math.radians(150.0))
    b = rng.uniform(0.3, 2.5) * np.array([math.cos(phi), math.sin(phi)])
    z = np.array([math.cos(ang), math.sin(ang)])
    a, b = line_two_vector_form(Geodesic(b, z))
    mu = rng.choice([-1.0, 1.0]) * rng.uniform(1.2, 4.0)
    return a, b, mu


class TestGapScanStops:
    def test_flat_window_stops_early(self, monkeypatch):
        # the compensated kernel runs only from the window where plain double
        # stops ranking pairs, and a window flat to rounding ends the scan
        # (25 distance calls when only the half-width stop applied, 17 when
        # every window was compensated)
        calls = []
        real = geodesy.hyperbolic_distance

        def counted(x, y):
            calls.append(1)
            return real(x, y)

        monkeypatch.setattr(geodesy, "hyperbolic_distance", counted)
        a, b, mu = ultraparallel_problem(0)
        g1, g2 = parallel_family(a, b, mu), two_vector_form_to_line(a, b)
        gap, _, _ = curve_min_gap(lambda t: geodesic_point(g1, t),
                                  lambda t: geodesic_point(g2, t))
        assert abs(gap - exact_ultraparallel_gap(a, b, mu)) <= 1e-12 * gap
        assert len(calls) <= 6

    @pytest.mark.parametrize("seed", range(4))
    def test_intersecting_lines_gap_tends_to_zero(self, seed):
        # best tends to 0, so the half-width stop ends this scan
        rng = np.random.default_rng(seed)
        p = rng.uniform(-2.0, 2.0, 2)
        g1 = Geodesic(p, random_unit(rng, 2))
        g2 = Geodesic(p, random_unit(rng, 2))
        assert curve_min_gap(lambda t: geodesic_point(g1, t),
                             lambda t: geodesic_point(g2, t))[0] < 1e-14
        assert line_min_gap(g1, g2)[0] < 1e-14

    def test_minimizer_outside_window_gives_upper_bound(self):
        # re-basing g2 at its point t=12 moves the minimizing parameter to
        # about -11.7, outside [-10, 10]: the scan stops at the window's edge
        # with a true distance between two line points, above the gap
        rng = np.random.default_rng(4)
        g1, g2 = (Geodesic(rng.uniform(-1, 1, 3), rng.standard_normal(3)) for _ in range(2))

        def scan(g, h):
            return curve_min_gap(lambda t: geodesic_point(g, t), lambda t: geodesic_point(h, t))

        gap, _, t0 = scan(g1, g2)
        assert abs(gap - 0.52722) <= 1e-5
        h2 = line_through(geodesic_point(g2, 12.0), geodesic_point(g2, 13.0))
        assert t0 - 12.0 < -10.0
        bound, s, t = scan(g1, h2)
        assert t == -10.0 and abs(bound - 1.86114) <= 1e-5
        d = hyperbolic_distance(geodesic_point(g1, s), geodesic_point(h2, t))
        assert abs(d - bound) <= 1e-12 * bound
        # the closed form has no window: it returns the gap for g2, and for
        # h2 (whose own gap is 0.52722 too) it raises, because h2's closest
        # point lies 11.7 back from a base point at |x| ~ 1e5, where
        # geodesic_point is off by ~1e-7, so no gap it could report would be
        # good to 1e-12
        assert abs(line_min_gap(g1, g2)[0] - 0.52722) <= 1e-5
        assert abs(float(exact_line_gap(g1, h2, (0.46, -11.74))[0]) - 0.52722) <= 1e-5
        with pytest.raises(DomainError, match="only known to within"):
            line_min_gap(g1, h2)

    # -5 raised ValueError from math.sqrt, 2.5 was accepted, 0 scanned a 2x2
    # grid, and 10**400 raised OverflowError from math.sqrt
    @pytest.mark.parametrize("samples", [-5, 0, 2.5, np.float64(100.0), "100", None,
                                         2**31, 10**30,
                                         pytest.param(10**400, id="1e400")])
    def test_bad_samples_rejected(self, samples):
        g1 = parallel_family(E1, E2, 2.0)
        g2 = two_vector_form_to_line(E1, E2)
        with pytest.raises(DomainError):
            line_min_gap(g1, g2, samples=samples)
        with pytest.raises(DomainError):
            curve_min_gap(lambda t: geodesic_point(g1, t),
                          lambda t: geodesic_point(g2, t), samples=samples)

    # True scanned a 2x2 grid: operator.index reads it as 1
    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_samples_rejected(self, flag):
        g1 = parallel_family(E1, E2, 2.0)
        g2 = two_vector_form_to_line(E1, E2)
        with pytest.raises(DomainError, match="integer"):
            line_min_gap(g1, g2, samples=flag)
        with pytest.raises(DomainError, match="integer"):
            curve_min_gap(lambda t: geodesic_point(g1, t),
                          lambda t: geodesic_point(g2, t), samples=flag)


def parallel_curves(regime):
    """(a, b, mu) of parallel constructions whose second curve
    {sinh t a + cosh t b} is a line ("lines", the benchmark's gap units), a
    random independent pair at d2-d5 ("curves"), or such a pair based far
    out, |b| from 10 to 1e3 ("far")."""
    if regime == "lines":
        return [ultraparallel_problem(seed) for seed in range(12)]
    out = []
    for dim in (2, 3, 4, 5):
        rng = np.random.default_rng(dim + (10 if regime == "far" else 0))
        for _ in range(6):
            a, b = rng.standard_normal((2, dim))
            if regime == "far":
                b = 10.0 ** rng.uniform(1.0, 3.0) * random_unit(rng, dim)
            out.append((a, b, rng.choice([-1.0, 1.0]) * rng.uniform(1.05, 4.0)))
    return out


class TestCurveScanAgainstClosedForm:
    @pytest.mark.parametrize("regime", ["lines", "curves", "far"])
    def test_scan_against_120_digit_gap(self, regime):
        for a, b, mu in parallel_curves(regime):
            g1 = parallel_family(a, b, mu)
            curve_a = lambda u: geodesic_point(g1, u)  # noqa: E731
            curve_b = lambda u: two_vector_point(a, b, u)  # noqa: E731
            gap, s, t = curve_min_gap(curve_a, curve_b)
            # the gap is the distance between the points it names, to the bit
            assert gap == hyperbolic_distance(curve_a(np.array([s]))[0],
                                              curve_b(np.array([t]))[0])
            # the exact gap between the line as built and the curve: the
            # result lies below it by no more than the points' rounding
            exact, es, et = (float(v) for v in exact_parallel_gap(g1.z, a, b))
            assert gap >= exact * (1.0 - 1e-12), (gap, exact)
            if regime == "lines":
                assert abs(exact - exact_ultraparallel_gap(a, b, mu)) <= 1e-14 * exact
                if max(abs(es), abs(et)) < 10.0:
                    assert abs(gap - exact) <= 1e-12 * exact, (gap, exact)


def skew_pair(rng, dim, scale=1.0, apart=False):
    """Two random lines: the first based at |a| = scale, the second at a
    random offset in [-1, 1]^dim from it (so the two run close by), or,
    with ``apart``, at an independent point with |a| = scale."""
    a = scale * random_unit(rng, dim)
    b = scale * random_unit(rng, dim) if apart else a + rng.uniform(-1.0, 1.0, dim)
    return Geodesic(a, rng.standard_normal(dim)), Geodesic(b, rng.standard_normal(dim))


def rebased(g, t):
    """The same line re-based with line_through at its point t."""
    return line_through(geodesic_point(g, t), geodesic_point(g, t + 1.0))


def ideal_line(xi, eta):
    """The line with ideal ends xi and eta (unit vectors), based at its point
    closest to the origin and running towards xi."""
    xi, eta = np.asarray(xi, float), np.asarray(eta, float)
    chord = np.linalg.norm(xi - eta)
    return Geodesic((xi + eta) / chord, (xi - eta) / chord)


def perpendicular_pair(rng, dim, s0, gap, base):
    """Two lines at distance ``gap`` whose common perpendicular meets the
    first, based at a random point with |a| <= ``base``, at its parameter s0,
    and the second at its base point."""
    g1 = Geodesic(base * random_unit(rng, dim) * rng.uniform(), random_unit(rng, dim))

    def normal_at(g, t):
        # the point g(t) and a unit direction there normal to g
        p = geodesic_point(g, t)
        z = translation_apply(-p, geodesic_point(g, t + 1.0))
        z /= np.linalg.norm(z)
        v = random_unit(rng, dim)
        return p, v - (v @ z) * z

    foot, n = normal_at(g1, s0)
    perp = Geodesic(foot, n)
    return g1, Geodesic(*normal_at(perp, gap))


def check_against_oracle(g1, g2, rtol):
    """line_min_gap either raises DomainError or returns (gap, s, t) within
    rtol (relative) plus 1e-13 of the 120-digit gap, with gap the distance
    between the two reported points.  Returns whether it raised."""
    try:
        gap, s, t = line_min_gap(g1, g2)
    except DomainError:
        return True
    exact = float(exact_line_gap(g1, g2, (s, t))[0])
    assert abs(gap - exact) <= rtol * exact + 1e-13, (gap, exact)
    assert gap == hyperbolic_distance(geodesic_point(g1, s), geodesic_point(g2, t))
    return False


class TestLineMinGapClosedForm:
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_skew_lines_match_oracle(self, dim):
        # random lines based in [-1, 1]^dim; in H^2 about half of them meet
        rng = np.random.default_rng(30 + dim)
        for _ in range(12):
            g1, g2 = (Geodesic(rng.uniform(-1, 1, dim), rng.standard_normal(dim)) for _ in range(2))
            assert not check_against_oracle(g1, g2, 1e-13)

    # At most this many raises per cell of 8 nearby and 8 apart pairs (what
    # these draws give).  At 1e4 and 1e6 the closest points' coordinates
    # carry ~1e-12 and ~1e-10 of rounding, so only pairs far apart (gaps ~20)
    # return there.
    @pytest.mark.parametrize("scale, dim, nearby_raised, apart_raised", [
        (1.0, 2, 0, 0), (1.0, 3, 0, 0), (1.0, 5, 0, 0), (1.0, 8, 0, 0),
        (1e2, 2, 0, 0), (1e2, 3, 0, 0), (1e2, 5, 0, 0), (1e2, 8, 0, 0),
        (1e4, 2, 8, 1), (1e4, 3, 8, 1), (1e4, 5, 8, 0), (1e4, 8, 8, 0),
        (1e6, 2, 8, 8), (1e6, 3, 8, 8), (1e6, 5, 8, 8), (1e6, 8, 8, 8),
    ])
    def test_far_base_points_match_oracle_or_raise(self, scale, dim, nearby_raised,
                                                   apart_raised):
        rng = np.random.default_rng(int(7 * dim + math.log10(scale)))
        rtol = 1e-13 if scale <= 1e2 else 1e-12
        for apart, expected in ((False, nearby_raised), (True, apart_raised)):
            raised = sum(check_against_oracle(*skew_pair(rng, dim, scale, apart), rtol)
                         for _ in range(8))
            assert raised <= expected

    # lines through one base point, as far out as |p| = 1e3: each pass works
    # in the frame where the pair found so far sits at the origin
    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("scale", [1.0, 12.0, 1e2, 1e3])
    def test_intersecting_lines_meet_at_the_intersection(self, dim, scale):
        rng = np.random.default_rng(60 + dim)
        for _ in range(10):
            p = scale * random_unit(rng, dim) * rng.uniform(0.5, 1.0)
            gap, s, t = line_min_gap(Geodesic(p, rng.standard_normal(dim)),
                                     Geodesic(p, rng.standard_normal(dim)))
            assert gap <= 1e-14 and abs(s) <= 1e-14 and abs(t) <= 1e-14

    def test_axis_lines_through_a_far_point_meet(self):
        assert line_min_gap(Geodesic([12.0, 0.0], [0.0, 1.0]),
                            Geodesic([12.0, 0.0], [1.0, 0.0])) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_intersecting_lines_based_apart_match_oracle(self, dim):
        # the same, with each line re-based up to 3 units along itself
        rng = np.random.default_rng(65 + dim)
        for _ in range(10):
            p = rng.uniform(-1.0, 1.0, dim)
            g1, g2 = (rebased(Geodesic(p, rng.standard_normal(dim)), rng.uniform(-3.0, 3.0))
                      for _ in range(2))
            assert not check_against_oracle(g1, g2, 1e-13)

    # A gap of 0.5 whose closest pair lies 7 or 8 units along the first
    # line, based at the origin or in the unit ball.  That line's point has
    # coordinates ~e^|s0| / 2, each carrying ~1e-13 of rounding at |s0| = 8,
    # so from the unit ball a few of those raise: at most this many of 6 in
    # H^2, H^3 and H^5 (what these draws give).
    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("s0, base, max_raised", [
        (7.0, 1.0, (0, 0, 0)), (-7.0, 1.0, (0, 0, 0)), (8.0, 0.0, (0, 0, 0)),
        (-8.0, 0.0, (0, 0, 0)), (8.0, 1.0, (1, 0, 0)), (-8.0, 1.0, (1, 0, 0)),
    ])
    def test_perpendicular_far_along_a_line_matches_oracle(self, dim, s0, base, max_raised):
        rng = np.random.default_rng(int(75 + dim + s0))
        raised = 0
        for _ in range(6):
            g1, g2 = perpendicular_pair(rng, dim, s0, 0.5, base)
            try:
                gap, s, t = line_min_gap(g1, g2)
            except DomainError:
                raised += 1
                continue
            assert abs(s - s0) <= 1e-6 and abs(t) <= 1e-6
            exact = float(exact_line_gap(g1, g2, (s, t))[0])
            assert abs(gap - exact) <= 1e-12 * exact and abs(exact - 0.5) <= 1e-12
        assert raised <= max_raised[(2, 3, 5).index(dim)]

    def test_unsettled_passes_raise(self, monkeypatch):
        # a closed form that only halves the distance to the closest pair
        # leaves a last step of ~1/16: its move keeps the gap uncertified
        real = geodesy._closest_step
        monkeypatch.setattr(geodesy, "_closest_step", lambda w, a: 0.5 * real(w, a))
        a, b, mu = ultraparallel_problem(0)
        with pytest.raises(DomainError, match="only known to within"):
            line_min_gap(parallel_family(a, b, mu), two_vector_form_to_line(a, b))

    def test_common_perpendicular_far_outside_window_raises(self):
        # both lines re-based 12 or 30 units along themselves: the closest
        # pair lies 12 or 30 back from base points at |x| ~ 1e5 or ~1e13,
        # where geodesic_point's coordinates carry far more than 1e-12 of
        # the gap; the scan would return an upper bound at the window's edge
        rng = np.random.default_rng(70)
        for dim in (2, 3, 5):
            g1, g2 = skew_pair(rng, dim)
            for t in (12.0, -12.0, 30.0, -30.0):
                with pytest.raises(DomainError):
                    line_min_gap(rebased(g1, t), rebased(g2, -t))
                with pytest.raises(DomainError):
                    line_min_gap(g1, rebased(g2, t))

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_rebasing_nearby_leaves_gap_unchanged(self, dim):
        # line_through's own rounding grows with the new base point, so
        # re-basing stays within 3 units, where it moves the line by ~1e-14
        rng = np.random.default_rng(80 + dim)
        for _ in range(6):
            g1, g2 = skew_pair(rng, dim)
            gap = line_min_gap(g1, g2)[0]
            for t in (1.0, -1.0, 3.0, -3.0):
                for h1, h2 in ((rebased(g1, t), g2), (g1, rebased(g2, t))):
                    try:
                        moved = line_min_gap(h1, h2)[0]
                    except DomainError:
                        continue  # coordinates at |x| ~ 20 for a small gap
                    assert abs(moved - gap) <= 1e-12 * gap + 1e-13

    def test_nearly_asymptotic_pairs_raise_or_match(self):
        # lines sharing one ideal end up to an angle eps: the closest pair
        # drifts towards that end as eps shrinks, ~log(1/eps) out
        for dim in (2, 3):
            xi = np.eye(dim)[0]
            rot = np.eye(dim)
            for eps in (1e-1, 1e-2, 1e-4, 1e-8):
                rot[:2, :2] = [[math.cos(eps), -math.sin(eps)], [math.sin(eps), math.cos(eps)]]
                raised = check_against_oracle(ideal_line(xi, -xi),
                                              ideal_line(rot @ xi, np.eye(dim)[1]), 1e-12)
                assert raised == (eps < 1e-4)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_asymptotic_and_coincident_lines_raise(self, dim):
        # a shared ideal end: no closest pair exists
        xi, eta = np.eye(dim)[0], -np.eye(dim)[1]
        for g2 in (ideal_line(xi, eta), ideal_line(xi, -xi), ideal_line(-xi, xi)):
            with pytest.raises(DomainError):
                line_min_gap(ideal_line(xi, -xi), g2)

    def test_h1_gap_is_zero(self):
        g1, g2 = Geodesic([0.3], [2.0]), Geodesic([-5.0], [-1.0])
        gap, s, t = line_min_gap(g1, g2)
        assert gap == 0.0 and s == 0.0
        assert hyperbolic_distance(geodesic_point(g2, t), g1.a) <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            line_min_gap(Geodesic([0.0, 0.0], [1.0, 0.0]), Geodesic([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_scan_agrees_inside_window(self, dim):
        rng = np.random.default_rng(90 + dim)
        for _ in range(4):
            g1, g2 = (Geodesic(rng.uniform(-1, 1, dim), rng.standard_normal(dim)) for _ in range(2))
            gap, s, t = line_min_gap(g1, g2)
            if gap < 1e-3:
                continue  # a meeting pair: the scan's stop is absolute there
            assert max(abs(s), abs(t)) < 10.0
            scanned = curve_min_gap(lambda u: geodesic_point(g1, u), lambda u: geodesic_point(g2, u))
            assert abs(scanned[0] - gap) <= 1e-12 * gap

    def test_benchmark_gap_units_exact(self):
        # parallel-family pairs built as the benchmark builds its gap units
        for seed in range(6):
            a, b, mu = ultraparallel_problem(seed)
            exact = exact_ultraparallel_gap(a, b, mu)
            gap = line_min_gap(parallel_family(a, b, mu), two_vector_form_to_line(a, b))[0]
            assert abs(gap - exact) <= 1e-15 * exact


class TestParallelFamily:
    def test_direction_for_mu_two(self):
        g = parallel_family(E1, E2, 2.0)
        assert np.allclose(g.z, [2.0, 1.0] / np.sqrt(5.0), atol=1e-15)
        assert np.array_equal(g.a, np.zeros(2))

    def test_disjoint_from_two_vector_line(self):
        for mu in (1.5, 2.0, 3.0, -1.5):
            g = parallel_family(E1, E2, mu)
            gap, _, _ = line_min_gap(g, two_vector_form_to_line(E1, E2), samples=2500)
            assert gap > 1e-4

    @pytest.mark.parametrize("seed", range(6))
    def test_scans_match_exact_ultraparallel_gap(self, seed):
        a, b, mu = ultraparallel_problem(seed)
        exact = exact_ultraparallel_gap(a, b, mu)
        g1 = parallel_family(a, b, mu)
        g2 = two_vector_form_to_line(a, b)
        curve_b = lambda t: two_vector_point(a, b, t)  # noqa: E731
        for gap, s, t, q in (
            (*line_min_gap(g1, g2), lambda t: geodesic_point(g2, t)),
            (*curve_min_gap(lambda t: geodesic_point(g1, t), curve_b), curve_b),
        ):
            assert abs(gap - exact) <= 1e-12 * exact
            # the gap is the distance between the two points it reports
            d = hyperbolic_distance(geodesic_point(g1, s), q(np.array([t]))[0])
            assert abs(d - gap) <= 1e-12 * gap

    def test_distinct_mu_distinct_lines(self):
        g1 = parallel_family(E1, E2, 1.5)
        g2 = parallel_family(E1, E2, 2.5)
        # directions not parallel, so the spans meet only at the origin
        cross = g1.z[0] * g2.z[1] - g1.z[1] * g2.z[0]
        assert abs(cross) > 1e-6

    def test_mu_gate(self):
        with pytest.raises(DomainError):
            parallel_family(E1, E2, 1.0)

    # 2j raised TypeError
    @pytest.mark.parametrize("mu", [np.nan, np.inf, 2j])
    def test_mu_gate_non_finite_or_complex(self, mu):
        with pytest.raises(DomainError):
            parallel_family(E1, E2, mu)

    def test_dependent_vectors_rejected(self):
        with pytest.raises(DegenerateInputError):
            parallel_family(E1, 2.0 * E1, 2.0)

    def test_huge_independent_vectors(self):
        # |a| and |b| overflowed in the independence test, which then read
        # NaN and raised DegenerateInputError
        a, b = np.array([1e200, 1e200]), np.array([1e200, 0.9e200])
        g = parallel_family(a, b, 2.0)
        assert np.allclose(g.z, np.array([3.0, 2.9]) / math.hypot(3.0, 2.9), atol=1e-15)

    def test_tiny_independent_vectors(self):
        # the independence test accepted the pair, then the direction 2a + b,
        # of length 2.2e-13, raised "(near-)zero length"
        g = parallel_family([1e-13, 0.0], [0.0, 1e-13], 2.0)
        assert np.allclose(g.z, np.array([2.0, 1.0]) / math.sqrt(5.0), atol=1e-15)


class TestTwoVectorForm:
    def test_translated_axis_line(self):
        g = Geodesic(E2, E1)  # image of the first axis under T_{e2}
        a, b = line_two_vector_form(g)
        assert np.allclose(a, E1, atol=1e-15)
        assert np.allclose(b, E2, atol=1e-15)

    def test_form_reproduces_points(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            base = rng.uniform(-3, 3, 3)
            z = random_unit(rng, 3)
            g = Geodesic(base, z)
            try:
                a, b = line_two_vector_form(g)
            except DegenerateInputError:
                continue
            ts = rng.uniform(-3, 3, 8)
            assert np.allclose(
                two_vector_point(a, b, ts),
                geodesic_point(g, ts),
                atol=1e-9,
                rtol=1e-9,
            )

    def test_b_is_base_point(self):
        g = Geodesic(np.array([0.5, -1.0]), random_unit(np.random.default_rng(10), 2))
        _, b = line_two_vector_form(g)
        assert np.array_equal(b, g.a)

    def test_huge_base_point_overflow_raises(self):
        # |y| overflows; this raised DegenerateInputError for a line that
        # misses the origin
        with pytest.raises(DomainError):
            line_two_vector_form(Geodesic(np.array([0.0, 1e200]), E1))

    def test_line_through_origin_rejected(self):
        with pytest.raises(DegenerateInputError):
            line_two_vector_form(Geodesic(np.zeros(2), E1))
        with pytest.raises(DegenerateInputError):
            # base on the span of the direction
            line_two_vector_form(Geodesic(np.array([2.0, 0.0]), E1))

    def test_round_trip(self):
        g = Geodesic(np.array([0.3, 1.2, -0.5]), random_unit(np.random.default_rng(11), 3))
        a, b = line_two_vector_form(g)
        back = two_vector_form_to_line(a, b)
        ts = np.linspace(-2, 2, 7)
        assert np.allclose(
            geodesic_point(back, ts), geodesic_point(g, ts), atol=1e-9, rtol=1e-9
        )

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_round_trip_at_every_dimension(self, dim):
        rng = np.random.default_rng(700 + dim)
        for _ in range(20):
            g = Geodesic(rng.uniform(-3, 3, dim), random_unit(rng, dim))
            back = two_vector_form_to_line(*line_two_vector_form(g))
            assert np.array_equal(back.a, g.a)
            assert np.allclose(back.z, g.z, atol=1e-12)

    @pytest.mark.parametrize("a, b", [
        ([2.0, 0.5], [0.3, 1.0]),  # a curve with |a|^2 - (<a,b>/[b])^2 = 3.67
        ([0.5, 0.0], [0.0, 1.0]),  # 0.25
        ([1e200, 0.0], [0.0, 1.0]),  # |a|^2 overflows
    ])
    def test_pairs_that_are_not_lines_rejected(self, a, b):
        # {sinh(t) a + cosh(t) b} is a line only when the Minkowski norm of
        # its lifted tangent is 1; such pairs came back as a Geodesic
        with pytest.raises(DomainError):
            two_vector_form_to_line(a, b)


class TestAngles:
    def test_right_angle_measure(self):
        assert angle_measure(Angle(np.zeros(2), E1, E2)) == pytest.approx(
            math.pi / 2, abs=1e-15
        )

    def test_zero_angle(self):
        z = random_unit(np.random.default_rng(12), 3)
        assert angle_measure(Angle(np.zeros(3), z, z)) == 0.0

    def test_invariance_under_isometries(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(100):
            a = Angle(rng.uniform(-3, 3, 3), random_unit(rng, 3), random_unit(rng, 3))
            g = random_isometry(rng, 3)
            worst = max(
                worst, abs(angle_measure(transport_angle(g, a)) - angle_measure(a))
            )
        assert worst <= 1e-8

    def test_right_angle_detection(self):
        assert is_right_angle(Angle(np.zeros(2), E1, E2))
        assert not is_right_angle(Angle(np.zeros(2), E1, E1))
        diag = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert not is_right_angle(Angle(np.zeros(2), E1, diag))

    def test_right_angle_euclidean_equivalence_at_origin(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            z1 = random_unit(rng, 3)
            z2 = random_unit(rng, 3)
            ang = Angle(np.zeros(3), z1, z2)
            assert is_right_angle(ang) == (abs(float(z1 @ z2)) <= 1e-9)
            # orthogonalized companion is always right
            w = z2 - float(z2 @ z1) * z1
            if np.linalg.norm(w) > 1e-6:
                assert is_right_angle(Angle(np.zeros(3), z1, w))


class TestSpheresAndH1:
    def test_zero_radius(self):
        assert sphere_euclidean_radius(0.0) == 0.0

    def test_unit_euclidean_radius(self):
        assert sphere_euclidean_radius(ACOSH_SQRT2) == pytest.approx(1.0, abs=1e-12)

    def test_sphere_points_at_right_distance(self):
        rng = np.random.default_rng(15)
        for r in (0.25, 1.0, 3.0):
            rho = sphere_euclidean_radius(r)
            u = random_unit(rng, 3, (100,))
            d = hyperbolic_distance(rho * u, np.zeros(3))
            assert np.max(np.abs(d - r)) <= 1e-9

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            sphere_euclidean_radius(-0.1)

    # nan returned nan; 1000 raised OverflowError
    @pytest.mark.parametrize("r", [np.nan, np.inf, 711.0, 1000.0, 1j])
    def test_non_finite_and_overflow_rejected(self, r):
        with pytest.raises(DomainError):
            sphere_euclidean_radius(r)

    def test_h1_zero(self):
        assert np.array_equal(h1_embedding(0.0), [0.0])

    def test_h1_is_isometric(self):
        assert hyperbolic_distance(h1_embedding(3.0), h1_embedding(-2.0)) == (
            pytest.approx(5.0, abs=1e-9)
        )

    def test_h1_matches_geodesic(self):
        g = Geodesic(np.zeros(1), np.ones(1))
        ts = np.linspace(-4, 4, 11)
        assert np.allclose(h1_embedding(ts), geodesic_point(g, ts), atol=1e-12)
