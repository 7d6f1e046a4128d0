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

from util import random_isometry, random_unit

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


def exact_ultraparallel_gap(a, b, mu, dps=60):
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
        # a refinement window flat to rounding ends the scan (25 distance
        # calls when only the half-width stop applied)
        calls = []
        real = geodesy.hyperbolic_distance

        def counted(x, y):
            calls.append(1)
            return real(x, y)

        monkeypatch.setattr(geodesy, "hyperbolic_distance", counted)
        a, b, mu = ultraparallel_problem(0)
        gap, _, _ = line_min_gap(parallel_family(a, b, mu), two_vector_form_to_line(a, b))
        assert abs(gap - exact_ultraparallel_gap(a, b, mu)) <= 1e-12 * gap
        assert len(calls) <= 17

    @pytest.mark.parametrize("seed", range(4))
    def test_intersecting_lines_gap_tends_to_zero(self, seed):
        # best tends to 0, so the half-width stop ends this scan
        rng = np.random.default_rng(seed)
        p = rng.uniform(-2.0, 2.0, 2)
        g1 = Geodesic(p, random_unit(rng, 2))
        g2 = Geodesic(p, random_unit(rng, 2))
        assert line_min_gap(g1, g2)[0] < 1e-14


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
