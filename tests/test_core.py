"""Core metrics: bracket, the four distances, embeddings, disk coordinates."""

import math

import mpmath as mp
import numpy as np
import pytest
import sympy as sp
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hgeom import (
    Angle,
    DegenerateInputError,
    DimensionError,
    DomainError,
    angle_measure,
    bracket,
    euclidean_distance,
    hyperbolic_distance,
    hyperboloid_embed,
    poincare_coords,
    poincare_inverse,
    points_equal,
    proj_points_equal,
    projective_distance,
    sphere_distance,
    sphere_point,
)

from hgeom import _dd

from util import (
    exact_angle,
    exact_hyperbolic_distance,
    naive_argument,
    naive_hyperbolic_distance,
    random_unit,
)

# frozen oracle values (hand/high-precision evaluation of the closed forms)
SQRT2 = 1.4142135623730951
ACOSH_SQRT2 = 0.88137358701954303
SQRT26 = 5.0990195135927848
ACOSH_3 = 1.7627471740390861


def coords(n):
    return arrays(np.float64, (n,), elements=st.floats(-10, 10, allow_nan=False))


class TestBracket:
    def test_zero_vector(self):
        assert bracket(np.zeros(3)) == 1.0

    def test_one_dim(self):
        assert bracket([1.0]) == pytest.approx(SQRT2, abs=1e-15)

    def test_three_four(self):
        assert bracket([3.0, 4.0]) == pytest.approx(SQRT26, abs=1e-12)

    def test_no_overflow_huge(self):
        assert math.isfinite(bracket([1e150]))
        assert bracket([1e150]) == pytest.approx(1e150, rel=1e-12)

    def test_overflow_raises(self):
        # |x|^2 passes the double range; this returned inf
        with pytest.raises(DomainError):
            bracket([1e300, 1e300])
        with pytest.raises(DomainError):
            bracket([[1.0, 0.0], [1e200, 0.0]])

    def test_batched(self):
        out = bracket(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert out.shape == (2,)
        assert out[0] == 1.0

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            bracket([np.nan])


class TestHyperbolicDistance:
    def test_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(-10, 10, rng.integers(1, 6))
            assert hyperbolic_distance(x, x) == 0.0

    def test_oracle_exact_at_coincident_points(self):
        # mp.acosh of an argument rounded just below 1 is complex, so float()
        # raised TypeError on 51 of these draws; 54 more read ~1e-60
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(-5.0, 5.0, rng.integers(2, 6))
            assert exact_hyperbolic_distance(x, x) == 0.0

    def test_unit_from_origin(self):
        assert hyperbolic_distance([1.0], [0.0]) == pytest.approx(
            ACOSH_SQRT2, abs=1e-15
        )

    def test_opposite_points_additive(self):
        # (1) and (-1) lie on a line through 0, so the triangle inequality
        # through the origin is an equality: arcosh(3) = 2 arcosh(sqrt 2)
        d = hyperbolic_distance([1.0], [-1.0])
        assert d == pytest.approx(ACOSH_3, abs=1e-15)
        total = hyperbolic_distance([1.0], [0.0]) + hyperbolic_distance([0.0], [-1.0])
        assert d == pytest.approx(total, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            hyperbolic_distance([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [
        [1 + 2j, 0.0],
        np.array([1.0 + 0j, 0.0]),
        ["a", 0.0],
        [[1.0, 2.0], [3.0]],
    ])
    def test_non_real_input_is_domain_error(self, bad):
        with pytest.raises(DomainError):
            hyperbolic_distance(bad, [0.0, 0.0])

    @given(coords(3), coords(3))
    def test_symmetry_bitwise(self, x, y):
        assert hyperbolic_distance(x, y) == hyperbolic_distance(y, x)

    @given(coords(2), coords(2), coords(2))
    def test_triangle(self, x, y, z):
        assert hyperbolic_distance(x, z) <= (
            hyperbolic_distance(x, y) + hyperbolic_distance(y, z) + 1e-9
        )

    @given(coords(4), coords(4))
    def test_minkowski_identity(self, x, y):
        # [x][y] - <x,y> >= 1, equality only at equal points; an argument
        # within 1e-12 of 1 pins the distance down to ~sqrt(2e-12)
        arg = naive_argument(x, y)
        assert arg >= 1.0 - 1e-12
        if arg <= 1.0 + 1e-12:
            assert hyperbolic_distance(x, y) <= 2e-6

    def test_radicand_identity_symbolic(self):
        # |x-y|^2 - ([x]-[y])^2 == 2([x][y] - <x,y> - 1), the identity behind
        # the cancellation-free evaluation, checked symbolically
        xs = sp.symbols("x1 x2 x3", real=True)
        ys = sp.symbols("y1 y2 y3", real=True)
        bx = sp.sqrt(1 + sum(v**2 for v in xs))
        by = sp.sqrt(1 + sum(v**2 for v in ys))
        ip = sum(a * b for a, b in zip(xs, ys))
        lhs = sum((a - b) ** 2 for a, b in zip(xs, ys)) - (bx - by) ** 2
        rhs = 2 * (bx * by - ip - 1)
        assert sp.simplify(sp.expand(lhs - rhs)) == 0

    def test_naive_consistency(self):
        # stable route tracks the textbook formula whenever the latter is
        # well conditioned
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = rng.integers(1, 9)
            x = rng.uniform(-10, 10, n)
            y = rng.uniform(-10, 10, n)
            if naive_argument(x, y) < 1.0 + 1e-8:
                continue
            d = hyperbolic_distance(x, y)
            assert abs(d - naive_hyperbolic_distance(x, y)) <= 1e-9 * (1.0 + d)

    def test_matches_high_precision_reference(self):
        rng = np.random.default_rng(11)
        for sep in [1e-2, 1e-5, 1e-8]:
            for _ in range(20):
                x = rng.uniform(-10, 10, 3)
                y = x + sep * random_unit(rng, 3)
                d = hyperbolic_distance(x, y)
                ref = exact_hyperbolic_distance(x, y)
                assert d == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_local_equivalence_constants(self):
        # on |x| <= 10 with tiny separations: d_h <= d_e and d_e <= C' d_h
        # where C' slightly exceeds sup [x] = sqrt(101)
        rng = np.random.default_rng(3)
        cprime = math.sqrt(101.0) * (1.0 + 1e-6)
        for _ in range(500):
            n = rng.integers(1, 6)
            x = random_unit(rng, n) * rng.uniform(0, 10)
            y = x + rng.uniform(0, 1e-6) * random_unit(rng, n)
            dh = hyperbolic_distance(x, y)
            de = euclidean_distance(x, y)
            assert dh <= de * (1.0 + 1e-12) + 1e-300
            assert de <= cprime * dh + 1e-300

    @pytest.mark.parametrize("x, y", [
        ([1e200, 0.0], [0.0, 0.0]),  # |x|^2 overflows; this returned nan
        ([0.0, 0.0], [1e200, 0.0]),
        ([1.3e154], [-1.3e154]),  # norms in range, [x][y] - <x,y> is not
    ])
    def test_overflow_raises(self, x, y):
        with pytest.raises(DomainError):
            hyperbolic_distance(x, y)
        with pytest.raises(DomainError):
            hyperbolic_distance(np.array([x, np.zeros_like(x)]), y)

    def test_near_overflow_in_range(self):
        # |x| = 1e150 is inside the guarded range; arcosh(1 + R^2) = log(2 R^2)
        # to double precision at R = 1e150
        assert hyperbolic_distance([1e150, 0.0], [0.0, 1e150]) == pytest.approx(
            math.log(2.0) + 2.0 * math.log(1e150), rel=1e-14
        )

    def test_batched_broadcasting(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-5, 5, (4, 3))
        ys = rng.uniform(-5, 5, (6, 3))
        mat = hyperbolic_distance(xs[:, None, :], ys[None, :, :])
        assert mat.shape == (4, 6)
        assert mat[1, 2] == hyperbolic_distance(xs[1], ys[2])


def _reference_excess(x, y):
    """The three-pass formulation the one-pass kernel replaced: |x|^2, |y|^2
    and <x,y> as separate compensated dot products on the broadcast shape."""

    def two_sum(a, b):
        s = a + b
        t = s - a
        return s, (a - (s - t)) + (b - t)

    def quick_two_sum(a, b):
        s = a + b
        return s, b - (s - a)

    def split(a):
        c = 134217729.0 * a
        hi = c - (c - a)
        return hi, a - hi

    def two_prod(a, b):
        p = a * b
        ah, al = split(a)
        bh, bl = split(b)
        return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl

    def dd_add(xh, xl, yh, yl):
        s, e = two_sum(xh, yh)
        return quick_two_sum(s, e + xl + yl)

    def dd_mul(xh, xl, yh, yl):
        p, e = two_prod(xh, yh)
        return quick_two_sum(p, e + (xh * yl + xl * yh))

    def dd_sqrt(xh, xl):
        r = np.sqrt(xh)
        p, e = two_prod(r, r)
        d = ((xh - p) - e) + xl
        denom = np.where(r == 0.0, 1.0, 2.0 * r)
        return quick_two_sum(r, np.where(r == 0.0, 0.0, d / denom))

    def dd_dot(x, y):
        shape = np.broadcast_shapes(x.shape, y.shape)[:-1]
        s = np.zeros(shape)
        c = np.zeros(shape)
        for i in range(x.shape[-1]):
            p, pe = two_prod(x[..., i], y[..., i])
            s, se = two_sum(s, p)
            c = c + (se + pe)
        return quick_two_sum(s, c)

    xb, yb = np.broadcast_arrays(x, y)
    bxh, bxl = dd_sqrt(*dd_add(*dd_dot(xb, xb), 1.0, 0.0))
    byh, byl = dd_sqrt(*dd_add(*dd_dot(yb, yb), 1.0, 0.0))
    ph, pl = dd_mul(bxh, bxl, byh, byl)
    ih, il = dd_dot(xb, yb)
    sh, sl = dd_add(ph, pl, -ih, -il)
    sh, sl = dd_add(sh, sl, -1.0, 0.0)
    s = np.maximum(sh + sl, 0.0)
    return np.where(np.all(xb == yb, axis=-1), 0.0, s)


def _unit(rng, shape):
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _kernel_pairs(rng, regime, n, d):
    """n seeded (x, y) pairs of dimension d from one accuracy regime."""
    if regime == "uniform":
        return rng.uniform(-10.0, 10.0, (2, n, d))
    if regime == "nearby":
        x = rng.uniform(-10.0, 10.0, (n, d))
        sep = 10.0 ** rng.uniform(-9.0, -3.0, (n, 1))
        return x, x + sep * _unit(rng, (n, d))
    if regime == "far_antipodal":
        r = 10.0 ** rng.uniform(3.0, 8.0, (2, n, 1))
        u = _unit(rng, (n, d))
        return r[0] * u, -r[1] * (u + 1e-3 * _unit(rng, (n, d)))
    if regime == "wide":
        mag = 10.0 ** rng.uniform(-8.0, 8.0, (2, n, d))
        return mag * rng.choice([-1.0, 1.0], (2, n, d))
    if regime == "far_radial":
        r = 10.0 ** rng.uniform(6.0, 8.0, (n, 1))
        u = _unit(rng, (n, d))
        sep = 10.0 ** rng.uniform(-10.0, -6.0, (n, 1))
        return r * u, (r + sep) * u + sep * _unit(rng, (n, d))
    raise ValueError(regime)


KERNEL_REGIMES = ("uniform", "nearby", "far_antipodal", "wide", "far_radial")


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMinkowskiExcessKernel:
    """The one-pass kernel returns the three-pass formulation's bits."""

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("regime", KERNEL_REGIMES)
    def test_bit_identical_to_three_pass(self, regime, d):
        rng = np.random.default_rng([KERNEL_REGIMES.index(regime), d])
        x, y = _kernel_pairs(rng, regime, 40, d)
        cases = [(x[0], y[0]), (x[1], y[1]), (x, y), (y, x),
                 (x[:6, None, :], y[None, :6, :]), (x[:5, None, :], y[7]), (x[9], y)]
        for a, b in cases:
            assert _same_bits(_dd.minkowski_excess(a, b), _reference_excess(a, b))

    @pytest.mark.parametrize("regime", KERNEL_REGIMES)
    def test_swap_symmetric_and_zero_on_equal(self, regime):
        rng = np.random.default_rng([7, KERNEL_REGIMES.index(regime)])
        for d in (1, 3, 8):
            x, y = _kernel_pairs(rng, regime, 30, d)
            assert _same_bits(_dd.minkowski_excess(x, y), _dd.minkowski_excess(y, x))
            grid = _dd.minkowski_excess(x[:, None, :], x[None, :, :])
            assert _same_bits(grid, grid.T)
            assert np.all(np.diag(grid) == 0.0)
            assert np.all(_dd.minkowski_excess(y, y) == 0.0)

    @pytest.mark.parametrize("layout", [
        "fortran", "transposed", "reversed", "every_other_row", "broadcast", "3d",
    ])
    def test_bit_identical_on_any_layout(self, layout):
        # the kernel copies each coordinate column into contiguous memory;
        # strides, order and zero strides must not change a bit
        rng = np.random.default_rng([11, len(layout)])
        x, y = rng.uniform(-10.0, 10.0, (2, 40, 8))
        if layout == "fortran":
            x, y = np.asfortranarray(x), np.asfortranarray(y)
        elif layout == "transposed":
            x, y = np.ascontiguousarray(x.T).T, np.ascontiguousarray(y.T).T
        elif layout == "reversed":
            x, y = x[::-1], y[::-1]
        elif layout == "every_other_row":
            x, y = x[::2], y[::2]
        elif layout == "broadcast":
            x, y = np.broadcast_to(x[3], x.shape), np.broadcast_to(y[:, :1], y.shape)
        else:
            x, y = x.reshape(5, 8, 8), y.reshape(5, 8, 8)
        p = rng.uniform(-10.0, 10.0, 8)
        for a, b in ((x, y), (x, p), (p, y)):
            assert _same_bits(_dd.minkowski_excess(a, b), _reference_excess(a, b))
        d = hyperbolic_distance(x[(0,) * (x.ndim - 1)], p)
        assert type(d) is float
        assert d == hyperbolic_distance(np.ascontiguousarray(x)[(0,) * (x.ndim - 1)], p)


class TestEuclideanDistance:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-10, 10, 4)
        assert euclidean_distance(x, x) == 0.0

    def test_three_four(self):
        assert euclidean_distance([3.0, 4.0], [0.0, 0.0]) == 5.0

    def test_one_dim(self):
        assert euclidean_distance([1.0], [-1.0]) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            euclidean_distance([1.0, 2.0], [1.0])

    def test_huge_in_range(self):
        # |x - y|^2 overflows; this returned inf
        assert euclidean_distance([1e200, 0.0], [0.0, 0.0]) == 1e200
        assert euclidean_distance([3e300, 4e300], [0.0, 0.0]) == 5e300

    @pytest.mark.parametrize("x, y", [
        ([1e308], [-1e308]),  # x - y overflows
        ([1.5e308, 1.5e308], [0.0, 0.0]),  # |x - y| overflows
    ])
    def test_overflow_raises(self, x, y):
        with pytest.raises(DomainError):
            euclidean_distance(x, y)


class TestSpherePoint:
    def test_huge_vector_normalized(self):
        # |v|^2 overflows; this returned [0, 0]
        u = sphere_point([1e200, 1e200])
        assert np.allclose(u, [math.sqrt(0.5)] * 2, rtol=0, atol=1e-15)

    def test_bits_match_plain_normalization(self):
        # the power-of-two rescaling is exact
        v = np.random.default_rng(3).uniform(-10.0, 10.0, (50, 4))
        assert _same_bits(sphere_point(v), v / np.linalg.norm(v, axis=-1, keepdims=True))


class TestSphereDistance:
    def test_same_point(self):
        u = sphere_point([0.3, -0.4, 1.0])
        assert sphere_distance(u, u) == 0.0

    def test_antipodal_is_exactly_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            u = random_unit(rng, 4)
            assert sphere_distance(u, -u) == 1.0

    def test_orthogonal_pair(self):
        assert sphere_distance([1.0, 0.0], [0.0, 1.0]) == 0.5

    def test_non_unit_measured_by_direction(self):
        # raised DomainError: points had to be unit vectors within 1e-6
        assert sphere_distance([2.0, 0.0], [0.0, 1.0]) == 0.5

    def test_triangle_random(self):
        rng = np.random.default_rng(4)
        u = random_unit(rng, 3, (10_000,))
        v = random_unit(rng, 3, (10_000,))
        w = random_unit(rng, 3, (10_000,))
        duv = sphere_distance(u, v)
        dvw = sphere_distance(v, w)
        duw = sphere_distance(u, w)
        assert np.min(duv + dvw - duw) >= -1e-12

    def test_matches_arccos(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            u, v = random_unit(rng, 5), random_unit(rng, 5)
            ref = math.acos(np.clip(u @ v, -1.0, 1.0)) / math.pi
            assert sphere_distance(u, v) == pytest.approx(ref, abs=1e-12)


class TestProjectiveDistance:
    def test_same_class(self):
        u = sphere_point([1.0, 2.0, 2.0])
        assert projective_distance(u, u) == 0.0
        assert projective_distance(u, -u) == 0.0

    def test_orthogonal_pair(self):
        assert projective_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_sign_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            u, v = random_unit(rng, 4), random_unit(rng, 4)
            d = projective_distance(u, v)
            assert projective_distance(-u, v) == pytest.approx(d, abs=1e-12)
            assert projective_distance(u, -v) == pytest.approx(d, abs=1e-12)

    def test_triangle_random(self):
        rng = np.random.default_rng(9)
        u = random_unit(rng, 4, (10_000,))
        v = random_unit(rng, 4, (10_000,))
        w = random_unit(rng, 4, (10_000,))
        duv = projective_distance(u, v)
        dvw = projective_distance(v, w)
        duw = projective_distance(u, w)
        assert np.min(duv + dvw - duw) >= -1e-12

    def test_matches_arccos_abs(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            u, v = random_unit(rng, 3), random_unit(rng, 3)
            ref = 2.0 * math.acos(min(abs(float(u @ v)), 1.0)) / math.pi
            assert projective_distance(u, v) == pytest.approx(ref, abs=1e-12)

    def test_equality_of_classes(self):
        u = sphere_point([1.0, 1.0])
        assert proj_points_equal(u, -u)
        assert not proj_points_equal(u, sphere_point([1.0, -1.0]))

    def test_equality_of_any_representatives(self):
        # compared the raw vectors, so [1, 0] and [-3, 0] differed although
        # their projective distance is 0
        assert proj_points_equal([1.0, 0.0], [-3.0, 0.0])
        assert projective_distance([1.0, 0.0], [-3.0, 0.0]) == 0.0
        assert not proj_points_equal([1.0, 0.0], [1.0, 1e-6])


# name: (sign of the cosine, angle from 0 or pi, |x|, |y|); an angle of None
# draws two independent directions
ANGLE_REGIMES = {
    "generic": (1.0, None, 1.0, 1.0),
    "near_0_1e-7": (1.0, 1e-7, 1.0, 1.0),
    "near_0_1e-12": (1.0, 1e-12, 1.0, 1.0),
    "near_pi_1e-7": (-1.0, 1e-7, 1.0, 1.0),
    "near_pi_1e-12": (-1.0, 1e-12, 1.0, 1.0),
    "off_unit": (1.0, 1e-7, 1.0 + 9e-7, 1.0 - 9e-7),
    "scaled": (1.0, 1e-7, 3.7, 1e3),
    "scaled_1e-9": (1.0, 1e-7, 3.7e-9, 1e-6),
}


def _angle_pairs(regime, d, n=40):
    # n pairs (x, y) of dimension d drawn in the named regime
    sign, gap, rx, ry = ANGLE_REGIMES[regime]
    rng = np.random.default_rng([d, list(ANGLE_REGIMES).index(regime)])
    x = random_unit(rng, d, (n,))
    if gap is None:
        y = random_unit(rng, d, (n,))
    else:
        w = rng.standard_normal((n, d))
        w -= np.sum(w * x, axis=-1, keepdims=True) * x
        w /= np.linalg.norm(w, axis=-1, keepdims=True)
        y = sign * math.cos(gap) * x + math.sin(gap) * w
    return rx * x, ry * y


class TestAngles:
    """sphere_distance, projective_distance and angle_measure against a
    120-digit angle, and their exact values."""

    @pytest.mark.parametrize("d", [2, 3, 8, 64])
    @pytest.mark.parametrize("regime", ANGLE_REGIMES)
    def test_match_120_digits(self, regime, d):
        x, y = _angle_pairs(regime, d)
        sph, proj = sphere_distance(x, y), projective_distance(x, y)
        assert _same_bits(sph, sphere_distance(y, x))
        assert _same_bits(proj, projective_distance(y, x))
        worst = 0.0
        for i in range(len(x)):
            angle = Angle(np.zeros(d), x[i], y[i])
            with mp.workdps(40):
                theta = exact_angle(x[i], y[i])
                for got, ref in [
                    (sph[i], theta / mp.pi),
                    (proj[i], 2 * min(theta, mp.pi - theta) / mp.pi),
                    (angle_measure(angle), exact_angle(angle.z1, angle.z2)),
                ]:
                    worst = max(worst, float(abs(got - ref) / ref))
        assert worst <= 1e-15

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
    def test_exact_along_one_line(self, d):
        rng = np.random.default_rng(d)
        x = rng.uniform(-5.0, 5.0, (200, d)) * 10.0 ** rng.integers(-200, 200, (200, 1))
        for y, sph, proj in [(x, 0.0, 0.0), (2.0 * x, 0.0, 0.0), (-2.0 * x, 1.0, 0.0)]:
            assert np.all(sphere_distance(x, y) == sph)
            assert np.all(projective_distance(x, y) == proj)
        z = x[0] / np.linalg.norm(x[0])
        assert angle_measure(Angle(np.zeros(d), z, -z)) == math.pi

    def test_defects_off_unit(self):
        # accepted as unit vectors within 1e-6 and read 2.86e-7 and 5.73e-7
        assert sphere_distance([1.0, 0.0], [1.0 + 9e-7, 0.0]) == 0.0
        assert projective_distance([1.0, 0.0], [1.0 + 9e-7, 0.0]) == 0.0

    @pytest.mark.parametrize("metric", [sphere_distance, projective_distance])
    def test_rejects_zero_and_non_finite(self, metric):
        with pytest.raises(DegenerateInputError):
            metric([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(DegenerateInputError):
            metric([[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [0.0, 0.0]])
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                metric([1.0, bad], [1.0, 0.0])


class TestEmbeddings:
    def test_embed_origin(self):
        assert np.array_equal(hyperboloid_embed(np.zeros(3)), [1.0, 0, 0, 0])

    def test_embed_one(self):
        out = hyperboloid_embed([1.0])
        assert out == pytest.approx([SQRT2, 1.0], abs=1e-15)

    def test_first_coordinate_is_bracket(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(-10, 10, 5)
        assert hyperboloid_embed(x)[0] == bracket(x)

    def test_minkowski_normalization(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            x = rng.uniform(-10, 10, 4)
            e = hyperboloid_embed(x)
            assert e[0] ** 2 - np.sum(e[1:] ** 2) == pytest.approx(1.0, abs=1e-9)

    def test_poincare_origin(self):
        assert np.array_equal(poincare_coords(np.zeros(2)), np.zeros(2))

    def test_poincare_one(self):
        assert poincare_coords([1.0]) == pytest.approx([0.41421356237309505], abs=1e-15)

    def test_poincare_norm_below_one(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(-100, 100, (1000, 3))
        assert np.all(np.linalg.norm(poincare_coords(x), axis=-1) < 1.0)

    def test_poincare_round_trip(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(-50, 50, (200, 4))
        back = poincare_inverse(poincare_coords(x))
        assert np.max(np.abs(back - x)) <= 1e-12 * (1.0 + np.max(np.abs(x)))

    def test_poincare_inverse_domain(self):
        with pytest.raises(DomainError):
            poincare_inverse([1.0, 0.0])

    def test_overflow_raises(self):
        # [x] overflowed: the lift's time coordinate was inf and the disk
        # image the origin
        for fn in (hyperboloid_embed, poincare_coords):
            with pytest.raises(DomainError):
                fn([1e200, 0.0])


class TestPointsEqual:
    def test_tolerant_equality(self):
        assert points_equal([1.0, 2.0], [1.0 + 5e-10, 2.0])
        assert not points_equal([1.0, 2.0], [1.1, 2.0])

    def test_relative_part(self):
        assert points_equal([1e6], [1e6 * (1 + 5e-10)])
