"""Translations, full isometries, fitting, and the dilation residual."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hgeom import (
    DimensionError,
    DomainError,
    GeometryError,
    Isometry,
    PartialIsometryError,
    bracket,
    dilation_residual,
    fit_isometry,
    hyperbolic_distance,
    identity_isometry,
    isometry_apply,
    isometry_compose,
    isometry_invert,
    translation_apply,
    translation_isometry,
)

from hgeom import core, geodesy, isometry
from hgeom.isometry import APPLY_BLOCK, FIT_DISTANCE_TOL

from util import (
    drifting_one_point_fit,
    exact_hyperbolic_distance,
    exact_isometry_apply,
    random_isometry,
    random_orthogonal,
    random_unit,
)

TWO_SQRT2 = 2.8284271247461903


def coords(n):
    return arrays(np.float64, (n,), elements=st.floats(-10, 10, allow_nan=False))


class TestTranslation:
    def test_origin_goes_to_parameter(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.uniform(-10, 10, 3)
            assert np.allclose(translation_apply(y, np.zeros(3)), y, atol=1e-15)

    def test_one_dimensional_value(self):
        # coefficient sqrt2 + 1/(sqrt2+1) = 2 sqrt2 - 1, so the image is 2 sqrt2,
        # whose bracket is 3 = [1][1]*2 + 1 as the bracket law demands
        out = translation_apply([1.0], [1.0])
        assert out == pytest.approx([TWO_SQRT2], abs=1e-14)
        assert bracket(out) == pytest.approx(3.0, abs=1e-12)

    @given(coords(3), coords(3))
    def test_inverse_law(self, y, x):
        back = translation_apply(-y, translation_apply(y, x))
        assert np.max(np.abs(back - x)) <= 1e-9 * (1.0 + np.linalg.norm(x))

    @given(coords(2), coords(2), coords(2))
    def test_distance_preserved(self, y, a, b):
        d0 = hyperbolic_distance(a, b)
        d1 = hyperbolic_distance(translation_apply(y, a), translation_apply(y, b))
        assert abs(d1 - d0) <= 1e-9 * (1.0 + d0)

    @given(coords(4), coords(4))
    def test_bracket_law(self, y, u):
        lhs = bracket(translation_apply(y, u))
        rhs = bracket(u) * bracket(y) + float(u @ y)
        assert abs(lhs - rhs) <= 1e-9 * lhs

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            translation_apply([1.0, 0.0], [1.0])

    @pytest.mark.parametrize("y, x", [
        ([1e200, 0.0], [1.0, 0.0]),  # [y] overflowed: returned 1.414e200, not 2.414e200
        ([1.0, 0.0], [1e200, 0.0]),
        ([1e154, 0.0], [1e154, 0.0]),  # norms in range, the image is not
    ])
    def test_overflow_raises(self, y, x):
        with pytest.raises(DomainError):
            translation_apply(y, x)

    def test_large_in_range(self):
        out = translation_apply([1e100, 0.0], [1.0, 0.0])
        assert out[0] == pytest.approx(1e100 * (1.0 + np.sqrt(2.0)), rel=1e-14)

    def test_batched(self):
        rng = np.random.default_rng(1)
        ys = rng.uniform(-5, 5, (100, 3))
        xs = rng.uniform(-5, 5, (100, 3))
        out = translation_apply(ys, xs)
        assert out.shape == (100, 3)
        assert np.allclose(out[7], translation_apply(ys[7], xs[7]), atol=1e-15)


class TestIsometry:
    def test_identity_action(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-10, 10, 4)
        assert np.allclose(isometry_apply(identity_isometry(4), x), x, atol=1e-15)

    def test_translation_isometry_action(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(-5, 5, 3)
        x = rng.uniform(-5, 5, 3)
        assert np.allclose(
            isometry_apply(translation_isometry(y), x),
            translation_apply(y, x),
            atol=1e-15,
        )

    def test_preserves_distance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = random_isometry(rng, 3)
            x, y = rng.uniform(-5, 5, (2, 3))
            d0 = hyperbolic_distance(x, y)
            d1 = hyperbolic_distance(isometry_apply(g, x), isometry_apply(g, y))
            assert abs(d1 - d0) <= 1e-9 * (1.0 + d0)

    @pytest.mark.parametrize("d", [2, 64])
    def test_blocked_batch_matches_pointwise(self, d):
        # batches spanning several row blocks, with two leading axes, map
        # each point as the single-point call does
        rng = np.random.default_rng(d)
        g = random_isometry(rng, d)
        rows = 2 * APPLY_BLOCK // d + 3
        x = rng.uniform(-10, 10, (2, rows, d))
        out = isometry_apply(g, x)
        assert out.shape == x.shape
        for i in rng.choice(rows, 40, replace=False):
            for k in range(2):
                one = isometry_apply(g, x[k, i])
                assert np.max(np.abs(out[k, i] - one)) <= 1e-12 * (1.0 + np.max(np.abs(one)))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(GeometryError):
            Isometry(np.zeros(2), np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionError):
            Isometry(np.zeros(3), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_orthogonal_part(self, bad):
        with pytest.raises(GeometryError):
            Isometry(np.zeros(2), np.array([[bad, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("u", [
        np.diag([1.0, 1.0 + 1e-3j]),  # was cast to its real part and accepted
        [["1", "0"], ["0", "x"]],  # raised numpy's ValueError
    ])
    def test_rejects_non_real_orthogonal_part(self, u):
        with pytest.raises(DomainError):
            Isometry(np.zeros(2), u)


class TestComposeInvert:
    def test_compose_with_identity(self):
        rng = np.random.default_rng(5)
        g = random_isometry(rng, 3)
        gid = isometry_compose(identity_isometry(3), g)
        x = rng.uniform(-5, 5, (20, 3))
        assert np.max(np.abs(isometry_apply(gid, x) - isometry_apply(g, x))) < 1e-9

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(6)
        g = random_isometry(rng, 4)
        gg = isometry_compose(g, isometry_invert(g))
        x = rng.uniform(-5, 5, (20, 4))
        assert np.max(np.abs(isometry_apply(gg, x) - x)) < 1e-9

    def test_translation_inverse_composition(self):
        rng = np.random.default_rng(7)
        y = rng.uniform(-5, 5, 3)
        gid = isometry_compose(translation_isometry(y), translation_isometry(-y))
        assert np.max(np.abs(gid.a)) < 1e-9
        assert np.max(np.abs(gid.U - np.eye(3))) < 1e-9

    def test_compose_matches_pointwise_action(self):
        rng = np.random.default_rng(8)
        g, h = random_isometry(rng, 3), random_isometry(rng, 3)
        gh = isometry_compose(g, h)
        x = rng.uniform(-5, 5, (50, 3))
        direct = isometry_apply(g, isometry_apply(h, x))
        assert np.max(np.abs(isometry_apply(gh, x) - direct)) < 1e-8

    def test_invert_identity(self):
        g = isometry_invert(identity_isometry(3))
        assert np.array_equal(g.a, np.zeros(3))
        assert np.array_equal(g.U, np.eye(3))

    def test_invert_pure_rotation(self):
        rng = np.random.default_rng(9)
        u = random_orthogonal(rng, 4)
        g = isometry_invert(Isometry(np.zeros(4), u))
        assert np.allclose(g.U, u.T, atol=1e-15)
        assert np.allclose(g.a, 0.0, atol=1e-15)

    def test_invert_pure_translation(self):
        y = np.array([0.3, -2.0, 1.0])
        g = isometry_invert(translation_isometry(y))
        assert np.allclose(g.a, -y, atol=1e-15)
        assert np.allclose(g.U, np.eye(3), atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            isometry_compose(identity_isometry(2), identity_isometry(3))


def _isometry_at(rng, dim, amag):
    """Random isometry whose translation part has length ``amag``."""
    return Isometry(amag * random_unit(rng, dim), random_orthogonal(rng, dim))


def _worst_compose_miss(c, g, h, probes):
    """Largest 120-digit distance between c(p) and g(h(p)) over the probes."""
    return max(
        exact_hyperbolic_distance(
            exact_isometry_apply(c, p),
            exact_isometry_apply(g, exact_isometry_apply(h, p)),
            dps=120,
        )
        for p in probes
    )


class TestComposeExact:
    """Composites checked against a 120-digit evaluation of g(h(p))."""

    @pytest.mark.parametrize("dim", [2, 3, 5, 32])
    @pytest.mark.parametrize("amag", [1e1, 1e3])
    def test_matches_chained_action(self, amag, dim):
        rng = np.random.default_rng(16)
        for _ in range(3):
            g = _isometry_at(rng, dim, amag)
            r = _isometry_at(rng, dim, 0.1)
            probes = rng.uniform(-1.0, 1.0, (3, dim))
            for outer, inner in ((g, isometry_invert(g)), (g, r), (r, g)):
                c = isometry_compose(outer, inner)
                assert _worst_compose_miss(c, outer, inner, probes) <= 1e-7

    @pytest.mark.parametrize("amag", [1e4, 3e4, 1e5])
    def test_far_inverse_pair_raises_or_matches(self, amag):
        # composing with the inverse loses about |a|^2 * eps; once the
        # decomposition's drift certificate fails the call must raise.  At
        # this seed, maps returned without that certificate miss by 1e-7 to
        # 3e-6 at |a| = 3e4 and 1e5.
        rng = np.random.default_rng(0)
        for _ in range(2):
            for dim in (2, 3, 5):
                g = _isometry_at(rng, dim, amag)
                gi = isometry_invert(g)
                probes = rng.uniform(-1.0, 1.0, (3, dim))
                try:
                    c = isometry_compose(g, gi)
                except DomainError:
                    continue
                assert _worst_compose_miss(c, g, gi, probes) <= 1e-7


class TestFitIsometry:
    def test_identity_pairs(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        res = fit_isometry(pts, pts)
        assert res.max_residual < 1e-12
        assert not res.unique  # two points cannot pin down a plane isometry
        x = np.array([0.3, -0.7])
        assert np.allclose(isometry_apply(res.isometry, x), x, atol=1e-9)

    def test_single_point_gives_translation(self):
        y = np.array([1.0, -2.0, 0.5])
        res = fit_isometry([np.zeros(3)], [y])
        assert np.allclose(res.isometry.a, y, atol=1e-12)
        assert np.allclose(res.isometry.U, np.eye(3), atol=1e-12)
        assert not res.unique

    def test_quarter_turn(self):
        src = np.array([[0.0, 0.0], [1.0, 0.0]])
        tgt = np.array([[0.0, 0.0], [0.0, 1.0]])
        res = fit_isometry(src, tgt)
        assert res.max_residual < 1e-12
        # held-out third point: all pairwise distances preserved
        extra = np.array([0.4, 0.3])
        image = isometry_apply(res.isometry, extra)
        for p, q in zip(src, tgt):
            d0 = hyperbolic_distance(extra, p)
            d1 = hyperbolic_distance(image, q)
            assert abs(d1 - d0) < 1e-9

    def test_round_trip_spanning(self):
        rng = np.random.default_rng(10)
        for dim in (2, 3, 5):
            g = random_isometry(rng, dim)
            pts = rng.uniform(-5, 5, (dim + 2, dim))
            res = fit_isometry(pts, isometry_apply(g, pts))
            assert res.unique
            assert res.max_residual < 1e-7
            fresh = rng.uniform(-5, 5, (100, dim))
            gap = hyperbolic_distance(
                isometry_apply(g, fresh), isometry_apply(res.isometry, fresh)
            )
            assert np.max(gap) < 1e-7

    def test_round_trip_non_spanning_still_isometric(self):
        rng = np.random.default_rng(11)
        g = random_isometry(rng, 4)
        pts = rng.uniform(-5, 5, (2, 4))
        res = fit_isometry(pts, isometry_apply(g, pts))
        assert not res.unique
        assert res.max_residual < 1e-9
        fresh = rng.uniform(-5, 5, (50, 4))
        mapped = isometry_apply(res.isometry, fresh)
        d0 = hyperbolic_distance(fresh[:-1], fresh[1:])
        d1 = hyperbolic_distance(mapped[:-1], mapped[1:])
        assert np.max(np.abs(d1 - d0)) < 1e-9

    def test_rejects_distance_mismatch(self):
        src = np.array([[0.0, 0.0], [1.0, 0.0]])
        tgt = np.array([[0.0, 0.0], [1.1, 0.0]])
        with pytest.raises(PartialIsometryError) as err:
            fit_isometry(src, tgt)
        assert err.value.pair is not None

    def test_gram_criterion_both_directions(self):
        # maps fixing the origin preserve distances iff they preserve inner
        # products: orthogonal images do, perturbed images break both
        rng = np.random.default_rng(12)
        pts = rng.uniform(-3, 3, (4, 3))
        pts[0] = 0.0
        u = random_orthogonal(rng, 3)
        images = pts @ u.T
        assert np.allclose(images @ images.T, pts @ pts.T, atol=1e-12)
        res = fit_isometry(pts, images)
        assert res.max_residual < 1e-9

        bad = images.copy()
        bad[2] *= 1.01  # breaks <p2, p2> hence some distance
        with pytest.raises(PartialIsometryError):
            fit_isometry(pts, bad)

    def test_decomposition_drift_raises(self, monkeypatch):
        src, tgt = drifting_one_point_fit()
        with pytest.raises(PartialIsometryError, match="drifts from orthogonal"):
            fit_isometry(src, tgt)
        # without the certificate the fit passes its residual contract (1e-6)
        # yet misses its own target in exact arithmetic
        monkeypatch.setattr(isometry, "DECOMPOSE_DRIFT_TOL", 1.0)
        res = fit_isometry(src, tgt)
        miss = exact_hyperbolic_distance(
            exact_isometry_apply(res.isometry, src[0]), tgt[0], dps=120
        )
        assert miss > 1e-7

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            fit_isometry([np.zeros(2)], [np.zeros(2), np.ones(2)])

    @pytest.mark.parametrize("bad", [
        [[1.0 + 2.0j, 0.0]], [[1.0, 0.0], [1.0]], [["a", "b"]], [[np.nan, 0.0]],
    ])
    def test_rejects_non_real_input(self, bad):
        with pytest.raises(DomainError):
            fit_isometry(bad, [[0.0, 0.0]])
        with pytest.raises(DomainError):
            fit_isometry([[0.0, 0.0]], bad)

    def test_rejects_input_beyond_two_axes(self):
        pts = np.zeros((2, 2, 3))
        with pytest.raises(DimensionError):
            fit_isometry(pts, pts)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-6])
    def test_rejects_bad_tolerance(self, tol):
        src = np.array([[0.0], [1.0]])
        tgt = np.array([[0.0], [2.5]])  # distances 0.88 vs 2.31
        with pytest.raises(DomainError):
            fit_isometry(src, tgt, tol=tol)


def _scaled_fit_problem(rng, dim, scale, rotation_only):
    a = np.zeros(dim) if rotation_only else rng.uniform(-5.0, 5.0, dim)
    g = Isometry(a, random_orthogonal(rng, dim))
    src = rng.uniform(-scale, scale, (dim + 2, dim))
    held = rng.uniform(-scale, scale, (3, dim))
    return g, src, isometry_apply(g, src), held


class TestFitAtLargeScale:
    """Fits whose sample coordinates are of size 1e2 .. 1e4."""

    @pytest.mark.parametrize("rotation_only", [True, False])
    def test_scale_1e2_preserves_held_out_distances(self, rotation_only):
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(8):
            for dim in (2, 3, 5):
                g, src, tgt, held = _scaled_fit_problem(rng, dim, 1e2, rotation_only)
                res = fit_isometry(src, tgt)
                assert res.unique
                image = isometry_apply(res.isometry, held)
                d0 = hyperbolic_distance(held[:, None, :], src[None, :, :])
                d1 = hyperbolic_distance(image[:, None, :], tgt[None, :, :])
                worst = max(worst, float(np.max(np.abs(d1 - d0))))
        assert worst <= 1e-7

    @pytest.mark.parametrize("scale", [1e2, 1e3, 1e4])
    @pytest.mark.parametrize("rotation_only", [True, False])
    def test_residual_contract(self, scale, rotation_only):
        rng = np.random.default_rng(15)
        for _ in range(8):
            for dim in (2, 3, 5):
                g, src, tgt, _ = _scaled_fit_problem(rng, dim, scale, rotation_only)
                try:
                    res = fit_isometry(src, tgt)
                except PartialIsometryError:
                    continue
                ds = hyperbolic_distance(src[:, None, :], src[None, :, :])
                bound = FIT_DISTANCE_TOL * (1.0 + float(np.max(ds)))
                miss = hyperbolic_distance(isometry_apply(res.isometry, src), tgt)
                assert res.max_residual == float(np.max(miss))
                assert res.max_residual <= bound


class TestDilationResidual:
    def test_identity_scaling_vanishes(self):
        for t in (1.0, 1.01, 1.1, 2.0, 5.0, 10.0):
            assert dilation_residual(1.0, t) <= 1e-12

    def test_spot_value(self):
        # cosh(2u) = 2 cosh^2 u - 1 gives lhs 31; inner value 7 gives rhs 49
        assert dilation_residual(2.0, 2.0) == pytest.approx(18.0, abs=1e-9)

    def test_zero_at_t_one(self):
        for c in (0.5, 0.9, 1.1, 2.0, 7.3):
            assert dilation_residual(c, 1.0) == 0.0

    def test_grid_property(self):
        grid = (1.01, 1.1, 2.0, 5.0, 10.0)
        for c in (0.5, 0.9, 1.1, 2.0):
            assert max(dilation_residual(c, t) for t in grid) >= 0.01

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            dilation_residual(2.0, 0.5)
        with pytest.raises(DomainError):
            dilation_residual(-1.0, 2.0)

    @pytest.mark.parametrize("c, t", [
        (2.0, np.nan),  # returned nan
        (np.nan, 2.0),
        (np.inf, 2.0),  # returned nan
        (2.0, np.inf),
        (2.0, 1e300),  # raised OverflowError
        (0.5, 1e300),  # returned inf
        (1e300, 2.0),
        (1 + 1j, 2.0),
    ])
    def test_non_finite_and_overflow_raise(self, c, t):
        with pytest.raises(DomainError):
            dilation_residual(c, t)


@pytest.fixture
def as_point_calls(monkeypatch):
    """Counts the input validations (``as_point`` calls) a call makes."""
    calls = []
    real = core.as_point

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (core, isometry, geodesy):
        if hasattr(mod, "as_point"):
            monkeypatch.setattr(mod, "as_point", counted)
    return calls


class TestValidateOnce:
    # a public function validates its inputs once and then runs private
    # cores (these counts were 20 per fit, 9 per compose and 3 per apply)
    def test_fit(self, as_point_calls):
        rng = np.random.default_rng(40)
        src = rng.uniform(-2.0, 2.0, (6, 3))
        tgt = isometry_apply(random_isometry(rng, 3), src)
        as_point_calls.clear()
        fit_isometry(src, tgt)
        assert len(as_point_calls) <= 3

    def test_compose(self, as_point_calls):
        rng = np.random.default_rng(41)
        g, h = random_isometry(rng, 4), random_isometry(rng, 4)
        as_point_calls.clear()
        isometry_compose(g, h)
        assert len(as_point_calls) <= 1

    @pytest.mark.parametrize("n", [1, 2 * APPLY_BLOCK])
    def test_apply(self, as_point_calls, n):
        rng = np.random.default_rng(42)
        g = random_isometry(rng, 2)
        x = rng.uniform(-2.0, 2.0, (n, 2))
        as_point_calls.clear()
        isometry_apply(g, x)
        assert len(as_point_calls) == 1

    def test_is_right_angle(self, as_point_calls):
        # measured from the angle's stored directions (was 12 calls)
        angle = geodesy.Angle(np.array([0.5, -1.0]), [1.0, 0.0], [0.0, 1.0])
        as_point_calls.clear()
        assert geodesy.is_right_angle(angle)
        assert len(as_point_calls) == 0

    def test_segment_contains(self, as_point_calls):
        # one check per point (was 6 calls)
        a, b = np.array([0.5, -1.0]), np.array([2.0, 1.0])
        as_point_calls.clear()
        assert geodesy.segment_contains(a, b, a)
        assert len(as_point_calls) == 3

    def test_metrically_collinear(self, as_point_calls, monkeypatch):
        # one check per point and one distance per pair (were 9 and 9)
        distances = []
        real = geodesy._distance

        def counted(x, y):
            distances.append(1)
            return real(x, y)

        monkeypatch.setattr(geodesy, "_distance", counted)
        as_point_calls.clear()
        assert not geodesy.metrically_collinear(np.zeros(2), [1.0, 0.0], [0.0, 1.0])
        assert len(as_point_calls) == 3
        assert len(distances) == 3
