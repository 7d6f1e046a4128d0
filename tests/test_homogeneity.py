"""Gauges, snowflaked metrics, normalization, and the projective obstruction."""

import math

import numpy as np
import pytest

from hgeom import (
    DegenerateInputError,
    DimensionError,
    DomainError,
    OmegaGauge,
    OmegaReport,
    OmegaViolation,
    PartialIsometryError,
    builtin_gauge,
    geodesic_point,
    hyperbolic_distance,
    normalize_euclidean_gauge,
    omega_validate,
    projective_counterexample,
    projective_distance,
    snowflake_distance,
    sphere_fit_rotation,
    table_gauge,
)

from hgeom.homogeneity import RAY_SAMPLING_CAP

from util import random_unit

SQRT2_OVER_4 = 0.35355339059327376


class TestOmegaValidate:
    @pytest.mark.parametrize("name", ["identity", "sqrt", "saturating"])
    def test_good_gauges_pass(self, name):
        report = omega_validate(builtin_gauge(name), grid_size=150)
        assert report.passed and report.violation is None

    @pytest.mark.parametrize("name", ["identity", "sqrt", "saturating"])
    def test_good_gauges_pass_unit_domain(self, name):
        report = omega_validate(builtin_gauge(name, domain="unit"), grid_size=150)
        assert report.passed

    def test_square_fails_subadditivity(self):
        report = omega_validate(builtin_gauge("square"), grid_size=150)
        assert not report.passed
        v = report.violation
        assert v.condition == "subadditive"
        assert v.lhs > v.rhs
        # hand witness: (1, 1) -> 4 > 2
        sq = builtin_gauge("square")
        assert float(sq(2.0)) == 4.0 > float(sq(1.0)) + float(sq(1.0))

    def test_nonzero_at_zero_reported(self):
        from hgeom import OmegaGauge

        bad = OmegaGauge(lambda t: np.asarray(t, dtype=float) + 1.0, "ray", math.inf)
        report = omega_validate(bad, grid_size=50)
        assert not report.passed and report.violation.condition == "zero"

    def test_decreasing_reported(self):
        from hgeom import OmegaGauge

        bad = OmegaGauge(lambda t: -np.asarray(t, dtype=float), "ray", math.inf)
        report = omega_validate(bad, grid_size=50)
        assert not report.passed and report.violation.condition == "increasing"

    def test_grid_size_gate(self):
        # 2.5 and "200" raised TypeError, 10**400 OverflowError; counts above
        # 2**31 - 1 are rejected before anything is allocated
        for bad in (1, 0, -3, np.int64(1), 2.5, np.float64(200.0), "200", None,
                    2**31, 10**30, 10**400):
            with pytest.raises(DomainError):
                omega_validate(builtin_gauge("identity"), grid_size=bad)

    # True read as a count of 1 ("must be at least 2, got 1")
    @pytest.mark.parametrize("flag", [True, False])
    def test_grid_size_bool_rejected(self, flag):
        with pytest.raises(DomainError, match="integer"):
            omega_validate(builtin_gauge("identity"), grid_size=flag)

    # a list raised TypeError: unhashable type
    @pytest.mark.parametrize("name", [["sqrt"], None, 3, "nope"])
    def test_bad_gauge_name_rejected(self, name):
        with pytest.raises(DomainError):
            builtin_gauge(name)

    def test_table_gauge(self):
        g = table_gauge([0.0, 0.5, 1.0], [0.0, 0.4, 0.6])
        assert g.domain == "unit"
        assert omega_validate(g, grid_size=100).passed

    def test_bad_tables_rejected(self):
        with pytest.raises(DomainError):
            table_gauge([0.5, 1.0], [0.0, 1.0])
        with pytest.raises(DomainError):
            table_gauge([0.0, 1.0, 0.5], [0.0, 0.5, 1.0])
        # a NaN knot passed the monotonicity check and was accepted
        for xs, ys in [([0.0, np.nan], [0.0, 1.0]), ([0.0, 1.0], [0.0, np.nan]),
                       ([0.0, 1.0, np.inf], [0.0, 0.5, 1.0]),
                       ([0.0, 1.0], [0.0, np.inf]), ([0.0, 1.0j], [0.0, 1.0]),
                       ([0.0, "x"], [0.0, 1.0])]:
            with pytest.raises(DomainError):
                table_gauge(xs, ys)


def scalar_omega_reference(gauge, grid_size):
    """omega_validate as a row-by-row scan with one scalar gauge call per
    value: the reference the vectorized check must reproduce exactly."""
    if gauge.domain == "unit":
        grid = np.linspace(0.0, 1.0, grid_size)
        top = 1.0 + 1e-12
    else:
        grid = np.concatenate(
            [[0.0], np.geomspace(1e-4, RAY_SAMPLING_CAP, grid_size - 1)]
        )
        top = math.inf
    vals = [float(gauge.fn(float(t))) for t in grid]

    def fail(*violation):
        return OmegaReport(False, OmegaViolation(*violation), gauge.domain, grid_size)

    if abs(vals[0]) > 1e-12:
        return fail("zero", 0.0, None, vals[0], 0.0)
    for i in range(grid_size - 1):
        if not vals[i] < vals[i + 1]:
            return fail("increasing", grid[i], grid[i + 1], vals[i], vals[i + 1])
    for i in range(grid_size):
        for j in range(i, grid_size):
            s = grid[i] + grid[j]
            if s > top:
                break
            lhs = float(gauge.fn(float(s)))
            rhs = vals[i] + vals[j]
            if lhs > rhs + 1e-12 * (1.0 + abs(rhs)):
                return fail("subadditive", grid[i], grid[j], lhs, rhs)
    return OmegaReport(True, None, gauge.domain, grid_size)


def _arr(t):
    return np.asarray(t, dtype=float)


REFERENCE_GAUGES = {
    **{f"{name}-{domain}": builtin_gauge(name, domain=domain)
       for name in ("identity", "sqrt", "square", "saturating")
       for domain in ("ray", "unit")},
    "offset": OmegaGauge(lambda t: _arr(t) + 1.0, "ray", math.inf),
    "decreasing": OmegaGauge(lambda t: -_arr(t), "ray", math.inf),
    # strictly increasing up to 30, constant from there on
    "plateau": OmegaGauge(lambda t: np.minimum(np.sqrt(_arr(t)), math.sqrt(30.0)),
                          "ray", math.sqrt(30.0)),
    "concave-table": table_gauge([0.0, 2.0, 10.0, 60.0], [0.0, 3.0, 7.0, 12.0]),
    # concave up to 20, then steep: subadditivity first fails deep in a row
    "kinked-table": table_gauge([0.0, 10.0, 20.0, 100.0], [0.0, 5.0, 8.0, 100.0]),
    # steep start: subadditivity first fails in row 145 of the 200-point grid
    "late-kink-table": table_gauge([0.0, 1.0, 30.0, 200.0], [0.0, 10.0, 39.0, 889.0]),
    "unit-table": table_gauge([0.0, 0.5, 1.0], [0.0, 0.4, 0.6]),
    "convex-unit-table": table_gauge([0.0, 0.5, 1.0], [0.0, 0.2, 1.0]),
}


class TestOmegaValidateReference:
    @pytest.mark.parametrize("grid_size", [2, 50, 200])
    @pytest.mark.parametrize("name", sorted(REFERENCE_GAUGES))
    def test_matches_scalar_loop(self, name, grid_size):
        gauge = REFERENCE_GAUGES[name]
        assert omega_validate(gauge, grid_size) == scalar_omega_reference(
            gauge, grid_size
        )

    def test_reference_covers_every_verdict(self):
        conditions = {
            None if r.violation is None else r.violation.condition
            for r in (scalar_omega_reference(g, 200) for g in REFERENCE_GAUGES.values())
        }
        assert conditions == {None, "zero", "increasing", "subadditive"}


class TestSnowflake:
    def test_identity_gauge_is_base_metric(self):
        rng = np.random.default_rng(0)
        w = builtin_gauge("identity")
        x, y = rng.uniform(-5, 5, (2, 3))
        assert snowflake_distance(w, "hyperbolic", x, y) == pytest.approx(
            hyperbolic_distance(x, y), abs=1e-15
        )

    def test_sqrt_triangle_on_hyperbolic(self):
        rng = np.random.default_rng(1)
        w = builtin_gauge("sqrt")
        x, y, z = rng.uniform(-10, 10, (3, 10_000, 3))
        dxy = snowflake_distance(w, "hyperbolic", x, y)
        dyz = snowflake_distance(w, "hyperbolic", y, z)
        dxz = snowflake_distance(w, "hyperbolic", x, z)
        assert np.min(dxy + dyz - dxz) >= -1e-12

    def test_square_gauge_breaks_triangle(self):
        w = builtin_gauge("square")
        a, b, c = np.array([0.0]), np.array([1.0]), np.array([2.0])
        d_ac = snowflake_distance(w, "euclidean", a, c)
        d_ab = snowflake_distance(w, "euclidean", a, b)
        d_bc = snowflake_distance(w, "euclidean", b, c)
        assert d_ac == 4.0 > d_ab + d_bc == 2.0

    def test_domain_mismatch_rejected(self):
        u = random_unit(np.random.default_rng(2), 3)
        v = random_unit(np.random.default_rng(3), 3)
        with pytest.raises(DomainError):
            snowflake_distance(builtin_gauge("sqrt"), "sphere", u, v)
        with pytest.raises(DomainError):
            snowflake_distance(builtin_gauge("sqrt", domain="unit"), "euclidean", u, v)

    def test_unknown_base_rejected(self):
        # a list or a dict raised TypeError: unhashable type
        for base in ("taxicab", ["hyperbolic"], {"hyperbolic": 1}):
            with pytest.raises(DomainError):
                snowflake_distance(builtin_gauge("sqrt"), base, [0.0], [1.0])

    def test_midpoint_defect_of_nonlinear_gauges(self):
        # snowflaked metrics lose geodesicity unless the gauge is linear: no
        # point on the line achieves both halves of the snowflaked distance
        from hgeom import line_through

        rng = np.random.default_rng(4)
        a, b = rng.uniform(-3, 3, (2, 2))
        d = hyperbolic_distance(a, b)
        seg = line_through(a, b)
        ts = np.linspace(0.0, d, 400)
        pts = geodesic_point(seg, ts)
        for name in ("sqrt", "saturating"):
            w = builtin_gauge(name)
            goal = 0.5 * snowflake_distance(w, "hyperbolic", a, b)
            da = snowflake_distance(w, "hyperbolic", a, pts)
            db = snowflake_distance(w, "hyperbolic", pts, b)
            defect = np.maximum(np.abs(da - goal), np.abs(db - goal))
            assert np.min(defect) > 1e-6
        w = builtin_gauge("identity")
        mid = geodesic_point(seg, 0.5 * d)
        goal = 0.5 * snowflake_distance(w, "hyperbolic", a, b)
        assert snowflake_distance(w, "hyperbolic", a, mid) == pytest.approx(
            goal, abs=1e-9
        )
        assert snowflake_distance(w, "hyperbolic", mid, b) == pytest.approx(
            goal, abs=1e-9
        )


class TestNormalizeEuclideanGauge:
    def test_identity_gauge(self):
        w, alpha = normalize_euclidean_gauge(builtin_gauge("identity"))
        assert alpha == pytest.approx(1.0, abs=1e-9)
        assert float(w(1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_doubled_gauge(self):
        from hgeom import OmegaGauge

        double = OmegaGauge(lambda t: 2.0 * np.asarray(t, dtype=float), "ray", math.inf)
        w, alpha = normalize_euclidean_gauge(double)
        assert alpha == pytest.approx(0.5, abs=1e-9)
        assert float(w(1.0)) == pytest.approx(1.0, abs=1e-9)
        # the rescaled gauge is the identity
        for t in (0.2, 1.7, 9.0):
            assert float(w(t)) == pytest.approx(t, abs=1e-8)

    def test_saturating_gauge(self):
        w, alpha = normalize_euclidean_gauge(builtin_gauge("saturating"))
        assert alpha == pytest.approx(1.0, abs=1e-8)
        assert float(w(1.0)) == pytest.approx(0.5, abs=1e-9)

    def test_normalized_gauge_still_valid(self):
        for name in ("identity", "sqrt", "saturating"):
            w, _ = normalize_euclidean_gauge(builtin_gauge(name))
            assert omega_validate(w, grid_size=100).passed

    def test_unit_gauge_rejected(self):
        with pytest.raises(DomainError):
            normalize_euclidean_gauge(builtin_gauge("sqrt", domain="unit"))


class TestProjectiveCounterexample:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_verified_in_all_dimensions(self, n):
        rec = projective_counterexample(n)
        assert rec.verified
        assert rec.x.shape == (n + 1,)

    def test_inner_product_identities(self):
        rec = projective_counterexample(2)
        assert float(rec.x @ rec.z1) == pytest.approx(0.25, abs=1e-15)
        assert float(rec.x @ rec.z2) == pytest.approx(0.25, abs=1e-15)
        assert float(rec.y @ rec.z1) == pytest.approx(SQRT2_OVER_4, abs=1e-15)
        assert float(rec.y @ rec.z2) == pytest.approx(-SQRT2_OVER_4, abs=1e-15)

    def test_points_are_unit(self):
        rec = projective_counterexample(3)
        for v in (rec.x, rec.y, rec.z1, rec.z2):
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_equal_projective_distances(self):
        rec = projective_counterexample(2)
        for w in (rec.x, rec.y):
            assert projective_distance(w, rec.z1) == pytest.approx(
                projective_distance(w, rec.z2), abs=1e-12
            )

    def test_gram_margin(self):
        assert projective_counterexample(2).gram_margin >= 0.1

    def test_low_dimension_rejected(self):
        from hgeom import DimensionError

        with pytest.raises(DimensionError):
            projective_counterexample(1)
        with pytest.raises(DimensionError):
            projective_counterexample(np.int64(0))
        # raised TypeError; 10**30 raised numpy's ValueError from np.zeros
        for bad in (2.5, np.float64(3.0), "3", None, 2**31, 10**30, 10**400):
            with pytest.raises(DomainError):
                projective_counterexample(bad)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_dimension_rejected(self, flag):
        # True was the count 1 and raised DimensionError
        with pytest.raises(DomainError, match="integer"):
            projective_counterexample(flag)


class TestSphereFitRotation:
    def test_identity_case(self):
        rng = np.random.default_rng(5)
        pts = random_unit(rng, 4, (3,))
        u = sphere_fit_rotation(pts, pts)
        assert u is not None
        assert np.allclose(u @ u.T, np.eye(4), atol=1e-12)
        assert np.max(np.abs(pts @ u.T - pts)) < 1e-9

    def test_two_point_homogeneity_witness(self):
        # pairs with equal inner products are matched by a rotation
        rng = np.random.default_rng(6)
        u1, v1 = random_unit(rng, 3), random_unit(rng, 3)
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        u2, v2 = u1 @ q.T, v1 @ q.T
        rot = sphere_fit_rotation([u1, v1], [u2, v2])
        assert rot is not None
        assert np.max(np.abs(rot @ u1 - u2)) < 1e-9
        assert np.max(np.abs(rot @ v1 - v2)) < 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_points(self, bad):
        pts = np.eye(3)
        broken = pts.copy()
        broken[1, 2] = bad
        with pytest.raises(DomainError):
            sphere_fit_rotation(broken, pts)
        with pytest.raises(DomainError):
            sphere_fit_rotation(pts, broken)

    def test_points_off_the_sphere_stand_for_their_directions(self):
        # raised DomainError: points had to be unit vectors within 1e-6
        quarter = [[0.0, -1.0], [1.0, 0.0]]
        assert np.array_equal(sphere_fit_rotation([[1e200, 0.0]], [[0.0, 1.0]]), quarter)
        assert np.array_equal(sphere_fit_rotation([[1.0, 0.0]], [[0.0, 3.0]]), quarter)
        # returned None (a Gram mismatch) before the fit raised
        with pytest.raises(PartialIsometryError) as err:
            sphere_fit_rotation([[1.0, 0.0], [0.0, 2.0]], [[3.0, 0.0], [1.0, 0.0]])
        assert err.value.pair == (0, 1)
        with pytest.raises(DegenerateInputError):
            sphere_fit_rotation([[1.0, 0.0]], [[0.0, 0.0]])

    def test_rejects_point_arrays_that_are_not_lists(self):
        # raised numpy's matmul ValueError
        pts = np.zeros((2, 2, 3))
        with pytest.raises(DimensionError):
            sphere_fit_rotation(pts, pts)

    def test_counterexample_triples_unmatchable(self):
        # each sign choice returned None before the fit raised
        rec = projective_counterexample(2)
        for e0 in (1.0, -1.0):
            for e1 in (1.0, -1.0):
                for e2 in (1.0, -1.0):
                    with pytest.raises(PartialIsometryError) as err:
                        sphere_fit_rotation(
                            [e0 * rec.x, e1 * rec.y, e2 * rec.z1],
                            [rec.x, rec.y, rec.z2],
                        )
                    assert err.value.pair is not None
