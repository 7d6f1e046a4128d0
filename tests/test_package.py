"""Package-level contracts: the public names, the numeric parameters, and no
numpy warning escapes."""

import inspect
import math

import numpy as np
import pytest

import hgeom
from hgeom import DomainError, GeometryError, core, errors, geodesy, homogeneity, isometry

MODULES = (core, errors, geodesy, homogeneity, isometry)

# the names the package exported when it listed them by hand
EARLIER_NAMES = {
    "Angle", "ConvergenceError", "DEFAULT_TOL", "DegenerateInputError",
    "DimensionError", "DomainError", "FitResult", "Geodesic", "GeometryError",
    "Isometry", "OmegaGauge", "OmegaReport", "OmegaViolation",
    "PartialIsometryError", "ProjectiveCounterexample", "__version__",
    "angle_measure", "as_point", "bracket", "builtin_gauge", "curve_min_gap",
    "dilation_residual", "euclidean_distance", "fit_isometry", "geodesic_point",
    "h1_embedding", "hyperbolic_distance", "hyperboloid_embed",
    "identity_isometry", "is_right_angle", "isometry_apply", "isometry_compose",
    "isometry_invert", "line_min_gap", "line_through", "line_two_vector_form",
    "metrically_collinear", "normalize_euclidean_gauge", "omega_validate",
    "parallel_family", "poincare_coords", "poincare_inverse", "points_equal",
    "proj_points_equal", "projective_counterexample",
    "projective_distance", "segment_contains", "snowflake_distance",
    "sphere_distance", "sphere_euclidean_radius", "sphere_fit_rotation",
    "sphere_point", "table_gauge", "translation_apply", "translation_isometry",
    "transport_angle", "two_vector_form_to_line", "two_vector_point",
}


class TestPublicNames:
    def test_no_duplicates(self):
        assert len(hgeom.__all__) == len(set(hgeom.__all__))

    def test_each_name_is_its_module_object(self):
        owners = {name: mod for mod in MODULES for name in mod.__all__}
        assert set(hgeom.__all__) == {"__version__", *owners}
        for name, mod in owners.items():
            assert getattr(hgeom, name) is getattr(mod, name)

    def test_earlier_names_kept(self):
        assert len(EARLIER_NAMES) == 58
        assert set(hgeom.__all__) - EARLIER_NAMES == {"UNIT", "RAY", "BUILTIN_GAUGES"}
        assert EARLIER_NAMES <= set(hgeom.__all__)


# these decide against fixed constants (DEFAULT_TOL and the like), not a
# caller's tolerance, span or iteration cap
FIXED_TOLERANCE_FUNCTIONS = (
    "points_equal", "proj_points_equal", "line_through", "segment_contains",
    "metrically_collinear", "is_right_angle", "line_two_vector_form",
    "curve_min_gap", "line_min_gap", "normalize_euclidean_gauge",
    "sphere_fit_rotation",
)


def test_tolerances_are_constants():
    for name in FIXED_TOLERANCE_FUNCTIONS:
        params = inspect.signature(getattr(hgeom, name)).parameters
        assert not {"tol", "span", "max_iter"} & set(params), name
    assert "tol" in inspect.signature(hgeom.fit_isometry).parameters


# the scalar parameters read as one finite real number; a bool was read as
# 1.0 or 0.0 (tol=True gated at 1.0 and returned a fit missing by 0.31)
REAL_PARAMETERS = {
    "fit_isometry.tol": lambda v: hgeom.fit_isometry(
        [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.5, 0.0]], tol=v),
    "dilation_residual.c": lambda v: hgeom.dilation_residual(v, 2.0),
    "dilation_residual.t": lambda v: hgeom.dilation_residual(2.0, v),
    "parallel_family.mu": lambda v: hgeom.parallel_family([1.0, 0.0], [0.0, 1.0], v),
    "sphere_euclidean_radius.r": hgeom.sphere_euclidean_radius,
}


@pytest.mark.parametrize("flag", [True, False, np.True_, np.array(False)],
                         ids=["True", "False", "np.True_", "np.array(False)"])
@pytest.mark.parametrize("name", REAL_PARAMETERS)
def test_bool_is_not_a_real_parameter(name, flag):
    with pytest.raises(DomainError, match="finite real number"):
        REAL_PARAMETERS[name](flag)


# coordinates and curve parameters hold real numbers, not booleans: each
# call read True as 1.0 (the distance was 0.881, the point the one at t = 1,
# the map the identity)
BOOLEAN_ARGUMENTS = {
    "hyperbolic_distance": lambda: hgeom.hyperbolic_distance([True, False], [0.0, 0.0]),
    "hyperbolic_distance.np": lambda: hgeom.hyperbolic_distance(np.array([True, False]),
                                                                [0.0, 0.0]),
    "geodesic_point": lambda: hgeom.geodesic_point(hgeom.Geodesic([0.0], [1.0]), True),
    "geodesic_point.np": lambda: hgeom.geodesic_point(hgeom.Geodesic([0.0], [1.0]),
                                                      np.array([True, False])),
    "h1_embedding": lambda: hgeom.h1_embedding(True),
    "h1_embedding.np": lambda: hgeom.h1_embedding(np.True_),
    "Isometry": lambda: hgeom.Isometry([0.0, 0.0], [[True, False], [False, True]]),
    "Isometry.np": lambda: hgeom.Isometry([0.0, 0.0], np.eye(2, dtype=bool)),
}


@pytest.mark.parametrize("name", BOOLEAN_ARGUMENTS)
def test_booleans_are_not_reals(name):
    with pytest.raises(DomainError, match="booleans"):
        BOOLEAN_ARGUMENTS[name]()


# each call emitted a RuntimeWarning on finite input before it raised or
# returned; the expectation is the error class or a check on the result
OVERFLOWING_CALLS = {
    "poincare_inverse": (([1e200, 0.0],), DomainError),
    "sphere_distance": (([1e200, 0.0], [1.0, 0.0]), lambda d: d == 0.0),
    "projective_distance": (([1e200, 0.0], [0.0, 1.0]), lambda d: d == 1.0),
    "points_equal": (([1e308], [-1e308]), lambda out: out is False),
    "Isometry": (([0.0, 0.0], [[1e200, 0.0], [0.0, 1.0]]), GeometryError),
    "parallel_family": (
        ([1e200, 0.0], [0.0, 1e200], 2.0),
        lambda g: np.allclose(g.z, np.array([2.0, 1.0]) / math.sqrt(5.0), atol=1e-15),
    ),
    "sphere_fit_rotation": (
        ([[1e200, 0.0]], [[0.0, 1.0]]),
        lambda u: np.array_equal(u, [[0.0, -1.0], [1.0, 0.0]]),
    ),
    # no warning before, but the scan's plain-double steering squares these
    # points: two curves {sinh t e2 + cosh t b} based at |b| = 1e160
    "curve_min_gap": (
        (lambda t: hgeom.two_vector_point([0.0, 1.0], [1e160, 0.0], t),
         lambda t: hgeom.two_vector_point([0.0, 1.0], [-1e160, 0.0], t)),
        DomainError,
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", OVERFLOWING_CALLS)
def test_overflow_without_warning(name):
    args, expected = OVERFLOWING_CALLS[name]
    call = getattr(hgeom, name)
    if isinstance(expected, type):
        with pytest.raises(expected):
            call(*args)
    else:
        assert expected(call(*args))
