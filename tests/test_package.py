"""Package-level contracts: the public names, and no numpy warning escapes."""

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
    "proj_point", "proj_points_equal", "projective_counterexample",
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
        assert len(EARLIER_NAMES) == 59
        assert set(hgeom.__all__) - EARLIER_NAMES == {"UNIT", "RAY", "BUILTIN_GAUGES"}
        assert EARLIER_NAMES <= set(hgeom.__all__)


# each call emitted a RuntimeWarning on finite input before it raised or
# returned; the expectation is the error class or a check on the result
OVERFLOWING_CALLS = {
    "poincare_inverse": (([1e200, 0.0],), DomainError),
    "sphere_distance": (([1e200, 0.0], [1.0, 0.0]), DomainError),
    "projective_distance": (([1e200, 0.0], [1.0, 0.0]), DomainError),
    "points_equal": (([1e308], [-1e308]), lambda out: out is False),
    "Isometry": (([0.0, 0.0], [[1e200, 0.0], [0.0, 1.0]]), GeometryError),
    "parallel_family": (
        ([1e200, 0.0], [0.0, 1e200], 2.0),
        lambda g: np.allclose(g.z, np.array([2.0, 1.0]) / math.sqrt(5.0), atol=1e-15),
    ),
    "sphere_fit_rotation": (([[1e200, 0.0]], [[1.0, 0.0]]), DomainError),
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
