"""Points and the four base metrics.

A point of n-dimensional hyperbolic space is just a vector in R^n; its
distance to another point is

    d_h(x, y) = arcosh( [x][y] - <x, y> ),      [x] = sqrt(1 + |x|^2).

Alongside d_h this module provides the plain Euclidean distance, the
great-circle metric on the unit sphere (normalized to diameter 1), and the
projective metric on antipodal classes of unit vectors.

All functions broadcast: coordinates live on the last axis, leading axes are
batch axes.  Scalars come back as plain floats when the inputs were single
points.
"""

from __future__ import annotations

import numpy as np

from . import _dd
from .errors import DegenerateInputError, DimensionError, DomainError, GeometryError

__all__ = [
    "DEFAULT_TOL",
    "as_point",
    "bracket",
    "hyperbolic_distance",
    "euclidean_distance",
    "sphere_point",
    "sphere_distance",
    "proj_point",
    "projective_distance",
    "proj_points_equal",
    "points_equal",
    "hyperboloid_embed",
    "poincare_coords",
    "poincare_inverse",
]

# Default equality tolerance: absolute 1e-9 plus relative 1e-9.
DEFAULT_TOL = 1e-9


# Public functions whose arithmetic can overflow run under this error state,
# so the DomainError their require_finite checks raise is not preceded by
# numpy's RuntimeWarnings.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


def _reals(x, name):
    # x as a float array; DomainError for complex or non-numeric entries
    try:
        arr = np.asarray(x)
        if arr.dtype.kind == "c":
            raise TypeError("complex values")
        return arr.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must hold real numbers ({exc})") from None


def as_point(x, name="point"):
    """Coerce ``x`` to a float coordinate array and validate it.

    Accepts any array-like of real numbers with at least one coordinate on
    the last axis; rejects complex, non-numeric, NaN and infinite entries.
    """
    arr = _reals(x, name)
    if arr.ndim == 0 or arr.shape[-1] < 1:
        raise DimensionError(f"{name} must have at least one coordinate")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} has non-finite coordinates")
    return arr


def _real(v, name):
    # one finite real number, such as a radius
    v = _reals(v, name)
    if v.ndim or not np.isfinite(v):
        raise DomainError(f"{name} must be a finite real number")
    return float(v)


def _vector(v, name):
    # one validated coordinate vector, as a read-only copy
    v = np.array(as_point(v, name))
    if v.ndim != 1:
        raise DimensionError(f"{name} must be a single vector")
    v.setflags(write=False)
    return v


def _point_lists(source, target):
    # equal-length, equal-dimension lists of at least one point each
    src = np.atleast_2d(as_point(source, "source"))
    tgt = np.atleast_2d(as_point(target, "target"))
    if src.ndim > 2 or tgt.ndim > 2:
        raise DimensionError("source and target must be lists of points")
    if src.shape[0] != tgt.shape[0]:
        raise DimensionError("source and target lists have different lengths")
    if src.shape[0] < 1:
        raise GeometryError("need at least one sample point")
    if src.shape[1] != tgt.shape[1]:
        raise DimensionError("source and target dimensions differ")
    return src, tgt


def _pair(x, y, names=("x", "y")):
    x = as_point(x, names[0])
    y = as_point(y, names[1])
    if x.shape[-1] != y.shape[-1]:
        raise DimensionError(
            f"dimension mismatch: {names[0]} has {x.shape[-1]} coordinates, "
            f"{names[1]} has {y.shape[-1]}"
        )
    return x, y


def _scalarize(v):
    return float(v) if np.ndim(v) == 0 else v


def require_finite(v, what):
    """Return ``v``, or raise DomainError if it overflowed to inf or NaN.

    Finite coordinates overflow once a squared norm passes the double range
    (|x| of about 1.34e154) or a result does; raising keeps that from
    surfacing as NaN, inf or a wrong number.
    """
    if not np.isfinite(v).all():
        raise DomainError(
            f"{what} overflows double precision (squared norms must stay "
            f"below ~1.8e308, i.e. |x| below ~1.3e154)"
        )
    return v


def _scaled(v):
    # (w, e) with w = v / 2**e exactly, where 2**e is the power of two just
    # above max|v| over the last axis (e = 0 for v = 0): the squares of w
    # cannot overflow, so norms of w are safe
    e = np.frexp(np.max(np.abs(v), axis=-1, keepdims=True))[1]
    return np.ldexp(v, -e), e


def _bracket(x):
    # [x] of validated coordinates; inf once |x|^2 overflows
    return np.hypot(1.0, np.linalg.norm(x, axis=-1))


@_quiet_overflow
def bracket(x):
    """[x] = sqrt(1 + |x|^2), the time coordinate of the hyperboloid lift.

    Always >= 1.  Raises DomainError once |x|^2 overflows (|x| of about
    1.34e154).
    """
    x = as_point(x)
    return _scalarize(require_finite(_bracket(x), "[x]"))


def _distance(x, y):
    # hyperbolic distance of validated coordinates
    s = require_finite(_dd.minkowski_excess(x, y), "[x][y] - <x,y>")
    return 2.0 * np.arcsinh(np.sqrt(0.5 * s))


@_quiet_overflow
def hyperbolic_distance(x, y):
    """Hyperbolic distance arcosh([x][y] - <x,y>) between coordinate vectors.

    Evaluated in the cancellation-free form ``2*asinh(sqrt(s/2))`` where
    ``s = [x][y] - <x,y> - 1`` is computed with compensated arithmetic, which
    keeps full relative accuracy for nearby points; far points (|x| around
    1e6 and beyond) that are nearly radially aligned still lose it.
    Symmetric to the bit, and exactly 0 for bit-equal inputs.  Raises
    DomainError when a squared norm or ``[x][y] - <x,y>`` overflows.
    """
    return _scalarize(_distance(*_pair(x, y)))


@_quiet_overflow
def euclidean_distance(x, y):
    """Plain Euclidean distance |x - y|.

    The norm is taken of x - y rescaled by a power of two, so it overflows
    only with x - y itself (or with |x - y| beyond ~1.8e308); then DomainError.
    """
    x, y = _pair(x, y)
    w, e = _scaled(x - y)
    d = np.ldexp(np.linalg.norm(w, axis=-1), e[..., 0])
    if not np.isfinite(d).all():
        raise DomainError("|x - y| overflows double precision")
    return _scalarize(d)


def sphere_point(v):
    """Normalize ``v`` onto the unit sphere of its ambient space."""
    w = _scaled(as_point(v, "sphere point"))[0]
    n = np.linalg.norm(w, axis=-1, keepdims=True)
    if np.any(n == 0.0):
        raise DegenerateInputError("cannot normalize the zero vector")
    return w / n


def _check_unit(x, name, tol=1e-6):
    n = np.linalg.norm(x, axis=-1)
    if np.any(np.abs(n - 1.0) > tol):
        raise DomainError(f"{name} is not a unit vector (|{name}| = {n!r})")


@_quiet_overflow
def sphere_distance(x, y):
    """Great-circle distance (1/pi) * arccos(<x, y>) between unit vectors.

    Normalized so the sphere has diameter 1; antipodal pairs are at distance
    exactly 1.  Uses the atan2 chord form, which is stable at both ends of
    the range (coincident and antipodal pairs give exact 0 and 1).
    """
    x, y = _pair(x, y)
    _check_unit(x, "x")
    _check_unit(y, "y")
    theta = 2.0 * np.arctan2(
        np.linalg.norm(x - y, axis=-1), np.linalg.norm(x + y, axis=-1)
    )
    return _scalarize(theta / np.pi)


def proj_point(v):
    """A representative of the antipodal class {v, -v}, normalized to unit
    length.  Both representatives denote the same projective point; every
    projective operation here is invariant under the sign choice."""
    return sphere_point(v)


@_quiet_overflow
def projective_distance(u, v):
    """Projective distance (2/pi) * arccos(|<u, v>|) between antipodal classes.

    Independent of the chosen representatives; reps u and -u are at distance
    exactly 0.
    """
    u, v = _pair(u, v)
    _check_unit(u, "u")
    _check_unit(v, "v")
    dm = np.linalg.norm(u - v, axis=-1)
    dp = np.linalg.norm(u + v, axis=-1)
    theta = 2.0 * np.arctan2(np.minimum(dm, dp), np.maximum(dm, dp))
    return _scalarize(2.0 * theta / np.pi)


@_quiet_overflow
def points_equal(x, y, tol=DEFAULT_TOL):
    """Coordinate-wise equality within absolute + relative ``tol``."""
    x, y = _pair(x, y)
    close = np.abs(x - y) <= tol + tol * np.maximum(np.abs(x), np.abs(y))
    out = np.all(close, axis=-1)
    return bool(out) if np.ndim(out) == 0 else out


def proj_points_equal(u, v, tol=DEFAULT_TOL):
    """Equality of antipodal classes: representatives agree up to sign."""
    return points_equal(u, v, tol) | points_equal(u, -np.asarray(v, float), tol)


@_quiet_overflow
def hyperboloid_embed(x):
    """Lift x to ([x], x), the hyperboloid sheet where [x]^2 - |x|^2 = 1."""
    x = as_point(x)
    b = np.asarray(require_finite(_bracket(x), "[x]"))
    return np.concatenate([b[..., None], x], axis=-1)


@_quiet_overflow
def poincare_coords(x):
    """Poincare-ball coordinates x / (1 + [x]); the image has norm < 1."""
    x = as_point(x)
    b = np.asarray(require_finite(_bracket(x), "[x]"))
    return x / (1.0 + b[..., None])


@_quiet_overflow
def poincare_inverse(p):
    """Inverse of :func:`poincare_coords`: p -> 2p / (1 - |p|^2)."""
    p = as_point(p, "poincare point")
    n2 = np.sum(p * p, axis=-1, keepdims=True)
    if np.any(n2 >= 1.0):
        raise DomainError("poincare coordinates must have norm < 1")
    return 2.0 * p / (1.0 - n2)
