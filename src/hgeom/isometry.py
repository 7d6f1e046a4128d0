"""Hyperbolic translations, full isometries, and isometry fitting.

Every isometry of the space decomposes uniquely as x -> T_a(U x) with a
translation parameter ``a`` and an orthogonal matrix ``U``, where

    T_y(x) = x + ([x] + <x, y> / ([y] + 1)) y

is the translation moving the origin to y.  ``fit_isometry`` turns absolute
homogeneity into an algorithm: any finite distance-preserving correspondence
extends to a global isometry, built here by translating base points to the
origin, matching Gram data, and completing the orthogonal part canonically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gram
from .core import as_point, bracket, hyperbolic_distance
from .errors import (
    DimensionError,
    DomainError,
    GeometryError,
    PartialIsometryError,
)

__all__ = [
    "Isometry",
    "FitResult",
    "translation_apply",
    "translation_isometry",
    "identity_isometry",
    "isometry_apply",
    "isometry_compose",
    "isometry_invert",
    "fit_isometry",
    "dilation_residual",
]

# Orthogonality drift allowed in a stored matrix, entrywise.
ORTHO_TOL = 1e-9

# Pairwise-distance discrepancy accepted by fit_isometry, scaled as
# tol * (1 + distance).
FIT_DISTANCE_TOL = 1e-6


def translation_apply(y, x):
    """Apply the translation T_y to x (both broadcast over leading axes).

    Satisfies the bracket law [T_y(x)] = [x][y] + <x, y> and is an exact
    isometry of the hyperbolic distance; T_{-y} is its two-sided inverse.
    """
    y = as_point(y, "translation parameter")
    x = as_point(x)
    if x.shape[-1] != y.shape[-1]:
        raise DimensionError("translation parameter and point dimensions differ")
    coeff = bracket(x) + np.sum(x * y, axis=-1) / (bracket(y) + 1.0)
    return x + np.asarray(coeff)[..., None] * y


@dataclass(frozen=True)
class Isometry:
    """A hyperbolic isometry x -> T_a(U x) in decomposed form.

    ``a`` is the translation part (the image of the origin) and ``U`` the
    orthogonal part.  Both are validated and frozen at construction.
    """

    a: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        a = as_point(self.a, "translation part").copy()
        u = np.array(self.U, dtype=float)
        n = a.shape[-1]
        if a.ndim != 1:
            raise DimensionError("translation part must be a single vector")
        if u.shape != (n, n):
            raise DimensionError(f"orthogonal part must be {n}x{n}, got {u.shape}")
        if not np.all(np.isfinite(u)):
            raise GeometryError("orthogonal part has non-finite entries")
        drift = np.max(np.abs(u.T @ u - np.eye(n)))
        if drift > ORTHO_TOL:
            raise GeometryError(
                f"matrix is not orthogonal (max |U'U - I| = {drift:.3e})"
            )
        a.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "U", u)

    @property
    def dim(self):
        return self.a.shape[-1]


def identity_isometry(dim):
    """The identity map of the dim-dimensional space."""
    return Isometry(np.zeros(dim), np.eye(dim))


def translation_isometry(y):
    """The translation T_y viewed as a full isometry (a = y, U = I)."""
    y = as_point(y, "translation parameter")
    return Isometry(y, np.eye(y.shape[-1]))


def isometry_apply(g, x):
    """Apply g to a point or a batch of points."""
    x = as_point(x)
    if x.shape[-1] != g.dim:
        raise DimensionError("point dimension does not match the isometry")
    return translation_apply(g.a, x @ g.U.T)


def _decompose_action(action, dim):
    """Recover the (a, U) form of an isometric map given as a callable.

    ``a`` is the image of the origin; the columns of U are the images of the
    standard basis pulled back by T_{-a}, re-orthogonalized by a polar
    projection to shed rounding drift.
    """
    pts = np.vstack([np.zeros(dim), np.eye(dim)])
    images = action(pts)
    a = images[0]
    cols = translation_apply(-a, images[1:])
    return Isometry(a, gram.polar_orthogonalize(cols.T))


def isometry_compose(g, h):
    """The isometry acting as x -> g(h(x)), in decomposed form.

    Recovered by fitting on the origin plus the standard basis; the
    decomposition of the composite is unique, so this is well defined.
    """
    if g.dim != h.dim:
        raise DimensionError("cannot compose isometries of different dimensions")
    pts = np.vstack([np.zeros(g.dim), np.eye(g.dim)])
    return fit_isometry(pts, isometry_apply(g, isometry_apply(h, pts))).isometry


def isometry_invert(g):
    """The inverse isometry: (T_a U)^{-1} = T_{U'(-a)} U'."""
    ut = g.U.T
    return Isometry(-(ut @ g.a), ut)


@dataclass(frozen=True)
class FitResult:
    """Outcome of :func:`fit_isometry`.

    ``unique`` reports whether the sample points pinned the isometry down
    (they span the whole space after translation); the extension always
    exists either way.  ``max_residual`` is the largest hyperbolic distance
    between a mapped source point and its target.
    """

    isometry: Isometry
    unique: bool
    max_residual: float


def fit_isometry(source, target, tol=FIT_DISTANCE_TOL):
    """Extend the correspondence source[i] -> target[i] to a global isometry.

    The input must be a partial isometry: all pairwise hyperbolic distances
    on the source must match those on the target within ``tol * (1 + d)``.
    The first source/target points are translated to the origin, an
    orthogonal map between the remaining translated points is built
    (completed canonically on the orthogonal complement), and the whole map
    is conjugated back and returned in (a, U) form.

    Raises :class:`PartialIsometryError` when the distance hypothesis fails,
    with the offending index pair attached, and when the fitted map misses
    a target by more than ``tol * (1 + D)``, D the largest source distance.
    """
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
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"fit tolerance must be finite and >= 0, got {tol!r}")
    dim = src.shape[1]

    ds = hyperbolic_distance(src[:, None, :], src[None, :, :])
    dt = hyperbolic_distance(tgt[:, None, :], tgt[None, :, :])
    gap = np.abs(ds - dt) - tol * (1.0 + ds)
    if np.any(gap > 0.0):
        i, j = np.unravel_index(np.argmax(gap), gap.shape)
        raise PartialIsometryError(
            f"pair ({i}, {j}): source distance {float(ds[i, j])!r} vs "
            f"target distance {float(dt[i, j])!r}",
            pair=(int(i), int(j)),
        )

    p0, q0 = src[0], tgt[0]
    b = translation_apply(-p0, src[1:])
    c = translation_apply(-q0, tgt[1:])
    try:
        u, rank = gram.orthogonal_map(b, c)
    except GeometryError as exc:
        raise PartialIsometryError(str(exc)) from exc

    def action(pts):
        return translation_apply(q0, translation_apply(-p0, pts) @ u.T)

    iso = _decompose_action(action, dim)
    residual = float(np.max(hyperbolic_distance(isometry_apply(iso, src), tgt)))
    bound = tol * (1.0 + float(np.max(ds)))
    if not residual <= bound:
        raise PartialIsometryError(
            f"fit misses a target by {residual!r} (contract {bound!r})"
        )
    return FitResult(isometry=iso, unique=(rank == dim), max_residual=residual)


def dilation_residual(c, t):
    """|cosh(c*arcosh(t^2)) - cosh(c*arcosh(t))^2| for c > 0, t >= 1.

    A map scaling all distances by c sends the relation between a point, its
    negative, and an orthogonal pair at the same radius to the analogous
    relation scaled by c; that forces this residual to vanish for every t.
    It is identically 0 only for c = 1, which is why every dilation of the
    space (in dimension > 1) is an isometry.
    """
    c = float(c)
    t = float(t)
    if not c > 0.0:
        raise DomainError(f"dilation constant must be positive, got {c!r}")
    if t < 1.0 - 1e-9:
        raise DomainError(f"residual argument must be >= 1, got {t!r}")
    t = max(t, 1.0)
    lhs = math.cosh(c * math.acosh(t * t))
    rhs = math.cosh(c * math.acosh(t)) ** 2
    return abs(lhs - rhs)
