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
from .core import (_bracket, _distance, _pair, _point_lists, _quiet_overflow, _real,
                   _reals, _vector, as_point, require_finite)
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

# Largest entry of |C'C - I| accepted by _decompose_action for the pulled-back
# basis images C before they are polar-projected.
DECOMPOSE_DRIFT_TOL = 1e-8

# Coordinates per block of a batched isometry_apply (256 KiB per temporary).
APPLY_BLOCK = 2**15


def _translate(y, x):
    # T_y(x) of validated coordinates
    bx, by = _bracket(x), _bracket(y)
    xy = np.sum(x * y, axis=-1)
    # [T_y(x)] bounds every coordinate of the image; it is inf or NaN when
    # |x|^2, |y|^2 or the image overflows
    require_finite(bx * by + xy, "[T_y(x)]")
    coeff = bx + xy / (by + 1.0)
    return x + np.asarray(coeff)[..., None] * y


@_quiet_overflow
def translation_apply(y, x):
    """Apply the translation T_y to x (both broadcast over leading axes).

    Satisfies the bracket law [T_y(x)] = [x][y] + <x, y> and is an exact
    isometry of the hyperbolic distance; T_{-y} is its two-sided inverse.
    Raises DomainError when a squared norm or the image overflows.
    """
    return _translate(*_pair(y, x, ("translation parameter", "point")))


@dataclass(frozen=True)
class Isometry:
    """A hyperbolic isometry x -> T_a(U x) in decomposed form.

    ``a`` is the translation part (the image of the origin) and ``U`` the
    orthogonal part.  Both are validated and frozen at construction.
    """

    a: np.ndarray
    U: np.ndarray

    @_quiet_overflow
    def __post_init__(self):
        a = _vector(self.a, "translation part")
        u = _reals(self.U, "orthogonal part").copy()
        n = a.shape[-1]
        if u.shape != (n, n):
            raise DimensionError(f"orthogonal part must be {n}x{n}, got {u.shape}")
        if not np.all(np.isfinite(u)):
            raise GeometryError("orthogonal part has non-finite entries")
        drift = np.max(np.abs(u.T @ u - np.eye(n)))
        if drift > ORTHO_TOL:
            raise GeometryError(
                f"matrix is not orthogonal (max |U'U - I| = {drift:.3e})"
            )
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


def _apply(g, x):
    # g(x) of validated coordinates, in blocks of rows
    rows = x.reshape(-1, g.dim)
    out = np.empty_like(rows)
    step = max(1, APPLY_BLOCK // g.dim)
    for i in range(0, len(rows), step):
        out[i:i + step] = _translate(g.a, rows[i:i + step] @ g.U.T)
    return out.reshape(x.shape)


@_quiet_overflow
def isometry_apply(g, x):
    """Apply g to a point or a batch of points.

    A batch is mapped in blocks of rows, so the rotated copy and the
    translation's temporaries hold about ``APPLY_BLOCK`` coordinates each
    instead of copies of the whole batch.
    """
    x = as_point(x)
    if x.shape[-1] != g.dim:
        raise DimensionError("point dimension does not match the isometry")
    return _apply(g, x)


def _decompose_action(action, dim):
    """Recover the (a, U) form of an isometric map given as a callable.

    ``a`` is the image of the origin; the columns of U are the images of the
    standard basis pulled back by T_{-a}, re-orthogonalized by a polar
    projection to shed rounding drift.  Raises DomainError when that drift,
    max |C'C - I| over those columns C, exceeds ``DECOMPOSE_DRIFT_TOL``.
    """
    pts = np.vstack([np.zeros(dim), np.eye(dim)])
    images = action(pts)
    a = images[0]
    cols = _translate(-a, images[1:])
    drift = float(np.max(np.abs(cols @ cols.T - np.eye(dim))))
    if not drift <= DECOMPOSE_DRIFT_TOL:
        raise DomainError(f"decomposed map drifts from orthogonal by {drift:.3e}")
    return Isometry(a, gram.polar_orthogonalize(cols.T))


@_quiet_overflow
def isometry_compose(g, h):
    """The isometry acting as x -> g(h(x)), in decomposed form.

    Read off the normal form: ``a = g(h(0))`` and U from the images of the
    standard basis pulled back by T_{-a}.  The error grows like |a|^2 * eps;
    raises DomainError once the drift certificate of the decomposition fails
    (|a| of about 1e4 and beyond).
    """
    if g.dim != h.dim:
        raise DimensionError("cannot compose isometries of different dimensions")
    return _decompose_action(lambda p: _apply(g, _apply(h, p)), g.dim)


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


@_quiet_overflow
def fit_isometry(source, target, tol=FIT_DISTANCE_TOL):
    """Extend the correspondence source[i] -> target[i] to a global isometry.

    The input must be a partial isometry: all pairwise hyperbolic distances
    on the source must match those on the target within ``tol * (1 + d)``.
    The first source/target points are translated to the origin, an
    orthogonal map between the remaining translated points is built
    (completed canonically on the orthogonal complement), and the whole map
    is conjugated back and returned in (a, U) form.

    Raises :class:`PartialIsometryError` when the distance hypothesis fails,
    with the offending index pair attached, when the decomposition's drift
    certificate fails (see ``_decompose_action``), and when the fitted map
    misses a target by more than ``tol * (1 + D)``, D the largest source
    distance.
    """
    src, tgt = _point_lists(source, target)
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"fit tolerance must be finite and >= 0, got {tol!r}")
    dim = src.shape[1]

    dmax = 0.0  # one point meets the distance gate trivially
    if src.shape[0] > 1:
        # source and target distance grids in one kernel call
        pts = np.stack([src, tgt])
        ds, dt = _distance(pts[:, :, None, :], pts[:, None, :, :])
        gap = np.abs(ds - dt) - tol * (1.0 + ds)
        if np.any(gap > 0.0):
            i, j = np.unravel_index(np.argmax(gap), gap.shape)
            raise PartialIsometryError(
                f"pair ({i}, {j}): source distance {float(ds[i, j])!r} vs "
                f"target distance {float(dt[i, j])!r}",
                pair=(int(i), int(j)),
            )
        dmax = float(np.max(ds))

    p0, q0 = src[0], tgt[0]
    b = _translate(-p0, src[1:])
    c = _translate(-q0, tgt[1:])
    try:
        u, rank = gram.orthogonal_map(b, c)
        iso = _decompose_action(lambda p: _translate(q0, _translate(-p0, p) @ u.T), dim)
    except GeometryError as exc:
        raise PartialIsometryError(str(exc)) from exc
    residual = float(np.max(_distance(_apply(iso, src), tgt)))
    bound = tol * (1.0 + dmax)
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
    space (in dimension > 1) is an isometry.  Raises DomainError when c or t
    is not finite, or when the residual overflows double precision.
    """
    c = _real(c, "dilation constant")
    t = _real(t, "residual argument")
    if not c > 0.0:
        raise DomainError(f"dilation constant must be positive, got {c!r}")
    if t < 1.0 - 1e-9:
        raise DomainError(f"residual argument must be >= 1, got {t!r}")
    t = max(t, 1.0)
    try:
        residual = abs(math.cosh(c * math.acosh(t * t))
                       - math.cosh(c * math.acosh(t)) ** 2)
    except OverflowError:
        residual = math.inf
    if not math.isfinite(residual):
        raise DomainError(
            f"dilation residual at c={c!r}, t={t!r} overflows double precision"
        )
    return residual
