"""Hyperbolic translations, full isometries, and isometry fitting.

Every isometry of the space decomposes uniquely as x -> T_a(U x) with a
translation parameter ``a`` and an orthogonal matrix ``U``, where

    T_y(x) = x + ([x] + <x, y> / ([y] + 1)) y

is the translation moving the origin to y; on the hyperboloid x -> T_a(U x)
is the Lorentz matrix B(a) diag(1, U), B(a) the boost T_a.  ``fit_isometry``
turns absolute homogeneity into an algorithm: any finite distance-preserving
correspondence extends to a global isometry, built here by translating base
points to the origin and matching the Gram data of the rest by an orthogonal
matrix.  Compose and fit read (a, U) off one product of Lorentz matrices.
``sphere_fit_rotation`` is the same fit on the round sphere, with no base
point to move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gram
from .core import (_bracket, _count, _direction, _distance, _dot, _pair, _point_lists,
                   _quiet_overflow, _real, _reals, _sphere_distance, _vector, as_point,
                   require_finite)
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
    "sphere_fit_rotation",
    "dilation_residual",
]

# Orthogonality drift allowed in a stored matrix, entrywise.
ORTHO_TOL = 1e-9

# Pairwise-distance discrepancy accepted by fit_isometry, scaled as
# tol * (1 + distance).
FIT_DISTANCE_TOL = 1e-6

# _read_off accepts an orthogonal block M with max |M'M - I| <= this / sqrt(n);
# measured misses of returned maps at probes in [-1, 1]^n stayed <= ~18x that.
DECOMPOSE_DRIFT_TOL = 1e-8

# Coordinates per block of a batched isometry_apply (256 KiB per temporary).
APPLY_BLOCK = 2**15

# Most multiply-adds one BLAS call of _matmul does.  OpenBLAS runs a gemm of
# this size on the calling thread (GEMM_MULTITHREAD_THRESHOLD, 4 * 65536) and
# splits a larger one across threads, where a call can stall for milliseconds
# waiting for its worker thread.
MATMUL_MADDS = 2**18


def _matmul(a, b):
    # a @ b for matrices in BLAS calls that stay single-threaded: one call if
    # the product fits in one slice of r rows, else one stacked np.matmul over
    # such slices and one over the rows left
    (m, k), n = a.shape, b.shape[1]
    r = max(1, MATMUL_MADDS // (k * n))
    if m <= r:
        return np.matmul(a, b)
    q = m - m % r
    out = np.empty((m, n))
    np.matmul(a[:q].reshape(-1, r, k), b, out=out[:q].reshape(-1, r, n))
    np.matmul(a[q:], b, out=out[q:])
    return out


def _translate(y, x):
    # T_y(x) of validated coordinates
    bx, by = _bracket(x), _bracket(y)
    xy = _dot(x, y)
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
    [x], [y] and <x, y> are one-pass row dots.  Raises DomainError when a
    squared norm or the image overflows.
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
        drift = np.max(np.abs(_matmul(u.T, u) - np.eye(n)))
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
    """The identity map of the dim-dimensional space, dim an integer >= 1."""
    dim = _count(dim, "dimension", 1, below=DimensionError)
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
        out[i:i + step] = _translate(g.a, _matmul(rows[i:i + step], g.U.T))
    return out.reshape(x.shape)


@_quiet_overflow
def isometry_apply(g, x):
    """Apply g to a point or a batch of points.

    A batch is mapped in blocks of rows, so the rotated copy and the
    translation's temporaries hold about ``APPLY_BLOCK`` coordinates each
    instead of copies of the whole batch.  Each block is rotated in BLAS
    calls of at most ``MATMUL_MADDS`` multiply-adds, which OpenBLAS runs on
    the calling thread instead of waiting for a worker thread.
    """
    x = as_point(x)
    if x.shape[-1] != g.dim:
        raise DimensionError("point dimension does not match the isometry")
    return _apply(g, x)


def _lorentz(a, u):
    # B(a) diag(1, U), with the boost B(a) = [[[a], a'], [a, I + a a'/([a] + 1)]]
    out = np.empty((len(a) + 1,) * 2)
    out[0, 0] = ba = _bracket(a)
    out[0, 1:] = au = _matmul(a[None], u)[0]
    out[1:, 0] = a
    out[1:, 1:] = u + np.outer(a, au / (ba + 1.0))
    return out


def _read_off(lor):
    # (a, U) of B(a) diag(1, U): a is column 0, and row 0 (a'U) peels off the boost
    a = require_finite(lor, "the Lorentz matrix")[1:, 0]
    m = lor[1:, 1:] - np.outer(a, lor[0, 1:] / (_bracket(a) + 1.0))
    drift = float(np.max(np.abs(_matmul(m.T, m) - np.eye(len(a)))))
    if not drift <= DECOMPOSE_DRIFT_TOL / len(a) ** 0.5:
        raise DomainError(f"map drifts from orthogonal by {drift:.3e}")
    return Isometry(a, gram.polar_orthogonalize(m))


@_quiet_overflow
def isometry_compose(g, h):
    """The isometry x -> g(h(x)), read off the product of the Lorentz matrices.

    The error grows like eps |a_g| |a_h|; raises DomainError once the drift
    certificate fails (from about |a| = 1e4 for g with its inverse).
    """
    if g.dim != h.dim:
        raise DimensionError("cannot compose isometries of different dimensions")
    return _read_off(_matmul(_lorentz(g.a, g.U), _lorentz(h.a, h.U)))


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


def _fit(src, tgt, tol, metric, place):
    # both fits on validated points: the distance gate under metric, the
    # orthogonal map u between the vectors place(src, tgt) puts at the origin,
    # and the residual contract; the step place returns last turns u into the
    # fit and the images of src.  Returns FitResult's fields.
    dmax = 0.0  # one point meets the distance gate trivially
    if src.shape[0] > 1:
        # source and target distance grids in one kernel call
        pts = np.stack([src, tgt])
        ds, dt = metric(pts[:, :, None, :], pts[:, None, :, :])
        gap = np.abs(ds - dt) - tol * (1.0 + ds)
        if np.any(gap > 0.0):
            i, j = np.unravel_index(np.argmax(gap), gap.shape)
            raise PartialIsometryError(
                f"pair ({i}, {j}): source distance {float(ds[i, j])!r} vs "
                f"target distance {float(dt[i, j])!r}",
                pair=(int(i), int(j)),
            )
        dmax = float(np.max(ds))

    b, c, extend = place(src, tgt)
    try:
        u, rank = gram.orthogonal_map(b, c)
        fitted, image = extend(u)
    except GeometryError as exc:
        raise PartialIsometryError(str(exc)) from exc
    residual = float(np.max(metric(image, tgt)))
    bound = tol * (1.0 + dmax)
    if not residual <= bound:
        raise PartialIsometryError(
            f"fit misses a target by {residual!r} (contract {bound!r})"
        )
    return fitted, rank == src.shape[1], residual


def _to_origin(src, tgt):
    # H^n: p0 and q0 go to the origin, and the fit is read off T_{q0} u T_{-p0}
    p0, q0 = src[0], tgt[0]

    def extend(u):
        iso = _read_off(_matmul(_lorentz(q0, u), _lorentz(-p0, np.eye(len(p0)))))
        return iso, _apply(iso, src)

    return _translate(-p0, src[1:]), _translate(-q0, tgt[1:]), extend


@_quiet_overflow
def fit_isometry(source, target, tol=FIT_DISTANCE_TOL):
    """Extend the correspondence source[i] -> target[i] to a global isometry.

    The input must be a partial isometry: all pairwise hyperbolic distances
    on the source must match those on the target within ``tol * (1 + d)``.
    The first source/target points are translated to the origin, an
    orthogonal map u between the remaining translated points is built (off
    their span it is some orthogonal map; ``unique`` says whether they
    span), and the map is read off the Lorentz product T_{q0} u T_{-p0}.

    Raises :class:`PartialIsometryError` when the distance hypothesis fails,
    with the offending index pair attached, when that product fails the
    drift certificate, and when the fitted map misses a target by more than
    ``tol * (1 + D)``, D the largest source distance.  So does
    :func:`sphere_fit_rotation`, on the sphere."""
    src, tgt = _point_lists(source, target)
    tol = _real(tol, "fit tolerance")
    if tol < 0.0:
        raise DomainError(f"fit tolerance must be finite and >= 0, got {tol!r}")
    return FitResult(*_fit(src, tgt, tol, _distance, _to_origin))


def sphere_fit_rotation(source, target):
    """Orthogonal U sending the direction of each source[i] to target[i]'s:
    :func:`fit_isometry`'s gate, map and contract at ``FIT_DISTANCE_TOL``, on
    great-circle distances (:func:`sphere_distance`), with no base point to
    move.  Points are any finite nonzero vectors; a zero vector raises
    DegenerateInputError.  Off the source span U is some orthogonal map."""
    src, tgt = map(_direction, _point_lists(source, target))
    return _fit(src, tgt, FIT_DISTANCE_TOL, _sphere_distance,
                lambda s, t: (s, t, lambda u: (u, s @ u.T)))[0]


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
