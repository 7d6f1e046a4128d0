"""Geodesics, lines, segments, angles, spheres, and parallel families.

Every unit-speed geodesic through ``a`` has the closed form

    gamma(t) = T_a(sinh(t) z),   |z| = 1,

which expands to sinh(t) w + cosh(t) a with the fixed coefficient vector
w = z + (<z, a> / ([a] + 1)) a.  The expanded form is what ``geodesic_point``
evaluates: it is algebraically identical and numerically better conditioned
far from the base point.

Lines not through the origin admit the two-vector form {sinh(t) a + cosh(t) b};
for any |mu| > 1 the linear span of mu*a + b is a line through the origin that
misses the whole family, which is how the uniqueness half of the parallel
postulate fails here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_TOL, _bracket, _count, _distance, _pair, _quiet_overflow,
                   _real, _reals, _scaled, _vector, as_point, hyperbolic_distance,
                   points_equal, require_finite)
from .errors import DegenerateInputError, DimensionError, DomainError
from .isometry import _apply, _translate

__all__ = [
    "Geodesic",
    "Angle",
    "geodesic_point",
    "line_through",
    "segment_contains",
    "metrically_collinear",
    "parallel_family",
    "line_two_vector_form",
    "two_vector_form_to_line",
    "two_vector_point",
    "angle_measure",
    "is_right_angle",
    "transport_angle",
    "sphere_euclidean_radius",
    "h1_embedding",
    "curve_min_gap",
    "line_min_gap",
]

@_quiet_overflow
def _unit(v, name):
    # normalized through the exactly rescaled w = v / 2**e, whose norm cannot
    # overflow; |v| itself may be inf here, which is not near zero
    w, e = _scaled(_vector(v, name))
    n = np.linalg.norm(w)
    if np.ldexp(n, e[0]) < 1e-12:
        raise DegenerateInputError(f"{name} has (near-)zero length")
    u = w / n
    u.setflags(write=False)
    return u


@dataclass(frozen=True)
class Geodesic:
    """A unit-speed line t -> T_a(sinh(t) z): base point ``a`` = gamma(0) and
    unit direction ``z``.  The direction is normalized at construction."""

    a: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        a = _vector(self.a, "base point")
        z = _unit(self.z, "direction")
        if a.shape != z.shape:
            raise DimensionError("base point and direction dimensions differ")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "z", z)

    @property
    def dim(self):
        return self.a.shape[-1]


@dataclass(frozen=True)
class Angle:
    """An ordered pair of closed half-lines from a common vertex.

    Each half-line is t -> T_vertex(sinh(t) z_i) for t >= 0, so a unit
    direction per ray is a complete description.  Directions are normalized
    at construction.
    """

    vertex: np.ndarray
    z1: np.ndarray
    z2: np.ndarray

    def __post_init__(self):
        vertex = _vector(self.vertex, "vertex")
        z1 = _unit(self.z1, "first direction")
        z2 = _unit(self.z2, "second direction")
        if not (vertex.shape == z1.shape == z2.shape):
            raise DimensionError("vertex and direction dimensions differ")
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "z2", z2)


def _sinh_cosh_coeff(g: Geodesic):
    # gamma(t) = sinh(t) w + cosh(t) a with w = z + (<z,a>/([a]+1)) a
    ba = require_finite(_bracket(g.a), "[a]")
    return g.z + (float(g.z @ g.a) / (ba + 1.0)) * g.a, g.a


def _sinh_cosh_point(a, b, t):
    # sinh(t) a + cosh(t) b for validated vectors a and b; with finite a and
    # b the point is finite exactly when t is finite and nothing overflows
    t = _reals(t, "curve parameter")
    p = np.sinh(t)[..., None] * a + np.cosh(t)[..., None] * b
    if not np.isfinite(p).all():
        raise DomainError(
            "curve point is not finite: t must be finite, and sinh(t) a + "
            "cosh(t) b must stay within double precision"
        )
    return p


@_quiet_overflow
def geodesic_point(g: Geodesic, t):
    """The point gamma(t) = T_a(sinh(t) z); ``t`` may be an array.

    Raises DomainError for a non-finite ``t`` and for a point that overflows
    double precision (cosh(t) |a| beyond ~1.8e308; |t| ~710 at the origin).
    """
    return _sinh_cosh_point(*_sinh_cosh_coeff(g), t)


@_quiet_overflow
def line_through(a, b):
    """The unique line through two distinct points, based at ``a``.

    The direction is the normalized image of ``b`` under the translation
    moving ``a`` to the origin, so ``geodesic_point`` reaches ``b`` at
    parameter ``hyperbolic_distance(a, b)``.  Points equal within
    ``DEFAULT_TOL`` (see :func:`points_equal`) raise DegenerateInputError.
    """
    a, b = _pair(a, b, ("a", "b"))
    if points_equal(a, b):
        raise DegenerateInputError("line through two coincident points is not unique")
    return Geodesic(a, _translate(-a, b))


def _between(d_long, d1, d2):
    # the triangle inequality d1 + d2 >= d_long is an equality within
    # DEFAULT_TOL (absolute plus relative): the middle point lies on the long
    # side
    return abs(d1 + d2 - d_long) <= DEFAULT_TOL * (1.0 + d_long)


@_quiet_overflow
def segment_contains(a, b, x):
    """Whether x lies on the metric segment between a and b.

    True exactly when the triangle inequality through x degenerates to
    equality: d(a, x) + d(x, b) = d(a, b) within ``DEFAULT_TOL`` (absolute
    plus relative).
    """
    a, b = _pair(a, b, ("a", "b"))
    x = as_point(x, "x")
    if x.shape[-1] != a.shape[-1]:
        raise DimensionError("x and the segment's endpoints have different dimensions")
    return bool(_between(_distance(a, b), _distance(a, x), _distance(x, b)))


@_quiet_overflow
def metrically_collinear(a, b, c):
    """Whether some ordering of the three points achieves additivity of
    distances within ``DEFAULT_TOL``, as in :func:`segment_contains` (all
    three middle-point choices are tried)."""
    a, c = _pair(a, c, ("a", "c"))
    b = as_point(b, "b")
    if b.shape[-1] != a.shape[-1]:
        raise DimensionError("b and the other points have different dimensions")
    ab, ac, bc = _distance(a, b), _distance(a, c), _distance(b, c)
    return bool(_between(ac, ab, bc) or _between(bc, ab, ac) or _between(ab, ac, bc))


def _independent(a, b):
    a, b = _scaled(a)[0], _scaled(b)[0]  # exact rescaling: the norms cannot overflow
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return False
    # Gram determinant of the normalized pair = sin^2 of their angle
    det = 1.0 - (float(a @ b) / (na * nb)) ** 2
    return det > 1e-12


@_quiet_overflow
def parallel_family(a, b, mu):
    """The line through the origin with direction (mu*a + b), |mu| > 1.

    For a line in two-vector form {sinh(t) a + cosh(t) b} (which never meets
    the origin), every such choice of mu yields a line disjoint from it, and
    distinct mu give distinct lines - infinitely many parallels through one
    point.
    """
    a, b = _pair(a, b, ("a", "b"))
    if a.ndim != 1 or b.ndim != 1:
        raise DimensionError("a and b must be single vectors")
    mu = _real(mu, "parallel parameter")
    if not abs(mu) > 1.0:
        raise DomainError(f"parallel parameter must satisfy |mu| > 1, got {mu!r}")
    if not _independent(a, b):
        raise DegenerateInputError("a and b must be linearly independent")
    return Geodesic(np.zeros_like(a), mu * a + b)


@_quiet_overflow
def line_two_vector_form(line: Geodesic):
    """Two-vector form (a, b) of a line not through the origin.

    For the line T_y(sinh(t) z) the image set equals
    {sinh(t) a + cosh(t) b} with a = z + (<z, y>/([y]+1)) y and b = y;
    the two vectors are linearly independent exactly because the line misses
    the origin.  A line whose base point lies in the span of its direction
    within ``DEFAULT_TOL * (1 + |y|)`` raises DegenerateInputError.
    """
    y, z = line.a, line.z
    a = _sinh_cosh_coeff(line)[0]  # DomainError once [y] overflows
    # the line passes through the origin iff y lies in the span of z
    resid = y - float(y @ z) * z
    if np.linalg.norm(resid) <= DEFAULT_TOL * (1.0 + np.linalg.norm(y)):
        raise DegenerateInputError("line passes through the origin")
    return a, y.copy()


@_quiet_overflow
def two_vector_form_to_line(a, b):
    """Inverse of :func:`line_two_vector_form`: recover the Geodesic whose
    image is {sinh(t) a + cosh(t) b}.  Requires independent vectors that form
    a line: the lifted tangent at b has Minkowski norm |a|^2 - (<a,b>/[b])^2
    = 1 within ``DEFAULT_TOL * (1 + |a|^2)``, or DomainError is raised."""
    a, b = _pair(a, b, ("a", "b"))
    if not _independent(a, b):
        raise DegenerateInputError("a and b must be linearly independent")
    bb = require_finite(_bracket(b), "[b]")
    aa, ab = require_finite(float(a @ a), "|a|^2"), float(a @ b)
    norm = aa - (ab / bb) ** 2
    if not abs(norm - 1.0) <= DEFAULT_TOL * (1.0 + aa):  # also raises on NaN
        raise DomainError(f"not a line: its tangent's Minkowski norm is {norm:.3e}, not 1")
    return Geodesic(b, a - (ab / (bb * (bb + 1.0))) * b)


@_quiet_overflow
def two_vector_point(a, b, t):
    """Points sinh(t) a + cosh(t) b of a line in two-vector form.

    Raises DomainError for a non-finite ``t`` and for a point that overflows
    double precision.
    """
    return _sinh_cosh_point(*_pair(a, b, ("a", "b")), t)


def _chord_angle(z1, z2):
    # angle between unit vectors in the atan2 chord form (exact 0 and pi at
    # the degenerate ends)
    return float(
        2.0 * math.atan2(np.linalg.norm(z1 - z2), np.linalg.norm(z1 + z2))
    )


def angle_measure(angle: Angle):
    """Measure in [0, pi] of the angle between the two rays.

    The stored directions already live in the frame translated to the
    origin, where the measure is the Euclidean angle between them.
    """
    return _chord_angle(angle.z1, angle.z2)


def is_right_angle(angle: Angle):
    """Whether the angle is right: the four angles formed with the opposite
    rays (z1, z2), (-z2, z1), (z2, -z1), (-z1, -z2) are pairwise congruent
    (their measures agree within ``DEFAULT_TOL``), which happens exactly at
    measure pi/2."""
    # (z2, -z1) repeats (-z2, z1) and (-z1, -z2) repeats (z1, z2) bit for
    # bit, because negating a vector leaves |u - v| and |u + v| unchanged
    straight = _chord_angle(angle.z1, angle.z2)
    turned = _chord_angle(-angle.z2, angle.z1)
    return bool(abs(straight - turned) <= DEFAULT_TOL)


@_quiet_overflow
def transport_angle(g, angle: Angle):
    """The image of an angle under an isometry.

    The conjugate T_{-g(vertex)} o g o T_vertex fixes the origin, hence acts
    linearly; applying it to the stored directions gives the directions of
    the image rays.
    """
    v = angle.vertex
    if v.shape[-1] != g.dim:
        raise DimensionError("angle dimension does not match the isometry")
    q = _apply(g, v)

    def push(z):
        return _translate(-q, _apply(g, _translate(v, z)))

    return Angle(q, push(angle.z1), push(angle.z2))


def sphere_euclidean_radius(r):
    """Euclidean radius sinh(r) of the hyperbolic sphere of radius r around
    the origin (the two spheres coincide as sets).

    Raises DomainError for a negative or non-finite r, and once sinh(r)
    overflows double precision (r beyond ~710).
    """
    r = _real(r, "radius")
    if r < 0.0:
        raise DomainError(f"radius must be non-negative, got {r!r}")
    try:
        return math.sinh(r)
    except OverflowError:
        raise DomainError(f"sinh({r!r}) overflows double precision") from None


@_quiet_overflow
def h1_embedding(t):
    """The isometry t -> (sinh t) of the real line onto the one-dimensional
    hyperbolic space.

    Raises DomainError for a non-finite ``t`` and once sinh(t) overflows
    double precision (|t| beyond ~710).
    """
    return _sinh_cosh_point(np.ones(1), np.zeros(1), t)


# Gap scans search the parameter square [-_GAP_SPAN, _GAP_SPAN]^2.
_GAP_SPAN = 10.0
# Refinement grid: each step evaluates _REFINE_POINTS^2 parameter pairs around
# the best pair so far, then divides the window's half-width by
# _REFINE_SHRINK, so the new window spans one old grid cell either side of the
# best pair.
_REFINE_POINTS = 9
_REFINE_SHRINK = 4.0
# A refinement window is flat to rounding once each of its values is within
# _FLAT_RTOL * best of the best one; refining further cannot lower the gap.
_FLAT_RTOL = 4.0 * np.finfo(float).eps


def curve_min_gap(curve_a, curve_b, samples=10_000):
    """Smallest sampled hyperbolic distance between two parametrized curves.

    ``curve_a`` and ``curve_b`` map a parameter array to point batches.  The
    parameter square [-10, 10]^2 is scanned on a grid of ~``samples`` cells
    (an integer >= 1, else DomainError), then the best pair is refined by a
    shrinking-window grid search: each step evaluates a small grid around the
    best pair in one batched distance call and shrinks the window, stopping
    as soon as every value of a window is within ``4 eps`` (relative) of the
    best one, or else once its half-width reaches rounding level
    (intersecting curves, whose gap tends to 0).  On a convex gap, such as
    the distance between two disjoint lines, the result is accurate to
    rounding when the minimizing pair lies inside the square; otherwise it
    is only an upper bound.  Returns ``(gap, s, t)``, where ``gap`` is the
    distance between ``curve_a(s)`` and ``curve_b(t)``.

    The scan is a falsification harness: a positive result bounds the gap
    from above and strongly suggests (but does not prove) disjointness.
    """
    samples = _count(samples, "samples", 1)
    m = max(2, int(round(math.sqrt(samples))))
    ts = np.linspace(-_GAP_SPAN, _GAP_SPAN, m)
    offsets = np.linspace(-1.0, 1.0, _REFINE_POINTS)
    best, s, t = math.inf, 0.0, 0.0
    ss = tt = ts
    half = float(ts[1] - ts[0])
    while True:
        dmat = hyperbolic_distance(curve_a(ss)[:, None, :], curve_b(tt)[None, :, :])
        i, j = np.unravel_index(np.argmin(dmat), dmat.shape)
        if dmat[i, j] < best:
            best, s, t = float(dmat[i, j]), float(ss[i]), float(tt[j])
        # refinement windows only: they hold the best pair, the coarse grid
        # need not
        if ss is not ts and dmat.max() - best <= _FLAT_RTOL * best:
            return best, s, t
        if not half > 1e-15 * (1.0 + abs(s) + abs(t)):  # also stops on NaN
            return best, s, t
        ss = np.clip(s + half * offsets, -_GAP_SPAN, _GAP_SPAN)
        tt = np.clip(t + half * offsets, -_GAP_SPAN, _GAP_SPAN)
        half /= _REFINE_SHRINK


def line_min_gap(g1: Geodesic, g2: Geodesic, samples=10_000):
    """Scanned minimum hyperbolic distance between two lines (see
    :func:`curve_min_gap`): accurate to rounding when the closest points
    lie at parameters in [-10, 10], else an upper bound."""
    return curve_min_gap(lambda t: geodesic_point(g1, t),
                         lambda t: geodesic_point(g2, t), samples=samples)
