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

from .core import (DEFAULT_TOL, _bracket, _count, _direction, _distance, _dot, _pair,
                   _quiet_overflow, _real, _reals, _vector, _wedge, as_point,
                   hyperbolic_distance, points_equal, require_finite)
from ._dd import minkowski_excess, two_prod, two_sum
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

def _unit(v, name):
    # the direction of one vector (any finite nonzero one), read-only
    u = _direction(_vector(v, name))
    u.setflags(write=False)
    return u


@dataclass(frozen=True)
class Geodesic:
    """A unit-speed line t -> T_a(sinh(t) z): base point ``a`` = gamma(0) and
    unit direction ``z``, normalized at construction from any nonzero vector."""

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
    # sin of their angle above 1e-6; DegenerateInputError for a zero vector
    w, c = _wedge(a, b)
    return bool(w > 1e-6 * np.hypot(w, c))


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


def angle_measure(angle: Angle):
    """Measure in [0, pi] of the angle between the two rays.

    The stored directions already live in the frame translated to the
    origin, where the measure is the Euclidean angle between them,
    atan2(|z1^z2|, <z1, z2>): exactly 0 and pi at the ends.
    """
    return float(np.arctan2(*_wedge(angle.z1, angle.z2)))


def is_right_angle(angle: Angle):
    """Whether the angle is right: the four angles formed with the opposite
    rays (z1, z2), (-z2, z1), (z2, -z1), (-z1, -z2) are pairwise congruent
    (their measures agree within ``DEFAULT_TOL``), which happens exactly at
    measure pi/2."""
    # (z2, -z1) and (-z2, z1) measure pi - theta, atan2(W, -c), and
    # (-z1, -z2) measures theta again
    w, c = _wedge(angle.z1, angle.z2)
    return bool(abs(np.arctan2(w, c) - np.arctan2(w, -c)) <= DEFAULT_TOL)


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
# The plain-double steering of a scan hands over to the compensated kernel at
# the first refinement window whose spread of [x][y] - <x,y> is within
# _STEER_MARGIN times that window's rounding bound.
_STEER_MARGIN = 64.0


def _steer(x, y, coarse):
    # the least pair (i, j) of q = [x][y] - <x,y> over the window x by y, in
    # plain double; None once the rounding bound 8 eps ([x][y] + |x|_1 |y|_1)
    # is not finite or (refinement windows only) q's spread is within
    # _STEER_MARGIN of it: then only the compensated kernel can rank the pairs
    bx, by = _bracket(x), _bracket(y)
    q = bx[:, None] * by - x @ y.T
    err = 8.0 * _EPS * (bx.max() * by.max() + abs(x).sum(-1).max() * abs(y).sum(-1).max())
    if not err < math.inf or not (coarse or q.max() - q.min() > _STEER_MARGIN * err):
        return None  # also on NaN
    return np.unravel_index(np.argmin(q), q.shape)


@_quiet_overflow
def curve_min_gap(curve_a, curve_b, samples=10_000):
    """Smallest sampled hyperbolic distance between two parametrized curves.

    ``curve_a`` and ``curve_b`` map a parameter array to point batches.  The
    parameter square [-10, 10]^2 is scanned on a grid of ~``samples`` cells
    (an integer >= 1, else DomainError), then the best pair is refined by a
    shrinking-window grid search: each step evaluates a small grid around the
    best pair and shrinks the window, stopping as soon as every value of a
    window is within ``4 eps`` (relative) of the best one, or else once its
    half-width reaches rounding level (intersecting curves, whose gap tends
    to 0).

    The search runs in two tiers.  The coarse grid and the first windows
    only steer: they rank their pairs by [x][y] - <x,y> in plain double, one
    matrix product per window.  From the first window whose spread is within
    64 times its rounding bound on, each window is one batched call of the
    compensated :func:`hyperbolic_distance`, and only those values give the
    result: usually 2 to 5 windows of 81 pairs on disjoint lines and
    two-vector curves, up to ~13 where the last windows never turn flat to
    rounding.  Overflowing curve points raise DomainError from the
    compensated kernel.

    On a convex gap, such as the distance between two disjoint lines, the
    result is accurate to rounding when the minimizing pair lies inside the
    square; otherwise it is only an upper bound.  Returns ``(gap, s, t)``,
    where ``gap`` is the distance between ``curve_a(s)`` and ``curve_b(t)``
    to the bit.

    The scan is a falsification harness: a positive result bounds the gap
    of the curves as computed from above, and strongly suggests (but does
    not prove) disjointness.  Against the exact curves it is an upper bound
    only up to the rounding of their points: far curves (|b| of 10 to 1e3 in
    two-vector form, dims 2 to 8) gave results up to 3.7e-13 below the
    exact gap (relative), nearby ones up to 1.3e-15.  It serves curves that
    need not be lines (``hgeom parallel`` scans any independent two-vector
    pair); for two lines, :func:`line_min_gap` gives the gap in closed form,
    with no window.
    """
    samples = _count(samples, "samples", 1)
    m = max(2, int(round(math.sqrt(samples))))
    ts = np.linspace(-_GAP_SPAN, _GAP_SPAN, m)
    offsets = np.linspace(-1.0, 1.0, _REFINE_POINTS)
    best, s, t = math.inf, 0.0, 0.0
    ss = tt = ts
    half = float(ts[1] - ts[0])
    steering = True
    while True:
        x, y = curve_a(ss), curve_b(tt)
        ij = _steer(*_pair(x, y), ss is ts) if steering else None
        if ij is not None:
            s, t = float(ss[ij[0]]), float(tt[ij[1]])
            # a next window at rounding width is the compensated tier's
            steering = half > 1e-15 * (1.0 + abs(s) + abs(t))
        else:
            steering = False
            dmat = hyperbolic_distance(x[:, None, :], y[None, :, :])
            i, j = np.unravel_index(np.argmin(dmat), dmat.shape)
            if dmat[i, j] < best:
                best, s, t = float(dmat[i, j]), float(ss[i]), float(tt[j])
            # refinement windows only: they hold the best pair, the coarse
            # grid need not
            if ss is not ts and dmat.max() - best <= _FLAT_RTOL * best:
                return best, s, t
            if not half > 1e-15 * (1.0 + abs(s) + abs(t)):  # also stops on NaN
                return best, s, t
        ss = np.clip(s + half * offsets, -_GAP_SPAN, _GAP_SPAN)
        tt = np.clip(t + half * offsets, -_GAP_SPAN, _GAP_SPAN)
        half /= _REFINE_SHRINK


# line_min_gap returns a gap only when its error estimate is within
# _GAP_RTOL * gap + _GAP_ATOL (README, "Numerical notes")
_GAP_RTOL, _GAP_ATOL, _EPS = 1e-12, 1e-13, 2.0**-53


def _moved(p, x, v, e):
    # T_{-p}(x) and its differential at x applied to v, for rows x and v,
    # given the excesses e = [p][x] - <p,x> - 1; written around d = x - p so
    # that x near p loses nothing to cancellation (x = p maps to exactly 0)
    d = x - p
    bp, bx = _bracket(p), _bracket(x)
    r = _dot(d, x + p) / (bp + bx)  # [x] - [p]
    c = d - ((r + e) / (1.0 + bp))[:, None] * p
    m = (x + bp * d - r[:, None] * p) / (bx * (bp + 1.0))[:, None]  # x/[x] - p/([p]+1)
    return c, v - _dot(v, m)[:, None] * p


def _closest_step(w, a):
    # (s, t) of the closest pair of the lines sinh(u) w[i] + cosh(u) a[i],
    # from the Minkowski products N of their null ends (README, "Numerical
    # notes"), each half the square of a difference of ends
    ba = _bracket(a)
    lift = np.empty((2, 2, a.shape[1] + 1))  # A and W of each line
    lift[:, 0, 0], lift[:, 0, 1:] = ba, a
    lift[:, 1, 0], lift[:, 1, 1:] = _dot(w, a) / ba, w
    ends = lift[:, :1] + np.array([[1.0], [-1.0]]) * lift[:, 1:]
    d = ends[0][:, None] - ends[1][None]
    n = 0.5 * (_dot(d[..., 1:], d[..., 1:]) - d[..., 0] ** 2)
    (pp, pm), (mp, mm) = n.tolist()
    if not all(0.0 < x < math.inf for x in (pp, pm, mp, mm)):  # also false on NaN
        raise DomainError("the lines have no closest pair in double range: they "
                          "are asymptotic, coincident or nearly so")
    pp, pm, mp, mm = map(math.log, (pp, pm, mp, mm))
    return 0.25 * np.array([(mp + mm) - (pp + pm), (pm + mm) - (pp + mp)])


def _rounding(w, a, u, exact):
    # how far geodesic_point's sinh(u) w + cosh(u) a, summed over the rows,
    # may lie off the lines: its own roundings (exactly, or 2**-53 of each
    # result), plus 2**-53 of sinh(u) w and of cosh(u) a for the inputs (of
    # cosh(u) only what u^2/2 allows, so u = 0 costs nothing)
    sh, ch = np.sinh(u)[:, None], np.cosh(u)[:, None]
    if exact:
        x, ex = two_prod(sh, w)
        y, ey = two_prod(ch, a)
        own = ex + ey + two_sum(x, y)[1]
    else:
        x, y = sh * w, ch * a
        own = _EPS * (abs(x) + abs(y) + abs(x + y))
    terms = np.stack([own, _EPS * abs(sh) * w, np.minimum(_EPS * ch, 0.5 * (u * u)[:, None]) * a])
    return float(np.sqrt(_dot(terms, terms)).sum())


@_quiet_overflow
def line_min_gap(g1: Geodesic, g2: Geodesic, samples=10_000):
    """Distance between two lines in closed form, with no parameter window
    (README, "Numerical notes"): ``(gap, s, t)``, ``gap`` being the distance
    between ``geodesic_point(g1, s)`` and ``geodesic_point(g2, t)``, within
    1e-12 (relative) plus 1e-13 of the lines' distance by its error estimate.
    DomainError where the estimate is larger, for asymptotic or coincident
    lines and for closest points that overflow; DimensionError for lines of
    different dimensions.  ``samples`` is validated, then unused, until the
    benchmark's set-up stops passing it."""
    _count(samples, "samples", 1)
    if g1.dim != g2.dim:
        raise DimensionError("the two lines have different dimensions")
    (w1, a1), (w2, a2) = _sinh_cosh_coeff(g1), _sinh_cosh_coeff(g2)
    if g1.dim == 1:  # both lines are the whole space: t reaches g1's base
        return 0.0, 0.0, float(g2.z[0] * (np.arcsinh(a1[0]) - np.arcsinh(a2[0])))
    w, a, st = np.stack([w1, w2]), np.stack([a1, a2]), np.zeros(2)
    for _ in range(3):
        # solve on the lines moved by T_{-p}, p the pair found so far, based
        # at T_{-p}(p) with unit tangents there: line 1 then runs through 0
        p = _sinh_cosh_point(w, a, st)
        e = minkowski_excess(p[0], p[1])
        half = math.asinh(math.sqrt(0.5 * e))  # half the distance within p
        c, v = _moved(p[0], p, _sinh_cosh_point(a, w, st), np.array([0.0, e]))
        step = _closest_step(v, c)
        st += step
        if abs(step).max() <= 2.0**-26 * math.tanh(half):
            break  # the step moves the gap by rounding only (see move below)
    s, t = st.tolist()
    q = _sinh_cosh_point(w, a, st)  # geodesic_point(g1, s) and (g2, t), to the bit
    gap = float(_distance(q[0], q[1]))
    # the last step's effect on the gap: second order near a positive gap
    # (d's Hessian is at most coth(gap/2)), and at most the gap it closed
    move = abs(step).sum()
    if gap > 0.0:
        move *= min(1.0, move / math.tanh(0.5 * gap))
    move = min(move, abs(2.0 * half - gap))
    # the cheap bound on the points' rounding first, the exact one if needed
    err = move + _rounding(w, a, st, False)
    if not err <= _GAP_RTOL * gap + _GAP_ATOL:
        err = move + _rounding(w, a, st, True)
    if not err <= _GAP_RTOL * gap + _GAP_ATOL:
        raise DomainError(f"the closest points lie too far from the origin or the base "
                          f"points: the gap {gap!r} is only known to within {err:.1e}")
    return gap, s, t
