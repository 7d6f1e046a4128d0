"""Shared test helpers: independent distance oracles and random elements."""

import math

import mpmath as mp
import numpy as np

from hgeom import Isometry, isometry_apply


def naive_hyperbolic_distance(x, y):
    """Textbook arcosh([x][y] - <x,y>) in plain double precision, with the
    argument clamped at 1.  Independent of the library's evaluation route."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    bx = math.sqrt(1.0 + float(x @ x))
    by = math.sqrt(1.0 + float(y @ y))
    arg = bx * by - float(x @ y)
    return math.acosh(max(arg, 1.0))


def naive_argument(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    bx = math.sqrt(1.0 + float(x @ x))
    by = math.sqrt(1.0 + float(y @ y))
    return bx * by - float(x @ y)


def exact_hyperbolic_distance(x, y, dps=120):
    """High-precision reference value of the hyperbolic distance.  Float
    coordinates count at their exact binary64 value, mpf ones as they are.

    Taken as 2 asinh(sqrt(s/2)) with s = [x][y] - <x,y> - 1 written as
    (|x - y|^2 - ([x] - [y])^2) / 2, which cancels nothing at x = y, and
    clamped at s = 0 (cosh d = 1 + s clamped at 1): coincident points give
    exactly 0.
    """
    with mp.workdps(dps):
        xm = [mp.mpf(v) for v in x]
        ym = [mp.mpf(v) for v in y]
        nx = mp.fsum(v * v for v in xm)
        ny = mp.fsum(v * v for v in ym)
        db = (nx - ny) / (mp.sqrt(1 + nx) + mp.sqrt(1 + ny))  # [x] - [y]
        s2 = mp.fsum((a - b) ** 2 for a, b in zip(xm, ym)) - db * db  # 2 s
        return float(2 * mp.asinh(mp.sqrt(max(s2, 0)) / 2))


def exact_angle(x, y, dps=120):
    """The angle between vectors x and y in ``dps``-digit arithmetic, as an
    mpf: atan2(sqrt(|x|^2 |y|^2 - <x,y>^2), <x,y>) by the Lagrange identity,
    with coordinates at their exact binary64 value."""
    with mp.workdps(dps):
        xm = [mp.mpf(float(v)) for v in x]
        ym = [mp.mpf(float(v)) for v in y]
        c = mp.fsum(a * b for a, b in zip(xm, ym))
        w2 = mp.fsum(v * v for v in xm) * mp.fsum(v * v for v in ym) - c * c
        return mp.atan2(mp.sqrt(max(w2, 0)), c)


def exact_line_gap(g1, g2, start=(0.0, 0.0), dps=120):
    """Distance between two lines (``Geodesic``s), in ``dps``-digit arithmetic.

    Each line is lifted exactly from its float base point and direction (the
    direction normalized in mpmath) as Gamma(t) = cosh t A + sinh t W on the
    hyperboloid.  Newton's method (``mp.findroot``, started at ``start``)
    solves df/ds = df/dt = 0 for f(s, t) = -<Gamma1(s), Gamma2(t)> = cosh d,
    whose only stationary point is the closest pair when the lines are
    neither asymptotic nor coincident.  Returns ``(gap, s, t)`` as mpf.
    """
    with mp.workdps(dps):
        def lift(g):
            a = [mp.mpf(float(v)) for v in g.a]
            z = [mp.mpf(float(v)) for v in g.z]
            nz = mp.sqrt(mp.fsum(v * v for v in z))
            ba = mp.sqrt(1 + mp.fsum(v * v for v in a))
            za = mp.fsum(u * v for u, v in zip(z, a)) / nz
            w = [u / nz + za / (ba + 1) * v for u, v in zip(z, a)]
            return [ba] + a, [mp.fsum(u * v for u, v in zip(w, a)) / ba] + w

        def neg_mink(x, y):
            return x[0] * y[0] - mp.fsum(u * v for u, v in zip(x[1:], y[1:]))

        (A1, W1), (A2, W2) = lift(g1), lift(g2)
        m = [[neg_mink(A1, A2), neg_mink(A1, W2)], [neg_mink(W1, A2), neg_mink(W1, W2)]]

        def f(s, t, ds=0, dt=0):
            # derivative orders ds, dt of f; cosh'' = cosh, sinh'' = sinh
            e1 = [mp.cosh(s), mp.sinh(s)][::-1 if ds else 1]
            e2 = [mp.cosh(t), mp.sinh(t)][::-1 if dt else 1]
            return mp.fsum(e1[i] * m[i][j] * e2[j] for i in range(2) for j in range(2))

        s, t = mp.findroot(lambda s, t: [f(s, t, 1, 0), f(s, t, 0, 1)],
                           (mp.mpf(start[0]), mp.mpf(start[1])))
        return mp.acosh(max(f(s, t), mp.mpf(1))), s, t


def exact_parallel_gap(v, a, b, dps=120):
    """Distance between the line through the origin along ``v`` and the curve
    {sinh t a + cosh t b}, in ``dps``-digit arithmetic, with float inputs at
    their exact binary64 value.  Returns ``(gap, s, t)`` as mpf: the closest
    pair is the line's point at s and the curve's point at t.

    With a', b' the parts of a and b orthogonal to v, A = |a'|^2,
    B = |b'|^2 and C = <a', b'>, sinh d(x(t), line) = |x'(t)| and
    |x'(t)|^2 = (B - A)/2 + ((A + B)/2) cosh 2t + C sinh 2t, least at
    tanh 2t = -2C/(A + B), where it is ((B - A) + r)/2 with
    r = sqrt((A + B)^2 - 4C^2).  The foot on the line has tanh s = <x, v>/[x].
    """
    with mp.workdps(dps):
        v, a, b = ([mp.mpf(float(c)) for c in w] for w in (v, a, b))
        nv = mp.sqrt(mp.fsum(c * c for c in v))
        v = [c / nv for c in v]

        def off(w):
            k = mp.fsum(p * q for p, q in zip(w, v))
            return [p - k * q for p, q in zip(w, v)]

        ao, bo = off(a), off(b)
        A, B = mp.fsum(c * c for c in ao), mp.fsum(c * c for c in bo)
        C = mp.fsum(p * q for p, q in zip(ao, bo))
        t = mp.atanh(-2 * C / (A + B)) / 2
        q = ((B - A) + mp.sqrt((A + B) ** 2 - 4 * C * C)) / 2
        x = [mp.sinh(t) * p + mp.cosh(t) * r for p, r in zip(a, b)]
        s = mp.atanh(mp.fsum(p * r for p, r in zip(x, v)) / mp.sqrt(1 + mp.fsum(c * c for c in x)))
        return mp.asinh(mp.sqrt(max(q, 0))), s, t


def exact_translation_apply(y, x, dps=120):
    """T_y(x) in ``dps``-digit arithmetic, for a float vector ``y``.

    Floats are taken at their exact binary64 value and mpf coordinates
    as they are, so images can be chained; returns a list of mpf.
    """
    with mp.workdps(dps):
        x = [mp.mpf(v) for v in x]
        a = [mp.mpf(float(v)) for v in y]
        bx = mp.sqrt(1 + mp.fsum(v * v for v in x))
        ba = mp.sqrt(1 + mp.fsum(v * v for v in a))
        coeff = bx + mp.fsum(v * w for v, w in zip(x, a)) / (ba + 1)
        return [v + coeff * w for v, w in zip(x, a)]


def exact_isometry_apply(g, x, dps=120):
    """T_a(U x) for the isometry g = (a, U) in ``dps``-digit arithmetic,
    with inputs taken as by :func:`exact_translation_apply`."""
    with mp.workdps(dps):
        x = [mp.mpf(v) for v in x]
        ux = [mp.fsum(mp.mpf(float(u)) * v for u, v in zip(row, x)) for row in g.U]
        return exact_translation_apply(g.a, ux, dps)


def random_unit(rng, n, size=()):
    v = rng.standard_normal(size + (n,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_isometry(rng, n, box=5.0):
    return Isometry(rng.uniform(-box, box, n), random_orthogonal(rng, n))


def dim32_one_point_fit():
    """A dim-32 one-point fit (source, target) with |source| ~ 17 and a fitted
    translation part of |a| ~ 5e3, which magnify any error in the fitted U."""
    rng = np.random.default_rng(54)
    g = random_isometry(rng, 32)
    src = rng.uniform(-5.0, 5.0, (1, 32))
    return src, isometry_apply(g, src)


def drifting_far_fit():
    """A dim-3 fit (source, target) of five points at coordinate scale 3e3
    whose Lorentz product drifts ~2.4e-8 from orthogonal, about 4x the
    certificate; read off regardless, it misses its targets by ~1.5e-5."""
    rng = np.random.default_rng(15)
    g = random_isometry(rng, 3)
    src = rng.uniform(-3e3, 3e3, (5, 3))
    return src, isometry_apply(g, src)
