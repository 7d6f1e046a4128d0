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


def exact_hyperbolic_distance(x, y, dps=50):
    """High-precision reference value of the hyperbolic distance.  Float
    coordinates count at their exact binary64 value, mpf ones as they are."""
    with mp.workdps(dps):
        xm = [mp.mpf(v) for v in x]
        ym = [mp.mpf(v) for v in y]
        bx = mp.sqrt(1 + mp.fsum(v * v for v in xm))
        by = mp.sqrt(1 + mp.fsum(v * v for v in ym))
        ip = mp.fsum(a * b for a, b in zip(xm, ym))
        return float(mp.acosh(bx * by - ip))


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


def drifting_one_point_fit():
    """A dim-32 one-point fit (source, target) whose conjugated map drifts
    1.5e-8 from orthogonal at the origin; decomposed regardless, it misses
    its own target by 8e-7."""
    rng = np.random.default_rng(54)
    g = random_isometry(rng, 32)
    src = rng.uniform(-5.0, 5.0, (1, 32))
    return src, isometry_apply(g, src)
