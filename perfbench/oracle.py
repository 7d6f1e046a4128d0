"""High-precision reference values, computed with mpmath at 120 digits.

Inputs are the exact binary64 values the library received; every reference
is computed from them without rounding to double until the final comparison.
At 120 digits the direct form ``s = [x][y] - <x,y> - 1`` keeps more than 60
correct digits for every regime the benchmark draws (|x| <= 1e8 and
separations >= 1e-8 lose at most ~50 digits to cancellation).
"""

from __future__ import annotations

import mpmath as mp

DPS = 120

# One relative tolerance for every distance, at the double-precision level
# (about 4500 ulp).  A correct compensated kernel sits below it in every
# regime drawn here: the seed's double-double kernel reaches ~1e-13 on
# nearby pairs at dim 64, where the condition number [x][y]/s ~ 1e18 times
# the double-double unit roundoff sets its error.
DIST_RTOL = 1e-12

# Hyperbolic distance allowed between an isometry's image of a probe point and
# the exact image: the bound acceptance criterion 05 uses for fits.
ISO_TOL = 1e-7

# Coordinate error allowed for a translation or isometry image, relative to
# (1 + |x|)(1 + |a|): the a-priori forward error bound of the plain double
# formula x + ([x] + <x,a>/([a]+1)) a, with a wide constant.  It catches a
# wrong formula or a broken fast path, not last-digit rounding.
MAP_RTOL = 1e-12

MP = mp.MPContext()
MP.dps = DPS


def vec(x):
    return [MP.mpf(float(v)) for v in x]


def _dot(x, y):
    return MP.fsum(a * b for a, b in zip(x, y))


def _bracket(x):
    return MP.sqrt(1 + _dot(x, x))


def distance(x, y):
    """d_h(x, y) for mp vectors, via 2 asinh(sqrt(s / 2))."""
    s = _bracket(x) * _bracket(y) - _dot(x, y) - 1
    if s <= 0:
        return MP.mpf(0)
    return 2 * MP.asinh(MP.sqrt(s / 2))


def translate(a, x):
    """T_a(x) = x + ([x] + <x,a>/([a]+1)) a for mp vectors."""
    c = _bracket(x) + _dot(x, a) / (_bracket(a) + 1)
    return [xi + c * ai for xi, ai in zip(x, a)]


def rotate(u, x):
    """U x for a nested-list (or array) matrix u and an mp vector x."""
    return [MP.fsum(MP.mpf(float(uij)) * xj for uij, xj in zip(row, x)) for row in u]


def apply_iso(a, u, x):
    """The isometry x -> T_a(U x), parameters given as doubles."""
    return translate(vec(a), rotate(u, x))


def norm(x):
    return MP.sqrt(_dot(x, x))


def dist_ok(value, x, y):
    """Returns (ok, relative error) of a library distance against the oracle."""
    exact = distance(vec(x), vec(y))
    if exact == 0:
        return value == 0.0, 0.0 if value == 0.0 else float("inf")
    err = float(abs(MP.mpf(float(value)) - exact) / exact)
    return err <= DIST_RTOL, err


def map_ok(out, exact, scale):
    """Coordinate-error check of a computed image against an mp image."""
    err = norm([MP.mpf(float(o)) - e for o, e in zip(out, exact)])
    return float(err) <= MAP_RTOL * scale, float(err)


def iso_ok(image, exact):
    """Hyperbolic-distance check between two mp images of one point."""
    d = float(distance(image, exact))
    return d <= ISO_TOL, d


def to_float(x):
    return [float(v) for v in x]
