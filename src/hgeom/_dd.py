"""Vectorized double-double (compensated) arithmetic.

Only what the distance kernel needs: error-free sums/products, a doubled-
precision sqrt, and the one-pass compensated Minkowski excess.  All helpers
broadcast like plain numpy ufuncs.
"""

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def two_sum(a, b):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def quick_two_sum(a, b):
    # requires |a| >= |b| (or a == 0)
    s = a + b
    return s, b - (s - a)


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _prod_err(p, ah, al, bh, bl):
    """Exact error a*b - p of p = fl(a*b), from the Dekker halves of a and b."""
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _square_err(p, ah, al):
    """Exact error a*a - p of p = fl(a*a); equal to ``_prod_err(p, ah, al,
    ah, al)`` to the bit, since every step of either is exact."""
    return ((ah * ah - p) + 2.0 * (ah * al)) + al * al


def two_prod(a, b):
    p = a * b
    return p, _prod_err(p, *_split(a), *_split(b))


def dd_add(xh, xl, yh, yl):
    s, e = two_sum(xh, yh)
    return quick_two_sum(s, e + xl + yl)


def dd_mul(xh, xl, yh, yl):
    p, e = two_prod(xh, yh)
    return quick_two_sum(p, e + (xh * yl + xl * yh))


def dd_sqrt(xh, xl):
    # requires xh > 0; the kernel only takes roots of 1 + |x|^2
    r = np.sqrt(xh)
    p, e = two_prod(r, r)
    return quick_two_sum(r, (((xh - p) - e) + xl) / (2.0 * r))


def minkowski_excess(x, y):
    """sqrt(1+|x|^2)*sqrt(1+|y|^2) - <x,y> - 1, clamped to >= 0.

    This is the quantity whose plain double evaluation cancels catastrophically
    both for nearby points and for far points that are nearly radially aligned;
    doubled precision keeps the relative error at the eps level for moderate
    coordinates (far, nearly radial pairs still lose accuracy).  The expression
    is evaluated symmetrically, so swapping x and y returns the bit-identical
    result, and bit-equal inputs return exactly 0.

    |x|^2, |y|^2 and <x,y> are compensated dot products (Dot2 of Ogita, Rump
    and Oishi) accumulated in one pass over the coordinates, in coordinate
    order: each coordinate is split once, and the squared norms are taken on
    each operand's own shape, so only <x,y> runs on the broadcast shape.
    """
    # running sums and error sums of |x|^2, |y|^2 and <x,y>
    xs = xc = ys = yc = ps = pc = 0.0
    for i in range(x.shape[-1]):
        # [()] turns the 0-d slices of single points into numpy scalars,
        # whose arithmetic is several times cheaper than 0-d arrays'
        a, b = x[..., i][()], y[..., i][()]
        ah, al = _split(a)
        bh, bl = _split(b)
        p = a * a
        xs, e = two_sum(xs, p)
        xc = xc + (e + _square_err(p, ah, al))
        p = b * b
        ys, e = two_sum(ys, p)
        yc = yc + (e + _square_err(p, bh, bl))
        p = a * b
        ps, e = two_sum(ps, p)
        pc = pc + (e + _prod_err(p, ah, al, bh, bl))
    bxh, bxl = dd_sqrt(*dd_add(*quick_two_sum(xs, xc), 1.0, 0.0))
    byh, byl = dd_sqrt(*dd_add(*quick_two_sum(ys, yc), 1.0, 0.0))
    ph, pl = dd_mul(bxh, bxl, byh, byl)
    ih, il = quick_two_sum(ps, pc)
    sh, sl = dd_add(ph, pl, -ih, -il)
    sh, sl = dd_add(sh, sl, -1.0, 0.0)
    s = np.maximum(sh + sl, 0.0)
    return np.where((x == y).all(axis=-1), 0.0, s)[()]
