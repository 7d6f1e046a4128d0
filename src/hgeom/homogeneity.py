"""Gauge functions, snowflaked metrics, and the projective counterexample.

A gauge is a continuous function on [0, 1] or [0, inf) that vanishes at 0,
increases strictly, and is subadditive.  Composing such a gauge with any of
the base metrics yields a metric again ("snowflaking"); up to that freedom
and a normalization of the Euclidean case, the three model families
(Euclidean spaces, round spheres, hyperbolic spaces) exhaust the connected
locally compact spaces in which every 3-point partial isometry extends
globally.  Real projective space just misses the cut: it is 2-point but not
3-point homogeneous, and this module carries the explicit witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from . import gram
from .core import (
    _check_unit,
    _point_lists,
    _quiet_overflow,
    euclidean_distance,
    hyperbolic_distance,
    projective_distance,
    sphere_distance,
)
from .errors import ConvergenceError, DimensionError, DomainError, GeometryError

__all__ = [
    "UNIT",
    "RAY",
    "OmegaGauge",
    "OmegaViolation",
    "OmegaReport",
    "builtin_gauge",
    "table_gauge",
    "BUILTIN_GAUGES",
    "omega_validate",
    "snowflake_distance",
    "normalize_euclidean_gauge",
    "ProjectiveCounterexample",
    "projective_counterexample",
    "sphere_fit_rotation",
]

UNIT = "unit"  # gauges on [0, 1]
RAY = "ray"    # gauges on [0, inf)

# Sampling cap for ray-domain grids; subadditivity violations of smooth
# gauges show up at moderate arguments already.
RAY_SAMPLING_CAP = 100.0

# Pairs per block in omega_validate's subadditivity scan.  Blocks bound its
# temporaries (128 KiB arrays) for any grid size; the default grid of 200
# takes three blocks.
_PAIR_BLOCK = 16384


@dataclass(frozen=True)
class OmegaGauge:
    """A scalar gauge: function handle, domain tag, and declared limit.

    ``fn`` must accept arrays and apply the gauge elementwise:
    :func:`omega_validate` and :func:`snowflake_distance` call it on whole
    batches of arguments.

    ``limit_at_infinity`` must be declared by the caller for ray gauges
    (math.inf is allowed); numeric limit estimation is deliberately not
    attempted.  Continuity is not checked either - only the increase and
    subadditivity conditions are falsifiable from samples, via
    :func:`omega_validate`.
    """

    fn: Callable
    domain: str
    limit_at_infinity: float | None = None
    label: str = "custom"

    def __post_init__(self):
        if self.domain not in (UNIT, RAY):
            raise DomainError(f"unknown gauge domain {self.domain!r}")
        if self.domain == RAY and self.limit_at_infinity is None:
            raise DomainError("ray gauges must declare their limit at infinity")

    def __call__(self, t):
        return self.fn(t)


# The named example gauges: name -> (elementwise function, limit at infinity
# on the ray domain).
_BUILTIN = {
    "identity": (lambda t: np.asarray(t, dtype=float) + 0.0, math.inf),
    "sqrt": (lambda t: np.sqrt(np.asarray(t, dtype=float)), math.inf),
    "square": (lambda t: np.square(np.asarray(t, dtype=float)), math.inf),
    "saturating": (lambda t: np.asarray(t, dtype=float)
                   / (1.0 + np.asarray(t, dtype=float)), 1.0),
}

BUILTIN_GAUGES = tuple(_BUILTIN)


def builtin_gauge(name, domain=RAY):
    """One of the named example gauges: identity, sqrt, square, saturating."""
    if name not in _BUILTIN:
        raise DomainError(f"unknown gauge {name!r}; pick one of {sorted(_BUILTIN)}")
    fn, limit = _BUILTIN[name]
    return OmegaGauge(fn, domain, None if domain == UNIT else limit, label=name)


def table_gauge(xs, ys):
    """Piecewise-linear gauge through the given knots.

    The table must start at (0, 0) with strictly increasing columns.  Beyond
    the last knot the final segment is continued linearly; the domain tag is
    ``unit`` when the table ends exactly at 1, else ``ray``.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise DomainError("gauge table needs two equal-length columns, >= 2 rows")
    if xs[0] != 0.0 or ys[0] != 0.0:
        raise DomainError("gauge table must start at (0, 0)")
    if np.any(np.diff(xs) <= 0.0) or np.any(np.diff(ys) <= 0.0):
        raise DomainError("gauge table must be strictly increasing")
    slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])

    def fn(t):
        t = np.asarray(t, dtype=float)
        inside = np.interp(t, xs, ys)
        beyond = ys[-1] + slope * (t - xs[-1])
        return np.where(t <= xs[-1], inside, beyond)

    if xs[-1] == 1.0:
        return OmegaGauge(fn, UNIT, None, label="table")
    return OmegaGauge(fn, RAY, math.inf, label="table")


@dataclass(frozen=True)
class OmegaViolation:
    condition: str  # "zero", "increasing" or "subadditive"
    x: float
    y: float | None
    lhs: float
    rhs: float


@dataclass(frozen=True)
class OmegaReport:
    passed: bool
    violation: OmegaViolation | None
    domain: str
    grid_size: int


def _gauge_grid(domain, grid_size):
    if domain == UNIT:
        return np.linspace(0.0, 1.0, grid_size)
    return np.concatenate(
        [[0.0], np.geomspace(1e-4, RAY_SAMPLING_CAP, grid_size - 1)]
    )


def omega_validate(gauge: OmegaGauge, grid_size=200):
    """Check the gauge conditions on a sample grid.

    Strict increase is checked on adjacent grid pairs and subadditivity on
    all grid pairs whose sum stays in the domain (ray domains are truncated
    to [0, 100] for sampling).  The report carries the first violating pair
    with its values; validation failures are report content, never errors.
    """
    if grid_size < 2:
        raise DomainError("grid_size must be at least 2")
    grid = _gauge_grid(gauge.domain, grid_size)
    vals = np.asarray(gauge.fn(grid), dtype=float)

    def fail(condition, x, y, lhs, rhs):
        violation = OmegaViolation(condition, x, y, float(lhs), float(rhs))
        return OmegaReport(False, violation, gauge.domain, grid_size)

    if abs(vals[0]) > 1e-12:
        return fail("zero", 0.0, None, vals[0], 0.0)
    bad = np.flatnonzero(~(vals[:-1] < vals[1:]))
    if bad.size:
        i = bad[0]
        return fail("increasing", float(grid[i]), float(grid[i + 1]),
                    vals[i], vals[i + 1])
    # pairs (i, j) with j >= i, scanned row-major in blocks of rows, so the
    # first violation found is the one a row-by-row scan meets first
    top = 1.0 + 1e-12 if gauge.domain == UNIT else math.inf
    n = len(grid)
    rows = max(1, _PAIR_BLOCK // n)
    for i0 in range(0, n, rows):
        sums = grid[i0:i0 + rows, None] + grid
        upper = np.arange(n) >= np.arange(i0, i0 + len(sums))[:, None]
        keep = upper & (sums <= top)
        lhs = np.asarray(gauge.fn(sums[keep]), dtype=float)
        rhs = (vals[i0:i0 + rows, None] + vals)[keep]
        bad = np.flatnonzero(lhs > rhs + 1e-12 * (1.0 + np.abs(rhs)))
        if bad.size:
            k = bad[0]
            i, j = divmod(int(np.flatnonzero(keep)[k]), n)
            return fail("subadditive", float(grid[i0 + i]), float(grid[j]),
                        lhs[k], rhs[k])
    return OmegaReport(True, None, gauge.domain, grid_size)


_BASE_METRICS = {
    "hyperbolic": (hyperbolic_distance, RAY),
    "euclidean": (euclidean_distance, RAY),
    "sphere": (sphere_distance, UNIT),
}


def snowflake_distance(gauge: OmegaGauge, base, x, y):
    """Distance gauge(d_base(x, y)) for base in hyperbolic/euclidean/sphere.

    The gauge's domain tag must match the value range of the base metric
    (``unit`` for the sphere, ``ray`` otherwise).  The composition is again
    a metric exactly when the gauge satisfies the gauge conditions.
    """
    try:
        dist, needed = _BASE_METRICS[base]
    except KeyError:
        raise DomainError(
            f"unknown base metric {base!r}; pick one of {sorted(_BASE_METRICS)}"
        ) from None
    if gauge.domain != needed:
        raise DomainError(
            f"gauge domain {gauge.domain!r} does not fit base {base!r} "
            f"(needs {needed!r})"
        )
    d = dist(x, y)
    out = gauge.fn(d)
    return float(out) if np.ndim(out) == 0 else np.asarray(out)


def normalize_euclidean_gauge(gauge: OmegaGauge, tol=1e-9, max_iter=200):
    """Rescale a ray gauge so that w(1) = min(1, w(inf)/2).

    Returns ``(scaled_gauge, alpha)`` where the scaled gauge is
    t -> w(alpha * t).  The scale is found by bisection on the increasing
    function w; the normalization is the canonical representative used when
    listing gauge-deformed Euclidean spaces without double counting.
    """
    if gauge.domain != RAY:
        raise DomainError("only ray gauges can be normalized this way")
    limit = gauge.limit_at_infinity
    if limit is None or not limit > 0.0:
        raise DomainError("gauge must declare a positive limit at infinity")
    target = min(1.0, 0.5 * limit)

    hi = 1.0
    for _ in range(max_iter):
        if float(gauge.fn(hi)) >= target:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("could not bracket the normalization scale")
    lo = 0.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if float(gauge.fn(mid)) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    alpha = 0.5 * (lo + hi)
    if abs(float(gauge.fn(alpha)) - target) > tol * (1.0 + target):
        raise ConvergenceError("bisection did not reach the normalization target")

    fn = gauge.fn

    def scaled(t):
        return fn(alpha * np.asarray(t, dtype=float))

    out = OmegaGauge(scaled, RAY, limit, label=f"{gauge.label}-normalized")
    return out, float(alpha)


@dataclass(frozen=True)
class ProjectiveCounterexample:
    """Two triples on the sphere whose antipodal classes are pairwise
    equidistant in the projective metric, yet no orthogonal matrix matches
    them under any choice of representative signs.

    ``gram_margin`` is the smallest (over the 8 sign patterns) largest
    entrywise Gram deviation; ``verified`` asserts the full obstruction.
    """

    x: np.ndarray
    y: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    gram_margin: float
    verified: bool


def projective_counterexample(n=2):
    """The explicit 3-point rigidity failure of projective space, ambient
    sphere dimension ``n >= 2`` (coordinates are zero-padded beyond the
    first three)."""
    if n < 2:
        raise DimensionError("the counterexample needs ambient dimension >= 2")

    def pad(v):
        out = np.zeros(n + 1)
        out[: len(v)] = v
        return out

    s2 = math.sqrt(2.0)
    x = pad([1.0, 0.0, 0.0])
    y = pad([s2 / 2.0, s2 / 2.0, 0.0])
    z1 = pad([0.25, 0.25, math.sqrt(14.0) / 4.0])
    z2 = pad([0.25, -0.75, math.sqrt(6.0) / 4.0])

    # equal unsigned inner products => equal projective distances
    ips_match = (
        abs(float(x @ z1) - float(x @ z2)) <= 1e-15
        and abs(float(y @ z1) + float(y @ z2)) <= 1e-15
        and abs(float(y @ z1)) > 0.1
    )
    dp_match = all(
        abs(projective_distance(u1, v1) - projective_distance(u2, v2)) <= 1e-12
        for (u1, v1), (u2, v2) in [
            ((x, y), (x, y)),
            ((x, z1), (x, z2)),
            ((y, z1), (y, z2)),
        ]
    )

    # no sign pattern makes the two Gram matrices agree
    reference = gram.gram_matrix([x, y, z2])
    margin = math.inf
    for e0, e1, e2 in product((1.0, -1.0), repeat=3):
        candidate = gram.gram_matrix([e0 * x, e1 * y, e2 * z1])
        margin = min(margin, float(np.max(np.abs(candidate - reference))))

    verified = bool(ips_match and dp_match and margin > 1e-6)
    return ProjectiveCounterexample(x, y, z1, z2, float(margin), verified)


@_quiet_overflow
def sphere_fit_rotation(source, target, tol=1e-6):
    """Orthogonal matrix mapping source[i] -> target[i] on the sphere, or
    ``None`` when the Gram matrices differ beyond tolerance.  Points must be
    unit vectors; any other point raises DomainError.

    The construction mirrors the hyperbolic fit: orthonormal frames with
    matching pivots, canonical completion, polar projection.
    """
    src, tgt = _point_lists(source, target)
    _check_unit(src, "source")
    _check_unit(tgt, "target")
    scale = float(np.max(np.abs(src @ src.T), initial=0.0))
    if gram.gram_mismatch(src, tgt) > tol * (1.0 + scale):
        return None
    try:
        u, _ = gram.orthogonal_map(src, tgt)
    except GeometryError:
        return None
    return u
