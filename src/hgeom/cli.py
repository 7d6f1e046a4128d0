"""Command-line front end.

Points on the command line are bracketed comma-separated decimals, e.g.
``[1,0.5]``; larger inputs travel as JSON files.  JSON output uses canonical
key order; numbers print with 15 significant digits by default and 17 with
``--exact``.  Exit codes: 0 success, 2 usage/domain error, 3 hypothesis
violation (non-isometric fit input).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import geodesy, homogeneity, isometry
from .core import (
    _count,
    euclidean_distance,
    hyperbolic_distance,
    poincare_coords,
    projective_distance,
    sphere_distance,
)
from .errors import GeometryError, PartialIsometryError


def _parse_point(text):
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    try:
        coords = [float(part) for part in body.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise GeometryError(f"cannot parse point {text!r}: {exc}") from None
    if not coords:
        raise GeometryError(f"point {text!r} has no coordinates")
    return np.asarray(coords, dtype=float)


def _check_dim(args, *points):
    if args.dim is not None:
        for p in points:
            if p.shape[-1] != args.dim:
                raise GeometryError(
                    f"point has {p.shape[-1]} coordinates, --dim says {args.dim}"
                )


def _sig(args):
    return 17 if args.exact else 15


def _fmt(value, sig):
    return f"{float(value):.{sig}g}"


def _round_floats(obj, sig):
    if isinstance(obj, float):
        return float(_fmt(obj, sig))
    if isinstance(obj, dict):
        return {k: _round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, sig) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist(), sig)
    if isinstance(obj, (np.floating,)):
        return float(_fmt(float(obj), sig))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _emit_json(obj, args):
    print(json.dumps(_round_floats(obj, _sig(args)), sort_keys=True, indent=2))


def cmd_dist(args):
    x = _parse_point(args.x)
    y = _parse_point(args.y)
    _check_dim(args, x, y)
    if args.metric == "hyperbolic":
        d = hyperbolic_distance(x, y)
    elif args.metric == "euclidean":
        d = euclidean_distance(x, y)
    elif args.metric == "sphere":
        d = sphere_distance(x, y)
    else:
        d = projective_distance(x, y)
    print(_fmt(d, _sig(args)))
    return 0


def cmd_geodesic(args):
    a = _parse_point(args.a)
    b = _parse_point(args.b)
    _check_dim(args, a, b)
    samples = _count(args.samples, "samples", 2)
    line = geodesy.line_through(a, b)
    total = hyperbolic_distance(a, b)
    ts = np.linspace(0.0, total, samples)
    pts = geodesy.geodesic_point(line, ts)
    disk = poincare_coords(pts)
    n = a.shape[-1]
    sig = _sig(args)
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)] + [
        f"p{i}" for i in range(1, n + 1)
    ]
    print(",".join(header))
    for t, p, q in zip(ts, pts, disk):
        row = [t, *p.tolist(), *q.tolist()]
        print(",".join(_fmt(v, sig) for v in row))
    return 0


def cmd_fit(args):
    with open(args.pairs_file, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        source = np.asarray(payload["source"], dtype=float)
        target = np.asarray(payload["target"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise GeometryError(f"bad pairs file: {exc}") from None
    result = isometry.fit_isometry(source, target, tol=args.tol)
    _emit_json(
        {
            "a": result.isometry.a,
            "U": result.isometry.U,
            "unique": result.unique,
            "max_residual": result.max_residual,
        },
        args,
    )
    return 0


def cmd_parallel(args):
    a = _parse_point(args.a)
    b = _parse_point(args.b)
    _check_dim(args, a, b)
    if not args.mu:
        raise GeometryError("give at least one --mu value")
    lines = []
    gaps = []
    for mu in args.mu:
        line = geodesy.parallel_family(a, b, mu)
        gap, _, _ = geodesy.curve_min_gap(
            lambda t, L=line: geodesy.geodesic_point(L, t),
            lambda t: geodesy.two_vector_point(a, b, t),
            samples=args.samples,
        )
        lines.append({"base": line.a, "direction": line.z, "mu": float(mu)})
        gaps.append(float(gap))
    _emit_json({"lines": lines, "min_gaps": gaps}, args)
    return 0


def cmd_rigidity(args):
    cs = args.c or [0.5, 0.9, 1.0, 1.1, 2.0]
    ts = args.t or [1.01, 1.1, 2.0, 5.0, 10.0]
    table = [[isometry.dilation_residual(c, t) for t in ts] for c in cs]
    compatible = [max(row) <= 1e-10 for row in table]
    _emit_json(
        {
            "c_values": [float(c) for c in cs],
            "t_grid": [float(t) for t in ts],
            "residuals": table,
            "compatible": compatible,
        },
        args,
    )
    return 0


def _load_gauge(args):
    if args.table:
        with open(args.table, "r", encoding="utf-8") as fh:
            rows = json.load(fh)
        try:
            xs = [float(r[0]) for r in rows]
            ys = [float(r[1]) for r in rows]
        except (TypeError, ValueError, IndexError) as exc:
            raise GeometryError(f"bad gauge table: {exc}") from None
        return homogeneity.table_gauge(xs, ys)
    return homogeneity.builtin_gauge(args.gauge, domain=args.domain)


def cmd_omega(args):
    gauge = _load_gauge(args)
    report = homogeneity.omega_validate(gauge, grid_size=args.grid_size)
    payload = {
        "gauge": gauge.label,
        "domain": report.domain,
        "grid_size": report.grid_size,
        "passed": report.passed,
        "violation": asdict(report.violation) if report.violation else None,
    }
    _emit_json(payload, args)
    return 0


def cmd_counterexample(args):
    record = homogeneity.projective_counterexample(args.dim)
    _emit_json(
        {
            "x": record.x,
            "y": record.y,
            "z1": record.z1,
            "z2": record.z2,
            "inner_products": {
                "x_z1": float(record.x @ record.z1),
                "x_z2": float(record.x @ record.z2),
                "y_z1": float(record.y @ record.z1),
                "y_z2": float(record.y @ record.z2),
            },
            "gram_margin": record.gram_margin,
            "verified": record.verified,
        },
        args,
    )
    return 0


def cmd_sphere_radius(args):
    print(_fmt(geodesy.sphere_euclidean_radius(args.r), _sig(args)))
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--exact", action="store_true",
                        help="print 17 significant digits instead of 15")
    # for the subcommands that read points from the command line
    dims = argparse.ArgumentParser(add_help=False)
    dims.add_argument("--dim", type=int, default=None,
                      help="expected point dimension (validated when given)")

    parser = argparse.ArgumentParser(
        prog="hgeom",
        description="Hyperbolic-geometry calculator: distances, geodesics, "
                    "isometry fitting, parallels, rigidity, and gauges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", parents=[common, dims],
                       help="distance between two points")
    p.add_argument("--metric", default="hyperbolic",
                   choices=["hyperbolic", "euclidean", "sphere", "projective"])
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("geodesic", parents=[common, dims],
                       help="sample the geodesic between two points as CSV")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--samples", type=int, default=17)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("fit", parents=[common],
                       help="fit an isometry to a JSON file of point pairs")
    p.add_argument("pairs_file")
    p.add_argument("--tol", type=float, default=isometry.FIT_DISTANCE_TOL)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("parallel", parents=[common, dims],
                       help="disjoint lines through the origin for a "
                            "two-vector-form line")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--mu", type=float, action="append", default=[])
    p.add_argument("--samples", type=int, default=10_000)
    p.set_defaults(func=cmd_parallel)

    p = sub.add_parser("rigidity", parents=[common],
                       help="dilation-rigidity residual table")
    p.add_argument("--c", type=float, action="append", default=[])
    p.add_argument("--t", type=float, action="append", default=[])
    p.set_defaults(func=cmd_rigidity)

    p = sub.add_parser("omega", parents=[common], help="validate a gauge")
    p.add_argument("--gauge", default="identity",
                   help=f"builtin gauge name {homogeneity.BUILTIN_GAUGES}")
    p.add_argument("--table", default=None,
                   help="JSON file with [[x, y], ...] knots (overrides --gauge)")
    p.add_argument("--domain", default="ray", choices=["ray", "unit"])
    p.add_argument("--grid-size", type=int, default=200)
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("counterexample", parents=[common],
                       help="the projective 3-point rigidity failure")
    p.add_argument("--dim", type=int, default=2,
                   help="dimension of the ambient sphere (default 2)")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("sphere-radius", parents=[common],
                       help="Euclidean radius of the hyperbolic sphere of "
                            "radius r around the origin")
    p.add_argument("r", type=float)
    p.set_defaults(func=cmd_sphere_radius)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PartialIsometryError as exc:
        print(f"error: input is not a partial isometry: {exc}", file=sys.stderr)
        return 3
    except (GeometryError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
