"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` rebinds every module attribute that holds one of the
target functions (including the ones other modules imported by name, and the
base-metric table of ``homogeneity``) to a wrapper that records a span:
name, parent span, start, end and item count.  Spans stay in memory in flat
arrays; ``Tracer.summary`` reduces them at the end of the run.
"""

from __future__ import annotations

import dataclasses
import math
import time
from array import array

import numpy as np

clock = time.perf_counter

MODULES = ("_dd", "core", "isometry", "gram", "geodesy", "homogeneity", "cli")
TARGETS = (
    ("_dd", "minkowski_excess"),
    ("core", "hyperbolic_distance"),
    ("isometry", "translation_apply"),
    ("isometry", "isometry_apply"),
    ("isometry", "isometry_compose"),
    ("isometry", "isometry_invert"),
    ("isometry", "fit_isometry"),
    ("isometry", "_decompose_action"),
    ("gram", "gram_mismatch"),
    ("gram", "orthogonal_map"),
    ("gram", "polar_orthogonalize"),
    ("geodesy", "curve_min_gap"),
    ("geodesy", "line_min_gap"),
    ("geodesy", "geodesic_point"),
    ("homogeneity", "omega_validate"),
    ("homogeneity", "snowflake_distance"),
    ("homogeneity", "normalize_euclidean_gauge"),
    ("cli", "main"),
)


def _items(args):
    """Leading (batch) size of the array arguments; 1 for scalars."""
    shapes = [np.shape(a) for a in args[:2] if isinstance(a, (np.ndarray, list))]
    try:
        lead = np.broadcast_shapes(*shapes)[:-1] if shapes else ()
    except ValueError:
        return 1
    return math.prod(lead)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.items = array("q")
        self.stack: list[int] = []
        self._undo: list = []

    def _id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn):
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = len(self.t0)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.items.append(_items(args))
            self.t1.append(0.0)
            self.stack.append(idx)
            self.t0.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.t1[idx] = clock()
                self.stack.pop()

        traced.__wrapped__ = fn
        return traced

    def wrap_gauge(self, gauge):
        return dataclasses.replace(gauge, fn=self.wrap("gauge.fn", gauge.fn))

    def install(self, hg):
        # a module or function a later version drops is skipped, not an error
        mods = [hg] + [getattr(hg, m) for m in MODULES if hasattr(hg, m)]
        for mod_name, fn_name in TARGETS:
            orig = getattr(getattr(hg, mod_name, None), fn_name, None)
            if orig is None:
                continue
            w = self.wrap(f"{mod_name}.{fn_name}", orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, w)
                        self._undo.append((setattr, mod, attr, orig))
                    elif isinstance(val, dict):
                        for k, v in val.items():
                            if isinstance(v, tuple) and any(e is orig for e in v):
                                val[k] = tuple(w if e is orig else e for e in v)
                                self._undo.append((dict.__setitem__, val, k, v))

    def uninstall(self):
        while self._undo:
            op, obj, key, val = self._undo.pop()
            op(obj, key, val)

    # -- reduction ------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.t1) - np.frombuffer(self.t0)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return name, parent, dur, dur - child

    def nearest(self, name, parent, target):
        """Index of each span's nearest ancestor called ``target``, or -1."""
        res = np.full(len(name), -1)
        if target not in self.names:
            return res
        tid = self.names.index(target)
        cur = parent.copy()
        while np.any(cur >= 0):
            safe = np.where(cur >= 0, cur, 0)
            hit = (cur >= 0) & (name[safe] == tid) & (res < 0)
            res[hit] = cur[hit]
            cur = np.where(cur >= 0, parent[safe], -1)
        return res

    def summary(self):
        """Per-layer numbers: self times, nested call counts, fit stages."""
        name, parent, dur, self_t = self.arrays()
        items = np.frombuffer(self.items, dtype=np.int64)

        def sel(n):
            return name == (self.names.index(n) if n in self.names else -1)

        def self_s(n):
            return float(self_t[sel(n)].sum())

        def per_call(child, anc):
            calls = int(sel(anc).sum())
            nested = int((sel(child) & (self.nearest(name, parent, anc) >= 0)).sum())
            return nested / calls if calls else 0.0

        mk = sel("_dd.minkowski_excess")
        mk_self = self_t[mk].sum()
        out = {
            "core.hyperbolic_distance.self_s": self_s("core.hyperbolic_distance"),
            "dd.minkowski_excess.self_s": float(mk_self),
            "dd.minkowski_excess.batch1_share":
                float(self_t[mk & (items == 1)].sum() / mk_self) if mk_self else 0.0,
            "isometry.translation_apply.self_s": self_s("isometry.translation_apply"),
            "isometry.isometry_apply.self_s": self_s("isometry.isometry_apply"),
            "isometry.isometry_compose.self_s": self_s("isometry.isometry_compose"),
            "isometry.isometry_compose.fit_calls":
                per_call("isometry.fit_isometry", "isometry.isometry_compose"),
            "gram.orthogonal_map.self_s": self_s("gram.orthogonal_map"),
            "gram.polar_orthogonalize.self_s": self_s("gram.polar_orthogonalize"),
            "homogeneity.omega_validate.gauge_calls":
                per_call("gauge.fn", "homogeneity.omega_validate"),
            "homogeneity.omega_validate.self_s": self_s("homogeneity.omega_validate"),
            "geodesy.curve_min_gap.dist_calls":
                per_call("core.hyperbolic_distance", "geodesy.curve_min_gap"),
            "geodesy.curve_min_gap.self_s": self_s("geodesy.curve_min_gap"),
        }
        out.update(self._fit_stages(name, parent, dur, self_t))
        return out

    def _fit_stages(self, name, parent, dur, self_t):
        """Split fit_isometry's time by the layer calls it makes, in order:
        distance gate, translation to the base points, Gram gate, frame
        (orthogonal_map), decomposition, and residual."""
        stages = dict.fromkeys(
            ("gate_s", "translate_s", "gram_gate_s", "frame_s", "decompose_s",
             "residual_s", "self_s"), 0.0)
        if "isometry.fit_isometry" not in self.names:
            return {f"isometry.fit_isometry.{k}": v for k, v in stages.items()}
        fid = self.names.index("isometry.fit_isometry")
        fits = np.flatnonzero(name == fid)
        stages["self_s"] = float(self_t[fits].sum())
        pre = {"core.hyperbolic_distance": "gate_s",
               "isometry.translation_apply": "translate_s",
               "gram.gram_mismatch": "gram_gate_s"}
        post = {"isometry._decompose_action": "decompose_s",
                "isometry.translation_apply": "decompose_s",
                "gram.polar_orthogonalize": "decompose_s",
                "isometry.isometry_apply": "residual_s",
                "core.hyperbolic_distance": "residual_s"}
        children = np.flatnonzero(np.isin(parent, fits))
        framed = set()
        for c in children:
            p = int(parent[c])
            n = self.names[name[c]]
            if n == "gram.orthogonal_map":
                framed.add(p)
                stage = "frame_s"
            else:
                stage = (post if p in framed else pre).get(n)
            if stage:
                stages[stage] += float(dur[c])
        return {f"isometry.fit_isometry.{k}": v for k, v in stages.items()}
