"""Orthonormal frames, Gram comparisons, and interpolating orthogonal maps.

A finite map fixing the origin preserves hyperbolic distances exactly when it
preserves all pairwise inner products, so building the linear part of an
isometry reduces to mapping one orthonormal frame onto another with matching
Gram data.  One routine builds every frame: classical Gram-Schmidt run twice
per vector ("CGS2", as stable as modified Gram-Schmidt with
reorthogonalization).  The completion of a partial frame is deterministic:
the same routine applied to the frame followed by the ordered coordinate
vectors.
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryError

# Residual norm below this (relative to the vector size) counts as linearly
# dependent during orthonormalization.
DEPENDENCY_TOL = 1e-12


def gram_matrix(vectors):
    """Matrix of pairwise inner products of the given row vectors."""
    v = np.asarray(vectors, dtype=float)
    return v @ v.T


def gram_mismatch(a, b):
    """Largest entrywise deviation between the two Gram matrices."""
    return float(np.max(np.abs(gram_matrix(a) - gram_matrix(b)))) if len(a) else 0.0


def orthonormal_frame(vectors):
    """Orthonormal basis of the span of ``vectors`` (rows), in input order.

    Rows whose component orthogonal to the frame so far is negligible are
    skipped; the scan stops once the frame spans the whole space.  Returns
    ``(frame, picked)`` where ``picked`` lists the indices of the input
    vectors that contributed a new direction.
    """
    vectors = np.asarray(vectors, dtype=float)
    dim = vectors.shape[-1]
    frame = np.empty((min(len(vectors), dim), dim))
    picked: list[int] = []
    for i, v in enumerate(vectors):
        if len(picked) == dim:
            break
        f = frame[: len(picked)]
        w = v - f.T @ (f @ v)
        w -= f.T @ (f @ w)
        nw = np.linalg.norm(w)
        if nw > DEPENDENCY_TOL * max(1.0, np.linalg.norm(v)):
            frame[len(picked)] = w / nw
            picked.append(i)
    return frame[: len(picked)], picked


def polar_orthogonalize(m):
    """Nearest orthogonal matrix (polar factor) of ``m``."""
    w, _, vt = np.linalg.svd(np.asarray(m, dtype=float))
    return w @ vt


def orthogonal_map(source, target):
    """Orthogonal matrix U with U @ source[i] ~= target[i].

    Assumes the two Gram matrices already agree (the caller gates on that).
    The map sends the orthonormal frame of the source span to the frame of
    the target span built with the same pivots, and pairs the canonically
    completed complement bases with each other.  Returns ``(U, rank)``.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    eye = np.eye(source.shape[-1])
    e_full, picked = orthonormal_frame(np.vstack([source, eye]))
    pivots = [i for i in picked if i < len(source)]
    f_frame, kept = orthonormal_frame(target[pivots])
    if len(kept) < len(pivots):
        bad = next(i for j, i in enumerate(pivots) if j not in kept)
        raise GeometryError(f"vector {bad} is linearly dependent on its predecessors")
    f_full, _ = orthonormal_frame(np.vstack([f_frame, eye]))
    return polar_orthogonalize(f_full.T @ e_full), len(pivots)
