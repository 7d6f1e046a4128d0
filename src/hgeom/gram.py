"""The interpolating orthogonal map of both fits.

A map fixing the origin preserves hyperbolic or great-circle distances
exactly when it preserves inner products, so the linear part of a fit sends
an orthonormal frame of the source span onto the target frame with the same
Gram data.  One pass over the row pairs builds both frames by classical
Gram-Schmidt run twice per vector ("CGS2", as stable as modified
Gram-Schmidt with reorthogonalization); off the span the polar factor
supplies some orthogonal completion.
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryError

# Residual norm below this (relative to the vector size) counts as linearly
# dependent during orthonormalization.
DEPENDENCY_TOL = 1e-12


def polar_orthogonalize(m):
    """Nearest orthogonal matrix (polar factor) of ``m``."""
    w, _, vt = np.linalg.svd(np.asarray(m, dtype=float))
    return w @ vt


def _direction(frame, v):
    # unit CGS2 residual of v against frame's orthonormal rows; None if negligible
    w = v - frame.T @ (frame @ v)
    w -= frame.T @ (frame @ w)
    nw = np.linalg.norm(w)
    return w / nw if nw > DEPENDENCY_TOL * max(1.0, np.linalg.norm(v)) else None


def orthogonal_map(source, target):
    """Orthogonal matrix U with U @ source[i] ~= target[i].

    Assumes the two Gram matrices agree (both fits gate on distances first).
    Each source row that adds a direction to the source frame so far is
    paired with the direction its target row adds to the target frame; rows
    adding none are skipped, and the pass stops once the frames span.  U is
    the polar factor of the map between the frames, so off the span it is
    some orthogonal map, not a canonical one.  Returns ``(U, rank)``.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    dim = source.shape[-1]
    e = np.empty((min(len(source), dim), dim))
    f = np.empty_like(e)
    rank = 0
    for i, (v, w) in enumerate(zip(source, target)):
        if rank == dim:
            break
        if (ev := _direction(e[:rank], v)) is None:
            continue
        if (fw := _direction(f[:rank], w)) is None:
            raise GeometryError(f"vector {i} is linearly dependent on its predecessors")
        e[rank], f[rank] = ev, fw
        rank += 1
    if rank == 0:
        return np.eye(dim), 0
    return polar_orthogonalize(f[:rank].T @ e[:rank]), rank
