"""The interpolating orthogonal map."""

import numpy as np
import pytest

from hgeom import GeometryError
from hgeom.gram import DEPENDENCY_TOL, orthogonal_map, polar_orthogonalize

from util import random_orthogonal


def test_empty_source_gives_identity():
    u, rank = orthogonal_map(np.zeros((0, 3)), np.zeros((0, 3)))
    assert rank == 0
    assert np.array_equal(u, np.eye(3))


def test_dependent_source_rows_are_skipped():
    rng = np.random.default_rng(20)
    src = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 0.0],
                    [0.0, 1.0, -1.0], [1.0, 3.0, -1.0]])
    q = random_orthogonal(rng, 3)
    u, rank = orthogonal_map(src, src @ q.T)
    assert rank == 2
    assert np.allclose(u @ src.T, (src @ q.T).T, atol=1e-14)
    assert np.allclose(u.T @ u, np.eye(3), atol=1e-15)


def test_frame_stops_once_it_spans():
    rng = np.random.default_rng(21)
    src = rng.standard_normal((7, 3))
    q = random_orthogonal(rng, 3)
    u, rank = orthogonal_map(src, src @ q.T)
    assert rank == 3
    assert np.allclose(u @ src.T, (src @ q.T).T, atol=1e-14)


def test_target_dependent_where_source_is_not():
    src = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    tgt = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(GeometryError, match="vector 1"):
        orthogonal_map(src, tgt)


@pytest.mark.parametrize("dim", (2, 3, 5, 8, 32))
def test_completion_is_orthogonal_and_maps_the_span(dim):
    # off the span U is some orthogonal map; on it, U sends each source row
    # to its target
    rng = np.random.default_rng(30 + dim)
    k = max(1, dim // 3)
    src = rng.standard_normal((k, dim))
    src = np.vstack([src, 2.0 * src[:1]])
    tgt = src @ random_orthogonal(rng, dim).T
    u, rank = orthogonal_map(src, tgt)
    assert rank == k
    assert np.allclose(u.T @ u, np.eye(dim), atol=1e-14)
    assert np.allclose(u @ src.T, tgt.T, atol=1e-13)


def _frame(vectors):
    # orthonormal basis of the rows' span by CGS2, in input order, stopping
    # once it spans; returns (frame, indices of the rows that added one)
    dim = vectors.shape[-1]
    frame, picked = np.empty((min(len(vectors), dim), dim)), []
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


def three_pass_reference(source, target):
    # source frame completed by the coordinate vectors, target frame on the
    # source pivots, then that frame completed the same way
    eye = np.eye(source.shape[-1])
    e_full, picked = _frame(np.vstack([source, eye]))
    pivots = [i for i in picked if i < len(source)]
    f_frame, _ = _frame(target[pivots])
    f_full, _ = _frame(np.vstack([f_frame, eye]))
    return polar_orthogonalize(f_full.T @ e_full), len(pivots)


@pytest.mark.parametrize("dim", (2, 3, 5, 8, 32))
def test_full_rank_matches_three_pass_reference(dim):
    rng = np.random.default_rng(40 + dim)
    for _ in range(20):
        src = rng.uniform(0.1, 10.0) * rng.standard_normal((dim + 2, dim))
        tgt = src @ random_orthogonal(rng, dim).T
        u, rank = orthogonal_map(src, tgt)
        ref, ref_rank = three_pass_reference(src, tgt)
        assert rank == ref_rank == dim
        assert np.max(np.abs(u - ref)) <= 1e-14
