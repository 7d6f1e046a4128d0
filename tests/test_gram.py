"""Orthonormal frames and the interpolating orthogonal map."""

import numpy as np
import pytest

from hgeom import GeometryError
from hgeom.gram import orthogonal_map, orthonormal_frame

from util import random_orthogonal


def test_empty_source_gives_identity():
    u, rank = orthogonal_map(np.zeros((0, 3)), np.zeros((0, 3)))
    assert rank == 0
    assert np.array_equal(u, np.eye(3))


def test_dependent_source_rows_are_skipped():
    rng = np.random.default_rng(20)
    src = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 0.0],
                    [0.0, 1.0, -1.0], [1.0, 3.0, -1.0]])
    frame, picked = orthonormal_frame(src)
    assert picked == [0, 3]
    assert np.allclose(frame @ frame.T, np.eye(2), atol=1e-15)
    q = random_orthogonal(rng, 3)
    u, rank = orthogonal_map(src, src @ q.T)
    assert rank == 2
    assert np.allclose(u @ src.T, (src @ q.T).T, atol=1e-14)
    assert np.allclose(u.T @ u, np.eye(3), atol=1e-15)


def test_frame_stops_once_it_spans():
    rng = np.random.default_rng(21)
    frame, picked = orthonormal_frame(rng.standard_normal((7, 3)))
    assert picked == [0, 1, 2]
    assert np.allclose(frame @ frame.T, np.eye(3), atol=1e-15)


def test_target_dependent_where_source_is_not():
    src = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    tgt = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(GeometryError, match="vector 1"):
        orthogonal_map(src, tgt)


def test_canonical_completion_pairs_ordered_coordinate_vectors():
    # source frame e3, completed by e1, e2; target frame e1, completed by
    # e2, e3: the complements are paired in that order
    u, rank = orthogonal_map([[0.0, 0.0, 2.0]], [[2.0, 0.0, 0.0]])
    assert rank == 1
    expected = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.allclose(u, expected, atol=1e-15)
