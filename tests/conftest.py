"""Shared test helpers."""

import numpy as np

import carnotiso as ci
from carnotiso import geodesics, sampling


def quaternionic():
    """H-type group with m = 4, k = 3 from the quaternion units i, j, k."""
    li = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], float)
    lj = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], float)
    lk = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], float)
    return ci.h_type(np.stack([li, lj, lk]))


def close_to(p, q, tol=1e-12):
    """Both layers of GroupPoints p and q agree under np.allclose with atol = tol."""
    return (np.allclose(p.layer1, q.layer1, atol=tol)
            and np.allclose(p.layer2, q.layer2, atol=tol))


def cut_ball_points(spec, x, rng, count):
    """(a, t) of geodesics._cut_ball_blocks' count points drawn as one block: the one-shot draw."""
    block = sampling.BLOCK
    sampling.BLOCK = count
    try:
        (a, t), = geodesics._cut_ball_blocks(spec, x, rng, count)
    finally:
        sampling.BLOCK = block
    return a, t


def region_cube(box):
    """(lo, hi) of the cube [-r1, r1]^dim1 x [lo2, hi2] around a sampled region.

    The radial draw makes no layer-1 coordinates; tests that need them draw this cube.
    """
    r1 = np.full(box.dim1, box.r1)
    return np.concatenate([-r1, box.lo2]), np.concatenate([r1, box.hi2])
