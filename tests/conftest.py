"""Shared test helpers."""

import numpy as np

import carnotiso as ci


def quaternionic():
    """H-type group with m = 4, k = 3 from the quaternion units i, j, k."""
    li = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], float)
    lj = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], float)
    lk = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], float)
    return ci.h_type(np.stack([li, lj, lk]))
