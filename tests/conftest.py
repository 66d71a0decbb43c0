"""Shared test helpers."""

import functools
import math

import mpmath as mp
import numpy as np

import carnotiso as ci
from carnotiso import measures, sampling


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


def fresh_cc_volume_cache(monkeypatch):
    """Give metrics._cc_volume an empty cache for this test, so that a patched rule is summed."""
    volume = functools.cache(ci.metrics._cc_volume.__wrapped__)
    monkeypatch.setattr(ci.metrics, "_cc_volume", volume)


def sphere_points(metric, shift, rng, count):
    """(a, t) of measures._sphere_blocks' count points drawn as one block: the one-shot draw.

    The draw yields its seed rows first, then that one block.
    """
    block = sampling.BLOCK
    sampling.BLOCK = count
    try:
        _, (a, t) = measures._sphere_blocks(metric, shift, rng, count)
    finally:
        sampling.BLOCK = block
    return a, t


def cut_ball_points(rng, count):
    """sphere_points of the CC cut ball B([0, 1/pi], 1), the same on every H^n."""
    return sphere_points(ci.CCMetric(ci.heisenberg(1)), 1.0 / math.pi, rng, count)


def region_cube(box):
    """(lo, hi) of the cube [-r1, r1]^dim1 x [lo2, hi2] around a sampled region.

    The radial draw makes no layer-1 coordinates; tests that need them draw this cube.
    The strata take their envelope's layer-2 box.
    """
    (lo2,), (hi2,) = box.envelope.lo2, box.envelope.hi2
    r1 = np.full(box.dim1, box.r1)
    return np.concatenate([-r1, lo2]), np.concatenate([r1, hi2])


def mp_unit_cc_norm(ratio):
    """60-digit CC norm of [z, t] with |z| = 1, t = ratio > 0: phi / sin phi at mu(phi) = ratio.

    Newton from pi - sqrt(pi / ratio) or 1.3, both above the root, where mu is
    increasing and convex, so the steps fall monotonically onto it.
    """
    with mp.workdps(60):
        r = mp.mpf(ratio)
        p = mp.pi - mp.sqrt(mp.pi / r) if r > 1 else mp.mpf(1.3)
        for _ in range(200):
            s = mp.sin(p)
            m = (2 * p - mp.sin(2 * p)) / (2 * s * s)
            step = (m - r) / (2 - 2 * m * mp.cos(p) / s)
            p -= step
            if abs(step) < mp.mpf(10) ** -55:
                return p / mp.sin(p)
        raise AssertionError(f"no 60-digit root at ratio {ratio}")
