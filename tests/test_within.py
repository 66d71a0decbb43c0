"""CC ball membership by the half-height table: the kernel's decisions, bit for bit.

CCMetric.within decides N <= r from the unit sphere's tabulated half height
and sends only uncertain points to norm_arrays. These tests compare it with
norm_arrays(l1, l2) <= r on the Monte Carlo boxes of the evidence and on
points within a few ulp of CC spheres, and the table with mpmath.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import carnotiso as ci
from carnotiso import geodesics, measures, metrics, sampling

SPECS = {"h1": ci.heisenberg(1), "h2": ci.heisenberg(2)}
RHO = 2.0 - math.sqrt(2.0)
AGREEMENT_POINTS = 1 << 22
BLOCK = 1 << 16


def kernel_within(metric, l1, l2, r):
    return metric.norm_arrays(l1, l2) <= r


def node_phi(u):
    """phi with sqrt(1 - sin phi / phi) = u, by bisection (u > 0)."""
    lo, hi = np.zeros_like(u), np.full_like(u, np.pi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = metrics._one_minus_sinc(mid) < u * u
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def mp_half_height(u):
    """40-digit T at u: Newton on 1 - sin phi / phi = u^2, then (2 phi - sin 2 phi) / (2 phi^2)."""
    with mp.workdps(40 + max(0, int(-4 * math.log10(u)))):
        w, p = mp.mpf(u) ** 2, mp.mpf(float(node_phi(np.array([u]))[0]))
        for _ in range(8):
            p -= (1 - mp.sin(p) / p - w) / ((mp.sin(p) - p * mp.cos(p)) / p ** 2)
        return (2 * p - mp.sin(2 * p)) / (2 * p * p)


class TestTable:
    def test_nodes_match_mpmath(self):
        # every 16th node, the two first and the last: the error PROFILE_EPS absorbs
        k = np.concatenate([[1, 2], np.arange(16, metrics.PROFILE_CELLS + 1, 16)])
        u = k / metrics.PROFILE_CELLS
        got = metrics._half_height(u)
        worst = max(abs(mp.mpf(float(g)) - mp_half_height(float(x))) for g, x in zip(got, u))
        assert worst <= 1e-15

    def test_cells_bound_the_profile(self):
        # T at points inside each cell lies in [low + eps, high - eps]
        low, high = metrics._profile_bounds()
        cells = metrics.PROFILE_CELLS
        assert low.shape == high.shape == (cells + 1,)
        assert low[0] == -math.inf and high[0] == math.inf
        u = np.random.default_rng(0).uniform(1.0 / cells, 1.0, 1 << 16)
        u = np.concatenate([u, [math.sqrt(1.0 - 2.0 / math.pi), 1.0]])
        k = (u * cells).astype(np.intp)
        t = metrics._half_height(u)
        assert np.all(low[k] + metrics.PROFILE_EPS <= t)
        assert np.all(t <= high[k] - metrics.PROFILE_EPS)
        assert np.max(high[1:]) == 2.0 / math.pi + metrics.PROFILE_EPS


def _box_agreement(metric, box, shift, radius, seed):
    """Blocks of a uniform box draw; within and the kernel must agree on every point."""
    rng = np.random.default_rng(seed)
    d1 = len(box.lo1)
    inside = 0
    for _ in range(AGREEMENT_POINTS // BLOCK):
        pts = rng.uniform(box.lo, box.hi, (BLOCK, len(box.lo)))
        l1, l2 = pts[:, :d1], pts[:, d1:] - shift
        want = kernel_within(metric, l1, l2, radius)
        assert np.array_equal(metric.within(l1, l2, radius), want)
        inside += int(np.count_nonzero(want))
    return inside


@pytest.mark.parametrize("name", list(SPECS))
class TestAgreement:
    """2^22 points of each CC box of the evidence, against the full kernel."""

    def test_unit_ball(self, name):
        metric = ci.CCMetric(SPECS[name])
        box = measures.ball_set(metric).bounding_box
        assert _box_agreement(metric, box, 0.0, 1.0, seed=21) > 0

    def test_bump_and_base_ball(self, name):
        # the bump membership at 2 - sqrt(2) and the base ball on the bump box,
        # the two tests of bump_ratio
        metric = ci.CCMetric(SPECS[name])
        apex, _ = ci.isodiametric._apex_and_bound(metric)
        box = measures.ball_set(metric, center=apex, radius=RHO).bounding_box
        assert _box_agreement(metric, box, apex.layer2, RHO, seed=22) > 0
        assert _box_agreement(metric, box, 0.0, 1.0, seed=22) > 0

    def test_cut_ball_maximum(self, name):
        # verify_assumption_C's maximum is the full kernel's, and within at
        # each chunk maximum is the kernel's decision on every sample
        spec = SPECS[name]
        metric, x = ci.CCMetric(spec), geodesics.cut_point(spec, 1.0)

        def chunk(rng, count):
            blocks = [(y1, y2, metric.norm_arrays(y1, y2))
                      for y1, y2, _ in geodesics._cut_ball_blocks(spec, x, rng, count)]
            best = max(norms.max() for _, _, norms in blocks)
            for y1, y2, norms in blocks:
                assert np.array_equal(metric.within(y1, y2, best), norms <= best)
            return float(best)

        want = max(sampling.map_chunks(23, AGREEMENT_POINTS, chunk))
        got = geodesics.verify_assumption_C(spec, AGREEMENT_POINTS, 23).sampled_max_roundtrip
        assert got == want


def sphere_shells(n, radius, count, seed):
    """Points of CC spheres of radius r (1 + k 1e-15), k in -8..8 and +-1e3, a few ulp apart.

    The turning angles include the cell nodes, the peak pi/2, 0, pi and
    random angles; the directions are random.
    """
    rng = np.random.default_rng(seed)
    cells = metrics.PROFILE_CELLS
    nodes = node_phi(np.arange(1, cells + 1) / cells)
    phi = np.concatenate([nodes, [0.0, math.pi / 2, math.pi, 1e-3, math.pi - 1e-9],
                          rng.uniform(0.0, math.pi, count)])
    phi *= rng.choice([-1.0, 1.0], phi.size)
    chi = rng.standard_normal((phi.size, 2 * n))
    chi /= np.linalg.norm(chi, axis=1, keepdims=True)
    shells = [radius * (1.0 + k * 1e-15) for k in (*range(-8, 9), -1000, 1000)]
    z, t = zip(*(geodesics.sphere_point_arrays(n, chi, phi, r) for r in shells))
    return np.concatenate(z), np.concatenate(t)


class TestBoundary:
    @pytest.mark.parametrize("name", list(SPECS))
    @pytest.mark.parametrize("radius", [1.0, RHO, math.sqrt(2.0), 0.37])
    def test_sphere_points(self, name, radius):
        spec = SPECS[name]
        metric = ci.CCMetric(spec)
        z, t = sphere_shells(spec.n, radius, 4096, seed=31)
        want = kernel_within(metric, z, t, radius)
        assert 0 < np.count_nonzero(want) < want.size
        assert np.array_equal(metric.within(z, t, radius), want)

    def test_edges(self):
        metric = ci.CCMetric(SPECS["h1"])
        # a NaN |z| or t has norm NaN, which no ball holds: rows 3 to 6 and the
        # last three. A NaN |z| makes the ratio NaN, as the identity's 0 / 0 does
        z = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [np.nan, 0.0], [np.nan, 0.0],
                      [np.nan, 0.0], [0.0, 0.0], [np.inf, 0.0], [0.6, 0.8], [1e-170, 0.0],
                      [1.0 + 1e-9, 0.0], [0.0, 0.0], [np.nextafter(1.0, 0.0), 0.0],
                      [np.nan, 0.0], [0.3, np.nan], [np.nan, np.nan]])
        t = np.array([[0.0], [1.0 / math.pi], [0.0], [0.0], [0.5], [np.inf], [np.nan], [0.0],
                      [np.inf], [0.3], [0.0], [-1.0 / math.pi], [1e-9],
                      [-0.5], [0.0], [np.nan]])
        nan = np.isnan(z).any(axis=1) | np.isnan(t[:, 0])
        with np.errstate(invalid="ignore", divide="ignore"):
            assert np.array_equal(np.isnan(metric.norm_arrays(z, t)), nan)
        for radius in (1.0, 1e-101, 1e101, math.inf, 0.0, 1.0 - 1e-16):
            with np.errstate(invalid="ignore", over="ignore"):
                want = kernel_within(metric, z, t, radius)
                got = metric.within(z, t, radius)
            assert np.array_equal(got, want) and not got[nan].any(), radius
        # one point, and points in a (4, 3) grid
        assert metric.within(z[2], t[2], 1.0) == (metric.norm_arrays(z[2], t[2]) <= 1.0)
        grid = metric.within(z[:12].reshape(4, 3, 2), t[:12].reshape(4, 3, 1), 1.0)
        with np.errstate(invalid="ignore"):
            assert np.array_equal(grid, kernel_within(metric, z[:12], t[:12], 1.0).reshape(4, 3))

    @pytest.mark.parametrize("metric", [ci.DinfMetric(SPECS["h1"]), ci.GaugeMetric(SPECS["h1"])],
                             ids=["dinf", "gauge"])
    def test_default_is_the_norm(self, metric):
        pts = np.random.default_rng(4).uniform(-1.5, 1.5, (1000, 3))
        l1, l2 = pts[:, :2], pts[:, 2:]
        assert np.array_equal(metric.within(l1, l2, 1.0), metric.norm_arrays(l1, l2) <= 1.0)
