"""Ball membership without the full kernel: the kernel's decisions, bit for bit.

within(l1, l2, r) is radial_within(a, b, r) on the squared layer norms (a, b)
= layer_squares(l1, l2). CCMetric._radial_bounds decides N <= r from the unit
sphere's tabulated half height; the d_inf and gauge _radial_bounds compare a
and b with r's thresholds outside a relative guard band. All three leave only
uncertain points to radial_norm. These tests compare within and radial_within
with norm_arrays(l1, l2) <= r on the Monte Carlo boxes of the evidence and on
points within a few ulp of spheres, check that the d_inf and gauge kernels
run on band points only, and check the CC table against mpmath.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import carnotiso as ci
from carnotiso import geodesics, groups, isodiametric, measures, metrics, sampling
from conftest import quaternionic

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


def _box_agreement(metric, box, shift, radius, seed, points=AGREEMENT_POINTS):
    """Blocks of a uniform box draw; within and the kernel must agree on every point.

    within is asked on the coordinates, and radial_within on their layer_squares.
    """
    rng = np.random.default_rng(seed)
    d1 = len(box.lo1)
    inside = 0
    for _ in range(points // BLOCK):
        pts = rng.uniform(box.lo, box.hi, (BLOCK, len(box.lo)))
        l1, l2 = pts[:, :d1], pts[:, d1:] - shift
        want = kernel_within(metric, l1, l2, radius)
        assert np.array_equal(metric.within(l1, l2, radius), want)
        assert np.array_equal(metric.radial_within(*metrics.layer_squares(l1, l2), radius), want)
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
        want = metric.norm_arrays(l1, l2) <= 1.0
        assert np.array_equal(metric.within(l1, l2, 1.0), want)
        # one 1-d point at a time, and the first 12 points as a (4, 3) grid
        assert 0 < np.count_nonzero(want[:12]) < 12
        assert all(metric.within(l1[i], l2[i], 1.0) == want[i] for i in range(12))
        grid = metric.within(l1[:12].reshape(4, 3, 2), l2[:12].reshape(4, 3, 1), 1.0)
        assert np.array_equal(grid, want[:12].reshape(4, 3))


# ---------------------------------------------------------------------------
# d_inf and gauge: squared layer norms against r's thresholds
# ---------------------------------------------------------------------------

HTYPE = groups.h_type(groups.standard_symplectic())
CHEAP = {
    "dinf-h1": ci.DinfMetric(SPECS["h1"]),
    "dinf-h1-c2": ci.DinfMetric(SPECS["h1"], c2=0.7),
    "dinf-h2": ci.DinfMetric(SPECS["h2"]),
    "dinf-h2-c2": ci.DinfMetric(SPECS["h2"], c2=0.7),
    "gauge-h1": ci.GaugeMetric(SPECS["h1"]),
    "gauge-h1-htype": ci.GaugeMetric(HTYPE),
    "gauge-quaternionic": ci.GaugeMetric(quaternionic()),
}
CHEAP_POINTS = 1 << 20


def evidence_boxes(metric):
    """(name, box, layer-2 shift, radius) of the four membership tests of the evidence.

    The unit ball (mc_measure), B(apex^-1, 1) (apex_reach's sampled_max), and
    on the bump box the bump at 2 - sqrt(2) and the unit ball (bump_ratio).
    """
    apex, _ = isodiametric._apex_and_bound(metric)
    apex_inv = groups.inv(metric.spec, apex)
    bump = measures.ball_set(metric, center=apex, radius=RHO).bounding_box
    return [("unit", measures.ball_set(metric).bounding_box, 0.0, 1.0),
            ("reach", measures.ball_set(metric, center=apex_inv).bounding_box,
             apex_inv.layer2, 1.0),
            ("bump", bump, apex.layer2, RHO),
            ("base", bump, 0.0, 1.0)]


@pytest.mark.parametrize("name", list(CHEAP))
def test_cheap_boxes_agree(name):
    """2^20 points of each d_inf and gauge evidence box, against the full kernel."""
    metric = CHEAP[name]
    for seed, (box_name, box, shift, radius) in enumerate(evidence_boxes(metric), 41):
        inside = _box_agreement(metric, box, shift, radius, seed, CHEAP_POINTS)
        assert 0 < inside < CHEAP_POINTS, box_name


def unit_sphere_points(metric, count, rng):
    """Points of the metric's unit sphere: each layer alone, corners, and random mixtures.

    d_inf: |z| = 1/c1 with |t| <= 1/c2^2, or |t| = 1/c2^2 with |z| <= 1/c1.
    gauge: |X| = w^(1/4), s |Z| = (1 - w)^(1/2) for w in [0, 1], ends included.
    Directions are random unit vectors, and the first coordinate axes.
    """
    d1, d2 = metric.spec.dim1, metric.spec.dim2

    def directions(dim):
        v = rng.standard_normal((count, dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v[: count // 4] = np.eye(1, dim)[0]
        return v

    frac = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, count - 2)])
    if isinstance(metric, ci.DinfMetric):
        a, b = 1.0 / metric.c1, (1.0 / metric.c2) ** 2
        half = count // 2
        n1 = np.where(np.arange(count) < half, a, a * frac)
        n2 = np.where(np.arange(count) < half, b * frac, b)
    else:
        n1, n2 = frac ** 0.25, np.sqrt(1.0 - frac) / metric.layer2_scale
    return n1[:, None] * directions(d1), n2[:, None] * directions(d2)


SPECIAL_ROWS = [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, np.inf), (-np.inf, np.nan),
                (np.inf, np.inf), (np.nan, np.nan)]


def shells(metric, radius, seed):
    """The unit sphere dilated by radius (1 + k 2^-52), k in -40..40, and NaN / inf rows.

    Dilation scales layer 1 by lambda and layer 2 by lambda^2, so each shell
    lies within a few ulp of the sphere of radius lambda, around both layer
    thresholds of r = radius. More shells at radius (1 + j g / 8), |j| <= 24
    and g = WITHIN_GUARD, straddle the edges of the guard band, which is g / 2
    wide in lambda for |z|^2 and g / 4 for |t|^2 and N^4. A radius that is 0,
    inf or NaN takes the unit shells.
    """
    z, t = unit_sphere_points(metric, 256, np.random.default_rng(seed))
    lam = radius if 0.0 < radius < math.inf else 1.0
    scales = lam * np.concatenate([1.0 + np.arange(-40, 41) * 2.0 ** -52,
                                   1.0 + np.arange(-24, 25) * metrics.WITHIN_GUARD / 8])
    with np.errstate(over="ignore", under="ignore"):
        l1 = np.concatenate([s * z for s in scales])
        l2 = np.concatenate([(s * s) * t for s in scales])
    d1, d2 = metric.spec.dim1, metric.spec.dim2
    special1 = np.array([[a] * d1 for a, _ in SPECIAL_ROWS])
    special2 = np.array([[b] * d2 for _, b in SPECIAL_ROWS])
    return np.concatenate([l1, special1]), np.concatenate([l2, special2])


RADII = [1.0, RHO, math.sqrt(2.0), 0.37, 1e-101, 1e101, 1e-60, 1e60, 0.0, math.inf, math.nan]


@pytest.mark.parametrize("name", list(CHEAP))
def test_cheap_shells(name):
    # every point of every shell is decided as the kernel decides it
    metric = CHEAP[name]
    for radius in RADII:
        l1, l2 = shells(metric, radius, seed=51)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            want = kernel_within(metric, l1, l2, radius)
            got = metric.within(l1, l2, radius)
            shared = metric.radial_within(*metrics.layer_squares(l1, l2), radius)
        assert np.array_equal(got, want) and np.array_equal(shared, want), radius
        assert not got[np.isnan(l1).any(axis=1) | np.isnan(l2).any(axis=1)].any(), radius
        if 1e-60 <= radius <= 1e60:  # beyond, squares leave the kernels' range
            assert 0 < np.count_nonzero(want) < want.size - len(SPECIAL_ROWS), radius


@pytest.mark.parametrize("metric", [ci.DinfMetric(SPECS["h1"]), ci.DinfMetric(SPECS["h1"], c2=0.7),
                                    ci.GaugeMetric(SPECS["h1"]), ci.CCMetric(SPECS["h1"])],
                         ids=["dinf", "dinf-c2", "gauge", "cc"])
def test_kernel_coordinate_range(metric):
    # the kernels square unscaled coordinates: at 1e-170 the squares underflow to 0 and
    # at 1e170 they overflow to inf; within inherits that range and stays bit for bit equal
    z = np.array([[1e-170, 0.0], [1e-170, 1e-170], [1e170, 0.0], [0.0, 0.0], [1e-170, 0.0],
                  [1e170, 1e170], [0.5, 0.0], [1e-170, 0.0], [0.0, 0.0]])
    t = np.array([[0.0], [1e-170], [0.0], [1e170], [1e170], [1e-170], [1e-170], [-1e-170],
                  [1e-170]])
    for radius in (1.0, 1e-170, 1e170, 1e-85, 1e85, 1e-40):
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            want = kernel_within(metric, z, t, radius)
            got = metric.within(z, t, radius)
        assert np.array_equal(got, want), radius
    # layer 2 too, CC's |t| = sqrt(|t|^2) included: the last row's t^2 underflows, so
    # every kernel reads it as the identity, while the scalar norm and distance
    # dilate it first and keep their value, 1e-85 times that of [0, 0; 1]
    with np.errstate(under="ignore"):
        assert metric.norm_arrays(z[-1], t[-1]) == 0.0
    tiny, origin = ci.point([0.0, 0.0], [1e-170]), ci.point([0.0, 0.0], [0.0])
    expected = 1e-85 * metric.norm(ci.point([0.0, 0.0], [1.0]))
    assert metric.norm(tiny) == pytest.approx(expected, rel=1e-15)
    assert metric.dist(origin, tiny) == metric.norm(tiny)


class TestFastPath:
    """The d_inf and gauge kernels run on band points only, and a bump block squares |z| once."""

    @pytest.mark.parametrize("name", list(CHEAP))
    def test_kernel_only_on_band(self, name, monkeypatch):
        metric = CHEAP[name]
        kernel, seen = metric.radial_norm, []

        def spy(a, b):
            seen.append((np.array(a), np.array(b)))
            return kernel(a, b)

        monkeypatch.setattr(metric, "radial_norm", spy)
        rng = np.random.default_rng(61)
        d1 = metric.spec.dim1
        for _, box, shift, radius in evidence_boxes(metric):
            pts = rng.uniform(box.lo, box.hi, (1 << 17, len(box.lo)))
            seen.clear()
            metric.within(pts[:, :d1], pts[:, d1:] - shift, radius)
            for a, b in seen:
                assert np.all(np.abs(kernel(a, b) / radius - 1.0) <= metrics.WITHIN_GUARD)
        # the spy sees the kernel: on radii beyond the thresholds' range, every point
        seen.clear()
        assert metric.within(pts[:2, :d1], pts[:2, d1:], 1e-200).shape == (2,)
        assert [a.size for a, _ in seen] == [2]
        # and no kernel call for the center or a far point
        seen.clear()
        far = np.full((2, d1), 10.0)
        far[0] = 0.0
        metric.within(far, np.zeros((2, metric.spec.dim2)), 1.0)
        assert seen == []

    @pytest.mark.parametrize("name", ["dinf-h1", "dinf-h2", "gauge-h1-htype", "cc-h1"])
    def test_bump_squares_layer1_once_per_block(self, name, monkeypatch):
        metric = CHEAP.get(name) or ci.CCMetric(SPECS["h1"])
        apex, _ = isodiametric._apex_and_bound(metric)
        d1, block = metric.spec.dim1, sampling.BLOCK
        sum_squares, rows = metrics._sum_squares, []

        def spy(x):
            # layer 1 of a whole block; the kernel's band points come in smaller sets
            if x.ndim == 2 and x.shape[-1] == d1 and x.shape[0] in (block, 100):
                rows.append(x.shape[0])
            return sum_squares(x)

        monkeypatch.setattr(metrics, "_sum_squares", spy)
        isodiametric.bump_ratio(isodiametric.BumpParams(apex, RHO), metric, 3 * block + 100, 3)
        assert rows == [block, block, block, 100]
