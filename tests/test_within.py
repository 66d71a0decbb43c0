"""Ball triage without the full kernel: every decided point is the kernel's decision.

_radial_bounds(a, b, r) answers (inside, unsure) on the squared layer norms
(a, b) = layer_squares(l1, l2). CCMetric._radial_bounds decides N <= r from
the unit sphere's tabulated half height; the d_inf and gauge _radial_bounds
compare a and b with r's thresholds outside a relative guard band. All three
leave only uncertain points unsure, for the kernel to settle. These tests
check that no point is both inside and unsure, and that inside equals
norm_arrays(l1, l2) <= r on every point left sure, on cubes around the Monte
Carlo regions of the evidence and on points within a few ulp of spheres;
that the d_inf and gauge bounds leave only band points unsure; and the CC
table against mpmath.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import carnotiso as ci
from carnotiso import geodesics, groups, isodiametric, measures, metrics, sampling
from conftest import quaternionic, region_cube

SPECS = {"h1": ci.heisenberg(1), "h2": ci.heisenberg(2)}
RHO = 2.0 - math.sqrt(2.0)
AGREEMENT_POINTS = 1 << 22
BLOCK = 1 << 16


def kernel_within(metric, l1, l2, r):
    return metric.norm_arrays(l1, l2) <= r


def assert_decided(metric, a, b, r, want):
    """_radial_bounds(a, b, r) is two disjoint masks, and inside is want wherever it is sure.

    want is the kernel's mask radial_norm(a, b) <= r, here on the points whose
    squares a, b are; returns (inside, unsure).
    """
    inside, unsure = metric._radial_bounds(a, b, r)
    assert inside.shape == unsure.shape == want.shape
    assert not np.any(inside & unsure)
    assert np.array_equal(inside[~unsure], want[~unsure])
    return inside, unsure


def node_phi(u):
    """phi with sqrt(1 - sin phi / phi) = u, by bisection (u > 0).

    1 - sin phi / phi is h T(h) at h = phi / 2, with no cancellation.
    """
    lo, hi = np.zeros_like(u), np.full_like(u, np.pi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = 0.5 * mid * metrics._sphere_profile(0.5 * mid)[1] < u * u
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def mp_half_height(u):
    """40-digit T at u: Newton on 1 - sin phi / phi = u^2, then (2 phi - sin 2 phi) / (2 phi^2)."""
    with mp.workdps(40 + max(0, int(-4 * math.log10(u)))):
        w, p = mp.mpf(u) ** 2, mp.mpf(float(node_phi(np.array([u]))[0]))
        for _ in range(8):
            p -= (1 - mp.sin(p) / p - w) / ((mp.sin(p) - p * mp.cos(p)) / p ** 2)
        return (2 * p - mp.sin(2 * p)) / (2 * p * p)


def profile_u(a):
    """u = sqrt(1 - s) at s^2 = a, as _profile_bounds computes it at its nodes a = j / C."""
    return np.sqrt((1.0 - a) / (1.0 + np.sqrt(a)))


class TestTable:
    def test_nodes_match_mpmath(self):
        # every 16th node, the two first and the last: the u and T errors PROFILE_EPS absorbs
        cells = metrics.PROFILE_CELLS
        j = np.concatenate([[0, 1], np.arange(16, cells, 16), [cells - 1]])
        u = profile_u(j / cells)
        with mp.workdps(40):  # u within 3 ulp of sqrt(1 - s_j)
            for x, jj in zip(u, j):
                exact = mp.sqrt(1 - mp.sqrt(mp.mpf(int(jj)) / cells))
                assert abs(mp.mpf(float(x)) - exact) <= 3 * np.spacing(x)
        got = metrics._half_height(u)
        worst = max(abs(mp.mpf(float(g)) - mp_half_height(float(x))) for g, x in zip(got, u))
        assert worst <= 1e-15

    @staticmethod
    def _check_cells(low, lo2, hi2, eps):
        """T at points inside each cell and at both its ends lies in [low + eps, high - eps],
        compared squared as the triage compares; the last cells are unsure, then outside,
        and one end pad follows."""
        cells = metrics.PROFILE_CELLS
        assert low.shape == lo2.shape == hi2.shape == (cells + 3,)
        assert low[cells - 1:].tolist() == lo2[cells - 1:].tolist() == [-1.0] * 4
        assert hi2[cells - 1:].tolist() == [math.inf, math.inf, -1.0, -1.0]
        a = np.random.default_rng(0).uniform(0.0, (cells - 1) / cells, 1 << 16)
        a = np.concatenate([a, [(2.0 / math.pi) ** 2, 0.0]])
        k = (a * cells).astype(np.intp)
        # every node j / C, the end of cells j - 1 and j
        j = np.arange(cells)
        a = np.concatenate([a, j / cells, j[1:] / cells])
        k = np.concatenate([k, j[:-1], [cells - 2], j[1:] - 1])
        t = metrics._half_height(profile_u(a))
        assert np.all(lo2[k] <= (t - eps) ** 2)
        assert np.all((t + eps) ** 2 <= hi2[k])
        assert np.max(hi2[:cells - 1]) == (2.0 / math.pi + eps) ** 2
        low = low[:cells - 1]
        assert np.all(low > 0.0) and lo2[:cells - 1].tobytes() == (low * low).tobytes()

    def test_cells_bound_the_profile(self):
        # eps is at least four times the 2.3e-12 of index slip, node error and
        # rounding that _radial_bounds proves
        assert metrics.PROFILE_EPS >= 4 * 2.3e-12
        self._check_cells(*metrics._profile_bounds(), metrics.PROFILE_EPS)

    def test_check_fails_on_a_wrong_table(self, monkeypatch):
        # the check catches a table whose lower bounds are raised by 1e-3, or one
        # built with no margin
        eps = metrics.PROFILE_EPS
        low, lo2, hi2 = metrics._profile_bounds()
        raised = lo2.copy()
        raised[:metrics.PROFILE_CELLS - 1] += 1e-3
        with pytest.raises(AssertionError):
            self._check_cells(low, raised, hi2, eps)
        monkeypatch.setattr(metrics, "PROFILE_EPS", 0.0)
        with pytest.raises(AssertionError):
            self._check_cells(*metrics._profile_bounds.__wrapped__(), eps)


def _box_agreement(metric, box, shift, radius, seed, points=AGREEMENT_POINTS):
    """Blocks of a uniform draw of the cube around box's region; the bounds must
    decide every point they decide as the kernel does.

    _radial_bounds is asked on the blocks' layer_squares.
    """
    rng = np.random.default_rng(seed)
    d1, (lo, hi) = box.dim1, region_cube(box)
    inside = 0
    for _ in range(points // BLOCK):
        pts = rng.uniform(lo, hi, (BLOCK, len(lo)))
        l1, l2 = pts[:, :d1], pts[:, d1:] - shift
        want = kernel_within(metric, l1, l2, radius)
        assert_decided(metric, *metrics.layer_squares(l1, l2), radius, want)
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
        # verify_assumption_C's maximum is the full kernel's, and _radial_bounds at
        # each chunk maximum decides every sample it decides as the kernel does
        spec = SPECS[name]
        metric = ci.CCMetric(spec)

        def chunk(rng, count):
            blocks = []
            for a, y2 in geodesics._cut_ball_blocks(rng, count):
                b = metrics._sum_squares(y2)
                blocks.append((a, b, metric.radial_norm(a, b)))
            best = max(norms.max() for _, _, norms in blocks)
            for a, b, norms in blocks:
                assert_decided(metric, a, b, best, norms <= best)
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
    nodes = node_phi(profile_u(np.arange(metrics.PROFILE_CELLS) / metrics.PROFILE_CELLS))
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
        z, t = sphere_shells(spec.dim1 // 2, radius, 4096, seed=31)
        want = kernel_within(metric, z, t, radius)
        assert 0 < np.count_nonzero(want) < want.size
        assert_decided(metric, *metrics.layer_squares(z, t), radius, want)

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
                inside, _ = assert_decided(metric, *metrics.layer_squares(z, t), radius, want)
            assert not inside[nan].any(), radius
        # one point, and points in a (4, 3) grid
        assert_decided(metric, *metrics.layer_squares(z[2:3], t[2:3]), 1.0,
                       metric.norm_arrays(z[2:3], t[2:3]) <= 1.0)
        with np.errstate(invalid="ignore"):
            assert_decided(
                metric, *metrics.layer_squares(z[:12].reshape(4, 3, 2), t[:12].reshape(4, 3, 1)),
                1.0, kernel_within(metric, z[:12], t[:12], 1.0).reshape(4, 3))

    @pytest.mark.parametrize("metric", [ci.DinfMetric(SPECS["h1"]), ci.GaugeMetric(SPECS["h1"])],
                             ids=["dinf", "gauge"])
    def test_default_is_the_norm(self, metric):
        pts = np.random.default_rng(4).uniform(-1.5, 1.5, (1000, 3))
        l1, l2 = pts[:, :2], pts[:, 2:]
        want = metric.norm_arrays(l1, l2) <= 1.0
        assert_decided(metric, *metrics.layer_squares(l1, l2), 1.0, want)
        # one point at a time as a one-row array, and the first 12 points as a (4, 3) grid
        assert 0 < np.count_nonzero(want[:12]) < 12
        for i in range(12):
            assert_decided(metric, *metrics.layer_squares(l1[i:i + 1], l2[i:i + 1]), 1.0,
                           want[i:i + 1])
        assert_decided(
            metric, *metrics.layer_squares(l1[:12].reshape(4, 3, 2), l2[:12].reshape(4, 3, 1)),
            1.0, want[:12].reshape(4, 3))


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
    # every point of every shell that the bounds decide is decided as the kernel decides it
    metric = CHEAP[name]
    for radius in RADII:
        l1, l2 = shells(metric, radius, seed=51)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            want = kernel_within(metric, l1, l2, radius)
            inside, _ = assert_decided(metric, *metrics.layer_squares(l1, l2), radius, want)
        assert not inside[np.isnan(l1).any(axis=1) | np.isnan(l2).any(axis=1)].any(), radius
        if 1e-60 <= radius <= 1e60:  # beyond, squares leave the kernels' range
            assert 0 < np.count_nonzero(want) < want.size - len(SPECIAL_ROWS), radius


@pytest.mark.parametrize("metric", [ci.DinfMetric(SPECS["h1"]), ci.DinfMetric(SPECS["h1"], c2=0.7),
                                    ci.GaugeMetric(SPECS["h1"]), ci.CCMetric(SPECS["h1"])],
                         ids=["dinf", "dinf-c2", "gauge", "cc"])
def test_kernel_coordinate_range(metric):
    # the kernels square unscaled coordinates: at 1e-170 the squares underflow to 0 and
    # at 1e170 they overflow to inf; the bounds read the same squares and decide as the kernel
    z = np.array([[1e-170, 0.0], [1e-170, 1e-170], [1e170, 0.0], [0.0, 0.0], [1e-170, 0.0],
                  [1e170, 1e170], [0.5, 0.0], [1e-170, 0.0], [0.0, 0.0]])
    t = np.array([[0.0], [1e-170], [0.0], [1e170], [1e170], [1e-170], [1e-170], [-1e-170],
                  [1e-170]])
    for radius in (1.0, 1e-170, 1e170, 1e-85, 1e85, 1e-40):
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            want = kernel_within(metric, z, t, radius)
            assert_decided(metric, *metrics.layer_squares(z, t), radius, want)
    # layer 2 too, CC's |t| = sqrt(|t|^2) included: the last row's t^2 underflows, so
    # every kernel reads it as the identity, while the scalar norm and distance
    # dilate it first and keep their value, 1e-85 times that of [0, 0; 1]
    with np.errstate(under="ignore"):
        assert metric.norm_arrays(z[-1], t[-1]) == 0.0
    tiny, origin = ci.point([0.0, 0.0], [1e-170]), ci.point([0.0, 0.0], [0.0])
    expected = 1e-85 * metric.norm(ci.point([0.0, 0.0], [1.0]))
    assert metric.norm(tiny) == pytest.approx(expected, rel=1e-15)
    assert metric.dist(origin, tiny) == metric.norm(tiny)


@pytest.mark.parametrize("metric, radii", [
    (ci.DinfMetric(SPECS["h1"]), [1e-200, math.nan, math.inf]),
    (ci.GaugeMetric(SPECS["h1"]), [1e-100, 1e100]),
    (ci.CCMetric(SPECS["h1"]), [1e-200, 1e200, math.nan]),
], ids=["dinf", "gauge", "cc"])
def test_declined_radii_leave_every_point_unsure(metric, radii):
    # a radius whose thresholds _radial_bounds declines still gets two bool masks shaped
    # like a, with no point decided: the kernel settles every point
    rng = np.random.default_rng(71)
    for shape in ((5,), (4, 3)):
        a, b = rng.uniform(0.0, 2.0, shape), rng.uniform(0.0, 2.0, shape)
        for radius in radii:
            inside, unsure = metric._radial_bounds(a, b, radius)
            for mask in (inside, unsure):
                assert isinstance(mask, np.ndarray) and mask.dtype == bool
                assert mask.shape == a.shape
            assert unsure.all() and not inside.any(), radius


class TestFastPath:
    """The d_inf and gauge bounds leave band points only unsure, and a bump block squares no |z|."""

    @pytest.mark.parametrize("name", list(CHEAP))
    def test_kernel_only_on_band(self, name, monkeypatch):
        # every unsure point lies in the guard band, and the bounds never run the kernel
        metric = CHEAP[name]
        kernel, seen = metric.radial_norm, []

        def spy(a, b):
            seen.append(a)
            return kernel(a, b)

        monkeypatch.setattr(metric, "radial_norm", spy)
        rng = np.random.default_rng(61)
        d1 = metric.spec.dim1
        for _, box, shift, radius in evidence_boxes(metric):
            lo, hi = region_cube(box)
            pts = rng.uniform(lo, hi, (1 << 17, len(lo)))
            a, b = metrics.layer_squares(pts[:, :d1], pts[:, d1:] - shift)
            _, unsure = metric._radial_bounds(a, b, radius)
            assert seen == []
            assert np.all(np.abs(kernel(a[unsure], b[unsure]) / radius - 1.0)
                          <= metrics.WITHIN_GUARD)
        # the center and a far point are decided: in and out
        far = np.full((2, d1), 10.0)
        far[0] = 0.0
        inside, unsure = metric._radial_bounds(
            *metrics.layer_squares(far, np.zeros((2, metric.spec.dim2))), 1.0)
        assert inside.tolist() == [True, False] and not unsure.any()
        assert seen == []

    @pytest.mark.parametrize("name", ["dinf-h1", "dinf-h2", "gauge-h1-htype", "cc-h1"])
    def test_bump_squares_layer1_once_per_block(self, name, monkeypatch):
        metric = CHEAP.get(name) or ci.CCMetric(SPECS["h1"])
        apex, _ = isodiametric._apex_and_bound(metric)
        d1, block = metric.spec.dim1, sampling.BLOCK
        d2, budget = metric.spec.dim2, 3 * block + 100
        sum_squares, rows = metrics._sum_squares, {d1: [], d2: []}

        def spy(x):
            if x.ndim == 2 and x.shape[-1] in rows:
                rows[x.shape[-1]].append(x.shape[0])
            return sum_squares(x)

        # one chunk: per block the ball's triage, then the bump's; then one settle.
        # bump_ratio draws the bands of bump \ ball between the ball's slab and the
        # bump's reach, and a labeled band's rows ask only the set its label leaves open
        ball, blocks, open_rows, want = measures.ball_set(metric), [], [], []
        extra = measures.difference(measures.ball_set(metric, apex, RHO), ball)
        strata = measures._strata(extra.bounding_box, budget)
        counts = measures._allocation(budget, strata.volumes)
        for a, l2, segments in measures._stratified_draws(strata, counts,
                                                          sampling.substream(3, 0)):
            blocks.append(len(a))
            open_rows.append(int(np.count_nonzero(~ball.decide(a, l2)[0])))
            if strata.sure:
                want += [j - i for s, i, j in segments for _ in range(1 if strata.sure[s] else 2)]
            else:
                want += [len(a), len(a)]
        monkeypatch.setattr(metrics, "_sum_squares", spy)
        isodiametric.bump_ratio(isodiametric.BumpParams(apex, RHO), metric, budget, 3)
        # a is drawn, never squared; the ball squares its layer 2 on every whole block,
        # and so does the bump its shifted layer 2, or each on the labeled bands the
        # label leaves open. The ball holds under a quarter of a full block surely
        # inside, none at all for d_inf (only the outermost strata, in the short last
        # block, lie mostly in it); but about 40% for the CC bump, whose bands beside the
        # ball's sphere are most of its draws
        assert rows[d1] == []
        assert blocks == [block, block, block, 100]
        assert rows[d2][:len(want)] == want
        least = block / 2 if name == "cc-h1" else 3 * block / 4
        assert all(n > least for n in open_rows[:3])
        if name in ("gauge-h1-htype", "cc-h1"):
            assert strata.sure and len(want) > 8
