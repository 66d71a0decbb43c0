import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carnotiso as ci
import carnotiso.metrics as metrics_mod
from carnotiso.metrics import (ConvergenceError, MetricError, mu, mu_prime, solve_turning,
                               unit_ball_volume)

H1 = ci.heisenberg(1)
H2 = ci.heisenberg(2)
HT = ci.h_type(ci.groups.standard_symplectic())

DINF = ci.DinfMetric(H1)
GAUGE_HT = ci.GaugeMetric(HT)
GAUGE_H1 = ci.GaugeMetric(H1)
CC = ci.CCMetric(H1)

coord = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


def random_cloud(spec, count, seed, scale=2.0):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-scale, scale, (count, spec.dim1)),
            rng.uniform(-scale * scale, scale * scale, (count, spec.dim2)))


class TestDinf:
    def test_norm_examples(self):
        assert DINF.norm(ci.point([0, 0], [4])) == pytest.approx(2.0)
        assert DINF.norm(ci.point([3, 4], [0])) == pytest.approx(5.0)
        assert DINF.norm(ci.point([1, 0], [1])) == pytest.approx(1.0)

    def test_zero_iff_identity(self):
        assert DINF.norm(ci.identity(H1)) == 0.0
        assert DINF.norm(ci.point([1e-8, 0], [0])) > 0

    def test_dist_examples(self):
        p = ci.point([0.3, -1], [0.7])
        assert DINF.dist(p, p) == 0.0
        assert DINF.dist(ci.identity(H1), ci.point([0, 0], [4])) == pytest.approx(2.0)

    def test_apex_bound(self):
        # from the layer-2 apex [0,1], everything in the unit ball is
        # within sqrt(2)
        apex = ci.point([0, 0], [1])
        rng = np.random.default_rng(0)
        z = rng.uniform(-1, 1, (20000, 2))
        t = rng.uniform(-1, 1, (20000, 1))
        inside = DINF.norm_arrays(z, t) <= 1
        d = DINF.dist_arrays(apex.layer1, apex.layer2, z[inside], t[inside])
        assert np.max(d) <= math.sqrt(2) + 1e-12
        assert DINF.dist(apex, ci.point([0, 0], [-1])) == pytest.approx(math.sqrt(2))

    def test_bad_coefficients(self):
        with pytest.raises(MetricError):
            ci.DinfMetric(H1, c1=0.0)


def dinf_witness(spec, c1, c2):
    """(N(p), N(q), N(p.q)) for the sharpness pair of DinfMetric's docstring.

    |z| = 1/c1, t = 1/c2^2 and z' = J z, oriented so that the twist or bracket
    adds to t + t'. The norm is evaluated by hand, since DinfMetric refuses
    the coefficients where the pair matters.
    """
    a = 1.0 / c1
    zq = [0.0, -a] if spec.kind == "heisenberg" else [0.0, a]
    p1, p2 = np.array([a, 0.0]), np.array([1.0 / c2**2])
    q1, q2 = np.array(zq), np.array([1.0 / c2**2])

    def norm(l1, l2):
        return max(c1 * np.linalg.norm(l1), c2 * math.sqrt(np.linalg.norm(l2)))

    return norm(p1, p2), norm(q1, q2), norm(*ci.groups.mul_arrays(spec, p1, p2, q1, q2))


class TestDinfCoefficientValidator:
    """DinfMetric accepts exactly the coefficients for which d_inf is a distance:
    finite, positive, and c2 <= c1 on H^n, c2 <= 2 c1 on H-type groups."""

    def test_unit_coefficients_pass(self):
        m = ci.DinfMetric(H1, 1.0, 1.0)
        assert (m.c1, m.c2) == (1.0, 1.0)
        assert dinf_witness(H1, 1.0, 1.0) == (1.0, 1.0, 2.0)

    def test_c2_ten_fails(self):
        with pytest.raises(MetricError, match="c2 <= c1"):
            ci.DinfMetric(H1, 1.0, 10.0)
        np_, nq, npq = dinf_witness(H1, 1.0, 10.0)
        assert npq > np_ + nq

    def test_zero_pair(self):
        m = ci.DinfMetric(H1)
        assert m.norm(ci.identity(H1)) == 0.0

    @pytest.mark.parametrize("spec,ratio,over,witness", [
        (H1, 1.0, 1.0001, 2.0001), (HT, 2.0, 2.01, 2.005)], ids=["h1", "h1-htype"])
    def test_boundary_is_sharp(self, spec, ratio, over, witness):
        for c1 in (0.25, 1.0, 3.0):
            ci.DinfMetric(spec, c1, ratio * c1)
            assert dinf_witness(spec, c1, ratio * c1)[2] == pytest.approx(2.0, rel=1e-15)
            with pytest.raises(MetricError):
                ci.DinfMetric(spec, c1, np.nextafter(ratio * c1, np.inf))
        # just over the boundary the witness pair is farther apart than 2
        with pytest.raises(MetricError):
            ci.DinfMetric(spec, 1.0, over)
        assert dinf_witness(spec, 1.0, over) == (1.0, 1.0, pytest.approx(witness, rel=1e-5))
        assert dinf_witness(spec, 1.0, over)[2] > 2.0

    @pytest.mark.parametrize("spec", [H1, HT], ids=["h1", "h1-htype"])
    @pytest.mark.parametrize("c1,c2", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1e308, math.inf),
        (0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)])
    def test_non_finite_or_non_positive_rejected(self, spec, c1, c2):
        with pytest.raises(MetricError, match="finite c1, c2 > 0"):
            ci.DinfMetric(spec, c1, c2)


class TestGauge:
    def test_norm_examples_htype(self):
        assert GAUGE_HT.norm(ci.point([0, 0], [0.25])) == pytest.approx(1.0)
        assert GAUGE_HT.norm(ci.point([1, 0], [0])) == pytest.approx(1.0)
        assert GAUGE_HT.norm(ci.identity(HT)) == 0.0

    def test_heisenberg_model_agrees(self):
        # gauge norm is invariant under the H^1 model change
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = ci.point(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 1))
            assert GAUGE_HT.norm(p) == pytest.approx(
                GAUGE_H1.norm(ci.h1_point_from_htype(p)), rel=1e-12)

    def test_apex_reach_bound(self):
        apex = ci.point([0, 0], [0.25])
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (20000, 2))
        zc = rng.uniform(-0.25, 0.25, (20000, 1))
        inside = GAUGE_HT.norm_arrays(x, zc) <= 1
        d = GAUGE_HT.dist_arrays(apex.layer1, apex.layer2, x[inside], zc[inside])
        assert np.max(d) <= math.sqrt(2) + 1e-12

    def test_dist_identity(self):
        p = ci.point([0.4, 0.1], [0.05])
        assert GAUGE_HT.dist(p, p) == 0.0
        assert GAUGE_HT.dist(ci.identity(HT), ci.point([0, 0], [0.25])) == pytest.approx(1.0)


class TestTurningProfile:
    def test_strictly_increasing(self):
        phi = np.linspace(1e-8, math.pi - 1e-8, 20001)
        vals = mu(phi)
        assert np.all(np.diff(vals) > 0)

    def test_series_matches_main_branch(self):
        # continuity across the series cutover at 1e-4; the naive quotient
        # loses ~9 digits to cancellation down here, so compare loosely near
        # the cutover and tightly where cancellation is mild
        assert mu(1e-2) == pytest.approx(
            (2e-2 - math.sin(2e-2)) / (2 * math.sin(1e-2) ** 2), rel=1e-11)
        for p in (5e-5, 9.9e-5, 1.01e-4, 2e-4):
            direct = (2 * p - math.sin(2 * p)) / (2 * math.sin(p) ** 2)
            assert mu(p) == pytest.approx(direct, rel=1e-6)
        # derivative vs central differences, away from the noisy quotient
        for p in (5e-5, 9.9e-5, 1e-2, 0.5, 2.0):
            h = 1e-6 * max(p, 1e-3)
            fd = (mu(p + h) - mu(p - h)) / (2 * h)
            assert mu_prime(p) == pytest.approx(fd, rel=1e-4)

    def test_solver_roundtrip(self):
        phi = np.linspace(1e-6, math.pi - 1e-9, 5000)
        back = solve_turning(mu(phi))
        assert np.max(np.abs(back - phi)) < 1e-9

    def test_solver_roundtrip_log_uniform_ratios(self):
        rng = np.random.default_rng(11)
        ratio = np.concatenate([[0.0], 10.0 ** rng.uniform(-300, 22, 20000)])
        phi = solve_turning(ratio)
        assert phi[0] == 0.0
        assert np.all((phi >= 0) & (phi < math.pi))
        # backward error in phi; mu itself is only good to ~1e-12 in phi just
        # above its series cut at 1e-4, where 2 phi - sin 2 phi cancels
        back = np.abs(mu(phi) - ratio) / mu_prime(phi)
        assert np.max(back / np.maximum(1.0, phi)) < 1e-11

    def test_solver_shapes(self):
        ratio = np.array([[0.0, 0.3, 1.0, 4.0], [1e-9, 7.5, 1e3, 1e12], [2.0, 0.1, 5e-5, 30.0]])
        phi = solve_turning(ratio)
        assert phi.shape == (3, 4)
        assert np.array_equal(phi, solve_turning(ratio.ravel()).reshape(3, 4))
        one = solve_turning(np.float64(1.0))
        assert np.ndim(one) == 0
        assert one == solve_turning(np.array([1.0]))[0]
        assert mu(one) == pytest.approx(1.0, rel=1e-14)

    def test_solver_mu_calls(self, monkeypatch):
        # the closed-form start leaves a few steps per solve; the old fixed
        # 30-step bisection alone called mu 30 times
        calls = []
        real_mu = metrics_mod.mu

        def counting_mu(phi):
            calls.append(1)
            return real_mu(phi)

        monkeypatch.setattr(metrics_mod, "mu", counting_mu)
        rng = np.random.default_rng(4096)
        lo1, hi1, lo2, hi2 = CC.unit_ball_bbox()
        z = rng.uniform(lo1, hi1, (4096, 2))
        t = rng.uniform(lo2, hi2, 4096)
        ratio = np.abs(t) / np.sum(z * z, axis=1)
        phi = solve_turning(ratio)
        assert len(calls) <= 12
        assert np.max(np.abs(real_mu(phi) - ratio) / np.maximum(1.0, ratio)) < 1e-9

    def test_solver_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(metrics_mod, "TURNING_ROOT_TOL", 1e-300)
        monkeypatch.setattr(metrics_mod, "TURNING_MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceError) as info:
            solve_turning(np.array([1.0]))
        assert list(info.value.indices) == [0]
        # ratio 0 starts on its root and converges in one step; the others
        # cannot meet a tolerance of 1e-300 in one step
        ratio = np.array([0.0, 1.0, 0.0, 3.0, 0.0])
        with pytest.raises(ConvergenceError) as info:
            solve_turning(ratio)
        err = info.value
        assert list(err.indices) == [1, 3]
        assert err.residuals.shape == (2,) and np.all(err.residuals > 0)
        assert err.residual == np.max(err.residuals)
        assert "2 of 5 elements" in str(err)


class TestCC:
    def test_wrong_spec(self):
        with pytest.raises(MetricError):
            ci.CCMetric(HT)

    def test_center_formula(self):
        rng = np.random.default_rng(3)
        for t in rng.uniform(-50, 50, 100):
            d = CC.dist(ci.identity(H1), ci.point([0, 0], [t]))
            assert d == pytest.approx(math.sqrt(math.pi * abs(t)), abs=1e-12)

    def test_horizontal_segment(self):
        assert CC.dist(ci.identity(H1), ci.point([0.7, -0.2], [0])) == pytest.approx(
            math.hypot(0.7, -0.2), abs=1e-12)

    def test_roundtrip_against_sphere(self):
        rng = np.random.default_rng(4)
        n = 2000
        chi = rng.standard_normal((n, 2))
        chi /= np.linalg.norm(chi, axis=1, keepdims=True)
        phi = rng.uniform(-(math.pi - 1e-6), math.pi - 1e-6, n)
        r = 10 ** rng.uniform(-2, 2, n)
        from carnotiso.geodesics import sphere_point_arrays
        z, t = sphere_point_arrays(1, chi, phi, r)
        assert np.max(np.abs(CC.norm_arrays(z, t) - r)) < 1e-8

    def test_nonconvergence_names_points(self, monkeypatch):
        # center points skip the solve, so the solver's indices are mapped
        # back to positions among the points
        monkeypatch.setattr(metrics_mod, "TURNING_ROOT_TOL", 1e-300)
        monkeypatch.setattr(metrics_mod, "TURNING_MAX_ITERATIONS", 1)
        z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.5, 0.5]])
        t = np.array([[0.3], [0.2], [0.1], [0.0]])
        with pytest.raises(ConvergenceError) as info:
            CC.norm_arrays(z, t)
        assert list(info.value.indices) == [1]

    def test_negative_t_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            z = rng.uniform(-1, 1, 2)
            t = rng.uniform(0, 2)
            a = CC.norm(ci.point(z, [t]))
            b = CC.norm(ci.point(z, [-t]))
            assert a == pytest.approx(b, rel=1e-14)


@pytest.mark.parametrize("metric,spec", [(DINF, H1), (GAUGE_HT, HT), (CC, H1)],
                         ids=["dinf", "gauge", "cc"])
class TestMetricAxioms:
    N = 20000

    def test_symmetry(self, metric, spec):
        a1, a2 = random_cloud(spec, self.N, 10)
        b1, b2 = random_cloud(spec, self.N, 11)
        ab = metric.dist_arrays(a1, a2, b1, b2)
        ba = metric.dist_arrays(b1, b2, a1, a2)
        assert np.max(np.abs(ab - ba)) < 1e-9

    def test_triangle(self, metric, spec):
        a1, a2 = random_cloud(spec, self.N, 12)
        b1, b2 = random_cloud(spec, self.N, 13)
        c1, c2 = random_cloud(spec, self.N, 14)
        ac = metric.dist_arrays(a1, a2, c1, c2)
        ab = metric.dist_arrays(a1, a2, b1, b2)
        bc = metric.dist_arrays(b1, b2, c1, c2)
        assert np.max(ac - (ab + bc)) < 1e-9

    def test_left_invariance(self, metric, spec):
        from carnotiso import groups
        a1, a2 = random_cloud(spec, self.N, 15)
        b1, b2 = random_cloud(spec, self.N, 16)
        rng = np.random.default_rng(17)
        g1 = rng.uniform(-2, 2, spec.dim1)
        g2 = rng.uniform(-2, 2, spec.dim2)
        ga1, ga2 = groups.mul_arrays(spec, g1, g2, a1, a2)
        gb1, gb2 = groups.mul_arrays(spec, g1, g2, b1, b2)
        base = metric.dist_arrays(a1, a2, b1, b2)
        moved = metric.dist_arrays(ga1, ga2, gb1, gb2)
        rel = np.abs(moved - base) / np.maximum(base, 1e-12)
        assert np.max(rel) < 1e-9

    def test_homogeneity(self, metric, spec):
        from carnotiso import groups
        a1, a2 = random_cloud(spec, self.N // 4, 18)
        b1, b2 = random_cloud(spec, self.N // 4, 19)
        base = metric.dist_arrays(a1, a2, b1, b2)
        for lam in (1e-3, 0.37, 42.0, 1e3):
            la1, la2 = groups.dilate_arrays(spec, a1, a2, lam)
            lb1, lb2 = groups.dilate_arrays(spec, b1, b2, lam)
            scaled = metric.dist_arrays(la1, la2, lb1, lb2)
            rel = np.abs(scaled - lam * base) / np.maximum(lam * base, 1e-300)
            assert np.max(rel) < 1e-10

    def test_identity_of_indiscernibles(self, metric, spec):
        a1, a2 = random_cloud(spec, 100, 20)
        assert np.max(metric.dist_arrays(a1, a2, a1, a2)) < 1e-12


def test_metric_equivalence_ratios():
    # pairwise ratios of the three H^1 distances stay in a positive band
    a1, a2 = random_cloud(H1, 5000, 21)
    b1, b2 = random_cloud(H1, 5000, 22)
    d_inf = DINF.dist_arrays(a1, a2, b1, b2)
    d_g = GAUGE_H1.dist_arrays(a1, a2, b1, b2)
    d_c = CC.dist_arrays(a1, a2, b1, b2)
    for num, den in ((d_inf, d_g), (d_inf, d_c), (d_g, d_c)):
        ratio = num / den
        assert 0.1 < ratio.min() and ratio.max() < 10.0


@given(st.lists(coord, min_size=2, max_size=2), coord,
       st.lists(coord, min_size=2, max_size=2), coord,
       st.lists(coord, min_size=2, max_size=2), coord)
@settings(max_examples=300, deadline=None)
def test_dinf_triangle_hypothesis(z1, t1, z2, t2, z3, t3):
    p, q, r = ci.point(z1, [t1]), ci.point(z2, [t2]), ci.point(z3, [t3])
    assert DINF.dist(p, r) <= DINF.dist(p, q) + DINF.dist(q, r) + 1e-9


@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1.0),
       st.sampled_from(["h1", "h1-htype"]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_dinf_triangle_any_accepted_coefficients(c1, frac, group, seed):
    spec = H1 if group == "h1" else HT
    c2 = frac * (c1 if group == "h1" else 2.0 * c1)
    metric = ci.DinfMetric(spec, c1, c2)
    # clouds at the scale of the unit ball, |z| ~ 1/c1 and |t| ~ 1/c2^2
    (a1, a2), (b1, b2), (e1, e2) = (random_cloud(spec, 2000, seed + i, scale=1.5)
                                    for i in range(3))
    a1, b1, e1 = a1 / c1, b1 / c1, e1 / c1
    a2, b2, e2 = a2 / c2**2, b2 / c2**2, e2 / c2**2
    ae = metric.dist_arrays(a1, a2, e1, e2)
    ab = metric.dist_arrays(a1, a2, b1, b2)
    be = metric.dist_arrays(b1, b2, e1, e2)
    assert np.all(ae <= (ab + be) * (1.0 + 1e-12))


def test_make_metric_from_json():
    from carnotiso.metrics import make_metric
    assert isinstance(make_metric(H1, {"metric": "dinf", "c1": 2.0}), ci.DinfMetric)
    assert isinstance(make_metric(HT, {"metric": "gauge"}), ci.GaugeMetric)
    assert isinstance(make_metric(H1, {"metric": "cc"}), ci.CCMetric)
    assert isinstance(make_metric(H1, {"metric": "cc", "c1": None, "c2": None}), ci.CCMetric)
    dinf = make_metric(H1, {"metric": "dinf", "c1": None, "c2": None})
    assert dinf.describe() == {"metric": "dinf", "c1": 1.0, "c2": 1.0}
    with pytest.raises(MetricError):
        make_metric(H1, {"metric": "euclid"})
    for kind in ("gauge", "cc"):
        with pytest.raises(MetricError, match="d_inf coefficients"):
            make_metric(H1, {"metric": kind, "c1": 1.0})
        with pytest.raises(MetricError, match="d_inf coefficients"):
            make_metric(H1, {"metric": kind, "c2": 0.0})


def test_unit_ball_volumes():
    v, e = unit_ball_volume(DINF)
    assert v == pytest.approx(2 * math.pi)
    v, e = unit_ball_volume(GAUGE_HT)
    assert v == pytest.approx(math.pi ** 2 / 8, abs=1e-10)
    v, e = unit_ball_volume(GAUGE_H1)
    assert v == pytest.approx(math.pi ** 2 / 2, abs=1e-10)
