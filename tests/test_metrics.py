import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carnotiso as ci
import carnotiso.metrics as metrics_mod
from carnotiso.geodesics import cut_point, sphere_point_arrays
from conftest import mp_unit_cc_norm, quaternionic
from carnotiso.metrics import (ConvergenceError, MetricError, _sphere_profile, mu, mu_prime,
                               solve_turning, unit_ball_volume)

H1 = ci.heisenberg(1)
H2 = ci.heisenberg(2)
HT = ci.h_type(ci.groups.standard_symplectic())

DINF = ci.DinfMetric(H1)
GAUGE_HT = ci.GaugeMetric(HT)
GAUGE_H1 = ci.GaugeMetric(H1)
CC = ci.CCMetric(H1)

coord = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


def _mp_digits(phi):
    """40 digits after the cancellation of 2 phi - sin 2 phi, which eats 2 log10(1/phi)."""
    return 40 + max(0, int(-2 * math.log10(phi)))


def mp_profiles(phi):
    """40-digit mu, mu' and (2 phi - sin 2 phi) / (2 phi^2) at phi > 0."""
    with mp.workdps(_mp_digits(phi)):
        p = mp.mpf(phi)
        s, num = mp.sin(p), 2 * p - mp.sin(2 * p)
        m = num / (2 * s * s)
        return m, 2 - 2 * m * mp.cos(p) / s, num / (2 * p * p)


def mp_turning_root(ratio, phi0):
    """40-digit root of mu(phi) = ratio: Newton from the float root phi0 > 0."""
    with mp.workdps(_mp_digits(phi0)):
        p, r = mp.mpf(phi0), mp.mpf(ratio)
        for _ in range(6):
            m, m1, _ = mp_profiles(p)
            p -= (m - r) / m1
        return p


def profile_grid():
    """Angles in (0, pi) on both sides of mu's series cut, log-uniform and near pi."""
    rng = np.random.default_rng(7)
    cut = metrics_mod._MU_SERIES_CUT
    return np.concatenate([
        [1e-300, 5e-5, 9.9e-5, 1.01e-4, 2e-4, 1e-2, np.nextafter(cut, 0), cut, 0.5, 2.0,
         math.pi - 1e-6],
        10.0 ** rng.uniform(-300, math.log10(math.pi - 1e-6), 400),
        math.pi - 10.0 ** rng.uniform(-6, 0, 100)])


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

    |z| = 1/c1, t = 1/c2^2 and z' of length |z| along B z, so that the bracket
    adds to t + t'. The norm is evaluated by hand, since DinfMetric refuses
    the coefficients where the pair matters.
    """
    a = 1.0 / c1
    p1, p2 = np.array([a, 0.0]), np.array([1.0 / c2**2])
    bz = spec.B[0] @ p1
    q1, q2 = a * bz / np.linalg.norm(bz), np.array([1.0 / c2**2])

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
        # 40-digit references for mu, mu', T and sin phi / phi on both sides
        # of the series cuts at 0.25 (mu's and T's) and across the old cut at
        # 1e-4, where the quotient alone loses 8 digits
        phi = profile_grid()
        sinc, height = _sphere_profile(phi)
        got = np.stack([mu(phi), mu_prime(phi), height, sinc], axis=1)
        for p, row in zip(phi, got):
            refs = (*mp_profiles(p), mp.sin(mp.mpf(p)) / mp.mpf(p))
            for value, ref in zip(row, refs):
                assert abs(mp.mpf(float(value)) / ref - 1) <= 1e-14, (p, value)
        # sinc is even and T odd, bit for bit: a profile of |phi| would send
        # the sphere map's phi < 0 half to the wrong side of the ball
        neg_sinc, neg_height = _sphere_profile(-phi)
        assert neg_sinc.tobytes() == sinc.tobytes()
        assert neg_height.tobytes() == (-height).tobytes()
        # derivative vs central differences
        for p in (5e-5, 9.9e-5, 1e-2, 0.5, 2.0):
            h = 1e-6 * max(p, 1e-3)
            fd = (mu(p + h) - mu(p - h)) / (2 * h)
            assert mu_prime(p) == pytest.approx(fd, rel=1e-4)

    def test_sphere_profile_bytes(self):
        # bit for bit the plain sinc = sin phi / phi (1 at 0) and T = (1 - sin phi cos phi /
        # phi) / phi, and on the band |phi| < 0.25 the series 4 phi S(4 phi^2)
        band = 0.5 * metrics_mod._SINC_SERIES_CUT
        edges = [v for e in (0.0, -0.0, 0.125, -0.125, band, -band)
                 for v in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]
        phi = np.concatenate([edges, [math.pi, -math.pi, math.nan],
                              np.random.default_rng(13).uniform(-math.pi, math.pi, 1 << 14)])
        with np.errstate(divide="ignore", invalid="ignore"):
            s, c = np.sin(phi), np.cos(phi)
            want_sinc = np.where(phi == 0.0, 1.0, s / phi)
            want_height = np.where(np.abs(phi) < band,
                                   4.0 * phi * metrics_mod._sinc_series(4.0 * phi * phi),
                                   (1.0 - s * c / phi) / phi)
        sinc, height = _sphere_profile(phi)
        assert sinc.tobytes() == want_sinc.tobytes()
        assert height.tobytes() == want_height.tobytes()
        assert np.count_nonzero(np.abs(phi) < band) > len(edges)  # draws on the band too
        for p, ws, wh in zip(phi[:len(edges) + 3], want_sinc, want_height):
            got = _sphere_profile(p)
            assert np.float64(got[0]).tobytes() == ws.tobytes(), p
            assert np.float64(got[1]).tobytes() == wh.tobytes(), p

    def test_series_coefficients(self):
        # mu / phi = ((2 phi - sin 2 phi) / phi^3) / (2 sin^2 phi / phi^2), both
        # power series in u = phi^2; divide them exactly
        terms = len(metrics_mod._MU_SERIES)
        num = [Fraction((-1) ** k * 2 ** (2 * k + 3), math.factorial(2 * k + 3))
               for k in range(terms)]
        den = [Fraction((-1) ** k * 2 ** (2 * k + 2), math.factorial(2 * k + 2))
               for k in range(terms)]
        coefs = []
        for k in range(terms):
            coefs.append((num[k] - sum(coefs[j] * den[k - j] for j in range(k))) / den[0])
        assert coefs[:3] == [Fraction(2, 3), Fraction(4, 45), Fraction(4, 315)]
        assert metrics_mod._MU_SERIES_Q == tuple(coefs)
        assert metrics_mod._MU_SERIES == tuple(float(c) for c in coefs)
        assert metrics_mod._MU_PRIME_SERIES == tuple(
            float((2 * k + 1) * c) for k, c in enumerate(coefs))

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
        # backward error in phi
        back = np.abs(mu(phi) - ratio) / mu_prime(phi)
        assert np.max(back / np.maximum(1.0, phi)) < 1e-11
        # forward error against 40-digit roots, also in [6e-5, 2e-4], where
        # the roots sit just above the old 1e-4 series cut
        some = np.concatenate([ratio[1:401], rng.uniform(6e-5, 2e-4, 200)])
        for r, p in zip(some, solve_turning(some)):
            assert abs(mp.mpf(float(p)) - mp_turning_root(r, p)) <= 1e-15 * max(1.0, p), r

    def test_solver_shapes(self):
        ratio = np.array([[0.0, 0.3, 1.0, 4.0], [1e-9, 7.5, 1e3, 1e12], [2.0, 0.1, 5e-5, 30.0]])
        phi = solve_turning(ratio)
        assert phi.shape == (3, 4)
        assert np.array_equal(phi, solve_turning(ratio.ravel()).reshape(3, 4))
        one = solve_turning(np.float64(1.0))
        assert np.ndim(one) == 0
        assert one == solve_turning(np.array([1.0]))[0]
        assert mu(one) == pytest.approx(1.0, rel=1e-14)

    def test_mu_pair_is_bitwise_mu_and_mu_prime(self):
        phi = np.concatenate([[0.0], profile_grid()])
        m, m1 = metrics_mod._mu_pair(phi)
        assert m.tobytes() == mu(phi).tobytes()
        assert m1.tobytes() == mu_prime(phi).tobytes()

    @pytest.mark.parametrize("f", [mu, mu_prime], ids=["mu", "mu_prime"])
    def test_profiles_on_every_shape(self, f):
        # a scalar, a 0-d array and a (3, 4) array, on and off the series
        # branch and at 0, give the bits of the flat 1-d call
        phi = np.concatenate([[0.0], profile_grid()[:11]])
        flat = f(phi)
        assert f(phi.reshape(3, 4)).shape == (3, 4)
        assert f(phi.reshape(3, 4)).tobytes() == flat.tobytes()
        for p, want in zip(phi, flat):
            for arg in (float(p), np.float64(p), np.array(p)):
                got = f(arg)
                assert np.ndim(got) == 0
                assert np.float64(got).tobytes() == want.tobytes(), (arg, got, want)

    def test_solver_mu_calls(self, monkeypatch):
        # the fixed schedule: 2 Halley steps and 1 Newton step, each one fused
        # mu, mu' pass over the whole array and no separate mu or mu' call;
        # the old 30-step bisection alone called mu 30 times
        calls = {"_mu_pair": 0, "mu": 0, "mu_prime": 0}
        real_mu = metrics_mod.mu

        def counting(name):
            real = getattr(metrics_mod, name)

            def f(phi):
                calls[name] += 1
                return real(phi)
            return f

        for name in calls:
            monkeypatch.setattr(metrics_mod, name, counting(name))
        rng = np.random.default_rng(4096)
        lo1, hi1, lo2, hi2 = CC.unit_ball_bbox()
        z = rng.uniform(lo1, hi1, (4096, 2))
        t = rng.uniform(lo2, hi2, 4096)
        ratio = np.abs(t) / np.sum(z * z, axis=1)
        phi = solve_turning(ratio)
        assert calls == {"_mu_pair": 3, "mu": 0, "mu_prime": 0}
        assert np.max(np.abs(real_mu(phi) - ratio) / np.maximum(1.0, ratio)) < 1e-9

    def test_solver_nonconvergence(self, monkeypatch):
        # the last Newton step at ratios 0.2 and 0.3 still moves phi by an
        # ulp or so, above a tolerance of 1e-300; ratio 0 starts on its root
        # and never moves
        monkeypatch.setattr(metrics_mod, "TURNING_ROOT_TOL", 1e-300)
        with pytest.raises(ConvergenceError) as info:
            solve_turning(np.array([0.2]))
        assert list(info.value.indices) == [0]
        ratio = np.array([0.0, 0.2, 0.0, 0.3, 0.0])
        with pytest.raises(ConvergenceError) as info:
            solve_turning(ratio)
        err = info.value
        assert list(err.indices) == [1, 3]
        assert err.residuals.shape == (2,) and np.all(err.residuals > 0)
        assert err.residual == np.max(err.residuals)
        assert "2 of 5 elements" in str(err)

    def test_solver_converges_on_extreme_ratios(self):
        # subnormal, tiny and huge ratios; the suite turns any warning into
        # an error, so this also checks that none is raised
        rng = np.random.default_rng(12)
        ratio = np.concatenate([[0.0, 5e-324, 1e-300, 1e308],
                                10.0 ** rng.uniform(-300, 308, 20000)])
        phi = solve_turning(ratio)
        assert np.all((phi >= 0) & (phi < math.pi))
        assert phi[1] > 0 and phi[3] == metrics_mod._PHI_MAX

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -5e-324, math.inf])
    def test_solver_refuses_ratios_outside_domain(self, bad):
        with pytest.raises(ValueError, match="finite and >= 0"):
            solve_turning(np.array([1.0, bad, 2.0]))
        with pytest.raises(ValueError):
            solve_turning(bad)


class TestCC:
    def test_wrong_spec(self):
        with pytest.raises(MetricError):
            ci.CCMetric(HT)

    def test_center_formula(self):
        rng = np.random.default_rng(3)
        for t in rng.uniform(-50, 50, 100):
            d = CC.dist(ci.identity(H1), ci.point([0, 0], [t]))
            assert d == pytest.approx(math.sqrt(math.pi * abs(t)), abs=1e-12)

    def test_center_points_skip_the_solve(self, monkeypatch):
        # no ratio to solve, no solve; a mixed array solves and keeps its bytes
        z = np.array([[0.0, 0.0], [0.6, -0.3], [0.0, 0.0], [1.0, 1e-20]])
        t = np.array([[0.7], [0.2], [0.0], [1e30]])
        want = CC.norm_arrays(z, t)
        solve, calls = metrics_mod.solve_turning, []

        def spy(ratio):
            calls.append(np.size(ratio))
            return solve(ratio)

        monkeypatch.setattr(metrics_mod, "solve_turning", spy)
        assert CC.norm(cut_point(H1, 2.0)) == 2.0
        assert CC.norm_arrays(z[[0, 2, 3]], t[[0, 2, 3]]).tobytes() == want[[0, 2, 3]].tobytes()
        assert calls == []
        assert CC.norm_arrays(z, t).tobytes() == want.tobytes()
        assert calls == [4]

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
        z, t = sphere_point_arrays(1, chi, phi, r)
        assert np.max(np.abs(CC.norm_arrays(z, t) - r)) < 1e-8

    def test_nonconvergence_names_points(self, monkeypatch):
        # the solve sees every point, center rows at ratio 0, so its indices
        # are positions among the points; ratio 0 starts on its root, and
        # only the point at ratio 0.2 takes a nonzero last step, which fails
        # a tolerance of 1e-300
        monkeypatch.setattr(metrics_mod, "TURNING_ROOT_TOL", 1e-300)
        z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.5, 0.5]])
        t = np.array([[0.3], [0.2], [0.1], [0.0]])
        with pytest.raises(ConvergenceError) as info:
            CC.norm_arrays(z, t)
        assert list(info.value.indices) == [1]

    def test_point_alone_equals_point_in_batch(self):
        # every element takes the same steps, so a norm does not depend on
        # the other points of its batch: series and main branch, the center
        # with and without t, ratio exactly 1 (the sine switch) and both
        # sides of the center switch at 1e28
        rng = np.random.default_rng(8)
        z = np.concatenate([rng.uniform(-1, 1, (300, 2)),
                            [[0.0, 0.0], [1e-12, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0],
                             [0.5, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]])
        t = np.concatenate([10.0 ** rng.uniform(-8, 2, (300, 1)),
                            [[0.3], [1.0], [0.0], [0.0], [1.0], [0.25], [np.nextafter(1e28, 0)],
                             [1e28], [np.nextafter(1e28, 1e29)], [1e30]]])
        batch = CC.norm_arrays(z, t)
        for i in range(len(z)):
            alone = CC.norm_arrays(z[i:i + 1], t[i:i + 1])[0]
            assert alone.tobytes() == batch[i].tobytes(), i
            assert CC.norm(ci.point(z[i], t[i])) == batch[i], i
            # a single point is a numpy scalar
            one = CC.norm_arrays(z[i], t[i])
            assert isinstance(one, np.float64) and one.tobytes() == batch[i].tobytes(), i
        # a 2-d batch keeps its shape, element by element
        grid = CC.norm_arrays(z.reshape(10, 31, 2), t.reshape(10, 31, 1))
        assert grid.shape == (10, 31)
        assert grid.reshape(-1).tobytes() == batch.tobytes()

    def test_bitwise_the_compaction_kernel(self):
        # the earlier kernel, written out: index compaction of the off-center
        # points with ratio <= 1e28, one subset per formula, phi / sin phi
        # with 1 at phi = 0; the one-pass kernel must give the same bits
        def compaction_norm(l1, l2):
            zn = np.sqrt(metrics_mod._sum_squares(l1)).reshape(-1)
            t = np.abs(l2[..., 0]).reshape(-1)
            out = np.sqrt(np.pi * t)
            idx = np.flatnonzero(zn > 0)
            ratio = t[idx] / zn[idx] ** 2
            keep = ratio <= 1e28
            idx, ratio = idx[keep], ratio[keep]
            phi = solve_turning(ratio)
            near = ratio <= 1.0
            i, p = idx[near], phi[near]
            out[i] = zn[i] * np.where(p == 0.0, 1.0, p / np.sin(p))
            i, p = idx[~near], phi[~near]
            out[i] = p * np.sqrt(2.0 * t[i] / (2.0 * p - np.sin(2.0 * p)))
            return out

        rng = np.random.default_rng(14)
        lo1, hi1, lo2, hi2 = CC.unit_ball_bbox()
        box = rng.uniform(lo1, hi1, (2**16, 2)), rng.uniform(lo2, hi2, (2**16, 1))
        # a cloud of the cut ball B(x, 1): sphere points, then points inside it
        inner = np.arange(2**15) >= 2**14
        rho = np.where(inner, rng.uniform(size=2**15) ** 0.5, 1.0)
        radius = np.where(inner, rng.uniform(size=2**15) ** 0.25, 1.0)
        chi = rng.standard_normal((2**15, 2))
        chi *= (rho / np.linalg.norm(chi, axis=1))[:, None]
        z, t = sphere_point_arrays(1, chi, rng.uniform(-np.pi, np.pi, 2**15), radius)
        cut = z, t + cut_point(H1, 1.0).layer2
        # the center with and without t, t = 0, tiny |z| (its square
        # underflows to 0 in the last row), ratio 1 and around 1e28
        edge = (np.array([[0.0, 0.0], [0.0, 0.0], [0.6, 0.8], [1e-12, 0.0], [1e-160, 0.0],
                          [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0],
                          [1e-170, 0.0]]),
                np.array([[0.0], [0.3], [0.0], [0.5], [0.0], [1.0], [np.nextafter(1e28, 0)],
                          [1e28], [np.nextafter(1e28, 1e29)], [1e35], [1.0]]))
        for l1, l2 in (box, cut, edge):
            with np.errstate(divide="ignore", invalid="ignore"):
                want = compaction_norm(l1, l2)
            assert CC.norm_arrays(l1, l2).tobytes() == want.tobytes()

    def test_norm_accurate_up_to_the_center(self):
        # near the center phi nears pi, where |z| phi / sin phi magnifies phi's
        # rounding up to 1e-5; the center formula takes over above 1e28, within
        # 1 / sqrt(pi 1e28)
        rng = np.random.default_rng(13)
        ratio = np.concatenate([10.0 ** rng.uniform(-3, 30, 1000), [1.0, np.nextafter(1.0, 2.0),
                                1e22, np.nextafter(1e28, 0), 1e28, np.nextafter(1e28, 1e29)]])
        z = np.zeros((ratio.size, 2))
        z[:, 0] = 1.0
        got = CC.norm_arrays(z, ratio[:, None])
        for r, value in zip(ratio, got):
            assert abs(mp.mpf(float(value)) / mp_unit_cc_norm(r) - 1) <= 1e-14, r

    def test_negative_t_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            z = rng.uniform(-1, 1, 2)
            t = rng.uniform(0, 2)
            a = CC.norm(ci.point(z, [t]))
            b = CC.norm(ci.point(z, [-t]))
            assert a == pytest.approx(b, rel=1e-14)


class TestScalarScaling:
    @pytest.mark.parametrize("metric,p,q,expected", [
        (CC, ([0, 0], [1]), ([1e-170, 0], [1]), 1e-170),
        (GAUGE_H1, ([1e-100, 0], [1e-200]), ([0, 0], [0]), 2 ** 0.25 * 1e-100),
        (DINF, ([1e200, 0], [0]), ([-1e200, 0], [0]), 2e200),
    ], ids=["cc-tiny-difference", "gauge-tiny", "dinf-huge"])
    def test_no_under_or_overflow(self, metric, p, q, expected):
        d = metric.dist(ci.point(*p), ci.point(*q))
        assert d == pytest.approx(expected, rel=1e-15)
        assert metric.norm(ci.point(*p)) > 0

    def test_distance_beyond_float_range_overflows(self):
        with pytest.raises(OverflowError):
            DINF.dist(ci.point([1.7e308, 0], [0]), ci.point([-1.7e308, 0], [0]))

    @pytest.mark.parametrize("metric,spec,rel", [(DINF, H1, 0.0), (GAUGE_HT, HT, 1e-15),
                                                 (CC, H1, 0.0)], ids=["dinf", "gauge", "cc"])
    def test_dilation_by_powers_of_two(self, metric, spec, rel):
        # d(delta_s p, delta_s q) = s d(p, q); for s = 2^k with every dilated
        # coordinate a normal float the scalar path computes the same bits
        a1, a2 = random_cloud(spec, 200, 20, scale=1.0)
        b1, b2 = random_cloud(spec, 200, 21, scale=1.0)
        ks = np.random.default_rng(22).integers(-500, 501, 200).tolist()
        for k, *coords in zip(ks, a1, a2, b1, b2):
            p, q = ci.point(*coords[:2]), ci.point(*coords[2:])
            d = metric.dist(p, q)
            dp = ci.point(np.ldexp(p.layer1, k), np.ldexp(p.layer2, 2 * k))
            dq = ci.point(np.ldexp(q.layer1, k), np.ldexp(q.layer2, 2 * k))
            scaled = metric.dist(dp, dq)
            if rel:
                assert scaled == pytest.approx(math.ldexp(d, k), rel=rel), k
            else:
                assert scaled == math.ldexp(d, k), k


class TestSumSquares:
    """metrics._sum_squares, the layer |x|^2 of every norm_arrays, pinned to numpy bit for bit.

    A numpy whose reduction adds in another order fails here, rather than
    silently moving every Monte Carlo output.
    """

    @pytest.mark.parametrize("width", range(1, 9))
    def test_bitwise_numpy(self, width):
        rng = np.random.default_rng(width)
        pts = rng.standard_normal((4099, width + 3)) * 10.0 ** rng.uniform(-3, 3, (4099, 1))
        # contiguous, column views as the samplers slice them, a row stride, one point
        views = [np.ascontiguousarray(pts[:, :width]), pts[:, :width], pts[:, 3:],
                 pts[::3, 1:width + 1], pts[5, :width]]
        for x in views:
            s = metrics_mod._sum_squares(x)
            assert np.array_equal(s, np.sum(x * x, axis=-1))
            assert np.array_equal(np.sqrt(s), np.linalg.norm(x, axis=-1))

    @pytest.mark.parametrize("name", ["dinf-h1", "dinf-h2", "dinf-h1-htype", "dinf-k3",
                                      "gauge-h1", "gauge-h2", "gauge-h1-htype", "gauge-k3",
                                      "gauge-h4", "cc-h1", "cc-h2"])
    def test_norm_arrays_bitwise_numpy(self, name, monkeypatch):
        kind, group = name.split("-", 1)
        spec = {"h1": H1, "h2": H2, "h4": ci.heisenberg(4), "h1-htype": HT,
                "k3": quaternionic()}[group]
        metric = ci.make_metric(spec, {"metric": kind})
        rng = np.random.default_rng(len(name))
        n = 2**16
        scale = 10.0 ** rng.uniform(-3, 3, (n, 1))  # points dilated by 1e-3 to 1e3
        l1 = rng.uniform(-1, 1, (n, spec.dim1 + 1))[:, 1:] * scale
        l2 = rng.uniform(-1, 1, (n, spec.dim2)) * scale ** 2
        got = metric.norm_arrays(l1, l2)
        if kind == "dinf":
            ref = np.maximum(metric.c1 * np.linalg.norm(l1, axis=-1),
                             metric.c2 * np.sqrt(np.linalg.norm(l2, axis=-1)))
        elif kind == "gauge":
            n1sq, n2sq = np.sum(l1 * l1, axis=-1), np.sum(l2 * l2, axis=-1)
            ref = (n1sq * n1sq + metric.layer2_scale ** 2 * n2sq) ** 0.25
        else:
            # the rest of the CC norm is not in question: run it on numpy's |z|^2
            monkeypatch.setattr(metrics_mod, "_sum_squares", lambda x: np.sum(x * x, axis=-1))
            ref = metric.norm_arrays(l1, l2)
        assert np.array_equal(got, ref)


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


# ---------------------------------------------------------------------------
# each metric class states its rules: box, apex, description, volume
# ---------------------------------------------------------------------------

def _full_box(spec, r1, r2):
    return (np.full(spec.dim1, -r1), np.full(spec.dim1, r1),
            np.full(spec.dim2, -r2), np.full(spec.dim2, r2))


def _dinf_rules(spec, c1=1.0, c2=1.0):
    m = spec.dim1
    apex2 = np.zeros(spec.dim2)
    apex2[0] = (1.0 / c2) ** 2
    return (ci.DinfMetric(spec, c1, c2), _full_box(spec, 1.0 / c1, (1.0 / c2) ** 2), apex2,
            {"metric": "dinf", "c1": c1, "c2": c2}, "closed_form",
            (metrics_mod.alpha(m) * (1.0 / c1) ** m * metrics_mod.layer2_ball(spec, 1.0 / c2),
             0.0))


def _gauge_rules(spec):
    m, k = spec.dim1, spec.dim2
    scale = 4.0 / spec.beta
    apex2 = np.zeros(k)
    apex2[0] = 1.0 / scale
    vol = (metrics_mod.alpha(m) * math.pi ** (k / 2.0) * math.gamma(m / 4.0 + 1.0)
           / (scale ** k * math.gamma(k / 2.0 + m / 4.0 + 1.0)))
    return (ci.GaugeMetric(spec), _full_box(spec, 1.0, 1.0 / scale), apex2,
            {"metric": "gauge"}, "closed_form", (vol, 0.0))


def _cc_rules(spec, volume):
    box = (np.full(spec.dim1, -1.0), np.full(spec.dim1, 1.0),
           np.array([-2.0 / np.pi]), np.array([2.0 / np.pi]))
    return (ci.CCMetric(spec), box, np.array([-1.0 / math.pi]), {"metric": "cc"},
            "quadrature", volume)


# (metric, unit_ball_bbox, apex layer 2, describe, volume_method, unit_ball_volume),
# each written out as the expression, or for CC the value, each rule had before
# the classes stated them
METRIC_RULES = {
    "dinf-h1": lambda: _dinf_rules(H1),
    "dinf-h2": lambda: _dinf_rules(H2),
    "dinf-h1-c2": lambda: _dinf_rules(H1, c2=0.7),
    "dinf-h1-htype": lambda: _dinf_rules(HT),
    "gauge-h1": lambda: _gauge_rules(H1),
    "gauge-h1-htype": lambda: _gauge_rules(HT),
    "gauge-quaternionic": lambda: _gauge_rules(quaternionic()),
    "cc-h1": lambda: _cc_rules(H1, (3.303503048836701, 3.6676251467379085e-14)),
    "cc-h2": lambda: _cc_rules(H2, (4.8236498638435785, 5.355327141569143e-14)),
}


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


@pytest.mark.parametrize("name", list(METRIC_RULES))
def test_metric_rules_bit_for_bit(name):
    metric, box, apex2, description, method, volume = METRIC_RULES[name]()
    assert [_bits(x) for x in metric.unit_ball_bbox()] == [_bits(x) for x in box]
    apex, reach = ci.isodiametric._apex_and_bound(metric)
    assert _bits(apex.layer1) == _bits(np.zeros(metric.spec.dim1))
    assert _bits(apex.layer2) == _bits(apex2) and reach == math.sqrt(2.0)
    assert metric.describe() == description
    assert metric.volume_method == method
    got = unit_ball_volume(metric)
    assert [_bits(v) for v in got] == [_bits(v) for v in volume]


METRIC_CLASSES = metrics_mod._HomogeneousMetric.__subclasses__()


def test_rules_cover_every_metric_class():
    # a new metric class joins METRIC_RULES, with its own expressions
    covered = {type(METRIC_RULES[name]()[0]) for name in METRIC_RULES}
    assert covered == set(METRIC_CLASSES)


@pytest.mark.parametrize("cls", METRIC_CLASSES, ids=lambda cls: cls.__name__)
def test_metric_class_states_its_pieces(cls):
    # the perfbench tracer patches norm_arrays in each class's own namespace
    own = vars(cls)
    assert {"name", "norm_arrays", "radial_norm", "_radial_bounds", "_box_radii",
            "_volume"} <= set(own)
    assert own["norm_arrays"] is metrics_mod._HomogeneousMetric.norm_arrays
