import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carnotiso as ci
from carnotiso import isodiametric, metrics
from carnotiso.geodesics import sphere_point_arrays
from carnotiso.groups import GroupError, standard_symplectic
from carnotiso.isodiametric import BumpParams, CertificateError, max_certified_rho
from carnotiso.measures import BoundingBox
from conftest import quaternionic, region_cube

H1 = ci.heisenberg(1)
HT = ci.h_type(standard_symplectic())

DINF = ci.DinfMetric(H1)
GAUGE = ci.GaugeMetric(HT)
CC = ci.CCMetric(H1)

SQRT2 = math.sqrt(2.0)


def half_ball(metric):
    """Unit ball cut to t >= 0; keeps the horizontal diameter pair."""
    base = ci.ball_set(metric)
    box = base.bounding_box
    cut = BoundingBox(box.dim1, box.r1, np.zeros_like(box.lo2), box.hi2)

    def member(a, l2):
        return base.membership(a, l2) & np.all(l2 >= 0, axis=-1)

    return ci.SampledSet(member, cut)


class TestRatio:
    @pytest.mark.parametrize("metric", [DINF, GAUGE, CC], ids=["dinf", "gauge", "cc"])
    def test_ball_scores_one(self, metric):
        res = ci.isodiametric_ratio(ci.ball_set(metric), metric, 2.0, 300000, seed=0)
        assert abs(res.ratio.value - 1.0) < 3.5 * res.ratio.error
        assert res.diameter_used == 2.0
        assert res.to_dict()["diameter"] == {"value": 2.0, "kind": "exact"}

    def test_dilated_ball_scores_one(self):
        res = ci.isodiametric_ratio(ci.ball_set(DINF, radius=1.5), DINF, 3.0, 300000, seed=1)
        assert abs(res.ratio.value - 1.0) < 3.5 * res.ratio.error

    def test_translated_ball_scores_one(self):
        center = ci.point([0, 0], [0.3])
        res = ci.isodiametric_ratio(ci.ball_set(DINF, center=center), DINF, 2.0,
                                    300000, seed=2)
        assert abs(res.ratio.value - 1.0) < 3.5 * res.ratio.error

    def test_half_ball_scores_half(self):
        res = ci.isodiametric_ratio(half_ball(DINF), DINF, 2.0, 300000, seed=3)
        assert abs(res.ratio.value - 0.5) < 3.5 * res.ratio.error

    def test_half_ball_diameter_is_two(self):
        # the horizontal pair (+-1, 0, 0) survives the cut
        rng = np.random.default_rng(4)
        l1 = rng.uniform(-1, 1, (3000, 2))
        l2 = rng.uniform(0, 1, (3000, 1))
        keep = DINF.norm_arrays(l1, l2) <= 1
        l1 = np.vstack([l1[keep], [[1, 0]], [[-1, 0]]])
        l2 = np.vstack([l2[keep], [[0]], [[0]]])
        d = ci.set_diameter((l1, l2), DINF)
        assert d == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("diameter", [0.0, -1.0, math.inf, math.nan])
    def test_degenerate_diameter(self, diameter):
        with pytest.raises(ValueError, match="degenerate diameter"):
            ci.isodiametric_ratio(ci.ball_set(DINF), DINF, diameter, 1000, seed=0)


class TestApexReach:
    def test_dinf(self):
        rep = ci.apex_reach(DINF, budget=200000, seed=0)
        assert rep.reach == SQRT2
        assert rep.sampled_sup <= SQRT2 + 1e-9
        assert rep.sampled_sup >= SQRT2 - 1e-2

    def test_gauge(self):
        rep = ci.apex_reach(GAUGE, budget=200000, seed=0)
        assert rep.reach == SQRT2
        assert rep.sampled_sup <= SQRT2 + 1e-9

    def test_cc(self):
        # the CC reach evidence is the verify cc computation: the apex is the
        # inverse of the cut point, so d(apex, w) = N(cut_point * w)
        rep = ci.apex_reach(CC, budget=200000, seed=0)
        cut = ci.verify_assumption_C(H1, sample_budget=200000, seed=0)
        assert rep.reach == SQRT2
        assert rep.sampled_sup == cut.sampled_max_roundtrip
        assert SQRT2 - 1e-2 <= rep.sampled_sup <= SQRT2

    def test_cc_norm_square_is_pi_lipschitz_in_t(self):
        # the step of the CC reach proof: d(N^2)/d|t| = phi < pi, and
        # N^2 = pi |t| on the center
        rng = np.random.default_rng(11)
        m = 100000
        z = rng.uniform(-1, 1, (m, 2))
        z[: m // 10] = 0.0
        t, s = rng.uniform(-1, 1, (2, m, 1))
        gap = CC.norm_arrays(z, t + s) ** 2 - CC.norm_arrays(z, t) ** 2
        assert np.max(gap - math.pi * np.abs(s[:, 0])) <= 1e-12

    def test_cc_sphere_sweep_peaks_at_sqrt2(self):
        # d(apex, .) over a dense sweep of the CC unit sphere
        apex, reach = isodiametric._apex_and_bound(CC)
        phi = np.linspace(-math.pi, math.pi, 200001)
        z, t = sphere_point_arrays(1, np.array([1.0, 0.0]), phi, 1.0)
        d = CC.dist_arrays(apex.layer1, apex.layer2, z, t)
        assert reach == SQRT2
        assert SQRT2 - 1e-12 <= np.max(d) <= SQRT2

    def test_box_beyond_the_float_range_is_refused_before_any_draw(self, monkeypatch):
        # the identity ball's box is finite, but B(apex^-1, 1) reaches t = -2e154,
        # whose square overflows
        def no_draw(*args):
            raise AssertionError("drew samples")

        monkeypatch.setattr(ci.sampling, "map_chunks", no_draw)
        with pytest.raises(FloatingPointError, match="layer 2"):
            ci.apex_reach(ci.DinfMetric(H1, 1.0, 1e-77), budget=1000)

    @pytest.mark.parametrize("metric", [DINF, ci.GaugeMetric(H1)], ids=["dinf", "gauge"])
    def test_one_layer_one_square_a_block(self, metric, monkeypatch):
        # the reach draw is one double a point, u, and its row the profile's (a, t):
        # no layer-1 or layer-2 block is drawn or summed (_sum_squares is not called),
        # and the profile and t's square run once a block, on the rows the cull keeps
        # (d_inf's bottom face, a quarter of them)
        calls, widths, sizes = [], [], []
        sum_squares, blocks, profile = (metrics._sum_squares, ci.sampling.strata_blocks,
                                        type(metric)._unit_sphere)

        def spy_blocks(rng, counts, lo, hi):
            widths.append(len(lo[0]))
            return blocks(rng, counts, lo, hi)

        def spy_profile(self, theta):
            sizes.append(len(theta))
            return profile(self, theta)

        ci.apex_reach(metric, budget=1, seed=0)  # the cull's table, kept by value
        monkeypatch.setattr(metrics, "_sum_squares", lambda x: calls.append(x) or sum_squares(x))
        monkeypatch.setattr(ci.sampling, "strata_blocks", spy_blocks)
        monkeypatch.setattr(type(metric), "_unit_sphere", spy_profile)
        ci.apex_reach(metric, budget=4 * ci.sampling.BLOCK, seed=0)
        assert calls == [] and widths == [1]
        assert len(sizes) == 1 + 4 and all(n < 0.3 * ci.sampling.BLOCK for n in sizes)

    def test_report_dict(self):
        rep = ci.apex_reach(DINF, budget=10000, seed=1)
        doc = rep.to_dict()
        assert doc["certified_reach"] == rep.reach
        assert "analytic_bound" not in doc
        assert doc["samples"] == 10000


class TestApex:
    @pytest.mark.parametrize("metric", [DINF, GAUGE, CC, ci.DinfMetric(ci.heisenberg(2)),
                                        ci.GaugeMetric(ci.heisenberg(2)),
                                        ci.CCMetric(ci.heisenberg(2))],
                             ids=["dinf", "gauge", "cc", "dinf-h2", "gauge-h2", "cc-h2"])
    def test_layer1_has_no_sign_bit(self, metric):
        # every apex is central, with a plain +0.0 layer 1 in the reports
        apex, _ = isodiametric._apex_and_bound(metric)
        assert not np.any(np.signbit(apex.layer1))
        assert np.all(apex.layer1 == 0)

    def test_cc_apex_is_inverse_cut_point(self):
        apex, _ = isodiametric._apex_and_bound(CC)
        assert apex.layer2.tolist() == [-ci.cut_point(H1, 1.0).t] == [-1 / math.pi]

    def test_evidence_path_needs_no_group_law(self, monkeypatch):
        # translations by the central apex are layer-2 shifts; the general
        # group law stays with dist_arrays
        def refuse(*args):
            raise AssertionError("groups.mul_arrays called")

        monkeypatch.setattr(ci.groups, "mul_arrays", refuse)
        for metric in (DINF, GAUGE, CC):
            assert ci.maximize_bump(metric, budget=4000, seed=1).ratio.value >= 1.0
            assert ci.apex_reach(metric, budget=4000, seed=1).sampled_sup <= SQRT2 + 1e-9
        with pytest.raises(AssertionError, match="mul_arrays"):
            DINF.dist(ci.point([0, 0], [0]), ci.point([1, 0], [0]))


class TestBump:
    def test_certified_rho(self):
        assert max_certified_rho(DINF, SQRT2) == pytest.approx(2 - SQRT2)

    def test_zero_rho_is_exact_one(self):
        apex = ci.point([0, 0], [1.0])
        res = ci.bump_ratio(BumpParams(apex=apex, rho=0.0), DINF, 1000, seed=0,
                            reach=SQRT2)
        assert res.ratio.value == 1.0 and res.ratio.error == 0.0
        assert res.ratio.method == "closed_form"
        # the same descriptor as every other bump, apex and metric included
        pos = ci.bump_ratio(BumpParams(apex=apex, rho=0.3), DINF, 1000, seed=0, reach=SQRT2)
        zero_set, pos_set = res.to_dict()["set"], pos.to_dict()["set"]
        assert zero_set.pop("rho") == 0.0 and pos_set.pop("rho") == 0.3
        assert zero_set == pos_set

    def test_oversized_rho_rejected(self):
        apex = ci.point([0, 0], [1.0])
        with pytest.raises(CertificateError):
            ci.bump_ratio(BumpParams(apex=apex, rho=0.7), DINF, 1000, seed=0,
                          reach=SQRT2)
        with pytest.raises(CertificateError):
            ci.bump_ratio(BumpParams(apex=apex, rho=-0.1), DINF, 1000, seed=0,
                          reach=SQRT2)
        # NaN fails the one negated range check, before any ball is built
        with pytest.raises(CertificateError, match="NaN"):
            ci.bump_ratio(BumpParams(apex=apex, rho=math.nan), DINF, 1000, seed=0,
                          reach=SQRT2)

    @pytest.mark.parametrize("metric", [DINF, GAUGE, CC], ids=["dinf", "gauge", "cc"])
    def test_rho_max_has_no_slack(self, metric):
        # the float 2 - sqrt(2) lies below the true 2 - sqrt 2 and its next
        # float above it, so that next float must not get the exact diameter 2
        apex, reach = isodiametric._apex_and_bound(metric)
        rho_max = max_certified_rho(metric, reach)
        above = float(np.nextafter(rho_max, 1.0))
        with mp.workdps(40):
            assert mp.mpf(rho_max) < 2 - mp.sqrt(2) < mp.mpf(above)
        with pytest.raises(CertificateError, match="exceeds"):
            ci.bump_ratio(BumpParams(apex=apex, rho=above), metric, 1000, seed=0)
        # rho_max itself is what maximize_bump passes
        res = ci.bump_ratio(BumpParams(apex=apex, rho=rho_max), metric, 1000, seed=0)
        assert res.diameter_used == 2.0 and res.set_descriptor["rho"] == rho_max

    def test_wrong_apex_rejected(self):
        # [0, 4] is not the d_inf apex: it lies at distance sqrt(5) > 2 from
        # the ball point [0, -1], so diameter 2 would be false
        apex = ci.point([0, 0], [4.0])
        with pytest.raises(CertificateError, match="apex"):
            ci.bump_ratio(BumpParams(apex=apex, rho=2 - SQRT2), DINF, 20000, seed=0)
        # exact comparison: a relative error of 1e-9 is not the apex either
        near = ci.point([0, 0], [1.0 + 1e-9])
        with pytest.raises(CertificateError, match="apex"):
            ci.bump_ratio(BumpParams(apex=near, rho=2 - SQRT2), DINF, 1000, seed=0)

    @pytest.mark.parametrize("metric", [DINF, GAUGE, CC], ids=["dinf", "gauge", "cc"])
    def test_reach_below_proven_rejected(self, metric):
        apex, _ = isodiametric._apex_and_bound(metric)
        with pytest.raises(CertificateError, match="reach"):
            ci.bump_ratio(BumpParams(apex=apex, rho=0.5), metric, 1000, seed=0, reach=1.0)

    def test_dinf_bump_beats_ball(self):
        apex = ci.point([0, 0], [1.0])
        rho = 2 - SQRT2
        res = ci.bump_ratio(BumpParams(apex=apex, rho=rho), DINF, 400000, seed=5,
                            reach=SQRT2)
        assert res.ratio.value > 1.0 + 3.0 * res.ratio.error
        assert res.ratio.value == pytest.approx(1.0588, abs=5e-3)

    def test_bump_diameter_certificate(self):
        # sampled points of ball-plus-bump stay within diameter 2
        apex = ci.point([0, 0], [1.0])
        rho = 2 - SQRT2
        rng = np.random.default_rng(6)
        ball = ci.ball_set(DINF)
        bump = ci.ball_set(DINF, center=apex, radius=rho)
        pts1, pts2 = [], []
        for s in (ball, bump):
            lo, hi = region_cube(s.bounding_box)
            draw = rng.uniform(lo, hi, size=(4000, len(lo)))
            keep = s.membership(metrics._sum_squares(draw[:, :2]), draw[:, 2:])
            pts1.append(draw[keep, :2])
            pts2.append(draw[keep, 2:])
        d = ci.set_diameter((np.vstack(pts1), np.vstack(pts2)), DINF)
        assert d <= 2.0 + 1e-9

    @pytest.mark.parametrize("metric", [DINF, GAUGE, CC], ids=["dinf", "gauge", "cc"])
    def test_extra_mask_matches_full_evaluation(self, metric, monkeypatch):
        # bump_ratio evaluates the base-ball norm only on bump hits; the mask
        # must equal the one that evaluates both norms everywhere
        from carnotiso import measures
        seen = []

        def capture(sampled, budget, seed):
            seen.append(sampled)
            return ci.EstimateWithError(0.0, 0.0, "monte_carlo", budget, seed)

        monkeypatch.setattr(measures, "mc_measure", capture)
        apex, _ = isodiametric._apex_and_bound(metric)
        rho = 2 - SQRT2
        ci.bump_ratio(BumpParams(apex=apex, rho=rho), metric, 1000, seed=0, reach=SQRT2)
        extra = seen[0]
        bump = ci.ball_set(metric, center=apex, radius=rho)
        box = extra.bounding_box
        lo, hi = region_cube(box)
        draw = np.random.default_rng(8).uniform(lo, hi, size=(20000, len(lo)))
        l1, l2 = draw[:, :box.dim1], draw[:, box.dim1:]
        a = metrics._sum_squares(l1)
        full = bump.membership(a, l2) & (metric.norm_arrays(l1, l2) > 1.0)
        mask = extra.membership(a, l2)
        assert np.count_nonzero(full) > 0
        assert np.array_equal(mask, full)

    @pytest.mark.parametrize("metric", [DINF, GAUGE, CC], ids=["dinf", "gauge", "cc"])
    def test_maximize_bump(self, metric, monkeypatch):
        # the ratio never decreases with rho, so the search is one estimate
        # at the certified maximum
        calls = []
        bump_ratio = isodiametric.bump_ratio

        def counted(*args, **kwargs):
            calls.append(args[0].rho)
            return bump_ratio(*args, **kwargs)

        monkeypatch.setattr(isodiametric, "bump_ratio", counted)
        res = ci.maximize_bump(metric, budget=100000, seed=0)
        assert calls == [2 - SQRT2]
        assert res.ratio.value > 1.0 + 3.0 * res.ratio.error
        search = res.set_descriptor.pop("search")
        assert search == {"certified_rho_max": 2 - SQRT2, "reach": SQRT2}
        assert res.set_descriptor["rho"] == 2 - SQRT2
        apex, _ = isodiametric._apex_and_bound(metric)
        direct = bump_ratio(BumpParams(apex=apex, rho=2 - SQRT2), metric, 100000, seed=0)
        assert res.to_dict() == direct.to_dict()


class TestBumpRegionMemo:
    """bump_ratio builds a bump's region once, keyed by the values it reads."""

    @pytest.fixture
    def built(self, monkeypatch):
        # an empty memo, and the regions _region builds
        built, region = [], ci.measures._region

        def spy(kept, removed):
            built.append(region(kept, removed))
            return built[-1]

        monkeypatch.setattr(ci.measures, "_region", spy)
        monkeypatch.setattr(isodiametric, "_regions", type(isodiametric._regions)())
        return built

    @staticmethod
    def _ratio(metric, rho=2 - SQRT2, budget=1 << 15):
        apex, _ = isodiametric._apex_and_bound(metric)
        return ci.bump_ratio(BumpParams(apex, rho), metric, budget, seed=2).ratio

    def test_equal_calls_build_one_region(self, built):
        # a new metric on a new spec of the same values is the same key, not a new region
        first = self._ratio(CC)
        again = self._ratio(ci.CCMetric(ci.heisenberg(1)))
        assert len(built) == 1 and again == first
        # the same bits as a region built afresh
        apex, _ = isodiametric._apex_and_bound(CC)
        bump, ball = ci.ball_set(CC, apex, 2 - SQRT2), ci.ball_set(CC)
        fresh = ci.measures.mc_measure(ci.measures.difference(bump, ball), 1 << 15, 2)
        assert 1.0 + ci.measures.per_unit_ball(fresh, *metrics.unit_ball_volume(CC)).value \
            == first.value
        # the memo shares the region's arrays: none can be written
        region = built[0]
        for box in (region, region.whole):
            for values in (box.lo2, box.hi2, box.shells):
                assert not values.flags.writeable

    def test_changed_values_build_new_regions(self, built):
        # a changed rho, or d_inf's c2, is a new key
        self._ratio(DINF)
        self._ratio(DINF, rho=0.5)
        self._ratio(ci.DinfMetric(H1, c2=0.7))
        self._ratio(ci.DinfMetric(H1, c2=0.7))
        assert len(built) == 3
        assert built[0].hi2[0, 0] != built[2].hi2[0, 0]

    def test_only_the_last_few_are_kept(self, built):
        rhos = [0.1 * (i + 1) for i in range(isodiametric.REGIONS + 1)]
        for rho in rhos:
            self._ratio(GAUGE, rho=rho, budget=64)
        assert len(isodiametric._regions) == isodiametric.REGIONS
        self._ratio(GAUGE, rho=rhos[-1], budget=64)  # the most recent: kept
        assert len(built) == len(rhos)
        self._ratio(GAUGE, rho=rhos[0], budget=64)  # the least recent: dropped, built again
        assert len(built) == len(rhos) + 1


def cdc(n):
    """The projection bound of the CC distance on H^n."""
    return ci.projection_upper_bound(ci.CCMetric(ci.heisenberg(n)))


class TestAnalyticBounds:
    def test_cdinf(self):
        assert ci.projection_upper_bound(DINF) == 2.0
        with pytest.raises(GroupError):
            ci.projection_upper_bound(ci.DinfMetric(ci.heisenberg(0)))

    def test_cdc_frozen_values(self):
        assert cdc(1) == pytest.approx(1.2108358735762523, abs=1e-10)
        assert cdc(8) == pytest.approx(1.9732925687335445, abs=1e-9)
        assert cdc(9) == pytest.approx(2.0678860271939445, abs=1e-9)

    def test_cdc_paper_window(self):
        assert 1.0 < cdc(1) <= 1.22
        assert cdc(8) <= 1.98
        assert cdc(9) > 2.0

    def test_cdc_monotone(self):
        vals = [cdc(n) for n in range(1, 10)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_cdc_identity_with_volume(self):
        # (4 alpha_2n / pi) / vol, checked against the quadrature value
        for n in (1, 3):
            vol = ci.cc_unit_ball_volume(n).value
            expect = 4 * ci.alpha(2 * n) / math.pi / vol
            assert cdc(n) == pytest.approx(expect, rel=1e-12)


K3 = quaternionic()
BOUND_SPECS = {"h1": H1, "h2": ci.heisenberg(2), "h1-htype": HT, "quaternionic": K3}


class TestProjectionBound:
    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1.0), st.sampled_from(sorted(BOUND_SPECS)))
    @settings(max_examples=200, deadline=None)
    def test_dinf_is_two_to_the_k(self, c1, frac, group):
        spec = BOUND_SPECS[group]
        c2 = frac * (c1 * 2.0 / math.sqrt(spec.beta))
        bound = ci.projection_upper_bound(ci.DinfMetric(spec, c1, c2))
        assert bound == 2.0 ** spec.dim2

    @pytest.mark.parametrize("group,expect", [
        ("h1", 8.0 / math.pi), ("h1-htype", 8.0 / math.pi), ("h2", 3.0), ("quaternionic", 20.0)])
    def test_gauge(self, group, expect):
        bound = ci.projection_upper_bound(ci.GaugeMetric(BOUND_SPECS[group]))
        assert bound == pytest.approx(expect, rel=1e-15)

    def test_gauge_same_on_both_models_of_h1(self):
        # the two models of H^1 have one gauge ball up to t = -4 Z, and its
        # layer-2 segment has the measure exactly 2 s^2 in both
        assert (ci.projection_upper_bound(ci.GaugeMetric(H1)).hex()
                == ci.projection_upper_bound(ci.GaugeMetric(HT)).hex())

    @pytest.mark.parametrize("n", range(1, 10))
    def test_cc(self, n):
        vol, _ = ci.unit_ball_volume(ci.CCMetric(ci.heisenberg(n)))
        assert cdc(n) == pytest.approx(4.0 * ci.alpha(2 * n) / math.pi / vol, rel=1e-15)


# sets {|x| <= 1, |Z| <= height(|x|^2)} of diameter 2, with their ratio
# Haar(A) / Haar(B) in closed form
KNOWN_SETS = {
    # |Z' - Z - b/2| <= 4 - (r - r')^2 / 4; ratio 2 int_0^1 (2 - a/4)^3 a da
    "dinf-quaternionic": (ci.DinfMetric(K3), lambda a: 2.0 - a / 4.0, 989.0 / 160.0),
    # |t' - t - 2 omega| <= 4 - (r - r')^2; ratio 3 pi / (2 pi)
    "dinf-h1": (DINF, lambda a: 2.0 - a, 1.5),
    # |z|^2 + t^2 / 4 <= 1; ratio (8 pi / 3) / (pi^2 / 2)
    "gauge-h1": (ci.GaugeMetric(H1), lambda a: 2.0 * np.sqrt(1.0 - a), 16.0 / (3.0 * math.pi)),
}


@pytest.mark.parametrize("name", sorted(KNOWN_SETS))
def test_bound_above_known_set(name):
    metric, height, ratio = KNOWN_SETS[name]
    m, k = metric.spec.dim1, metric.spec.dim2
    assert ci.projection_upper_bound(metric) >= ratio

    def member(a, l2):
        return (a <= 1.0) & (np.linalg.norm(l2, axis=-1) <= height(np.minimum(a, 1.0)))

    box = BoundingBox(m, 1.0, np.full(k, -2.0), np.full(k, 2.0))
    res = ci.isodiametric_ratio(ci.SampledSet(member, box), metric, 2.0, 10**6, seed=11)
    assert abs(res.ratio.value - ratio) < 3.0 * res.ratio.error
    # the diameter: points at the ends of fibres over the closed unit ball
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3000, m))
    x *= (rng.uniform(size=3000) ** (1.0 / m) / np.linalg.norm(x, axis=1))[:, None]
    z = rng.standard_normal((3000, k))
    z *= (height(np.minimum(np.sum(x * x, axis=1), 1.0)) / np.linalg.norm(z, axis=1))[:, None]
    assert 1.99 < ci.set_diameter((x, z), metric) <= 2.0 + 1e-12


class TestSigma:
    def test_interval(self):
        sb = ci.SigmaBounds(C_lower=1.0, C_upper=2.0)
        assert sb.sigma_interval == (0.5, 1.0)

    def test_point_interval(self):
        assert ci.SigmaBounds(C_lower=1.0, C_upper=1.0).sigma_interval == (1.0, 1.0)

    def test_inconsistent(self):
        with pytest.raises(ValueError):
            ci.SigmaBounds(C_lower=2.5, C_upper=2.0)
        with pytest.raises(ValueError):
            ci.SigmaBounds(C_lower=0.5, C_upper=2.0)

    def test_dinf_interval(self):
        sb = ci.sigma_bounds_for(DINF, budget=200000, seed=0)
        lo, hi = sb.sigma_interval
        assert lo == 0.5
        assert hi < 1.0  # the bump pushes C strictly above 1

    def test_cc_interval(self):
        sb = ci.sigma_bounds_for(CC, budget=200000, seed=0)
        lo, hi = sb.sigma_interval
        assert lo == pytest.approx(1 / 1.2108358735762523, abs=1e-9)
        assert lo > 0.5
        assert hi <= 1.0

    def test_gauge_interval(self):
        sb = ci.sigma_bounds_for(GAUGE, budget=200000, seed=0)
        lo, hi = sb.sigma_interval
        assert lo == pytest.approx(math.pi / 8.0, rel=1e-15)
        assert hi < 1.0

    def test_dict(self):
        doc = ci.SigmaBounds(C_lower=1.1, C_upper=1.5).to_dict()
        assert doc["sigma_interval"] == [1 / 1.5, 1 / 1.1]
