import contextlib
import io
import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carnotiso as ci
from carnotiso import cli, isodiametric, metrics
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
        # the Monte Carlo ratio, which reads the region; every metric here has k = 1
        apex, _ = isodiametric._apex_and_bound(metric)
        return ci.bump_ratio(BumpParams(apex, rho), metric, budget, seed=2).cross_check

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

    def test_equal_calls_build_one_excess(self, built, monkeypatch):
        # the slice quadrature is built with the region, under its key: once a bump
        calls, measure = [], isodiametric._slice_measure

        def spy(*args):
            calls.append(args)
            return measure(*args)

        monkeypatch.setattr(isodiametric, "_slice_measure", spy)
        apex, _ = isodiametric._apex_and_bound(CC)
        first, again = (ci.bump_ratio(BumpParams(apex, 2 - SQRT2), ci.CCMetric(H1), 64, seed)
                        for seed in (1, 2))
        assert len(calls) == len(built) == 1
        assert first.ratio == again.ratio and first.excess == again.excess


RHO = 2 - SQRT2
# the proven enclosure of the CC bump's ratio on H^1 at rho = 2 - sqrt 2
CC_BRACKET = (1.0044786297, 1.0044786839)


def mp_cc_height(x):
    """The CC unit sphere's half height T at |z| = x in [0, 1), at mpmath's precision.

    The secant method on 1 - sin phi / phi = 1 - x from _half_height's first guess,
    within 4%; 1 - x below 10^-d needs d more digits.
    """
    w = 1 - mp.mpf(x)
    guess = mp.sqrt(6 * w) * (1 + (mp.pi / mp.sqrt(6) - 1) * w)
    phi = mp.findroot(lambda p: 1 - mp.sin(p) / p - w, guess)
    return (1 - mp.sin(2 * phi) / (2 * phi)) / phi


def mp_cc_gap(r):
    """s + h_b - h of the CC bump on H^1 at |z| = r: its slice out of B starts at its root."""
    s, rho = -mp.mpf(isodiametric._apex_and_bound(CC)[0].layer2[0]), mp.mpf(RHO)
    return s + rho ** 2 * mp_cc_height(r / rho) - mp_cc_height(r)


def bump_doc(*argv):
    """bump-search's JSON result for argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["bump-search", *argv]) == 0
    return json.loads(out.getvalue())["result"]


class TestSliceQuadrature:
    """bump_ratio's k = 1 ratio: d_inf's closed form, the others' slice quadrature."""

    def test_half_heights(self):
        # d_inf's constant r2, gauge's r2 (1 - r^4)^(1/2) and CC's T, to its rim
        r = np.linspace(0.0, 1.0, 33)
        assert np.array_equal(ci.DinfMetric(H1, c2=0.7).half_height(r), np.full(33, 0.7 ** -2))
        assert np.array_equal(GAUGE.half_height(r), 0.25 * np.sqrt(1.0 - r ** 4))
        got = CC.half_height(r)
        assert np.array_equal(got[:-1], metrics._half_height(np.sqrt(1.0 - r[:-1])))
        assert got[-1] == 0.0
        # below u = (1 - x)^(1/2) = 1e-7, where the Newton step's slope cancels, the first
        # term of T's series: u = 1.05e-8 and 8.4e-8 there, 1.19e-7 and 1e-5 above
        with mp.workdps(60):
            for x in (1.0 - 2.0 ** -53, 1.0 - 2.0 ** -47, 1.0 - 2.0 ** -46, 1.0 - 1e-10):
                want = mp_cc_height(mp.mpf(x))
                assert abs(CC.half_height(x) - want) <= 1e-15 * want

    def test_cc_h1_lies_in_the_proven_bracket(self, monkeypatch):
        # the ratio and its error bar inside the enclosure, and the one kink's bracket
        # straddles the root of the gap computed apart, by mpmath: a kink moved by 1e-6
        # leaves both of its ends on one side
        kinks, find = [], isodiametric._kinks
        monkeypatch.setattr(isodiametric, "_kinks", lambda *a: kinks.append(find(*a)) or kinks[-1])
        monkeypatch.setattr(isodiametric, "_regions", type(isodiametric._regions)())
        result = ci.maximize_bump(CC, budget=1 << 10, seed=1)
        ratio = result.ratio
        assert ratio.method == result.excess.method == "quadrature"
        assert ratio.error <= 1e-12 and ratio.value == 1.0 + result.excess.value
        assert CC_BRACKET[0] < ratio.value - ratio.error < ratio.value + ratio.error < CC_BRACKET[1]
        (row, lo, hi), = kinks
        assert row.tolist() == [0] and hi[0] - lo[0] < 1e-9
        with mp.workdps(25):
            assert mp_cc_gap(mp.mpf(lo[0])) > 0 > mp_cc_gap(mp.mpf(hi[0]))

    def test_cc_h1_measure_matches_mpmath(self):
        # Haar(bump \ B) within its own error bar of a 25-digit quadrature, up to the root
        rho, s = RHO, float(isodiametric._apex_and_bound(CC)[0].layer2[0])
        est = isodiametric._slice_measure(CC, s, rho)
        with mp.workdps(25):
            kink = mp.findroot(mp_cc_gap, (mp.mpf("0.33"), mp.mpf("0.34")), solver="anderson")
            want = mp.quad(lambda r: mp_cc_gap(r) * 2 * mp.pi * r, [0, kink])
            assert abs(est.value - want) <= est.error <= 1e-14

    def test_gauge_htype_matches_mpmath(self):
        # h = (1 - r^4)^(1/2) and h_b = rho^2 (1 - (r / rho)^4)^(1/2) in units of s;
        # Haar(B) is int_0^1 2 h(r) r dr = pi / 4 in those units, as 2 pi cancels
        result = ci.maximize_bump(GAUGE, budget=1 << 10, seed=1)
        with mp.workdps(30):
            rho = mp.mpf(RHO)

            def h(r):
                return mp.sqrt(1 - r ** 4)

            def hb(r):
                return rho ** 2 * mp.sqrt(1 - (r / rho) ** 4)

            kink = mp.findroot(lambda r: h(r) + hb(r) - 1, (mp.mpf("0.5"), rho - mp.mpf("1e-9")),
                               solver="anderson")
            extra = (mp.quad(lambda r: (1 + hb(r) - h(r)) * r, [0, kink])
                     + mp.quad(lambda r: 2 * hb(r) * r, [kink, rho]))
            want = 1 + extra / (mp.pi / 4)
            assert result.ratio.method == "quadrature" and result.ratio.error <= 1e-12
            assert abs(result.ratio.value - want) <= 1e-12
            assert abs(result.ratio.value - want) <= result.ratio.error

    @pytest.mark.parametrize("metric", [DINF, ci.DinfMetric(ci.heisenberg(2)),
                                        ci.DinfMetric(H1, c2=0.7)], ids=["h1", "h2", "c2-0.7"])
    def test_dinf_is_the_closed_form(self, metric):
        result = ci.maximize_bump(metric, budget=1 << 10, seed=1)
        excess = RHO ** metric.spec.Q / 2.0
        assert result.ratio.value == 1.0 + excess and result.ratio.method == "closed_form"
        assert result.excess.value == excess and 0.0 < result.excess.error <= 4 * math.ulp(excess)

    def test_dinf_h40_excess(self):
        # 1 + rho^42 / 2 rounds to 1; the excess is printed apart
        result = bump_doc("--group", "h40", "--budget", "4096", "--seed", "1")
        assert result["ratio"]["value"] == 1.0
        assert result["excess"]["value"] == pytest.approx(RHO ** 82 / 2.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", range(14, 21))
    def test_cc_excess_is_printed_above_zero(self, n):
        # the float ratio reads 1.0 from H^14 on, where 10^6 draws make no hit; the
        # quadrature's excess falls from 4.9e-16 at H^14 to 8.0e-22 at H^20
        result = bump_doc("--metric", "cc", "--group", f"h{n}", "--budget", "2048", "--seed", "1")
        excess = result["excess"]
        assert excess["method"] == "quadrature"
        assert excess["value"] > 3.0 * excess["error"] > 0.0
        assert 7e-22 < excess["value"] < 6e-16

    def test_k_above_one_keeps_the_monte_carlo(self):
        # the quaternionic bump's slice is a lens: no quadrature yet
        result = ci.maximize_bump(ci.DinfMetric(quaternionic()), budget=1 << 12, seed=1)
        assert result.ratio.method == "monte_carlo"
        assert result.excess is None and result.cross_check is None
        assert set(result.to_dict()) == {"ratio", "diameter", "set"}

    def test_cross_check_keys(self):
        doc = bump_doc("--metric", "cc", "--budget", "4096", "--seed", "3")
        check = doc["cross_check"]
        assert check["method"] == "monte_carlo" and check["samples"] == 4096
        assert check["seed"] == 3
        # the pull is taken before the 1 is added, to 1e-16 / error of this
        pull = (check["value"] - 1.0 - doc["excess"]["value"]) / check["error"]
        assert abs(check["pull"] - pull) < 1e-9 and abs(pull) < 3.0


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
