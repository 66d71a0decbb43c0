import json
import math

import mpmath as mp
import numpy as np
import pytest

import carnotiso as ci
from carnotiso import geodesics, sampling
from carnotiso.cli import main
from carnotiso.geodesics import GeodesicParams, sphere_point_arrays
from carnotiso.groups import GroupError, mul_arrays, standard_symplectic
from carnotiso.metrics import KERNEL_REL, MetricError, _sphere_profile, _sum_squares
from carnotiso.sampling import substream
from conftest import close_to, cut_ball_points, mp_unit_cc_norm, quaternionic

H1 = ci.heisenberg(1)
H2 = ci.heisenberg(2)
CC = ci.CCMetric(H1)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestRefusals:
    """Every CC entry point refuses a group outside the H^n model [z, t] (k = 1, beta = 4)."""

    @pytest.mark.parametrize("spec", [ci.h_type(standard_symplectic()), quaternionic()],
                             ids=["h1-htype", "quaternionic"])
    def test_htype_refused(self, spec):
        params = GeodesicParams(unit(np.ones(spec.dim1)), 0.5, 1.0)
        with pytest.raises(GroupError, match="CC sphere parameterization"):
            ci.cc_sphere_point(spec, params)
        with pytest.raises(GroupError, match="CC geodesics"):
            ci.cc_geodesic_sample(spec, params, 0.5)
        with pytest.raises(GroupError, match="cut points"):
            ci.cut_point(spec, 1.0)
        with pytest.raises(MetricError, match="CC distance"):
            ci.verify_assumption_C(spec, sample_budget=1000)


class TestSpherePoint:
    def test_flat_segment(self):
        chi = unit([0.6, 0.8])
        p = ci.cc_sphere_point(H1, GeodesicParams(chi, 0.0, 1.0))
        assert np.allclose(p.layer1, chi)
        assert p.t == 0.0

    def test_full_turn_hits_center(self):
        p = ci.cc_sphere_point(H1, GeodesicParams(unit([1, 0]), math.pi, 1.0))
        assert np.allclose(p.layer1, [0, 0], atol=1e-15)
        assert p.t == pytest.approx(1 / math.pi)
        # consistent with the center distance formula
        assert CC.norm(p) == pytest.approx(1.0, abs=1e-12)

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        n = 5000
        chi = rng.standard_normal((n, 2))
        chi /= np.linalg.norm(chi, axis=1, keepdims=True)
        phi = rng.uniform(-(math.pi - 1e-6), math.pi - 1e-6, n)
        r = 10 ** rng.uniform(-2, 2, n)
        z, t = sphere_point_arrays(1, chi, phi, r)
        assert np.max(np.abs(CC.norm_arrays(z, t) - r)) < 1e-8

    def test_phi_symmetry(self):
        chi = unit([0.28, -0.96])
        plus = ci.cc_sphere_point(H1, GeodesicParams(chi, 1.3, 2.0))
        minus = ci.cc_sphere_point(H1, GeodesicParams(chi, -1.3, 2.0))
        assert np.allclose(plus.layer1, minus.layer1)
        assert plus.t == pytest.approx(-minus.t)

    def test_param_validation(self):
        with pytest.raises(GroupError):
            GeodesicParams(np.array([2.0, 0.0]), 0.5, 1.0)  # not unit
        with pytest.raises(GroupError):
            GeodesicParams(unit([1, 0]), 4.0, 1.0)  # |phi| > pi
        with pytest.raises(GroupError):
            GeodesicParams(unit([1, 0]), 0.5, 0.0)  # r <= 0

    @pytest.mark.parametrize("chi,phi,r", [
        ([math.nan, 0.0], 0.5, 1.0), ([math.inf, 0.0], 0.5, 1.0), ([1.0, math.nan], 0.5, 1.0),
        ([1.0, 0.0], math.nan, 1.0), ([1.0, 0.0], math.inf, 1.0), ([1.0, 0.0], -math.inf, 1.0),
        ([1.0, 0.0], 0.5, math.nan), ([1.0, 0.0], 0.5, math.inf),
        ([math.nan, 0.0], math.nan, math.nan)])
    def test_non_finite_params_rejected(self, chi, phi, r):
        with pytest.raises(GroupError):
            GeodesicParams(np.array(chi), phi, r)

    def test_higher_n(self):
        cc2 = ci.CCMetric(H2)
        rng = np.random.default_rng(1)
        for _ in range(200):
            chi = unit(rng.standard_normal(4))
            phi = rng.uniform(-math.pi + 1e-6, math.pi - 1e-6)
            r = float(10 ** rng.uniform(-1, 1))
            p = ci.cc_sphere_point(H2, GeodesicParams(chi, phi, r))
            assert cc2.norm(p) == pytest.approx(r, abs=1e-9)


class TestGeodesicCurve:
    def test_endpoints(self):
        gp = GeodesicParams(unit([1, 1]), 2.2, 1.7)
        start = ci.cc_geodesic_sample(H1, gp, 0.0)
        assert np.allclose(start.layer1, 0) and start.t == 0
        end = ci.cc_geodesic_sample(H1, gp, gp.r)
        target = ci.cc_sphere_point(H1, gp)
        assert close_to(end, target, tol=1e-12)

    def test_constant_speed(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            chi = unit(rng.standard_normal(2))
            phi = rng.uniform(-math.pi, math.pi)
            r = float(rng.uniform(0.2, 5.0))
            gp = GeodesicParams(chi, phi, r)
            s1, s2 = sorted(rng.uniform(0, r, 2))
            a = ci.cc_geodesic_sample(H1, gp, s1)
            b = ci.cc_geodesic_sample(H1, gp, s2)
            assert CC.dist(a, b) == pytest.approx(s2 - s1, abs=1e-7 * max(1, r))

    def test_constant_speed_h2(self):
        cc2 = ci.CCMetric(H2)
        rng = np.random.default_rng(3)
        for _ in range(50):
            gp = GeodesicParams(unit(rng.standard_normal(4)),
                                rng.uniform(-math.pi, math.pi),
                                float(rng.uniform(0.5, 3.0)))
            s1, s2 = sorted(rng.uniform(0, gp.r, 2))
            a = ci.cc_geodesic_sample(H2, gp, s1)
            b = ci.cc_geodesic_sample(H2, gp, s2)
            assert cc2.dist(a, b) == pytest.approx(s2 - s1, abs=1e-7)

    def test_arc_out_of_range(self):
        gp = GeodesicParams(unit([1, 0]), 1.0, 1.0)
        with pytest.raises(GroupError):
            ci.cc_geodesic_sample(H1, gp, -0.1)
        with pytest.raises(GroupError):
            ci.cc_geodesic_sample(H1, gp, 1.1)

    def test_minimality_spot_check(self):
        # no sampled two-leg detour beats the geodesic for |phi| < pi
        rng = np.random.default_rng(4)
        for _ in range(200):
            gp = GeodesicParams(unit(rng.standard_normal(2)),
                                rng.uniform(-math.pi + 1e-3, math.pi - 1e-3),
                                1.0)
            end = ci.cc_sphere_point(H1, gp)
            mid = ci.point(rng.uniform(-1, 1, 2), rng.uniform(-0.5, 0.5, 1))
            two_leg = CC.dist(ci.identity(H1), mid) + CC.dist(mid, end)
            assert two_leg >= 1.0 - 1e-9


class TestCutPoint:
    def test_unit_cut_point(self):
        x = ci.cut_point(H1, 1.0)
        assert np.allclose(x.layer1, 0)
        assert x.t == pytest.approx(1 / math.pi)
        assert CC.norm(x) == pytest.approx(1.0, abs=1e-14)

    def test_distance_scaling(self):
        for rho in (0.5, 1.0, 3.7):
            assert CC.norm(ci.cut_point(H1, rho)) == pytest.approx(rho, abs=1e-12)

    def test_dilation_relation(self):
        assert close_to(ci.dilate(H1, ci.cut_point(H1, 1.0), 2.5), ci.cut_point(H1, 2.5))

    def test_bad_rho(self):
        with pytest.raises(GroupError):
            ci.cut_point(H1, 0.0)


class TestAssumptionC:
    def test_report(self):
        rep = ci.verify_assumption_C(H1, sample_budget=200000, seed=0)
        assert rep.margin > 0
        assert rep.sampled_max_roundtrip < 2.0
        # the cut point itself is at distance 1 < 2
        assert CC.norm(rep.cut_point) == pytest.approx(1.0, abs=1e-12)
        # geodesic continuation point sits at distance exactly 2
        assert rep.continuation_distance == pytest.approx(2.0, abs=1e-12)
        assert rep.continuation_point.t == pytest.approx(4 / math.pi)
        assert rep.samples == 200000 and rep.seed == 0

    def test_deterministic(self):
        a = ci.verify_assumption_C(H1, sample_budget=50000, seed=7)
        b = ci.verify_assumption_C(H1, sample_budget=50000, seed=7)
        assert a.sampled_max_roundtrip == b.sampled_max_roundtrip

    @pytest.mark.parametrize("spec", [H1, H2], ids=["h1", "h2"])
    def test_cut_ball_shift_is_the_group_law_bit_for_bit(self, spec):
        # the draw is x w, w the unit sphere point at turning phi: at chi = e1 the
        # group law's t is 1/pi + T, the draw's T + 1/pi, and |z|^2 is sinc^2
        count, x = 20001, ci.cut_point(spec, 1.0)
        a, t = cut_ball_points(substream(3, 0), count)
        phi = substream(3, 0).uniform(-math.pi, math.pi, count)
        z, w2 = sphere_point_arrays(spec.dim1 // 2, np.eye(spec.dim1)[0], phi, 1.0)
        ref_z, ref_t = mul_arrays(spec, x.layer1, x.layer2, z, w2)
        assert a.tobytes() == _sum_squares(ref_z).tobytes() and t.tobytes() == ref_t.tobytes()

    @pytest.mark.parametrize("spec", [H1, H2], ids=["h1", "h2"])
    def test_radial_sampler_is_the_sphere_map(self, spec):
        # _cut_ball_blocks draws phi and no direction; the sphere map at any unit
        # chi, shifted by the cut point, has the same (|z|^2, t) to rounding
        count = 20001
        a, t = cut_ball_points(substream(4, 0), count)
        phi = substream(4, 0).uniform(-math.pi, math.pi, count)
        chi = np.random.default_rng(4).standard_normal((count, spec.dim1))
        chi /= np.linalg.norm(chi, axis=1)[:, None]
        z, w2 = sphere_point_arrays(spec.dim1 // 2, chi, phi, 1.0)
        ref_a = _sum_squares(z)
        assert np.all(np.abs(a - ref_a) <= 1e-15 * ref_a)
        assert np.all(np.abs(t - (w2 + 1.0 / math.pi)) <= 1e-15)

    def test_json_roundtrip(self):
        rep = ci.verify_assumption_C(H1, sample_budget=10000, seed=1)
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["margin"] == rep.margin


class TestSameOnEveryHn:
    """verify cc's draw reads no n, so its maximum is the same on every H^n, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 3])
    @pytest.mark.parametrize("budget", [1, 63, (1 << 16) + 1])
    def test_maximum_and_margin(self, budget, seed):
        reps = [ci.verify_assumption_C(ci.heisenberg(n), budget, seed) for n in (1, 2, 9)]
        assert len({r.sampled_max_roundtrip.hex() for r in reps}) == 1
        assert len({r.margin.hex() for r in reps}) == 1

    def test_cli_reports_differ_only_in_z(self, capsys):
        docs = []
        for group in ("h1", "h2"):
            assert main(["verify", "cc", "--group", group, "--budget", "20000", "--seed", "3"]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        h1, h2 = docs
        for point in ("cut_point", "continuation_point"):
            assert h1["report"][point]["z"] == [0.0] * 2 and h2["report"][point]["z"] == [0.0] * 4
            h2["report"][point]["z"] = h1["report"][point]["z"]
        assert h2 == h1


def sphere_rows(phi):
    """(a, t) of the cut ball's rows at turning phi, as _cut_ball_blocks makes them."""
    sinc, height = _sphere_profile(phi)
    return sinc * sinc, height + 1.0 / math.pi


def cell_end_probes():
    """Every end of _sphere_row_bounds' cells and its neighbours 1 ulp either side, in [-pi, pi]."""
    cells = geodesics.SPHERE_CELLS
    ends = np.arange(cells + 1) * (2.0 * math.pi / cells) - math.pi
    phi = np.concatenate([ends, np.nextafter(ends, -4.0), np.nextafter(ends, 4.0)])
    return phi[(-math.pi <= phi) & (phi <= math.pi)]


class TestCutBallCull:
    """Sent a maximum M, _cut_ball_blocks drops only rows whose kernel norm is at most M."""

    @staticmethod
    def _culled_draw(seed, count, best):
        """The blocks of one chunk's draw, best sent before every block after the seed.

        Also checks that the culled draw leaves the generator where the full draw does.
        """
        rng = substream(seed, 0)
        blocks = geodesics._cut_ball_blocks(rng, count)
        out = [next(blocks)]
        while (block := ci.measures._send(blocks, best)) is not None:
            out.append(block)
        full = substream(seed, 0)
        full.random(count)
        assert np.array_equal(rng.random(4), full.random(4))  # no draw is skipped
        return out

    @staticmethod
    def _dropped(full, culled, best):
        """Rows dropped, after checking the kept rows' bits and order and the dropped rows' norms.

        full is the draw's blocks, each (a, t) with the kernel's norms appended.
        """
        assert len(culled) == len(full)
        dropped = 0
        for (a, t, norms), (ca, ct) in zip(full, culled):
            kept = np.isin(a, ca)
            assert a[kept].tobytes() == ca.tobytes() and t[kept].tobytes() == ct.tobytes()
            assert np.all(norms[~kept] <= best), (best, norms[~kept].max())
            dropped += int(np.count_nonzero(~kept))
        return dropped

    @staticmethod
    def _full_draw(spec, rng, count):
        """The draw with nothing sent, each block's (a, t) with its kernel norms."""
        metric = ci.CCMetric(spec)
        return [(a, t, metric.radial_norm(a, _sum_squares(t)))
                for a, t in geodesics._cut_ball_blocks(rng, count)]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("spec", [H1, H2], ids=["h1", "h2"])
    def test_dropped_rows_are_at_most_the_maximum(self, spec, seed):
        # against the full draw: every kept row with its bits and in its order, and
        # every dropped row's exact kernel norm at most the M sent; the draw reads
        # no n, the kernel is each group's
        count = 1 << 20
        full = self._full_draw(spec, substream(seed, 0), count)
        top = max(float(np.max(norms)) for _, _, norms in full)
        # far below the evidence's M; near the seed's and the final M; just below the draw's max
        # the seed block is rows of the first box block, in their order
        (seed_a, _, _), (first_a, _, _) = full[:2]
        assert first_a[np.isin(first_a, seed_a)].tobytes() == seed_a.tobytes()
        for best in (0.9, 1.3, 1.4118, 1.4141, top * (1.0 - 1e-12)):
            dropped = self._dropped(full, self._culled_draw(seed, count, best), best)
            if best > 1.4:  # every box block is culled, the first included; the seed is whole
                assert dropped > 0.99 * count

    def test_guard_covers_the_kernel_error(self):
        # a cell's rows may have kernel values up to its bound (1 + K) / (1 - K), K =
        # KERNEL_REL, for a kernel within K of the exact norm: at M just below that
        # every cell's rows are kept
        bound, k = geodesics._sphere_row_bounds(), KERNEL_REL
        phi = cell_end_probes()
        cells = geodesics._sphere_cells(phi)
        for cell in np.unique(cells):
            best = np.nextafter(bound[cell] * (1 + k) / (1 - k), 0.0)
            rows = phi[cells == cell]
            assert geodesics._culled(rows, best).tobytes() == rows.tobytes(), cell

    def test_table_bounds_the_sphere_rows(self):
        # F = the kernel's norm of a sphere row, at 2^22 random phi and at each cell's
        # end and 1 ulp either side
        bound = geodesics._sphere_row_bounds()
        assert bound.shape == (geodesics.SPHERE_CELLS + 1,) and bound[-1] == bound[-2]
        phi = np.concatenate([np.random.default_rng(31).uniform(-math.pi, math.pi, 1 << 22),
                              cell_end_probes()])
        a, t = sphere_rows(phi)
        assert np.all(CC.radial_norm(a, t * t) <= bound[geodesics._sphere_cells(phi)])

    def test_sphere_rows_are_the_draws(self):
        # sphere_rows is the draw's own arithmetic, bit for bit
        count = 2 * sampling.BLOCK
        a, t = cut_ball_points(substream(4, 0), count)
        ra, rt = sphere_rows(substream(4, 0).random(count) * (2.0 * math.pi) - math.pi)
        assert a.tobytes() == ra.tobytes() and t[:, 0].tobytes() == rt.tobytes()

    def test_table_bounds_every_kernel_value(self):
        # the 256 rows, of every cell's ends and 1 ulp either side, where the bound
        # exceeds the kernel's F the least: their exact (60-digit) norm times 1 + 1e-14
        # is below the bound, so the table holds for any kernel within its error, not
        # for this kernel's bits alone
        phi = cell_end_probes()
        a, t = sphere_rows(phi)
        b = geodesics._sphere_row_bounds()[geodesics._sphere_cells(phi)]
        tight = np.argsort(b / CC.radial_norm(a, t * t))[:256]
        for ai, ti, bi in zip(a[tight], t[tight], b[tight]):
            exact = mp.sqrt(mp.mpf(float(ai))) * mp_unit_cc_norm(abs(float(ti)) / float(ai))
            assert exact * (1 + mp.mpf(KERNEL_REL)) <= bi

    @pytest.mark.parametrize("spec", [H1, H2], ids=["h1", "h2"])
    def test_sphere_map_sees_under_one_percent_after_the_first_block(self, monkeypatch, spec):
        geodesics._sphere_row_bounds()  # built once a process, through the sphere map
        sizes, profile = [], geodesics._sphere_profile

        def spy(phi):
            sizes.append(len(phi))
            return profile(phi)

        monkeypatch.setattr(geodesics, "_sphere_profile", spy)
        ci.verify_assumption_C(spec, 1 << 16, seed=1)
        # the first block is the seed's few rows; then every box block, the first
        # included, is culled before the sphere map
        assert 0 < sizes[0] < 0.01 * sampling.BLOCK
        assert len(sizes) == 1 + (1 << 16) // sampling.BLOCK
        assert all(n < 0.01 * sampling.BLOCK for n in sizes[1:])

