import math

import numpy as np
import pytest

import carnotiso as ci
from carnotiso import sampling
from carnotiso.groups import standard_symplectic
from carnotiso.measures import BoundingBox, cc_ball_integrand

H1 = ci.heisenberg(1)
H2 = ci.heisenberg(2)
HT = ci.h_type(standard_symplectic())

DINF = ci.DinfMetric(H1)
GAUGE = ci.GaugeMetric(HT)
CC = ci.CCMetric(H1)


class TestAlpha:
    def test_values(self):
        assert ci.alpha(0) == 1.0
        assert ci.alpha(1) == pytest.approx(2.0)
        assert ci.alpha(2) == pytest.approx(math.pi)
        assert ci.alpha(4) == pytest.approx(math.pi ** 2 / 2)

    def test_negative(self):
        with pytest.raises(ValueError):
            ci.alpha(-1)


class TestClosedFormVolumes:
    def test_dinf(self):
        assert ci.unit_ball_volume(DINF) == (pytest.approx(2 * math.pi, rel=1e-14), 0.0)
        assert ci.unit_ball_volume(ci.DinfMetric(H2)) == (
            pytest.approx(math.pi ** 2, rel=1e-14), 0.0)

    def test_gauge(self):
        value, error = ci.unit_ball_volume(GAUGE)
        assert value == pytest.approx(math.pi ** 2 / 8, rel=1e-15)
        assert error == 0.0


class TestCCVolume:
    def test_integrand_values(self):
        assert cc_ball_integrand(0.0, 1) == 0.0
        p = math.pi / 2
        assert cc_ball_integrand(p, 1) == pytest.approx(16 / math.pi ** 4, rel=1e-13)
        # series branch continuity
        for p in (5e-7, 9e-7, 1.1e-6, 1e-5):
            assert cc_ball_integrand(p, 1) == pytest.approx((2 / 9) * p * p, rel=1e-5)

    def test_quadrature_value(self):
        est = ci.cc_unit_ball_volume(1)
        assert est.value == pytest.approx(3.303503048836701, abs=1e-11)
        assert est.error < 1e-11
        est2 = ci.cc_unit_ball_volume(2)
        assert est2.value == pytest.approx(4.823649863843578, abs=1e-10)

    def test_tight_tolerance_raises(self):
        from carnotiso.measures import QuadratureError
        with pytest.raises(QuadratureError):
            ci.cc_unit_ball_volume(1, abs_tol=1e-16)


class TestBoundingBox:
    def test_volume(self):
        a = BoundingBox([-1, -1], [1, 1], [-1], [1])
        b = BoundingBox([-1, -1], [2, 2], [-1], [3])
        assert a.volume == pytest.approx(8.0)
        assert b.volume == pytest.approx(3 * 3 * 4)

    def test_degenerate(self):
        with pytest.raises(ValueError):
            BoundingBox([0, 0], [0, 1], [-1], [1])


class TestMCMeasure:
    def test_full_box(self):
        box = BoundingBox([-1, -1], [1, 1], [-2], [2])
        always = ci.SampledSet(lambda l1, l2: np.ones(len(l1), bool), box, H1)
        est = ci.mc_measure(always, 10000, seed=0)
        assert est.value == pytest.approx(box.volume)
        assert est.error == 0.0

    def test_empty_set(self):
        box = BoundingBox([-1, -1], [1, 1], [-2], [2])
        never = ci.SampledSet(lambda l1, l2: np.zeros(len(l1), bool), box, H1)
        est = ci.mc_measure(never, 10000, seed=0)
        assert est.value == 0.0
        assert est.error == pytest.approx(box.volume * 3 / 10000)

    def test_bad_budget(self):
        box = BoundingBox([-1, -1], [1, 1], [-2], [2])
        s = ci.SampledSet(lambda l1, l2: np.ones(len(l1), bool), box, H1)
        with pytest.raises(ValueError):
            ci.mc_measure(s, 0, seed=0)

    @pytest.mark.parametrize("metric,reference", [
        (DINF, 2 * math.pi),
        (GAUGE, math.pi ** 2 / 8),
        (CC, 3.303503048836701),
    ])
    def test_ball_volumes_against_reference(self, metric, reference):
        est = ci.mc_measure(ci.ball_set(metric), 400000, seed=11)
        assert abs(est.value - reference) < 3.5 * est.error

    def test_deterministic_for_seed(self):
        a = ci.mc_measure(ci.ball_set(DINF), 50000, seed=5)
        b = ci.mc_measure(ci.ball_set(DINF), 50000, seed=5)
        c = ci.mc_measure(ci.ball_set(DINF), 50000, seed=6)
        assert a.value == b.value
        assert a.value != c.value

    def test_thread_count_does_not_change_result(self, monkeypatch):
        sampled = ci.ball_set(CC)

        def run(threads):
            monkeypatch.setenv("CARNOT_ISO_THREADS", threads)
            est = ci.mc_measure(sampled, 3 * (1 << 19), seed=3)
            rep = ci.validate_dinf_coefficients(H1, 1.0, 10.0,
                                                sample_budget=3 * (1 << 19), seed=3)
            return (est.value, est.error, rep.worst_violation,
                    [w.tolist() for w in rep.witness])

        assert run("1") == run("4")


class TestMapChunks:
    @pytest.mark.parametrize("cpus,expected", [(8, 3), (2, 2), (None, None)])
    def test_workers_capped(self, monkeypatch, cpus, expected):
        made = []

        class Recorder:
            """Stands in for ThreadPoolExecutor: records max_workers, starts no thread."""

            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(sampling, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(sampling.os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("CARNOT_ISO_THREADS", "100000")
        out = sampling.map_chunks(7, 30, lambda rng, count: count, chunk_size=10)
        assert out == [10, 10, 10]
        assert made == ([] if expected is None else [expected])

    def test_budget_ceiling(self, monkeypatch):
        monkeypatch.setenv("CARNOT_ISO_THREADS", "1")
        calls = []

        class FirstChunk(Exception):
            pass

        def fn(rng, count):
            calls.append(count)
            raise FirstChunk

        # one past the ceiling: without the check this would only reach fn,
        # where larger budgets would first build a chunk list of many GiB
        with pytest.raises(ValueError, match="ceiling"):
            sampling.map_chunks(0, sampling.MAX_BUDGET + 1, fn)
        assert calls == []
        # the ceiling itself is allowed: the first chunk runs
        with pytest.raises(FirstChunk):
            sampling.map_chunks(0, sampling.MAX_BUDGET, fn)
        assert calls == [sampling.CHUNK_SIZE]


class TestBallSet:
    def test_translated_ball_measure_matches(self):
        center = ci.point([0.5, -0.3], [0.7])
        moved = ci.ball_set(DINF, center=center, radius=0.8)
        base = ci.ball_set(DINF, radius=0.8)
        a = ci.mc_measure(moved, 300000, seed=2)
        b = ci.mc_measure(base, 300000, seed=2)
        # Haar measure is left invariant
        assert abs(a.value - b.value) < 3.5 * math.hypot(a.error, b.error)

    def test_dilated_ball_scaling(self):
        lam = 1.7
        big = ci.mc_measure(ci.ball_set(DINF, radius=lam), 300000, seed=4)
        expect = lam ** H1.Q * 2 * math.pi
        assert abs(big.value - expect) < 3.5 * big.error

    def test_diameter_hint(self):
        s = ci.ball_set(CC, radius=2.0)
        assert s.diameter_hint == 4.0


class TestSphericalMeasure:
    def test_unit_ball_is_two_to_Q(self):
        for metric in (DINF, GAUGE, CC):
            est = ci.spherical_measure(ci.ball_set(metric), metric, 400000, seed=9)
            assert abs(est.value - 2.0 ** metric.spec.Q) < 3.5 * est.error

    def test_dilation_homogeneity(self):
        lam = 1.3
        est = ci.spherical_measure(ci.ball_set(DINF, radius=lam), DINF, 400000, seed=10)
        assert abs(est.value - (2 * lam) ** H1.Q) < 3.5 * est.error


class TestSetDiameter:
    def test_two_points(self):
        p = ci.point([0, 0], [0])
        q = ci.point([1, 0], [0])
        assert ci.set_diameter([p, q], CC) == pytest.approx(1.0)

    def test_ball_cloud_approaches_two(self):
        rng = np.random.default_rng(12)
        l1 = rng.uniform(-1, 1, (4000, 2))
        l2 = rng.uniform(-1, 1, (4000, 1))
        inside = DINF.norm_arrays(l1, l2) <= 1
        d = ci.set_diameter((l1[inside], l2[inside]), DINF)
        assert 1.95 < d <= 2.0 + 1e-12

    def test_empty(self):
        with pytest.raises(ValueError):
            ci.set_diameter([], DINF)
