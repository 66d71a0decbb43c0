import dataclasses
import math
import zlib

import numpy as np
import pytest

import carnotiso as ci
from carnotiso import metrics, sampling
from carnotiso.groups import standard_symplectic
from carnotiso.measures import BoundingBox
from carnotiso.metrics import PROFILE_CELLS, _all_unsure, _sum_squares, cc_ball_integrand
from conftest import cut_ball_points, fresh_cc_volume_cache, quaternionic, region_cube

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

    def test_tight_tolerance_raises(self, monkeypatch):
        # the fixed 1e-12 self-check catches a rule too coarse for it
        from carnotiso import metrics
        from carnotiso.metrics import QuadratureError
        rule = metrics.gauss_legendre
        fresh_cc_volume_cache(monkeypatch)
        monkeypatch.setattr(metrics, "gauss_legendre", lambda n: rule(n // 16))
        with pytest.raises(QuadratureError):
            ci.cc_unit_ball_volume(1)

    def test_volume_is_summed_once_a_process_for_each_n(self, monkeypatch):
        # the rule's floats, from one G64 and one G128 pass of the integrand per n
        fresh_cc_volume_cache(monkeypatch)
        integrand, calls = metrics.cc_ball_integrand, []

        def spy(phi, n):
            calls.append(n)
            return integrand(phi, n)

        monkeypatch.setattr(metrics, "cc_ball_integrand", spy)
        want = {n: metrics._cc_volume.__wrapped__(n) for n in (1, 2)}
        calls.clear()
        for _ in range(3):
            for n in (1, 2):
                got = ci.unit_ball_volume(ci.CCMetric(ci.heisenberg(n)))
                assert got == want[n]
                assert ci.cc_unit_ball_volume(n).value == want[n][0]
        assert calls == [1, 1, 2, 2]


class TestBoundingBox:
    """The one region type: strata of shells and layer-2 boxes, a (k,) box one stratum."""

    def test_volume(self):
        # a layer-1 disc of radius r1 times the layer-2 box
        a = BoundingBox(2, 1.0, [-1], [1])
        b = BoundingBox(2, 1.5, [-1], [3])
        c = BoundingBox(4, 2.0, [-1, 0, 0], [1, 1, 0.5])
        assert a.volume == pytest.approx(2 * math.pi)
        assert b.volume == pytest.approx(math.pi * 1.5 ** 2 * 4)
        assert c.volume == pytest.approx(math.pi ** 2 / 2 * 2 ** 4 * 1.0)

    def test_degenerate(self):
        # a NaN or infinite extent too: its volume is NaN or inf, and no draw holds it
        for r1, lo2, hi2 in ((0.0, [-1], [1]), (-1.0, [-1], [1]), (math.nan, [-1], [1]),
                             (1.0, [1], [1]), (1.0, [-1, 2], [1, 2]), (1.0, [math.nan], [1]),
                             (1.0, [-1], [math.nan]), (math.inf, [-1], [1]),
                             (1.0, [-math.inf], [1])):
            with pytest.raises(ValueError):
                BoundingBox(2, r1, lo2, hi2)

    @pytest.mark.parametrize("fields", [
        {"lo2": [[0.0], [1.0]], "hi2": [[0.5], [1.0]]},      # a stratum with lo2 = hi2
        {"lo2": [[0.0], [2.0]], "hi2": [[0.5], [1.0]]},      # lo2 > hi2
        {"lo2": [[0.0], [math.nan]], "hi2": [[0.5], [1.0]]},
        {"lo2": [[0.0], [0.0]], "hi2": [[0.5], [math.nan]]},
        {"lo2": [[0.0], [-math.inf]], "hi2": [[0.5], [1.0]]},
        {"shells": [[0.0, 0.5], [0.5, 1.5]]},                # a shell beyond [0, 1]
        {"shells": [[-0.5, 0.5], [0.5, 1.0]]},
        {"shells": [[0.0, 0.5], [0.7, 0.7]]},                # u0 = u1
        {"shells": [[0.0, 0.5], [0.9, 0.7]]},                # u0 > u1
        {"shells": [[0.0, 0.5], [math.nan, 1.0]]},
        {"shells": [[0.0, 0.6], [0.5, 1.0]]},                # overlapping shells
        {"shells": [[0.0, 0.5], [0.5, 0.7], [0.7, 1.0]]},    # three shells, two boxes
        {"lo2": [[0.0]], "hi2": [[0.5]]},                    # one box, two shells
        {"shells": [[0.0], [0.5]]}, {"shells": []},          # shells of no width
        {"hi2": [[0.5], [1.0], [1.5]]},                      # three upper rows, two lower
        {"lo2": [[0.0, 0.0], [0.0, 0.0]], "hi2": [[0.5, 0.5], [1.0, 1.0]],
         "shells": [[0.0, 0.5]]},
    ])
    def test_every_stratum_is_checked(self, fields):
        # a valid two-stratum region, one field at a time made invalid
        valid = {"dim1": 2, "r1": 1.0, "lo2": [[0.0], [0.0]], "hi2": [[0.5], [1.0]],
                 "shells": [[0.0, 0.5], [0.5, 1.0]]}
        BoundingBox(**valid)
        with pytest.raises(ValueError, match="bounding box"):
            BoundingBox(**(valid | fields))

    @pytest.mark.parametrize("dim1,r1,lo2,hi2,shell", [
        (2, 1.0, [-0.5], [0.5], (0.0, 1.0)),
        (2, 0.7, [-0.2], [1.3], (0.25, 0.75)),
        (4, 1.0, [-2 / math.pi], [2 / math.pi], (0.0, 1.0)),
        (6, 0.3, [0.1], [0.9], (1 / 3, 0.5)),
        (4, 1.3, [-0.25, -0.5, 0.0], [0.25, 0.5, 0.1], (0.0, 1.0)),
    ])
    def test_one_stratum_volume_is_the_closed_product(self, dim1, r1, lo2, hi2, shell):
        # a (k,) box is one stratum on [0, 1] by default; its volume is alpha_m r1^m
        # |shell| |layer-2 box| bit for bit, as one product
        box = BoundingBox(dim1, r1, lo2, hi2, shell)
        assert box.lo2.shape == box.hi2.shape == (1, len(lo2)) and box.shells.shape == (1, 2)
        want = float(metrics.alpha(dim1) * r1 ** dim1 * (shell[1] - shell[0])
                     * np.prod(np.subtract(hi2, lo2)))
        assert box.volumes.tolist() == [box.volume] and box.volume.hex() == want.hex()
        if shell == (0.0, 1.0):
            assert BoundingBox(dim1, r1, lo2, hi2).volume.hex() == want.hex()
        # and a box is its own envelope
        envelope = box.envelope
        for field in ("shells", "lo2", "hi2"):
            assert np.array_equal(getattr(envelope, field), getattr(box, field))

    def test_evidence_boxes_are_one_stratum(self):
        # every ball's region is the whole layer-1 ball times one layer-2 box
        for metric in (DINF, ci.DinfMetric(H2), GAUGE, CC, ci.GaugeMetric(quaternionic())):
            box = ci.ball_set(metric).bounding_box
            assert box.shells.tolist() == [[0.0, 1.0]]
            assert box.lo2.shape == (1, metric.spec.dim2)


class TestMCMeasure:
    def test_full_box(self):
        # every draw hits, so p (1 - p) is 0; the error is the rule of three, as for
        # an empty set, not 0, which no |est - ref| < k err check could pass
        box = BoundingBox(2, 1.0, [-2], [2])
        always = ci.SampledSet(lambda a, l2: np.ones(len(a), bool), box)
        est = ci.mc_measure(always, 10000, seed=0)
        assert est.value == box.volume
        assert est.error == pytest.approx(box.volume * 3 / 10000)

    def test_empty_set(self):
        box = BoundingBox(2, 1.0, [-2], [2])
        never = ci.SampledSet(lambda a, l2: np.zeros(len(a), bool), box)
        est = ci.mc_measure(never, 10000, seed=0)
        assert est.value == 0.0
        assert est.error == pytest.approx(box.volume * 3 / 10000)

    @pytest.mark.parametrize("metric", [DINF, ci.DinfMetric(H2, 1.3, 0.7)], ids=["h1", "h2"])
    def test_a_set_that_is_its_region(self, metric):
        # a d_inf ball is its sampled region: every draw hits, and the estimate is the
        # closed form with the rule-of-three error
        vol, _ = ci.unit_ball_volume(metric)
        est = ci.mc_measure(ci.ball_set(metric), 20000, seed=1)
        assert est.value == vol
        assert est.error == pytest.approx(vol * 3 / 20000)
        assert abs(est.value - vol) < 3.5 * est.error
        ratio = ci.isodiametric_ratio(ci.ball_set(metric), metric, 2.0, 20000, seed=1).ratio
        assert ratio.value == 1.0 and ratio.error == pytest.approx(3 / 20000)

    def test_bad_budget(self):
        box = BoundingBox(2, 1.0, [-2], [2])
        s = ci.SampledSet(lambda a, l2: np.ones(len(a), bool), box)
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
        # gauge: a d_inf ball is its sampled region, the same value at every seed
        a = ci.mc_measure(ci.ball_set(GAUGE), 50000, seed=5)
        b = ci.mc_measure(ci.ball_set(GAUGE), 50000, seed=5)
        c = ci.mc_measure(ci.ball_set(GAUGE), 50000, seed=6)
        assert a.value == b.value
        assert a.value != c.value

    def test_thread_count_does_not_change_result(self, monkeypatch):
        sampled = ci.ball_set(CC)

        def draws(rng, count):
            x = rng.uniform(-1, 1, size=count)
            return count, float(x.sum()), x[:3].tolist()

        def run(threads):
            monkeypatch.setenv("CARNOT_ISO_THREADS", threads)
            est = ci.mc_measure(sampled, 3 * (1 << 19), seed=3)
            # the per-chunk results in order, not only their sum
            return est.value, est.error, sampling.map_chunks(3, 3 * (1 << 19) - 5, draws)

        one, four = run("1"), run("4")
        assert one == four
        assert [c for c, _, _ in one[2]] == [1 << 19, 1 << 19, (1 << 19) - 5]


class TestMapChunks:
    def test_substream_seed_range(self):
        for seed in (-1, 2**64, 2**64 + 3):
            with pytest.raises(ValueError, match="outside"):
                sampling.substream(seed, 0)
        top = sampling.substream(2**64 - 1, 0).random(4)
        assert not np.array_equal(top, sampling.substream(0, 0).random(4))
        assert np.array_equal(top, sampling.substream(2**64 - 1, 0).random(4))

    @pytest.mark.parametrize("seed,chunk", [(0, 0), (1, 0), (7, 3), (2**63, 1), (2**64 - 1, 11),
                                            (5, 2**17 - 1)])
    def test_substream_is_the_spawned_child(self, seed, chunk):
        # numpy's documented parallel streams: child chunk of SeedSequence(seed), on PCG64DXSM
        child = np.random.SeedSequence(seed).spawn(chunk + 1)[chunk]
        want = np.random.Generator(np.random.PCG64DXSM(child)).random(4)
        assert np.array_equal(sampling.substream(seed, chunk).random(4), want)

    def test_substreams_are_distinct(self):
        seeds = [0, 1, 2, 3, 255, 256, 2**32, 2**63, 2**64 - 1]
        firsts = {(s, c): sampling.substream(s, c).random() for s in seeds for c in range(12)}
        assert len(set(firsts.values())) == len(firsts)

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

        # map_chunks imports the pool only when it needs threads
        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(sampling.os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("CARNOT_ISO_THREADS", "100000")
        monkeypatch.setattr(sampling, "CHUNK_SIZE", 10)
        out = sampling.map_chunks(7, 30, lambda rng, count: count)
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


class TestUniformBox:
    """The draw convention: lo + (hi - lo) U on the substream's doubles in C order, i.e.
    rng.uniform."""

    @staticmethod
    def boxes():
        """(lo, hi) of the radial draws of the evidence sets, and of cubes around them."""
        apex = ci.point([0, 0], [1.0])  # the d_inf apex on H^1
        regions = {"dinf-h1": ci.ball_set(DINF).bounding_box,
                   "dinf-h2": ci.ball_set(ci.DinfMetric(H2)).bounding_box,
                   "gauge-h1-htype": ci.ball_set(GAUGE).bounding_box,
                   "cc-h1": ci.ball_set(CC).bounding_box,
                   "bump-dinf-h1": ci.ball_set(DINF, center=apex,
                                               radius=2 - math.sqrt(2)).bounding_box}
        boxes = {name: (np.concatenate([[0.0], box.lo2[0]]), np.concatenate([[1.0], box.hi2[0]]))
                 for name, box in regions.items()}
        boxes.update({f"cube-{name}": region_cube(box) for name, box in regions.items()})
        # the CC cut ball's (phi, |chi|, r) box; a [0, 1] column whose lower bound is -0.0,
        # next to columns that only start at 0 or only have side 1
        boxes["cut-ball"] = (np.array([-math.pi, 0.0, 0.0]), np.array([math.pi, 1.0, 1.0]))
        boxes["minus-zero"] = (np.array([-0.0, 0.0, 0.5]), np.array([1.0, 2.0, 1.5]))
        return boxes

    @pytest.mark.parametrize("seed,chunk", [(0, 0), (7, 3), (2**64 - 1, 11)])
    def test_draw_is_rng_uniform_bit_for_bit(self, seed, chunk):
        for name, (lo, hi) in self.boxes().items():
            ours, ref = sampling.substream(seed, chunk), sampling.substream(seed, chunk)
            count = 2**17 + 3
            pts = sampling.uniform_box(ours, count, lo, hi)
            want = ref.uniform(lo, hi, size=(count, len(lo)))
            assert np.array_equal(pts, want), name
            # and both generators are left in the same state
            assert np.array_equal(ours.random(4), ref.random(4)), name

    def test_side_beyond_float_range_refused(self):
        lo, hi = np.array([-1.0, -1e308]), np.array([1.0, 1e308])
        with np.errstate(over="ignore"):
            for draw in (lambda: sampling.uniform_box(sampling.substream(0, 0), 4, lo, hi),
                         lambda: sampling.substream(0, 0).uniform(lo, hi, size=(4, 2))):
                with pytest.raises(OverflowError):
                    draw()


def _stacked_blocks_are_one_draw(blocks, seed, count, box):
    """True iff blocks(rng, count, lo, hi) stacked is uniform_box's one draw, rng state too."""
    lo, hi = box
    ours, ref = sampling.substream(seed, 0), sampling.substream(seed, 0)
    got = [pts.copy() for pts in blocks(ours, count, lo, hi)]
    want = sampling.uniform_box(ref, count, lo, hi)
    return (all(len(b) == sampling.BLOCK for b in got[:-1])
            and np.array_equal(np.vstack(got), want)
            and np.array_equal(ours.random(4), ref.random(4)))


def _blocks_of_box(rng, count, lo, hi):
    """strata_blocks' blocks of one stratum, the box [lo, hi]."""
    for pts, _ in sampling.strata_blocks(rng, [count], [lo], [hi]):
        yield pts


def _reordered_blocks(rng, count, lo, hi):
    yield from reversed([pts.copy() for pts in _blocks_of_box(rng, count, lo, hi)])


def _redrawn_blocks(rng, count, lo, hi):
    for pts in _blocks_of_box(rng, count, lo, hi):
        yield sampling.uniform_box(rng, len(pts), lo, hi)


# The chunk functions of the one-shot draw: each chunk's points in one array.
# The blocked ones must give the same bits.

def _one_shot_radial(box, rng, count):
    """(a, l2) of count uniform points of box's region, drawn as one array.

    U and layer 2 uniform in [0, 1] x [lo2, hi2], and a = |x|^2 = r1^2 U^(2/dim1) for x
    uniform in the layer-1 ball of radius r1.
    """
    lo, hi = np.concatenate([[0.0], box.lo2[0]]), np.concatenate([[1.0], box.hi2[0]])
    pts = sampling.uniform_box(rng, count, lo, hi)
    return box.r1 * box.r1 * np.power(pts[:, 0], 2.0 / box.dim1), pts[:, 1:]


def _one_shot_region(strata, rng, count):
    """(a, l2, stratum) of count draws of a chunk of strata, drawn as one array.

    The strata take their _allocation shares of count as consecutive rows. Each row
    is 1 + k doubles in [0, 1) of one draw: layer 2 is lo2 + (hi2 - lo2) U of its
    stratum, and a = r1^2 (u0 + w U)^(2/dim1) of its shell [u0, u0 + w], as
    U (w r1^2) + u0 r1^2 for dim1 = 2. A box is one stratum, the ball U in [0, 1].
    """
    counts = ci.measures._allocation(count, strata.volumes)
    row = np.repeat(np.arange(len(counts)), counts)
    k = strata.lo2.shape[1]
    pts = sampling.uniform_box(rng, count, np.zeros(1 + k), np.ones(1 + k))
    lo2, hi2 = strata.lo2[row], strata.hi2[row]
    l2 = lo2 + (hi2 - lo2) * pts[:, 1:]
    u0, w = strata.shells[row, 0], np.diff(strata.shells, axis=1)[row, 0]
    r1sq = strata.r1 * strata.r1
    if strata.dim1 == 2:
        a = pts[:, 0] * (w * r1sq) + u0 * r1sq
    else:
        a = np.power(pts[:, 0] * w + u0, 2.0 / strata.dim1) * r1sq
    return a, l2, row


def _stratified_value(strata, hits, rows):
    """core + sum V_s h_s / n_s: mc_measure's estimate from its per-stratum counts."""
    return math.fsum([strata.core, *(v * (h / n) for v, h, n
                                     in zip(strata.volumes.tolist(), hits, rows))])


def _one_shot_hits(sampled, budget, seed):
    """(hits, rows) of each stratum over the budget, from one-shot draws and the exact mask."""
    strata = ci.measures._strata(sampled.bounding_box, budget)

    def chunk(rng, count):
        a, l2, row = _one_shot_region(strata, rng, count)
        hit = sampled.membership(a, l2)
        return (np.bincount(row[hit], minlength=len(strata.volumes)),
                np.bincount(row, minlength=len(strata.volumes)))

    hits, rows = (sum(col) for col in zip(*sampling.map_chunks(seed, budget, chunk)))
    return hits.tolist(), rows.tolist()


def _one_shot_ball_sup(metric, budget, seed):
    apex, _ = ci.isodiametric._apex_and_bound(metric)
    ball = ci.ball_set(metric, center=ci.groups.inv(metric.spec, apex))

    def chunk(rng, count):
        a, l2 = _one_shot_radial(ball.bounding_box, rng, count)
        inside = ball.membership(a, l2)
        return float(np.max(metric.radial_norm(a, _sum_squares(l2)), where=inside, initial=0.0))

    return max(sampling.map_chunks(seed, budget, chunk))


def _one_shot_cut_ball_sup(spec, budget, seed):
    metric = ci.CCMetric(spec)

    def chunk(rng, count):
        a, t = cut_ball_points(rng, count)
        return float(metric.radial_norm(a, _sum_squares(t)).max())

    return max(sampling.map_chunks(seed, budget, chunk))


class TestBoxBlocks:
    """A chunk is drawn and tested BLOCK points at a time; the bits are the one-shot draw's."""

    BOXES = {name: box for name, box in TestUniformBox.boxes().items()
             if name in ("dinf-h1", "cube-dinf-h2", "gauge-h1-htype", "cube-cc-h1")}

    @pytest.mark.parametrize("count", [1, 63, 64, sampling.BLOCK - 1, sampling.BLOCK,
                                       sampling.BLOCK + 65, 3 * sampling.BLOCK + 7])
    def test_blocks_are_one_draw_bit_for_bit(self, count):
        for name, box in self.BOXES.items():
            assert _stacked_blocks_are_one_draw(_blocks_of_box, 5, count, box), name

    @pytest.mark.parametrize("count", [1, 63, 64, sampling.BLOCK - 1, sampling.BLOCK,
                                       sampling.BLOCK + 65, 3 * sampling.BLOCK + 7])
    def test_cut_ball_blocks_are_one_draw_bit_for_bit(self, count):
        x = ci.geodesics.cut_point(H1, 1.0)
        ours, ref = sampling.substream(5, 0), sampling.substream(5, 0)
        (seed_a, seed_t), *got = ci.geodesics._cut_ball_blocks(ours, count)
        a, t = cut_ball_points(ref, count)
        # the seed block is rows of the first block, in their order and with their bits
        first = np.isin(got[0][0], seed_a)
        assert 0 < len(seed_a) == np.count_nonzero(first)
        assert got[0][0][first].tobytes() == seed_a.tobytes()
        assert got[0][1][first].tobytes() == seed_t.tobytes()
        assert all(len(b) == sampling.BLOCK for b, _ in got[:-1])
        assert np.array_equal(np.concatenate([b for b, _ in got]), a)
        assert np.array_equal(np.vstack([b for _, b in got]), t)
        assert all(len(b) == len(y) for b, y in got)
        assert np.array_equal(ours.random(4), ref.random(4))
        # every point on the sphere of B(x, 1)
        norms = CC.radial_norm(a, _sum_squares(t - x.layer2))
        assert np.all(np.abs(norms - 1.0) <= 1e-14)

    def test_reordered_or_redrawn_blocks_differ(self):
        box = self.BOXES["dinf-h1"]
        for wrong in (_reordered_blocks, _redrawn_blocks):
            assert not _stacked_blocks_are_one_draw(wrong, 5, 2 * sampling.BLOCK + 7, box)

    # the odd block does not divide its chunk, which is shortened so that a run
    # makes about a hundred blocks, not ten thousand
    @pytest.mark.parametrize("block,chunk", [(sampling.BLOCK, sampling.CHUNK_SIZE),
                                             (193, 50 * 193 + 17)])
    def test_chunk_functions_equal_the_one_shot_draw(self, monkeypatch, block, chunk):
        monkeypatch.setenv("CARNOT_ISO_THREADS", "1")
        monkeypatch.setattr(sampling, "BLOCK", block)
        monkeypatch.setattr(sampling, "CHUNK_SIZE", chunk)
        budget = 2 * chunk + 1001
        # a d_inf bump is its region, so the set of the evidence: bump \ ball
        bump = ci.ball_set(DINF, center=ci.point([0, 0], [1.0]), radius=2 - math.sqrt(2))
        ball = ci.ball_set(DINF)
        extra = ci.SampledSet(lambda a, l2: bump.membership(a, l2) & ~ball.membership(a, l2),
                              bump.bounding_box)
        # the CC bump's triage leaves points unsure, which are settled once a chunk
        cc_bump = ci.measures.difference(
            ci.ball_set(CC, center=ci.point([0, 0], [-1 / math.pi]), radius=2 - math.sqrt(2)),
            ci.ball_set(CC))
        # layer-1 dimensions 2, 4 and 6: U^(2/m) is U, a square root and a power
        # the CC bump is drawn in labeled bands beside its cores: each chunk gives each
        # its share of rows
        assert len(cc_bump.bounding_box.shells) > 1 and cc_bump.bounding_box.sure
        for sampled in (extra, cc_bump, ci.ball_set(GAUGE), ci.ball_set(ci.GaugeMetric(H2)),
                        ci.ball_set(ci.CCMetric(ci.heisenberg(3)))):
            est = ci.mc_measure(sampled, budget, seed=3)
            hits, rows = _one_shot_hits(sampled, budget, 3)
            assert 0 < sum(hits) < budget and sum(rows) == budget
            strata = ci.measures._strata(sampled.bounding_box, budget)
            assert est.value == _stratified_value(strata, hits, rows)
            if len(rows) == 1:
                assert est.value == sampled.bounding_box.volume * (hits[0] / budget)
        for metric in (DINF, GAUGE, ci.DinfMetric(H2), ci.GaugeMetric(H1),
                       ci.GaugeMetric(quaternionic())):
            got = ci.apex_reach(metric, budget, seed=4).sampled_sup
            assert got == _one_shot_ball_sup(metric, budget, 4)
        got = ci.verify_assumption_C(H1, budget, seed=6).sampled_max_roundtrip
        assert got == _one_shot_cut_ball_sup(H1, budget, 6)

    def test_no_point_in_the_ball_gives_zero(self):
        # a d_inf ball is its region, but seed 2's one draw misses the gauge ball:
        # the max over no point is 0.0, not an error
        assert _one_shot_ball_sup(GAUGE, 1, 2) == 0.0
        assert ci.apex_reach(GAUGE, budget=1, seed=2).sampled_sup == 0.0


class TestRadialDraw:
    """A region's a = |layer 1|^2 is r1^2 U^(2/m): |x|^2 of a uniform point of the m-ball.

    A d_inf ball is its region, so no d_inf ratio would see a wrong law; these do.
    """

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_share_within_s_r1_is_s_to_the_m(self, m):
        box = BoundingBox(m, 1.7, [-1.0], [1.0])
        region = ci.SampledSet(lambda a, l2: np.ones(len(a), bool), box)
        s = np.array([0.3, 0.6, 0.9])
        count, below, top = 1 << 18, np.zeros(3), 0.0
        for a, _ in region.draws(sampling.substream(9, 0), count):
            below += np.count_nonzero(a[:, None] <= (box.r1 * s) ** 2, axis=0)
            top = max(top, a.max())
        p = s ** m
        assert np.all(np.abs(below / count - p) < 3.0 * np.sqrt(p * (1.0 - p) / count))
        assert top <= box.r1 ** 2

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_blocks_are_the_one_shot_power_bit_for_bit(self, m):
        # a is r1^2 U^(2/m) of the one-shot draw, bit for bit, at m = 2 too, where
        # draws takes no power: U^1 is U
        box = BoundingBox(m, 1.7, [-1.0], [1.0])
        region = ci.SampledSet(lambda a, l2: np.ones(len(a), bool), box)
        count = 2 * sampling.BLOCK + 7
        got = np.concatenate([a.copy() for a, _ in region.draws(sampling.substream(9, 0), count)])
        u = sampling.substream(9, 0).random((count, 2))[:, 0]
        assert got.tobytes() == (np.power(u, 2.0 / m) * (box.r1 * box.r1)).tobytes()

    @pytest.mark.parametrize("metric", [ci.GaugeMetric(H2), ci.GaugeMetric(ci.heisenberg(3)),
                                        ci.CCMetric(H2), ci.CCMetric(ci.heisenberg(3))],
                             ids=["gauge-h2", "gauge-h3", "cc-h2", "cc-h3"])
    def test_unit_ball_volumes_in_higher_dimension(self, metric):
        # against the gauge closed form and the CC quadrature
        vol, _ = ci.unit_ball_volume(metric)
        ball = ci.ball_set(metric)
        est = ci.mc_measure(ball, 400000, seed=13)
        assert 0.0 < est.value < ball.bounding_box.volume
        assert abs(est.value - vol) < 3.0 * est.error


K3 = quaternionic()
SHIFT_METRICS = {
    "dinf-h1": DINF, "dinf-h2": ci.DinfMetric(H2), "dinf-h1-htype": ci.DinfMetric(HT),
    "dinf-k3": ci.DinfMetric(K3),
    "gauge-h1": ci.GaugeMetric(H1), "gauge-h2": ci.GaugeMetric(H2), "gauge-h1-htype": GAUGE,
    "gauge-k3": ci.GaugeMetric(K3),
    "cc-h1": CC, "cc-h2": ci.CCMetric(H2),
}


class TestBallSet:
    def test_translated_ball_measure_matches(self):
        center = ci.point([0, 0], [0.7])
        moved = ci.ball_set(DINF, center=center, radius=0.8)
        base = ci.ball_set(DINF, radius=0.8)
        a = ci.mc_measure(moved, 300000, seed=2)
        b = ci.mc_measure(base, 300000, seed=2)
        # Haar measure is left invariant
        assert abs(a.value - b.value) < 3.5 * math.hypot(a.error, b.error)

    def test_non_central_center_refused(self):
        for layer1 in ([0.5, -0.3], [0.0, 1e-300]):
            with pytest.raises(ValueError, match="not central"):
                ci.ball_set(DINF, center=ci.point(layer1, [0.7]), radius=0.8)
        # so is one of the wrong dimensions, which would broadcast the shift
        for layer1, layer2 in (([0.0, 0.0], [0.7, 0.1]), ([0.0, 0.0, 0.0], [0.7])):
            with pytest.raises(ci.GroupError, match="do not match"):
                ci.ball_set(DINF, center=ci.point(layer1, layer2))
        # a negative zero is zero
        neg = ci.ball_set(DINF, center=ci.point([-0.0, -0.0], [0.7]), radius=0.8)
        pos = ci.ball_set(DINF, center=ci.point([0.0, 0.0], [0.7]), radius=0.8)
        assert neg.bounding_box.r1 == pos.bounding_box.r1 == 0.8
        assert np.array_equal(neg.bounding_box.lo2, pos.bounding_box.lo2)
        assert np.array_equal(neg.bounding_box.hi2, pos.bounding_box.hi2)

    @pytest.mark.parametrize("rho", [0.3, 2 - math.sqrt(2), 1.0], ids=["0.3", "2-sqrt2", "1"])
    @pytest.mark.parametrize("name", sorted(SHIFT_METRICS))
    def test_central_shift_is_the_group_law_bit_for_bit(self, name, rho):
        # d(c, y) = N(y1, y2 - c2) for central c; dist_arrays, which runs the
        # group law, is the reference
        metric = SHIFT_METRICS[name]
        spec = metric.spec
        rng = np.random.default_rng(zlib.crc32(f"{name} {rho}".encode()))
        c1, c2 = np.zeros(spec.dim1), rng.uniform(-2, 2, spec.dim2)
        ball = ci.ball_set(metric, center=ci.point(c1, c2), radius=rho)
        box = ball.bounding_box
        lo, hi = region_cube(box)
        mid, half = 0.5 * (lo + hi), 0.75 * (hi - lo)
        pts = rng.uniform(mid - half, mid + half, (100000, len(lo)))
        l1, l2 = pts[:, :spec.dim1], pts[:, spec.dim1:]
        ref = metric.dist_arrays(c1, c2, l1, l2)
        assert np.array_equal(metric.norm_arrays(l1, l2 - c2), ref)
        mask = ball.membership(_sum_squares(l1), l2)
        assert np.array_equal(mask, ref <= rho)
        assert 0 < np.count_nonzero(mask) < len(mask)
        # the region holds the ball: no member of the wider draw lies outside it
        inside_region = ((_sum_squares(l1) <= box.r1 ** 2)
                         & np.all((l2 >= box.lo2) & (l2 <= box.hi2), axis=1))
        assert not np.any(mask & ~inside_region)

    def test_dilated_ball_scaling(self):
        lam = 1.7
        big = ci.mc_measure(ci.ball_set(DINF, radius=lam), 300000, seed=4)
        expect = lam ** H1.Q * 2 * math.pi
        assert abs(big.value - expect) < 3.5 * big.error


class TestSetDiameter:
    def test_two_points(self):
        l1, l2 = np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros((2, 1))
        assert ci.set_diameter((l1, l2), CC) == pytest.approx(1.0)

    def test_ball_cloud_approaches_two(self):
        rng = np.random.default_rng(12)
        l1 = rng.uniform(-1, 1, (4000, 2))
        l2 = rng.uniform(-1, 1, (4000, 1))
        inside = DINF.norm_arrays(l1, l2) <= 1
        d = ci.set_diameter((l1[inside], l2[inside]), DINF)
        assert 1.95 < d <= 2.0 + 1e-12

    def test_empty(self):
        with pytest.raises(ValueError):
            ci.set_diameter((np.zeros((0, 2)), np.zeros((0, 1))), DINF)

    def test_row_counts_must_match(self):
        # 2 points and 3 layer-2 rows: refused before any distance is taken
        class NoDistance:
            def dist_arrays(self, *args):
                raise AssertionError("distance taken")

        l1, l2 = np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0], [0.0], [5.0]])
        for cloud in ((l1, l2), (l1, l2[:1])):
            with pytest.raises(ValueError, match="equal row counts"):
                ci.set_diameter(cloud, NoDistance())


RHO = 2 - math.sqrt(2)


def _cc_kernel_spy(monkeypatch):
    """The sizes of every CCMetric.radial_norm call from here on."""
    kernel, sizes = ci.CCMetric.radial_norm, []

    def spy(self, a, b):
        sizes.append(np.size(a))
        return kernel(self, a, b)

    monkeypatch.setattr(ci.CCMetric, "radial_norm", spy)
    return sizes


def _cc_bump(spec, budget, seed):
    metric = ci.CCMetric(spec)
    apex, _ = ci.isodiametric._apex_and_bound(metric)
    return ci.bump_ratio(ci.BumpParams(apex, RHO), metric, budget, seed).ratio


class TestSettleOnceAChunk:
    """mc_measure and sampled_max decide a block by bounds alone and settle the rest once a chunk."""

    def test_difference_triage(self):
        # the nine (kept, removed) states, each sure in, sure out or unsure; the
        # exact masks say in for the unsure ones of kept and out for those of removed
        kept_state = np.repeat(["in", "out", "unsure"], 3)
        removed_state = np.tile(["in", "out", "unsure"], 3)

        def three_valued(state, exact):
            # a row's state is read off its a, so a triage on copied rows reads theirs
            def triage(a, l2):
                return state[a.astype(int)] == "in", state[a.astype(int)] == "unsure"
            return ci.SampledSet(lambda a, l2: ((state[a.astype(int)] == "in")
                                                | ((state[a.astype(int)] == "unsure") & exact)),
                                 BoundingBox(2, 1.0, [-1.0], [1.0]), triage)

        # the nine states alone, and padded with 18 rows that removed holds surely inside,
        # 21 of 27
        pad_kept, pad_removed = np.tile(["in", "out", "unsure"], 6), np.full(18, "in")
        for kept_states, removed_states in (
                (kept_state, removed_state),
                (np.concatenate([kept_state, pad_kept]),
                 np.concatenate([removed_state, pad_removed]))):
            a = np.arange(len(kept_states), dtype=float)
            l2 = np.zeros((len(a), 1))
            extra = ci.measures.difference(three_valued(kept_states, True),
                                           three_valued(removed_states, False))
            inside, unsure = extra.decide(a, l2)
            assert inside.tolist() == [False, True, False] + [False] * (len(a) - 3)
            # unsure: kept in and removed unsure, kept unsure and removed out or unsure;
            # the padded rows, surely in removed, are surely out
            assert unsure.tolist() == ([False, False, True, False, False, False, False, True,
                                        True] + [False] * (len(a) - 9))
            exact = extra.membership(a, l2)
            assert exact.tolist() == ([False, True, True] + [False] * 3 + [False, True, True]
                                      + [False] * (len(a) - 9))
            assert not np.any(inside & ~exact) and not np.any(exact & ~inside & ~unsure)
        # with no unsure point the triage is the exact mask
        sure = [0, 1, 3, 4]
        a, l2 = np.arange(9, dtype=float)[sure], np.zeros((4, 1))
        both = ci.measures.difference(three_valued(kept_state, True),
                                      three_valued(removed_state, False))
        inside, unsure = both.decide(a, l2)
        assert not unsure.any() and inside.tolist() == [False, True, False, False]
        assert np.array_equal(inside, both.membership(a, l2))

    @pytest.mark.parametrize("metric", [DINF, ci.DinfMetric(H2), GAUGE, CC, ci.CCMetric(H2)],
                             ids=["dinf-h1", "dinf-h2", "gauge-h1-htype", "cc-h1", "cc-h2"])
    def test_bump_difference_triage_is_sound(self, metric):
        # on real draws of the bump's whole box, the clipped part included: no point
        # both surely in and unsure, every sure point decided as the exact mask
        # decides it, and only unsure points left open
        apex, _ = ci.isodiametric._apex_and_bound(metric)
        bump = ci.ball_set(metric, center=apex, radius=RHO)
        extra = ci.measures.difference(bump, ci.ball_set(metric))
        hits, unsure_rows = [], 0
        # the bump's whole box, then the difference's own strata, where the draws crowd
        # next to both spheres
        for draws in (bump.draws, extra.draws):
            hits.append(0)
            for a, l2 in draws(sampling.substream(5, 0), 1 << 16):
                inside, unsure = extra.decide(a, l2)
                exact = extra.membership(a, l2)
                assert inside.dtype == unsure.dtype == bool
                assert inside.shape == unsure.shape == a.shape
                assert not np.any(inside & unsure)
                assert not np.any(inside & ~exact)
                assert not np.any(exact & ~(inside | unsure))
                hits[-1] += int(np.count_nonzero(exact))
                unsure_rows += int(np.count_nonzero(unsure))
        # every draw of a d_inf bump's strata hits: they are bump \ B itself
        assert 0 < hits[0] < 1 << 16 and 0 < hits[1] <= 1 << 16
        if isinstance(metric, ci.CCMetric):  # CC leaves the points next to either sphere
            assert unsure_rows > 0

    @staticmethod
    def _cut_ball_max(budget, seed):
        """(B(cut point, 1), the full kernel's max norm in it, the rows its triage left unsure)."""
        c = ci.cut_point(H1, 1.0)
        ball, unsure_rows = ci.ball_set(CC, center=c), 0

        def chunk(rng, count):
            nonlocal unsure_rows
            best = 0.0
            for a, l2 in ball.draws(rng, count):
                unsure_rows += int(np.count_nonzero(ball.decide(a, l2)[1]))
                picked = CC.radial_norm(a, _sum_squares(l2 - c.layer2)) <= 1.0
                norms = CC.radial_norm(a[picked], _sum_squares(l2[picked]))
                best = max(best, float(np.max(norms, initial=0.0)))
            return best

        return ball, max(sampling.map_chunks(seed, budget, chunk)), unsure_rows

    @pytest.mark.parametrize("seed", [1, 2, 3, 8])
    @pytest.mark.parametrize("budget", [1 << 16, 1 << 20], ids=["2^16", "2^20"])
    def test_cut_ball_interior_never_beats_its_sphere(self, budget, seed):
        # verify cc samples only the sphere of B(x, 1), where d(0, .) has its max over
        # the ball, as d(0, delta_s y) = s d(0, y): the whole ball, drawn as a region
        # with the full kernel on every member, stays at or below the sphere's max
        _, ball_max, _ = self._cut_ball_max(budget, seed)
        assert ball_max <= ci.verify_assumption_C(H1, budget, seed).sampled_max_roundtrip

    def test_sampled_max_within_a_cc_ball(self):
        # within's triage picks the candidates, some of which it leaves unsure, and its
        # exact membership settles them; the maximum is the full kernel's over the ball
        ball, want, unsure_rows = self._cut_ball_max(1 << 16, 8)
        assert unsure_rows > 0 and want > 1.0
        assert ci.measures.sampled_max(CC, ball.draws, 1 << 16, 8, within=ball) == want

    def test_sampled_max_keeps_unsure_points(self):
        # a within whose triage leaves every point unsure: only its exact membership
        # picks the points, so a sampled_max that kept only inside would miss the maximum
        ball, want, _ = self._cut_ball_max(1 << 16, 8)
        unsure_only = ci.SampledSet(ball.membership, ball.bounding_box,
                                    lambda a, l2: _all_unsure(a))
        assert ci.measures.sampled_max(CC, ball.draws, 1 << 16, 8, within=unsure_only) == want

    def test_sampled_max_within_a_cc_ball_kernel_passes(self, monkeypatch):
        # the seed's membership and max, then one settle's membership and max
        ball = ci.ball_set(CC, center=ci.cut_point(H1, 1.0))
        sizes = _cc_kernel_spy(monkeypatch)
        ci.measures.sampled_max(CC, ball.draws, 1 << 16, 8, within=ball)
        assert len(sizes) <= 4

    def test_cc_bump_one_kernel_pass_a_chunk(self, monkeypatch):
        # 2^17 points are one chunk of 8 blocks; the bump and the base ball each
        # settle their unsure points once (the parent ran the kernel twice a block)
        sizes = _cc_kernel_spy(monkeypatch)
        _cc_bump(H1, 1 << 17, 1)
        assert 1 <= len(sizes) <= 2

    def test_verify_cc_kernel_passes(self, monkeypatch):
        # the seed rows, one settle, the continuation distance; the
        # sphere rows' bound table is built first, with its own kernel calls, once a process
        ci.geodesics._sphere_row_bounds()
        sizes = _cc_kernel_spy(monkeypatch)
        ci.verify_assumption_C(H1, 1 << 16, seed=1)
        assert len(sizes) <= 3

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("spec", [H1, H2], ids=["h1", "h2"])
    def test_cc_bump_hits_are_the_full_kernel_count(self, monkeypatch, spec, seed):
        # the same draws with radial_norm on every point, for the bump and the ball
        budget, seen = 1 << 17, []
        mc_measure = ci.measures.mc_measure

        def record(sampled, budget, seed):
            seen.append((sampled, mc_measure(sampled, budget, seed)))
            return seen[-1][1]

        monkeypatch.setattr(ci.measures, "mc_measure", record)
        _cc_bump(spec, budget, seed)
        (extra, est), = seen
        metric, (apex, _) = ci.CCMetric(spec), ci.isodiametric._apex_and_bound(ci.CCMetric(spec))
        strata = ci.measures._strata(extra.bounding_box, budget)
        a, l2, row = _one_shot_region(strata, sampling.substream(seed, 0), budget)
        bump = metric.radial_norm(a, _sum_squares(l2 - apex.layer2)) <= RHO
        ball = metric.radial_norm(a, _sum_squares(l2)) <= 1.0
        hits = np.bincount(row[bump & ~ball], minlength=len(strata.volumes)).tolist()
        # the bands beside each stratum's core, two for most of the STRATA strata
        assert 0 < sum(hits) < budget and len(hits) > ci.measures.STRATA and strata.core > 0
        assert est.value == _stratified_value(strata, hits, np.bincount(row).tolist())

    def test_settle_cap_keeps_every_output(self, monkeypatch):
        # with at most 7 held rows (plus a block's) the kernel settles far more often;
        # the counts and maxima, and so every output, stay the same
        def outputs():
            sizes = _cc_kernel_spy(monkeypatch)
            bump = _cc_bump(H1, 1 << 17, 1)
            cut = ci.verify_assumption_C(H1, 1 << 16, seed=1).sampled_max_roundtrip
            reach = [ci.apex_reach(m, 1 << 16, seed=2).sampled_sup for m in (DINF, GAUGE)]
            return (bump.value, bump.error, cut, reach), len(sizes)

        want, calls = outputs()
        monkeypatch.setattr(ci.measures, "SETTLE_ROWS", 7)
        got, capped_calls = outputs()
        assert got == want
        assert capped_calls > calls


def _bump_and_ball(metric):
    apex, _ = ci.isodiametric._apex_and_bound(metric)
    return ci.ball_set(metric, center=apex, radius=RHO), ci.ball_set(metric)


def _in_strata(strata, u, l2):
    """Whether each point (U, l2) lies in one of the strata: its shell and layer-2 interval."""
    s = np.minimum(np.searchsorted(strata.shells[:, 1], u), len(strata.shells) - 1)
    return ((strata.shells[s, 0] <= u) & (u <= strata.shells[s, 1])
            & (strata.lo2[s, 0] <= l2[:, 0]) & (l2[:, 0] <= strata.hi2[s, 0]))


BUMP_METRICS = [DINF, ci.DinfMetric(H2), GAUGE, CC, ci.CCMetric(H2)]
BUMP_IDS = ["dinf-h1", "dinf-h2", "gauge-h1-htype", "cc-h1", "cc-h2"]
# the annulus rules' metric classes, as test_slab_corner_is_surely_inside takes them
RULE_METRICS = [DINF, ci.DinfMetric(H1, c2=0.7), ci.GaugeMetric(H1), GAUGE, CC]
RULE_IDS = ["dinf", "dinf-c2", "gauge-h1", "gauge-h1-htype", "cc"]


class TestClippedBox:
    """difference draws strata between removed's slab and kept's reach, each over its annulus."""

    @pytest.mark.parametrize("metric", BUMP_METRICS, ids=BUMP_IDS)
    def test_cut_points_lie_in_the_ball(self, metric):
        # the soundness gate: 2^20 draws of the bump's whole box, as (U, layer 2); every
        # draw outside the whole strata, cores and bands, is surely in the unit ball by
        # its triage or surely out of the bump by the bump's, and none is in bump \ ball
        # by the exact masks
        bump, ball = _bump_and_ball(metric)
        box, region = bump.bounding_box, ci.measures.difference(bump, ball).bounding_box
        region = region.whole or region
        strata = ci.measures._strata(region, 1 << 20)
        assert strata.r1 == box.r1 and region.volume < 0.6 * box.volume
        lo, hi = np.concatenate([[0.0], box.lo2[0]]), np.concatenate([[1.0], box.hi2[0]])
        cut = 0
        for pts in _blocks_of_box(sampling.substream(9, 0), 1 << 20, lo, hi):
            out = ~_in_strata(strata, pts[:, 0], pts[:, 1:])
            a = box.r1 * box.r1 * np.power(pts[out, 0], 2.0 / box.dim1)
            l2 = pts[out, 1:]
            cut += len(a)
            bump_in, bump_unsure = bump.decide(a, l2)
            assert np.all(ball.decide(a, l2)[0] | ~(bump_in | bump_unsure))
            assert not np.any(bump.membership(a, l2) & ~ball.membership(a, l2))
        assert cut / (1 << 20) == pytest.approx(1.0 - region.volume / box.volume, abs=5e-3)

    @pytest.mark.parametrize("group,coefs,closed", [
        (H1, {}, 1.0588745), (H2, {}, 1.0202025), (H1, {"c2": 0.7}, 1.0588745)],
        ids=["h1", "h2", "c2-0.7"])
    def test_dinf_bump_is_its_clipped_box(self, group, coefs, closed):
        # the unit ball is |z| <= r1, |t| <= r2, so bump \ ball is the bump's box above
        # r2: every draw hits, and the ratio is 1 + rho^Q / 2, to the slab's guard band
        metric = ci.DinfMetric(group, **coefs)
        extra = ci.measures.difference(*_bump_and_ball(metric))
        budget = 1 << 18
        est = ci.mc_measure(extra, budget, seed=4)
        assert est.value == extra.bounding_box.volume  # every draw a hit
        assert est.error == extra.bounding_box.volume * 3.0 / budget
        ratio = ci.maximize_bump(metric, budget, seed=4).ratio
        assert ratio.value == pytest.approx(1.0 + RHO ** group.Q / 2.0, rel=1e-12, abs=0.0)
        assert round(ratio.value, 7) == closed

    def _keeps(self, kept, removed, budget=1 << 15):
        # the same box, one stratum, and the same estimate's bits as with no slab at all
        extra = ci.measures.difference(kept, removed)
        for field in ("shells", "lo2", "hi2"):
            assert np.array_equal(getattr(extra.bounding_box, field),
                                  getattr(kept.bounding_box, field))
        plain = ci.measures.difference(kept, dataclasses.replace(removed, slab=None))
        assert ci.mc_measure(extra, budget, 2) == ci.mc_measure(plain, budget, 2)

    def test_more_than_one_layer2_coordinate_keeps_the_box(self):
        # k = 3: the slab is a ball of layer 2, not an interval, and is not used
        self._keeps(*_bump_and_ball(ci.DinfMetric(quaternionic())))

    def test_slab_covering_neither_end_keeps_the_box(self):
        # a gauge ball of radius 0.9 reaches beyond the unit ball's slab over its whole
        # disc at both ends; annulus by annulus its reach lies within the slab, as the
        # ball lies in the unit ball: no shell holds a point, and the box stays
        ball = ci.ball_set(GAUGE)
        kept = ci.ball_set(GAUGE, radius=0.9)
        half = ball.slab(0.0, kept.bounding_box.r1)[1]
        assert 0 < half < kept.bounding_box.hi2[0, 0]
        self._keeps(kept, ball)
        # and a set whose slab lies strictly inside the box on every annulus
        box = BoundingBox(2, 1.0, [-1.0], [1.0])
        inner = ci.SampledSet(lambda a, l2: np.abs(l2[:, 0]) <= 0.5, box,
                              slab=lambda R_in, R_out: (np.zeros(1), 0.5))
        self._keeps(ci.SampledSet(lambda a, l2: a <= 1.0, box), inner)

    def test_slab_covering_both_ends_keeps_the_box(self):
        # a small ball at the center lies in the unit ball's slab: cutting both ends
        # would empty the box, which BoundingBox refuses; the box stays, and no draw hits
        for metric in (DINF, GAUGE, CC):
            ball = ci.ball_set(metric)
            kept = ci.ball_set(metric, radius=0.3)
            self._keeps(kept, ball)
            assert ci.mc_measure(ci.measures.difference(kept, ball), 1 << 12, 2).value == 0.0
        # a slab exactly the box's interval covers both ends too
        box = BoundingBox(2, 1.0, [-1.0], [1.0])
        same = ci.SampledSet(lambda a, l2: np.abs(l2[:, 0]) <= 1.0, box,
                             slab=lambda R_in, R_out: (np.zeros(1), 1.0))
        self._keeps(ci.SampledSet(lambda a, l2: a <= 1.0, box), same)

    @pytest.mark.parametrize("metric", RULE_METRICS, ids=RULE_IDS)
    def test_slab_corner_is_surely_inside(self, metric):
        # the rule's own claim, at the corner and just past it: the triage at r = 1 holds
        # (R^2, h^2) surely inside, for R of the bump and of wider layer-1 radii
        for R in (RHO, 0.75, 0.9):
            h = metric._slab_height(0.0, R)
            assert 0.0 < h < metric._box_radii()[1]
            assert metric._radial_bounds(np.array([R * R]), np.array([h * h]), 1.0)[0].all()
        # the sphere's layer-1 rim, and any R beyond it, holds no slab
        assert metric._slab_height(0.0, 1.0) == metric._slab_height(0.0, 1e100) == 0.0

    @staticmethod
    def _annuli(metric):
        """Annuli (R_in, R_out) for the rule tests: the bump's, generic ones, and for CC
        radii on cell ends |z|^2 = j / C on both sides of the half height's peak."""
        annuli = [(0.0, RHO), (0.1, 0.2), (0.3, 0.35), (0.5, 0.75), (0.7, 0.9)]
        if isinstance(metric, ci.CCMetric):
            ends = np.sqrt(np.array([100, 1000, 1600, 1700, 2500, 3500]) / PROFILE_CELLS)
            annuli += [(r, r * 1.01) for r in ends] + [(r * 0.99, r) for r in ends]
        return np.array(annuli).T

    @pytest.mark.parametrize("metric", RULE_METRICS, ids=RULE_IDS)
    def test_annulus_slab_holds_its_annulus(self, metric):
        # every a within ANNULUS_SLACK of the annulus, at and past both corners, with
        # b = h^2 is surely inside by the triage at r = 1; the rule is elementwise
        R_in, R_out = self._annuli(metric)
        h = metric._slab_height(R_in, R_out)
        assert h.shape == R_in.shape and np.all(h > 0.0)
        assert h.tolist() == [metric._slab_height(x, y) for x, y in zip(R_in, R_out)]
        slack = metrics.ANNULUS_SLACK
        for a in (R_in * R_in * (1.0 - slack), R_in * R_in, 0.5 * (R_in * R_in + R_out * R_out),
                  R_out * R_out, R_out * R_out * (1.0 + slack)):
            assert metric._radial_bounds(a, h * h, 1.0)[0].all()
        # a slab off the center is higher than the center's for CC, whose T rises
        if isinstance(metric, ci.CCMetric):
            assert metric._slab_height(0.3, 0.35) > metric._slab_height(0.0, 0.35)

    @pytest.mark.parametrize("metric", RULE_METRICS, ids=RULE_IDS)
    def test_annulus_reach_is_surely_outside(self, metric):
        # just beyond H, and beyond r^2 H for the bump's radius r: every a within
        # ANNULUS_SLACK of the annulus is surely outside by the triage at r, and the
        # kernel puts its norm above r
        R_in, R_out = self._annuli(metric)
        H = metric._reach_height(R_in, R_out)
        assert H.shape == R_in.shape and np.all((0.0 < H) & (H < math.inf))
        assert H.tolist() == [metric._reach_height(x, y) for x, y in zip(R_in, R_out)]
        slack = metrics.ANNULUS_SLACK
        for r in (1.0, RHO):
            top = np.nextafter(r * r * H, math.inf)
            for a in (R_in * R_in * (1.0 - slack), R_in * R_in,
                      0.5 * (R_in * R_in + R_out * R_out), R_out * R_out,
                      R_out * R_out * (1.0 + slack)):
                a, b = r * r * a, top * top
                inside, unsure = metric._radial_bounds(a, b, r)
                assert not np.any(inside | unsure)
                assert np.all(metric.radial_norm(a, b) > r)
        # the ball's own reach: above the sphere, and for the bump the same rule dilated
        apex, _ = ci.isodiametric._apex_and_bound(metric)
        c2, top = ci.ball_set(metric, center=apex, radius=RHO).reach(RHO * R_in, RHO * R_out)
        assert np.array_equal(c2, apex.layer2) and np.array_equal(top, RHO * RHO * H)


def _gaps(region):
    """The cores of a split region, as the strata of the gaps its bands leave in its whole.

    Each whole stratum's interval, less the bands on its shell: read off the region's
    public fields alone, not from how the split made them.
    """
    whole, gaps = region.whole, []
    for shell, lo, hi in zip(whole.shells.tolist(), whole.lo2[:, 0], whole.hi2[:, 0]):
        on = np.all(region.shells == shell, axis=1)
        ends = np.concatenate([[lo], np.column_stack([region.lo2[on, 0],
                                                      region.hi2[on, 0]]).ravel(), [hi]])
        gaps += [(shell, [gap_lo], [gap_hi]) for gap_lo, gap_hi in ends.reshape(-1, 2)
                 if gap_lo < gap_hi]
    shells, lo2, hi2 = zip(*gaps)
    return BoundingBox(whole.dim1, whole.r1, lo2, hi2, shells)


def _uniform_and_corners(strata, count, seed):
    """(a, l2, stratum) of count uniform points of the strata, and of each one's corners.

    Every a is scaled by a factor within ANNULUS_SLACK of 1: the uniform points' by a
    uniform one, the corners' by 1 - slack, 1 and 1 + slack at both radii, each at both
    ends of the stratum's interval.
    """
    rng = sampling.substream(seed, 0)
    counts = ci.measures._allocation(count, strata.volumes)
    blocks = [(a.copy(), l2.copy(), ci.measures._stratum_of(np.arange(len(a)), segments))
              for a, l2, segments in ci.measures._stratified_draws(strata, counts, rng)]
    a, l2, row = (np.concatenate(col) for col in zip(*blocks))
    slack = metrics.ANNULUS_SLACK
    a = a * (1.0 + slack * rng.uniform(-1.0, 1.0, len(a)))
    corners = [(strata.r1 * strata.r1 * u ** (2.0 / strata.dim1) * f, t, s)
               for s, (shell, lo, hi) in enumerate(zip(strata.shells, strata.lo2[:, 0],
                                                       strata.hi2[:, 0]))
               for u in shell for f in (1.0 - slack, 1.0, 1.0 + slack) for t in (lo, hi)]
    ca, ct, cs = (np.array(col) for col in zip(*corners))
    return (np.concatenate([a, ca]), np.concatenate([l2, ct[:, None]]),
            np.concatenate([row, cs]))


CORE_METRICS = [CC, ci.CCMetric(H2), ci.CCMetric(ci.heisenberg(3)), ci.GaugeMetric(H1), GAUGE]
CORE_IDS = ["cc-h1", "cc-h2", "cc-h3", "gauge-h1", "gauge-h1-htype"]


class TestCores:
    """Each stratum's core is counted exactly, so every point of it must be in bump \\ ball."""

    @pytest.mark.parametrize("metric", CORE_METRICS, ids=CORE_IDS)
    def test_every_core_point_is_in_bump_less_ball(self, metric):
        # the core soundness gate: 2^20 points uniform in the cores, and every core's
        # corners, each a within ANNULUS_SLACK, all in the bump and out of the unit ball
        # by both exact kernels; and the core measure is the gaps' closed product
        bump, ball = _bump_and_ball(metric)
        region = ci.measures.difference(bump, ball).bounding_box
        cores = _gaps(region)
        assert region.core > 0.0 and cores.volume == region.core
        a, l2, _ = _uniform_and_corners(cores, 1 << 20, 11)
        assert len(a) > 1 << 20
        assert np.all(bump.membership(a, l2))
        assert not np.any(ball.membership(a, l2))

    @pytest.mark.parametrize("metric", CORE_METRICS, ids=CORE_IDS)
    def test_every_labeled_band_point_is_surely_where_its_label_says(self, metric):
        # the bands' labels spare a triage: 2^18 points uniform in the bands, and their
        # corners, are in the bump by its exact kernel on every IN_KEPT band and out of
        # the unit ball by its own on every OUT_OF_REMOVED band
        bump, ball = _bump_and_ball(metric)
        region = ci.measures.difference(bump, ball).bounding_box
        sure = np.array(region.sure)
        assert np.any(sure == ci.measures.IN_KEPT) and np.any(sure == ci.measures.OUT_OF_REMOVED)
        a, l2, row = _uniform_and_corners(region, 1 << 18, 12)
        assert np.all(bump.membership(a, l2)[sure[row] == ci.measures.IN_KEPT])
        assert not np.any(ball.membership(a, l2)[sure[row] == ci.measures.OUT_OF_REMOVED])

    @pytest.mark.parametrize("metric", [DINF, ci.DinfMetric(H2), ci.DinfMetric(H1, c2=0.7),
                                        ci.CCMetric(ci.heisenberg(9))],
                             ids=["dinf-h1", "dinf-h2", "dinf-c2", "cc-h9"])
    def test_no_core_keeps_the_whole_strata(self, metric):
        # d_inf's one stratum reaches the bump's rim, where the slab is 0, and CC's on
        # H^9 has no slab: no core, no labels, the region drawn as before
        region = ci.measures.difference(*_bump_and_ball(metric)).bounding_box
        assert region.core == 0.0 and region.whole is None and region.sure == ()

    def test_labeled_triage_keeps_every_estimate(self):
        # the labels change which triage a band's rows take, never the exact counts:
        # the same bits as the region without labels
        for metric in (GAUGE, CC, ci.CCMetric(H2)):
            extra = ci.measures.difference(*_bump_and_ball(metric))
            plain = dataclasses.replace(extra, bounding_box=dataclasses.replace(
                extra.bounding_box, sure=()))
            for budget, seed in ((1 << 17, 1), (40000, 5)):
                assert ci.mc_measure(extra, budget, seed) == ci.mc_measure(plain, budget, seed)


class TestStrata:
    """The strata of bump \\ ball: a fixed share of each chunk, one estimate per stratum."""

    @staticmethod
    def _region(metric):
        return ci.measures.difference(*_bump_and_ball(metric)).bounding_box

    def test_allocation_is_largest_remainders(self):
        alloc = ci.measures._allocation
        assert alloc(5, np.array([2.0])) == [5]
        assert alloc(10, np.array([1.0, 1.0, 1.0])) == [4, 3, 3]  # a tie goes to the lower index
        assert alloc(2, np.array([1.0, 3.0, 1.0, 3.0])) == [0, 1, 0, 1]
        assert alloc(7, np.array([1.0, 2.0, 4.0])) == [1, 2, 4]
        volumes = self._region(CC).volumes
        for count in (1, 31, 32, 33, 1000, sampling.CHUNK_SIZE):
            rows = alloc(count, volumes)
            assert sum(rows) == count and min(rows) >= 0
            assert np.all(np.abs(np.array(rows) - count * volumes / volumes.sum()) < 1.0)

    @pytest.mark.parametrize("metric", [GAUGE, CC, ci.CCMetric(H2)],
                             ids=["gauge", "cc-h1", "cc-h2"])
    def test_regions(self, metric):
        # the whole strata: equal steps of U up to the last shell that holds a point,
        # each with its own interval, every one within the bump's box and summing to
        # the whole's volume
        region, box = self._region(metric), _bump_and_ball(metric)[0].bounding_box
        whole = region.whole
        shells = whole.shells
        assert len(shells) == ci.measures.STRATA and shells[0, 0] == 0.0
        assert np.allclose(np.diff(shells, axis=1), shells[-1, 1] / ci.measures.STRATA)
        assert np.all((box.lo2 <= whole.lo2) & (whole.lo2 < whole.hi2)
                      & (whole.hi2 <= box.hi2))
        assert whole.volume == math.fsum(whole.volumes)
        for s in (0, 7, len(shells) - 1):
            stratum = BoundingBox(whole.dim1, whole.r1, whole.lo2[s], whole.hi2[s],
                                  shells[s])
            assert stratum.volume == whole.volumes[s]
        assert whole.core == 0.0 and whole.whole is None and whole.sure == ()
        # the bands: on each whole stratum's shell, one or two in order within its
        # interval, and the gap between them or at one end its core; the cores and
        # the bands make up the whole
        assert len(region.sure) == len(region.lo2) > len(shells)
        cores = 0.0
        for s in range(len(shells)):
            on = np.flatnonzero(np.all(region.shells == shells[s], axis=1))
            lo, hi = region.lo2[on, 0], region.hi2[on, 0]
            assert 1 <= len(on) <= 2 and np.all(np.diff(on) == 1)
            assert whole.lo2[s, 0] <= lo[0] and hi[-1] <= whole.hi2[s, 0]
            gaps = np.diff(np.concatenate([[whole.lo2[s, 0]], np.column_stack([lo, hi]).ravel(),
                                           [whole.hi2[s, 0]]]))[::2]
            assert np.count_nonzero(gaps) <= 1 and np.all(gaps >= 0.0)
            cores += np.sum(gaps) / (whole.hi2[s, 0] - whole.lo2[s, 0]) * whole.volumes[s]
        assert region.core > 0.0 and region.core == pytest.approx(cores, rel=1e-12)
        assert region.volume == math.fsum([region.core, *region.volumes])
        assert region.volume == pytest.approx(whole.volume, rel=1e-12)
        envelope = whole.envelope
        assert envelope.shells.tolist() == [[0.0, shells[-1, 1]]]
        assert envelope.lo2.tolist() == [[whole.lo2.min()]]
        assert envelope.hi2.tolist() == [[whole.hi2.max()]]

    @pytest.mark.parametrize("block,chunk", [(sampling.BLOCK, sampling.CHUNK_SIZE),
                                             (193, 50 * 193 + 17)])
    def test_stratified_blocks_are_one_draw_bit_for_bit(self, monkeypatch, block, chunk):
        monkeypatch.setattr(sampling, "BLOCK", block)
        for metric in (GAUGE, CC, ci.CCMetric(H2)):
            region = self._region(metric)
            for count in (chunk, 2 * block + 7, 33):  # 33: the envelope alone, for CC
                strata = ci.measures._strata(region, count)
                counts = ci.measures._allocation(count, strata.volumes)
                ours, ref = sampling.substream(5, 0), sampling.substream(5, 0)
                got = [(a.copy(), l2.copy(), segments) for a, l2, segments
                       in ci.measures._stratified_draws(strata, counts, ours)]
                a, l2, row = _one_shot_region(strata, ref, count)
                assert np.concatenate([g[0] for g in got]).tobytes() == a.tobytes()
                assert np.vstack([g[1] for g in got]).tobytes() == l2.tobytes()
                # the segments name each row's stratum
                rows = np.concatenate([np.repeat([s for s, _, _ in g[2]],
                                                 [j - i for _, i, j in g[2]]) for g in got])
                assert np.array_equal(rows, row)
                assert np.array_equal(ours.random(4), ref.random(4))
                # every row's a lies in its shell: (a / r1^2)^(dim1 / 2) within a few ulp
                u = (a / strata.r1 ** 2) ** (strata.dim1 / 2)
                assert np.all(u >= strata.shells[row, 0] * (1 - 1e-14))
                assert np.all(u <= strata.shells[row, 1] * (1 + 1e-14))

    def test_estimates_are_the_same_on_one_and_two_threads(self, monkeypatch):
        # several chunks, settled and summed per stratum in chunk order
        monkeypatch.setattr(sampling, "CHUNK_SIZE", 50 * 193 + 17)
        for metric in (GAUGE, CC):
            extra = ci.measures.difference(*_bump_and_ball(metric))
            got = []
            for threads in ("1", "2"):
                monkeypatch.setenv("CARNOT_ISO_THREADS", threads)
                est = ci.mc_measure(extra, 5 * sampling.CHUNK_SIZE + 3, seed=7)
                got.append((est.value.hex(), est.error.hex()))
            assert got[0] == got[1]

    @pytest.mark.parametrize("budget", [1, 2, ci.measures.STRATA - 1, ci.measures.STRATA,
                                        ci.measures.STRATA + 1, 66, 212, 213,
                                        (1 << 19) + 1])
    def test_small_budgets_draw_every_stratum_or_the_envelope(self, monkeypatch, budget):
        # each band is drawn at least once, or each whole stratum, its core drawn in it;
        # else the draw falls back to one stratum, the whole strata's envelope over
        # [0, u_end]. Either way the estimate and its error are finite
        region = self._region(CC)
        whole = region.whole
        strata = ci.measures._strata(region, budget)
        rows, draws = [], ci.measures._stratified_draws

        def spy(strata, counts, rng):
            rows.append(counts)
            return draws(strata, counts, rng)

        monkeypatch.setattr(ci.measures, "_stratified_draws", spy)
        est = ci.mc_measure(ci.measures.difference(*_bump_and_ball(CC)), budget, seed=3)
        assert 0.0 <= est.value < math.inf and 0.0 < est.error < math.inf
        drawn = np.sum(rows, axis=0)
        assert drawn.sum() == budget
        if strata is region:
            assert len(drawn) == len(region.volumes) and drawn.min() >= 1
        elif strata is whole:
            assert len(drawn) == ci.measures.STRATA and drawn.min() >= 1
        else:
            envelope = whole.envelope
            assert len(drawn) == 1 and strata.shells.tolist() == envelope.shells.tolist()
            assert envelope.shells[0, 0] == 0.0
            assert strata.lo2.tolist() == envelope.lo2.tolist()
            assert strata.hi2.tolist() == envelope.hi2.tolist()
        # too few rows for the bands, or for the whole strata; a full chunk
        if budget < ci.measures.STRATA or budget > 1 << 19:
            assert (strata is region) == (budget > 1 << 19)
        if budget in (66, 212):
            assert strata is whole
        if budget == 213:
            assert strata is region

    @pytest.mark.parametrize("metric", [GAUGE, CC, ci.CCMetric(H2), ci.CCMetric(ci.heisenberg(3))],
                             ids=["gauge", "cc-h1", "cc-h2", "cc-h3"])
    def test_fallback_budgets_draw_the_whole_strata_bit_for_bit(self, metric):
        # the bands are drawn from the first budget whose first chunk gives each band's
        # quota a whole row, and at every budget above it. Below it the estimate is the
        # one of the whole strata, cores drawn in them, and of their envelope below
        # that: bit for bit the region with no core. Gauge's 852 and 853 lie below it
        # both, where the rows _allocation gives its smallest band go 1, 0
        kept, removed = _bump_and_ball(metric)
        extra = ci.measures.difference(kept, removed)
        whole = ci.measures.difference(kept, removed, extra.bounding_box.whole)
        bands = [ci.measures._strata(extra.bounding_box, budget) is extra.bounding_box
                 for budget in range(1, 2500)]
        first = bands.index(True) + 1
        assert 100 < first < 2000 and all(bands[first - 1:]) and not any(bands[:first - 1])
        for budget in (*range(1, first, 37), first - 1, 852, 853):
            if budget < first:
                assert ci.mc_measure(extra, budget, 5) == ci.mc_measure(whole, budget, 5)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cc_bump_matches_the_reference(self, seed):
        # at the evidence budget the estimate lies within 3 sigma of the quadrature value
        # 1.00447866, whose proven enclosure its 3 sigma band holds; the cores counted
        # exactly take the error from 6.5e-6 to 3.2e-6
        ratio = ci.bump_ratio(ci.BumpParams(ci.isodiametric._apex_and_bound(CC)[0], RHO), CC,
                              1 << 17, seed).ratio
        assert ratio.error < 4e-6
        for reference in (1.00447866, 1.0044786297, 1.0044786839):
            assert abs(ratio.value - reference) < 3.0 * ratio.error

    def test_gauge_bump_matches_the_reference(self):
        # within 3 sigma of the quadrature value 1.0631744, at under a ninth of the error
        # of the box above the unit ball's slab alone, 3.88e-5: the cores, 90.5% of the
        # strata, are counted exactly
        apex, _ = ci.isodiametric._apex_and_bound(GAUGE)
        ratio = ci.bump_ratio(ci.BumpParams(apex, RHO), GAUGE, 1 << 20, 1).ratio
        assert ratio.error < 4e-6
        assert abs(ratio.value - 1.0631744) < 3.0 * ratio.error
