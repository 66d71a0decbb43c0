"""Monte Carlo Haar measure and sampled norm maxima, the ratio of a measure
to the unit ball's, and the CC ball volume as an estimate.

Haar measure is coordinate Lebesgue measure in both the Heisenberg and the
H-type exponential model. Every norm reads layer 1 through a = |layer 1|^2
alone, so a SampledSet is drawn radially: a uniform point of its region, a
layer-1 ball times a layer-2 box, is a = r1^2 U^(2/m) and its layer-2
coordinates, 1 + k doubles of one substream. mc_measure and sampled_max
decide each block by the metric's bounds alone and run the kernel once a
chunk on the points those leave undecided. difference samples kept's
region less removed's layer-2 slab where that cuts off one end of it, so
no draw of a bump's extra measure lands where the unit ball surely is.
per_unit_ball is the one division of a measure by Haar(B1), with the
volume's error folded in. Each
metric class holds its unit-ball volume rule, read by
:func:`carnotiso.metrics.unit_ball_volume`: closed forms for d_inf and
gauge, a fixed Gauss-Legendre rule for CC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import groups
from . import metrics as metrics_mod
from . import sampling
from .groups import GroupPoint


@dataclass
class EstimateWithError:
    value: float
    error: float
    method: str  # closed_form | quadrature | monte_carlo
    samples_or_nodes: int = 0
    seed: Optional[int] = None

    def to_dict(self):
        doc = {"value": self.value, "error": self.error, "method": self.method,
               "samples": self.samples_or_nodes}
        if self.seed is not None:
            doc["seed"] = self.seed
        return doc


@dataclass
class BoundingBox:
    """The sampled region: the layer-1 ball |x| <= r1 of R^dim1 times the layer-2 box [lo2, hi2]."""

    dim1: int
    r1: float
    lo2: np.ndarray
    hi2: np.ndarray

    def __post_init__(self):
        self.r1 = float(self.r1)
        self.lo2 = np.atleast_1d(np.asarray(self.lo2, dtype=float))
        self.hi2 = np.atleast_1d(np.asarray(self.hi2, dtype=float))
        extent = (-math.inf < self.lo2) & (self.lo2 < self.hi2) & (self.hi2 < math.inf)
        if not (0 < self.r1 < math.inf and np.all(extent)):  # negated, so that NaN fails too
            raise ValueError("bounding box must have positive finite extent")

    @property
    def volume(self) -> float:
        """alpha_m r1^m |layer-2 box|: the Lebesgue measure of the region."""
        return float(metrics_mod.alpha(self.dim1) * self.r1 ** self.dim1
                     * np.prod(self.hi2 - self.lo2))


# a chunk holds at most this many copied undecided rows, plus one block's, before
# the kernel settles them: memory stays bounded at any budget
SETTLE_ROWS = sampling.BLOCK


@dataclass
class SampledSet:
    """Measurable candidate set: vectorized membership + bounding box, and an optional triage.

    membership(a, l2) takes a = |layer 1|^2 of shape (N,) and layer 2 of shape
    (N, dim2), and returns the exact boolean mask of shape (N,). Every set here
    reads layer 1 only through a, as every norm does. triage(a, l2), where
    given, decides a block without the kernel: it returns two bool masks
    (inside, unsure), inside where a point is surely in and unsure where only
    membership can tell. slab(R), where given, is (c2, H): the set holds
    every point with |layer 1| <= R and |l2 - c2| <= H (none if H is 0).
    """

    membership: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bounding_box: BoundingBox
    triage: Optional[Callable[[np.ndarray, np.ndarray], tuple]] = None
    slab: Optional[Callable[[float], tuple]] = None

    def decide(self, a, l2):
        """(inside, unsure) of a block: the triage's, or the exact mask and no point unsure."""
        if self.triage:
            return self.triage(a, l2)
        return self.membership(a, l2), np.zeros(len(a), bool)

    def draws(self, rng: np.random.Generator, count: int):
        """Yield (a, l2) for count uniform draws of the region, a block at a time.

        Each point takes (U, l2) from box_blocks on [0, 1] x [lo2, hi2], and
        a = r1^2 U^(2/dim1): |x|^2 of a uniform x in the layer-1 ball, since
        P(|x| <= s r1) = s^dim1. No layer-1 coordinate is drawn or squared, so
        a point costs 1 + dim2 doubles, the width box_blocks checks. a is one
        buffer, overwritten by the next block, like box_blocks' points.
        """
        box = self.bounding_box
        lo, hi = np.concatenate([[0.0], box.lo2]), np.concatenate([[1.0], box.hi2])
        power, r1sq = 2.0 / box.dim1, box.r1 * box.r1
        buf = np.empty(min(sampling.BLOCK, count))
        for pts in sampling.box_blocks(rng, count, lo, hi):
            a = buf[:len(pts)]
            u = pts[:, 0] if power == 1.0 else np.power(pts[:, 0], power, out=a)  # U^1 is U
            yield np.multiply(u, r1sq, out=a), pts[:, 1:]


def ball_set(metric, center: GroupPoint | None = None, radius: float = 1.0) -> SampledSet:
    """The closed metric ball B(center, radius) as a SampledSet; center must be central.

    A central center c = [0, c2] translates by a layer-2 shift only, so
    d(c, y) = N(y1, y2 - c2), and the region is the dilated unit region shifted
    by c2: the layer-1 ball of radius R = radius r1 times the layer-2 box of
    half-width radius^2 r2, (r1, r2) = metric._box_radii().
    Membership(a, y2) is the exact mask metric.radial_norm(a, |y2 - c2|^2) <= radius:
    bit for bit norm_arrays(y1, y2 - c2) <= radius at a = |y1|^2. Its triage is
    metric._radial_bounds on the same squares, which decides all but the points
    next to the sphere with no root (d_inf, gauge) or by the CC half-height table.
    Its slab(R) is the unit ball's, metric._slab_height, dilated by radius and
    shifted by c2: (c2, radius^2 h(R / radius)). Homogeneity puts it in the
    ball; for the unit ball, the one every bump removes, the floats are h's
    own, so the triage also holds it surely inside.
    It is the one place that shifts a set's layer 2.
    The array norms take a and square layer 2 unscaled, so FloatingPointError
    unless R^2 is a normal float and, on layer 2, the sum of squares at the
    box's far corner is finite and every half-width squares to a normal float.
    """
    c = groups.identity(metric.spec) if center is None else center
    groups._check_dims(metric.spec, c)  # GroupError, not a broadcast layer-2 shift
    if np.any(c.layer1 != 0):
        raise ValueError(f"ball center {c} is not central: its layer 1 is not zero")
    r1, r2 = metric._box_radii()
    r1 *= radius
    if not np.finfo(float).tiny <= r1 * r1 < math.inf:  # negated, so that NaN fails too
        raise FloatingPointError(f"sampling box layer 1: radius squared {r1 * r1:.3g}; the "
                                 f"array norms need a normal float")
    half = np.full(metric.spec.dim2, radius * radius * r2)
    box = BoundingBox(metric.spec.dim1, r1, c.layer2 - half, c.layer2 + half)
    with np.errstate(over="ignore", under="ignore"):
        far = metrics_mod._sum_squares(np.maximum(np.abs(box.lo2), np.abs(box.hi2)))
        small = np.min(0.5 * (box.hi2 - box.lo2)) ** 2
    if not (far < math.inf and small >= np.finfo(float).tiny):
        raise FloatingPointError(
            f"sampling box layer 2: smallest half-width squared {small:.3g}, far-corner "
            f"sum of squares {far:.3g}; the array norms need both to be normal floats")

    def member(a, l2):
        return metric.radial_norm(a, metrics_mod._sum_squares(l2 - c.layer2)) <= radius

    def triage(a, l2):
        return metric._radial_bounds(a, metrics_mod._sum_squares(l2 - c.layer2), radius)

    def slab(R):
        return c.layer2, radius * radius * metric._slab_height(R / radius)

    return SampledSet(member, box, triage, slab)


def _clipped(box: BoundingBox, slab) -> BoundingBox:
    """box less a slab (c2, H) of one layer-2 coordinate that covers exactly one end; else box.

    The slab holds [c2 - H, c2 + H] over the box's layer-1 ball, so the box's
    other points all lie beyond it. Covering neither end would split the box,
    and covering both would empty it: either keeps the box.
    """
    if slab is None or len(box.lo2) != 1:
        return box
    c2, half = slab(box.r1)
    lo, hi = c2[0] - half, c2[0] + half
    if lo <= box.lo2[0] <= hi < box.hi2[0]:
        return BoundingBox(box.dim1, box.r1, [hi], box.hi2)
    if box.lo2[0] < lo <= box.hi2[0] <= hi:
        return BoundingBox(box.dim1, box.r1, box.lo2, [lo])
    return box


def difference(kept: SampledSet, removed: SampledSet) -> SampledSet:
    """kept \\ removed on kept's region less removed's slab, with a triage from both decisions.

    For k = 1 the region is kept's box with its layer-2 interval cut at
    removed.slab(r1), when that slab covers exactly one end of it (_clipped);
    every point cut away lies in removed. A bump at the apex keeps half its
    box (d_inf and CC) or 0.588 of it (gauge on h1-htype), and a d_inf bump's
    clipped box is bump \\ B itself. Otherwise, for k > 1 as well, the region
    is kept's box.

    A point is surely in when it is surely in kept and surely out of removed,
    and surely out when it is surely out of kept or surely in removed; the rest
    is unsure, and membership settles it on both exact masks.

    The triage asks removed first. Its surely-in rows are surely out, so when
    they are at least three quarters of the block (the clipped CC bump's box,
    89% inside the unit ball on H^1 and 98% on H^2), kept decides only the
    other rows, copied out by index; below that (d_inf and gauge) the copies
    cost more than kept's bounds on the whole block. Every bound is
    elementwise, so either way gives the same masks.
    """
    def member(a, l2):
        return kept.membership(a, l2) & ~removed.membership(a, l2)

    def masks(k_in, k_unsure, r_in, r_unsure):
        inside = k_in & ~(r_in | r_unsure)
        return inside, ((k_in | k_unsure) & ~r_in) ^ inside  # the not surely out, less inside

    def triage(a, l2):
        r_in, r_unsure = removed.decide(a, l2)
        if 4 * np.count_nonzero(r_in) < 3 * len(a):
            return masks(*kept.decide(a, l2), r_in, r_unsure)
        i = np.flatnonzero(~r_in)
        inside, unsure = np.zeros(len(a), bool), np.zeros(len(a), bool)
        inside[i], unsure[i] = masks(*kept.decide(a[i], l2[i]), r_in[i], r_unsure[i])
        return inside, unsure

    return SampledSet(member, _clipped(kept.bounding_box, removed.slab), triage)


# ---------------------------------------------------------------------------
# CC volume
# ---------------------------------------------------------------------------

def cc_unit_ball_volume(n: int) -> EstimateWithError:
    """CC unit-ball volume of H^n by the fixed rule of unit_ball_volume."""
    metric = metrics_mod.CCMetric(groups.heisenberg(n))
    val, err = metrics_mod.unit_ball_volume(metric)
    return EstimateWithError(val, err, metric.volume_method)


# ---------------------------------------------------------------------------
# Monte Carlo measure
# ---------------------------------------------------------------------------

def _rows(mask, *cols):
    """Copies of cols' rows where mask holds, by index: a mask on strided layer 2 is 5x slower."""
    i = np.flatnonzero(mask)
    return tuple(c[i] for c in cols)


def _stacked(held):
    """A chunk's copied rows, each column concatenated: one kernel pass settles them all."""
    return [np.concatenate(col) for col in zip(*held)]


def mc_measure(sampled: SampledSet, budget: int, seed: int) -> EstimateWithError:
    """Hit-or-miss estimate of the Haar (Lebesgue) measure of a SampledSet.

    Each block counts its sure hits (SampledSet.decide) and, when any are
    unsure, copies those rows out of the reused block buffers; membership
    settles the copies in one pass a chunk, or as soon as SETTLE_ROWS are
    held. The hit count is the exact mask's integer, so the estimate keeps
    its bits at every BLOCK and thread count.
    """
    def settle(held):
        return int(np.count_nonzero(sampled.membership(*_stacked(held)))) if held else 0

    def chunk(rng, count):
        hits, held, rows = 0, [], 0
        for a, l2 in sampled.draws(rng, count):
            inside, unsure = sampled.decide(a, l2)
            hits += int(np.count_nonzero(inside))
            if unsure.any():
                held.append(_rows(unsure, a, l2))
                rows += len(held[-1][0])
                if rows >= SETTLE_ROWS:
                    hits, held, rows = hits + settle(held), [], 0
        return hits + settle(held)

    hits = sum(sampling.map_chunks(seed, budget, chunk))
    p = hits / budget
    vol = sampled.bounding_box.volume
    if hits in (0, budget):
        # p(1 - p) is 0 at both ends: the one-sided "rule of three" bound, as a
        # set that misses (or fills) the region on every draw may still hold
        # (or lack) a share of up to about 3 / budget of it
        se = vol * 3.0 / budget
    else:
        se = vol * math.sqrt(p * (1.0 - p) / budget)
    return EstimateWithError(vol * p, se, "monte_carlo", budget, seed)


def _send(blocks, value):
    """The generator blocks' next block, value sent in (None asks as next does); None at its end."""
    try:
        return blocks.send(value)
    except StopIteration:
        return None


def sampled_max(metric, draws, budget: int, seed: int, within=None) -> float:
    """Exact max of metric's norm over budget draws, or over those in within; 0.0 if none.

    draws(rng, count) is a generator of (a, l2) blocks of one chunk's count
    points, a = |layer 1|^2; within is a SampledSet. Each chunk keeps a
    maximum M, seeded by settling at most 512 evenly spaced points of its
    first block (the cut ball's seed rows, every 32nd point of a region's),
    and sends M into draws before every later block: a draw may then leave
    out points whose norm it proves to be at most M, as the cut ball's does;
    the region draws ignore it. A block's candidates are the points
    metric._radial_bounds(., M) cannot place at or below M, less those that
    within.decide, asked about these rows alone, puts surely out; settling
    these copies, once a chunk or as soon as SETTLE_ROWS are held, keeps
    those in within's exact membership and joins their exact max to M.
    Layer 2 is squared once a block, and with the block's a feeds the bounds
    and the kernel. So no output depends on BLOCK or the thread count.
    """
    def settle(best, held):
        if not held:
            return best
        a, l2, b = _stacked(held)
        if within is not None:
            a, b = _rows(within.membership(a, l2), a, b)
        return max(best, float(np.max(metric.radial_norm(a, b), initial=0.0)))

    def chunk(rng, count):
        best, held, rows, blocks = None, [], 0, draws(rng, count)
        while (block := _send(blocks, best)) is not None:
            a, l2 = block
            b = metrics_mod._sum_squares(l2)
            if best is None:
                step = max(1, len(a) // 512)
                best = settle(0.0, [(a[::step], l2[::step], b[::step])])
            i = np.flatnonzero(~metric._radial_bounds(a, b, best)[0])
            if within is not None:
                i = i[np.logical_or(*within.decide(a[i], l2[i]))]
            if len(i):
                held.append((a[i], l2[i], b[i]))
                rows += len(i)
                if rows >= SETTLE_ROWS:
                    best, held, rows = settle(best, held), [], 0
        return settle(best, held)

    return max(sampling.map_chunks(seed, budget, chunk))


def per_unit_ball(est: EstimateWithError, vol: float, vol_err: float) -> EstimateWithError:
    """est / Haar(B1) for Haar(B1) = vol +- vol_err, a bound orders below est's MC error."""
    rel = est.value / vol
    return EstimateWithError(rel, est.error / vol + rel * (vol_err / vol), est.method,
                             est.samples_or_nodes, est.seed)


def set_diameter(points: tuple[np.ndarray, np.ndarray], metric) -> float:
    """Max pairwise distance of a finite cloud (a lower bound for a continuum).

    points is (l1, l2), one point a row; no rows or unequal row counts are a ValueError.
    """
    l1, l2 = points
    n = l1.shape[0]
    if n == 0 or l2.shape[0] != n:
        raise ValueError(f"need a nonempty cloud of equal row counts, got {n} and {len(l2)}")
    best = 0.0
    # row-by-row to keep memory linear
    for i in range(n - 1):
        d = metric.dist_arrays(l1[i], l2[i], l1[i + 1:], l2[i + 1:])
        m = float(np.max(d))
        if m > best:
            best = m
    return best
