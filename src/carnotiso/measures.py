"""Monte Carlo Haar measure and sampled norm maxima, the ratio of a measure
to the unit ball's, and the CC ball volume as an estimate.

Haar measure is coordinate Lebesgue measure in both the Heisenberg and the
H-type exponential model. Every norm reads layer 1 through a = |layer 1|^2
alone, so a SampledSet is drawn radially. Its region is one BoundingBox
of strata, each a shell of a layer-1 ball times a layer-2 box; a ball's is
one stratum, the whole ball times a box. A uniform point of a stratum is a
= r1^2 U^(2/m) over its shell and its layer-2 coordinates, 1 + k doubles of
one substream. mc_measure decides each block by the metric's bounds alone
and runs the kernel once a chunk on the points those leave undecided;
sampled_max draws a ball's sphere, one double a point, less the rows a
proven table culls. difference cuts kept's box into strata: annuli of equal
layer-1 measure, each cut in layer 2 at removed's slab and kept's reach
over it, so no draw of a bump's extra measure lands where the unit ball
surely is or the bump surely is not. Where kept's slab and removed's reach
prove a stratum's core in kept \\ removed, that core is counted exactly and
only the bands beside it are drawn; mc_measure adds the cores' measure to
the strata's estimates. per_unit_ball is the one division of a measure by
Haar(B1), with the volume's error folded in. Each metric class holds its
unit-ball volume rule, read by :func:`carnotiso.metrics.unit_ball_volume`:
closed forms for d_inf and gauge, a fixed Gauss-Legendre rule for CC.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import groups
from . import metrics as metrics_mod
from . import sampling
from .groups import GroupPoint


_memo_lock = threading.Lock()


def _metric_key(metric) -> tuple:
    """What a metric's tables read, by value, not identity: class, describe(), dims, beta."""
    s = metric.spec
    return type(metric), tuple(sorted(metric.describe().items())), s.dim1, s.dim2, s.beta


def _memoized(memo: OrderedDict, size: int, key, build):
    """memo[key], made by build() on a miss, of the last size keys; build makes it read-only."""
    with _memo_lock:
        value = memo.get(key)
        if value is None:
            value = memo[key] = build()
            if len(memo) > size:
                memo.popitem(last=False)
        memo.move_to_end(key)
    return value


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
    """The sampled region: strata, each a shell of the layer-1 ball |x| <= r1 of R^dim1 times a
    layer-2 box, and a core measure counted exactly.

    Stratum s is the shell U = (|x| / r1)^dim1 in [shells[s, 0], shells[s, 1]]
    times [lo2[s], hi2[s]]; U is uniform on [0, 1] over the ball, so a shell
    holds that share of its measure. The shells are in order and disjoint,
    but for strata that share one: their layer-2 boxes then follow each
    other in order along the first axis, the bands beside a core. A (k,) lo2
    and hi2 make one stratum, on the whole ball [0, 1] by default.
    mc_measure gives each stratum a fixed share of a chunk's draws, in
    proportion to its volume (_allocation), and sums the strata's estimates
    and core, a measure of the set known without a draw. volume is the
    region's measure, core and strata; envelope is one box over every
    stratum's shell and layer-2 box. whole, where there is a core, is the
    same region with each core left in its stratum: the strata drawn when
    a band's quota is under one row (_strata). sure, where given, labels each
    stratum of a difference's bands with what its every point surely is:
    IN_KEPT or OUT_OF_REMOVED, so that a draw there asks only the other
    set's triage (SampledSet.decide), or 0 where neither is known.
    """

    dim1: int
    r1: float
    lo2: np.ndarray
    hi2: np.ndarray
    shells: np.ndarray = (0.0, 1.0)
    core: float = 0.0
    whole: Optional["BoundingBox"] = None
    sure: tuple = ()

    def __post_init__(self):
        self.r1 = float(self.r1)
        self.lo2, self.hi2, self.shells = (np.array(x, dtype=float, ndmin=2)
                                           for x in (self.lo2, self.hi2, self.shells))
        # a few strata: Python's comparisons on lists cost less than numpy's calls.
        # Each shell [u0, u1] has 0 <= u0 < u1 <= 1; the next starts at or after u1,
        # or is the same shell with its layer-2 box above this one on the first axis
        lo2, hi2 = self.lo2.tolist(), self.hi2.tolist()
        shells = self.shells.tolist()
        # negated, so that NaN fails too; the values are compared once the shapes match
        if not (0 < self.r1 < math.inf and 0 <= self.core < math.inf
                and len(self.sure) in (0, len(self.lo2)) and self.lo2.shape == self.hi2.shape
                and self.shells.shape == (len(self.lo2), 2)
                and all(-math.inf < a < b < math.inf for a, b in zip(self.lo2.ravel().tolist(),
                                                                     self.hi2.ravel().tolist()))
                and all(0 <= u0 < u1 <= 1 for u0, u1 in shells)
                and all(s[1] <= t[0] or (s == t and h[0] <= l[0])
                        for s, t, h, l in zip(shells, shells[1:], hi2, lo2[1:]))):
            raise ValueError("bounding box must have positive finite extent on shells of [0, "
                             "1], disjoint or one shell of boxes in order, one for each "
                             "layer-2 box, a finite core and a label for each stratum, if any")

    @property
    def volumes(self) -> np.ndarray:
        """alpha_m r1^m |shell| |layer-2 box| of each stratum."""
        return (metrics_mod.alpha(self.dim1) * self.r1 ** self.dim1
                * (self.shells[:, 1] - self.shells[:, 0]) * np.prod(self.hi2 - self.lo2, axis=1))

    @property
    def volume(self) -> float:
        """The Lebesgue measure of the region, its core and its strata."""
        return math.fsum([self.core, *self.volumes])

    @property
    def envelope(self) -> "BoundingBox":
        return BoundingBox(self.dim1, self.r1, self.lo2.min(axis=0), self.hi2.max(axis=0),
                           (self.shells[0, 0], self.shells[-1, 1]))


# labels of a difference's bands (BoundingBox.sure): every point of the band is
# surely in kept, or surely out of removed
IN_KEPT, OUT_OF_REMOVED = 1, 2
# strata of a bump less the unit ball (difference): equal steps of U over the
# shells that hold any of it. 32 would take the CC H^1 bump's error at 2^17
# draws from 3.2e-6 to 1.8e-6, but each band a block holds costs a few numpy
# calls: 32 made the CC bump about 0.8 ms (24%) slower a call
STRATA = 16
# the grid of shells on which difference finds where bump less ball ends
END_SHELLS = 256


def _quota(count: int, volumes) -> np.ndarray:
    """count V_s / sum V of each stratum, in rows."""
    return count * volumes / math.fsum(volumes)


def _allocation(count: int, volumes) -> list:
    """Rows of a chunk of count draws for each stratum: count V_s / sum V by largest remainders.

    Each stratum takes the floor of its quota, and the rows left go one each
    to the largest remainders, ties to the lower stratum index.
    """
    if len(volumes) == 1:
        return [count]
    quota = _quota(count, volumes)
    rows = np.floor(quota).astype(np.int64)
    rows[np.argsort(rows - quota, kind="stable")[:count - int(rows.sum())]] += 1
    return rows.tolist()


def _strata(region: BoundingBox, count: int) -> BoundingBox:
    """The strata a draw of count points (one chunk or more) takes for region.

    Every stratum's estimate needs a draw of the first chunk, min(count,
    CHUNK_SIZE) points. A region with a core takes its bands when each
    band's quota is at least one row, so that its choice moves one way as
    count grows; else its whole strata, the cores drawn in them. Those, or a
    region with no core, take their own strata when _allocation gives each
    a row, else their envelope alone.
    """
    first = min(count, sampling.CHUNK_SIZE)
    if region.whole is not None:
        if _quota(first, region.volumes).min() >= 1.0:
            return region
        region = region.whole
    if min(_allocation(first, region.volumes)) > 0:
        return region
    return region.envelope


def _stratified_draws(strata: BoundingBox, counts, rng: np.random.Generator):
    """Yield (a, l2, segments) for counts[s] uniform draws of each stratum, a block at a time.

    Each point takes (U, l2) from strata_blocks on [0, 1] x [lo2, hi2] of
    its stratum, and a = r1^2 (u0 + (u1 - u0) U)^(2/dim1) for its shell [u0,
    u1]: |x|^2 of a uniform x in that shell of the layer-1 ball, since P(|x|
    <= s r1) = s^dim1. On the whole ball, [0, 1], that is r1^2 U^(2/dim1).
    No layer-1 coordinate is drawn or squared, so a point costs 1 + dim2
    doubles, the width strata_blocks checks. a is one buffer, overwritten by
    the next block, like the block's points; segments are strata_blocks'.
    """
    lo = np.column_stack([np.zeros(len(counts)), strata.lo2])
    hi = np.column_stack([np.ones(len(counts)), strata.hi2])
    power, r1sq = 2.0 / strata.dim1, strata.r1 * strata.r1
    # a = U (r1^2 w) + r1^2 u0 for dim1 = 2, else ((U w + u0)^power) r1^2, a no-op step skipped
    steps = [((u1 - u0) * r1sq, u0 * r1sq) if power == 1.0 else (u1 - u0, u0)
             for u0, u1 in strata.shells.tolist()]
    buf = np.empty(min(sampling.BLOCK, sum(counts)))
    for pts, segments in sampling.strata_blocks(rng, counts, lo, hi):
        a = buf[:len(pts)]
        for s, i, j in segments:
            scale, shift = steps[s]
            np.multiply(pts[i:j, 0], scale, out=a[i:j])
            if shift:
                a[i:j] += shift
        if power != 1.0:
            np.power(a, power, out=a)
            a *= r1sq
        yield a, pts[:, 1:], segments


# a chunk holds at most this many undecided or kept rows, plus one block's, before the
# kernel settles them: memory stays bounded, and a settle's columns under 128 KiB, which
# glibc would page in anew each time (d_inf's reach keeps a quarter of every block)
SETTLE_ROWS = sampling.BLOCK // 4


@dataclass
class SampledSet:
    """Measurable candidate set: vectorized membership + bounding box, and an optional triage.

    membership(a, l2) takes a = |layer 1|^2 of shape (N,) and layer 2 of shape
    (N, dim2), and returns the exact boolean mask of shape (N,). Every set here
    reads layer 1 only through a, as every norm does. bounding_box is the
    region drawn, in strata. triage(a, l2), where given, decides a block
    without the kernel: it returns two bool masks (inside, unsure), inside
    where a point is surely in and unsure where only membership can tell; a
    difference's also takes a band's label (decide). slab and reach, where
    given, take arrays R_in <= R_out of annuli R_in <= |layer 1| <= R_out
    and return (c2, H), H an array: slab's H is a height up to which the
    set holds every point, |l2 - c2| <= H (none if H is 0), triage surely
    in for the unit ball; reach's a height beyond which it holds none (inf:
    no bound).
    """

    membership: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bounding_box: BoundingBox
    triage: Optional[Callable[[np.ndarray, np.ndarray], tuple]] = None
    slab: Optional[Callable[[np.ndarray, np.ndarray], tuple]] = None
    reach: Optional[Callable[[np.ndarray, np.ndarray], tuple]] = None

    def decide(self, a, l2, sure=0):
        """(inside, unsure) of a block: the triage's, or the exact mask and no point unsure.

        sure, where not 0, is the label (BoundingBox.sure) of the one stratum
        of a difference's bands that every row lies in; the difference's triage
        then asks only the set the label leaves open.
        """
        if self.triage:
            return self.triage(a, l2, sure) if sure else self.triage(a, l2)
        return self.membership(a, l2), np.zeros(len(a), bool)


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
    Its slab(R_in, R_out) and reach(R_in, R_out) are the unit ball's annulus
    rules, metric._slab_height and metric._reach_height, dilated by radius and
    shifted by c2: (c2, radius^2 h(R_in / radius, R_out / radius)). Homogeneity
    puts the slab in the ball; for the unit ball, the one every bump removes,
    the floats are h's own, so the triage also holds it surely inside. Beyond
    the reach the kernel, and the triage, find no point of the ball, by the
    margin _reach_height keeps at every radius.
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
        far = metrics_mod._sum_squares(np.maximum(np.abs(box.lo2[0]), np.abs(box.hi2[0])))
        small = np.min(0.5 * (box.hi2 - box.lo2)) ** 2
    if not (far < math.inf and small >= np.finfo(float).tiny):
        raise FloatingPointError(
            f"sampling box layer 2: smallest half-width squared {small:.3g}, far-corner "
            f"sum of squares {far:.3g}; the array norms need both to be normal floats")

    def member(a, l2):
        return metric.radial_norm(a, metrics_mod._sum_squares(l2 - c.layer2)) <= radius

    def triage(a, l2):
        return metric._radial_bounds(a, metrics_mod._sum_squares(l2 - c.layer2), radius)

    def slab(R_in, R_out):
        return c.layer2, radius * radius * metric._slab_height(R_in / radius, R_out / radius)

    def reach(R_in, R_out):
        return c.layer2, radius * radius * metric._reach_height(R_in / radius, R_out / radius)

    return SampledSet(member, box, triage, slab, reach)


def _shell_intervals(kept: SampledSet, removed: SampledSet, edges: np.ndarray):
    """(lo, hi): the layer-2 interval kept \\ removed needs over each shell of U in edges.

    Shell i is edges[i] <= U <= edges[i + 1].

    For k = 1. The shell's annulus of kept's box has the radii r1 U^(1/dim1);
    a draw's a there is within a few ulp of it, far inside the rules'
    ANNULUS_SLACK. kept's interval is its box's, cut at kept.reach; removed.slab's interval
    [c2 - h, c2 + h] then cuts the end it covers. Every point cut away is
    out of kept or in removed. Covering neither end would split the
    interval, so it stays whole; covering both empties it, lo >= hi.
    """
    box = kept.bounding_box
    radii = box.r1 * np.power(edges, 1.0 / box.dim1)
    r_in, r_out = radii[:-1], radii[1:]
    lo, hi = np.full(len(r_in), box.lo2[0, 0]), np.full(len(r_in), box.hi2[0, 0])
    if kept.reach is not None:
        c2, top = kept.reach(r_in, r_out)
        lo, hi = np.maximum(lo, c2[0] - top), np.minimum(hi, c2[0] + top)
    c2, half = removed.slab(r_in, r_out)
    s_lo, s_hi = c2[0] - half, c2[0] + half
    low_end = (half > 0) & (s_lo <= lo) & (lo <= s_hi)
    high_end = (half > 0) & (s_lo <= hi) & (hi <= s_hi)
    return (np.where(low_end & ~high_end, s_hi, lo),
            np.where(low_end & high_end, -np.inf, np.where(high_end, s_lo, hi)))


def _region(kept: SampledSet, removed: SampledSet) -> BoundingBox:
    """The region that difference draws: strata of kept's box, split at their cores.

    For k = 1, END_SHELLS equal steps of U give each shell its interval
    (_shell_intervals), and u_end is the outer edge of the last that is not
    empty. STRATA equal steps of U over [0, u_end] are the strata; each
    stratum's interval spans those of the grid's shells it meets, so it
    holds every point they need. Empty strata are dropped, and neighbours
    with one interval are joined. _split_at_cores then counts each
    stratum's core exactly and draws the bands beside it. When no shell
    holds a point kept's box stays, where no draw hits, and k > 1 draws it
    too.
    """
    box = kept.bounding_box
    if removed.slab is None or box.lo2.shape[1] != 1:
        return box
    lo, hi = _shell_intervals(kept, removed, np.arange(END_SHELLS + 1) / END_SHELLS)
    full = lo < hi
    if not full.any():
        return box
    end = np.flatnonzero(full)[-1] + 1
    # an empty shell spans nothing; the pad is reduceat's end index `end`
    lo = np.append(np.where(full, lo, np.inf)[:end], np.inf)
    hi = np.append(np.where(full, hi, -np.inf)[:end], -np.inf)
    edges = end / END_SHELLS * np.arange(STRATA + 1) / STRATA
    grid = edges * END_SHELLS  # exact: both counts are powers of two
    pairs = np.column_stack([np.floor(grid[:-1]), np.ceil(grid[1:])]).astype(np.intp).ravel()
    lo, hi = np.minimum.reduceat(lo, pairs)[::2], np.maximum.reduceat(hi, pairs)[::2]
    keep = lo < hi
    u0, u1, lo, hi = edges[:-1][keep], edges[1:][keep], lo[keep], hi[keep]
    # a stratum starts a join unless it continues its neighbour's shell and interval
    first = np.flatnonzero(np.concatenate([[True], (u0[1:] != u1[:-1]) | (lo[1:] != lo[:-1])
                                           | (hi[1:] != hi[:-1])]))
    last = np.append(first[1:], len(lo)) - 1
    whole = BoundingBox(box.dim1, box.r1, lo[first, None], hi[first, None],
                        np.column_stack([u0[first], u1[last]]))
    return _split_at_cores(kept, removed, whole)


def _split_at_cores(kept: SampledSet, removed: SampledSet, whole: BoundingBox) -> BoundingBox:
    """whole's strata less their cores, the bands drawn, with the cores' measure as core.

    For k = 1. A stratum's core is the part of its layer-2 interval where
    every point of its annulus is surely in kept \\ removed: within kept's
    slab, |t - c2| <= h, so in kept, and beyond removed's reach, |t - c2'|
    > H, so out of removed. The slab less the reach's interval must be one
    interval, above or below it; a stratum whose slab is 0, whose reach is
    inf or whose slab spans the reach's interval keeps its interval whole.
    The bands, the one or two pieces of the interval beside the core, share
    the stratum's shell, lower band first. Each band is labeled
    (BoundingBox.sure) by the same two rules: OUT_OF_REMOVED when it lies
    beyond the reach's interval, as the band beside kept's sphere does,
    else IN_KEPT when it lies within the slab, as the band beside removed's
    sphere mostly does. No core at all gives whole back.

    The rules speak of the exact kernel, not only of exact arithmetic. kept
    is a ball of radius rho, and its slab the unit ball's rule dilated,
    rho^2 h(R_in / rho, R_out / rho): the triage at r = 1 holds every point
    (a / rho^2, (t - c2) / rho^2) with a within ANNULUS_SLACK of the
    annulus and |t - c2| <= rho^2 h surely inside, so the exact norm of
    such a point stays below 1 by the triage's margin, a relative
    WITHIN_GUARD = 1e-12 for d_inf and gauge, PROFILE_EPS = 1e-9 on the half
    height for CC. By homogeneity the exact norm of (a, t - c2) stays below
    rho by the same margin. The kernel reads a = |z|^2 and t - c2 rounded
    by a few ulp, and errs by a few more (KERNEL_REL for CC), far below
    that margin: it puts every core point in kept, the slab's closed ends
    included. removed's reach is the unit ball's own rule, whose margin
    _reach_height keeps at its closed end too: the kernel puts every core
    point out of removed. So the cores' measure, the closed product alpha_m
    r1^m |shell| |interval| of BoundingBox.volumes, is a measure of kept \\
    removed, and the estimate's error comes from the bands alone. The
    labels rest on the same two proofs.
    """
    if kept.slab is None or removed.reach is None:
        return whole
    lo, hi = whole.lo2[:, 0], whole.hi2[:, 0]
    radii = whole.r1 * np.power(whole.shells, 1.0 / whole.dim1)
    c2, h = kept.slab(radii[:, 0], radii[:, 1])
    c2_out, H = removed.reach(radii[:, 0], radii[:, 1])
    s_lo, s_hi = c2[0] - h, c2[0] + h
    r_lo, r_hi = c2_out[0] - H, c2_out[0] + H
    below, above = s_lo < r_lo, s_hi > r_hi
    # one piece, below the reach's interval or above it, within the stratum's interval;
    # a slab of 0 is one point, no interval
    c_lo = np.maximum(np.where(above, np.maximum(s_lo, r_hi), s_lo), lo)
    c_hi = np.minimum(np.where(below, np.minimum(s_hi, r_lo), s_hi), hi)
    split = (below != above) & (c_lo < c_hi)
    if not split.any():
        return whole
    cores = BoundingBox(whole.dim1, whole.r1, c_lo[split, None], c_hi[split, None],
                        whole.shells[split])
    # each stratum's lower piece, [lo, c_lo] or the whole [lo, hi], then its upper [c_hi, hi]
    band_lo = np.column_stack([lo, c_hi]).ravel()
    band_hi = np.column_stack([np.where(split, c_lo, hi), hi]).ravel()
    band = (band_lo < band_hi) & np.column_stack([np.ones_like(split), split]).ravel()
    s = np.repeat(np.arange(len(lo)), 2)[band]
    band_lo, band_hi = band_lo[band], band_hi[band]
    sure = np.where((band_hi <= r_lo[s]) | (band_lo >= r_hi[s]), OUT_OF_REMOVED,
                    np.where((s_lo[s] <= band_lo) & (band_hi <= s_hi[s]), IN_KEPT, 0))
    return BoundingBox(whole.dim1, whole.r1, band_lo[:, None], band_hi[:, None],
                       whole.shells[s], cores.volume, whole, tuple(sure.tolist()))


def _exact(sampled: SampledSet, a, l2):
    """sampled.membership(a, l2), the kernel run only on the rows the triage leaves unsure.

    The triage decides as the exact mask does wherever it is sure, which each
    metric's _radial_bounds proves, and the kernel is elementwise: the same mask.
    """
    inside, unsure = sampled.decide(a, l2)
    if unsure.any():
        i = np.flatnonzero(unsure)
        inside[i] = sampled.membership(a[i], l2[i])
    return inside


def difference(kept: SampledSet, removed: SampledSet,
               region: Optional[BoundingBox] = None) -> SampledSet:
    """kept \\ removed on strata between removed's slab and kept's reach, with a triage from both.

    region, where given, is _region(kept, removed), built before. For k = 1
    that is STRATA shells of equal layer-1 measure up to the last that holds
    a point, each with kept's layer-2 interval cut at kept's reach and at
    the end removed's slab covers over that shell, then split at its core
    (_split_at_cores). Every point cut away is out of kept or in removed,
    and every point of a core in kept \\ removed. At rho = 2 - sqrt(2) a
    CC bump at the apex spans 4.0% of its box on H^1 and 1.0% on H^2, both
    up to |z| = 0.34, and a gauge bump 44%; their cores are 59%, 42% and
    90.5% of that, so the bands drawn are 1.7%, 0.6% and 4.2% of the box.
    A d_inf bump's region is one stratum with no core, the box above the
    unit ball's slab, which is bump \\ B itself. For k > 1 the region is
    kept's box.

    A point is surely in when it is surely in kept and surely out of removed,
    and surely out when it is surely out of kept or surely in removed; the rest
    is unsure, and membership settles it on both exact masks. The triage asks
    both on a whole block, and on a labeled band's rows only the set its
    label leaves open (BoundingBox.sure). membership runs removed's kernel on
    the rows its triage leaves unsure, then kept's on the rows out of
    removed that kept's triage leaves unsure (_exact): most of a CC bump's
    unsure rows lie next to the unit ball's sphere, surely in the bump, and
    need one kernel, not two.
    """
    def member(a, l2):
        hit = ~_exact(removed, a, l2)
        i = np.flatnonzero(hit)
        hit[i] = _exact(kept, a[i], l2[i])
        return hit

    def triage(a, l2, sure=0):
        if sure == OUT_OF_REMOVED:
            return kept.decide(a, l2)
        r_in, r_unsure = removed.decide(a, l2)
        if sure == IN_KEPT:
            return ~(r_in | r_unsure), r_unsure
        k_in, k_unsure = kept.decide(a, l2)
        # x > y is x & ~y on bools; each pair of masks is disjoint
        return k_in > (r_in | r_unsure), (k_unsure > r_in) | (k_in & r_unsure)

    return SampledSet(member, _region(kept, removed) if region is None else region, triage)


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

def _stacked(held):
    """A chunk's copied rows, each column concatenated: one kernel pass settles them all."""
    return [np.concatenate(col) for col in zip(*held)]


def mc_measure(sampled: SampledSet, budget: int, seed: int) -> EstimateWithError:
    """Hit-or-miss estimate of the Haar (Lebesgue) measure of a SampledSet, stratified.

    The strata are _strata(region, budget): a ball's one, a difference's
    bands beside their cores or its whole strata. Each chunk gives stratum
    s a fixed n_s of its draws (_allocation) and counts its hits h_s: each
    block counts its sure hits (SampledSet.decide, each labeled band's rows
    with its label) per stratum and, when any are unsure, copies those rows
    and their strata out of the reused block buffers; membership settles
    the copies in one pass a chunk, or as soon as SETTLE_ROWS are held. The
    estimate is the strata's core plus sum V_s h_s / n_s over the budget's
    totals, V_s the strata's volumes. The core is exact, so the error is
    the strata's binomial errors V_s (p_s (1 - p_s) / n_s)^(1/2) in
    quadrature; a stratum with h_s in {0, n_s} takes the rule-of-three
    bound 3 V_s / n_s instead.
    One stratum is the plain estimate V h / n. The counts are the exact
    mask's integers, so the estimate keeps its bits at every BLOCK and
    thread count.
    """
    strata = _strata(sampled.bounding_box, budget)
    volumes = strata.volumes

    def settle(held):
        if not held:
            return 0
        a, l2, stratum = _stacked(held)
        return np.bincount(stratum[sampled.membership(a, l2)], minlength=len(volumes))

    def chunk(rng, count):
        counts = _allocation(count, volumes)
        hits, held, rows = [0] * len(volumes), [], 0
        for a, l2, segments in _stratified_draws(strata, counts, rng):
            if strata.sure:  # a difference's bands: each segment asked with its label
                inside, unsure = np.empty(len(a), bool), np.empty(len(a), bool)
                for s, i, j in segments:
                    inside[i:j], unsure[i:j] = sampled.decide(a[i:j], l2[i:j], strata.sure[s])
            else:
                inside, unsure = sampled.decide(a, l2)
            for s, i, j in segments:
                hits[s] += int(np.count_nonzero(inside[i:j]))
            if unsure.any():
                i = np.flatnonzero(unsure)
                held.append((a[i], l2[i], _stratum_of(i, segments)))
                rows += len(i)
                if rows >= SETTLE_ROWS:
                    hits, held, rows = np.add(hits, settle(held)).tolist(), [], 0
        return np.add(hits, settle(held)), np.array(counts)

    results = sampling.map_chunks(seed, budget, chunk)
    hits, rows = (sum(col).tolist() for col in zip(*results))
    value, errors = [], []
    for vol, h, n in zip(volumes.tolist(), hits, rows):
        p = h / n
        value.append(vol * p)
        if h in (0, n):
            # p(1 - p) is 0 at both ends: the one-sided "rule of three" bound, as a
            # set that misses (or fills) the region on every draw may still hold
            # (or lack) a share of up to about 3 / n of it
            errors.append(vol * 3.0 / n)
        else:
            errors.append(vol * math.sqrt(p * (1.0 - p) / n))
    return EstimateWithError(math.fsum([strata.core, *value]), math.hypot(*errors), "monte_carlo",
                             budget, seed)


def _stratum_of(i, segments):
    """The stratum of each of a block's rows i, from its segments (s, i, j)."""
    if len(segments) == 1:
        return np.full(len(i), segments[0][0])
    starts = [seg[1] for seg in segments]
    return np.array([seg[0] for seg in segments])[np.searchsorted(starts, i, side="right") - 1]


def _send(blocks, value):
    """The generator blocks' next block, value sent in (None asks as next does); None at its end."""
    try:
        return blocks.send(value)
    except StopIteration:
        return None


# the cull's relative guard on M
CULL_GUARD = 1e-9
# cells of u in [0, 1) of _sphere_row_bounds; a power of two, so that u's cell is floor(u C),
# exactly, and every multiple of pi/4 in theta is a cell end
SPHERE_CELLS = 1 << 12
# _sphere_row_bounds widens each cell's box by this: relative on a, times r2 + |shift| on |t|
BOX_PAD = 1e-11
# the tables of the last few (metric, shift) pairs, least recently used first
SPHERE_TABLES, _tables = 4, OrderedDict()


def _sphere_theta(u):
    """theta = 2 pi u - pi of draws u in [0, 1), as strata_blocks maps them into [-pi, pi]."""
    return u * (2.0 * math.pi) - math.pi


def _sphere_row_bounds(metric, shift: float):
    """Upper bounds of a sphere row's norm, one per cell of u, for _culled; kept by value.

    A row of _sphere_blocks at draw u has (a, t + shift), (a, t) =
    metric._unit_sphere(theta), theta = _sphere_theta(u), and norm F = N(a,
    (t + shift)^2), with no dim1 or dim2 in it. Cell k is u in [k, k + 1) /
    C, C = SPHERE_CELLS; theta rounds monotonically in u and the ends are
    e_k = theta(k / C), so cell k's rows have theta in [e_k, e_k+1]. Over it:

    * a and t are monotone between multiples of pi/4, each within 2 ulp of a
      cell end, so a lies between the ends' values and |t + shift| below the
      larger end's; on the cells whose ends come within 1e-12 of +-pi/2, where
      CC's T peaks, below r2 + |shift|, as |t| <= r2 of _box_radii;
    * N grows with |t| (d N^2 / d|t| is CC's turning angle; d_inf's and gauge's
      N grow with a and b), and at fixed t the ball's slice {|z| : N <= r} is an
      interval, CC's T being unimodal in |z|; so N's max over the box [a_lo,
      a_hi] x [0, t_hi] is at one of (a_lo, t_hi) and (a_hi, t_hi).

    BOX_PAD widens the box before the corners are read, a by a relative 1e-11
    and |t| by 1e-11 (r2 + |shift|). That covers the rounding of a and t (a
    few ulp, a relative one on a), CC's T's 1e-15, and the ends' 2 ulp off the
    kinks, which move t by 3e-15 r2 and a by a relative 3e-15; next to a = 0,
    at d_inf's and gauge's +-pi/2, a row's a may fall below a_lo, which only
    lowers their N. The bound is the larger corner's kernel value, within
    KERNEL_REL of N there (CC's error; d_inf's and gauge's are a few ulp),
    times 1 + KERNEL_REL: every row of cell k has N <= bound / (1 -
    KERNEL_REL), and a kernel value at most 1 + KERNEL_REL times that. Built
    in about 2 ms; a profile whose squares leave the normal floats is refused.
    """
    r1, r2 = metric._box_radii()
    top = r2 + abs(shift)
    squares = (r1 * r1, r2 * r2, top * top)  # layer 1's, then layer 2's least and largest
    if not all(np.finfo(float).tiny <= x < math.inf for x in squares):  # NaN fails too
        raise FloatingPointError(f"sphere profile: layer 1 and layer 2 squares {squares}; "
                                 f"the array norms need normal floats")

    def build():
        ends = _sphere_theta(np.arange(SPHERE_CELLS + 1) / SPHERE_CELLS)
        a, t = metric._unit_sphere(ends)
        t = np.abs(t + shift)
        a_lo = np.minimum(a[:-1], a[1:]) * (1.0 - BOX_PAD)
        a_hi = np.maximum(a[:-1], a[1:]) * (1.0 + BOX_PAD)
        t_hi = np.maximum(t[:-1], t[1:])
        for peak in (-0.5 * math.pi, 0.5 * math.pi):
            t_hi[(ends[:-1] - 1e-12 <= peak) & (peak <= ends[1:] + 1e-12)] = top
        b = (t_hi + BOX_PAD * top) ** 2
        bound = np.maximum(metric.radial_norm(a_lo, b), metric.radial_norm(a_hi, b))
        bound *= 1.0 + metrics_mod.KERNEL_REL
        bound.flags.writeable = False  # the memo shares it
        return bound

    return _memoized(_tables, SPHERE_TABLES, (_metric_key(metric), shift), build)


def _culled(bound, u, best: float):
    """The draws u that may exceed best, in order: those whose entry is at least best (1 - g).

    A draw's entry is its cell's, floor(u SPHERE_CELLS), and g = CULL_GUARD. A
    dropped row's kernel value is at most its entry times (1 + KERNEL_REL) /
    (1 - KERNEL_REL), below best (1 - g) (1 + 3e-14) < best: the max over the
    rest, joined with best, is the max over all. At best = sqrt(2) (1 - 1e-4)
    CC keeps 0.1% of the rows, gauge 1.1% and d_inf its bottom face, a
    quarter, where it attains sqrt(2).
    """
    keep = np.take(bound, (u * SPHERE_CELLS).astype(np.intp)) >= best * (1.0 - CULL_GUARD)
    return u[np.flatnonzero(keep)]


def _sphere_blocks(metric, shift: float, rng, count: int):
    """Yield (a, t) blocks: seed rows, then count points of B([0, shift e1], 1)'s sphere less culls.

    The points are c w, c = [0, shift e1] and w on the unit sphere: the
    sphere of B(c, 1), where N has its max over the ball, as N(delta_s y) = s
    N(y). Every norm reads (|layer 1|^2, |layer 2|^2); at fixed |layer 1| N
    grows with |layer 2|, and |Z + shift e1| is largest for Z on the ray of
    e1. So the slice Z = t e1 carries the sup, and one t column serves every
    dim2, as it serves every dim1. A row is one draw u of strata_blocks' one
    stratum [0, 1], in row order, so no point depends on BLOCK; its (a, t) is
    metric._unit_sphere's at _sphere_theta(u), t + shift. The seed rows are
    the first block's that _culled keeps at 0.999 times its largest entry,
    some forty of 2^14 for CC; then come the blocks, the first included, each
    less the rows _culled proves are at most the M sent. A kept row has its
    bits of the full draw; with nothing sent, every row is yielded.
    """
    bound = _sphere_row_bounds(metric, shift)

    def rows(u):
        a, t = metric._unit_sphere(_sphere_theta(u))
        return a, t + shift

    best, blocks = None, sampling.strata_blocks(rng, [count], [[0.0]], [[1.0]])
    for i, (pts, _) in enumerate(blocks):
        u = pts[:, 0]
        if i == 0:
            top = np.take(bound, (u * SPHERE_CELLS).astype(np.intp)).max()
            best = yield rows(_culled(bound, u, 0.999 * top))
        best = yield rows(u if best is None else _culled(bound, u, best))


def sampled_max(metric, shift: float, budget: int, seed: int) -> float:
    """Exact max of metric's norm over budget points of the sphere of B([0, shift e1], 1).

    The ball's max lies on that sphere (_sphere_blocks). Each chunk keeps a
    maximum M, seeded by settling its seed rows, and sends it into the draw
    before every later block, which leaves out the rows _culled proves are at
    most M. The rest, (a, t^2), are held until the kernel settles them, once a
    chunk or as soon as SETTLE_ROWS are held, and their max joins M. So no
    output depends on BLOCK or the thread count.
    """
    _sphere_row_bounds(metric, shift)  # a profile beyond the float range fails before any draw

    def settle(best, held):
        a, b = _stacked(held)
        return max(best, float(np.max(metric.radial_norm(a, b), initial=0.0)))

    def chunk(rng, count):
        best, held, rows, blocks = None, [], 0, _sphere_blocks(metric, shift, rng, count)
        while (block := _send(blocks, best)) is not None:
            a, t = block
            held.append((a, t * t))
            rows += len(a)
            if best is None or rows >= SETTLE_ROWS:
                best, held, rows = settle(best or 0.0, held), [], 0
        return settle(best, held) if held else best

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
