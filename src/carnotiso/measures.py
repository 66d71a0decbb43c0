"""Monte Carlo Haar measure and sampled norm maxima, spherical-measure
normalization, and the CC ball volume as an estimate.

Haar measure is coordinate Lebesgue measure in both the Heisenberg and the
H-type exponential model. The spherical measure of a set is normalized so
that every metric ball B satisfies S(B) = (diam B)^Q. The unit-ball volume
rules themselves live in :func:`carnotiso.metrics.unit_ball_volume`: closed
forms for d_inf and gauge, a fixed Gauss-Legendre rule for CC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import groups
from . import metrics as metrics_mod
from . import sampling
from .groups import GroupPoint, GroupSpec


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
    lo1: np.ndarray
    hi1: np.ndarray
    lo2: np.ndarray
    hi2: np.ndarray

    def __post_init__(self):
        for name in ("lo1", "hi1", "lo2", "hi2"):
            setattr(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        if np.any(self.hi1 <= self.lo1) or np.any(self.hi2 <= self.lo2):
            raise ValueError("bounding box must have positive extent")

    @property
    def volume(self) -> float:
        return float(np.prod(self.hi1 - self.lo1) * np.prod(self.hi2 - self.lo2))

    @property
    def lo(self) -> np.ndarray:
        return np.concatenate([self.lo1, self.lo2])

    @property
    def hi(self) -> np.ndarray:
        return np.concatenate([self.hi1, self.hi2])


@dataclass
class SampledSet:
    """Measurable candidate set: vectorized membership + bounding box.

    membership(l1, l2) takes arrays of shape (N, dim1), (N, dim2) and
    returns a boolean mask of shape (N,).
    """

    membership: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bounding_box: BoundingBox
    spec: GroupSpec
    diameter_hint: Optional[float] = None  # exact diameter

    def blocks(self, rng: np.random.Generator, count: int):
        """Yield (l1, l2, inside) for count box-rejection draws, sampling.box_blocks' blocks."""
        box = self.bounding_box
        d1 = len(box.lo1)
        for pts in sampling.box_blocks(rng, count, box.lo, box.hi):
            l1, l2 = pts[:, :d1], pts[:, d1:]
            yield l1, l2, self.membership(l1, l2)


def ball_set(metric, center: GroupPoint | None = None, radius: float = 1.0) -> SampledSet:
    """The closed metric ball B(center, radius) as a SampledSet; center must be central.

    A central center c = [0, c2] translates by a layer-2 shift only, so
    d(c, y) = N(y1, y2 - c2) and the box is the dilated unit box shifted by c2.
    Membership is metric.within(y1, y2 - c2, radius): bit for bit norm_arrays(...)
    <= radius, decided from the squared layer norms with no root (d_inf, gauge) or
    by the CC half-height table on all but the points next to the sphere.
    The array norms square box coordinates unscaled, so FloatingPointError
    unless, in each layer, the sum of squares at the box's far corner is
    finite and every half-width squares to a normal float.
    """
    c = groups.identity(metric.spec) if center is None else center
    groups._check_dims(metric.spec, c)  # GroupError, not a broadcast layer-2 shift
    if np.any(c.layer1 != 0):
        raise ValueError(f"ball center {c} is not central: its layer 1 is not zero")
    lo1, hi1, lo2, hi2 = metric.unit_ball_bbox()
    r2 = radius * radius
    box = BoundingBox(radius * lo1, radius * hi1, r2 * lo2 + c.layer2, r2 * hi2 + c.layer2)
    for layer, lo, hi in ((1, box.lo1, box.hi1), (2, box.lo2, box.hi2)):
        with np.errstate(over="ignore", under="ignore"):
            far = metrics_mod._sum_squares(np.maximum(np.abs(lo), np.abs(hi)))
            half = np.min(0.5 * (hi - lo)) ** 2
        if not (far < math.inf and half >= np.finfo(float).tiny):
            raise FloatingPointError(
                f"sampling box layer {layer}: smallest half-width squared {half:.3g}, far-corner "
                f"sum of squares {far:.3g}; the array norms need both to be normal floats")

    def member(l1, l2):
        return metric.within(l1, l2 - c.layer2, radius)

    return SampledSet(member, box, metric.spec, diameter_hint=2.0 * radius)


# ---------------------------------------------------------------------------
# CC volume
# ---------------------------------------------------------------------------

def cc_unit_ball_volume(n: int) -> EstimateWithError:
    """CC unit-ball volume of H^n by the fixed rule of unit_ball_volume."""
    metric = metrics_mod.CCMetric(groups.heisenberg(n))
    val, err = metrics_mod.unit_ball_volume(metric)
    return EstimateWithError(val, err, "quadrature")


# ---------------------------------------------------------------------------
# Monte Carlo measure
# ---------------------------------------------------------------------------

def mc_measure(sampled: SampledSet, budget: int, seed: int) -> EstimateWithError:
    """Hit-or-miss estimate of the Haar (Lebesgue) measure of a SampledSet."""
    def chunk(rng, count):
        return sum(int(np.count_nonzero(inside)) for _, _, inside in sampled.blocks(rng, count))

    hits = sum(sampling.map_chunks(seed, budget, chunk))
    p = hits / budget
    vol = sampled.bounding_box.volume
    if hits == 0:
        # one-sided "rule of three" bound
        return EstimateWithError(0.0, vol * 3.0 / budget, "monte_carlo", budget, seed)
    se = vol * math.sqrt(p * (1.0 - p) / budget)
    return EstimateWithError(vol * p, se, "monte_carlo", budget, seed)


def sampled_max(metric, blocks, budget: int, seed: int) -> float:
    """Exact max of metric's norm over the inside points of budget draws, 0.0 if none.

    blocks(rng, count) yields (l1, l2, inside) for one chunk's count points.
    Each chunk keeps its own running max M: it starts as the max norm of the
    inside points among every 64th point of the chunk's first block, and the
    kernel then runs only on the inside points that metric.radial_within(., M)
    rejects, exactly those of norm above M. One layer_squares a block feeds
    the seed, the test and the kernel. So no output depends on BLOCK or the
    thread count.
    """
    def chunk(rng, count):
        best = None
        for l1, l2, inside in blocks(rng, count):
            a, b = metrics_mod.layer_squares(l1, l2)
            if best is None:
                best = np.max(metric.radial_norm(a[::64], b[::64]), where=inside[::64],
                              initial=0.0)
            above = ~metric.radial_within(a, b, best)
            above &= inside
            if above.any():
                best = np.maximum(best, metric.radial_norm(a[above], b[above]).max())
        return float(best)

    return max(sampling.map_chunks(seed, budget, chunk))


def spherical_measure(sampled: SampledSet, metric, budget: int, seed: int) -> EstimateWithError:
    """S(A) = Haar(A) * 2^Q / Haar(B1), normalized so S(ball) = (diam)^Q."""
    spec = sampled.spec
    ball_vol, ball_err = metrics_mod.unit_ball_volume(metric)
    est = mc_measure(sampled, budget, seed)
    factor = 2.0 ** spec.Q / ball_vol
    # ball_err is a quadrature bound, orders below the MC error; fold it in
    err = factor * (est.error + est.value * ball_err / ball_vol)
    return EstimateWithError(factor * est.value, err, est.method, budget, seed)


def set_diameter(points: list[GroupPoint] | tuple[np.ndarray, np.ndarray], metric) -> float:
    """Max pairwise distance of a finite cloud (a lower bound for a continuum)."""
    if isinstance(points, tuple):
        l1, l2 = points
    else:
        if len(points) == 0:
            raise ValueError("need at least one point")
        l1 = np.stack([p.layer1 for p in points])
        l2 = np.stack([p.layer2 for p in points])
    n = l1.shape[0]
    best = 0.0
    # row-by-row to keep memory linear
    for i in range(n - 1):
        d = metric.dist_arrays(l1[i], l2[i], l1[i + 1:], l2[i + 1:])
        m = float(np.max(d))
        if m > best:
            best = m
    return best
