"""Monte Carlo Haar measure, spherical-measure normalization, and the CC ball
volume as an estimate.

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
from .metrics import QuadratureError, alpha, cc_ball_integrand  # noqa: F401  (re-exported)


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


def ball_set(metric, center: GroupPoint | None = None, radius: float = 1.0) -> SampledSet:
    """The closed metric ball as a SampledSet."""
    spec = metric.spec
    lo1, hi1, lo2, hi2 = metric.unit_ball_bbox()
    box = BoundingBox(radius * lo1, radius * hi1,
                      radius * radius * lo2, radius * radius * hi2)
    if center is not None:
        # translation by a center with nonzero layer-1 shears the t-range;
        # widen the layer-2 box by the worst twist over the layer-1 box
        if spec.kind == "heisenberg":
            worst = 2.0 * np.linalg.norm(center.layer1) * np.linalg.norm(
                np.maximum(np.abs(box.lo1), np.abs(box.hi1)))
        else:
            jnorm = max(np.linalg.norm(Ji, 2) for Ji in spec.J)
            worst = 0.5 * jnorm * np.linalg.norm(center.layer1) * np.linalg.norm(
                np.maximum(np.abs(box.lo1), np.abs(box.hi1)))
        box = BoundingBox(box.lo1 + center.layer1, box.hi1 + center.layer1,
                          box.lo2 + center.layer2 - worst,
                          box.hi2 + center.layer2 + worst)

    c1 = None if center is None else center.layer1
    c2 = None if center is None else center.layer2

    def member(l1, l2):
        if c1 is None:
            return metric.norm_arrays(l1, l2) <= radius
        return metric.dist_arrays(c1, c2, l1, l2) <= radius

    return SampledSet(member, box, spec, diameter_hint=2.0 * radius)


# ---------------------------------------------------------------------------
# CC volume
# ---------------------------------------------------------------------------

def cc_unit_ball_volume(n: int, abs_tol: float = 1e-12) -> EstimateWithError:
    """CC unit-ball volume of H^n; QuadratureError if the rule misses abs_tol.

    abs_tol bounds the error of the profile integral (the volume divided by
    4 n alpha_{2n}), relative to the integral once that exceeds 1.
    """
    metric = metrics_mod.CCMetric(groups.heisenberg(n))
    val, err = metrics_mod.unit_ball_volume(metric, abs_tol=abs_tol)
    return EstimateWithError(val, err, "quadrature")


# ---------------------------------------------------------------------------
# Monte Carlo measure
# ---------------------------------------------------------------------------

def mc_measure(sampled: SampledSet, budget: int, seed: int) -> EstimateWithError:
    """Hit-or-miss estimate of the Haar (Lebesgue) measure of a SampledSet."""
    box = sampled.bounding_box
    d1 = len(box.lo1)

    def chunk(rng, count):
        pts = sampling.uniform_box(rng, count, box.lo, box.hi)
        return int(np.count_nonzero(sampled.membership(pts[:, :d1], pts[:, d1:])))

    hits = sum(sampling.map_chunks(seed, budget, chunk))
    p = hits / budget
    vol = box.volume
    if hits == 0:
        # one-sided "rule of three" bound
        return EstimateWithError(0.0, vol * 3.0 / budget, "monte_carlo", budget, seed)
    se = vol * math.sqrt(p * (1.0 - p) / budget)
    return EstimateWithError(vol * p, se, "monte_carlo", budget, seed)


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
