"""Isodiametric ratios, ball-plus-bump counterexamples, and density bounds.

The isodiametric ratio of a set A is S(A) / (diam A)^Q; the normalization
of the spherical measure makes every metric ball score exactly 1. Gluing a
small ball (a "bump") onto a low-reach boundary point of the unit ball
raises the measure without raising the diameter, which shows closed balls
are not isodiametric and pushes the density constant below 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import geodesics, groups, measures, sampling
from .groups import GroupError, GroupPoint
from .measures import EstimateWithError, SampledSet
from .metrics import CCMetric, DinfMetric, GaugeMetric, MetricError, alpha, unit_ball_volume

CC_REACH_SAFETY = 1e-3


@dataclass
class RatioResult:
    ratio: EstimateWithError
    diameter_used: float
    diameter_kind: str  # exact | lower_bound
    set_descriptor: dict
    # maximize_bump's search table, (rho, ratio, stderr) per probe; not in to_dict
    probes: list[tuple[float, float, float]] = field(default_factory=list)

    def to_dict(self):
        return {"ratio": self.ratio.to_dict(),
                "diameter": {"value": self.diameter_used, "kind": self.diameter_kind},
                "set": self.set_descriptor}


@dataclass
class BumpParams:
    apex: GroupPoint          # boundary point of the base ball
    rho: float                # bump radius
    radius: float = 1.0       # of the base ball, centered at the identity


@dataclass
class ApexReachReport:
    analytic_bound: Optional[float]
    sampled_sup: float
    samples: int
    seed: int

    @property
    def reach(self) -> float:
        """Certified reach: analytic when available, sampled + safety else."""
        if self.analytic_bound is not None:
            return self.analytic_bound
        return self.sampled_sup + CC_REACH_SAFETY

    def to_dict(self):
        return {"analytic_bound": self.analytic_bound,
                "sampled_sup": self.sampled_sup,
                "certified_reach": self.reach,
                "samples": self.samples, "seed": self.seed}


@dataclass
class SigmaBounds:
    C_lower: float
    C_upper: float

    def __post_init__(self):
        if self.C_lower < 1.0:
            raise ValueError("C lower bound below 1 is impossible (balls score 1)")
        if self.C_lower > self.C_upper:
            raise ValueError(
                f"inconsistent bounds: C_lower {self.C_lower} > C_upper {self.C_upper}")

    @property
    def sigma_interval(self) -> tuple[float, float]:
        return (1.0 / self.C_upper, 1.0 / self.C_lower)

    def to_dict(self):
        lo, hi = self.sigma_interval
        return {"C_lower": self.C_lower, "C_upper": self.C_upper,
                "sigma_interval": [lo, hi]}


# ---------------------------------------------------------------------------
# ratios
# ---------------------------------------------------------------------------

def isodiametric_ratio(sampled: SampledSet, metric, budget: int, seed: int,
                       descriptor: dict | None = None) -> RatioResult:
    """S(A) / (diam A)^Q from Monte Carlo measure and the diameter hint."""
    if sampled.diameter_hint is None:
        raise ValueError("set needs a diameter hint (exact value or sampled lower bound)")
    diam, kind = sampled.diameter_hint
    if not (diam > 0 and math.isfinite(diam)):
        raise ValueError(f"degenerate diameter {diam}")
    sq = measures.spherical_measure(sampled, metric, budget, seed)
    scale = diam ** sampled.spec.Q
    est = EstimateWithError(sq.value / scale, sq.error / scale,
                            sq.method, budget, seed)
    return RatioResult(est, diam, kind, descriptor or {})


# ---------------------------------------------------------------------------
# apex reach: sup of d(apex, .) over the closed unit ball
# ---------------------------------------------------------------------------

def _apex_and_bound(metric):
    """Low-reach boundary point of the unit ball and its analytic reach bound."""
    spec = metric.spec
    if isinstance(metric, DinfMetric):
        # exp of a layer-2 vector with c2 |t|^(1/2) = 1
        l2 = np.zeros(spec.dim2)
        l2[0] = 1.0 / metric.c2**2
        return GroupPoint(np.zeros(spec.dim1), l2), math.sqrt(2.0)
    if isinstance(metric, GaugeMetric):
        l2 = np.zeros(spec.dim2)
        l2[0] = 1.0 / metric.layer2_scale  # on the unit sphere: |Z| = 1/scale
        return GroupPoint(np.zeros(spec.dim1), l2), math.sqrt(2.0)
    if isinstance(metric, CCMetric):
        # inverse of the unit cut point: the ball of the cut-locus theorem,
        # translated so its center is the identity
        x = geodesics.cut_point(spec, 1.0)
        return groups.inv(spec, x), None
    raise MetricError(f"no apex construction for {type(metric).__name__}")


def _sample_ball_sup(metric, apex: GroupPoint, budget: int, seed: int) -> float:
    """Sampled sup of d(apex, y) over the closed unit ball (rejection in box)."""
    lo1, hi1, lo2, hi2 = metric.unit_ball_bbox()
    lo = np.concatenate([lo1, lo2])
    hi = np.concatenate([hi1, hi2])
    d1 = len(lo1)

    def chunk(rng, count):
        pts = sampling.uniform_box(rng, count, lo, hi)
        l1, l2 = pts[:, :d1], pts[:, d1:]
        inside = metric.norm_arrays(l1, l2) <= 1.0
        if not np.any(inside):
            return 0.0
        d = metric.dist_arrays(apex.layer1, apex.layer2, l1[inside], l2[inside])
        return float(np.max(d))

    return max(sampling.map_chunks(seed, budget, chunk))


def apex_reach(metric, budget: int = 10**6, seed: int = 0) -> ApexReachReport:
    """Reach of the counterexample apex over the closed unit ball."""
    apex, bound = _apex_and_bound(metric)
    sup = _sample_ball_sup(metric, apex, budget, seed)
    return ApexReachReport(analytic_bound=bound, sampled_sup=sup,
                           samples=budget, seed=seed)


# ---------------------------------------------------------------------------
# bumps
# ---------------------------------------------------------------------------

class CertificateError(ValueError):
    """Requested bump radius exceeds the certified diameter budget."""


def max_certified_rho(metric, reach: float, radius: float = 1.0) -> float:
    """Largest rho with diam(B union bump) = diam B by the triangle inequality."""
    return 2.0 * radius - reach * radius


def bump_ratio(params: BumpParams, metric, budget: int, seed: int,
               reach: float | None = None) -> RatioResult:
    """Ratio of (unit ball) union (ball of radius rho at the apex).

    Every bump point sits within rho + reach <= diam B of every ball point,
    so the diameter stays 2 * radius and only the extra measure counts:
    ratio = 1 + Haar(bump \\ B) / Haar(B).
    """
    spec = metric.spec
    if reach is None:
        rep = apex_reach(metric, budget=min(budget, 10**5), seed=seed + 1)
        reach = rep.reach
    rho_max = max_certified_rho(metric, reach, params.radius)
    if params.rho > rho_max + 1e-15:
        raise CertificateError(
            f"rho {params.rho} exceeds certified maximum {rho_max}")
    if params.rho < 0:
        raise CertificateError("rho must be nonnegative")
    diam = 2.0 * params.radius
    ball_vol, ball_err = unit_ball_volume(metric)
    ball_vol *= params.radius ** spec.Q
    if params.rho == 0.0:
        est = EstimateWithError(1.0, 0.0, "closed_form", 0, seed)
        return RatioResult(est, diam, "exact", {"kind": "bump", "rho": 0.0})

    bump = measures.ball_set(metric, center=params.apex, radius=params.rho)

    def extra_membership(l1, l2):
        # the base-ball norm only matters on bump hits
        hit = bump.membership(l1, l2)
        idx = np.flatnonzero(hit)
        hit[idx] = metric.norm_arrays(l1[idx], l2[idx]) > params.radius
        return hit

    extra = SampledSet(extra_membership, bump.bounding_box, spec)
    est = measures.mc_measure(extra, budget, seed)
    ratio = 1.0 + est.value / ball_vol
    err = est.error / ball_vol + (est.value / ball_vol) * (ball_err / ball_vol)
    out = EstimateWithError(ratio, err, "monte_carlo", budget, seed)
    desc = {"kind": "bump", "rho": params.rho, "radius": params.radius,
            "apex": {"layer1": params.apex.layer1.tolist(),
                     "layer2": params.apex.layer2.tolist()},
            "metric": metric.describe()}
    return RatioResult(out, diam, "exact", desc)


def maximize_bump(metric, budget: int = 10**6, seed: int = 0,
                  rho_grid: list[float] | None = None,
                  probes: int = 8) -> RatioResult:
    """Best bump ratio over the certified rho range.

    The extra measure grows with rho, so the search is a monotone
    refinement towards the certified maximum; all probes share the seed
    (common random numbers) and the winner is re-estimated with the full
    budget. The probe table (rho, ratio, stderr) is kept as result.probes.
    """
    apex, bound = _apex_and_bound(metric)
    if bound is None:
        rep = apex_reach(metric, budget=min(budget, 10**6), seed=seed + 1)
        reach = rep.reach
    else:
        reach = bound
    rho_max = max_certified_rho(metric, reach)
    if rho_grid is None:
        rho_grid = list(np.linspace(rho_max / probes, rho_max, probes))
    probe_budget = max(1, budget // max(10, len(rho_grid)))
    rows = []
    for rho in rho_grid:
        res = bump_ratio(BumpParams(apex=apex, rho=float(rho)), metric,
                         probe_budget, seed, reach=reach)
        rows.append((float(rho), res.ratio.value, res.ratio.error))
    best_rho = max(rows, key=lambda row: row[1])[0]
    final = bump_ratio(BumpParams(apex=apex, rho=best_rho), metric, budget,
                       seed, reach=reach)
    final.set_descriptor["search"] = {"grid": [row[0] for row in rows],
                                      "certified_rho_max": rho_max,
                                      "reach": reach}
    final.probes = rows
    return final


# ---------------------------------------------------------------------------
# analytic upper bounds and density intervals
# ---------------------------------------------------------------------------

def cdinf_upper_bound(n: int) -> float:
    """Projection/Fubini bound for the d_inf isodiametric constant: 2."""
    if n < 1:
        raise GroupError("n must be >= 1")
    return 2.0

def cdc_upper_bound(n: int, abs_tol: float = 1e-12) -> float:
    """Upper bound (4 alpha_{2n} / pi) / Haar(CC unit ball) for C in (H^n, d_c)."""
    vol = measures.cc_unit_ball_volume(n, abs_tol=abs_tol)
    return (4.0 * alpha(2 * n) / math.pi) / vol.value


def sigma_bounds(C_lower: float, C_upper: float) -> SigmaBounds:
    """Density-constant interval [1/C_upper, 1/C_lower] from C bounds."""
    return SigmaBounds(C_lower=C_lower, C_upper=C_upper)


def sigma_bounds_for(metric, budget: int = 10**6, seed: int = 0) -> SigmaBounds:
    """Compute both endpoints for a supported metric on H^n."""
    spec = metric.spec
    if isinstance(metric, CCMetric):
        upper = cdc_upper_bound(spec.n)
    elif isinstance(metric, DinfMetric):
        upper = cdinf_upper_bound(spec.n if spec.kind == "heisenberg" else 1)
    else:
        # no analytic C upper bound wired up for this metric; callers can
        # still combine a bump lower bound with their own via sigma_bounds
        raise MetricError("no analytic density upper bound for this metric")
    best = maximize_bump(metric, budget=budget, seed=seed)
    lower = max(1.0, best.ratio.value - 3.0 * best.ratio.error)
    return SigmaBounds(C_lower=lower, C_upper=upper)
