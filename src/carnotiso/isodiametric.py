"""Isodiametric ratios, ball-plus-bump counterexamples, and density bounds.

The isodiametric ratio of a set A is S(A) / (diam A)^Q; the normalization
of the spherical measure makes every metric ball score exactly 1. Gluing a
small ball (a "bump") onto a low-reach boundary point of the unit ball
raises the measure without raising the diameter, which shows closed balls
are not isodiametric and pushes the density constant below 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geodesics, groups, measures, metrics, sampling
from .groups import GroupPoint
from .measures import EstimateWithError, SampledSet
from .metrics import (CCMetric, DinfMetric, GaugeMetric, MetricError, alpha, layer2_ball,
                      unit_ball_volume)

APEX_REACH = math.sqrt(2.0)  # sup of d(apex, .) over the unit ball; see _apex_and_bound


@dataclass
class RatioResult:
    ratio: EstimateWithError
    diameter_used: float  # exact
    set_descriptor: dict

    def to_dict(self):
        return {"ratio": self.ratio.to_dict(),
                "diameter": {"value": self.diameter_used, "kind": "exact"},
                "set": self.set_descriptor}


@dataclass
class BumpParams:
    apex: GroupPoint          # the apex of _apex_and_bound(metric)
    rho: float                # bump radius


@dataclass
class ApexReachReport:
    reach: float              # proven; sampled_sup is evidence only
    sampled_sup: float
    samples: int
    seed: int

    def to_dict(self):
        return {"sampled_sup": self.sampled_sup,
                "certified_reach": self.reach,
                "samples": self.samples, "seed": self.seed}


@dataclass
class SigmaBounds:
    C_lower: float
    C_upper: float

    def __post_init__(self):
        # negated comparisons, so that NaN fails them
        if not 1.0 <= self.C_lower < math.inf:
            raise ValueError(f"C_lower {self.C_lower} is not finite and >= 1 (balls score 1)")
        if not self.C_upper < math.inf:  # an infinite C_upper is no bound, and not JSON
            raise ValueError(f"C_upper {self.C_upper} is not finite")
        if not self.C_lower <= self.C_upper:
            raise ValueError(
                f"inconsistent bounds: C_upper {self.C_upper} is not >= C_lower {self.C_lower}")

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
    diam = sampled.diameter_hint
    if diam is None:
        raise ValueError("set needs an exact diameter hint")
    if not (diam > 0 and math.isfinite(diam)):
        raise ValueError(f"degenerate diameter {diam}")
    sq = measures.spherical_measure(sampled, metric, budget, seed)
    scale = diam ** sampled.spec.Q
    est = EstimateWithError(sq.value / scale, sq.error / scale,
                            sq.method, budget, seed)
    return RatioResult(est, diam, descriptor or {})


# ---------------------------------------------------------------------------
# apex reach: sup of d(apex, .) over the closed unit ball
# ---------------------------------------------------------------------------

def _apex_and_bound(metric):
    """Low-reach boundary point a of the unit ball B and its reach sqrt(2).

    The reach sup{d(a, y) : y in B} is exactly sqrt(2) for all three
    metrics. Each apex is central, so d(a, y) = N(a^-1 y) and a^-1 y only
    shifts the layer-2 part of y = [z, t] by -a; y = a^-1 attains sqrt(2).

    * d_inf, a = [0, 1/c2^2]: c1 |z| <= 1 and c2^2 |t - 1/c2^2| <= c2^2 |t| + 1 <= 2.
    * gauge with layer-2 scale s, a = [0, Z0], s |Z0| = 1: with u = s |Z| <= 1,
      d(a, y)^4 = |X|^4 + s^2 |Z - Z0|^2 <= |X|^4 + (u + 1)^2 <= 2 + 2u <= 4.
    * CC on H^n, a = [0, -1/pi], the inverse of the unit cut point: for
      z != 0 write N^2 = |z|^2 phi^2 / sin^2 phi with mu(phi) = |t| / |z|^2.
      Since d(phi^2 / sin^2 phi)/d phi = 2 phi (sin phi - phi cos phi) / sin^3 phi
      = phi mu'(phi), d(N^2)/d|t| = phi < pi; on the center N^2 = pi |t|.
      So N^2 is pi-Lipschitz in t, and d(a, y)^2 = N(z, t + 1/pi)^2
      <= N(z, t)^2 + 1 <= 2. The Lipschitz constant pi is the cut angle:
      geodesics stop minimizing at phi = pi.
    """
    spec = metric.spec
    if isinstance(metric, DinfMetric):
        # exp of a layer-2 vector with c2 |t|^(1/2) = 1
        l2 = np.zeros(spec.dim2)
        l2[0] = (1.0 / metric.c2) ** 2  # OverflowError, not 1/0, for a tiny c2
        return GroupPoint(np.zeros(spec.dim1), l2), APEX_REACH
    if isinstance(metric, GaugeMetric):
        l2 = np.zeros(spec.dim2)
        l2[0] = 1.0 / metric.layer2_scale  # on the unit sphere: |Z| = 1/scale
        return GroupPoint(np.zeros(spec.dim1), l2), APEX_REACH
    if isinstance(metric, CCMetric):
        # inverse of the unit cut point [0, 1/pi]: the ball of the cut-locus
        # theorem, translated so its center is the identity
        return GroupPoint(np.zeros(spec.dim1), np.array([-1.0 / math.pi])), APEX_REACH
    raise MetricError(f"no apex construction for {type(metric).__name__}")


def apex_reach(metric, budget: int = 10**6, seed: int = 0) -> ApexReachReport:
    """Proven reach of the counterexample apex, with its sampled evidence.

    By left invariance d(apex, y) = N(apex^-1 y): the sampled sup is the
    measures.sampled_max of N over B(apex^-1, 1). For d_inf and gauge it draws
    from ball_set(metric, center=apex^-1), whose box is checked before any draw;
    for CC apex^-1 is the unit cut point, and it is verify_assumption_C's
    sampled_max_roundtrip. An oversized chunk is refused before any array of
    the group's width is made.
    """
    sampling.check_chunk(min(budget, sampling.CHUNK_SIZE), metric.spec.dim1 + metric.spec.dim2)
    apex, reach = _apex_and_bound(metric)
    if isinstance(metric, CCMetric):
        sup = geodesics.verify_assumption_C(metric.spec, budget, seed).sampled_max_roundtrip
    else:
        ball = measures.ball_set(metric, center=groups.inv(metric.spec, apex))
        sup = measures.sampled_max(metric, ball.blocks, budget, seed)
    return ApexReachReport(reach=reach, sampled_sup=sup, samples=budget, seed=seed)


# ---------------------------------------------------------------------------
# bumps
# ---------------------------------------------------------------------------

class CertificateError(ValueError):
    """The bump's diameter 2 is not certified: wrong apex, reach or radius."""


def max_certified_rho(metric, reach: float) -> float:
    """Largest rho with diam(B union bump) = diam B = 2 by the triangle inequality."""
    return 2.0 - reach


def bump_ratio(params: BumpParams, metric, budget: int, seed: int,
               reach: float = APEX_REACH) -> RatioResult:
    """Ratio of (unit ball) union (ball of radius rho at the apex).

    params.apex must be the apex of _apex_and_bound(metric), whose reach (the sup of
    d(apex, .) over the unit ball) is proven to be sqrt(2); a reach below that is false
    for it. Every bump point sits within rho + reach <= 2 = diam B of every ball point,
    so the diameter stays 2 and only the extra measure counts: ratio = 1 + Haar(bump \\ B)
    / Haar(B). The bump's test and the unit ball's are radial_within on one a = |z|^2
    a block, each with its own b = |t - center|^2.
    """
    spec = metric.spec
    apex, _ = _apex_and_bound(metric)
    if not (np.array_equal(params.apex.layer1, apex.layer1)
            and np.array_equal(params.apex.layer2, apex.layer2)):
        raise CertificateError(
            f"apex {params.apex} is not the certified apex {apex} of this metric")
    if reach < APEX_REACH:
        raise CertificateError(f"reach {reach} is below the proven apex reach {APEX_REACH}")
    rho_max = max_certified_rho(metric, reach)
    if params.rho > rho_max:
        raise CertificateError(
            f"rho {params.rho} exceeds certified maximum {rho_max}")
    if params.rho < 0:
        raise CertificateError("rho must be nonnegative")
    diam = 2.0
    ball_vol, ball_err = unit_ball_volume(metric)
    if params.rho == 0.0:
        est = EstimateWithError(1.0, 0.0, "closed_form", 0, seed)
        return RatioResult(est, diam, {"kind": "bump", "rho": 0.0})

    bump = measures.ball_set(metric, center=params.apex, radius=params.rho)

    def extra_membership(l1, l2):
        # the bump's center shifts layer 2 only, so both tests read one a = |z|^2
        a, b = metrics.layer_squares(l1, l2 - params.apex.layer2)
        hit = metric.radial_within(a, b, params.rho)
        hit &= ~metric.radial_within(a, metrics._sum_squares(l2), 1.0)
        return hit

    extra = SampledSet(extra_membership, bump.bounding_box, spec)
    est = measures.mc_measure(extra, budget, seed)
    ratio = 1.0 + est.value / ball_vol
    err = est.error / ball_vol + (est.value / ball_vol) * (ball_err / ball_vol)
    out = EstimateWithError(ratio, err, "monte_carlo", budget, seed)
    desc = {"kind": "bump", "rho": params.rho,
            "apex": {"layer1": params.apex.layer1.tolist(),
                     "layer2": params.apex.layer2.tolist()},
            "metric": metric.describe()}
    return RatioResult(out, diam, desc)


def maximize_bump(metric, budget: int = 10**6, seed: int = 0) -> RatioResult:
    """Best certified bump ratio: one estimate at the certified maximum rho.

    For rho < rho', B(apex, rho) lies inside B(apex, rho'), so Haar(bump \\ B)
    never decreases with rho and the best certified ratio is at rho_max.
    """
    apex, reach = _apex_and_bound(metric)
    rho_max = max_certified_rho(metric, reach)
    result = bump_ratio(BumpParams(apex=apex, rho=rho_max), metric, budget, seed,
                        reach=reach)
    result.set_descriptor["search"] = {"certified_rho_max": rho_max, "reach": reach}
    return result


# ---------------------------------------------------------------------------
# the projection upper bound and density intervals
# ---------------------------------------------------------------------------

def projection_upper_bound(metric) -> float:
    """Upper bound on the isodiametric constant C, from the metric's norm N.

    Every norm here has N(x, Z) >= N(x, 0) = c |x| and N(0, Z) = f |Z|^(1/2);
    c = radial_norm(1, 0) and f = radial_norm(0, 1), the norms of unit vectors of
    layer 1 and of layer 2. Take A of diameter 2, so its ratio is Haar(A) /
    Haar(B). Layer 1 of p^-1 q is x_q - x_p, so the projection of A to layer 1
    has diameter <= 2/c. Two points of one layer-2 fibre differ by (0, Z' - Z),
    so each fibre has diameter <= 4/f^2. The Euclidean isodiametric inequality
    on both factors and Fubini give Haar(A) <= alpha_m c^-m 2^k |{|Z| <= 1/f^2}|.
    For d_inf Haar(B) is the same float product without the 2^k: the bound is
    exactly 2^k.
    """
    spec = metric.spec
    m, k = spec.dim1, spec.dim2
    c, f = float(metric.radial_norm(1.0, 0.0)), float(metric.radial_norm(0.0, 1.0))
    vol, _ = unit_ball_volume(metric)
    return alpha(m) * (1.0 / c) ** m * (2.0 ** k * layer2_ball(spec, 1.0 / f)) / vol


def sigma_bounds_for(metric, budget: int = 10**6, seed: int = 0) -> SigmaBounds:
    """Density interval from the best certified bump and projection_upper_bound."""
    best = maximize_bump(metric, budget=budget, seed=seed)
    lower = max(1.0, best.ratio.value - 3.0 * best.ratio.error)
    return SigmaBounds(C_lower=lower, C_upper=projection_upper_bound(metric))
