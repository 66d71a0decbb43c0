"""Isodiametric ratios, ball-plus-bump counterexamples, and density bounds.

The isodiametric ratio of a set A is (2 / diam A)^Q Haar(A) / Haar(B1), so
every metric ball scores exactly 1. Gluing a
small ball (a "bump") onto a low-reach boundary point of the unit ball
raises the measure without raising the diameter, which shows closed balls
are not isodiametric and pushes the density constant below 1.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import measures
from .groups import GroupPoint
from .measures import EstimateWithError, SampledSet
from .metrics import CCMetric, DinfMetric, alpha, gauss_legendre, layer2_ball, unit_ball_volume

APEX_REACH = math.sqrt(2.0)  # sup of d(apex, .) over the unit ball; see _apex_and_bound


@dataclass
class RatioResult:
    ratio: EstimateWithError
    diameter_used: float  # exact
    set_descriptor: dict
    excess: Optional[EstimateWithError] = None       # the ratio less 1, where known apart
    cross_check: Optional[EstimateWithError] = None  # a Monte Carlo ratio beside a quadrature's
    pull: Optional[float] = None                     # (cross_check - ratio) / its error

    def to_dict(self):
        doc = {"ratio": self.ratio.to_dict(),
               "diameter": {"value": self.diameter_used, "kind": "exact"},
               "set": self.set_descriptor}
        if self.excess is not None:
            doc["excess"] = self.excess.to_dict()
        if self.cross_check is not None:
            doc["cross_check"] = {**self.cross_check.to_dict(), "pull": self.pull}
        return doc


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

def isodiametric_ratio(sampled: SampledSet, metric, diameter: float, budget: int,
                       seed: int) -> RatioResult:
    """(2 / diam A)^Q Haar(A) / Haar(B1) from Monte Carlo measure and the exact diameter."""
    if not (diameter > 0 and math.isfinite(diameter)):
        raise ValueError(f"degenerate diameter {diameter}")
    rel = measures.per_unit_ball(measures.mc_measure(sampled, budget, seed),
                                 *unit_ball_volume(metric))
    scale = (2.0 / diameter) ** metric.spec.Q
    est = EstimateWithError(scale * rel.value, scale * rel.error, rel.method, budget, seed)
    return RatioResult(est, diameter, {})


# ---------------------------------------------------------------------------
# apex reach: sup of d(apex, .) over the closed unit ball
# ---------------------------------------------------------------------------

def _apex_and_bound(metric):
    """Low-reach boundary point a of the unit ball B and its reach sqrt(2).

    The reach sup{d(a, y) : y in B} is exactly sqrt(2) for all three
    metrics. Each apex is central, so d(a, y) = N(a^-1 y) and a^-1 y only
    shifts the layer-2 part of y = [z, t] by -a; y = a^-1 attains sqrt(2).

    d_inf and gauge take a = [0, r2 e1], r2 of _box_radii: the top of B on layer 2's first axis.

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
    if isinstance(metric, CCMetric):
        # inverse of the unit cut point [0, 1/pi]: the ball of the cut-locus
        # theorem, translated so its center is the identity
        return GroupPoint(np.zeros(spec.dim1), np.array([-1.0 / math.pi])), APEX_REACH
    l2 = np.zeros(spec.dim2)
    l2[0] = metric._box_radii()[1]  # OverflowError, not 1/0, for a tiny d_inf c2
    return GroupPoint(np.zeros(spec.dim1), l2), APEX_REACH


def apex_reach(metric, budget: int = 10**6, seed: int = 0) -> ApexReachReport:
    """Proven reach of the counterexample apex, with its sampled evidence.

    By left invariance d(apex, y) = N(apex^-1 y): the sampled sup is the
    measures.sampled_max of N over B(apex^-1, 1), apex^-1 = [0, shift e1],
    drawn on its sphere, one profile parameter a point for every metric. For
    CC apex^-1 is the unit cut point: this is verify_assumption_C's draw.
    """
    apex, reach = _apex_and_bound(metric)
    sup = measures.sampled_max(metric, -float(apex.layer2[0]), budget, seed)
    return ApexReachReport(reach=reach, sampled_sup=sup, samples=budget, seed=seed)


# ---------------------------------------------------------------------------
# bumps
# ---------------------------------------------------------------------------

class CertificateError(ValueError):
    """The bump's diameter 2 is not certified: wrong apex, reach or radius."""


def max_certified_rho(metric, reach: float) -> float:
    """Largest rho with diam(B union bump) = diam B = 2 by the triangle inequality."""
    return 2.0 - reach


# the grid of [0, R] on which _kinks finds its first brackets, the points a narrowing
# step puts in each, and the width, relative to R, at which it stops: 4 steps of 64.
# A kink's error term grows as its width squared, 1e-18 here
KINK_CELLS = KINK_SECTIONS = 64
KINK_WIDTH = 2.0 ** -30


def _kinks(gaps, R: float):
    """Brackets [lo, hi] of the sign changes of each row of gaps(r) on [0, R].

    gaps(r) returns one row a function for an array r. KINK_CELLS equal cells
    of [0, R] give the first brackets, cells whose ends lie on the two sides
    of 0 (gap > 0 at one, <= 0 at the other). Each step splits every bracket
    into KINK_SECTIONS equal parts at once and keeps the first part whose ends
    differ in sign, so the ends keep opposite signs: a bisection with no
    stall. The steps stop once every bracket is at most KINK_WIDTH R wide, or
    none narrows. A pair of roots within one cell is not seen. Returns (row,
    lo, hi) arrays, each bracket's row of gaps and ends, in no order.
    """
    x = R * np.arange(KINK_CELLS + 1) / KINK_CELLS
    pos = gaps(x) > 0.0
    row, i = np.nonzero(pos[:, 1:] != pos[:, :-1])
    lo, hi, up = x[i], x[i + 1], pos[row, i]  # up: the sign at lo
    steps, at = np.arange(1, KINK_SECTIONS) / KINK_SECTIONS, np.arange(len(lo))
    while len(lo) and np.max(hi - lo) > KINK_WIDTH * R:
        cuts = lo[:, None] + (hi - lo)[:, None] * steps
        signs = gaps(cuts.ravel()).reshape(len(pos), len(lo), -1)[row, at] > 0.0
        ends = np.column_stack([lo, cuts, hi])
        # the first end whose sign differs from lo's; hi's always does
        k = np.argmax(np.column_stack([signs, ~up]) != up[:, None], axis=1) + 1
        if np.array_equal(ends[at, k - 1], lo) and np.array_equal(ends[at, k], hi):
            break
        lo, hi = ends[at, k - 1], ends[at, k]
    return row, lo, hi


def _slice_measure(metric, shift: float, rho: float) -> EstimateWithError:
    """Haar(bump \\ B) for k = 1 by Gauss-Legendre over the layer-1 radius r.

    B's slice at |layer 1| = r is |t| <= h(r), h = metric.half_height, and
    the bump B(apex, rho) = apex delta_rho(B) has the slice |t - s| <= h_b(r)
    = rho^2 h(r / rho) for r <= R = rho r1, s = |shift| the apex's layer 2
    (both sets are symmetric under t -> -t). For rho <= 2 - sqrt 2 the bump's
    lower end s - h_b stays above 0 >= -h, as s >= rho^2 max h (d_inf and
    gauge s = r2 = max h; CC s = 1/pi >= 0.35 (2/pi)), so only its upper end
    leaves B, and bump \\ B's slice has length L(r) = clip(min(2 h_b, s + h_b -
    h), 0). So Haar(bump \\ B) = int_0^R L(r) m alpha_m r^(m-1) dr.

    L is smooth between its kinks, the roots of s + h_b - h and of h + h_b -
    s (_kinks), so the pieces between them are integrated each by G64 and
    G128 (metrics.gauss_legendre), whose nodes never reach a piece's ends.
    The last piece, where h_b ends in a square root at R, is taken in r = R
    (1 - u^2): h(r1 (1 - u^2)) is smooth in u for gauge, (1 - (1 - u^2)^4)^(1/2)
    = u (4 - 6 u^2 + 4 u^4 - u^6)^(1/2), and for CC, whose T is odd and
    analytic in u = (1 - |z|)^(1/2). The error is max(|G128 - G64|, 50 eps
    int |f|) a piece, as for the CC volume, with |f| taken over the parts
    whose difference L is, (s + h + h_b) m alpha_m r^(m-1) where L > 0: each
    part is within a few ulp (CC's T within 1e-15), and their sum is L's
    scale of rounding. To that each kink adds what a split anywhere in its
    bracket can move: the bracket's width times m alpha_m hi^(m-1) times
    twice its own gap's larger |value| at the two ends, the most by which the
    branches on its two sides differ there.
    """
    m, (r1, _) = metric.spec.dim1, metric._box_radii()
    R, s, area = rho * r1, abs(shift), m * alpha(m)

    def gaps(r):
        # h and h_b in one half_height call: its cost is mostly fixed a call
        both = metric.half_height(np.concatenate([r, np.minimum(r / rho, r1)]))
        h, hb = both[:len(r)], rho * rho * both[len(r):]
        return np.stack([s + hb - h, h + hb - s])

    row, lo, hi = _kinks(gaps, R)
    cuts = np.concatenate([[0.0], np.sort(0.5 * (lo + hi)), [R]])
    a, b = cuts[:-1, None], cuts[1:, None]
    rim = np.arange(len(a))[:, None] == len(a) - 1
    width = np.where(rim, np.sqrt(1.0 - a / R), b - a)  # in u on the rim piece, else in r
    # G64's nodes, then G128's, on every piece at once
    nodes, weights = (np.concatenate(x) / math.pi for x in zip(*map(gauss_legendre, (64, 128))))
    y = width * nodes
    r = np.where(rim, R * (1.0 - y * y), a + y)
    # the nodes and the brackets' ends in one call; L = max(g1 + min(g2, 0), 0), 2 h_b = g1 + g2
    g = gaps(np.concatenate([r.ravel(), lo, hi]))
    g1, g2 = g[:, :r.size].reshape(2, *r.shape)
    L = np.maximum(g1 + np.minimum(g2, 0.0), 0.0)
    w = (area * r ** (m - 1)) * width * weights * np.where(rim, 2.0 * R * y, 1.0)
    f = L * w
    coarse, fine = f[:, :64].sum(axis=1), f[:, 64:].sum(axis=1)
    # the floor's |f| is that of the parts L is a difference of: s + h + h_b = 2 s + g2
    parts = (np.where(L > 0.0, 2.0 * s + g2, 0.0) * w)[:, 64:]
    floor = 50.0 * np.finfo(float).eps * parts.sum(axis=1)
    terms = np.maximum(np.abs(fine - coarse), floor).tolist()
    # each kink's own gap at its bracket's ends: the branches beside it differ by it
    tail, at = np.abs(g[:, r.size:]), np.arange(len(lo))
    ends = np.maximum(tail[row, at], tail[row, len(lo) + at])
    terms += ((hi - lo) * area * hi ** (m - 1) * 2.0 * ends).tolist()
    return EstimateWithError(math.fsum(fine.tolist()), math.fsum(terms), "quadrature")


def _excess(metric, apex: GroupPoint, rho: float, volume) -> Optional[EstimateWithError]:
    """Haar(bump \\ B) / Haar(B) for k = 1, None for k > 1.

    d_inf: B is |z| <= r1, |t| <= r2 and the bump's part above it |z| <= rho r1,
    r2 < t <= r2 (1 + rho^2), so the excess is alpha_m (rho r1)^m rho^2 r2 /
    (alpha_m r1^m 2 r2) = rho^Q / 2, its error the few ulp of the power. The
    others: _slice_measure over Haar(B), measures.per_unit_ball.
    """
    spec = metric.spec
    if spec.dim2 != 1:
        return None
    if isinstance(metric, DinfMetric):
        value = rho ** spec.Q / 2.0
        return EstimateWithError(value, 4.0 * math.ulp(value), "closed_form")
    return measures.per_unit_ball(_slice_measure(metric, float(apex.layer2[0]), rho), *volume)


# the regions and excesses of the last few bumps measured, least recently used first
REGIONS = 4
_regions: OrderedDict = OrderedDict()


def _bump_region(metric, bump: SampledSet, ball: SampledSet, params: BumpParams, volume):
    """(measures._region of bump \\ ball, read-only, and its _excess), kept for the last
    REGIONS bumps by every value they read: measures._metric_key's, the apex and rho.
    volume is unit_ball_volume(metric)."""
    key = (measures._metric_key(metric), tuple(params.apex.layer1.tolist()),
           tuple(params.apex.layer2.tolist()), params.rho)

    def build():
        region = measures._region(bump, ball)
        for box in (region, region.whole or region):
            for values in (box.lo2, box.hi2, box.shells):
                values.flags.writeable = False
        return region, _excess(metric, params.apex, params.rho, volume)

    return measures._memoized(_regions, REGIONS, key, build)


def bump_ratio(params: BumpParams, metric, budget: int, seed: int,
               reach: float = APEX_REACH) -> RatioResult:
    """Ratio of (unit ball) union (ball of radius rho at the apex).

    params.apex must be the apex of _apex_and_bound(metric), whose reach (the sup of
    d(apex, .) over the unit ball) is proven to be sqrt(2); a reach below that is false
    for it. Every bump point sits within rho + reach <= 2 = diam B of every ball point,
    so the diameter stays 2 and only the extra measure counts: ratio = 1 + excess,
    excess = Haar(bump \\ B) / Haar(B).

    For k = 1 the excess is _excess's: rho^Q / 2 for d_inf (method closed_form), else
    the slice quadrature of _slice_measure (quadrature), with an error near 1e-16
    of the ratio. It is reported as excess, and ratio is 1 + excess, its error
    the excess's plus half an ulp of the sum. The Monte Carlo below runs beside it as
    an independent check, cross_check, with pull (mc - excess) / mc's error. For
    k > 1 the Monte Carlo is the ratio, with no excess or cross_check.

    The Monte Carlo draws bump \\ B, measures.difference of the two ball_sets, on
    one a = |z|^2 a block: mc_measure decides it by both balls' bounds, and settles
    the few points near either sphere once a chunk. On k = 1 its region is strata of
    the bump's box, each over its annulus between B's slab and the bump's reach:
    4.0% of the box for CC on H^1 and 44% for gauge. Each stratum's core, surely in
    the bump and surely out of B, is counted exactly, and only the bands beside it
    are drawn: 1.7% and 4.2% of the box. For d_inf every draw is a hit. The region
    and the excess are built once for the last few bumps (_bump_region). The volume
    comes first: a group too wide for it fails before any point of its width is
    built.
    """
    volume = unit_ball_volume(metric)
    apex, _ = _apex_and_bound(metric)
    if not (np.array_equal(params.apex.layer1, apex.layer1)
            and np.array_equal(params.apex.layer2, apex.layer2)):
        raise CertificateError(
            f"apex {params.apex} is not the certified apex {apex} of this metric")
    if reach < APEX_REACH:
        raise CertificateError(f"reach {reach} is below the proven apex reach {APEX_REACH}")
    rho_max = max_certified_rho(metric, reach)
    if not 0.0 <= params.rho <= rho_max:  # negated, so that NaN fails too
        raise CertificateError(f"rho {params.rho} is negative, NaN or exceeds the "
                               f"certified maximum {rho_max}")
    diam = 2.0
    desc = {"kind": "bump", "rho": params.rho,
            "apex": {"layer1": params.apex.layer1.tolist(),
                     "layer2": params.apex.layer2.tolist()},
            "metric": metric.describe()}
    if params.rho == 0.0:
        return RatioResult(EstimateWithError(1.0, 0.0, "closed_form", 0, seed), diam, desc)

    bump, ball = (measures.ball_set(metric, center=params.apex, radius=params.rho),
                  measures.ball_set(metric))
    region, excess = _bump_region(metric, bump, ball, params, volume)
    extra = measures.difference(bump, ball, region)
    rel = measures.per_unit_ball(measures.mc_measure(extra, budget, seed), *volume)
    mc = EstimateWithError(1.0 + rel.value, rel.error, "monte_carlo", budget, seed)
    if excess is None:
        return RatioResult(mc, diam, desc)
    value = 1.0 + excess.value
    ratio = EstimateWithError(value, excess.error + 0.5 * math.ulp(value), excess.method)
    # mc's error is at least its rule-of-three bound, never 0 on a real draw
    pull = (rel.value - excess.value) / rel.error if rel.error > 0.0 else math.nan
    return RatioResult(ratio, diam, desc, excess, mc, pull)


def maximize_bump(metric, budget: int = 10**6, seed: int = 0) -> RatioResult:
    """Best certified bump ratio: one estimate at the certified maximum rho.

    For rho < rho', B(apex, rho) lies inside B(apex, rho'), so Haar(bump \\ B)
    never decreases with rho and the best certified ratio is at rho_max. The
    volume comes first, as in bump_ratio, so that no apex is built for a group
    too wide for it.
    """
    unit_ball_volume(metric)
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
