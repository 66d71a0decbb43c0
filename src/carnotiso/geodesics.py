"""CC geodesic sphere parameterization, cut points, and cut-locus evidence.

The closed CC ball of radius r around the identity in H^n is the image of

    (chi, phi) -> [ r (sin phi / phi) chi , r^2 (2 phi - sin 2 phi)/(2 phi^2) |chi|^2 ]

with |chi| <= 1 and phi in [-pi, pi]. Geodesics of length r to the boundary
point with parameters (chi, phi) rotate their horizontal direction at a
constant rate; they stop minimizing exactly at |phi| = pi, on the center.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import groups, measures, sampling
from .groups import GroupError, GroupPoint, GroupSpec
from .metrics import KERNEL_REL, CCMetric, _heisenberg_model, _sphere_profile, _sum_squares


@dataclass(frozen=True)
class GeodesicParams:
    chi: np.ndarray  # unit direction in R^{2n}
    phi: float       # turning parameter in [-pi, pi]
    r: float         # length

    def __post_init__(self):
        object.__setattr__(self, "chi", np.asarray(self.chi, dtype=float))
        # negated comparisons, so that NaN fails them
        if not abs(np.linalg.norm(self.chi) - 1.0) <= 1e-12:
            raise GroupError("chi must be a finite unit vector")
        if not abs(self.phi) <= math.pi:
            raise GroupError("phi must be finite with |phi| <= pi")
        if not 0.0 < self.r < math.inf:
            raise GroupError("length r must be finite and positive")


def sphere_point_arrays(n: int, chi: np.ndarray, phi, r):
    """Vectorized sphere map; chi (..., 2n), phi and r broadcastable floats or arrays."""
    sinc, height = _sphere_profile(phi)
    z = (r * sinc)[..., None] * chi
    t = r * r * height * _sum_squares(chi)
    return z, t[..., None]


def cc_sphere_point(spec: GroupSpec, params: GeodesicParams) -> GroupPoint:
    """Endpoint of the geodesic with the given parameters; at CC distance r."""
    if not _heisenberg_model(spec):
        raise GroupError("CC sphere parameterization needs a Heisenberg spec")
    if params.chi.shape != (spec.dim1,):
        raise GroupError("chi dimension does not match the spec")
    z, t = sphere_point_arrays(spec.dim1 // 2, params.chi, params.phi, params.r)
    return GroupPoint(z, t)


def _rotate_pairs(n: int, chi: np.ndarray, theta):
    """Rotate each complex pair (x_j, x_{n+j}) by angle theta."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta)[..., None], np.sin(theta)[..., None]
    x, y = chi[..., :n], chi[..., n:]
    return np.concatenate([c * x - s * y, s * x + c * y], axis=-1)


def cc_geodesic_sample(spec: GroupSpec, params: GeodesicParams, s: float) -> GroupPoint:
    """Point at arc length s on the unit-speed geodesic to cc_sphere_point.

    The sub-arc of length s is itself a sphere point with turning
    phi * s / r and direction chi rotated by phi * (1 - s/r); the rotation
    angle and orientation are pinned down by the constant-speed check
    d(gamma(s), gamma(s')) = |s - s'|.
    """
    if not _heisenberg_model(spec):
        raise GroupError("CC geodesics need a Heisenberg spec")
    if not 0.0 <= s <= params.r:
        raise GroupError(f"arc length {s} outside [0, {params.r}]")
    if s == 0.0:
        return groups.identity(spec)
    frac = s / params.r
    n = spec.dim1 // 2
    chi_s = _rotate_pairs(n, params.chi, params.phi * (1.0 - frac))
    z, t = sphere_point_arrays(n, chi_s, params.phi * frac, s)
    return GroupPoint(z, t)


def cut_point(spec: GroupSpec, rho: float) -> GroupPoint:
    """First point where geodesics from the identity stop minimizing: [0, rho^2/pi]."""
    if not _heisenberg_model(spec):
        raise GroupError("cut points implemented for Heisenberg specs")
    if rho <= 0:
        raise GroupError("rho must be positive")
    return GroupPoint(np.zeros(spec.dim1), np.array([rho * rho / math.pi]))


@dataclass
class CutPointReport:
    """verify cc: max d(0, y) on B(cut_point, 1), sampled on its sphere, where dilations put it."""
    cut_point: GroupPoint
    sampled_max_roundtrip: float  # max d(0, y) over sampled y on the sphere of B(cut_point, 1)
    margin: float                 # 2 - sampled_max_roundtrip
    continuation_point: GroupPoint
    continuation_distance: float  # d(0, continuation_point), exactly 2
    samples: int
    seed: int

    def to_dict(self):
        return {
            "cut_point": {"z": self.cut_point.layer1.tolist(),
                          "t": self.cut_point.t},
            "sampled_max_roundtrip": self.sampled_max_roundtrip,
            "margin": self.margin,
            "continuation_point": {"z": self.continuation_point.layer1.tolist(),
                                   "t": self.continuation_point.t},
            "continuation_distance": self.continuation_distance,
            "samples": self.samples,
            "seed": self.seed,
        }


# the cut-ball cull's relative guard on M
CULL_GUARD = 1e-9
# cells of phi in [-pi, pi] of _sphere_row_bounds; a power of two, so that phi = 0 is a cell end
SPHERE_CELLS = 1 << 12
# _sphere_row_bounds widens each cell's box by this: relative on a = |z|^2, absolute on |t|
BOX_PAD = 1e-11


@functools.cache
def _sphere_row_bounds():
    """Upper bounds of a cut-ball row's norm, one per cell of phi, for _culled.

    A row of _cut_ball_blocks is y = x w, x the unit cut point, w the
    unit sphere point at turning phi in [-pi, pi], so its (a, t) is (sinc^2,
    T + 1/pi) and its norm F(phi) = N(sinc^2, T + 1/pi), with no n in it: one
    table serves every H^n. Cell k is phi in [e_k, e_k+1], e_k = -pi + k 2pi /
    SPHERE_CELLS; _culled's index floor((phi + pi) SPHERE_CELLS / 2pi) strays
    by under 3e-15 in phi, and so does e_k. Over the cell:

    * a = sinc^2 is monotone on each side of phi = 0, itself an end (where
      a = 1, its maximum), so a lies between the ends' values;
    * t = T + 1/pi is monotone off phi = +-pi/2, T being unimodal on [0, pi]
      and odd, so |t| lies below the larger end's |t|; on the cells whose ends
      come within 1e-12 of +-pi/2, below 3/pi, as T <= 2/pi;
    * N grows with |t| (d N^2 / d|t| is the point's turning angle), and at
      fixed t the ball's slice {|z| : N <= r} is an interval, T being unimodal
      in |z|; so N's max over the box [a_lo, a_hi] x [0, t_hi] is at one of
      (a_lo, t_hi) and (a_hi, t_hi).

    BOX_PAD widens the box before the corners are read, a by a relative 1e-11
    and |t| by an absolute 1e-11. That covers the rows' and the ends' rounding
    of a and t (a few ulp, a relative one on a), T's 1e-15, and the index's
    3e-15 in phi, which moves t by 3e-15 and a by a relative 4e-12 at most, next
    to phi = pi where a is smallest. The bound is the larger corner's kernel
    value, within KERNEL_REL of N there, times 1 + KERNEL_REL. So every row of
    cell k has N <= bound / (1 - KERNEL_REL), and a kernel value at most 1 +
    KERNEL_REL times that. One more entry repeats the last cell, for phi = pi,
    whose index may round to SPHERE_CELLS. Built once, in about 2 ms.
    """
    ends = np.arange(SPHERE_CELLS + 1) * (2.0 * math.pi / SPHERE_CELLS) - math.pi
    sinc, height = _sphere_profile(ends)
    a, t = sinc * sinc, np.abs(height + 1.0 / math.pi)
    a_lo = np.minimum(a[:-1], a[1:]) * (1.0 - BOX_PAD)
    a_hi = np.maximum(a[:-1], a[1:]) * (1.0 + BOX_PAD)
    t_hi = np.maximum(t[:-1], t[1:])
    for peak in (-0.5 * math.pi, 0.5 * math.pi):
        t_hi[(ends[:-1] - 1e-12 <= peak) & (peak <= ends[1:] + 1e-12)] = 3.0 / math.pi
    b = (t_hi + BOX_PAD) ** 2
    metric = CCMetric(groups.heisenberg(1))
    bound = np.maximum(metric.radial_norm(a_lo, b), metric.radial_norm(a_hi, b))
    bound *= 1.0 + KERNEL_REL
    bound = np.append(bound, bound[-1])
    bound.flags.writeable = False  # the cache shares it
    return bound


def _sphere_cells(phi):
    """_sphere_row_bounds' cell of each phi in [-pi, pi]: floor((phi + pi) SPHERE_CELLS / 2pi)."""
    k = phi + math.pi
    k *= SPHERE_CELLS / (2.0 * math.pi)
    return k.astype(np.intp)


def _culled(phi, best: float):
    """The turnings phi of cut-ball rows that may exceed best, in their order.

    Drop a row when its cell's _sphere_row_bounds entry is below best (1 - g),
    g = CULL_GUARD: its kernel value is at most the entry times (1 +
    KERNEL_REL) / (1 - KERNEL_REL), below best (1 - g) (1 + 3e-14) < best. So
    the max over the rest, joined with best, is the max over all. At best =
    sqrt(2) (1 - 1e-4) 0.1% of the rows are kept; any g up to 1e-6 keeps as few.
    """
    keep = np.take(_sphere_row_bounds(), _sphere_cells(phi)) >= best * (1.0 - CULL_GUARD)
    return phi[np.flatnonzero(keep)]


def _sphere_rows(phi):
    """(a, t) = (sinc^2, T + 1/pi) of the cut ball's rows at turnings phi, t a column."""
    sinc, height = _sphere_profile(phi)
    return sinc * sinc, (height + 1.0 / math.pi)[:, None]


def _cut_ball_blocks(rng, count: int):
    """Yield (a, t) blocks: seed rows, then count points of the cut ball's sphere less M's culls.

    The points are x w, x the unit cut point and w on the unit sphere, so they
    lie on the sphere of B(x, 1), where d(0, .) takes its max over that ball:
    d(0, delta_s y) = s d(0, y), so d(0, .) has no local maximum. A row is its
    turning phi alone, one double of strata_blocks' one stratum [-pi, pi], in
    row order, so no point depends on BLOCK. Every norm reads z through a =
    |z|^2 alone, and x is central, so x w has a = sinc(phi)^2 and t = T(phi) +
    1/pi: no direction is drawn and no n read, and the draw is the same on
    every H^n.

    The seed rows are the first block's rows whose _sphere_row_bounds entry
    is within 0.1% of the largest there, some forty of 2^14. Then come the
    blocks, the first included; send(M) before each drops the rows _culled
    proves have kernel norm <= M, before the sphere map, and a kept row has
    its bits of the full draw. With nothing sent, as in a for loop,
    every row is yielded, the seed's twice.
    """
    best, blocks = None, sampling.strata_blocks(rng, [count], [[-math.pi]], [[math.pi]])
    for i, (pts, _) in enumerate(blocks):
        phi = pts[:, 0]
        if i == 0:
            bound = np.take(_sphere_row_bounds(), _sphere_cells(phi))
            best = yield _sphere_rows(phi[np.flatnonzero(bound >= 0.999 * bound.max())])
        best = yield _sphere_rows(phi if best is None else _culled(phi, best))


def verify_assumption_C(spec: GroupSpec, sample_budget: int = 10**6,
                        seed: int = 0) -> CutPointReport:
    """Numerical evidence that geodesics stop minimizing at the cut point.

    With x the unit cut point, samples y on the sphere of the closed CC ball
    B(x, 1), where max d(0, y) over the ball lies (_cut_ball_blocks, no within
    needed), and reports margin = 2 - max d(0, y), the exact max of
    measures.sampled_max. That settles each chunk's seed rows and sends the
    running max M into the draw, which then skips the rows _culled proves
    cannot exceed M: the sphere map sees about 0.1% of every block, the first
    included, and the max keeps its bits. The max is the same on every H^n.
    By left invariance d(0, x w) = d(x^-1, w), so it is also the sampled
    reach of the bump apex x^-1 over the unit ball, proven to be sqrt(2) in
    isodiametric._apex_and_bound; apex_reach reports this same number. The
    geodesic continuation point [0, 4/pi] sits at distance exactly 2, but
    outside B(x, 1).
    """
    metric = CCMetric(spec)
    x = cut_point(spec, 1.0)
    cont = cut_point(spec, 2.0)  # [0, 4/pi]
    best = measures.sampled_max(metric, _cut_ball_blocks, sample_budget, seed)
    return CutPointReport(cut_point=x, sampled_max_roundtrip=best,
                          margin=2.0 - best, continuation_point=cont,
                          continuation_distance=metric.norm(cont),
                          samples=sample_budget, seed=seed)
