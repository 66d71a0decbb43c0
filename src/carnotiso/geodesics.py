"""CC geodesic sphere parameterization, cut points, and cut-locus evidence.

The closed CC ball of radius r around the identity in H^n is the image of

    (chi, phi) -> [ r (sin phi / phi) chi , r^2 (2 phi - sin 2 phi)/(2 phi^2) |chi|^2 ]

with |chi| <= 1 and phi in [-pi, pi]. Geodesics of length r to the boundary
point with parameters (chi, phi) rotate their horizontal direction at a
constant rate; they stop minimizing exactly at |phi| = pi, on the center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import groups, measures
from .groups import GroupError, GroupPoint, GroupSpec
from .metrics import CCMetric, _heisenberg_model, _sphere_profile, _sum_squares


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


def verify_assumption_C(spec: GroupSpec, sample_budget: int = 10**6,
                        seed: int = 0) -> CutPointReport:
    """Numerical evidence that geodesics stop minimizing at the cut point.

    With x the unit cut point, reports margin = 2 - max d(0, y) over the
    closed CC ball B(x, 1), measures.sampled_max's on its sphere: the same on
    every H^n. By left invariance d(0, x w) = d(x^-1, w), so it is also the
    sampled reach of the bump apex x^-1 over the unit ball (apex_reach),
    proven to be sqrt(2) in isodiametric._apex_and_bound. The geodesic
    continuation point [0, 4/pi] sits at distance exactly 2, outside B(x, 1).
    """
    metric = CCMetric(spec)
    x = cut_point(spec, 1.0)
    cont = cut_point(spec, 2.0)  # [0, 4/pi]
    best = measures.sampled_max(metric, x.t, sample_budget, seed)
    return CutPointReport(cut_point=x, sampled_max_roundtrip=best,
                          margin=2.0 - best, continuation_point=cont,
                          continuation_distance=metric.norm(cont),
                          samples=sample_budget, seed=seed)
