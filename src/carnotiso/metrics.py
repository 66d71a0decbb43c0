"""The three homogeneous distances: d_inf, gauge, Carnot-Caratheodory.

Every metric has a scalar interface on GroupPoints and vectorized kernels on
coordinate arrays (shape (..., dim1) / (..., dim2)), which the Monte Carlo of
:mod:`carnotiso.measures` uses. All three norms depend on a point only
through a = |layer 1|^2 and b = |layer 2|^2 (layer_squares), so each metric's
array kernel is radial_norm(a, b), and its _radial_bounds(a, b, r) decides
most points of radial_norm(a, b) <= r without it; the one within and
radial_within of _HomogeneousMetric run the kernel on the rest. Each CC
profile has one kernel: mu and mu' in _mu_pair, the unit sphere's radius
sin phi / phi and half height T in _sphere_profile, for the sphere map, the
half-height table and the CC volume. The unit-ball volumes are in
:func:`unit_ball_volume`: closed forms for d_inf and gauge, and for CC a
fixed Gauss-Legendre rule on the turning angle.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from . import groups
from .groups import GroupPoint, GroupSpec


class MetricError(ValueError):
    """Metric / spec mismatch or bad metric parameters."""


class ConvergenceError(RuntimeError):
    """Numerical iteration failed to reach the requested tolerance.

    ``indices`` are the positions (in the flattened input) of the elements
    that did not converge and ``residuals`` their final residuals;
    ``residual`` is the worst of them.
    """

    def __init__(self, message, residual=None, indices=None, residuals=None):
        super().__init__(message)
        self.residual = residual
        self.indices = indices
        self.residuals = residuals


class QuadratureError(RuntimeError):
    """A volume quadrature missed its requested tolerance."""


# ---------------------------------------------------------------------------
# the turning-angle profile mu(phi) = (2 phi - sin 2 phi) / (2 sin^2 phi)
#
# mu is strictly increasing from 0 to +inf on (0, pi); solving
# mu(phi) = |t| / |z|^2 recovers the turning angle of the geodesic from the
# identity to [z, t].
# ---------------------------------------------------------------------------

# 2 phi - sin 2 phi cancels near 0, so below the cut mu is the series
# phi sum_k c_k phi^(2k), whose next term is 1.4e-17 relative at the cut
_MU_SERIES_CUT = 0.25
_MU_SERIES_Q = tuple(Fraction(*c) for c in (
    (2, 3), (4, 45), (4, 315), (8, 4725), (4, 18711), (5528, 212837625),
    (8, 2606175), (57872, 162820783125)))
_MU_SERIES = tuple(map(float, _MU_SERIES_Q))
_MU_PRIME_SERIES = tuple(float((2 * k + 1) * c) for k, c in enumerate(_MU_SERIES_Q))


def _mu_pair(phi):
    """(mu(phi), mu_prime(phi)) elementwise on any shape, from one sin phi, sin 2 phi, cos phi."""
    phi = np.asarray(phi, dtype=float)
    flat = phi.reshape(-1)
    small = np.abs(flat) < _MU_SERIES_CUT
    any_small = small.any()
    p = np.where(small, 1.0, flat) if any_small else flat
    s, a = np.sin(p), 2.0 * p - np.sin(2.0 * p)
    m, m1 = a / (2.0 * s ** 2), 2.0 - a * np.cos(p) / s ** 3
    if any_small:
        p = flat[small]
        u, acc, acc1 = p * p, 0.0, 0.0
        for c, c1 in zip(reversed(_MU_SERIES), reversed(_MU_PRIME_SERIES)):
            acc, acc1 = acc * u + c, acc1 * u + c1
        m[small], m1[small] = p * acc, acc1
    return m.reshape(phi.shape)[()], m1.reshape(phi.shape)[()]


def mu(phi):
    """Monotone profile (2 phi - sin 2 phi) / (2 sin^2 phi) on [0, pi)."""
    return _mu_pair(phi)[0]


def mu_prime(phi):
    """d mu / d phi = 2 - (2 phi - sin 2 phi) cos phi / sin^3 phi."""
    return _mu_pair(phi)[1]


# upper end of the search bracket, just below the cut angle pi
_PHI_MAX = np.pi * (1.0 - 1e-14)
# solve_turning's bound on its last step, relative to max(1, phi)
TURNING_ROOT_TOL = 1e-12

# starting guess phi = pi (1 - P(r)^(-1/2)) with the rational function
# P(r) = (1 + a1 r + a2 r^2 + a3 r^3 + a4 r^4) / (1 + b1 r + b2 r^2 + b3 r^3):
# a1 - b1 = 3/pi gives the small-ratio series phi ~ 1.5 r (mu ~ (2/3) phi),
# a4 / b3 = pi the large-ratio asymptote phi ~ pi - sqrt(pi / r)
# (mu ~ pi / (pi - phi)^2), and the rest is a minimax fit in between: the
# guess is off by at most 2.1e-4 in phi, and by that fraction of pi - phi
# near pi, so two Halley steps come within a few ulp of the root
_GUESS_A2, _GUESS_A3 = 2.133468735, 1.562750204
_GUESS_B1, _GUESS_B2, _GUESS_B3 = 0.8839231827, 0.6224864654, 0.1355458110
_GUESS_A1 = _GUESS_B1 + 3.0 / np.pi
_GUESS_A4 = np.pi * _GUESS_B3


def _turning_guess(ratio):
    """Closed-form approximation of the root of mu(phi) = ratio."""
    r = np.minimum(ratio, 1e30)  # beyond that the guess is pi anyway; no overflow
    p = ((1.0 + r * (_GUESS_A1 + r * (_GUESS_A2 + r * (_GUESS_A3 + r * _GUESS_A4))))
         / (1.0 + r * (_GUESS_B1 + r * (_GUESS_B2 + r * _GUESS_B3))))
    return np.minimum(np.pi * (1.0 - 1.0 / np.sqrt(p)), _PHI_MAX)


def _turning_step(phi, lo, hi, ratio, halley):
    """One safeguarded Newton (or Halley) step on mu(phi) = ratio.

    Shrinks the bracket [lo, hi] around the root, in place, and falls back
    to its midpoint whenever the step leaves it. Returns the new phi.
    """
    m, m1 = _mu_pair(phi)
    f = m - ratio
    np.copyto(lo, phi, where=f < 0)
    np.copyto(hi, phi, where=f > 0)
    step = f / m1
    if halley:
        # mu' = 2 - 2 mu cot(phi) gives cot(phi) = (2 - mu') / (2 mu) and
        # mu'' / 2 = mu + cot(phi) (1 - 1.5 mu') with no further evaluation;
        # Halley divides the Newton step by 1 - step mu'' / (2 mu')
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cot = (2.0 - m1) / (2.0 * m)
            damp = 1.0 - step * (m + cot * (1.0 - 1.5 * m1)) / m1
        step = np.where(damp > 0.5, step / damp, step)
    new = phi - step
    # the midpoint fallback is load-bearing: on 4e6 ratios (log-uniform on
    # [1e-3, 10^28.5] and uniform on [0, 2]) it fired in every step for all
    # 63,264 ratios >= 3.18e27, whose roots lie beyond _PHI_MAX, and in the
    # last Newton step for 2,513 more, from ratio 0.395 up; without it those
    # roots, and the norms read off them, move
    bad = ~((new >= lo) & (new <= hi))  # True for inf and NaN too
    if bad.any():
        new[bad] = 0.5 * (lo[bad] + hi[bad])
    return new


def solve_turning(ratio):
    """Solve mu(phi) = ratio for phi in [0, pi), elementwise.

    Every element takes one fixed schedule from the closed-form guess: two
    safeguarded Halley steps, then one Newton step, each on one fused mu, mu'
    pass; the Newton step lands on the machine-precision root even near pi.
    Roots stay below pi (1 - 1e-14), which ratios above mu(pi (1 - 1e-14)),
    about 3.1e27, return; the caller's center formula takes over at 1e28.
    ValueError unless every ratio is finite and >= 0; ConvergenceError naming
    the elements whose last step exceeds TURNING_ROOT_TOL * max(1, phi).
    """
    ratio = np.asarray(ratio, dtype=float)
    target = ratio.reshape(-1)
    if not np.all((target >= 0.0) & (target < np.inf)):  # False for NaN too
        raise ValueError("turning-angle ratios must be finite and >= 0")
    phi = _turning_guess(target)
    lo, hi = np.zeros(target.size), np.full(target.size, _PHI_MAX)
    for halley in (True, True, False):
        last = phi
        phi = _turning_step(phi, lo, hi, target, halley)
    bad = np.flatnonzero(~(np.abs(phi - last) <= TURNING_ROOT_TOL * np.maximum(1.0, phi)))
    if bad.size:
        residuals = np.abs(mu(phi[bad]) - target[bad])
        raise ConvergenceError(
            f"turning-angle solve: {bad.size} of {target.size} elements did not converge",
            residual=float(np.max(residuals)), indices=bad, residuals=residuals)
    return phi.reshape(ratio.shape)


# ---------------------------------------------------------------------------
# the CC unit sphere's profile, and its half height tabulated for CCMetric._radial_bounds
#
# The unit sphere is [s chi, T] with s = sin phi / phi and the half height
# T = mu(phi) s^2 = (2 phi - sin 2 phi) / (2 phi^2) = (1 - sinc 2 phi) / phi,
# phi in [0, pi]. In u = sqrt(1 - s), which grows with phi, dT/du =
# 4 u cos(phi) / phi: T rises from 0 at u = 0 to 2/pi at u = sqrt(1 - 2/pi)
# (phi = pi/2), then falls to 1/pi at u = 1. And 1 - s <= phi^2 / 6 gives
# u <= phi / sqrt(6), so |dT/du| <= 4 / sqrt(6) < 1.7.
# ---------------------------------------------------------------------------

PROFILE_CELLS = 1 << 12  # cells of u; a power of two, so u * PROFILE_CELLS is exact
# the margin on the scaled height in CCMetric._radial_bounds, where it is proven
PROFILE_EPS = 1e-9
# the relative guard band of the d_inf and gauge _radial_bounds, over 100 times their rounding
WITHIN_GUARD = 1e-12
# 1 - sin x / x cancels near 0, so below the cut it is the series
# x^2 sum_k (-1)^k x^(2k) / (2k + 3)!, whose next term is 1e-23 relative there
_SINC_SERIES_CUT = 0.5
_SINC_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(8))


def _sinc_series(x2):
    """S(x^2) = sum_k (-1)^k x^(2k) / (2k + 3)!, so that 1 - sin x / x = x^2 S(x^2)."""
    acc = 0.0
    for c in reversed(_SINC_SERIES):
        acc = acc * x2 + c
    return acc


def _one_minus_sinc(phi):
    """1 - sin phi / phi on [0, pi], to a few ulp."""
    p2 = phi * phi
    return np.where(phi < _SINC_SERIES_CUT, p2 * _sinc_series(p2), 1.0 - _sphere_profile(phi)[0])


def _sphere_profile(phi):
    """(sin phi / phi, T(phi)): the unit sphere's radius and half height at turning phi.

    One sine and one cosine a point, any shape: sinc = s / phi (1 at 0) and
    T = (1 - s c / phi) / phi, as s c / phi = sinc 2 phi; below |phi| =
    _SINC_SERIES_CUT / 2, where that cancels, T = 4 phi S(4 phi^2). sinc is even, T odd.
    """
    phi = np.asarray(phi, dtype=float)
    flat = phi.reshape(-1)
    s = np.sin(flat)
    with np.errstate(divide="ignore", invalid="ignore"):
        sinc, height = s / flat, (1.0 - s * np.cos(flat) / flat) / flat
    small = np.abs(flat) < 0.5 * _SINC_SERIES_CUT
    if small.any():
        p = flat[small]
        height[small] = 4.0 * p * _sinc_series(4.0 * p * p)
        sinc[small] = np.where(p == 0.0, 1.0, sinc[small])
    return sinc.reshape(phi.shape)[()], height.reshape(phi.shape)[()]


def _half_height(u):
    """The CC unit sphere's half height T at u = sqrt(1 - |z|), for u in (0, 1].

    Newton's method on sqrt(1 - sin phi / phi) = u from phi = sqrt(6) u
    (1 + (pi / sqrt(6) - 1) u^2), exact at both ends and within 4% between:
    the fifth step moves phi by rounding only. Then T = _sphere_profile(phi)[1],
    within 1e-15 of the true T at the float u (tested against mpmath).
    """
    phi = math.sqrt(6.0) * u * (1.0 + (math.pi / math.sqrt(6.0) - 1.0) * u * u)
    for _ in range(5):
        v = np.sqrt(_one_minus_sinc(phi))
        phi = phi - (v - u) * 2.0 * phi * phi * v / (np.sin(phi) - phi * np.cos(phi))
    return _sphere_profile(phi)[1]


@functools.cache
def _profile_bounds():
    """(low, high): bounds of the half height per cell of u, widened by PROFILE_EPS.

    Cell k is [k, k + 1] / PROFILE_CELLS. T is unimodal in u, so on a cell
    it lies between its values at the two ends, or up to 2/pi on the cells
    next to the peak. low is the smaller end less PROFILE_EPS, high the
    larger plus PROFILE_EPS. Cell 0 is (-inf, inf): the exact kernel decides
    u < 1 / PROFILE_CELLS. One more entry repeats the last cell, for u = 1
    (|z| = 0). Built once, in about 2 ms.
    """
    ends = _half_height(np.arange(1, PROFILE_CELLS + 1) / PROFILE_CELLS)
    low = np.minimum(ends[:-1], ends[1:]) - PROFILE_EPS
    high = np.maximum(ends[:-1], ends[1:]) + PROFILE_EPS
    peak = int(math.sqrt(1.0 - 2.0 / math.pi) * PROFILE_CELLS)
    high[peak - 2:peak + 1] = 2.0 / math.pi + PROFILE_EPS  # cells peak - 1 .. peak + 1
    low = np.concatenate([[-math.inf], low, low[-1:]])
    high = np.concatenate([[math.inf], high, high[-1:]])
    low.flags.writeable = high.flags.writeable = False  # the cache shares them
    return low, high


# ---------------------------------------------------------------------------
# metric classes
# ---------------------------------------------------------------------------

def _sum_squares(x):
    """|x|^2 over the last axis of x, bitwise np.sum(x * x, axis=-1).

    Below width 8 numpy's reduction adds the columns in sequence, and so does
    this loop, s = x0 x0; s += x1 x1; ..., a whole column at a time, where
    numpy pays per row on a last axis this narrow. From width 8 on numpy adds
    pairwise, so wider x goes to numpy itself. The squares are unscaled: the
    result is correct to rounding only while every nonzero coordinate has a
    normal square, about 1.5e-154 <= |x_i| <= 1.3e154. layer_squares squares
    both layers so for every array kernel, CC's |t| = sqrt(b) included. The
    scalar norm and dist dilate their points into that range first.
    """
    if x.shape[-1] >= 8:
        return np.sum(x * x, axis=-1)
    s = x[..., 0] * x[..., 0]
    for j in range(1, x.shape[-1]):
        c = x[..., j]
        s += c * c
    return s


def layer_squares(l1, l2):
    """(a, b) = (|l1|^2, |l2|^2) over the last axis: all a norm here reads of a point."""
    return _sum_squares(np.asarray(l1, dtype=float)), _sum_squares(np.asarray(l2, dtype=float))


def _scale_exponent(p: GroupPoint) -> int:
    """e with max(|layer1|, |layer2|^(1/2)) in [2^(e-1), 2^e); 0 at the identity."""
    return math.frexp(max(np.max(np.abs(p.layer1)), math.sqrt(np.max(np.abs(p.layer2)))))[1]


def _dilate(p: GroupPoint, e: int):
    """delta_{2^e} p, exact while the coordinates stay normal floats."""
    return np.ldexp(p.layer1, e), np.ldexp(p.layer2, 2 * e)


class _HomogeneousMetric:
    """Shared plumbing: the radial contract, and distances from the norm of inv(p) . q.

    A metric defines radial_norm(a, b), its elementwise array kernel on
    (a, b) = layer_squares(l1, l2), and _radial_bounds(a, b, r): the masks
    (inside, unsure) with radial_norm(a, b) <= r exactly where inside holds
    and unsure does not, or None where its thresholds at r are unsafe. The
    scalar interface dilates its points to O(1) by a power of two, which is
    exact, so that N(delta_s p) = s N(p) holds for tiny and huge coordinates.
    """

    spec: GroupSpec

    # perfbench's tracer patches norm_arrays by class, so each metric repeats
    # this line in its own namespace until the tracer is rewritten (ROADMAP 1)
    def norm_arrays(self, l1, l2):
        return self.radial_norm(*layer_squares(l1, l2))

    def within(self, l1, l2, r):
        """norm_arrays(l1, l2) <= r, the closed ball's mask, bit for bit: see radial_within."""
        return self.radial_within(*layer_squares(l1, l2), r)

    def radial_within(self, a, b, r):
        """radial_norm(a, b) <= r, bit for bit, with the kernel on the unsure points only.

        _radial_bounds decides the rest from a and b alone. A 0-d input, or a
        radius it declines, goes to radial_norm whole. Deciding from the
        kernel's own a and b, within inherits its coordinate range (_sum_squares).
        """
        r = float(r)
        bounds = self._radial_bounds(a, b, r) if np.ndim(a) else None
        if bounds is None:
            return self.radial_norm(a, b) <= r
        inside, unsure = bounds
        if unsure.any():  # radial_norm is elementwise: a subset keeps its bits
            inside[unsure] = self.radial_norm(a[unsure], b[unsure]) <= r
        return inside

    def norm(self, p: GroupPoint) -> float:
        e = _scale_exponent(p)
        return math.ldexp(float(self.norm_arrays(*_dilate(p, -e))), e)

    def dist_arrays(self, a1, a2, b1, b2):
        i1, i2 = groups.inv_arrays(self.spec, a1, a2)
        d1, d2 = groups.mul_arrays(self.spec, i1, i2, b1, b2)
        return self.norm_arrays(d1, d2)

    def dist(self, p: GroupPoint, q: GroupPoint) -> float:
        """OverflowError when the distance exceeds the float range."""
        e = max(_scale_exponent(p), _scale_exponent(q))
        i1, i2 = groups.inv_arrays(self.spec, *_dilate(p, -e))
        d1, d2 = groups.mul_arrays(self.spec, i1, i2, *_dilate(q, -e))
        return math.ldexp(self.norm(GroupPoint(d1, d2)), e)

    def unit_ball_bbox(self):  # pragma: no cover - interface
        raise NotImplementedError


class DinfMetric(_HomogeneousMetric):
    """Layered max-norm distance: max(c1 |z|, c2 |t|^(1/2)).

    A distance exactly for finite c1, c2 > 0 with w c2^2 <= 2 c1^2, where w = 2
    for the Heisenberg twist (c2 <= c1) and 1/2 for the H-type bracket
    (c2 <= 2 c1). Proof: with a = N(p), b = N(q), the layer-2 part of p.q is at
    most (a^2 + b^2) / c2^2 + w a b / c1^2 <= (a + b)^2 / c2^2. Sharp: |z| = 1/c1,
    t = 1/c2^2, z' = J z, t' = t give N(p) = N(q) = 1 < N(p.q) / 2 once it fails.
    A user @spec.json J is checked only to J_STRUCTURE_TOL, and so is the bound.
    """

    def __init__(self, spec: GroupSpec, c1: float = 1.0, c2: float = 1.0):
        c1, c2 = float(c1), float(c2)
        c2_max = 2.0 * c1 if spec.kind == "htype" else c1  # w c2^2 <= 2 c1^2
        # negated, so that NaN fails too
        if not (0.0 < c1 < math.inf and 0.0 < c2 <= c2_max and c2 < math.inf):
            raise MetricError(f"d_inf is a distance only for finite c1, c2 > 0 with c2 <= c1 "
                              f"(2 c1 on H-type groups), not c1 = {c1}, c2 = {c2}")
        self.spec = spec
        self.c1 = c1
        self.c2 = c2

    norm_arrays = _HomogeneousMetric.norm_arrays

    def radial_norm(self, a, b):
        return np.maximum(self.c1 * np.sqrt(a), self.c2 * np.sqrt(np.sqrt(b)))

    def _radial_bounds(self, a, b, r):
        """Guard-band masks: no root, and the kernel only within a relative 1e-12 of r.

        Inside when a = |z|^2 <= (r/c1)^2 (1 - g) and b = |t|^2 <= (r/c2)^4 (1 - g),
        g = WITHIN_GUARD; outside when a or b exceeds its threshold times 1 + g, or
        is NaN. The kernel rounds 3 times, the thresholds 5. None when r or a
        threshold leaves [1e-300, 1e300].
        """
        ra, rb = r / self.c1, r / self.c2
        ta, tb = ra * ra, (rb * rb) * (rb * rb)
        if not all(1e-300 <= x <= 1e300 for x in (r, ta, tb)):  # NaN too
            return None
        inside = (a <= ta * (1.0 - WITHIN_GUARD)) & (b <= tb * (1.0 - WITHIN_GUARD))
        unsure = (a <= ta * (1.0 + WITHIN_GUARD)) & (b <= tb * (1.0 + WITHIN_GUARD))
        return inside, unsure ^ inside

    def unit_ball_bbox(self):
        r1, r2 = 1.0 / self.c1, (1.0 / self.c2) ** 2
        d1, d2 = self.spec.dim1, self.spec.dim2
        return (np.full(d1, -r1), np.full(d1, r1),
                np.full(d2, -r2), np.full(d2, r2))

    def describe(self):
        return {"metric": "dinf", "c1": self.c1, "c2": self.c2}


class GaugeMetric(_HomogeneousMetric):
    """Gauge distance from the norm (|X|^4 + (s |Z|)^2)^(1/4), s = layer2_scale.

    Native home is an H-type spec in exponential coordinates, where s = 4;
    on a Heisenberg spec the same norm is carried over through the H^1
    model change t = -4 Z, giving s = 1 and (|z|^4 + t^2)^(1/4).
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        # a power of two, so scaling by it or by its inverse is exact
        self.layer2_scale = 4.0 if spec.kind == "htype" else 1.0

    norm_arrays = _HomogeneousMetric.norm_arrays

    def radial_norm(self, a, b):
        return (a * a + self.layer2_scale ** 2 * b) ** 0.25

    def _radial_bounds(self, a, b, r):
        """Guard-band masks: no 0.25 power, and the kernel only within a relative 1e-12 of r.

        Inside when the kernel's q = N^4 = a^2 + s^2 b <= r^4 (1 - g), g =
        WITHIN_GUARD; outside when q > r^4 (1 + g) or NaN. numpy's q ** 0.25 is
        within a few ulp. None when r^4 leaves [1e-300, 1e300].
        """
        t = (r * r) * (r * r)
        if not 1e-300 <= t <= 1e300:  # negated, so that NaN fails too
            return None
        q = a * a + self.layer2_scale ** 2 * b
        inside, unsure = q <= t * (1.0 - WITHIN_GUARD), q <= t * (1.0 + WITHIN_GUARD)
        return inside, unsure ^ inside

    def unit_ball_bbox(self):
        d1, d2 = self.spec.dim1, self.spec.dim2
        r2 = 1.0 / self.layer2_scale
        return (np.full(d1, -1.0), np.full(d1, 1.0),
                np.full(d2, -r2), np.full(d2, r2))

    def describe(self):
        return {"metric": "gauge"}


class CCMetric(_HomogeneousMetric):
    """Carnot-Caratheodory distance on H^n.

    After left translation write the difference as [z, t]. On the center
    (z = 0) the distance is sqrt(pi |t|); otherwise the turning angle phi
    solves mu(phi) = |t| / |z|^2 and the distance is |z| phi / sin phi.
    radial_norm is one pass over all points, with |z| = sqrt(a) and |t| =
    sqrt(b): it solves every ratio up to 1e28 (the rest, center and NaN
    included, at 0), takes one sine per point and picks |z| phi / sin phi up
    to ratio 1, phi (2 |t| / (2 phi - sin 2 phi))^(1/2) above, or
    sqrt(pi |t|): within 1e-14 relative of the exact norm. A NaN |z| or t
    gives NaN, which no ball holds. _radial_bounds decides all but a few
    points of radial_norm(a, b) <= r from the unit ball's tabulated half
    height; the Monte Carlo paths use it. distance, the scalar norm and the
    volume rule run the kernel, or their own quadrature, on every point.
    """

    def __init__(self, spec: GroupSpec):
        if spec.kind != "heisenberg":
            raise MetricError("CC distance is implemented for Heisenberg specs only")
        self.spec = spec

    norm_arrays = _HomogeneousMetric.norm_arrays

    def radial_norm(self, a, b):
        zn, t = np.sqrt(a), np.sqrt(b)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = t / zn ** 2
        # beyond this ratio the center formula's relative error, about
        # 1 / sqrt(pi ratio), is below 5.7e-15
        solved = ratio <= 1e28
        phi = solve_turning(np.where(solved, ratio, 0.0))
        # |z| phi / sin phi; but as phi nears pi, sin phi magnifies phi's
        # rounding, so there the same value phi (2 |t| / (2 phi - sin 2 phi))^(1/2)
        near = ratio <= 1.0
        s = np.sin(np.where(near, phi, 2.0 * phi))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(near, zn * np.where(phi == 0.0, 1.0, phi / s),
                           phi * np.sqrt(2.0 * t / (2.0 * phi - s)))
        return np.where(solved, out, np.where(np.isnan(zn), zn, np.sqrt(np.pi * t)))[()]

    def _radial_bounds(self, a, b, r):
        """Half-height-table masks: the kernel only next to the sphere.

        The rule: N(z, t) <= r exactly when |z| <= r and |t| <= r^2 T(|z| / r),
        T the unit sphere's half height (_half_height). From the kernel's own
        |z| = sqrt(a) and |t| = sqrt(b) take x = |z| / r, y = |t| / r^2 (to 3
        ulp), u = sqrt(1 - x) and its cell k = floor(u PROFILE_CELLS) of
        _profile_bounds. Let N* be the exact norm there; radial_norm is within
        1e-14 of it, so where N* is below r (1 - kappa) or above r (1 + kappa),
        kappa = 2e-14, the kernel decides as N* does. The table decides three cases:

        * x > 1 + PROFILE_EPS: N* >= |z| > r (1 + kappa), outside.
        * k >= 1 and y <= low[k]: inside. By homogeneity N* <= r (1 - kappa)
          when s' = x* / (1 - kappa) <= 1 and y* / (1 - kappa)^2 <= T(s'), x*
          and y* the exact ratios. s' is within 3e-14 of x, and u >= 1 /
          PROFILE_CELLS, so sqrt(1 - s') is within 3e-14 / u + 2 ulp < 1.3e-10
          of u; T is 1.7-Lipschitz in u, so T(s') >= low[k] + PROFILE_EPS
          - 1e-15 (node error) - 2.2e-10 > y + 1.3e-13 >= y* / (1 - kappa)^2.
        * k >= 1 and y >= high[k]: outside, by the same steps with 1 + kappa.

        PROFILE_EPS = 1e-9 is thus four times the sum it must exceed. Every
        other point is unsure: those within about one cell of the sphere's
        height, u < 1 / PROFILE_CELLS (|z| within 6e-8 r of r), and NaN; that
        is about 50 of the 2^17 points of the CC bump box. None for r outside
        [1e-100, 1e100], where r^2 may leave the normal range.
        """
        if not 1e-100 <= r <= 1e100:  # negated, so that NaN fails too
            return None
        low, high = _profile_bounds()
        x = np.sqrt(a) * (1.0 / r)
        y = np.sqrt(b) * (1.0 / (r * r))
        u = np.fmax(1.0 - x, 0.0)  # fmax: NaN -> 0, and cell 0
        np.sqrt(u, out=u)
        u *= PROFILE_CELLS
        k = u.astype(np.intp)
        # the bounds reuse u's buffer: fewer block temporaries, fewer heap trims
        bound = np.take(low, k, out=u, mode="clip")  # clip never binds; out is unbuffered
        inside = y <= bound
        unsure = y > bound
        unsure &= y < np.take(high, k, out=bound, mode="clip")
        unsure &= ~(x > 1.0 + PROFILE_EPS)  # NaN |z| too
        return inside, unsure

    def unit_ball_bbox(self):
        # |z| <= 1 (phi -> 0); the half height T peaks at phi = pi/2 with value
        # 2/pi, so |t| <= 2/pi (the center point of the ball only reaches 1/pi)
        d1 = self.spec.dim1
        return (np.full(d1, -1.0), np.full(d1, 1.0),
                np.array([-2.0 / np.pi]), np.array([2.0 / np.pi]))

    def describe(self):
        return {"metric": "cc"}


def make_metric(spec: GroupSpec, doc: dict) -> _HomogeneousMetric:
    """Build a metric from its CLI/JSON description.

    c1 and c2 (absent or None: 1.0) belong to d_inf; other metrics refuse them.
    """
    kind = doc.get("metric")
    c1, c2 = doc.get("c1"), doc.get("c2")
    if kind == "dinf":
        return DinfMetric(spec, 1.0 if c1 is None else c1, 1.0 if c2 is None else c2)
    if c1 is not None or c2 is not None:
        raise MetricError(f"c1 and c2 are d_inf coefficients; metric {kind!r} takes none")
    if kind == "gauge":
        return GaugeMetric(spec)
    if kind == "cc":
        return CCMetric(spec)
    raise MetricError(f"unknown metric {kind!r}")


# ---------------------------------------------------------------------------
# unit-ball volumes (Haar = Lebesgue in both coordinate models)
# ---------------------------------------------------------------------------

def alpha(m: int) -> float:
    """Lebesgue measure of the Euclidean unit ball in R^m."""
    if m < 0:
        raise ValueError("dimension must be nonnegative")
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


def layer2_ball(spec: GroupSpec, s: float) -> float:
    """Measure of {|Z| <= s^2}: a k-ball, or on H^n a segment (2.0, as alpha(1) < 2)."""
    k = spec.dim2
    return alpha(k) * s ** (2 * k) if spec.kind == "htype" else 2.0 * s ** 2


def cc_ball_integrand(phi, n: int):
    """Radial integrand T sinc^(2n-1) (sinc - cos phi) / phi of the CC unit-ball volume in H^n.

    (sinc, T) = _sphere_profile(phi). Below phi = 1e-4, under every volume node, the
    last factor (about phi / 3) has lost half its digits, so there it is h sinc(h)^2
    - T(h) / 2 at h = phi / 2: 1 - cos phi = 2 h^2 sinc(h)^2, 1 - sinc phi = h T(h).
    """
    phi = np.asarray(phi, dtype=float)
    sinc, height = _sphere_profile(phi)
    half_sinc, half_height = _sphere_profile(0.5 * phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(np.abs(phi) < 1e-4, 0.5 * phi * half_sinc ** 2 - 0.5 * half_height,
                         (sinc - np.cos(phi)) / phi)
    out = height * sinc ** (2 * n - 1) * slope
    return out if out.ndim else float(out)


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, pi].

    Newton steps on P_n(x) = 0, with P_n from the three-term recurrence; from
    this guess the sixth step moves a node by rounding only.
    """
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(6):
        p_prev, p = np.ones(n), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        slope = n * (p_prev - x * p) / (1.0 - x * x)  # P_n'(x)
        x = x - p / slope
    # [-1, 1] -> [0, pi]; the weight on [-1, 1] is 2 / ((1 - x^2) P_n'(x)^2)
    nodes, weights = 0.5 * np.pi * (1.0 + x), np.pi / ((1.0 - x * x) * slope ** 2)
    nodes.flags.writeable = weights.flags.writeable = False  # the cache shares them
    return nodes, weights


def unit_ball_volume(metric: _HomogeneousMetric) -> tuple[float, float]:
    """(volume, error bound) of the metric's closed unit ball.

    d_inf and gauge are closed forms (error 0). CC is the 128-node
    Gauss-Legendre value of its profile integral, with error
    max(|G128 - G64|, 50 eps int |f|). For n = 1..170 that error stays below
    2e-14 relative, so the self-check, QuadratureError if it exceeds 1e-12
    (relative once the integral exceeds 1), guards the rule, not an input.
    FloatingPointError unless the volume is a normal float, as for tiny or
    huge d_inf coefficients: every ratio divides by it.
    """
    spec = metric.spec
    m, k = spec.dim1, spec.dim2
    if isinstance(metric, DinfMetric):
        # powers of the radii: a power of a tiny c underflows to a 0 divisor
        vol, err = alpha(m) * (1.0 / metric.c1) ** m * layer2_ball(spec, 1.0 / metric.c2), 0.0
    elif isinstance(metric, GaugeMetric):
        scale = metric.layer2_scale  # |Z| <= 1/scale on the unit ball
        # slicing over the layer-2 radius r, then u = (scale r)^2, gives
        # alpha_m alpha_k k/(2 scale^k) B(k/2, m/4 + 1) with the Beta function B,
        # and alpha_k (k/2) Gamma(k/2) = pi^(k/2) leaves one Gamma ratio
        vol, err = (alpha(m) * math.pi ** (k / 2.0) * math.gamma(m / 4.0 + 1.0)
                    / (scale ** k * math.gamma(k / 2.0 + m / 4.0 + 1.0))), 0.0
    elif isinstance(metric, CCMetric):
        coarse, fine = (w * cc_ball_integrand(phi, spec.n)
                        for phi, w in map(gauss_legendre, (64, 128)))
        val = float(fine.sum())
        # the floor is QUADPACK's round-off estimate
        err = max(abs(val - coarse.sum()), 50.0 * np.finfo(float).eps * np.abs(fine).sum())
        if err > 1e-12 * max(1.0, val):
            raise QuadratureError(f"CC ball quadrature missed the tolerance (achieved {err:g})")
        pref = 4.0 * spec.n * alpha(2 * spec.n)  # volume = pref * int_0^pi f
        vol, err = pref * val, float(pref * err)
    else:
        raise MetricError(f"no volume rule for {type(metric).__name__}")
    if not np.finfo(float).tiny <= vol < math.inf:  # negated, so that NaN fails too
        side = "overflow" if vol > 1.0 else "underflow"
        raise FloatingPointError(f"{side}: the unit-ball volume {vol!r} is not a normal float")
    return vol, err
