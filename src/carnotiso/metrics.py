"""The three homogeneous distances: d_inf, gauge, Carnot-Caratheodory.

All metrics expose both a scalar interface on GroupPoints and vectorized
kernels on coordinate arrays (shape (..., dim1) / (..., dim2)); the heavy
Monte Carlo machinery in :mod:`carnotiso.measures` only uses the array
forms. Each metric's unit-ball volume rule lives here too, in
:func:`unit_ball_volume`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from . import groups, sampling
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

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True)
class CCInversionConfig:
    root_tolerance: float = 1e-12  # on the turning angle phi
    max_iterations: int = 200

    def __post_init__(self):
        if self.root_tolerance <= 0:
            raise MetricError("root_tolerance must be positive")


# ---------------------------------------------------------------------------
# the turning-angle profile mu(phi) = (2 phi - sin 2 phi) / (2 sin^2 phi)
#
# mu is strictly increasing from 0 to +inf on (0, pi); solving
# mu(phi) = |t| / |z|^2 recovers the turning angle of the geodesic from the
# identity to [z, t].
# ---------------------------------------------------------------------------

_MU_SERIES_CUT = 1e-4


def mu(phi):
    """Monotone profile (2 phi - sin 2 phi) / (2 sin^2 phi) on [0, pi)."""
    phi = np.asarray(phi, dtype=float)
    small = np.abs(phi) < _MU_SERIES_CUT
    any_small = small.any()
    phi_safe = np.where(small, 1.0, phi) if any_small else phi
    two_phi = 2.0 * phi_safe
    s = np.sin(phi_safe)
    main = (two_phi - np.sin(two_phi)) / (2.0 * s * s)
    if not any_small:
        return main
    # 2 phi - sin 2 phi cancels to O(phi^3) near 0; switch to the series
    # mu = (2/3) phi (1 + (2/15) phi^2 + ...)
    series = (2.0 / 3.0) * phi * (1.0 + (2.0 / 15.0) * phi * phi)
    return np.where(small, series, main)


def mu_prime(phi):
    """d mu / d phi = 2 - (2 phi - sin 2 phi) cos phi / sin^3 phi."""
    phi = np.asarray(phi, dtype=float)
    small = np.abs(phi) < _MU_SERIES_CUT
    any_small = small.any()
    phi_safe = np.where(small, 1.0, phi) if any_small else phi
    two_phi = 2.0 * phi_safe
    s = np.sin(phi_safe)
    main = 2.0 - (two_phi - np.sin(two_phi)) * np.cos(phi_safe) / s**3
    if not any_small:
        return main
    series = (2.0 / 3.0) * (1.0 + (2.0 / 5.0) * phi * phi)
    return np.where(small, series, main)


# upper end of the search bracket, just below the cut angle pi
_PHI_MAX = np.pi * (1.0 - 1e-14)

# starting guess phi = pi (1 - P(r)^(-1/2)) with the rational function
# P(r) = (1 + a1 r + a2 r^2 + a3 r^3 + a4 r^4) / (1 + b1 r + b2 r^2 + b3 r^3):
# a1 - b1 = 3/pi gives the small-ratio series phi ~ 1.5 r (mu ~ (2/3) phi),
# a4 / b3 = pi the large-ratio asymptote phi ~ pi - sqrt(pi / r)
# (mu ~ pi / (pi - phi)^2), and the rest is a minimax fit in between: the
# guess is off by at most 2.1e-4 in phi, and by that fraction of pi - phi
# near pi, so two Halley steps reach the tolerance for most ratios
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
    m = mu(phi)
    f = m - ratio
    np.copyto(lo, phi, where=f < 0)
    np.copyto(hi, phi, where=f > 0)
    m1 = mu_prime(phi)
    step = f / m1
    if halley:
        # mu' = 2 - 2 mu cot(phi) gives cot(phi) = (2 - mu') / (2 mu) and
        # mu'' / 2 = mu + cot(phi) (1 - 1.5 mu') with no further evaluation;
        # Halley divides the Newton step by 1 - step mu'' / (2 mu')
        with np.errstate(divide="ignore", invalid="ignore"):
            cot = (2.0 - m1) / (2.0 * m)
            damp = 1.0 - step * (m + cot * (1.0 - 1.5 * m1)) / m1
        step = np.where(damp > 0.5, step / damp, step)
    new = phi - step
    inside = new >= lo
    inside &= new <= hi  # False for inf and NaN too
    if not inside.all():
        bad = ~inside
        new[bad] = 0.5 * (lo[bad] + hi[bad])
    return new


def solve_turning(ratio, config: CCInversionConfig = CCInversionConfig()):
    """Solve mu(phi) = ratio for phi in [0, pi), elementwise.

    Starts from a closed-form guess (off by at most ~2e-4) and runs
    safeguarded Halley steps; an element has converged once its own step is
    at most config.root_tolerance * max(1, phi), and the working arrays drop
    the converged elements whenever they are a quarter of them or more
    (until then those ride along at the root). Three Newton passes over the
    whole array then polish the result. The roots stay below pi (1 - 1e-14):
    larger ratios, for points nearly on the center, get that end of the
    bracket, where the caller's sqrt(pi |t|) formula takes over smoothly.
    Raises ConvergenceError naming the elements that have not converged
    after config.max_iterations steps.
    """
    ratio = np.asarray(ratio, dtype=float)
    target = ratio.reshape(-1)
    n = target.size
    out_phi, out_lo, out_hi = np.empty(n), np.empty(n), np.empty(n)
    # working state of the elements still iterating; idx holds their slots
    idx = np.arange(n)
    phi = _turning_guess(target)
    lo = np.zeros(n)
    hi = np.full(n, _PHI_MAX)
    goal = target
    moving = np.ones(n, dtype=bool)
    for _ in range(config.max_iterations):
        new = _turning_step(phi, lo, hi, goal, halley=True)
        moving = ~(np.abs(new - phi) <= config.root_tolerance * np.maximum(1.0, new))
        phi = new
        if 4 * np.count_nonzero(moving) <= 3 * idx.size:
            done = ~moving
            slots = idx[done]
            out_phi[slots], out_lo[slots], out_hi[slots] = phi[done], lo[done], hi[done]
            idx, phi, lo, hi, goal = idx[moving], phi[moving], lo[moving], hi[moving], goal[moving]
            moving = moving[moving]
            if idx.size == 0:
                break
    if idx.size:
        # report only the elements whose last step was still too large
        bad = idx[moving]
        residuals = np.abs(mu(phi[moving]) - goal[moving])
        raise ConvergenceError(
            f"turning-angle solve: {bad.size} of {n} elements did not converge "
            f"within {config.max_iterations} iterations",
            residual=float(np.max(residuals)), indices=bad, residuals=residuals)
    # the map phi -> distance is ill-conditioned near phi = pi, so a
    # tolerance on phi alone is not enough there; quadratic convergence
    # makes these extra passes land on the machine-precision root
    phi = out_phi
    for _ in range(3):
        phi = _turning_step(phi, out_lo, out_hi, target, halley=False)
    return phi.reshape(ratio.shape)


def _phi_over_sin(phi):
    """phi / sin phi, with the value 1 at phi = 0."""
    phi = np.asarray(phi, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = phi / np.sin(phi)
    return np.where(phi == 0.0, 1.0, out)


# ---------------------------------------------------------------------------
# metric classes
# ---------------------------------------------------------------------------

class _HomogeneousMetric:
    """Shared plumbing: distances from the norm of inv(p) . q."""

    spec: GroupSpec

    def norm_arrays(self, l1, l2):  # pragma: no cover - interface
        raise NotImplementedError

    def norm(self, p: GroupPoint) -> float:
        return float(self.norm_arrays(p.layer1, p.layer2))

    def dist_arrays(self, a1, a2, b1, b2):
        i1, i2 = groups.inv_arrays(self.spec, a1, a2)
        d1, d2 = groups.mul_arrays(self.spec, i1, i2, b1, b2)
        return self.norm_arrays(d1, d2)

    def dist(self, p: GroupPoint, q: GroupPoint) -> float:
        return float(self.dist_arrays(p.layer1, p.layer2, q.layer1, q.layer2))

    def unit_ball_bbox(self):  # pragma: no cover - interface
        raise NotImplementedError


class DinfMetric(_HomogeneousMetric):
    """Layered max-norm distance: max(c1 |z|, c2 |t|^(1/2))."""

    def __init__(self, spec: GroupSpec, c1: float = 1.0, c2: float = 1.0):
        if c1 <= 0 or c2 <= 0:
            raise MetricError("d_inf coefficients must be positive")
        self.spec = spec
        self.c1 = float(c1)
        self.c2 = float(c2)

    def norm_arrays(self, l1, l2):
        l1 = np.asarray(l1, dtype=float)
        l2 = np.asarray(l2, dtype=float)
        n1 = np.linalg.norm(l1, axis=-1)
        n2 = np.linalg.norm(l2, axis=-1)
        return np.maximum(self.c1 * n1, self.c2 * np.sqrt(n2))

    def unit_ball_bbox(self):
        r1, r2 = 1.0 / self.c1, 1.0 / self.c2**2
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

    def norm_arrays(self, l1, l2):
        l1 = np.asarray(l1, dtype=float)
        l2 = np.asarray(l2, dtype=float)
        n1sq = np.sum(l1 * l1, axis=-1)
        n2sq = np.sum(l2 * l2, axis=-1)
        return (n1sq * n1sq + self.layer2_scale ** 2 * n2sq) ** 0.25

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
    """

    def __init__(self, spec: GroupSpec, config: CCInversionConfig | None = None):
        if spec.kind != "heisenberg":
            raise MetricError("CC distance is implemented for Heisenberg specs only")
        self.spec = spec
        self.config = config or CCInversionConfig()

    def norm_arrays(self, l1, l2):
        l1 = np.asarray(l1, dtype=float)
        l2 = np.asarray(l2, dtype=float)
        zn = np.linalg.norm(l1, axis=-1)
        t = np.abs(l2[..., 0])
        scalar = zn.ndim == 0
        zn = np.atleast_1d(zn)
        t = np.atleast_1d(t)
        out = np.sqrt(np.pi * t)  # center formula, also the z -> 0 limit
        off = zn > 0
        if np.any(off):
            ratio = t[off] / zn[off] ** 2
            # beyond this ratio phi is within ~1e-11 of pi and the center
            # formula is accurate to full precision
            huge = ratio > 1e22
            ratio_safe = np.where(huge, 1.0, ratio)
            try:
                phi = solve_turning(ratio_safe, self.config)
            except ConvergenceError as exc:
                exc.indices = np.flatnonzero(off)[exc.indices]  # name the caller's points
                raise
            d = zn[off] * _phi_over_sin(phi)
            out[off] = np.where(huge, out[off], d)
        return out[0] if scalar else out.reshape(np.shape(l2)[:-1])

    def unit_ball_bbox(self):
        # |z| <= 1 (phi -> 0); the height profile (2 phi - sin 2 phi)/(2 phi^2)
        # peaks at phi = pi/2 with value 2/pi, so |t| <= 2/pi (the center
        # point of the ball only reaches |t| = 1/pi)
        d1 = self.spec.dim1
        return (np.full(d1, -1.0), np.full(d1, 1.0),
                np.array([-2.0 / np.pi]), np.array([2.0 / np.pi]))

    def describe(self):
        return {"metric": "cc"}


def make_metric(spec: GroupSpec, doc: dict) -> _HomogeneousMetric:
    """Build a metric from its CLI/JSON description."""
    kind = doc.get("metric")
    if kind == "dinf":
        return DinfMetric(spec, doc.get("c1", 1.0), doc.get("c2", 1.0))
    if kind == "gauge":
        return GaugeMetric(spec)
    if kind == "cc":
        return CCMetric(spec)
    raise MetricError(f"unknown metric {kind!r}")


# ---------------------------------------------------------------------------
# d_inf coefficient validator (a sampler, not a proof)
# ---------------------------------------------------------------------------

@dataclass
class CoefficientReport:
    passed: bool
    worst_violation: float
    witness: tuple | None
    samples: int
    seed: int


def validate_dinf_coefficients(spec: GroupSpec, c1: float, c2: float,
                               sample_budget: int = 10**5, seed: int = 0,
                               tol: float = 1e-12) -> CoefficientReport:
    """Sample pairs and check subadditivity |p.q| <= |p| + |q| of the norm."""
    if sample_budget < 1:
        raise MetricError("sample budget must be >= 1")
    metric = DinfMetric(spec, c1, c2)

    def chunk(rng, count):
        a1 = rng.uniform(-1, 1, size=(count, spec.dim1))
        a2 = rng.uniform(-1, 1, size=(count, spec.dim2))
        b1 = rng.uniform(-1, 1, size=(count, spec.dim1))
        b2 = rng.uniform(-1, 1, size=(count, spec.dim2))
        p1, p2 = groups.mul_arrays(spec, a1, a2, b1, b2)
        viol = (metric.norm_arrays(p1, p2)
                - metric.norm_arrays(a1, a2) - metric.norm_arrays(b1, b2))
        i = int(np.argmax(viol))
        return float(viol[i]), (a1[i].copy(), a2[i].copy(), b1[i].copy(), b2[i].copy())

    worst = 0.0
    witness = None
    for viol, pair in sampling.map_chunks(seed, sample_budget, chunk):
        if viol > worst:
            worst, witness = viol, pair
    return CoefficientReport(passed=worst <= tol, worst_violation=worst,
                             witness=witness, samples=sample_budget, seed=seed)


# ---------------------------------------------------------------------------
# unit-ball volumes (Haar = Lebesgue in both coordinate models)
# ---------------------------------------------------------------------------

QUAD_LIMIT = 200  # subintervals scipy's quad may use for a volume integral


def alpha(m: int) -> float:
    """Lebesgue measure of the Euclidean unit ball in R^m."""
    if m < 0:
        raise ValueError("dimension must be nonnegative")
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


def cc_ball_integrand(phi, n: int):
    """Radial integrand of the CC unit-ball volume in H^n.

    (2 phi - sin 2 phi)/(2 phi^2) * (sin phi / phi)^(2n-1)
    * (sin phi - phi cos phi)/phi^2, extended by 0 at phi = 0.
    """
    phi = np.asarray(phi, dtype=float)
    small = np.abs(phi) < 1e-6
    p = np.where(small, 1.0, phi)
    s, c = np.sin(p), np.cos(p)
    f = ((2.0 * p - np.sin(2.0 * p)) / (2.0 * p * p)
         * (s / p) ** (2 * n - 1)
         * (s - p * c) / (p * p))
    # leading behaviour: (2/3) phi * 1 * phi/3 = (2/9) phi^2
    series = (2.0 / 9.0) * phi * phi
    out = np.where(small, series, f)
    return out if out.ndim else float(out)


def cc_volume_prefactor(n: int) -> float:
    """4 n alpha_{2n}: the CC unit-ball volume over the integral of cc_ball_integrand."""
    return 4.0 * n * alpha(2 * n)


def _checked_quad(what: str, pref: float, abs_tol: float, quad_result) -> tuple[float, float]:
    """(pref * integral, pref * error) from quad's (integral, error) pair.

    QuadratureError when the error exceeds abs_tol, relative to the integral
    once that exceeds 1; the check is on the integral, before its prefactor.
    """
    val, err = quad_result
    if err > abs_tol * max(1.0, val):
        raise QuadratureError(f"{what} ball quadrature did not reach the requested "
                              f"tolerance (achieved {err:g})", achieved=err)
    return pref * val, pref * err


def unit_ball_volume(metric: _HomogeneousMetric, abs_tol: float = 1e-12) -> tuple[float, float]:
    """(volume, error bound) of the metric's closed unit ball.

    d_inf is a closed form (error 0). The gauge and CC volumes are 1-D
    quadratures; abs_tol is the absolute tolerance of that integral, before
    its prefactor, and QuadratureError is raised when quad's own error
    estimate misses it.
    """
    spec = metric.spec
    if isinstance(metric, DinfMetric):
        m, k = spec.dim1, spec.dim2
        if spec.kind == "htype":  # layer-2 ball is a k-ball, not a segment
            return alpha(m) * alpha(k) / (metric.c1 ** m * metric.c2 ** (2 * k)), 0.0
        return 2.0 * alpha(m) / (metric.c1 ** m * metric.c2 ** 2), 0.0
    if isinstance(metric, GaugeMetric):
        m, k = spec.dim1, spec.dim2
        scale = metric.layer2_scale  # |Z| <= 1/scale on the unit ball
        # slicing over the layer-2 radius r gives
        #   alpha_m alpha_k * int_0^{1/scale} k r^(k-1) (1 - (scale r)^2)^(m/4) dr;
        # substituting u = (scale r)^2 turns the endpoint behaviour into the
        # algebraic weight u^(k/2-1) (1-u)^(m/4), which quad handles exactly
        pref = alpha(m) * alpha(k) * k / (2.0 * scale ** k)
        return _checked_quad("gauge", pref, abs_tol, integrate.quad(
            lambda u: 1.0, 0.0, 1.0, weight="alg", wvar=(k / 2.0 - 1.0, m / 4.0),
            epsabs=abs_tol, limit=QUAD_LIMIT))
    if isinstance(metric, CCMetric):
        n = spec.n
        return _checked_quad("CC", cc_volume_prefactor(n), abs_tol, integrate.quad(
            lambda p: cc_ball_integrand(p, n), 0.0, math.pi,
            epsabs=abs_tol, epsrel=0.0, limit=QUAD_LIMIT))
    raise MetricError(f"no volume rule for {type(metric).__name__}")
