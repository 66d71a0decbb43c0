"""Unit-ball volumes against 40-digit mpmath references.

The CC reference integrates the same profile as
``metrics.cc_ball_integrand`` with mpmath's tanh-sinh rule on eight pieces
of [0, pi]; the gauge reference is the Beta-function closed form
alpha_m alpha_k k / (2 s^k) B(k/2, m/4 + 1).
"""

import math

import mpmath as mp
import numpy as np
import pytest

import carnotiso as ci
from carnotiso.groups import standard_symplectic
from carnotiso.metrics import gauss_legendre
from conftest import quaternionic

DPS = 40


def cc_reference(n):
    with mp.workdps(DPS):
        def f(p):
            if p == 0:
                return mp.mpf(0)
            s, c = mp.sin(p), mp.cos(p)
            return ((2 * p - mp.sin(2 * p)) / (2 * p * p) * (s / p) ** (2 * n - 1)
                    * (s - p * c) / (p * p))

        integral = mp.quad(f, mp.linspace(0, mp.pi, 9))
        return 4 * n * mp.pi ** n / mp.factorial(n) * integral


def gauge_reference(m, k, scale):
    with mp.workdps(DPS):
        def alpha(d):
            return mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2 + 1)

        return (alpha(m) * alpha(k) * k / (2 * mp.mpf(scale) ** k)
                * mp.beta(mp.mpf(k) / 2, mp.mpf(m) / 4 + 1))


def rel_error(value, ref):
    return abs(float((mp.mpf(value) - ref) / ref))


@pytest.mark.parametrize("n", range(1, 10))
def test_cc_volume_small_n(n):
    value, error = ci.unit_ball_volume(ci.CCMetric(ci.heisenberg(n)))
    ref = cc_reference(n)
    assert rel_error(value, ref) <= 1e-15
    assert abs(float(mp.mpf(value) - ref)) <= error


@pytest.mark.parametrize("n", [50, 100, 170])
def test_cc_volume_large_n(n):
    value, _ = ci.unit_ball_volume(ci.CCMetric(ci.heisenberg(n)))
    assert rel_error(value, cc_reference(n)) <= 1e-14


@pytest.mark.parametrize("spec", [ci.heisenberg(1), ci.heisenberg(3),
                                  ci.h_type(standard_symplectic()), quaternionic()],
                         ids=["h1", "h3", "h1-htype", "quaternionic"])
def test_gauge_volume(spec):
    metric = ci.GaugeMetric(spec)
    value, error = ci.unit_ball_volume(metric)
    assert error == 0.0
    ref = gauge_reference(spec.dim1, spec.dim2, metric.layer2_scale)
    assert rel_error(value, ref) <= 1e-15


@pytest.mark.parametrize("n", [64, 128])
def test_gauss_legendre_rule(n):
    nodes, weights = gauss_legendre(n)
    assert np.all(np.diff(nodes) < 0) and 0.0 < nodes.min() and nodes.max() < math.pi
    assert np.all(weights > 0)
    assert not (nodes.flags.writeable or weights.flags.writeable)  # cached, shared
    # exact up to degree 2n - 1: sum w P_d(x) is pi for d = 0 and 0 for d = 1..2n-1
    x = 2.0 * nodes / math.pi - 1.0
    moments = weights @ np.polynomial.legendre.legvander(x, 2 * n - 1)
    assert moments[0] == pytest.approx(math.pi, rel=1e-15)
    assert np.max(np.abs(moments[1:])) < 1e-14
