import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carnotiso as ci
from carnotiso.groups import (GroupError, H1_MODEL_JACOBIAN, h1_point_from_htype,
                              h1_point_to_htype, mul_arrays, standard_symplectic)
from conftest import close_to, quaternionic

H1 = ci.heisenberg(1)
H2 = ci.heisenberg(2)
HT = ci.h_type(standard_symplectic())

coord = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def rand_points(spec, count, seed):
    rng = np.random.default_rng(seed)
    return [ci.point(rng.uniform(-3, 3, spec.dim1), rng.uniform(-3, 3, spec.dim2))
            for _ in range(count)]


class TestSpec:
    def test_heisenberg_dims(self):
        assert H1.Q == 4 and H1.dim1 + H1.dim2 == 3
        assert H2.Q == 6 and H2.dim1 == 4

    def test_htype_dims(self):
        assert HT.Q == 4 and HT.dim1 == 2 and HT.dim2 == 1

    def test_bad_n(self):
        with pytest.raises(GroupError):
            ci.heisenberg(0)

    def test_bad_htype(self):
        with pytest.raises(GroupError):
            ci.h_type(np.eye(2))

    def test_brackets(self):
        # B = 4 Omega on H^n, B = J on an H-type group
        four_omega = np.zeros((1, 4, 4))
        four_omega[0, :2, 2:], four_omega[0, 2:, :2] = 4 * np.eye(2), -4 * np.eye(2)
        assert np.array_equal(H2.B, four_omega) and H2.beta == 4.0
        assert np.array_equal(HT.B, standard_symplectic()[None]) and HT.beta == 1.0
        assert not H2.B.flags.writeable

    def test_json_roundtrip(self):
        assert H1.to_json() == '{"kind": "heisenberg", "n": 1}'
        assert H2.to_json() == '{"kind": "heisenberg", "n": 2}'
        assert HT.to_json() == '{"J": [[0.0, -1.0, 1.0, 0.0]], "k": 1, "kind": "htype", "m": 2}'
        for spec in (H1, H2, HT, quaternionic()):
            back = ci.GroupSpec.from_json(spec.to_json())
            assert back.to_json() == spec.to_json()
            assert np.array_equal(back.B, spec.B) and back.beta == spec.beta
            assert back.Q == spec.Q and back.point_syntax == spec.point_syntax
        doc = json.loads(HT.to_json())
        assert doc["m"] == 2 and doc["k"] == 1


class TestHeisenbergLaw:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bracket_is_the_twist(self, n):
        # 1/2 <4 Omega z, z'> is the twist 2 (y.x' - x.y'): bitwise on H^1, to
        # 1e-15 |z| |z'| on H^2 and H^3, where the sum runs in another order
        spec = ci.heisenberg(n)
        rng = np.random.default_rng(n)
        a1, b1 = rng.uniform(-3, 3, (2, 10**4, 2 * n))
        a2, b2 = rng.uniform(-3, 3, (2, 10**4, 1))
        twist = 2.0 * (np.sum(a1[:, n:] * b1[:, :n], axis=-1)
                       - np.sum(a1[:, :n] * b1[:, n:], axis=-1))
        l1, l2 = mul_arrays(spec, a1, a2, b1, b2)
        assert np.array_equal(l1, a1 + b1)
        if n == 1:
            assert np.array_equal(l2, a2 + b2 + twist[:, None])
        _, bracket = mul_arrays(spec, a1, 0.0 * a2, b1, 0.0 * b2)
        scale = np.linalg.norm(a1, axis=-1) * np.linalg.norm(b1, axis=-1)
        assert np.all(np.abs(bracket[:, 0] - twist) <= 1e-15 * scale)

    def test_identity(self):
        p = ci.point([1.5, -0.5], [2.0])
        assert close_to(ci.mul(H1, ci.identity(H1), p), p)

    def test_inverse_cancels(self):
        p = ci.point([1.5, -0.5], [2.0])
        assert close_to(ci.mul(H1, p, ci.inv(H1, p)), ci.identity(H1))

    def test_hand_product(self):
        # x1 = 1 meets x'2 = 1: twist 2(x2 x'1 - x1 x'2) = -2
        p = ci.point([1, 0], [0])
        q = ci.point([0, 1], [0])
        assert close_to(ci.mul(H1, p, q), ci.point([1, 1], [-2]))

    def test_inverse_examples(self):
        assert close_to(ci.inv(H1, ci.identity(H1)), ci.identity(H1))
        assert close_to(ci.inv(H1, ci.point([1, 1], [-2])), ci.point([-1, -1], [2]))
        assert close_to(ci.inv(H1, ci.point([0, 0], [5])), ci.point([0, 0], [-5]))

    def test_associativity_random(self):
        pts = rand_points(H1, 3 * 1000, 1)
        for p, q, r in zip(pts[0::3], pts[1::3], pts[2::3]):
            a = ci.mul(H1, ci.mul(H1, p, q), r)
            b = ci.mul(H1, p, ci.mul(H1, q, r))
            assert close_to(a, b, tol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(GroupError):
            ci.mul(H1, ci.point([1, 0, 0, 0], [0]), ci.identity(H1))

    @given(st.lists(coord, min_size=2, max_size=2), st.lists(coord, min_size=2, max_size=2),
           coord, coord)
    @settings(max_examples=200, deadline=None)
    def test_inverse_law(self, z1, z2, t1, t2):
        p = ci.point(z1, [t1])
        q = ci.point(z2, [t2])
        pq = ci.mul(H1, p, q)
        back = ci.mul(H1, ci.inv(H1, q), ci.inv(H1, p))
        assert close_to(ci.mul(H1, pq, back), ci.identity(H1), tol=1e-9)


class TestHType:
    def test_identity(self):
        p = ci.point([0.3, 0.7], [0.1])
        assert close_to(ci.mul(HT, ci.identity(HT), p), p)

    def test_no_self_twist(self):
        p = ci.point([0.3, 0.7], [0.0])
        assert close_to(ci.mul(HT, p, p), ci.point([0.6, 1.4], [0.0]))

    def test_symplectic_bracket(self):
        e1 = ci.point([1, 0], [0])
        e2 = ci.point([0, 1], [0])
        assert close_to(ci.mul(HT, e1, e2), ci.point([1, 1], [0.5]))

    def test_associativity_random(self):
        pts = rand_points(HT, 3 * 1000, 2)
        for p, q, r in zip(pts[0::3], pts[1::3], pts[2::3]):
            a = ci.mul(HT, ci.mul(HT, p, q), r)
            b = ci.mul(HT, p, ci.mul(HT, q, r))
            assert close_to(a, b, tol=1e-10)


class TestDilations:
    def test_identity_factor(self):
        p = ci.point([2, 0], [4])
        assert close_to(ci.dilate(H1, p, 1.0), p)

    def test_direct_scaling(self):
        assert close_to(ci.dilate(H1, ci.point([2, 0], [4]), 0.5), ci.point([1, 0], [1]))

    def test_composition(self):
        p = ci.point([1.2, -0.7], [0.9])
        a = ci.dilate(H1, ci.dilate(H1, p, 2.0), 3.0)
        assert close_to(a, ci.dilate(H1, p, 6.0), tol=1e-12)

    def test_automorphism(self):
        rng = np.random.default_rng(3)
        for spec in (H1, HT):
            for _ in range(50):
                p, q = rand_points(spec, 2, int(rng.integers(1 << 30)))
                lam = float(rng.uniform(0.1, 10))
                a = ci.dilate(spec, ci.mul(spec, p, q), lam)
                b = ci.mul(spec, ci.dilate(spec, p, lam), ci.dilate(spec, q, lam))
                assert close_to(a, b, tol=1e-10 * max(1.0, lam * lam))

    def test_nonpositive_factor(self):
        with pytest.raises(GroupError):
            ci.dilate(H1, ci.identity(H1), 0.0)
        with pytest.raises(GroupError):
            ci.dilate(H1, ci.identity(H1), -2.0)


class TestValidateHtype:
    def test_symplectic_passes(self):
        assert ci.validate_htype(standard_symplectic()).passed

    def test_identity_fails(self):
        rep = ci.validate_htype(np.eye(2))
        assert not rep.passed
        assert rep.violations["skew"] > 1
        assert rep.violations["square"] > 1

    def test_quaternionic_triple(self):
        li = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], float)
        lj = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], float)
        lk = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], float)
        rep = ci.validate_htype(np.stack([li, lj, lk]))
        assert rep.passed
        spec = ci.h_type(np.stack([li, lj, lk]))
        assert spec.Q == 4 + 2 * 3

    def test_shape_errors(self):
        with pytest.raises(GroupError):
            ci.validate_htype(np.zeros((2, 3)))

    @pytest.mark.parametrize("shape", [(0, 2, 2), (1, 0, 0), (0, 0, 0)])
    def test_empty_structure_is_a_group_error(self, shape):
        # no matrix, or matrices of size 0: a GroupError naming the shape, not
        # numpy's or max()'s ValueError on an empty reduction
        for build in (ci.validate_htype, ci.h_type):
            with pytest.raises(GroupError, match=r"k >= 1 square matrices of one size m >= 1, "
                                                 rf"got shape \({shape[0]}, {shape[1]}, {shape[2]}\)"):
                build(np.zeros(shape))


class TestModelChange:
    def test_is_homomorphism(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = ci.point(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 1))
            q = ci.point(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 1))
            lhs = h1_point_from_htype(ci.mul(HT, p, q))
            rhs = ci.mul(H1, h1_point_from_htype(p), h1_point_from_htype(q))
            assert close_to(lhs, rhs, tol=1e-12)

    def test_roundtrip(self):
        p = ci.point([1.0, -2.0], [0.3])
        assert close_to(h1_point_to_htype(h1_point_from_htype(p)), p)

    def test_jacobian(self):
        # layer-2 coordinate scales by -4, layer-1 untouched
        assert H1_MODEL_JACOBIAN == 4.0
