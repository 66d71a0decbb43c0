"""Group arithmetic for step-2 Carnot groups, by one bracket law.

A point is (X, Z), X in R^m (layer 1) and Z in R^k (layer 2), and every group
here has the product

    (X, Z) (X', Z') = (X + X', Z + Z' + 1/2 <B_i X, X'>),  i = 1..k,

for skew matrices B_i (the spec's B, shape (k, m, m)). The Heisenberg group
H^n is B = 4 Omega on R^2n, Omega = [[0, I], [-I, 0]], so that with z = [x, y]
the layer-2 increment is 2 (y.x' - x.y'); H-type groups are B = J in
exponential coordinates. The two models of H^1 differ by a constant linear
change of coordinates, see :func:`h1_point_from_htype`.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

J_STRUCTURE_TOL = 1e-12
HTYPE_SHAPE = "an H-type structure is k >= 1 square matrices of one size m >= 1"


class GroupError(ValueError):
    """Invalid group data: bad spec, dimension mismatch, bad parameter."""


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """A step-2 group, given by its bracket matrices B of shape (dim2, dim1, dim1).

    The product is the module's one law, Z'' = Z + Z' + 1/2 <B_i X, X'>.
    beta is the bracket's scale, the maximum of |<B_Z X, X'>| over unit X, X'
    and Z, with B_Z = sum_i Z_i B_i: 4 on heisenberg(n), where B = 4 Omega, and
    1 on h_type(J), where B = J. Q is the homogeneous dimension. B is built on
    first use, so a spec of a group too wide to hold its m x m matrices still
    gives its dimensions and volumes.

    document and point_syntax are the coordinate model, for I/O alone: the
    JSON text of to_json, and (model, syntax, layer separator) of the CLI's
    points. Build specs with heisenberg, h_type or from_json.
    """

    dim1: int  # m, the dimension of the first (horizontal) layer
    dim2: int  # k, the dimension of the second (vertical) layer
    beta: float
    bracket: Callable[[], np.ndarray] = field(repr=False)  # makes B
    document: str = field(repr=False)
    point_syntax: tuple[str, str, str] = field(repr=False)

    @functools.cached_property
    def B(self) -> np.ndarray:
        """The bracket matrices, read-only, made once a spec."""
        B = self.bracket()
        B.flags.writeable = False
        return B

    @property
    def Q(self) -> int:
        """Homogeneous dimension: dim V1 + 2 dim V2."""
        return self.dim1 + 2 * self.dim2

    def to_json(self) -> str:
        return self.document

    @staticmethod
    def from_json(text: str) -> "GroupSpec":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise GroupError(f"group spec must be a JSON object, not {type(doc).__name__}")

        def entry(name, kind=int):
            if name not in doc:
                raise GroupError(f"group spec lacks the field {name!r}")
            v = doc[name]
            if kind is int and isinstance(v, float) and v.is_integer():
                v = int(v)
            if type(v) is not kind:  # refuses bool for int
                raise GroupError(f"group spec field {name!r} must be {kind.__name__}, not {v!r}")
            return v

        if doc.get("kind") == "heisenberg":
            return heisenberg(entry("n"))
        if doc.get("kind") == "htype":
            m, k, rows = entry("m"), entry("k"), entry("J", list)
            if min(k, m) < 1:  # numpy would read a negative m as "any size"
                raise GroupError(f"{HTYPE_SHAPE}, got shape {(k, m, m)}")
            try:
                J = np.array([np.asarray(row, dtype=float).reshape(m, m) for row in rows])
            except TypeError as exc:  # a row entry that is not a number
                raise GroupError(f"J rows must be lists of m * m = {m * m} numbers") from exc
            if J.shape != (k, m, m):
                raise GroupError("J matrices inconsistent with m, k")
            return h_type(J)
        raise GroupError(f"unknown group kind in JSON: {doc.get('kind')!r}")


def _four_omega(n: int) -> np.ndarray:
    B = np.zeros((1, 2 * n, 2 * n))
    i = np.arange(n)
    B[0, i, n + i], B[0, n + i, i] = 4.0, -4.0
    return B


def heisenberg(n: int) -> GroupSpec:
    """H^n in the coordinates [z, t] = [x, y, t]: B = 4 Omega, beta = 4."""
    if n < 1:
        raise GroupError(f"Heisenberg needs n >= 1, got {n}")
    return GroupSpec(2 * n, 1, 4.0, functools.partial(_four_omega, n),
                     json.dumps({"kind": "heisenberg", "n": n}, sort_keys=True),
                     ("Heisenberg", "[x1,...,x2n;t]", ";"))


def h_type(J) -> GroupSpec:
    """The H-type group of J in exponential coordinates (X, Z): B = J, beta = 1."""
    J = np.array(J, dtype=float)  # a copy: the caller may change theirs
    if J.ndim == 2:
        J = J[None, :, :]
    report = validate_htype(J)
    if not report.passed:
        raise GroupError(f"invalid H-type structure: {report}")
    k, m, _ = J.shape
    doc = {"kind": "htype", "m": m, "k": k, "J": [Ji.reshape(-1).tolist() for Ji in J]}
    return GroupSpec(m, k, 1.0, J.copy, json.dumps(doc, sort_keys=True),
                     ("H-type", "(x1,...|z1,...)", "|"))


@dataclass(frozen=True)
class GroupPoint:
    """A group element split by layer: layer1 = X (length m), layer2 = Z (length k).

    On H^n, X = z (length 2n) and Z = [t].
    """

    layer1: np.ndarray
    layer2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "layer1", np.atleast_1d(np.asarray(self.layer1, dtype=float)))
        object.__setattr__(self, "layer2", np.atleast_1d(np.asarray(self.layer2, dtype=float)))
        if not (np.all(np.isfinite(self.layer1)) and np.all(np.isfinite(self.layer2))):
            raise GroupError("point coordinates must be finite")

    @property
    def t(self) -> float:
        return float(self.layer2[0])


def point(layer1, layer2) -> GroupPoint:
    return GroupPoint(np.asarray(layer1, dtype=float), np.asarray(layer2, dtype=float))


def identity(spec: GroupSpec) -> GroupPoint:
    return GroupPoint(np.zeros(spec.dim1), np.zeros(spec.dim2))


def _check_dims(spec: GroupSpec, p: GroupPoint):
    if p.layer1.shape[-1] != spec.dim1 or p.layer2.shape[-1] != spec.dim2:
        raise GroupError(
            f"point dims ({p.layer1.shape[-1]}, {p.layer2.shape[-1]}) do not "
            f"match spec ({spec.dim1}, {spec.dim2})")


# ---------------------------------------------------------------------------
# vectorized kernels: layer arrays have shape (..., dim1) and (..., dim2)
# ---------------------------------------------------------------------------

def mul_arrays(spec: GroupSpec, a1, a2, b1, b2):
    """Group product on coordinate arrays, Z'' = Z + Z' + 1/2 <B_i X, X'>; returns (layer1, layer2)."""
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    return a1 + b1, a2 + b2 + 0.5 * np.einsum("imj,...j,...m->...i", spec.B, a1, b1)


def inv_arrays(spec: GroupSpec, l1, l2):
    return -np.asarray(l1, dtype=float), -np.asarray(l2, dtype=float)


def dilate_arrays(spec: GroupSpec, l1, l2, lam: float):
    if lam <= 0:
        raise GroupError(f"dilation factor must be positive, got {lam}")
    return lam * np.asarray(l1, dtype=float), lam * lam * np.asarray(l2, dtype=float)


# ---------------------------------------------------------------------------
# scalar operations on GroupPoints
# ---------------------------------------------------------------------------

def mul(spec: GroupSpec, p: GroupPoint, q: GroupPoint) -> GroupPoint:
    _check_dims(spec, p)
    _check_dims(spec, q)
    l1, l2 = mul_arrays(spec, p.layer1, p.layer2, q.layer1, q.layer2)
    return GroupPoint(l1, l2)


def inv(spec: GroupSpec, p: GroupPoint) -> GroupPoint:
    _check_dims(spec, p)
    l1, l2 = inv_arrays(spec, p.layer1, p.layer2)
    return GroupPoint(l1, l2)


def dilate(spec: GroupSpec, p: GroupPoint, lam: float) -> GroupPoint:
    _check_dims(spec, p)
    l1, l2 = dilate_arrays(spec, p.layer1, p.layer2, lam)
    return GroupPoint(l1, l2)


# ---------------------------------------------------------------------------
# H-type structure validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    passed: bool
    violations: dict = field(default_factory=dict)

    def __str__(self):
        worst = ", ".join(f"{k}={v:.3e}" for k, v in self.violations.items())
        return f"{'pass' if self.passed else 'FAIL'} ({worst})"


def validate_htype(J) -> ValidationReport:
    """Check skewness, J_i^2 = -Id and anticommutation of the J_i, to J_STRUCTURE_TOL."""
    J = np.asarray(J, dtype=float)
    if J.ndim == 2:
        J = J[None, :, :]
    if J.ndim != 3 or J.shape[1] != J.shape[2] or 0 in J.shape:
        raise GroupError(f"{HTYPE_SHAPE}, got shape {J.shape}")
    k, m, _ = J.shape
    eye = np.eye(m)
    skew = max(float(np.abs(Ji + Ji.T).max()) for Ji in J)
    square = max(float(np.abs(Ji @ Ji + eye).max()) for Ji in J)
    anti = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            anti = max(anti, float(np.abs(J[i] @ J[j] + J[j] @ J[i]).max()))
    violations = {"skew": skew, "square": square, "anticommute": anti}
    return ValidationReport(max(violations.values()) <= J_STRUCTURE_TOL, violations)


def standard_symplectic() -> np.ndarray:
    """J on R^2 with <J e1, e2> = 1; makes (m=2, k=1) a model of H^1."""
    return np.array([[0.0, -1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# coordinate change between the two H^1 models
# ---------------------------------------------------------------------------
#
# With J = standard_symplectic() the map (X, Z) -> [X, -4 Z] is a group
# isomorphism onto the Heisenberg model: the H-type t-increment
# (1/2)(x1 x2' - x2 x1') maps to -4 * that = 2 (x2 x1' - x1 x2'), the
# Heisenberg twist. Its Jacobian is constant, |det| = 4, which is the
# Haar-measure ratio between the two models.

H1_MODEL_JACOBIAN = 4.0


def h1_point_from_htype(p: GroupPoint) -> GroupPoint:
    """(X, Z) in the H-type model of H^1 -> [z, t] in the Heisenberg model."""
    return GroupPoint(p.layer1.copy(), -4.0 * p.layer2)


def h1_point_to_htype(p: GroupPoint) -> GroupPoint:
    """[z, t] in the Heisenberg model of H^1 -> (X, Z) in the H-type model."""
    return GroupPoint(p.layer1.copy(), -0.25 * p.layer2)
