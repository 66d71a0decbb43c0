"""Group arithmetic for Heisenberg H^n and step-2 H-type groups.

Two coordinate models are used throughout the package:

* Heisenberg model: points are [z, t] with z in R^{2n}, t in R, and the
  product carries a factor-2 twist in the t component.
* H-type model: exponential coordinates (X, Z) with X in R^m, Z in R^k and
  a factor-1/2 bracket b(X, X')_i = <J_i X, X'>.

The two models of H^1 differ by a constant linear change of coordinates,
see :func:`h1_point_from_htype`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

J_STRUCTURE_TOL = 1e-12
HTYPE_SHAPE = "an H-type structure is k >= 1 square matrices of one size m >= 1"


class GroupError(ValueError):
    """Invalid group data: bad spec, dimension mismatch, bad parameter."""


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """Which group we are working on.

    kind is "heisenberg" (parameter n) or "htype" (J matrices defining the
    bracket). Q is the homogeneous dimension.
    """

    kind: str
    n: int = 0
    J: np.ndarray | None = None  # shape (k, m, m) for htype

    def __post_init__(self):
        if self.kind == "heisenberg":
            if self.n < 1:
                raise GroupError(f"Heisenberg needs n >= 1, got {self.n}")
        elif self.kind == "htype":
            if self.J is None:
                raise GroupError("htype spec needs J matrices")
            report = validate_htype(self.J)
            if not report.passed:
                raise GroupError(f"invalid H-type structure: {report}")
        else:
            raise GroupError(f"unknown group kind {self.kind!r}")

    @property
    def dim1(self) -> int:
        """Dimension of the first (horizontal) layer."""
        return 2 * self.n if self.kind == "heisenberg" else self.J.shape[1]

    @property
    def dim2(self) -> int:
        """Dimension of the second (vertical) layer."""
        return 1 if self.kind == "heisenberg" else self.J.shape[0]

    @property
    def Q(self) -> int:
        """Homogeneous dimension: dim V1 + 2 dim V2."""
        return self.dim1 + 2 * self.dim2

    @property
    def topological_dim(self) -> int:
        return self.dim1 + self.dim2

    def to_json(self) -> str:
        if self.kind == "heisenberg":
            doc = {"kind": "heisenberg", "n": self.n}
        else:
            k, m, _ = self.J.shape
            doc = {"kind": "htype", "m": m, "k": k,
                   "J": [Ji.reshape(-1).tolist() for Ji in self.J]}
        return json.dumps(doc, sort_keys=True)

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


def heisenberg(n: int) -> GroupSpec:
    return GroupSpec("heisenberg", n=n)


def h_type(J) -> GroupSpec:
    J = np.asarray(J, dtype=float)
    if J.ndim == 2:
        J = J[None, :, :]
    return GroupSpec("htype", J=J)


@dataclass(frozen=True)
class GroupPoint:
    """A group element split by layer.

    Heisenberg: layer1 = z (length 2n), layer2 = [t].
    H-type: layer1 = X (length m), layer2 = Z (length k).
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

    def close_to(self, other: "GroupPoint", tol: float = 1e-12) -> bool:
        return (np.allclose(self.layer1, other.layer1, atol=tol)
                and np.allclose(self.layer2, other.layer2, atol=tol))


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
    """Group product on coordinate arrays; returns (layer1, layer2)."""
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if spec.kind == "heisenberg":
        # t'' = t + t' + 2 sum_j (y_j x'_j - x_j y'_j) for z = [x, y], z' = [x', y']
        n = spec.n
        tw = 2.0 * (np.sum(a1[..., n:] * b1[..., :n], axis=-1)
                    - np.sum(a1[..., :n] * b1[..., n:], axis=-1))
        return a1 + b1, a2 + b2 + tw[..., None]
    # htype: Z'' = Z + Z' + 1/2 <J_i X, X'>
    bx = 0.5 * np.einsum("imj,...j,...m->...i", spec.J, a1, b1)
    return a1 + b1, a2 + b2 + bx


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
