"""Tangent-space kernel for the circulant geometry.

Everything lives in one fixed 3-dimensional coordinate system. The two basic
objects are the cyclic coordinate shift (a permutation whose third power is
the identity) and a positive definite circulant metric g = circ(a, b, b).
The shift is an isometry of every such g, and together they induce an
indefinite symmetric bilinear form f(u, v) = g(u, qv) + g(qu, v) that splits
nonzero vectors into spacelike, null and timelike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "GeometryError",
    "ZeroVectorError",
    "InvalidMetricError",
    "DegenerateAngleError",
    "AngleDomainError",
    "BadSampleCountsError",
    "InvariantViolation",
    "CausalCharacter",
    "CirculantMetric",
    "ToleranceConfig",
    "DEFAULT_TOLERANCES",
    "as_vector",
    "fmt_float",
    "q_apply",
    "g_inner",
    "g_norm",
    "cos_phi",
    "clamp_cos",
    "phi_angle",
    "f_inner",
    "causal_character",
    "CHARACTER_BY_CODE",
    "CODE_ZERO_VECTOR",
    "CODE_NON_FINITE",
    "classify_many",
]


class GeometryError(ValueError):
    """Base class for domain errors raised by this package."""


class ZeroVectorError(GeometryError):
    """A nonzero tangent vector was required."""


class InvalidMetricError(GeometryError):
    """Metric coefficients do not define a positive definite circulant form."""


class DegenerateAngleError(GeometryError):
    """The vector and its shift are parallel, so they span no 2-plane."""


class AngleDomainError(GeometryError):
    """Angle outside the admissible interval for the shift-plane geometry."""


class BadSampleCountsError(GeometryError):
    """Surface sampling needs at least 2 profile rows and 3 angular columns."""


class InvariantViolation(RuntimeError):
    """An internally guaranteed numerical invariant failed by more than its band."""


class CausalCharacter(Enum):
    """Trichotomy of a nonzero vector by the sign of f(u, u)."""

    SPACELIKE = "spacelike"
    NULL = "null"
    TIMELIKE = "timelike"


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical bands: eps_null for sign/null tests, eps_angle for angle boundaries."""

    eps_null: float = 1e-9
    eps_angle: float = 1e-9

    def __post_init__(self):
        for name in ("eps_null", "eps_angle"):
            val = getattr(self, name)
            if not (0.0 < val < 1e-3):
                raise GeometryError(f"{name} must lie in (0, 1e-3), got {val!r}")


DEFAULT_TOLERANCES = ToleranceConfig()


@dataclass(frozen=True)
class CirculantMetric:
    """Positive definite metric circ(a, b, b): diagonal a, off-diagonal b.

    The eigenvalues of circ(a, b, b) are a + 2b (once) and a - b (twice), so
    positive definiteness is exactly a + 2b > 0 and a - b > 0; a > 0 follows
    but is checked too since it guards against swapped arguments.
    """

    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidMetricError("metric coefficients must be finite")
        if self.a <= 0.0 or self.a - self.b <= 0.0 or self.a + 2.0 * self.b <= 0.0:
            raise InvalidMetricError(
                f"circ({self.a}, {self.b}, {self.b}) is not positive definite: "
                "requires a > 0, a - b > 0 and a + 2b > 0"
            )


def as_vector(u) -> np.ndarray:
    """Coerce to a finite float 3-vector."""
    v = np.asarray(u, dtype=float)
    if v.shape != (3,):
        raise GeometryError(f"expected a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise GeometryError("vector components must be finite")
    return v


def fmt_float(x: float) -> str:
    """Shortest decimal that parses back to the same float; integral values print bare."""
    v = float(x)
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _shift(v: np.ndarray) -> np.ndarray:
    return np.array([v[1], v[2], v[0]])


def _g(m: CirculantMetric, u: np.ndarray, v: np.ndarray) -> float:
    return (m.a - m.b) * float(u @ v) + m.b * float(u.sum()) * float(v.sum())


def _cos_phi(m: CirculantMetric, v: np.ndarray) -> float:
    denom = _g(m, v, v)
    if denom == 0.0:
        raise ZeroVectorError("cos_phi is undefined for the zero vector")
    return _g(m, v, _shift(v)) / denom


def _f(m: CirculantMetric, u: np.ndarray, v: np.ndarray) -> float:
    return _g(m, u, _shift(v)) + _g(m, _shift(u), v)


def q_apply(u) -> np.ndarray:
    """Cyclic shift (x, y, z) -> (y, z, x). Applying it three times is the identity."""
    return _shift(as_vector(u))


def g_inner(m: CirculantMetric, u, v) -> float:
    """Inner product under circ(a, b, b).

    Uses the rank-one split circ(a, b, b) = (a - b) I + b J, J the all-ones
    matrix, so the metric is never materialized as a dense matrix.
    """
    return _g(m, as_vector(u), as_vector(v))


def g_norm(m: CirculantMetric, u) -> float:
    """Norm sqrt(g(u, u)); zero only for the zero vector."""
    v = as_vector(u)
    return math.sqrt(max(0.0, _g(m, v, v)))


def cos_phi(m: CirculantMetric, u) -> float:
    """Cosine of the angle between u and its shift: g(u, qu) / g(u, u).

    The value lies in [-1/2, 1] up to rounding for every valid metric.
    """
    return _cos_phi(m, as_vector(u))


def clamp_cos(c: float, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Clamp a shift-angle cosine into [-1/2, 1] before any arccos.

    Values outside the interval by more than eps_angle are not rounding noise
    and indicate a broken caller, so they raise instead of clamping silently.
    NaN lies in no interval and raises too.
    """
    if not -0.5 - tol.eps_angle <= c <= 1.0 + tol.eps_angle:
        raise InvariantViolation(
            f"shift-angle cosine {c!r} outside [-1/2, 1] by more than eps_angle"
        )
    return min(1.0, max(-0.5, c))


def phi_angle(m: CirculantMetric, u, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Angle between u and its shift, in radians, in [0, 2*pi/3]."""
    return math.acos(clamp_cos(_cos_phi(m, as_vector(u)), tol))


def f_inner(m: CirculantMetric, u, v) -> float:
    """Associated indefinite form f(u, v) = g(u, qv) + g(qu, v).

    Symmetric, bilinear, and shift-invariant: f(qu, qv) = f(u, v). On the
    diagonal f(u, u) = 2 g(u, qu) = 2 g(u, u) cos_phi(u).
    """
    return _f(m, as_vector(u), as_vector(v))


def causal_character(
    m: CirculantMetric, u, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> CausalCharacter:
    """Classify a nonzero vector by the sign of f(u, u).

    The null band is relative: |f(u, u)| <= eps_null * 2 g(u, u), which by
    f(u, u) = 2 g(u, u) cos_phi(u) is the scale-free test |cos_phi| <= eps_null.
    Spacelike above the band, timelike below. The shift preserves the result.
    """
    v = as_vector(u)
    norm_sq = _g(m, v, v)
    if norm_sq == 0.0:
        raise ZeroVectorError("causal character is undefined for the zero vector")
    f_uu = _f(m, v, v)
    if abs(f_uu) <= tol.eps_null * 2.0 * norm_sq:
        return CausalCharacter.NULL
    return CausalCharacter.SPACELIKE if f_uu > 0.0 else CausalCharacter.TIMELIKE


# Character codes of classify_many: 0, 1, 2 index CHARACTER_BY_CODE, and two
# more codes mark the rows that have no character.
CHARACTER_BY_CODE = (CausalCharacter.SPACELIKE, CausalCharacter.NULL, CausalCharacter.TIMELIKE)
CODE_ZERO_VECTOR = 3
CODE_NON_FINITE = 4


def classify_many(
    m: CirculantMetric, rows, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify every row of an (N, 3) array: (cos_phi, code, f_uu), each of length N.

    code indexes CHARACTER_BY_CODE, or is CODE_ZERO_VECTOR or CODE_NON_FINITE
    for rows that have no character; cos_phi and f_uu are nan on those rows.
    The decision is causal_character's: null when |f(u, u)| <= eps_null *
    2 g(u, u), else the sign of f(u, u). Each row is first divided by the
    power of two of its largest component (Blue's overflow-safe scaling), and
    the metric by that of a. Both divisions are exact, so products neither
    overflow nor underflow, and cos_phi and the code depend on neither scale.
    f_uu is scaled back and reads inf or 0 where the true value leaves the
    float range. Raises InvariantViolation if a cosine lies outside [-1/2, 1]
    by more than eps_angle, as clamp_cos does.
    """
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2 or x.shape[1] != 3:
        raise GeometryError(f"expected an (N, 3) array of vectors, got shape {x.shape}")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        x = np.where(finite[:, None], x, 0.0)
    _, exponent = np.frexp(np.abs(x).max(axis=1, initial=0.0))
    u = np.ldexp(x, -exponent[:, None])
    qu = u[:, [1, 2, 0]]
    # The sums in the order (x + y) + z and np.vecdot, which calls the same
    # dot as the scalar path's u @ v, keep every result bit for bit equal to
    # the scalar functions' wherever those neither overflow nor underflow.
    s_u = (u[:, 0] + u[:, 1]) + u[:, 2]
    s_qu = (qu[:, 0] + qu[:, 1]) + qu[:, 2]
    # a > |b| for every valid metric, so a sets the metric's scale.
    _, metric_exponent = math.frexp(m.a)
    b = math.ldexp(m.b, -metric_exponent)
    a_minus_b = math.ldexp(m.a, -metric_exponent) - b
    g_uu = a_minus_b * np.vecdot(u, u) + b * s_u * s_u
    g_uqu = a_minus_b * np.vecdot(u, qu) + b * s_u * s_qu
    g_quu = a_minus_b * np.vecdot(qu, u) + b * s_qu * s_u
    f_uu = g_uqu + g_quu
    valid = finite & (g_uu != 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.where(valid, g_uqu / g_uu, np.nan)
    in_range = (cos >= -0.5 - tol.eps_angle) & (cos <= 1.0 + tol.eps_angle)
    if not np.all(in_range | ~valid):
        bad = float(cos[np.flatnonzero(valid & ~in_range)[0]])
        raise InvariantViolation(
            f"shift-angle cosine {bad!r} outside [-1/2, 1] by more than eps_angle"
        )
    code = np.where(f_uu > 0.0, 0, 2).astype(np.int8)
    code[np.abs(f_uu) <= tol.eps_null * 2.0 * g_uu] = 1
    code[~valid] = CODE_ZERO_VECTOR
    code[~finite] = CODE_NON_FINITE
    with np.errstate(over="ignore"):  # inf is the answer where f(u, u) overflows
        f_uu = np.where(valid, np.ldexp(f_uu, 2 * exponent + metric_exponent), np.nan)
    return cos, code, f_uu
