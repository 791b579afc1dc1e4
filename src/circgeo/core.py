"""Tangent-space kernel for the circulant geometry.

Everything lives in one fixed 3-dimensional coordinate system. The two basic
objects are the cyclic coordinate shift (a permutation whose third power is
the identity) and a positive definite circulant metric g = circ(a, b, b).
The shift is an isometry of every such g, and together they induce an
indefinite symmetric bilinear form f(u, v) = g(u, qv) + g(qu, v) that splits
nonzero vectors into spacelike, null and timelike.

Every form here broadcasts over stacks of vectors of shape (..., 3) and over
stacks of metrics, and is computed by one set of helpers that first scale the
vectors and the metric by powers of two, so no product overflows or underflows.
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
    "BadTrialCountError",
    "InvariantViolation",
    "CausalCharacter",
    "CirculantMetric",
    "EPS_NULL",
    "EPS_ANGLE",
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


class BadTrialCountError(GeometryError):
    """The oracle suite needs at least one trial, and stacks numpy can address."""


class InvariantViolation(RuntimeError):
    """An internally guaranteed numerical invariant failed by more than its band."""


class CausalCharacter(Enum):
    """Trichotomy of a nonzero vector by the sign of f(u, u)."""

    SPACELIKE = "spacelike"
    NULL = "null"
    TIMELIKE = "timelike"


# Numerical bands: EPS_NULL for sign and null tests, EPS_ANGLE for angle
# boundaries, which are compared in cosine space.
EPS_NULL = 1e-9
EPS_ANGLE = 1e-9

# The cyclic shift (x, y, z) -> (y, z, x) as an index along the last axis.
_Q = np.array([1, 2, 0])


def _level_sign(r2: float) -> int:
    """1, 0 or -1 by the sign of a level constant, with 0 on the band |r2| <= EPS_NULL, its edge included."""
    return 0 if abs(r2) <= EPS_NULL else 1 if r2 > 0.0 else -1


def _scalar(x):
    """A 0-d result as a Python float; arrays pass through."""
    return float(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class CirculantMetric:
    """Positive definite metric circ(a, b, b): diagonal a, off-diagonal b.

    The eigenvalues of circ(a, b, b) are a + 2b (once) and a - b (twice), so
    positive definiteness is exactly a + 2b > 0 and a - b > 0; a > 0 follows.
    a and b may be arrays, a stack of metrics that broadcasts, numpy style,
    against the shape of a vector stack without its last axis; every entry is
    validated. Scalars are kept as floats. The validation also sets what the
    forms read, _scaled = (a, b, exponent): a and b divided by the power of
    two of a, exactly, so no sum, difference or ratio of them overflows, and
    the exponent, common to both, cancels in a ratio.
    """

    a: float | np.ndarray
    b: float | np.ndarray

    def __post_init__(self):
        a, b = np.broadcast_arrays(np.array(self.a, dtype=float), np.array(self.b, dtype=float))
        # Tested on the scaled coefficients, where no valid metric overflows;
        # an invalid b may scale or double to +-inf, which still fails. The
        # scaled a lies in [1/2, 1) for every finite a > 0, so a_s < 1 fails
        # on inf and nan, and a > 0 follows from the other two tests.
        with np.errstate(over="ignore", invalid="ignore"):
            _, exponent = np.frexp(a)
            a_s, b_s = np.ldexp(a, -exponent), np.ldexp(b, -exponent)
            ok = (a_s < 1.0) & (a_s - b_s > 0.0) & (a_s + 2.0 * b_s > 0.0)
        if not ok.all():
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                raise InvalidMetricError("metric coefficients must be finite")
            i = np.argmin(ok)
            a, b = float(a.flat[i]), float(b.flat[i])
            raise InvalidMetricError(
                f"circ({a}, {b}, {b}) is not positive definite: "
                "requires a > 0, a - b > 0 and a + 2b > 0"
            )
        object.__setattr__(self, "a", _scalar(a))
        object.__setattr__(self, "b", _scalar(b))
        object.__setattr__(self, "_scaled", (a_s, b_s, exponent))


def as_vector(u) -> np.ndarray:
    """Coerce to a finite float 3-vector, or a stack of them of shape (..., 3)."""
    v = np.asarray(u, dtype=float)
    if v.ndim == 0 or v.shape[-1] != 3:
        raise GeometryError(f"expected a 3-vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise GeometryError("vector components must be finite")
    return v


def fmt_float(x: float) -> str:
    """Shortest decimal that parses back to the same float; integral values print bare.

    repr prints an integral float below 1e16 as digits and '.0'; adding 0.0
    turns -0.0 into 0.0, so it prints '0'.
    """
    return repr(float(x) + 0.0).removesuffix(".0")


def _unit(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each vector divided by the power of two of its largest component, and that exponent.

    The division is exact (Blue's overflow-safe scaling, ACM TOMS 1978), so
    the products below neither overflow nor underflow, and a result scaled
    back with _ldexp is the unscaled result wherever that one is in range.
    """
    ax = np.abs(x)
    _, exponent = np.frexp(np.maximum(np.maximum(ax[..., 0], ax[..., 1]), ax[..., 2]))
    return np.ldexp(x, -exponent[..., None]), exponent


def _form(metric, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """g(u, v) / 2^exponent for a metric's _scaled (a, b, exponent), by the split
    circ(a, b, b) = (a - b) I + b J, J all ones; sums run (x + y) + z.

    Column by column, with no BLAS call, so the rounding is plain IEEE on every
    CPU, and _form(metric, u, v) equals _form(metric, v, u) bit for bit.
    """
    a, b, _ = metric
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return (a - b) * ((u0 * v0 + u1 * v1) + u2 * v2) + b * (((u0 + u1) + u2) * ((v0 + v1) + v2))


def _ldexp(x, exponent):
    """x * 2^exponent; inf or 0 is the answer where the true value leaves the float range."""
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(x, exponent)


def q_apply(u) -> np.ndarray:
    """Cyclic shift (x, y, z) -> (y, z, x). Applying it three times is the identity."""
    return as_vector(u)[..., _Q]


def g_inner(m: CirculantMetric, u, v) -> float | np.ndarray:
    """Inner product under circ(a, b, b); broadcasts over stacks of vectors and metrics."""
    (u, eu), (v, ev) = _unit(as_vector(u)), _unit(as_vector(v))
    metric = m._scaled
    return _scalar(_ldexp(_form(metric, u, v), eu + ev + metric[2]))


def g_norm(m: CirculantMetric, u) -> float | np.ndarray:
    """Norm sqrt(g(u, u)); zero only for the zero vector."""
    u, exponent = _unit(as_vector(u))
    metric = m._scaled
    exponent = 2 * exponent + metric[2]
    odd = exponent & 1  # an even power of two leaves the square root exact
    norm_sq = np.maximum(0.0, _form(metric, u, u))
    return _scalar(_ldexp(np.sqrt(np.ldexp(norm_sq, odd)), (exponent - odd) // 2))


def _gram(m: CirculantMetric, x: np.ndarray):
    """(g(u, u), g(u, qu), exponent) of finite vectors, both forms over 2^exponent."""
    u, exponent = _unit(x)
    metric = m._scaled
    return _form(metric, u, u), _form(metric, u, u[..., _Q]), 2 * exponent + metric[2]


def cos_phi(m: CirculantMetric, u) -> float | np.ndarray:
    """Cosine of the angle between u and its shift: g(u, qu) / g(u, u).

    The value lies in [-1/2, 1] up to rounding for every valid metric, and it
    does not depend on the scale of u or of the metric.
    """
    norm_sq, g_uqu, _ = _gram(m, as_vector(u))
    if (norm_sq == 0.0).any():
        raise ZeroVectorError("cos_phi is undefined for the zero vector")
    return _scalar(g_uqu / norm_sq)


def clamp_cos(c) -> float | np.ndarray:
    """Clamp shift-angle cosines into [-1/2, 1] before any arccos.

    Values outside the interval by more than EPS_ANGLE are not rounding noise
    and indicate a broken caller, so they raise instead of clamping silently.
    NaN lies in no interval and raises too.
    """
    c = np.asarray(c, dtype=float)
    in_range = (c >= -0.5 - EPS_ANGLE) & (c <= 1.0 + EPS_ANGLE)
    if not in_range.all():
        bad = float(c[~in_range].flat[0])
        raise InvariantViolation(
            f"shift-angle cosine {bad!r} outside [-1/2, 1] by more than eps_angle"
        )
    return _scalar(np.clip(c, -0.5, 1.0))


def _one_vector(m: CirculantMetric, u) -> np.ndarray:
    v = as_vector(u)
    if v.shape != (3,) or np.ndim(m.a) != 0:
        raise GeometryError(f"expected one 3-vector under one metric, got shape {v.shape}")
    return v


def phi_angle(m: CirculantMetric, u) -> float:
    """Angle between u and its shift, in radians, in [0, 2*pi/3]."""
    return math.acos(clamp_cos(cos_phi(m, _one_vector(m, u))))


def f_inner(m: CirculantMetric, u, v) -> float | np.ndarray:
    """Associated indefinite form f(u, v) = g(u, qv) + g(qu, v).

    Symmetric, bilinear, and shift-invariant: f(qu, qv) = f(u, v). On the
    diagonal f(u, u) = 2 g(u, qu) = 2 g(u, u) cos_phi(u).
    """
    (u, eu), (v, ev) = _unit(as_vector(u)), _unit(as_vector(v))
    metric = m._scaled
    f = _form(metric, u, v[..., _Q]) + _form(metric, u[..., _Q], v)
    return _scalar(_ldexp(f, eu + ev + metric[2]))


# Character codes of classify_many: 0, 1, 2 index CHARACTER_BY_CODE, and two
# more codes mark the rows that have no character.
CHARACTER_BY_CODE = (CausalCharacter.SPACELIKE, CausalCharacter.NULL, CausalCharacter.TIMELIKE)
CODE_ZERO_VECTOR = 3
CODE_NON_FINITE = 4


def _classify(m: CirculantMetric, x: np.ndarray, eps_null: float):
    """(cos_phi, code, f_uu / 2^exponent, exponent) of finite vectors.

    code is CODE_ZERO_VECTOR on zero vectors, where cos_phi is nan. Null when
    |f(u, u)| <= eps_null * 2 g(u, u), which by f(u, u) = 2 g(u, u) cos_phi(u)
    is the scale-free test |cos_phi| <= eps_null; else spacelike above the
    band and timelike below.
    """
    norm_sq, g_uqu, exponent = _gram(m, x)
    f_uu = 2.0 * g_uqu  # g(qu, u) is g(u, qu) bit for bit
    null = np.abs(f_uu) <= eps_null * 2.0 * norm_sq
    zero = norm_sq == 0.0
    code = np.where(zero, np.int8(CODE_ZERO_VECTOR),
                    np.where(null, np.int8(1), np.where(f_uu > 0.0, np.int8(0), np.int8(2))))
    return g_uqu / np.where(zero, np.nan, norm_sq), code, f_uu, exponent


def causal_character(m: CirculantMetric, u) -> CausalCharacter:
    """Classify a nonzero vector by the sign of f(u, u), as classify_many does.

    The null band is relative, so the result depends on neither the scale of
    u nor that of the metric. The shift preserves the result.
    """
    code = _classify(m, _one_vector(m, u), EPS_NULL)[1]
    if code == CODE_ZERO_VECTOR:
        raise ZeroVectorError("causal character is undefined for the zero vector")
    return CHARACTER_BY_CODE[code]


def classify_many(
    m: CirculantMetric, rows, eps_null: float = EPS_NULL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify every row of an (N, 3) array: (cos_phi, code, f_uu), each of length N.

    code indexes CHARACTER_BY_CODE, or is CODE_ZERO_VECTOR or CODE_NON_FINITE
    for rows that have no character; cos_phi and f_uu are nan on those rows.
    The code and cos_phi are those of causal_character and cos_phi, and f_uu
    that of f_inner. The metric may be a stack of N metrics. eps_null, the
    null band, must lie in (0, 1e-3). Raises InvariantViolation if a cosine
    lies outside [-1/2, 1] by more than EPS_ANGLE, as clamp_cos does.
    """
    if not 0.0 < eps_null < 1e-3:
        raise GeometryError(f"eps_null must lie in (0, 1e-3), got {eps_null!r}")
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2 or x.shape[1] != 3:
        raise GeometryError(f"expected an (N, 3) array of vectors, got shape {x.shape}")
    finite = np.isfinite(x[:, 0]) & np.isfinite(x[:, 1]) & np.isfinite(x[:, 2])
    cos, code, f_uu, exponent = _classify(m, np.where(finite[:, None], x, 0.0), eps_null)
    valid = finite & (code != CODE_ZERO_VECTOR)
    clamp_cos(cos[valid])
    code[~finite] = CODE_NON_FINITE
    return np.where(valid, cos, np.nan), code, np.where(valid, _ldexp(f_uu, exponent), np.nan)
