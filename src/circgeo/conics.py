"""Circles of the indefinite form inside the plane span{u, qu}.

In the orthonormal plane frame (u, w) the locus f(v, v) = r2 becomes
A x^2 + B xy + C y^2 = r2 / 2 with coefficients depending only on the shift
angle phi. Its discriminant B^2 - 4AC changes sign at cos phi = -1/3, which
drives the full classification over phi in (0, 2*pi/3] and all signs of r2:
hyperbolas, a parallel/single-line pencil at the degenerate angle, ellipses,
and genuine circles at phi = 2*pi/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import EPS_ANGLE, EPS_NULL, AngleDomainError, GeometryError, _scalar, fmt_float

__all__ = [
    "PHI_MIN",
    "PHI_MAX",
    "COS_PHI_MAX",
    "ConicSpec",
    "ConicCoefficients",
    "ConicClass",
    "ConicClassification",
    "plane_f_values",
    "conic_coefficients",
    "discriminant",
    "discriminant_closed_form",
    "discriminant_sign_form",
    "classify_conic",
    "degenerate_expansion_check",
]

# The plane exists only for shift angles in (0, 2*pi/3]; below PHI_MIN the
# xy coefficient loses precision, so the domain is guarded there.
PHI_MIN = 1e-6
PHI_MAX = 2.0 * math.pi / 3.0
COS_PHI_MAX = math.cos(PHI_MIN)

_SQRT2 = math.sqrt(2.0)


def _check_cos(c):
    c = np.asarray(c, dtype=float)
    bad = ~((c <= COS_PHI_MAX) & (c >= -0.5 - 1e-12))  # nan fails every comparison
    if bad.any():
        raise AngleDomainError(
            f"cos(phi) = {float(c[bad].flat[0])!r} outside the admissible range "
            f"[-1/2, cos({PHI_MIN})] (phi must lie in [{PHI_MIN}, 2*pi/3])"
        )
    return _scalar(np.maximum(c, -0.5))


@dataclass(frozen=True)
class ConicSpec:
    """Shift-angle cosine and level constant r2 of a plane circle f(v, v) = r2.

    cos_phi may be an array of cosines: conic_coefficients and discriminant
    broadcast over it, while classify_conic takes one.
    """

    cos_phi: float | np.ndarray
    r2: float

    def __post_init__(self):
        object.__setattr__(self, "cos_phi", _check_cos(self.cos_phi))
        object.__setattr__(self, "r2", float(self.r2))
        if not math.isfinite(self.r2):
            raise GeometryError("conic level constant must be finite")

    @classmethod
    def from_phi(cls, phi: float, r2: float) -> "ConicSpec":
        if not (PHI_MIN <= phi <= PHI_MAX + 1e-12):
            raise AngleDomainError(
                f"phi = {phi!r} rad outside the admissible range [{PHI_MIN}, 2*pi/3]"
            )
        return cls(math.cos(min(phi, PHI_MAX)), r2)


@dataclass(frozen=True)
class ConicCoefficients:
    """Coefficients of A x^2 + B xy + C y^2 = rhs, with rhs = r2 / 2."""

    A: float
    B: float
    C: float
    rhs: float


class ConicClass(Enum):
    HYPERBOLA = "hyperbola"
    INTERSECTING_LINES = "intersecting-lines"
    NO_REAL_POINTS = "no-real-points"
    SINGLE_LINE = "single-line"
    PARALLEL_LINES = "parallel-lines"
    ELLIPSE = "ellipse"
    POINT = "point"
    CIRCLE = "circle"


@dataclass(frozen=True)
class ConicClassification:
    """Class of the locus, its canonical equation, and an extension marker for
    cases decided by standard conic theory rather than a closed-form identity
    of this geometry (see classify_conic)."""

    kind: ConicClass
    equation: str
    extension: bool
    circle_radius: float | None = None


def plane_f_values(cos_phi):
    """Values (f(u,u), f(u,w), f(w,w)) of the form on the orthonormal plane frame.

    Broadcasts over an array of cosines. With c = cos phi and s = sin phi:
        f(u, u) = 2c,   f(u, w) = (1 - c)(1 + 2c) / s,
        f(w, w) = -2 c^2 / (1 + c).
    The middle numerator is kept factored: the expanded 1 + c - 2c^2 cancels
    catastrophically as c -> 1.
    """
    c = _check_cos(cos_phi)
    s = np.sqrt((1.0 - c) * (1.0 + c))
    f_uu = 2.0 * c
    f_uw = (1.0 - c) * (1.0 + 2.0 * c) / s
    f_ww = -2.0 * c * c / (1.0 + c)
    return _scalar(f_uu), _scalar(f_uw), _scalar(f_ww)


def conic_coefficients(spec: ConicSpec) -> ConicCoefficients:
    """Coefficients of the plane equation: exactly half the frame form values.

    A = c, B = (1 - c)(1 + 2c)/s, C = -c^2/(1 + c), rhs = r2/2.
    """
    c = spec.cos_phi
    s = np.sqrt((1.0 - c) * (1.0 + c))
    return ConicCoefficients(
        A=c,
        B=_scalar((1.0 - c) * (1.0 + 2.0 * c) / s),
        C=-c * c / (1.0 + c),
        rhs=spec.r2 / 2.0,
    )


def discriminant(spec: ConicSpec) -> float:
    """B^2 - 4AC of the plane quadratic form.

    Algebraically equal to (1 + 3c)/(1 + c); positive iff c > -1/3 on the
    whole domain. See discriminant_sign_form for an equivalent-sign variant.
    """
    k = conic_coefficients(spec)
    return k.B * k.B - 4.0 * k.A * k.C


def discriminant_closed_form(c: float) -> float:
    """Closed form (1 + 3c)/(1 + c) of B^2 - 4AC, used as an independent oracle."""
    return (1.0 + 3.0 * c) / (1.0 + c)


def discriminant_sign_form(c: float) -> float:
    """The variant (1 + 3c)/(1 - c): a different magnitude but, both
    denominators being positive for c in (-1/2, 1), the same sign everywhere
    on the domain. Reported alongside the computed discriminant so the two
    conventions stay visibly in agreement."""
    return (1.0 + 3.0 * c) / (1.0 - c)


def _signed_terms(*terms: tuple[float, str]) -> str:
    parts: list[str] = []
    for coeff, sym in terms:
        if coeff == 0.0:
            continue
        if not parts:
            parts.append(f"{fmt_float(coeff)}*{sym}")
        elif coeff < 0.0:
            parts.append(f"- {fmt_float(-coeff)}*{sym}")
        else:
            parts.append(f"+ {fmt_float(coeff)}*{sym}")
    return " ".join(parts) if parts else "0"


def _general_equation(k: ConicCoefficients) -> str:
    lhs = _signed_terms((k.A, "x^2"), (k.B, "xy"), (k.C, "y^2"))
    return f"{lhs} = {fmt_float(k.rhs)}"


def _line_pair_equation(k: ConicCoefficients, disc: float) -> str:
    # Slopes of y = m x solving A + B m + C m^2 = 0; C = 0 only at c = 0,
    # where one line is the vertical axis.
    if abs(k.C) < 1e-300:
        return f"x = 0 ; y = {fmt_float(-k.A / k.B)}*x"
    root = math.sqrt(disc)
    m1 = (-k.B + root) / (2.0 * k.C)
    m2 = (-k.B - root) / (2.0 * k.C)
    return f"y = {fmt_float(m1)}*x ; y = {fmt_float(m2)}*x"


def classify_conic(spec: ConicSpec) -> ConicClassification:
    """Full classification over the (cos phi, r2) decision table.

    Branches, with c = cos phi, D = B^2 - 4AC, and r2 ~ 0 meaning
    |r2| <= EPS_NULL (angle boundaries tested in cos-space with EPS_ANGLE):

    * c ~ -1/2 (phi = 2*pi/3): x^2 + y^2 = -r2. Circle of radius sqrt(-r2)
      for r2 < 0, single point for r2 ~ 0, empty for r2 > 0.
    * c ~ -1/3 (D = 0): (sqrt(2) x - y)^2 = -3 r2. Empty for r2 > 0, the
      line y = sqrt(2) x for r2 ~ 0, two parallel lines for r2 < 0; a
      GeometryError when 3 r2 overflows.
    * D > 0: hyperbola for r2 != 0; a pair of intersecting lines for r2 ~ 0
      (extension: follows from standard conic theory alone, not from one of
      the special-angle identities above).
    * D < 0 at interior angles: the form is negative definite (A = c < 0),
      so r2 < 0 gives an ellipse, r2 ~ 0 the origin alone, r2 > 0 nothing
      (the last two flagged as extensions).
    """
    c = spec.cos_phi
    r2 = spec.r2
    k = conic_coefficients(spec)
    near_zero_r2 = abs(r2) <= EPS_NULL

    if abs(c + 0.5) <= EPS_ANGLE:
        equation = f"x^2+y^2 = {fmt_float(-r2)}"
        if near_zero_r2:
            return ConicClassification(ConicClass.POINT, equation, extension=False)
        if r2 < 0.0:
            return ConicClassification(
                ConicClass.CIRCLE, equation, extension=False, circle_radius=math.sqrt(-r2)
            )
        return ConicClassification(ConicClass.NO_REAL_POINTS, equation, extension=False)

    if abs(c + 1.0 / 3.0) <= EPS_ANGLE:
        _check_degenerate_r2(r2)
        if near_zero_r2:
            return ConicClassification(
                ConicClass.SINGLE_LINE, f"y = {fmt_float(_SQRT2)}*x", extension=False
            )
        if r2 < 0.0:
            offset = math.sqrt(-3.0 * r2)
            return ConicClassification(
                ConicClass.PARALLEL_LINES,
                f"sqrt(2)*x - y = ±{fmt_float(offset)}",
                extension=False,
            )
        return ConicClassification(
            ConicClass.NO_REAL_POINTS,
            f"(sqrt(2)*x - y)^2 = {fmt_float(-3.0 * r2)}",
            extension=False,
        )

    disc = discriminant(spec)
    if disc > 0.0:
        if near_zero_r2:
            return ConicClassification(
                ConicClass.INTERSECTING_LINES, _line_pair_equation(k, disc), extension=True
            )
        if abs(c) <= EPS_ANGLE:
            equation = f"xy = {fmt_float(spec.r2 / 2.0)}"
        else:
            equation = _general_equation(k)
        return ConicClassification(ConicClass.HYPERBOLA, equation, extension=False)

    if near_zero_r2:
        return ConicClassification(ConicClass.POINT, "x = y = 0", extension=True)
    if r2 < 0.0:
        return ConicClassification(ConicClass.ELLIPSE, _general_equation(k), extension=False)
    return ConicClassification(ConicClass.NO_REAL_POINTS, _general_equation(k), extension=True)


def _check_degenerate_r2(r2: float) -> None:
    """At cos phi = -1/3 the level enters as 3*r2, which must be finite."""
    if not math.isfinite(3.0 * r2):
        raise GeometryError(f"r2 = {r2!r} is too large at cos(phi) = -1/3: 3*r2 overflows")


def degenerate_expansion_check(spec: ConicSpec, points=None) -> float:
    """Max residual of the identity -6 (lhs - rhs) == (sqrt(2) x - y)^2 + 3 r2.

    Only meaningful at the degenerate angle cos phi = -1/3, where the plane
    equation collapses to a perfect square; anywhere else the identity is
    false and the call is rejected, as is an r2 for which 3 r2 overflows.
    Defaults to an 11 x 11 grid on [-2, 2]^2.
    """
    if abs(spec.cos_phi + 1.0 / 3.0) > EPS_ANGLE:
        raise AngleDomainError(
            f"expansion identity holds only at cos(phi) = -1/3, got {spec.cos_phi!r}"
        )
    _check_degenerate_r2(spec.r2)
    k = conic_coefficients(spec)
    if points is None:
        grid = np.linspace(-2.0, 2.0, 11)
        points = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1)
    x, y = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
    lhs = k.A * x * x + k.B * x * y + k.C * y * y - k.rhs
    square = (_SQRT2 * x - y) ** 2 + 3.0 * spec.r2
    return float(np.max(np.abs(-6.0 * lhs - square), initial=0.0))
