"""Level sets of the indefinite form in orthonormal shift-basis coordinates.

With coordinates (x, y, z) taken along a g-orthonormal basis {u, qu, q2u},
the form f(v, v) reduces to 2(xy + xz + yz). A fixed rotation diagonalizes
that quadratic form to -(x'^2 + y'^2 - 2 z'^2), so the level set
f(v, v) = r2 is a cone (r2 = 0), a two-sheet hyperboloid (r2 > 0) or a
one-sheet hyperboloid (r2 < 0) in the rotated coordinates. This module also
intersects the cone with the unit sphere and samples exact surface meshes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    BadSampleCountsError,
    CausalCharacter,
    GeometryError,
    _level_sign,
    _scalar,
    as_vector,
    fmt_float,
)

__all__ = [
    "ROTATION",
    "QuadricSpec",
    "QuadricClass",
    "CircleIntersection",
    "sphere_form_value",
    "to_primed",
    "from_primed",
    "primed_form_value",
    "classify_quadric",
    "quadric_equation",
    "radius_vector_character",
    "cone_sphere_intersection",
    "basis_heads_primed",
    "default_extent",
    "mesh_extent",
    "mesh_profile",
    "sample_quadric",
]

# Columns are the primed axes expressed in the starting coordinates; the third
# column is the shift-fixed direction, which carries form value +2.
ROTATION = np.array(
    [
        [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(6.0), 1.0 / math.sqrt(3.0)],
        [0.0, 2.0 / math.sqrt(6.0), 1.0 / math.sqrt(3.0)],
        [-1.0 / math.sqrt(2.0), -1.0 / math.sqrt(6.0), 1.0 / math.sqrt(3.0)],
    ]
)


class QuadricClass(Enum):
    CONE = "cone"
    TWO_SHEETS = "two-sheets"
    ONE_SHEET = "one-sheet"


@dataclass(frozen=True)
class QuadricSpec:
    """Level constant r2 of the surface f(v, v) = r2; any sign is meaningful."""

    r2: float

    def __post_init__(self):
        object.__setattr__(self, "r2", float(self.r2))
        if not math.isfinite(self.r2):
            raise GeometryError("quadric level constant must be finite")


@dataclass(frozen=True)
class CircleIntersection:
    """Cone-sphere intersection: cylinder radius^2 and the two cutting planes."""

    radius_sq: float
    z_planes: tuple[float, float]


def sphere_form_value(v) -> float | np.ndarray:
    """Value 2(xy + xz + yz) of the form in orthonormal shift-basis coordinates.

    This and the coordinate maps below broadcast over stacks of vectors.
    """
    x, y, z = np.moveaxis(as_vector(v), -1, 0)
    return _scalar(2.0 * (x * y + x * z + y * z))


def _combine(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """v @ rows as the sum (x rows[0] + y rows[1]) + z rows[2]: plain IEEE rounding,
    where a BLAS product rounds by the kernel the CPU gets. It runs on the
    transposes, so each product is one long loop over the vectors."""
    vt, cols = v.T, rows.reshape(rows.shape + (1,) * (v.ndim - 1))
    return ((vt[0] * cols[0] + vt[1] * cols[1]) + vt[2] * cols[2]).T


def to_primed(v) -> np.ndarray:
    """Starting coordinates to rotated (primed) coordinates."""
    return _combine(as_vector(v), ROTATION)


def from_primed(vp) -> np.ndarray:
    """Rotated (primed) coordinates back to starting coordinates."""
    return _combine(as_vector(vp), ROTATION.T)


def primed_form_value(vp) -> float | np.ndarray:
    """The same form evaluated in primed coordinates: -(x'^2 + y'^2 - 2 z'^2).

    The sign keeps primed_form_value(to_primed(v)) == sphere_form_value(v);
    the usual surface equation is recovered by negating both sides of
    value = r2.
    """
    x, y, z = np.moveaxis(as_vector(vp), -1, 0)
    return _scalar(-(x * x + y * y - 2.0 * z * z))


# The class of the level set and the character of its radius vectors, by _level_sign(r2).
_BY_LEVEL_SIGN = {
    1: (QuadricClass.TWO_SHEETS, CausalCharacter.SPACELIKE),
    0: (QuadricClass.CONE, CausalCharacter.NULL),
    -1: (QuadricClass.ONE_SHEET, CausalCharacter.TIMELIKE),
}


def classify_quadric(spec: QuadricSpec) -> QuadricClass:
    """Cone for |r2| <= EPS_NULL, two sheets for r2 > 0, one sheet for r2 < 0."""
    return _BY_LEVEL_SIGN[_level_sign(spec.r2)][0]


def quadric_equation(spec: QuadricSpec) -> str:
    """Canonical primed-coordinate equation string, e.g. x'^2+y'^2-2z'^2 = -2."""
    return f"x'^2+y'^2-2z'^2 = {fmt_float(-spec.r2)}"


def radius_vector_character(spec: QuadricSpec) -> CausalCharacter:
    """Character of every radius vector of the surface: f(v, v) = r2 pointwise."""
    return _BY_LEVEL_SIGN[_level_sign(spec.r2)][1]


def cone_sphere_intersection() -> CircleIntersection:
    """Intersection of x'^2+y'^2-2z'^2 = 0 with the unit sphere.

    Subtracting the equations gives 3 z'^2 = 1, so the curves are the circles
    x'^2 + y'^2 = 2/3 in the planes z' = +-1/sqrt(3).
    """
    z = 1.0 / math.sqrt(3.0)
    return CircleIntersection(radius_sq=2.0 / 3.0, z_planes=(z, -z))


def basis_heads_primed() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Primed coordinates of the heads of the orthonormal basis vectors.

    All three are null, so they lie on the cone; being unit vectors they lie
    on the sphere too, hence on the upper intersection circle z' = +1/sqrt(3).
    """
    eye = np.eye(3)
    return (to_primed(eye[0]), to_primed(eye[1]), to_primed(eye[2]))


def _math_map(fn, x: np.ndarray) -> np.ndarray:
    """fn applied to each entry with the math module, whose sinh, cosh, cos and
    sin the meshes are made with (numpy's differ in the last bit on some CPUs)."""
    return np.fromiter(map(fn, x.tolist()), float, len(x))


def _unit_circle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2*pi*j/n, j = 0..n-1, exact under each symmetry of the circle that maps the grid to
    itself: in integers, 4j = q*n + r gives q quarter turns and r/n of one; r > n/2 folds to n - r."""
    q, r = np.divmod(4 * np.arange(n), n)
    swap, r = (2 * r > n) ^ (q % 2 == 1), np.minimum(r, n - r)  # a fold or an odd quarter turn swaps cos and sin
    k = np.arange(n // 2 + 1)  # the folded numerators
    near, far = (_math_map(fn, (0.5 * math.pi) * (k / n)) for fn in (math.cos, math.sin))
    near[2 * k == n] = far[2 * k == n] = math.sqrt(0.5)  # one float at pi/4, where cos and sin differ by 1 ulp
    near, far = near[r], far[r]
    x, y = np.where(swap, far, near), np.where(swap, near, far)
    np.negative(x, out=x, where=(q == 1) | (q == 2))
    np.negative(y, out=y, where=q >= 2)
    return x, y


def _hyperboloid_profile(kind: QuadricClass, a: float, t_max: float, n_s: int):
    """(radius, height) at n_s equal steps of the hyperboloid's profile
    parameter s, out to where the radius reaches t_max."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if kind is QuadricClass.TWO_SHEETS:
        s = np.linspace(0.0, math.asinh(t_max / a), n_s)
        return a * _math_map(math.sinh, s), a * inv_sqrt2 * _math_map(math.cosh, s)
    s_max = math.acosh(max(t_max / a, 1.0))
    s = np.linspace(-s_max, s_max, n_s)
    return a * _math_map(math.cosh, s), a * inv_sqrt2 * _math_map(math.sinh, s)


def default_extent(r2: float) -> float:
    """Default cylindrical-radius reach of sampled meshes."""
    return 2.0 * max(1.0, math.sqrt(abs(r2)))


def mesh_extent(spec: QuadricSpec, n_s: int, n_theta: int, extent: float | None = None) -> float:
    """The cylindrical-radius reach of an n_s x n_theta mesh of the surface.

    Raises BadSampleCountsError unless n_s >= 2, n_theta >= 3 and numpy can
    address the mesh, and GeometryError for an extent that is not positive and
    finite, or for which extent/sqrt(|r2|) or the hyperboloid's profile
    overflows; `extent` defaults to default_extent(r2).
    """
    if n_s < 2 or n_theta < 3:
        raise BadSampleCountsError(f"need n_s >= 2 and n_theta >= 3, got n_s={n_s}, n_theta={n_theta}")
    # Two branches of n_s * n_theta vertices, 3 * 8 bytes each. Past the
    # address space numpy's sizes wrap (an empty mesh, or an IndexError).
    if 48 * n_s * n_theta > np.iinfo(np.intp).max:
        raise BadSampleCountsError(f"a {n_s} x {n_theta} mesh is too large to address")
    t_max = default_extent(spec.r2) if extent is None else float(extent)
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise GeometryError(f"mesh extent must be positive and finite, got {t_max!r}")
    kind = classify_quadric(spec)
    if kind is QuadricClass.CONE:
        return t_max
    too_large = f"mesh extent {t_max!r} is too large for r2 = {spec.r2!r}"
    a = math.sqrt(abs(spec.r2))
    if not math.isfinite(t_max / a):
        raise GeometryError(f"{too_large}: extent/sqrt(|r2|) overflows")
    # The profile peaks at its ends, where rounding can carry a*sinh(asinh(t/a))
    # or a*cosh(acosh(t/a)) past the largest float.
    with np.errstate(over="ignore"):
        ends = _hyperboloid_profile(kind, a, t_max, 2)
    if not np.isfinite(ends).all():
        raise GeometryError(f"{too_large}: the profile overflows")
    return t_max


def mesh_profile(spec: QuadricSpec, n_s: int, n_theta: int, extent: float | None = None) -> tuple[np.ndarray, ...]:
    """The surface x'^2+y'^2-2z'^2 = -r2 on an exact parametric grid, factored: (radius, height, cos, sin).

    Vertex (i, j) is (radius[i] cos[j], radius[i] sin[j], height[i]) in primed
    coordinates. radius (>= 0) and height hold one entry per profile row, the
    two-branch surfaces' - branch after their + branch; cos and sin hold theta
    at n_theta equal steps in [0, 2*pi). The profiles:

    * cone (r2 ~ 0): (t cos, t sin, +-t/sqrt(2)), t in [0, extent]; the apex
      row t = 0 appears once per branch.
    * two sheets (r2 > 0, a = sqrt(r2)): (a sinh s cos, a sinh s sin,
      +-(a/sqrt(2)) cosh s), s in [0, asinh(extent/a)].
    * one sheet (r2 < 0, a = sqrt(-r2)): (a cosh s cos, a cosh s sin,
      (a/sqrt(2)) sinh s), s in [-s_max, s_max] with cosh(s_max) reaching
      extent/a when that exceeds 1. Single connected branch.

    The profile ranges are chosen so the cylindrical radius reaches `extent`
    (default 2 * max(1, sqrt(|r2|))); mesh_extent checks the counts and the
    extent. Every vertex satisfies the surface equation to a relative 1e-9 by
    construction.
    """
    t_max = mesh_extent(spec, n_s, n_theta, extent)
    kind = classify_quadric(spec)
    if kind is QuadricClass.CONE:
        # Only the last step can overflow, and linspace then sets it to t_max.
        with np.errstate(over="ignore"):
            radius = np.linspace(0.0, t_max, n_s)
        height = radius * (1.0 / math.sqrt(2.0))
    else:
        radius, height = _hyperboloid_profile(kind, math.sqrt(abs(spec.r2)), t_max, n_s)
    if kind is not QuadricClass.ONE_SHEET:  # the + branch, then its mirror image
        radius, height = np.concatenate((radius, radius)), np.concatenate((height, -height))
    return (radius, height, *_unit_circle(n_theta))


def sample_quadric(spec: QuadricSpec, n_s: int, n_theta: int, extent: float | None = None) -> np.ndarray:
    """mesh_profile's vertices as an (N, 3) array: rows of n_theta angles, a two-branch surface's + branch first."""
    radius, height, cos, sin = mesh_profile(spec, n_s, n_theta, extent)
    return np.stack(np.broadcast_arrays(radius[:, None] * cos, radius[:, None] * sin, height[:, None]), -1).reshape(-1, 3)
