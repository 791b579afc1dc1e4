"""Plane conic pipeline: frame form values, coefficients, discriminant, classes."""

import math

import numpy as np
import pytest

from circgeo import (
    PHI_MAX,
    PHI_MIN,
    AngleDomainError,
    CirculantMetric,
    ConicClass,
    ConicSpec,
    GeometryError,
    classify_conic,
    companion_w,
    conic_coefficients,
    degenerate_expansion_check,
    discriminant,
    discriminant_closed_form,
    discriminant_sign_form,
    f_inner,
    plane_f_values,
)

THIRD = -1.0 / 3.0
SQRT2 = math.sqrt(2.0)


def phi_grid(n=400):
    return np.linspace(PHI_MIN, PHI_MAX, n + 2)[1:-1]


# ---------------------------------------------------------------- frame values


def test_plane_f_values_frozen():
    assert plane_f_values(0.0) == (0.0, 1.0, 0.0)
    f_uu, f_uw, f_ww = plane_f_values(-0.5)
    assert (f_uu, f_uw, f_ww) == (-1.0, 0.0, -1.0)


def test_plane_f_values_broadcast():
    c = np.cos(phi_grid(50))
    stacked = plane_f_values(c)
    for i, ci in enumerate(c):
        assert tuple(x[i] for x in stacked) == plane_f_values(float(ci))
    with pytest.raises(AngleDomainError):
        plane_f_values(np.array([0.0, -0.6]))


def test_plane_f_values_domain():
    with pytest.raises(AngleDomainError):
        plane_f_values(1.0)  # angle below the guard
    with pytest.raises(AngleDomainError):
        plane_f_values(-0.6)


def test_plane_f_values_realized_by_inner_products():
    # Concrete realization: u = (1,0,0) under the metric with identity matrix
    # gives cos(phi) = 0 and companion w = (0,0,1).
    m = CirculantMetric(1.0, 0.0)
    frame = companion_w(m, [1.0, 0.0, 0.0])
    f_uu, f_uw, f_ww = plane_f_values(0.0)
    assert abs(f_inner(m, frame.u, frame.u) - f_uu) <= 1e-12
    assert abs(f_inner(m, frame.u, frame.w) - f_uw) <= 1e-12
    assert abs(f_inner(m, frame.w, frame.w) - f_ww) <= 1e-12


def test_plane_f_values_realized_across_angles():
    # The (m, u) family below realizes any interior angle against the
    # identity-matrix metric: u = axis + beta * seed.
    m = CirculantMetric(1.0, 0.0)
    axis = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    seed = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    for c in np.linspace(-0.45, 0.9, 40):
        beta = math.sqrt(2.0 * (1.0 - c) / (1.0 + 2.0 * c))
        frame = companion_w(m, axis + beta * seed)
        f_uu, f_uw, f_ww = plane_f_values(math.cos(frame.phi))
        assert abs(f_inner(m, frame.u, frame.u) - f_uu) <= 1e-12 * (1.0 + abs(f_uu))
        assert abs(f_inner(m, frame.u, frame.w) - f_uw) <= 1e-12 * (1.0 + abs(f_uw))
        assert abs(f_inner(m, frame.w, frame.w) - f_ww) <= 1e-12 * (1.0 + abs(f_ww))


# ---------------------------------------------------------------- coefficients


def test_coefficients_frozen():
    k = conic_coefficients(ConicSpec(0.0, 1.0))
    assert (k.A, k.B, k.C, k.rhs) == (0.0, 1.0, 0.0, 0.5)
    k = conic_coefficients(ConicSpec(-0.5, 1.0))
    assert (k.A, k.B, k.C) == (-0.5, 0.0, -0.5)
    k = conic_coefficients(ConicSpec(0.5, 1.0))
    assert k.A == 0.5
    assert k.B == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-15)
    assert k.C == pytest.approx(-1.0 / 6.0, abs=1e-16)


def test_coefficients_consistent_with_frame_values():
    for phi in phi_grid(1000):
        c = float(np.cos(phi))
        f_uu, f_uw, f_ww = plane_f_values(c)
        k = conic_coefficients(ConicSpec(c, 1.0))
        assert abs(f_uu - 2.0 * k.A) <= 1e-12 * (1.0 + abs(f_uu))
        assert abs(f_uw - k.B) <= 1e-12 * (1.0 + abs(f_uw))
        assert abs(f_ww - 2.0 * k.C) <= 1e-12 * (1.0 + abs(f_ww))


def test_spec_validation():
    with pytest.raises(AngleDomainError):
        ConicSpec(1.0, 0.0)
    with pytest.raises(AngleDomainError):
        ConicSpec(-0.6, 0.0)
    with pytest.raises(GeometryError):
        ConicSpec(0.0, math.inf)
    with pytest.raises(AngleDomainError):
        ConicSpec.from_phi(2.5, 0.0)
    with pytest.raises(AngleDomainError):
        ConicSpec.from_phi(1e-9, 0.0)
    assert ConicSpec.from_phi(PHI_MAX, -1.0).cos_phi == pytest.approx(-0.5, abs=1e-15)
    # A hair below -1/2 clamps onto the boundary instead of erroring.
    assert ConicSpec(-0.5 - 1e-13, 0.0).cos_phi == -0.5


# ---------------------------------------------------------------- discriminant


def test_discriminant_checkpoints():
    assert discriminant(ConicSpec(0.0, 0.0)) == 1.0
    assert abs(discriminant(ConicSpec(THIRD, 0.0))) <= 1e-12
    assert discriminant(ConicSpec(-0.5, 0.0)) == -1.0
    assert discriminant(ConicSpec(0.5, 0.0)) == pytest.approx(5.0 / 3.0, abs=1e-15)


def test_discriminant_closed_form_on_grid():
    for phi in phi_grid(1000):
        c = float(np.cos(phi))
        assert abs(discriminant(ConicSpec(c, 0.0)) - discriminant_closed_form(c)) <= 1e-10


def test_discriminant_sign_agreement_with_alt_form():
    for phi in phi_grid(1000):
        c = float(np.cos(phi))
        if abs(1.0 + 3.0 * c) <= 1e-9:
            continue
        assert np.sign(discriminant(ConicSpec(c, 0.0))) == np.sign(discriminant_sign_form(c))


# ---------------------------------------------------------------- classification


@pytest.mark.parametrize(
    "c,r2,kind,extension",
    [
        (0.5, 1.5, ConicClass.HYPERBOLA, False),
        (0.0, -2.0, ConicClass.HYPERBOLA, False),
        (0.9, 1e-3, ConicClass.HYPERBOLA, False),
        (0.5, 0.0, ConicClass.INTERSECTING_LINES, True),
        (0.0, 0.0, ConicClass.INTERSECTING_LINES, True),
        (THIRD, 1.0, ConicClass.NO_REAL_POINTS, False),
        (THIRD, 0.0, ConicClass.SINGLE_LINE, False),
        (THIRD, -1.0, ConicClass.PARALLEL_LINES, False),
        (-0.4, -1.0, ConicClass.ELLIPSE, False),
        (-0.4, 0.0, ConicClass.POINT, True),
        (-0.4, 1.0, ConicClass.NO_REAL_POINTS, True),
        (-0.5, -1.0, ConicClass.CIRCLE, False),
        (-0.5, 0.0, ConicClass.POINT, False),
        (-0.5, 1.0, ConicClass.NO_REAL_POINTS, False),
    ],
)
def test_classification_table(c, r2, kind, extension):
    result = classify_conic(ConicSpec(c, r2))
    assert result.kind is kind
    assert result.extension is extension


def test_classification_equations():
    assert classify_conic(ConicSpec(0.0, 1.0)).equation == "xy = 0.5"
    assert classify_conic(ConicSpec(-0.5, -1.0)).equation == "x^2+y^2 = 1"
    assert classify_conic(ConicSpec(THIRD, 0.0)).equation == f"y = {SQRT2!r}*x"
    parallel = classify_conic(ConicSpec(THIRD, -1.0))
    assert parallel.equation == f"sqrt(2)*x - y = ±{math.sqrt(3.0)!r}"


def test_circle_radius():
    result = classify_conic(ConicSpec(-0.5, -4.0))
    assert result.kind is ConicClass.CIRCLE
    assert result.circle_radius == 2.0
    assert classify_conic(ConicSpec(-0.5, 1.0)).circle_radius is None


def test_circle_points_satisfy_equation():
    k = conic_coefficients(ConicSpec(-0.5, -1.0))
    for t in np.linspace(0.0, 2.0 * math.pi, 100):
        x, y = math.cos(t), math.sin(t)
        assert abs(k.A * x * x + k.B * x * y + k.C * y * y - k.rhs) <= 1e-12


def test_intersecting_lines_points_satisfy_equation():
    spec = ConicSpec(0.25, 0.0)
    result = classify_conic(spec)
    assert result.kind is ConicClass.INTERSECTING_LINES
    k = conic_coefficients(spec)
    # Both reported slopes must solve A + B m + C m^2 = 0.
    for part in result.equation.split(";"):
        part = part.strip()
        assert part.startswith("y = ") and part.endswith("*x")
        m_line = float(part[4:-2])
        assert abs(k.A + k.B * m_line + k.C * m_line * m_line) <= 1e-12


def test_single_line_points_satisfy_equation():
    k = conic_coefficients(ConicSpec(THIRD, 0.0))
    for x in np.linspace(-3.0, 3.0, 21):
        y = SQRT2 * x
        assert abs(k.A * x * x + k.B * x * y + k.C * y * y) <= 1e-12 * (1.0 + x * x)


def test_parallel_lines_points_satisfy_equation():
    r2 = -2.5
    k = conic_coefficients(ConicSpec(THIRD, r2))
    offset = math.sqrt(-3.0 * r2)
    for x in np.linspace(-3.0, 3.0, 21):
        for sign in (1.0, -1.0):
            y = SQRT2 * x - sign * offset
            residual = k.A * x * x + k.B * x * y + k.C * y * y - k.rhs
            assert abs(residual) <= 1e-12 * (1.0 + x * x + y * y)


# ---------------------------------------------------------------- degenerate angle


def test_degenerate_expansion_point_cases():
    assert degenerate_expansion_check(ConicSpec(THIRD, 0.0), points=[(1.0, 0.0)]) <= 1e-12
    assert degenerate_expansion_check(ConicSpec(THIRD, -1.0), points=[(1.0, 1.0)]) <= 1e-12


@pytest.mark.parametrize("r2", [1.0, 0.0, -1.0])
def test_degenerate_expansion_grid(r2):
    assert degenerate_expansion_check(ConicSpec(THIRD, r2)) <= 1e-12


def test_degenerate_expansion_rejects_other_angles():
    with pytest.raises(AngleDomainError):
        degenerate_expansion_check(ConicSpec(0.0, 0.0))


@pytest.mark.parametrize("r2", [1e308, -1e308])
def test_degenerate_expansion_rejects_overflowing_r2(r2):
    # 3 * r2 and -6 * lhs overflow; the residual once read nan, with warnings.
    with pytest.raises(GeometryError) as excinfo:
        degenerate_expansion_check(ConicSpec(THIRD, r2))
    assert str(excinfo.value) == f"r2 = {r2!r} is too large at cos(phi) = -1/3: 3*r2 overflows"


@pytest.mark.parametrize("r2", [1e308, -1e308])
def test_degenerate_angle_rejects_overflowing_r2(r2):
    # The equation (sqrt(2) x - y)^2 = -3 r2 has no finite right-hand side.
    with pytest.raises(GeometryError, match="r2"):
        classify_conic(ConicSpec(THIRD, r2))
