"""Plane conic pipeline: frame form values, coefficients, discriminant, classes."""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circgeo import conics
from circgeo import (
    COS_PHI_MAX,
    EPS_ANGLE,
    EPS_NULL,
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


@pytest.mark.parametrize("phi", [1e-6, 2e-6, 1e-5, 1e-4, 1e-3])
def test_xy_coefficient_near_phi_min(phi):
    # B's numerator stays factored: the expanded 1 + c - 2c^2 cancels near
    # c = 1 and reads 3.3e-13 to 3.3e-9 relative error at these phi, closer
    # to PHI_MIN than verify's phi grid comes.
    c = ConicSpec.from_phi(phi, 1.0).cos_phi
    with mpmath.workdps(50):
        exact = (1 - mpmath.mpf(c)) * (1 + 2 * mpmath.mpf(c)) / mpmath.sqrt(1 - mpmath.mpf(c) ** 2)
        assert abs(conic_coefficients(ConicSpec(c, 1.0)).B - exact) <= 1e-15 * exact


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
        assert np.sign(discriminant(ConicSpec(c, 0.0))) == np.sign((1.0 + 3.0 * c) / (1.0 - c))


# ---------------------------------------------------------------- classification


def conic_row(c, r2, kind, extension, equation, circle_radius=None):
    """A row of the table, named by its first four fields."""
    return pytest.param(c, r2, kind, extension, equation, circle_radius, id=f"{c}-{r2}-{kind}-{extension}")


# The levels around the band |r2| <= EPS_NULL: its edges, the floats just
# outside them, -0.0 and the smallest subnormals.
EPS_UP = math.nextafter(EPS_NULL, math.inf)
TINY = 5e-324
# The edges of the band |c| <= EPS_ANGLE, where c is read as 0, and the
# floats just outside them.
ANGLE_UP = math.nextafter(EPS_ANGLE, math.inf)
# Equations that several rows share.
AXES = "x = 0 ; y = 0*x"
SINGLE_LINE = f"y = {SQRT2!r}*x"
# The first slope is 1.07 ulps from the exact root of the printed
# coefficients (mpmath at 200 bits); the textbook (-B + sqrt(D))/(2C) read
# -0.4088817310696624, 2.93 ulps off.
LINE_PAIR_AT_HALF = "y = -0.4088817310696622*x ; y = 7.337084961345173*x"
FORM_AT_HALF = "0.5*x^2 + 1.1547005383792517*xy - 0.16666666666666666*y^2"
FORM_AT_MINUS_04 = "-0.4*x^2 + 0.3055050463303893*xy - 0.2666666666666667*y^2"
FORM_PAST_EPS_ANGLE = "1.0000000000000003e-09*x^2 + 1.0000000009999999*xy - 9.999999990000004e-19*y^2"
FORM_PAST_MINUS_EPS_ANGLE = "-1.0000000000000003e-09*x^2 + 0.999999999*xy - 1.0000000010000005e-18*y^2"


@pytest.mark.parametrize(
    "c,r2,kind,extension,equation,circle_radius",
    [
        conic_row(0.5, 1.5, ConicClass.HYPERBOLA, False, f"{FORM_AT_HALF} = 0.75"),
        conic_row(0.0, -2.0, ConicClass.HYPERBOLA, False, "xy = -1"),
        conic_row(0.9, 1e-3, ConicClass.HYPERBOLA, False,
                  "0.9*x^2 + 0.6423640548375729*xy - 0.42631578947368426*y^2 = 0.0005"),
        conic_row(0.5, 0.0, ConicClass.INTERSECTING_LINES, True, LINE_PAIR_AT_HALF),
        conic_row(0.0, 0.0, ConicClass.INTERSECTING_LINES, True, AXES),
        conic_row(THIRD, 1.0, ConicClass.NO_REAL_POINTS, False, "(sqrt(2)*x - y)^2 = -3"),
        conic_row(THIRD, 0.0, ConicClass.SINGLE_LINE, False, SINGLE_LINE),
        conic_row(THIRD, -1.0, ConicClass.PARALLEL_LINES, False, "sqrt(2)*x - y = ±1.7320508075688772"),
        conic_row(-0.4, -1.0, ConicClass.ELLIPSE, False, f"{FORM_AT_MINUS_04} = -0.5"),
        conic_row(-0.4, 0.0, ConicClass.POINT, True, "x = y = 0"),
        conic_row(-0.4, 1.0, ConicClass.NO_REAL_POINTS, True, f"{FORM_AT_MINUS_04} = 0.5"),
        conic_row(-0.5, -1.0, ConicClass.CIRCLE, False, "x^2+y^2 = 1", 1.0),
        conic_row(-0.5, 0.0, ConicClass.POINT, False, "x^2+y^2 = 0"),
        conic_row(-0.5, 1.0, ConicClass.NO_REAL_POINTS, False, "x^2+y^2 = -1"),
        # c = -1/2
        conic_row(-0.5, EPS_NULL, ConicClass.POINT, False, "x^2+y^2 = -1e-09"),
        conic_row(-0.5, -EPS_NULL, ConicClass.POINT, False, "x^2+y^2 = 1e-09"),
        conic_row(-0.5, EPS_UP, ConicClass.NO_REAL_POINTS, False, "x^2+y^2 = -1.0000000000000003e-09"),
        conic_row(-0.5, -EPS_UP, ConicClass.CIRCLE, False, "x^2+y^2 = 1.0000000000000003e-09", 3.1622776601683795e-05),
        conic_row(-0.5, -0.0, ConicClass.POINT, False, "x^2+y^2 = 0"),
        conic_row(-0.5, TINY, ConicClass.POINT, False, "x^2+y^2 = -5e-324"),
        conic_row(-0.5, -TINY, ConicClass.POINT, False, "x^2+y^2 = 5e-324"),
        # c = -1/3, where D = 0
        conic_row(THIRD, EPS_NULL, ConicClass.SINGLE_LINE, False, SINGLE_LINE),
        conic_row(THIRD, -EPS_NULL, ConicClass.SINGLE_LINE, False, SINGLE_LINE),
        conic_row(THIRD, EPS_UP, ConicClass.NO_REAL_POINTS, False, "(sqrt(2)*x - y)^2 = -3.000000000000001e-09"),
        conic_row(THIRD, -EPS_UP, ConicClass.PARALLEL_LINES, False, "sqrt(2)*x - y = ±5.477225575051662e-05"),
        conic_row(THIRD, -0.0, ConicClass.SINGLE_LINE, False, SINGLE_LINE),
        conic_row(THIRD, TINY, ConicClass.SINGLE_LINE, False, SINGLE_LINE),
        conic_row(THIRD, -TINY, ConicClass.SINGLE_LINE, False, SINGLE_LINE),
        # D > 0
        conic_row(0.5, EPS_NULL, ConicClass.INTERSECTING_LINES, True, LINE_PAIR_AT_HALF),
        conic_row(0.5, -EPS_NULL, ConicClass.INTERSECTING_LINES, True, LINE_PAIR_AT_HALF),
        conic_row(0.5, EPS_UP, ConicClass.HYPERBOLA, False, f"{FORM_AT_HALF} = 5.000000000000001e-10"),
        conic_row(0.5, -EPS_UP, ConicClass.HYPERBOLA, False, f"{FORM_AT_HALF} = -5.000000000000001e-10"),
        conic_row(0.5, -0.0, ConicClass.INTERSECTING_LINES, True, LINE_PAIR_AT_HALF),
        conic_row(0.5, TINY, ConicClass.INTERSECTING_LINES, True, LINE_PAIR_AT_HALF),
        conic_row(0.5, -TINY, ConicClass.INTERSECTING_LINES, True, LINE_PAIR_AT_HALF),
        # D < 0
        conic_row(-0.4, EPS_NULL, ConicClass.POINT, True, "x = y = 0"),
        conic_row(-0.4, -EPS_NULL, ConicClass.POINT, True, "x = y = 0"),
        conic_row(-0.4, EPS_UP, ConicClass.NO_REAL_POINTS, True, f"{FORM_AT_MINUS_04} = 5.000000000000001e-10"),
        conic_row(-0.4, -EPS_UP, ConicClass.ELLIPSE, False, f"{FORM_AT_MINUS_04} = -5.000000000000001e-10"),
        conic_row(-0.4, -0.0, ConicClass.POINT, True, "x = y = 0"),
        conic_row(-0.4, TINY, ConicClass.POINT, True, "x = y = 0"),
        conic_row(-0.4, -TINY, ConicClass.POINT, True, "x = y = 0"),
        # c = 0 within EPS_ANGLE, and just past it
        conic_row(EPS_ANGLE, 0.0, ConicClass.INTERSECTING_LINES, True, AXES),
        conic_row(EPS_ANGLE, 1.0, ConicClass.HYPERBOLA, False, "xy = 0.5"),
        conic_row(EPS_ANGLE, -1.0, ConicClass.HYPERBOLA, False, "xy = -0.5"),
        conic_row(-EPS_ANGLE, 0.0, ConicClass.INTERSECTING_LINES, True, AXES),
        conic_row(-EPS_ANGLE, 1.0, ConicClass.HYPERBOLA, False, "xy = 0.5"),
        conic_row(-EPS_ANGLE, -1.0, ConicClass.HYPERBOLA, False, "xy = -0.5"),
        conic_row(ANGLE_UP, 0.0, ConicClass.INTERSECTING_LINES, True,
                  "y = -9.999999990000003e-10*x ; y = 1.0000000019999995e+18*x"),
        conic_row(ANGLE_UP, 1.0, ConicClass.HYPERBOLA, False, f"{FORM_PAST_EPS_ANGLE} = 0.5"),
        conic_row(ANGLE_UP, -1.0, ConicClass.HYPERBOLA, False, f"{FORM_PAST_EPS_ANGLE} = -0.5"),
        conic_row(-ANGLE_UP, 0.0, ConicClass.INTERSECTING_LINES, True,
                  "y = 1.0000000010000002e-09*x ; y = 9.999999979999995e+17*x"),
        conic_row(-ANGLE_UP, 1.0, ConicClass.HYPERBOLA, False, f"{FORM_PAST_MINUS_EPS_ANGLE} = 0.5"),
        conic_row(-ANGLE_UP, -1.0, ConicClass.HYPERBOLA, False, f"{FORM_PAST_MINUS_EPS_ANGLE} = -0.5"),
    ],
)
def test_classification_table(c, r2, kind, extension, equation, circle_radius):
    result = classify_conic(ConicSpec(c, r2))
    assert result.kind is kind
    assert result.extension is extension
    assert result.equation == equation
    assert result.circle_radius == circle_radius


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


def _slope_ulps(c):
    """Distance in ulps of each printed slope at r2 = 0 from the exact root of
    the printed coefficients, (-B + sqrt(D))/(2C) and (-B - sqrt(D))/(2C)."""
    k = conic_coefficients(ConicSpec(c, 0.0))
    slopes = [float(part.strip()[4:-2]) for part in classify_conic(ConicSpec(c, 0.0)).equation.split(";")]
    with mpmath.workprec(200):
        A, B, C = (mpmath.mpf(v) for v in (k.A, k.B, k.C))
        root = mpmath.sqrt(B * B - 4 * A * C)
        exact = ((-B + root) / (2 * C), (-B - root) / (2 * C))
        return [float(abs(m - e)) / math.ulp(float(e)) for m, e in zip(slopes, exact)]


# (-1/3, -0.3) is left out: as D -> 0, B^2 - 4AC cancels and both slopes
# read hundreds of ulps off (658 at c = -1/3 + 2e-9).
@pytest.mark.parametrize("lo,hi", [(ANGLE_UP, COS_PHI_MAX), (-ANGLE_UP, -0.3)])
def test_line_pair_slopes_within_2_ulps(lo, hi):
    # The textbook first slope (-B + sqrt(D))/(2C) cancels as c -> 0: it
    # reads 2e16 ulps off at c = 3e-6.
    for c in np.geomspace(lo, hi, 300):
        assert max(_slope_ulps(float(c))) <= 2.0, c


ANGLE_EDGES = [-0.5 + 1.0000001e-9, THIRD - 1.0000001e-9, THIRD + 1.0000001e-9, -ANGLE_UP, ANGLE_UP, COS_PHI_MAX]


@settings(max_examples=300, deadline=None)
@given(
    c=st.floats(-0.5, THIRD) | st.floats(THIRD, COS_PHI_MAX) | st.sampled_from(ANGLE_EDGES),
    r2=st.floats(EPS_UP, 1e307),
    negative=st.booleans(),
)
def test_general_equation_has_fixed_signs(c, r2, negative):
    # The printer writes "A*x^2 + B*xy - (-C)*y^2": it is reached exactly
    # away from c ~ -1/2, -1/3 and 0, with r2 off the band, in both the
    # D > 0 and the D < 0 region, and there A != 0, B > 0 and C < 0.
    with mock.patch.object(conics, "_general_equation", wraps=conics._general_equation) as printer:
        classify_conic(ConicSpec(c, -r2 if negative else r2))
    away = min(abs(c + 0.5), abs(c - THIRD), abs(c)) > EPS_ANGLE
    assert printer.call_count == away
    for call in printer.call_args_list:
        k = call.args[0]
        assert k.A != 0.0 and k.B > 0.0 and k.C < 0.0


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
