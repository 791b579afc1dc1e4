"""Rotation, quadric classification, cone-sphere circles, mesh sampling."""

import math
import sys
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circgeo import quadrics
from circgeo import (
    EPS_NULL,
    ROTATION,
    BadSampleCountsError,
    CausalCharacter,
    CirculantMetric,
    GeometryError,
    QuadricClass,
    QuadricSpec,
    basis_heads_primed,
    classify_quadric,
    cone_sphere_intersection,
    f_inner,
    from_primed,
    mesh_profile,
    primed_form_value,
    quadric_equation,
    radius_vector_character,
    sample_quadric,
    sphere_form_value,
    to_primed,
)
from circgeo.oracle import random_vector
from circgeo.quadrics import _unit_circle


def test_sphere_form_values():
    assert sphere_form_value([1, 1, 1]) == 6.0
    assert sphere_form_value([1, 0, 0]) == 0.0
    v = [1.0 / math.sqrt(2.0), 0.0, -1.0 / math.sqrt(2.0)]
    value = sphere_form_value(v)
    assert value == pytest.approx(-1.0, abs=1e-15)
    # Same number as the associated form under the metric whose standard
    # basis is already orthonormal.
    assert abs(f_inner(CirculantMetric(1.0, 0.0), v, v) - value) <= 1e-12


def test_rotation_matrix_shape():
    assert np.max(np.abs(ROTATION.T @ ROTATION - np.eye(3))) <= 1e-15
    assert abs(np.linalg.det(ROTATION) - 1.0) <= 1e-15


def test_rotation_congruence():
    coeff = np.ones((3, 3)) - np.eye(3)
    target = np.diag([-1.0, -1.0, 2.0])
    assert np.max(np.abs(ROTATION.T @ coeff @ ROTATION - target)) <= 1e-14


def test_primed_transform_frozen_values():
    expected = np.array(
        [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(6.0), 1.0 / math.sqrt(3.0)]
    )
    assert np.max(np.abs(to_primed([1, 0, 0]) - expected)) <= 1e-15
    assert np.max(np.abs(from_primed([0, 0, math.sqrt(3.0)]) - 1.0)) <= 1e-15


def test_primed_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(500):
        v = random_vector(rng)
        assert np.max(np.abs(to_primed(from_primed(v)) - v)) <= 1e-14
        assert np.max(np.abs(from_primed(to_primed(v)) - v)) <= 1e-14


def test_primed_form_values():
    assert primed_form_value([0, 0, 1]) == 2.0
    assert primed_form_value([1, 0, 0]) == -1.0
    assert primed_form_value([1, 1, 1]) == 0.0


def test_form_transport():
    rng = np.random.default_rng(29)
    for _ in range(1000):
        v = random_vector(rng)
        value = sphere_form_value(v)
        assert abs(primed_form_value(to_primed(v)) - value) <= 1e-12 * (1.0 + abs(value))


def test_form_values_broadcast():
    v = random_vector(np.random.default_rng(31), 20)
    primed = to_primed(v)
    assert primed.shape == (20, 3)
    assert np.max(np.abs(from_primed(primed) - v)) <= 1e-14
    for i in range(20):
        assert np.max(np.abs(primed[i] - to_primed(v[i]))) == 0.0
        assert sphere_form_value(v)[i] == sphere_form_value(v[i])
        assert primed_form_value(primed)[i] == primed_form_value(primed[i])


_ROWS_AND_STACK = """
import numpy as np
from circgeo.oracle import random_vector
from circgeo.quadrics import to_primed
v = random_vector(np.random.default_rng(31), 20)
primed = to_primed(v)
assert all(np.array_equal(primed[i], to_primed(v[i])) for i in range(20))
print(primed.tobytes().hex())
"""


def test_form_values_broadcast_on_other_blas_kernels(run_python, blas_kernel):
    # Row by row and as a stack, on another kernel, to the bytes of this process.
    result = run_python("-c", _ROWS_AND_STACK, env={"OPENBLAS_CORETYPE": blas_kernel})
    assert result.returncode == 0, result.stderr
    expected = to_primed(random_vector(np.random.default_rng(31), 20))
    assert result.stdout == expected.tobytes().hex() + "\n"


EPS_UP = math.nextafter(EPS_NULL, math.inf)


@pytest.mark.parametrize(
    "r2,kind,character,equation",
    [
        (0.0, QuadricClass.CONE, CausalCharacter.NULL, "x'^2+y'^2-2z'^2 = 0"),
        (2.0, QuadricClass.TWO_SHEETS, CausalCharacter.SPACELIKE, "x'^2+y'^2-2z'^2 = -2"),
        (-1.0, QuadricClass.ONE_SHEET, CausalCharacter.TIMELIKE, "x'^2+y'^2-2z'^2 = 1"),
        # The band |r2| <= EPS_NULL: its edges, the floats just outside them,
        # -0.0 and the smallest subnormals.
        (EPS_NULL, QuadricClass.CONE, CausalCharacter.NULL, "x'^2+y'^2-2z'^2 = -1e-09"),
        (-EPS_NULL, QuadricClass.CONE, CausalCharacter.NULL, "x'^2+y'^2-2z'^2 = 1e-09"),
        (EPS_UP, QuadricClass.TWO_SHEETS, CausalCharacter.SPACELIKE, "x'^2+y'^2-2z'^2 = -1.0000000000000003e-09"),
        (-EPS_UP, QuadricClass.ONE_SHEET, CausalCharacter.TIMELIKE, "x'^2+y'^2-2z'^2 = 1.0000000000000003e-09"),
        (-0.0, QuadricClass.CONE, CausalCharacter.NULL, "x'^2+y'^2-2z'^2 = 0"),
        (5e-324, QuadricClass.CONE, CausalCharacter.NULL, "x'^2+y'^2-2z'^2 = -5e-324"),
        (-5e-324, QuadricClass.CONE, CausalCharacter.NULL, "x'^2+y'^2-2z'^2 = 5e-324"),
    ],
)
def test_quadric_classification(r2, kind, character, equation):
    spec = QuadricSpec(r2)
    assert classify_quadric(spec) is kind
    assert radius_vector_character(spec) is character
    assert quadric_equation(spec) == equation


def test_cone_sphere_intersection_constants():
    circle = cone_sphere_intersection()
    assert abs(circle.radius_sq - 2.0 / 3.0) <= 1e-15
    assert abs(circle.z_planes[0] - 1.0 / math.sqrt(3.0)) <= 1e-15
    assert abs(circle.z_planes[1] + 1.0 / math.sqrt(3.0)) <= 1e-15


def test_basis_heads_on_circles():
    heads = basis_heads_primed()
    expected_first = np.array(
        [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(6.0), 1.0 / math.sqrt(3.0)]
    )
    expected_second = np.array([0.0, 2.0 / math.sqrt(6.0), 1.0 / math.sqrt(3.0)])
    assert np.max(np.abs(heads[0] - expected_first)) <= 1e-15
    assert np.max(np.abs(heads[1] - expected_second)) <= 1e-15
    for head in heads:
        x, y, z = head
        assert abs(x * x + y * y - 2.0 / 3.0) <= 1e-12
        assert abs(z - 1.0 / math.sqrt(3.0)) <= 1e-12
        # On the cone and on the unit sphere simultaneously.
        assert abs(x * x + y * y - 2.0 * z * z) <= 1e-12
        assert abs(x * x + y * y + z * z - 1.0) <= 1e-12


# ---------------------------------------------------------------- meshes


def _on_surface(vertices, r2, tol=1e-9):
    x, y, z = vertices[:, 0], vertices[:, 1], vertices[:, 2]
    return np.max(np.abs(x * x + y * y - 2.0 * z * z + r2)) <= tol * (1.0 + abs(r2))


@pytest.mark.parametrize("r2", [0.0, 2.0, -1.0, 7.5, -0.3, 1e-3, -123.0])
def test_mesh_vertices_on_surface(r2):
    assert _on_surface(sample_quadric(QuadricSpec(r2), 9, 16), r2)


def test_mesh_counts_and_branch_order():
    n_s, n_theta = 6, 8
    cone = sample_quadric(QuadricSpec(0.0), n_s, n_theta)
    assert cone.shape == (2 * n_s * n_theta, 3)
    assert np.all(cone[: n_s * n_theta, 2] >= 0.0)
    assert np.all(cone[n_s * n_theta :, 2] <= 0.0)

    two = sample_quadric(QuadricSpec(2.0), n_s, n_theta)
    assert two.shape == (2 * n_s * n_theta, 3)
    assert np.all(two[: n_s * n_theta, 2] > 0.0)
    assert np.all(two[n_s * n_theta :, 2] < 0.0)

    one = sample_quadric(QuadricSpec(-1.0), n_s, n_theta)
    assert one.shape == (n_s * n_theta, 3)


def test_mesh_cone_apex_per_branch():
    n_s, n_theta = 4, 6
    cone = sample_quadric(QuadricSpec(0.0), n_s, n_theta)
    assert np.array_equal(cone[:n_theta], np.zeros((n_theta, 3)))
    assert np.array_equal(cone[n_s * n_theta : n_s * n_theta + n_theta], np.zeros((n_theta, 3)))


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 16, 512, 777, 1000, 1001, 1024])
def test_unit_circle_exact_symmetries(n):
    cos, sin = _unit_circle(n)
    j = np.arange(n)
    # The reflection j <-> n - j, for every n.
    assert np.array_equal(cos, cos[-j % n]) and np.array_equal(sin, -sin[-j % n])
    assert (cos[0], sin[0]) == (1.0, 0.0)
    if n % 2 == 0:  # the half turn
        assert np.array_equal(cos, -np.roll(cos, n // 2)) and np.array_equal(sin, -np.roll(sin, n // 2))
        assert sin[n // 2] == 0.0
    if n % 4 == 0:  # the quarter turn
        assert np.array_equal(sin, np.roll(cos, n // 4))
        assert cos[n // 4] == cos[3 * n // 4] == 0.0
    if n % 8 == 0:  # pi/4, where np.cos and np.sin differ by 1 ulp
        assert cos[n // 8] == sin[n // 8]
    # A table of np.cos and np.sin of linspace angles reads up to 9.1e-16 here.
    with mpmath.workdps(50):
        angles = [2 * mpmath.pi * k / n for k in range(n)]
        error = max(max(abs(mpmath.cos(t) - c), abs(mpmath.sin(t) - s)) for t, c, s in zip(angles, cos, sin))
    assert error <= 2.0**-52


def _ulps(got, exact):
    return float(abs(mpmath.mpf(got) - exact)) / math.ulp(float(exact))


def test_mesh_libm_values_within_ulps_of_mpmath():
    # The mesh digests pin this platform's libm cos, sin, sinh and cosh; this
    # bounds how far they may lie from the exact values. Exact zeros of cos
    # and sin (quarter and half turns) must be exact zeros in the table.
    worst_circle = 0.0
    with mpmath.workprec(80):
        for n in (3, 4, 5, 7, 8, 9, 12, 16, 64, 100, 511, 512, 777, 1000, 1001, 1023, 1024, 4097):
            for j, (c, s) in enumerate(zip(*_unit_circle(n))):
                turns = mpmath.mpf(2 * j) / n  # 2*pi*j/n in units of pi
                for got, zero, exact in ((c, 4 * j % n == 0 and 4 * j // n % 2 == 1, mpmath.cospi),
                                         (s, 2 * j % n == 0, mpmath.sinpi)):
                    if zero:
                        assert got == 0.0, (n, j)
                    else:
                        worst_circle = max(worst_circle, _ulps(got, exact(turns)))
    # 2.30 at n = 4097: the folded argument (pi/2)(k/n) is rounded before
    # cos and sin see it, and that rounding is IEEE and the same everywhere.
    assert worst_circle <= 3.0
    # sinh and cosh at the float profile parameters s of the pinned meshes.
    with mock.patch.object(quadrics, "_math_map", wraps=quadrics._math_map) as math_map:
        for r2, rows in ((2.5, (2, 33, 64, 4000)), (-1.0, (2, 64, 65, 301))):
            for n_s in rows:
                mesh_profile(QuadricSpec(r2), n_s, 3)
    worst_profile = 0.0
    with mpmath.workprec(80):
        for call in math_map.call_args_list:
            fn, s = call.args
            exact = {math.sinh: mpmath.sinh, math.cosh: mpmath.cosh}.get(fn)
            if exact is None:  # the angle table of mesh_profile's three columns
                continue
            for t in s.tolist():
                if t == 0.0 and fn is math.sinh:
                    assert fn(t) == 0.0
                else:
                    worst_profile = max(worst_profile, _ulps(fn(t), exact(t)))
    assert 0.0 < worst_profile <= 2.0  # 1.56 here


def test_unit_circle_memory_per_angle():
    # A two-row mesh is all angle table. Tables of cos and sin over the
    # n // 2 + 1 folded numerators, gathered and signed in place, read ~56 B
    # per angle here; four stacked arrays picked with np.choose read ~97.
    n = 200_003
    mesh_profile(QuadricSpec(2.5), 2, 3)
    tracemalloc.start()
    try:
        mesh_profile(QuadricSpec(2.5), 2, n)
        per_angle = tracemalloc.get_traced_memory()[1] / n
    finally:
        tracemalloc.stop()
    assert per_angle < 72, per_angle


def test_mesh_one_sheet_waist_row():
    # Odd row count puts s = 0 exactly in the middle; theta = 0 is column 0.
    verts = sample_quadric(QuadricSpec(-1.0), 5, 8)
    mid = 2 * 8
    assert np.max(np.abs(verts[mid] - np.array([1.0, 0.0, 0.0]))) <= 1e-15


def test_mesh_two_sheet_poles():
    n_s, n_theta = 5, 8
    verts = sample_quadric(QuadricSpec(2.0), n_s, n_theta)
    assert np.max(np.abs(verts[0] - np.array([0.0, 0.0, 1.0]))) <= 1e-15
    assert np.max(np.abs(verts[n_s * n_theta] - np.array([0.0, 0.0, -1.0]))) <= 1e-15


def test_mesh_extent_override():
    verts = sample_quadric(QuadricSpec(0.0), 4, 6, extent=10.0)
    radius = np.hypot(verts[:, 0], verts[:, 1])
    assert radius.max() == pytest.approx(10.0, abs=1e-12)


def test_mesh_bad_sample_counts():
    with pytest.raises(BadSampleCountsError):
        sample_quadric(QuadricSpec(1.0), 1, 8)
    with pytest.raises(BadSampleCountsError):
        sample_quadric(QuadricSpec(1.0), 4, 2)
    with pytest.raises(BadSampleCountsError, match="too large to address"):
        sample_quadric(QuadricSpec(1.0), 2, 2**63 - 1)  # numpy returned an empty mesh


@pytest.mark.parametrize("r2", [1e-8, -1e-8])
def test_mesh_extent_overflow_raises(r2):
    # extent / sqrt(|r2|) overflows, which would put nan and inf in the mesh.
    with pytest.raises(GeometryError, match="extent"):
        sample_quadric(QuadricSpec(r2), 2, 3, extent=1e308)


_DBL_MAX = sys.float_info.max
# Any magnitude from the smallest subnormal to the largest float.
_MAGNITUDES = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 1024))


@settings(max_examples=300, deadline=None)
@given(
    r2=st.builds(math.copysign, _MAGNITUDES, st.sampled_from([1.0, -1.0])) | st.just(0.0),
    t_max=_MAGNITUDES.filter(lambda t: t > 0.0)
    | st.sampled_from([_DBL_MAX, math.nextafter(_DBL_MAX, 0.0), math.nextafter(math.nextafter(_DBL_MAX, 0.0), 0.0)]),
    n_s=st.integers(2, 5),
    n_theta=st.integers(3, 5),
)
@example(r2=1.2455470671072877, t_max=_DBL_MAX, n_s=2, n_theta=3)  # wrote inf and nan vertices
@example(r2=0.0, t_max=_DBL_MAX, n_s=64, n_theta=8)  # linspace warned of an overflow
def test_mesh_is_finite_or_rejected(r2, t_max, n_s, n_theta):
    # A numpy RuntimeWarning fails the test too (pyproject.toml).
    try:
        vertices = sample_quadric(QuadricSpec(r2), n_s, n_theta, t_max)
    except GeometryError:
        return
    assert np.isfinite(vertices).all()
