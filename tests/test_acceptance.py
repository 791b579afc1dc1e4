"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math

import numpy as np

from circgeo import (
    PHI_MAX,
    PHI_MIN,
    CausalCharacter,
    CirculantMetric,
    ConicClass,
    ConicSpec,
    QuadricClass,
    QuadricSpec,
    ROTATION,
    basis_heads_primed,
    causal_character,
    classify_conic,
    classify_quadric,
    companion_w,
    cone_sphere_intersection,
    conic_coefficients,
    cos_phi,
    degenerate_expansion_check,
    discriminant,
    discriminant_closed_form,
    f_inner,
    g_inner,
    gram_matrix,
    orthonormal_q_basis,
    plane_f_values,
    primed_form_value,
    q_apply,
    quadric_equation,
    radius_vector_character,
    sphere_form_value,
    to_primed,
)
from circgeo.oracle import random_metric, random_vector

AXIS = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
SEED_DIR = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
IDENTITY = CirculantMetric(1.0, 0.0)


def report(number, name, ok):
    print(f"criterion {number:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def vector_with_cos(c):
    """Realize a prescribed shift-angle cosine against the identity metric."""
    beta = math.sqrt(2.0 * (1.0 - c) / (1.0 + 2.0 * c))
    return AXIS + beta * SEED_DIR


def test_criterion_01_isometry():
    rng = np.random.default_rng(1001)
    ok = True
    for _ in range(1000):
        m = random_metric(rng)
        u, v = random_vector(rng), random_vector(rng)
        guv = g_inner(m, u, v)
        ok &= abs(g_inner(m, q_apply(u), q_apply(v)) - guv) <= 1e-12 * (1.0 + abs(guv))
    report(1, "isometry under the shift", ok)


def test_criterion_02_associated_metric_identities():
    rng = np.random.default_rng(1002)
    ok = True
    for _ in range(1000):
        m = random_metric(rng)
        u = random_vector(rng)
        diag = 2.0 * g_inner(m, u, q_apply(u))
        ok &= abs(f_inner(m, u, u) - diag) <= 1e-12 * (1.0 + abs(diag))
        pair = g_inner(m, u, u) + g_inner(m, u, q_apply(u))
        ok &= abs(f_inner(m, u, q_apply(u)) - pair) <= 1e-12 * (1.0 + abs(pair))
    report(2, "associated-form identities", ok)


def test_criterion_03_angle_range():
    rng = np.random.default_rng(1003)
    ok = True
    for _ in range(10_000):
        c = cos_phi(random_metric(rng), random_vector(rng))
        ok &= -0.5 - 1e-12 <= c <= 1.0 + 1e-12
    report(3, "shift-angle cosine range", ok)


def test_criterion_04_causal_trichotomy():
    expected = {
        0.5: CausalCharacter.SPACELIKE,
        0.0: CausalCharacter.NULL,
        -0.4: CausalCharacter.TIMELIKE,
    }
    ok = True
    for c, char in expected.items():
        u = vector_with_cos(c)
        ok &= causal_character(IDENTITY, u) is char
        qu = q_apply(u)
        ok &= causal_character(IDENTITY, qu) is char
        ok &= causal_character(IDENTITY, q_apply(qu)) is char
    report(4, "causal trichotomy and shift preservation", ok)


def test_criterion_05_rotation():
    ok = np.max(np.abs(ROTATION.T @ ROTATION - np.eye(3))) <= 1e-15
    ok &= abs(float(np.linalg.det(ROTATION)) - 1.0) <= 1e-15
    coeff = np.ones((3, 3)) - np.eye(3)
    ok &= np.max(np.abs(ROTATION.T @ coeff @ ROTATION - np.diag([-1.0, -1.0, 2.0]))) <= 1e-14
    rng = np.random.default_rng(1005)
    for _ in range(1000):
        v = random_vector(rng)
        value = sphere_form_value(v)
        ok &= abs(primed_form_value(to_primed(v)) - value) <= 1e-12 * (1.0 + abs(value))
    report(5, "rotation orthogonality, congruence, form transport", ok)


def test_criterion_06_quadric_classification(run_main):
    table = {
        2.0: (QuadricClass.TWO_SHEETS, CausalCharacter.SPACELIKE, "x'^2+y'^2-2z'^2 = -2"),
        0.0: (QuadricClass.CONE, CausalCharacter.NULL, "x'^2+y'^2-2z'^2 = 0"),
        -1.0: (QuadricClass.ONE_SHEET, CausalCharacter.TIMELIKE, "x'^2+y'^2-2z'^2 = 1"),
    }
    ok = True
    for r2, (kind, char, equation) in table.items():
        spec = QuadricSpec(r2)
        ok &= classify_quadric(spec) is kind
        ok &= radius_vector_character(spec) is char
        ok &= quadric_equation(spec) == equation
        cli = run_main("quadric", "--r2", repr(r2))
        ok &= cli.returncode == 0 and equation in cli.stdout
    report(6, "quadric classes, equations, radius characters", ok)


def test_criterion_07_cone_sphere_circles():
    circle = cone_sphere_intersection()
    ok = abs(circle.radius_sq - 2.0 / 3.0) <= 1e-15
    ok &= abs(circle.z_planes[0] - 1.0 / math.sqrt(3.0)) <= 1e-15
    ok &= abs(circle.z_planes[1] + 1.0 / math.sqrt(3.0)) <= 1e-15
    for head in basis_heads_primed():
        x, y, z = head
        ok &= abs(x * x + y * y - 2.0 / 3.0) <= 1e-12
        ok &= abs(z - 1.0 / math.sqrt(3.0)) <= 1e-12
    report(7, "cone and unit-sphere intersection circles", ok)


def test_criterion_08_orthonormal_basis():
    rng = np.random.default_rng(1008)
    ok = True
    for _ in range(100):
        m = random_metric(rng)
        basis = orthonormal_q_basis(m)
        ok &= np.max(np.abs(gram_matrix(m, basis.vectors()) - np.eye(3))) <= 1e-10
        for v in basis.vectors():
            ok &= causal_character(m, v) is CausalCharacter.NULL
    report(8, "orthonormal shift basis Gram identity and null heads", ok)


def test_criterion_09_companion_vector():
    grid = np.linspace(PHI_MIN, PHI_MAX, 202)[1:-1]  # 200 interior angles
    ok = True
    for phi in grid:
        u = vector_with_cos(math.cos(phi))
        frame = companion_w(IDENTITY, u)
        ok &= abs(g_inner(IDENTITY, frame.u, frame.w)) <= 1e-12
        ok &= abs(g_inner(IDENTITY, frame.w, frame.w) - 1.0) <= 1e-12
    report(9, "companion vector orthonormality on the angle grid", ok)


def test_criterion_10_conic_pipeline():
    ok = True
    for phi in np.linspace(PHI_MIN, PHI_MAX, 202)[1:-1]:
        c = float(np.cos(phi))
        f_uu, f_uw, f_ww = plane_f_values(c)
        k = conic_coefficients(ConicSpec(c, 1.0))
        ok &= abs(f_uu - 2.0 * k.A) <= 1e-12 * (1.0 + abs(f_uu))
        ok &= abs(f_uw - k.B) <= 1e-12 * (1.0 + abs(f_uw))
        ok &= abs(f_ww - 2.0 * k.C) <= 1e-12 * (1.0 + abs(f_ww))
    k0 = conic_coefficients(ConicSpec(0.0, 1.0))
    ok &= (k0.A, k0.B, k0.C) == (0.0, 1.0, 0.0)
    ok &= classify_conic(ConicSpec(0.0, 1.0)).equation == "xy = 0.5"
    k_circle = conic_coefficients(ConicSpec(-0.5, -1.0))
    ok &= (k_circle.A, k_circle.B, k_circle.C) == (-0.5, 0.0, -0.5)
    ok &= classify_conic(ConicSpec(-0.5, -1.0)).equation == "x^2+y^2 = 1"
    report(10, "conic coefficients against the frame form values", ok)


def test_criterion_11_discriminant():
    ok = True
    for phi in np.linspace(PHI_MIN, PHI_MAX, 1002)[1:-1]:
        c = float(np.cos(phi))
        d = discriminant(ConicSpec(c, 0.0))
        ok &= abs(d - discriminant_closed_form(c)) <= 1e-10
        if abs(1.0 + 3.0 * c) > 1e-9:
            ok &= np.sign(d) == np.sign((1.0 + 3.0 * c) / (1.0 - c))
    ok &= abs(discriminant(ConicSpec(0.0, 0.0)) - 1.0) <= 1e-10
    ok &= abs(discriminant(ConicSpec(-1.0 / 3.0, 0.0))) <= 1e-10
    ok &= abs(discriminant(ConicSpec(-0.5, 0.0)) + 1.0) <= 1e-10
    report(11, "discriminant closed form, sign agreement, checkpoints", ok)


def test_criterion_12_degenerate_angle():
    third = -1.0 / 3.0
    expected = {
        1.0: ConicClass.NO_REAL_POINTS,
        0.0: ConicClass.SINGLE_LINE,
        -1.0: ConicClass.PARALLEL_LINES,
    }
    ok = True
    for r2, kind in expected.items():
        spec = ConicSpec(third, r2)
        ok &= degenerate_expansion_check(spec) <= 1e-12
        ok &= classify_conic(spec).kind is kind
    report(12, "degenerate-angle expansion and classes", ok)


def test_criterion_13_largest_angle_cases():
    expected = {
        1.0: ConicClass.NO_REAL_POINTS,
        0.0: ConicClass.POINT,
        -1.0: ConicClass.CIRCLE,
    }
    ok = True
    for r2, kind in expected.items():
        result = classify_conic(ConicSpec(-0.5, r2))
        ok &= result.kind is kind
        if kind is ConicClass.CIRCLE:
            ok &= result.circle_radius == 1.0
    k = conic_coefficients(ConicSpec(-0.5, -1.0))
    for t in np.linspace(0.0, 2.0 * math.pi, 64):
        x, y = math.cos(t), math.sin(t)
        ok &= abs(k.A * x * x + k.B * x * y + k.C * y * y - k.rhs) <= 1e-12
    report(13, "largest-angle circle, point and empty cases", ok)


def test_criterion_14_cli_determinism_and_formats(tmp_path, run_main):
    ok = True
    # Batch: 5 rows in, 5 rows out, order preserved.
    csv = tmp_path / "batch.csv"
    out = tmp_path / "report.txt"
    csv.write_text("x,y,z\n1,2,3\n4,5,6\n1,0,0\n1,-1,0\n2,2,2\n", encoding="utf-8")
    batch = run_main("classify-batch", "--metric", "1,0", "--input", str(csv), "--output", str(out))
    ok &= batch.returncode == 0
    rows = [line for line in out.read_text(encoding="utf-8").splitlines() if line.startswith("row ")]
    ok &= len(rows) == 5
    ok &= all(f"index={i} " in row for i, row in enumerate(rows))
    # Verification runs are byte-identical and green.
    first = run_main("verify", "--seed", "42", "--trials", "1000")
    second = run_main("verify", "--seed", "42", "--trials", "1000")
    ok &= first.returncode == 0 and second.returncode == 0
    ok &= first.stdout == second.stdout
    # Malformed CSV names the offending line and exits 2.
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y,z\n1,2,3\nbroken,row\n", encoding="utf-8")
    failed = run_main("classify-batch", "--metric", "1,0", "--input", str(bad), "--output", str(out))
    ok &= failed.returncode == 2 and "line 3" in failed.stderr
    report(14, "CLI batch order, verify determinism, error reporting", ok)
