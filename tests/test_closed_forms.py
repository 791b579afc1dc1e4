"""Exact proofs, in sympy, of the closed forms the float tests and the oracle only sample.

Each proof restates the formula the code implements, proves the identity
symbolically, and then checks that the code's floats agree with the exact
expression, so the proof is tied to the implementation it vouches for.
"""

import math

import numpy as np
import sympy as sp

from circgeo import (
    ROTATION,
    CirculantMetric,
    ConicSpec,
    conic_coefficients,
    g_inner,
    orthonormal_q_basis,
    plane_f_values,
    q_apply,
)

c, x, y, r2 = sp.symbols("c x y r2", real=True)
a, b = sp.symbols("a b", positive=True)
S = sp.sqrt((1 - c) * (1 + c))  # sin(phi) for c = cos(phi) in [-1/2, 1)

# Plane coefficients of A x^2 + B xy + C y^2 = r2/2, as conic_coefficients computes them.
A = c
B = (1 - c) * (1 + 2 * c) / S
C = -(c**2) / (1 + c)

# The cyclic shift (x, y, z) -> (y, z, x) as a matrix acting on column vectors.
Q = sp.Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])

def is_zero(expr) -> bool:
    return sp.simplify(expr) == 0


def test_shift_matrix_matches_q_apply():
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(q_apply(v), np.array(Q * sp.Matrix(v), dtype=float).ravel())


def test_coefficients_match_the_exact_expressions():
    for value in (sp.Rational(-1, 2), sp.Rational(-2, 5), sp.Rational(-1, 3), 0, sp.Rational(1, 7), sp.Rational(1, 2)):
        k = conic_coefficients(ConicSpec(float(value), 0.0))
        for got, exact in ((k.A, A), (k.B, B), (k.C, C)):
            assert math.isclose(got, float(exact.subs(c, value)), rel_tol=4e-16, abs_tol=1e-300)


def test_discriminant_closed_form():
    assert is_zero(B**2 - 4 * A * C - (1 + 3 * c) / (1 + c))


def test_discriminant_has_the_sign_of_the_variant_with_1_minus_c():
    # (1 + 3c)/(1 + c) and the variant (1 + 3c)/(1 - c) share their sign on
    # the whole domain [-1/2, 1): both denominators are positive there.
    domain = sp.Interval.Ropen(sp.Rational(-1, 2), 1)
    for denominator in (1 + c, 1 - c):
        assert sp.solveset(denominator <= 0, c, domain) == sp.S.EmptySet


def test_plane_f_values_follow_from_the_frame_construction():
    # In the basis (u, qu, q2u) of a g-unit u with g(u, qu) = c, the shift
    # permutes coordinates and, being a g-isometry with q^3 = 1, gives the
    # Gram matrix below. w = (qu - c u)/s is the frame's second vector.
    gram = sp.Matrix([[1, c, c], [c, 1, c], [c, c, 1]])
    shift = sp.Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])  # u -> qu -> q2u -> u
    u = sp.Matrix([1, 0, 0])
    w = (shift * u - c * u) / S

    def g(p, q):
        return (p.T * gram * q)[0, 0]

    def f(p, q):
        return g(p, shift * q) + g(shift * p, q)

    # f(x u + y w, x u + y w) = r2 halved gives A = f(u, u)/2, B = f(u, w), C = f(w, w)/2.
    assert is_zero(g(w, w) - 1) and is_zero(g(u, w))
    for expr, coeff, got in zip((f(u, u), f(u, w), f(w, w)), (2 * A, B, 2 * C), plane_f_values(0.25)):
        assert is_zero(expr - coeff)
        assert math.isclose(got, float(expr.subs(c, sp.Rational(1, 4))), rel_tol=4e-16)


def test_rotation_diagonalizes_the_sphere_form():
    rotation = sp.Matrix(
        [
            [1 / sp.sqrt(2), -1 / sp.sqrt(6), 1 / sp.sqrt(3)],
            [0, 2 / sp.sqrt(6), 1 / sp.sqrt(3)],
            [-1 / sp.sqrt(2), -1 / sp.sqrt(6), 1 / sp.sqrt(3)],
        ]
    )
    j_minus_i = sp.ones(3, 3) - sp.eye(3)  # v^T (J - I) v = 2(xy + xz + yz)
    assert (rotation.T * rotation - sp.eye(3)).applyfunc(sp.simplify) == sp.zeros(3, 3)
    assert (rotation.T * j_minus_i * rotation).applyfunc(sp.simplify) == sp.diag(-1, -1, 2)
    assert np.max(np.abs(ROTATION - np.array(rotation.evalf(30), dtype=float))) <= 2.3e-16


def test_orthonormal_basis_beta_makes_u0_orthogonal_to_its_shift():
    gram = sp.Matrix([[a, b, b], [b, a, b], [b, b, a]])
    n = sp.Matrix([1, 1, 1]) / sp.sqrt(3)
    e = sp.Matrix([1, -1, 0]) / sp.sqrt(2)
    beta = sp.sqrt(2 * (a + 2 * b) / (a - b))
    u0 = n + beta * e
    assert is_zero((u0.T * gram * (Q * u0))[0, 0])

    # orthonormal_q_basis normalizes this u0: at circ(2, 1/2, 1/2) its u is u0/|u0|_g.
    m = CirculantMetric(2.0, 0.5)
    exact = u0.subs({a: 2, b: sp.Rational(1, 2)})
    exact = exact / sp.sqrt((exact.T * gram.subs({a: 2, b: sp.Rational(1, 2)}) * exact)[0, 0])
    u = orthonormal_q_basis(m).u
    assert np.max(np.abs(u - np.array(exact.evalf(30), dtype=float).ravel())) <= 1e-15
    assert abs(g_inner(m, u, q_apply(u))) <= 1e-15


def test_perfect_square_at_the_degenerate_angle():
    third = sp.Rational(-1, 3)
    lhs = (A * x**2 + B * x * y + C * y**2).subs(c, third) - r2 / 2
    assert is_zero(-6 * lhs - ((sp.sqrt(2) * x - y) ** 2 + 3 * r2))
    assert is_zero(B.subs(c, third) ** 2 - 4 * A.subs(c, third) * C.subs(c, third))
