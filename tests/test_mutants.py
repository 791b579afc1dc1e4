"""Mutation audit of the oracle: which families catch which bugs in the product code.

Each row replaces one product-code name (a function that a CLI command or
another family calls, never an oracle reference such as dense_g_inner) by a
mutant, runs run_suite(7, 200) and asserts the exact set of families that
fail. A second test asserts that every family is the only catcher of some
row, or is the only family to re-check some claim of the paper.
"""

import dataclasses
import math
import re
import types
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest

from circgeo import conics, core, frames, oracle, quadrics
from circgeo.core import CausalCharacter, CirculantMetric
from circgeo.oracle import SUITE_NAMES, run_suite

MODULES = (core, frames, quadrics, conics, oracle)


class Row(NamedTuple):
    label: str
    target: str
    make: Callable  # the original object -> its replacement
    expected: frozenset | None  # the failing families; None: any nonempty set


def row(label, target, make, *expected):
    return pytest.param(Row(label, target, make, frozenset(expected)), id=label)


def blind_spot(label, target, make):
    """A mutant that no family catches yet; the exact oracle (ROADMAP item 1) should."""
    return pytest.param(Row(label, target, make, None), id=label, marks=pytest.mark.xfail(
        strict=True, reason="no float family sees it: ROADMAP item 1, the exact oracle"))


def mapped(fn):
    """The mutant that applies fn to the original's result."""
    return lambda original: lambda *args: fn(original(*args))


def times(factor):
    return mapped(lambda out: out * factor)


def reading(fn):
    """The mutant that calls the original on fn(*args)."""
    return lambda original: lambda *args: original(*fn(*args))


def with_globals(**names):
    """The mutant that runs the original's code with some of its module's globals replaced."""
    return lambda f: types.FunctionType(f.__code__, {**f.__globals__, **names}, f.__name__, f.__defaults__)


def _swap_codes(code):
    return np.where(code == 0, 2, np.where(code == 2, 0, code)).astype(code.dtype)


def _twist_about_x(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _sign_by_division(spec):
    sign = spec.r2 / abs(spec.r2)  # ZeroDivisionError at r2 = 0
    return quadrics.QuadricClass.TWO_SHEETS if sign > 0.0 else quadrics.QuadricClass.ONE_SHEET


_SWAPPED = {CausalCharacter.SPACELIKE: CausalCharacter.TIMELIKE, CausalCharacter.TIMELIKE: CausalCharacter.SPACELIKE}
_FRAME_FAMILIES = ("companion_orthonormal", "conic_frame_realization")

ROWS = [
    # core
    row("g_inner ignores b", "g_inner", reading(lambda m, u, v: (CirculantMetric(m.a, 0.0 * m.b), u, v)),
        "companion_orthonormal", "f_diagonal_identity", "f_equals_2norm2_cos", "f_shifted_pair_identity",
        "g_inner_vs_dense_oracle", "qbasis_gram_identity"),
    row("g_inner 1e-10 high", "g_inner", times(1.0 + 1e-10),
        "companion_orthonormal", "f_diagonal_identity", "f_equals_2norm2_cos", "f_shifted_pair_identity",
        "g_inner_vs_dense_oracle", "qbasis_gram_identity"),
    row("g_inner 3e-13 high", "g_inner", times(1.0 + 3e-13), "g_inner_vs_dense_oracle"),
    row("f(u, v) = 2 g(u, qv), not symmetrized", "f_inner",
        lambda f: lambda m, u, v: 2.0 * core.g_inner(m, u, core.q_apply(v)),
        "conic_frame_realization", "f_shifted_pair_identity", "f_symmetric"),
    row("f_inner 1e-10 high", "f_inner", times(1.0 + 1e-10),
        "conic_frame_realization", "f_diagonal_identity", "f_equals_2norm2_cos", "f_shifted_pair_identity",
        "identity_metric_consistency"),
    row("cos_phi negated", "cos_phi", times(-1.0),
        *_FRAME_FAMILIES, "companion_scale_invariant", "cos_phi_range", "f_equals_2norm2_cos"),
    row("cos_phi 1e-10 high", "cos_phi", times(1.0 + 1e-10), *_FRAME_FAMILIES, "f_equals_2norm2_cos"),
    row("g_norm returns g(u, u)", "g_norm", mapped(lambda norm: norm**2),
        *_FRAME_FAMILIES, "companion_scale_invariant", "qbasis_gram_identity"),
    row("g_norm 1e-10 high", "g_norm", times(1.0 + 1e-10), *_FRAME_FAMILIES, "qbasis_gram_identity"),
    row("q swaps x and y", "q_apply", lambda q: lambda u: core.as_vector(u)[..., [1, 0, 2]],
        *_FRAME_FAMILIES, "f_diagonal_identity", "f_shifted_pair_identity", "qbasis_gram_identity",
        "shift_cubed_identity"),
    row("q_apply 1e-10 high", "q_apply", times(1.0 + 1e-10),
        *_FRAME_FAMILIES, "f_diagonal_identity", "f_shift_invariant", "f_shifted_pair_identity", "isometry",
        "qbasis_gram_identity", "shift_cubed_identity"),
    row("q_apply 1 ulp high", "q_apply", times(1.0 + 2.0**-52), "shift_cubed_identity"),
    # q^-1 satisfies every identity the suite checks; test_shift_matrix_matches_q_apply
    # in tests/test_closed_forms.py pins the direction.
    row("q reversed to (z, x, y), which is q^-1", "q_apply", lambda q: lambda u: core.as_vector(u)[..., [2, 0, 1]]),
    row("_form with b negated", "_form", reading(lambda metric, u, v: ((metric[0], -metric[1], metric[2]), u, v)),
        "character_shift_invariant", "classify_many_vs_dense", "companion_orthonormal", "companion_scale_invariant",
        "conic_frame_realization", "cos_phi_range", "g_inner_vs_dense_oracle", "qbasis_gram_identity",
        "qbasis_vectors_null", "scale_invariance"),
    row("_form 1e-10 high", "_form", times(1.0 + 1e-10),
        "classify_many_vs_dense", "g_inner_vs_dense_oracle", "identity_metric_consistency"),
    blind_spot("_form 1e-14 high", "_form", times(1.0 + 1e-14)),
    # cos_phi(2^-1000 u) raises ZeroVectorError: the family fails with a nan residual.
    row("_unit without scaling", "_unit", lambda unit: lambda x: (x, np.zeros(np.shape(x)[:-1], dtype=np.intc)),
        "scale_invariance"),
    row("_unit 1e-10 long", "_unit", mapped(lambda out: (out[0] * (1.0 + 1e-10), out[1])),
        "classify_many_vs_dense", "g_inner_vs_dense_oracle", "identity_metric_consistency"),
    blind_spot("null band widened 1.5x", "_classify", reading(lambda m, x, eps_null: (m, x, 1.5 * eps_null))),
    row("classify_many swaps spacelike and timelike", "classify_many",
        mapped(lambda out: (out[0], _swap_codes(out[1]), out[2])), "classify_many_vs_dense"),
    row("classify_many code depends on component order", "classify_many",
        lambda cm: lambda m, rows: (lambda cos, code, f: (
            cos, np.where(np.argmax(rows, axis=-1) == 0, _swap_codes(code), code), f))(*cm(m, rows)),
        "character_shift_invariant", "classify_many_vs_dense"),
    row("classify_many cos_phi 1e-10 high", "classify_many",
        mapped(lambda out: (out[0] * (1.0 + 1e-10), *out[1:])), "classify_many_vs_dense"),
    row("classify_many without the null band", "classify_many",
        reading(lambda m, rows: (m, rows, 1e-300)), "qbasis_vectors_null"),
    row("level sign reads 0 as +1", "_level_sign", mapped(lambda sign: sign or 1),
        "conic_class_table", "mesh_on_surface", "quadric_class_table"),
    # The decision tables read r2 = ±EPS_NULL and the next floats outside the band.
    row("level band 2x wide", "_level_sign", with_globals(EPS_NULL=2.0 * core.EPS_NULL),
        "conic_class_table", "quadric_class_table"),
    row("level band edge exclusive", "_level_sign", with_globals(EPS_NULL=math.nextafter(core.EPS_NULL, 0.0)),
        "conic_class_table", "quadric_class_table"),
    # frames
    row("q-basis of circ(a, b/2, b/2)", "orthonormal_q_basis",
        reading(lambda m: (CirculantMetric(m.a, 0.5 * m.b),)), "qbasis_gram_identity", "qbasis_vectors_null"),
    row("q-basis 1e-10 long", "orthonormal_q_basis",
        mapped(lambda basis: frames.QBasis(*(v * (1.0 + 1e-10) for v in basis.vectors()))), "qbasis_gram_identity"),
    row("companion w = qu, not orthogonalized", "companion_w",
        mapped(lambda fr: dataclasses.replace(fr, w=core.q_apply(fr.u))), *_FRAME_FAMILIES),
    row("companion w 1e-10 long", "companion_w", mapped(lambda fr: dataclasses.replace(fr, w=fr.w * (1.0 + 1e-10))),
        *_FRAME_FAMILIES),
    row("companion phi 1e-10 high", "companion_w",
        mapped(lambda fr: dataclasses.replace(fr, phi=fr.phi * (1.0 + 1e-10))), "conic_frame_realization"),
    row("Euclidean Gram matrix", "gram_matrix", reading(lambda m, vectors: (CirculantMetric(1.0, 0.0), vectors)),
        "qbasis_gram_identity"),
    row("Gram matrix 1e-9 high", "gram_matrix", times(1.0 + 1e-9), "qbasis_gram_identity"),
    # quadrics
    row("ROTATION columns 0 and 1 swapped", "ROTATION", lambda r: r[:, [1, 0, 2]], "rotation_diagonalizes"),
    row("ROTATION twisted 1e-14 rad about x'", "ROTATION", lambda r: r @ _twist_about_x(1e-14),
        "form_transport", "rotation_diagonalizes"),
    row("ROTATION twisted 2e-15 rad about x'", "ROTATION", lambda r: r @ _twist_about_x(2e-15),
        "rotation_diagonalizes"),
    row("ROTATION 1e-10 high", "ROTATION", lambda r: r * (1.0 + 1e-10),
        "cone_sphere_circles", "form_transport", "rotation_diagonalizes"),
    row("sphere form drops yz", "sphere_form_value",
        lambda s: lambda v: s(v) - 2.0 * np.asarray(v)[..., 1] * np.asarray(v)[..., 2],
        "form_transport", "identity_metric_consistency"),
    row("sphere form 1e-10 high", "sphere_form_value", times(1.0 + 1e-10),
        "form_transport", "identity_metric_consistency"),
    row("primed form sign dropped", "primed_form_value", times(-1.0), "form_transport"),
    row("primed form 1e-10 high", "primed_form_value", times(1.0 + 1e-10), "form_transport"),
    row("to_primed rotates by ROTATION^T", "to_primed", lambda t: lambda v: core.as_vector(v) @ quadrics.ROTATION.T,
        "cone_sphere_circles", "form_transport"),
    row("to_primed 1e-10 long", "to_primed", times(1.0 + 1e-10), "cone_sphere_circles", "form_transport"),
    # Raises ZeroDivisionError in both families: each fails with a nan residual.
    row("classify_quadric signs r2 by division", "classify_quadric", lambda cq: _sign_by_division,
        "mesh_on_surface", "quadric_class_table"),
    row("radius vector swaps spacelike and timelike", "radius_vector_character",
        mapped(lambda ch: _SWAPPED.get(ch, ch)), "quadric_class_table"),
    row("radius vector reads r2 1e-8 (1 + |r2|) high", "radius_vector_character",
        reading(lambda spec: (quadrics.QuadricSpec(spec.r2 + 1e-8 * (1.0 + abs(spec.r2))),)), "quadric_class_table"),
    row("cone-sphere planes listed -z first", "cone_sphere_intersection",
        mapped(lambda c: dataclasses.replace(c, z_planes=c.z_planes[::-1])), "cone_sphere_circles"),
    row("cone-sphere radius^2 1e-10 high", "cone_sphere_intersection",
        mapped(lambda c: dataclasses.replace(c, radius_sq=c.radius_sq * (1.0 + 1e-10))), "cone_sphere_circles"),
    row("mesh x and z swapped", "sample_quadric", mapped(lambda v: v[:, [2, 1, 0]]), "mesh_on_surface"),
    row("mesh vertices 1e-8 long", "sample_quadric", times(1.0 + 1e-8), "mesh_on_surface"),
    # The profile that `quadric --mesh` writes; the family sees it through sample_quadric.
    row("mesh profile heights 1e-8 high", "mesh_profile", mapped(lambda p: (p[0], p[1] * (1.0 + 1e-8), *p[2:])),
        "mesh_on_surface"),
    row("basis heads negated", "basis_heads_primed", mapped(lambda heads: tuple(-v for v in heads)),
        "cone_sphere_circles"),
    row("basis heads 1e-10 long", "basis_heads_primed", mapped(lambda heads: tuple(v * (1.0 + 1e-10) for v in heads)),
        "cone_sphere_circles"),
    # conics
    row("B halved", "conic_coefficients", mapped(lambda k: dataclasses.replace(k, B=k.B / 2.0)),
        "conic_coefficient_consistency", "degenerate_expansion", "discriminant_closed_form"),
    row("A, B, C 1e-10 high", "conic_coefficients", mapped(lambda k: dataclasses.replace(
        k, A=k.A * (1.0 + 1e-10), B=k.B * (1.0 + 1e-10), C=k.C * (1.0 + 1e-10))),
        "circle_realization", "conic_coefficient_consistency", "degenerate_expansion", "discriminant_closed_form"),
    row("rhs = r2, not r2/2", "conic_coefficients",
        lambda k: lambda spec: dataclasses.replace(k(spec), rhs=spec.r2), "circle_realization", "degenerate_expansion"),
    row("f(w, w) sign flipped", "plane_f_values", mapped(lambda f: (f[0], f[1], -f[2])),
        "conic_coefficient_consistency", "conic_frame_realization"),
    row("f(u, w) 1e-10 high", "plane_f_values", mapped(lambda f: (f[0], f[1] * (1.0 + 1e-10), f[2])),
        "conic_coefficient_consistency", "conic_frame_realization"),
    row("discriminant B^2 + 4AC", "discriminant",
        lambda d: lambda spec: (lambda k: k.B * k.B + 4.0 * k.A * k.C)(conics.conic_coefficients(spec)),
        "conic_class_table", "discriminant_closed_form"),
    row("discriminant doubled", "discriminant", times(2.0), "discriminant_closed_form"),
    row("discriminant 1e-9 high", "discriminant", times(1.0 + 1e-9), "discriminant_closed_form"),
    row("conic level sign flipped", "classify_conic",
        reading(lambda spec: (conics.ConicSpec(spec.cos_phi, -spec.r2),)), "conic_class_table"),
    row("conic cosine read 1e-8 low", "classify_conic",
        reading(lambda spec: (conics.ConicSpec(spec.cos_phi * (1.0 - 1e-8), spec.r2),)), "conic_class_table"),
    row("expansion check with rhs = r2", "degenerate_expansion_check", with_globals(
        conic_coefficients=lambda spec: dataclasses.replace(conics.conic_coefficients(spec), rhs=spec.r2)),
        "degenerate_expansion"),
    row("expansion check with sqrt(2) 1e-10 high", "degenerate_expansion_check",
        with_globals(_SQRT2=math.sqrt(2.0) * (1.0 + 1e-10)), "degenerate_expansion"),
]

# The families that are the only catcher of no row, each with the claim of
# the paper that no other family re-checks.
CLAIM_ONLY = {
    "isometry": "the shift is an isometry of every circulant metric: g(qu, qv) = g(u, v)",
    "f_diagonal_identity": "f(u, u) = 2 g(u, qu)",
    "f_shifted_pair_identity": "f(u, qu) = g(u, u) + g(u, qu)",
    "f_symmetric": "f is symmetric",
    "f_shift_invariant": "f is shift-invariant: f(qu, qv) = f(u, v)",
    "cos_phi_range": "the shift angle lies in [0, 2*pi/3]: cos(phi) in [-1/2, 1]",
    "f_equals_2norm2_cos": "f(u, u) = 2 g(u, u) cos(phi), so cos(phi) decides the causal character",
    "character_shift_invariant": "the shift preserves the causal character",
    "companion_orthonormal": "span{u, qu} has the g-orthonormal frame (u, w)",
    "companion_scale_invariant": "w depends on the direction of u alone",
    "identity_metric_consistency": "in orthonormal shift-basis coordinates f(v, v) = 2(xy + xz + yz)",
    "conic_coefficient_consistency": "the plane conic is A = f(u, u)/2, B = f(u, w), C = f(w, w)/2",
    "circle_realization": "at phi = 2*pi/3 the locus f(v, v) = r2 < 0 is a circle of radius sqrt(-r2)",
}


def patch(monkeypatch, target, make):
    """Replace every binding of target in MODULES: the oracle imports names directly."""
    original = next(getattr(module, target) for module in MODULES if hasattr(module, target))
    replacement = make(original)
    for module in MODULES:
        if getattr(module, target, None) is original:
            monkeypatch.setattr(module, target, replacement)


@pytest.mark.parametrize("r", ROWS)
def test_mutant_caught_by_exactly_the_expected_families(monkeypatch, r):
    patch(monkeypatch, r.target, r.make)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        failed = {report.name for report in run_suite(7, 200) if not report.passed}
    if r.expected is None:
        assert failed, "caught by no family"
    else:
        assert failed == r.expected


def test_every_family_is_the_only_catcher_of_a_row_or_checks_its_own_claim():
    rows = [param.values[0] for param in ROWS]
    only = {name for r in rows if r.expected is not None and len(r.expected) == 1 for name in r.expected}
    assert set(CLAIM_ONLY).isdisjoint(only)
    assert only | set(CLAIM_ONLY) == set(SUITE_NAMES)
    assert all(r.expected is None or r.expected <= set(SUITE_NAMES) for r in rows)


def test_verify_prints_a_family_that_raises_as_a_nan_fail(run_main, monkeypatch):
    patch(monkeypatch, "classify_quadric", lambda original: _sign_by_division)
    result = run_main("verify", "--seed", "7", "--trials", "200")
    assert (result.returncode, result.stderr) == (1, "")
    first, *lines, last = result.stdout.splitlines()
    assert (first, last) == ("seed=7 trials=200", "result=fail checks=28 failed=2")
    fields = [re.fullmatch(r"(ok  |FAIL) (\w+) +trials=(\d+) max_residual=(\S+) tol=\S+", line) for line in lines]
    assert all(fields), lines
    assert [m[2] for m in fields] == list(SUITE_NAMES)
    failed = [m.group(2, 3, 4) for m in fields if m[1] == "FAIL"]
    assert failed == [("quadric_class_table", "0", "nan"), ("mesh_on_surface", "0", "nan")]
