"""Deterministic randomized verification harness with independent oracles.

Every numerical guarantee made elsewhere in the package is re-checked here
against brute-force reference computations (dense matrix sums, closed forms,
explicit frame realizations). Randomness is drawn from counter-based Philox
streams: check number k of a run with seed S reads exclusively from the
generator keyed by SeedSequence(S, spawn_key=(k,)), so runs are reproducible
bit for bit and checks are independent. The random families draw all of
their trials at once as stacks of vectors and metrics, evaluate them with
the broadcasting API, and report the worst residual over the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    CHARACTER_BY_CODE,
    EPS_NULL,
    BadTrialCountError,
    CausalCharacter,
    CirculantMetric,
    GeometryError,
    InvariantViolation,
    classify_many,
    cos_phi,
    f_inner,
    g_inner,
    q_apply,
)
from .frames import companion_w, gram_matrix, orthonormal_q_basis
from .quadrics import (
    ROTATION,
    QuadricClass,
    QuadricSpec,
    basis_heads_primed,
    classify_quadric,
    cone_sphere_intersection,
    primed_form_value,
    radius_vector_character,
    sample_quadric,
    sphere_form_value,
    to_primed,
)
from .conics import (
    PHI_MAX,
    PHI_MIN,
    ConicClass,
    ConicSpec,
    classify_conic,
    conic_coefficients,
    degenerate_expansion_check,
    discriminant,
    discriminant_closed_form,
    plane_f_values,
)

__all__ = [
    "OracleReport",
    "dense_g_inner",
    "random_vector",
    "random_metric",
    "run_suite",
    "SUITE_NAMES",
]


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one invariant family: worst residual over all trials."""

    name: str
    trials: int
    max_residual: float
    tolerance: float
    passed: bool
    seed: int


def dense_g_inner(m: CirculantMetric, u, v):
    """Independent oracle for g_inner: materialize circ(a, b, b) and do the
    full double sum. Shares nothing with g_inner beyond the (a, b) fields.
    Broadcasts over stacks of vectors and metrics like g_inner."""
    matrix = [[m.a, m.b, m.b], [m.b, m.a, m.b], [m.b, m.b, m.a]]
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    total = 0.0
    for i in range(3):
        for j in range(3):
            total = total + matrix[i][j] * u[..., i] * v[..., j]
    return total


def _norm_sq(v):
    """Squared Euclidean norm of each vector, column by column."""
    return (v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1]) + v[..., 2] * v[..., 2]


def _row_max(x):
    """Largest of the three components of each vector, column by column."""
    return np.maximum(np.maximum(x[..., 0], x[..., 1]), x[..., 2])


def random_vector(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Components uniform in [-10, 10]: one 3-vector, or an (n, 3) stack.

    Redraws the (measure-zero in practice) vectors of Euclidean norm below 1e-6.
    """
    v = rng.uniform(-10.0, 10.0, size=3 if n is None else (n, 3))
    short = _norm_sq(v) < 1e-12
    while np.any(short):
        v[short] = rng.uniform(-10.0, 10.0, size=v[short].shape)
        short = _norm_sq(v) < 1e-12
    return v


def random_metric(rng: np.random.Generator, n: int | None = None) -> CirculantMetric:
    """a uniform in [0.5, 5]; b uniform in (-a/2, a) with a 1e-3 * a margin off
    both ends, so positive definiteness holds with room to spare. One metric,
    or a stack of n."""
    a = rng.uniform(0.5, 5.0, size=n)
    margin = 1e-3 * a
    b = rng.uniform(-0.5 * a + margin, a - margin)
    return CirculantMetric(a, b)


def _rel(err, scale):
    return np.abs(err) / (1.0 + np.abs(scale))


def _worst(*residuals) -> float:
    """Largest entry of the residual arrays, 0 when they are empty; nan propagates."""
    return max((float(np.max(r, initial=0.0)) for r in residuals), default=0.0)


def _phi_grid(n: int) -> np.ndarray:
    # Midpoint grid: strictly interior to (PHI_MIN, PHI_MAX).
    step = (PHI_MAX - PHI_MIN) / n
    return PHI_MIN + step * (np.arange(n) + 0.5)


def _framed(m: CirculantMetric, u: np.ndarray):
    """The metrics and vectors of the draws whose frame the 1e-12 bands can hold."""
    # Metric gate: g-unit vectors grow near the definiteness boundary; without it seeds
    # 0-2999 read up to 6.0e-13 at 1000 trials, not 8.2e-14. Angle gate: |g(u, w)| grows
    # like ~1.5e-14 / sin(phi), so the bands need 1 - cos(phi) >~ 1e-4; 1e-2 keeps 8x room.
    c = cos_phi(m, u)
    keep = (m.a - m.b >= 0.05 * m.a) & (m.a + 2.0 * m.b >= 0.05 * m.a) & (c < 1.0 - 1e-2)
    return CirculantMetric(m.a[keep], m.b[keep]), u[keep]


_NULL = CHARACTER_BY_CODE.index(CausalCharacter.NULL)

# Each check maps (rng, trials) to (max residual, evaluation count).
Check = Callable[[np.random.Generator, int], tuple[float, int]]


def _identity(draws: str, lhs, ref) -> Check:
    """The family of an identity lhs = ref, with residual |lhs - ref| / (1 + |ref|).

    Draws one stack of n per letter of draws, in that order: 'm' draws
    metrics, 'u' and 'v' vectors. lhs and ref take the stacks in that order.
    The rows pass lambdas, which look each function up when they run, so a
    replacement put on its name in this module sees the call: the wrappers
    of perfbench/tracer.py and the mutants of tests/test_mutants.py (rows
    such as 'g_inner ignores b'), so the lambdas stay without the tracer too.
    """

    def check(rng, n):
        drawn = [random_metric(rng, n) if kind == "m" else random_vector(rng, n) for kind in draws]
        expected = ref(*drawn)
        return _worst(_rel(lhs(*drawn) - expected, expected)), n

    return check


def _on_phi_grid(residual) -> Check:
    """The family of residual(c) at the cosines c of the n-point midpoint phi grid; it draws nothing."""
    return lambda rng, n: (residual(np.cos(_phi_grid(n))), n)


def _table(expected: dict, decide) -> Check:
    """The family of a decision table: residual 1 unless decide(spec) is expected[spec] for every spec."""
    return lambda rng, n: (float({spec: decide(spec) for spec in expected} != expected), len(expected))


def _check_cos_range(rng, n):
    c = cos_phi(random_metric(rng, n), random_vector(rng, n))
    return _worst(c - 1.0, -0.5 - c), n


def _check_character_shift_invariant(rng, n):
    m, u = random_metric(rng, n), random_vector(rng, n)
    cos, code, _ = classify_many(m, u)
    qu = q_apply(u)
    moved = (classify_many(m, qu)[1] != code) | (classify_many(m, q_apply(qu))[1] != code)
    # Only rows clear of the null band count.
    return float(np.any(moved & (np.abs(cos) > 1e-8))), n


def _check_dense_inner(rng, n):
    m, u, v = random_metric(rng, n), random_vector(rng, n), random_vector(rng, n)
    ref = dense_g_inner(m, u, v)
    # Both sums round in proportion to the terms that cancel, not to g itself.
    terms = dense_g_inner(CirculantMetric(m.a, np.abs(m.b)), np.abs(u), np.abs(v))
    return _worst(_rel(g_inner(m, u, v) - ref, terms)), n


def _check_qbasis_gram(rng, n):
    m = random_metric(rng, n)
    gram = gram_matrix(m, orthonormal_q_basis(m).vectors())
    return _worst(np.abs(gram - np.eye(3))), n


def _check_qbasis_null(rng, n):
    m = random_metric(rng, n)
    vectors = orthonormal_q_basis(m).vectors()
    not_null = any(np.any(classify_many(m, v)[1] != _NULL) for v in vectors)
    return _worst(np.abs(cos_phi(m, np.stack(vectors))), float(not_null)), n


def _check_companion_orthonormal(rng, n):
    m, u = _framed(random_metric(rng, n), random_vector(rng, n))
    frame = companion_w(m, u)
    u, w = frame.u, frame.w
    return _worst(np.abs(g_inner(m, u, w)), np.abs(g_inner(m, w, w) - 1.0)), len(u)


def _check_companion_scale_invariant(rng, n):
    m, u = _framed(random_metric(rng, n), random_vector(rng, n))
    w1 = companion_w(m, u).w
    w2 = companion_w(m, rng.uniform(0.1, 10.0, size=(len(u), 1)) * u).w
    # Relative: near-degenerate metrics make g-unit vectors Euclidean-large.
    return _worst(_row_max(np.abs(w1 - w2)) / (1.0 + _row_max(np.abs(w1)))), len(u)


def _check_rotation_diagonalizes(rng, trials):
    coeff = np.ones((3, 3)) - np.eye(3)  # matrix of the form 2(xy + xz + yz)
    return _worst(
        np.abs(ROTATION.T @ ROTATION - np.eye(3)),
        abs(np.linalg.det(ROTATION) - 1.0),
        np.abs(ROTATION.T @ coeff @ ROTATION - np.diag([-1.0, -1.0, 2.0])),
    ), 1


_QUADRIC_TABLE = {
    QuadricSpec(2.0): (QuadricClass.TWO_SHEETS, CausalCharacter.SPACELIKE),
    QuadricSpec(0.0): (QuadricClass.CONE, CausalCharacter.NULL),
    QuadricSpec(-1.0): (QuadricClass.ONE_SHEET, CausalCharacter.TIMELIKE),
    QuadricSpec(EPS_NULL): (QuadricClass.CONE, CausalCharacter.NULL),
    QuadricSpec(-EPS_NULL): (QuadricClass.CONE, CausalCharacter.NULL),
    QuadricSpec(np.nextafter(EPS_NULL, np.inf)): (QuadricClass.TWO_SHEETS, CausalCharacter.SPACELIKE),
    QuadricSpec(-np.nextafter(EPS_NULL, np.inf)): (QuadricClass.ONE_SHEET, CausalCharacter.TIMELIKE),
}


def _check_cone_circles(rng, trials):
    circle = cone_sphere_intersection()
    x, y, z = np.transpose(basis_heads_primed())
    return _worst(
        abs(circle.radius_sq - 2.0 / 3.0),
        abs(circle.z_planes[0] - 1.0 / np.sqrt(3.0)),
        abs(circle.z_planes[1] + 1.0 / np.sqrt(3.0)),
        np.abs(x * x + y * y - circle.radius_sq),
        np.abs(z - circle.z_planes[0]),
        np.abs(x * x + y * y - 2.0 * z * z),
        np.abs(x * x + y * y + z * z - 1.0),
    ), 3


def _check_mesh_on_surface(rng, trials):
    worst, count = 0.0, 0
    levels = [0.0, 2.0, -1.0, float(rng.uniform(0.5, 9.0)), float(-rng.uniform(0.5, 9.0))]
    for r2 in levels:
        x, y, z = sample_quadric(QuadricSpec(r2), 8, 12).T
        count += len(x)
        worst = max(worst, _worst(np.abs(x * x + y * y - 2.0 * z * z + r2) / (1.0 + abs(r2))))
    return worst, count


def _coefficients_vs_frame(c):
    f_uu, f_uw, f_ww = plane_f_values(c)
    k = conic_coefficients(ConicSpec(c, 1.0))
    return _worst(_rel(f_uu - 2.0 * k.A, f_uu), _rel(f_uw - k.B, f_uw), _rel(f_ww - 2.0 * k.C, f_ww))


def _check_conic_frame_realization(rng, n):
    m, u = _framed(random_metric(rng, n), random_vector(rng, n))
    frame = companion_w(m, u)
    pairs = ((frame.u, frame.u), (frame.u, frame.w), (frame.w, frame.w))
    refs = plane_f_values(np.cos(frame.phi))
    return _worst(*(_rel(f_inner(m, x, y) - ref, ref) for (x, y), ref in zip(pairs, refs))), len(u)


_CONIC_TABLE = {
    ConicSpec(0.5, 1.5): ConicClass.HYPERBOLA,
    ConicSpec(0.0, -2.0): ConicClass.HYPERBOLA,
    ConicSpec(0.5, 0.0): ConicClass.INTERSECTING_LINES,
    ConicSpec(0.5, EPS_NULL): ConicClass.INTERSECTING_LINES,
    ConicSpec(0.5, -EPS_NULL): ConicClass.INTERSECTING_LINES,
    ConicSpec(0.5, np.nextafter(EPS_NULL, np.inf)): ConicClass.HYPERBOLA,
    ConicSpec(0.5, -np.nextafter(EPS_NULL, np.inf)): ConicClass.HYPERBOLA,
    ConicSpec(-1.0 / 3.0, 1.0): ConicClass.NO_REAL_POINTS,
    ConicSpec(-1.0 / 3.0, 0.0): ConicClass.SINGLE_LINE,
    ConicSpec(-1.0 / 3.0, -1.0): ConicClass.PARALLEL_LINES,
    ConicSpec(-0.4, -1.0): ConicClass.ELLIPSE,
    ConicSpec(-0.4, 0.0): ConicClass.POINT,
    ConicSpec(-0.4, 1.0): ConicClass.NO_REAL_POINTS,
    ConicSpec(-0.5, -1.0): ConicClass.CIRCLE,
    ConicSpec(-0.5, 0.0): ConicClass.POINT,
    ConicSpec(-0.5, 1.0): ConicClass.NO_REAL_POINTS,
}


def _check_degenerate_expansion(rng, trials):
    worst = max(degenerate_expansion_check(ConicSpec(-1.0 / 3.0, r2)) for r2 in (1.0, 0.0, -1.0))
    return worst, 3 * 121


def _check_circle_realization(rng, trials):
    k = conic_coefficients(ConicSpec(-0.5, -1.0))
    n = max(trials, 16)
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    x, y = np.cos(t), np.sin(t)
    return _worst(np.abs(k.A * x * x + k.B * x * y + k.C * y * y - k.rhs)), n


def _check_classify_many_vs_dense(rng, n):
    m, u = random_metric(rng, n), random_vector(rng, n)
    cos, code, f_uu = classify_many(m, u)
    qu = np.roll(u, -1, axis=-1)
    ref_f = dense_g_inner(m, u, qu) + dense_g_inner(m, qu, u)
    ref_cos = ref_f / (2.0 * dense_g_inner(m, u, u))
    # The code must be the reference's wherever the reference is clear of the
    # null band's edge by more than the cosine's own rounding.
    expected = np.where(np.abs(ref_cos) <= EPS_NULL, _NULL, np.where(ref_cos > 0.0, 0, 2))
    wrong = (code != expected) & (np.abs(np.abs(ref_cos) - EPS_NULL) > 1e-12)
    return _worst(np.abs(cos - ref_cos), _rel(f_uu - ref_f, ref_f), float(np.any(wrong))), n


def _check_scale_invariance(rng, n):
    m, u = random_metric(rng, n), random_vector(rng, n)
    k = rng.integers(-1000, 1000, size=(n, 1), endpoint=True)
    scaled = np.ldexp(u, k)
    # scaled is exactly 2^k times this u even where a component of 2^k u
    # fell below the normal range and lost bits.
    u = np.ldexp(scaled, -k)
    same = (cos_phi(m, scaled).view(np.uint64) == cos_phi(m, u).view(np.uint64)) & (
        classify_many(m, scaled)[1] == classify_many(m, u)[1]
    )
    return float(not same.all()), n


# Fixed execution order; names, tolerances and checks stay in lockstep.
_SUITE: list[tuple[str, float, Check]] = [
    ("shift_cubed_identity", 0.0, _identity("u", lambda u: q_apply(q_apply(q_apply(u))), lambda u: u)),
    ("isometry", 1e-12, _identity(
        "muv", lambda m, u, v: g_inner(m, q_apply(u), q_apply(v)), lambda m, u, v: g_inner(m, u, v))),
    ("f_diagonal_identity", 1e-12, _identity(
        "mu", lambda m, u: f_inner(m, u, u), lambda m, u: 2.0 * g_inner(m, u, q_apply(u)))),
    ("f_shifted_pair_identity", 1e-12, _identity(
        "mu", lambda m, u: f_inner(m, u, q_apply(u)),
        lambda m, u: g_inner(m, u, u) + g_inner(m, u, q_apply(u)))),
    ("f_symmetric", 1e-12, _identity(
        "muv", lambda m, u, v: f_inner(m, v, u), lambda m, u, v: f_inner(m, u, v))),
    ("f_shift_invariant", 1e-12, _identity(
        "muv", lambda m, u, v: f_inner(m, q_apply(u), q_apply(v)), lambda m, u, v: f_inner(m, u, v))),
    ("cos_phi_range", 1e-12, _check_cos_range),
    ("f_equals_2norm2_cos", 1e-12, _identity(
        "mu", lambda m, u: f_inner(m, u, u), lambda m, u: 2.0 * g_inner(m, u, u) * cos_phi(m, u))),
    ("character_shift_invariant", 0.0, _check_character_shift_invariant),
    ("g_inner_vs_dense_oracle", 1e-13, _check_dense_inner),
    ("qbasis_gram_identity", 1e-10, _check_qbasis_gram),
    ("qbasis_vectors_null", 1e-10, _check_qbasis_null),
    ("companion_orthonormal", 1e-12, _check_companion_orthonormal),
    ("companion_scale_invariant", 1e-12, _check_companion_scale_invariant),
    ("rotation_diagonalizes", 1e-15, _check_rotation_diagonalizes),
    ("form_transport", 1e-12, _identity(
        "v", lambda v: primed_form_value(to_primed(v)), lambda v: sphere_form_value(v))),
    # The standard basis is orthonormal for the identity metric.
    ("identity_metric_consistency", 1e-12, _identity(
        "v", lambda v: f_inner(CirculantMetric(1.0, 0.0), v, v), lambda v: sphere_form_value(v))),
    ("quadric_class_table", 0.0, _table(
        _QUADRIC_TABLE, lambda spec: (classify_quadric(spec), radius_vector_character(spec)))),
    ("cone_sphere_circles", 1e-12, _check_cone_circles),
    ("mesh_on_surface", 1e-9, _check_mesh_on_surface),
    ("conic_coefficient_consistency", 1e-12, _on_phi_grid(_coefficients_vs_frame)),
    ("conic_frame_realization", 1e-12, _check_conic_frame_realization),
    ("discriminant_closed_form", 1e-10, _on_phi_grid(
        lambda c: _worst(np.abs(discriminant(ConicSpec(c, 1.0)) - discriminant_closed_form(c))))),
    ("conic_class_table", 0.0, _table(_CONIC_TABLE, lambda spec: classify_conic(spec).kind)),
    ("degenerate_expansion", 1e-12, _check_degenerate_expansion),
    ("circle_realization", 1e-12, _check_circle_realization),
    ("classify_many_vs_dense", 1e-12, _check_classify_many_vs_dense),
    ("scale_invariance", 0.0, _check_scale_invariance),
]

SUITE_NAMES = tuple(name for name, _, _ in _SUITE)


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(index,))))


def run_suite(seed: int, trials: int) -> list[OracleReport]:
    """Run every invariant family and report the worst residual of each.

    Identical (seed, trials) pairs produce identical reports; pass overall
    means every report passed individually.
    """
    if seed < 0:
        raise GeometryError(f"seed must be >= 0, got {seed}")
    if trials < 1:
        raise BadTrialCountError(f"trials must be >= 1, got {trials}")
    # At their peak the checks hold under 576 bytes a trial (tracemalloc), so
    # below this bound every stack is addressable and too many trials for
    # memory raise MemoryError; past the address space numpy raises ValueError.
    if 576 * trials > np.iinfo(np.intp).max:
        raise BadTrialCountError(f"{trials} trials are too many to address")
    reports = []
    for index, (name, tolerance, check) in enumerate(_SUITE):
        try:
            residual, count = check(_stream(seed, index), trials)
        except (GeometryError, InvariantViolation, ArithmeticError):
            # A family whose check raises has failed; too many trials for
            # memory (MemoryError) still propagates.
            residual, count = float("nan"), 0
        reports.append(
            OracleReport(
                name=name,
                trials=count,
                max_residual=residual,
                tolerance=tolerance,
                passed=residual <= tolerance,
                seed=seed,
            )
        )
    return reports
