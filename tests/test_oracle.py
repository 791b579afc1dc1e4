"""Verification harness: samplers, dense oracle, suite determinism."""

import hashlib
import re

import numpy as np
import pytest

from circgeo import CirculantMetric, GeometryError, cos_phi, g_inner, oracle
from circgeo.oracle import (
    SUITE_NAMES,
    dense_g_inner,
    random_metric,
    random_vector,
    run_suite,
)


def test_dense_inner_frozen_values():
    m = CirculantMetric(2.0, 1.0)
    assert dense_g_inner(m, [1, 0, 0], [0, 1, 0]) == 1.0
    assert dense_g_inner(m, [1, 1, 1], [1, 1, 1]) == 12.0


def test_dense_inner_identity_metric_is_dot_product():
    m = CirculantMetric(1.0, 0.0)
    rng = np.random.default_rng(31)
    for _ in range(100):
        u, v = random_vector(rng), random_vector(rng)
        assert abs(dense_g_inner(m, u, v) - float(u @ v)) <= 1e-12 * (1.0 + abs(u @ v))


def test_dense_inner_agrees_with_g_inner():
    rng = np.random.default_rng(37)
    for _ in range(1000):
        m = random_metric(rng)
        u, v = random_vector(rng), random_vector(rng)
        ref = dense_g_inner(m, u, v)
        assert abs(g_inner(m, u, v) - ref) <= 1e-13 * (1.0 + abs(ref))


def test_samplers_deterministic():
    a = np.random.default_rng(123)
    b = np.random.default_rng(123)
    for _ in range(50):
        assert np.array_equal(random_vector(a), random_vector(b))
        assert random_metric(a) == random_metric(b)


def test_sampled_metrics_always_valid():
    rng = np.random.default_rng(41)
    for _ in range(10_000):
        m = random_metric(rng)  # constructor re-validates
        assert m.a - m.b > 0.0
        assert m.a + 2.0 * m.b > 0.0


def test_sampled_vectors_nonzero_and_in_range():
    rng = np.random.default_rng(43)
    m = CirculantMetric(1.0, 0.0)
    for _ in range(10_000):
        u = random_vector(rng)
        assert float(u @ u) >= 1e-12
        assert -0.5 - 1e-12 <= cos_phi(m, u) <= 1.0 + 1e-12


def test_run_suite_all_pass():
    reports = run_suite(seed=42, trials=300)
    assert [r.name for r in reports] == list(SUITE_NAMES)
    for r in reports:
        assert r.passed, f"{r.name}: residual {r.max_residual} > tol {r.tolerance}"
        assert r.seed == 42


def test_run_suite_deterministic():
    assert run_suite(seed=42, trials=100) == run_suite(seed=42, trials=100)


def test_run_suite_rejects_bad_trials():
    with pytest.raises(GeometryError):
        run_suite(seed=1, trials=0)


# (name, tolerance, trials count) at --trials 1000 and seed 42 of every family
# but the two added last; the counts are what `verify` adds up as items
# checked: the three frame families count the draws _framed keeps, and the
# two tables count their specs.
PINNED_FAMILIES = [
    ("shift_cubed_identity", 0.0, 1000),
    ("isometry", 1e-12, 1000),
    ("f_diagonal_identity", 1e-12, 1000),
    ("f_shifted_pair_identity", 1e-12, 1000),
    ("f_symmetric", 1e-12, 1000),
    ("f_shift_invariant", 1e-12, 1000),
    ("cos_phi_range", 1e-12, 1000),
    ("f_equals_2norm2_cos", 1e-12, 1000),
    ("character_shift_invariant", 0.0, 1000),
    ("g_inner_vs_dense_oracle", 1e-13, 1000),
    ("qbasis_gram_identity", 1e-10, 1000),
    ("qbasis_vectors_null", 1e-10, 1000),
    ("companion_orthonormal", 1e-12, 917),
    ("companion_scale_invariant", 1e-12, 927),
    ("rotation_diagonalizes", 1e-15, 1),
    ("form_transport", 1e-12, 1000),
    ("identity_metric_consistency", 1e-12, 1000),
    ("quadric_class_table", 0.0, 7),
    ("cone_sphere_circles", 1e-12, 3),
    ("mesh_on_surface", 1e-09, 768),
    ("conic_coefficient_consistency", 1e-12, 1000),
    ("conic_frame_realization", 1e-12, 930),
    ("discriminant_closed_form", 1e-10, 1000),
    ("conic_class_table", 0.0, 16),
    ("degenerate_expansion", 1e-12, 363),
    ("circle_realization", 1e-12, 1000),
]


def test_run_suite_keeps_every_family_tolerance_and_count():
    reports = run_suite(seed=42, trials=1000)
    assert [(r.name, r.tolerance, r.trials) for r in reports[: len(PINNED_FAMILIES)]] == PINNED_FAMILIES
    # Families added later are no looser than the tightest random family.
    for r in reports[len(PINNED_FAMILIES) :]:
        assert r.tolerance <= 1e-12 and r.trials == 1000 and r.passed


@pytest.mark.parametrize("name", ["companion_orthonormal", "companion_scale_invariant", "conic_frame_realization"])
def test_frame_family_prints_the_draws_it_checks(run_main, name):
    # A frame family checks only the draws that _framed keeps from its own
    # stream, and prints that count, not --trials.
    result = run_main("verify", "--seed", "42", "--trials", "1000")
    printed = dict(re.findall(r"^\S+ +(\w+) +trials=(\d+) ", result.stdout, re.MULTILINE))
    rng = oracle._stream(42, SUITE_NAMES.index(name))
    _, kept = oracle._framed(random_metric(rng, 1000), random_vector(rng, 1000))
    assert int(printed[name]) == len(kept) < 1000


def test_dense_oracle_residual_passes_on_cancelling_seeds():
    # At these seeds g(u, v) cancels to far below its terms; only a residual
    # relative to the terms, not to |g|, stays inside the 1e-13 band.
    for seed in (70, 1091, 1104, 1342, 1630):
        failed = [r.name for r in run_suite(seed, 1000) if not r.passed]
        assert failed == [], f"seed {seed}: {failed}"


# SHA-256 of `verify` stdout: a family that draws, gates or rounds otherwise
# changes a printed residual.
VERIFY_SHA256 = {
    (1, 1000): "87c54908079065ec4903451796eca7b3bccc029b58443051c164ff4732ab75bb",
    (2, 50): "efd4f8810814303d018b15eb0856a4f05d163d6f8199e05ab786d61e88a65b5b",
    (3, 1): "407356da446522d6f73b40717f75e03832af77310c3bea80e92886f5191f3020",
}


@pytest.mark.parametrize(("seed", "trials"), list(VERIFY_SHA256))
def test_verify_golden_digest(run_main, seed, trials):
    result = run_main("verify", "--seed", str(seed), "--trials", str(trials))
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == VERIFY_SHA256[seed, trials]


def test_verify_golden_digest_on_other_blas_kernels(run_cli, blas_kernel):
    # The forms are column sums with no BLAS call, so the kernel that the
    # CPU gets does not reach the printed residuals.
    result = run_cli("verify", "--seed", "1", "--trials", "1000", env={"OPENBLAS_CORETYPE": blas_kernel})
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == VERIFY_SHA256[1, 1000]
