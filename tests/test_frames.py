"""Shift bases, the orthonormal construction, and the companion vector."""

import math

import numpy as np
import pytest

from circgeo import (
    CirculantMetric,
    DegenerateAngleError,
    ZeroVectorError,
    companion_w,
    cos_phi,
    causal_character,
    CausalCharacter,
    g_inner,
    gram_matrix,
    is_q_basis,
    orthonormal_q_basis,
    q_apply,
)
from circgeo.oracle import random_metric, random_vector

IDENTITY_METRIC = CirculantMetric(1.0, 0.0)


def test_is_q_basis():
    assert not is_q_basis(IDENTITY_METRIC, [1, 1, 1])  # angle 0 excluded
    assert is_q_basis(IDENTITY_METRIC, [1, 0, 0])  # angle pi/2 interior
    assert not is_q_basis(IDENTITY_METRIC, [1, -1, 0])  # angle 2*pi/3 excluded


def test_orthonormal_basis_identity_metric_closed_form():
    basis = orthonormal_q_basis(IDENTITY_METRIC)
    s3 = math.sqrt(3.0)
    expected = np.array([(1.0 + s3) / 3.0, (1.0 - s3) / 3.0, 1.0 / 3.0])
    assert np.max(np.abs(basis.u - expected)) <= 1e-12
    assert abs(g_inner(IDENTITY_METRIC, basis.u, basis.u) - 1.0) <= 1e-12
    assert abs(g_inner(IDENTITY_METRIC, basis.u, basis.qu)) <= 1e-12


def test_orthonormal_basis_general_metric():
    m = CirculantMetric(2.0, 1.0)
    basis = orthonormal_q_basis(m)
    assert abs(g_inner(m, basis.u, basis.u) - 1.0) <= 1e-12
    assert abs(g_inner(m, basis.u, basis.qu)) <= 1e-12
    assert abs(g_inner(m, basis.u, basis.q2u)) <= 1e-10
    assert np.array_equal(basis.qu, q_apply(basis.u))
    assert np.array_equal(basis.q2u, q_apply(basis.qu))


def test_orthonormal_basis_random_metrics_gram_identity():
    rng = np.random.default_rng(20240801)
    for _ in range(100):
        m = random_metric(rng)
        basis = orthonormal_q_basis(m)
        gram = gram_matrix(m, basis.vectors())
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-10
        for v in basis.vectors():
            assert causal_character(m, v) is CausalCharacter.NULL
            assert abs(cos_phi(m, v)) <= 1e-10


def test_orthonormal_basis_norm_closed_form():
    # For u0 = axis + beta * seed the g-norm squared collapses to 3(a + 2b).
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = random_metric(rng)
        disc = 2.0 * (m.a + 2.0 * m.b) / (m.a - m.b)
        assert disc > 0.0
        axis = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        seed = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        u0 = axis + math.sqrt(disc) * seed
        norm_sq = g_inner(m, u0, u0)
        ref = 3.0 * (m.a + 2.0 * m.b)
        assert abs(norm_sq - ref) <= 1e-12 * (1.0 + abs(ref))


@pytest.mark.parametrize("a, b", [(1e308, 5e307), (1.5e308, 1e308), (1.7e308, -8e307)])
def test_orthonormal_basis_near_float_max(a, b):
    # a + 2b or a - b overflows unscaled, which once refused these metrics.
    m = CirculantMetric(a, b)
    basis = orthonormal_q_basis(m)
    assert np.max(np.abs(gram_matrix(m, basis.vectors()) - np.eye(3))) <= 1e-10


@pytest.mark.parametrize("a, b", [(1.9, 1.5), (1.5, 1.0), (1.0, 0.0), (2.0, -0.75)])
def test_orthonormal_basis_scales_exactly_by_even_powers_of_two(a, b):
    # circ(2^k a, 2^k b) has the basis of circ(a, b) times 2^(-k/2), bit for
    # bit, over the whole exponent range of the metric.
    u = orthonormal_q_basis(CirculantMetric(a, b)).u
    for k in range(-1020, 1023, 2):
        scaled = orthonormal_q_basis(CirculantMetric(math.ldexp(a, k), math.ldexp(b, k))).u
        assert np.array_equal(scaled, np.ldexp(u, -k // 2)), k


def test_companion_right_angle_case():
    frame = companion_w(IDENTITY_METRIC, [1.0, 0.0, 0.0])
    assert np.array_equal(frame.w, [0.0, 0.0, 1.0])
    assert frame.phi == pytest.approx(math.pi / 2.0, abs=1e-15)


def test_companion_boundary_angle():
    u = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    frame = companion_w(IDENTITY_METRIC, u)
    assert abs(g_inner(IDENTITY_METRIC, frame.u, frame.w)) <= 1e-12
    assert abs(g_inner(IDENTITY_METRIC, frame.w, frame.w) - 1.0) <= 1e-12
    assert frame.phi == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)


def test_companion_degenerate_angle():
    with pytest.raises(DegenerateAngleError):
        companion_w(IDENTITY_METRIC, [1.0, 1.0, 1.0])


def test_companion_zero_vector():
    with pytest.raises(ZeroVectorError):
        companion_w(IDENTITY_METRIC, [0.0, 0.0, 0.0])


def test_companion_postconditions_random():
    rng = np.random.default_rng(13)
    for _ in range(500):
        m = random_metric(rng)
        u = random_vector(rng)
        if cos_phi(m, u) >= 1.0 - 1e-2:
            continue
        frame = companion_w(m, u)
        assert abs(g_inner(m, frame.u, frame.u) - 1.0) <= 1e-12
        assert abs(g_inner(m, frame.u, frame.w)) <= 1e-11
        assert abs(g_inner(m, frame.w, frame.w) - 1.0) <= 1e-11


def test_companion_scale_invariant():
    rng = np.random.default_rng(17)
    for _ in range(300):
        m = random_metric(rng)
        u = random_vector(rng)
        if cos_phi(m, u) >= 1.0 - 1e-2:
            continue
        w1 = companion_w(m, u).w
        w2 = companion_w(m, 3.7 * u).w
        assert np.max(np.abs(w1 - w2)) <= 1e-12 * (1.0 + np.max(np.abs(w1)))


def test_stacked_metrics_and_vectors_match_one_at_a_time():
    rng = np.random.default_rng(19)
    m = random_metric(rng, 30)
    u = random_vector(rng, 30)
    basis = orthonormal_q_basis(m)
    gram = gram_matrix(m, basis.vectors())
    assert gram.shape == (30, 3, 3)
    keep = cos_phi(m, u) < 1.0 - 1e-2
    frame = companion_w(CirculantMetric(m.a[keep], m.b[keep]), u[keep])
    for i, j in zip(np.flatnonzero(keep), range(len(frame.phi))):
        one = CirculantMetric(m.a[i], m.b[i])
        single = orthonormal_q_basis(one)
        assert np.array_equal(basis.u[i], single.u) and np.array_equal(basis.q2u[i], single.q2u)
        assert np.array_equal(gram[i], gram_matrix(one, single.vectors()))
        framed = companion_w(one, u[i])
        assert np.array_equal(frame.u[j], framed.u) and np.array_equal(frame.w[j], framed.w)
        assert frame.phi[j] == framed.phi
