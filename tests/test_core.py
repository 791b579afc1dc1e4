"""Core kernel: shift, metric, associated form, causal classification."""

import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import circgeo
from circgeo import core
from circgeo import (
    CHARACTER_BY_CODE,
    CODE_NON_FINITE,
    CODE_ZERO_VECTOR,
    EPS_ANGLE,
    EPS_NULL,
    CausalCharacter,
    CirculantMetric,
    GeometryError,
    InvalidMetricError,
    InvariantViolation,
    ZeroVectorError,
    causal_character,
    clamp_cos,
    classify_many,
    cos_phi,
    f_inner,
    fmt_float,
    g_inner,
    g_norm,
    phi_angle,
    q_apply,
)
from circgeo.oracle import dense_g_inner, random_metric, random_vector


def dense_inner(a, b, u, v):
    """Reference: materialized circulant matrix, full double sum."""
    matrix = np.array([[a, b, b], [b, a, b], [b, b, a]], dtype=float)
    return float(np.asarray(u, dtype=float) @ matrix @ np.asarray(v, dtype=float))


# ---------------------------------------------------------------- shift


def test_q_apply_cycles_components():
    assert np.array_equal(q_apply([1.0, 2.0, 3.0]), [2.0, 3.0, 1.0])


@pytest.mark.parametrize("c", [1.0, -3.5, 0.0])
def test_q_apply_fixes_diagonal(c):
    assert np.array_equal(q_apply([c, c, c]), [c, c, c])


def test_q_apply_cubed_is_identity_exactly():
    u = np.array([0.3, -1.7, 4.0])
    assert np.array_equal(q_apply(q_apply(q_apply(u))), u)


def test_q_apply_rejects_nonfinite():
    with pytest.raises(GeometryError):
        q_apply([1.0, math.inf, 0.0])
    with pytest.raises(GeometryError):
        q_apply([1.0, 2.0])


# ---------------------------------------------------------------- metric


def test_metric_validation():
    CirculantMetric(1.0, 0.0)
    CirculantMetric(2.0, 1.0)
    with pytest.raises(InvalidMetricError):
        CirculantMetric(1.0, 1.0)  # a - b = 0
    with pytest.raises(InvalidMetricError):
        CirculantMetric(1.0, -0.5)  # a + 2b = 0
    with pytest.raises(InvalidMetricError):
        CirculantMetric(-1.0, -2.0)
    with pytest.raises(InvalidMetricError):
        CirculantMetric(math.nan, 0.0)


def _is_positive_definite(a, b) -> bool:
    """a > 0, a - b > 0 and a + 2b > 0, decided exactly on the rationals."""
    a, b = Fraction(a), Fraction(b)
    return a > 0 and a - b > 0 and a + 2 * b > 0


_TINY = math.ldexp(1.0, -1070)  # subnormal


@settings(max_examples=500, deadline=None)
@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
)
@example(1e308, 5e307)  # a + 2b overflows unscaled
@example(1.5e308, 1e308)
@example(1.7e308, -8e307)  # a - b overflows unscaled
@example(-1.7e308, 1.7e308)
@example(0.75, 1e308)  # 2b overflows even scaled by a
@example(1.0, -1e308)
@example(1e-300, 1e308)  # b / 2^exponent(a) overflows
@example(1e-300, -1e308)
@example(5e-324, 0.0)
@example(5e-324, 5e-324)
@example(_TINY, -_TINY / 2)  # a + 2b = 0
@example(_TINY, -_TINY / 2 + 5e-324)
@example(_TINY, math.nextafter(_TINY, 0.0))
@example(0.0, 0.0)
@example(1.0, math.nextafter(-0.5, 0.0))
def test_metric_accepts_exactly_the_positive_definite(a, b):
    # No pair may warn: Tier-1 turns a numpy RuntimeWarning into a failure.
    if _is_positive_definite(a, b):
        m = CirculantMetric(a, b)
        assert (m.a, m.b) == (a, b)
    else:
        with pytest.raises(InvalidMetricError, match=r"is not positive definite"):
            CirculantMetric(a, b)


def test_tolerance_validation():
    assert EPS_NULL == EPS_ANGLE == 1e-9
    m, row = CirculantMetric(1.0, 0.0), np.array([[1.0, 0.0, 1e-12]])  # cos_phi = 1e-12
    assert CHARACTER_BY_CODE[classify_many(m, row)[1][0]] is CausalCharacter.NULL
    assert CHARACTER_BY_CODE[classify_many(m, row, eps_null=1e-13)[1][0]] is CausalCharacter.SPACELIKE
    for bad in (0.0, -1e-9, 1e-3, math.nan):
        with pytest.raises(GeometryError, match=r"eps_null must lie in \(0, 1e-3\)"):
            classify_many(m, row, eps_null=bad)


def test_g_inner_frozen_values():
    m = CirculantMetric(2.0, 1.0)
    assert dense_inner(2, 1, [1, 0, 0], [0, 1, 0]) == 1.0
    assert g_inner(m, [1, 0, 0], [0, 1, 0]) == 1.0
    assert dense_inner(2, 1, [1, 0, 0], [1, 0, 0]) == 2.0
    assert g_inner(m, [1, 0, 0], [1, 0, 0]) == 2.0
    assert g_inner(CirculantMetric(1.0, 0.0), [1, 1, 1], [1, 1, 1]) == 3.0


def test_g_inner_matches_dense_oracle():
    rng = np.random.default_rng(20240817)
    for _ in range(500):
        m = random_metric(rng)
        u, v = random_vector(rng), random_vector(rng)
        ref = dense_inner(m.a, m.b, u, v)
        assert abs(g_inner(m, u, v) - ref) <= 1e-13 * (1.0 + abs(ref))


def test_g_norm():
    m = CirculantMetric(1.0, 0.0)
    assert g_norm(m, [1, 1, 1]) == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert g_norm(m, [0, 0, 0]) == 0.0
    assert g_norm(CirculantMetric(2.0, 1.0), [1, 0, 0]) == pytest.approx(
        math.sqrt(2.0), abs=1e-15
    )


# ---------------------------------------------------------------- angle


def test_cos_phi_frozen_values():
    m = CirculantMetric(1.0, 0.0)
    assert cos_phi(m, [1, 1, 1]) == 1.0
    assert cos_phi(m, [1, 0, 0]) == 0.0
    assert cos_phi(m, [1, -1, 0]) == -0.5


def test_cos_phi_zero_vector():
    with pytest.raises(ZeroVectorError):
        cos_phi(CirculantMetric(1.0, 0.0), [0.0, 0.0, 0.0])


def test_cos_phi_range_random():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        c = cos_phi(random_metric(rng), random_vector(rng))
        assert -0.5 - 1e-12 <= c <= 1.0 + 1e-12


def test_clamp_cos():
    assert clamp_cos(0.25) == 0.25
    assert clamp_cos(1.0 + 5e-10) == 1.0
    assert clamp_cos(-0.5 - 5e-10) == -0.5
    with pytest.raises(InvariantViolation):
        clamp_cos(1.1)
    with pytest.raises(InvariantViolation):
        clamp_cos(-0.7)


def test_clamp_cos_rejects_nan():
    # NaN fails every comparison, so a bare range test would let it clamp to -1/2.
    with pytest.raises(InvariantViolation):
        clamp_cos(math.nan)


def test_phi_angle():
    m = CirculantMetric(1.0, 0.0)
    assert phi_angle(m, [1, 1, 1]) == 0.0
    assert phi_angle(m, [1, 0, 0]) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert phi_angle(m, [1, -1, 0]) == pytest.approx(2.0 * math.pi / 3.0, abs=1e-15)


# ---------------------------------------------------------------- associated form


def test_f_inner_frozen_values():
    m = CirculantMetric(1.0, 0.0)
    assert f_inner(m, [1, 1, 1], [1, 1, 1]) == 6.0
    assert f_inner(m, [1, 0, 0], [1, 0, 0]) == 0.0
    assert f_inner(m, [1, 0, 0], [0, 1, 0]) == 1.0


def test_f_inner_matches_dense_definition():
    rng = np.random.default_rng(99)
    for _ in range(500):
        m = random_metric(rng)
        u, v = random_vector(rng), random_vector(rng)
        ref = dense_inner(m.a, m.b, u, q_apply(v)) + dense_inner(m.a, m.b, q_apply(u), v)
        assert abs(f_inner(m, u, v) - ref) <= 1e-12 * (1.0 + abs(ref))


def test_isometry_property():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        m = random_metric(rng)
        u, v = random_vector(rng), random_vector(rng)
        guv = g_inner(m, u, v)
        assert abs(g_inner(m, q_apply(u), q_apply(v)) - guv) <= 1e-12 * (1.0 + abs(guv))


def test_f_identities():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        m = random_metric(rng)
        u = random_vector(rng)
        diag = 2.0 * g_inner(m, u, q_apply(u))
        assert abs(f_inner(m, u, u) - diag) <= 1e-12 * (1.0 + abs(diag))
        pair = g_inner(m, u, u) + g_inner(m, u, q_apply(u))
        assert abs(f_inner(m, u, q_apply(u)) - pair) <= 1e-12 * (1.0 + abs(pair))


def test_f_symmetric_and_shift_invariant():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        m = random_metric(rng)
        u, v = random_vector(rng), random_vector(rng)
        fuv = f_inner(m, u, v)
        scale = 1.0 + abs(fuv)
        assert abs(f_inner(m, v, u) - fuv) <= 1e-12 * scale
        assert abs(f_inner(m, q_apply(u), q_apply(v)) - fuv) <= 1e-12 * scale


def test_f_diagonal_equals_2norm2_cos():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        m = random_metric(rng)
        u = random_vector(rng)
        ref = 2.0 * g_inner(m, u, u) * cos_phi(m, u)
        assert abs(f_inner(m, u, u) - ref) <= 1e-12 * (1.0 + abs(ref))


# ---------------------------------------------------------------- classification


def test_causal_character_frozen_examples():
    m = CirculantMetric(1.0, 0.0)
    assert causal_character(m, [1, 1, 1]) is CausalCharacter.SPACELIKE
    assert causal_character(m, [1, 0, 0]) is CausalCharacter.NULL
    assert causal_character(m, [1, -1, 0]) is CausalCharacter.TIMELIKE


def test_causal_character_zero_vector():
    with pytest.raises(ZeroVectorError):
        causal_character(CirculantMetric(1.0, 0.0), [0, 0, 0])


def test_causal_character_scale_free():
    # The null band is relative, so rescaling the vector cannot flip the class.
    m = CirculantMetric(3.0, 1.2)
    for u in ([1e-8, 2e-8, -1e-8], [1e8, 2e8, -1e8]):
        assert causal_character(m, u) is causal_character(
            m, np.asarray(u) * 1e-6
        )


def test_character_preserved_by_shift():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = random_metric(rng)
        u = random_vector(rng)
        if abs(cos_phi(m, u)) <= 1e-8:
            continue
        char = causal_character(m, u)
        qu = q_apply(u)
        assert causal_character(m, qu) is char
        assert causal_character(m, q_apply(qu)) is char


# ---------------------------------------------------------------- broadcasting


def test_stacked_metric_validated_elementwise():
    m = CirculantMetric([1.0, 2.0], 0.5)
    assert m.a.tolist() == [1.0, 2.0] and m.b.tolist() == [0.5, 0.5]
    assert type(CirculantMetric(2, 1).a) is float
    with pytest.raises(InvalidMetricError, match=r"circ\(1.0, 1.0, 1.0\)"):
        CirculantMetric([2.0, 1.0], [0.5, 1.0])
    with pytest.raises(InvalidMetricError):
        CirculantMetric([1.0, math.nan], 0.0)


def test_broadcast_api_matches_one_vector_calls():
    rng = np.random.default_rng(53)
    m = random_metric(rng, 40)
    u, v = random_vector(rng, 40), random_vector(rng, 40)
    stacked = (g_inner(m, u, v), g_norm(m, u), cos_phi(m, u), f_inner(m, u, v))
    assert all(x.shape == (40,) for x in stacked)
    for i in range(40):
        one = CirculantMetric(m.a[i], m.b[i])
        single = (
            g_inner(one, u[i], v[i]), g_norm(one, u[i]), cos_phi(one, u[i]), f_inner(one, u[i], v[i])
        )
        assert all(type(x) is float for x in single)
        assert bits([x[i] for x in stacked]).tolist() == bits(single).tolist()
    # A (2, 40, 3) stack broadcasts against the 40 metrics, and one vector against all of them.
    pair = np.stack([u, v])
    assert np.array_equal(bits(cos_phi(m, pair)), bits([cos_phi(m, u), cos_phi(m, v)]))
    one_by_one = [g_inner(CirculantMetric(a, b), u[0], v[0]) for a, b in zip(m.a, m.b)]
    assert np.array_equal(bits(g_inner(m, u[0], v[0])), bits(one_by_one))
    assert np.array_equal(q_apply(pair), pair[..., [1, 2, 0]])


def test_broadcast_api_rejects_any_bad_row():
    m = CirculantMetric(1.0, 0.0)
    with pytest.raises(ZeroVectorError):
        cos_phi(m, [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    with pytest.raises(GeometryError):
        g_inner(m, [[1.0, 2.0, 3.0], [math.inf, 0.0, 0.0]], [1.0, 0.0, 0.0])
    with pytest.raises(InvariantViolation):
        clamp_cos([0.5, 1.5])
    assert clamp_cos(np.array([1.0 + 5e-10, -0.5 - 5e-10, 0.25])).tolist() == [1.0, -0.5, 0.25]
    for one_vector_only in (causal_character, phi_angle):
        with pytest.raises(GeometryError):
            one_vector_only(m, [[1.0, 2.0, 3.0]])
        with pytest.raises(GeometryError):
            one_vector_only(CirculantMetric([1.0, 2.0], 0.0), [1.0, 2.0, 3.0])


# ---------------------------------------------------------------- batch kernel


def bits(x):
    """The float64 bit patterns of x, so nan compares equal to the same nan."""
    return np.asarray(x, dtype=float).view(np.uint64)


def near_null_rows(m, rng, n):
    """Rows u = (s/3)(1, 1, 1) + w, w orthogonal to (1, 1, 1), with cos_phi(u) ~ t.

    g(u, qu) and g(u, u) depend on u only through s and |w|, and cos_phi = t
    exactly when |w|^2 = s^2 (1 - t)((a - b)/3 + b) / ((a - b)(1/2 + t)).
    """
    a, b = m.a, m.b
    s = rng.uniform(1.0, 10.0, n)
    t = rng.uniform(-4e-9, 4e-9, n)
    w_norm = np.sqrt(s * s * (1.0 - t) * ((a - b) / 3.0 + b) / ((a - b) * (0.5 + t)))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    e1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    e2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
    w = w_norm[:, None] * (np.cos(theta)[:, None] * e1 + np.sin(theta)[:, None] * e2)
    return (s / 3.0)[:, None] + w


def test_classify_many_matches_scalar_and_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = random_metric(rng)
        rows = np.vstack([[random_vector(rng) for _ in range(40)], near_null_rows(m, rng, 20)])
        cos, code, f_uu = classify_many(m, rows)
        for u, c, k, f in zip(rows, cos, code, f_uu):
            # Bit for bit the scalar path on rows that need no scaling.
            assert bits(c) == bits(cos_phi(m, u))
            assert CHARACTER_BY_CODE[k] is causal_character(m, u)
            assert bits(f) == bits(f_inner(m, u, u))
            # Against the dense-matrix oracle, which shares no arithmetic.
            ref = dense_g_inner(m, u, q_apply(u)) / dense_g_inner(m, u, u)
            assert abs(c - ref) <= 1e-12
            if abs(ref) > 2e-9:
                expected = CausalCharacter.SPACELIKE if ref > 0.0 else CausalCharacter.TIMELIKE
                assert CHARACTER_BY_CODE[k] is expected


def test_classify_many_codes_zero_and_non_finite_rows():
    m = CirculantMetric(1.0, 0.0)
    rows = [[1, 1, 1], [0, 0, 0], [1, math.nan, 0], [math.inf, 0, 0], [1, -1, 0], [1, 0, 0]]
    cos, code, f_uu = classify_many(m, rows)
    assert code.tolist() == [0, CODE_ZERO_VECTOR, CODE_NON_FINITE, CODE_NON_FINITE, 2, 1]
    assert np.isnan(cos[1:4]).all() and np.isnan(f_uu[1:4]).all()
    assert cos[[0, 4, 5]].tolist() == [1.0, -0.5, 0.0]
    assert f_uu[[0, 4, 5]].tolist() == [6.0, -2.0, 0.0]


def test_classify_many_validates_shape():
    m = CirculantMetric(1.0, 0.0)
    assert classify_many(m, np.empty((0, 3)))[0].shape == (0,)
    for bad in ([1.0, 2.0, 3.0], np.ones((2, 4)), np.ones((2, 3, 1))):
        with pytest.raises(GeometryError):
            classify_many(m, bad)


def test_classify_many_range_check():
    # circ(1, -2, -2) is indefinite, so a cosine can leave [-1/2, 1]; the
    # metric is built around its own validation to reach the check.
    broken = object.__new__(CirculantMetric)
    object.__setattr__(broken, "a", 1.0)
    object.__setattr__(broken, "b", -2.0)
    with pytest.raises(InvariantViolation):
        classify_many(broken, [[1.0, 1.0, 0.9]])


@pytest.mark.parametrize(
    "u, character",
    [
        ([1e200, 1e200, 1e200], CausalCharacter.SPACELIKE),
        ([1e155, -2e155, 5e154], CausalCharacter.TIMELIKE),
        ([1e-200, 1e-200, 1e-200], CausalCharacter.SPACELIKE),
    ],
)
def test_classify_many_extreme_magnitudes(u, character):
    # Products of these components overflow or underflow in g_inner.
    m = CirculantMetric(2.0, 0.5)
    cos, code, _ = classify_many(m, [u])
    assert CHARACTER_BY_CODE[code[0]] is character
    unit = np.asarray(u) / max(abs(x) for x in u)
    ref = dense_g_inner(m, unit, q_apply(unit)) / dense_g_inner(m, unit, unit)
    assert abs(cos[0] - ref) <= 1e-15


@pytest.mark.parametrize(
    "u, cos, character, f_uu",
    [
        ([1e200, 1e200, 1e200], 1.0, CausalCharacter.SPACELIKE, math.inf),
        ([1e155, -2e155, 5e154], -0.4531250000000001, CausalCharacter.TIMELIKE, -math.inf),
        ([1e-200, 1e-200, 1e-200], 1.0, CausalCharacter.SPACELIKE, 0.0),
    ],
)
def test_scalar_api_extreme_magnitudes(u, cos, character, f_uu):
    # The scalar API scales like classify_many: these read nan, null or a
    # zero vector when products of the components overflowed or underflowed.
    m = CirculantMetric(2.0, 0.5)
    assert cos_phi(m, u) == cos
    assert causal_character(m, u) is character
    assert f_inner(m, u, u) == f_uu
    batch_cos, code, batch_f = classify_many(m, [u])
    assert (batch_cos[0], CHARACTER_BY_CODE[code[0]], batch_f[0]) == (cos, character, f_uu)


_component = st.one_of(st.just(0.0), st.floats(2.0**-20, 2.0**20)).flatmap(
    lambda v: st.sampled_from([v, -v])
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(_component, _component, _component), min_size=1, max_size=8),
    k=st.integers(-1000, 1000),
    j=st.integers(-1000, 1000),
    b_percent=st.integers(-49, 99),
)
def test_classify_many_scale_invariant(rows, k, j, b_percent):
    # Magnitudes in [2^-20, 2^20] keep 2^k * u exact for |k| <= 1000, and
    # |b| >= 1/100 keeps the metric 2^j * circ(1, b, b) exact.
    b = b_percent / 100.0
    m = CirculantMetric(1.0, b)
    u = np.array(rows)
    cos, code, _ = classify_many(m, u)
    scaled = CirculantMetric(math.ldexp(1.0, j), math.ldexp(b, j))
    cos_k, code_k, _ = classify_many(scaled, np.ldexp(u, k))
    assert np.array_equal(code_k, code)
    assert np.array_equal(bits(cos_k), bits(cos))
    # The scalar API gives the same answers, on the stack and row by row.
    nonzero = u[code != CODE_ZERO_VECTOR]
    if len(nonzero):
        assert np.array_equal(bits(cos_phi(scaled, np.ldexp(nonzero, k))), bits(cos_phi(m, nonzero)))
    for row in nonzero:
        assert bits(cos_phi(scaled, np.ldexp(row, k))) == bits(cos_phi(m, row))
        assert causal_character(scaled, np.ldexp(row, k)) is causal_character(m, row)


def test_classify_many_extreme_metric():
    # With circ(1e308, 0, 0) unscaled, g(u, u) overflows to inf while
    # g(u, qu) stays finite, which read cos_phi = 0 and character null.
    u = [[0.99, 0.9, -0.5]]
    cos, code, f_uu = classify_many(CirculantMetric(1e308, 0.0), u)
    cos_1, code_1, f_uu_1 = classify_many(CirculantMetric(1.0, 0.0), u)
    assert (code[0], bits(cos[0])) == (code_1[0], bits(cos_1[0]))
    assert CHARACTER_BY_CODE[code[0]] is CausalCharacter.TIMELIKE
    assert f_uu[0] == pytest.approx(1e308 * f_uu_1[0], rel=1e-15)


# Mantissas in [-1, 1] with zeros and subnormals among them; scaled by 2^k
# for k over the whole exponent range, every entry stays finite.
_MANTISSA = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.ldexp(1.0, -1030), 2.0**-1022]),
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(_MANTISSA, _MANTISSA, _MANTISSA), min_size=1, max_size=6),
    ks=st.lists(st.integers(-1074, 1023), min_size=6, max_size=6),
    one=st.booleans(),
)
def test_unit_matches_the_row_max_reduction(rows, ks, one):
    # _unit takes each row's largest |component| column by column; the
    # exponent and the scaled vectors are those of the reduction over the
    # last axis, bit for bit.
    x = np.ldexp(np.array(rows), np.array(ks[: len(rows)])[:, None])
    if one:
        x = x[0]
    u, exponent = core._unit(x)
    expected = np.frexp(np.abs(x).max(axis=-1))[1]
    assert np.shape(exponent) == np.shape(expected)
    assert np.array_equal(exponent, expected)
    assert np.array_equal(bits(u), bits(np.ldexp(x, -expected[..., None])))


@settings(max_examples=300, deadline=None)
@given(
    uv=st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6),
    b_percent=st.integers(-49, 99),
)
def test_form_is_symmetric_bit_for_bit(uv, b_percent):
    # The sums run in one fixed order over the columns, so swapping u and v
    # leaves every rounding in place; _classify reads f(u, u) as 2 g(u, qu).
    u, v = np.array(uv[:3]), np.array(uv[3:])
    metric = core._metric(CirculantMetric(1.0, b_percent / 100.0))
    assert bits(core._form(metric, u, v)) == bits(core._form(metric, v, u))
    stack = np.array([u, v, u[::-1]])
    assert np.array_equal(bits(core._form(metric, stack, stack[::-1])), bits(core._form(metric, stack[::-1], stack)))
    m = CirculantMetric(1.0, b_percent / 100.0)
    assert bits(f_inner(m, u, v)) == bits(f_inner(m, v, u))


def _fmt_float_reference(x) -> str:
    """fmt_float's earlier definition, which its shorter one must match exactly."""
    v = float(x)
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


_EDGE_FLOATS = [1e16, math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf), 2.0**53, 2.0**53 + 2]


@settings(max_examples=2000, deadline=None)
@given(
    st.one_of(
        st.floats(),  # nan, +-inf, +-0.0 and subnormals included
        st.integers(-(2**64), 2**64).map(float),
        st.sampled_from(_EDGE_FLOATS).flatmap(lambda v: st.sampled_from([v, -v])),
    )
)
@example(-0.0)
@example(5e-324)
def test_fmt_float_matches_reference(x):
    assert fmt_float(x) == _fmt_float_reference(x)
    assert fmt_float(np.float64(x)) == _fmt_float_reference(x)


# ---------------------------------------------------------------- package


def test_package_exports_exactly_the_module_lists():
    modules = (circgeo.core, circgeo.frames, circgeo.quadrics, circgeo.conics, circgeo.oracle)
    listed = set()
    for module in modules:
        for name in module.__all__:
            assert getattr(circgeo, name) is getattr(module, name), (module.__name__, name)
        listed.update(module.__all__)
    public = {
        name
        for name, value in vars(circgeo).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == listed
    assert "SUITE_NAMES" in public
