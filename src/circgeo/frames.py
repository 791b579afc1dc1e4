"""Shift-generated bases and the orthogonal companion vector.

A nonzero vector u whose shift angle lies strictly inside (0, 2*pi/3) spans,
together with its first and second shifts, a basis of the tangent space.
For any valid circulant metric there is a choice of u making that basis
g-orthonormal; this module realizes one such choice deterministically.
It also builds the g-unit vector w orthogonal to u inside span{u, qu}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EPS_ANGLE,
    CirculantMetric,
    DegenerateAngleError,
    ZeroVectorError,
    _scalar,
    _metric,
    as_vector,
    clamp_cos,
    cos_phi,
    g_inner,
    g_norm,
    q_apply,
)

__all__ = ["QBasis", "PlaneFrame", "is_q_basis", "orthonormal_q_basis", "companion_w", "gram_matrix"]

# Shift-fixed axis and a seed direction orthogonal to it (Euclidean).
_AXIS = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
_SEED = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)


@dataclass(frozen=True)
class QBasis:
    """Basis {u, qu, q2u} generated from u by repeated shifts."""

    u: np.ndarray
    qu: np.ndarray
    q2u: np.ndarray

    def vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.u, self.qu, self.q2u)


@dataclass(frozen=True)
class PlaneFrame:
    """g-orthonormal frame (u, w) of the 2-plane span{u, qu}, with the shift angle phi."""

    u: np.ndarray
    w: np.ndarray
    phi: float | np.ndarray


def is_q_basis(m: CirculantMetric, u) -> bool:
    """True when {u, qu, q2u} is a basis, i.e. the shift angle is strictly interior.

    Boundary cases (cos within EPS_ANGLE of 1 or -1/2) are rejected: there the
    three vectors are linearly dependent.
    """
    c = cos_phi(m, u)
    return -0.5 + EPS_ANGLE < c < 1.0 - EPS_ANGLE


def orthonormal_q_basis(m: CirculantMetric) -> QBasis:
    """Deterministic g-orthonormal shift basis for a valid circulant metric.

    Within the two-parameter family u0 = n + beta * e, where n is the unit
    shift-fixed axis and e = (1, -1, 0)/sqrt(2), the condition g(u0, q u0) = 0
    has the unique positive solution beta = sqrt(2 (a + 2b) / (a - b)).
    Normalizing u0 to g-unit length then makes the whole Gram matrix of
    (u, qu, q2u) the identity, because the shift is a g-isometry. Any rotation
    of u0 about n would do as well; fixing e makes the output reproducible.
    A stack of metrics gives a stack of bases.
    """
    # The power of two common to the scaled a and b cancels in the ratio.
    a, b, _ = _metric(m)
    disc = 2.0 * (a + 2.0 * b) / (a - b)
    u0 = _AXIS + np.multiply.outer(np.sqrt(disc), _SEED)
    u = u0 / np.expand_dims(g_norm(m, u0), -1)
    qu = q_apply(u)
    return QBasis(u=u, qu=qu, q2u=q_apply(qu))


def companion_w(m: CirculantMetric, u) -> PlaneFrame:
    """g-unit vector w in span{u, qu} with g(u, w) = 0, plus the shift angle.

    w = (qu - u cos phi) / |qu - u cos phi|_g for the g-normalized u. The
    input is normalized internally, so the result depends only on the
    direction of u.
    Fails when u and qu are parallel (cos phi within EPS_ANGLE of 1): the
    plane degenerates and sin phi vanishes. Broadcasts over stacks of vectors
    and metrics; phi is then an array too.
    """
    v = as_vector(u)
    norm = g_norm(m, v)
    if np.any(norm == 0.0):
        raise ZeroVectorError("companion vector is undefined for the zero vector")
    v = v / np.expand_dims(norm, -1)
    c = clamp_cos(cos_phi(m, v))
    if np.any(c >= 1.0 - EPS_ANGLE):
        raise DegenerateAngleError(
            "u and its shift are parallel (shift angle ~ 0); no 2-plane to frame"
        )
    # d over its own computed g-norm, not over the analytic sin phi: with sin phi
    # the rounding of u's norm and of c enters g(w, w) amplified by 1/sin^2 phi.
    d = q_apply(v) - np.expand_dims(c, -1) * v
    return PlaneFrame(u=v, w=d / np.expand_dims(g_norm(m, d), -1), phi=_scalar(np.arccos(c)))


def gram_matrix(m: CirculantMetric, vectors) -> np.ndarray:
    """Matrix of pairwise g-inner products of a sequence of k vectors.

    Each entry of the sequence may be a stack of vectors; the result then has
    shape (..., k, k).
    """
    v = as_vector(vectors)
    return np.moveaxis(g_inner(m, v[:, None], v[None, :]), (0, 1), (-2, -1))
