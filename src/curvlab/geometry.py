"""Chart-level differential geometry from second-order jets.

All derivatives of metric and tensor components come from one jet pass per
point; no finite differences and no symbolic manipulation. Conventions used
throughout the package:

* curvature operator  R_XY Z = ∇_X ∇_Y Z − ∇_Y ∇_X Z − ∇_[X,Y] Z,
* lowered tensor      R(X, Y, Z, W) = −g(R_XY Z, W),

so the round unit sphere has R(X, Y, X, Y) > 0 for independent X, Y, and
Ric(X, X) = (dim − 1) g(X, X) on unit spheres. The exterior derivative of a
one-form carries no 1/2 factor: dη(X, Y) = Xη(Y) − Yη(X) on coordinate
fields; callers that need the convention with the 1/2 (as the contact
metric compatibility test does) scale explicitly.

The ``*_of`` functions are formulas over values already built at one point
(metric jets, Γ, curvature, field jets); the ``(chart, p, …)`` functions
build what they need and call them. A check that needs several of these at
a point builds them once, from one ``metric_jets`` (``point_geometry``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as ex
from .chart import Chart, TensorField, eval_field_jets
from .errors import SingularMetricError

__all__ = [
    "ConnectionAtPoint", "CurvatureAtPoint", "MetricJets",
    "metric_jets", "connection_of", "curvature_of", "point_geometry",
    "christoffel", "curvature",
    "nabla_of", "covariant_derivative", "covariant_derivative_02",
    "lie_derivative_metric", "exterior_d_oneform", "ricci",
    "orthonormal_frame", "curvature_symmetry_residuals",
    "contact_volume_coefficient", "riemann_eval",
]


@dataclass(frozen=True)
class MetricJets:
    """Metric and its first two coordinate derivative arrays at a point."""

    g: np.ndarray    # (d, d)
    dg: np.ndarray   # (d, d, d); dg[i, j, k] = ∂_k g_ij
    d2g: np.ndarray  # (d, d, d, d); d2g[i, j, k, l] = ∂_k ∂_l g_ij
    ginv: np.ndarray


@dataclass(frozen=True)
class ConnectionAtPoint:
    """Christoffel symbols Γ^k_ij at a point, gamma[k, i, j], plus the
    coordinate derivatives dgamma[k, i, j, m] = ∂_m Γ^k_ij."""

    gamma: np.ndarray
    dgamma: np.ndarray


@dataclass(frozen=True)
class CurvatureAtPoint:
    """Curvature arrays at a point.

    ``riem[i, j, k, l]`` is the lowered R(∂_i, ∂_j, ∂_k, ∂_l);
    ``riem13[m, i, j, k]`` is the operator component (R_∂i∂j ∂_k)^m.
    """

    riem: np.ndarray
    riem13: np.ndarray
    g: np.ndarray


def metric_jets(chart: Chart, p: Sequence[float]) -> MetricJets:
    d = chart.dim
    env = chart.env(p, jets=True)
    g = np.empty((d, d))
    dg = np.empty((d, d, d))
    d2g = np.empty((d, d, d, d))
    for i in range(d):
        for j in range(i, d):
            v = ex.eval_expr(chart.metric[i, j], env, ex.JET)
            if hasattr(v, "grad"):
                val, grad, hess = v.value, v.grad, v.hess
            else:
                val, grad, hess = float(v), np.zeros(d), np.zeros((d, d))
            g[i, j] = g[j, i] = val
            dg[i, j] = dg[j, i] = grad
            d2g[i, j] = d2g[j, i] = hess
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as e:
        raise SingularMetricError(f"metric singular at {tuple(p)}") from e
    return MetricJets(g=g, dg=dg, d2g=d2g, ginv=ginv)


def connection_of(mj: MetricJets) -> ConnectionAtPoint:
    """Levi-Civita connection Γ^k_ij = ½ g^kl (∂_i g_jl + ∂_j g_il − ∂_l g_ij)."""
    # lowered symbols Γ_{l,ij} and their m-derivatives
    low = 0.5 * (np.einsum("jli->lij", mj.dg) + np.einsum("ilj->lij", mj.dg)
                 - np.einsum("ijl->lij", mj.dg))
    dlow = 0.5 * (np.einsum("jlim->lijm", mj.d2g) + np.einsum("iljm->lijm", mj.d2g)
                  - np.einsum("ijlm->lijm", mj.d2g))
    gamma = np.einsum("kl,lij->kij", mj.ginv, low)
    # ∂_m g^{kl} = −g^{ka} (∂_m g_ab) g^{bl}
    dginv = -np.einsum("ka,abm,bl->klm", mj.ginv, mj.dg, mj.ginv)
    dgamma = (np.einsum("klm,lij->kijm", dginv, low)
              + np.einsum("kl,lijm->kijm", mj.ginv, dlow))
    return ConnectionAtPoint(gamma=gamma, dgamma=dgamma)


def curvature_of(mj: MetricJets, conn: ConnectionAtPoint) -> CurvatureAtPoint:
    """Curvature on coordinate fields; the bracket term vanishes there."""
    gamma, dgamma = conn.gamma, conn.dgamma
    # (R_ij ∂_k)^m = ∂_i Γ^m_jk − ∂_j Γ^m_ik + Γ^p_jk Γ^m_ip − Γ^p_ik Γ^m_jp
    riem13 = (np.einsum("mjki->mijk", dgamma) - np.einsum("mikj->mijk", dgamma)
              + np.einsum("pjk,mip->mijk", gamma, gamma)
              - np.einsum("pik,mjp->mijk", gamma, gamma))
    riem = -np.einsum("lm,mijk->ijkl", mj.g, riem13)
    return CurvatureAtPoint(riem=riem, riem13=riem13, g=mj.g)


def point_geometry(chart: Chart, p: Sequence[float]) -> tuple[ConnectionAtPoint,
                                                              CurvatureAtPoint]:
    """Connection and curvature at ``p`` from one ``metric_jets``."""
    mj = metric_jets(chart, p)
    conn = connection_of(mj)
    return conn, curvature_of(mj, conn)


def christoffel(chart: Chart, p: Sequence[float]) -> ConnectionAtPoint:
    return connection_of(metric_jets(chart, p))


def curvature(chart: Chart, p: Sequence[float]) -> CurvatureAtPoint:
    return point_geometry(chart, p)[1]


def riemann_eval(curv: CurvatureAtPoint, X, Y, Z, W) -> float:
    """Multilinear evaluation R(X, Y, Z, W) against the lowered array."""
    return float(np.einsum("ijkl,i,j,k,l", curv.riem, X, Y, Z, W))


def nabla_of(gamma: np.ndarray, valence: str, jets, X) -> np.ndarray:
    """∇_X f from Γ and the jets ``(values, grads)`` of a vector, one-form or
    endomorphism field f, as returned by ``eval_field_jets``."""
    X = np.asarray(X, dtype=float)
    vals, grads = jets
    if valence == "vector":
        # (∇_X ξ)^k = X^i (∂_i ξ^k + Γ^k_ij ξ^j)
        return np.einsum("i,ki->k", X, grads) + np.einsum("i,kij,j->k", X, gamma, vals)
    if valence == "oneform":
        # (∇_X η)_j = X^i (∂_i η_j − Γ^k_ij η_k)
        return np.einsum("i,ji->j", X, grads) - np.einsum("i,kij,k->j", X, gamma, vals)
    if valence == "endomorphism":
        # (∇_X φ)^k_j = X^i (∂_i φ^k_j + Γ^k_im φ^m_j − φ^k_m Γ^m_ij)
        return (np.einsum("i,kji->kj", X, grads)
                + np.einsum("i,kim,mj->kj", X, gamma, vals)
                - np.einsum("km,i,mij->kj", vals, X, gamma))
    raise ValueError(f"unsupported valence {valence!r}")


def covariant_derivative(chart: Chart, f: TensorField, p: Sequence[float], X) -> np.ndarray:
    """∇_X f at ``p`` for a vector, one-form or endomorphism field."""
    return nabla_of(christoffel(chart, p).gamma, f.valence, eval_field_jets(f, p), X)


def covariant_derivative_02(chart: Chart, components, p: Sequence[float], X) -> np.ndarray:
    """∇_X T for a (0,2) expression array; used for the ∇g = 0 check."""
    t = TensorField(chart, "endomorphism", components)  # same shape, parse only
    conn = christoffel(chart, p)
    gamma = conn.gamma
    X = np.asarray(X, dtype=float)
    vals, grads = eval_field_jets(t, p)
    # (∇_X T)_jk = X^i (∂_i T_jk − Γ^m_ij T_mk − Γ^m_ik T_jm)
    return (np.einsum("i,jki->jk", X, grads)
            - np.einsum("i,mij,mk->jk", X, gamma, vals)
            - np.einsum("i,mik,jm->jk", X, gamma, vals))


def lie_derivative_metric(chart: Chart, xi: TensorField, p: Sequence[float], X, Y) -> float:
    """(L_ξ g)(X, Y) = g(∇_X ξ, Y) + g(X, ∇_Y ξ) for the Levi-Civita metric."""
    if xi.valence != "vector":
        raise ValueError("Killing test expects a vector field")
    gamma, jets = christoffel(chart, p).gamma, eval_field_jets(xi, p)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    g = chart.metric_at(p)
    return float(nabla_of(gamma, "vector", jets, X) @ g @ Y
                 + X @ g @ nabla_of(gamma, "vector", jets, Y))


def exterior_d_oneform(chart: Chart, eta: TensorField, p: Sequence[float], X, Y) -> float:
    """dη(X, Y) = X^i Y^j (∂_i η_j − ∂_j η_i), without any 1/2 factor."""
    if eta.valence != "oneform":
        raise ValueError("exterior derivative here expects a one-form")
    grads = eval_field_jets(eta, p)[1]  # grads[j, i] = ∂_i η_j
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return float(X @ (grads.T - grads) @ Y)


def orthonormal_frame(g: np.ndarray) -> np.ndarray:
    """Gram-Schmidt frame from the coordinate basis, pivot order fixed.

    Returns ``E`` with rows E[a] the frame vectors; E g E^T = identity.
    """
    d = g.shape[0]
    E = np.zeros((d, d))
    for a in range(d):
        v = np.zeros(d)
        v[a] = 1.0
        for b in range(a):
            v = v - (E[b] @ g @ v) * E[b]
        nrm2 = float(v @ g @ v)
        if nrm2 <= 0.0:
            raise SingularMetricError("Gram-Schmidt breakdown: metric not positive definite")
        E[a] = v / np.sqrt(nrm2)
    return E


def ricci(chart: Chart, p: Sequence[float], X, Y) -> float:
    """Ric(X, Y) = Σ_a R(E_a, X, E_a, Y) over a g-orthonormal frame."""
    curv = curvature(chart, p)
    E = orthonormal_frame(curv.g)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return float(np.einsum("ai,j,ak,l,ijkl->", E, X, E, Y, curv.riem))


def curvature_symmetry_residuals(curv: CurvatureAtPoint) -> dict[str, float]:
    """Max residuals of the four classical symmetries of the lowered tensor."""
    R = curv.riem
    return {
        "antisym_first_pair": float(np.max(np.abs(R + np.einsum("ijkl->jikl", R)))),
        "antisym_second_pair": float(np.max(np.abs(R + np.einsum("ijkl->ijlk", R)))),
        "pair_interchange": float(np.max(np.abs(R - np.einsum("ijkl->klij", R)))),
        "first_bianchi": float(np.max(np.abs(
            R + np.einsum("ijkl->jkil", R) + np.einsum("ijkl->kijl", R)))),
    }


def contact_volume_coefficient(chart: Chart, eta: TensorField, p: Sequence[float]) -> float:
    """Unnormalized coefficient of η ∧ (dη)^n on the coordinate basis.

    The chart dimension must be odd (2n + 1). Only the nonvanishing of the
    result is meaningful; the combinatorial normalization is not applied.
    """
    from itertools import permutations

    d = chart.dim
    if d % 2 == 0:
        raise ValueError("contact volume needs an odd-dimensional chart")
    n = (d - 1) // 2
    vals, grads = eval_field_jets(eta, p)
    curl = grads.T - grads

    def sign(perm):
        s, seen = 1, list(perm)
        for i in range(len(seen)):
            while seen[i] != i:
                j = seen[i]
                seen[i], seen[j] = seen[j], seen[i]
                s = -s
        return s

    total = 0.0
    for perm in permutations(range(d)):
        term = vals[perm[0]]
        if term == 0.0:
            continue
        for a in range(n):
            term *= curl[perm[1 + 2 * a], perm[2 + 2 * a]]
            if term == 0.0:
                break
        if term != 0.0:
            total += sign(perm) * term
    return total
