"""Chart-level differential geometry from second-order jets.

All derivatives of metric and tensor components come from second-order
jets, one jet pass per expression over a batch of points (``metric_jets``
takes a point or N of them); no finite differences and no symbolic
manipulation. Conventions used throughout the package:

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
a point builds them once, from one ``metric_jets`` (``point_geometry``);
given N points, ``point_geometry`` makes one batched ``metric_jets`` and
runs the per-point formulas on its slices.
Derived quantities (∇ of a field, L_ξ g, dη, Ric) are computed by the
checks that need them, from the arrays above; the one-formula versions that
tests compare those checks against live in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import expr as ex
from .chart import Chart
from .errors import SingularMetricError

__all__ = [
    "ConnectionAtPoint", "CurvatureAtPoint", "MetricJets",
    "metric_jets", "connection_of", "curvature_of", "point_geometry",
    "christoffel", "curvature", "nabla_of",
    "orthonormal_frame", "curvature_symmetry_residuals",
]


@dataclass(frozen=True)
class MetricJets:
    """Metric and its first two coordinate derivative arrays at a point, or
    at N points along a leading axis."""

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
    """The metric jets at a point ``p`` (d,), or at each row of ``p`` (N, d)
    on a leading axis: one jet walk per metric entry over all the points."""
    d = chart.dim
    lead = np.shape(p)[:-1]
    env = chart.env(p, jets=True)
    g = np.empty(lead + (d, d))
    dg = np.empty(lead + (d, d, d))
    d2g = np.empty(lead + (d, d, d, d))
    for i in range(d):
        for j in range(i, d):
            v = ex.eval_expr(chart.metric[i, j], env, ex.JET)
            if hasattr(v, "grad"):
                val, grad, hess = v.value, v.grad, v.hess
            else:
                val, grad, hess = float(v), 0.0, 0.0
            g[..., i, j] = g[..., j, i] = val
            dg[..., i, j, :] = dg[..., j, i, :] = grad
            d2g[..., i, j, :, :] = d2g[..., j, i, :, :] = hess
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError:   # name the first singular point
        for q, gq in zip(np.reshape(p, (-1, d)), g.reshape(-1, d, d)):
            try:
                np.linalg.inv(gq)
            except np.linalg.LinAlgError as e:
                raise SingularMetricError(f"metric singular at {tuple(map(float, q))}") from e
        raise
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
    """Connection and curvature at a point ``p`` from one ``metric_jets``; at
    each row of ``p`` (N, d), stacked on a leading point axis, from one
    batched ``metric_jets`` whose slices the per-point formulas read."""
    mj = metric_jets(chart, p)
    if mj.g.ndim == 2:
        conn = connection_of(mj)
        return conn, curvature_of(mj, conn)
    at = [MetricJets(*a) for a in zip(mj.g, mj.dg, mj.d2g, mj.ginv)]
    conns = [connection_of(m) for m in at]
    curvs = [curvature_of(m, c) for m, c in zip(at, conns)]
    return _stacked(conns), _stacked(curvs)


def _stacked(items: list):
    """One record of the type of ``items``, each array stacked over them."""
    cls = type(items[0])
    return cls(*(np.array([getattr(x, f.name) for x in items]) for f in fields(cls)))


def christoffel(chart: Chart, p: Sequence[float]) -> ConnectionAtPoint:
    return connection_of(metric_jets(chart, p))


def curvature(chart: Chart, p: Sequence[float]) -> CurvatureAtPoint:
    return point_geometry(chart, p)[1]


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


def curvature_symmetry_residuals(curv) -> dict[str, float]:
    """Max residuals of the four classical symmetries of the lowered tensors ``curv.riem``."""
    R = curv.riem
    return {
        "antisym_first_pair": float(np.max(np.abs(R + np.einsum("...ijkl->...jikl", R)))),
        "antisym_second_pair": float(np.max(np.abs(R + np.einsum("...ijkl->...ijlk", R)))),
        "pair_interchange": float(np.max(np.abs(R - np.einsum("...ijkl->...klij", R)))),
        "first_bianchi": float(np.max(np.abs(
            R + np.einsum("...ijkl->...jkil", R) + np.einsum("...ijkl->...kijl", R)))),
    }
