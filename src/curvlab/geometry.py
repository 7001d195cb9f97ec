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

The ``*_of`` functions are formulas over values already built (metric jets,
Γ, curvature, field jets); the ``(chart, p, …)`` functions build what they
need and call them. ``connection_of``, ``curvature_of`` and
``orthonormal_frame`` take one point or N on a leading axis, and a point's
numbers in a batch are its one-point numbers bit for bit. ``point_geometry``
builds Γ and R from one ``metric_jets``: at N points, one array evaluation;
it is the one entry point for Γ and R at a chart point.
``nabla_endomorphism_of`` is ∇φ along every coordinate direction at N
points, shared by the structure battery and the hypersurface's ambient
Kähler check. Other derived quantities (∇ of a vector field, L_ξ g, dη,
Ric) are computed by the checks that need them, from the arrays above; the
per-vector versions that tests compare those checks against, ``nabla_of``
among them, live in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chart import Chart, _expr_jets
from .errors import SingularMetricError

__all__ = [
    "ConnectionAtPoint", "CurvatureAtPoint", "MetricJets",
    "metric_jets", "connection_of", "curvature_of", "point_geometry",
    "nabla_endomorphism_of",
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
    """Christoffel symbols Γ^k_ij, gamma[..., k, i, j], and their derivatives
    dgamma[..., k, i, j, m] = ∂_m Γ^k_ij, at a point or on a point axis."""

    gamma: np.ndarray
    dgamma: np.ndarray


@dataclass(frozen=True)
class CurvatureAtPoint:
    """Curvature arrays at a point, or at N points on a leading axis.

    ``riem[i, j, k, l]`` is the lowered R(∂_i, ∂_j, ∂_k, ∂_l);
    ``riem13[m, i, j, k]`` is the operator component (R_∂i∂j ∂_k)^m.
    """

    riem: np.ndarray
    riem13: np.ndarray
    g: np.ndarray


def metric_jets(chart: Chart, p: Sequence[float]) -> MetricJets:
    """The metric jets at a point ``p`` (d,), or at each row of ``p`` (N, d)
    on a leading axis: one jet run of the chart's metric program over all
    the points."""
    d = chart.dim
    lead = np.shape(p)[:-1]
    g = np.empty(lead + (d, d))
    dg = np.empty(lead + (d, d, d))
    d2g = np.empty(lead + (d, d, d, d))
    vals, grads, hess = _expr_jets(chart.metric_program, chart.env(p, jets=True), hessians=True)
    i, j = np.array(chart.upper).T
    for a, b in ((i, j), (j, i)):
        g[..., a, b], dg[..., a, b, :], d2g[..., a, b, :, :] = vals, grads, hess
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
    low = 0.5 * (np.einsum("...jli->...lij", mj.dg) + np.einsum("...ilj->...lij", mj.dg)
                 - np.einsum("...ijl->...lij", mj.dg))
    dlow = 0.5 * (np.einsum("...jlim->...lijm", mj.d2g) + np.einsum("...iljm->...lijm", mj.d2g)
                  - np.einsum("...ijlm->...lijm", mj.d2g))
    gamma = np.einsum("...kl,...lij->...kij", mj.ginv, low)
    # ∂_m g^{kl} = −g^{ka} (∂_m g_ab) g^{bl}
    dginv = -np.einsum("...ka,...abm,...bl->...klm", mj.ginv, mj.dg, mj.ginv)
    dgamma = (np.einsum("...klm,...lij->...kijm", dginv, low)
              + np.einsum("...kl,...lijm->...kijm", mj.ginv, dlow))
    return ConnectionAtPoint(gamma=gamma, dgamma=dgamma)


def curvature_of(mj: MetricJets, conn: ConnectionAtPoint) -> CurvatureAtPoint:
    """Curvature on coordinate fields; the bracket term vanishes there."""
    gamma, dgamma = conn.gamma, conn.dgamma
    # (R_ij ∂_k)^m = ∂_i Γ^m_jk − ∂_j Γ^m_ik + Γ^p_jk Γ^m_ip − Γ^p_ik Γ^m_jp
    riem13 = (np.einsum("...mjki->...mijk", dgamma) - np.einsum("...mikj->...mijk", dgamma)
              + np.einsum("...pjk,...mip->...mijk", gamma, gamma)
              - np.einsum("...pik,...mjp->...mijk", gamma, gamma))
    riem = -np.einsum("...lm,...mijk->...ijkl", mj.g, riem13)
    return CurvatureAtPoint(riem=riem, riem13=riem13, g=mj.g)


def point_geometry(chart: Chart, p: Sequence[float]) -> tuple[ConnectionAtPoint,
                                                              CurvatureAtPoint]:
    """Connection and curvature at a point ``p`` (d,), or at each row of
    ``p`` (N, d) on a leading point axis, from one ``metric_jets``."""
    mj = metric_jets(chart, p)
    conn = connection_of(mj)
    return conn, curvature_of(mj, conn)


def nabla_endomorphism_of(gamma: np.ndarray, vals: np.ndarray,
                          grads: np.ndarray) -> np.ndarray:
    """(∇_i φ)^k_j = ∂_i φ^k_j + Γ^k_im φ^m_j − φ^k_m Γ^m_ij as [n, k, i, j],
    along every coordinate basis vector at each of N points, from Γ
    (N, d, d, d) and the jets of an endomorphism field φ: ``vals`` (N, d, d)
    and ``grads[n, k, j, i]`` = ∂_i φ^k_j, as ``eval_field_jets`` returns
    them."""
    n, d = vals.shape[:2]
    return (grads.transpose(0, 1, 3, 2) + gamma @ vals[:, None]
            - (vals @ gamma.reshape(n, d, d * d)).reshape(gamma.shape))


def orthonormal_frame(g: np.ndarray) -> np.ndarray:
    """Gram-Schmidt frame from the coordinate basis, pivot order fixed; g is (d, d) or (N, d, d).

    Returns ``E`` with rows E[..., a, :] the frame vectors; E g E^T = identity.
    """
    d = g.shape[-1]
    E = np.zeros(g.shape)
    for a in range(d):
        v = np.zeros(g.shape[:-2] + (1, d))   # a row vector at each point
        v[..., a] = 1.0
        for b in range(a):
            Eb = E[..., b:b + 1, :]
            v = v - (Eb @ g @ v.swapaxes(-1, -2)) * Eb
        nrm2 = v @ g @ v.swapaxes(-1, -2)
        if np.any(nrm2 <= 0.0):
            raise SingularMetricError("Gram-Schmidt breakdown: metric not positive definite")
        E[..., a:a + 1, :] = v / np.sqrt(nrm2)
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
