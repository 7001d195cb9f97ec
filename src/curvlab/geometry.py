"""Chart-level differential geometry from second-order jets.

All derivatives of metric and tensor components come from second-order
jets, one jet run of each expression program over a batch of points
(``metric_jets`` takes a point or N of them); no finite differences and no
symbolic manipulation. Conventions used throughout the package:

* curvature operator  R_XY Z = ∇_X ∇_Y Z − ∇_Y ∇_X Z − ∇_[X,Y] Z,
* lowered tensor      R(X, Y, Z, W) = −g(R_XY Z, W),

so the round unit sphere has R(X, Y, X, Y) > 0 for independent X, Y, and
Ric(X, X) = (dim − 1) g(X, X) on unit spheres. The exterior derivative of a
one-form carries no 1/2 factor: dη(X, Y) = Xη(Y) − Yη(X) on coordinate
fields; callers that need the convention with the 1/2 (as the contact
metric compatibility test does) scale explicitly.

``metric_jets`` runs a chart's metric program once over the jet ring at a
point or at N of them; ``sample`` (chart.py) makes that run at the sample
points of an invocation. The ``*_of`` functions are formulas over values
already built (metric jets, Γ, curvature, field jets): ``connection_of``,
``curvature_of`` and ``orthonormal_frame`` take one point or N on a leading
axis, and a point's numbers in a batch are its one-point numbers bit for
bit; at N points each is one array evaluation. ``nabla_endomorphism_of`` is
∇φ along every coordinate direction at N points, shared by the structure
battery and the hypersurface's ambient Kähler check. Other derived
quantities (∇ of a vector field, L_ξ g, dη, Ric) are computed by the checks
that need them, from the arrays above; the per-vector versions that tests
compare those checks against, ``nabla_of`` among them, live in
``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import expr as ex
from . import jet
from .errors import SingularMetricError

if TYPE_CHECKING:
    from .chart import Chart

__all__ = [
    "MetricJets",
    "metric_jets", "connection_of", "curvature_of",
    "nabla_endomorphism_of",
    "orthonormal_frame", "curvature_symmetry_residuals",
]


def _expr_jets(program: ex.Program, env: dict, hessians: bool = False):
    """Values and coordinate gradients of the roots of ``program`` from one
    run in the jet environment ``env`` (one seed per coordinate, at a point
    or at N points), with the second derivatives too when ``hessians``. A
    root that evaluates to a constant keeps zero derivatives. Batched seeds
    put the point axis first: vals[n, r], grads[n, r, k]."""
    lead = next(iter(env.values())).value.shape
    shape, dim = lead + (len(program.roots),), len(env)
    vals = np.empty(shape)
    grads = np.zeros(shape + (dim,))
    hess = np.zeros(shape + (dim, dim)) if hessians else None
    for r, v in enumerate(program.run(env, ex.JET)):
        at = (slice(None),) * len(lead) + (r,)
        if isinstance(v, jet.Jet2):
            vals[at], grads[at] = v.value, v.grad
            if hessians:
                hess[at] = v.hess
        else:
            vals[at] = float(v)
    return (vals, grads, hess) if hessians else (vals, grads)


@dataclass(frozen=True)
class MetricJets:
    """The metric, its first two coordinate derivative arrays and its
    inverse at a point ``point`` (d,), or at N points (N, d) along a leading
    axis. The inverse is taken at construction: a singular metric raises
    SingularMetricError naming its first singular point."""

    point: np.ndarray
    g: np.ndarray    # (d, d)
    dg: np.ndarray   # (d, d, d); dg[i, j, k] = ∂_k g_ij
    d2g: np.ndarray  # (d, d, d, d); d2g[i, j, k, l] = ∂_k ∂_l g_ij
    ginv: np.ndarray = field(init=False)

    def __post_init__(self):
        d = self.g.shape[-1]
        try:
            ginv = np.linalg.inv(self.g)
        except np.linalg.LinAlgError:   # name the first singular point
            for q, gq in zip(self.point.reshape(-1, d), self.g.reshape(-1, d, d)):
                try:
                    np.linalg.inv(gq)
                except np.linalg.LinAlgError as e:
                    raise SingularMetricError(f"metric singular at {tuple(map(float, q))}") from e
            raise
        object.__setattr__(self, "ginv", ginv)


def _metric_arrays(chart: Chart, p: np.ndarray):
    """g, dg and d2g at a point ``p`` (d,), or at each row of ``p`` (N, d):
    one jet run of the chart's metric program over all the points."""
    d = chart.dim
    lead = p.shape[:-1]
    g = np.empty(lead + (d, d))
    dg = np.empty(lead + (d, d, d))
    d2g = np.empty(lead + (d, d, d, d))
    vals, grads, hess = _expr_jets(chart.metric_program, chart.env(p, jets=True), hessians=True)
    i, j = np.array(chart.upper).T
    for a, b in ((i, j), (j, i)):
        g[..., a, b], dg[..., a, b, :], d2g[..., a, b, :, :] = vals, grads, hess
    return g, dg, d2g


def metric_jets(chart: Chart, p: Sequence[float]) -> MetricJets:
    """The metric jets at a point ``p`` (d,), or at each row of ``p`` (N, d)
    on a leading axis: one jet run of the chart's metric program over all
    the points, which the jets keep a copy of."""
    p = np.array(p, dtype=float)
    return MetricJets(p, *_metric_arrays(chart, p))


def connection_of(mj: MetricJets) -> tuple[np.ndarray, np.ndarray]:
    """Levi-Civita connection Γ^k_ij = ½ g^kl (∂_i g_jl + ∂_j g_il − ∂_l g_ij)
    as ``gamma[..., k, i, j]``, and its derivatives ``dgamma[..., k, i, j,
    m]`` = ∂_m Γ^k_ij, at a point or on a point axis."""
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
    return gamma, dgamma


def curvature_of(g: np.ndarray, gamma: np.ndarray,
                 dgamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Curvature on coordinate fields from the metric g and the connection
    (``connection_of``), at a point or on a point axis: the lowered
    ``riem[..., i, j, k, l]`` = R(∂_i, ∂_j, ∂_k, ∂_l) and the operator
    components ``riem13[..., m, i, j, k]`` = (R_∂i∂j ∂_k)^m. The bracket
    term vanishes on coordinate fields."""
    # (R_ij ∂_k)^m = ∂_i Γ^m_jk − ∂_j Γ^m_ik + Γ^p_jk Γ^m_ip − Γ^p_ik Γ^m_jp
    riem13 = (np.einsum("...mjki->...mijk", dgamma) - np.einsum("...mikj->...mijk", dgamma)
              + np.einsum("...pjk,...mip->...mijk", gamma, gamma)
              - np.einsum("...pik,...mjp->...mijk", gamma, gamma))
    riem = -np.einsum("...lm,...mijk->...ijkl", g, riem13)
    return riem, riem13


def nabla_endomorphism_of(gamma: np.ndarray, vals: np.ndarray,
                          grads: np.ndarray) -> np.ndarray:
    """(∇_i φ)^k_j = ∂_i φ^k_j + Γ^k_im φ^m_j − φ^k_m Γ^m_ij as [n, k, i, j],
    along every coordinate basis vector at each of N points, from Γ
    (N, d, d, d) and the jets of an endomorphism field φ: ``vals`` (N, d, d)
    and ``grads[n, k, j, i]`` = ∂_i φ^k_j, as the point record carries
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


def curvature_symmetry_residuals(R: np.ndarray) -> dict[str, float]:
    """Max residuals of the four classical symmetries of the lowered tensors ``R``."""
    return {
        "antisym_first_pair": float(np.max(np.abs(R + np.einsum("...ijkl->...jikl", R)))),
        "antisym_second_pair": float(np.max(np.abs(R + np.einsum("...ijkl->...ijlk", R)))),
        "pair_interchange": float(np.max(np.abs(R - np.einsum("...ijkl->...klij", R)))),
        "first_bianchi": float(np.max(np.abs(
            R + np.einsum("...ijkl->...jkil", R) + np.einsum("...ijkl->...kijl", R)))),
    }
