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
points of an invocation. Its ``MetricJets`` factors g once, by one stacked
Cholesky call (LAPACK): that is the check that g is finite and positive
definite, and the factor's inverse is the orthonormal frame E(p). The
``*_of`` functions are formulas over values already built (metric jets,
Γ, curvature, field jets): ``connection_of`` and ``curvature_of`` take one
point or N on a leading axis, and at N points each is one array
evaluation of stacked ``@`` products (BLAS). Γ, ∂Γ, R¹³, R and E(p) each
make the same call per point as the one-point call, so a point's numbers
in a batch are its one-point numbers bit for bit. The
index-contraction formulas of ``tests/reference.py`` sum in another
order and agree with them to rounding. ``nabla_endomorphism_of`` is
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
    "nabla_endomorphism_of", "curvature_symmetry_residuals",
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
    """The metric, its first two coordinate derivative arrays, its inverse
    and its orthonormal frame at a point ``point`` (d,), or at N points
    (N, d) along a leading axis. g is factored at construction, g = L Lᵀ by
    Cholesky: a g that is not finite or not positive definite raises
    SingularMetricError naming its first such point and the first leading
    minor that fails there. ``E`` = L⁻¹ holds the frame vectors as rows, so
    E g Eᵀ = identity; E is lower triangular with a positive diagonal, the
    frame Gram-Schmidt builds from the coordinate basis in its fixed pivot
    order."""

    point: np.ndarray
    g: np.ndarray    # (d, d)
    dg: np.ndarray   # (d, d, d); dg[i, j, k] = ∂_k g_ij
    d2g: np.ndarray  # (d, d, d, d); d2g[i, j, k, l] = ∂_k ∂_l g_ij
    ginv: np.ndarray = field(init=False)
    E: np.ndarray = field(init=False)

    def __post_init__(self):
        try:
            if not np.isfinite(self.g).all():
                raise np.linalg.LinAlgError
            L = np.linalg.cholesky(self.g)
        except np.linalg.LinAlgError:
            raise _first_failure(self.point, self.g) from None
        object.__setattr__(self, "ginv", np.linalg.inv(self.g))
        object.__setattr__(self, "E", np.linalg.inv(L))


def _first_failure(point: np.ndarray, g: np.ndarray) -> SingularMetricError:
    """The error naming the first point, in row order, whose metric has a
    k × k leading block that is not finite or has no Cholesky factor, and
    the first such k there."""
    d = g.shape[-1]
    for q, gq in zip(point.reshape(-1, d), g.reshape(-1, d, d)):
        for k in range(1, d + 1):
            try:
                if np.isfinite(gq[:k, :k]).all():
                    np.linalg.cholesky(gq[:k, :k])
                    continue
            except np.linalg.LinAlgError:
                pass
            return SingularMetricError(f"metric not positive definite at "
                                       f"{tuple(q.tolist())} (leading minor {k})")


def metric_jets(chart: Chart, p: Sequence[float]) -> MetricJets:
    """The metric jets at a point ``p`` (d,), or at each row of ``p`` (N, d)
    on a leading axis: one jet run of the chart's metric program over all
    the points, which the jets keep a copy of."""
    p = np.array(p, dtype=float)
    d = chart.dim
    g = np.empty(p.shape[:-1] + (d, d))
    dg = np.empty(g.shape + (d,))
    d2g = np.empty(g.shape + (d, d))
    vals, grads, hess = _expr_jets(chart.metric_program, chart.env(p, jets=True), hessians=True)
    i, j = np.array(chart.upper).T
    for a, b in ((i, j), (j, i)):
        g[..., a, b], dg[..., a, b, :], d2g[..., a, b, :, :] = vals, grads, hess
    return MetricJets(p, g, dg, d2g)


def connection_of(mj: MetricJets) -> tuple[np.ndarray, np.ndarray]:
    """Levi-Civita connection Γ^k_ij = ½ g^kl (∂_i g_jl + ∂_j g_il − ∂_l g_ij)
    as ``gamma[..., k, i, j]``, and its derivatives ``dgamma[..., k, i, j,
    m]`` = ∂_m Γ^k_ij, at a point or on a point axis."""
    lead, d = mj.g.shape[:-2], mj.g.shape[-1]
    # lowered symbols Γ_{l,ij} and their m-derivatives
    low = 0.5 * (np.einsum("...jli->...lij", mj.dg) + np.einsum("...ilj->...lij", mj.dg)
                 - np.einsum("...ijl->...lij", mj.dg))
    # in place: a temporary the size of d2g costs a fresh allocation each
    dlow = np.einsum("...jlim->...lijm", mj.d2g) + np.einsum("...iljm->...lijm", mj.d2g)
    dlow -= np.einsum("...ijlm->...lijm", mj.d2g)
    dlow *= 0.5
    low_ij = low.reshape(lead + (d, d * d))   # l by (i, j)
    gamma = (mj.ginv @ low_ij).reshape(low.shape)
    # ∂_m Γ = g⁻¹ ∂_m low + (∂_m g⁻¹) low, where ∂_m g⁻¹ = −g⁻¹ (∂_m g) g⁻¹ has m
    # on a batch axis: dginv[..., m, k, l]
    ginv = mj.ginv[..., None, :, :]
    dginv = ginv @ np.moveaxis(mj.dg, -1, -3) @ ginv
    dgamma = (mj.ginv @ dlow.reshape(lead + (d, d ** 3))).reshape(dlow.shape)
    dgamma -= np.moveaxis((dginv @ low_ij[..., None, :, :]).reshape(lead + (d,) * 4), -4, -1)
    return gamma, dgamma


def curvature_of(g: np.ndarray, gamma: np.ndarray,
                 dgamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Curvature on coordinate fields from the metric g and the connection
    (``connection_of``), at a point or on a point axis: the lowered
    ``riem[..., i, j, k, l]`` = R(∂_i, ∂_j, ∂_k, ∂_l) and the operator
    components ``riem13[..., m, i, j, k]`` = (R_∂i∂j ∂_k)^m. The bracket
    term vanishes on coordinate fields."""
    lead, d = g.shape[:-2], g.shape[-1]
    # (R_ij ∂_k)^m = ∂_i Γ^m_jk − ∂_j Γ^m_ik + Γ^p_jk Γ^m_ip − Γ^p_ik Γ^m_jp, where
    # gg[..., m, i, j, k] = Γ^m_ip Γ^p_jk is one (m i) by (j k) product
    gg = gamma.reshape(lead + (d * d, d)) @ gamma.reshape(lead + (d, d * d))
    gg = gg.reshape(dgamma.shape)
    riem13 = np.moveaxis(dgamma, -1, -3) - dgamma.swapaxes(-1, -2)
    riem13 += gg
    riem13 -= gg.swapaxes(-3, -2)
    # R_ijkl = −g_lm (R_ij ∂_k)^m, with (i j k) by m times g's transpose
    riem = -(np.moveaxis(riem13, -4, -1).reshape(lead + (d ** 3, d)) @ g.swapaxes(-1, -2))
    return riem.reshape(riem13.shape), riem13


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


def curvature_symmetry_residuals(R: np.ndarray) -> dict[str, float]:
    """Max residuals of the four classical symmetries of the lowered tensors ``R``."""
    return {
        "antisym_first_pair": float(np.max(np.abs(R + np.einsum("...ijkl->...jikl", R)))),
        "antisym_second_pair": float(np.max(np.abs(R + np.einsum("...ijkl->...ijlk", R)))),
        "pair_interchange": float(np.max(np.abs(R - np.einsum("...ijkl->...klij", R)))),
        "first_bianchi": float(np.max(np.abs(
            R + np.einsum("...ijkl->...jkil", R) + np.einsum("...ijkl->...kijl", R)))),
    }
