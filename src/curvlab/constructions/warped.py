"""Warped product charts and line-warped almost contact structures.

A warped product B ×_b F carries the metric g_B ⊕ (b∘π)² g_F. Its
Levi-Civita connection decomposes block-wise:

    ∇_X Y = ∇ᴮ_X Y,   ∇_X Z = X(ln b) Z,
    ∇_Z W = ∇ᶠ_Z W − b² g_F(Z, W) grad_B(ln b),

for X, Y tangent to the base and Z, W tangent to the fiber. The special
case of a line base, g = dθ² + f(θ)² ḡ over an almost Hermitian fiber
(N, J, ḡ), carries the almost contact structure ξ = ∂_θ, η = dθ, φ|_N = J,
φξ = 0, and its curvature has a closed form in fiber data; f″/f = −1
(f = α cos θ + β sin θ) is exactly the condition making the ξ-slot
curvature block match the contact identities, which is how the sine-cone
examples arise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import expr as ex
from .. import geometry
from .. import jet
from ..chart import Chart, Interval, TensorField, SampleSet, _expr_jets, eval_field
from ..structures import (AlmostContactStructure, AlmostHermitianStructure, WorstResidual,
                          _norm)
from ..errors import EvalDomainError

__all__ = [
    "WarpedSpec", "build_warped", "warped_christoffel_oracle",
    "RWarpedBundle", "build_r_warped_contact",
    "r_warped_christoffel_oracle", "r_warped_riemann_oracle",
    "eq_for_g1_obstruction",
]


@dataclass(frozen=True)
class WarpedSpec:
    """Base chart, fiber chart and the positive warping function over the
    base coordinates."""

    base: Chart
    fiber: Chart
    warping: ex.Expr
    name: str = ""

    def __post_init__(self):
        if set(self.base.coords) & set(self.fiber.coords):
            raise ValueError("base and fiber coordinate names must be disjoint")
        free = ex.free_variables(self.warping)
        if not free <= set(self.base.coords):
            raise ValueError("warping function must depend on base coordinates only")


def build_warped(spec: WarpedSpec) -> Chart:
    """Product chart with fiber block scaled by the squared warping function.

    The warping function is checked positive at sampled base points when the
    chart is sampled (positive definiteness of the fiber block fails
    otherwise).
    """
    nb, nf = spec.base.dim, spec.fiber.dim
    d = nb + nf
    coords = spec.base.coords + spec.fiber.coords
    b2 = ex.Pow(spec.warping, 2)
    metric = np.empty((d, d), dtype=object)
    metric[:] = None
    for i in range(nb):
        for j in range(i, nb):
            metric[i, j] = spec.base.metric[i, j]
        for j in range(nf):
            metric[i, nb + j] = ex.Num(0)
    for i in range(nf):
        for j in range(i, nf):
            metric[nb + i, nb + j] = ex.Bin("*", b2, spec.fiber.metric[i, j])
    domain = spec.base.domain + spec.fiber.domain
    return Chart(coords, metric, domain, name=spec.name or "warped")


def warped_christoffel_oracle(spec: WarpedSpec, p: Sequence[float]) -> np.ndarray:
    """Predicted Christoffel array of the product chart at ``p``.

    Built block-wise from the base and fiber connections and the warping
    function; compare against the generic engine on the built chart.
    """
    nb, nf = spec.base.dim, spec.fiber.dim
    d = nb + nf
    pb = np.asarray(p[:nb], dtype=float)
    pf = np.asarray(p[nb:], dtype=float)
    base_conn = geometry.christoffel(spec.base, pb)
    fiber_conn = geometry.christoffel(spec.fiber, pf)
    g_base = spec.base.metric_at(pb)
    g_fiber = spec.fiber.metric_at(pf)
    b, db = _expr_jets(spec.warping, spec.base.env(pb, jets=True))
    if b <= 0.0:
        raise EvalDomainError(f"warping function not positive at {tuple(map(float, pb))}")
    dlnb = db / b
    grad_lnb = np.linalg.solve(g_base, dlnb)

    gamma = np.zeros((d, d, d))
    gamma[:nb, :nb, :nb] = base_conn.gamma
    gamma[nb:, nb:, nb:] = fiber_conn.gamma
    for a in range(nb):
        for z in range(nf):
            for w in range(nf):
                if z == w:
                    gamma[nb + w, a, nb + z] = dlnb[a]
                    gamma[nb + w, nb + z, a] = dlnb[a]
    for z in range(nf):
        for w in range(nf):
            coeff = -b * b * g_fiber[z, w]
            for c in range(nb):
                gamma[c, nb + z, nb + w] = coeff * grad_lnb[c]
    return gamma


# -- line-warped almost contact structures ------------------------------------


@dataclass(frozen=True)
class RWarpedBundle:
    fiber: AlmostHermitianStructure
    structure: AlmostContactStructure
    warping: ex.Expr
    theta: str  # line coordinate name, appended last

    @property
    def chart(self) -> Chart:
        return self.structure.carrier


def build_r_warped_contact(n: AlmostHermitianStructure, f_text: str | ex.Expr,
                           theta: str = "z",
                           theta_domain: Interval = Interval(),
                           name: str = "") -> RWarpedBundle:
    """Line-warped contact structure over an almost Hermitian fiber.

    The line coordinate is appended after the fiber coordinates, so e.g. the
    cosine warping over flat R⁴ gives the chart (x, y, u, v, z) with metric
    dz² + cos²z (dx² + dy² + du² + dv²).
    """
    fiber = n.chart
    if theta in fiber.coords:
        raise ValueError(f"fiber chart already uses coordinate {theta!r}")
    coords = fiber.coords + (theta,)
    f = ex.parse_expr(f_text, [theta]) if isinstance(f_text, str) else f_text
    if not ex.free_variables(f) <= {theta}:
        raise ValueError("warping function must depend on the line coordinate only")
    nf = fiber.dim
    d = nf + 1
    f2 = ex.Pow(f, 2)
    metric = np.empty((d, d), dtype=object)
    metric[:] = None
    for i in range(nf):
        metric[i, d - 1] = ex.Num(0)
        for j in range(i, nf):
            metric[i, j] = ex.Bin("*", f2, fiber.metric[i, j])
    metric[d - 1, d - 1] = ex.Num(1)
    chart = Chart(coords, metric, fiber.domain + (theta_domain,),
                  name=name or f"r_warped({fiber.name or 'fiber'})")
    phi = np.empty((d, d), dtype=object)
    phi[:] = None
    for i in range(nf):
        for j in range(nf):
            phi[i, j] = n.J.components[i, j]
    for i in range(d):
        phi[i, d - 1] = ex.Num(0)
        phi[d - 1, i] = ex.Num(0)
    xi = [ex.Num(0)] * nf + [ex.Num(1)]
    eta = [ex.Num(0)] * nf + [ex.Num(1)]
    structure = AlmostContactStructure(
        carrier=chart,
        phi=TensorField(chart, "endomorphism", phi),
        xi=TensorField(chart, "vector", np.array(xi, dtype=object)),
        eta=TensorField(chart, "oneform", np.array(eta, dtype=object)),
        name=name or chart.name)
    return RWarpedBundle(fiber=n, structure=structure, warping=f, theta=theta)


def _warping_jets(rb: RWarpedBundle, theta_val: float) -> tuple[float, float, float]:
    f, df, ddf = _expr_jets(rb.warping, {rb.theta: jet.seed([theta_val], 0)}, hessians=True)
    return float(f), float(df[0]), float(ddf[0, 0])


def r_warped_christoffel_oracle(rb: RWarpedBundle, p: Sequence[float]) -> np.ndarray:
    """Predicted Christoffel array: ∇_ξ X = ∇_X ξ = (f′/f) X, ∇_ξ ξ = 0 and
    ∇_X Y = ∇̄_X Y − f f′ ḡ(X, Y) ξ."""
    fiber = rb.fiber.chart
    nf = fiber.dim
    d = nf + 1
    pf = np.asarray(p[:nf], dtype=float)
    th = float(p[nf])
    f, fp, _ = _warping_jets(rb, th)
    if f <= 0.0:
        raise EvalDomainError(f"warping function vanishes at {th}")
    fiber_conn = geometry.christoffel(fiber, pf)
    g_fiber = fiber.metric_at(pf)
    gamma = np.zeros((d, d, d))
    gamma[:nf, :nf, :nf] = fiber_conn.gamma
    for a in range(nf):
        gamma[a, nf, a] = fp / f
        gamma[a, a, nf] = fp / f
    for a in range(nf):
        for b_ in range(nf):
            gamma[nf, a, b_] = -f * fp * g_fiber[a, b_]
    return gamma


def r_warped_riemann_oracle(rb: RWarpedBundle, p: Sequence[float]) -> np.ndarray:
    """Predicted lowered curvature tensor of the line-warped metric.

    Fiber block: f²[R̄ + f′²(ḡ⊗ḡ antisymmetrized)]; ξ-slot block:
    R(W, ξ, X, ξ) = −(f″/f) g(X, W); every component with exactly one
    ξ slot vanishes.
    """
    fiber = rb.fiber.chart
    nf = fiber.dim
    d = nf + 1
    pf = np.asarray(p[:nf], dtype=float)
    th = float(p[nf])
    f, fp, fpp = _warping_jets(rb, th)
    gbar = fiber.metric_at(pf)
    rbar = geometry.curvature(fiber, pf).riem
    out = np.zeros((d, d, d, d))
    # fiber block, indices (w, z, x, y)
    gg = np.einsum("xz,yw->wzxy", gbar, gbar) - np.einsum("yz,xw->wzxy", gbar, gbar)
    out[:nf, :nf, :nf, :nf] = f * f * (rbar + fp * fp * gg)
    # two-ξ block: R(∂_w, ξ, ∂_x, ξ) = −(f″/f)·f²ḡ(x, w) = −f″ f ḡ
    k = -fpp * f * gbar
    for w in range(nf):
        for x in range(nf):
            out[w, nf, x, nf] = k[x, w]
            out[nf, w, x, nf] = -k[x, w]
            out[w, nf, nf, x] = -k[x, w]
            out[nf, w, nf, x] = k[x, w]
    return out


def eq_for_g1_obstruction(n: AlmostHermitianStructure, samples: SampleSet) -> float:
    """Max norm of ḡ(JY, Z)JX − ḡ(JX, Z)JY + ḡ(X, Z)Y − ḡ(Y, Z)X over the
    coordinate basis triples at the sampled points: the algebraic obstruction
    forcing fiber dimension 2 for the g1 identity of a line-warped structure.
    Identically zero in dimension 2, nonzero somewhere in dimension ≥ 4. The
    map is trilinear, so the basis triples span every triple.
    """
    worst = WorstResidual("eq_for_g1_obstruction")
    for p in samples.points:
        g, J = n.chart.metric_at(p), eval_field(n.J, p)
        gj, eye = J.T @ g, np.eye(n.dim)     # gj[b, c] = ḡ(Je_b, e_c); row a of J.T is Je_a
        # q[a, b, c] is the vector at (X, Y, Z) = (e_a, e_b, e_c)
        q = (np.einsum("bc,ak->abck", gj, J.T) - np.einsum("ac,bk->abck", gj, J.T)
             + np.einsum("ac,bk->abck", g, eye) - np.einsum("bc,ak->abck", g, eye))
        worst.add(_norm(g[None], q[None]))
    return worst.value
