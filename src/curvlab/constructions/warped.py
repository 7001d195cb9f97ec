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
examples arise. These closed forms, which the tests compare the chart
engine against, live in ``tests/closed_forms.py``. ``eq_for_g1_obstruction``
stays here: it is a verdict, the algebraic obstruction that forces fiber
dimension 2 for the g1 identity, evaluated once over all sample points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import expr as ex
from ..chart import Chart, Interval, TensorField, SampleSet, eval_field
from ..structures import (AlmostContactStructure, AlmostHermitianStructure, _checked,
                          _norm)

__all__ = [
    "WarpedSpec", "build_warped", "RWarpedBundle", "build_r_warped_contact",
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


def eq_for_g1_obstruction(n: AlmostHermitianStructure, samples: SampleSet) -> float:
    """Max norm of ḡ(JY, Z)JX − ḡ(JX, Z)JY + ḡ(X, Z)Y − ḡ(Y, Z)X over the
    coordinate basis triples at the sampled points: the algebraic obstruction
    forcing fiber dimension 2 for the g1 identity of a line-warped structure.
    Identically zero in dimension 2, nonzero somewhere in dimension ≥ 4. The
    map is trilinear, so the basis triples span every triple.
    """
    g, J = n.chart.metric_at(samples.points), eval_field(n.J, samples.points)
    JT, eye = J.transpose(0, 2, 1), np.eye(n.dim)
    gj = JT @ g     # gj[n, b, c] = ḡ(Je_b, e_c); row a of Jᵀ is Je_a
    # q[n, a, b, c] is the vector at (X, Y, Z) = (e_a, e_b, e_c)
    q = (np.einsum("nbc,nak->nabck", gj, JT) - np.einsum("nac,nbk->nabck", gj, JT)
         + np.einsum("nac,bk->nabck", g, eye) - np.einsum("nbc,ak->nabck", g, eye))
    return _checked("eq_for_g1_obstruction", _norm(g, q))
