"""Line-warped almost contact structures.

A warped product over a line base, g = dθ² + f(θ)² ḡ over an almost
Hermitian fiber (N, J, ḡ), carries the almost contact structure ξ = ∂_θ,
η = dθ, φ|_N = J, φξ = 0, and its curvature has a closed form in fiber
data; f″/f = −1 (f = α cos θ + β sin θ) is exactly the condition making
the ξ-slot curvature block match the contact identities, which is how the
sine-cone examples arise. These closed forms, which the tests compare the chart
engine against, live in ``tests/closed_forms.py``, beside the general
warped product B ×_b F and the algebraic obstruction that forces fiber
dimension 2 for the g1 identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import expr as ex
from ..chart import Chart, Interval, TensorField
from ..structures import AlmostContactStructure, AlmostHermitianStructure

__all__ = ["RWarpedBundle", "build_r_warped_contact"]


@dataclass(frozen=True)
class RWarpedBundle:
    fiber: AlmostHermitianStructure
    structure: AlmostContactStructure
    warping: ex.Expr
    theta: str  # line coordinate name, appended last


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
    for i in range(nf):
        for j in range(i, nf):
            metric[i, j] = ex.Bin("*", f2, fiber.metric[i, j])
    metric[d - 1, d - 1] = ex.Num(1)
    chart = Chart(coords, metric, fiber.domain + (theta_domain,),
                  name=name or f"r_warped({fiber.name or 'fiber'})")
    phi = np.empty((d, d), dtype=object)
    phi[:nf, :nf] = n.J.components
    xi = [ex.Num(0)] * nf + [ex.Num(1)]
    eta = [ex.Num(0)] * nf + [ex.Num(1)]
    structure = AlmostContactStructure(
        carrier=chart,
        phi=TensorField(chart, "endomorphism", phi),
        xi=TensorField(chart, "vector", np.array(xi, dtype=object)),
        eta=TensorField(chart, "oneform", np.array(eta, dtype=object)),
        name=name or chart.name)
    return RWarpedBundle(fiber=n, structure=structure, warping=f, theta=theta)
