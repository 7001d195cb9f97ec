"""Metric cone over an almost contact metric structure.

The cone over (M, φ, ξ, η, g) is the chart (0, ∞) × M with metric
dt² + t² g and the almost complex structure

    J ∂_t = −(1/t) ξ,    J X = φ X + t η(X) ∂_t,

which is compatible with the cone metric. The generic chart engine then
checks the structure theorems (cone Hermitian identity ⟺ base contact
identity, cone Kähler ⟺ base Sasakian) on the built cone. The closed forms
for the cone's connection, curvature and ∇J in terms of base data, which
the tests compare the engine against, live in ``tests/closed_forms.py``.
"""

from __future__ import annotations

import numpy as np

from .. import expr as ex
from ..chart import Chart, Interval, TensorField
from ..structures import AlmostContactStructure, AlmostHermitianStructure

__all__ = ["build_cone"]

CONE_COORD = "t"


def build_cone(s: AlmostContactStructure) -> AlmostHermitianStructure:
    """The cone over ``s``: its chart and almost complex structure J.

    Frame carriers are not supported; realize the group on its global chart
    first.
    """
    if s.is_frame:
        raise ValueError("cone construction needs a chart carrier; "
                         "realize the frame on its global chart first")
    base_chart = s.carrier
    if CONE_COORD in base_chart.coords:
        raise ValueError(f"base chart already uses coordinate {CONE_COORD!r}")
    d = base_chart.dim
    coords = (CONE_COORD,) + base_chart.coords
    t = ex.Var(CONE_COORD)
    t2 = ex.Pow(t, 2)
    metric = np.empty((d + 1, d + 1), dtype=object)
    metric[0, 0] = ex.Num(1)
    for i in range(d):
        for j in range(i, d):
            metric[i + 1, j + 1] = ex.Bin("*", t2, base_chart.metric[i, j])
    domain = (Interval(0.0, np.inf),) + base_chart.domain
    cone_chart = Chart(coords, metric, domain,
                       name=f"cone({base_chart.name or 'base'})")

    J = np.empty((d + 1, d + 1), dtype=object)
    for i in range(d):
        # J ∂_t = −(1/t) ξ
        J[i + 1, 0] = ex.Bin("/", ex.Neg(s.xi.components[i]), t)
        # t-component of J X is t η(X)
        J[0, i + 1] = ex.Bin("*", t, s.eta.components[i])
        for j in range(d):
            J[i + 1, j + 1] = s.phi.components[i, j]
    return AlmostHermitianStructure(cone_chart, TensorField(cone_chart, "endomorphism", J),
                                    name=f"cone_of({s.name or 'base'})")
