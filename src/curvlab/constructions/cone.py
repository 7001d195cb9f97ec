"""Metric cone over an almost contact metric structure.

The cone over (M, φ, ξ, η, g) is the chart (0, ∞) × M with metric
dt² + t² g and the almost complex structure

    J ∂_t = −(1/t) ξ,    J X = φ X + t η(X) ∂_t,

which is compatible with the cone metric. The closed forms for the cone's
connection, curvature and ∇J in terms of base data are implemented as
oracles so the generic chart engine can be checked against them, and the
structure theorems (cone Hermitian identity ⟺ base contact identity,
cone Kähler ⟺ base Sasakian) become executable statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import expr as ex
from .. import geometry
from ..chart import Chart, Interval, TensorField, eval_field, eval_field_jets
from ..structures import AlmostContactStructure, AlmostHermitianStructure

__all__ = ["ConeBundle", "build_cone", "ConeOracle", "cone_closed_forms"]

CONE_COORD = "t"


@dataclass(frozen=True)
class ConeBundle:
    base: AlmostContactStructure
    cone_chart: Chart
    J: TensorField
    hermitian: AlmostHermitianStructure


def build_cone(s: AlmostContactStructure) -> ConeBundle:
    """Assemble the cone chart and its almost complex structure.

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
    metric[:] = None
    metric[0, 0] = ex.Num(1)
    for i in range(d):
        metric[0, i + 1] = ex.Num(0)
        for j in range(i, d):
            metric[i + 1, j + 1] = ex.Bin("*", t2, base_chart.metric[i, j])
    domain = (Interval(0.0, np.inf),) + base_chart.domain
    cone_chart = Chart(coords, metric, domain,
                       name=f"cone({base_chart.name or 'base'})")

    J = np.empty((d + 1, d + 1), dtype=object)
    J[0, 0] = ex.Num(0)
    for i in range(d):
        # J ∂_t = −(1/t) ξ
        J[i + 1, 0] = ex.Bin("/", ex.Neg(s.xi.components[i]), t)
        # t-component of J X is t η(X)
        J[0, i + 1] = ex.Bin("*", t, s.eta.components[i])
        for j in range(d):
            J[i + 1, j + 1] = s.phi.components[i, j]
    Jf = TensorField(cone_chart, "endomorphism", J)
    herm = AlmostHermitianStructure(cone_chart, Jf,
                                    name=f"cone_of({s.name or 'base'})")
    return ConeBundle(base=s, cone_chart=cone_chart, J=Jf, hermitian=herm)


class ConeOracle:
    """Closed-form predictions at one cone point, from base data only.

    Vectors are passed in cone components (t-component first); the lifted
    base fields they represent have constant components.
    """

    def __init__(self, cb: ConeBundle, p_cone: Sequence[float]):
        self.cb = cb
        self.p = np.asarray(p_cone, dtype=float)
        self.t = float(p_cone[0])
        self.q = np.asarray(p_cone[1:], dtype=float)
        s = cb.base
        base = s.carrier
        self.g = base.metric_at(self.q)
        self.conn, curv = geometry.point_geometry(base, self.q)
        self.riem13 = curv.riem13
        self.phi = eval_field(s.phi, self.q)
        self.xi = eval_field(s.xi, self.q)
        self.eta = eval_field(s.eta, self.q)
        self._fields = [(f.valence, eval_field_jets(f, self.q)) for f in (s.xi, s.eta, s.phi)]

    # -- helpers over base vectors (length d) --------------------------------

    def _nabla(self, X, Y):
        # ∇_X Y on the base for constant-component Y
        return np.einsum("i,kij,j->k", X, self.conn.gamma, Y)

    def _rop(self, X, Y, Z):
        # base curvature operator R_XY Z
        return np.einsum("mijk,i,j,k->m", self.riem13, X, Y, Z)

    def _split(self, A):
        A = np.asarray(A, dtype=float)
        return float(A[0]), A[1:]

    def _join(self, a: float, X) -> np.ndarray:
        return np.concatenate(([a], X))

    def connection(self, A, B) -> np.ndarray:
        """∇̃_A B for lifted fields A = a∂_t + X, B = b∂_t + Y."""
        a, X = self._split(A)
        b, Y = self._split(B)
        base = (a / self.t) * Y + (b / self.t) * X + self._nabla(X, Y)
        tcomp = -self.t * float(X @ self.g @ Y)
        return self._join(tcomp, base)

    def curvature_op(self, A, B, C) -> np.ndarray:
        """R̃(A, B) C; every ∂_t slot contributes zero."""
        _, X = self._split(A)
        _, Y = self._split(B)
        _, Z = self._split(C)
        base = (self._rop(X, Y, Z) - float(Y @ self.g @ Z) * X
                + float(X @ self.g @ Z) * Y)
        return self._join(0.0, base)

    def nabla_J(self, A, B) -> np.ndarray:
        """(∇̃_A J) B from base covariant derivatives of φ, ξ, η."""
        _, X = self._split(A)
        b, Y = self._split(B)
        dxi, deta, dphi = (geometry.nabla_of(self.conn.gamma, valence, jets, X)
                           for valence, jets in self._fields)
        # (∇̃_X J) ∂_t = −(1/t)(∇_X ξ + φX)
        from_dt = -(dxi + self.phi @ X) / self.t
        # (∇̃_X J) Y = (t((∇_X η)Y − g(X, φY)), (∇_X φ)Y − g(X,Y)ξ + η(Y)X)
        tcomp = self.t * (float(deta @ Y) - float(X @ self.g @ (self.phi @ Y)))
        basecomp = dphi @ Y - float(X @ self.g @ Y) * self.xi + float(self.eta @ Y) * X
        return self._join(tcomp, b * from_dt + basecomp)

    def curvature_J_dt(self, A, B) -> np.ndarray:
        """R̃(X, Y)(J ∂_t) = −(1/t)[R(X, Y)ξ − η(Y)X + η(X)Y]."""
        _, X = self._split(A)
        _, Y = self._split(B)
        base = -(self._rop(X, Y, self.xi) - float(self.eta @ Y) * X
                 + float(self.eta @ X) * Y) / self.t
        return self._join(0.0, base)

    def curvature_J_base(self, A, B, C) -> np.ndarray:
        """R̃(X, Y)(J Z) = R(X, Y)(φZ) − g(Y, φZ)X + g(X, φZ)Y for base Z."""
        _, X = self._split(A)
        _, Y = self._split(B)
        _, Z = self._split(C)
        pz = self.phi @ Z
        base = (self._rop(X, Y, pz) - float(Y @ self.g @ pz) * X
                + float(X @ self.g @ pz) * Y)
        return self._join(0.0, base)

    def pair_1(self, X, Y, W) -> float:
        """g̃(R̃(X, Y)(J ∂_t), J W) for base vectors X, Y, W."""
        g, phi, eta, t = self.g, self.phi, self.eta, self.t
        rxyxi = self._rop(X, Y, self.xi)
        return -t * (float(rxyxi @ g @ (phi @ W))
                     - float(eta @ Y) * float(X @ g @ (phi @ W))
                     + float(eta @ X) * float(Y @ g @ (phi @ W)))

    def pair_2(self, X, Y, Z) -> float:
        """g̃(R̃(X, Y)(J Z), J ∂_t) for base vectors X, Y, Z."""
        g, phi, eta, t = self.g, self.phi, self.eta, self.t
        pz = phi @ Z
        return -t * (float(eta @ self._rop(X, Y, pz))
                     - float(eta @ X) * float(Y @ g @ pz)
                     + float(eta @ Y) * float(X @ g @ pz))

    def pair_3(self, X, Y, Z, W) -> float:
        """g̃(R̃(X, Y)(J Z), J W) for base vectors, after the t² scaling."""
        g, phi, t = self.g, self.phi, self.t
        pz, pw = phi @ Z, phi @ W
        return t * t * (float(self._rop(X, Y, pz) @ g @ pw)
                        - float(Y @ g @ pz) * float(X @ g @ pw)
                        + float(X @ g @ pz) * float(Y @ g @ pw))


_CASES = {
    "connection": lambda o, inputs: o.connection(*inputs),
    "curvature": lambda o, inputs: o.curvature_op(*inputs),
    "nabla_j": lambda o, inputs: o.nabla_J(*inputs),
    "curvature_j_dt": lambda o, inputs: o.curvature_J_dt(*inputs),
    "curvature_j_base": lambda o, inputs: o.curvature_J_base(*inputs),
    "pair_1": lambda o, inputs: o.pair_1(*inputs),
    "pair_2": lambda o, inputs: o.pair_2(*inputs),
    "pair_3": lambda o, inputs: o.pair_3(*inputs),
}


def cone_closed_forms(cb: ConeBundle, case: str, p_cone: Sequence[float], inputs):
    """Closed-form right-hand sides, dispatched by case tag.

    Cases: connection, curvature, nabla_j (cone-vector inputs);
    curvature_j_dt, curvature_j_base (cone-vector inputs, base parts used);
    pair_1, pair_2, pair_3 (base-vector inputs, scalar output).
    """
    try:
        fn = _CASES[case]
    except KeyError:
        raise ValueError(f"unknown cone oracle case {case!r}") from None
    return fn(ConeOracle(cb, p_cone), inputs)
