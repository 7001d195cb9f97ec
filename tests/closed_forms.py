"""Closed-form predictions for the derived geometries, from base data only.

These are the structure theorems of ``curvlab.constructions`` written as
formulas at one point: the cone's connection, curvature and ∇J from the
base contact structure (``ConeOracle``); the warped product's Christoffel
symbols block-wise from base, fiber and warping function
(``warped_christoffel_oracle``, on the chart that ``build_warped`` makes
from a ``WarpedSpec``); and the line-warped metric's connection and
lowered curvature from the fiber and f, f′, f″
(``r_warped_christoffel_oracle``, ``r_warped_riemann_oracle``). The tests
compare the generic chart engine on the built charts against them.
``eq_for_g1_obstruction`` is the algebraic obstruction that forces fiber
dimension 2 for the g1 identity of a line-warped structure. Base
and fiber geometry comes from ``reference.point_geometry`` at the one point,
∇ of a field from ``reference.nabla_of``.

Tests import this module the way they import ``conftest`` and
``reference``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from curvlab import expr as ex
from curvlab import jet
from curvlab.chart import Chart
from curvlab.constructions import RWarpedBundle
from curvlab.errors import EvalDomainError
from curvlab.geometry import _expr_jets
from curvlab.structures import AlmostContactStructure, AlmostHermitianStructure, _checked, _norm
from reference import eval_field, eval_field_jets, nabla_of, point_geometry


class ConeOracle:
    """Closed-form predictions at one point of the cone over the base
    structure ``s``, from base data only.

    Vectors are passed in cone components (t-component first); the lifted
    base fields they represent have constant components.
    """

    def __init__(self, s: AlmostContactStructure, p_cone: Sequence[float]):
        self.p = np.asarray(p_cone, dtype=float)
        self.t = float(p_cone[0])
        self.q = np.asarray(p_cone[1:], dtype=float)
        base = s.carrier
        self.g = base.metric_at(self.q)
        self.conn, curv = point_geometry(base, self.q)
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
        dxi, deta, dphi = (nabla_of(self.conn.gamma, valence, jets, X)
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
    base_conn = point_geometry(spec.base, pb)[0]
    fiber_conn = point_geometry(spec.fiber, pf)[0]
    g_base = spec.base.metric_at(pb)
    g_fiber = spec.fiber.metric_at(pf)
    (b,), (db,) = _expr_jets(ex.Program([spec.warping]), spec.base.env(pb, jets=True))
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


def _warping_jets(rb: RWarpedBundle, theta_val: float) -> tuple[float, float, float]:
    env = {rb.theta: jet.seed([theta_val], 0)}
    (f,), (df,), (ddf,) = _expr_jets(ex.Program([rb.warping]), env, hessians=True)
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
    fiber_conn = point_geometry(fiber, pf)[0]
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
    rbar = point_geometry(fiber, pf)[1].riem
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


def eq_for_g1_obstruction(n: AlmostHermitianStructure, points: np.ndarray) -> float:
    """Max norm of ḡ(JY, Z)JX − ḡ(JX, Z)JY + ḡ(X, Z)Y − ḡ(Y, Z)X over the
    coordinate basis triples at the points ``points``: the algebraic obstruction
    forcing fiber dimension 2 for the g1 identity of a line-warped structure.
    Identically zero in dimension 2, nonzero somewhere in dimension ≥ 4. The
    map is trilinear, so the basis triples span every triple.
    """
    g, J = n.chart.metric_at(points), eval_field(n.J, points)
    JT, eye = J.transpose(0, 2, 1), np.eye(n.chart.dim)
    gj = JT @ g     # gj[n, b, c] = ḡ(Je_b, e_c); row a of Jᵀ is Je_a
    # q[n, a, b, c] is the vector at (X, Y, Z) = (e_a, e_b, e_c)
    q = (np.einsum("nbc,nak->nabck", gj, JT) - np.einsum("nac,nbk->nabck", gj, JT)
         + np.einsum("nac,bk->nabck", g, eye) - np.einsum("nbc,ak->nabck", g, eye))
    return _checked("eq_for_g1_obstruction", _norm(g, q))
