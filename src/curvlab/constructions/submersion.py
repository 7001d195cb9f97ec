"""Submersion pairs: a contact total space fibered over an almost Hermitian
base, with horizontal-lift machinery and the lift-relation checkers.

The projection is an expression map; the horizontal lift of a base vector
solves the linear system [dπ; η]·X↑ = [X; 0] at each point (horizontality
is η(X↑) = 0 since η is the metric dual of ξ). Derivatives of lift fields,
needed for covariant derivatives and brackets of lifts, come from the
solve-derivative identity ∂(M⁻¹ r) = −M⁻¹ (∂M) M⁻¹ r, with ∂M assembled
from second-order jets of the projection; no finite differences anywhere.

The relations checked against the generic chart engines on both levels:

* connection lift:  ∇ᴹ_{X↑} Y↑ = (∇ᴺ_X Y)↑ − G(X, JY) ξ
* Reeb derivative:  ∇ᴹ_{X↑} ξ = −φ X↑
* bracket:          [X↑, Y↑] = [X, Y]↑ − 2 G(X, JY) ξ
* curvature lift:   Rᴹ(W↑,Z↑,X↑,Y↑) = Rᴺ(W,Z,X,Y) − 2 g(X↑,φY↑) g(W↑,φZ↑)
                    + g(Y↑,φZ↑) g(W↑,φX↑) − g(X↑,φZ↑) g(W↑,φY↑)
* the three Hermitian-identity consequences on lifted vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import expr as ex
from .. import geometry
from .. import jet
from ..chart import eval_field, eval_field_jets, sample
from ..structures import (AlmostContactStructure, AlmostHermitianStructure, Samples,
                          _records, _worst)
from ..errors import CurvlabError

__all__ = ["SubmersionPair", "horizontal_lift", "check_submersion_lift"]


@dataclass(frozen=True)
class SubmersionPair:
    total: AlmostContactStructure      # chart carrier, dim n + 1
    base: AlmostHermitianStructure     # dim n
    projection: tuple                  # base coords as Expr over total coords
    name: str = ""

    def __post_init__(self):
        if self.total.is_frame:
            raise ValueError("submersion total space must be a chart structure")
        if len(self.projection) != self.base.chart.dim:
            raise ValueError("one projection expression per base coordinate")
        object.__setattr__(self, "projection", tuple(
            self.total.carrier.parse(e) if isinstance(e, str) else e
            for e in self.projection))
        if self.total.carrier.dim != self.base.chart.dim + 1:
            raise ValueError("total space must have one dimension more than the base")


def _gnorm(g: np.ndarray, v: np.ndarray) -> float:
    return math.sqrt(max(float(v @ g @ v), 0.0))


def _projection_jets(sp: SubmersionPair, p: Sequence[float]):
    """Base point, dπ (nb × nt) and its derivatives ddpi[a, i, m] = ∂_m dπ^a_i."""
    chart = sp.total.carrier
    nt, nb = chart.dim, sp.base.chart.dim
    env = chart.env(p, jets=True)
    base_pt = np.empty(nb)
    dpi = np.empty((nb, nt))
    ddpi = np.empty((nb, nt, nt))
    for a in range(nb):
        v = ex.eval_expr(sp.projection[a], env, ex.JET)
        base_pt[a] = v.value
        dpi[a] = v.grad
        ddpi[a] = v.hess
    return base_pt, dpi, ddpi


def _solve_lift(p, dpi, eta_vals, X_base) -> np.ndarray:
    M = np.vstack([dpi, eta_vals[None, :]])
    rhs = np.concatenate([np.asarray(X_base, dtype=float), [0.0]])
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as e:
        raise CurvlabError(f"horizontal lift solver singular at {tuple(p)}") from e


def horizontal_lift(sp: SubmersionPair, p: Sequence[float], X_base) -> np.ndarray:
    """The unique horizontal vector at ``p`` projecting onto ``X_base``."""
    _, dpi, _ = _projection_jets(sp, p)
    return _solve_lift(p, dpi, eval_field(sp.total.eta, p), X_base)


def _lift_field_with_derivatives(p, dpi, ddpi, eta_jets, X_base):
    """Lift of a constant-component base field and its coordinate derivatives.

    Returns (X↑, dX↑) with dX↑[k, m] = ∂_m X↑^k, exact up to the jets of the
    projection and of η.
    """
    eta_vals, eta_grads = eta_jets  # grads[j, m] = ∂_m η_j
    lift = _solve_lift(p, dpi, eta_vals, X_base)
    M = np.vstack([dpi, eta_vals[None, :]])
    nt = len(eta_vals)
    dlift = np.empty((nt, nt))
    for m in range(nt):
        dM = np.vstack([ddpi[:, :, m], eta_grads[:, m][None, :]])
        dlift[:, m] = np.linalg.solve(M, -dM @ lift)
    return lift, dlift


def _covariant_of_lift(sp: SubmersionPair, p, gamma, X_lift, Y_lift, dY_lift):
    # ∇ᴹ_X Y for the lift field Y with known derivatives
    return (np.einsum("i,ki->k", X_lift, dY_lift)
            + np.einsum("i,kij,j->k", X_lift, gamma, Y_lift))


def check_submersion_lift(sp: SubmersionPair, n_points: int = 20, seed: int = 42,
                          tol: float = 1e-6, samples: Samples = None) -> dict[str, float]:
    """Residuals of the lift relations at sampled total-space points.

    Every relation checked is tensorial in the base arguments, so sweeping
    the base coordinate fields spans all vectors. Returns a dict of max
    residuals keyed by relation tag; ``dpi_xi`` is the invariant dπ(ξ) = 0.
    The total space's g, Γ, R, φ, ξ and η come from the point records of
    ``samples``, by default ``n_points`` points drawn with ``seed``.
    """
    total_chart = sp.total.carrier
    base_chart = sp.base.chart
    nb = base_chart.dim
    records = _records(sp.total, sample(total_chart, n_points, 1, seed)
                       if samples is None else samples)
    base_dirs = [np.eye(nb)[a] for a in range(nb)]

    res = _worst("lift", ("dpi_xi", "lift_connection", "lift_xi", "lift_bracket",
                          "lift_curvature", "lift_k1_consequence", "lift_k2_consequence",
                          "lift_k3_consequence"))

    for rec in records:
        p, gM, phi, xi, eta = rec.point, rec.g, rec.phi, rec.xi, rec.eta
        base_pt, dpi, ddpi = _projection_jets(sp, p)
        gN = base_chart.metric_at(base_pt)
        Jb = eval_field(sp.base.J, base_pt)
        conn_N, curv_N = geometry.point_geometry(base_chart, base_pt)

        res["dpi_xi"].add(np.max(np.abs(dpi @ xi)))

        eta_jets = eval_field_jets(sp.total.eta, p)
        lifts, dlifts = zip(*(_lift_field_with_derivatives(p, dpi, ddpi, eta_jets, Xb)
                              for Xb in base_dirs))

        def gm(u, v):
            return float(u @ gM @ v)

        def G_base(u, v):
            return float(u @ gN @ v)

        # connection lift and Reeb derivative
        for a, Xb in enumerate(base_dirs):
            Xl = lifts[a]
            # ∇ᴹ_{X↑} ξ + φ X↑ (ξ has constant components: derivative term only Γ)
            dxi = np.einsum("i,kij,j->k", Xl, rec.gamma, xi)
            res["lift_xi"].add(_gnorm(gM, dxi + phi @ Xl))
            for b, Yb in enumerate(base_dirs):
                Yl, dYl = lifts[b], dlifts[b]
                nab = _covariant_of_lift(sp, p, rec.gamma, Xl, Yl, dYl)
                nab_N = np.einsum("i,kij,j->k", Xb, conn_N.gamma, Yb)
                predicted = (_solve_lift(p, dpi, eta, nab_N)
                             - G_base(Xb, Jb @ Yb) * xi)
                res["lift_connection"].add(_gnorm(gM, nab - predicted))
                # bracket of lifts of coordinate fields ([X, Y] = 0 downstairs)
                bracket = dYl @ Xl - dlifts[a] @ Yl
                res["lift_bracket"].add(_gnorm(gM, bracket + 2.0 * G_base(Xb, Jb @ Yb) * xi))

        # curvature lift and identity consequences on lifted quadruples
        def rM(u, v, w, z):
            return float(np.einsum("ijkl,i,j,k,l", rec.riem, u, v, w, z))

        def rN(u, v, w, z):
            return float(np.einsum("ijkl,i,j,k,l", curv_N.riem, u, v, w, z))

        import itertools
        for (a, b, c, d_) in itertools.product(range(nb), repeat=4):
            Wb, Zb, Xb, Yb = base_dirs[a], base_dirs[b], base_dirs[c], base_dirs[d_]
            Wl, Zl, Xl, Yl = lifts[a], lifts[b], lifts[c], lifts[d_]
            lhs = rM(Wl, Zl, Xl, Yl)
            rhs = (rN(Wb, Zb, Xb, Yb)
                   - 2.0 * gm(Xl, phi @ Yl) * gm(Wl, phi @ Zl)
                   + gm(Yl, phi @ Zl) * gm(Wl, phi @ Xl)
                   - gm(Xl, phi @ Zl) * gm(Wl, phi @ Yl))
            res["lift_curvature"].add(abs(lhs - rhs))

            # consequences of the base satisfying each Hermitian identity
            k1 = (rM(Xl, Yl, phi @ Zl, phi @ Wl) - rM(Xl, Yl, Zl, Wl)
                  - (-gm(Yl, Wl) * gm(Zl, Xl) - gm(Yl, phi @ Wl) * gm(Zl, phi @ Xl)
                     + gm(Xl, Wl) * gm(Zl, Yl) + gm(Xl, phi @ Wl) * gm(Zl, phi @ Yl)))
            res["lift_k1_consequence"].add(abs(k1))
            k2 = (rM(phi @ Xl, Yl, Zl, Wl) + rM(Xl, phi @ Yl, Zl, Wl)
                  + rM(Xl, Yl, phi @ Zl, Wl) + rM(Xl, Yl, Zl, phi @ Wl))
            res["lift_k2_consequence"].add(abs(k2))
            k3 = rM(phi @ Xl, phi @ Yl, phi @ Zl, phi @ Wl) - rM(Xl, Yl, Zl, Wl)
            res["lift_k3_consequence"].add(abs(k3))
    return {tag: w.value for tag, w in res.items()}
