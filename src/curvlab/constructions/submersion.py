"""Submersion pairs: a contact total space fibered over an almost Hermitian
base, with the lifted frame and the lift-relation checker.

The projection is an expression map. At each point the lifts of the base
coordinate fields are the columns of the lifted frame L, which solves
[dπ; η]·L = [I; 0] (horizontality is η(X↑) = 0 since η is the metric dual
of ξ); the horizontal lift of a base vector X is L X. The derivatives of L,
needed for covariant derivatives and brackets of lifts, come from the
solve-derivative identity ∂(M⁻¹ r) = −M⁻¹ (∂M) M⁻¹ r in one solve against
the stacked ∂M, assembled from second-order jets of the projection and
first-order jets of η, at all the sample points at once; no finite differences.

Every relation is tensorial in its base arguments, so the lifted frame
spans them all: the connection, Reeb and bracket relations are tables over
the pairs (a, b) of base coordinate fields, the curvature lift and the
Hermitian-identity consequences nb⁴ tables, built with the identity
closures on L laid out on four slot axes as in the frame sweep.
The relations checked against the generic chart engines on both levels:

* connection lift:  ∇ᴹ_{X↑} Y↑ = (∇ᴺ_X Y)↑ − G(X, JY) ξ
* Reeb derivative:  ∇ᴹ_{X↑} ξ = −φ X↑
* bracket:          [X↑, Y↑] = [X, Y]↑ − 2 G(X, JY) ξ
* curvature lift:   Rᴹ(W↑,Z↑,X↑,Y↑) = Rᴺ(W,Z,X,Y) − 2 g(X↑,φY↑) g(W↑,φZ↑)
                    + g(Y↑,φZ↑) g(W↑,φX↑) − g(X↑,φZ↑) g(W↑,φY↑)
* the three Hermitian-identity consequences on lifted vectors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import expr as ex
from .. import geometry
from ..geometry import _expr_jets
from ..identities import _closures, _slot_axes
from ..structures import (AlmostContactStructure, AlmostHermitianStructure, PointRecord,
                          _finite, _norm, contact_point_data)
from ..errors import CurvlabError

__all__ = ["SubmersionPair", "check_submersion_lift"]


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

    @functools.cached_property
    def program(self) -> ex.Program:
        """The projection, compiled on first run."""
        return ex.Program(self.projection)


def _projection_jets(sp: SubmersionPair, p: Sequence[float]):
    """Base point, dπ (nb × nt) and ddpi[a, i, m] = ∂_m dπ^a_i at ``p`` (..., nt)."""
    return _expr_jets(sp.program, sp.total.carrier.env(p, jets=True), hessians=True)


def _lifted_frame(p, dpi, eta, dM):
    """L, whose column a is the lift of the base coordinate field e_a at
    ``p``: [dπ; η] L = [I; 0], and from the stacked ``dM[m]`` = ∂_m [dπ; η]
    its derivatives dL[m] = ∂_m L = −M⁻¹ (∂_m M) L. At N points, on a
    leading axis, one stacked solve each; a singular M names its first
    point."""
    M = np.concatenate([dpi, eta[..., None, :]], axis=-2)
    rhs = np.eye(M.shape[-1])[:, :dpi.shape[-2]]
    try:
        L = np.linalg.solve(M, np.broadcast_to(rhs, M.shape[:-1] + rhs.shape[-1:]))
        return L, -np.linalg.solve(M[..., None, :, :], dM @ L[..., None, :, :])
    except np.linalg.LinAlgError as e:
        for q, Mq in zip(np.reshape(p, (-1, M.shape[-1])), M.reshape((-1,) + M.shape[-2:])):
            try:
                np.linalg.solve(Mq, rhs)
            except np.linalg.LinAlgError:
                raise CurvlabError(
                    f"horizontal lift solver singular at {tuple(map(float, q))}") from e
        raise


def check_submersion_lift(sp: SubmersionPair, rec: PointRecord) -> dict[str, float]:
    """Residuals of the lift relations at sampled total-space points.

    Every relation checked is tensorial in the base arguments, so the
    lifted frame (the lifts of the base coordinate fields) spans all
    vectors. Returns a dict of max residuals keyed by relation tag;
    ``dpi_xi`` is the invariant dπ(ξ) = 0. The total space's g, Γ, R, φ, ξ
    and η (with its gradients) come from ``rec``, the point record of
    ``sp.total``; the base's come from its own record at the base points,
    built from one metric jet run and one jet run of J there.
    """
    base_pt, dpi, ddpi = _projection_jets(sp, rec.point)
    base = contact_point_data(sp.base, geometry.metric_jets(sp.base.chart, base_pt))
    GJ = base.g @ base.phi   # G(e_a, J e_b)
    # L[n, :, a] = e_a↑ and dL[n, m, k, a] = ∂_m (e_a↑)^k, from dM[n, m] = ∂_m [dπ; η]
    dM = np.concatenate([ddpi, rec.deta[:, None]], axis=1).transpose(0, 3, 1, 2)
    L, dL = _lifted_frame(rec.point, dpi, rec.eta, dM)
    # pair tables [n, a, b, k]: D is e_a↑ differentiating the components of e_b↑
    D = np.einsum("nma,nmkb->nabk", L, dL)
    nabla = D + np.einsum("nkij,nia,njb->nabk", rec.gamma, L, L)
    predicted = (np.einsum("nkc,ncab->nabk", L, base.gamma)
                 - GJ[..., None] * rec.xi[:, None, None])

    # (N, nb, nb, nb, nb) tables on the stacked lifted frames, W, Z, X, Y on
    # slot axes 0-3 after the point axis
    r4, gd, phv, _ = _closures(rec.riem, rec.g, rec.phi, rec.eta)
    W, Z, X, Y = _slot_axes(L.transpose(0, 2, 1))
    pw, pz, px, py = phv(W), phv(Z), phv(X), phv(Y)
    rxyzw = r4(X, Y, Z, W)
    tables = {
        "lift_curvature": r4(W, Z, X, Y) - (base.riem - 2.0 * gd(X, py) * gd(W, pz)
                                            + gd(Y, pz) * gd(W, px) - gd(X, pz) * gd(W, py)),
        # consequences of the base satisfying each Hermitian identity
        "lift_k1_consequence": (r4(X, Y, pz, pw) - rxyzw
                                - (-gd(Y, W) * gd(Z, X) - gd(Y, pw) * gd(Z, px)
                                   + gd(X, W) * gd(Z, Y) + gd(X, pw) * gd(Z, py))),
        "lift_k2_consequence": (r4(px, Y, Z, W) + r4(X, py, Z, W) + r4(X, Y, pz, W)
                                + r4(X, Y, Z, pw)),
        "lift_k3_consequence": r4(px, py, pz, pw) - rxyzw,
    }
    return _finite("lift", {
        "dpi_xi": np.max(np.abs(dpi @ rec.xi[..., None])),
        "lift_connection": _norm(rec.g, nabla - predicted),
        # ∇ᴹ_{e_a↑} ξ + φ e_a↑, rows a (ξ has constant components: only Γ acts)
        "lift_xi": _norm(rec.g, np.einsum("nkij,nia,nj->nak", rec.gamma, L, rec.xi)
                         + (rec.phi @ L).transpose(0, 2, 1)),
        # [e_a↑, e_b↑] + 2 G(e_a, J e_b) ξ, since [e_a, e_b] = 0 downstairs
        "lift_bracket": _norm(rec.g, D - D.transpose(0, 2, 1, 3)
                              + 2.0 * GJ[..., None] * rec.xi[:, None, None]),
        **{tag: np.max(np.abs(table)) for tag, table in tables.items()}})
