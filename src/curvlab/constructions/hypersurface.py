"""Totally umbilical hypersurface induction in a flat Kähler ambient.

A real hypersurface of a Kähler manifold inherits an almost contact metric
structure: with unit normal N one sets ξ = −JN and decomposes
JX = φX + η(X)N for tangent X. The Weingarten operator is read off as
A X = −(∇̃_X N)^tangential; total umbilicity means A = βI, and β = −1 (the
outward orientation on the unit sphere) makes the induced structure
Sasakian.

The hypersurface is given by an explicit parameter chart: immersion and
normal are expression lists over the chart coordinates, and all ambient
derivatives come from jets of those expressions. Because chart fields must
be closed-form expressions (the expression layer does no symbolic
differentiation), the induced structure on the parameter chart is supplied
as a closed-form structure beside the patch, and its point record is
validated pointwise against the immersion-derived values; umbilicity, β and
the second-fundamental-form residuals need no structure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .. import expr as ex
from .. import geometry
from ..chart import Chart, sample
from ..geometry import _expr_jets
from ..structures import (AlmostHermitianStructure, PointRecord, _checked, _finite,
                          contact_point_data)
from ..errors import CurvlabError

__all__ = ["SurfacePatch", "HypersurfaceReport", "induce_hypersurface"]


@dataclass(frozen=True)
class SurfacePatch:
    """Parameter chart, immersion and unit normal of a hypersurface."""

    chart: Chart                 # parameter chart; metric = induced metric template
    immersion: tuple             # ambient coordinates as Expr over chart coords
    normal: tuple                # unit normal components as Expr

    def __post_init__(self):
        object.__setattr__(self, "immersion", tuple(
            self.chart.parse(e) if isinstance(e, str) else e for e in self.immersion))
        object.__setattr__(self, "normal", tuple(
            self.chart.parse(e) if isinstance(e, str) else e for e in self.normal))

    @functools.cached_property
    def program(self) -> ex.Program:
        """The immersion followed by the normal, compiled on first run."""
        return ex.Program(self.immersion + self.normal)


@dataclass
class HypersurfaceReport:
    """Induction results at the points of a point record.

    ``beta`` is the per-point Rayleigh fit trace(A)/dim; ``umbilicity`` the
    max entry of |A − βI| over all points; ``h_xi_residual`` the defect of
    h(X, ξ) = η(AX) over the coordinate basis; ``pullback_residual`` and
    ``structure_residual`` the mismatches of the record's metric and
    structure with the immersion (0 when the record carries no structure).
    """

    beta: np.ndarray
    beta_mean: float
    umbilicity: float
    h_xi_residual: float
    normal_unit_residual: float
    normal_tangency_residual: float
    pullback_residual: float
    structure_residual: float


def _per_point(a: np.ndarray) -> np.ndarray:
    """Max |entry| of ``a`` at each point of its leading axis."""
    return np.max(np.abs(a.reshape(len(a), -1)), axis=1)


def _ambient_kahler(ambient: AlmostHermitianStructure):
    """J at the Kähler check's 3 probes of the ambient chart (seed 7) and
    the largest |∇J| entry at each, read from the ambient's point record
    there: one metric jet run and one jet run of J."""
    rec = contact_point_data(ambient, sample(ambient.chart, 3, seed=7))
    return rec.phi, _per_point(geometry.nabla_endomorphism_of(rec.gamma, rec.phi, rec.dphi))


def _induction(J: np.ndarray, patch: SurfacePatch, rec: PointRecord):
    """The induction at every point of ``rec`` at once, from one jet run of
    the patch's program (immersion and normal): β, the Weingarten matrices A and
    ξ = −JN in chart components, each on the leading point axis, and the
    per-point residuals keyed by row name. The structure row compares the
    immersion with the structure of ``rec`` and is present iff ``rec``
    carries one.

    Raises at the first point whose normal is not unit (EvalDomainError if
    it is NaN) or whose immersion Jacobian is not finite or rank-deficient,
    in that order.
    """
    d, nA = patch.chart.dim, len(patch.immersion)
    V, dV = _expr_jets(patch.program, patch.chart.env(rec.point, jets=True, hessians=False))
    JF, N, dN = dV[:, :nA], V[:, nA:], dV[:, nA:]   # (N, nA, d), (N, nA), (N, nA, d)
    Nrow = N[:, None, :]
    norm2 = (Nrow @ N[:, :, None])[:, 0, 0]
    unit = np.abs(norm2 - 1.0)
    finite = np.isfinite(JF).all(axis=(1, 2))   # the svd fails on inf or NaN
    smin = np.zeros(len(JF))
    smin[finite] = np.linalg.svd(JF[finite], compute_uv=False)[:, -1]
    bad = np.flatnonzero(np.isnan(unit) | (unit > 1e-6) | ~finite | (smin < 1e-8))
    if bad.size:
        k = bad[0]
        p = tuple(map(float, rec.point[k]))
        if _checked("hypersurface.normal_unit", unit[k]) > 1e-6:
            raise CurvlabError(f"normal is not unit at {p} (|N|² − 1 = {norm2[k] - 1.0:.2e})")
        if not finite[k]:
            raise CurvlabError(f"immersion Jacobian is not finite at {p}")
        raise CurvlabError(f"immersion Jacobian rank-deficient at {p}")

    JFt = JF.transpose(0, 2, 1)
    G = JFt @ JF  # first fundamental form (flat ambient)
    Ginv = np.linalg.inv(G)
    A = -Ginv @ (JFt @ dN)  # Weingarten in chart components
    beta = np.trace(A, axis1=-2, axis2=-1) / d
    xi = (Ginv @ (JFt @ (-J @ N[:, :, None])))[:, :, 0]   # ξ = −JN in chart components
    # h(X, ξ) = g̃(∇̃_X ξ, N) with ∇̃_X ξ = −J dN X; η(AX) = g(ξ, AX); both
    # are linear in X, so X sweeps the coordinate basis
    res = {"normal_unit": unit,
           "normal_tangency": _per_point(Nrow @ JF),
           "umbilicity": _per_point(A - beta[:, None, None] * np.eye(d)),
           "h_xi": _per_point(Nrow @ (-J @ dN) - xi[:, None, :] @ G @ A),
           "pullback": _per_point(G - rec.g)}
    if rec.phi is not None:
        # J (dF e_j) = dF (φ e_j) + η_j N, column by column
        res["structure"] = np.max([
            _per_point(xi - rec.xi),
            _per_point((G @ xi[:, :, None])[:, :, 0] - rec.eta),
            _per_point(J @ JF - JF @ rec.phi - N[:, :, None] * rec.eta[:, None, :])], axis=0)
    return beta, A, xi, res


def induce_hypersurface(ambient: AlmostHermitianStructure, patch: SurfacePatch,
                        rec: PointRecord, tol: float = 1e-7) -> HypersurfaceReport:
    """Run the induction at the points of ``rec``, a point record of the
    parameter chart, as one array evaluation over all of them.

    Raises on a non-Kähler ambient, then at the first point with a non-unit
    normal or a non-finite or rank-deficient immersion Jacobian. The record's
    metric is checked against the first fundamental form and, when the record
    carries a structure, its (φ, ξ, η) against the JX = φX + η(X)N
    decomposition with ξ = −JN. The ambient's J is read at the Kähler check's
    probes; a flat Kähler ambient has it constant.
    """
    J, nabla_J = _ambient_kahler(ambient)
    kahler = _checked("hypersurface.ambient_kahler", np.max(nabla_J))
    if kahler > tol:
        raise CurvlabError(f"ambient structure is not Kähler (∇J residual {kahler:.2e})")
    nA = ambient.chart.dim
    if len(patch.immersion) != nA or len(patch.normal) != nA:
        raise ValueError("immersion and normal must have one entry per ambient coordinate")
    beta, _, _, res = _induction(J[0], patch, rec)
    worst = _finite("hypersurface", {k: np.max(v) for k, v in res.items()})
    return HypersurfaceReport(
        beta=beta,
        beta_mean=float(beta.mean()), umbilicity=worst["umbilicity"],
        h_xi_residual=worst["h_xi"], normal_unit_residual=worst["normal_unit"],
        normal_tangency_residual=worst["normal_tangency"],
        pullback_residual=worst["pullback"],
        structure_residual=worst.get("structure", 0.0))
