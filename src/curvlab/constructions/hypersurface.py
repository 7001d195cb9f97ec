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
as a closed-form template and validated pointwise against the
immersion-derived values; umbilicity, β and the second-fundamental-form
residuals need no template.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .. import geometry
from ..chart import Chart, TensorField, _expr_jets, eval_field, eval_field_jets, sample
from ..structures import (AlmostContactStructure, AlmostHermitianStructure, Samples,
                          WorstResidual, _point_record)
from ..errors import CurvlabError

__all__ = ["SurfacePatch", "HypersurfaceReport", "induce_hypersurface"]


@dataclass(frozen=True)
class SurfacePatch:
    """Parameter chart, immersion and unit normal of a hypersurface, plus
    the optional closed-form induced structure over the parameter chart."""

    chart: Chart                 # parameter chart; metric = induced metric template
    immersion: tuple             # ambient coordinates as Expr over chart coords
    normal: tuple                # unit normal components as Expr
    phi: TensorField | None = None
    xi: TensorField | None = None
    eta: TensorField | None = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "immersion", tuple(
            self.chart.parse(e) if isinstance(e, str) else e for e in self.immersion))
        object.__setattr__(self, "normal", tuple(
            self.chart.parse(e) if isinstance(e, str) else e for e in self.normal))

    @property
    def has_structure(self) -> bool:
        return self.phi is not None and self.xi is not None and self.eta is not None


@dataclass
class HypersurfaceReport:
    """Pointwise induction results over a sample set.

    ``beta`` is the per-point Rayleigh fit trace(A)/dim; ``umbilicity`` the
    max entry of |A − βI| over all points; ``h_xi_residual`` the defect of
    h(X, ξ) = η(AX) over the coordinate basis; ``pullback_residual`` and
    ``structure_residual`` the template-vs-immersion mismatches (zero-length
    template checks report 0).
    """

    points: np.ndarray
    weingarten: list
    beta: np.ndarray
    beta_mean: float
    umbilicity: float
    h_xi_residual: float
    normal_unit_residual: float
    normal_tangency_residual: float
    pullback_residual: float
    structure_residual: float
    induced: AlmostContactStructure | None


def _ambient_J_matrix(ambient: AlmostHermitianStructure) -> np.ndarray:
    # constant J required (flat Kähler ambient); evaluate anywhere valid
    probe = np.zeros(ambient.chart.dim)
    return eval_field(ambient.J, probe)


def _check_ambient_kahler(ambient: AlmostHermitianStructure, tol: float):
    worst = WorstResidual("hypersurface.ambient_kahler")
    for p in sample(ambient.chart, 3, seed=7).points:
        gamma = geometry.christoffel(ambient.chart, p).gamma
        J, dJ = eval_field_jets(ambient.J, p)      # dJ[k, j, i] = ∂_i J^k_j
        # (∇_i J)^k_j as [k, i, j], along every coordinate basis vector at once
        worst.add(np.max(np.abs(dJ.transpose(0, 2, 1) + gamma @ J - np.tensordot(J, gamma, 1))))
    if worst.value > tol:
        raise CurvlabError(f"ambient structure is not Kähler (∇J residual {worst.value:.2e})")


def induce_hypersurface(ambient: AlmostHermitianStructure, patch: SurfacePatch,
                        samples: Samples = None, tol: float = 1e-7) -> HypersurfaceReport:
    """Run the pointwise induction over sampled parameter points.

    Raises on a non-unit normal, a rank-deficient immersion Jacobian or a
    non-Kähler ambient. When the patch carries a structure template, the
    template metric is checked against the first-fundamental form and
    (φ, ξ, η) against the JX = φX + η(X)N decomposition with ξ = −JN.
    ``samples``: a sample set of the parameter chart, or its point record.
    """
    _check_ambient_kahler(ambient, tol)
    J = _ambient_J_matrix(ambient)
    chart = patch.chart
    d = chart.dim
    nA = ambient.chart.dim
    if len(patch.immersion) != nA or len(patch.normal) != nA:
        raise ValueError("immersion and normal must have one entry per ambient coordinate")
    induced = AlmostContactStructure(
        carrier=chart, phi=patch.phi, xi=patch.xi, eta=patch.eta,
        name=patch.name or chart.name) if patch.has_structure else None
    rec = _point_record(induced or chart, sample(chart, 20, seed=42)
                        if samples is None else samples)

    weingarten = []
    betas = []
    res = {k: WorstResidual(f"hypersurface.{k}") for k in (
        "umbilicity", "h_xi", "normal_unit", "normal_tangency", "pullback", "structure")}

    for k, p in enumerate(rec.point):
        env = chart.env(p, jets=True)
        JF = _expr_jets(patch.immersion, env)[1]
        N, dN = _expr_jets(patch.normal, env)

        res["normal_unit"].add(abs(float(N @ N) - 1.0))
        if res["normal_unit"].value > 1e-6:
            raise CurvlabError(f"normal is not unit at {tuple(map(float, p))} "
                               f"(|N|² − 1 = {float(N @ N) - 1.0:.2e})")
        if np.linalg.svd(JF, compute_uv=False)[-1] < 1e-8:
            raise CurvlabError(f"immersion Jacobian rank-deficient at {tuple(map(float, p))}")
        res["normal_tangency"].add(np.max(np.abs(N @ JF)))

        G = JF.T @ JF  # first fundamental form (flat ambient)
        Ginv = np.linalg.inv(G)
        A = -Ginv @ (JF.T @ dN)  # Weingarten in chart components
        weingarten.append(A)
        beta = float(np.trace(A)) / d
        betas.append(beta)
        res["umbilicity"].add(np.max(np.abs(A - beta * np.eye(d))))

        xi_chart = Ginv @ (JF.T @ (-J @ N))   # ξ = −JN in chart components
        # h(X, ξ) = g̃(∇̃_X ξ, N) with ∇̃_X ξ = −J dN X; η(AX) = g(ξ, AX); both
        # are linear in X, so X sweeps the coordinate basis
        res["h_xi"].add(np.max(np.abs(N @ (-J @ dN) - xi_chart @ G @ A)))

        res["pullback"].add(np.max(np.abs(G - rec.g[k])))
        if patch.has_structure:
            res["structure"].add(np.max(np.abs(xi_chart - rec.xi[k])))
            res["structure"].add(np.max(np.abs(G @ xi_chart - rec.eta[k])))
            # J (dF e_j) = dF (φ e_j) + η_j N, column by column
            defect = J @ JF - JF @ rec.phi[k] - np.outer(N, rec.eta[k])
            res["structure"].add(np.max(np.abs(defect)))

    betas = np.asarray(betas)
    return HypersurfaceReport(
        points=np.array(rec.point), weingarten=weingarten, beta=betas,
        beta_mean=float(betas.mean()), umbilicity=res["umbilicity"].value,
        h_xi_residual=res["h_xi"].value, normal_unit_residual=res["normal_unit"].value,
        normal_tangency_residual=res["normal_tangency"].value,
        pullback_residual=res["pullback"].value,
        structure_residual=res["structure"].value if patch.has_structure else 0.0,
        induced=induced)
