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

from .. import expr as ex
from .. import geometry
from .. import jet
from ..chart import Chart, SampleSet, TensorField, eval_field, eval_field_jets, sample
from ..structures import AlmostContactStructure, AlmostHermitianStructure
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
    h(X, ξ) = η(AX); ``pullback_residual`` and ``structure_residual`` the
    template-vs-immersion mismatches (zero-length template checks report 0).
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
    probes = sample(ambient.chart, 3, 4, seed=7)
    worst = 0.0
    for p_idx in range(probes.n_points):
        p = probes.points[p_idx]
        gamma = geometry.christoffel(ambient.chart, p).gamma
        jets = eval_field_jets(ambient.J, p)
        for X in probes.vectors[p_idx][:2]:
            dJ = geometry.nabla_of(gamma, "endomorphism", jets, X)
            worst = max(worst, float(np.max(np.abs(dJ))))
    if worst > tol:
        raise CurvlabError(f"ambient structure is not Kähler (∇J residual {worst:.2e})")


def induce_hypersurface(ambient: AlmostHermitianStructure, patch: SurfacePatch,
                        samples: SampleSet | None = None,
                        tol: float = 1e-7) -> HypersurfaceReport:
    """Run the pointwise induction over sampled parameter points.

    Raises on a non-unit normal, a rank-deficient immersion Jacobian or a
    non-Kähler ambient. When the patch carries a structure template, the
    template metric is checked against the first-fundamental form and
    (φ, ξ, η) against the JX = φX + η(X)N decomposition with ξ = −JN.
    """
    _check_ambient_kahler(ambient, tol)
    J = _ambient_J_matrix(ambient)
    chart = patch.chart
    d = chart.dim
    nA = ambient.chart.dim
    if len(patch.immersion) != nA or len(patch.normal) != nA:
        raise ValueError("immersion and normal must have one entry per ambient coordinate")
    if samples is None:
        samples = sample(chart, 20, 8, seed=42)

    weingarten = []
    betas = []
    umb = 0.0
    h_res = 0.0
    unit_res = 0.0
    tang_res = 0.0
    pullback = 0.0
    struct_res = 0.0

    for p_idx in range(samples.n_points):
        p = samples.points[p_idx]
        env = chart.env(p, jets=True)
        F = np.empty(nA)
        JF = np.empty((nA, d))
        for a in range(nA):
            v = ex.eval_expr(patch.immersion[a], env, ex.JET)
            if isinstance(v, jet.Jet2):
                F[a], JF[a] = v.value, v.grad
            else:
                F[a], JF[a] = float(v), 0.0
        N = np.empty(nA)
        dN = np.empty((nA, d))
        for a in range(nA):
            v = ex.eval_expr(patch.normal[a], env, ex.JET)
            if isinstance(v, jet.Jet2):
                N[a], dN[a] = v.value, v.grad
            else:
                N[a], dN[a] = float(v), 0.0

        unit_res = max(unit_res, abs(float(N @ N) - 1.0))
        if unit_res > 1e-6:
            raise CurvlabError(f"normal is not unit at {tuple(p)} "
                               f"(|N|² − 1 = {float(N @ N) - 1.0:.2e})")
        sv = np.linalg.svd(JF, compute_uv=False)
        if sv[-1] < 1e-8:
            raise CurvlabError(f"immersion Jacobian rank-deficient at {tuple(p)}")
        tang_res = max(tang_res, float(np.max(np.abs(N @ JF))))

        G = JF.T @ JF  # first fundamental form (flat ambient)
        Ginv = np.linalg.inv(G)
        A = -Ginv @ (JF.T @ dN)  # Weingarten in chart components
        weingarten.append(A)
        beta = float(np.trace(A)) / d
        betas.append(beta)
        umb = max(umb, float(np.max(np.abs(A - beta * np.eye(d)))))

        xi_amb = -J @ N
        xi_chart = Ginv @ (JF.T @ xi_amb)
        # h(X, ξ) = g̃(∇̃_X ξ, N) with ∇̃_X ξ = −J dN X; η(AX) = g(ξ, AX)
        for X in samples.vectors[p_idx][:4]:
            h_val = float(N @ (-J @ (dN @ X)))
            eta_ax = float(xi_chart @ G @ (A @ X))
            h_res = max(h_res, abs(h_val - eta_ax))

        pullback = max(pullback, float(np.max(np.abs(G - chart.metric_at(p)))))
        if patch.has_structure:
            struct_res = max(struct_res, float(np.max(np.abs(
                xi_chart - eval_field(patch.xi, p)))))
            eta_vals = eval_field(patch.eta, p)
            struct_res = max(struct_res, float(np.max(np.abs(
                G @ xi_chart - eta_vals))))
            phi_vals = eval_field(patch.phi, p)
            # J (dF e_j) = dF (φ e_j) + η_j N, column by column
            defect = J @ JF - JF @ phi_vals - np.outer(N, eta_vals)
            struct_res = max(struct_res, float(np.max(np.abs(defect))))

    induced = None
    if patch.has_structure:
        induced = AlmostContactStructure(
            carrier=chart, phi=patch.phi, xi=patch.xi, eta=patch.eta,
            name=patch.name or chart.name)
    betas = np.asarray(betas)
    return HypersurfaceReport(
        points=samples.points, weingarten=weingarten, beta=betas,
        beta_mean=float(betas.mean()), umbilicity=umb, h_xi_residual=h_res,
        normal_unit_residual=unit_res, normal_tangency_residual=tang_res,
        pullback_residual=pullback, structure_residual=struct_res,
        induced=induced)
