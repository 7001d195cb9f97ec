"""Almost Hermitian and almost contact metric structures with their
compatibility validators and geometric classification.

Structures live over either a coordinate chart (fields are expression
arrays, residuals are floats from the AD engine) or an invariant frame
(tensors are rational, residuals are exact). Classification covers the
contact metric condition (with the 1/2 exterior-derivative convention used
by Blair, plus the raw convention for comparison), the Killing property of
the Reeb field, the two Sasakian characterizations, parallelism of the
product structure tensor and the Ricci curvature along the Reeb field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from . import geometry
from .chart import Chart, SampleSet, TensorField, eval_field, sample
from .frame import FrameGeometry
from .errors import CurvlabError

__all__ = [
    "AlmostContactStructure", "AlmostHermitianStructure",
    "ClassificationReport", "ContactPointData",
    "validate", "classify", "check_kappa_mu",
    "contact_point_data", "hermitian_point_data", "default_samples",
]

Carrier = Union[Chart, FrameGeometry]


@dataclass(frozen=True)
class AlmostContactStructure:
    """Tensors (φ, ξ, η, g) over a chart, or a frame that carries them."""

    carrier: Carrier
    phi: TensorField | None = None
    xi: TensorField | None = None
    eta: TensorField | None = None
    name: str = ""

    def __post_init__(self):
        if self.is_frame:
            fg = self.carrier
            if fg.phi is None or fg.xi is None or fg.eta is None:
                raise ValueError("frame carrier must include phi, xi and eta")
        else:
            for f, valence in ((self.phi, "endomorphism"), (self.xi, "vector"),
                               (self.eta, "oneform")):
                if f is None or f.valence != valence:
                    raise ValueError(f"chart structure needs a {valence} field")
                if f.chart is not self.carrier:
                    raise ValueError("field defined over a different chart")

    @property
    def is_frame(self) -> bool:
        return isinstance(self.carrier, FrameGeometry)

    @property
    def dim(self) -> int:
        return self.carrier.dim


@dataclass(frozen=True)
class AlmostHermitianStructure:
    """A chart together with a compatible almost complex structure J."""

    chart: Chart
    J: TensorField
    name: str = ""

    def __post_init__(self):
        if self.J.valence != "endomorphism":
            raise ValueError("J must be an endomorphism field")
        if self.J.chart is not self.chart:
            raise ValueError("J defined over a different chart")

    @property
    def dim(self) -> int:
        return self.chart.dim


@dataclass(frozen=True)
class ContactPointData:
    """Everything the pointwise checks need, evaluated once per point."""

    g: np.ndarray
    riem: np.ndarray
    riem13: np.ndarray
    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray


def contact_point_data(s: AlmostContactStructure, p: Sequence[float]) -> ContactPointData:
    if s.is_frame:
        raise ValueError("pointwise data is a chart-path concept")
    curv = geometry.curvature(s.carrier, p)
    return ContactPointData(
        g=curv.g, riem=curv.riem, riem13=curv.riem13,
        phi=eval_field(s.phi, p), xi=eval_field(s.xi, p), eta=eval_field(s.eta, p),
    )


def hermitian_point_data(h: AlmostHermitianStructure, p: Sequence[float]):
    curv = geometry.curvature(h.chart, p)
    return curv, eval_field(h.J, p)


def default_samples(s, n_points: int = 20, vecs_per_point: int = 20,
                    seed: int = 42) -> SampleSet | None:
    """Sampling helper; frame carriers need no samples (sweeps are exhaustive)."""
    if isinstance(s, AlmostContactStructure) and s.is_frame:
        return None
    chart = s.carrier if isinstance(s, AlmostContactStructure) else s.chart
    return sample(chart, n_points, vecs_per_point, seed)


def _gnorm(g: np.ndarray, v: np.ndarray) -> float:
    return math.sqrt(max(float(v @ g @ v), 0.0))


# -- validation ----------------------------------------------------------------


def _validate_contact_chart(s: AlmostContactStructure, samples: SampleSet) -> dict[str, float]:
    res = {"eta_xi": 0.0, "phi_xi": 0.0, "eta_phi": 0.0, "phi_square": 0.0,
           "compatibility": 0.0}
    for p_idx in range(samples.n_points):
        p = samples.points[p_idx]
        g = s.carrier.metric_at(p)
        phi = eval_field(s.phi, p)
        xi = eval_field(s.xi, p)
        eta = eval_field(s.eta, p)
        res["eta_xi"] = max(res["eta_xi"], abs(float(eta @ xi) - 1.0))
        res["phi_xi"] = max(res["phi_xi"], _gnorm(g, phi @ xi))
        vecs = samples.vectors[p_idx]
        for X in vecs:
            res["eta_phi"] = max(res["eta_phi"], abs(float(eta @ (phi @ X))))
            defect = phi @ (phi @ X) + X - float(eta @ X) * xi
            res["phi_square"] = max(res["phi_square"], _gnorm(g, defect))
        for a in range(0, len(vecs) - 1, 2):
            X, Y = vecs[a], vecs[a + 1]
            lhs = float((phi @ X) @ g @ (phi @ Y))
            rhs = float(X @ g @ Y) - float(eta @ X) * float(eta @ Y)
            res["compatibility"] = max(res["compatibility"], abs(lhs - rhs))
    return res


def _gsq(fg: FrameGeometry, v: np.ndarray) -> np.ndarray:
    """g(v, v) over the leading axes of a stack of frame vectors."""
    return ((v @ fg.g) * v).sum(axis=-1)


def _validate_contact_frame(fg: FrameGeometry) -> dict[str, float]:
    # row j of each stack belongs to E_j; column j of phi is φE_j
    res = {
        "eta_xi": abs(fg.eta @ fg.xi - 1),
        "phi_xi": _gsq(fg, fg.phi @ fg.xi),
        "eta_phi": np.abs(fg.eta @ fg.phi).max(),
        "phi_square": _gsq(fg, (fg.phi @ fg.phi).T + np.eye(fg.dim, dtype=object)
                           - np.outer(fg.eta, fg.xi)).max(),
        "compatibility": np.abs(fg.phi.T @ fg.g @ fg.phi - fg.g
                                + np.outer(fg.eta, fg.eta)).max(),
    }
    # quadratic residuals back to linear scale
    return {k: float(v) if k in ("eta_xi", "eta_phi", "compatibility")
            else math.sqrt(float(v)) for k, v in res.items()}


def _validate_hermitian(h: AlmostHermitianStructure, samples: SampleSet) -> dict[str, float]:
    res = {"j_square": 0.0, "compatibility": 0.0}
    for p_idx in range(samples.n_points):
        p = samples.points[p_idx]
        g = h.chart.metric_at(p)
        J = eval_field(h.J, p)
        vecs = samples.vectors[p_idx]
        for X in vecs:
            res["j_square"] = max(res["j_square"], _gnorm(g, J @ (J @ X) + X))
        for a in range(0, len(vecs) - 1, 2):
            X, Y = vecs[a], vecs[a + 1]
            res["compatibility"] = max(
                res["compatibility"],
                abs(float((J @ X) @ g @ (J @ Y)) - float(X @ g @ Y)))
    return res


def validate(s, samples: SampleSet | None = None) -> dict[str, float]:
    """Max residual per algebraic compatibility identity of the structure."""
    if isinstance(s, AlmostHermitianStructure):
        if samples is None:
            samples = default_samples(s)
        return _validate_hermitian(s, samples)
    if isinstance(s, AlmostContactStructure):
        if s.is_frame:
            return _validate_contact_frame(s.carrier)
        if samples is None:
            samples = default_samples(s)
        return _validate_contact_chart(s, samples)
    raise TypeError(f"cannot validate {type(s).__name__}")


# -- classification --------------------------------------------------------------


@dataclass
class ClassificationReport:
    """Residuals and verdicts of the standard contact classification tests.

    ``contact_metric`` compares g(X, φY) with the exterior derivative of η
    in the convention carrying the 1/2 factor; ``contact_metric_raw`` is the
    same comparison against the engine's unscaled dη. ``ric_xi_xi`` is the
    Ricci curvature along ξ (exact for frame carriers) whose K-contact
    target value is 2n = dim − 1.
    """

    compatibility: float
    contact_metric: float
    contact_metric_raw: float
    killing_xi: float
    sasakian_nabla_xi: float
    sasakian_nabla_phi: float
    parallel_phi: float
    ric_xi_xi: float | Fraction
    ric_xi_xi_target: int
    tolerance: float

    def booleans(self) -> dict[str, bool]:
        t = self.tolerance
        return {
            "compatibility": self.compatibility <= t,
            "contact_metric": self.contact_metric <= t,
            "killing_xi": self.killing_xi <= t,
            "sasakian": (self.sasakian_nabla_xi <= t and self.sasakian_nabla_phi <= t),
            "parallel_phi": self.parallel_phi <= t,
            "k_contact_ricci": abs(float(self.ric_xi_xi) - self.ric_xi_xi_target) <= t,
        }

    def residuals(self) -> dict[str, float]:
        return {
            "compatibility": self.compatibility,
            "contact_metric": self.contact_metric,
            "contact_metric_raw": self.contact_metric_raw,
            "killing_xi": self.killing_xi,
            "sasakian_nabla_xi": self.sasakian_nabla_xi,
            "sasakian_nabla_phi": self.sasakian_nabla_phi,
            "parallel_phi": self.parallel_phi,
            "ric_xi_xi": float(self.ric_xi_xi),
        }


def _classify_chart(s: AlmostContactStructure, samples: SampleSet,
                    tol: float) -> ClassificationReport:
    chart = s.carrier
    compat = max(_validate_contact_chart(s, samples).values())
    cm_blair = cm_raw = killing = nab_xi = nab_phi = par_phi = 0.0
    ric_value = float(chart.dim - 1)
    ric_dev = -1.0
    for p_idx in range(samples.n_points):
        p = samples.points[p_idx]
        g = chart.metric_at(p)
        phi = eval_field(s.phi, p)
        xi = eval_field(s.xi, p)
        eta = eval_field(s.eta, p)
        vecs = samples.vectors[p_idx]
        for X in vecs:
            dxi = geometry.covariant_derivative(chart, s.xi, p, X)
            nab_xi = max(nab_xi, _gnorm(g, dxi + phi @ X))
        for a in range(0, len(vecs) - 1, 2):
            X, Y = vecs[a], vecs[a + 1]
            de = geometry.exterior_d_oneform(chart, s.eta, p, X, Y)
            gxphiy = float(X @ g @ (phi @ Y))
            cm_blair = max(cm_blair, abs(gxphiy - 0.5 * de))
            cm_raw = max(cm_raw, abs(gxphiy - de))
            killing = max(killing, abs(geometry.lie_derivative_metric(chart, s.xi, p, X, Y)))
            dphi = geometry.covariant_derivative(chart, s.phi, p, X)
            dphi_y = dphi @ Y
            par_phi = max(par_phi, _gnorm(g, dphi_y))
            target = float(X @ g @ Y) * xi - float(eta @ Y) * X
            nab_phi = max(nab_phi, _gnorm(g, dphi_y - target))
        val = geometry.ricci(chart, p, xi, xi)
        dev = abs(val - (chart.dim - 1))
        if dev > ric_dev:
            ric_dev, ric_value = dev, val
    return ClassificationReport(
        compatibility=compat, contact_metric=cm_blair, contact_metric_raw=cm_raw,
        killing_xi=killing, sasakian_nabla_xi=nab_xi, sasakian_nabla_phi=nab_phi,
        parallel_phi=par_phi, ric_xi_xi=ric_value,
        ric_xi_xi_target=chart.dim - 1, tolerance=tol)


def _classify_frame(fg: FrameGeometry, tol: float) -> ClassificationReport:
    d = fg.dim
    compat = max(_validate_contact_frame(fg).values())
    # rows i: ∇_Ei ξ and φE_i; matrices [i, j]: dη(E_i, E_j) = −η([E_i, E_j])
    # and g(E_i, φE_j)
    nabla_xi = np.tensordot(fg.xi, fg._nabla, axes=([0], [1]))
    d_eta = -np.tensordot(fg.eta, fg.c, axes=([0], [0]))
    g_phi = fg.g @ fg.phi
    killing = nabla_xi @ fg.g
    # (∇_Ei φ)E_j = ∇_Ei (φE_j) − φ(∇_Ei E_j), as dphi[i, j, :]
    dphi = (np.tensordot(fg._nabla, fg.phi, axes=([1], [0])).transpose(0, 2, 1)
            - fg._nabla @ fg.phi.T)
    # Sasakian target g(E_i, E_j) ξ − η(E_j) E_i
    eye = np.eye(d, dtype=object)
    target = fg.g[:, :, None] * fg.xi - fg.eta[None, :, None] * eye[:, None, :]
    return ClassificationReport(
        compatibility=float(compat),
        contact_metric=float(np.abs(g_phi - d_eta / 2).max()),
        contact_metric_raw=float(np.abs(g_phi - d_eta).max()),
        killing_xi=float(np.abs(killing + killing.T).max()),
        sasakian_nabla_xi=math.sqrt(float(_gsq(fg, nabla_xi + fg.phi.T).max())),
        sasakian_nabla_phi=math.sqrt(float(_gsq(fg, dphi - target).max())),
        parallel_phi=math.sqrt(float(_gsq(fg, dphi).max())),
        ric_xi_xi=fg.ricci(fg.xi, fg.xi), ric_xi_xi_target=d - 1, tolerance=tol)


def classify(s: AlmostContactStructure, samples: SampleSet | None = None,
             tol: float = 1e-7) -> ClassificationReport:
    """Run the classification battery; deterministic for a given sample set."""
    if s.is_frame:
        return _classify_frame(s.carrier, tol)
    if samples is None:
        samples = default_samples(s)
    compat = max(_validate_contact_chart(s, samples).values())
    if compat > tol:
        raise CurvlabError(
            f"structure fails compatibility validation (residual {compat:.3e})")
    return _classify_chart(s, samples, tol)


# -- nullity condition -----------------------------------------------------------


def _h_matrix_chart(s: AlmostContactStructure, p) -> np.ndarray:
    """h = ½ L_ξ φ from coordinate brackets: ½(ξ^i ∂_i φ^k_j − φ^i_j ∂_i ξ^k
    + φ^k_i ∂_j ξ^i)."""
    from .chart import eval_field_jets

    phi_v, phi_g = eval_field_jets(s.phi, p)
    xi_v, xi_g = eval_field_jets(s.xi, p)  # xi_g[k, i] = ∂_i ξ^k
    lie = (np.einsum("i,kji->kj", xi_v, phi_g)
           - np.einsum("ij,ki->kj", phi_v, xi_g)
           + np.einsum("ki,ij->kj", phi_v, xi_g))
    return 0.5 * lie


def check_kappa_mu(s: AlmostContactStructure, kappa: float | Fraction,
                   mu: float | Fraction, samples: SampleSet | None = None) -> float:
    """Max residual of R_XY ξ − κ(η(Y)X − η(X)Y) − μ(η(Y)hX − η(X)hY)
    with h = ½ L_ξ φ from brackets. Exact sweep over frame carriers."""
    if s.is_frame:
        fg = s.carrier
        kap, muf = Fraction(kappa), Fraction(mu)
        # [ξ, v] = ad_xi @ v; h = ½ L_ξ φ with (L_ξ φ)E_j = [ξ, φE_j] − φ[ξ, E_j]
        ad_xi = np.tensordot(fg.c, fg.xi, axes=([1], [0]))
        h_cols = ((ad_xi @ fg.phi - fg.phi @ ad_xi) / 2).T
        eye = np.eye(fg.dim, dtype=object)
        # defect[i, j, :] for X = E_i, Y = E_j, with η(E_i) = eta[i]
        ex_, ey = fg.eta[:, None, None], fg.eta[None, :, None]
        defect = (np.tensordot(fg.riem13, fg.xi, axes=([2], [0]))
                  - kap * (ey * eye[:, None, :] - ex_ * eye[None, :, :])
                  - muf * (ey * h_cols[:, None, :] - ex_ * h_cols[None, :, :]))
        return math.sqrt(float(_gsq(fg, defect).max()))
    kappa, mu = float(kappa), float(mu)
    if samples is None:
        samples = default_samples(s)
    chart = s.carrier
    worst = 0.0
    for p_idx in range(samples.n_points):
        p = samples.points[p_idx]
        data = contact_point_data(s, p)
        h = _h_matrix_chart(s, p)
        vecs = samples.vectors[p_idx]
        for a in range(0, len(vecs) - 1, 2):
            X, Y = vecs[a], vecs[a + 1]
            rxy_xi = np.einsum("mijk,i,j,k->m", data.riem13, X, Y, data.xi)
            ex_ = float(data.eta @ X)
            ey = float(data.eta @ Y)
            defect = (rxy_xi - kappa * (ey * X - ex_ * Y)
                      - mu * (ey * (h @ X) - ex_ * (h @ Y)))
            worst = max(worst, _gnorm(data.g, defect))
    return worst
