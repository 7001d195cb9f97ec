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
from .chart import Chart, SampleSet, TensorField, eval_field, eval_field_jets, sample
from .frame import FrameGeometry
from .errors import CurvlabError, EvalDomainError

__all__ = [
    "AlmostContactStructure", "AlmostHermitianStructure",
    "ClassificationReport", "ContactPointData",
    "validate", "classify", "check_kappa_mu",
    "contact_point_data", "hermitian_point_data", "default_samples", "WorstResidual",
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
    """Everything the pointwise checks need, evaluated once per point: Γ and
    the curvature from one ``metric_jets`` (``g`` is that metric), and φ, ξ,
    η over the REAL ring."""

    g: np.ndarray
    riem: np.ndarray
    riem13: np.ndarray
    gamma: np.ndarray
    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray


def contact_point_data(s: AlmostContactStructure, p: Sequence[float]) -> ContactPointData:
    if s.is_frame:
        raise ValueError("pointwise data is a chart-path concept")
    conn, curv = geometry.point_geometry(s.carrier, p)
    return ContactPointData(
        g=curv.g, riem=curv.riem, riem13=curv.riem13, gamma=conn.gamma,
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


class WorstResidual:
    """Running maximum of float residuals. A non-finite residual raises
    EvalDomainError: ``max`` and ``>`` drop NaN, which would let a NaN read
    as a pass."""

    def __init__(self, what: str):
        self.what = what
        self.value = -1.0

    def add(self, val: float) -> bool:
        """Offer ``val``; True when it is the new strict maximum."""
        val = float(val)
        if not math.isfinite(val):
            raise EvalDomainError(f"non-finite residual in {self.what}")
        if val > self.value:
            self.value = val
            return True
        return False


def _worst(what: str, keys) -> dict[str, WorstResidual]:
    return {k: WorstResidual(f"{what}.{k}") for k in keys}


# -- validation ----------------------------------------------------------------


def _validate_contact_chart(s: AlmostContactStructure, samples: SampleSet) -> dict[str, float]:
    res = _worst("validate", ("eta_xi", "phi_xi", "eta_phi", "phi_square", "compatibility"))
    for p_idx in range(samples.n_points):
        p = samples.points[p_idx]
        g = s.carrier.metric_at(p)
        phi = eval_field(s.phi, p)
        xi = eval_field(s.xi, p)
        eta = eval_field(s.eta, p)
        res["eta_xi"].add(abs(float(eta @ xi) - 1.0))
        res["phi_xi"].add(_gnorm(g, phi @ xi))
        vecs = samples.vectors[p_idx]
        for X in vecs:
            res["eta_phi"].add(abs(float(eta @ (phi @ X))))
            res["phi_square"].add(_gnorm(g, phi @ (phi @ X) + X - float(eta @ X) * xi))
        for a in range(0, len(vecs) - 1, 2):
            X, Y = vecs[a], vecs[a + 1]
            lhs = float((phi @ X) @ g @ (phi @ Y))
            rhs = float(X @ g @ Y) - float(eta @ X) * float(eta @ Y)
            res["compatibility"].add(abs(lhs - rhs))
    return {k: w.value for k, w in res.items()}


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
    res = _worst("validate", ("j_square", "compatibility"))
    for p_idx in range(samples.n_points):
        p = samples.points[p_idx]
        g = h.chart.metric_at(p)
        J = eval_field(h.J, p)
        vecs = samples.vectors[p_idx]
        for X in vecs:
            res["j_square"].add(_gnorm(g, J @ (J @ X) + X))
        for a in range(0, len(vecs) - 1, 2):
            X, Y = vecs[a], vecs[a + 1]
            res["compatibility"].add(abs(float((J @ X) @ g @ (J @ Y)) - float(X @ g @ Y)))
    return {k: w.value for k, w in res.items()}


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


def _classify_chart(s: AlmostContactStructure, samples: SampleSet, tol: float,
                    compat: float) -> ClassificationReport:
    chart = s.carrier
    res = _worst("classify", ("contact_metric", "contact_metric_raw", "killing_xi",
                              "sasakian_nabla_xi", "sasakian_nabla_phi", "parallel_phi"))
    ric_dev = WorstResidual("classify.ric_xi_xi")
    ric_value = float(chart.dim - 1)
    for p_idx in range(samples.n_points):
        p = samples.points[p_idx]
        data = contact_point_data(s, p)
        g = chart.metric_at(p)
        phi, xi, eta = data.phi, data.xi, data.eta
        xi_jets, phi_jets = eval_field_jets(s.xi, p), eval_field_jets(s.phi, p)
        d_eta = eval_field_jets(s.eta, p)[1]
        vecs = samples.vectors[p_idx]
        dxi = [geometry.nabla_of(data.gamma, "vector", xi_jets, X) for X in vecs]
        for X, dxi_x in zip(vecs, dxi):
            res["sasakian_nabla_xi"].add(_gnorm(g, dxi_x + phi @ X))
        for a in range(0, len(vecs) - 1, 2):
            X, Y = vecs[a], vecs[a + 1]
            de = geometry.exterior_d_of(d_eta, X, Y)
            gxphiy = float(X @ g @ (phi @ Y))
            res["contact_metric"].add(abs(gxphiy - 0.5 * de))
            res["contact_metric_raw"].add(abs(gxphiy - de))
            res["killing_xi"].add(abs(geometry.lie_derivative_of(g, dxi[a], dxi[a + 1], X, Y)))
            dphi_y = geometry.nabla_of(data.gamma, "endomorphism", phi_jets, X) @ Y
            res["parallel_phi"].add(_gnorm(g, dphi_y))
            target = float(X @ g @ Y) * xi - float(eta @ Y) * X
            res["sasakian_nabla_phi"].add(_gnorm(g, dphi_y - target))
        val = geometry.ricci_of(data, xi, xi)
        if ric_dev.add(abs(val - (chart.dim - 1))):
            ric_value = val
    return ClassificationReport(
        compatibility=compat, **{k: w.value for k, w in res.items()},
        ric_xi_xi=ric_value, ric_xi_xi_target=chart.dim - 1, tolerance=tol)


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
    return _classify_chart(s, samples, tol, compat)


# -- nullity condition -----------------------------------------------------------


def _h_matrix_chart(s: AlmostContactStructure, p) -> np.ndarray:
    """h = ½ L_ξ φ from coordinate brackets: ½(ξ^i ∂_i φ^k_j − φ^i_j ∂_i ξ^k
    + φ^k_i ∂_j ξ^i)."""
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
    worst = WorstResidual(f"kappa-mu({kappa:g},{mu:g})")
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
            worst.add(_gnorm(data.g, defect))
    return worst.value
