"""Almost Hermitian and almost contact metric structures with their
compatibility validators, geometric classification and nullity condition.

Structures live over either a coordinate chart or an invariant frame. Each
check is written once, over a ``BasisRecord`` of components in a basis with
a leading point axis, and evaluated once over all points: a frame is one
exact point in its own basis, a chart its sample points in the orthonormal
frames E(p) = ``orthonormal_frame(g)``. Every check takes the one stacked
``PointRecord`` of its invocation, built by ``contact_point_data`` from the
metric jets that ``sample`` took and from one jet run of the structure's
program, which holds all its fields (φ, ξ and η, or J), with first
derivatives only; the record carries their values and coordinate
gradients, so every field must be differentiable at the sample points, and
nothing caches it past the invocation.
Residuals are maxima over the carrier's basis vectors or ordered pairs of
them; on charts they are tensor norms in E(p). Classification covers the
contact metric condition (with the 1/2 exterior-derivative convention used
by Blair, plus the raw convention for comparison), the Killing property of
the Reeb field, the two Sasakian characterizations, parallelism of φ and
the Ricci curvature along the Reeb field.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from . import expr as ex
from . import geometry
from .chart import Chart, TensorField
from .frame import FrameGeometry, _contract
from .errors import CurvlabError, EvalDomainError

__all__ = [
    "AlmostContactStructure", "AlmostHermitianStructure",
    "BasisRecord", "ClassificationReport", "PointRecord",
    "validate", "classify", "check_kappa_mu",
    "contact_point_data",
]

@dataclass(frozen=True)
class AlmostContactStructure:
    """Tensors (φ, ξ, η, g) over a chart, or a frame that carries them."""

    carrier: Chart | FrameGeometry
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

    @functools.cached_property
    def program(self) -> ex.Program:
        """The components of φ, ξ and η, each in C order, compiled on first
        run (a chart carrier's only)."""
        return _fields_program((self.phi, self.xi, self.eta))


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

    @functools.cached_property
    def program(self) -> ex.Program:
        """The components of J in C order, compiled on first run."""
        return _fields_program((self.J,))


def _fields_program(fs) -> ex.Program:
    return ex.Program(e for f in fs for e in f.components.flat)


@dataclass(frozen=True)
class PointRecord:
    """The sample points of a chart, evaluated once and read by every check,
    each array with a leading point axis N: the points, g, Γ (``gamma[n,
    k, i, j]``), R and R¹³ from the metric jets of the points, the structure
    and its coordinate gradients from one jet run of its program, and E(p)
    = ``orthonormal_frame(g)``, rows in chart coordinates. The gradients
    are ``dphi[n, k, j, i]`` = ∂_i φ^k_j, ``dxi[n, k, i]`` = ∂_i ξ^k and
    ``deta[n, j, i]`` = ∂_i η_j. An almost Hermitian record carries J as
    ``phi`` with ξ = η = 0; a bare chart's has no structure and no E(p). A
    frame's record has N = 1, its exact g, R and structure in its own basis,
    E = I, and no point, Γ, R¹³ or gradients."""

    point: np.ndarray | None
    g: np.ndarray
    gamma: np.ndarray | None
    riem: np.ndarray
    riem13: np.ndarray | None
    phi: np.ndarray | None = None
    xi: np.ndarray | None = None
    eta: np.ndarray | None = None
    E: np.ndarray | None = None
    dphi: np.ndarray | None = None
    dxi: np.ndarray | None = None
    deta: np.ndarray | None = None

    def __post_init__(self):   # every check reads it: an in-place edit must raise
        for a in vars(self).values():
            if a is not None:
                a.flags.writeable = False


def contact_point_data(s, mj: geometry.MetricJets | None = None) -> PointRecord:
    """The ``PointRecord`` that every check on ``s`` reads, at the points of
    the metric jets ``mj`` of the chart under ``s``: an almost contact or
    almost Hermitian structure over a chart, whose fields take one jet run
    there (values and gradients, no Hessians), or a bare ``Chart``. On a
    frame, its own exact record, and ``mj`` is ignored."""
    if isinstance(s, AlmostContactStructure) and s.is_frame:
        fg = s.carrier
        return PointRecord(None, fg.g[None], None, fg.riem[None], None, fg.phi[None],
                           fg.xi[None], fg.eta[None], np.eye(s.dim, dtype=object)[None])
    gamma, dgamma = geometry.connection_of(mj)
    riem, riem13 = geometry.curvature_of(mj.g, gamma, dgamma)
    if isinstance(s, Chart):
        return PointRecord(mj.point, mj.g, gamma, riem, riem13)
    values, grads = _field_jets(s, mj.point)
    if isinstance(s, AlmostHermitianStructure):   # ξ = η = 0
        n, d = mj.point.shape
        values += [np.zeros((n, d))] * 2
        grads += [np.zeros((n, d, d))] * 2
    (phi, xi, eta), (dphi, dxi, deta) = values, grads
    return PointRecord(mj.point, mj.g, gamma, riem, riem13, phi, xi, eta,
                       geometry.orthonormal_frame(mj.g), dphi, dxi, deta)


def _field_jets(s, point: np.ndarray) -> tuple[list, list]:
    """The fields of a chart structure ``s`` at the points ``point`` (N, d),
    φ, ξ and η or J alone, from one jet run of its program with first
    derivatives only: their values and their coordinate gradients, each
    with the leading point axis, as ``PointRecord`` lays them out."""
    chart, fs = ((s.chart, (s.J,)) if isinstance(s, AlmostHermitianStructure)
                 else (s.carrier, (s.phi, s.xi, s.eta)))
    vals, grads = geometry._expr_jets(s.program, chart.env(point, jets=True, hessians=False))
    n, d = point.shape
    cut = np.cumsum([f.components.size for f in fs])[:-1]
    return ([v.reshape((n,) + f.components.shape) for f, v in zip(fs, np.split(vals, cut, 1))],
            [dv.reshape((n,) + f.components.shape + (d,))
             for f, dv in zip(fs, np.split(grads, cut, 1))])


def _checked(what: str, val) -> float:
    """``val`` as a float. A non-finite one raises EvalDomainError: ``max``
    and ``>`` drop NaN, which would let a NaN read as a pass."""
    val = float(val)
    if not math.isfinite(val):
        raise EvalDomainError(f"non-finite residual in {what}")
    return val


def _finite(what: str, residuals: dict) -> dict[str, float]:
    """``residuals`` as floats; a non-finite one raises EvalDomainError."""
    return {k: _checked(f"{what}.{k}", v) for k, v in residuals.items()}


@dataclass(frozen=True)
class BasisRecord:
    """A structure's components in a basis e_1, …, e_d at N points; every
    array carries the leading point axis.

    ``phi`` acts on columns. The tables hold vectors as rows:
    ``nabla_xi[n, i]`` = ∇_{e_i}ξ, ``dphi[n, i, j]`` = (∇_{e_i}φ)e_j and
    ``r_xi[n, i, j]`` = R_{e_i e_j}ξ; ``d_eta[n, i, j]`` = dη(e_i, e_j),
    without the ½. An almost Hermitian record has φ = J, ξ = η = 0 and no
    derivative tables.
    """

    g: np.ndarray
    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    nabla_xi: np.ndarray | None = None
    dphi: np.ndarray | None = None
    d_eta: np.ndarray | None = None
    r_xi: np.ndarray | None = None


def _frame_record(fg: FrameGeometry) -> BasisRecord:
    """The exact record of a frame in its own basis (N = 1). The structure
    has constant components there, so ∇ acts through the connection alone."""
    nab = fg.nabla                   # nab[i, j, k]: E_k part of ∇_Ei Ej
    by_j = nab.transpose(1, 0, 2)
    tensors = dict(
        g=fg.g, phi=fg.phi, xi=fg.xi, eta=fg.eta,
        nabla_xi=_contract(by_j, fg.xi[None])[..., 0],
        # (∇_Ei φ)E_j = ∇_Ei (φE_j) − φ(∇_Ei E_j)
        dphi=(_contract(by_j, fg.phi.T).transpose(0, 2, 1)
              - _contract(nab.transpose(2, 0, 1), fg.phi)),
        # dη(E_i, E_j) = −η([E_i, E_j])
        d_eta=-_contract(fg.c, fg.eta[None])[..., 0],
        r_xi=_contract(fg.riem13.transpose(2, 0, 1, 3), fg.xi[None])[..., 0])
    return BasisRecord(**{k: a[None] for k, a in tensors.items()})


def _lift(t: np.ndarray, ET: np.ndarray, F: np.ndarray) -> np.ndarray:
    """out[n, a, b] = the vector t(E_a, E_b) in E(p) components, from a
    coordinate table t[n, k, i, j] whose output index k comes first; ``ET``
    holds Eᵀ at each point."""
    ET = ET[:, None]
    return ((t @ ET).transpose(0, 3, 1, 2) @ ET).transpose(0, 3, 1, 2) @ F[:, None]


def _chart_record(r: PointRecord, jets: bool = True) -> BasisRecord:
    """The record at the chart points of ``r`` in E(p); with ``jets``, also
    the derivative tables, from Γ, R¹³ and the gradients of ξ, φ and η."""
    E, ET = r.E, r.E.transpose(0, 2, 1)
    F = r.g @ ET                  # F: coordinate vector (row) → E(p) components
    tables = {}
    if jets:
        # coordinate components (∇_i ξ)^k as [n, k, i]
        nabla_xi = r.dxi + (r.gamma @ r.xi[:, None, :, None])[..., 0]
        tables = dict(nabla_xi=E @ nabla_xi.transpose(0, 2, 1) @ F,
                      dphi=_lift(geometry.nabla_endomorphism_of(r.gamma, r.phi, r.dphi),
                                 ET, F),
                      d_eta=E @ (r.deta.transpose(0, 2, 1) - r.deta) @ ET,
                      r_xi=_lift((r.riem13 @ r.xi[:, None, None, :, None])[..., 0], ET, F))
    return BasisRecord(g=E @ r.g @ ET, phi=F.transpose(0, 2, 1) @ r.phi @ ET,
                       xi=(r.xi[:, None] @ F)[:, 0], eta=(E @ r.eta[..., None])[..., 0],
                       **tables)


def _basis_record(s, rec: PointRecord, jets: bool = True) -> BasisRecord:
    """The frame's exact record, or the chart's at the points of ``rec``."""
    if isinstance(s, AlmostContactStructure) and s.is_frame:
        return _frame_record(s.carrier)
    return _chart_record(rec, jets)


def _norm(g: np.ndarray, v: np.ndarray) -> float:
    """Largest g-norm in a stack v (N, …, d) of basis components at N points
    with metrics g (N, d, d), exact until the √. The clamp absorbs rounding
    below 0; ``max`` keeps a NaN as its first argument."""
    v = v.reshape(len(v), -1, v.shape[-1])
    return math.sqrt(max(float(np.max(((v @ g) * v).sum(axis=-1))), 0.0))


# -- validation ----------------------------------------------------------------


def _algebraic(r: BasisRecord) -> dict:
    # row j of each stack belongs to e_j; column j of phi is φe_j
    eye = np.eye(r.g.shape[-1], dtype=r.g.dtype)
    return {
        "eta_xi": np.abs((r.eta[:, None] @ r.xi[..., None])[:, 0, 0] - 1).max(),
        "phi_xi": _norm(r.g, (r.phi @ r.xi[..., None])[..., 0]),
        "eta_phi": np.abs(r.eta[:, None] @ r.phi).max(),
        "phi_square": _norm(r.g, (r.phi @ r.phi).transpose(0, 2, 1) + eye
                            - r.eta[:, :, None] * r.xi[:, None, :]),
        "compatibility": np.abs(r.phi.transpose(0, 2, 1) @ r.g @ r.phi - r.g
                                + r.eta[:, :, None] * r.eta[:, None, :]).max(),
    }


def validate(s, rec: PointRecord) -> dict[str, float]:
    """Max residual per algebraic compatibility identity of the structure,
    over the carrier's basis vectors and ordered pairs of them. On a chart it
    reads g, φ, ξ and η (or J) of the point record ``rec`` and
    differentiates nothing."""
    if not isinstance(s, (AlmostContactStructure, AlmostHermitianStructure)):
        raise TypeError(f"cannot validate {type(s).__name__}")
    res = _finite("validate", _algebraic(_basis_record(s, rec, jets=False)))
    if isinstance(s, AlmostHermitianStructure):
        return {"j_square": res["phi_square"], "compatibility": res["compatibility"]}
    return res


# -- classification --------------------------------------------------------------


@dataclass
class ClassificationReport:
    """Residuals and verdicts of the standard contact classification tests.

    Each residual is a maximum over the carrier's basis: the frame's own, or
    E(p) at each sample point of a chart. ``contact_metric`` compares
    g(X, φY) with dη(X, Y) in the convention carrying the 1/2 factor;
    ``contact_metric_raw`` compares it with the engine's unscaled dη.
    ``ric_xi_xi`` is Ric(ξ, ξ) (exact on frames; on charts, the sample
    farthest from the target), whose K-contact target is 2n = dim − 1.
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
        return {f.name: float(getattr(self, f.name)) for f in fields(self)
                if f.name not in ("ric_xi_xi_target", "tolerance")}


def _classification(r: BasisRecord) -> dict:
    eye = np.eye(r.g.shape[-1], dtype=r.g.dtype)
    g_phi = r.g @ r.phi              # g(e_i, φe_j)
    killing = r.nabla_xi @ r.g       # g(∇_{e_i}ξ, e_j)
    # Sasakian target g(e_i, e_j) ξ − η(e_j) e_i
    target = r.g[..., None] * r.xi[:, None, None] - r.eta[:, None, :, None] * eye[:, None, :]
    return {
        "contact_metric": np.abs(g_phi - r.d_eta / 2).max(),
        "contact_metric_raw": np.abs(g_phi - r.d_eta).max(),
        "killing_xi": np.abs(killing + killing.transpose(0, 2, 1)).max(),
        "sasakian_nabla_xi": _norm(r.g, r.nabla_xi + r.phi.transpose(0, 2, 1)),
        "sasakian_nabla_phi": _norm(r.g, r.dphi - target),
        "parallel_phi": _norm(r.g, r.dphi),
    }


def classify(s: AlmostContactStructure, rec: PointRecord,
             tol: float = 1e-7) -> ClassificationReport:
    """Run the classification battery at the points of ``rec``. A structure
    whose compatibility residual exceeds ``tol`` is rejected."""
    r, target = _basis_record(s, rec), s.dim - 1
    compat = max(_finite("classify.compatibility", _algebraic(r)).values())
    res = _finite("classify", _classification(r))
    # Ric(ξ, ξ) = Σ_a (R_{e_a ξ}ξ)^a at each point, the same in every basis
    ric = (np.trace(r.r_xi, axis1=1, axis2=3)[:, None] @ r.xi[..., None])[:, 0, 0]
    far = np.argmax(np.abs(ric - target))
    _checked("classify.ric_xi_xi", abs(ric[far] - target))
    if compat > tol:
        raise CurvlabError(
            f"structure fails compatibility validation (residual {compat:.3e})")
    return ClassificationReport(compatibility=compat, ric_xi_xi=ric[far],
                                ric_xi_xi_target=target, tolerance=tol, **res)


# -- nullity condition -----------------------------------------------------------


def check_kappa_mu(s: AlmostContactStructure, kappa: float | Fraction,
                   mu: float | Fraction, rec: PointRecord) -> float:
    """Max residual of R_XY ξ − κ(η(Y)X − η(X)Y) − μ(η(Y)hX − η(X)hY)
    with h = ½ L_ξ φ, over ordered pairs of the carrier's basis vectors:
    exact on frames, in E(p) at each sample point of a chart."""
    ring = Fraction if s.is_frame else float   # frames keep κ and μ exact
    kap, muf = ring(kappa), ring(mu)
    r = _basis_record(s, rec)
    phi_t = r.phi.transpose(0, 2, 1)
    # rows j: h e_j, with (L_ξ φ)X = (∇_ξ φ)X − ∇_{φX} ξ + φ ∇_X ξ; ∇_ξ φ term by term
    h = (sum(r.xi[:, m, None, None] * r.dphi[:, m] for m in range(s.dim))
         - phi_t @ r.nabla_xi + r.nabla_xi @ phi_t) / 2
    eye = np.eye(s.dim, dtype=r.g.dtype)
    ex_, ey = r.eta[:, :, None, None], r.eta[:, None, :, None]   # η(X), η(Y) at (e_i, e_j)
    return _checked(f"kappa-mu({float(kappa):g},{float(mu):g})",
                    _norm(r.g, r.r_xi - kap * (ey * eye[:, None, :] - ex_ * eye[None, :, :])
                          - muf * (ey * h[:, :, None, :] - ex_ * h[:, None, :, :])))
