"""Almost Hermitian and almost contact metric structures with their
compatibility validators, geometric classification and nullity condition.

Structures live over either a coordinate chart or an invariant frame. Each
check is written once, over a ``BasisRecord`` of components in a basis: a
frame gives one exact record in its own basis, a chart one float record per
sample point in the orthonormal frame E(p) = ``orthonormal_frame(g)``.
Every chart check reads one list of ``PointRecord`` (g, Γ, R, the structure
and E(p) at each sample point), built once per invocation by the caller or
at a checker's entry; nothing caches it past the invocation.
Residuals are maxima over the carrier's basis vectors or ordered pairs of
them; on charts they are tensor norms in E(p). Classification covers the
contact metric condition (with the 1/2 exterior-derivative convention used
by Blair, plus the raw convention for comparison), the Killing property of
the Reeb field, the two Sasakian characterizations, parallelism of φ and
the Ricci curvature along the Reeb field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import geometry
from .chart import Chart, SampleSet, TensorField, eval_field, eval_field_jets, sample
from .frame import FrameGeometry, _contract
from .errors import CurvlabError, EvalDomainError

__all__ = [
    "AlmostContactStructure", "AlmostHermitianStructure",
    "BasisRecord", "ClassificationReport", "PointRecord",
    "validate", "classify", "check_kappa_mu",
    "contact_point_data", "default_samples", "WorstResidual",
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
class PointRecord:
    """One sample point of a chart, evaluated once and read by every check:
    the point, g, Γ (``gamma[k, i, j]``), R and R¹³ from one
    ``metric_jets``, the structure over the REAL ring and the orthonormal
    frame E(p) = ``orthonormal_frame(g)``, whose rows are the frame vectors
    in chart coordinates. An almost Hermitian structure's record carries J
    as ``phi`` with ξ = η = 0; a bare chart's carries no structure and no
    E(p), since only the curvature symmetries read it."""

    point: np.ndarray
    g: np.ndarray
    gamma: np.ndarray
    riem: np.ndarray
    riem13: np.ndarray
    phi: np.ndarray | None = None
    xi: np.ndarray | None = None
    eta: np.ndarray | None = None
    E: np.ndarray | None = None


# what a checker's ``samples`` may be: a sample set, the point records built
# from one, or None for the default sample set (frames ignore it)
Samples = SampleSet | list[PointRecord] | None


def contact_point_data(s, p: Sequence[float]) -> PointRecord:
    """The ``PointRecord`` at chart point ``p`` of ``s``: an almost contact
    or almost Hermitian structure over a chart, or a bare ``Chart``."""
    if isinstance(s, Chart):
        chart, fields = s, ()
    elif isinstance(s, AlmostHermitianStructure):
        chart, fields = s.chart, (s.J,)
    elif s.is_frame:
        raise ValueError("pointwise data is a chart-path concept")
    else:
        chart, fields = s.carrier, (s.phi, s.xi, s.eta)
    conn, curv = geometry.point_geometry(chart, p)
    values = [eval_field(f, p) for f in fields]
    if len(values) == 1:
        values += [np.zeros(s.dim)] * 2
    if values:
        values.append(geometry.orthonormal_frame(curv.g))
    record = PointRecord(np.asarray(p, dtype=float), curv.g, conn.gamma, curv.riem,
                         curv.riem13, *values)
    for a in vars(record).values():   # every check reads it: an in-place edit must raise
        if a is not None:
            a.flags.writeable = False
    return record


def default_samples(s, n_points: int = 20, seed: int = 42) -> SampleSet | None:
    """Sampling helper; frame carriers need no samples (sweeps are exhaustive)."""
    if isinstance(s, AlmostContactStructure) and s.is_frame:
        return None
    chart = s.carrier if isinstance(s, AlmostContactStructure) else s.chart
    return sample(chart, n_points, seed)


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


@dataclass(frozen=True)
class BasisRecord:
    """A structure's components in a basis e_1, …, e_d.

    ``phi`` acts on columns. The tables hold vectors as rows:
    ``nabla_xi[i]`` = ∇_{e_i}ξ, ``dphi[i, j]`` = (∇_{e_i}φ)e_j and
    ``r_xi[i, j]`` = R_{e_i e_j}ξ; ``d_eta[i, j]`` = dη(e_i, e_j), without
    the ½. An almost Hermitian record has φ = J, ξ = η = 0 and no
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
    """The exact record of a frame in its own basis. The structure has
    constant components there, so ∇ acts through the connection alone."""
    nab = fg.nabla                   # nab[i, j, k]: E_k part of ∇_Ei Ej
    by_j = nab.transpose(1, 0, 2)
    return BasisRecord(
        g=fg.g, phi=fg.phi, xi=fg.xi, eta=fg.eta,
        nabla_xi=_contract(by_j, fg.xi[None])[..., 0],
        # (∇_Ei φ)E_j = ∇_Ei (φE_j) − φ(∇_Ei E_j)
        dphi=(_contract(by_j, fg.phi.T).transpose(0, 2, 1)
              - _contract(nab.transpose(2, 0, 1), fg.phi)),
        # dη(E_i, E_j) = −η([E_i, E_j])
        d_eta=-_contract(fg.c, fg.eta[None])[..., 0],
        r_xi=_contract(fg.riem13.transpose(2, 0, 1, 3), fg.xi[None])[..., 0])


def _lift(t: np.ndarray, E: np.ndarray, F: np.ndarray) -> np.ndarray:
    """out[a, b] = the vector t(E_a, E_b) in E(p) components, from a
    coordinate table t[k, i, j] whose output index k comes first."""
    return ((t @ E.T).transpose(2, 0, 1) @ E.T).transpose(2, 0, 1) @ F


def _chart_record(s, r: PointRecord, jets: bool = True) -> BasisRecord:
    """The record at a chart point in E(p) from its point record; with
    ``jets``, also the derivative tables, from Γ, R¹³ and the jets of ξ, φ
    and η."""
    E, F = r.E, r.g @ r.E.T                         # F: coordinate vector (row) → E(p) components
    tables = {}
    if jets:
        dxi = eval_field_jets(s.xi, r.point)[1]     # dxi[k, i] = ∂_i ξ^k
        dphi = eval_field_jets(s.phi, r.point)[1]   # dphi[k, j, i] = ∂_i φ^k_j
        deta = eval_field_jets(s.eta, r.point)[1]   # deta[j, i] = ∂_i η_j
        # coordinate components (∇_i ξ)^k and (∇_i φ)^k_j, as [k, i] and [k, i, j]
        nabla_xi = dxi + r.gamma @ r.xi
        nabla_phi = dphi.transpose(0, 2, 1) + r.gamma @ r.phi - np.tensordot(r.phi, r.gamma, 1)
        tables = dict(nabla_xi=E @ nabla_xi.T @ F, dphi=_lift(nabla_phi, E, F),
                      d_eta=E @ (deta.T - deta) @ E.T, r_xi=_lift(r.riem13 @ r.xi, E, F))
    return BasisRecord(g=E @ r.g @ E.T, phi=F.T @ r.phi @ E.T, xi=r.xi @ F, eta=E @ r.eta,
                       **tables)


def _records(s, samples):
    """The point records ``samples`` stands for: itself when it already is a
    list of them, else one per point of the ``SampleSet`` (default: 20
    points), built here. A frame samples nothing, so ``samples`` passes."""
    if isinstance(samples, list) or isinstance(s, AlmostContactStructure) and s.is_frame:
        return samples
    samples = default_samples(s) if samples is None else samples
    return [contact_point_data(s, p) for p in samples.points]


def _basis_records(s, samples, jets: bool = True):
    """One exact record for a frame; one per chart point record otherwise."""
    if isinstance(s, AlmostContactStructure) and s.is_frame:
        return [_frame_record(s.carrier)]
    return (_chart_record(s, r, jets) for r in _records(s, samples))


def _norm(g: np.ndarray, v: np.ndarray) -> float:
    """Largest g-norm in a stack of basis components, exact until the √. The
    clamp absorbs rounding below 0; ``max`` keeps a NaN as its first argument."""
    return math.sqrt(max(float(np.max(((v @ g) * v).sum(axis=-1))), 0.0))


# -- validation ----------------------------------------------------------------


def _algebraic(r: BasisRecord) -> dict:
    # row j of each stack belongs to e_j; column j of phi is φe_j
    eye = np.eye(len(r.g), dtype=r.g.dtype)
    return {
        "eta_xi": abs(r.eta @ r.xi - 1),
        "phi_xi": _norm(r.g, r.phi @ r.xi),
        "eta_phi": np.abs(r.eta @ r.phi).max(),
        "phi_square": _norm(r.g, (r.phi @ r.phi).T + eye - np.outer(r.eta, r.xi)),
        "compatibility": np.abs(r.phi.T @ r.g @ r.phi - r.g
                                + np.outer(r.eta, r.eta)).max(),
    }


def validate(s, samples: Samples = None) -> dict[str, float]:
    """Max residual per algebraic compatibility identity of the structure,
    over the carrier's basis vectors and ordered pairs of them. On a chart it
    reads g, φ, ξ and η (or J) of the point records and differentiates
    nothing."""
    if not isinstance(s, (AlmostContactStructure, AlmostHermitianStructure)):
        raise TypeError(f"cannot validate {type(s).__name__}")
    res = {}
    for r in _basis_records(s, samples, jets=False):
        for k, v in _algebraic(r).items():
            res.setdefault(k, WorstResidual(f"validate.{k}")).add(v)
    res = {k: w.value for k, w in res.items()}
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
    eye = np.eye(len(r.g), dtype=r.g.dtype)
    g_phi = r.g @ r.phi              # g(e_i, φe_j)
    killing = r.nabla_xi @ r.g       # g(∇_{e_i}ξ, e_j)
    # Sasakian target g(e_i, e_j) ξ − η(e_j) e_i
    target = r.g[:, :, None] * r.xi - r.eta[None, :, None] * eye[:, None, :]
    return {
        "contact_metric": np.abs(g_phi - r.d_eta / 2).max(),
        "contact_metric_raw": np.abs(g_phi - r.d_eta).max(),
        "killing_xi": np.abs(killing + killing.T).max(),
        "sasakian_nabla_xi": _norm(r.g, r.nabla_xi + r.phi.T),
        "sasakian_nabla_phi": _norm(r.g, r.dphi - target),
        "parallel_phi": _norm(r.g, r.dphi),
    }


def classify(s: AlmostContactStructure, samples: Samples = None,
             tol: float = 1e-7) -> ClassificationReport:
    """Run the classification battery; deterministic for a given sample set.
    A structure whose compatibility residual exceeds ``tol`` is rejected."""
    target, ric, res = s.dim - 1, None, {}
    compat, ric_dev = WorstResidual("classify.compatibility"), WorstResidual("classify.ric_xi_xi")
    for r in _basis_records(s, samples):
        for v in _algebraic(r).values():
            compat.add(v)
        for k, v in _classification(r).items():
            res.setdefault(k, WorstResidual(f"classify.{k}")).add(v)
        # Ric(ξ, ξ) = Σ_a (R_{e_a ξ}ξ)^a, the same in every basis
        val = np.trace(r.r_xi, axis1=0, axis2=2) @ r.xi
        if ric_dev.add(abs(val - target)):
            ric = val
    if compat.value > tol:
        raise CurvlabError(
            f"structure fails compatibility validation (residual {compat.value:.3e})")
    return ClassificationReport(compatibility=compat.value, ric_xi_xi=ric, ric_xi_xi_target=target,
                                tolerance=tol, **{k: w.value for k, w in res.items()})


# -- nullity condition -----------------------------------------------------------


def check_kappa_mu(s: AlmostContactStructure, kappa: float | Fraction,
                   mu: float | Fraction, samples: Samples = None) -> float:
    """Max residual of R_XY ξ − κ(η(Y)X − η(X)Y) − μ(η(Y)hX − η(X)hY)
    with h = ½ L_ξ φ, over ordered pairs of the carrier's basis vectors:
    exact on frames, in E(p) at each sample point of a chart."""
    ring = Fraction if s.is_frame else float   # frames keep κ and μ exact
    kap, muf = ring(kappa), ring(mu)
    worst = WorstResidual(f"kappa-mu({float(kappa):g},{float(mu):g})")
    for r in _basis_records(s, samples):
        # rows j: h e_j, with (L_ξ φ)X = (∇_ξ φ)X − ∇_{φX} ξ + φ ∇_X ξ
        h = (_contract(r.dphi, r.xi[None])[..., 0]
             - r.phi.T @ r.nabla_xi + r.nabla_xi @ r.phi.T) / 2
        eye = np.eye(s.dim, dtype=r.g.dtype)
        ex_, ey = r.eta[:, None, None], r.eta[None, :, None]   # η(X), η(Y) at (e_i, e_j)
        worst.add(_norm(r.g, r.r_xi - kap * (ey * eye[:, None, :] - ex_ * eye[None, :, :])
                        - muf * (ey * h[:, None, :] - ex_ * h[None, :, :])))
    return worst.value
