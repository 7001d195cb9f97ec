"""Residual checkers for curvature identities.

For almost Hermitian structures the three identities relate the lowered
curvature tensor to its J-composed reslottings (tags k1, k2, k3). For
almost contact metric structures the analogous identities (tags g1, g2, g3)
carry the correction terms produced by demanding the Hermitian identities
on the metric cone, and the one-parameter c(α) family interpolates the
φ-invariance defect. Chart carriers are swept over sampled vector
quadruples; frame carriers are swept exhaustively over all dim⁴ frame
quadruples in exact rational arithmetic, which is what turns verdicts like
"g2 holds, g1 fails" into arithmetic facts.

Residuals are reported raw (not normalized); sample vectors are bounded in
norm by the sampling contract, so absolute tolerances are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .chart import SampleSet
from .frame import FrameGeometry, _contract, _rat
from .structures import (AlmostContactStructure, AlmostHermitianStructure, WorstResidual,
                         contact_point_data, default_samples, hermitian_point_data)

__all__ = [
    "IdentityReport", "Witness",
    "check_hermitian", "check_contact", "check_c_alpha",
    "consequence_suite", "reevaluate_witness", "WorstResidual",
    "CONTACT_KINDS", "HERMITIAN_KINDS",
]

CONTACT_KINDS = ("g1", "g2", "g3")
HERMITIAN_KINDS = ("k1", "k2", "k3")


@dataclass(frozen=True)
class Witness:
    """Argmax location of an identity sweep: the point (None on frames,
    where curvature is position-independent) and the four vectors, given in
    chart coordinates or frame components."""

    point: tuple | None
    vectors: tuple


@dataclass(frozen=True)
class IdentityReport:
    tag: str
    n_points: int
    n_quadruples: int
    residual: float
    exact: Fraction | None
    witness: Witness | None
    tolerance: float

    @property
    def verdict(self) -> bool:
        if self.exact is not None:
            return self.exact == 0
        return self.residual <= self.tolerance


# -- identity defects, generic over the scalar ring ---------------------------
#
# Each defect function takes closures r4 (lowered curvature on four vectors),
# gd (metric pairing), phv (φ or J applied to a vector) and etv (η value) and
# returns LHS − RHS of the identity; works for floats and Fractions alike.


def _defect_k1(r4, gd, phv, etv, X, Y, Z, W):
    return r4(X, Y, Z, W) - r4(X, Y, phv(Z), phv(W))


def _defect_k2(r4, gd, phv, etv, X, Y, Z, W):
    jx, jy, jz, jw = phv(X), phv(Y), phv(Z), phv(W)
    return (r4(X, Y, Z, W) - r4(jx, jy, Z, W) - r4(jx, Y, jz, W)
            - r4(jx, Y, Z, jw))


def _defect_k3(r4, gd, phv, etv, X, Y, Z, W):
    return r4(X, Y, Z, W) - r4(phv(X), phv(Y), phv(Z), phv(W))


def _defect_g1(r4, gd, phv, etv, X, Y, Z, W):
    pz, pw = phv(Z), phv(W)
    lhs = r4(X, Y, pz, pw) - r4(X, Y, Z, W)
    rhs = (gd(Y, pw) * gd(X, pz) - gd(X, pw) * gd(Y, pz)
           + gd(X, W) * gd(Y, Z) - gd(Y, W) * gd(X, Z))
    return lhs - rhs


def _defect_g2(r4, gd, phv, etv, X, Y, Z, W):
    px, py, pz, pw = phv(X), phv(Y), phv(Z), phv(W)
    rhs = (r4(px, Y, Z, pw) + r4(X, py, Z, pw) + r4(X, Y, pz, pw)
           + gd(X, Z) * etv(W) * etv(Y) - gd(Z, Y) * etv(X) * etv(W))
    return r4(X, Y, Z, W) - rhs


def _defect_g3(r4, gd, phv, etv, X, Y, Z, W):
    rhs = (r4(phv(X), phv(Y), phv(Z), phv(W))
           + gd(X, Z) * etv(W) * etv(Y) - gd(Z, Y) * etv(X) * etv(W)
           + gd(Y, W) * etv(X) * etv(Z) - gd(X, W) * etv(Y) * etv(Z))
    return r4(X, Y, Z, W) - rhs


def _defect_c_alpha(alpha):
    # The α-block enters with the sign that makes c(1) coincide term for
    # term with the g1 correction block under the engine-wide lowering
    # convention R(X,Y,Z,W) = −g(R_XY Z, W); sources stating the family
    # with the opposite lowering sign list the block negated.
    def defect(r4, gd, phv, etv, X, Y, Z, W):
        pz, pw = phv(Z), phv(W)
        rhs = r4(X, Y, pz, pw) + alpha * (
            gd(X, Z) * gd(Y, W) - gd(X, W) * gd(Y, Z)
            - gd(X, pz) * gd(Y, pw) + gd(X, pw) * gd(Y, pz))
        return r4(X, Y, Z, W) - rhs
    return defect


_CONTACT_DEFECTS = {"g1": _defect_g1, "g2": _defect_g2, "g3": _defect_g3}
_HERMITIAN_DEFECTS = {"k1": _defect_k1, "k2": _defect_k2, "k3": _defect_k3}


# -- chart and frame sweep drivers ---------------------------------------------


def _chart_closures(data):
    riem, g = data.riem, data.g

    def r4(a, b, c, d):
        return float(np.einsum("ijkl,i,j,k,l", riem, a, b, c, d))

    def gd(a, b):
        return float(a @ g @ b)

    return r4, gd


def _quadruples(vectors: np.ndarray):
    for start in range(0, vectors.shape[0] - 3, 4):
        yield vectors[start], vectors[start + 1], vectors[start + 2], vectors[start + 3]


def _sweep_chart(structure, defect, samples: SampleSet, tol: float, tag: str,
                 point_data: Callable, phv_of, etv_of) -> IdentityReport:
    worst = WorstResidual(tag)
    witness = None
    n_quads = 0
    for p_idx in range(samples.n_points):
        p = samples.points[p_idx]
        data = point_data(p)
        r4, gd = _chart_closures(data)
        phv = phv_of(data)
        etv = etv_of(data)
        for X, Y, Z, W in _quadruples(samples.vectors[p_idx]):
            n_quads += 1
            if worst.add(abs(defect(r4, gd, phv, etv, X, Y, Z, W))):
                witness = Witness(point=tuple(float(x) for x in p),
                                  vectors=tuple(tuple(float(c) for c in v)
                                                for v in (X, Y, Z, W)))
    return IdentityReport(tag=tag, n_points=samples.n_points, n_quadruples=n_quads,
                          residual=worst.value, exact=None, witness=witness, tolerance=tol)


def _frame_closures(fg: FrameGeometry):
    """Exact closures over frame components. Every argument is either a plain
    vector of shape (d,) or a slot batch: shape (d,) on one of four batch
    axes, 1 on the others, then the component axis. Results broadcast over
    the batch axes, so a defect evaluated on the four basis-slot batches is
    its whole d⁴ table."""
    d = fg.dim

    def r4(*vectors):
        t, axes = fg.riem, []
        for v in vectors:   # each step contracts the leading curvature slot
            if v.ndim == 1:
                t = _contract(t, v[None])[..., 0]
            else:
                axes.append(int(np.argmax(v.shape[:-1])))
                t = _contract(t, v.reshape(-1, d))
        if not axes:
            return t[()]
        shape = [1] * 4
        for a in axes:
            shape[a] = d
        return t.transpose(np.argsort(axes, kind="stable")).reshape(shape)

    def gd(a, b):
        return ((a @ fg.g) * b).sum(axis=-1)

    return r4, gd, (lambda v: v @ fg.phi.T), (lambda v: v @ fg.eta)


def _sweep_frame(fg: FrameGeometry, defect, rows: np.ndarray, tol: float,
                 tag: str) -> IdentityReport:
    """Evaluate ``defect`` once on the d⁴ quadruples of ``rows`` (slot
    a = rows on batch axis a). The C-order argmax of |defect| is the first
    strict maximum of ``product(range(d), repeat=4)``."""
    d = fg.dim
    slots = [rows.reshape([d if b == a else 1 for b in range(4)] + [d]) for a in range(4)]
    val = np.abs(np.broadcast_to(defect(*_frame_closures(fg), *slots), (d,) * 4))
    idx = np.unravel_index(np.argmax(val), val.shape)
    worst = val[idx]
    return IdentityReport(tag=tag, n_points=1, n_quadruples=d**4,
                          residual=float(worst), exact=worst,
                          witness=Witness(point=None,
                                          vectors=tuple(tuple(rows[i]) for i in idx)),
                          tolerance=tol)


# -- public checkers -------------------------------------------------------------


def check_hermitian(h: AlmostHermitianStructure, kind: str,
                    samples: SampleSet | None = None, tol: float = 1e-7) -> IdentityReport:
    """Max residual of the Hermitian identity ``kind`` over sampled quadruples."""
    kind = kind.lower()
    if kind not in _HERMITIAN_DEFECTS:
        raise ValueError(f"unknown hermitian identity {kind!r}")
    if samples is None:
        samples = default_samples(h)

    def point_data(p):
        curv, J = hermitian_point_data(h, p)

        class _D:
            riem = curv.riem
            g = curv.g
            Jm = J
        return _D

    return _sweep_chart(h, _HERMITIAN_DEFECTS[kind], samples, tol, kind,
                        point_data, lambda d: (lambda v: d.Jm @ v),
                        lambda d: (lambda v: 0.0))


def check_contact(s: AlmostContactStructure, kind: str,
                  samples: SampleSet | None = None, tol: float = 1e-7) -> IdentityReport:
    """Max residual of the contact identity ``kind``.

    Frame carriers are swept exhaustively and exactly; the report then
    carries the residual as a Fraction in ``exact``.
    """
    kind = kind.lower()
    if kind not in _CONTACT_DEFECTS:
        raise ValueError(f"unknown contact identity {kind!r}")
    defect = _CONTACT_DEFECTS[kind]
    if s.is_frame:
        return _sweep_frame(s.carrier, defect, np.eye(s.dim, dtype=object), tol, kind)
    if samples is None:
        samples = default_samples(s)
    return _sweep_chart(
        s, defect, samples, tol, kind,
        lambda p: contact_point_data(s, p),
        lambda d: (lambda v: d.phi @ v),
        lambda d: (lambda v: float(d.eta @ v)))


def check_c_alpha(s: AlmostContactStructure, alpha: float | Fraction,
                  samples: SampleSet | None = None, tol: float = 1e-7) -> IdentityReport:
    """Residual of the c(α) curvature identity at a fixed α. Frame carriers
    take α exactly, so pass a Fraction (or int) for an exact residual."""
    tag = f"c({float(alpha):g})"
    if s.is_frame:
        return _sweep_frame(s.carrier, _defect_c_alpha(Fraction(alpha)),
                            np.eye(s.dim, dtype=object), tol, tag)
    if samples is None:
        samples = default_samples(s)
    return _sweep_chart(
        s, _defect_c_alpha(float(alpha)), samples, tol, tag,
        lambda p: contact_point_data(s, p),
        lambda d: (lambda v: d.phi @ v),
        lambda d: (lambda v: float(d.eta @ v)))


# -- ξ-slot consequence suites ----------------------------------------------------

# Residual rows per identity kind, evaluated with vectors orthogonalized
# against ξ. Every kind shares the two ξ-slot rows; the restricted row is the
# identity with its η-terms dropped, valid on the orthogonal complement.


def _consequence_rows(kind: str):
    def xi_slot_g(r4, gd, phv, etv, xi, Y, W):
        return r4(xi, Y, xi, W) - gd(Y, W)

    def xi_slot_zero(r4, gd, phv, etv, xi, Y, Z, W):
        return r4(xi, Y, Z, W)

    rows = {"xi_slot_g": xi_slot_g, "xi_slot_zero": xi_slot_zero}
    if kind == "g1":
        def xi_slot_phi_zero(r4, gd, phv, etv, xi, Y, Z, W):
            return r4(xi, Y, phv(Z), phv(W))

        def restricted(r4, gd, phv, etv, X, Y, Z, W):
            pz, pw = phv(Z), phv(W)
            lhs = r4(X, Y, Z, W) - gd(Y, W) * gd(X, Z) + gd(X, W) * gd(Y, Z)
            rhs = r4(X, Y, pz, pw) - gd(Y, pw) * gd(X, pz) + gd(X, pw) * gd(Y, pz)
            return lhs - rhs

        rows["xi_slot_phi_zero"] = xi_slot_phi_zero
    elif kind == "g2":
        def restricted(r4, gd, phv, etv, X, Y, Z, W):
            px, py, pz, pw = phv(X), phv(Y), phv(Z), phv(W)
            return r4(X, Y, Z, W) - (r4(px, Y, Z, pw) + r4(X, py, Z, pw)
                                     + r4(X, Y, pz, pw))
    elif kind == "g3":
        def restricted(r4, gd, phv, etv, X, Y, Z, W):
            return r4(X, Y, Z, W) - r4(phv(X), phv(Y), phv(Z), phv(W))
    else:
        raise ValueError(f"unknown contact identity {kind!r}")
    rows["restricted"] = restricted
    return rows


def _as_quadruple(name: str, row, xi):
    """Consequence row ``name`` as a defect of (X, Y, Z, W); the ξ-slot rows
    put ξ into the slots they do not sweep."""
    if name == "xi_slot_g":
        return lambda r4, gd, phv, etv, X, Y, Z, W: row(r4, gd, phv, etv, xi, Y, W)
    if name in ("xi_slot_zero", "xi_slot_phi_zero"):
        return lambda r4, gd, phv, etv, X, Y, Z, W: row(r4, gd, phv, etv, xi, Y, Z, W)
    return row


def consequence_suite(s: AlmostContactStructure, kind: str,
                      samples: SampleSet | None = None,
                      tol: float = 1e-7) -> dict[str, IdentityReport]:
    """ξ-slot consequences of the identity ``kind`` on vectors ⊥ ξ."""
    kind = kind.lower()
    rows = _consequence_rows(kind)
    if s.is_frame:
        fg = s.carrier
        # the basis orthogonalized against ξ (compatible metric: g(X, ξ) = η(X))
        perp = np.eye(fg.dim, dtype=object) - np.outer(fg.eta, fg.xi)
        return {name: _sweep_frame(fg, _as_quadruple(name, row, fg.xi), perp, tol,
                                   f"{kind}.{name}")
                for name, row in rows.items()}
    if samples is None:
        samples = default_samples(s)
    worst = {name: WorstResidual(f"{kind}.{name}") for name in rows}
    witness = dict.fromkeys(rows)
    n_quads = 0
    for p_idx in range(samples.n_points):
        p = samples.points[p_idx]
        data = contact_point_data(s, p)
        r4, gd = _chart_closures(data)
        phv = lambda v: data.phi @ v
        etv = lambda v: float(data.eta @ v)
        defects = {name: _as_quadruple(name, row, data.xi) for name, row in rows.items()}
        for X, Y, Z, W in _quadruples(samples.vectors[p_idx]):
            vecs = [v - float(data.eta @ v) * data.xi for v in (X, Y, Z, W)]
            n_quads += 1
            for name, defect in defects.items():
                if worst[name].add(abs(defect(r4, gd, phv, etv, *vecs))):
                    witness[name] = Witness(point=tuple(float(x) for x in p),
                                            vectors=tuple(tuple(float(c) for c in v)
                                                          for v in vecs))
    return {name: IdentityReport(tag=f"{kind}.{name}", n_points=samples.n_points,
                                 n_quadruples=n_quads, residual=worst[name].value, exact=None,
                                 witness=witness[name], tolerance=tol)
            for name in rows}


def reevaluate_witness(s, kind: str, witness: Witness, alpha=None) -> float | Fraction:
    """Recompute an identity defect at a recorded witness.

    Returns the exact Fraction on frame carriers, a float on charts; used to
    verify that reported residuals are reproducible.
    """
    kind = kind.lower()
    if kind in _HERMITIAN_DEFECTS:
        defect = _HERMITIAN_DEFECTS[kind]
        curv, J = hermitian_point_data(s, witness.point)
        riem, g = curv.riem, curv.g

        def r4(a, b, c, d):
            return float(np.einsum("ijkl,i,j,k,l", riem, a, b, c, d))

        vecs = [np.asarray(v, dtype=float) for v in witness.vectors]
        return abs(defect(r4, lambda a, b: float(a @ g @ b), lambda v: J @ v,
                          lambda v: 0.0, *vecs))
    if kind in _CONTACT_DEFECTS or alpha is not None:
        defect = _defect_c_alpha(alpha) if alpha is not None else _CONTACT_DEFECTS[kind]
        if isinstance(s, AlmostContactStructure) and s.is_frame:
            fg = s.carrier
            if alpha is not None:
                defect = _defect_c_alpha(Fraction(alpha))
            return abs(defect(*_frame_closures(fg), *map(_rat, witness.vectors)))
        data = contact_point_data(s, witness.point)
        r4, gd = _chart_closures(data)
        vecs = [np.asarray(v, dtype=float) for v in witness.vectors]
        return abs(defect(r4, gd, lambda v: data.phi @ v,
                          lambda v: float(data.eta @ v), *vecs))
    raise ValueError(f"unknown identity {kind!r}")
