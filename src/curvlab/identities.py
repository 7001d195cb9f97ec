"""Residual checkers for curvature identities.

For almost Hermitian structures the three identities relate the lowered
curvature tensor to its J-composed reslottings (tags k1, k2, k3). For
almost contact metric structures the analogous identities (tags g1, g2, g3)
carry the correction terms produced by demanding the Hermitian identities
on the metric cone, and the one-parameter c(α) family interpolates the
φ-invariance defect.

Each defect is written once, over closures (curvature on four vectors,
metric pairing, φ or J, η), and one sweep evaluates it on both carriers,
exhaustively over all dim⁴ quadruples of an orthonormal basis and all
points at once. A frame carrier is one point in its own basis, in exact
rational arithmetic, which is what turns verdicts like "g2 holds, g1
fails" into arithmetic facts. A chart carrier is swept over the
orthonormal frames E(p) of the one stacked point record that every check
of an invocation shares. The consequence rows use the same sweep on
vectors projected to v − η(v)ξ.

Every defect is 4-linear, so a residual is the largest entry of the defect
tensor in an orthonormal basis: no direction is missed, and absolute
tolerances are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .frame import _contract, _rat
from .structures import (AlmostContactStructure, AlmostHermitianStructure, PointRecord,
                         _checked, contact_point_data)

__all__ = [
    "IdentityReport", "Witness",
    "check_hermitian", "check_contact", "check_c_alpha",
    "consequence_suite", "reevaluate_witness",
    "CONTACT_KINDS", "HERMITIAN_KINDS",
]

CONTACT_KINDS = ("g1", "g2", "g3")
HERMITIAN_KINDS = ("k1", "k2", "k3")


@dataclass(frozen=True)
class Witness:
    """Argmax location of an identity sweep: the point (None on frames,
    where curvature is position-independent) and the four swept vectors:
    rows of E(p) in chart coordinates (projected to v − η(v)ξ for
    consequence rows), or basis vectors in frame components."""

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


# -- one sweep for both carriers -----------------------------------------------
#
# A sweep puts the rows of each point's orthonormal basis on four slot axes
# after the point axis, so a defect is one (N, d, d, d, d) table: a frame is
# one point in its own basis, a chart its N sample points in E(p). The
# witness is the first strict maximum of |defect| in C order over (point,
# quadruple).


def _slot_axes(basis: np.ndarray) -> list[np.ndarray]:
    """The rows of ``basis`` (N × n × d) on four slot axes: slot a holds
    them on batch axis a after the point axis, so a defect of the four
    slots is its (N, n, n, n, n) table."""
    N, n, d = basis.shape
    return [basis.reshape([N] + [n if b == a else 1 for b in range(4)] + [d]) for a in range(4)]


def _closures(riem, g, phi, eta):
    """The defects' r4, gd, phv and etv over slot batches at N points.

    The tensors carry a leading point axis N; a slot batch has shape (N,
    s0, s1, s2, s3, d), rows on one slot axis and 1 on the others, and
    results broadcast over the point and slot axes. r4 contracts one
    curvature slot per argument: by one stacked matmul on floats, through
    the zero-skipping ``_contract`` on an exact frame's one slice.
    """
    N, d = g.shape[:2]
    g, phi, eta = (a.reshape(N, 1, 1, 1, 1, d, -1) for a in (g, phi, eta))
    if riem.dtype == object:
        def contract(t, rows):
            return _contract(t[0], rows[0])[None]
    else:
        def contract(t, rows):
            return (t.reshape(N, d, -1).transpose(0, 2, 1) @ rows.transpose(0, 2, 1)).reshape(
                t.shape[:1] + t.shape[2:] + rows.shape[1:2])

    def r4(*vectors):
        t, axes = riem, []
        for v in vectors:   # each step contracts the leading curvature slot
            axes.append(int(np.argmax(v.shape[1:-1])))
            t = contract(t, v.reshape(N, -1, d))
        t = t.transpose(0, *(1 + np.argsort(axes, kind="stable")))
        shape = [N, 1, 1, 1, 1]
        for a, n in zip(sorted(axes), t.shape[1:]):
            shape[1 + a] *= n
        return t.reshape(shape)

    def gd(a, b):
        return ((a[..., None, :] @ g) @ b[..., :, None])[..., 0, 0]

    def phv(v):
        return (phi @ v[..., None])[..., 0]

    def etv(v):
        return (v[..., None, :] @ eta)[..., 0, 0]

    return r4, gd, phv, etv


def _xi_slot(t: PointRecord) -> np.ndarray:
    """ξ of the record as a slot batch: on no slot axis."""
    return t.xi.reshape(len(t.xi), 1, 1, 1, 1, -1)


def _sweep(rows: dict, t: PointRecord, tol: float,
           perp: bool = False) -> dict[str, IdentityReport]:
    """One report per ``rows`` entry (tag → defect) over the bases of the
    record ``t``, with every swept vector v replaced by v − η(v)ξ when
    ``perp``. Exact (object) tables give exact residuals."""
    closures = r4, gd, phv, etv = _closures(t.riem, t.g, t.phi, t.eta)
    slots = _slot_axes(t.E)
    if perp:
        xi = _xi_slot(t)
        slots = [v - etv(v)[..., None] * xi for v in slots]
    shape = t.E.shape[:2] + t.E.shape[1:2] * 3
    reports = {}
    for tag, defect in rows.items():
        vals = np.abs(np.broadcast_to(defect(*closures, *slots), shape))
        idx = np.unravel_index(np.argmax(vals), shape)
        residual = _checked(tag, vals[idx])
        witness = Witness(None if t.point is None else tuple(t.point[idx[0]].tolist()),
                          tuple(tuple(v[idx[0]].reshape(-1, v.shape[-1])[i].tolist())
                                for v, i in zip(slots, idx[1:])))
        reports[tag] = IdentityReport(
            tag=tag, n_points=shape[0], n_quadruples=vals.size, residual=residual,
            exact=vals[idx] if vals.dtype == object else None, witness=witness, tolerance=tol)
    return reports


# -- public checkers -------------------------------------------------------------


def check_hermitian(h: AlmostHermitianStructure, kind: str,
                    rec: PointRecord, tol: float = 1e-7) -> IdentityReport:
    """Max residual of the Hermitian identity ``kind`` over the quadruples of
    E(p) at the points of ``rec``, the point record of ``h``."""
    kind = kind.lower()
    if kind not in _HERMITIAN_DEFECTS:
        raise ValueError(f"unknown hermitian identity {kind!r}")
    return _sweep({kind: _HERMITIAN_DEFECTS[kind]}, rec, tol)[kind]


def check_contact(s: AlmostContactStructure, kind: str,
                  rec: PointRecord, tol: float = 1e-7) -> IdentityReport:
    """Max residual of the contact identity ``kind`` over the bases of
    ``rec``, the point record of ``s``.

    Frame carriers are swept exactly; the report then carries the residual
    as a Fraction in ``exact``.
    """
    kind = kind.lower()
    if kind not in _CONTACT_DEFECTS:
        raise ValueError(f"unknown contact identity {kind!r}")
    return _sweep({kind: _CONTACT_DEFECTS[kind]}, rec, tol)[kind]


def _c_alpha_defect(s: AlmostContactStructure, alpha):
    # frames keep α exact; on charts a Fraction would turn the sweep into objects
    return _defect_c_alpha(Fraction(alpha) if s.is_frame else float(alpha))


def check_c_alpha(s: AlmostContactStructure, alpha: float | Fraction,
                  rec: PointRecord, tol: float = 1e-7) -> IdentityReport:
    """Residual of the c(α) curvature identity at a fixed α over the bases
    of ``rec``. Frame carriers take α exactly, so pass a Fraction (or int)
    for an exact residual."""
    tag = f"c({float(alpha):g})"
    return _sweep({tag: _c_alpha_defect(s, alpha)}, rec, tol)[tag]


# -- ξ-slot consequence suites ----------------------------------------------------

# Residual rows per identity kind, evaluated with vectors orthogonalized
# against ξ. Every kind shares the two ξ-slot rows; the restricted row is the
# identity with its η-terms dropped, valid on the orthogonal complement.


def _consequence_rows(kind: str, xi):
    """The rows of ``kind`` as defects of (X, Y, Z, W); the ξ-slot rows put
    ``xi``, a slot batch, into the slots they do not sweep."""
    def xi_slot_g(r4, gd, phv, etv, X, Y, Z, W):
        return r4(xi, Y, xi, W) - gd(Y, W)

    def xi_slot_zero(r4, gd, phv, etv, X, Y, Z, W):
        return r4(xi, Y, Z, W)

    rows = {"xi_slot_g": xi_slot_g, "xi_slot_zero": xi_slot_zero}
    if kind == "g1":
        def xi_slot_phi_zero(r4, gd, phv, etv, X, Y, Z, W):
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


def consequence_suite(s: AlmostContactStructure, kind: str, rec: PointRecord,
                      tol: float = 1e-7) -> dict[str, IdentityReport]:
    """ξ-slot consequences of the identity ``kind`` on vectors ⊥ ξ, over the
    bases of ``rec``, the point record of ``s``."""
    kind = kind.lower()
    rows = _consequence_rows(kind, _xi_slot(rec))
    reports = _sweep({f"{kind}.{name}": row for name, row in rows.items()}, rec, tol, perp=True)
    return dict(zip(rows, reports.values()))


def reevaluate_witness(s, kind: str, witness: Witness, alpha=None) -> float | Fraction:
    """Recompute an identity defect at a recorded witness, as a sweep of one
    point, to verify that reported residuals are reproducible.

    On frame carriers the four witness vectors fill the slots and the
    defect is an exact Fraction. On charts the record at the witness point
    is rebuilt and the table evaluated in the sweep's layout, so the entry
    whose slot rows are the witness vectors is rounded as the sweep rounded
    it; a vector that is no row of E(p) raises ValueError.
    """
    kind = kind.lower()
    if kind in _HERMITIAN_DEFECTS:
        defect = _HERMITIAN_DEFECTS[kind]
    elif alpha is not None:
        defect = _c_alpha_defect(s, alpha)
    elif kind in _CONTACT_DEFECTS:
        defect = _CONTACT_DEFECTS[kind]
    else:
        raise ValueError(f"unknown identity {kind!r}")
    frame = isinstance(s, AlmostContactStructure) and s.is_frame
    if frame:   # the witness vectors fill the slots
        t, idx = contact_point_data(s), (0,) * 5
        slots = [_rat(v).reshape(1, 1, 1, 1, 1, -1) for v in witness.vectors]
    else:       # the entry whose slot rows are the witness vectors
        t = contact_point_data(s, [witness.point])
        rows, slots = t.E[0].tolist(), _slot_axes(t.E)
        idx = (0,) + tuple(rows.index(list(v)) for v in witness.vectors)
    val = np.broadcast_to(defect(*_closures(t.riem, t.g, t.phi, t.eta), *slots),
                          t.E.shape[:2] + t.E.shape[1:2] * 3)[idx]
    return abs(val) if frame else abs(float(val))
