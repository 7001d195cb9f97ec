"""Residual checkers for curvature identities.

For almost Hermitian structures the three identities relate the lowered
curvature tensor to its J-composed reslottings (tags k1, k2, k3). For
almost contact metric structures the analogous identities (tags g1, g2, g3)
carry the correction terms produced by demanding the Hermitian identities
on the metric cone, and the one-parameter c(α) family interpolates the
φ-invariance defect.

Each defect is written once, over closures (curvature on four vectors,
metric pairing, φ or J, η), and one sweep evaluates it on both carriers,
exhaustively, over all dim⁴ quadruples of an orthonormal basis. A frame
carrier is swept once over its own basis in exact rational arithmetic,
which is what turns verdicts like "g2 holds, g1 fails" into arithmetic
facts. A chart carrier is swept at each sample point over the orthonormal
frame E(p) of the point records that every check of one invocation
shares. The consequence rows use the same sweep on vectors projected to
v − η(v)ξ.

Every defect is 4-linear, so a residual is the largest entry of the defect
tensor in an orthonormal basis: no direction is missed, and absolute
tolerances are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .frame import _contract, _rat
from .structures import (AlmostContactStructure, AlmostHermitianStructure, Samples,
                         WorstResidual, _records, contact_point_data)

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
# Every swept record puts the rows of an orthonormal basis on four slot axes,
# so a defect is its d⁴ table: a frame is one record in its own basis with no
# point, a chart one record per sample point in E(p). R, g, φ (or J), η and ξ
# come from the frame or the point record. The witness is the first strict
# maximum of |defect| in C order over (point, quadruple).


def _slot_axes(basis: np.ndarray) -> list[np.ndarray]:
    """The rows of ``basis`` (n × d) on four slot axes: slot a holds them on
    batch axis a, so a defect of the four slots is its n⁴ table."""
    n, d = basis.shape
    return [basis.reshape([n if b == a else 1 for b in range(4)] + [d]) for a in range(4)]


def _swept(s, samples: Samples) -> list:
    """(point, basis rows, tensors) of each record a sweep visits."""
    if isinstance(s, AlmostContactStructure) and s.is_frame:
        return [(None, np.eye(s.dim, dtype=object), s.carrier)]
    return [(tuple(r.point.tolist()), r.E, r) for r in _records(s, samples)]


def _closures(riem, g, phi, eta):
    """The defects' r4, gd, phv and etv over vector batches of shape (..., d).

    Each r4 argument is a plain vector of shape (d,) or a slot batch (rows on
    one of four batch axes, 1 on the others, any row count), and the result
    broadcasts over the batch axes. r4 contracts one curvature slot per
    argument: through the zero-skipping ``_contract`` on exact (object)
    curvature, by one matmul on floats.
    """
    d = len(g)
    if riem.dtype == object:
        contract = _contract
    else:
        def contract(t, rows):
            return (t.reshape(d, -1).T @ rows.T).reshape(t.shape[1:] + (len(rows),))

    def r4(*vectors):
        t, axes = riem, []
        for v in vectors:   # each step contracts the leading curvature slot
            if v.ndim == 1:
                t = contract(t, v[None])[..., 0]
            else:
                axes.append(int(np.argmax(v.shape[:-1])))
                t = contract(t, v.reshape(-1, d))
        if not axes:
            return t[()]
        t = t.transpose(np.argsort(axes, kind="stable"))
        shape = [1] * 4
        for a, n in zip(sorted(axes), t.shape):
            shape[a] = n
        return t.reshape(shape)

    def gd(a, b):
        return ((a[..., None, :] @ g) @ b[..., :, None])[..., 0, 0]

    def phv(v):
        return (phi @ v[..., None])[..., 0]

    def etv(v):
        return (v[..., None, :] @ eta)[..., 0]

    return r4, gd, phv, etv


def _sweep(s, rows: dict, samples: Samples, tol: float,
           perp: bool = False) -> dict[str, IdentityReport]:
    """One report per ``rows`` entry (tag → function of ξ giving the defect),
    with every swept vector v replaced by v − η(v)ξ when ``perp``. Exact
    (object) tables give exact residuals."""
    worst = {tag: WorstResidual(tag) for tag in rows}
    exact, witness = dict.fromkeys(rows), dict.fromkeys(rows)
    n_points = n_quads = 0
    for p, basis, t in _swept(s, samples):
        closures = r4, gd, phv, etv = _closures(t.riem, t.g, t.phi, t.eta)
        slots = _slot_axes(basis)
        if perp:
            slots = [v - etv(v)[..., None] * t.xi for v in slots]
        shape = (len(basis),) * 4
        n_points += 1
        n_quads += len(basis) ** 4
        for tag, defect_at in rows.items():
            vals = np.abs(np.broadcast_to(defect_at(t.xi)(*closures, *slots), shape))
            idx = np.unravel_index(np.argmax(vals), shape)
            if worst[tag].add(vals[idx]):
                exact[tag] = vals[idx] if vals.dtype == object else None
                witness[tag] = Witness(p, tuple(tuple(v.reshape(-1, v.shape[-1])[i].tolist())
                                                for v, i in zip(slots, idx)))
    return {tag: IdentityReport(tag=tag, n_points=n_points, n_quadruples=n_quads,
                                residual=w.value, exact=exact[tag], witness=witness[tag],
                                tolerance=tol)
            for tag, w in worst.items()}


# -- public checkers -------------------------------------------------------------


def check_hermitian(h: AlmostHermitianStructure, kind: str,
                    samples: Samples = None, tol: float = 1e-7) -> IdentityReport:
    """Max residual of the Hermitian identity ``kind`` over the quadruples of
    E(p) at the sample points."""
    kind = kind.lower()
    if kind not in _HERMITIAN_DEFECTS:
        raise ValueError(f"unknown hermitian identity {kind!r}")
    defect = _HERMITIAN_DEFECTS[kind]
    return _sweep(h, {kind: lambda xi: defect}, samples, tol)[kind]


def check_contact(s: AlmostContactStructure, kind: str,
                  samples: Samples = None, tol: float = 1e-7) -> IdentityReport:
    """Max residual of the contact identity ``kind``.

    Frame carriers are swept exactly; the report then carries the residual
    as a Fraction in ``exact``.
    """
    kind = kind.lower()
    if kind not in _CONTACT_DEFECTS:
        raise ValueError(f"unknown contact identity {kind!r}")
    defect = _CONTACT_DEFECTS[kind]
    return _sweep(s, {kind: lambda xi: defect}, samples, tol)[kind]


def _c_alpha_defect(s: AlmostContactStructure, alpha):
    # frames keep α exact; on charts a Fraction would turn the sweep into objects
    return _defect_c_alpha(Fraction(alpha) if s.is_frame else float(alpha))


def check_c_alpha(s: AlmostContactStructure, alpha: float | Fraction,
                  samples: Samples = None, tol: float = 1e-7) -> IdentityReport:
    """Residual of the c(α) curvature identity at a fixed α. Frame carriers
    take α exactly, so pass a Fraction (or int) for an exact residual."""
    tag = f"c({float(alpha):g})"
    defect = _c_alpha_defect(s, alpha)
    return _sweep(s, {tag: lambda xi: defect}, samples, tol)[tag]


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
                      samples: Samples = None,
                      tol: float = 1e-7) -> dict[str, IdentityReport]:
    """ξ-slot consequences of the identity ``kind`` on vectors ⊥ ξ."""
    kind = kind.lower()
    rows = _consequence_rows(kind)
    reports = _sweep(s, {f"{kind}.{name}": partial(_as_quadruple, name, row)
                         for name, row in rows.items()}, samples, tol, perp=True)
    return dict(zip(rows, reports.values()))


def reevaluate_witness(s, kind: str, witness: Witness, alpha=None) -> float | Fraction:
    """Recompute an identity defect at a recorded witness, to verify that
    reported residuals are reproducible.

    On frame carriers the defect of the four witness vectors is returned as
    an exact Fraction. On charts the record at the witness point is rebuilt
    and the defect table evaluated in the sweep's own layout, so the float
    read from the entry whose slot rows are the witness vectors is rounded
    as the sweep rounded it; a vector that is no row of E(p) raises
    ValueError.
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
    if isinstance(s, AlmostContactStructure) and s.is_frame:
        fg = s.carrier
        return abs(defect(*_closures(fg.riem, fg.g, fg.phi, fg.eta),
                          *(_rat(v) for v in witness.vectors)))
    t = contact_point_data(s, witness.point)
    rows = t.E.tolist()
    idx = tuple(rows.index(list(v)) for v in witness.vectors)
    vals = defect(*_closures(t.riem, t.g, t.phi, t.eta), *_slot_axes(t.E))
    return abs(float(np.broadcast_to(vals, (len(rows),) * 4)[idx]))
