"""Residual checkers for curvature identities.

For almost Hermitian structures the three identities relate the lowered
curvature tensor to its J-composed reslottings (tags k1, k2, k3). For
almost contact metric structures the analogous identities (tags g1, g2, g3)
carry the correction terms produced by demanding the Hermitian identities
on the metric cone, and the one-parameter c(α) family interpolates the
φ-invariance defect.

Each defect is written once, over closures (curvature on four vectors,
metric pairing, η) that take slot names: x, y, z and w for the swept rows,
"p" + a name for φ (or J) of that row, xi for ξ. One sweep evaluates it on
both carriers, exhaustively over all dim⁴ quadruples of an orthonormal
basis and all points at once. A frame carrier is one point in its own
basis, in exact rational arithmetic, which is what turns verdicts like "g2
holds, g1 fails" into arithmetic facts. A chart carrier is swept over the
orthonormal frames E(p) of the one stacked point record that every check
of an invocation shares. The consequence rows use the same sweep with x,
y, z and w bound to the rows projected to v − η(v)ξ.

``sweep`` takes every identity check of an invocation and reads the point
record alone: the plain rows are one sweep and the consequence rows of all
three kinds one more. Each sweep has its own closures, which compute each
value once per tuple of names and keep it until the sweep ends, so a term
that several rows share (such as R(X, Y, φZ, φW) in g1, g2 and c(α)) is
contracted once.

Every defect is 4-linear, so a residual is the largest entry of the defect
tensor in an orthonormal basis: no direction is missed, and absolute
tolerances are meaningful.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import geometry
from .frame import _contract
from .structures import (AlmostContactStructure, AlmostHermitianStructure, PointRecord,
                         contact_point_data)

__all__ = [
    "IdentityReport", "Witness", "sweep", "reevaluate_witness",
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
    """The largest |defect| of a sweep, ``value``: a float on charts, exact
    on an exact record. ``residual`` converts it when read, so a value past
    the float range raises OverflowError where the row is emitted."""

    tag: str
    n_points: int
    n_quadruples: int
    value: float | Fraction
    witness: Witness | None
    tolerance: float

    @property
    def exact(self) -> Fraction | None:
        return None if isinstance(self.value, float) else self.value

    @property
    def residual(self) -> float:
        return float(self.value)

    @property
    def verdict(self) -> bool:
        if self.exact is not None:
            return self.exact == 0
        return self.residual <= self.tolerance


# -- identity defects, generic over the scalar ring ---------------------------
#
# Each defect takes closures r4 (lowered curvature on four slots), gd
# (metric pairing of two) and etv (η of one) over slot names and returns
# LHS − RHS of the identity; works for floats and Fractions alike. The
# names: x, y, z and w are the swept rows, "p" + a name is φ (or J) of that
# batch, and xi is ξ on no slot axis.


def _defect_k1(r4, gd, etv):
    return r4("x", "y", "z", "w") - r4("x", "y", "pz", "pw")


def _defect_k2(r4, gd, etv):
    return (r4("x", "y", "z", "w") - r4("px", "py", "z", "w") - r4("px", "y", "pz", "w")
            - r4("px", "y", "z", "pw"))


def _defect_k3(r4, gd, etv):
    return r4("x", "y", "z", "w") - r4("px", "py", "pz", "pw")


def _defect_g1(r4, gd, etv):
    lhs = r4("x", "y", "pz", "pw") - r4("x", "y", "z", "w")
    rhs = (gd("y", "pw") * gd("x", "pz") - gd("x", "pw") * gd("y", "pz")
           + gd("x", "w") * gd("y", "z") - gd("y", "w") * gd("x", "z"))
    return lhs - rhs


def _defect_g2(r4, gd, etv):
    rhs = (r4("px", "y", "z", "pw") + r4("x", "py", "z", "pw") + r4("x", "y", "pz", "pw")
           + gd("x", "z") * etv("w") * etv("y") - gd("z", "y") * etv("x") * etv("w"))
    return r4("x", "y", "z", "w") - rhs


def _defect_g3(r4, gd, etv):
    rhs = (r4("px", "py", "pz", "pw")
           + gd("x", "z") * etv("w") * etv("y") - gd("z", "y") * etv("x") * etv("w")
           + gd("y", "w") * etv("x") * etv("z") - gd("x", "w") * etv("y") * etv("z"))
    return r4("x", "y", "z", "w") - rhs


def _defect_c_alpha(alpha):
    # The α-block enters with the sign that makes c(1) coincide term for
    # term with the g1 correction block under the engine-wide lowering
    # convention R(X,Y,Z,W) = −g(R_XY Z, W); sources stating the family
    # with the opposite lowering sign list the block negated.
    def defect(r4, gd, etv):
        rhs = r4("x", "y", "pz", "pw") + alpha * (
            gd("x", "z") * gd("y", "w") - gd("x", "w") * gd("y", "z")
            - gd("x", "pz") * gd("y", "pw") + gd("x", "pw") * gd("y", "pz"))
        return r4("x", "y", "z", "w") - rhs
    return defect


_CONTACT_DEFECTS = {"g1": _defect_g1, "g2": _defect_g2, "g3": _defect_g3}
_HERMITIAN_DEFECTS = {"k1": _defect_k1, "k2": _defect_k2, "k3": _defect_k3}


# -- ξ-slot consequence rows ------------------------------------------------------
#
# Residual rows per identity kind, swept over vectors orthogonalized against
# ξ. Every kind shares the two ξ-slot rows; the restricted row is the
# identity with its η-terms dropped, valid on the orthogonal complement.


def _xi_slot_g(r4, gd, etv):
    return r4("xi", "y", "xi", "w") - gd("y", "w")


def _xi_slot_zero(r4, gd, etv):
    return r4("xi", "y", "z", "w")


def _xi_slot_phi_zero(r4, gd, etv):
    return r4("xi", "y", "pz", "pw")


def _restricted_g1(r4, gd, etv):
    lhs = r4("x", "y", "z", "w") - gd("y", "w") * gd("x", "z") + gd("x", "w") * gd("y", "z")
    rhs = (r4("x", "y", "pz", "pw") - gd("y", "pw") * gd("x", "pz")
           + gd("x", "pw") * gd("y", "pz"))
    return lhs - rhs


def _restricted_g2(r4, gd, etv):
    return r4("x", "y", "z", "w") - (r4("px", "y", "z", "pw") + r4("x", "py", "z", "pw")
                                     + r4("x", "y", "pz", "pw"))


_XI_SLOT_ROWS = {"xi_slot_g": _xi_slot_g, "xi_slot_zero": _xi_slot_zero}
_CONSEQUENCES = {
    "g1": {**_XI_SLOT_ROWS, "xi_slot_phi_zero": _xi_slot_phi_zero, "restricted": _restricted_g1},
    "g2": {**_XI_SLOT_ROWS, "restricted": _restricted_g2},
    "g3": {**_XI_SLOT_ROWS, "restricted": _defect_k3},
}


# -- one sweep for both carriers -----------------------------------------------
#
# A sweep puts the rows of each point's orthonormal basis on four slot axes
# after the point axis, so a defect is one (N, d, d, d, d) table: a frame is
# one point in its own basis, a chart its N sample points in E(p). The
# witness is the first strict maximum of |defect| in C order over (point,
# quadruple).


def _slot_axes(basis: np.ndarray, names: str = "xyzw") -> dict[str, np.ndarray]:
    """The rows of ``basis`` (N × n × d) on four slot axes, by slot name:
    the a-th name holds them on batch axis a after the point axis, so a
    defect of the four slots is its (N, n, n, n, n) table."""
    N, n, d = basis.shape
    return {name: basis.reshape([N] + [n if b == a else 1 for b in range(4)] + [d])
            for a, name in enumerate(names)}


def _kept(fn):
    """``fn`` computing each value once per tuple of names and keeping it
    for the lifetime of the returned function, read-only, since rows share
    it."""
    @functools.cache
    def call(*names):
        out = fn(*names)
        out.flags.writeable = False
        return out
    return call


def _closures(riem, g, phi, eta, slots: dict):
    """The defects' r4, gd and etv over the named slot batches ``slots`` at
    N points, each value computed once per tuple of names.

    The tensors carry a leading point axis N; a slot batch has shape (N,
    s0, s1, s2, s3, d), rows on one slot axis and 1 on the others, and
    results broadcast over the point and slot axes. A name not in
    ``slots`` is "p" + a name in it: φ (or J) of that batch. r4 contracts
    one curvature slot per argument: by one stacked matmul on floats,
    through the zero-skipping ``_contract`` on an exact frame's one slice.
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

    @_kept
    def vec(name):
        return slots[name] if name in slots else (phi @ slots[name[1:]][..., None])[..., 0]

    @_kept
    def r4(*names):
        t, axes = riem, []
        for v in map(vec, names):   # each step contracts the leading curvature slot
            axes.append(int(np.argmax(v.shape[1:-1])))
            t = contract(t, v.reshape(N, -1, d))
        t = t.transpose(0, *(1 + np.argsort(axes, kind="stable")))
        shape = [N, 1, 1, 1, 1]
        for a, n in zip(sorted(axes), t.shape[1:]):
            shape[1 + a] *= n
        return t.reshape(shape)

    @_kept
    def gd(a, b):
        return ((vec(a)[..., None, :] @ g) @ vec(b)[..., :, None])[..., 0, 0]

    @_kept
    def etv(a):
        return (vec(a)[..., None, :] @ eta)[..., 0, 0]

    return r4, gd, etv


def _sweep(rows: dict, t: PointRecord, tol: float, perp: bool = False) -> dict:
    """One report per ``rows`` entry (key → (tag, defect)), under the same
    key, over the bases of the record ``t``; with ``perp``, every swept
    vector v is replaced by v − η(v)ξ and xi names ξ. Exact (object)
    tables give exact residuals. A residual may be non-finite: the caller
    checks it where it emits it."""
    slots = _slot_axes(t.E)
    if perp:
        xi = t.xi.reshape(len(t.xi), 1, 1, 1, 1, -1)   # ξ on no slot axis
        eta = t.eta.reshape(xi.shape[:-1] + (-1, 1))
        slots = {**{name: v - (v[..., None, :] @ eta)[..., 0] * xi
                    for name, v in slots.items()}, "xi": xi}
    closures = _closures(t.riem, t.g, t.phi, t.eta, slots)
    shape = t.E.shape[:2] + t.E.shape[1:2] * 3
    reports = {}
    for key, (tag, defect) in rows.items():
        vals = np.abs(np.broadcast_to(defect(*closures), shape))
        idx = np.unravel_index(np.argmax(vals), shape)
        witness = Witness(None if t.point is None else tuple(t.point[idx[0]].tolist()),
                          tuple(tuple(slots[n][idx[0]].reshape(-1, t.E.shape[-1])[i].tolist())
                                for n, i in zip("xyzw", idx[1:])))
        reports[key] = IdentityReport(tag=tag, n_points=shape[0], n_quadruples=vals.size,
                                      value=vals[idx], witness=witness, tolerance=tol)
    return reports


# -- the sweep entry -------------------------------------------------------------

def _plain_row(name: str, args: tuple, t: PointRecord):
    """The tag and defect of the identity check ``name`` with ``args``."""
    if name == "c_alpha":
        # α stays exact on an exact (object) record; on floats a Fraction
        # would turn the sweep into objects
        alpha = Fraction(args[0]) if t.riem.dtype == object else float(args[0])
        return f"c({float(args[0]):g})", _defect_c_alpha(alpha)
    defects = {**_CONTACT_DEFECTS, **_HERMITIAN_DEFECTS}
    if name not in defects:
        raise ValueError(f"unknown identity {name!r}")
    return name, defects[name]


def sweep(checks, t: PointRecord, tol: float = 1e-7) -> list[list[IdentityReport]]:
    """The reports of each identity check of ``checks``, in order, over the
    bases of the point record ``t``: a check is a pair (name, args), name
    one of CONTACT_KINDS or HERMITIAN_KINDS with no args, ``c_alpha`` with
    (α,), or ``consequences``, whose reports are the ξ-slot rows of g1, g2
    and g3 on vectors ⊥ ξ. A repeated check repeats its reports.

    The plain rows of all checks are one sweep, and the consequence rows one
    more, with one ξ slot batch for all of them. Residuals are not checked
    finite here: an emitted row goes through ``structures._checked``.
    """
    plain, conseq, keys = {}, {}, []
    for name, args in checks:
        if name == "consequences":
            conseq = {f"{kind}.{row}": (f"{kind}.{row}", defect)
                      for kind, rows in _CONSEQUENCES.items() for row, defect in rows.items()}
            keys.append(list(conseq))
        else:
            # keyed by the check itself: distinct α may share a display tag
            plain[name, args] = _plain_row(name, args, t)
            keys.append([(name, args)])
    reports = {}
    if plain:
        reports.update(_sweep(plain, t, tol))
    if conseq:
        reports.update(_sweep(conseq, t, tol, perp=True))
    return [[reports[key] for key in row] for row in keys]


def reevaluate_witness(s, kind: str, witness: Witness, alpha=None) -> float | Fraction:
    """Recompute an identity defect at a recorded witness, as a sweep of one
    point, to verify that reported residuals are reproducible.

    The record is the frame's own, or a chart's rebuilt at the witness
    point; the table is evaluated in the sweep's layout and the entry read
    whose slot rows are the witness vectors, so it is exact on a frame and
    rounded as the sweep rounded it on a chart. A vector that is no row of
    the basis (E(p), or I on a frame) raises ValueError.
    """
    if isinstance(s, AlmostContactStructure) and s.is_frame:
        t = contact_point_data(s)
    else:
        chart = s.chart if isinstance(s, AlmostHermitianStructure) else s.carrier
        t = contact_point_data(s, geometry.metric_jets(chart, [witness.point]))
    rows = t.E[0].tolist()
    idx = (0,) + tuple(rows.index(list(v)) for v in witness.vectors)
    _, defect = _plain_row(kind.lower() if alpha is None else "c_alpha", (alpha,), t)
    val = np.broadcast_to(defect(*_closures(t.riem, t.g, t.phi, t.eta, _slot_axes(t.E))),
                          t.E.shape[:2] + t.E.shape[1:2] * 3)[idx]
    return abs(val) if t.riem.dtype == object else abs(float(val))
