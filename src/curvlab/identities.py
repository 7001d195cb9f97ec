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

``sweep`` takes every identity check of an invocation and reads the point
record alone: the plain rows are one sweep and the consequence rows of all
three kinds one more, and within a sweep each closure value is computed
once per distinct argument tuple and kept until its last read, so a term
that several rows share (such as R(X, Y, φZ, φW) in g1, g2 and c(α)) is
contracted once.

Every defect is 4-linear, so a residual is the largest entry of the defect
tensor in an orthonormal basis: no direction is missed, and absolute
tolerances are meaningful.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import geometry
from .frame import _contract, _rat
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


def _projected(slots, etv, xi):
    """``slots`` with every vector v replaced by v − η(v)ξ when the slot
    batch ``xi`` is given."""
    return slots if xi is None else [v - etv(v)[..., None] * xi for v in slots]


def _remembered(closures, last: set[int]):
    """``closures`` that compute each value once per tuple of argument
    objects and keep it until the call in ``last`` that reads it for the
    last time; calls are counted in order across all of them. A kept value
    keeps its arguments, so no id is reused while it is kept, and it is
    read-only, since rows share it."""
    memo, calls = {}, itertools.count()

    def remembered(fn):
        def call(*args):
            key = (fn, *map(id, args))
            if key not in memo:
                out = fn(*args)
                out.flags.writeable = False
                memo[key] = args, out
            out = memo[key][1]
            if next(calls) in last:
                del memo[key]
            return out
        return call

    return tuple(map(remembered, closures))


def _last_reads(rows: dict, xi) -> set[int]:
    """The positions, in call order, of the last call of each distinct
    closure call that a sweep of ``rows`` makes, found by running the rows
    on stand-in scalars: a defect branches on no value, so the sweep makes
    the same calls in the same order."""
    calls, values = [], {}

    def stand_in(fn):
        def call(*args):
            key = (fn, *map(id, args))
            calls.append(key)
            # one value per key, as the sweep's memo gives; it keeps the
            # arguments, so no id is reused during the run
            return values.setdefault(key, (args, np.float64(0.0)))[1]
        return call

    closures = tuple(map(stand_in, "r4 gd phv etv".split()))
    slots = _projected([np.float64(0.0) for _ in range(4)], closures[3], xi)
    for _, defect in rows.values():
        defect(*closures, *slots)
    return set({key: n for n, key in enumerate(calls)}.values())


def _sweep(rows: dict, t: PointRecord, tol: float, xi=None) -> dict:
    """One report per ``rows`` entry (key → (tag, defect)), under the same
    key, over the bases of the record ``t``, with every swept vector v
    replaced by v − η(v)ξ when the slot batch ``xi`` is given. Exact
    (object) tables give exact residuals. A residual may be non-finite: the
    caller checks it where it emits it."""
    closures = r4, gd, phv, etv = _remembered(_closures(t.riem, t.g, t.phi, t.eta),
                                              _last_reads(rows, xi))
    slots = _projected(_slot_axes(t.E), etv, xi)
    shape = t.E.shape[:2] + t.E.shape[1:2] * 3
    reports = {}
    for key, (tag, defect) in rows.items():
        vals = np.abs(np.broadcast_to(defect(*closures, *slots), shape))
        idx = np.unravel_index(np.argmax(vals), shape)
        witness = Witness(None if t.point is None else tuple(t.point[idx[0]].tolist()),
                          tuple(tuple(v[idx[0]].reshape(-1, v.shape[-1])[i].tolist())
                                for v, i in zip(slots, idx[1:])))
        reports[key] = IdentityReport(tag=tag, n_points=shape[0], n_quadruples=vals.size,
                                      value=vals[idx], witness=witness, tolerance=tol)
    return reports


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
    plain, perp, keys = {}, {}, []
    xi = t.xi.reshape(len(t.xi), 1, 1, 1, 1, -1)   # ξ on no slot axis
    for name, args in checks:
        if name == "consequences":
            if not perp:
                perp = {f"{kind}.{row}": (f"{kind}.{row}", defect) for kind in CONTACT_KINDS
                        for row, defect in _consequence_rows(kind, xi).items()}
            keys.append(list(perp))
        else:
            # keyed by the check itself: distinct α may share a display tag
            plain[name, args] = _plain_row(name, args, t)
            keys.append([(name, args)])
    reports = {}
    if plain:
        reports.update(_sweep(plain, t, tol))
    if perp:
        reports.update(_sweep(perp, t, tol, xi))
    return [[reports[key] for key in row] for row in keys]


def reevaluate_witness(s, kind: str, witness: Witness, alpha=None) -> float | Fraction:
    """Recompute an identity defect at a recorded witness, as a sweep of one
    point, to verify that reported residuals are reproducible.

    On frame carriers the four witness vectors fill the slots and the
    defect is an exact Fraction. On charts the record at the witness point
    is rebuilt and the table evaluated in the sweep's layout, so the entry
    whose slot rows are the witness vectors is rounded as the sweep rounded
    it; a vector that is no row of E(p) raises ValueError.
    """
    frame = isinstance(s, AlmostContactStructure) and s.is_frame
    if frame:   # the witness vectors fill the slots
        t, idx = contact_point_data(s), (0,) * 5
        slots = [_rat(v).reshape(1, 1, 1, 1, 1, -1) for v in witness.vectors]
    else:       # the entry whose slot rows are the witness vectors
        chart = s.chart if isinstance(s, AlmostHermitianStructure) else s.carrier
        t = contact_point_data(s, geometry.metric_jets(chart, [witness.point]))
        rows, slots = t.E[0].tolist(), _slot_axes(t.E)
        idx = (0,) + tuple(rows.index(list(v)) for v in witness.vectors)
    _, defect = _plain_row(kind.lower() if alpha is None else "c_alpha", (alpha,), t)
    val = np.broadcast_to(defect(*_closures(t.riem, t.g, t.phi, t.eta), *slots),
                          t.E.shape[:2] + t.E.shape[1:2] * 3)[idx]
    return abs(val) if frame else abs(float(val))
