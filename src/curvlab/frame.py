"""Exact invariant-frame geometry over the rationals.

A left-invariant metric on a Lie group is determined by structure constants
c^k_ij (brackets [E_i, E_j] = Σ_k c^k_ij E_k) and a constant frame metric.
With a constant metric the Koszul formula loses its derivative terms:

    2 g(∇_Ei Ej, Ek) = g([Ei, Ej], Ek) − g([Ej, Ek], Ei) + g([Ek, Ei], Ej)

Everything downstream (connection, curvature, classification residuals) is
evaluated in fractions.Fraction arithmetic, which makes this module the
ground-truth oracle against the floating chart engine. The tensors are
built once per frame, as whole-tensor contractions over object arrays of
Fractions; exact sums do not depend on the order of their terms, so every
entry equals its per-index evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = ["FrameGeometry", "frame_connection", "frame_curvature", "heisenberg_h21"]

_ZERO = Fraction(0)
_fractions = np.frompyfunc(Fraction, 1, 1)


def _rat(x) -> np.ndarray:
    """Object array of Fractions with the shape of ``x``."""
    return np.asarray(_fractions(np.array(x, dtype=object)), dtype=object)


def _contract(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """out[..., n] = Σ_m t[m, ...] rows[n, m]: contracts the leading axis of
    ``t`` with every row of ``rows`` and puts the new axis last. Zero
    entries are skipped and unit entries are not multiplied, since frame
    tensors are sparse."""
    cols = []
    for row in rows:
        col = None
        for m in np.flatnonzero(row):
            piece = t[m] if row[m] == 1 else t[m] * row[m]
            col = piece if col is None else col + piece
        cols.append(np.full(t.shape[1:], _ZERO, dtype=object) if col is None else col)
    return np.stack(cols, axis=-1)


def _spd_inverse(g: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric rational matrix by Gauss–Jordan elimination
    without row exchanges. Pivot k is the ratio of the leading minors of
    orders k + 1 and k, so a pivot ≤ 0 means g is not positive definite."""
    n = len(g)
    a = np.concatenate([g, _rat(np.eye(n, dtype=int))], axis=1)
    for col in range(n):
        if a[col, col] <= 0:
            raise ValueError("frame metric not positive definite")
        a[col] = a[col] / a[col, col]
        for r in range(n):
            if r != col and a[r, col] != 0:
                a[r] = a[r] - a[r, col] * a[col]
    return a[:, n:]


@dataclass(eq=False)
class FrameGeometry:
    """Structure constants and constant metric of an invariant frame.

    ``c[k][i][j]`` is the E_k coefficient of [E_i, E_j]; ``g[i][j]`` the
    frame metric. Optional almost contact tensors ``phi`` (matrix, column =
    input index), ``xi`` (vector) and ``eta`` (covector) ride along. All
    entries become exact rationals in object arrays. Construction validates
    bracket antisymmetry, the Jacobi identity and positive definiteness of
    g, then builds the whole-tensor geometry:

    * ``ginv``: g⁻¹;
    * ``_nabla[i, j, k]``: E_k coefficient of ∇_Ei Ej;
    * ``riem13[i, j, k, m]``: E_m coefficient of R_EiEj E_k
      = ∇_i ∇_j E_k − ∇_j ∇_i E_k − ∇_[Ei,Ej] E_k;
    * ``riem[i, j, k, l]`` = R(E_i, E_j, E_k, E_l) = −g(R_EiEj E_k, E_l).
    """

    dim: int
    c: np.ndarray  # c[k][i][j]
    g: np.ndarray  # g[i][j]
    phi: np.ndarray | None = None
    xi: np.ndarray | None = None
    eta: np.ndarray | None = None
    name: str = ""
    ginv: np.ndarray = field(init=False, repr=False)
    _nabla: np.ndarray = field(init=False, repr=False)
    riem13: np.ndarray = field(init=False, repr=False)
    riem: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.c = _rat(self.c)
        self.g = _rat(self.g)
        for attr in ("phi", "xi", "eta"):
            if getattr(self, attr) is not None:
                setattr(self, attr, _rat(getattr(self, attr)))
        self._validate()
        self.ginv = _spd_inverse(self.g)
        d, c, g = self.dim, self.c, self.g
        # Koszul: L[i, j, k] = g([Ei, Ej], Ek)
        lower = _contract(c, g.T)
        koszul = (lower - lower.transpose(2, 0, 1) + lower.transpose(1, 2, 0)) / 2
        self._nabla = _contract(koszul.transpose(2, 0, 1), self.ginv)
        # with N = _nabla: ∇_i ∇_j E_k = Σ_m N[j, k, m] ∇_i E_m and
        # ∇_[Ei,Ej] E_k = Σ_m c[m, i, j] ∇_m E_k
        by_m = self._nabla.transpose(1, 0, 2).reshape(d, d * d).T   # rows (i, q), columns m
        second = _contract(self._nabla.transpose(2, 0, 1), by_m).reshape(d, d, d, d)
        second = second.transpose(2, 0, 1, 3)                        # [i, j, k, q]
        bracket = _contract(self._nabla, c.reshape(d, d * d).T).reshape(d, d, d, d)
        self.riem13 = second - second.transpose(1, 0, 2, 3) - bracket.transpose(2, 3, 0, 1)
        self.riem = -_contract(self.riem13.transpose(3, 0, 1, 2), g.T)

    def _validate(self):
        d, c = self.dim, self.c
        bad = np.argwhere(c != -c.transpose(0, 2, 1))
        if len(bad):
            raise ValueError("structure constants not antisymmetric at "
                             "({},{},{})".format(*bad[0]))
        # Jacobi: [[Ei,Ej],Ek] + [[Ej,Ek],Ei] + [[Ek,Ei],Ej] = 0, with
        # t[i, j, k, m] = Σ_a c[a, i, j] c[m, a, k] the E_m part of the first term
        t = _contract(c, c.transpose(0, 2, 1).reshape(d * d, d)).reshape(d, d, d, d)
        t = t.transpose(0, 1, 3, 2)
        bad = np.argwhere(t + t.transpose(2, 0, 1, 3) + t.transpose(1, 2, 0, 3))
        if len(bad):
            raise ValueError("Jacobi identity fails on ({},{},{})".format(*bad[0][:3]))
        if (self.g != self.g.T).any():
            raise ValueError("frame metric not symmetric")

    # -- thin reads of the tensors -------------------------------------------

    def inner(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        return _rat(u) @ self.g @ _rat(v)

    def riemann(self, i: int, j: int, k: int, l: int) -> Fraction:
        """Lowered R(E_i, E_j, E_k, E_l) = −g(R_EiEj E_k, E_l)."""
        return self.riem[i, j, k, l]

    def riemann_table(self) -> np.ndarray:
        return self.riem.copy()

    def phi_vector(self, v: Sequence[Fraction]) -> list[Fraction]:
        if self.phi is None:
            raise ValueError("frame carries no phi tensor")
        return list(self.phi @ _rat(v))

    def eta_value(self, v: Sequence[Fraction]) -> Fraction:
        if self.eta is None:
            raise ValueError("frame carries no eta tensor")
        return self.eta @ _rat(v)

    def ricci(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        """Ric(X, Y) = Σ_ab g^ab R(E_a, X, E_b, Y), exact."""
        ric = np.tensordot(self.ginv, self.riem, axes=([0, 1], [0, 2]))
        return _rat(x) @ ric @ _rat(y)


def frame_connection(fg: FrameGeometry, i: int, j: int) -> list[Fraction]:
    """Coefficients of ∇_Ei Ej in the frame basis, exact rationals."""
    if not (0 <= i < fg.dim and 0 <= j < fg.dim):
        raise IndexError(f"frame index out of range for dimension {fg.dim}")
    return list(fg._nabla[i, j])


def frame_curvature(fg: FrameGeometry, i: int, j: int, k: int, l: int) -> Fraction:
    """Exact lowered curvature R(E_i, E_j, E_k, E_l)."""
    for idx in (i, j, k, l):
        if not 0 <= idx < fg.dim:
            raise IndexError(f"frame index out of range for dimension {fg.dim}")
    return fg.riemann(i, j, k, l)


def heisenberg_h21(c: Fraction, s: Fraction) -> FrameGeometry:
    """Five-dimensional Heisenberg frame (X_1, X_2, Y_1, Y_2, ξ) with its
    rotation-parameterized almost contact structure.

    Brackets: [X_i, Y_i] = 2ξ for i = 1, 2 and all other brackets zero.
    The frame is g-orthonormal, η is dual to ξ, and φ rotates the X-plane
    into the Y-plane by the angle whose exact cosine/sine pair is (c, s);
    the pair must satisfy c² + s² = 1 (e.g. (3/5, 4/5)) so that every
    residual downstream stays an exact rational.
    """
    c = Fraction(c)
    s = Fraction(s)
    if c * c + s * s != 1:
        raise ValueError("(c, s) must satisfy c^2 + s^2 = 1 exactly")
    d = 5
    cc = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]

    def set_bracket(i, j, k, val):
        cc[k][i][j] = Fraction(val)
        cc[k][j][i] = -Fraction(val)

    set_bracket(0, 2, 4, 2)  # [X1, Y1] = 2 xi
    set_bracket(1, 3, 4, 2)  # [X2, Y2] = 2 xi
    g = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    phi = [[Fraction(0)] * d for _ in range(d)]

    def set_column(j, vec):
        for i in range(d):
            phi[i][j] = Fraction(vec[i])

    set_column(0, [0, 0, c, s, 0])    # phi X1 =  c Y1 + s Y2
    set_column(1, [0, 0, s, -c, 0])   # phi X2 =  s Y1 - c Y2
    set_column(2, [-c, -s, 0, 0, 0])  # phi Y1 = -c X1 - s X2
    set_column(3, [-s, c, 0, 0, 0])   # phi Y2 = -s X1 + c X2
    xi = [Fraction(0)] * 4 + [Fraction(1)]
    eta = [Fraction(0)] * 4 + [Fraction(1)]
    return FrameGeometry(dim=d, c=cc, g=g, phi=phi, xi=xi, eta=eta,
                         name=f"h21({c},{s})")
