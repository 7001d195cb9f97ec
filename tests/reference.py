"""Independent references that the oracle tests compare the engines against.

Each function rebuilds what it needs at one point: Christoffel symbols and
curvature through ``geometry.christoffel`` and ``geometry.curvature``, field
jets through ``eval_field_jets``. It then evaluates its own coordinate
formula. None of them reads the per-point records that the structure
battery and the identity sweep work from (``contact_point_data`` and the
exact frame tables of ``structures``), so an oracle that compares those
records with these functions does not check the engine against itself.
Keep them that way. Tests import this module the way they import
``conftest``.

Conventions are the package's (see ``curvlab.geometry``): R(X, Y, Z, W) =
−g(R_XY Z, W), and dη carries no 1/2 factor.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from curvlab.chart import Chart, TensorField, eval_field_jets
from curvlab.frame import FrameGeometry, _rat
from curvlab.geometry import christoffel, curvature, nabla_of, orthonormal_frame


def covariant_derivative(chart: Chart, f: TensorField, p: Sequence[float], X) -> np.ndarray:
    """∇_X f at ``p`` for a vector, one-form or endomorphism field."""
    return nabla_of(christoffel(chart, p).gamma, f.valence, eval_field_jets(f, p), X)


def covariant_derivative_02(chart: Chart, components, p: Sequence[float], X) -> np.ndarray:
    """∇_X T for a (0,2) expression array; used for the ∇g = 0 check."""
    t = TensorField(chart, "endomorphism", components)  # same shape, parse only
    conn = christoffel(chart, p)
    gamma = conn.gamma
    X = np.asarray(X, dtype=float)
    vals, grads = eval_field_jets(t, p)
    # (∇_X T)_jk = X^i (∂_i T_jk − Γ^m_ij T_mk − Γ^m_ik T_jm)
    return (np.einsum("i,jki->jk", X, grads)
            - np.einsum("i,mij,mk->jk", X, gamma, vals)
            - np.einsum("i,mik,jm->jk", X, gamma, vals))


def lie_derivative_metric(chart: Chart, xi: TensorField, p: Sequence[float], X, Y) -> float:
    """(L_ξ g)(X, Y) = g(∇_X ξ, Y) + g(X, ∇_Y ξ) for the Levi-Civita metric."""
    if xi.valence != "vector":
        raise ValueError("Killing test expects a vector field")
    gamma, jets = christoffel(chart, p).gamma, eval_field_jets(xi, p)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    g = chart.metric_at(p)
    return float(nabla_of(gamma, "vector", jets, X) @ g @ Y
                 + X @ g @ nabla_of(gamma, "vector", jets, Y))


def exterior_d_oneform(chart: Chart, eta: TensorField, p: Sequence[float], X, Y) -> float:
    """dη(X, Y) = X^i Y^j (∂_i η_j − ∂_j η_i), without any 1/2 factor."""
    if eta.valence != "oneform":
        raise ValueError("exterior derivative here expects a one-form")
    grads = eval_field_jets(eta, p)[1]  # grads[j, i] = ∂_i η_j
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return float(X @ (grads.T - grads) @ Y)


def ricci(chart: Chart, p: Sequence[float], X, Y) -> float:
    """Ric(X, Y) = Σ_a R(E_a, X, E_a, Y) over a g-orthonormal frame."""
    curv = curvature(chart, p)
    E = orthonormal_frame(curv.g)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return float(np.einsum("ai,j,ak,l,ijkl->", E, X, E, Y, curv.riem))


def contact_volume_coefficient(chart: Chart, eta: TensorField, p: Sequence[float]) -> float:
    """Unnormalized coefficient of η ∧ (dη)^n on the coordinate basis.

    The chart dimension must be odd (2n + 1). Only the nonvanishing of the
    result is meaningful; the combinatorial normalization is not applied.
    """
    from itertools import permutations

    d = chart.dim
    if d % 2 == 0:
        raise ValueError("contact volume needs an odd-dimensional chart")
    n = (d - 1) // 2
    vals, grads = eval_field_jets(eta, p)
    curl = grads.T - grads

    def sign(perm):
        s, seen = 1, list(perm)
        for i in range(len(seen)):
            while seen[i] != i:
                j = seen[i]
                seen[i], seen[j] = seen[j], seen[i]
                s = -s
        return s

    total = 0.0
    for perm in permutations(range(d)):
        term = vals[perm[0]]
        if term == 0.0:
            continue
        for a in range(n):
            term *= curl[perm[1 + 2 * a], perm[2 + 2 * a]]
            if term == 0.0:
                break
        if term != 0.0:
            total += sign(perm) * term
    return total


def frame_ricci(fg: FrameGeometry, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    """Ric(X, Y) = Σ_ab g^ab R(E_a, X, E_b, Y) on an invariant frame, exact."""
    ric = np.tensordot(fg.ginv, fg.riem, axes=([0, 1], [0, 2]))
    return _rat(x) @ ric @ _rat(y)
