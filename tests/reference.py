"""Independent references that the oracle tests compare the engines against.

Each function rebuilds what it needs at one point: Christoffel symbols and
curvature through ``point_geometry``, field values and jets through
``eval_field`` and ``eval_field_jets``, each a run of a program of its own
(floats or jets) over the field's components, where the CLI runs one
program per structure. It then evaluates its own coordinate formula.
``nabla_of`` is ∇_X of a vector, one-form or endomorphism field along one
vector X, the per-vector formula that the batched ∇ tables of the
structure battery must match. ``connection_at_point``, ``curvature_at_point`` and
``gram_schmidt`` are the one-point formulas, with no point axis, written as
index contractions and a Gram-Schmidt loop: the engine's ``connection_of``,
``curvature_of`` and ``MetricJets.E`` (stacked matrix products and the
inverse of a Cholesky factor) must agree with them to rounding, not bit for bit, as the
sum orders differ. ``hypersurface_at_point`` and ``nabla_J_at_point`` are
the one-point formulas that the batched hypersurface induction and its
ambient Kähler check must match bit for bit, ``sample_per_scalar`` plays
that part for the one-call draw of ``sample``, and ``walk`` for the
interned ``expr.Program``. ``horizontal_lift`` solves for
the lift of one base vector at one point with its own solve, which the
lifted frame of ``check_submersion_lift`` must match, and ``to_text``
prints an expression back to text for the parser's round-trip tests. None
of them reads the per-point records that the structure battery and the
identity sweep work from (``contact_point_data`` and the
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

from curvlab import expr as ex
from curvlab.chart import Chart, TensorField
from curvlab.constructions.submersion import SubmersionPair
from curvlab.frame import FrameGeometry, _rat
from curvlab.errors import SingularMetricError, UnknownIdentifierError
from curvlab.geometry import MetricJets, _expr_jets, connection_of, curvature_of, metric_jets


def point_geometry(chart: Chart, p: Sequence[float]) -> tuple[np.ndarray, np.ndarray,
                                                              np.ndarray]:
    """Γ, the lowered R and R¹³ at a point ``p`` (d,), or at each row of
    ``p`` (N, d) on a leading point axis, from one ``metric_jets``."""
    mj = metric_jets(chart, p)
    gamma, dgamma = connection_of(mj)
    return (gamma, *curvature_of(mj.g, gamma, dgamma))


def eval_field(f: TensorField, p: Sequence[float]) -> np.ndarray:
    """All components of ``f`` at a point ``p`` as floats, from one run of a
    program of its components; at each row of ``p`` (N, d), on a leading
    point axis."""
    out = np.empty(np.shape(p)[:-1] + f.components.shape)
    program = ex.Program(f.components.flat)
    for idx, v in zip(np.ndindex(f.components.shape), program.run(f.chart.env(p))):
        out[(..., *idx)] = v
    return out


def eval_field_jets(f: TensorField, p: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Components of ``f`` and their coordinate gradients at ``p``, or at
    each row of ``p`` (N, d) on a leading point axis, as ``(values, grads)``
    with ``grads[..., k]`` the partial derivative along coordinate k."""
    vals, grads = _expr_jets(ex.Program(f.components.flat), f.chart.env(p, jets=True))
    shape = vals.shape[:-1] + f.components.shape
    return vals.reshape(shape), grads.reshape(shape + grads.shape[-1:])


def walk(e: ex.Expr, env, ring):
    """``e`` over ``ring`` by a plain recursive walk that evaluates each
    subtree wherever it occurs, children left to right."""
    match e:
        case ex.Num(v):
            return ring.lift_int(v) if isinstance(v, int) else ring.lift_float(v)
        case ex.ConstName(name):
            return ring.named_constant(name)
        case ex.Var(name):
            try:
                return env[name]
            except KeyError:
                raise UnknownIdentifierError(name) from None
        case ex.Neg(arg):
            return -walk(arg, env, ring)
        case ex.Bin(op, l, r):
            a, b = walk(l, env, ring), walk(r, env, ring)
            if op == "/":
                return ring.div(a, b)
            return a + b if op == "+" else a - b if op == "-" else a * b
        case ex.Pow(base, k):
            return ring.pow_int(walk(base, env, ring), k)
        case ex.Call(fn, args):
            return ring.call(fn, [walk(a, env, ring) for a in args])
    raise TypeError(f"not an expression node: {e!r}")


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _prec(e: ex.Expr) -> int:
    match e:
        case ex.Bin(op, _, _):
            return _PREC[op]
        case ex.Neg(_):
            return _PREC["neg"]
        case ex.Pow(_, _):
            return _PREC["pow"]
        case _:
            return _PREC["atom"]


def to_text(e: ex.Expr) -> str:
    """Canonical text form; ``parse(to_text(parse(s)))`` is a fixed point."""

    def wrap(child: ex.Expr, minimum: int) -> str:
        s = to_text(child)
        return f"({s})" if _prec(child) < minimum else s

    match e:
        case ex.Num(v):
            return repr(v)
        case ex.ConstName(name):
            return name
        case ex.Var(name):
            return name
        case ex.Neg(arg):
            return "-" + wrap(arg, _PREC["neg"])
        case ex.Bin(op, l, r):
            p = _PREC[op]
            # left-associative: right operand needs strictly higher precedence
            left = wrap(l, p)
            right = wrap(r, p + 1)
            return f"{left} {op} {right}"
        case ex.Pow(base, k):
            b = wrap(base, _PREC["atom"])
            return f"{b}^{k}"
        case ex.Call(fn, args):
            return f"{fn}(" + ", ".join(to_text(a) for a in args) + ")"
    raise TypeError(f"not an expression node: {e!r}")


def connection_at_point(mj: MetricJets) -> tuple[np.ndarray, np.ndarray]:
    """Γ^k_ij = ½ g^kl (∂_i g_jl + ∂_j g_il − ∂_l g_ij) and ∂_m Γ^k_ij from
    the metric jets at one point, with no point axis."""
    low = 0.5 * (np.einsum("jli->lij", mj.dg) + np.einsum("ilj->lij", mj.dg)
                 - np.einsum("ijl->lij", mj.dg))
    dlow = 0.5 * (np.einsum("jlim->lijm", mj.d2g) + np.einsum("iljm->lijm", mj.d2g)
                  - np.einsum("ijlm->lijm", mj.d2g))
    gamma = np.einsum("kl,lij->kij", mj.ginv, low)
    dginv = -np.einsum("ka,abm,bl->klm", mj.ginv, mj.dg, mj.ginv)
    dgamma = (np.einsum("klm,lij->kijm", dginv, low)
              + np.einsum("kl,lijm->kijm", mj.ginv, dlow))
    return gamma, dgamma


def curvature_at_point(g: np.ndarray, gamma: np.ndarray,
                       dgamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R_ijkl = −g_lm (R_ij ∂_k)^m and (R_ij ∂_k)^m = ∂_i Γ^m_jk − ∂_j Γ^m_ik
    + Γ^p_jk Γ^m_ip − Γ^p_ik Γ^m_jp at one point, with no point axis."""
    riem13 = (np.einsum("mjki->mijk", dgamma) - np.einsum("mikj->mijk", dgamma)
              + np.einsum("pjk,mip->mijk", gamma, gamma)
              - np.einsum("pik,mjp->mijk", gamma, gamma))
    riem = -np.einsum("lm,mijk->ijkl", g, riem13)
    return riem, riem13


def gram_schmidt(g: np.ndarray) -> np.ndarray:
    """Rows E[a] of the g-orthonormal frame from the coordinate basis, pivot
    order fixed, for one metric (d, d)."""
    d = g.shape[0]
    E = np.zeros((d, d))
    for a in range(d):
        v = np.zeros(d)
        v[a] = 1.0
        for b in range(a):
            v = v - (E[b] @ g @ v) * E[b]
        nrm2 = float(v @ g @ v)
        if nrm2 <= 0.0:
            raise SingularMetricError("Gram-Schmidt breakdown: metric not positive definite")
        E[a] = v / np.sqrt(nrm2)
    return E


def nabla_of(gamma: np.ndarray, valence: str, jets, X) -> np.ndarray:
    """∇_X f from Γ and the jets ``(values, grads)`` of a vector, one-form or
    endomorphism field f, as returned by ``eval_field_jets``."""
    X = np.asarray(X, dtype=float)
    vals, grads = jets
    if valence == "vector":
        # (∇_X ξ)^k = X^i (∂_i ξ^k + Γ^k_ij ξ^j)
        return np.einsum("i,ki->k", X, grads) + np.einsum("i,kij,j->k", X, gamma, vals)
    if valence == "oneform":
        # (∇_X η)_j = X^i (∂_i η_j − Γ^k_ij η_k)
        return np.einsum("i,ji->j", X, grads) - np.einsum("i,kij,k->j", X, gamma, vals)
    if valence == "endomorphism":
        # (∇_X φ)^k_j = X^i (∂_i φ^k_j + Γ^k_im φ^m_j − φ^k_m Γ^m_ij)
        return (np.einsum("i,kji->kj", X, grads)
                + np.einsum("i,kim,mj->kj", X, gamma, vals)
                - np.einsum("km,i,mij->kj", vals, X, gamma))
    raise ValueError(f"unsupported valence {valence!r}")


def covariant_derivative(chart: Chart, f: TensorField, p: Sequence[float], X) -> np.ndarray:
    """∇_X f at ``p`` for a vector, one-form or endomorphism field."""
    return nabla_of(point_geometry(chart, p)[0], f.valence, eval_field_jets(f, p), X)


def covariant_derivative_02(chart: Chart, components, p: Sequence[float], X) -> np.ndarray:
    """∇_X T for a (0,2) expression array; used for the ∇g = 0 check."""
    t = TensorField(chart, "endomorphism", components)  # same shape, parse only
    gamma = point_geometry(chart, p)[0]
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
    gamma, jets = point_geometry(chart, p)[0], eval_field_jets(xi, p)
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
    E = gram_schmidt(chart.metric_at(p))
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return float(np.einsum("ai,j,ak,l,ijkl->", E, X, E, Y, point_geometry(chart, p)[1]))


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


def hypersurface_at_point(J: np.ndarray, patch, p: Sequence[float], g: np.ndarray,
                          phi=None, xi=None, eta=None):
    """The hypersurface induction at one parameter point ``p``: the
    Weingarten matrix A, β = tr A / d, ξ = −JN in chart components and the
    residuals keyed by row name, from jets of the immersion and the normal
    at ``p`` alone. ``g`` is the chart metric at ``p``; the ``structure``
    residual is there when the template φ, ξ, η at ``p`` are given."""
    d = patch.chart.dim
    env = patch.chart.env(p, jets=True)
    JF = _expr_jets(ex.Program(patch.immersion), env)[1]
    N, dN = _expr_jets(ex.Program(patch.normal), env)
    G = JF.T @ JF
    Ginv = np.linalg.inv(G)
    A = -Ginv @ (JF.T @ dN)
    beta = float(np.trace(A)) / d
    xi_chart = Ginv @ (JF.T @ (-J @ N))
    res = {"normal_unit": abs(float(N @ N) - 1.0),
           "normal_tangency": np.max(np.abs(N @ JF)),
           "umbilicity": np.max(np.abs(A - beta * np.eye(d))),
           "h_xi": np.max(np.abs(N @ (-J @ dN) - xi_chart @ G @ A)),
           "pullback": np.max(np.abs(G - g))}
    if phi is not None:
        res["structure"] = max(np.max(np.abs(xi_chart - xi)),
                               np.max(np.abs(G @ xi_chart - eta)),
                               np.max(np.abs(J @ JF - JF @ phi - np.outer(N, eta))))
    return A, beta, xi_chart, res


def nabla_J_at_point(ambient, p: Sequence[float]) -> float:
    """Largest |(∇_i J)^k_j| at one point, from ``point_geometry`` there."""
    gamma = point_geometry(ambient.chart, p)[0]
    J, dJ = eval_field_jets(ambient.J, p)      # dJ[k, j, i] = ∂_i J^k_j
    return np.max(np.abs(dJ.transpose(0, 2, 1) + gamma @ J - np.tensordot(J, gamma, 1)))


def sample_per_scalar(chart: Chart, n_points: int, seed: int) -> np.ndarray:
    """Points in the sampling windows of ``chart``'s domain, drawn one
    scalar at a time, point by point and coordinate by coordinate: the
    stream that the one (N, d) draw of ``sample`` must reproduce bit for
    bit."""
    windows = [iv.sample_window() for iv in chart.domain]
    rng = np.random.default_rng(seed)
    return np.array([[rng.uniform(lo, hi) for lo, hi in windows] for _ in range(n_points)])


def horizontal_lift(sp: SubmersionPair, p: Sequence[float], X_base) -> np.ndarray:
    """The unique horizontal vector at ``p`` projecting onto ``X_base``: L X
    where [dπ; η] L = [I; 0], with dπ from a jet run of the projection at
    ``p``. A singular [dπ; η] raises ``numpy.linalg.LinAlgError``."""
    _, dpi = _expr_jets(ex.Program(sp.projection), sp.total.carrier.env(p, jets=True))
    nb = len(dpi)
    L = np.linalg.solve(np.vstack([dpi, eval_field(sp.total.eta, p)]),
                        np.vstack([np.eye(nb), np.zeros((1, nb))]))
    return L @ np.asarray(X_base, dtype=float)
