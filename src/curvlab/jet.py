"""Second-order forward-mode automatic differentiation.

A :class:`Jet2` is a truncated second-order Taylor expansion of a scalar
function of n variables: the value, the gradient and the (dense,
symmetric) Hessian. Propagating jets through arithmetic and elementary
functions yields exact first and second partial derivatives in one pass,
which is what the chart engine needs to differentiate metric and tensor
components. Seeded without Hessians, a jet carries the value and gradient
only (``hess`` is None), for a run whose second derivatives nobody reads.
Dimensions stay small (charts here are at most 8-dimensional), so dense
storage is the right trade-off.

A jet holds one point, or a batch of N points on a leading axis: value
(N,), gradient (N, n) and Hessian (N, n, n). The rules are written once,
broadcasting over that axis, so one walk of an expression evaluates it at
every sample point. Each point's numbers are those of a one-point jet, bit
for bit: arithmetic is elementwise IEEE, and the elementary functions and
powers map ``math`` and Python's float ``pow`` over the values (numpy's
vectorised ``exp`` or ``**`` may differ in the last bit). Only the powers 0
and 1, whose values are exact, skip that loop: ones and a copy. The value
part is what the float ring computes, bit for bit: a jet divided by a
constant divides (multiplying by the reciprocal may round differently), and
f(u) is computed before the other derivative functions, so an argument out
of f's range raises f's error.

Third-order derivatives are intentionally out of scope.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence

import numpy as np

from .errors import EvalDomainError

__all__ = ["Jet2", "seed", "seeds", "JET_FUNCTIONS"]


class Jet2:
    """Value, gradient and Hessian of a scalar at a point, or at each of N
    points along a leading axis.

    Supports mixed arithmetic with plain real numbers; those are treated as
    constants (zero derivatives). The Hessian is kept symmetric by
    construction, or not kept at all (None): a first-order jet combines
    only with constants and first-order jets.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad: np.ndarray, hess: np.ndarray | None):
        self.value = np.asarray(value, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = None if hess is None else np.asarray(hess, dtype=float)

    def __repr__(self) -> str:
        return f"Jet2({self.value!r}, grad={self.grad!r})"

    # -- arithmetic ---------------------------------------------------------

    def _as_jet(self, other) -> "Jet2 | None":
        if isinstance(other, Jet2):
            return other
        if isinstance(other, numbers.Real):
            return Jet2(float(other), np.zeros(self.grad.shape),
                        None if self.hess is None else np.zeros(self.hess.shape))
        return None

    def __add__(self, other):
        o = self._as_jet(other)
        if o is None:
            return NotImplemented
        return Jet2(self.value + o.value, self.grad + o.grad,
                    None if self.hess is None else self.hess + o.hess)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._as_jet(other)
        if o is None:
            return NotImplemented
        return Jet2(self.value - o.value, self.grad - o.grad,
                    None if self.hess is None else self.hess - o.hess)

    def __rsub__(self, other):
        o = self._as_jet(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Jet2(-self.value, -self.grad, None if self.hess is None else -self.hess)

    def __mul__(self, other):
        if isinstance(other, numbers.Real) and not isinstance(other, Jet2):
            c = float(other)
            return Jet2(self.value * c, self.grad * c, None if self.hess is None else self.hess * c)
        if not isinstance(other, Jet2):
            return NotImplemented
        u, v = self.value[..., None], other.value[..., None]
        hess = None
        if self.hess is not None:
            cross = _outer(self.grad, other.grad)
            hess = (self.hess * v[..., None] + other.hess * u[..., None]
                    + cross + cross.swapaxes(-1, -2))
        return Jet2(self.value * other.value, self.grad * v + other.grad * u, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, numbers.Real) and not isinstance(other, Jet2):
            c = float(other)
            if c == 0.0:
                raise EvalDomainError("division by zero")
            return Jet2(self.value / c, self.grad / c, None if self.hess is None else self.hess / c)
        if not isinstance(other, Jet2):
            return NotImplemented
        return _div(self, other)

    def __rtruediv__(self, other):
        o = self._as_jet(other)
        if o is None:
            return NotImplemented
        return _div(o, self)

    def __pow__(self, k):
        if not isinstance(k, numbers.Integral):
            raise EvalDomainError("jet exponent must be an integer")
        return _pow_int(self, int(k))


def seed(point: Sequence[float], i: int, hessians: bool = True) -> Jet2:
    """Coordinate seed for variable ``i`` at ``point`` (n,), or at each row
    of ``point`` (N, n): value is the coordinate value, gradient the i-th
    standard basis vector, Hessian zero (None unless ``hessians``).
    """
    p = np.asarray(point, dtype=float)
    n = p.shape[-1]
    if not 0 <= i < n:
        raise IndexError(f"variable index {i} out of range for dimension {n}")
    g = np.zeros(p.shape)
    g[..., i] = 1.0
    return Jet2(p[..., i], g, np.zeros(p.shape + (n,)) if hessians else None)


def seeds(point: Sequence[float], hessians: bool = True) -> list[Jet2]:
    """Seeds for every coordinate of ``point`` (or of each of its rows), in order."""
    return [seed(point, i, hessians) for i in range(np.shape(point)[-1])]


# -- elementary function propagation ----------------------------------------


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.outer`` at each point: out[..., i, j] = a[..., i] b[..., j]."""
    return a[..., :, None] * b[..., None, :]


def _in_range(fn, x):
    """``fn`` from the math module at ``x``, a number or an array of them,
    mapped over the values in order. Overflow and out-of-range arguments
    such as sin(inf) raise EvalDomainError naming the first such value."""
    values = x.ravel().tolist() if isinstance(x, np.ndarray) else [x]
    try:
        out = list(map(fn, map(float, values)))
    except (OverflowError, ValueError):
        v = next(v for v in values if not _defined(fn, v))
        raise EvalDomainError(f"{fn.__name__} of {v!r} is out of the float range") from None
    return np.array(out).reshape(x.shape) if isinstance(x, np.ndarray) else out[0]


_SINGULAR = {
    "log": lambda u: u <= 0.0,
    "sqrt": lambda u: u < 0.0,
}


def _check_domain(fn: str, values):
    """Raise EvalDomainError naming the first of ``values`` (a number or an
    array) outside the domain of ``fn``, for the float ring and jets alike."""
    guard = _SINGULAR.get(fn)
    bad = [v for v in np.ravel(values).tolist() if guard(v)] if guard else ()
    if bad:
        raise EvalDomainError(f"{fn} of out-of-domain value {bad[0]!r}")


def _defined(fn, v) -> bool:
    try:
        fn(float(v))
    except (OverflowError, ValueError):
        return False
    return True


def _pow(x, k: int):
    """``x ** k``; on a float array, Python's float ``pow`` one value at a
    time (OverflowError at the first value that overflows). The exponents 0
    and 1 are exact without it: ``pow(x, 0)`` is 1 for every x, NaN included
    (C99), and ``pow(x, 1)`` is x, since libm's error is below one ulp."""
    if not isinstance(x, np.ndarray):
        return x**k
    if k == 0:
        return np.ones(x.shape)
    if k == 1:
        return x.copy()
    return np.array([v**k for v in x.ravel().tolist()]).reshape(x.shape)


def _unary(u: Jet2, f0, f1, f2) -> Jet2:
    # second-order chain rule: H = f' H_u + f'' (grad_u)(grad_u)^T; f2 is a
    # function of no arguments, called only when u carries a Hessian
    f1 = np.asarray(f1)[..., None]
    hess = None
    if u.hess is not None:
        hess = f1[..., None] * u.hess + np.asarray(f2())[..., None, None] * _outer(u.grad, u.grad)
    return Jet2(f0, f1 * u.grad, hess)


def _div(u: Jet2, v: Jet2) -> Jet2:
    if np.any(v.value == 0.0):
        raise EvalDomainError("division by zero")
    w = u.value / v.value
    vv = v.value[..., None]
    gw = (u.grad - w[..., None] * v.grad) / vv
    hw = None
    if u.hess is not None:
        cross = _outer(gw, v.grad)
        hw = (u.hess - w[..., None, None] * v.hess - cross - cross.swapaxes(-1, -2)) / vv[..., None]
    return Jet2(w, gw, hw)


def _pow_int(u: Jet2, k: int) -> Jet2:
    if k == 0:
        return Jet2(np.ones(u.value.shape), np.zeros(u.grad.shape),
                    None if u.hess is None else np.zeros(u.hess.shape))
    if k < 0 and np.any(u.value == 0.0):
        raise EvalDomainError("zero raised to a negative power")
    f0 = _pow(u.value, k)
    f1 = k * _pow(u.value, k - 1)
    return _unary(u, f0, f1, lambda: k * (k - 1) * _pow(u.value, k - 2) if k != 1
                  else np.zeros(u.value.shape))


def _sin(u: Jet2) -> Jet2:
    s, c = _in_range(math.sin, u.value), _in_range(math.cos, u.value)
    return _unary(u, s, c, lambda: -s)


def _cos(u: Jet2) -> Jet2:
    c, s = _in_range(math.cos, u.value), _in_range(math.sin, u.value)
    return _unary(u, c, -s, lambda: -c)


def _tan(u: Jet2) -> Jet2:
    t = _in_range(math.tan, u.value)
    d = 1.0 + t * t
    return _unary(u, t, d, lambda: 2.0 * t * d)


def _exp(u: Jet2) -> Jet2:
    e = _in_range(math.exp, u.value)
    return _unary(u, e, e, lambda: e)


def _log(u: Jet2) -> Jet2:
    _check_domain("log", u.value)
    return _unary(u, _in_range(math.log, u.value), 1.0 / u.value, lambda: -1.0 / _pow(u.value, 2))


def _sqrt(u: Jet2) -> Jet2:
    _check_domain("sqrt", u.value)
    if np.any(u.value == 0.0):
        raise EvalDomainError("sqrt not differentiable at zero")
    r = _in_range(math.sqrt, u.value)
    return _unary(u, r, 0.5 / r, lambda: -0.25 / (r * u.value))


def _sinh(u: Jet2) -> Jet2:
    s, c = _in_range(math.sinh, u.value), _in_range(math.cosh, u.value)
    return _unary(u, s, c, lambda: s)


def _cosh(u: Jet2) -> Jet2:
    c, s = _in_range(math.cosh, u.value), _in_range(math.sinh, u.value)
    return _unary(u, c, s, lambda: c)


JET_FUNCTIONS = {
    "sin": _sin,
    "cos": _cos,
    "tan": _tan,
    "exp": _exp,
    "log": _log,
    "sqrt": _sqrt,
    "sinh": _sinh,
    "cosh": _cosh,
}

