"""Second-order forward-mode automatic differentiation.

A :class:`Jet2` is a truncated second-order Taylor expansion of a scalar
function of n variables at a point: the value, the gradient and the (dense,
symmetric) Hessian. Propagating jets through arithmetic and elementary
functions yields exact first and second partial derivatives in one pass,
which is what the chart engine needs to differentiate metric and tensor
components. Dimensions stay small (charts here are at most 8-dimensional),
so dense storage is the right trade-off.

Third-order derivatives are intentionally out of scope.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable, Sequence

import numpy as np

from .errors import EvalDomainError

__all__ = ["Jet2", "seed", "seeds", "constant", "jet_apply", "JET_FUNCTIONS"]


class Jet2:
    """Value, gradient and Hessian of a scalar at a point.

    Supports mixed arithmetic with plain real numbers; those are treated as
    constants (zero derivatives). The Hessian is kept symmetric by
    construction.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: float, grad: np.ndarray, hess: np.ndarray):
        self.value = float(value)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    @property
    def nvars(self) -> int:
        return self.grad.shape[0]

    def __repr__(self) -> str:
        return f"Jet2({self.value!r}, grad={self.grad!r})"

    # -- arithmetic ---------------------------------------------------------

    def _as_jet(self, other) -> "Jet2 | None":
        if isinstance(other, Jet2):
            return other
        if isinstance(other, numbers.Real):
            n = self.nvars
            return Jet2(float(other), np.zeros(n), np.zeros((n, n)))
        return None

    def __add__(self, other):
        o = self._as_jet(other)
        if o is None:
            return NotImplemented
        return Jet2(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._as_jet(other)
        if o is None:
            return NotImplemented
        return Jet2(self.value - o.value, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, other):
        o = self._as_jet(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __mul__(self, other):
        if isinstance(other, numbers.Real) and not isinstance(other, Jet2):
            c = float(other)
            return Jet2(self.value * c, self.grad * c, self.hess * c)
        if not isinstance(other, Jet2):
            return NotImplemented
        cross = np.outer(self.grad, other.grad)
        return Jet2(
            self.value * other.value,
            self.grad * other.value + other.grad * self.value,
            self.hess * other.value + other.hess * self.value + cross + cross.T,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, numbers.Real) and not isinstance(other, Jet2):
            c = float(other)
            if c == 0.0:
                raise EvalDomainError("division by zero")
            return self * (1.0 / c)
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


def seed(point: Sequence[float], i: int) -> Jet2:
    """Coordinate seed for variable ``i`` at ``point``: value is the
    coordinate value, gradient the i-th standard basis vector, Hessian zero.
    """
    n = len(point)
    if not 0 <= i < n:
        raise IndexError(f"variable index {i} out of range for dimension {n}")
    g = np.zeros(n)
    g[i] = 1.0
    return Jet2(float(point[i]), g, np.zeros((n, n)))


def seeds(point: Sequence[float]) -> list[Jet2]:
    """Seeds for every coordinate of ``point``, in order."""
    return [seed(point, i) for i in range(len(point))]


def constant(x: float, nvars: int) -> Jet2:
    return Jet2(float(x), np.zeros(nvars), np.zeros((nvars, nvars)))


# -- elementary function propagation ----------------------------------------


def _in_range(fn, x: float) -> float:
    """``fn(x)`` from the math module; overflow and out-of-range arguments
    such as sin(inf) raise EvalDomainError."""
    try:
        return fn(x)
    except (OverflowError, ValueError):
        raise EvalDomainError(f"{fn.__name__} of {x!r} is out of the float range") from None


def _unary(u: Jet2, f0: float, f1: float, f2: float) -> Jet2:
    # second-order chain rule: H = f' H_u + f'' (grad_u)(grad_u)^T
    return Jet2(
        f0,
        f1 * u.grad,
        f1 * u.hess + f2 * np.outer(u.grad, u.grad),
    )


def _div(u: Jet2, v: Jet2) -> Jet2:
    if v.value == 0.0:
        raise EvalDomainError("division by zero")
    w = u.value / v.value
    gw = (u.grad - w * v.grad) / v.value
    cross = np.outer(gw, v.grad)
    hw = (u.hess - w * v.hess - cross - cross.T) / v.value
    return Jet2(w, gw, hw)


def _pow_int(u: Jet2, k: int) -> Jet2:
    if k == 0:
        return constant(1.0, u.nvars)
    if k < 0 and u.value == 0.0:
        raise EvalDomainError("zero raised to a negative power")
    f0 = u.value**k
    f1 = k * u.value ** (k - 1)
    f2 = k * (k - 1) * u.value ** (k - 2) if k != 1 else 0.0
    return _unary(u, f0, f1, f2)


def _sin(u: Jet2) -> Jet2:
    s, c = _in_range(math.sin, u.value), math.cos(u.value)
    return _unary(u, s, c, -s)


def _cos(u: Jet2) -> Jet2:
    s, c = _in_range(math.sin, u.value), math.cos(u.value)
    return _unary(u, c, -s, -c)


def _tan(u: Jet2) -> Jet2:
    t = _in_range(math.tan, u.value)
    d = 1.0 + t * t
    return _unary(u, t, d, 2.0 * t * d)


def _exp(u: Jet2) -> Jet2:
    e = _in_range(math.exp, u.value)
    return _unary(u, e, e, e)


def _log(u: Jet2) -> Jet2:
    if u.value <= 0.0:
        raise EvalDomainError("log of a non-positive value")
    return _unary(u, math.log(u.value), 1.0 / u.value, -1.0 / u.value**2)


def _sqrt(u: Jet2) -> Jet2:
    if u.value < 0.0:
        raise EvalDomainError("sqrt of a negative value")
    if u.value == 0.0:
        raise EvalDomainError("sqrt not differentiable at zero")
    r = math.sqrt(u.value)
    return _unary(u, r, 0.5 / r, -0.25 / (r * u.value))


def _sinh(u: Jet2) -> Jet2:
    s, c = _in_range(math.sinh, u.value), _in_range(math.cosh, u.value)
    return _unary(u, s, c, s)


def _cosh(u: Jet2) -> Jet2:
    s, c = _in_range(math.sinh, u.value), _in_range(math.cosh, u.value)
    return _unary(u, c, s, c)


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


def jet_apply(tag: str, args: Iterable) -> Jet2:
    """Apply an elementary operation by tag to jet (or mixed) arguments.

    Tags: add, sub, mul, div, neg, pow-int, sin, cos, tan, exp, log, sqrt,
    sinh, cosh. ``pow-int`` expects (jet, integer exponent).
    """
    args = list(args)

    def binary(expected: int):
        if len(args) != expected:
            raise TypeError(f"{tag} expects {expected} argument(s), got {len(args)}")

    if tag == "add":
        binary(2)
        return args[0] + args[1]
    if tag == "sub":
        binary(2)
        return args[0] - args[1]
    if tag == "mul":
        binary(2)
        return args[0] * args[1]
    if tag == "div":
        binary(2)
        return args[0] / args[1]
    if tag == "neg":
        binary(1)
        return -args[0]
    if tag == "pow-int":
        binary(2)
        return args[0] ** args[1]
    if tag in JET_FUNCTIONS:
        binary(1)
        u = args[0]
        if not isinstance(u, Jet2):
            raise TypeError(f"{tag} expects a Jet2 argument")
        return JET_FUNCTIONS[tag](u)
    raise ValueError(f"unknown jet operation tag {tag!r}")
