"""Expression ASTs, text parser and ring-generic evaluator.

Metric and tensor components are defined as small closed-form expressions
and evaluated over one of three scalar rings: plain floats, second-order
jets (for derivatives) or exact rationals (for frame definitions; the
rational ring rejects transcendental operations and decimal literals).
Float and jet coordinates may carry a leading axis of N points; one run
then evaluates at all of them.

A ``Program`` compiles a sequence of expressions once, into a flat list
with one instruction per distinct node. Each owner of expressions (a
chart's metric, a field's components, a construction's maps) compiles its
program on first run and runs it once per ring and point batch.
``eval_expr`` is the one-expression case.

Grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' int)?
    base   := number | ident | ident '(' expr (',' expr)* ')' | '(' expr ')'

Functions: sin cos tan exp log sqrt sinh cosh. Constants: pi, e (shadowed
by a coordinate of the same name if one is declared). ``p/q`` with integer
operands is ordinary division, which the rational ring keeps exact.
Unary minus binds looser than '^', so ``-x^2`` is ``-(x^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from . import jet
from .errors import EvalDomainError, ExprSyntaxError, RingError, UnknownIdentifierError

__all__ = [
    "Expr", "Num", "ConstName", "Var", "Neg", "Bin", "Pow", "Call",
    "parse_expr", "eval_expr", "Program", "free_variables",
    "REAL", "JET", "RATIONAL",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")
NAMED_CONSTANTS = ("pi", "e")


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Union[int, float]


@dataclass(frozen=True)
class ConstName:
    name: str  # "pi" or "e"


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # '+', '-', '*', '/'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


Expr = Union[Num, ConstName, Var, Neg, Bin, Pow, Call]


def free_variables(e: Expr) -> set[str]:
    match e:
        case Var(name):
            return {name}
        case Neg(arg):
            return free_variables(arg)
        case Bin(_, l, r):
            return free_variables(l) | free_variables(r)
        case Pow(base, _):
            return free_variables(base)
        case Call(_, args):
            out: set[str] = set()
            for a in args:
                out |= free_variables(a)
            return out
        case _:
            return set()


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, coords: Sequence[str]):
        self.text = text
        self.pos = 0
        self.coords = set(coords)

    def error(self, message: str) -> ExprSyntaxError:
        return ExprSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise self.error(f"expected {ch!r}")

    def parse(self) -> Expr:
        e = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input")
        return e

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while True:
            c = self.peek()
            if c and c in "+-":
                self.pos += 1
                e = Bin(c, e, self.parse_term())
            else:
                return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while True:
            c = self.peek()
            if c and c in "*/":
                self.pos += 1
                e = Bin(c, e, self.parse_factor())
            else:
                return e

    def parse_factor(self) -> Expr:
        if self.take("-"):
            return Neg(self.parse_factor())
        e = self.parse_base()
        if self.peek() == "^":
            self.pos += 1
            return Pow(e, self.parse_int_exponent())
        return e

    def parse_int_exponent(self) -> int:
        sign = -1 if self.take("-") else 1
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start or self.text[self.pos:self.pos + 1] == ".":
            raise self.error("exponent must be an integer literal")
        return sign * int(self.text[start:self.pos])

    def parse_base(self) -> Expr:
        c = self.peek()
        if c == "(":
            self.pos += 1
            e = self.parse_expr()
            self.expect(")")
            return e
        if c.isdecimal() or c == ".":
            return self.parse_number()
        if c.isalpha() or c == "_":
            return self.parse_ident()
        raise self.error("expected a number, identifier or parenthesized expression")

    def parse_number(self) -> Num:
        start = self.pos
        text = self.text
        while self.pos < len(text) and text[self.pos].isdecimal():
            self.pos += 1
        is_float = False
        if self.pos < len(text) and text[self.pos] == ".":
            is_float = True
            self.pos += 1
            while self.pos < len(text) and text[self.pos].isdecimal():
                self.pos += 1
        if self.pos < len(text) and text[self.pos] in "eE":
            # scientific suffix only when followed by digits / sign+digits,
            # otherwise leave the 'e' for the identifier rule (e.g. "2*e")
            save = self.pos
            self.pos += 1
            if self.pos < len(text) and text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(text) and text[self.pos].isdecimal():
                is_float = True
                while self.pos < len(text) and text[self.pos].isdecimal():
                    self.pos += 1
            else:
                self.pos = save
        token = text[start:self.pos]
        if token == ".":
            raise self.error("malformed number")
        return Num(float(token) if is_float else int(token))

    def parse_ident(self) -> Expr:
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self.pos += 1
        name = text[start:self.pos]
        if self.peek() == "(":
            if name not in FUNCTIONS:
                self.pos = start
                raise UnknownIdentifierError(name, start)
            self.pos += 1
            args = [self.parse_expr()]
            while self.take(","):
                args.append(self.parse_expr())
            self.expect(")")
            return Call(name, tuple(args))
        if name in self.coords:
            return Var(name)
        if name in NAMED_CONSTANTS:
            return ConstName(name)
        raise UnknownIdentifierError(name, start)


def parse_expr(text: str, coords: Sequence[str]) -> Expr:
    """Parse ``text`` against the declared coordinate names.

    Raises :class:`ExprSyntaxError` with a byte offset on malformed input
    and :class:`UnknownIdentifierError` for undeclared identifiers.
    """
    return _Parser(text, coords).parse()


# -- rings and evaluation -------------------------------------------------------


class Ring:
    """Scalar ring adapter: constant lifting plus function dispatch."""

    name = "ring"

    def lift_int(self, n: int):
        return n

    def lift_float(self, x: float):
        return x

    def named_constant(self, name: str):
        return math.pi if name == "pi" else math.e

    def div(self, a, b):
        if not isinstance(a, jet.Jet2) and not isinstance(b, jet.Jet2):
            if np.any(b == 0):
                raise EvalDomainError("division by zero")
        return a / b

    def pow_int(self, a, k: int):
        if k < 0 and not isinstance(a, jet.Jet2) and np.any(a == 0):
            raise EvalDomainError("zero raised to a negative power")
        try:
            return jet._pow(a, k)
        except OverflowError:
            raise EvalDomainError(f"power {k} overflows the float range") from None

    def call(self, fn: str, args: list):
        raise RingError(f"{self.name} ring does not support {fn}()")


class RealRing(Ring):
    name = "real"

    _SINGULAR = {
        "log": lambda u: u <= 0.0,
        "sqrt": lambda u: u < 0.0,
    }

    def call(self, fn: str, args: list):
        if len(args) != 1:
            raise RingError(f"{fn}() expects one argument")
        u = args[0]
        guard = self._SINGULAR.get(fn)
        bad = [v for v in np.ravel(u).tolist() if guard(v)] if guard else ()
        if bad:
            raise EvalDomainError(f"{fn} of out-of-domain value {bad[0]!r}")
        return jet._in_range(getattr(math, fn), u)   # e.g. exp(1e3), sin(inf) raise


class JetRing(Ring):
    name = "jet"

    def call(self, fn: str, args: list):
        if len(args) != 1:
            raise RingError(f"{fn}() expects one argument")
        u = args[0]
        if not isinstance(u, jet.Jet2):
            return RealRing().call(fn, args)  # constant subtree
        return jet.JET_FUNCTIONS[fn](u)


class RationalRing(Ring):
    name = "rational"

    def lift_int(self, n: int):
        return Fraction(n)

    def lift_float(self, x: float):
        raise RingError("rational ring rejects decimal literals")

    def named_constant(self, name: str):
        raise RingError(f"rational ring rejects the constant {name}")

    def div(self, a, b):
        if b == 0:
            raise EvalDomainError("division by zero")
        return Fraction(a) / Fraction(b)

    def pow_int(self, a, k: int):
        if a == 0 and k < 0:
            raise EvalDomainError("zero raised to a negative power")
        return Fraction(a) ** k


REAL = RealRing()
JET = JetRing()
RATIONAL = RationalRing()


class Program:
    """Expressions compiled once into a flat list of instructions.

    Each distinct node becomes one instruction, in first-visit post-order:
    ``run`` evaluates it once however many roots share it, in the order of
    a plain walk of the roots, so it raises that walk's first error. Equal
    nodes merge only when their literals also agree in type and sign and
    their exponents in type, since ``Num(1) == Num(1.0)`` and
    ``Num(0.0) == Num(-0.0)`` can evaluate differently.
    """

    def __init__(self, exprs: Iterable[Expr]):
        self.code: list[tuple] = []   # (op, a, b): operands are earlier slots
        slots: dict[tuple, int] = {}
        self.roots = tuple(self._intern(e, slots) for e in exprs)

    def _intern(self, e: Expr, slots: dict) -> int:
        match e:
            case Num(v):
                ins, key = ("num", v, None), ("num", type(v), repr(v))
            case Var(name):
                ins = key = ("var", name, None)
            case ConstName(name):
                ins = key = ("const", name, None)
            case Neg(arg):
                ins = key = ("neg", self._intern(arg, slots), None)
            case Bin(op, l, r):
                ins = key = (op, self._intern(l, slots), self._intern(r, slots))
            case Pow(base, k):
                ins = ("^", self._intern(base, slots), k)
                key = ins + (type(k), repr(k))
            case Call(fn, args):
                ins = key = ("call", fn, tuple(self._intern(a, slots) for a in args))
            case _:
                raise TypeError(f"not an expression node: {e!r}")
        if key not in slots:
            slots[key] = len(self.code)
            self.code.append(ins)
        return slots[key]

    def run(self, env: Mapping[str, object], ring: Ring = REAL) -> list:
        """The root values with coordinate values from ``env`` over ``ring``."""
        vals = []
        for op, a, b in self.code:
            if op == "*":
                v = vals[a] * vals[b]
            elif op == "+":
                v = vals[a] + vals[b]
            elif op == "-":
                v = vals[a] - vals[b]
            elif op == "/":
                v = ring.div(vals[a], vals[b])
            elif op == "^":
                v = ring.pow_int(vals[a], b)
            elif op == "neg":
                v = -vals[a]
            elif op == "call":
                v = ring.call(a, [vals[i] for i in b])
            elif op == "var":
                try:
                    v = env[a]
                except KeyError:
                    raise UnknownIdentifierError(a) from None
            elif op == "num":
                v = ring.lift_int(a) if isinstance(a, int) else ring.lift_float(a)
            else:
                v = ring.named_constant(a)
            vals.append(v)
        return [vals[r] for r in self.roots]


def eval_expr(e: Expr, env: Mapping[str, object], ring: Ring = REAL):
    """Evaluate ``e`` with coordinate values from ``env`` over ``ring``; over
    the jet ring, seeded coordinates give the value, gradient and Hessian."""
    return Program([e]).run(env, ring)[0]
