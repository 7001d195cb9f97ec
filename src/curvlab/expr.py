"""Expression ASTs, text parser and ring-generic evaluator.

Metric and tensor components are defined as small closed-form expressions
and evaluated over one of three scalar rings: plain floats, second-order
jets (for derivatives) or exact rationals (for frame definitions; the
rational ring rejects transcendental operations and decimal literals).
Float and jet coordinates may carry a leading axis of N points; one walk
of the expression then evaluates it at all of them.

Inner nodes (``Neg``, ``Bin``, ``Pow``, ``Call``) compute their structural
hash once, at construction. A caller that walks several expressions over
one environment, such as the metric entries of a chart, passes one memo
dict to every ``eval_expr`` of that walk and drops it afterwards; each
distinct subtree is then evaluated once. Structural equality takes
``Num(1)`` for ``Num(1.0)``, so a memo hit must also match the literal
types below the node; the memo never changes a value or an error.

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
from typing import Mapping, Sequence, Union

import numpy as np

from . import jet
from .errors import EvalDomainError, ExprSyntaxError, RingError, UnknownIdentifierError

__all__ = [
    "Expr", "Num", "ConstName", "Var", "Neg", "Bin", "Pow", "Call",
    "parse_expr", "eval_expr", "to_text", "free_variables",
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


def _literal_sig(e) -> object:
    """What structural equality does not see in ``e``: None when every
    literal and exponent below ``e`` is an int, else a tuple that mirrors the
    tree and records each literal's type and sign (``Num(1) == Num(1.0)`` and
    ``Num(0.0) == Num(-0.0)``, but they can evaluate differently)."""
    if type(e) is Num:
        v = e.value
        return None if type(v) is int else (type(v), math.copysign(1.0, v))
    return getattr(e, "_sig", None)


def _seal(node, fields: tuple, sigs: tuple):
    """Cache ``node``'s structural hash (children's hashes are cached in
    turn, so this is O(1)) and its literal signature, once, at construction."""
    object.__setattr__(node, "_hash", hash((type(node), *fields)))
    object.__setattr__(node, "_sig", None if sigs.count(None) == len(sigs) else sigs)


def _node_hash(node) -> int:
    return node._hash


def _node_reduce(node):
    # str hashes are salted per process: unpickling rebuilds the cached hash
    return type(node), tuple(getattr(node, f) for f in node.__match_args__)


@dataclass(frozen=True)
class Neg:
    arg: "Expr"

    def __post_init__(self):
        _seal(self, (self.arg,), (_literal_sig(self.arg),))

    __hash__, __reduce__ = _node_hash, _node_reduce


@dataclass(frozen=True)
class Bin:
    op: str  # '+', '-', '*', '/'
    left: "Expr"
    right: "Expr"

    def __post_init__(self):
        _seal(self, (self.op, self.left, self.right),
              (_literal_sig(self.left), _literal_sig(self.right)))

    __hash__, __reduce__ = _node_hash, _node_reduce


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int

    def __post_init__(self):
        k = self.exponent
        _seal(self, (self.base, k),
              (_literal_sig(self.base), None if type(k) is int else type(k)))

    __hash__, __reduce__ = _node_hash, _node_reduce


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple

    def __post_init__(self):
        _seal(self, (self.fn, self.args), tuple(map(_literal_sig, self.args)))

    __hash__, __reduce__ = _node_hash, _node_reduce


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
        self.skip_ws()
        start = self.pos
        if self.take("-"):
            pass
        self.skip_ws()
        digits_start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits_start:
            raise self.error("exponent must be an integer literal")
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            raise self.error("exponent must be an integer literal")
        return int(self.text[start:self.pos].replace(" ", ""))

    def parse_base(self) -> Expr:
        c = self.peek()
        if c == "(":
            self.pos += 1
            e = self.parse_expr()
            self.expect(")")
            return e
        if c.isdigit() or c == ".":
            return self.parse_number()
        if c.isalpha() or c == "_":
            return self.parse_ident()
        raise self.error("expected a number, identifier or parenthesized expression")

    def parse_number(self) -> Num:
        start = self.pos
        text = self.text
        while self.pos < len(text) and text[self.pos].isdigit():
            self.pos += 1
        is_float = False
        if self.pos < len(text) and text[self.pos] == ".":
            is_float = True
            self.pos += 1
            while self.pos < len(text) and text[self.pos].isdigit():
                self.pos += 1
        if self.pos < len(text) and text[self.pos] in "eE":
            # scientific suffix only when followed by digits / sign+digits,
            # otherwise leave the 'e' for the identifier rule (e.g. "2*e")
            save = self.pos
            self.pos += 1
            if self.pos < len(text) and text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(text) and text[self.pos].isdigit():
                is_float = True
                while self.pos < len(text) and text[self.pos].isdigit():
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


# -- printer ------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _prec(e: Expr) -> int:
    match e:
        case Bin(op, _, _):
            return _PREC[op]
        case Neg(_):
            return _PREC["neg"]
        case Pow(_, _):
            return _PREC["pow"]
        case _:
            return _PREC["atom"]


def to_text(e: Expr) -> str:
    """Canonical text form; ``parse(to_text(parse(s)))`` is a fixed point."""

    def wrap(child: Expr, minimum: int) -> str:
        s = to_text(child)
        return f"({s})" if _prec(child) < minimum else s

    match e:
        case Num(v):
            return repr(v)
        case ConstName(name):
            return name
        case Var(name):
            return name
        case Neg(arg):
            return "-" + wrap(arg, _PREC["neg"])
        case Bin(op, l, r):
            p = _PREC[op]
            # left-associative: right operand needs strictly higher precedence
            left = wrap(l, p)
            right = wrap(r, p + 1)
            return f"{left} {op} {right}"
        case Pow(base, k):
            b = wrap(base, _PREC["atom"])
            return f"{b}^{k}"
        case Call(fn, args):
            return f"{fn}(" + ", ".join(to_text(a) for a in args) + ")"
    raise TypeError(f"not an expression node: {e!r}")


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


def eval_expr(e: Expr, env: Mapping[str, object], ring: Ring = REAL, memo: dict | None = None):
    """Evaluate ``e`` with coordinate values from ``env`` over ``ring``.

    Over the jet ring, seeding every coordinate yields the value, gradient
    and Hessian in a single pass. ``memo`` is an empty dict that a caller
    creates for one walk, one ``env`` and one ring, passes to each
    ``eval_expr`` of the walk and then drops: each distinct inner subtree
    is then evaluated once, and a repeat returns the same value object.
    """
    match e:
        case Num(v):
            return ring.lift_int(v) if isinstance(v, int) else ring.lift_float(v)
        case ConstName(name):
            return ring.named_constant(name)
        case Var(name):
            try:
                return env[name]
            except KeyError:
                raise UnknownIdentifierError(name) from None
    if memo is not None:
        hit = memo.get(e)
        if hit is not None and hit[0] == e._sig:
            return hit[1]
    match e:
        case Neg(arg):
            value = -eval_expr(arg, env, ring, memo)
        case Bin(op, l, r):
            a = eval_expr(l, env, ring, memo)
            b = eval_expr(r, env, ring, memo)
            if op == "+":
                value = a + b
            elif op == "-":
                value = a - b
            elif op == "*":
                value = a * b
            else:
                value = ring.div(a, b)
        case Pow(base, k):
            value = ring.pow_int(eval_expr(base, env, ring, memo), k)
        case Call(fn, args):
            value = ring.call(fn, [eval_expr(a, env, ring, memo) for a in args])
        case _:
            raise TypeError(f"not an expression node: {e!r}")
    if memo is not None:
        memo[e] = e._sig, value
    return value
