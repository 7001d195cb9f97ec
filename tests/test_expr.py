import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import expr as ex
from curvlab import jet
from curvlab.errors import (EvalDomainError, ExprSyntaxError, RingError,
                            UnknownIdentifierError)

COORDS = ("x", "y", "u", "v", "z")


def parse(text, coords=COORDS):
    return ex.parse_expr(text, coords)


# -- parsing -----------------------------------------------------------------

def test_parse_cos_squared():
    e = parse("cos(z)^2")
    assert e == ex.Pow(ex.Call("cos", (ex.Var("z"),)), 2)


def test_parse_quarter_plus_product():
    e = ex.parse_expr("1/4 + x1*x1", ("x1", "x2", "y1", "y2", "z"))
    assert e == ex.Bin("+", ex.Bin("/", ex.Num(1), ex.Num(4)),
                       ex.Bin("*", ex.Var("x1"), ex.Var("x1")))


def test_unknown_identifier_named():
    with pytest.raises(UnknownIdentifierError) as err:
        ex.parse_expr("cos(w)", ("x", "y"))
    assert err.value.name == "w"


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x + * y")
    assert err.value.offset == 4


def test_non_integer_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("x^2.5")
    with pytest.raises(ExprSyntaxError):
        parse("x^y")


def test_whitespace_insensitive():
    assert parse(" x + y * z ") == parse("x+y*z")


def test_precedence_and_associativity():
    # ^ binds above unary minus; left-assoc chains
    assert parse("-x^2") == ex.Neg(ex.Pow(ex.Var("x"), 2))
    assert parse("x - y - z") == ex.Bin("-", ex.Bin("-", ex.Var("x"), ex.Var("y")),
                                        ex.Var("z"))
    assert parse("x + y*z") == ex.Bin("+", ex.Var("x"),
                                      ex.Bin("*", ex.Var("y"), ex.Var("z")))
    assert parse("(-x)^2") == ex.Pow(ex.Neg(ex.Var("x")), 2)


def test_call_arity_and_nesting():
    e = parse("sin(cos(x) + exp(y))")
    assert isinstance(e, ex.Call) and e.fn == "sin"


def test_named_constants():
    assert ex.eval_expr(parse("pi"), {}) == math.pi
    assert ex.eval_expr(parse("e"), {}) == math.e


def test_coordinate_shadows_constant():
    e = ex.parse_expr("e + 1", ("e",))
    assert ex.eval_expr(e, {"e": 2.0}) == 3.0


def test_trailing_input_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("x + y)")


# -- printer round trip --------------------------------------------------------

ROUND_TRIP_SAMPLES = [
    "cos(z)^2",
    "1/4 + x*x",
    "-x^2 + (x + y)*z",
    "x/(y*z) - sqrt(u)",
    "sin(x*y) + exp(x)",
    "2*pi*x - e",
    "x^-2",
    "-(x + y)",
    "(x - y) - z",
    "x - (y - z)",
]


@pytest.mark.parametrize("text", ROUND_TRIP_SAMPLES)
def test_print_parse_fixed_point(text):
    tree = parse(text)
    printed = ex.to_text(tree)
    assert parse(printed) == tree
    assert ex.to_text(parse(printed)) == printed


@st.composite
def expr_trees(draw, depth=0):
    if depth > 3:
        return draw(st.sampled_from([ex.Num(1), ex.Num(2), ex.Var("x"), ex.Var("y")]))
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return ex.Num(draw(st.integers(0, 9)))
    if kind == 1:
        return draw(st.sampled_from([ex.Var("x"), ex.Var("y"), ex.ConstName("pi")]))
    if kind == 2:
        return ex.Neg(draw(expr_trees(depth=depth + 1)))
    if kind == 3:
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        return ex.Bin(op, draw(expr_trees(depth=depth + 1)),
                      draw(expr_trees(depth=depth + 1)))
    if kind == 4:
        return ex.Pow(draw(expr_trees(depth=depth + 1)), draw(st.integers(-3, 3)))
    fn = draw(st.sampled_from(["sin", "cos", "exp"]))
    return ex.Call(fn, (draw(expr_trees(depth=depth + 1)),))


@given(expr_trees())
@settings(max_examples=80, deadline=None)
def test_printer_round_trips_random_trees(tree):
    assert ex.parse_expr(ex.to_text(tree), ("x", "y")) == tree


# -- evaluation over the three rings ---------------------------------------------

def test_eval_real_arithmetic():
    assert ex.eval_expr(parse("x^2 + y"), {"x": 3, "y": 4}) == 13


def test_eval_jet_cos_squared():
    e = parse("cos(z)^2")
    out = ex.eval_expr(e, {"z": jet.seed([0.0], 0)}, ex.JET)
    assert out.value == 1.0
    assert out.grad[0] == 0.0
    assert out.hess[0, 0] == -2.0


def test_eval_rational_exact():
    e = parse("x*y")
    out = ex.eval_expr(e, {"x": Fraction(1, 2), "y": Fraction(1, 3)}, ex.RATIONAL)
    assert out == Fraction(1, 6)
    assert isinstance(out, Fraction)


def test_rational_rejects_transcendentals():
    with pytest.raises(RingError):
        ex.eval_expr(parse("sin(x)"), {"x": Fraction(1)}, ex.RATIONAL)
    with pytest.raises(RingError):
        ex.eval_expr(parse("pi"), {}, ex.RATIONAL)
    with pytest.raises(RingError):
        ex.eval_expr(ex.Num(0.5), {}, ex.RATIONAL)


def test_rational_literal_stays_exact():
    out = ex.eval_expr(parse("1/4 + x"), {"x": Fraction(1, 4)}, ex.RATIONAL)
    assert out == Fraction(1, 2)


def test_domain_errors_propagate():
    with pytest.raises(EvalDomainError):
        ex.eval_expr(parse("1/x"), {"x": 0.0})
    with pytest.raises(EvalDomainError):
        ex.eval_expr(parse("log(x)"), {"x": -1.0})
    with pytest.raises(EvalDomainError):
        ex.eval_expr(parse("sqrt(x)"), {"x": jet.seed([-2.0], 0)}, ex.JET)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("text", [
    "exp(exp(10*x))", "cosh(1000*x)", "sinh(1000*x)", "(10*x)^400",
    "sin(exp(700*x)*exp(700*x))",
])
def test_float_range_errors_are_domain_errors(text):
    """Overflow, and a math function of inf, raise EvalDomainError on both
    float rings rather than OverflowError or ValueError."""
    e = parse(text)
    with pytest.raises(EvalDomainError):
        ex.eval_expr(e, {"x": 1.0})
    with pytest.raises(EvalDomainError):
        ex.eval_expr(e, {"x": jet.seed([1.0], 0)}, ex.JET)


@pytest.mark.parametrize("text", [
    "x^2 + y", "sin(x*y) + exp(x)", "cos(x)^2/(1 + y^2)", "sqrt(x + 3) - pi",
])
def test_real_equals_jet_value_exactly(text):
    import numpy as np
    rng = np.random.default_rng(21)
    e = parse(text)
    for _ in range(20):
        x0, y0 = rng.uniform(0.1, 1.5, 2)
        real = ex.eval_expr(e, {"x": x0, "y": y0})
        sx, sy = jet.seeds([x0, y0])
        jval = ex.eval_expr(e, {"x": sx, "y": sy}, ex.JET)
        assert real == jval.value
