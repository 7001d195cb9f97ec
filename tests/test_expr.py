import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import expr as ex
from curvlab import jet
from curvlab.errors import (CurvlabError, EvalDomainError, ExprSyntaxError, RingError,
                            UnknownIdentifierError)
from reference import to_text, walk

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


@pytest.mark.parametrize("text", ["x^-\t2", "x^-\u00a02"])
def test_exponent_sign_may_be_followed_by_any_whitespace(text):
    assert parse(text) == ex.Pow(ex.Var("x"), -2)


@pytest.mark.parametrize("text", ["x^²", "x^-²", "²", "x*²", "1²"])
def test_superscript_digits_are_syntax_errors(text):
    """``str.isdigit`` admits superscripts, which ``int`` and ``float``
    reject; the parser reads decimal digits only."""
    with pytest.raises(ExprSyntaxError):
        parse(text)


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


@pytest.mark.parametrize("text", ["(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x"],
                         ids=["parentheses", "minus"])
def test_nesting_past_the_stack_is_a_syntax_error(text):
    """The parser recurses once per parenthesis or unary minus; past the
    interpreter's stack that is a syntax error at the expression's start."""
    with pytest.raises(ExprSyntaxError, match=r"^expression nested too deeply \(at offset 0\)$"):
        parse(text)


def test_program_of_a_tree_past_the_stack_raises():
    """A sum of 3000 terms parses in a loop into a tree 3000 levels deep,
    which ``Program`` compiles by recursion: a CurvlabError, not a
    RecursionError."""
    e = parse("+".join(["x"] * 3000))
    with pytest.raises(CurvlabError, match=r"^expression nested too deeply$"):
        ex.Program([e])


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
    printed = to_text(tree)
    assert parse(printed) == tree
    assert to_text(parse(printed)) == printed


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
    assert ex.parse_expr(to_text(tree), ("x", "y")) == tree


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


# -- the interned program -----------------------------------------------------

WALK_LEAVES = ["0", "1", "2", "3", "710", "0.5", "1.0", "1e-3", "x", "y", "pi"]
WALK_FUNCTIONS = ["sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh"]


@st.composite
def texts(draw, pool=(), depth=0):
    """Expression text in the parser's grammar. A leaf is a literal, a
    coordinate or, when ``pool`` is given, one of its texts, so the parsed
    trees repeat those subtrees as equal but distinct objects."""
    kind = draw(st.integers(0, 6)) if depth < 3 else 0
    if kind == 0:
        return draw(st.sampled_from(WALK_LEAVES + [f"({t})" for t in pool]))
    if kind == 1:
        return f"-({draw(texts(pool, depth + 1))})"
    if kind in (2, 3):
        op = draw(st.sampled_from("+-*/"))
        return f"({draw(texts(pool, depth + 1))}) {op} ({draw(texts(pool, depth + 1))})"
    if kind == 4:
        return f"({draw(texts(pool, depth + 1))})^{draw(st.sampled_from([-2, -1, 0, 1, 2, 3, 40]))}"
    return f"{draw(st.sampled_from(WALK_FUNCTIONS))}({draw(texts(pool, depth + 1))})"


@st.composite
def walks(draw):
    """A few expressions sharing subtrees, as the roots of one program."""
    pool = draw(st.lists(texts(), min_size=1, max_size=3))
    return [parse(t) for t in draw(st.lists(texts(pool), min_size=1, max_size=4))]


def _bits(v):
    """Everything a walk's result carries: its type and, for arrays and
    jets, the bytes of every array (stricter than ``np.array_equal``, which
    takes −0.0 for 0.0)."""
    if isinstance(v, jet.Jet2):
        return "jet", v.value.tobytes(), v.grad.tobytes(), v.hess.tobytes(), v.hess.shape
    if isinstance(v, np.ndarray):
        return "array", v.dtype.str, v.shape, v.tobytes()
    return type(v), repr(v)


def _outcome(values):
    """The bits of each value that ``values()`` returns, or its first error
    as (type, message)."""
    try:
        return [_bits(v) for v in values()]
    except Exception as err:   # the program must raise the walk's error, with its text
        return type(err), str(err)


def _assert_program_equals_walk(exprs, env, ring, program=None):
    program = program or ex.Program(exprs)
    assert (_outcome(lambda: program.run(env, ring))
            == _outcome(lambda: [walk(e, env, ring) for e in exprs]))


def _real_and_jet_envs(points):
    pts = np.array(points, dtype=float)
    sx, sy = jet.seeds(pts)
    return [({"x": pts[:, 0], "y": pts[:, 1]}, ex.REAL), ({"x": sx, "y": sy}, ex.JET)]


@given(walks(), st.lists(st.tuples(st.sampled_from([0.0, -1.0, 2.0, 700.0]) | st.floats(-3, 3),
                                   st.floats(-3, 3)), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_program_equals_reference_walk(exprs, points):
    """One program over the expressions, run at N points on the float and
    jet rings, gives each root the value of a plain walk
    (``reference.walk``) bit for bit, or the walk's first error (log or
    sqrt of a negative, overflow, division by zero) with its message."""
    with np.errstate(all="ignore"):
        for env, ring in _real_and_jet_envs(points):
            _assert_program_equals_walk(exprs, env, ring)


def test_program_raises_the_first_error_of_the_walk():
    """Over the rational ring the walk stops at the first decimal literal or
    named constant, in root order, and so does the program."""
    exprs = [parse(t) for t in ("1/4 + x", "sin(y) + 0.5", "pi*x", "sin(y)")]
    env = {"x": Fraction(1, 3), "y": Fraction(2)}
    for roots in (exprs, exprs[2:], exprs[::-1], exprs[:1]):
        _assert_program_equals_walk(roots, env, ex.RATIONAL)
    assert ex.Program(exprs[:1]).run(env, ex.RATIONAL) == [Fraction(7, 12)]


@pytest.mark.parametrize("pair", [
    ("x*((3^40 + 1) - 3^40)", "x*((3.0^40 + 1) - 3^40)"),   # exact int vs rounded float
    ("x*(10^400/10^399)", "x*(10.0^400/10^399)"),           # 10.0^400 overflows
])
def test_memo_keeps_int_and_float_literals_apart(pair):
    """``Num(1) == Num(1.0)``, and so are the trees around them, but an int
    and a float literal can evaluate differently. As roots of one program
    they stay apart."""
    exprs = [parse(t) for t in pair]
    assert exprs[0] == exprs[1]
    for roots in (exprs, exprs[::-1], exprs + exprs[::-1]):
        program = ex.Program(roots)
        assert program.roots[0] != program.roots[1]
        for env, ring in _real_and_jet_envs([[1.5, 0.0], [-2.0, 0.0]]):
            _assert_program_equals_walk(roots, env, ring, program)


def test_memo_keeps_zero_signs_and_exponent_types_apart():
    x = ex.Var("x")
    signed = [ex.Bin("*", x, ex.Num(0.0)), ex.Bin("*", x, ex.Num(-0.0))]
    powers = [ex.Pow(x, 2), ex.Pow(x, 2.0)]   # the jet ring rejects a float exponent
    for exprs in (signed, powers, powers[::-1]):
        assert exprs[0] == exprs[1]
        program = ex.Program(exprs)
        assert program.roots[0] != program.roots[1]
        for env, ring in _real_and_jet_envs([[1.5, 0.0]]):
            _assert_program_equals_walk(exprs, env, ring, program)


def test_program_interns_each_distinct_node_once():
    """Equal subtrees built apart share one instruction; the roots read it."""
    exprs = [parse(t) for t in ("sin(x)^2 + y", "y + sin(x)^2", "sin(x)^2 + y")]
    program = ex.Program(exprs)
    # x, sin(x), sin(x)^2, y, sin(x)^2 + y, y + sin(x)^2
    assert len(program.code) == 6
    assert program.roots == (4, 5, 4)


def test_hash_matches_equality_and_survives_pickling():
    """String hashes are salted per process, so a tree pickled in another
    process must equal, and hash as, one built here."""
    import os
    import pickle
    import subprocess
    import sys
    a, b = parse("sin(x)^2 + 1.0*y"), parse("sin(x)^2 + 1*y")
    assert a == b and hash(a) == hash(b)
    code = ("import pickle, sys; from curvlab import expr; sys.stdout.buffer.write("
            "pickle.dumps(expr.parse_expr('sin(x)^2 + 1.0*y', ('x', 'y'))))")
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    c = pickle.loads(subprocess.run([sys.executable, "-c", code], env=env,
                                    check=True, capture_output=True).stdout)
    assert c == a and hash(c) == hash(a)
    assert len({c: 1, a: 2}) == 1
