import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import jet
from curvlab.errors import EvalDomainError

# Finite-difference oracles, independent of the jet rules. The gradient step
# is 1e-5; second differences sit at the float64 roundoff floor there, so
# Hessian checks use 1e-4 where the total FD error is ~1e-8.
GRAD_STEP = 1e-5
HESS_STEP = 1e-4
RTOL = 1e-6


def fd_gradient(f, x, h=GRAD_STEP):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def fd_hessian(f, x, h=HESS_STEP):
    x = np.asarray(x, dtype=float)
    n = len(x)
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                H[i, i] = (f(xp) - 2 * f(x) + f(xm)) / h**2
            else:
                xpp, xpm, xmp, xmm = (x.copy() for _ in range(4))
                xpp[i] += h; xpp[j] += h
                xpm[i] += h; xpm[j] -= h
                xmp[i] -= h; xmp[j] += h
                xmm[i] -= h; xmm[j] -= h
                H[i, j] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4 * h**2)
    return H


def rel_close(a, b, tol=RTOL):
    return np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b)))


# -- seeds ----------------------------------------------------------------------

def test_seed_examples():
    j = jet.seed([2.0, 5.0], 0)
    assert j.value == 2.0
    assert np.array_equal(j.grad, [1.0, 0.0])
    assert np.all(j.hess == 0.0)

    j = jet.seed([0.0], 0)
    assert j.value == 0.0 and j.grad[0] == 1.0 and j.hess[0, 0] == 0.0

    j = jet.seed([1.0, 1.0, 1.0], 2)
    assert j.value == 1.0
    assert np.array_equal(j.grad, [0.0, 0.0, 1.0])
    assert np.all(j.hess == 0.0)


def test_seed_index_out_of_range():
    with pytest.raises(IndexError):
        jet.seed([1.0, 2.0], 2)
    with pytest.raises(IndexError):
        jet.seed([1.0], -1)


def test_square_of_seed():
    x = jet.seed([3.0], 0)
    sq = x * x
    assert sq.value == 9.0
    assert sq.grad[0] == 6.0
    assert sq.hess[0, 0] == 2.0


def test_sin_at_zero():
    s = jet.JET_FUNCTIONS["sin"](jet.seed([0.0], 0))
    assert s.value == 0.0 and s.grad[0] == 1.0 and s.hess[0, 0] == 0.0


def test_cos_at_zero_vs_fd():
    c = jet.JET_FUNCTIONS["cos"](jet.seed([0.0], 0))
    assert c.value == 1.0 and c.grad[0] == 0.0
    assert c.hess[0, 0] == -1.0
    assert rel_close(c.grad, fd_gradient(lambda x: math.cos(x[0]), [0.0]))
    assert rel_close(c.hess, fd_hessian(lambda x: math.cos(x[0]), [0.0]))


# -- every elementary rule against finite differences ---------------------------

UNARY_CASES = [
    ("sin", math.sin, (-2.0, 2.0)),
    ("cos", math.cos, (-2.0, 2.0)),
    ("tan", math.tan, (-1.2, 1.2)),
    ("exp", math.exp, (-2.0, 2.0)),
    ("log", math.log, (0.3, 4.0)),
    ("sqrt", math.sqrt, (0.3, 4.0)),
    ("sinh", math.sinh, (-2.0, 2.0)),
    ("cosh", math.cosh, (-2.0, 2.0)),
]


@pytest.mark.parametrize("tag,ref,window", UNARY_CASES)
def test_unary_rules_match_fd(tag, ref, window):
    rng = np.random.default_rng(11)
    for _ in range(25):
        x0 = rng.uniform(*window)
        out = jet.JET_FUNCTIONS[tag](jet.seed([x0], 0))
        f = lambda x: ref(x[0])
        assert abs(out.value - f([x0])) <= 1e-12 * max(1.0, abs(out.value))
        assert rel_close(out.grad, fd_gradient(f, [x0]))
        assert rel_close(out.hess, fd_hessian(f, [x0]))


BINARY_CASES = [
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("mul", lambda a, b: a * b),
    ("div", lambda a, b: a / b),
]


@pytest.mark.parametrize("tag,ref", BINARY_CASES)
def test_binary_rules_match_fd(tag, ref):
    rng = np.random.default_rng(12)
    for _ in range(25):
        p = rng.uniform(0.5, 2.0, 2)  # away from the division pole
        out = ref(jet.seed(p, 0), jet.seed(p, 1))
        f = lambda x: ref(x[0], x[1])
        assert rel_close(out.grad, fd_gradient(f, p))
        assert rel_close(out.hess, fd_hessian(f, p))


@pytest.mark.parametrize("k", [-3, -1, 0, 1, 2, 5])
def test_pow_int_matches_fd(k):
    rng = np.random.default_rng(13)
    for _ in range(10):
        x0 = rng.uniform(0.5, 2.0)
        out = jet.seed([x0], 0) ** k
        f = lambda x: x[0] ** k
        assert rel_close(out.grad, fd_gradient(f, [x0]))
        assert rel_close(out.hess, fd_hessian(f, [x0]))


def test_neg_rule():
    x = jet.seed([1.5], 0)
    out = -jet.JET_FUNCTIONS["sin"](x)
    assert out.value == -math.sin(1.5)
    assert out.grad[0] == -math.cos(1.5)


@given(st.floats(min_value=-1.5, max_value=1.5),
       st.floats(min_value=-1.5, max_value=1.5))
@settings(max_examples=60, deadline=None)
def test_composition_against_fd(x0, y0):
    # f(x, y) = sin(x y) + exp(x)
    def f(p):
        return math.sin(p[0] * p[1]) + math.exp(p[0])

    xs, ys = jet.seeds([x0, y0])
    out = jet.JET_FUNCTIONS["sin"](xs * ys) + jet.JET_FUNCTIONS["exp"](xs)
    assert abs(out.value - f([x0, y0])) <= 1e-12 * max(1.0, abs(out.value))
    assert rel_close(out.grad, fd_gradient(f, [x0, y0]))
    assert rel_close(out.hess, fd_hessian(f, [x0, y0]))


def test_composition_hundred_seeded_points():
    def f(p):
        return math.sin(p[0] * p[1]) + math.exp(p[0])

    rng = np.random.default_rng(42)
    for _ in range(100):
        p = rng.uniform(-1.5, 1.5, 2)
        xs, ys = jet.seeds(p)
        out = jet.JET_FUNCTIONS["sin"](xs * ys) + jet.JET_FUNCTIONS["exp"](xs)
        assert rel_close(out.grad, fd_gradient(f, p))
        assert rel_close(out.hess, fd_hessian(f, p))


def test_hessian_symmetry():
    rng = np.random.default_rng(5)
    p = rng.uniform(0.5, 1.5, 3)
    x, y, z = jet.seeds(p)
    out = (x * y) * jet.JET_FUNCTIONS["exp"](z) / (x + y)
    assert np.array_equal(out.hess, out.hess.T)


def test_mixed_scalar_arithmetic():
    x = jet.seed([2.0], 0)
    out = 1.0 / x + 3 * x - 2
    assert out.value == 0.5 + 6 - 2
    assert abs(out.grad[0] - (-0.25 + 3)) < 1e-15


# -- domain errors ----------------------------------------------------------------

def test_division_by_zero_raises():
    x = jet.seed([0.0], 0)
    with pytest.raises(EvalDomainError):
        1.0 / x


def test_log_of_nonpositive_raises():
    with pytest.raises(EvalDomainError):
        jet.JET_FUNCTIONS["log"](jet.seed([0.0], 0))
    with pytest.raises(EvalDomainError):
        jet.JET_FUNCTIONS["log"](jet.seed([-1.0], 0))


def test_sqrt_of_negative_raises():
    with pytest.raises(EvalDomainError):
        jet.JET_FUNCTIONS["sqrt"](jet.seed([-0.5], 0))


# -- batched jets: each point bit for bit a one-point jet ---------------------------

# N = 5 points of two variables; u = x y + x/2 + 1/4 has a full Hessian, and
# every rule's window below is reached through it
POINTS = np.array([[0.31, 0.72], [0.55, -0.4], [0.9, 0.13], [0.12, 0.95], [0.66, 0.58]])


def _inner(x, y):
    return x * y + x / 2 + 0.25


def assert_batch_is_per_point(fn, points=POINTS):
    """fn over jets at all rows of ``points`` equals fn at each row alone."""
    batch = fn(*jet.seeds(points))
    assert batch.value.shape == points.shape[:1]
    for n, p in enumerate(points):
        one = fn(*jet.seeds(p))
        assert np.array_equal(batch.value[n], one.value)
        assert np.array_equal(batch.grad[n], one.grad)
        assert np.array_equal(batch.hess[n], one.hess)


@pytest.mark.parametrize("tag", sorted(jet.JET_FUNCTIONS))
def test_batched_functions_match_single_points(tag):
    assert_batch_is_per_point(lambda x, y: jet.JET_FUNCTIONS[tag](_inner(x, y)))


@pytest.mark.parametrize("tag,ref", BINARY_CASES)
def test_batched_arithmetic_matches_single_points(tag, ref):
    assert_batch_is_per_point(lambda x, y: ref(_inner(x, y), y - 2))
    assert_batch_is_per_point(lambda x, y: ref(3, _inner(x, y)))
    assert_batch_is_per_point(lambda x, y: ref(_inner(x, y), 0.75))


@pytest.mark.parametrize("k", [-2, 0, 1, 2, 3])
def test_batched_powers_match_single_points(k):
    assert_batch_is_per_point(lambda x, y: _inner(x, y) ** k)


@pytest.mark.parametrize("fn", [
    *(functools.partial(lambda tag, x, y: jet.JET_FUNCTIONS[tag](_inner(x, y)), tag)
      for tag in sorted(jet.JET_FUNCTIONS)),
    *(functools.partial(lambda ref, x, y: ref(_inner(x, y), y - 2) + ref(3, x) - ref(y, 0.75), ref)
      for _, ref in BINARY_CASES),
    *(functools.partial(lambda k, x, y: -_inner(x, y) ** k, k) for k in (-2, 0, 1, 2, 3)),
])
def test_first_order_jets_are_full_jets_without_hessians(fn):
    """Seeded without Hessians, every rule gives the value and gradient of
    the full jet bit for bit, and no Hessian."""
    full, first = fn(*jet.seeds(POINTS)), fn(*jet.seeds(POINTS, hessians=False))
    assert first.hess is None
    assert first.value.tobytes() == full.value.tobytes()
    assert first.grad.tobytes() == full.grad.tobytes()


def _tan_rule(x):
    t = math.tan(x)
    d = 1.0 + t * t
    return t, d, 2.0 * t * d


def _sqrt_rule(x):
    r = math.sqrt(x)
    return r, 0.5 / r, -0.25 / (r * x)


# f, f', f'' of each rule from scalar ``math`` calls and Python float pow
SCALAR_RULES = {
    "sin": lambda x: (math.sin(x), math.cos(x), -math.sin(x)),
    "cos": lambda x: (math.cos(x), -math.sin(x), -math.cos(x)),
    "tan": _tan_rule,
    "exp": lambda x: (math.exp(x),) * 3,
    "log": lambda x: (math.log(x), 1.0 / x, -1.0 / x**2),
    "sqrt": _sqrt_rule,
    "sinh": lambda x: (math.sinh(x), math.cosh(x), math.sinh(x)),
    "cosh": lambda x: (math.cosh(x), math.sinh(x), math.cosh(x)),
}


@pytest.mark.parametrize("tag,window", [(t, w) for t, _, w in UNARY_CASES]
                         + [(f"pow{k}", (0.1, 5.0)) for k in (-2, -1, 2, 3)])
def test_batched_rules_are_scalar_math(tag, window):
    """Over 20000 points numpy's vectorised exp, tan, log, sinh, cosh and
    ``**`` differ from ``math`` and Python's pow in the last bit on some
    values; a batched jet must give the scalar numbers at every point."""
    xs = np.random.default_rng(21).uniform(*window, 20000)
    u = jet.seed(xs[:, None], 0)
    if tag.startswith("pow"):
        k = int(tag[3:])
        out = u**k
        want = [(x**k, k * x ** (k - 1), k * (k - 1) * x ** (k - 2)) for x in xs.tolist()]
    else:
        out = jet.JET_FUNCTIONS[tag](u)
        want = [SCALAR_RULES[tag](x) for x in xs.tolist()]
    f0, f1, f2 = np.array(want).T
    assert np.array_equal(out.value, f0)
    assert np.array_equal(out.grad[:, 0], f1)
    assert np.array_equal(out.hess[:, 0, 0], f2)


def test_batched_domain_errors_name_the_first_value():
    u = jet.seed(np.array([[1.0], [800.0], [900.0]]), 0)
    with pytest.raises(EvalDomainError, match=r"^exp of 800\.0 is out of the float range$"):
        jet.JET_FUNCTIONS["exp"](u)
    with pytest.raises(EvalDomainError, match=r"^log of out-of-domain value -899\.0$"):
        jet.JET_FUNCTIONS["log"](u - 900.0)
    with pytest.raises(EvalDomainError, match=r"^division by zero$"):
        1.0 / (u - 800.0)
    with pytest.raises(OverflowError):
        u**200


def test_log_second_derivative_keeps_pow_bits():
    """log''(x) = −1/x² is ``-1.0 / _pow(x, 2)`` bit for bit wherever the
    square is finite, and −0.0 where it overflows (|x| ≥ 2⁵¹²), where
    ``_pow`` raises OverflowError."""
    rng = np.random.default_rng(5)
    finite = np.concatenate([
        [5e-324, 1e-310, 1e-200, 0.3, 1.0, 2.5, 1e154, np.nextafter(2.0**512, 0), -1e100,
         math.nan],
        10.0 ** rng.uniform(-320, math.log10(2.0**512), 2000)])
    with np.errstate(all="ignore"):
        assert jet._log_f2(finite).tobytes() == (-1.0 / jet._pow(finite, 2)).tobytes()
    for v in (2.0**512, 1.35e154, 1e200, -1e300, 1.7976931348623157e308):
        with pytest.raises(OverflowError):
            jet._pow(np.array([v]), 2)
        out = jet._log_f2(np.array([v]))
        assert out[0] == 0.0 and np.signbit(out[0])


def test_log_hessian_past_the_square_overflow():
    """log(u) for u = exp(400 x)² ≈ 1e191: u² and ∇u ∇uᵀ overflow, yet the
    jet of log u = 800 x is finite, its Hessian 0 up to rounding."""
    x = jet.seed(np.array([[0.55], [0.6]]), 0)
    e = jet.JET_FUNCTIONS["exp"](400.0 * x)
    with np.errstate(over="ignore", invalid="ignore"):   # as the CLI runs
        v = jet.JET_FUNCTIONS["log"](e * e)
    assert np.allclose(v.value, [440.0, 480.0]) and np.allclose(v.grad, 800.0)
    assert np.all(np.isfinite(v.hess)) and np.max(np.abs(v.hess)) <= 1e-6


def test_log_hessian_past_the_square_underflow():
    """log(u) for u = x²⁰⁰: at x = 0.1 and 0.04, u² underflows and ∇u ∇uᵀ
    with it, yet the Hessian of log u = 200 log x is −200/x², as at 1.5."""
    xs = np.array([0.1, 0.04, 1.5])
    x = jet.seed(xs[:, None], 0)
    with np.errstate(all="ignore"):   # as the CLI runs
        v = jet.JET_FUNCTIONS["log"](x**200)
    assert np.allclose(v.grad[:, 0], 200.0 / xs, rtol=1e-12)
    assert np.allclose(v.hess[:, 0, 0], -200.0 / xs**2, rtol=1e-12)


POW_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, math.inf, -math.inf, math.nan,
             1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0, 2.5]


@pytest.mark.parametrize("k", [0, 1])
def test_pow_zero_and_one_skip_the_loop_exactly(k):
    """``_pow`` returns ones for k = 0 and a copy for k = 1 without calling
    ``pow``: the bytes must be Python's ``pow`` at ±0, subnormals, ±inf, NaN
    and the ends of the float range."""
    xs = np.array(POW_EDGES)
    out = jet._pow(xs, k)
    assert out.tobytes() == np.array([pow(v, k) for v in POW_EDGES]).tobytes()
    assert out is not xs and not np.shares_memory(out, xs)
    grid = xs.reshape(4, 4)
    assert jet._pow(grid, k).tobytes() == out.tobytes() and jet._pow(grid, k).shape == (4, 4)
