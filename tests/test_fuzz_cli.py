"""Fuzz the exit contract over argv and manifold-file text.

Whatever the input, ``cli.run`` returns 0 (every verdict holds), 1 (a
check failed) or 2 (input error), and raises nothing. A ``--json`` report
is strict JSON: NaN and Infinity are not JSON, so a non-finite residual
must never reach stdout. The generators cover chart files (random metric
expressions, optionally with a complex structure), frame files (bad
indices, non-rational and out-of-range values) and raw text. The runs are
derandomized and use no example database (the profile that
``conftest.py`` loads), so the suite stays deterministic.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from curvlab.cli import run

# "1e400" parses to an infinite literal and "nan" is an unknown identifier
ATOMS = ("x", "y", "0", "1", "2", "-1", "1/2", "0.5", "pi", "1e400", "1e-400", "nan")
FUNCS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")
# exact values load, including 1e400 and 1e-400; the rest are malformed
FRAME_VALUES = ("0", "1", "-1", "2", "1/2", "3/5", "-4/5", "1.5", "1e400", "1e-400") * 2 + (
    "1/0", "nan", "inf", "x", "", "10^3")

expressions = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/+-*/^"), inner).map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(st.sampled_from(FUNCS), inner).map(lambda t: f"{t[0]}({t[1]})")),
    max_leaves=6)


@st.composite
def chart_files(draw):
    dim = draw(st.sampled_from([2, 3]))
    coords = "xyz"[:dim]
    lines = ["[chart]", f"dim = {dim}", f'coords = "{", ".join(coords)}"']
    if draw(st.booleans()):
        lo, hi = draw(st.sampled_from([("0", "1"), ("-1", "1"), ("0.99", "1"), ("0", "inf")] * 2
                                      + [("1", "0"), ("0", "0.001"), ("-inf", "nan")]))
        lines.append(f'domain = "x in ({lo}, {hi})"')
    lines.append("[metric]")
    perturb = draw(st.booleans())   # else the metric and structure are well formed
    for i in range(dim):
        for j in range(i, dim):
            base = "0" if i != j else "1" if i == 2 else "1 + x^2"
            value = draw(st.one_of(st.just(base), expressions,
                                   expressions.map(lambda e, b=base: f"{b} + ({e})/9"))
                         if perturb else st.just(base))
            lines.append(f'g_{i + 1}{j + 1} = "{value}"')
    sign = st.sampled_from(["1", "-1"]) | expressions if perturb else st.just("1")
    if draw(st.booleans()):   # a structure: J in dimension 2, (φ, ξ, η) in dimension 3
        if dim == 2:
            lines += ["[hermitian]", f'J^2_1 = "{draw(sign)}"', f'J^1_2 = "-{draw(sign)}"']
        else:
            lines += ["[phi]", f'phi^2_1 = "{draw(sign)}"', f'phi^1_2 = "-{draw(sign)}"',
                      "[xi]", 'xi^3 = "1"', "[eta]", 'eta_3 = "1"']
    return "\n".join(lines) + "\n"


@st.composite
def frame_files(draw):
    dim = draw(st.sampled_from([2, 3, 5]))
    lines = ["[frame]", f"dim = {draw(st.sampled_from([dim] * 6 + ['x', 0, -1]))}"]
    lines += [f'g[{i}][{i}] = "1"' for i in range(1, dim + 1)]
    lines += ['phi[2][1] = "1"', 'phi[1][2] = "-1"', f'xi[{dim}] = "1"', f'eta[{dim}] = "1"']
    index = st.sampled_from(list(range(1, dim + 1)) * 3 + [0, dim + 1]).map(lambda i: f"[{i}]")
    for _ in range(draw(st.integers(0, 4))):
        name, arity = draw(st.sampled_from([("c", 3), ("g", 2), ("phi", 2), ("xi", 1),
                                            ("eta", 1)]))
        n_idx = draw(st.sampled_from([arity] * 4 + [arity - 1, arity + 1]))
        key = name + "".join(draw(index) for _ in range(n_idx))
        lines.append(f'{key} = "{draw(st.sampled_from(FRAME_VALUES))}"')
    return "\n".join(lines) + "\n"


raw_text = st.text(alphabet=st.sampled_from(list('[]="\n _^xyzgchartmeiJ0123456789(),.-+*/')),
                   max_size=120)

commands = st.one_of(
    st.just(["classify"]),
    st.just(["report"]),
    st.sampled_from(["g1", "g1,g2,g3", "k1,k2,k3", "c(1/2)", "c(1e400)", "c(nan)",
                     "kappa-mu(1,0)", "consequences", "classify", "g4", "", "c(1,2)"])
    .map(lambda w: ["identities", "--which", w]))

options = st.lists(
    st.sampled_from([["--samples", "1"], ["--samples", "3"], ["--seed", "7"],
                     ["--tol", "1e-3"], ["--json"]] * 4
                    + [["--samples", "0"], ["--tol", "nan"], ["--tol", "0"], ["--seed", "x"],
                       ["--seed", "-1"], ["--bogus"]]),
    max_size=3).map(lambda opts: [a for o in opts for a in o])


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# [frame] values are exact, so 1e400 loads; classify then turns a residual
# past the float range into a float
OVERFLOWING_FRAME = """[frame]
dim = 3
g[1][1] = "1"
g[2][2] = "1"
g[3][3] = "1"
phi[2][1] = "1"
phi[1][2] = "-1"
xi[3] = "1"
eta[3] = "1"
c[1][1][3] = "1e400"
"""


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=st.one_of(chart_files(), frame_files(), raw_text), command=commands,
       opts=options, as_json=st.booleans())
@example(text=OVERFLOWING_FRAME, command=["classify"], opts=[], as_json=False)
def test_exit_contract(text, command, opts, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "manifold.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [command[0], path] + command[1:] + opts + (["--json"] if as_json else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2)
    if "--json" in argv and code != 2:
        doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert set(doc) == {"target", "seed", "tolerance", "checks"}
