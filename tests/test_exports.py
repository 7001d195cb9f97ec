import contextlib
import functools
import importlib
import inspect
import io
import pkgutil
import sys
from pathlib import Path

import curvlab
from curvlab.cli import build_parser, run

GOLDEN = Path(__file__).parent / "golden"

# public functions and methods that no CLI path enters, each with the reason
# it stays in src/
_RATIONAL = "the exact scalar ring that exact chart verdicts (ROADMAP.md, item 4) evaluate in"
UNREACHED = {
    "identities.reevaluate_witness": "its CLI caller is the planned --verify-witness",
    "expr.eval_expr": "the one-expression entry point that the docs and tests use",
    "cli.main": "the console entry point; it calls run",
    "expr.Ring.call": "RationalRing's function call, which it inherits: " + _RATIONAL,
    **{f"expr.RationalRing.{name}": _RATIONAL
       for name in ("lift_int", "lift_float", "named_constant", "div", "pow_int")},
}

FLAT_FRAME = """[frame]
dim = 3
g[1][1] = "1"
g[2][2] = "1"
g[3][3] = "1"
phi[2][1] = "1"
phi[1][2] = "-1"
xi[3] = "1"
eta[3] = "1"
"""

FLAT_KAHLER_R2 = """[chart]
dim = 2
coords = "x, y"
[metric]
g_11 = "1"
g_22 = "1"
[hermitian]
J^2_1 = "1"
J^1_2 = "-1"
"""

# a float literal and a named constant: the rings lift both
FLOAT_PI_CHART = """[chart]
dim = 2
coords = "x, y"
[metric]
g_11 = "1.5 + sin(pi*x)^2/4"
g_22 = "2"
"""


def _modules():
    return [curvlab] + [importlib.import_module(info.name)
                        for info in pkgutil.walk_packages(curvlab.__path__, "curvlab.")]


def test_every_exported_name_resolves():
    modules = _modules()
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert len(modules) > 10
    assert missing == []


def _function(attr):
    """The function behind a public function, method, property or cached
    property, or None."""
    fn = attr.fget if isinstance(attr, property) else \
        attr.func if isinstance(attr, functools.cached_property) else attr
    fn = inspect.unwrap(fn) if callable(fn) else fn   # cli.run sits under np.errstate
    return fn if inspect.isfunction(fn) else None


def test_every_public_function_is_reached_by_the_cli(tmp_path):
    """Every public function of the package, and every public method and
    property of its public classes, is entered by one of a few CLI
    invocations that cover each target kind and check family, or is named in
    ``UNREACHED`` with its reason. A name only the tests use belongs beside
    them."""
    public = {}
    for mod in _modules():
        short = mod.__name__.removeprefix("curvlab.")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for attr, value in vars(obj).items():
                    fn = None if attr.startswith("_") else _function(value)
                    if fn is not None:
                        public[fn.__code__] = f"{short}.{name}.{attr}"
            elif (fn := _function(obj)) is not None:
                public[fn.__code__] = f"{short}.{name}"
    (tmp_path / "frame.ini").write_text(FLAT_FRAME)
    (tmp_path / "hermitian.ini").write_text(FLAT_KAHLER_R2)
    (tmp_path / "float_pi.ini").write_text(FLOAT_PI_CHART)
    argvs = [["list"], ["report", "flat3"], ["report", "s2_round"],
             ["report", str(GOLDEN / "bare_trig_chart.ini")],
             ["identities", "h21", "--which", "g1,c(1/2),kappa-mu(1,0),consequences"],
             ["classify", str(tmp_path / "frame.ini")],
             ["report", str(tmp_path / "hermitian.ini")],
             ["report", str(tmp_path / "float_pi.ini")]]
    for target in ("s5_in_c3", "hopf_pair", "sine_cone_cos", "r_warped_surface",
                   "flat_cosym5", "h21_chart", "cone_of:s5_in_c3"):
        argvs += [["report", target],
                  ["identities", target, "--which", "c(1/2),kappa-mu(1,0),consequences"]]

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    build_parser.cache_clear()   # an earlier test may have built the one parser already
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(run(argv + ["--samples", "2"] if argv != ["list"] else argv))
    finally:
        sys.setprofile(previous)
    # every invocation ran to a verdict, apart from the contact checks on a cone
    assert codes.count(2) == 1 and codes[-1] == 2
    assert sorted(name for code, name in public.items() if code not in entered) \
        == sorted(UNREACHED)
