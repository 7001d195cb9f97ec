import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
from pathlib import Path

import curvlab
from curvlab.cli import build_parser, run

GOLDEN = Path(__file__).parent / "golden"

# public functions that no CLI path enters, each with the reason it stays in
# src/. RationalRing, a class and so outside this sweep, stays too: exact
# verdicts on rational charts decide which charts are rational by evaluating
# in it.
UNREACHED = {
    "identities.reevaluate_witness": "its CLI caller is the planned --verify-witness",
    "expr.eval_expr": "the one-expression entry point that the docs and tests use",
    "cli.main": "the console entry point; it calls run",
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


def _modules():
    return [curvlab] + [importlib.import_module(info.name)
                        for info in pkgutil.walk_packages(curvlab.__path__, "curvlab.")]


def test_every_exported_name_resolves():
    modules = _modules()
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert len(modules) > 10
    assert missing == []


def test_every_public_function_is_reached_by_the_cli(tmp_path):
    """Every module-level public function of the package is entered by one
    of a few CLI invocations that cover each target kind and check family,
    or is named in ``UNREACHED`` with its reason. A name only the tests use
    belongs beside them."""
    public = {}
    for mod in _modules():
        for name, obj in vars(mod).items():
            fn = inspect.unwrap(obj) if callable(obj) else obj   # cli.run sits under np.errstate
            if not name.startswith("_") and inspect.isfunction(fn) \
                    and fn.__module__ == mod.__name__:
                public[fn.__code__] = f"{mod.__name__.removeprefix('curvlab.')}.{name}"
    (tmp_path / "frame.ini").write_text(FLAT_FRAME)
    (tmp_path / "hermitian.ini").write_text(FLAT_KAHLER_R2)
    argvs = [["list"], ["report", "flat3"], ["report", "s2_round"],
             ["report", str(GOLDEN / "bare_trig_chart.ini")],
             ["identities", "h21", "--which", "g1,c(1/2),kappa-mu(1,0),consequences"],
             ["classify", str(tmp_path / "frame.ini")],
             ["report", str(tmp_path / "hermitian.ini")]]
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
