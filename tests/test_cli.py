import io
import json
import math
import os
from contextlib import redirect_stdout, redirect_stderr
from pathlib import Path

import numpy as np
import pytest

from curvlab.cli import run
from bad_inputs import (FLOAT_FAULTS, H21_FRAME, INCOMPATIBLE_CONTACT, INCOMPATIBLE_HERMITIAN,
                        MALFORMED, OVERFLOWING_CHART, TOO_DEEP)

GOLDEN = Path(__file__).parent / "golden"


def invoke(argv, env=None):
    out, err = io.StringIO(), io.StringIO()
    saved = {}
    env = env or {}
    for k, v in env.items():
        saved[k] = os.environ.get(k)
        if v is None:
            os.environ.pop(k, None)
        else:
            os.environ[k] = v
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue(), err.getvalue()


REGISTRY_LIST = ["flat3", "s2_round", "h21", "h21_chart", "flat_cosym5", "sine_cone_cos",
                 "sine_cone_sin", "r_warped_surface", "s5_in_c3", "cone_of:<contact target>",
                 "hopf_pair"]


def test_list_names():
    code, out, err = invoke(["list"])
    assert (code, out.splitlines(), err) == (0, REGISTRY_LIST, "")


@pytest.mark.parametrize("name", [n for n in REGISTRY_LIST
                                  if n not in ("h21", "h21_chart") and ":" not in n])
def test_parameter_on_a_target_that_takes_none_exits_two(name):
    """A parameter given to a target that takes none is an input error, also
    when the target is the contact target of a cone."""
    for target in (f"{name}:x", f"cone_of:{name}:x"):
        for argv in (["classify", target], ["report", target, "--json"]):
            code, out, err = invoke(argv)
            assert (code, out) == (2, "")
            assert err == f"target {name!r} takes no parameter, got 'x'\n"


@pytest.mark.parametrize("name", ["h21", "h21_chart"])
def test_empty_parameter_keeps_the_default(name):
    from curvlab.constructions import resolve_target
    assert resolve_target(f"{name}:").name == resolve_target(name).name == f"{name}(3/5,4/5)"
    runs = [invoke(["classify", t, "--samples", "5", "--json"]) for t in (name, f"{name}:")]
    (code, out, err), (code2, out2, err2) = runs
    assert (code, err) == (code2, err2) == (0, "")
    assert json.loads(out)["checks"] == json.loads(out2)["checks"]


def test_log_past_the_square_overflow_reports(tmp_path):
    """log(u) with u = exp(400 x)² ≈ 1e190: u² overflows in log's second
    derivative −1/u², which used to raise OverflowError (exit 2); the
    chart's curvature is finite, so the report is too."""
    path = tmp_path / "log.ini"
    path.write_text('[chart]\ndim = 2\ncoords = "x, y"\ndomain = "x in (0.5, 0.6)"\n'
                    '[metric]\ng_11 = "2 + log(exp(400*x)*exp(400*x))"\ng_22 = "1"\n')
    code, out, err = invoke(["report", str(path), "--json"])
    assert code in (0, 1) and err == ""
    rows = json.loads(out)["checks"]
    assert rows and all(math.isfinite(r["residual"]) for r in rows)


def test_identities_h21_exit_one():
    code, out, _ = invoke(["identities", "h21:3/5,4/5", "--which", "g1,g2",
                           "--tol", "1e-7"])
    assert code == 1
    lines = [l for l in out.splitlines() if l.strip()]
    assert any("g1" in l and "FAIL" in l for l in lines)
    assert any("g2" in l and "pass" in l for l in lines)
    assert any("witness" in l for l in lines)


def test_identities_consequences_rows():
    code, out, _ = invoke(["identities", "h21", "--which", "consequences"])
    assert "g2.xi_slot_g" in out
    assert "g3.restricted" in out


def test_classify_s5_exit_zero():
    code, out, _ = invoke(["classify", "s5_in_c3", "--samples", "5"])
    assert code == 0
    assert "sasakian_nabla_xi" in out


def test_unknown_target_exit_two():
    code, _, err = invoke(["identities", "unknown_name"])
    assert code == 2
    assert "unknown target" in err


def test_unknown_check_exit_two():
    code, _, err = invoke(["identities", "h21", "--which", "g9"])
    assert code == 2
    assert "unknown check" in err


def test_check_on_wrong_carrier_exit_two():
    code, _, err = invoke(["identities", "cone_of:s5_in_c3", "--which", "g1",
                           "--samples", "3"])
    assert code == 2
    code, _, err = invoke(["identities", "s5_in_c3", "--which", "k1",
                           "--samples", "3"])
    assert code == 2


@pytest.mark.parametrize("target,got", [
    ("cone_of:flat3", "chart"), ("cone_of:hopf_pair", "pair"),
    ("cone_of:cone_of:s5_in_c3", "hermitian"),
])
def test_cone_of_names_what_it_got(target, got):
    """A cone needs a contact target; the message names what the inner
    target is instead."""
    code, out, err = invoke(["report", target])
    assert (code, out) == (2, "")
    assert err == f"cone_of needs a contact target, got {got}\n"


def test_wrong_check_kind_is_reported_before_the_record(tmp_path):
    """A contact file whose φ cannot be evaluated at the sample points, asked
    for a check it cannot take: the check is rejected before the point
    record evaluates φ, so the kind error is the one reported."""
    path = tmp_path / "sqrt_phi.ini"
    path.write_text('[chart]\ndim = 3\ncoords = "x, y, z"\n[metric]\ng_11 = "1"\ng_22 = "1"\n'
                    'g_33 = "1"\n[phi]\nphi^2_1 = "sqrt(-1 - x^2)"\nphi^1_2 = "-1"\n'
                    '[xi]\nxi^3 = "1"\n[eta]\neta_3 = "1"\n')
    assert invoke(["identities", str(path), "--which", "g1"])[2].startswith(
        "sqrt of out-of-domain value")
    code, out, err = invoke(["identities", str(path), "--which", "g1,k1"])
    assert (code, out) == (2, "")
    assert err == "target carries no almost Hermitian structure\n"


@pytest.mark.parametrize("which", ["g1", "c(1/3),consequences", "classify"])
def test_fields_must_be_differentiable_at_the_sample_points(tmp_path, which):
    """φ, ξ and η run once, as jets, whatever the checks read: a φ whose
    value is defined at the sample points but whose gradient is not fails
    every check, those that read only its values included."""
    path = tmp_path / "sqrt0_phi.ini"
    path.write_text('[chart]\ndim = 3\ncoords = "x, y, z"\n[metric]\ng_11 = "1"\ng_22 = "1"\n'
                    'g_33 = "1"\n[phi]\nphi^2_1 = "1 + sqrt(x - x)"\nphi^1_2 = "-1"\n'
                    '[xi]\nxi^3 = "1"\n[eta]\neta_3 = "1"\n')
    code, out, err = invoke(["identities", str(path), "--which", which, "--samples", "4"])
    assert (code, out, err) == (2, "", "sqrt not differentiable at zero\n")


@pytest.mark.parametrize("content,message", [pytest.param(c, m, id=i) for i, c, m in MALFORMED])
def test_malformed_file_exit_two(tmp_path, content, message):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(content)
    code, _, err = invoke(["classify", str(bad)])
    assert code == 2
    assert message in err
    assert "np.float64" not in err   # points print as plain floats
    assert "array(" not in err and len(err.splitlines()) == 1   # one line, one scalar


@pytest.mark.parametrize("text", [pytest.param(t, id=i) for i, t in TOO_DEEP])
def test_deep_expression_exits_two(tmp_path, text):
    """An expression nested past the interpreter's stack, in the parser, in
    its compiled program or in comparing g_12 with g_21, is an input error:
    exit 2 and one line saying so, not a RecursionError."""
    path = tmp_path / "deep.ini"
    path.write_text(text)
    code, out, err = invoke(["report", str(path)])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "expression nested too deeply" in err


@pytest.mark.parametrize("content,residual",
                         [pytest.param(c, r, id=i) for i, c, r in INCOMPATIBLE_HERMITIAN])
def test_incompatible_hermitian_file_exit_two(tmp_path, content, residual):
    """k1–k3 read J as an almost complex structure compatible with g. A J
    that is not one is an input error, as an incompatible contact structure
    is for classify, not a set of passing rows."""
    bad = tmp_path / "bad.ini"
    bad.write_text(content)
    for argv in (["report", str(bad)], ["identities", str(bad), "--which", "k3,k1"]):
        code, out, err = invoke(argv)
        assert code == 2 and out == ""
        assert err == f"structure fails compatibility validation (residual {residual})\n"


def test_file_target_roundtrip(tmp_path):
    text = """
[chart]
dim = 3
coords = "x, y, z"
[metric]
g_11 = "1"
g_22 = "1"
g_33 = "1"
[phi]
phi^2_1 = "1"
phi^1_2 = "-1"
[xi]
xi^3 = "1"
[eta]
eta_3 = "1"
"""
    f = tmp_path / "cosym3.ini"
    f.write_text(text)
    code, out, _ = invoke(["identities", str(f), "--which", "c(0)",
                           "--samples", "4"])
    assert code == 0
    assert "c(0)" in out


def test_parameterized_checks():
    code, out, _ = invoke(["identities", "s5_in_c3",
                           "--which", "c(1),kappa-mu(1,0)", "--samples", "4"])
    assert code == 0
    assert "c(1)" in out and "kappa-mu(1,0)" in out


def test_json_golden_h21():
    code, out, _ = invoke(["identities", "h21:3/5,4/5", "--which", "g1,g2,g3",
                           "--json"])
    assert code == 1
    golden = (GOLDEN / "identities_h21.json").read_text()
    assert out == golden


def test_json_golden_classify_sine_cone():
    code, out, _ = invoke(["classify", "sine_cone_cos", "--samples", "4",
                           "--json"])
    assert code == 0
    golden = (GOLDEN / "classify_sine_cone.json").read_text()
    assert out == golden


def test_json_golden_sine_cone_battery():
    code, out, _ = invoke(["identities", "sine_cone_cos", "--which",
                           "g1,g2,g3,c(1/2),kappa-mu(1,0),consequences",
                           "--samples", "5", "--seed", "3", "--json"])
    assert code == 1
    golden = (GOLDEN / "identities_sine_cone_battery.json").read_text()
    assert out == golden


def test_json_golden_bare_chart_report(monkeypatch):
    """A bare chart with sin, cos and rational entries and one off-diagonal
    entry; the symmetry residuals are rounding-level, so every bit counts."""
    monkeypatch.chdir(GOLDEN)
    code, out, _ = invoke(["report", "bare_trig_chart.ini", "--samples", "6",
                           "--seed", "7", "--json"])
    assert code == 0
    golden = (GOLDEN / "report_bare_trig_chart.json").read_text()
    assert out == golden


def test_json_golden_s5_report():
    """The hypersurface induction rows after the classify and g1–g3 rows;
    umbilicity, h(X, ξ), pullback and structure are rounding-level."""
    code, out, _ = invoke(["report", "s5_in_c3", "--samples", "7", "--seed", "3",
                           "--json"])
    assert code == 0
    golden = (GOLDEN / "report_s5_in_c3.json").read_text()
    assert out == golden


def test_json_byte_determinism():
    argv = ["report", "s5_in_c3", "--samples", "4", "--json"]
    _, a, _ = invoke(argv)
    _, b, _ = invoke(argv)
    assert a == b
    doc = json.loads(a)
    assert set(doc) == {"target", "seed", "tolerance", "checks"}
    for row in doc["checks"]:
        assert set(row) <= {"tag", "residual", "verdict", "witness"}


def test_seed_env_override():
    _, out_default, _ = invoke(["classify", "sine_cone_cos", "--samples", "3",
                                "--json"], env={"CURVLAB_SEED": None})
    _, out_env, _ = invoke(["classify", "sine_cone_cos", "--samples", "3",
                            "--json"], env={"CURVLAB_SEED": "7"})
    assert json.loads(out_default)["seed"] == 42
    assert json.loads(out_env)["seed"] == 7
    # explicit flag beats the environment
    _, out_flag, _ = invoke(["classify", "sine_cone_cos", "--samples", "3",
                             "--seed", "5", "--json"], env={"CURVLAB_SEED": "7"})
    assert json.loads(out_flag)["seed"] == 5


def test_report_chart_target_symmetries():
    code, out, _ = invoke(["report", "s2_round", "--samples", "3"])
    assert code == 0
    assert "symmetry.first_bianchi" in out


def test_report_pair_includes_lift_rows():
    code, out, _ = invoke(["report", "hopf_pair", "--samples", "3"])
    assert "lift.lift_connection" in out
    assert "lift.dpi_xi" in out


def test_bad_flags_exit_two():
    code, _, _ = invoke(["identities", "h21", "--tol", "-1"])
    assert code == 2
    code, _, _ = invoke(["identities", "h21", "--samples", "0"])
    assert code == 2


@pytest.mark.parametrize("target", ["s5_in_c3", "sine_cone_cos", "h21"])
@pytest.mark.parametrize("command,flags,env", [
    ("classify", ["--seed", "-5"], None),
    ("report", [], {"CURVLAB_SEED": "-3"}),
])
def test_negative_seed_exits_two(target, command, flags, env):
    """A negative seed is an input error on every target, frames included
    although they never sample: one line on stderr, no traceback."""
    code, out, err = invoke([command, target] + flags, env=env)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "seed" in err


def test_non_finite_tol_exit_two():
    for tol in ("nan", "inf", "-inf"):
        code, _, err = invoke(["identities", "h21", "--which", "g2", f"--tol={tol}"])
        assert code == 2, tol
        assert "finite tol" in err


def test_rational_check_parameters_stay_exact():
    from fractions import Fraction
    from curvlab.cli import _parse_check
    from conftest import check_c_alpha
    from curvlab.frame import heisenberg_h21
    from curvlab.structures import AlmostContactStructure, contact_point_data
    name, (alpha,) = _parse_check("c(1/3)")
    assert (name, alpha) == ("c_alpha", Fraction(1, 3))
    # c(α) = 1 + |α| on h21
    s = AlmostContactStructure(heisenberg_h21(Fraction(3, 5), Fraction(4, 5)))
    assert check_c_alpha(alpha, contact_point_data(s)).exact == Fraction(4, 3)
    assert _parse_check("kappa-mu(1/3,0)") == ("kappa_mu", (Fraction(1, 3), Fraction(0)))
    code, out, _ = invoke(["identities", "h21", "--which", "c(1/3),kappa-mu(1,0)", "--json"])
    assert code == 1
    rows = json.loads(out)["checks"]
    assert [r["tag"] for r in rows] == ["c(0.333333)", "kappa-mu(1,0)"]
    assert rows[0]["residual"] == float(Fraction(4, 3))


def test_unrepresentable_check_parameter_exit_two():
    code, _, err = invoke(["identities", "h21", "--which", "c(1e400)"])
    assert code == 2
    assert "bad parameters" in err


CONTACT_BLOCK = """[phi]
phi^2_1 = "1"
phi^1_2 = "-1"
[xi]
xi^3 = "1"
[eta]
eta_3 = "1"
"""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv,block", [
    (["report"], ""),
    (["identities", "--which", "g1"], CONTACT_BLOCK),
    (["identities", "--which", "consequences"], CONTACT_BLOCK),
    (["identities", "--which", "kappa-mu(1,0)"], CONTACT_BLOCK),
])
def test_nan_curvature_never_passes(tmp_path, argv, block):
    """The Hessian of exp(700 x) overflows, so every curvature sample is NaN:
    the sweep must stop with exit 2 instead of reporting a pass."""
    path = tmp_path / "overflow.ini"
    path.write_text(OVERFLOWING_CHART + block)
    code, out, err = invoke(argv[:1] + [str(path)] + argv[1:] + ["--samples", "3"])
    assert code == 2
    assert "non-finite residual" in err
    assert "pass" not in out


def test_overflow_exits_two_without_traceback(tmp_path):
    """exp(exp(10 x)) overflows the float range on the sampled domain: that
    is an input error (exit 2), reported in one line, not a crash (exit 1)."""
    import subprocess
    import sys
    import curvlab
    path = tmp_path / "overflow.ini"
    path.write_text(OVERFLOWING_CHART.replace("exp(700*x)", "exp(exp(10*x))"))
    env = dict(os.environ, PYTHONPATH=str(Path(curvlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "curvlab.cli", "report", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    # one line naming one scalar, not an array of the sample points
    assert proc.stderr == "exp of 21416.490403837517 is out of the float range\n"
    assert "array(" not in proc.stderr


@pytest.mark.parametrize("chart,message", [pytest.param(c, m, id=i) for i, c, m in FLOAT_FAULTS])
def test_floating_point_faults_print_one_line(tmp_path, chart, message):
    """An overflowing jet reads as a non-finite residual, and a NaN metric
    entry as a metric that is not positive definite at the first sample
    point: exit 2 and one line on stderr, with no numpy warning ahead of it
    (a subprocess, so stderr is the real one)."""
    import subprocess
    import sys
    import curvlab
    path = tmp_path / "fault.ini"
    path.write_text(chart)
    env = dict(os.environ, PYTHONPATH=str(Path(curvlab.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "curvlab.cli", "report", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == message + "\n"


def test_underflowing_jet_reports_finite(tmp_path):
    """log(u) with u = x²⁰⁰ ≈ 1e-200: u² underflows in log's second
    derivative −1/u², which used to leave a NaN Hessian (exit 2); the metric
    is smooth, so the report is finite and its symmetry rows pass."""
    path = tmp_path / "underflow.ini"
    path.write_text('[chart]\ndim = 2\ncoords = "x, y"\n[metric]\n'
                    'g_11 = "2 + log(x^200)/1000"\ng_22 = "1"\n')
    code, out, err = invoke(["report", str(path), "--seed", "1", "--json"])
    assert code == 0 and err == ""
    rows = json.loads(out)["checks"]
    assert len(rows) == 4 and all(math.isfinite(r["residual"]) and r["verdict"] for r in rows)


BATTERY = ["g1", "g2", "g3", "c(1/2)", "kappa-mu(1,0)", "consequences"]


@pytest.mark.parametrize("argv,points", [
    (["classify", "sine_cone_cos"], 20),
    (["identities", "s5_in_c3", "--which", "g1", "--samples", "20"], 20),
    (["identities", "s5_in_c3", "--which", "g1,g2,g3,kappa-mu(1,0),consequences",
      "--samples", "20"], 20),
    (["report", "cone_of:s5_in_c3", "--samples", "20"], 20),
    # 20 total-space points and the 20 base points below them, one batch each
    (["report", "hopf_pair", "--samples", "20"], 40),
    # 20 sample points and the 3 probes of the ambient Kähler check, one batch each
    (["report", "s5_in_c3", "--samples", "20"], 23),
])
def test_one_metric_jets_per_sample_point(monkeypatch, argv, points):
    """An invocation runs a chart point's metric once, over jets: sampling
    runs the metric program over the 20 sample points, its g is what the
    positive-definiteness check reads, and Γ, ∂Γ and R of the point record
    every check reads come from the same run; a submersion's 20 base points
    come in a second run, and so do a hypersurface's ambient Kähler probes.
    No point is differentiated twice, and no program runs over floats."""
    import curvlab.geometry as geometry
    real, calls = geometry.metric_jets, []

    def counting(chart, p):
        calls.append(np.atleast_2d(p))   # one point (d,) or a batch (N, d)
        return real(chart, p)

    monkeypatch.setattr(geometry, "metric_jets", counting)
    _, runs = _watch_programs(monkeypatch)
    code, _, _ = invoke(argv)
    assert code == 0
    assert [len(batch) for batch in calls].count(20) == points // 20
    rows = [tuple(row) for batch in calls for row in batch]
    assert len(rows) == len(set(rows)) == points
    assert len(calls) == -(-points // 20)
    assert {ring for _, ring, _ in runs} == {"jet", "jet1"}   # the fields' run is first-order


def test_one_jet_walk_of_immersion_and_normal(monkeypatch):
    """report s5_in_c3 runs one program, the immersion and then the normal,
    once over all the sample points. Its normal is its immersion, so the
    two halves of the program share their instructions."""
    import curvlab.constructions.hypersurface as hypersurface
    real, calls = hypersurface._expr_jets, []

    def counting(program, env):
        calls.append((program, next(iter(env.values())).value.shape))
        return real(program, env)

    monkeypatch.setattr(hypersurface, "_expr_jets", counting)
    code, _, _ = invoke(["report", "s5_in_c3", "--samples", "20"])
    assert code == 0
    assert [(len(program.roots), shape) for program, shape in calls] == [(12, (20,))]
    roots = calls[0][0].roots
    assert roots[:6] == roots[6:]


def _watch_programs(monkeypatch):
    """The programs compiled from here on, in order, and the runs of any
    program as (program, ring name, points); a jet run whose seeds carry
    no Hessians is named "jet1"."""
    from curvlab import expr as ex
    compiled, ran = [], []
    init, run_program = ex.Program.__init__, ex.Program.run

    def compiling(self, exprs):
        compiled.append(self)
        init(self, exprs)

    def running(self, env, ring=ex.REAL):
        value = next(iter(env.values()), 0.0)
        first_order = getattr(value, "hess", 0) is None
        ran.append((self, ring.name + "1" * first_order, np.size(getattr(value, "value", value))))
        return run_program(self, env, ring)

    monkeypatch.setattr(ex.Program, "__init__", compiling)
    monkeypatch.setattr(ex.Program, "run", running)
    return compiled, ran


def test_resolving_a_target_compiles_no_program(monkeypatch):
    """A chart, field or construction compiles its expressions on first run,
    so building a target compiles nothing."""
    from curvlab.constructions import registry_names, resolve_target
    compiled, _ = _watch_programs(monkeypatch)
    names = [n for n in registry_names() if not n.startswith("cone_of:")]
    for name in names + ["h21:-5/13,12/13", "cone_of:s5_in_c3", "cone_of:sine_cone_cos"]:
        resolve_target(name)
    assert compiled == []


def test_an_invocation_compiles_only_the_programs_it_runs(monkeypatch):
    """The k-sweep on a cone runs its metric and J, and compiles no program
    of the base structure, its patch or its ambient."""
    compiled, ran = _watch_programs(monkeypatch)
    code, _, _ = invoke(["identities", "cone_of:s5_in_c3", "--which", "k1,k2,k3",
                         "--samples", "5"])
    assert code == 0
    assert len(compiled) == 2 and {id(p) for p in compiled} == {id(p) for p, *_ in ran}


def test_one_field_evaluation_per_sample_point(monkeypatch):
    """φ, ξ and η are evaluated once per point and invocation, in one jet run
    of the structure's program over the sample points, into the point
    record every check reads: its values and gradients, with no Hessians.
    With the metric's one jet run, that is every program run; none runs
    over floats."""
    _, runs = _watch_programs(monkeypatch)
    code, _, _ = invoke(["identities", "s5_in_c3", "--which",
                         "g1,g2,g3,kappa-mu(1,0),consequences", "--samples", "20"])
    assert code == 0
    # the metric's upper triangle (15 entries), then φ, ξ and η (25 + 5 + 5
    # components) at the 20 points: 60 field-point pairs, each once
    assert [(len(p.roots), ring, n) for p, ring, n in runs] == [(15, "jet", 20),
                                                               (35, "jet1", 20)]


@pytest.mark.parametrize("target", ["h21", "s5_in_c3"])
def test_repeated_checks_repeat_their_rows(target):
    """One sweep computes each distinct row once; a check asked for twice,
    or a c(α) whose α is written twice, still prints its rows twice."""
    def rows(which):
        code, out, _ = invoke(["identities", target, "--which", which, "--samples", "3",
                               "--json"])
        assert code in (0, 1)
        return json.loads(out)["checks"]

    g1, c1 = rows("g1,g1,c(1),c(1.0)")[::2]
    assert rows("g1,g1,c(1),c(1.0)") == [g1, g1, c1, c1] == rows("g1") * 2 + rows("c(1)") * 2
    assert c1["tag"] == "c(1)"
    assert rows("consequences,consequences") == rows("consequences") * 2


@pytest.mark.parametrize("target,first,second", [
    ("s5_in_c3", "c(1)", "c(1.0000001)"), ("h21", "c(1/3)", "c(0.333333)"),
])
def test_distinct_alphas_sharing_a_tag_keep_their_rows(target, first, second):
    """Two α that print alike are still two checks: each row of the pair
    is the row that check prints alone."""
    def rows(which):
        code, out, _ = invoke(["identities", target, "--which", which, "--samples", "3",
                               "--json"])
        assert code in (0, 1)
        return json.loads(out)["checks"]

    pair = rows(f"{first},{second}")
    assert pair == rows(first) + rows(second)
    assert pair[0]["tag"] == pair[1]["tag"] and pair[0] != pair[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("which,tag", [
    ("kappa-mu(1,0),g1", "kappa-mu(1,0)"), ("g1,kappa-mu(1,0)", "g1"),
    ("consequences,g2", "g1.xi_slot_g"), ("g3,consequences", "g3"),
    ("c(1/2),g1", "c(0.5)"),
])
def test_first_failing_check_in_order_is_reported(tmp_path, which, tag):
    """Every row of this chart is NaN. The identity rows are swept before
    any row is emitted, but each residual is checked as its row is emitted,
    so the error names the first check in --which order."""
    path = tmp_path / "overflow.ini"
    path.write_text(OVERFLOWING_CHART + CONTACT_BLOCK)
    code, out, err = invoke(["identities", str(path), "--which", which, "--samples", "3"])
    assert (code, out) == (2, "")
    assert err == f"non-finite residual in {tag}\n"


@pytest.mark.parametrize("target,checks", [
    ("s5_in_c3", BATTERY), ("sine_cone_cos", BATTERY), ("h21_chart:3/5,4/5", BATTERY),
    ("cone_of:s5_in_c3", ["k1", "k2", "k3"]),
])
def test_shared_point_records_do_not_leak_between_checks(target, checks):
    """Every check of one invocation reads the same point records. The
    battery's rows must equal those of one invocation per check, so no
    check may change a shared array in place."""
    def rows(which):
        code, out, _ = invoke(["identities", target, "--which", which,
                               "--samples", "5", "--json"])
        assert code in (0, 1)
        return json.loads(out)["checks"]

    assert rows(",".join(checks)) == [row for check in checks for row in rows(check)]


def test_classify_rejects_incompatible_frame(tmp_path):
    """Frames follow the chart rule: a compatibility residual above the
    tolerance is an input error, not a classification."""
    good = tmp_path / "h21.ini"
    good.write_text(H21_FRAME)
    assert invoke(["classify", str(good)])[0] == 0
    bad = tmp_path / "h21_bad_phi.ini"
    bad.write_text(dict(INCOMPATIBLE_CONTACT)["incompatible_frame"])
    code, out, err = invoke(["classify", str(bad)])
    assert code == 2
    assert "fails compatibility validation" in err
    assert out == ""
