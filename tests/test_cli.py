import io
import json
import os
from contextlib import redirect_stdout, redirect_stderr
from pathlib import Path

import numpy as np
import pytest

from curvlab.cli import run

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


def test_list_names():
    code, out, _ = invoke(["list"])
    assert code == 0
    for name in ("h21", "s5_in_c3", "hopf_pair", "sine_cone_cos"):
        assert name in out


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


@pytest.mark.parametrize("content,message", [
    pytest.param(b'[chart]\ndim = 2\ncoords = "x, y"\n[metric]\ng_11 = "x +* 1"\n',
                 "byte offset", id="expression_syntax"),
    pytest.param(b"\xff\xfe[chart]\n", "not valid UTF-8", id="not_utf8"),
    pytest.param(b'[chart]\ndim = 2\ncoords = "x, x"\n[metric]\ng_11 = "1"\ng_22 = "1"\n',
                 "duplicate coordinate names", id="duplicate_coords"),
    pytest.param(b'[chart]\ndim = 1\ncoords = "x"\n[metric]\ng_11 = "-1"\n',
                 "metric not positive definite at (1.", id="not_positive_definite"),
    pytest.param(b'[chart]\ndim = 1\ncoords = "1x"\n[metric]\ng_11 = "1"\n',
                 "coordinate name '1x' does not parse", id="coordinate_1x"),
    pytest.param(b'[chart]\ndim = 1\ncoords = "x y"\n[metric]\ng_11 = "1"\n',
                 "coordinate name 'x y' does not parse", id="coordinate_x_y"),
    pytest.param(b'[chart]\ndim = 2\ncoords = "x, y"\n[metric]\ng_11 = "1"\ng_12 = "2"\n'
                 b'g_22 = "1"\n', "(leading minor 2)", id="leading_minor_2"),
    pytest.param(b'[chart]\ndim = 1\ncoords = "x"\n[metric]\ng_11 = "2 + log(x)"\n',
                 "log of out-of-domain value -0.", id="log_of_negative"),
])
def test_malformed_file_exit_two(tmp_path, content, message):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(content)
    code, _, err = invoke(["classify", str(bad)])
    assert code == 2
    assert message in err
    assert "np.float64" not in err   # points print as plain floats
    assert "array(" not in err and len(err.splitlines()) == 1   # one line, one scalar


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
    from curvlab.identities import check_c_alpha
    from curvlab.frame import heisenberg_h21
    from curvlab.structures import AlmostContactStructure
    name, (alpha,) = _parse_check("c(1/3)")
    assert (name, alpha) == ("c_alpha", Fraction(1, 3))
    # c(α) = 1 + |α| on h21
    s = AlmostContactStructure(heisenberg_h21(Fraction(3, 5), Fraction(4, 5)))
    assert check_c_alpha(s, alpha).exact == Fraction(4, 3)
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


OVERFLOWING_CHART = """[chart]
dim = 3
coords = "x, y, z"
domain = "x in (0.99, 1)"
[metric]
g_11 = "1"
g_22 = "1 + exp(700*x)"
g_33 = "1"
"""
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_underflowing_jet_exits_two(tmp_path):
    """log's second derivative −1/u² at u = x²⁰⁰ ≈ 1e-200 divides by an
    underflowed 0: the jet reads −inf and the curvature check stops with
    exit 2, where a scalar float division raised ZeroDivisionError."""
    path = tmp_path / "underflow.ini"
    path.write_text('[chart]\ndim = 2\ncoords = "x, y"\n[metric]\n'
                    'g_11 = "2 + log(x^200)/1000"\ng_22 = "1"\n')
    code, out, err = invoke(["report", str(path), "--seed", "1"])
    assert code == 2
    assert "non-finite residual" in err and out == ""


BATTERY = ["g1", "g2", "g3", "c(1/2)", "kappa-mu(1,0)", "consequences"]


@pytest.mark.parametrize("argv,points", [
    (["classify", "sine_cone_cos"], 20),
    (["identities", "s5_in_c3", "--which", "g1", "--samples", "20"], 20),
    (["identities", "s5_in_c3", "--which", "g1,g2,g3,kappa-mu(1,0),consequences",
      "--samples", "20"], 20),
    (["report", "cone_of:s5_in_c3", "--samples", "20"], 20),
    # 20 total-space points and the 20 base points below them
    (["report", "hopf_pair", "--samples", "20"], 40),
    # 20 sample points and 3 probes of the ambient Kähler check
    (["report", "s5_in_c3", "--samples", "20"], 23),
])
def test_one_metric_jets_per_sample_point(monkeypatch, argv, points):
    """An invocation builds a chart point's geometry once: Γ, ∂Γ and R of
    the 20 sample points come from one batched metric_jets, and every check
    reads that point record. No point is differentiated twice."""
    import curvlab.geometry as geometry
    real, calls = geometry.metric_jets, []

    def counting(chart, p):
        calls.append(np.atleast_2d(p))   # one point (d,) or a batch (N, d)
        return real(chart, p)

    monkeypatch.setattr(geometry, "metric_jets", counting)
    code, _, _ = invoke(argv)
    assert code == 0
    assert [len(batch) for batch in calls].count(20) == 1
    rows = [tuple(row) for batch in calls for row in batch]
    assert len(rows) == len(set(rows)) == points


def test_one_field_evaluation_per_sample_point(monkeypatch):
    """φ, ξ and η are evaluated once per point and invocation, each in one
    batch over the sample points, into the point record every check reads."""
    import curvlab.structures as structures
    real, calls = structures.eval_field, []

    def counting(f, p):
        calls.append((id(f), np.atleast_2d(p)))
        return real(f, p)

    monkeypatch.setattr(structures, "eval_field", counting)
    code, _, _ = invoke(["identities", "s5_in_c3", "--which",
                         "g1,g2,g3,kappa-mu(1,0),consequences", "--samples", "20"])
    assert code == 0
    assert len(calls) == 3
    pairs = [(f, tuple(row)) for f, batch in calls for row in batch]
    assert len(pairs) == len(set(pairs)) == 60


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


H21_FRAME = """[frame]
dim = 5
c[5][1][3] = "2"
c[5][2][4] = "2"
g[1][1] = "1"
g[2][2] = "1"
g[3][3] = "1"
g[4][4] = "1"
g[5][5] = "1"
phi[1][3] = "-3/5"
phi[1][4] = "-4/5"
phi[2][3] = "-4/5"
phi[2][4] = "3/5"
phi[3][1] = "3/5"
phi[3][2] = "4/5"
phi[4][1] = "4/5"
phi[4][2] = "-3/5"
xi[5] = "1"
eta[5] = "1"
"""


def test_classify_rejects_incompatible_frame(tmp_path):
    """Frames follow the chart rule: a compatibility residual above the
    tolerance is an input error, not a classification."""
    good = tmp_path / "h21.ini"
    good.write_text(H21_FRAME)
    assert invoke(["classify", str(good)])[0] == 0
    bad = tmp_path / "h21_bad_phi.ini"
    bad.write_text(H21_FRAME.replace('phi[3][1] = "3/5"', 'phi[3][1] = "2"'))
    code, out, err = invoke(["classify", str(bad)])
    assert code == 2
    assert "fails compatibility validation" in err
    assert out == ""
