import io
import json
import os
from contextlib import redirect_stdout, redirect_stderr
from pathlib import Path

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


def test_malformed_file_exit_two(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text('[chart]\ndim = 2\ncoords = "x, y"\n[metric]\ng_11 = "x +* 1"\n')
    code, _, err = invoke(["classify", str(bad)])
    assert code == 2
    assert "byte offset" in err


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
    assert "out of the float range" in proc.stderr


@pytest.mark.parametrize("argv,points", [
    (["classify", "sine_cone_cos"], 20),
    (["identities", "s5_in_c3", "--which", "g1", "--samples", "20"], 20),
])
def test_one_metric_jets_per_sample_point(monkeypatch, argv, points):
    """Each check builds a chart point's geometry once: Γ, ∂Γ and R come
    from a single metric_jets, and covariant derivatives reuse it."""
    import curvlab.geometry as geometry
    real, calls = geometry.metric_jets, []

    def counting(chart, p):
        calls.append(tuple(p))
        return real(chart, p)

    monkeypatch.setattr(geometry, "metric_jets", counting)
    code, _, _ = invoke(argv)
    assert code == 0
    assert len(calls) == len(set(calls)) == points
