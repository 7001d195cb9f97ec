"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Tolerances are pinned here and nowhere else.
"""

import io
import math
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from curvlab import geometry as geo
from curvlab.chart import Chart, sample
from curvlab.identities import Witness, reevaluate_witness
from curvlab.structures import classify
from curvlab.constructions import build_cone, check_submersion_lift, induce_hypersurface
from closed_forms import ConeOracle
from conftest import check_contact, check_hermitian, record, sample_with_vectors, structure_of
from reference import covariant_derivative, point_geometry

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


def verdict(number: int, ok: bool, text: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, f"criterion {number}: {text}"


# -- 1: exact H(2,1) curvature table ------------------------------------------------

def test_criterion_01_h21_exact_table(h21_frame):
    fg = h21_frame.carrier
    seeds = {
        (0, 1, 2, 3): F(-1), (0, 3, 1, 2): F(-1), (0, 2, 1, 3): F(-2),
        (0, 2, 0, 2): F(-3), (1, 3, 1, 3): F(-3),
        (0, 4, 0, 4): F(1), (1, 4, 1, 4): F(1),
        (2, 4, 2, 4): F(1), (3, 4, 3, 4): F(1),
    }
    generated = {}
    for (i, j, k, l), v in seeds.items():
        for idx, w in (((i, j, k, l), v), ((j, i, k, l), -v), ((i, j, l, k), -v),
                       ((j, i, l, k), v), ((k, l, i, j), v), ((l, k, i, j), -v),
                       ((k, l, j, i), -v), ((l, k, j, i), v)):
            generated[idx] = w
    ok = all(fg.riem[idx] == generated.get(idx, F(0))
             for idx in product(range(5), repeat=4))
    verdict(1, ok, "frame engine reproduces the six-value table exactly, "
                   "all other components zero")


# -- 2: cross-engine agreement -------------------------------------------------------

def test_criterion_02_cross_engine(h21_frame, h21_chart):
    fg = h21_frame.carrier
    chart = h21_chart.carrier
    worst = 0.0
    for p in sample(chart, 3, seed=42).point:
        x1, x2 = p[0], p[1]
        vecs = [np.array([2.0, 0, 0, 0, 0]), np.array([0, 2.0, 0, 0, 0]),
                np.array([0, 0, 2.0, 0, 2 * x1]), np.array([0, 0, 0, 2.0, 2 * x2]),
                np.array([0, 0, 0, 0, 2.0])]
        riem = point_geometry(chart, p)[1]
        for idx in product(range(5), repeat=4):
            chart_val = float(np.einsum("ijkl,i,j,k,l", riem, *(vecs[i] for i in idx)))
            worst = max(worst, abs(chart_val - float(fg.riem[idx])))
    verdict(2, worst <= 1e-8,
            f"chart engine matches the frame engine on all 625 quadruples "
            f"(max |diff| = {worst:.2e})")


# -- 3: H(2,1) identity verdicts ------------------------------------------------------

def test_criterion_03_h21_identity_verdicts(h21_frame):
    g2 = check_contact("g2", record(h21_frame))
    g3 = check_contact("g3", record(h21_frame))
    g1 = check_contact("g1", record(h21_frame))
    # the exhaustive-sweep oracle fixes the max residual at exactly 2 with a
    # theta-independent witness; the designated quadruple (X1, Y1, X1, Y2)
    # carries exactly 24/25 = 2 cos(theta) sin(theta)
    e = lambda i: tuple(int(a == i) for a in range(5))
    designated = Witness(point=None, vectors=(e(0), e(2), e(0), e(3)))
    at_designated = reevaluate_witness(h21_frame, "g1", designated)
    ok = (g2.exact == 0 and g3.exact == 0 and g1.exact == 2
          and not g1.verdict and g1.witness is not None
          and reevaluate_witness(h21_frame, "g1", g1.witness) == g1.exact
          and at_designated == F(24, 25))
    verdict(3, ok, f"g2 = 0 and g3 = 0 exactly; g1 sweep max = {g1.exact} "
                   f"(witness recorded), designated quadruple = {at_designated}")


# -- 4: inclusion chain ----------------------------------------------------------------

CONTACT_TARGETS = ("h21", "h21_chart", "flat_cosym5", "sine_cone_cos",
                   "sine_cone_sin", "r_warped_surface", "s5_in_c3")


def test_criterion_04_inclusion_chain():
    ok = True
    table = {}
    for name in CONTACT_TARGETS:
        s = structure_of(name)
        v = {k: check_contact(k, record(s), tol=1e-7).verdict for k in ("g1", "g2", "g3")}
        table[name] = v
        if (v["g1"] and not v["g2"]) or (v["g2"] and not v["g3"]):
            ok = False
    verdict(4, ok, "no registry example has g1 without g2 or g2 without g3 "
                   f"at 1e-7 ({sum(v['g3'] for v in table.values())} of "
                   f"{len(table)} satisfy g3)")


# -- 5: cone theorems --------------------------------------------------------------------

def test_criterion_05_cone_theorems(s5_example, h21_chart, flat_cosym5):
    bases = {"s5": s5_example.structure, "h21_chart": h21_chart,
             "flat_cosym5": flat_cosym5}
    ok = True
    seen_true = seen_false = 0
    for name, base in bases.items():
        cone = build_cone(base)
        for i, (gk, kk) in enumerate((("g1", "k1"), ("g2", "k2"), ("g3", "k3"))):
            vg = check_contact(gk, record(base), tol=1e-7).verdict
            vk = check_hermitian(kk, record(cone), tol=1e-7).verdict
            if vg != vk:
                ok = False
            seen_true += vg
            seen_false += (not vg)
    verdict(5, ok and seen_true > 0 and seen_false > 0,
            "verdict(k_i on cone) = verdict(g_i on base) for all three bases, "
            "both truth values exercised")


# -- 6: closed-form oracles ----------------------------------------------------------------

def test_criterion_06_cone_oracles(s5_example, h21_chart):
    worst = 0.0
    for base in (s5_example.structure, h21_chart):
        cone = build_cone(base)
        points, vectors = sample_with_vectors(cone.chart, 20, 4, seed=42)
        for i, p in enumerate(points):
            oracle = ConeOracle(base, p)
            gamma, _, riem13 = point_geometry(cone.chart, p)
            A, B, C = vectors[i][0], vectors[i][1], vectors[i][2]
            worst = max(worst, float(np.max(np.abs(
                np.einsum("i,kij,j->k", A, gamma, B) - oracle.connection(A, B)))))
            worst = max(worst, float(np.max(np.abs(
                np.einsum("mijk,i,j,k->m", riem13, A, B, C)
                - oracle.curvature_op(A, B, C)))))
            dJ = covariant_derivative(cone.chart, cone.J, p, A)
            worst = max(worst, float(np.max(np.abs(dJ @ B - oracle.nabla_J(A, B)))))
    verdict(6, worst <= 1e-8,
            f"engine matches the cone connection/curvature/nabla-J closed "
            f"forms at 20 points (max residual {worst:.2e})")


# -- 7: Kähler cone iff Sasakian base --------------------------------------------------------

def _max_nabla_J(cone, n_points=10, seed=42):
    points, vectors = sample_with_vectors(cone.chart, n_points, 4, seed)
    worst = 0.0
    for i, p in enumerate(points):
        g = cone.chart.metric_at(p)
        for a in range(0, 4, 2):
            A, B = vectors[i][a], vectors[i][a + 1]
            dJ = covariant_derivative(cone.chart, cone.J, p, A) @ B
            worst = max(worst, math.sqrt(max(float(dJ @ g @ dJ), 0.0)))
    return worst


def test_criterion_07_kahler_cone_iff_sasakian(s5_example, h21_chart):
    sas = _max_nabla_J(build_cone(s5_example.structure))
    non = _max_nabla_J(build_cone(h21_chart))
    verdict(7, sas <= 1e-7 and non >= 0.1,
            f"cone over S5 has nabla-J = {sas:.2e}; cone over the Heisenberg "
            f"chart has nabla-J = {non:.2f}")


# -- 8: sine cones ----------------------------------------------------------------------------

def test_criterion_08_sine_cones(sine_cone_cos, sine_cone_sin):
    ok = True
    notes = []
    for rb in (sine_cone_cos, sine_cone_sin):
        g2 = check_contact("g2", record(rb.structure)).residual
        g1 = check_contact("g1", record(rb.structure)).residual
        notes.append(f"{rb.structure.name}: g2 = {g2:.1e}, g1 = {g1:.2f}")
        ok = ok and g2 <= 1e-8 and g1 >= 0.5
    verdict(8, ok, "; ".join(notes))


# -- 9: surface-base warped product -----------------------------------------------------------

def test_criterion_09_surface_warped_g1(r_warped_surface):
    s = r_warped_surface.structure
    res = check_contact("g1", record(s)).residual
    verdict(9, res <= 1e-8, f"cosine-warped surface fiber has g1 residual {res:.2e}")


# -- 10: hypersurface induction ----------------------------------------------------------------

def test_criterion_10_s5_hypersurface(s5_example):
    s = s5_example.structure
    rec = record(s)
    rep = induce_hypersurface(s5_example.ambient, s5_example.patch, rec)
    cls = classify(s, rec)
    idents = {k: check_contact(k, rec).residual for k in ("g1", "g2", "g3")}
    ok = (rep.umbilicity <= 1e-9
          and abs(rep.beta_mean + 1.0) <= 1e-9
          and cls.sasakian_nabla_xi <= 1e-8 and cls.sasakian_nabla_phi <= 1e-8
          and max(idents.values()) <= 1e-7)
    verdict(10, ok, f"umbilicity {rep.umbilicity:.1e}, beta = {rep.beta_mean:+.3f}, "
                    f"Sasakian residuals <= 1e-8, g-identities <= 1e-7")


# -- 11: Hopf pair ------------------------------------------------------------------------------

def test_criterion_11_hopf_pair(hopf_pair):
    res = check_submersion_lift(hopf_pair, record(hopf_pair.total))
    keys = ("lift_connection", "lift_xi", "lift_bracket", "lift_curvature",
            "lift_k1_consequence")
    worst = max(res[k] for k in keys)
    verdict(11, worst <= 1e-6,
            f"connection/Reeb/bracket/curvature lifts and the k1 consequence "
            f"all hold at 20 points (max {worst:.2e})")


# -- 12: K-contact criteria ----------------------------------------------------------------------

def test_criterion_12_k_contact(h21_frame):
    rep = classify(h21_frame, record(h21_frame))
    ok = (rep.killing_xi == 0.0
          and isinstance(rep.ric_xi_xi, Fraction)
          and rep.ric_xi_xi == 4
          and rep.ric_xi_xi_target == 4)
    verdict(12, ok, f"Killing residual exactly {rep.killing_xi}, "
                    f"Ric(xi, xi) = {rep.ric_xi_xi} = 2n exactly")


# -- 13: property suites -------------------------------------------------------------------------

def test_criterion_13a_curvature_symmetries():
    worst = 0.0
    for name in ("h21_chart", "sine_cone_cos", "sine_cone_sin",
                 "r_warped_surface", "flat_cosym5", "s5_in_c3", "s2_round",
                 "flat3"):
        s = structure_of(name)
        chart = s if isinstance(s, Chart) else s.carrier
        for p in sample(chart, 5, seed=42).point:
            res = geo.curvature_symmetry_residuals(point_geometry(chart, p)[1])
            worst = max(worst, max(res.values()))
    verdict(13, worst <= 1e-9,
            f"curvature symmetry residuals over the registry: max {worst:.2e}")


def test_criterion_13b_jets_vs_finite_differences():
    from curvlab import jet

    def fd1(f, x, h=1e-5):
        return (f(x + h) - f(x - h)) / (2 * h)

    def fd2(f, x, h=1e-4):
        return (f(x + h) - 2 * f(x) + f(x - h)) / h**2

    cases = [("sin", math.sin, (-2, 2)), ("cos", math.cos, (-2, 2)),
             ("tan", math.tan, (-1.2, 1.2)), ("exp", math.exp, (-2, 2)),
             ("log", math.log, (0.3, 4)), ("sqrt", math.sqrt, (0.3, 4)),
             ("sinh", math.sinh, (-2, 2)), ("cosh", math.cosh, (-2, 2))]
    rng = np.random.default_rng(42)
    worst = 0.0
    for tag, ref, window in cases:
        for _ in range(40):
            x0 = rng.uniform(*window)
            out = jet.JET_FUNCTIONS[tag](jet.seed([x0], 0))
            worst = max(worst, abs(out.grad[0] - fd1(ref, x0))
                        / max(1.0, abs(out.grad[0])))
            worst = max(worst, abs(out.hess[0, 0] - fd2(ref, x0))
                        / max(1.0, abs(out.hess[0, 0])))
    verdict(13, worst <= 1e-6,
            f"jet derivatives vs central differences: max relative {worst:.2e}")


def test_criterion_13c_json_determinism():
    from curvlab.cli import run

    def capture(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            run(argv)
        return buf.getvalue()

    argv = ["identities", "h21:3/5,4/5", "--which", "g1,g2,g3", "--json"]
    a = capture(argv)
    b = capture(argv)
    golden = (GOLDEN / "identities_h21.json").read_text()
    verdict(13, a == b == golden, "JSON reports byte-identical across runs "
                                  "and equal to the golden file")
