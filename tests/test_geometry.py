import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from curvlab import geometry as geo
from curvlab.chart import Chart, Interval, TensorField, eval_field, eval_field_jets, sample
from curvlab.errors import SingularMetricError
from curvlab.frame import heisenberg_h21
from conftest import sample_with_vectors
from reference import (contact_volume_coefficient, covariant_derivative,
                       covariant_derivative_02, exterior_d_oneform,
                       lie_derivative_metric, ricci)


def frame_vectors_at(p):
    """H(2,1) frame (X1, X2, Y1, Y2, xi) in chart components at p."""
    x1, x2 = p[0], p[1]
    return [
        np.array([2.0, 0, 0, 0, 0]),
        np.array([0, 2.0, 0, 0, 0]),
        np.array([0, 0, 2.0, 0, 2.0 * x1]),
        np.array([0, 0, 0, 2.0, 2.0 * x2]),
        np.array([0, 0, 0, 0, 2.0]),
    ]


# -- christoffel ------------------------------------------------------------------

def test_flat_christoffel_zero(flat3):
    for p in ([0.0, 0.0, 0.0], [1.0, -0.5, 2.0]):
        conn = geo.christoffel(flat3, p)
        assert np.all(conn.gamma == 0.0)


def test_cone_over_flat_christoffel():
    cone = Chart(("t", "x"), [["1", "0"], [None, "t^2"]],
                 [Interval(0, math.inf), Interval()])
    conn = geo.christoffel(cone, [2.0, 0.7])
    assert abs(conn.gamma[1, 0, 1] - 0.5) < 1e-14   # Gamma^x_tx = 1/t
    assert abs(conn.gamma[1, 1, 0] - 0.5) < 1e-14
    assert abs(conn.gamma[0, 1, 1] + 2.0) < 1e-14   # Gamma^t_xx = -t


def test_sphere_christoffel(s2_round):
    conn = geo.christoffel(s2_round, [math.pi / 2, 0.4])
    assert abs(conn.gamma[0, 1, 1]) < 1e-12         # -sin cos = 0 at equator
    th = 0.8
    conn = geo.christoffel(s2_round, [th, 0.4])
    assert abs(conn.gamma[0, 1, 1] + math.sin(th) * math.cos(th)) < 1e-12
    assert abs(conn.gamma[1, 0, 1] - math.cos(th) / math.sin(th)) < 1e-12


def test_singular_metric_raises():
    degenerate = Chart(("x", "y"), [["x", "0"], [None, "x"]])
    with pytest.raises(SingularMetricError):
        geo.christoffel(degenerate, [0.0, 0.0])


# -- curvature ---------------------------------------------------------------------

def test_flat5_curvature_zero():
    flat5 = Chart(tuple("abcde"), [[("1" if i == j else "0") for j in range(5)]
                                   for i in range(5)])
    curv = geo.curvature(flat5, [0.1, 0.2, 0.3, 0.4, 0.5])
    assert np.all(curv.riem == 0.0)


def test_h21_chart_curvature_table(h21_chart):
    p = [0.4, -0.7, 0.2, 1.1, -0.3]
    curv = geo.curvature(h21_chart.carrier, p)
    X1, X2, Y1, Y2, XI = frame_vectors_at(p)
    r = lambda a, b, c, d: float(np.einsum("ijkl,i,j,k,l", curv.riem, a, b, c, d))
    assert abs(r(X1, X2, Y1, Y2) - (-1.0)) < 1e-12
    assert abs(r(X1, Y2, X2, Y1) - (-1.0)) < 1e-12
    assert abs(r(X1, Y1, X2, Y2) - (-2.0)) < 1e-12
    assert abs(r(X1, Y1, X1, Y1) - (-3.0)) < 1e-12
    assert abs(r(X2, Y2, X2, Y2) - (-3.0)) < 1e-12
    assert abs(r(X1, XI, X1, XI) - 1.0) < 1e-12
    assert abs(r(Y2, XI, Y2, XI) - 1.0) < 1e-12


def test_cross_engine_h21_all_quadruples(h21_chart):
    """Chart engine on frame vectors vs the exact rational frame engine."""
    fg = heisenberg_h21(Fraction(3, 5), Fraction(4, 5))
    for p in ([0.0] * 5, [0.5, -1.2, 0.3, 0.8, 2.0]):
        curv = geo.curvature(h21_chart.carrier, p)
        vecs = frame_vectors_at(p)
        for i, j, k, l in product(range(5), repeat=4):
            chart_val = float(np.einsum("ijkl,i,j,k,l", curv.riem,
                                         vecs[i], vecs[j], vecs[k], vecs[l]))
            exact = float(fg.riem[i, j, k, l])
            assert abs(chart_val - exact) <= 1e-8


# -- covariant derivatives ----------------------------------------------------------

def test_flat_constant_field_derivative_zero(flat3):
    f = TensorField(flat3, "vector", np.array(["1", "2", "3"], dtype=object))
    out = covariant_derivative(flat3, f, [0.3, 0.1, -0.2], [1.0, 1.0, 1.0])
    assert np.all(out == 0.0)


def test_h21_nabla_x1_xi_is_minus_y1(h21_chart):
    s = h21_chart
    p = [0.0, 0.0, 0.0, 0.0, 0.0]  # group identity
    X1 = frame_vectors_at(p)[0]
    out = covariant_derivative(s.carrier, s.xi, p, X1)
    # -Y1 at the identity has components (0, 0, -2, 0, 0)
    assert np.allclose(out, [0, 0, -2.0, 0, 0], atol=1e-13)
    p = [0.6, -0.4, 0.1, 0.2, 0.9]
    X1, _, Y1, _, _ = frame_vectors_at(p)
    out = covariant_derivative(s.carrier, s.xi, p, X1)
    assert np.allclose(out, -Y1, atol=1e-12)


def test_oneform_covariant_derivative_lowers_vector(h21_chart):
    # metric compatibility: (∇_X η)(Y) = g(∇_X ξ, Y) when η = g(ξ, ·)
    s = h21_chart
    p = [0.2, 0.5, -0.3, 0.7, 0.1]
    g = s.carrier.metric_at(p)
    rng = np.random.default_rng(3)
    for _ in range(5):
        X, Y = rng.uniform(-1, 1, (2, 5))
        deta = covariant_derivative(s.carrier, s.eta, p, X)
        dxi = covariant_derivative(s.carrier, s.xi, p, X)
        assert abs(float(deta @ Y) - float(dxi @ g @ Y)) < 1e-12


def test_nabla_g_vanishes(h21_chart, s5_example):
    for s in (h21_chart, s5_example.structure):
        chart = s.carrier
        smp, vectors = sample_with_vectors(chart, 4, 2, seed=17)
        for i in range(smp.n_points):
            p = smp.points[i]
            X = vectors[i][0]
            out = covariant_derivative_02(chart, chart.metric, p, X)
            assert np.max(np.abs(out)) <= 1e-9


# -- Lie derivative and Killing fields ------------------------------------------------

def test_flat_translation_is_killing(flat3):
    xi = TensorField(flat3, "vector", np.array(["1", "0", "0"], dtype=object))
    val = lie_derivative_metric(flat3, xi, [0.1, 0.2, 0.3],
                                    [1.0, 2.0, 3.0], [-1.0, 0.5, 0.2])
    assert val == 0.0


def test_h21_xi_is_killing(h21_chart):
    s = h21_chart
    smp, vectors = sample_with_vectors(s.carrier, 6, 4, seed=23)
    for i in range(smp.n_points):
        p = smp.points[i]
        for a in range(0, 4, 2):
            X, Y = vectors[i][a], vectors[i][a + 1]
            assert abs(lie_derivative_metric(s.carrier, s.xi, p, X, Y)) <= 1e-9


def test_warped_xi_not_killing_matches_closed_form(sine_cone_cos):
    # (L_ξ g)(X, X) = 2 f f' ḡ(X, X) for fiber vectors X
    s = sine_cone_cos.structure
    chart = s.carrier
    p = [0.3, -0.5, 0.8, 0.2, 0.6]
    z = p[-1]
    X = np.array([1.0, 0.5, -0.3, 0.2, 0.0])
    got = lie_derivative_metric(chart, s.xi, p, X, X)
    gbar_xx = float(X[:4] @ X[:4])
    want = 2.0 * math.cos(z) * (-math.sin(z)) * gbar_xx
    assert abs(got - want) < 1e-12
    assert abs(got) > 0.1  # genuinely not Killing


# -- exterior derivative ---------------------------------------------------------------

def test_closed_form_dz(sine_cone_cos):
    s = sine_cone_cos.structure
    p = [0.1, 0.2, 0.3, 0.4, 0.5]
    rng = np.random.default_rng(8)
    for _ in range(5):
        X, Y = rng.uniform(-1, 1, (2, 5))
        assert exterior_d_oneform(s.carrier, s.eta, p, X, Y) == 0.0


def test_h21_deta_on_frame(h21_chart):
    s = h21_chart
    for p in ([0.0] * 5, [0.9, -0.2, 0.4, 1.3, -0.7]):
        X1, _, Y1, _, _ = frame_vectors_at(p)
        val = exterior_d_oneform(s.carrier, s.eta, p, X1, Y1)
        assert abs(val - (-2.0)) < 1e-13


def test_h21_contact_volume_nonzero(h21_chart):
    s = h21_chart
    smp = sample(s.carrier, 5, seed=31)
    vols = [contact_volume_coefficient(s.carrier, s.eta, p)
            for p in smp.points]
    assert all(abs(v) > 1e-6 for v in vols)
    # constant across points (left invariance)
    assert max(vols) - min(vols) < 1e-12


def test_sine_cone_eta_is_closed_not_contact(sine_cone_cos):
    s = sine_cone_cos.structure
    assert contact_volume_coefficient(s.carrier, s.eta,
                                          [0.1, 0.2, 0.3, 0.4, 0.5]) == 0.0


# -- Ricci -------------------------------------------------------------------------

def test_flat_ricci_zero(flat3):
    assert ricci(flat3, [0.1, 0.2, 0.3], [1, 0, 0], [0, 1, 0]) == 0.0


def test_sphere_ricci_positive_unit(s2_round):
    val = ricci(s2_round, [math.pi / 2, 0.3], [1.0, 0.0], [1.0, 0.0])
    assert abs(val - 1.0) < 1e-10
    th = 0.7
    val = ricci(s2_round, [th, 0.1], [0.0, 1.0], [0.0, 1.0])
    assert abs(val - math.sin(th) ** 2) < 1e-10


def test_h21_ricci_xi_xi(h21_chart):
    s = h21_chart
    p = [0.4, 0.1, -0.6, 0.2, 0.8]
    xi = eval_field(s.xi, p)
    assert abs(ricci(s.carrier, p, xi, xi) - 4.0) < 1e-10


# -- symmetry suites ----------------------------------------------------------------

def test_curvature_symmetries_on_registry(h21_chart, s5_example, sine_cone_cos,
                                          sine_cone_sin, r_warped_surface,
                                          flat_cosym5, s2_round):
    charts = [h21_chart.carrier, s5_example.structure.carrier,
              sine_cone_cos.structure.carrier, sine_cone_sin.structure.carrier,
              r_warped_surface.structure.carrier, flat_cosym5.carrier, s2_round]
    for chart in charts:
        smp = sample(chart, 5, seed=13)
        for p in smp.points:
            res = geo.curvature_symmetry_residuals(geo.curvature(chart, p))
            assert max(res.values()) <= 1e-9, (chart.name, res)


# -- batched metric jets ---------------------------------------------------------

def _registry_fields():
    """(label, chart, fields) for every chart a registry target carries."""
    from curvlab.constructions.registry import resolve_target
    out = []
    for name in ("flat3", "s2_round", "h21_chart", "flat_cosym5", "sine_cone_cos",
                 "sine_cone_sin", "r_warped_surface", "s5_in_c3", "hopf_pair",
                 "cone_of:s5_in_c3", "cone_of:sine_cone_cos"):
        t = resolve_target(name)
        if t.kind == "chart":
            out.append((name, t.obj, ()))
        elif t.kind == "contact":
            out.append((name, t.obj.carrier, (t.obj.phi, t.obj.xi, t.obj.eta)))
        elif t.kind == "hypersurface":
            s = t.obj.structure
            out.append((name, s.carrier, (s.phi, s.xi, s.eta)))
            out.append((f"{name}.ambient", t.obj.ambient.chart, (t.obj.ambient.J,)))
        elif t.kind == "pair":
            s = t.obj.total
            out.append((f"{name}.total", s.carrier, (s.phi, s.xi, s.eta)))
            out.append((f"{name}.base", t.obj.base.chart, (t.obj.base.J,)))
        else:
            out.append((name, t.obj.cone_chart, (t.obj.hermitian.J,)))
    return out


REGISTRY_FIELDS = _registry_fields()


@pytest.mark.parametrize("label,chart,fields", REGISTRY_FIELDS,
                         ids=[r[0] for r in REGISTRY_FIELDS])
def test_batched_evaluation_equals_per_point(label, chart, fields):
    """One batched walk per expression gives every point's numbers bit for
    bit: metric jets, Γ and R, the metric and the fields and their jets."""
    pts = sample(chart, 4, seed=9).points
    mj = geo.metric_jets(chart, pts)
    conn, curv = geo.point_geometry(chart, pts)
    g = chart.metric_at(pts)
    vals = [eval_field(f, pts) for f in fields]
    jets = [eval_field_jets(f, pts) for f in fields]
    for n, p in enumerate(pts):
        one = geo.metric_jets(chart, p)
        for name in ("g", "dg", "d2g", "ginv"):
            assert np.array_equal(getattr(mj, name)[n], getattr(one, name)), name
        conn1, curv1 = geo.point_geometry(chart, p)
        assert np.array_equal(conn.gamma[n], conn1.gamma)
        assert np.array_equal(conn.dgamma[n], conn1.dgamma)
        assert np.array_equal(curv.riem[n], curv1.riem)
        assert np.array_equal(curv.riem13[n], curv1.riem13)
        assert np.array_equal(g[n], chart.metric_at(p))
        for f, v, (jv, jg) in zip(fields, vals, jets):
            assert np.array_equal(v[n], eval_field(f, p))
            v1, g1 = eval_field_jets(f, p)
            assert np.array_equal(jv[n], v1) and np.array_equal(jg[n], g1)


def test_batched_singular_metric_names_first_point():
    degenerate = Chart(("x", "y"), [["x", "0"], [None, "1"]])
    with pytest.raises(SingularMetricError, match=r"at \(0\.0, 2\.0\)$"):
        geo.metric_jets(degenerate, np.array([[1.0, 1.0], [0.0, 2.0], [0.0, 3.0]]))
