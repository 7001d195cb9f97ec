import math
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from curvlab import geometry as geo
from curvlab.chart import Chart, Interval, TensorField, sample
from curvlab.errors import SingularMetricError
from curvlab.frame import heisenberg_h21
from curvlab.manifold_io import load_manifold_file
from conftest import sample_with_vectors
from reference import (connection_at_point, contact_volume_coefficient, covariant_derivative,
                       covariant_derivative_02, curvature_at_point, eval_field, eval_field_jets,
                       exterior_d_oneform, gram_schmidt, lie_derivative_metric, point_geometry,
                       ricci, to_text)


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
        conn = point_geometry(flat3, p)[0]
        assert np.all(conn.gamma == 0.0)


def test_cone_over_flat_christoffel():
    cone = Chart(("t", "x"), [["1", "0"], [None, "t^2"]],
                 [Interval(0, math.inf), Interval()])
    conn = point_geometry(cone, [2.0, 0.7])[0]
    assert abs(conn.gamma[1, 0, 1] - 0.5) < 1e-14   # Gamma^x_tx = 1/t
    assert abs(conn.gamma[1, 1, 0] - 0.5) < 1e-14
    assert abs(conn.gamma[0, 1, 1] + 2.0) < 1e-14   # Gamma^t_xx = -t


def test_sphere_christoffel(s2_round):
    conn = point_geometry(s2_round, [math.pi / 2, 0.4])[0]
    assert abs(conn.gamma[0, 1, 1]) < 1e-12         # -sin cos = 0 at equator
    th = 0.8
    conn = point_geometry(s2_round, [th, 0.4])[0]
    assert abs(conn.gamma[0, 1, 1] + math.sin(th) * math.cos(th)) < 1e-12
    assert abs(conn.gamma[1, 0, 1] - math.cos(th) / math.sin(th)) < 1e-12


def test_singular_metric_raises():
    degenerate = Chart(("x", "y"), [["x", "0"], [None, "x"]])
    with pytest.raises(SingularMetricError):
        point_geometry(degenerate, [0.0, 0.0])


# -- curvature ---------------------------------------------------------------------

def test_flat5_curvature_zero():
    flat5 = Chart(tuple("abcde"), [[("1" if i == j else "0") for j in range(5)]
                                   for i in range(5)])
    curv = point_geometry(flat5, [0.1, 0.2, 0.3, 0.4, 0.5])[1]
    assert np.all(curv.riem == 0.0)


def test_h21_chart_curvature_table(h21_chart):
    p = [0.4, -0.7, 0.2, 1.1, -0.3]
    curv = point_geometry(h21_chart.carrier, p)[1]
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
        curv = point_geometry(h21_chart.carrier, p)[1]
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
        points, vectors = sample_with_vectors(chart, 4, 2, seed=17)
        for i, p in enumerate(points):
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
    points, vectors = sample_with_vectors(s.carrier, 6, 4, seed=23)
    for i, p in enumerate(points):
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
    vols = [contact_volume_coefficient(s.carrier, s.eta, p)
            for p in sample(s.carrier, 5, seed=31).point]
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
        for p in sample(chart, 5, seed=13).point:
            res = geo.curvature_symmetry_residuals(point_geometry(chart, p)[1])
            assert max(res.values()) <= 1e-9, (chart.name, res)


# -- batched metric jets ---------------------------------------------------------

def _registry_fields():
    """(label, chart, fields) for every chart a registry target carries."""
    from curvlab.constructions import HypersurfaceExample, SubmersionPair
    from curvlab.constructions.registry import resolve_target
    from curvlab.structures import AlmostContactStructure
    out = []
    for name in ("flat3", "s2_round", "h21_chart", "flat_cosym5", "sine_cone_cos",
                 "sine_cone_sin", "r_warped_surface", "s5_in_c3", "hopf_pair",
                 "cone_of:s5_in_c3", "cone_of:sine_cone_cos"):
        o = resolve_target(name)
        if isinstance(o, Chart):
            out.append((name, o, ()))
        elif isinstance(o, AlmostContactStructure):
            out.append((name, o.carrier, (o.phi, o.xi, o.eta)))
        elif isinstance(o, HypersurfaceExample):
            s = o.structure
            out.append((name, s.carrier, (s.phi, s.xi, s.eta)))
            out.append((f"{name}.ambient", o.ambient.chart, (o.ambient.J,)))
        elif isinstance(o, SubmersionPair):
            s = o.total
            out.append((f"{name}.total", s.carrier, (s.phi, s.xi, s.eta)))
            out.append((f"{name}.base", o.base.chart, (o.base.J,)))
        else:
            out.append((name, o.chart, (o.J,)))
    return out


REGISTRY_FIELDS = _registry_fields()


def _assert_point_geometry_per_point(chart, pts):
    """The batched Γ, ∂Γ, R¹³, R and E(p) equal, bit for bit, the one-point
    formulas of ``reference`` run on each point's own metric jets."""
    conn, curv = point_geometry(chart, pts)
    E = geo.orthonormal_frame(curv.g)
    for n, p in enumerate(pts):
        one = geo.metric_jets(chart, p)
        conn1 = connection_at_point(one)
        curv1 = curvature_at_point(one, conn1)
        assert np.array_equal(conn.gamma[n], conn1.gamma)
        assert np.array_equal(conn.dgamma[n], conn1.dgamma)
        assert np.array_equal(curv.riem13[n], curv1.riem13)
        assert np.array_equal(curv.riem[n], curv1.riem)
        assert np.array_equal(E[n], gram_schmidt(one.g))


@pytest.mark.parametrize("label,chart,fields", REGISTRY_FIELDS,
                         ids=[r[0] for r in REGISTRY_FIELDS])
def test_batched_evaluation_equals_per_point(label, chart, fields):
    """One batched walk per expression gives every point's numbers bit for
    bit: metric jets, the metric and the fields and their jets; and the
    batched point geometry equals the one-point reference formulas."""
    pts = sample(chart, 4, seed=9).point
    mj = geo.metric_jets(chart, pts)
    g = chart.metric_at(pts)
    vals = [eval_field(f, pts) for f in fields]
    jets = [eval_field_jets(f, pts) for f in fields]
    for n, p in enumerate(pts):
        one = geo.metric_jets(chart, p)
        for name in ("g", "dg", "d2g", "ginv"):
            assert np.array_equal(getattr(mj, name)[n], getattr(one, name)), name
        assert np.array_equal(g[n], chart.metric_at(p))
        for f, v, (jv, jg) in zip(fields, vals, jets):
            assert np.array_equal(v[n], eval_field(f, p))
            v1, g1 = eval_field_jets(f, p)
            assert np.array_equal(jv[n], v1) and np.array_equal(jg[n], g1)
    _assert_point_geometry_per_point(chart, pts)


def _generated_bare_chart(tmp_path, k):
    """The k-th bare chart the benchmark's generator draws at seed 3."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from workloads import Generator
    finally:
        sys.path.pop(0)
    gen = Generator("chart_sweep", 3, tmp_path)
    path, _ = [gen.bare_chart_file() for _ in range(k + 1)][-1]
    return load_manifold_file(path)


@pytest.mark.parametrize("k", range(3))
def test_batched_point_geometry_on_generated_charts(tmp_path, k):
    """The benchmark's bare charts with dense off-diagonal metrics: seed 3
    draws dimensions 3, 5 and 6."""
    chart = _generated_bare_chart(tmp_path, k)
    assert chart.dim == (3, 5, 6)[k]
    _assert_point_geometry_per_point(chart, sample(chart, 7, seed=k).point)


# a metric and a field that divide by constants that are not powers of 2
_DIVIDING = Chart(("x", "y"), [["1 + x^2/3", "y/7"], [None, "2 + sin(x)/3"]], name="dividing")
VALUE_CASES = [pytest.param(chart, fields, id=label) for label, chart, fields in REGISTRY_FIELDS] \
    + [pytest.param(_DIVIDING, (TensorField(_DIVIDING, "vector", ["cos(x)/3", "-y/10"]),),
                    id="dividing")] \
    + [pytest.param(k, (), id=f"generated_{k}") for k in range(3)]


@pytest.mark.parametrize("chart,fields", VALUE_CASES)
def test_jet_values_are_the_float_values(tmp_path, chart, fields):
    """The value part of a jet run is the float run, bit for bit, sign of
    zero included, for the metric program and for one program over the
    fields, at every point of a sample: the CLI reads g, φ, ξ and η (or J)
    from jet runs alone."""
    from curvlab import expr as ex
    if isinstance(chart, int):
        chart = _generated_bare_chart(tmp_path, chart)
    for seed in range(3):
        mj = sample(chart, 7, seed)
        assert mj.g.tobytes() == chart.metric_at(mj.point).tobytes()
        if fields:
            program = ex.Program(e for f in fields for e in f.components.flat)
            real = np.empty((7, len(program.roots)))
            for r, v in enumerate(program.run(chart.env(mj.point))):
                real[:, r] = v
            vals, _ = geo._expr_jets(program, chart.env(mj.point, jets=True))
            assert vals.tobytes() == real.tobytes()


def test_batched_singular_metric_names_first_point():
    degenerate = Chart(("x", "y"), [["x", "0"], [None, "1"]])
    with pytest.raises(SingularMetricError, match=r"at \(0\.0, 2\.0\)$"):
        geo.metric_jets(degenerate, np.array([[1.0, 1.0], [0.0, 2.0], [0.0, 3.0]]))


def _function_calls(e):
    """Every ``Call`` node of ``e``, one per occurrence."""
    from curvlab import expr as ex
    match e:
        case ex.Call(_, args):
            return [e] + [c for a in args for c in _function_calls(a)]
        case ex.Neg(arg) | ex.Pow(arg, _):
            return _function_calls(arg)
        case ex.Bin(_, l, r):
            return _function_calls(l) + _function_calls(r)
    return []


@pytest.mark.parametrize("target, counts", [
    ("cone_of:sine_cone_cos", {"sin": 0, "cos": 1}),   # one shared cos(z)^2, in 10 entries
    ("s5_in_c3", {"sin": 2, "cos": 2}),                # sin(a) in 3 entries, parsed apart
])
def test_metric_jets_calls_each_distinct_function_once(monkeypatch, target, counts):
    """One ``metric_jets`` walk evaluates each distinct ``Call`` subtree of
    the metric once, over all the points, however many entries repeat it."""
    from curvlab import expr as ex, jet
    from curvlab.constructions.registry import resolve_target
    obj = resolve_target(target)
    chart = obj.chart if target.startswith("cone_of:") else obj.structure.carrier
    points = sample(chart, 5, seed=3).point
    calls = dict.fromkeys(counts, 0)
    for fn in calls:
        def counted(u, fn=fn, rule=jet.JET_FUNCTIONS[fn]):
            calls[fn] += 1
            return rule(u)
        monkeypatch.setitem(jet.JET_FUNCTIONS, fn, counted)
    geo.metric_jets(chart, points)
    found = [c for i in range(chart.dim) for j in range(i, chart.dim)
             for c in _function_calls(chart.metric[i, j]) if c.fn in calls]
    assert calls == {fn: len({to_text(c) for c in found if c.fn == fn}) for fn in calls}
    assert calls == counts and len(found) > sum(counts.values())
