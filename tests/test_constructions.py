import math

import numpy as np
import pytest

from curvlab import expr as ex
from curvlab.chart import Chart, Interval, sample
from curvlab.constructions import build_cone, build_r_warped_contact
from curvlab.constructions.registry import (flat_chart, flat_kahler_r2,
                                            flat_kahler_r4)
from closed_forms import (ConeOracle, WarpedSpec, build_warped, eq_for_g1_obstruction,
                          r_warped_christoffel_oracle, r_warped_riemann_oracle,
                          warped_christoffel_oracle)
from curvlab.identities import sweep
from curvlab.structures import validate
from conftest import record_of, sample_with_vectors, structure_of
from reference import covariant_derivative, eval_field, point_geometry


# -- cone invariants ----------------------------------------------------------------

def test_cone_chart_layout(s5_example):
    cone = build_cone(s5_example.structure)
    assert cone.chart.coords[0] == "t"
    assert cone.chart.dim == 6
    assert cone.chart.domain[0].lo == 0.0 and math.isinf(cone.chart.domain[0].hi)


def test_cone_rejects_frame_carrier(h21_frame):
    with pytest.raises(ValueError):
        build_cone(h21_frame)


def test_cone_J_invariants(s5_example, h21_chart):
    for base in (s5_example.structure, h21_chart):
        cone = build_cone(base)
        points, vectors = sample_with_vectors(cone.chart, 6, 4, seed=11)
        for i, p in enumerate(points):
            t = p[0]
            J = eval_field(cone.J, p)
            g = cone.chart.metric_at(p)
            xi = eval_field(base.xi, p[1:])
            phi = eval_field(base.phi, p[1:])
            eta = eval_field(base.eta, p[1:])
            dt = np.zeros(cone.chart.dim)
            dt[0] = 1.0
            # J dt = -(1/t) xi
            assert np.allclose(J @ dt, np.concatenate(([0.0], -xi / t)), atol=1e-12)
            # J X = phi X + t eta(X) dt, column-wise
            for j in range(base.carrier.dim):
                e = np.zeros(cone.chart.dim)
                e[1 + j] = 1.0
                want = np.concatenate(([t * eta[j]], phi[:, j]))
                assert np.allclose(J @ e, want, atol=1e-12)
            # J^2 = -I and compatibility
            assert np.max(np.abs(J @ J + np.eye(len(J)))) <= 1e-12
            for X in vectors[i][:2]:
                assert abs(float((J @ X) @ g @ (J @ X)) - float(X @ g @ X)) <= 1e-10
            # g(J dt, J dt) = 1
            assert abs(float((J @ dt) @ g @ (J @ dt)) - 1.0) <= 1e-10


# -- closed-form oracles vs the generic engine ----------------------------------------

@pytest.mark.parametrize("base_name", ["s5", "h21", "cosym"])
def test_cone_closed_forms_match_engine(base_name, s5_example, h21_chart,
                                        flat_cosym5):
    base = {"s5": s5_example.structure, "h21": h21_chart,
            "cosym": flat_cosym5}[base_name]
    cone = build_cone(base)
    points, vectors = sample_with_vectors(cone.chart, 20, 8, seed=42)
    worst = 0.0
    for i, p in enumerate(points):
        oracle = ConeOracle(base, p)
        gamma, _, riem13 = point_geometry(cone.chart, p)
        A, B, C = vectors[i][0], vectors[i][1], vectors[i][2]
        engine_nab = np.einsum("i,kij,j->k", A, gamma, B)
        worst = max(worst, float(np.max(np.abs(
            engine_nab - oracle.connection(A, B)))))
        engine_R = np.einsum("mijk,i,j,k->m", riem13, A, B, C)
        worst = max(worst, float(np.max(np.abs(
            engine_R - oracle.curvature_op(A, B, C)))))
        dJ = covariant_derivative(cone.chart, cone.J, p, A)
        worst = max(worst, float(np.max(np.abs(
            dJ @ B - oracle.nabla_J(A, B)))))
    assert worst <= 1e-8


def test_cone_j_composed_curvature_cases(s5_example):
    base = s5_example.structure
    cone = build_cone(base)
    points, vectors = sample_with_vectors(cone.chart, 5, 8, seed=9)
    dt = np.zeros(cone.chart.dim)
    dt[0] = 1.0
    for i, p in enumerate(points):
        oracle = ConeOracle(base, p)
        riem13 = point_geometry(cone.chart, p)[2]
        J = eval_field(cone.J, p)
        g = cone.chart.metric_at(p)
        X, Y, Z, W = (v.copy() for v in vectors[i][:4])
        for v in (X, Y, Z, W):
            v[0] = 0.0  # base-lifted vectors
        e_jdt = np.einsum("mijk,i,j,k->m", riem13, X, Y, J @ dt)
        assert np.max(np.abs(e_jdt - oracle.curvature_J_dt(X, Y))) <= 1e-8
        e_jz = np.einsum("mijk,i,j,k->m", riem13, X, Y, J @ Z)
        assert np.max(np.abs(e_jz - oracle.curvature_J_base(X, Y, Z))) <= 1e-8
        # scalar pairings
        p1 = float((J @ W) @ g @ e_jdt)
        assert abs(p1 - oracle.pair_1(X[1:], Y[1:], W[1:])) <= 1e-8
        p2 = float((J @ dt) @ g @ e_jz)
        assert abs(p2 - oracle.pair_2(X[1:], Y[1:], Z[1:])) <= 1e-8
        p3 = float((J @ W) @ g @ e_jz)
        assert abs(p3 - oracle.pair_3(X[1:], Y[1:], Z[1:], W[1:])) <= 1e-8


@pytest.mark.parametrize("name", ["h21_chart:3/5,4/5", "h21_chart:-5/13,12/13", "sine_cone_cos",
                                  "sine_cone_sin", "flat_cosym5", "r_warped_surface", "s5_in_c3",
                                  "hopf_pair"])
def test_cone_law_pointwise(name):
    """The cone law at matched points: t² k_i(cone, (t, p)) = g_i(base, p),
    each side swept over its own one-point record, for i = 1, 2, 3. Where
    g_i is at rounding level, t² k_i is too. ∂_t spans the cone curvature's
    nullity, so a wrong J∂_t leaves every k_i as it is: the cone structure
    is checked compatible at each cone point as well."""
    s = structure_of(name)
    cone = build_cone(s)
    for p in sample(s.carrier, 3, 3).point:
        g = [rep.residual for rep, in sweep([(k, ()) for k in ("g1", "g2", "g3")],
                                            record_of(s, [p]))]
        for t in (0.3, 1.0, 3.7):
            rec = record_of(cone, [[t, *p]])
            assert max(validate(cone, rec).values()) <= 1e-12, t
            k = [rep.residual for rep, in sweep([(k, ()) for k in ("k1", "k2", "k3")], rec)]
            for i, (gi, ki) in enumerate(zip(g, k), 1):
                if gi > 1e-6:
                    assert abs(t * t * ki - gi) <= 1e-12 * max(1.0, gi), (i, t, gi, ki)
                else:
                    assert t * t * ki <= 1e-10, (i, t, gi, ki)


# -- generic warped products -------------------------------------------------------------

def test_trivial_warping_gives_product():
    base = Chart(("th",), [["1"]], [Interval(-1.0, 1.0)], name="line")
    fiber = flat_chart(("x", "y"))
    spec = WarpedSpec(base, fiber, ex.parse_expr("1", ["th"]))
    chart = build_warped(spec)
    p = [0.2, 0.5, -0.7]
    gamma = warped_christoffel_oracle(spec, p)
    assert np.all(gamma == 0.0)
    assert np.max(np.abs(point_geometry(chart, p)[0])) <= 1e-14


def test_warped_with_b_t_reproduces_cone():
    base = Chart(("t",), [["1"]], [Interval(0.0, math.inf)], name="ray")
    fiber = flat_chart(("x", "y"))
    spec = WarpedSpec(base, fiber, ex.parse_expr("t", ["t"]))
    chart = build_warped(spec)
    cone = Chart(("t", "x", "y"), [["1", "0", "0"], [None, "t^2", "0"],
                                   [None, None, "t^2"]],
                 [Interval(0.0, math.inf), Interval(), Interval()])
    for p in ([1.5, 0.2, -0.4], [0.7, 1.0, 2.0]):
        assert np.allclose(chart.metric_at(p), cone.metric_at(p), atol=1e-15)


def test_cosine_warped_connection_oracle():
    base = Chart(("th",), [["1"]], [Interval(-math.pi / 2, math.pi / 2)])
    fiber = flat_chart(("x", "y", "u", "v"))
    spec = WarpedSpec(base, fiber, ex.parse_expr("cos(th)", ["th"]))
    chart = build_warped(spec)
    for p in sample(chart, 10, seed=6).point:
        eng = point_geometry(chart, p)[0]
        assert np.max(np.abs(eng - warped_christoffel_oracle(spec, p))) <= 1e-9


def test_warped_coordinate_collision_rejected():
    base = Chart(("x",), [["1"]])
    fiber = flat_chart(("x", "y"))
    with pytest.raises(ValueError):
        WarpedSpec(base, fiber, ex.parse_expr("1", ["x"]))


# -- line-warped contact structures --------------------------------------------------------

def test_sine_cone_matches_example_metric(sine_cone_cos):
    chart = sine_cone_cos.structure.carrier
    assert chart.coords == ("x", "y", "u", "v", "z")
    p = [0.3, -0.1, 0.8, 0.4, 0.6]
    g = chart.metric_at(p)
    c2 = math.cos(p[-1]) ** 2
    assert np.allclose(g, np.diag([c2, c2, c2, c2, 1.0]), atol=1e-15)


def test_r_warped_oracles_match_engine(sine_cone_cos, sine_cone_sin,
                                       r_warped_surface):
    for rb in (sine_cone_cos, sine_cone_sin, r_warped_surface):
        chart = rb.structure.carrier
        for p in sample(chart, 8, seed=4).point:
            eng_g = point_geometry(chart, p)[0]
            assert np.max(np.abs(eng_g - r_warped_christoffel_oracle(rb, p))) <= 1e-8
            eng_r = point_geometry(chart, p)[1]
            assert np.max(np.abs(eng_r - r_warped_riemann_oracle(rb, p))) <= 1e-8


@pytest.mark.parametrize("f_text", ["cos(z)", "sin(z)"])
def test_f_second_over_f_minus_one_gives_unit_block(f_text):
    # f''/f = -1 makes R(W, xi, X, xi) = g(X, W) on fiber vectors
    dom = Interval(-math.pi / 2, math.pi / 2) if f_text == "cos(z)" else Interval(0.0, math.pi)
    rb = build_r_warped_contact(flat_kahler_r4(), f_text, "z", dom)
    chart = rb.structure.carrier
    points, vectors = sample_with_vectors(chart, 6, 4, seed=15)
    for i, p in enumerate(points):
        riem = point_geometry(chart, p)[1]
        g = chart.metric_at(p)
        xi = np.array([0, 0, 0, 0, 1.0])
        for a in range(0, 4, 2):
            X, W = vectors[i][a].copy(), vectors[i][a + 1].copy()
            X[-1] = 0.0
            W[-1] = 0.0
            lhs = float(np.einsum("ijkl,i,j,k,l", riem, W, xi, X, xi))
            assert abs(lhs - float(X @ g @ W)) <= 1e-8


def test_constant_warping_kills_xi_block():
    rb = build_r_warped_contact(flat_kahler_r4(), "1 + 0*z", "z", Interval())
    chart = rb.structure.carrier
    p = [0.1, 0.2, 0.3, 0.4, 0.5]
    assert np.max(np.abs(point_geometry(chart, p)[1])) <= 1e-14


def test_vanishing_warping_rejected():
    # sin vanishes exactly at z = 0 (cos(pi/2) would round to 6e-17)
    rb = build_r_warped_contact(flat_kahler_r4(), "sin(z)", "z",
                                Interval(0.0, math.pi))
    from curvlab.errors import EvalDomainError
    with pytest.raises(EvalDomainError):
        r_warped_christoffel_oracle(rb, [0, 0, 0, 0, 0.0])


# -- the dimension obstruction for g1 ------------------------------------------------------

def test_eq_for_g1_obstruction_dimension_two_vs_four():
    n2 = flat_kahler_r2()
    assert eq_for_g1_obstruction(n2, sample(n2.chart, 10, seed=2).point) <= 1e-12
    n4 = flat_kahler_r4()
    assert eq_for_g1_obstruction(n4, sample(n4.chart, 10, seed=2).point) > 0.1


def test_eq_for_g1_obstruction_sweeps_the_coordinate_basis():
    """The obstruction is trilinear, so it is read off the basis triples at
    each sampled point. On flat R⁴ with its rotation J the largest basis
    value is exactly 1."""
    n4 = flat_kahler_r4()
    assert eq_for_g1_obstruction(n4, sample(n4.chart, 4, seed=2).point) == 1.0


def test_eq_for_g1_obstruction_nan_raises():
    """inf · 0 makes one J entry NaN; the residual must raise, not read 0."""
    from curvlab.chart import TensorField
    from curvlab.errors import EvalDomainError
    from curvlab.structures import AlmostHermitianStructure
    n4 = flat_kahler_r4()
    J = n4.J.components.copy()
    J[1, 0] = "exp(400)*exp(400)*0 + 1"
    bad = AlmostHermitianStructure(n4.chart, TensorField(n4.chart, "endomorphism", J))
    with pytest.raises(EvalDomainError):
        eq_for_g1_obstruction(bad, sample(n4.chart, 3, seed=2).point)
