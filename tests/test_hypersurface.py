import math

import numpy as np
import pytest

from curvlab.chart import Chart, Interval, TensorField, eval_field, sample
from curvlab.errors import CurvlabError
from curvlab.structures import AlmostHermitianStructure, classify, contact_point_data
from curvlab.constructions import SurfacePatch, hypersurface, induce_hypersurface
from curvlab.constructions.registry import ambient_c3
from curvlab.identities import check_contact

from conftest import record
from reference import hypersurface_at_point, nabla_J_at_point


def test_s5_induction(s5_example):
    rep = induce_hypersurface(s5_example.ambient, s5_example.patch, record(s5_example.structure))
    assert rep.umbilicity <= 1e-9
    assert abs(rep.beta_mean + 1.0) <= 1e-12
    assert np.all(np.abs(rep.beta + 1.0) <= 1e-10)
    assert rep.h_xi_residual <= 1e-9
    assert rep.normal_unit_residual <= 1e-12
    assert rep.normal_tangency_residual <= 1e-12
    assert rep.pullback_residual <= 1e-10
    assert rep.structure_residual <= 1e-10


def test_h_xi_sweeps_the_coordinate_basis(s5_example):
    """h(X, ξ) − η(AX) is linear in X, so it is checked on the coordinate
    basis and needs no sampled vectors: with none it must still be a real
    residual, not the −1 of an empty maximum."""
    rec = record(s5_example.structure, 3, seed=1)
    h_xi = induce_hypersurface(s5_example.ambient, s5_example.patch, rec).h_xi_residual
    assert math.isfinite(h_xi) and 0.0 <= h_xi <= 1e-12


def test_s5_induced_structure_is_sasakian(s5_example):
    """The structure the immersion induces, read off the record it is
    compared with, is Sasakian and satisfies g1–g3."""
    s = s5_example.structure
    rec = record(s)
    rep = induce_hypersurface(s5_example.ambient, s5_example.patch, rec)
    assert rep.structure_residual <= 1e-10
    cls = classify(s, rec)
    assert cls.sasakian_nabla_xi <= 1e-8
    assert cls.sasakian_nabla_phi <= 1e-8
    for kind in ("g1", "g2", "g3"):
        assert check_contact(s, kind, rec).residual <= 1e-7


def _sphere_like_immersion():
    """Spherical-type parametrization shared by the sphere and the ellipsoid
    negative control (the first ambient coordinate gets squashed)."""
    dom = Interval(0.2, 1.35)
    chart5 = ("a", "b", "c", "d", "e")
    radii = [
        "cos(a)",
        "sin(a)*cos(b)",
        "sin(a)*sin(b)*cos(c)",
        "sin(a)*sin(b)*sin(c)*cos(d)",
        "sin(a)*sin(b)*sin(c)*sin(d)*cos(e)",
        "sin(a)*sin(b)*sin(c)*sin(d)*sin(e)",
    ]
    return chart5, [dom] * 5, radii


def _ellipsoid_patch():
    coords, dom, sphere = _sphere_like_immersion()
    # 2 x1^2 + (rest)^2 = 1: squash the first coordinate by 1/sqrt(2)
    immersion = [f"({sphere[0]})/sqrt(2)"] + sphere[1:]
    # unit normal of 2x^2 + ... = 1 is (2x1, y1, ..., y3)/sqrt(1 + 2 x1^2)
    denom = f"sqrt(1 + ({sphere[0]})^2)"
    normal = [f"sqrt(2)*({sphere[0]})/{denom}"] + [f"({s})/{denom}" for s in sphere[1:]]
    # parameter-chart metric is only needed for sampling; use any SPD template
    metric = [[("1" if i == j else None) for j in range(5)] for i in range(5)]
    chart = Chart(coords, metric, dom, name="ellipsoid_param")
    return SurfacePatch(chart=chart, immersion=immersion, normal=normal)


def _spherical_patch():
    # same machinery on the classical spherical parametrization
    coords, dom, sphere = _sphere_like_immersion()
    metric = [[("1" if i == j else None) for j in range(5)] for i in range(5)]
    chart = Chart(coords, metric, dom, name="s5_param")
    return SurfacePatch(chart=chart, immersion=sphere, normal=sphere)


def test_ellipsoid_not_umbilical():
    patch = _ellipsoid_patch()
    rep = induce_hypersurface(ambient_c3(), patch, record(patch.chart))
    assert rep.umbilicity > 1e-2
    assert rep.normal_unit_residual <= 1e-12
    assert rep.structure_residual == 0.0   # a bare chart's record: no structure row


def test_round_sphere_via_spherical_coordinates():
    patch = _spherical_patch()
    rep = induce_hypersurface(ambient_c3(), patch, record(patch.chart))
    assert rep.umbilicity <= 1e-9
    assert abs(rep.beta_mean + 1.0) <= 1e-10
    assert rep.h_xi_residual <= 1e-9
    # no structure on this patch's chart; pullback differs from the
    # placeholder metric, which only drives sampling
    assert rep.structure_residual == 0.0


@pytest.mark.parametrize("which", ["s5_in_c3", "ellipsoid", "spherical"])
def test_batched_induction_matches_one_point_reference(s5_example, which):
    """One array evaluation over all points gives, point by point, the
    Weingarten matrix, β, ξ and every residual of the one-point loop body in
    ``reference``, bit for bit; the report holds their maxima."""
    patch = {"s5_in_c3": s5_example.patch, "ellipsoid": _ellipsoid_patch(),
             "spherical": _spherical_patch()}[which]
    structured = which == "s5_in_c3"
    s = s5_example.structure if structured else patch.chart
    rec = contact_point_data(s, sample(patch.chart, 11, seed=5))
    J = eval_field(ambient_c3().J, np.zeros(6))
    beta, A, xi, res = hypersurface._induction(J, patch, rec)
    refs = [hypersurface_at_point(
        J, patch, rec.point[n], rec.g[n],
        *((rec.phi[n], rec.xi[n], rec.eta[n]) if structured else ()))
        for n in range(len(rec.point))]
    assert np.array_equal(A, [r[0] for r in refs])
    assert np.array_equal(beta, [r[1] for r in refs])
    assert np.array_equal(xi, [r[2] for r in refs])
    assert list(res) == list(refs[0][3])
    assert len(res) == (6 if structured else 5)
    for k, v in res.items():
        assert np.array_equal(v, [r[3][k] for r in refs]), k
    rep = induce_hypersurface(ambient_c3(), patch, rec)
    assert np.array_equal(rep.beta, beta)
    assert rep.umbilicity == max(r[3]["umbilicity"] for r in refs)
    assert rep.h_xi_residual == max(r[3]["h_xi"] for r in refs)
    assert rep.structure_residual == (max(r[3]["structure"] for r in refs)
                                      if structured else 0.0)


def _curved_ambient(J_entries):
    """A curved 4-dimensional chart and an endomorphism field on it: Γ is
    nonzero, so every term of ∇J counts."""
    chart = Chart(("x1", "x2", "x3", "x4"),
                  [["1 + x2^2", "x1/5", None, None], [None, "2 + sin(x3)", None, None],
                   [None, None, "exp(x1/3)", None], [None, None, None, "1 + x4^2"]],
                  name="curved4")
    J = np.full((4, 4), None, dtype=object)
    for (i, j), t in J_entries.items():
        J[i, j] = t
    return AlmostHermitianStructure(chart, TensorField(chart, "endomorphism", J))


@pytest.mark.parametrize("ambient", [
    ambient_c3(),
    _curved_ambient({(1, 0): "1", (0, 1): "-1", (3, 2): "1", (2, 3): "-1"}),
    _curved_ambient({(1, 0): "1 + x1*x3", (0, 1): "-cos(x2)", (3, 2): "x4",
                     (2, 3): "-1", (0, 2): "x1^2"}),
], ids=["c3", "curved_constant_J", "curved_varying_J"])
def test_batched_nabla_J_matches_per_probe(ambient):
    """The ambient Kähler check's one batch over its probes gives each
    probe's ∇J residual and J bit for bit."""
    points = sample(ambient.chart, 3, seed=7)
    J, nabla_J = hypersurface._ambient_kahler(ambient, points)
    assert np.array_equal(nabla_J, [nabla_J_at_point(ambient, p) for p in points])
    assert np.array_equal(J, [eval_field(ambient.J, p) for p in points])


def test_non_unit_normal_rejected(s5_example):
    patch = s5_example.patch
    scaled = tuple(f"2*({p})" for p in
                   ("cos(a)*cos(p1)", "cos(a)*sin(p1)",
                    "sin(a)*cos(b)*cos(p2)", "sin(a)*cos(b)*sin(p2)",
                    "sin(a)*sin(b)*cos(p3)", "sin(a)*sin(b)*sin(p3)"))
    bad = SurfacePatch(chart=patch.chart, immersion=patch.immersion,
                       normal=scaled)
    with pytest.raises(CurvlabError):
        induce_hypersurface(s5_example.ambient, bad, record(bad.chart))


_S5_IMMERSION = ("cos(a)*cos(p1)", "cos(a)*sin(p1)",
                 "sin(a)*cos(b)*cos(p2)", "sin(a)*cos(b)*sin(p2)",
                 "sin(a)*sin(b)*cos(p3)", "sin(a)*sin(b)*sin(p3)")
# collapse one parameter: the Jacobian loses rank everywhere
_DEGENERATE = ("cos(a)*cos(p1)", "cos(a)*sin(p1)",
               "sin(a)*cos(p2)", "sin(a)*sin(p2)",
               "0*p3", "0*p3 + 1")


def _points(chart, p1_values):
    """The record of ``chart`` at parameter points of s5_in_c3 that differ
    only in p1."""
    return contact_point_data(chart, [[0.7, 0.6, v, 0.3, 0.3] for v in p1_values])


def test_rank_deficient_immersion_rejected(s5_example):
    bad = SurfacePatch(chart=s5_example.patch.chart, immersion=_DEGENERATE,
                       normal=_S5_IMMERSION)
    with pytest.raises(CurvlabError, match="rank-deficient"):
        induce_hypersurface(s5_example.ambient, bad, record(bad.chart))


def test_non_unit_error_comes_first_at_a_point(s5_example):
    """At a point that is both non-unit and rank-deficient (|N|² = 2 and a
    collapsed parameter), the non-unit normal is reported."""
    bad = SurfacePatch(chart=s5_example.patch.chart, immersion=_DEGENERATE,
                       normal=_DEGENERATE)
    with pytest.raises(CurvlabError, match=r"normal is not unit at \(0\.7, 0\.6, 0\.0,"):
        induce_hypersurface(s5_example.ambient, bad, _points(bad.chart, [0.0, 0.5]))


def test_first_failing_point_is_named(s5_example):
    """|N|² = (1 + p1²/1000)² is unit at p1 = 0 only: the first two points
    pass, and the third, not the last, is named."""
    normal = tuple(f"(1 + p1^2/1000)*({c})" for c in _S5_IMMERSION)
    bad = SurfacePatch(chart=s5_example.patch.chart, immersion=_S5_IMMERSION,
                       normal=normal)
    with pytest.raises(CurvlabError, match=r"not unit at \(0\.7, 0\.6, 0\.5, 0\.3, 0\.3\)"):
        induce_hypersurface(s5_example.ambient, bad, _points(bad.chart, [0.0, 0.0, 0.5, 0.9]))
    # a rank-deficient point before it is named instead, with its own error
    collapsing = tuple(f"p1*({c})" for c in _S5_IMMERSION)
    bad = SurfacePatch(chart=s5_example.patch.chart, immersion=collapsing,
                       normal=normal)
    with pytest.raises(CurvlabError, match=r"rank-deficient at \(0\.7, 0\.6, 0\.0, 0\.3, 0\.3\)"):
        induce_hypersurface(s5_example.ambient, bad, _points(bad.chart, [0.01, 0.0, 0.5]))


def test_nan_normal_is_named_in_point_order(s5_example):
    """exp(400 p1)² · 0 is NaN at p1 = 1 only. A NaN normal stops the check
    with EvalDomainError when it comes first in point order, and a non-unit
    one before it is reported as non-unit."""
    from curvlab.errors import EvalDomainError
    normal = tuple(f"exp(400*p1)*exp(400*p1)*0 + (1 + p1^2/1000)*({c})"
                   for c in _S5_IMMERSION)
    bad = SurfacePatch(chart=s5_example.patch.chart, immersion=_S5_IMMERSION,
                       normal=normal)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvalDomainError, match="normal_unit"):
            induce_hypersurface(s5_example.ambient, bad, _points(bad.chart, [0.0, 1.0, 0.5]))
        with pytest.raises(CurvlabError, match=r"not unit at \(0\.7, 0\.6, 0\.5,"):
            induce_hypersurface(s5_example.ambient, bad, _points(bad.chart, [0.0, 0.5, 1.0]))


def test_non_finite_immersion_jacobian_is_named(s5_example):
    """exp(400 a)² · 0 is NaN where exp(800 a) overflows, a > 0.89. A NaN
    Jacobian would make the svd raise numpy's LinAlgError; the check names
    the first such point instead, after a finite one, and at 20 sampled
    points too."""
    immersion = ("exp(400*a)*exp(400*a)*0 + cos(a)*cos(p1)",) + _S5_IMMERSION[1:]
    bad = SurfacePatch(chart=s5_example.patch.chart, immersion=immersion,
                       normal=_S5_IMMERSION)
    points = contact_point_data(bad.chart, [[0.7, 0.6, 0.5, 0.3, 0.3], [1.2, 0.6, 0.5, 0.3, 0.3],
                                            [1.3, 0.6, 0.5, 0.3, 0.3]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(CurvlabError, match=r"^immersion Jacobian is not finite at "
                                               r"\(1\.2, 0\.6, 0\.5, 0\.3, 0\.3\)$"):
            induce_hypersurface(s5_example.ambient, bad, points)
        with pytest.raises(CurvlabError, match="immersion Jacobian is not finite"):
            induce_hypersurface(s5_example.ambient, bad, record(bad.chart))


def test_non_kahler_ambient_rejected(s5_example):
    from curvlab.chart import TensorField
    from curvlab.structures import AlmostHermitianStructure
    import numpy as np
    flat = s5_example.ambient.chart
    J = np.empty((6, 6), dtype=object)
    J[:] = None
    # position-dependent J: not parallel
    entries = {(1, 0): "1 + x1", (0, 1): "-1 - x1", (3, 2): "1", (2, 3): "-1",
               (5, 4): "1", (4, 5): "-1"}
    for (i, j), t in entries.items():
        J[i, j] = t
    bad = AlmostHermitianStructure(flat, TensorField(flat, "endomorphism", J))
    with pytest.raises(CurvlabError):
        induce_hypersurface(bad, s5_example.patch, record(s5_example.structure))


def test_nan_normal_never_passes(s5_example):
    """inf · 0 makes one normal component NaN. The |N|² − 1 unit check must
    stop with EvalDomainError instead of letting ``max`` drop the NaN."""
    from curvlab.errors import EvalDomainError
    patch = s5_example.patch
    normal = ("exp(400)*exp(400)*0 + cos(a)*cos(p1)", "cos(a)*sin(p1)",
              "sin(a)*cos(b)*cos(p2)", "sin(a)*cos(b)*sin(p2)",
              "sin(a)*sin(b)*cos(p3)", "sin(a)*sin(b)*sin(p3)")
    bad = SurfacePatch(chart=patch.chart, immersion=patch.immersion, normal=normal)
    with pytest.raises(EvalDomainError, match="normal_unit"):
        induce_hypersurface(s5_example.ambient, bad, record(bad.chart))
