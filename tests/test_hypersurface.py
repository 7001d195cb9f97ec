import math

import numpy as np
import pytest

from curvlab.chart import Chart, Interval, sample
from curvlab.errors import CurvlabError
from curvlab.structures import classify
from curvlab.constructions import SurfacePatch, induce_hypersurface
from curvlab.constructions.registry import ambient_c3
from curvlab.identities import check_contact


def test_s5_induction(s5_example):
    rep = induce_hypersurface(s5_example.ambient, s5_example.patch)
    assert rep.umbilicity <= 1e-9
    assert abs(rep.beta_mean + 1.0) <= 1e-12
    assert np.all(np.abs(rep.beta + 1.0) <= 1e-10)
    assert rep.h_xi_residual <= 1e-9
    assert rep.normal_unit_residual <= 1e-12
    assert rep.normal_tangency_residual <= 1e-12
    assert rep.pullback_residual <= 1e-10
    assert rep.structure_residual <= 1e-10
    assert rep.induced is not None


def test_h_xi_sweeps_the_coordinate_basis(s5_example):
    """h(X, ξ) − η(AX) is linear in X, so it is checked on the coordinate
    basis and needs no sampled vectors: with none it must still be a real
    residual, not the −1 of an empty maximum."""
    smp = sample(s5_example.patch.chart, 3, seed=1)
    h_xi = induce_hypersurface(s5_example.ambient, s5_example.patch, smp).h_xi_residual
    assert math.isfinite(h_xi) and 0.0 <= h_xi <= 1e-12


def test_s5_induced_structure_is_sasakian(s5_example):
    rep = induce_hypersurface(s5_example.ambient, s5_example.patch)
    cls = classify(rep.induced)
    assert cls.sasakian_nabla_xi <= 1e-8
    assert cls.sasakian_nabla_phi <= 1e-8
    for kind in ("g1", "g2", "g3"):
        assert check_contact(rep.induced, kind).residual <= 1e-7


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


def test_ellipsoid_not_umbilical():
    coords, dom, sphere = _sphere_like_immersion()
    # 2 x1^2 + (rest)^2 = 1: squash the first coordinate by 1/sqrt(2)
    immersion = [f"({sphere[0]})/sqrt(2)"] + sphere[1:]
    # unit normal of 2x^2 + ... = 1 is (2x1, y1, ..., y3)/sqrt(1 + 2 x1^2)
    denom = f"sqrt(1 + ({sphere[0]})^2)"
    normal = [f"sqrt(2)*({sphere[0]})/{denom}"] + [f"({s})/{denom}" for s in sphere[1:]]
    # parameter-chart metric is only needed for sampling; use any SPD template
    metric = [[("1" if i == j else None) for j in range(5)] for i in range(5)]
    chart = Chart(coords, metric, dom, name="ellipsoid_param")
    patch = SurfacePatch(chart=chart, immersion=immersion, normal=normal,
                         name="ellipsoid")
    rep = induce_hypersurface(ambient_c3(), patch)
    assert rep.umbilicity > 1e-2
    assert rep.normal_unit_residual <= 1e-12
    assert rep.induced is None


def test_round_sphere_via_spherical_coordinates():
    # same machinery on the classical spherical parametrization
    coords, dom, sphere = _sphere_like_immersion()
    metric = [[("1" if i == j else None) for j in range(5)] for i in range(5)]
    chart = Chart(coords, metric, dom, name="s5_param")
    patch = SurfacePatch(chart=chart, immersion=sphere, normal=sphere,
                         name="s5_spherical")
    rep = induce_hypersurface(ambient_c3(), patch)
    assert rep.umbilicity <= 1e-9
    assert abs(rep.beta_mean + 1.0) <= 1e-10
    assert rep.h_xi_residual <= 1e-9
    # no induced-structure template on this patch; pullback differs from the
    # placeholder metric, which only drives sampling
    assert rep.induced is None


def test_non_unit_normal_rejected(s5_example):
    patch = s5_example.patch
    scaled = tuple(f"2*({p})" for p in
                   ("cos(a)*cos(p1)", "cos(a)*sin(p1)",
                    "sin(a)*cos(b)*cos(p2)", "sin(a)*cos(b)*sin(p2)",
                    "sin(a)*sin(b)*cos(p3)", "sin(a)*sin(b)*sin(p3)"))
    bad = SurfacePatch(chart=patch.chart, immersion=patch.immersion,
                       normal=scaled)
    with pytest.raises(CurvlabError):
        induce_hypersurface(s5_example.ambient, bad)


def test_rank_deficient_immersion_rejected(s5_example):
    patch = s5_example.patch
    # collapse one parameter: the Jacobian loses rank everywhere
    degenerate = ("cos(a)*cos(p1)", "cos(a)*sin(p1)",
                  "sin(a)*cos(p2)", "sin(a)*sin(p2)",
                  "0*p3", "0*p3 + 1")
    bad = SurfacePatch(chart=patch.chart, immersion=degenerate,
                       normal=degenerate)
    with pytest.raises(CurvlabError):
        induce_hypersurface(s5_example.ambient, bad)


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
        induce_hypersurface(bad, s5_example.patch)


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
        induce_hypersurface(s5_example.ambient, bad)
