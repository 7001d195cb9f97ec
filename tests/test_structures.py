import math
from fractions import Fraction

import numpy as np
import pytest

from curvlab.chart import TensorField, sample
from curvlab.errors import CurvlabError
from curvlab.structures import (AlmostContactStructure, AlmostHermitianStructure,
                                check_kappa_mu, classify, contact_point_data, validate)
from conftest import flat_kahler_c2, record


# -- validate ----------------------------------------------------------------------

def test_h21_frame_validates_exactly(h21_frame):
    res = validate(h21_frame, record(h21_frame))
    assert all(v == 0.0 for v in res.values())


def test_sine_cone_validates(sine_cone_cos):
    res = validate(sine_cone_cos.structure, record(sine_cone_cos.structure))
    assert max(res.values()) <= 1e-12


def test_s5_validates(s5_example):
    res = validate(s5_example.structure, record(s5_example.structure))
    assert max(res.values()) <= 1e-12


def test_validate_differentiates_nothing(monkeypatch, s5_example):
    """validate reads g, φ, ξ and η of the point record: no field jets, no
    metric jets and no expression program run once the record exists."""
    from curvlab import expr, geometry
    s = s5_example.structure
    records = contact_point_data(s, sample(s.carrier, 20, seed=3))
    calls = []
    for owner, name in ((geometry, "_expr_jets"), (geometry, "metric_jets"),
                        (expr.Program, "run")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name:
                            calls.append((name, np.shape(a[1]))) or real(*a))
    validate(s, records)
    assert calls == []


def test_validate_builds_no_frame_derivative_tables(monkeypatch, h21_frame):
    """On a frame too, validate reads g, φ, ξ and η alone: the exact tables
    of ∇ξ, ∇φ, dη and R(·, ·)ξ, which classify and kappa-mu read, are not
    built."""
    from curvlab import structures
    rec, calls = record(h21_frame), []
    real = structures._contract
    monkeypatch.setattr(structures, "_contract", lambda *a: calls.append(a) or real(*a))
    assert all(v == 0.0 for v in validate(h21_frame, rec).values())
    assert calls == []
    classify(h21_frame, rec)
    assert len(calls) == 5


def test_corrupted_phi_detected(sine_cone_cos):
    s = sine_cone_cos.structure
    chart = s.carrier
    comps = s.phi.components.copy()
    comps[1, 0] = chart.parse("1 + 1/10")  # perturb one entry by 0.1
    bad = AlmostContactStructure(carrier=chart,
                                 phi=TensorField(chart, "endomorphism", comps),
                                 xi=s.xi, eta=s.eta)
    res = validate(bad, record(bad))
    assert res["phi_square"] >= 0.05


def test_hermitian_validate():
    h = flat_kahler_c2()
    res = validate(h, record(h))
    # summation order differs between g(JX, JY) and g(X, Y); roundoff only
    assert max(res.values()) <= 1e-14


def test_classify_rejects_incompatible(sine_cone_cos):
    s = sine_cone_cos.structure
    chart = s.carrier
    comps = s.phi.components.copy()
    comps[1, 0] = chart.parse("2")
    bad = AlmostContactStructure(carrier=chart,
                                 phi=TensorField(chart, "endomorphism", comps),
                                 xi=s.xi, eta=s.eta)
    with pytest.raises(CurvlabError):
        classify(bad, record(bad))


# -- classify ------------------------------------------------------------------------

def test_h21_classification(h21_frame):
    rep = classify(h21_frame, record(h21_frame))
    b = rep.booleans()
    assert rep.killing_xi == 0.0
    assert b["killing_xi"]
    assert rep.sasakian_nabla_xi > 0.1
    assert not b["sasakian"]
    assert isinstance(rep.ric_xi_xi, Fraction)
    assert rep.ric_xi_xi == 4
    assert rep.ric_xi_xi_target == 4
    assert b["k_contact_ricci"]
    # theta != 0: not contact metric in either convention
    assert rep.contact_metric > 1e-2


def test_h21_chart_classification_matches_frame(h21_frame, h21_chart):
    fr = classify(h21_frame, record(h21_frame))
    ch = classify(h21_chart, record(h21_chart))
    assert ch.killing_xi <= 1e-9
    assert abs(ch.sasakian_nabla_xi) > 0.05
    assert abs(float(ch.ric_xi_xi) - 4.0) <= 1e-8
    assert not ch.booleans()["sasakian"]
    assert fr.booleans()["killing_xi"] and ch.booleans()["killing_xi"]


def test_s5_is_sasakian(s5_example):
    rep = classify(s5_example.structure, record(s5_example.structure))
    b = rep.booleans()
    assert rep.sasakian_nabla_xi <= 1e-8
    assert rep.sasakian_nabla_phi <= 1e-8
    assert b["sasakian"] and b["killing_xi"] and b["contact_metric"]
    assert abs(rep.ric_xi_xi - 4.0) <= 1e-7


def test_sine_cone_classification(sine_cone_cos):
    rep = classify(sine_cone_cos.structure, record(sine_cone_cos.structure))
    b = rep.booleans()
    # eta is closed: d(eta) = 0 so the Blair pairing residual is |g(X, phiY)|
    assert not b["contact_metric"]
    assert not b["killing_xi"]  # xi not Killing (warping depends on z)


def test_hopf_total_is_sasakian(hopf_pair):
    rep = classify(hopf_pair.total, record(hopf_pair.total))
    assert rep.booleans()["sasakian"]
    assert rep.booleans()["contact_metric"]
    assert abs(rep.ric_xi_xi - 2.0) <= 1e-8  # 2n with n = 1


# -- kappa-mu nullity ------------------------------------------------------------------

def test_s5_has_kappa_one(s5_example):
    res = check_kappa_mu(s5_example.structure, 1.0, 0.0, record(s5_example.structure))
    assert res <= 1e-7
    res_wrong = check_kappa_mu(s5_example.structure, 0.0, 0.0, record(s5_example.structure))
    assert res_wrong > 0.1


def test_h21_kappa_mu_exact_zero(h21_frame):
    # brackets with xi vanish, so h = 0 and the kappa = 1 nullity relation
    # holds exactly; mu is then immaterial
    assert check_kappa_mu(h21_frame, 1, 0, record(h21_frame)) == 0.0
    assert check_kappa_mu(h21_frame, 1, 5, record(h21_frame)) == 0.0
    assert check_kappa_mu(h21_frame, Fraction(1, 2), 0, record(h21_frame)) > 0.4


def test_h21_chart_kappa_mu_matches_frame(h21_chart):
    assert check_kappa_mu(h21_chart, 1.0, 0.0, record(h21_chart)) <= 1e-9


def test_kappa_mu_zero_zero_reduces_to_rxy_xi(flat_cosym5):
    # on eta-orthogonal vectors the formula degenerates to |R_XY xi|,
    # which vanishes identically on a flat chart for any (kappa, mu) with
    # both parameters zero
    assert check_kappa_mu(flat_cosym5, 0.0, 0.0, record(flat_cosym5)) == 0.0


def test_sasakian_consistency_bound(s5_example, hopf_pair):
    # structures passing the Sasakian residuals satisfy the kappa=1 nullity
    # within a small multiple of the classification tolerance
    for s in (s5_example.structure, hopf_pair.total):
        rep = classify(s, record(s))
        assert rep.sasakian_nabla_xi <= 1e-7
        assert check_kappa_mu(s, 1.0, 0.0, record(s)) <= 10 * 1e-7


# -- misc --------------------------------------------------------------------------

def test_frame_carrier_requires_tensors():
    from curvlab.frame import FrameGeometry
    d = 3
    c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    g = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    bare = FrameGeometry(dim=d, c=c, g=g)
    with pytest.raises(ValueError):
        AlmostContactStructure(bare)


def test_classification_deterministic(s5_example):
    s = s5_example.structure
    rec = record(s, 8, seed=77)
    a = classify(s, rec).residuals()
    b = classify(s, rec).residuals()
    assert a == b


@pytest.mark.parametrize("poison", ["curvature", "connection", "curvature_at_last_point"])
def test_nan_point_geometry_never_passes(monkeypatch, s5_example, poison):
    """A NaN in R or Γ at the sample points must raise, not read as a pass:
    clamps such as max(x, 0) and some array maxima drop NaN. Poisoning only
    the last point of the batch catches a batched maximum that skips a NaN.
    The identity rows raise where the CLI emits them."""
    from curvlab import geometry
    from curvlab.cli import _identity_rows
    from curvlab.errors import EvalDomainError
    s = s5_example.structure
    mj = sample(s.carrier, 3, seed=1)
    at = -1 if poison == "curvature_at_last_point" else slice(None)
    real_conn, real_curv = geometry.connection_of, geometry.curvature_of

    def poisoned_connection(m):
        gamma, dgamma = real_conn(m)
        assert m is mj   # the whole batch in one call
        gamma = gamma.copy()
        gamma[at] = np.nan
        return gamma, dgamma

    def poisoned_curvature(g, gamma, dgamma):
        riem, riem13 = real_curv(g, gamma, dgamma)
        assert g is mj.g
        riem, riem13 = riem.copy(), riem13.copy()
        riem[at] = riem13[at] = np.nan
        return riem, riem13

    if poison == "connection":
        monkeypatch.setattr(geometry, "connection_of", poisoned_connection)
    else:
        monkeypatch.setattr(geometry, "curvature_of", poisoned_curvature)
    rec = contact_point_data(s, mj)
    with pytest.raises(EvalDomainError):
        classify(s, rec)
    with pytest.raises(EvalDomainError):
        check_kappa_mu(s, 1.0, 0.0, rec)
    if poison != "connection":   # the identity rows read R, not Γ
        for check in ("g1", ()), ("consequences", ()):
            with pytest.raises(EvalDomainError):
                _identity_rows(s, [check], rec, 1e-7)
