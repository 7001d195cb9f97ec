from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from curvlab.chart import sample
from curvlab.identities import (check_c_alpha, check_contact, check_hermitian,
                                consequence_suite, reevaluate_witness)
from curvlab.structures import default_samples
from curvlab.constructions import build_cone, resolve_target
from curvlab.constructions.registry import flat_kahler_c2

F = Fraction


# -- hermitian identities -----------------------------------------------------------

def test_flat_c2_satisfies_all_k():
    h = flat_kahler_c2()
    for kind in ("k1", "k2", "k3"):
        rep = check_hermitian(h, kind)
        assert rep.residual <= 1e-12
        assert rep.verdict


def test_cone_over_s5_is_kahler_flat(s5_example):
    cb = build_cone(s5_example.structure)
    for kind in ("k1", "k2", "k3"):
        rep = check_hermitian(cb.hermitian, kind)
        assert rep.residual <= 1e-7


def test_cone_over_h21_k2_but_not_k1(h21_chart):
    cb = build_cone(h21_chart)
    k2 = check_hermitian(cb.hermitian, "k2")
    assert k2.residual <= 1e-7
    k1 = check_hermitian(cb.hermitian, "k1")
    assert k1.residual >= 0.5
    k3 = check_hermitian(cb.hermitian, "k3")
    assert k3.residual <= 1e-7


# -- contact identities ---------------------------------------------------------------

def test_h21_g2_exactly_zero(h21_frame):
    rep = check_contact(h21_frame, "g2")
    assert rep.exact == 0
    assert rep.verdict
    assert rep.n_quadruples == 625


def test_h21_g3_exactly_zero(h21_frame):
    rep = check_contact(h21_frame, "g3")
    assert rep.exact == 0


def test_h21_g1_exact_residuals(h21_frame):
    """The exhaustive sweep pins the max residual at exactly 2; the
    designated quadruple (X1, Y1, X1, Y2) carries exactly 24/25 = 2cs."""
    rep = check_contact(h21_frame, "g1")
    assert rep.exact == 2
    assert not rep.verdict
    # the argmax witness reproduces its residual exactly
    assert reevaluate_witness(h21_frame, "g1", rep.witness) == 2
    from curvlab.identities import Witness
    e = lambda i: tuple(int(a == i) for a in range(5))
    designated = Witness(point=None, vectors=(e(0), e(2), e(0), e(3)))
    assert reevaluate_witness(h21_frame, "g1", designated) == F(24, 25)


def test_h21_g1_value_is_2cs():
    from curvlab.frame import heisenberg_h21
    from curvlab.structures import AlmostContactStructure
    from curvlab.identities import Witness, reevaluate_witness
    e = lambda i: tuple(int(a == i) for a in range(5))
    designated = Witness(point=None, vectors=(e(0), e(2), e(0), e(3)))
    for c, s in ((F(3, 5), F(4, 5)), (F(5, 13), F(12, 13)), (F(1), F(0))):
        st = AlmostContactStructure(heisenberg_h21(c, s))
        assert reevaluate_witness(st, "g1", designated) == 2 * c * s


def test_s5_satisfies_all_g(s5_example):
    for kind in ("g1", "g2", "g3"):
        rep = check_contact(s5_example.structure, kind)
        assert rep.residual <= 1e-7, kind


def test_sine_cone_g2_not_g1(sine_cone_cos, sine_cone_sin):
    for bundle in (sine_cone_cos, sine_cone_sin):
        s = bundle.structure
        g2 = check_contact(s, "g2")
        assert g2.residual <= 1e-8
        g1 = check_contact(s, "g1")
        assert g1.residual >= 0.5
        g3 = check_contact(s, "g3")
        assert g3.residual <= 1e-8


def test_surface_warped_satisfies_g1(r_warped_surface):
    rep = check_contact(r_warped_surface.structure, "g1")
    assert rep.residual <= 1e-8


def test_flat_cosym_fails_all_g(flat_cosym5):
    for kind in ("g1", "g2", "g3"):
        rep = check_contact(flat_cosym5, kind)
        assert rep.residual > 0.1, kind


# -- c(alpha) ---------------------------------------------------------------------------

def test_s5_is_c1(s5_example):
    assert check_c_alpha(s5_example.structure, 1.0).residual <= 1e-7


def test_s5_alpha_zero_negative_control(s5_example):
    assert check_c_alpha(s5_example.structure, 0.0).residual >= 0.5


def test_flat_cosym_is_c0(flat_cosym5):
    assert check_c_alpha(flat_cosym5, 0.0).residual <= 1e-12


def test_h21_c1_equals_g1(h21_frame):
    # c(1) coincides with g1 term for term
    assert check_c_alpha(h21_frame, 1).exact == check_contact(h21_frame, "g1").exact


# -- consequences ------------------------------------------------------------------------

def test_s5_consequences(s5_example):
    for kind in ("g1", "g2", "g3"):
        suite = consequence_suite(s5_example.structure, kind)
        for tag, rep in suite.items():
            assert rep.residual <= 1e-7, (kind, tag)


def test_h21_xi_slot_consequence_exact(h21_frame):
    suite = consequence_suite(h21_frame, "g2")
    assert suite["xi_slot_g"].exact == 0
    assert suite["xi_slot_zero"].exact == 0


def test_flat_cosym_xi_slot_fails(flat_cosym5):
    # R = 0 so R(xi, Y, xi, W) cannot equal g(Y, W); the g3 consequence fails
    suite = consequence_suite(flat_cosym5, "g3")
    assert suite["xi_slot_g"].residual > 0.1
    assert suite["restricted"].residual <= 1e-12


def test_g2_implies_xi_slot_relation(h21_frame, s5_example):
    """The relation R(xi, Y, Z, phiW) = eta(Z) g(phiW, Y) follows from g2 and
    is verified here as a consequence on g2-true structures only."""
    # frame path, exact
    fg = h21_frame.carrier
    d = fg.dim
    basis = [[F(int(a == b)) for a in range(d)] for b in range(d)]
    for j, k, l in product(range(d), repeat=3):
        Y, Z, W = basis[j], basis[k], basis[l]
        pw = fg.phi_vector(W)
        lhs = F(0)
        for m in range(d):
            if fg.xi[m] == 0:
                continue
            for a in range(d):
                if pw[a] != 0:
                    lhs += fg.xi[m] * pw[a] * fg.riemann(m, j, k, a)
        rhs = fg.eta_value(Z) * fg.inner(pw, Y)
        assert lhs == rhs
    # chart path on S5
    s = s5_example.structure
    from curvlab.structures import contact_point_data
    smp = sample(s.carrier, 4, 12, seed=5)
    for i in range(smp.n_points):
        p = smp.points[i]
        data = contact_point_data(s, p)
        for a in range(0, 12 - 2, 3):
            Y, Z, W = smp.vectors[i][a], smp.vectors[i][a + 1], smp.vectors[i][a + 2]
            pw = data.phi @ W
            lhs = float(np.einsum("ijkl,i,j,k,l", data.riem, data.xi, Y, Z, pw))
            rhs = float(data.eta @ Z) * float(pw @ data.g @ Y)
            assert abs(lhs - rhs) <= 1e-8


# -- inclusion chain and registry-wide properties ---------------------------------------

CONTACT_TARGETS = ("h21", "h21_chart", "flat_cosym5", "sine_cone_cos",
                   "sine_cone_sin", "r_warped_surface", "s5_in_c3")


def contact_structure(name):
    t = resolve_target(name)
    return t.obj.structure if t.kind == "hypersurface" else t.obj


@pytest.mark.parametrize("name", CONTACT_TARGETS)
def test_inclusion_chain(name):
    s = contact_structure(name)
    verdicts = {k: check_contact(s, k, tol=1e-7).verdict for k in ("g1", "g2", "g3")}
    assert not (verdicts["g1"] and not verdicts["g2"]), name
    assert not (verdicts["g2"] and not verdicts["g3"]), name


@pytest.mark.parametrize("name", CONTACT_TARGETS)
def test_g3_implies_ricci_2n(name):
    from curvlab.structures import classify
    s = contact_structure(name)
    if not check_contact(s, "g3", tol=1e-7).verdict:
        pytest.skip("g3 does not hold here")
    rep = classify(s)
    assert abs(float(rep.ric_xi_xi) - rep.ric_xi_xi_target) <= 1e-6


def test_witness_reproducibility_chart(s5_example, sine_cone_cos):
    for s, kind in ((s5_example.structure, "g2"), (sine_cone_cos.structure, "g1")):
        rep = check_contact(s, kind)
        again = reevaluate_witness(s, kind, rep.witness)
        assert abs(again - rep.residual) <= 1e-12


def test_identity_reports_deterministic(s5_example):
    s = s5_example.structure
    smp = sample(s.carrier, 6, 8, seed=3)
    a = check_contact(s, "g1", smp)
    b = check_contact(s, "g1", smp)
    assert a.residual == b.residual
    assert a.witness == b.witness


def test_worst_residual_rejects_non_finite():
    from curvlab.errors import EvalDomainError
    from curvlab.identities import WorstResidual
    w = WorstResidual("row")
    assert w.add(0.5) and not w.add(0.25) and w.value == 0.5
    for bad in (float("nan"), float("inf")):
        with pytest.raises(EvalDomainError):
            w.add(bad)
    with pytest.raises(EvalDomainError):
        WorstResidual("row").add(float("nan"))
