from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from curvlab.identities import reevaluate_witness
from curvlab.constructions import build_cone, resolve_target
from conftest import (check_c_alpha, check_contact, check_hermitian, consequence_suite,
                      flat_kahler_c2, record, record_at, sample_with_vectors, structure_of)

F = Fraction


# -- hermitian identities -----------------------------------------------------------

def test_flat_c2_satisfies_all_k():
    h = flat_kahler_c2()
    for kind in ("k1", "k2", "k3"):
        rep = check_hermitian(kind, record(h))
        assert rep.residual <= 1e-12
        assert rep.verdict


def test_cone_over_s5_is_kahler_flat(s5_example):
    cone = build_cone(s5_example.structure)
    for kind in ("k1", "k2", "k3"):
        rep = check_hermitian(kind, record(cone))
        assert rep.residual <= 1e-7


def test_cone_over_h21_k2_but_not_k1(h21_chart):
    cone = build_cone(h21_chart)
    k2 = check_hermitian("k2", record(cone))
    assert k2.residual <= 1e-7
    k1 = check_hermitian("k1", record(cone))
    assert k1.residual >= 0.5
    k3 = check_hermitian("k3", record(cone))
    assert k3.residual <= 1e-7


# -- contact identities ---------------------------------------------------------------

def test_h21_g2_exactly_zero(h21_frame):
    rep = check_contact("g2", record(h21_frame))
    assert rep.exact == 0
    assert rep.verdict
    assert rep.n_quadruples == 625


def test_h21_g3_exactly_zero(h21_frame):
    rep = check_contact("g3", record(h21_frame))
    assert rep.exact == 0


def test_h21_g1_exact_residuals(h21_frame):
    """The exhaustive sweep pins the max residual at exactly 2; the
    designated quadruple (X1, Y1, X1, Y2) carries exactly 24/25 = 2cs."""
    rep = check_contact("g1", record(h21_frame))
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


@pytest.mark.parametrize("cs", ["3/5,4/5", "-5/13,12/13", "112/113,-15/113"])
def test_h21_chart_residuals_are_the_exact_h21_values(cs):
    """h21_chart is the h21 frame in coordinates and a chart sweep covers all
    of E(p), so its residuals are the exact frame values up to rounding:
    g1 = 2, g2 = g3 = 0 and c(1/2) = 3/2."""
    s = resolve_target(f"h21_chart:{cs}")
    rec = record(s, 5, seed=1)
    for kind, exact in (("g1", 2), ("g2", 0), ("g3", 0)):
        assert abs(check_contact(kind, rec).residual - exact) <= 1e-12, kind
    assert abs(check_c_alpha(F(1, 2), rec).residual - 1.5) <= 1e-12


def test_s5_satisfies_all_g(s5_example):
    for kind in ("g1", "g2", "g3"):
        rep = check_contact(kind, record(s5_example.structure))
        assert rep.residual <= 1e-7, kind


def test_sine_cone_g2_not_g1(sine_cone_cos, sine_cone_sin):
    for bundle in (sine_cone_cos, sine_cone_sin):
        s = bundle.structure
        g2 = check_contact("g2", record(s))
        assert g2.residual <= 1e-8
        g1 = check_contact("g1", record(s))
        assert g1.residual >= 0.5
        g3 = check_contact("g3", record(s))
        assert g3.residual <= 1e-8


def test_surface_warped_satisfies_g1(r_warped_surface):
    rep = check_contact("g1", record(r_warped_surface.structure))
    assert rep.residual <= 1e-8


def test_flat_cosym_fails_all_g(flat_cosym5):
    for kind in ("g1", "g2", "g3"):
        rep = check_contact(kind, record(flat_cosym5))
        assert rep.residual > 0.1, kind


# -- c(alpha) ---------------------------------------------------------------------------

def test_s5_is_c1(s5_example):
    assert check_c_alpha(1.0, record(s5_example.structure)).residual <= 1e-7


def test_s5_alpha_zero_negative_control(s5_example):
    assert check_c_alpha(0.0, record(s5_example.structure)).residual >= 0.5


def test_flat_cosym_is_c0(flat_cosym5):
    assert check_c_alpha(0.0, record(flat_cosym5)).residual <= 1e-12


def test_h21_c1_equals_g1(h21_frame):
    # c(1) coincides with g1 term for term
    rec = record(h21_frame)
    assert check_c_alpha(1, rec).exact == check_contact("g1", rec).exact


# -- consequences ------------------------------------------------------------------------

def test_s5_consequences(s5_example):
    for kind in ("g1", "g2", "g3"):
        suite = consequence_suite(kind, record(s5_example.structure))
        for tag, rep in suite.items():
            assert rep.residual <= 1e-7, (kind, tag)


def test_h21_xi_slot_consequence_exact(h21_frame):
    suite = consequence_suite("g2", record(h21_frame))
    assert suite["xi_slot_g"].exact == 0
    assert suite["xi_slot_zero"].exact == 0


def test_flat_cosym_xi_slot_fails(flat_cosym5):
    # R = 0 so R(xi, Y, xi, W) cannot equal g(Y, W); the g3 consequence fails
    suite = consequence_suite("g3", record(flat_cosym5))
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
        pw = fg.phi @ W
        lhs = F(0)
        for m in range(d):
            if fg.xi[m] == 0:
                continue
            for a in range(d):
                if pw[a] != 0:
                    lhs += fg.xi[m] * pw[a] * fg.riem[m, j, k, a]
        rhs = (fg.eta @ Z) * (pw @ fg.g @ Y)
        assert lhs == rhs
    # chart path on S5
    s = s5_example.structure
    points, vectors = sample_with_vectors(s.carrier, 4, 12, seed=5)
    for i, p in enumerate(points):
        data = record_at(s, p)
        for a in range(0, 12 - 2, 3):
            Y, Z, W = vectors[i][a], vectors[i][a + 1], vectors[i][a + 2]
            pw = data.phi @ W
            lhs = float(np.einsum("ijkl,i,j,k,l", data.riem, data.xi, Y, Z, pw))
            rhs = float(data.eta @ Z) * float(pw @ data.g @ Y)
            assert abs(lhs - rhs) <= 1e-8


# -- inclusion chain and registry-wide properties ---------------------------------------

CONTACT_TARGETS = ("h21", "h21_chart", "flat_cosym5", "sine_cone_cos",
                   "sine_cone_sin", "r_warped_surface", "s5_in_c3")


@pytest.mark.parametrize("name", CONTACT_TARGETS)
def test_inclusion_chain(name):
    s = structure_of(name)
    verdicts = {k: check_contact(k, record(s), tol=1e-7).verdict for k in ("g1", "g2", "g3")}
    assert not (verdicts["g1"] and not verdicts["g2"]), name
    assert not (verdicts["g2"] and not verdicts["g3"]), name


@pytest.mark.parametrize("name", CONTACT_TARGETS)
def test_g3_implies_ricci_2n(name):
    from curvlab.structures import classify
    s = structure_of(name)
    if not check_contact("g3", record(s), tol=1e-7).verdict:
        pytest.skip("g3 does not hold here")
    rep = classify(s, record(s))
    assert abs(float(rep.ric_xi_xi) - rep.ric_xi_xi_target) <= 1e-6


def test_witness_reproducibility_chart(s5_example, sine_cone_cos):
    for s, kind in ((s5_example.structure, "g2"), (sine_cone_cos.structure, "g1")):
        rep = check_contact(kind, record(s))
        assert reevaluate_witness(s, kind, rep.witness) == rep.residual


def test_witness_reproducibility_hermitian(h21_chart):
    h = build_cone(h21_chart)
    for kind in ("k1", "k2", "k3"):
        rep = check_hermitian(kind, record(h))
        assert reevaluate_witness(h, kind, rep.witness) == rep.residual


@pytest.mark.parametrize("alpha", [F(1, 2), F(-2)])
def test_witness_reproducibility_c_alpha(s5_example, h21_frame, alpha):
    rep = check_c_alpha(alpha, record(s5_example.structure))
    assert reevaluate_witness(s5_example.structure, "c", rep.witness, alpha) == rep.residual
    rep = check_c_alpha(alpha, record(h21_frame))
    again = reevaluate_witness(h21_frame, "c", rep.witness, alpha)
    assert type(again) is Fraction and again == rep.exact


def test_chart_sweep_covers_every_frame_quadruple(sine_cone_cos):
    """A chart sweep visits all d⁴ quadruples of E(p) at every point."""
    s = sine_cone_cos.structure
    rep = check_contact("g1", record(s, 5, seed=1))
    assert rep.n_points == 5
    assert rep.n_quadruples == rep.n_points * s.dim ** 4


def test_one_evaluation_per_check(monkeypatch):
    """The identity rows of an invocation are one sweep and its consequence
    rows one more: one set of closures per sweep, each defect one table over
    all sample points, not one per point or per check."""
    import contextlib
    import io
    import curvlab.cli as cli
    import curvlab.identities as identities
    real, calls = identities._closures, []
    monkeypatch.setattr(identities, "_closures", lambda *a: calls.append(a) or real(*a))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(["identities", "s5_in_c3", "--which", "g1,g2,g3,consequences",
                        "--samples", "20"])
    assert code == 0
    assert len(calls) == 2
    assert all(riem.shape == (20, 5, 5, 5, 5) for riem, *_ in calls)


def test_shared_terms_are_contracted_once(monkeypatch):
    """Within a sweep each closure value is computed once per distinct
    argument tuple: g1, g2, g3 and c(1/2) read 5 distinct curvature terms
    (10 reads), and the consequence rows of the three kinds 8 (15 reads, the
    ξ-slot rows of every kind on one ξ slot batch). 13 r4 evaluations of 4
    slot contractions each on the exact frame; 25 and 100 without the memo."""
    import contextlib
    import io
    import curvlab.cli as cli
    import curvlab.identities as identities
    real, calls = identities._contract, []
    monkeypatch.setattr(identities, "_contract", lambda *a: calls.append(1) or real(*a))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(["identities", "h21:3/5,4/5", "--which",
                        "g1,g2,g3,c(1/2),consequences"])
    assert code == 1
    assert len(calls) == 52


@pytest.mark.parametrize("target,which", [
    ("s5_in_c3", "g1,g2,g3,c(1/2),consequences"), ("h21:3/5,4/5", "g1,g2,g3,c(1/2),consequences"),
    ("cone_of:s5_in_c3", "k1,k2,k3"),
])
def test_kept_values_are_released_at_their_last_read(monkeypatch, target, which):
    """The stand-in run finds the last read of every distinct closure call
    that a sweep makes: recorded on the sweep's closures, with every
    argument kept alive so that no id is reused, each call's last read is a
    position at which the memo releases its value, and a sweep ends with
    nothing kept."""
    import contextlib
    import io
    import curvlab.cli as cli
    import curvlab.identities as identities
    sweeps, kept, real = [], [], identities._remembered

    def remembered(fns, last):
        memo_fns = real(fns, last)
        calls = []
        sweeps.append((last, calls, memo_fns[0].__closure__))

        def record(fn):
            def call(*args):
                kept.append(args)
                calls.append((fn, *map(id, args)))
                return fn(*args)
            return call
        return tuple(map(record, memo_fns))

    monkeypatch.setattr(identities, "_remembered", remembered)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["identities", target, "--which", which, "--samples", "4"]) in (0, 1)
    assert len(sweeps) == 2 - which.startswith("k")
    for last, calls, cells in sweeps:
        assert last == set({key: n for n, key in enumerate(calls)}.values())
        assert {} in [c.cell_contents for c in cells]   # the memo, emptied


def test_identity_reports_deterministic(s5_example):
    s = s5_example.structure
    rec = record(s, 6, seed=3)
    a = check_contact("g1", rec)
    b = check_contact("g1", rec)
    assert a.residual == b.residual
    assert a.witness == b.witness


def test_checked_rejects_non_finite():
    from curvlab.errors import EvalDomainError
    from curvlab.structures import _checked
    assert _checked("row", 0.5) == 0.5
    for bad in (float("nan"), float("inf")):
        with pytest.raises(EvalDomainError, match="non-finite residual in row"):
            _checked("row", bad)
