"""validate, classify and kappa-mu against per-vector oracles.

On charts the oracle is the plain loop: at each sample point it feeds the
rows of E(p), the metric jets' ``E``, and every ordered pair of them, one
vector at a time to single-vector formulas in chart coordinates (∇ from
``reference.nabla_of``, dη from the curl of η's gradients, norms from
``v @ g @ v``, h = ½ L_ξ φ from coordinate brackets). The engine works on
whole tables in E(p), so it must agree to rounding.

On frames the oracle is the bracket form: h from ad_ξ = [ξ, ·] and Ric from
``reference.frame_ricci``. The engine takes h from ∇ and Ric(ξ, ξ) as a trace,
which are the same rationals, so every residual must agree exactly.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from curvlab import geometry
from curvlab.chart import sample
from curvlab.frame import FrameGeometry, heisenberg_h21
from curvlab.manifold_io import load_manifold_file, load_manifold_text
from curvlab.structures import AlmostContactStructure, check_kappa_mu, classify, validate
from conftest import flat_kahler_c2, record, record_of, structure_of
from reference import (eval_field, eval_field_jets, frame_ricci, nabla_of, point_geometry,
                       ricci)
from test_frame_oracle import tilted_frame_text

F = Fraction
KAPPA_MU = ((1, 0), (F(1, 2), 3))
SEEDS = (3, 11)

# -- the chart oracle ---------------------------------------------------------------


def gnorm(g, v):
    return math.sqrt(max(float(v @ g @ v), 0.0))


def basis_at(chart, p):
    """g at p and the rows of E(p)."""
    mj = geometry.metric_jets(chart, p)
    return mj.g, list(mj.E)


def oracle_validate(s, points):
    res = dict.fromkeys(("eta_xi", "phi_xi", "eta_phi", "phi_square", "compatibility"), 0.0)
    for p in points:
        g, vecs = basis_at(s.carrier, p)
        phi, xi, eta = eval_field(s.phi, p), eval_field(s.xi, p), eval_field(s.eta, p)
        res["eta_xi"] = max(res["eta_xi"], abs(float(eta @ xi) - 1.0))
        res["phi_xi"] = max(res["phi_xi"], gnorm(g, phi @ xi))
        for X in vecs:
            res["eta_phi"] = max(res["eta_phi"], abs(float(eta @ (phi @ X))))
            res["phi_square"] = max(res["phi_square"],
                                    gnorm(g, phi @ (phi @ X) + X - float(eta @ X) * xi))
        for X, Y in product(vecs, repeat=2):
            lhs = float((phi @ X) @ g @ (phi @ Y))
            rhs = float(X @ g @ Y) - float(eta @ X) * float(eta @ Y)
            res["compatibility"] = max(res["compatibility"], abs(lhs - rhs))
    return res


def oracle_hermitian(h, points):
    res = {"j_square": 0.0, "compatibility": 0.0}
    for p in points:
        g, vecs = basis_at(h.chart, p)
        J = eval_field(h.J, p)
        for X in vecs:
            res["j_square"] = max(res["j_square"], gnorm(g, J @ (J @ X) + X))
        for X, Y in product(vecs, repeat=2):
            res["compatibility"] = max(res["compatibility"],
                                       abs(float((J @ X) @ g @ (J @ Y)) - float(X @ g @ Y)))
    return res


def oracle_classify(s, points):
    chart, d = s.carrier, s.dim
    res = dict.fromkeys(("contact_metric", "contact_metric_raw", "killing_xi",
                         "sasakian_nabla_xi", "sasakian_nabla_phi", "parallel_phi"), 0.0)
    ric, ric_dev = None, -1.0
    for p in points:
        g, vecs = basis_at(chart, p)
        gamma = point_geometry(chart, p)[0]
        phi, xi, eta = eval_field(s.phi, p), eval_field(s.xi, p), eval_field(s.eta, p)
        xi_jets, phi_jets = eval_field_jets(s.xi, p), eval_field_jets(s.phi, p)
        grads = eval_field_jets(s.eta, p)[1]        # grads[j, i] = ∂_i η_j
        curl = grads.T - grads
        dxi = [nabla_of(gamma, "vector", xi_jets, X) for X in vecs]
        for X, dxi_x in zip(vecs, dxi):
            res["sasakian_nabla_xi"] = max(res["sasakian_nabla_xi"], gnorm(g, dxi_x + phi @ X))
        for a, b in product(range(d), repeat=2):
            X, Y = vecs[a], vecs[b]
            de = float(X @ curl @ Y)
            gxphiy = float(X @ g @ (phi @ Y))
            lie = float(dxi[a] @ g @ Y + X @ g @ dxi[b])
            dphi_y = nabla_of(gamma, "endomorphism", phi_jets, X) @ Y
            target = float(X @ g @ Y) * xi - float(eta @ Y) * X
            for key, val in (("contact_metric", abs(gxphiy - 0.5 * de)),
                             ("contact_metric_raw", abs(gxphiy - de)),
                             ("killing_xi", abs(lie)),
                             ("parallel_phi", gnorm(g, dphi_y)),
                             ("sasakian_nabla_phi", gnorm(g, dphi_y - target))):
                res[key] = max(res[key], val)
        val = ricci(chart, p, xi, xi)
        if abs(val - (d - 1)) > ric_dev:
            ric, ric_dev = val, abs(val - (d - 1))
    return res, ric


def oracle_kappa_mu(s, kappa, mu, points):
    worst = 0.0
    for p in points:
        g, vecs = basis_at(s.carrier, p)
        riem13 = point_geometry(s.carrier, p)[2]
        phi_v, phi_g = eval_field_jets(s.phi, p)
        xi_v, xi_g = eval_field_jets(s.xi, p)       # xi_g[k, i] = ∂_i ξ^k
        eta = eval_field(s.eta, p)
        # h = ½ L_ξ φ = ½(ξ^i ∂_i φ^k_j − φ^i_j ∂_i ξ^k + φ^k_i ∂_j ξ^i)
        h = 0.5 * (np.einsum("i,kji->kj", xi_v, phi_g) - np.einsum("ij,ki->kj", phi_v, xi_g)
                   + np.einsum("ki,ij->kj", phi_v, xi_g))
        for X, Y in product(vecs, repeat=2):
            rxy_xi = np.einsum("mijk,i,j,k->m", riem13, X, Y, xi_v)
            ex_, ey = float(eta @ X), float(eta @ Y)
            defect = (rxy_xi - kappa * (ey * X - ex_ * Y)
                      - mu * (ey * (h @ X) - ex_ * (h @ Y)))
            worst = max(worst, gnorm(g, defect))
    return worst


def close(got, want):
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


# -- chart targets --------------------------------------------------------------------

# The solvable group with [ξ, E1] = E1 and [ξ, E2] = −E2 in coordinates:
# E1 = e^z ∂x, E2 = e^(−z) ∂y, ξ = ∂z, φE1 = E2 and φE2 = −E1. Its h is not
# zero, unlike the registry targets', and E(p) is the frame (E1, E2, ξ).
SOL3_CHART = """[chart]
dim = 3
coords = "x, y, z"
[metric]
g_11 = "exp(-2*z)"
g_22 = "exp(2*z)"
g_33 = "1"
[phi]
phi^2_1 = "exp(-2*z)"
phi^1_2 = "-exp(2*z)"
[xi]
xi^3 = "1"
[eta]
eta_3 = "1"
"""


@pytest.fixture(scope="module", params=["s5_in_c3", "sine_cone_cos", "h21_chart", "hopf_pair",
                                        "flat_cosym5", "sol3"])
def contact(request):
    if request.param == "sol3":
        return load_manifold_text(SOL3_CHART)
    return structure_of(request.param)


@pytest.mark.parametrize("seed", SEEDS)
def test_chart_validate_matches_oracle(contact, seed):
    smp = sample(contact.carrier, 3, seed).point
    got, want = validate(contact, record_of(contact, smp)), oracle_validate(contact, smp)
    assert list(got) == list(want)
    for key in want:
        close(got[key], want[key])


@pytest.mark.parametrize("seed", SEEDS)
def test_chart_classify_matches_oracle(contact, seed):
    smp = sample(contact.carrier, 3, seed).point
    rep = classify(contact, record_of(contact, smp))
    want, ric = oracle_classify(contact, smp)
    close(rep.compatibility, max(oracle_validate(contact, smp).values()))
    for key, val in want.items():
        close(getattr(rep, key), val)
    close(rep.ric_xi_xi, ric)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kappa,mu", KAPPA_MU)
def test_chart_kappa_mu_matches_oracle(contact, seed, kappa, mu):
    smp = sample(contact.carrier, 3, seed).point
    close(check_kappa_mu(contact, kappa, mu, record_of(contact, smp)),
          oracle_kappa_mu(contact, float(kappa), float(mu), smp))


@pytest.mark.parametrize("seed", SEEDS)
def test_hermitian_validate_matches_oracle(seed):
    h = flat_kahler_c2()
    smp = sample(h.chart, 3, seed).point
    got, want = validate(h, record_of(h, smp)), oracle_hermitian(h, smp)
    assert list(got) == list(want)
    for key in want:
        close(got[key], want[key])


# -- the frame oracle -----------------------------------------------------------------


def gsq(fg, v):
    return ((v @ fg.g) * v).sum(axis=-1)


def frame_oracle(fg):
    """validate and classify residuals from brackets and frame_ricci."""
    d = fg.dim
    eye = np.eye(d, dtype=object)
    val = {
        "eta_xi": float(abs(fg.eta @ fg.xi - 1)),
        "phi_xi": math.sqrt(float(gsq(fg, fg.phi @ fg.xi))),
        "eta_phi": float(np.abs(fg.eta @ fg.phi).max()),
        "phi_square": math.sqrt(float(gsq(fg, (fg.phi @ fg.phi).T + eye
                                          - np.outer(fg.eta, fg.xi)).max())),
        "compatibility": float(np.abs(fg.phi.T @ fg.g @ fg.phi - fg.g
                                      + np.outer(fg.eta, fg.eta)).max()),
    }
    nabla_xi = np.tensordot(fg.xi, fg.nabla, axes=([0], [1]))
    d_eta = -np.tensordot(fg.eta, fg.c, axes=([0], [0]))     # −η([E_i, E_j])
    g_phi, killing = fg.g @ fg.phi, nabla_xi @ fg.g
    dphi = (np.tensordot(fg.nabla, fg.phi, axes=([1], [0])).transpose(0, 2, 1)
            - fg.nabla @ fg.phi.T)
    target = fg.g[:, :, None] * fg.xi - fg.eta[None, :, None] * eye[:, None, :]
    cls = {
        "compatibility": max(val.values()),
        "contact_metric": float(np.abs(g_phi - d_eta / 2).max()),
        "contact_metric_raw": float(np.abs(g_phi - d_eta).max()),
        "killing_xi": float(np.abs(killing + killing.T).max()),
        "sasakian_nabla_xi": math.sqrt(float(gsq(fg, nabla_xi + fg.phi.T).max())),
        "sasakian_nabla_phi": math.sqrt(float(gsq(fg, dphi - target).max())),
        "parallel_phi": math.sqrt(float(gsq(fg, dphi).max())),
        "ric_xi_xi": float(frame_ricci(fg, fg.xi, fg.xi)),
    }
    return val, cls


def bracket_h(fg):
    """Rows j: h E_j, from (L_ξ φ)E_j = [ξ, φE_j] − φ[ξ, E_j]."""
    ad_xi = np.tensordot(fg.c, fg.xi, axes=([1], [0]))
    return ((ad_xi @ fg.phi - fg.phi @ ad_xi) / 2).T


def frame_kappa_mu(fg, kappa, mu):
    h, eye = bracket_h(fg), np.eye(fg.dim, dtype=object)
    ex_, ey = fg.eta[:, None, None], fg.eta[None, :, None]
    defect = (np.tensordot(fg.riem13, fg.xi, axes=([2], [0]))
              - kappa * (ey * eye[:, None, :] - ex_ * eye[None, :, :])
              - mu * (ey * h[:, None, :] - ex_ * h[None, :, :]))
    return math.sqrt(float(gsq(fg, defect).max()))


def solvable_frame():
    """(E1, E2, ξ) with [ξ, E1] = E1 and [ξ, E2] = −E2, g = 1, φE1 = E2,
    φE2 = −E1: a frame with h ≠ 0."""
    c = np.zeros((3, 3, 3), dtype=int)
    c[0, 2, 0], c[0, 0, 2] = 1, -1
    c[1, 2, 1], c[1, 1, 2] = -1, 1
    phi = np.zeros((3, 3), dtype=int)
    phi[1, 0], phi[0, 1] = 1, -1
    return FrameGeometry(dim=3, c=c, g=np.eye(3, dtype=int), phi=phi,
                         xi=[0, 0, 1], eta=[0, 0, 1], name="solvable")


@pytest.fixture(scope="module", params=["3/5,4/5", "-5/13,12/13", "112/113,-15/113",
                                        "tilted", "solvable"])
def frame(request, tmp_path_factory):
    if request.param == "tilted":
        path = tmp_path_factory.mktemp("frame") / "tilted.txt"
        path.write_text(tilted_frame_text(), encoding="utf-8")
        return load_manifold_file(path)
    if request.param == "solvable":
        s = AlmostContactStructure(solvable_frame())
        assert bracket_h(s.carrier).any()
        return s
    return AlmostContactStructure(heisenberg_h21(*(F(x) for x in request.param.split(","))))


def test_frame_validate_matches_oracle(frame):
    assert validate(frame, record(frame)) == frame_oracle(frame.carrier)[0]


def test_frame_classify_matches_oracle(frame):
    rep = classify(frame, record(frame))
    assert type(rep.ric_xi_xi) is Fraction
    assert rep.ric_xi_xi == frame_ricci(frame.carrier, frame.carrier.xi, frame.carrier.xi)
    assert rep.residuals() == frame_oracle(frame.carrier)[1]


@pytest.mark.parametrize("kappa,mu", KAPPA_MU)
def test_frame_kappa_mu_matches_oracle(frame, kappa, mu):
    assert check_kappa_mu(frame, kappa, mu, record(frame)) \
        == frame_kappa_mu(frame.carrier, F(kappa), F(mu))


def test_sol3_chart_matches_solvable_frame():
    """The same structure on both carriers: E(p) is the frame (E1, E2, ξ),
    so every chart residual is the frame's exact one, up to rounding."""
    chart, frame = load_manifold_text(SOL3_CHART), AlmostContactStructure(solvable_frame())
    rec, exact = record(chart, 3, 5), record(frame)
    want = classify(frame, exact).residuals()
    assert want["sasakian_nabla_phi"] > 0.5
    for key, val in classify(chart, rec).residuals().items():
        close(val, want[key])
    for kappa, mu in KAPPA_MU:
        close(check_kappa_mu(chart, kappa, mu, rec), check_kappa_mu(frame, kappa, mu, exact))
