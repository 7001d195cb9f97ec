"""The whole-tensor frame engine against a per-quadruple Fraction oracle.

The oracle rebuilds the curvature entry by entry (Koszul formula, then
R_EiEj E_k) and sweeps every identity quadruple by quadruple with list
closures, keeping the first strict maximum in ``product`` order. The
engine must reproduce its residual, exact value and witness for g1, g2,
g3, c(α) and every consequence row.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from curvlab.frame import FrameGeometry, heisenberg_h21
from curvlab.identities import _CONTACT_DEFECTS, _consequence_rows, _defect_c_alpha
from curvlab.manifold_io import load_manifold_file
from curvlab.structures import AlmostContactStructure, contact_point_data
from conftest import check_c_alpha, check_contact, consequence_suite

F = Fraction
ALPHAS = (F(1, 2), F(-2))

# -- the oracle -----------------------------------------------------------------


def brute_riemann(fg):
    d = fg.dim
    c, g, gi = fg.c.tolist(), fg.g.tolist(), fg.ginv.tolist()
    assert all(sum(g[i][m] * gi[m][j] for m in range(d)) == (i == j)
               for i, j in product(range(d), repeat=2))
    low = lambda i, j, k: sum(c[m][i][j] * g[m][k] for m in range(d))  # g([Ei, Ej], Ek)
    nab = {}
    for i, j in product(range(d), repeat=2):
        kos = [(low(i, j, k) - low(j, k, i) + low(k, i, j)) / 2 for k in range(d)]
        nab[i, j] = [sum(gi[a][b] * kos[b] for b in range(d)) for a in range(d)]
    along = lambda i, v: [sum(v[j] * nab[i, j][q] for j in range(d)) for q in range(d)]
    riem = {}
    for i, j, k in product(range(d), repeat=3):
        a, b = along(i, nab[j, k]), along(j, nab[i, k])
        vec = [a[q] - b[q] - sum(c[m][i][j] * nab[m, k][q] for m in range(d))
               for q in range(d)]
        for l in range(d):
            riem[i, j, k, l] = -sum(vec[q] * g[q][l] for q in range(d))
    return riem


def brute_closures(fg, riem):
    d = fg.dim
    g, phi, eta = fg.g.tolist(), fg.phi.tolist(), fg.eta.tolist()
    nz = lambda v: [(i, x) for i, x in enumerate(v) if x != 0]
    nonzero = {idx: v for idx, v in riem.items() if v}

    def r4(a, b, c, w):
        return sum(x * y * z * t * r for i, x in nz(a) for j, y in nz(b) for k, z in nz(c)
                   for l, t in nz(w) if (r := nonzero.get((i, j, k, l))))

    def gd(a, b):
        return sum(x * g[i][j] * y for i, x in nz(a) for j, y in nz(b))

    return (r4, gd, lambda v: [sum(phi[i][j] * x for j, x in nz(v)) for i in range(d)],
            lambda v: sum(eta[i] * x for i, x in nz(v)))


def brute_sweep(closures, defect, rows):
    worst, at = -1, None
    for idx in product(range(len(rows)), repeat=4):
        val = abs(defect(*closures, *(rows[i] for i in idx)))
        if val > worst:
            worst, at = val, idx
    return worst, tuple(tuple(rows[i]) for i in at)


# -- frames ---------------------------------------------------------------------


def tilted_frame_text() -> str:
    """h21 brackets with g = diag(2, 2, 2, 2, 1) (so the ξ-slot rows do not
    vanish), seen in the frame F_a = Σ_b A[b][a] E_b. The metric AᵀgA is
    non-diagonal, so g⁻¹ and the ½ of the Koszul formula both matter."""
    h = heisenberg_h21(F(3, 5), F(4, 5))
    g0 = np.diag([F(2)] * 4 + [F(1)]).astype(object)
    A = np.array([[1, 0, 0, 0, 0], [F(1, 2), 1, F(1, 3), 0, 0], [0, 0, 2, 1, 0],
                  [0, 0, 0, 1, 0], [1, 0, 0, 0, 1]], dtype=object)
    # A⁻¹ = (AᵀA)⁻¹Aᵀ, with the inverse of the positive definite AᵀA
    Ai = FrameGeometry(dim=5, c=np.zeros((5, 5, 5), dtype=int), g=A.T @ A).ginv @ A.T
    c = np.einsum("km,mij,ia,jb->kab", Ai, h.c, A, A)
    tensors = {"c": c, "g": A.T @ g0 @ A, "phi": Ai @ h.phi @ A,
               "xi": Ai @ h.xi, "eta": h.eta @ A}
    lines = ["[frame]", "dim = 5"]
    for name, t in tensors.items():
        for idx in zip(*np.nonzero(t)):
            lines.append(f'{name}{"".join(f"[{i + 1}]" for i in idx)} = "{t[idx]}"')
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module", params=["3/5,4/5", "-5/13,12/13", "112/113,-15/113", "tilted"])
def frame(request, tmp_path_factory):
    if request.param == "tilted":
        path = tmp_path_factory.mktemp("frame") / "tilted.txt"
        path.write_text(tilted_frame_text(), encoding="utf-8")
        s = load_manifold_file(path)
        assert not (s.carrier.g == np.diag(np.diag(s.carrier.g))).all()
    else:
        s = AlmostContactStructure(heisenberg_h21(*(F(x) for x in request.param.split(","))))
    riem = brute_riemann(s.carrier)
    return s, riem, brute_closures(s.carrier, riem)


def same(rep, oracle):
    worst, witness = oracle
    assert type(rep.exact) is Fraction
    assert (rep.exact, rep.residual, rep.witness.vectors) == (worst, float(worst), witness)


def test_table_matches_oracle(frame):
    s, riem, _ = frame
    assert all(s.carrier.riem[idx] == v for idx, v in riem.items())


def test_identities_match_oracle(frame):
    s, _, closures = frame
    basis, rec = np.eye(s.dim, dtype=int).tolist(), contact_point_data(s)
    for kind, defect in _CONTACT_DEFECTS.items():
        same(check_contact(kind, rec), brute_sweep(closures, defect, basis))
    for alpha in ALPHAS:
        same(check_c_alpha(alpha, rec), brute_sweep(closures, _defect_c_alpha(alpha), basis))


def test_consequences_match_oracle(frame):
    s, _, closures = frame
    fg = s.carrier
    xi = fg.xi.tolist()
    perp = [[int(a == b) - fg.eta[b] * xi[a] for a in range(s.dim)] for b in range(s.dim)]
    for kind in _CONTACT_DEFECTS:
        suite = consequence_suite(kind, contact_point_data(s))
        for name, row in _consequence_rows(kind, xi).items():
            same(suite[name], brute_sweep(closures, row, perp))


def test_table_symmetries(frame):
    s, _, _ = frame
    r = s.carrier.riem
    assert r.any()
    assert not (r + r.transpose(1, 0, 2, 3)).any()
    assert not (r + r.transpose(0, 1, 3, 2)).any()
    assert (r == r.transpose(2, 3, 0, 1)).all()
    assert not (r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3)).any()
