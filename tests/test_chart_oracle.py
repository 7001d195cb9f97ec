"""The batched chart sweep against a per-quadruple float oracle.

The oracle is the plain sweep: at each sample point it takes the sampled
vectors four at a time, evaluates every defect on one quadruple with scalar
closures (``float(np.einsum(...))``, ``a @ g @ b``, ``phi @ v``,
``float(eta @ v)``), and keeps the first strict maximum in (point,
quadruple) order. The engine evaluates each defect once per point on all of
the point's quadruples; its residual and witness must equal the oracle's
bit for bit, for g1, g2, g3, c(α), every consequence row and k1, k2, k3.
"""

import numpy as np
import pytest

from curvlab.chart import sample
from curvlab.constructions import resolve_target
from curvlab.identities import (_CONTACT_DEFECTS, _HERMITIAN_DEFECTS, _as_quadruple,
                                _consequence_rows, _defect_c_alpha, check_c_alpha,
                                check_contact, check_hermitian, consequence_suite)
from curvlab.structures import contact_point_data, hermitian_point_data

ALPHAS = (0.5, -2.0)
SEEDS = (3, 11)

# -- the oracle -----------------------------------------------------------------


def oracle_closures(riem, g, phi, eta):
    def r4(a, b, c, d):
        return float(np.einsum("ijkl,i,j,k,l", riem, a, b, c, d))

    return (r4, lambda a, b: float(a @ g @ b), lambda v: phi @ v,
            lambda v: float(eta @ v))


def brute_sweep(point_data, defects, samples, perp=False):
    """{tag: (residual, witness point, witness vectors)}; ``defects`` maps a
    tag to a function of ξ giving the defect."""
    worst = dict.fromkeys(defects, -1.0)
    at = {}
    for p, vecs in zip(samples.points, samples.vectors):
        riem, g, phi, eta, xi = point_data(p)
        closures = oracle_closures(riem, g, phi, eta)
        for start in range(0, len(vecs) - 3, 4):
            quad = list(vecs[start:start + 4])
            if perp:
                quad = [v - float(eta @ v) * xi for v in quad]
            for tag, defect_at in defects.items():
                val = abs(defect_at(xi)(*closures, *quad))
                if val > worst[tag]:
                    worst[tag] = val
                    at[tag] = (tuple(float(x) for x in p),
                               tuple(tuple(float(c) for c in v) for v in quad))
    return {tag: (worst[tag], *at[tag]) for tag in defects}


def contact_data(s):
    def point_data(p):
        d = contact_point_data(s, p)
        return d.riem, d.g, d.phi, d.eta, d.xi
    return point_data


def hermitian_data(h):
    def point_data(p):
        curv, J = hermitian_point_data(h, p)
        return curv.riem, curv.g, J, np.zeros(h.dim), None
    return point_data


def same(rep, oracle):
    residual, point, vectors = oracle
    assert rep.exact is None
    assert (rep.residual, rep.witness.point, rep.witness.vectors) == (residual, point, vectors)


# -- targets --------------------------------------------------------------------


@pytest.fixture(scope="module",
                params=["s5_in_c3", "sine_cone_cos", "h21_chart", "hopf_pair"])
def contact(request):
    t = resolve_target(request.param)
    return {"hypersurface": lambda o: o.structure, "pair": lambda o: o.total}.get(
        t.kind, lambda o: o)(t.obj)


@pytest.fixture(params=SEEDS)
def seed(request):
    return request.param


def test_identities_match_oracle(contact, seed):
    smp = sample(contact.carrier, 4, 12, seed)
    defects = {kind: (lambda xi, d=defect: d) for kind, defect in _CONTACT_DEFECTS.items()}
    oracle = brute_sweep(contact_data(contact), defects, smp)
    for kind in _CONTACT_DEFECTS:
        same(check_contact(contact, kind, smp), oracle[kind])
    for alpha in ALPHAS:
        oracle = brute_sweep(contact_data(contact),
                             {"c": lambda xi, a=alpha: _defect_c_alpha(a)}, smp)
        same(check_c_alpha(contact, alpha, smp), oracle["c"])


def test_consequences_match_oracle(contact, seed):
    smp = sample(contact.carrier, 4, 12, seed)
    for kind in _CONTACT_DEFECTS:
        rows = _consequence_rows(kind)
        oracle = brute_sweep(contact_data(contact),
                             {name: (lambda xi, n=name, r=row: _as_quadruple(n, r, xi))
                              for name, row in rows.items()}, smp, perp=True)
        suite = consequence_suite(contact, kind, smp)
        assert list(suite) == list(rows)
        for name in rows:
            same(suite[name], oracle[name])


def test_hermitian_matches_oracle(seed):
    h = resolve_target("cone_of:s5_in_c3").obj.hermitian
    smp = sample(h.chart, 4, 12, seed)
    oracle = brute_sweep(hermitian_data(h), {kind: (lambda xi, d=defect: d)
                                             for kind, defect in _HERMITIAN_DEFECTS.items()},
                         smp)
    for kind in _HERMITIAN_DEFECTS:
        same(check_hermitian(h, kind, smp), oracle[kind])
