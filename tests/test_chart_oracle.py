"""The batched chart sweep against a per-quadruple float oracle.

The oracle is the plain sweep: at each sample point it takes every
quadruple of rows of E(p), the metric jets' ``E``, projected to
v − η(v)ξ for the consequence rows, and evaluates every defect on it with
scalar closures (``float(((riem @ d) @ c) @ b @ a)``, ``a @ g @ b``,
``phi @ v``, ``float(eta @ v)``) bound to the quadruple's slot names. The
engine evaluates each defect once per point on the d⁴ table and contracts
the curvature slots in the other order, so the two round differently.
For g1, g2, g3, c(α), every consequence row and k1, k2, k3 the engine's
residual must equal the oracle's maximum within 1e-12·max(1, |oracle|),
and the oracle's value at the engine's witness must be that maximum within
the same bound. Where the engine's values tie exactly, in the slots a row
does not read or on a row that is 0 everywhere, its witness is the first
such quadruple in C order.
"""

from itertools import product

import numpy as np
import pytest

from curvlab.chart import sample
from curvlab.constructions import resolve_target
from curvlab.identities import (_CONSEQUENCES, _CONTACT_DEFECTS, _HERMITIAN_DEFECTS,
                                _defect_c_alpha)
from conftest import (bind_slots, check_c_alpha, check_contact, check_hermitian,
                      consequence_suite, record_at, record_of, structure_of)

ALPHAS = (0.5, -2.0)
SEEDS = (3, 11)
N_POINTS = 2
# slots a consequence row does not read (ξ fills them)
UNREAD = {"xi_slot_g": (0, 2), "xi_slot_zero": (0,), "xi_slot_phi_zero": (0,)}

# -- the oracle -----------------------------------------------------------------


def remembered(f):
    """``f`` with its values kept per argument objects, which the cache keeps
    alive: the defects call the closures again and again on the few vectors
    of a point and their images under φ, so this only saves time."""
    seen = {}

    def g(*vectors):
        key = tuple(map(id, vectors))
        if key not in seen:
            seen[key] = vectors, f(*vectors)
        return seen[key][1]
    return g


def oracle_closures(riem, g, phi, eta):
    def r4(a, b, c, d):
        return float(((riem @ d) @ c) @ b @ a)

    return (remembered(r4), remembered(lambda a, b: float(a @ g @ b)),
            remembered(lambda v: phi @ v), lambda v: float(eta @ v))


def brute_sweep(s, defects, points, perp=False):
    """(rows, {tag: values}): ``rows[n]`` holds the swept vectors at point n
    and ``values[tag][n, i, j, k, l]`` the |defect| on rows i, j, k, l;
    ``defects`` maps each tag to its defect."""
    rows, values = [], {}
    for p in points:
        r = record_at(s, p)
        closures = oracle_closures(r.riem, r.g, r.phi, r.eta)
        vecs = [v - float(r.eta @ v) * r.xi if perp else v for v in r.E]
        rows.append(np.array(vecs))
        quads = [bind_slots(closures, {**dict(zip("xyzw", quad)), "xi": r.xi})
                 for quad in product(vecs, repeat=4)]
        for tag, defect in defects.items():
            values.setdefault(tag, []).append([abs(defect(*quad)) for quad in quads])
    d = len(rows[0])
    return rows, {tag: np.reshape(v, (len(points),) + (d,) * 4) for tag, v in values.items()}


def same(rep, points, rows, values, unread=()):
    """The report agrees with the oracle's values over the same sweep."""
    assert rep.exact is None
    worst = values.max()
    bound = 1e-12 * max(1.0, worst)
    assert abs(rep.residual - worst) <= bound
    n = [tuple(p) for p in points.tolist()].index(rep.witness.point)
    at = []
    for v in rep.witness.vectors:
        dist = np.abs(rows[n] - v).max(axis=1)
        at.append(int(np.argmin(dist)))
        assert dist[at[-1]] <= 1e-12
    assert abs(values[(n, *at)] - worst) <= bound
    # exact ties go to the first quadruple in C order
    if rep.residual == 0:
        assert (n, *at) == (0, 0, 0, 0, 0)
    assert all(at[slot] == 0 for slot in unread)


# -- targets --------------------------------------------------------------------


@pytest.fixture(scope="module",
                params=["s5_in_c3", "sine_cone_cos", "h21_chart", "hopf_pair"])
def contact(request):
    return structure_of(request.param)


@pytest.fixture(params=SEEDS)
def seed(request):
    return request.param


def test_identities_match_oracle(contact, seed):
    smp = sample(contact.carrier, N_POINTS, seed).point
    defects = {**_CONTACT_DEFECTS, **{alpha: _defect_c_alpha(alpha) for alpha in ALPHAS}}
    rows, values = brute_sweep(contact, defects, smp)
    rec = record_of(contact, smp)
    for kind in _CONTACT_DEFECTS:
        rep = check_contact(kind, rec)
        assert rep.n_quadruples == N_POINTS * contact.dim ** 4
        same(rep, smp, rows, values[kind])
    for alpha in ALPHAS:
        same(check_c_alpha(alpha, rec), smp, rows, values[alpha])


def test_consequences_match_oracle(contact, seed):
    smp = sample(contact.carrier, N_POINTS, seed).point
    swept, values = brute_sweep(contact, {
        (kind, name): row for kind, rows in _CONSEQUENCES.items()
        for name, row in rows.items()}, smp, perp=True)
    rec = record_of(contact, smp)
    for kind in _CONTACT_DEFECTS:
        suite = consequence_suite(kind, rec)
        assert list(suite) == list(_CONSEQUENCES[kind])
        for name, rep in suite.items():
            same(rep, smp, swept, values[kind, name], UNREAD.get(name, ()))


def test_hermitian_matches_oracle(seed):
    h = resolve_target("cone_of:s5_in_c3")
    smp = sample(h.chart, N_POINTS, seed).point
    rows, values = brute_sweep(h, _HERMITIAN_DEFECTS, smp)
    rec = record_of(h, smp)
    for kind in _HERMITIAN_DEFECTS:
        same(check_hermitian(kind, rec), smp, rows, values[kind])
