from fractions import Fraction
from itertools import product

import pytest

from curvlab.frame import FrameGeometry, heisenberg_h21
from reference import frame_ricci

F = Fraction


@pytest.fixture(scope="module")
def h21():
    return heisenberg_h21(F(3, 5), F(4, 5))


def e(i, d=5):
    return [F(int(a == i)) for a in range(d)]


# -- connection -------------------------------------------------------------------

def test_h21_connection_table(h21):
    # order (X1, X2, Y1, Y2, xi)
    assert list(h21.nabla[0, 2]) == e(4)            # nabla_X1 Y1 = xi
    assert list(h21.nabla[2, 0]) == [-x for x in e(4)]
    assert list(h21.nabla[0, 4]) == [-x for x in e(2)]  # nabla_X1 xi = -Y1
    assert list(h21.nabla[4, 0]) == [-x for x in e(2)]  # nabla_xi X1 = -Y1
    assert list(h21.nabla[4, 2]) == e(0)            # nabla_xi Y1 = X1
    assert list(h21.nabla[2, 4]) == e(0)            # nabla_Y1 xi = X1
    assert list(h21.nabla[1, 3]) == e(4)            # nabla_X2 Y2 = xi
    # zero entries
    assert list(h21.nabla[0, 0]) == [F(0)] * 5
    assert list(h21.nabla[0, 1]) == [F(0)] * 5
    assert list(h21.nabla[0, 3]) == [F(0)] * 5
    assert list(h21.nabla[4, 4]) == [F(0)] * 5


def test_abelian_frame_connection_vanishes():
    d = 3
    c = [[[F(0)] * d for _ in range(d)] for _ in range(d)]
    g = [[F(2), F(0), F(0)], [F(0), F(3), F(1)], [F(0), F(1), F(5)]]
    fg = FrameGeometry(dim=d, c=c, g=g)
    for i, j in product(range(d), repeat=2):
        assert list(fg.nabla[i, j]) == [F(0)] * d
    for i, j, k, l in product(range(d), repeat=4):
        assert fg.riem[i, j, k, l] == 0


# -- curvature table ----------------------------------------------------------------

def test_h21_six_table_values(h21):
    assert h21.riem[0, 1, 2, 3] == -1  # R(X1,X2,Y1,Y2)
    assert h21.riem[0, 3, 1, 2] == -1  # R(X1,Y2,X2,Y1)
    assert h21.riem[0, 2, 1, 3] == -2  # R(X1,Y1,X2,Y2)
    for i in range(2):
        assert h21.riem[i, 2 + i, i, 2 + i] == -3
        assert h21.riem[i, 4, i, 4] == 1
        assert h21.riem[2 + i, 4, 2 + i, 4] == 1


def test_h21_all_other_components_from_symmetries(h21):
    """Every component is either generated from the six table values by the
    curvature symmetries, or is exactly zero."""
    seeds = {
        (0, 1, 2, 3): F(-1), (0, 3, 1, 2): F(-1), (0, 2, 1, 3): F(-2),
        (0, 2, 0, 2): F(-3), (1, 3, 1, 3): F(-3),
        (0, 4, 0, 4): F(1), (1, 4, 1, 4): F(1), (2, 4, 2, 4): F(1),
        (3, 4, 3, 4): F(1),
    }
    generated = {}
    for (i, j, k, l), v in seeds.items():
        for (a, b, c, d), w in (
            ((i, j, k, l), v), ((j, i, k, l), -v), ((i, j, l, k), -v),
            ((j, i, l, k), v), ((k, l, i, j), v), ((l, k, i, j), -v),
            ((k, l, j, i), -v), ((l, k, j, i), v),
        ):
            generated[(a, b, c, d)] = w
    for idx in product(range(5), repeat=4):
        want = generated.get(idx, F(0))
        assert h21.riem[idx] == want, idx


def test_curvature_symmetries_exact(h21):
    for i, j, k, l in product(range(5), repeat=4):
        r = h21.riem[i, j, k, l]
        assert r == -h21.riem[j, i, k, l]
        assert r == -h21.riem[i, j, l, k]
        assert r == h21.riem[k, l, i, j]
    for i, j, k, l in product(range(5), repeat=4):
        bianchi = (h21.riem[i, j, k, l]
                   + h21.riem[j, k, i, l]
                   + h21.riem[k, i, j, l])
        assert bianchi == 0


def test_metric_compatibility_exact(h21):
    for i, j, k in product(range(5), repeat=3):
        lhs = (h21.nabla[i][j] @ h21.g @ e(k)
               + e(j) @ h21.g @ h21.nabla[i][k])
        assert lhs == 0


# -- the parameterized builder ---------------------------------------------------------

def test_builder_rejects_non_pythagorean():
    with pytest.raises(ValueError):
        heisenberg_h21(F(1, 2), F(1, 2))


@pytest.mark.parametrize("c,s", [(F(1), F(0)), (F(3, 5), F(4, 5)),
                                 (F(5, 13), F(12, 13))])
def test_builder_structure_tensors(c, s):
    fg = heisenberg_h21(c, s)
    if s == 0:
        assert list(fg.phi @ e(0)) == e(2)                  # phi X1 = Y1
        assert list(fg.phi @ e(2)) == [-x for x in e(0)]    # phi Y1 = -X1
    # phi^2 = -I + eta (x) xi, exactly
    for j in range(5):
        out = list(fg.phi @ (fg.phi @ e(j)))
        want = [-e(j)[m] + (fg.eta @ e(j)) * fg.xi[m] for m in range(5)]
        assert out == want
    # compatibility on all 25 frame pairs, exactly
    for i, j in product(range(5), repeat=2):
        lhs = (fg.phi @ e(i)) @ fg.g @ (fg.phi @ e(j))
        rhs = e(i) @ fg.g @ e(j) - (fg.eta @ e(i)) * (fg.eta @ e(j))
        assert lhs == rhs


def test_curvature_independent_of_theta():
    a = heisenberg_h21(F(1), F(0))
    b = heisenberg_h21(F(3, 5), F(4, 5))
    for idx in product(range(5), repeat=4):
        assert a.riem[idx] == b.riem[idx]


def test_validation_catches_bad_structure_constants():
    d = 3
    c = [[[F(0)] * d for _ in range(d)] for _ in range(d)]
    c[2][0][1] = F(1)  # missing the antisymmetric partner
    g = [[F(int(i == j)) for j in range(d)] for i in range(d)]
    with pytest.raises(ValueError):
        FrameGeometry(dim=d, c=c, g=g)


def test_validation_catches_indefinite_metric():
    d = 2
    c = [[[F(0)] * d for _ in range(d)] for _ in range(d)]
    g = [[F(1), F(2)], [F(2), F(1)]]  # det < 0
    with pytest.raises(ValueError):
        FrameGeometry(dim=d, c=c, g=g)


def test_ricci_exact(h21):
    assert frame_ricci(h21, h21.xi, h21.xi) == 4
    # Ric(X1, X1): sectional sums 0 (X2) - 3 (Y1) + 0 (Y2) + 1 (xi)
    assert frame_ricci(h21, e(0), e(0)) == -2
