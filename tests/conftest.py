import pytest
from fractions import Fraction

import numpy as np
from hypothesis import settings

from curvlab.constructions.registry import (build_flat3, build_s2_round,
                                            build_h21_chart, build_flat_cosym5,
                                            build_sine_cone, build_r_warped_surface,
                                            build_s5_in_c3, build_hopf_pair,
                                            _rotation_block_J, flat_chart)
from curvlab.chart import Chart, sample
from curvlab.constructions import HypersurfaceExample, SubmersionPair, resolve_target
from curvlab.frame import heisenberg_h21
from curvlab.geometry import metric_jets
from curvlab.identities import sweep
from curvlab.structures import (AlmostContactStructure, AlmostHermitianStructure, _checked,
                                contact_point_data)

# every hypothesis test draws the same examples on every run, with no
# example database carried between runs
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def flat_kahler_c2() -> AlmostHermitianStructure:
    """Flat C² on (x1, y1, x2, y2) with J∂_x = ∂_y in each complex line."""
    chart = flat_chart(("x1", "y1", "x2", "y2"), name="flat_c2")
    return AlmostHermitianStructure(chart, _rotation_block_J(chart, [(0, 1), (2, 3)]),
                                    name="flat_c2")


def _chart_of(s):
    """The chart under ``s``: a structure's chart, or ``s`` itself."""
    return (s if isinstance(s, Chart) else s.chart if isinstance(s, AlmostHermitianStructure)
            else s.carrier)


def record_of(s, points):
    """The point record of ``s`` at ``points`` (N × d) of its chart."""
    return contact_point_data(s, metric_jets(_chart_of(s), points))


def record_at(s, p):
    """The point record of ``s`` at the one point ``p``: the stacked record
    of ``[p]`` with every array indexed ``[0]``."""
    r = record_of(s, [p])
    return type(r)(**{k: None if a is None else a[0] for k, a in vars(r).items()})


def structure_of(name):
    """The structure the checks of registry target ``name`` read: a pair's
    total space, a hypersurface's induced structure, or the target itself."""
    obj = resolve_target(name)
    if isinstance(obj, SubmersionPair):
        return obj.total
    return obj.structure if isinstance(obj, HypersurfaceExample) else obj


def record(s, n=20, seed=42):
    """The point record that a checker on ``s`` reads: a frame's own exact
    one, or the record at ``sample(chart, n, seed)`` of the chart under
    ``s`` (a structure's chart, or ``s`` itself when it is a ``Chart``)."""
    if isinstance(s, AlmostContactStructure) and s.is_frame:
        return contact_point_data(s)
    return contact_point_data(s, sample(_chart_of(s), n, seed))


# One row check of the CLI each, on ``identities.sweep`` over the record
# ``rec`` alone; the residual is checked finite as the CLI checks an emitted
# row, so a NaN raises here too.


def _checked_reports(checks, rec, tol):
    reports = sweep(checks, rec, tol)
    for rep in (r for row in reports for r in row):
        _checked(rep.tag, rep.residual)
    return reports


def check_contact(kind, rec, tol=1e-7):
    return _checked_reports([(kind, ())], rec, tol)[0][0]


check_hermitian = check_contact


def check_c_alpha(alpha, rec, tol=1e-7):
    return _checked_reports([("c_alpha", (alpha,))], rec, tol)[0][0]


def consequence_suite(kind, rec, tol=1e-7):
    """The consequence rows of ``kind`` keyed by row name."""
    reports = _checked_reports([("consequences", ())], rec, tol)[0]
    return {r.tag.split(".", 1)[1]: r for r in reports if r.tag.startswith(f"{kind}.")}


def sample_with_vectors(chart, n_points, vecs_per_point, seed):
    """``sample(chart, n_points, seed)`` and random tangent vectors for tests
    that take them as their own inputs, as ``(points, vectors)`` with
    ``vectors[i]`` the ``vecs_per_point`` vectors at point i. The vectors
    continue the sample's random stream after its points: each is a uniform
    direction in [−1, 1]^dim scaled to a Euclidean norm drawn from [0.5, 2]."""
    smp = sample(chart, n_points, seed).point
    rng = np.random.default_rng(seed)
    rng.uniform(size=smp.size)   # the draws of the points
    vecs = np.empty((n_points, vecs_per_point, chart.dim))
    for i in range(n_points):
        for v in range(vecs_per_point):
            direction = rng.uniform(-1.0, 1.0, chart.dim)
            nrm = float(np.linalg.norm(direction))
            if nrm < 1e-12:
                direction = np.zeros(chart.dim)
                direction[0] = 1.0
                nrm = 1.0
            vecs[i, v] = direction / nrm * rng.uniform(0.5, 2.0)
    return smp, vecs


@pytest.fixture(scope="session")
def h21_frame():
    return AlmostContactStructure(heisenberg_h21(Fraction(3, 5), Fraction(4, 5)),
                                  name="h21")


@pytest.fixture(scope="session")
def h21_chart():
    return build_h21_chart()


@pytest.fixture(scope="session")
def s2_round():
    return build_s2_round()


@pytest.fixture(scope="session")
def flat3():
    return build_flat3()


@pytest.fixture(scope="session")
def flat_cosym5():
    return build_flat_cosym5()


@pytest.fixture(scope="session")
def sine_cone_cos():
    return build_sine_cone("cos")


@pytest.fixture(scope="session")
def sine_cone_sin():
    return build_sine_cone("sin")


@pytest.fixture(scope="session")
def r_warped_surface():
    return build_r_warped_surface()


@pytest.fixture(scope="session")
def s5_example():
    return build_s5_in_c3()


@pytest.fixture(scope="session")
def hopf_pair():
    return build_hopf_pair()
