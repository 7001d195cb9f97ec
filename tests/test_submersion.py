import numpy as np
import pytest

from curvlab.chart import sample
from curvlab.constructions import check_submersion_lift
from curvlab.errors import CurvlabError
from curvlab.structures import validate
from conftest import record, record_of
from reference import eval_field, horizontal_lift


def test_total_space_structure_validates(hopf_pair):
    assert max(validate(hopf_pair.total, record(hopf_pair.total)).values()) <= 1e-12
    assert max(validate(hopf_pair.base, record(hopf_pair.base)).values()) <= 1e-12


def test_lift_projects_back(hopf_pair):
    from curvlab.constructions.submersion import _projection_jets
    points = sample(hopf_pair.total.carrier, 10, seed=19).point
    rng = np.random.default_rng(20)
    for p in points:
        _, dpi, _ = _projection_jets(hopf_pair, p)
        eta = eval_field(hopf_pair.total.eta, p)
        for _ in range(3):
            Xb = rng.uniform(-2, 2, 2)
            lift = horizontal_lift(hopf_pair, p, Xb)
            assert np.allclose(dpi @ lift, Xb, atol=1e-12)
            assert abs(float(eta @ lift)) <= 1e-12


def test_lift_isometry_onto_base(hopf_pair):
    # dpi restricted to the horizontal space is isometric for these metrics
    points = sample(hopf_pair.total.carrier, 6, seed=29).point
    from curvlab.constructions.submersion import _projection_jets
    for p in points:
        base_pt, dpi, _ = _projection_jets(hopf_pair, p)
        gM = hopf_pair.total.carrier.metric_at(p)
        gN = hopf_pair.base.chart.metric_at(base_pt)
        for Xb in (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                   np.array([0.7, -0.4])):
            lift = horizontal_lift(hopf_pair, p, Xb)
            assert abs(float(lift @ gM @ lift) - float(Xb @ gN @ Xb)) <= 1e-10


def test_hopf_lift_relations(hopf_pair):
    res = check_submersion_lift(hopf_pair, record(hopf_pair.total))
    assert res["dpi_xi"] <= 1e-12
    assert res["lift_connection"] <= 1e-6
    assert res["lift_xi"] <= 1e-6
    assert res["lift_bracket"] <= 1e-6
    assert res["lift_curvature"] <= 1e-6
    # the base sphere is Kähler, so every Hermitian identity consequence
    # holds on lifted vectors
    assert res["lift_k1_consequence"] <= 1e-6
    assert res["lift_k2_consequence"] <= 1e-6
    assert res["lift_k3_consequence"] <= 1e-6


def test_lift_solver_singular_detected(hopf_pair):
    from curvlab.constructions import SubmersionPair
    # degenerate projection: both base coordinates pull back the same function
    bad = SubmersionPair(
        total=hopf_pair.total, base=hopf_pair.base,
        projection=("sin(alpha)/cos(alpha)*cos(gamma - beta)",
                    "sin(alpha)/cos(alpha)*cos(gamma - beta)"))
    with pytest.raises(CurvlabError, match=r"singular at \(0\.7, 0\.3, 1\.1\)$"):
        check_submersion_lift(bad, record_of(bad.total, [[0.7, 0.3, 1.1]]))


def test_lift_singular_at_a_later_point_names_it(hopf_pair):
    """dπ of (α, β²) loses rank where β = 0: the stacked solve over all the
    points names the first such point, in point order."""
    from curvlab.constructions import SubmersionPair
    bad = SubmersionPair(total=hopf_pair.total, base=hopf_pair.base,
                         projection=("alpha", "beta*beta"))
    pts = np.array([[0.5, 0.3, 0.1], [0.6, 0.0, 0.2], [0.7, 0.0, 0.4]])
    with pytest.raises(CurvlabError, match=r"singular at \(0\.6, 0\.0, 0\.2\)$"):
        check_submersion_lift(bad, record_of(bad.total, pts))


def test_nan_structure_never_passes(hopf_pair):
    """inf · 0 makes one φ entry NaN upstairs. The lift residuals must stop
    with EvalDomainError instead of letting ``max`` drop the NaN."""
    from curvlab.chart import TensorField
    from curvlab.constructions import SubmersionPair
    from curvlab.errors import EvalDomainError
    from curvlab.structures import AlmostContactStructure
    total = hopf_pair.total
    phi = total.phi.components.copy()
    phi[1, 0] = "exp(400)*exp(400)*0 + sin(alpha)/cos(alpha)"
    bad = SubmersionPair(
        total=AlmostContactStructure(
            carrier=total.carrier, xi=total.xi, eta=total.eta,
            phi=TensorField(total.carrier, "endomorphism", phi)),
        base=hopf_pair.base, projection=hopf_pair.projection)
    with pytest.raises(EvalDomainError, match="lift"):
        check_submersion_lift(bad, record(bad.total, 3))
