import math

import numpy as np
import pytest

from curvlab.chart import Chart, Interval, TensorField, _check_spd, sample, DOMAIN_MARGIN
from curvlab.errors import SamplingError, SingularMetricError
from curvlab.constructions.registry import flat_chart
from conftest import sample_with_vectors
from reference import eval_field, eval_field_jets


def check_spd(chart, p):
    """The positive-definiteness check of ``sample``, on the float run of
    the metric at a point or at each row of ``p``."""
    pts = np.asarray(p, dtype=float).reshape(-1, chart.dim)
    _check_spd(pts, chart.metric_at(pts))


def test_flat_sampling_window_and_determinism(flat3):
    s1 = sample(flat3, 4, seed=7).point
    s2 = sample(flat3, 4, seed=7).point
    assert s1.shape == (4, 3)
    assert np.array_equal(s1, s2)
    assert np.all(s1 > -2.0) and np.all(s1 < 2.0)
    s3 = sample(flat3, 4, seed=8).point
    assert not np.array_equal(s1, s3)


def test_positive_coordinate_window():
    cone = Chart(("t", "x"), [["1", "0"], [None, "t^2"]],
                 [Interval(0.0, math.inf), Interval()])
    s = sample(cone, 16, seed=3).point
    t = s[:, 0]
    assert np.all(t > 0.5) and np.all(t < 3.0)


def test_bounded_domain_margin(sine_cone_cos):
    chart = sine_cone_cos.structure.carrier
    s = sample(chart, 25, seed=5).point
    z = s[:, -1]
    assert np.all(np.abs(z) <= math.pi / 2 - DOMAIN_MARGIN)


def test_vector_norm_window(flat3):
    _, vectors = sample_with_vectors(flat3, 6, 10, seed=1)
    norms = np.linalg.norm(vectors, axis=2)
    assert np.all(norms >= 0.1) and np.all(norms <= 10.0)


def test_sample_rejects_empty():
    with pytest.raises(ValueError):
        sample(flat_chart(("x",)), 0, seed=0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_spd_validation_catches_degenerate():
    bad = Chart(("x", "y"), [["1", "0"], [None, "x"]])  # not positive for x <= 0
    with pytest.raises(SingularMetricError):
        check_spd(bad, [-1.0, 0.0])
    with pytest.raises(SingularMetricError):
        sample(bad, 50, seed=2)


def test_metric_symmetrized_and_mismatch_rejected():
    c = Chart(("x", "y"), [["1", "x"], [None, "2"]], name="plane")
    assert c.metric[1, 0] == c.metric[0, 1]
    assert c.name == "plane"
    assert Chart(("x",), [["1"]], name="line").name == "line"
    with pytest.raises(ValueError):
        Chart(("x", "y"), [["1", "x"], ["y", "2"]])


def test_eval_constant_fields(sine_cone_cos):
    s = sine_cone_cos.structure
    p = [0.3, -0.2, 0.7, 0.1, 0.4]
    assert np.array_equal(eval_field(s.xi, p), [0, 0, 0, 0, 1])
    assert np.array_equal(eval_field(s.eta, p), [0, 0, 0, 0, 1])
    phi = eval_field(s.phi, p)
    # rotation blocks: phi d_u = d_v, phi d_v = -d_u on the (u, v) pair
    assert phi[3, 2] == 1.0 and phi[2, 3] == -1.0
    assert phi[1, 0] == 1.0 and phi[0, 1] == -1.0
    assert np.all(phi[:, 4] == 0.0)


def test_eval_field_jets_gradients():
    chart = Chart(("x", "y"), [["1", "0"], [None, "1"]])
    f = TensorField(chart, "vector", np.array(["x*y", "y^2"], dtype=object))
    vals, grads = eval_field_jets(f, [2.0, 3.0])
    assert np.allclose(vals, [6.0, 9.0])
    assert np.allclose(grads[0], [3.0, 2.0])
    assert np.allclose(grads[1], [0.0, 6.0])


def test_tensorfield_shape_checks():
    chart = flat_chart(("x", "y"))
    with pytest.raises(ValueError):
        TensorField(chart, "vector", np.array(["x"], dtype=object))
    with pytest.raises(ValueError):
        TensorField(chart, "spinor", np.array(["x", "y"], dtype=object))


def test_sampled_points_are_spd_everywhere(s5_example, h21_chart):
    for s in (s5_example.structure, h21_chart):
        chart = s.carrier
        for p in sample(chart, 10, seed=9).point:
            check_spd(chart, p)  # raises on failure


def test_spd_check_names_first_failing_point_and_minor():
    """The batched check reports the first failing point in row order, and
    the first failing leading minor there."""
    chart = Chart(("x", "y"), [["x", "y"], [None, "1"]])
    pts = np.array([[1.0, 0.5], [2.0, 3.0], [-1.0, 0.0]])   # minor 2 fails at row 1
    with pytest.raises(SingularMetricError,
                       match=r"^metric not positive definite at \(2\.0, 3\.0\) \(leading minor 2\)$"):
        check_spd(chart, pts)
    with pytest.raises(SingularMetricError, match=r"at \(-1\.0, 0\.0\) \(leading minor 1\)$"):
        check_spd(chart, pts[[0, 2, 1]])
    check_spd(chart, pts[:1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the jets of 1e400*x: 0 · inf
def test_batched_real_domain_errors_name_the_first_value():
    from curvlab.errors import EvalDomainError
    chart = Chart(("x",), [["1"]])
    pts = np.array([[0.5], [-2.0], [-3.0], [800.0]])
    for text, message in (("log(x)", r"^log of out-of-domain value -2\.0$"),
                          ("sqrt(x)", r"^sqrt of out-of-domain value -2\.0$"),
                          ("exp(x)", r"^exp of 800\.0 is out of the float range$"),
                          ("cos(1e400*x)", r"^cos of inf is out of the float range$"),
                          ("cosh(1000*x)", r"^cosh of -2000\.0 is out of the float range$"),
                          ("1/(x - x)", r"^division by zero$"),
                          ("(10*x)^200", r"^power 200 overflows the float range$")):
        f = TensorField(chart, "vector", [text])
        for ring_run in (eval_field, eval_field_jets):   # the float and jet rings
            with pytest.raises(EvalDomainError, match=message):
                ring_run(f, pts)


def _registry_charts():
    """Every chart the registry builds: bare charts, structure carriers, the
    ambient and base charts of the constructions, and one cone per contact
    target."""
    from curvlab.constructions import HypersurfaceExample, SubmersionPair
    from curvlab.constructions.registry import registry_names, resolve_target
    from curvlab.structures import AlmostContactStructure
    names = [n for n in registry_names() if "<" not in n]
    contact = [n for n in names
               if isinstance(resolve_target(n), (AlmostContactStructure, HypersurfaceExample))]
    charts = {}
    for name in names + [f"cone_of:{n}" for n in contact if n != "h21"]:
        o = resolve_target(name)
        found = ([o] if isinstance(o, Chart)
                 else [o.carrier] if isinstance(o, AlmostContactStructure)
                 else [o.structure.carrier, o.ambient.chart] if isinstance(o, HypersurfaceExample)
                 else [o.total.carrier, o.base.chart] if isinstance(o, SubmersionPair)
                 else [o.chart])
        for k, c in enumerate(c for c in found if isinstance(c, Chart)):
            charts[f"{name}.{k}"] = c
    return charts


@pytest.mark.parametrize("chart", [pytest.param(c, id=n)
                                   for n, c in sorted(_registry_charts().items())])
def test_one_call_draw_is_the_per_scalar_stream(chart):
    """``sample`` draws its N × d coordinates in one call; the bytes equal
    N · d scalar draws in row order, at every seed."""
    from reference import sample_per_scalar
    for seed in range(20):
        want = sample_per_scalar(chart, 7, seed)
        assert sample(chart, 7, seed).point.tobytes() == want.tobytes()
