import math

import numpy as np
import pytest

from curvlab.chart import (Chart, Interval, TensorField, eval_field,
                           eval_field_jets, sample, DOMAIN_MARGIN)
from curvlab.errors import SamplingError, SingularMetricError
from curvlab.constructions.registry import flat_chart
from conftest import sample_with_vectors


def test_flat_sampling_window_and_determinism(flat3):
    s1 = sample(flat3, 4, seed=7)
    s2 = sample(flat3, 4, seed=7)
    assert s1.points.shape == (4, 3)
    assert np.array_equal(s1.points, s2.points)
    assert np.all(s1.points > -2.0) and np.all(s1.points < 2.0)
    s3 = sample(flat3, 4, seed=8)
    assert not np.array_equal(s1.points, s3.points)


def test_positive_coordinate_window():
    cone = Chart(("t", "x"), [["1", "0"], [None, "t^2"]],
                 [Interval(0.0, math.inf), Interval()])
    s = sample(cone, 16, seed=3)
    t = s.points[:, 0]
    assert np.all(t > 0.5) and np.all(t < 3.0)


def test_bounded_domain_margin(sine_cone_cos):
    chart = sine_cone_cos.structure.carrier
    s = sample(chart, 25, seed=5)
    z = s.points[:, -1]
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
        bad.check_spd([-1.0, 0.0])
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
        smp = sample(chart, 10, seed=9)
        for p in smp.points:
            chart.check_spd(p)  # raises on failure
