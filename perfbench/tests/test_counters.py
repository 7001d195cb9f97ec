"""Counts the tracer must reproduce exactly, derived by hand.

* ``identities h21 --which g1``: the exhaustive frame sweep visits 5⁴ = 625
  quadruples of basis vectors. The first touch of each of the 625 curvature
  entries builds one ``curvature_vector``. Each quadruple reads
  ``R(X, Y, Z, W)`` once and ``R(X, Y, φZ, φW)`` once per pair of nonzero
  components of φZ and φW. φ kills ξ and sends each of X1, X2, Y1, Y2 to a
  vector with two nonzero components (c and s), so the 16 (Z, W) with
  Z, W ≠ ξ read 4 entries each: 625 + 25·16·4 = 2225 ``riemann`` calls.
* ``identities s5_in_c3 --which g1 --samples 20``: one point record per
  sample point, each one ``curvature``, which calls ``christoffel`` (one
  ``metric_jets``) and ``metric_jets`` again: 20, 20 and 40.
* ``classify sine_cone_cos`` (20 points, 20 vectors each): per point 20
  ∇ξ for the Sasakian ∇ξ test, 2 per pair for the Killing test and 1 per
  pair for ∇φ, so 20 + 20 + 10 = 50 covariant derivatives, each one
  ``christoffel``; Ric(ξ, ξ) adds one ``curvature``, i.e. one more
  ``christoffel`` and two ``metric_jets``. Per point 51 and 52, so 1020
  ``christoffel`` and 1040 ``metric_jets`` calls.
"""

import contextlib
import io

import curvlab.cli as cli
from tracing import Tracer


def traced(argv):
    tracer = Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        tracer.invocation = 0
        code = cli.run(argv)
    calls = dict(tracer.calls)
    calls.update(tracer.counts)
    return code, calls, tracer


def test_h21_g1_frame_sweep():
    code, calls, tracer = traced(["identities", "h21", "--which", "g1"])
    assert code == 1
    assert tracer.quadruples == 625
    assert calls["frame.FrameGeometry.curvature_vector"] == 625
    assert calls["frame.FrameGeometry.riemann"] == 2225
    assert tracer.riemann_misses == 625
    assert tracer.exact_rows == 1 and tracer.float_rows == 0


def test_s5_g1_point_records():
    code, calls, tracer = traced(["identities", "s5_in_c3", "--which", "g1",
                                  "--samples", "20"])
    assert code == 0
    assert calls["structures.contact_point_data"] == 20
    assert calls["geometry.curvature"] == 20
    assert calls["geometry.metric_jets"] == 40
    assert len(tracer.points) == 20


def test_classify_sine_cone_connections():
    code, calls, _ = traced(["classify", "sine_cone_cos"])
    assert code == 0
    assert calls["geometry.christoffel"] == 1020
    assert calls["geometry.metric_jets"] == 1040
    assert calls["geometry.covariant_derivative"] == 1000


def test_uninstall_restores_every_binding():
    import curvlab.identities as identities
    import curvlab.structures as structures
    before = (identities.contact_point_data, structures.contact_point_data,
              cli.resolve_target, cli.sample)
    traced(["identities", "s5_in_c3", "--which", "g1", "--samples", "2"])
    after = (identities.contact_point_data, structures.contact_point_data,
             cli.resolve_target, cli.sample)
    assert before == after
