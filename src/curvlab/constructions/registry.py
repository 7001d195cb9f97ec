"""Built-in example registry.

One table maps each target name to its builder; ``curvlab list`` prints
the names in the table's order. A parameterized target takes the text after
a colon: ``h21:3/5,4/5`` and ``h21_chart:3/5,4/5`` give (c, s), with
(3/5, 4/5) when the text is empty, and ``cone_of:s5_in_c3`` names the
contact target the cone is built over. Any other target given a parameter
is an input error. Nothing is built until a name is resolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .. import expr as ex
from ..chart import Chart, Interval, TensorField
from ..frame import heisenberg_h21
from ..structures import AlmostContactStructure, AlmostHermitianStructure
from ..errors import RegistryError
from .cone import build_cone
from .hypersurface import SurfacePatch
from .submersion import SubmersionPair
from .warped import RWarpedBundle, build_r_warped_contact

__all__ = ["registry_names", "resolve_target", "flat_chart",
           "flat_kahler_r4", "flat_kahler_r2", "ambient_c3",
           "HypersurfaceExample",
           "build_flat3", "build_s2_round", "build_h21_chart", "build_flat_cosym5",
           "build_sine_cone", "build_r_warped_surface", "build_s5_in_c3",
           "build_hopf_pair"]


@dataclass(frozen=True)
class HypersurfaceExample:
    """A contact structure together with its immersion into a flat Kähler
    ambient, so both identity checks and induction checks can run."""

    structure: AlmostContactStructure
    patch: SurfacePatch
    ambient: AlmostHermitianStructure


def flat_chart(coords, name: str = "") -> Chart:
    d = len(coords)
    metric = [[ex.Num(1) if i == j else None for j in range(d)] for i in range(d)]
    return Chart(coords, metric, name=name or "flat")


def _rotation_block_J(chart: Chart, pairs) -> TensorField:
    """Constant complex structure sending the first coordinate of each pair
    to the second (J∂_a = ∂_b, J∂_b = −∂_a)."""
    J = np.empty((chart.dim, chart.dim), dtype=object)
    for (a, b) in pairs:
        J[b, a] = ex.Num(1)
        J[a, b] = ex.Num(-1)
    return TensorField(chart, "endomorphism", J)


def flat_kahler_r4() -> AlmostHermitianStructure:
    chart = flat_chart(("x", "y", "u", "v"), name="flat_r4")
    return AlmostHermitianStructure(chart, _rotation_block_J(chart, [(0, 1), (2, 3)]),
                                    name="flat_kahler_r4")


def flat_kahler_r2() -> AlmostHermitianStructure:
    chart = flat_chart(("x", "y"), name="flat_r2")
    return AlmostHermitianStructure(chart, _rotation_block_J(chart, [(0, 1)]),
                                    name="flat_kahler_r2")


def ambient_c3() -> AlmostHermitianStructure:
    chart = flat_chart(("x1", "y1", "x2", "y2", "x3", "y3"), name="flat_c3")
    return AlmostHermitianStructure(
        chart, _rotation_block_J(chart, [(0, 1), (2, 3), (4, 5)]), name="flat_c3")


# -- individual builders ---------------------------------------------------------


def build_flat3() -> Chart:
    return flat_chart(("x", "y", "z"), name="flat3")


def build_s2_round() -> Chart:
    return Chart(("th", "ph"), [["1", "0"], [None, "sin(th)^2"]],
                 [Interval(0.1, np.pi - 0.1), Interval()], name="s2_round")


def build_h21_chart(c=Fraction(3, 5), s=Fraction(4, 5)) -> AlmostContactStructure:
    """Heisenberg group structure on its global chart (x1, x2, y1, y2, z).

    Frame fields: X_i = 2∂_{x_i}, Y_i = 2(∂_{y_i} + x_i ∂_z), ξ = 2∂_z;
    η = (dz − x1 dy1 − x2 dy2)/2; the metric makes the frame orthonormal.
    """
    c, s = Fraction(c), Fraction(s)
    if c * c + s * s != 1:
        raise ValueError("(c, s) must satisfy c^2 + s^2 = 1 exactly")
    coords = ("x1", "x2", "y1", "y2", "z")
    chart = Chart(coords, [
        ["1/4", "0", "0", "0", "0"],
        [None, "1/4", "0", "0", "0"],
        [None, None, "1/4 + x1^2/4", "x1*x2/4", "-x1/4"],
        [None, None, None, "1/4 + x2^2/4", "-x2/4"],
        [None, None, None, None, "1/4"],
    ], name="h21_chart")
    cs, ss = str(c), str(s)
    phi = np.empty((5, 5), dtype=object)
    # columns: phi ∂_x1 = c ∂_y1 + s ∂_y2 + (c x1 + s x2) ∂_z, etc.
    entries = {
        (2, 0): cs, (3, 0): ss, (4, 0): f"({cs})*x1 + ({ss})*x2",
        (2, 1): ss, (3, 1): f"-({cs})", (4, 1): f"({ss})*x1 - ({cs})*x2",
        (0, 2): f"-({cs})", (1, 2): f"-({ss})",
        (0, 3): f"-({ss})", (1, 3): cs,
    }
    for (i, j), text in entries.items():
        phi[i, j] = text
    xi = ["0", "0", "0", "0", "2"]
    eta = ["0", "0", "-x1/2", "-x2/2", "1/2"]
    return AlmostContactStructure(
        carrier=chart,
        phi=TensorField(chart, "endomorphism", phi),
        xi=TensorField(chart, "vector", np.array(xi, dtype=object)),
        eta=TensorField(chart, "oneform", np.array(eta, dtype=object)),
        name=f"h21_chart({c},{s})")


def build_flat_cosym5() -> AlmostContactStructure:
    """Flat R⁵ with the product-structure tensors: a c(0) example."""
    chart = flat_chart(("x", "y", "u", "v", "z"), name="flat_cosym5")
    phi = np.empty((5, 5), dtype=object)
    phi[1, 0] = ex.Num(1)
    phi[0, 1] = ex.Num(-1)
    phi[3, 2] = ex.Num(1)
    phi[2, 3] = ex.Num(-1)
    return AlmostContactStructure(
        carrier=chart,
        phi=TensorField(chart, "endomorphism", phi),
        xi=TensorField(chart, "vector", np.array(["0", "0", "0", "0", "1"], dtype=object)),
        eta=TensorField(chart, "oneform", np.array(["0", "0", "0", "0", "1"], dtype=object)),
        name="flat_cosym5")


def build_sine_cone(kind: str) -> RWarpedBundle:
    if kind == "cos":
        dom = Interval(-np.pi / 2, np.pi / 2)
        return build_r_warped_contact(flat_kahler_r4(), "cos(z)", "z", dom,
                                      name="sine_cone_cos")
    dom = Interval(0.0, np.pi)
    return build_r_warped_contact(flat_kahler_r4(), "sin(z)", "z", dom,
                                  name="sine_cone_sin")


def build_r_warped_surface() -> RWarpedBundle:
    return build_r_warped_contact(flat_kahler_r2(), "cos(z)", "z",
                                  Interval(-np.pi / 2, np.pi / 2),
                                  name="r_warped_surface")


def build_s5_in_c3() -> HypersurfaceExample:
    """Round unit S⁵ in Hopf coordinates (a, b, p1, p2, p3).

    The three complex ambient coordinates are r_k e^{i p_k} with radii
    (cos a, sin a cos b, sin a sin b); the chart domain keeps both angles
    inside (0, π/2) so every radius stays bounded away from zero. The
    closed-form induced structure comes from ξ = −JN for the outward
    normal: ξ = −(∂_p1 + ∂_p2 + ∂_p3).
    """
    dom_angle = Interval(0.2, 1.35)
    chart = Chart(
        ("a", "b", "p1", "p2", "p3"),
        [
            ["1", "0", "0", "0", "0"],
            [None, "sin(a)^2", "0", "0", "0"],
            [None, None, "cos(a)^2", "0", "0"],
            [None, None, None, "sin(a)^2*cos(b)^2", "0"],
            [None, None, None, None, "sin(a)^2*sin(b)^2"],
        ],
        [dom_angle, dom_angle, Interval(), Interval(), Interval()],
        name="s5_hopf")
    phi = np.empty((5, 5), dtype=object)
    entries = {
        (2, 0): "-sin(a)/cos(a)", (3, 0): "cos(a)/sin(a)", (4, 0): "cos(a)/sin(a)",
        (3, 1): "-sin(b)/cos(b)", (4, 1): "cos(b)/sin(b)",
        (0, 2): "sin(a)*cos(a)",
        (0, 3): "-sin(a)*cos(a)*cos(b)^2", (1, 3): "sin(b)*cos(b)",
        (0, 4): "-sin(a)*cos(a)*sin(b)^2", (1, 4): "-sin(b)*cos(b)",
    }
    for (i, j), text in entries.items():
        phi[i, j] = text
    xi = ["0", "0", "-1", "-1", "-1"]
    eta = ["0", "0", "-cos(a)^2", "-sin(a)^2*cos(b)^2", "-sin(a)^2*sin(b)^2"]
    phi_f = TensorField(chart, "endomorphism", phi)
    xi_f = TensorField(chart, "vector", np.array(xi, dtype=object))
    eta_f = TensorField(chart, "oneform", np.array(eta, dtype=object))
    immersion = (
        "cos(a)*cos(p1)", "cos(a)*sin(p1)",
        "sin(a)*cos(b)*cos(p2)", "sin(a)*cos(b)*sin(p2)",
        "sin(a)*sin(b)*cos(p3)", "sin(a)*sin(b)*sin(p3)",
    )
    patch = SurfacePatch(chart=chart, immersion=immersion, normal=immersion)
    structure = AlmostContactStructure(carrier=chart, phi=phi_f, xi=xi_f,
                                       eta=eta_f, name="s5_in_c3")
    return HypersurfaceExample(structure=structure, patch=patch, ambient=ambient_c3())


def build_hopf_pair() -> SubmersionPair:
    """Unit round S³ in Hopf coordinates over the radius-1/2 round 2-sphere
    in its stereographic (projective) chart.

    The base complex structure J∂_u = −∂_v, J∂_v = ∂_u is the orientation
    for which the symplectic pairing G(·, J·) matches the 1/2-convention
    exterior derivative of the contact form upstairs.
    """
    total_chart = Chart(
        ("alpha", "beta", "gamma"),
        [["1", "0", "0"], [None, "cos(alpha)^2", "0"], [None, None, "sin(alpha)^2"]],
        [Interval(0.2, 1.35), Interval(), Interval()],
        name="s3_hopf")
    phi = np.empty((3, 3), dtype=object)
    phi[1, 0] = "sin(alpha)/cos(alpha)"
    phi[2, 0] = "-cos(alpha)/sin(alpha)"
    phi[0, 1] = "-sin(alpha)*cos(alpha)"
    phi[0, 2] = "sin(alpha)*cos(alpha)"
    total = AlmostContactStructure(
        carrier=total_chart,
        phi=TensorField(total_chart, "endomorphism", phi),
        xi=TensorField(total_chart, "vector", np.array(["0", "1", "1"], dtype=object)),
        eta=TensorField(total_chart, "oneform",
                        np.array(["0", "cos(alpha)^2", "sin(alpha)^2"], dtype=object)),
        name="s3_round")
    base_chart = Chart(
        ("u", "v"),
        [["1/(1 + u^2 + v^2)^2", "0"], [None, "1/(1 + u^2 + v^2)^2"]],
        name="s2_half")
    J = np.empty((2, 2), dtype=object)
    J[1, 0] = ex.Num(-1)
    J[0, 1] = ex.Num(1)
    base = AlmostHermitianStructure(base_chart, TensorField(base_chart, "endomorphism", J),
                                    name="s2_half")
    projection = ("sin(alpha)/cos(alpha)*cos(gamma - beta)",
                  "sin(alpha)/cos(alpha)*sin(gamma - beta)")
    return SubmersionPair(total=total, base=base, projection=projection,
                          name="hopf_pair")


# -- resolution -------------------------------------------------------------------


def _parse_cs(arg: str) -> tuple[Fraction, Fraction]:
    if not arg:
        return Fraction(3, 5), Fraction(4, 5)
    try:
        c, s = arg.split(",")   # ValueError unless there is exactly one comma
        return Fraction(c.strip()), Fraction(s.strip())
    except (ValueError, ZeroDivisionError):
        raise RegistryError(
            f"expected two rationals 'c,s' after the colon, got {arg!r}") from None


def _h21(arg: str) -> AlmostContactStructure:
    c, s = _parse_cs(arg)
    return AlmostContactStructure(heisenberg_h21(c, s), name=f"h21({c},{s})")


def _cone_of(arg: str) -> AlmostHermitianStructure:
    if not arg:
        raise RegistryError("cone_of needs a contact target, e.g. cone_of:s5_in_c3")
    inner = resolve_target(arg)
    s = inner.structure if isinstance(inner, HypersurfaceExample) else inner
    if not isinstance(s, AlmostContactStructure):
        got = ("chart" if isinstance(s, Chart) else "pair" if isinstance(s, SubmersionPair)
               else "hermitian")
        raise RegistryError(f"cone_of needs a contact target, got {got}")
    return build_cone(s)


# name, as ``curvlab list`` prints it → (builder, whether the builder takes
# the text after the colon)
_TARGETS = {
    "flat3": (build_flat3, False),
    "s2_round": (build_s2_round, False),
    "h21": (_h21, True),
    "h21_chart": (lambda arg: build_h21_chart(*_parse_cs(arg)), True),
    "flat_cosym5": (build_flat_cosym5, False),
    "sine_cone_cos": (lambda: build_sine_cone("cos").structure, False),
    "sine_cone_sin": (lambda: build_sine_cone("sin").structure, False),
    "r_warped_surface": (lambda: build_r_warped_surface().structure, False),
    "s5_in_c3": (build_s5_in_c3, False),
    "cone_of:<contact target>": (_cone_of, True),
    "hopf_pair": (build_hopf_pair, False),
}


def registry_names() -> list[str]:
    return list(_TARGETS)


def resolve_target(name: str):
    """Resolve a registry target name, with inline parameters, to its object:
    a ``Chart``, an ``AlmostContactStructure``, an
    ``AlmostHermitianStructure``, a ``SubmersionPair`` or a
    ``HypersurfaceExample``. A builder's ValueError is a RegistryError."""
    base, _, arg = name.partition(":")
    base = base.strip()
    entry = next((e for key, e in _TARGETS.items() if key.partition(":")[0] == base), None)
    if entry is None:
        raise RegistryError(f"unknown target {name!r}")
    build, takes_parameter = entry
    if arg and not takes_parameter:
        raise RegistryError(f"target {base!r} takes no parameter, got {arg!r}")
    try:
        return build(arg) if takes_parameter else build()
    except ValueError as e:
        raise RegistryError(str(e)) from None
