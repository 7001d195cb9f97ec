"""Derived geometries: metric cones, warped products, line-warped contact
structures, hypersurface induction and submersion pairs. The closed forms
that make their structure theorems executable live beside the tests, in
``tests/closed_forms.py``."""

from .cone import ConeBundle, build_cone
from .warped import (WarpedSpec, build_warped, RWarpedBundle, build_r_warped_contact,
                     eq_for_g1_obstruction)
from .hypersurface import SurfacePatch, HypersurfaceReport, induce_hypersurface
from .submersion import SubmersionPair, horizontal_lift, check_submersion_lift
from .registry import (registry_names, resolve_target, ResolvedTarget,
                       HypersurfaceExample)

__all__ = [
    "ConeBundle", "build_cone",
    "WarpedSpec", "build_warped", "RWarpedBundle", "build_r_warped_contact",
    "eq_for_g1_obstruction",
    "SurfacePatch", "HypersurfaceReport", "induce_hypersurface",
    "SubmersionPair", "horizontal_lift", "check_submersion_lift",
    "registry_names", "resolve_target", "ResolvedTarget", "HypersurfaceExample",
]
