"""Derived geometries: metric cones, line-warped contact structures,
hypersurface induction and submersion pairs. The closed forms that make
their structure theorems executable, and the general warped product they
are checked on, live beside the tests, in ``tests/closed_forms.py``."""

from .cone import build_cone
from .warped import RWarpedBundle, build_r_warped_contact
from .hypersurface import SurfacePatch, HypersurfaceReport, induce_hypersurface
from .submersion import SubmersionPair, check_submersion_lift
from .registry import registry_names, resolve_target, HypersurfaceExample

__all__ = [
    "build_cone", "RWarpedBundle", "build_r_warped_contact",
    "SurfacePatch", "HypersurfaceReport", "induce_hypersurface",
    "SubmersionPair", "check_submersion_lift",
    "registry_names", "resolve_target", "HypersurfaceExample",
]
