"""Derived geometries: metric cones, warped products, line-warped contact
structures, hypersurface induction and submersion pairs, each with the
closed-form oracles that make their structure theorems executable."""

from .cone import ConeBundle, build_cone, ConeOracle
from .warped import (WarpedSpec, build_warped, warped_christoffel_oracle,
                     RWarpedBundle, build_r_warped_contact,
                     r_warped_riemann_oracle, r_warped_christoffel_oracle,
                     eq_for_g1_obstruction)
from .hypersurface import SurfacePatch, HypersurfaceReport, induce_hypersurface
from .submersion import SubmersionPair, horizontal_lift, check_submersion_lift
from .registry import (registry_names, resolve_target, ResolvedTarget,
                       HypersurfaceExample)

__all__ = [
    "ConeBundle", "build_cone", "ConeOracle",
    "WarpedSpec", "build_warped", "warped_christoffel_oracle",
    "RWarpedBundle", "build_r_warped_contact",
    "r_warped_riemann_oracle", "r_warped_christoffel_oracle",
    "eq_for_g1_obstruction",
    "SurfacePatch", "HypersurfaceReport", "induce_hypersurface",
    "SubmersionPair", "horizontal_lift", "check_submersion_lift",
    "registry_names", "resolve_target", "ResolvedTarget", "HypersurfaceExample",
]
