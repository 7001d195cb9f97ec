"""curvlab: curvature identities for almost contact metric structures.

Two engines compute Levi-Civita connections and curvature: a chart engine
driven by second-order forward jets of expression-defined metrics, and an
exact rational engine for invariant frames on Lie groups. On top of them
sit the classical structure constructions (metric cones, warped products,
hypersurface induction, circle fibrations) and residual checkers for the
Hermitian curvature identities, their contact analogues and the related
classification conditions.
"""

from .chart import Chart, Interval, TensorField, eval_field, sample
from .frame import FrameGeometry, heisenberg_h21
from .jet import Jet2, seed, seeds
from .expr import eval_expr, parse_expr
from .structures import (AlmostContactStructure, AlmostHermitianStructure,
                         ClassificationReport, check_kappa_mu, classify,
                         contact_point_data, validate)
from .identities import (IdentityReport, check_c_alpha, check_contact,
                         check_hermitian, consequence_suite)

__version__ = "0.1.0"

__all__ = [
    "Chart", "Interval", "TensorField", "eval_field", "sample",
    "FrameGeometry", "heisenberg_h21",
    "Jet2", "seed", "seeds",
    "eval_expr", "parse_expr",
    "AlmostContactStructure", "AlmostHermitianStructure", "ClassificationReport",
    "check_kappa_mu", "classify", "contact_point_data", "validate",
    "IdentityReport", "check_c_alpha", "check_contact", "check_hermitian",
    "consequence_suite",
    "__version__",
]
