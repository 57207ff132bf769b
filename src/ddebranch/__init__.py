"""Branches of T-periodic solutions of periodically perturbed coupled delay
differential equations: integration, averaged fields, Brouwer degree, the
discretized translation-operator index, the sigma/Lienard reduction of
sunflower-like equations, and branch continuation."""

from .continuation import Branch, BranchPoint, ContinuationConfig, continue_branch
from .degree import DegreeReport, degree_auto
from .fields import FieldHandle, average_f, nu_field
from .integrator import Trajectory, flow_averaged, flow_unperturbed, integrate
from .lienard import (
    ScalarDelayProblem,
    SigmaResult,
    lienard_reduce,
    sigma_transform,
    verify_sigma,
)
from .poincare import (
    FixedPointRecord,
    TranslationConfig,
    find_fixed_points,
    translate,
    verify_index_identity,
)
from .problem import (
    Box,
    CoupledProblem,
    History,
    PeriodicFn1D,
    average_scalar,
    normalize_delay,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "Branch",
    "BranchPoint",
    "ContinuationConfig",
    "CoupledProblem",
    "DegreeReport",
    "FieldHandle",
    "FixedPointRecord",
    "History",
    "PeriodicFn1D",
    "ScalarDelayProblem",
    "SigmaResult",
    "Trajectory",
    "TranslationConfig",
    "average_f",
    "average_scalar",
    "continue_branch",
    "degree_auto",
    "find_fixed_points",
    "flow_averaged",
    "flow_unperturbed",
    "integrate",
    "lienard_reduce",
    "normalize_delay",
    "nu_field",
    "sigma_transform",
    "translate",
    "verify_index_identity",
    "verify_sigma",
]
