"""Dual coordinates, entropy transforms, and divergences for statistical models.

The package treats a statistical model as a family of states indexed by
canonical parameters theta, with moment coordinates U tied to theta by a
Legendre transform of the entropy.  :mod:`infogeo.core` holds the
model-agnostic engine; concrete families live in :mod:`infogeo.qubit`,
:mod:`infogeo.coherent`, :mod:`infogeo.discrete`,
:mod:`infogeo.regression`, and :mod:`infogeo.sphere`.  ``infogeo verify``
runs the property suites from :mod:`infogeo.verify`, loaded on first use.
"""

__version__ = "0.1.0"

from .core import (
    BregmanReport,
    DivergenceReport,
    DualPair,
    ModelDescriptor,
    PythagorasReport,
    bregman_divergence,
    canonical_check,
    convexity_probe,
    divergence_def5,
    divergence_from_data,
    dual_points,
    massieu,
    metric_tensor,
    pythagoras_data,
    pythagoras_models,
    theta_to_u,
    u_to_theta,
)
from .errors import (
    CanonicalityError,
    ConstraintError,
    ConvergenceError,
    DegeneracyError,
    DomainError,
    EvaluationError,
    InfeasibleError,
    InfoGeoError,
    SupportError,
    TruncationError,
)
from .numerics import Domain
from .registry import (
    BUILTIN_NAMES,
    ModelHandle,
    canonical_instances,
    coherent_instance,
    discrete_instance,
    get_model,
    load_config,
)


def __getattr__(name):
    """The names of :mod:`infogeo.verify`, imported on first use (PEP 562)."""
    if name in ("PropertyResult", "verify_handle", "verify_numerics"):
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BUILTIN_NAMES",
    "BregmanReport",
    "CanonicalityError",
    "ConstraintError",
    "ConvergenceError",
    "DegeneracyError",
    "DivergenceReport",
    "Domain",
    "DomainError",
    "DualPair",
    "EvaluationError",
    "InfeasibleError",
    "InfoGeoError",
    "ModelDescriptor",
    "ModelHandle",
    "PropertyResult",
    "PythagorasReport",
    "SupportError",
    "TruncationError",
    "bregman_divergence",
    "canonical_check",
    "canonical_instances",
    "coherent_instance",
    "convexity_probe",
    "discrete_instance",
    "divergence_def5",
    "divergence_from_data",
    "dual_points",
    "get_model",
    "load_config",
    "massieu",
    "metric_tensor",
    "pythagoras_data",
    "pythagoras_models",
    "theta_to_u",
    "u_to_theta",
    "verify_handle",
    "verify_numerics",
]
