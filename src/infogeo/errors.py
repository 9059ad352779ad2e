"""Exception types shared across the library.

Every error raised deliberately by this package derives from
:class:`InfoGeoError`, so callers can distinguish library-level failures
(domain violations, solver breakdowns, structural degeneracies) from
programming errors such as ``TypeError`` or ``ValueError``.

Each class names its kind of failure in the class attribute ``category``
(``"domain"``, ``"convergence"``, ...; ``"numeric"`` on the base class).
The command line reports an error as ``"status": "error:<category>"``.
"""


class InfoGeoError(Exception):
    """Base class for all library errors."""

    category = "numeric"


class DomainError(InfoGeoError):
    """A point lies outside the open domain an operation requires."""

    category = "domain"


class EvaluationError(InfoGeoError):
    """A function could not be evaluated (non-finite value or singular spectrum)."""

    category = "evaluation"


class ConvergenceError(InfoGeoError):
    """An iterative solver stopped before reaching its tolerance."""

    category = "convergence"


class DegeneracyError(InfoGeoError):
    """A rank or positive-definiteness requirement is violated."""

    category = "degenerate"


class CanonicalityError(InfoGeoError):
    """The Legendre identity residual exceeded its tolerance.

    Carries the offending ``pair`` (a :class:`~infogeo.core.DualPair`).
    """

    category = "canonicality"

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class ConstraintError(InfoGeoError):
    """A structural precondition (for example fiber membership) does not hold."""

    category = "constraint"


class SupportError(InfoGeoError):
    """Absolute-continuity violation between distributions."""

    category = "support"


class InfeasibleError(InfoGeoError):
    """Requested moments lie outside the feasible region."""

    category = "infeasible"


class TruncationError(InfoGeoError):
    """Basis truncation too small for the requested state."""

    category = "truncation"
