"""Exception hierarchy shared by all modules."""


class DdeBranchError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(DdeBranchError, ValueError):
    """A numeric or structural precondition on an argument was violated."""


class ZeroAverageError(InvalidParameterError):
    """The periodic coefficient has (numerically) zero average."""


class BlowupError(DdeBranchError):
    """State norm exceeded the blowup threshold during integration."""

    def __init__(self, t, norm, threshold):
        self.t = t
        self.norm = norm
        self.threshold = threshold
        super().__init__(
            f"state norm {norm:.3e} exceeded {threshold:.1e} at t={t:.6g}"
        )


class AdmissibilityError(DdeBranchError):
    """The field vanishes (or nearly vanishes) on the region boundary."""


class DegeneracyError(DdeBranchError):
    """A fixed point is too close to non-hyperbolic to carry a sign."""


class ResolutionError(DdeBranchError):
    """Boundary refinement hit its cap without resolving the boundary signs."""


class TranslationUndefinedError(DdeBranchError):
    """The translation operator is undefined for this input (its sweep blew
    up or a field failed to evaluate)."""


class ExprError(DdeBranchError):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class ExprNameError(ExprError):
    def __init__(self, name, offset):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown identifier '{name}' (at offset {offset})")


class ExprArityError(ExprError):
    def __init__(self, name, got, offset):
        self.name = name
        self.offset = offset
        super().__init__(
            f"function '{name}' takes 1 argument, got {got} (at offset {offset})"
        )


class ExprEvalError(ExprError):
    def __init__(self, message, node):
        self.node = node
        super().__init__(f"{message} in '{node}'")


class ConfigError(DdeBranchError):
    """A run configuration failed schema validation."""
