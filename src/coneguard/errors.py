"""Exception types shared across the package."""


class ConeguardError(Exception):
    """Base class for every error raised by this package."""


class ExprSyntaxError(ConeguardError):
    """Malformed expression source."""

    def __init__(self, message, offset):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    """Identifier that is neither a variable nor a known function."""


class VariableIndexError(ExprSyntaxError):
    """Variable index outside 1..n."""


class DomainError(ConeguardError):
    """Expression evaluated outside the domain of one of its operations."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = "%s (node at offset %d)" % (message, offset)
        super().__init__(message)
        self.offset = offset


class ProblemFormatError(ConeguardError):
    """Malformed problem or trace file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class DimensionMismatchError(ConeguardError):
    """Operands with incompatible dimensions."""


class SymmetryError(ConeguardError):
    """Matrix input that is not symmetric within tolerance."""


class InfeasiblePointError(ConeguardError):
    """Point handed to classification is not feasible within tolerance."""

    def __init__(self, residual, distances):
        super().__init__(
            "point is infeasible: residual %.3e (per-constraint distances: %s)"
            % (residual, ", ".join("%s=%.3e" % (k, v) for k, v in distances.items()))
        )
        self.residual = residual
        self.distances = distances


class NonSimpleEigenvalueError(ConeguardError):
    """Smallest eigenvalue is not numerically simple."""

    def __init__(self, gap, tol):
        super().__init__(
            "smallest eigenvalue is not simple: gap %.3e <= tolerance %.3e" % (gap, tol)
        )
        self.gap = gap
        self.tol = tol


class ReconstructionError(ConeguardError):
    """Caller-supplied combination does not reproduce the stated target."""

    def __init__(self, residual, tol):
        super().__init__(
            "supplied combination misses the target: residual %.3e > %.3e" % (residual, tol)
        )
        self.residual = residual
        self.tol = tol


class BudgetExhaustedError(ConeguardError):
    """Iterative subroutine ran out of its iteration budget."""

    def __init__(self, message, best_residual):
        super().__init__("%s (best residual %.3e)" % (message, best_residual))
        self.best_residual = best_residual
