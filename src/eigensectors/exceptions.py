"""Error types shared across the package.

The CLI maps these onto exit codes: configuration/usage problems -> 1,
data problems -> 2, numerical failures -> 3.
"""

__all__ = [
    "ConfigurationError",
    "DataError",
    "DomainError",
    "EigensectorsError",
    "InsufficientDataError",
    "NumericalError",
    "ParseError",
    "ValidationError",
    "ZeroVarianceError",
]


class EigensectorsError(Exception):
    """Base class for all package errors."""


class ConfigurationError(EigensectorsError):
    """Invalid configuration: unknown asset in a rule, bad option combination."""


class DataError(EigensectorsError):
    """Base class for problems with the input data."""


class ParseError(DataError):
    """Malformed input file. Carries the 1-based line number when known."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ValidationError(DataError):
    """Input parsed but violates a contract (non-positive price, bad matrix)."""


class ZeroVarianceError(ValidationError):
    """An asset's return series has zero variance and cannot be normalized."""

    def __init__(self, assets):
        self.assets = list(assets)
        names = ", ".join(self.assets)
        super().__init__(
            f"zero-variance return series for: {names}. "
            "Drop these assets (CLI: --drop-zero-variance) or fix the input."
        )


class InsufficientDataError(DataError):
    """Not enough observations for the requested operation."""


class DomainError(EigensectorsError):
    """Mathematical precondition violated (e.g. Q < 1 for the spectral bounds)."""


class NumericalError(EigensectorsError):
    """A numerical routine failed or produced an unusable result."""
