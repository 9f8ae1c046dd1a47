"""Exception taxonomy shared by the whole package.

The CLI maps these onto exit codes: validation problems exit 2,
hypothesis violations exit 3, resource-budget violations exit 4, level data
that is not certified at its precision exits 5.
"""


class FinemwError(Exception):
    """Base class for all package errors."""


class ValidationError(FinemwError):
    """Malformed or inconsistent input data."""


class NonUnitError(FinemwError):
    """Inversion requested for an element of positive valuation."""


class BadDivisorError(FinemwError):
    """Division against a polynomial that is not distinguished."""


class ResourceLimitError(FinemwError):
    """Degree or matrix-size budget exceeded."""


class InvalidRankTableError(ValidationError):
    """Rank table violates monotonicity or jump divisibility."""

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


class SettingError(ValidationError):
    """Growth-sequence kind does not match the requested setting."""


class HypothesisError(FinemwError):
    """A theorem hypothesis fails for the supplied data."""


class ClassificationError(FinemwError):
    """Level data is inconsistent with any elementary module type."""

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


class UncertifiedError(FinemwError):
    """Level data was computed below the precision it needs.

    Raised instead of fitting a type to coinvariants whose Smith result is
    not ``certified``: a torsion exponent reaches two digits below the
    precision used.  Summands may then be missing from the torsion and
    counted as free rank.
    """
