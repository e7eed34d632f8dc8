"""Exception hierarchy shared by all modules.

Two branches matter for the CLI exit-code contract: InputError maps to
exit code 2 (malformed input), DomainError maps to exit code 3 (the data
is readable but statistically unusable). Anything else is an internal
error (exit code 4).
"""


class RankInferError(Exception):
    """Base class for every error raised by this package."""


class InputError(RankInferError):
    """Input could not be parsed or does not name the required pieces."""


class DomainError(RankInferError):
    """Input parsed fine but violates a statistical-domain requirement."""


class NonFinite(DomainError):
    """A value that must be finite is NaN or infinite."""


class RankDeficient(DomainError):
    """Design matrix is (numerically) collinear."""


class NotPSD(DomainError):
    """Matrix required to be positive semidefinite is not."""


class DegeneratePair(DomainError):
    """A pairwise standard error is numerically zero."""


class DegenerateCovariance(DomainError):
    """A corrected covariance has a zero standard error or overflows."""


class InsufficientCategories(DomainError):
    """Fewer than two populations/categories to rank."""


class MissingValues(DomainError):
    """Data contain missing values; subset the data before fitting."""


class EmptyGroup(DomainError):
    """A group level has too few rows to support group-specific terms."""


class MissingColumn(InputError):
    """A referenced column does not exist in the input table."""


class CsvFormatError(InputError):
    """The CSV input violates the strict dialect (ragged row, duplicate
    header, or a non-numeric cell in a numeric column)."""


class FormulaError(InputError):
    """Model formula failed to parse or validate.

    ``position`` is the 0-based offset into the formula string where the
    problem was detected, or None for validation errors without a
    location.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position
