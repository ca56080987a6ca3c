"""Exception types shared across the pipeline.

DataError subclasses map to CLI exit code 2, EndpointError to 3, and
UsageError to 1.
"""


class RankforgeError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(RankforgeError):
    """Bad invocation: missing inputs, unknown options, invalid combinations."""


class DataError(RankforgeError):
    """Invalid or inconsistent input data."""


class FormatError(DataError):
    """Malformed file content. Carries a line number when one applies."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class DuplicateIdError(DataError):
    """A document id appears more than once in a collection."""


class SizeMismatchError(DataError):
    """Declared and actual payload sizes disagree."""


class ValidationError(DataError):
    """Loaded values violate an invariant (e.g. non-finite embedding)."""


class DegenerateVectorError(DataError):
    """A vector with zero norm where a direction is required."""


class DegenerateClusterError(DataError):
    """A cluster whose mean vector has zero norm."""


class InvalidConfigError(DataError):
    """Configuration value outside its documented bounds."""


class InfeasibleBudgetError(DataError):
    """Requested sample size cannot be satisfied by the collection."""


class TemplateError(DataError):
    """Prompt template is missing a required slot."""


class EmptyQueryError(DataError):
    """A completion parsed to an empty query; the item is dropped."""


class AlignmentError(DataError):
    """Embedding rows do not line up with the filtered collection."""


class EndpointError(RankforgeError):
    """LLM endpoint failure that aborts the generation stage."""


class AccessDeniedError(EndpointError):
    """The endpoint refused the request's credentials (HTTP 401 or 403); so would every other."""


class AggregateGenerationError(EndpointError):
    """Every generation request failed."""

    def __init__(self, failed: int):
        super().__init__(f"all {failed} generation requests failed")
        self.failed = failed
