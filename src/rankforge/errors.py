"""Exception types shared across the pipeline.

A class exists only if it selects an exit code, is caught by name in the
package, or adds behaviour; every other failure raises the class of its
exit code with a message that names it. UsageError maps to CLI exit code
1, DataError and its subclasses to 2, EndpointError and its subclass to 3.
"""


class RankforgeError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(RankforgeError):
    """Bad invocation: missing inputs, unknown options, invalid combinations."""


class DataError(RankforgeError):
    """Invalid or inconsistent input data or settings."""


class FormatError(DataError):
    """Malformed file content; the message starts with ``line N:`` when a line applies."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class AlignmentError(DataError):
    """Embedding rows do not line up with the filtered collection."""


class EndpointError(RankforgeError):
    """LLM endpoint failure that aborts the generation stage."""


class AccessDeniedError(EndpointError):
    """The endpoint refused the request's credentials (HTTP 401 or 403); so would every other."""
