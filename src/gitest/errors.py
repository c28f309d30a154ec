"""Shared exception types."""


class GitestError(ValueError):
    """Base class for the errors this package raises about its data.

    A parameter out of its range raises a plain ValueError instead, which
    the command line reports as a usage error.
    """


class StructuralError(GitestError):
    """A matrix or graph violates a structural contract (nonzero diagonal,
    mismatched dimensions, overlapping rank layers, ...)."""


class DegenerateDataError(GitestError):
    """The data admits no meaningful test (zero-distance similarity edge,
    fully degenerate null covariance, ...)."""
