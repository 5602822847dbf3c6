"""Exception types shared across the package."""


class EntropyLabError(Exception):
    """Base class for all errors raised by entropylab."""


class DimensionError(EntropyLabError):
    """Matrix shapes are incompatible with the requested operation."""


class DomainError(EntropyLabError):
    """A value lies outside the mathematical domain of an operation,
    e.g. log of a non-positive eigenvalue or a matrix that fails a
    construction invariant."""


class ConvergenceFailure(EntropyLabError):
    """The eigensolver did not converge or returned an unusable factorization."""


class NotAContraction(EntropyLabError):
    """Operator norm exceeds 1 beyond tolerance where a contraction is required."""


class NumericalInconsistency(EntropyLabError):
    """A quantity that must be real carries an imaginary part above tolerance."""


class NonFiniteObjective(EntropyLabError):
    """An objective or gradient evaluated to NaN/Inf (eigenvalue under- or
    overflow); reported rather than clamped."""


class ParseError(EntropyLabError):
    """A JSON input file cannot be read, is not UTF-8 text, is malformed or
    violates its schema."""


class OutputError(EntropyLabError):
    """An output file or directory cannot be written."""
