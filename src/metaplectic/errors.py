"""Shared exception types.

Every contract violation raises one of these; no operation silently guesses
an answer outside its supported domain.
"""


class DomainError(ValueError):
    """An argument is outside an operation's mathematical domain (zero input,
    bad prime, mismatched truncation degrees, and so on)."""


class UnsupportedDomainError(DomainError):
    """The inputs are mathematically fine but fall outside the element classes
    this partial evaluator supports."""


class PreconditionError(DomainError):
    """A documented precondition was violated (non-even torus element,
    operator window exceeded, non-square determinant, ...)."""


class OracleConsistencyError(RuntimeError):
    """A brute-force oracle cannot give a trustworthy value: a floating-point
    value failed to land near any admissible exact value (a convention error
    rather than a numerical hiccup), or the input exceeds the oracle's
    resource cap."""


class ModelInconsistencyError(RuntimeError):
    """Two operators that should differ by a scalar do not; the finite model
    (or a formula feeding it) is internally inconsistent."""


class ConvergenceDomainError(DomainError):
    """A numerical evaluation was requested outside its region of absolute
    convergence."""


class DataError(ValueError):
    """Structured input (a Satake table and the like) failed validation."""
