"""Shared exception types.

Every contract violation raises one of these; no operation silently guesses
an answer outside its supported domain.
"""

import sys
from fractions import Fraction


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


def digits_past_limit(x) -> int:
    """The decimal digit count of an int or Fraction whose ``str`` would pass
    the interpreter's int-to-str digit limit (of its larger part, for a
    Fraction); 0 for anything that prints."""
    limit = sys.get_int_max_str_digits()
    if not isinstance(x, (int, Fraction)) or not limit:
        return 0
    n = max(abs(x.numerator), x.denominator)
    if n.bit_length() <= 3 * limit:  # below 10^limit, so it prints
        return 0
    digits = int(n.bit_length() * 0.30102999566398120) + 1
    digits -= n < 10 ** (digits - 1)
    return digits if digits > limit else 0


def shown(x) -> str:
    """``str(x)`` for an error message, with a placeholder for a number past
    the interpreter's digit limit, so building the message cannot fail. A
    tuple is shown element by element, in the form ``str`` gives it."""
    if isinstance(x, tuple):
        inner = ", ".join(map(shown, x))
        return f"({inner},)" if len(x) == 1 else f"({inner})"
    digits = digits_past_limit(x)
    return f"<a number with {digits} digits>" if digits else str(x)
