"""Weil indices as exact eighth roots of unity.

The index gamma(psi) of the quadratic character x -> psi(x^2) is an eighth
root of unity. Exact values live in Z/8 exponent arithmetic (the value is
e^(i*pi*k/4)), and ``gamma`` computes the exponent in closed form from the
valuation and the Legendre symbol of the scale (Gauss's sign of the
quadratic Gauss sum; Weil, Acta Math. 111 (1964); Ranga Rao, Pacific J.
Math. 157 (1993)). It is exact by construction: no floating point enters.
The numerical shell oracle ``gauss_shell_oracle`` is an independent
witness that the tests compare against the closed form.

Conventions, fixed throughout: the standard real character is
psi(x) = e^(2*pi*i*x); the standard character at an odd prime p has
conductor exactly the p-adic integers, i.e. psi(x) = e^(2*pi*i*{x}_p) with
{x}_p the p-power fractional part. psi_a denotes x -> psi(a*x). Even residue
characteristic is not supported here.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import DomainError, OracleConsistencyError, shown
from .local_arith import (
    Place,
    Value,
    _split,
    as_fraction,
    hilbert,
    square_class,
    valuation_and_unit,
)


class EighthRoot(Value):
    """An eighth root of unity, stored as its exponent k mod 8; value e^(i*pi*k/4)."""

    __slots__ = ("exponent",)

    def __init__(self, exponent: int):
        object.__setattr__(self, "exponent", exponent % 8)

    @classmethod
    def from_sign(cls, s: int) -> "EighthRoot":
        if s == 1:
            return cls(0)
        if s == -1:
            return cls(4)
        raise DomainError(f"not a sign: {shown(s)}")

    def __mul__(self, other):
        if isinstance(other, EighthRoot):
            return EighthRoot(self.exponent + other.exponent)
        if other in (1, -1):
            return self * EighthRoot.from_sign(other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "EighthRoot":
        return EighthRoot(-self.exponent)

    def __pow__(self, n: int) -> "EighthRoot":
        return EighthRoot(self.exponent * n)

    def value(self) -> complex:
        return cmath.exp(1j * math.pi * self.exponent / 4)

    _NAMES = {0: "1", 2: "i", 4: "-1", 6: "-i"}

    def __repr__(self):
        k = self.exponent
        if k in self._NAMES:
            return self._NAMES[k]
        num = {1: "", 3: "3", 5: "5", 7: "7"}[k]
        return f"e^({num}i*pi/4)"


class AdditiveCharacter(Value):
    """psi_a at a fixed place: the standard character composed with x -> a*x.

    ``place`` must be real or an odd finite prime; ``scale`` is the nonzero
    rational a. ``phase`` returns the exact argument of psi_a(x) as a
    Fraction mod 1, so downstream identity checks can stay exact.
    """

    __slots__ = ("place", "scale")

    def __init__(self, place: Place, scale=1):
        scale = as_fraction(scale)
        if scale == 0:
            raise DomainError("character scale must be nonzero")
        if place.is_finite and place.p == 2:
            raise DomainError("even residue characteristic is not supported")
        object.__setattr__(self, "place", place)
        object.__setattr__(self, "scale", scale)

    def twist(self, a) -> "AdditiveCharacter":
        return AdditiveCharacter(self.place, self.scale * as_fraction(a))

    def phase(self, x) -> Fraction:
        """Exact phase of psi(scale * x) as a Fraction in [0, 1)."""
        y = self.scale * as_fraction(x)
        if y == 0:
            return Fraction(0)
        if self.place.is_real:
            return y - (y.numerator // y.denominator)
        # the place has certified p, so no second primality test
        p = self.place.p
        v, num, den = _split(y, p)
        if v >= 0:
            return Fraction(0)
        pk = p ** (-v)
        c = (num * pow(den, -1, pk)) % pk
        return Fraction(c, pk)

    def value(self, x) -> complex:
        return cmath.exp(2j * math.pi * float(self.phase(x)))

    def __repr__(self):
        return f"AdditiveCharacter({self.place!r}, scale={self.scale})"


# Numerical witness ----------------------------------------------------------

_SHELL_ZERO = 1e-10
_SHELL_ARRAY_CAP = 6_000_000


def _shell_sum(p: int, v: int, unum: int, uden: int, k: int) -> complex:
    """Integral of psi(a x^2) over the shell valuation(x) = -k (k >= 1),
    for a = p^v * unum/uden. Exact finite sum in floating point."""
    import numpy as np

    m = max(2 * k - v, 0)
    measure = float(p**k - p ** (k - 1))
    if m == 0:
        # integrand is identically 1 on the shell
        return complex(measure)
    pm = p**m
    if pm > _SHELL_ARRAY_CAP:
        raise OracleConsistencyError(
            f"shell modulus {p}^{m} exceeds the oracle's resource cap"
        )
    t = np.arange(pm, dtype=np.int64)
    t = t[t % p != 0]
    c = (unum * pow(uden, -1, pm)) % pm
    phases = (c * ((t * t) % pm)) % pm
    total = np.exp(2j * np.pi * phases / pm).sum()
    return complex(total * (p ** (k - m)))


def gauss_shell_oracle(p: int, a, shell_depth: int = 4) -> complex:
    """Numerical Weil index at an odd prime via shell decomposition.

    Sums the integrals of psi(a x^2) over the shells valuation(x) = -k for
    k = 0..shell_depth (Haar measure with mass 1 on the p-adic integers) and
    returns the normalized value I/|I|. The shell sums stabilize exactly at
    finite depth: every shell whose phase modulus is p^m with m >= 2
    vanishes, so once two consecutive shells vanish numerically the deeper
    ones are skipped and the truncation error is 0 up to floating rounding
    (far below 1e-8 for p >= 3). If stabilization is not observed within
    shell_depth, an OracleConsistencyError is raised rather than returning
    a doubtful value.
    """
    import numpy as np

    if p == 2 or p < 2:
        raise DomainError("shell oracle needs an odd prime")
    if shell_depth < 1:
        raise DomainError("shell depth must be positive")
    a = as_fraction(a)
    if a == 0:
        raise DomainError("scale must be nonzero")
    v, u = valuation_and_unit(a, p)

    # shell k = 0: the p-adic integers; phase modulus p^max(-v, 0)
    m0 = max(-v, 0)
    if m0 == 0:
        total = 1.0 + 0j
    else:
        pm = p**m0
        if pm > _SHELL_ARRAY_CAP:
            raise OracleConsistencyError(
                f"unit-ball modulus {p}^{m0} exceeds the oracle's resource cap"
            )
        t = np.arange(pm, dtype=np.int64)
        c = (u.numerator * pow(u.denominator, -1, pm)) % pm
        phases = (c * ((t * t) % pm)) % pm
        total = complex(np.exp(2j * np.pi * phases / pm).sum() / pm)

    vanished = 0
    for k in range(1, shell_depth + 1):
        s = _shell_sum(p, v, u.numerator, u.denominator, k)
        total += s
        if abs(s) < _SHELL_ZERO:
            vanished += 1
            if vanished >= 2:
                break
        else:
            vanished = 0
    if vanished < 2:
        raise OracleConsistencyError(
            "shell sums did not stabilize within the requested depth; "
            "increase shell_depth or reduce the scale by squares"
        )
    norm = abs(total)
    if norm < 1e-9:
        raise OracleConsistencyError("shell oracle produced a vanishing total")
    return total / norm


def gamma(psi: AdditiveCharacter) -> EighthRoot:
    """The Weil index of psi as an exact eighth root, in closed form.

    Real place: e^(i*pi/4) for scale a > 0 and e^(-i*pi/4) for a < 0. Odd p,
    a = p^v * u: 1 if v is even, else eps_p * (u|p) with eps_p = 1 for
    p = 1 mod 4 and i for p = 3 mod 4. The value depends only on the square
    class of a; the tests check it against ``gauss_shell_oracle``.
    """
    c, p = square_class(psi.scale, psi.place), psi.place.p
    if p is None:
        return EighthRoot(7 if c else 1)
    if not c & 1:  # even valuation
        return EighthRoot(0)
    return EighthRoot((0 if p % 4 == 1 else 2) + (4 if c & 2 else 0))


def mu(a, psi: AdditiveCharacter) -> EighthRoot:
    """mu_psi(a) = gamma(psi_a) / gamma(psi); depends only on the square
    class of a."""
    a = as_fraction(a)
    if a == 0:
        raise DomainError("mu needs a nonzero argument")
    return gamma(psi.twist(a)) * gamma(psi).inverse()


def mu_multiplicativity_check(a, b, psi: AdditiveCharacter) -> bool:
    """True iff mu(ab) = mu(a) * mu(b) * (a, b) exactly as eighth roots,
    the Hilbert sign embedding as exponent 0 or 4."""
    a, b = as_fraction(a), as_fraction(b)
    lhs = mu(a * b, psi)
    rhs = mu(a, psi) * mu(b, psi) * EighthRoot.from_sign(hilbert(a, b, psi.place))
    return lhs == rhs
