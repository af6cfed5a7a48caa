"""Exact arithmetic substrate: rationals inside each completion of Q.

Everything here is exact. Rational numbers are stdlib ``fractions.Fraction``
(already stored in lowest terms with a positive denominator), signs are plain
ints in {+1, -1}, and power series are rational-coefficient arrays truncated
at a fixed degree.

The base field is Q throughout; a "place" is a finite prime (2 allowed) or
the real place. The complex place is excluded on purpose: every symbol is
trivial there, so nothing would be computed. p = 2 is supported by this
module only; the cover/Weil machinery elsewhere requires odd residue
characteristic.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .errors import DomainError, OracleConsistencyError, shown

Rational = Fraction


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions, and exact numeric strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise DomainError(f"not an exact rational: {x!r}")


# Miller-Rabin with the primes up to 41 as bases is exact below this bound,
# the least strong pseudoprime to all of them (OEIS A014233).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Exact for n < 3.3 * 10^24; larger n raise DomainError rather than
    return a probable answer.
    """
    if n >= _MR_BOUND:
        raise DomainError(f"primality of {shown(n)} is outside the exact range n < {_MR_BOUND}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:  # no prime factor up to 41, so no factor at all
        return True
    return not _witnessed_composite(n)


def _witnessed_composite(n: int) -> bool:
    # True iff some base in _MR_BASES proves n composite; n must be odd and
    # prime to every base. A True answer is a proof at any size.
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return True
    return False


def _rho_factor(n: int) -> int:
    # A proper factor of the odd composite n: Pollard's rho with Brent's cycle
    # search, gcds batched over 128 steps. Deterministic (x0 = 2, c = 1, 2, ...).
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n| (n must be nonzero), in increasing order.

    Trial division by the primes up to 41, then Pollard-Brent rho splits
    every piece that Miller-Rabin proves composite; the cost grows with the
    square root of the second-largest prime factor. A piece at or above
    3.3 * 10^24 that no base proves composite cannot be certified prime and
    raises DomainError.
    """
    n = abs(n)
    if n == 0:
        raise DomainError("0 has no prime factorization")
    out = set()
    for b in _MR_BASES:
        if n % b == 0:
            out.add(b)
            while n % b == 0:
                n //= b
    pieces = [n] if n > 1 else []
    while pieces:
        m = pieces.pop()
        # no piece has a factor up to 41, so below 43^2 it is prime
        if m >= 43 * 43 and _witnessed_composite(m):
            d = _rho_factor(m)
            pieces += [d, m // d]
        elif m < _MR_BOUND:
            out.add(m)
        else:
            raise DomainError(
                f"cannot certify the factor {shown(m)} prime: the exact range is n < {_MR_BOUND}"
            )
    return sorted(out)


class Frozen:
    """Immutable once built: a constructor writes its slots with
    ``object.__setattr__``, and any later assignment or deletion raises.
    Equality stays identity, as for a data holder."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Value(Frozen):
    """A Frozen type equal to another of its own type when its slots are
    equal, and hashed by them alone: their tuple, or the one slot itself."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a plain class attribute, not a method: call it as self._fields(obj)
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))


class Place(Value):
    """A place of Q: ``Place.finite(p)`` for a prime p, or ``Place.real()``.

    Immutable and hashable; ``p`` is None at the real place.
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None):
        if p is not None and not is_prime(p):
            raise DomainError(f"finite place needs a prime, got {p}")
        object.__setattr__(self, "p", p)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(p)

    @classmethod
    def _certified(cls, p: int) -> "Place":
        """The finite place at a p the caller has already proven prime."""
        place = object.__new__(cls)
        object.__setattr__(place, "p", p)
        return place

    @classmethod
    def real(cls) -> "Place":
        return cls(None)

    @property
    def is_real(self) -> bool:
        return self.p is None

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    def __repr__(self):
        return "Place.real()" if self.p is None else f"Place.finite({self.p})"

    def __str__(self):
        return "inf" if self.p is None else str(self.p)


def _split(x: Fraction, p: int) -> tuple[int, int, int]:
    # x = p^v * num / den with num and den prime to p
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num, den


def valuation_and_unit(x, p: int) -> tuple[int, Fraction]:
    """Write x = p^v * u with u a p-adic unit; returns (v, u).

    Args:
        x: nonzero rational.
        p: a prime (2 allowed).
    Raises:
        DomainError: on zero input or non-prime p.
    """
    x = as_fraction(x)
    if x == 0:
        raise DomainError("valuation of 0 is undefined")
    if not is_prime(p):
        raise DomainError(f"not a prime: {p}")
    v, num, den = _split(x, p)
    return v, Fraction(num, den)


def legendre(a, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p: +1 iff a is a nonzero square mod p.

    Accepts ints and p-unit rationals. Raises DomainError if p is not an odd
    prime or if a is not a unit at p.
    """
    if p == 2 or not is_prime(p):
        raise DomainError(f"legendre needs an odd prime, got {p}")
    a = as_fraction(a)
    if a.numerator % p == 0 or a.denominator % p == 0:
        raise DomainError(f"{shown(a)} is not a unit at {p}")
    return -1 if _class(a, p) & 2 else 1


def least_nonresidue(p: int) -> int:
    """The least quadratic nonresidue modulo the odd prime p."""
    return next(n for n in range(2, p) if legendre(n, p) == -1)


def square_class(x, place: Place) -> int:
    """The class of x in Q_v^x / (Q_v^x)^2 as a bit vector (Serre, A Course
    in Arithmetic, III.1): 2 classes at the real place, 4 at an odd p, 8 at 2.

    For x = p^v * u: bit 0 is v mod 2; bit 1 is 1 iff u is a nonsquare mod p
    at an odd p, or u = +-3 mod 8 at 2; bit 2 is 1 iff x < 0 at the real
    place, or u = 3 mod 4 at 2. Raises DomainError on zero input.
    """
    x = as_fraction(x)
    if x == 0:
        raise DomainError("square class of 0 is undefined")
    return _class(x, place.p)


def _class(x: Fraction, p: int | None) -> int:
    # square_class of a nonzero Fraction at a checked prime p (None: real)
    if p is None:
        return 4 if x.numerator < 0 else 0
    v, num, den = _split(x, p)
    if p == 2:
        r = num * den % 8  # u mod 8, as den^2 = 1 mod 8
        return (v & 1) | (2 if r in (3, 5) else 0) | (4 if r in (3, 7) else 0)
    # Euler's criterion; num * den has the residue symbol of num / den
    return (v & 1) | (0 if pow(num * den, (p - 1) // 2, p) == 1 else 2)


def _hilbert_form(a: int, b: int, p: int | None) -> int:
    # (x, y) = (-1)^B(square_class(x), square_class(y)) for the F_2-bilinear
    # form B that pairs bit 0 with bit 1 and bit 2 with itself, and at
    # p = 3 mod 4 also bit 0 with itself, as (p, p) = (p, -1) = -1 there.
    diagonal = 4 if p is None or p == 2 else int(p % 4 == 3)
    dual = ((b & 1) << 1) ^ ((b >> 1) & 1) ^ (b & diagonal)
    return (a & dual).bit_count() & 1


def hilbert(a, b, place: Place) -> int:
    """The local Hilbert symbol (a, b) at the given place.

    +1 iff z^2 = a x^2 + b y^2 has a nonzero solution in the completion.
    A bilinear form on square classes, symmetric, and (a, -a) = +1 everywhere.

    Args:
        a, b: nonzero rationals.
        place: finite prime (2 allowed) or real.
    Raises:
        DomainError: on zero input.
    """
    a, b = as_fraction(a), as_fraction(b)
    if a == 0 or b == 0:
        raise DomainError("hilbert symbol needs nonzero arguments")
    p = place.p
    return -1 if _hilbert_form(_class(a, p), _class(b, p), p) else 1


# p^5 above this would need tables of more than 10^7 residues (p <= 23 fit)
_SWEEP_MODULUS_CAP = 10_000_000


@functools.lru_cache(maxsize=None)
def _mod_p5_solvable(a: int, b: int, p: int) -> bool:
    # Primitive solution of a x^2 + b y^2 = z^2 mod p^5. In a primitive triple
    # x or y is a unit: if p divided both, p^2 would divide a x^2 + b y^2 and
    # so z^2, making z a non-unit too. Scaling by the inverse of that unit
    # pins it to 1, so the two sweeps x = 1 and y = 1 are exhaustive. Each
    # sweep runs over the squares mod p^5 and looks its targets up in a
    # residue table.
    mod = p**5
    if mod > _SWEEP_MODULUS_CAP:
        raise OracleConsistencyError(
            f"solvability sweep modulus {p}^5 exceeds the oracle's cap {_SWEEP_MODULUS_CAP}"
        )
    import numpy as np

    r = np.arange(mod // 2 + 1, dtype=np.int64)  # (mod - r)^2 = r^2 covers the rest
    is_sq = np.zeros(mod, dtype=bool)
    is_sq[r * r % mod] = True
    sq = np.flatnonzero(is_sq)
    if is_sq[(a + b * sq) % mod].any():  # x = 1
        return True
    return bool(is_sq[(a * sq + b) % mod].any())  # y = 1


def solvability_oracle(a, b, place: Place) -> int:
    """Brute-force Hilbert symbol: searches for solutions of z^2 = a x^2 + b y^2.

    At a finite place this enumerates primitive solutions mod p^5 after
    clearing denominators by squares and stripping even prime powers (both
    are exact square scalings of the equation, under which solvability is
    invariant). The resulting coefficients have valuation 0 or 1, for which
    a primitive solution mod p^5 lifts to the completion (the gradient of
    z^2 - a x^2 - b y^2 has valuation at most 2 at such a point, and p^5
    exceeds twice that). At the real place it is sign analysis.

    Finite places need p^5 <= 10^7, i.e. p <= 23; a larger p raises
    OracleConsistencyError before anything is allocated.

    Independent of the symbol formulas in :func:`hilbert`; used to pin them.
    """
    a, b = as_fraction(a), as_fraction(b)
    if a == 0 or b == 0:
        raise DomainError("solvability oracle needs nonzero arguments")
    if place.is_real:
        # both coefficients negative forces x = y = z = 0 over R
        return -1 if (a < 0 and b < 0) else 1
    p = place.p

    def reduce(x: Fraction) -> int:
        n = x.numerator * x.denominator  # x times the square den^2
        v, u = valuation_and_unit(n, p)
        return p ** (v % 2) * u.numerator

    mod = p**5
    return 1 if _mod_p5_solvable(reduce(a) % mod, reduce(b) % mod, p) else -1


def symbol_primes(values) -> list[int]:
    """2 and the primes of every numerator and denominator in ``values``,
    sorted: the only primes where a Hilbert symbol of them can be -1. Each
    is certified prime, so callers build its place with Place._certified."""
    primes = {2}
    for x in values:
        for n in (x.numerator, x.denominator):
            if abs(n) != 1:
                primes.update(prime_factors(n))
    return sorted(primes)


def reciprocity_product(a, b) -> int:
    """Product of (a, b)_v over the real place and all primes dividing
    2 * num * den of a and b. The global product formula says this is +1;
    the value is computed honestly, not assumed."""
    a, b = as_fraction(a), as_fraction(b)
    if a == 0 or b == 0:
        raise DomainError("reciprocity product needs nonzero arguments")
    result = hilbert(a, b, Place.real())
    for p in symbol_primes((a, b)):
        result *= hilbert(a, b, Place._certified(p))
    return result


def same_square_class(a, b, place: Place) -> bool:
    """True iff a/b is a square in the completion at ``place``."""
    return square_class(a, place) == square_class(b, place)


def square_class_rep(a, place: Place) -> Fraction:
    """Canonical representative of the square class of a at ``place``.

    Real: +1 or -1. Odd p: one of 1, n, p, n*p with n the least quadratic
    non-residue. p = 2: 2^(v mod 2) times the unit's residue mod 8.
    """
    c = square_class(a, place)
    p = place.p
    if p is None:
        return Fraction(-1 if c else 1)
    unit = (1, 5, 7, 3)[c >> 1] if p == 2 else (least_nonresidue(p) if c & 2 else 1)
    return Fraction(p ** (c & 1) * unit)


class TruncatedSeries(Value):
    """Formal power series over Q, truncated at a fixed degree D.

    Coefficients are Fractions indexed 0..D; arithmetic never reads past
    degree D. All binary operations require equal truncation degrees.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, degree: int | None = None):
        cs = [as_fraction(c) for c in coeffs]
        if degree is not None:
            if degree < 0:
                raise DomainError("truncation degree must be nonnegative")
            if len(cs) > degree + 1:
                cs = cs[: degree + 1]
            cs.extend([Fraction(0)] * (degree + 1 - len(cs)))
        elif not cs:
            raise DomainError("empty coefficient list and no degree")
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def one(cls, degree: int) -> "TruncatedSeries":
        return cls([1], degree=degree)

    @classmethod
    def from_polynomial(cls, coeffs, degree: int) -> "TruncatedSeries":
        return cls(list(coeffs), degree=degree)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]

    def _check(self, other: "TruncatedSeries"):
        if self.degree != other.degree:
            raise DomainError(
                f"truncation degrees differ: {self.degree} vs {other.degree}"
            )

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        return TruncatedSeries(
            [x + y for x, y in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return TruncatedSeries([-x for x in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self.coeffs])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        d = self.degree
        out = [Fraction(0)] * (d + 1)
        for i, ci in enumerate(self.coeffs):
            if ci == 0:
                continue
            for j in range(d + 1 - i):
                cj = other.coeffs[j]
                if cj:
                    out[i + j] += ci * cj
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse mod X^(D+1); constant term must be nonzero."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise DomainError("series with zero constant term is not invertible")
        d = self.degree
        out = [Fraction(0)] * (d + 1)
        out[0] = 1 / a0
        for n in range(1, d + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                if self.coeffs[k]:
                    acc += self.coeffs[k] * out[n - k]
            out[n] = -acc / a0
        return TruncatedSeries(out)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = TruncatedSeries.one(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self):
        return f"TruncatedSeries({[str(c) for c in self.coeffs]})"
