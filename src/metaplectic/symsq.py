"""The unramified toral computation behind the twisted symmetric square.

Everything here is exact: Satake parameters and character values are
rationals, partitions index torus cosets, and half-integer powers of the
residue size are carried symbolically (QPower) so that square roots of q
are never floated. The headline checks are

  * even_partition_identity_check: the generating identity
      prod_{i<=j} (1 - a_i a_j X)^{-1}
        = [sum over even dominant lambda of s_lambda(a) X^{|lambda|/2}]
          * (1 - omega^2 X^r)^{-1}
  * unramified_zeta_check: the toral sum of Whittaker times semi-Whittaker
    values against the symmetric-square local factor, after substituting
    X = chi(w) q^{-2s+1/2}.

Exponent conventions: the torus section contributes its parabolic modulus
to the s-power exactly once (delta_Q^s with Q the corank-one parabolic),
and the Haar collapse contributes delta_B^{-1}. These are the unique
choices under which both checks pass, and they reproduce the collapsed
form delta_Q(t)^{s - 1/4} chi^{1/2}(det t) per term.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import (
    ConvergenceDomainError,
    DomainError,
    PreconditionError,
    shown,
)
from .local_arith import Frozen, Value, as_fraction

RAMIFIED = "ramified"


# partitions ------------------------------------------------------------------


class Partition(Value):
    """A weakly decreasing tuple of nonnegative integers (trailing zeros
    stripped)."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(int(x) for x in parts)
        for x, y in zip(parts, parts[1:]):
            if x < y:
                raise DomainError(f"parts must be weakly decreasing: {shown(parts)}")
        if parts and parts[-1] < 0:
            raise DomainError(f"parts must be nonnegative: {shown(parts)}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def is_even(self) -> bool:
        return all(x % 2 == 0 for x in self.parts)

    def padded(self, r: int) -> tuple:
        if self.length > r:
            raise DomainError(f"partition {shown(self.parts)} does not fit in rank {r}")
        return self.parts + (0,) * (r - self.length)

    def __repr__(self):
        return f"Partition{shown(self.parts)}"


def partitions_at_most(total: int, max_parts: int):
    """All partitions of `total` with at most `max_parts` parts."""

    def rec(remaining, bound, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(remaining, bound), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    yield from rec(total, total, max_parts)


def even_dominant_partitions(half_weight: int, max_parts: int):
    """Even partitions of 2 * half_weight with at most max_parts parts."""
    for mu in partitions_at_most(half_weight, max_parts):
        yield Partition(tuple(2 * x for x in mu))


# Satake data and local factors ----------------------------------------------


class SatakeData(Frozen):
    """Satake parameters of one unramified local component, with the
    residue size and the character value at a uniformizer. The Satake
    values are exact rationals; anything else is a DomainError. chi_val may
    be the string "ramified", in which case twisted local factors collapse
    to the constant 1."""

    __slots__ = ("r", "alphas", "q", "chi_val")

    def __init__(self, r: int, alphas, q: int, chi_val=Fraction(1)):
        if r < 1:
            raise DomainError("rank must be positive")
        alphas = tuple(as_fraction(a) for a in alphas)
        if len(alphas) != r:
            raise DomainError(f"need {r} Satake values, got {len(alphas)}")
        if any(a == 0 for a in alphas):
            raise DomainError("Satake values must be nonzero")
        if q < 2:
            raise DomainError("residue size must be at least 2")
        if chi_val != RAMIFIED:
            chi_val = as_fraction(chi_val)
            if chi_val == 0:
                raise DomainError("character value must be nonzero")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "q", int(q))
        object.__setattr__(self, "chi_val", chi_val)

    @property
    def omega_val(self):
        out = self.alphas[0]
        for a in self.alphas[1:]:
            out = out * a
        return out

    def __repr__(self):
        return f"SatakeData(r={self.r}, alphas={self.alphas}, q={self.q}, chi={self.chi_val})"


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# exact kernels over the integers ----------------------------------------------
#
# A check clears its rationals to integers over one common denominator D,
# runs its loops on Python ints, and divides by a power of D once per result.


def _check_degree(degree: int):
    if degree < 0:
        raise DomainError(f"truncation degree must be nonnegative, got {degree}")


def _scaled_to_integers(values):
    """Integers n_i and one common denominator D with values[i] = n_i / D."""
    values = [as_fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _complete_homogeneous(ints, top_degree: int):
    """h_0 .. h_top of the integers, the series of prod 1/(1 - x t): one
    pass of h_k += x h_{k-1} per variable."""
    h = [1] + [0] * top_degree
    for x in ints:
        for k in range(1, top_degree + 1):
            h[k] += x * h[k - 1]
    return h


def _bareiss_det(mat) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination, swapping rows at a zero pivot; every division is exact.
    Overwrites mat."""
    n = len(mat)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if mat[i][k]), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        pivot, row_k = mat[k][k], mat[k]
        for row in mat[k + 1 :]:
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - a * row_k[j]) // prev
        prev = pivot
    return sign * mat[n - 1][n - 1]


def _jacobi_trudi(parts, h) -> int:
    """det[h_{lambda_i - i + j}] for a table h = h_k(D * values), which is
    D^|lambda| times the Schur value. h must reach lambda_1 + len - 1."""
    n = len(parts)
    return _bareiss_det(
        [[h[k] if k >= 0 else 0 for k in range(lam - i, lam - i + n)]
         for i, lam in enumerate(parts)]
    )


class LocalFactor(Value):
    """A local L-factor stored by its reciprocal polynomial P, meaning
    L = 1/P at X = q^{-s}. P(0) = 1 always."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [as_fraction(c) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs or coeffs[0] != 1:
            raise DomainError("reciprocal polynomial must have constant term 1")
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def one(cls):
        return cls([1])

    @classmethod
    def from_linear_factors(cls, roots_scaled):
        """prod (1 - c X) over the given c values."""
        ints, den = _scaled_to_integers(roots_scaled)
        poly = [1]
        for c in ints:
            poly.append(0)
            for k in range(len(poly) - 1, 0, -1):
                poly[k] -= c * poly[k - 1]
        return cls([Fraction(c, den**k) for k, c in enumerate(poly)])

    def evaluate(self, x: complex) -> complex:
        out = complex(0)
        for c in reversed(self.coeffs):
            out = out * x + complex(c)
        return out

    def inverse_series(self, degree: int) -> tuple:
        """The coefficients of 1/P to X^degree, X^k at index k. P(0) = 1, so
        out_n = -sum_{k >= 1} P_k out_{n-k} needs no division."""
        _check_degree(degree)
        out = [Fraction(1)]
        for n in range(1, degree + 1):
            terms = (c * out[n - k] for k, c in enumerate(self.coeffs[1 : n + 1], 1))
            out.append(-sum(terms, Fraction(0)))
        return tuple(out)

    def __mul__(self, other):
        return LocalFactor(_poly_mul(list(self.coeffs), list(other.coeffs)))

    def __repr__(self):
        return f"LocalFactor({list(self.coeffs)})"


# symbolic powers of q ---------------------------------------------------------


class QPower(Value):
    """An exact value of the form coef * q^(q_exp + s_coef * s), with the
    exponent pieces kept as rationals so half-integer powers never float."""

    __slots__ = ("coef", "q_exp", "s_coef")

    def __init__(self, coef, q_exp=0, s_coef=0):
        coef, q_exp, s_coef = as_fraction(coef), as_fraction(q_exp), as_fraction(s_coef)
        if coef == 0:
            q_exp = s_coef = Fraction(0)
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "q_exp", q_exp)
        object.__setattr__(self, "s_coef", s_coef)

    def is_zero(self) -> bool:
        return self.coef == 0

    def __mul__(self, other):
        if not isinstance(other, QPower):
            other = QPower(other)
        return QPower(
            self.coef * other.coef,
            self.q_exp + other.q_exp,
            self.s_coef + other.s_coef,
        )

    def __repr__(self):
        return f"QPower({shown(self.coef)}, q_exp={self.q_exp}, s_coef={self.s_coef})"


# Schur polynomials: two independent algorithms --------------------------------


def schur_jt(partition, values) -> Fraction:
    """Schur polynomial via the determinant of complete homogeneous
    symmetric polynomials (the production path)."""
    if not isinstance(partition, Partition):
        partition = Partition(partition)
    ints, den = _scaled_to_integers(values)
    n = partition.length
    if n > len(ints):
        raise DomainError(
            f"partition with {n} parts needs at least {n} values"
        )
    if n == 0:
        return Fraction(1)
    h = _complete_homogeneous(ints, partition.parts[0] + n - 1)
    return Fraction(_jacobi_trudi(partition.parts, h), den**partition.size)


def schur_tableau_oracle(partition, values) -> Fraction:
    """Independent oracle: direct sum over semistandard tableaux. Small
    shapes only; rows weakly increase, columns strictly increase."""
    if not isinstance(partition, Partition):
        partition = Partition(partition)
    values = [as_fraction(v) for v in values]
    n = len(values)
    if partition.size > 10 or partition.length > 4 or n > 4:
        raise PreconditionError(
            "tableau enumeration is bounded to |partition| <= 10 and 4 variables"
        )
    if partition.length > n:
        return Fraction(0)
    parts = partition.parts
    if not parts:
        return Fraction(1)

    cells = [(i, j) for i, row_len in enumerate(parts) for j in range(row_len)]
    total = Fraction(0)
    entries = {}

    def fill(idx, monomial):
        nonlocal total
        if idx == len(cells):
            total += monomial
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, entries[(i, j - 1)])
        if i > 0:
            lo = max(lo, entries[(i - 1, j)] + 1)
        for e in range(lo, n + 1):
            entries[(i, j)] = e
            fill(idx + 1, monomial * values[e - 1])
        entries.pop((i, j), None)

    fill(0, Fraction(1))
    return total


# modulus characters ------------------------------------------------------------


_GROUPS = ("borel", "borel-sub", "pair-blocks", "corank-one")


def modulus_exponent(group: str, partition, r: int) -> int:
    """The exponent e with delta(t_lambda) = q^{-e} for the standard
    parabolic named by `group`: "borel" (all blocks of size 1), "borel-sub"
    (the Borel of the upper-left rank r-1 subgroup), "pair-blocks" (all
    blocks of size 2), "corank-one" (block sizes (r-1, 1))."""
    if not isinstance(partition, Partition):
        partition = Partition(partition)
    lam = partition.padded(r)
    if group == "borel":
        blocks = (1,) * r
    elif group == "borel-sub":
        lam, blocks = lam[: r - 1], (1,) * (r - 1)
    elif group == "pair-blocks":
        if r % 2:
            raise DomainError("pair blocks need even rank")
        blocks = (2,) * (r // 2)
    elif group == "corank-one":
        if r < 2:
            raise DomainError("corank-one parabolic needs rank at least 2")
        blocks = (r - 1, 1)
    else:
        raise DomainError(f"unknown group {group!r}; pick from {_GROUPS}")
    e = 0
    pos = 0
    total = sum(blocks)
    before = 0
    for size in blocks:
        after = total - before - size
        weight = after - before
        e += weight * sum(lam[pos : pos + size])
        pos += size
        before += size
    return e


# Whittaker and semi-Whittaker values -------------------------------------------


def shintani_whittaker(vector, sat: SatakeData) -> QPower:
    """The spherical Whittaker value at the torus point with valuation
    vector `vector` (length r, last entry 0 since the center is removed):
    delta_B^{1/2} times the Schur value on the dominant cone, 0 off it."""
    vector = tuple(int(x) for x in vector)
    if len(vector) != sat.r:
        raise PreconditionError(f"need a length-{sat.r} vector")
    dominant = all(x >= y for x, y in zip(vector, vector[1:]))
    if not dominant:
        return QPower(0)
    if vector[-1] != 0:
        raise PreconditionError("normalize the last entry to 0 (center removed)")
    partition = Partition(vector)
    e = modulus_exponent("borel", partition, sat.r)
    return QPower(schur_jt(partition, sat.alphas), Fraction(-e, 2))


def toral_q_values(partition, sat: SatakeData, chi_sqrt_val=None, omega_val=None):
    """The two toral semi-Whittaker values at t_lambda: the quarter-power
    of the Borel modulus times chi^{1/2} omega^{-1} of the determinant, and
    the quarter-power of the sub-Borel modulus times omega of the
    determinant. Both vanish unless every part is even.

    chi_sqrt_val is a chosen square root of the character value; pass None
    for the formal square root. Only even powers are ever taken, so the
    output does not depend on the choice (and flipping the sign leaves it
    unchanged bit for bit).
    """
    if not isinstance(partition, Partition):
        partition = Partition(partition)
    if sat.chi_val == RAMIFIED:
        raise PreconditionError("toral values need an unramified character")
    if chi_sqrt_val is not None:
        chi_sqrt_val = as_fraction(chi_sqrt_val)
        if chi_sqrt_val * chi_sqrt_val != sat.chi_val:
            raise PreconditionError("chi_sqrt_val must square to the character value")
    omega_val = sat.omega_val if omega_val is None else as_fraction(omega_val)
    if not partition.is_even():
        return QPower(0), QPower(0)
    k = partition.size
    chi_half_power = (
        sat.chi_val ** (k // 2) if chi_sqrt_val is None else chi_sqrt_val**k
    )
    e_b = modulus_exponent("borel", partition, sat.r)
    e_sub = modulus_exponent("borel-sub", partition, sat.r)
    q_val = QPower(chi_half_power * omega_val**(-k), Fraction(-e_b, 4))
    q_prime_val = QPower(omega_val**k, Fraction(-e_sub, 4))
    return q_val, q_prime_val


# generating identities -----------------------------------------------------------


def even_partition_gf(sat: SatakeData, degree: int) -> tuple:
    """Sum over even dominant partitions with at most r-1 parts of the
    Schur value times X^{half the weight}, truncated at X^degree."""
    _check_degree(degree)
    ints, den = _scaled_to_integers(sat.alphas)
    h = _complete_homogeneous(ints, 2 * degree + sat.r)
    coeffs = []
    for m in range(degree + 1):
        total = sum(_jacobi_trudi(lam.parts, h) for lam in even_dominant_partitions(m, sat.r - 1))
        coeffs.append(Fraction(total, den ** (2 * m)))
    return tuple(coeffs)


def sym_square_series(sat: SatakeData, degree: int) -> tuple:
    """prod_{i<=j}(1 - a_i a_j X)^{-1} (1 - omega^2 X^r) to X^degree: the
    symmetric-square factor divided by the degree-r twist factor, in the
    variable X = chi(w) q^{-2s+1/2} of unramified_zeta_check."""
    _check_degree(degree)
    ints, den = _scaled_to_integers(sat.alphas)
    r = sat.r
    h = _complete_homogeneous(
        [ints[i] * ints[j] for i in range(r) for j in range(i, r)], degree
    )
    omega2 = math.prod(ints) ** 2
    return tuple(
        Fraction(h[k] - omega2 * h[k - r] if k >= r else h[k], den ** (2 * k))
        for k in range(degree + 1)
    )


def even_partition_identity_check(sat: SatakeData, degree: int = 10) -> bool:
    """prod_{i<=j}(1 - a_i a_j X)^{-1} equals the even-partition generating
    function times (1 - omega^2 X^r)^{-1}, to the given order. Checked in
    the equivalent form gf = sym_square_series, since 1 - omega^2 X^r is
    invertible mod X^(degree + 1)."""
    return even_partition_gf(sat, degree) == sym_square_series(sat, degree)


# local factors --------------------------------------------------------------------


LocalFactors = namedtuple("LocalFactors", ["sym", "ext", "rs"])


def local_factors(sat: SatakeData) -> LocalFactors:
    """Reciprocal polynomials of the three twisted local factors: the
    symmetric square (pairs i <= j), the exterior square (pairs i < j),
    and the Rankin-Selberg square (all ordered pairs). A ramified twist
    makes all three the constant 1."""
    if sat.chi_val == RAMIFIED:
        return LocalFactors(LocalFactor.one(), LocalFactor.one(), LocalFactor.one())
    c = sat.chi_val
    a = sat.alphas
    sym = LocalFactor.from_linear_factors(
        [c * a[i] * a[j] for i in range(sat.r) for j in range(i, sat.r)]
    )
    ext = LocalFactor.from_linear_factors(
        [c * a[i] * a[j] for i in range(sat.r) for j in range(i + 1, sat.r)]
    )
    rs = LocalFactor.from_linear_factors(
        [c * a[i] * a[j] for i in range(sat.r) for j in range(sat.r)]
    )
    return LocalFactors(sym, ext, rs)


def rs_factorization_check(sat: SatakeData) -> bool:
    """The Rankin-Selberg square factors exactly as exterior times
    symmetric."""
    f = local_factors(sat)
    return f.rs == f.ext * f.sym


# the toral zeta computation ---------------------------------------------------------


def toral_series(sat: SatakeData, degree: int, chi_sqrt_val=None) -> tuple:
    """The toral sum of Whittaker times both semi-Whittaker values times
    delta_Q^s delta_B^{-1}, assembled term by term as QPower products, in
    the variable X = chi(w) q^{-2s+1/2}. Raises DomainError for rank r < 2
    and PreconditionError on any term whose q-power fails to collapse onto
    that substitution."""
    if sat.chi_val == RAMIFIED:
        raise PreconditionError("the toral computation needs an unramified twist")
    _check_degree(degree)
    if sat.r < 2:
        raise DomainError(f"symmetric-square zeta check needs rank r >= 2, got {sat.r}")
    r, chi, omega = sat.r, sat.chi_val, sat.omega_val
    ints, den = _scaled_to_integers(sat.alphas)
    h = _complete_homogeneous(ints, 2 * degree + r)
    series = []
    for m in range(degree + 1):
        total, scale = Fraction(0), den ** (2 * m)
        for lam in even_dominant_partitions(m, r - 1):
            e_b = modulus_exponent("borel", lam, r)
            e_q = modulus_exponent("corank-one", lam, r)
            # the Whittaker value, as shintani_whittaker gives it
            w = QPower(Fraction(_jacobi_trudi(lam.parts, h), scale), Fraction(-e_b, 2))
            q_val, q_prime_val = toral_q_values(lam, sat, chi_sqrt_val, omega)
            term = (
                w
                * q_val
                * q_prime_val
                * QPower(1, 0, -e_q)       # delta_Q^s
                * QPower(1, e_b, 0)        # delta_B^{-1}
            )
            if term.is_zero():
                continue
            # every term must be a multiple of X^m = (chi q^{1/2 - 2s})^m
            if term.s_coef != -2 * m or term.q_exp != Fraction(m, 2):
                raise PreconditionError(
                    f"exponents fail to collapse at {lam}: {term}"
                )
            total += term.coef / chi**m
        series.append(total)
    return tuple(series)


def unramified_zeta_check(sat: SatakeData, degree: int = 10, chi_sqrt_val=None) -> bool:
    """Compares the toral sum (toral_series) against the symmetric-square
    factor L(2s - 1/2, sym^2 x chi) divided by the degree-r twist factor
    L(r(2s - 1/2), chi^r omega^2), both in X = chi(w) q^{-2s+1/2}, where
    the twist factor's reciprocal is 1 - omega^2 X^r."""
    return toral_series(sat, degree, chi_sqrt_val) == sym_square_series(sat, degree)


# Tate factors and intertwiner ratios --------------------------------------------------


class PoleMarker:
    __slots__ = ()

    def __repr__(self):
        return "POLE"


class ZeroMarker:
    __slots__ = ()

    def __repr__(self):
        return "ZERO"


POLE = PoleMarker()
ZERO = ZeroMarker()


def _is_exact_q_power(val: Fraction, q: int, exponent: Fraction) -> bool:
    if val <= 0:
        return False
    a, b = exponent.numerator, exponent.denominator
    return val**b == Fraction(q) ** a


class TateFactor(Frozen):
    """The local factor s -> (1 - chi_val q^{-(s + shift)})^{-1}, or the
    constant 1 when the character is ramified. Evaluation at exact s
    detects poles exactly."""

    __slots__ = ("chi_val", "shift", "q")

    def __init__(self, chi_val, shift, q: int):
        if chi_val != RAMIFIED:
            chi_val = as_fraction(chi_val)
            if chi_val == 0:
                raise DomainError("character value must be nonzero")
        object.__setattr__(self, "chi_val", chi_val)
        object.__setattr__(self, "shift", as_fraction(shift))
        object.__setattr__(self, "q", int(q))

    def is_ramified(self) -> bool:
        return self.chi_val == RAMIFIED

    def at(self, s):
        """The value at exact s: a Fraction (or float for non-integral
        exponents), or the POLE marker."""
        if self.is_ramified():
            return Fraction(1)
        arg = as_fraction(s) + self.shift
        if _is_exact_q_power(self.chi_val, self.q, arg):
            return POLE
        if arg.denominator == 1:
            return 1 / (1 - self.chi_val * Fraction(self.q) ** (-arg))
        return 1.0 / (1.0 - float(self.chi_val) * float(self.q) ** float(-arg))


def tate_factor_ratio(kind: str, r: int, q_blocks: int, s, twisted_char_val, q: int):
    """The normalizing ratio of Tate factors attached to the spherical
    section of the rank-r intertwining operator:

        L(r(2s + 1/2) - r + 1, c) / L(r(2s + q_blocks + 1/2), c)

    where c is the relevant twisted character value (the square-inverse
    character for even rank r = 2 q_blocks, its chi-twist for odd rank
    r = 2 q_blocks + 1; pass the composite's value at a uniformizer, or
    the ramified marker). Returns an exact value, or POLE/ZERO markers
    when the numerator/denominator factor is singular."""
    if kind == "even":
        if r != 2 * q_blocks:
            raise DomainError("even kind needs r = 2 * q_blocks")
    elif kind == "odd":
        if r != 2 * q_blocks + 1:
            raise DomainError("odd kind needs r = 2 * q_blocks + 1")
    else:
        raise DomainError(f"unknown kind {kind!r}")
    s = as_fraction(s)
    factor = TateFactor(twisted_char_val, 0, q)
    num = factor.at(r * (2 * s + Fraction(1, 2)) - r + 1)
    den = factor.at(r * (2 * s + q_blocks + Fraction(1, 2)))
    if num is POLE:
        return POLE
    if den is POLE:
        return ZERO
    return num / den


PoleReport = namedtuple(
    "PoleReport", ["normalizer_poles", "l_function_poles", "s_to_l_arg"]
)


def pole_report(r: int, chi_omega_squared_trivial: bool) -> PoleReport:
    """Where the normalized Eisenstein family and the L-function can be
    singular: poles exist only when the degree-r twist character is
    trivial, at s = 1/4 and 3/4, matching L-argument 0 and 1 under the
    substitution s -> 2s - 1/2."""
    if r < 1:
        raise DomainError("rank must be positive")
    if not chi_omega_squared_trivial:
        return PoleReport(frozenset(), frozenset(), None)
    return PoleReport(
        frozenset({Fraction(1, 4), Fraction(3, 4)}),
        frozenset({Fraction(0), Fraction(1)}),
        lambda s: 2 * as_fraction(s) - Fraction(1, 2),
    )


# Euler products ----------------------------------------------------------------------


def euler_product(sats, s) -> complex:
    """The partial product over the listed local data of the inverse
    symmetric-square polynomial at q^{-s}. Raises ConvergenceDomainError
    if any local polynomial's largest coefficient scale reaches the unit
    circle (abscissa check), and DomainError if s or q^{-s} is past the
    float range."""
    try:
        minus_s = complex(-s)
    except OverflowError:
        raise DomainError(f"s = {shown(s)} is past the float range") from None
    out = complex(1)
    for sat in sats:
        if sat.chi_val == RAMIFIED:
            continue
        try:
            x = complex(sat.q) ** minus_s
        except OverflowError:
            raise DomainError(
                f"q^(-s) at q={sat.q}, s={shown(s)} is past the float range"
            ) from None
        scale = max(
            abs(complex(sat.chi_val * a * b))
            for a in sat.alphas
            for b in sat.alphas
        )
        if scale * abs(x) >= 1:
            raise ConvergenceDomainError(
                f"local factor at q={sat.q} is outside the convergence domain"
            )
        out *= 1 / complex(local_factors(sat).sym.evaluate(x))
    return out
