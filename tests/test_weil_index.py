import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metaplectic.errors import DomainError, OracleConsistencyError
from metaplectic.local_arith import Place, hilbert, is_prime, legendre
from metaplectic.weil_index import (
    AdditiveCharacter,
    EighthRoot,
    gamma,
    gauss_shell_oracle,
    mu,
    mu_multiplicativity_check,
)

REAL = Place.real()
ODD_PRIMES = [3, 5, 7, 11, 13]


def std(place):
    return AdditiveCharacter(place, 1)


# eighth roots ----------------------------------------------------------


def test_eighth_root_algebra():
    i = EighthRoot(2)
    assert i * i == EighthRoot.from_sign(-1)
    assert i * i * i * i == EighthRoot(0)
    assert EighthRoot(3) * EighthRoot(7) == EighthRoot(2)
    assert EighthRoot(5) == EighthRoot(-3)


def test_eighth_root_values():
    for k in range(8):
        assert cmath.isclose(
            EighthRoot(k).value(), cmath.exp(1j * math.pi * k / 4)
        )


def test_eighth_root_signs():
    assert repr(EighthRoot(6)) == "-i"
    assert repr(EighthRoot(3)) == "e^(3i*pi/4)"


# additive characters ---------------------------------------------------


def test_character_rejects_bad_input():
    with pytest.raises(DomainError):
        AdditiveCharacter(Place.finite(2), 1)
    with pytest.raises(DomainError):
        AdditiveCharacter(REAL, 0)


# shell oracle ----------------------------------------------------------


def test_oracle_unit_scale_is_one():
    for p in ODD_PRIMES:
        val = gauss_shell_oracle(p, 1)
        assert abs(val - 1) < 1e-9
        val = gauss_shell_oracle(p, 2)
        assert abs(val - 1) < 1e-9


def test_oracle_frozen_values():
    assert abs(gauss_shell_oracle(5, 1) - 1) < 1e-9
    assert abs(gauss_shell_oracle(3, 3) - 1j) < 1e-9
    # classical: at scale p the phase is the quadratic Gauss sum phase
    assert abs(gauss_shell_oracle(5, 5) - 1) < 1e-9
    assert abs(gauss_shell_oracle(7, 7) - 1j) < 1e-9
    assert abs(gauss_shell_oracle(3, 6) - (-1j)) < 1e-9  # (2|3) = -1 flips it


def test_oracle_square_class_invariance_direct():
    # bypasses the gamma cache on purpose: same class, different members
    rng = random.Random(4)
    for p in (3, 5, 7):
        for a in (1, 2, p, Fraction(2 * p, 1)):
            base = gauss_shell_oracle(p, a)
            for _ in range(3):
                s = Fraction(rng.randint(1, 20), rng.randint(1, 20))
                member = a * s * s
                # depth 6 covers the valuations these members can reach
                got = gauss_shell_oracle(p, member, shell_depth=6)
                assert abs(got - base) < 1e-9, (p, a, member)


def test_oracle_negative_valuation_input():
    # v(a) = -2: the unit ball itself carries the quadratic phase
    v1 = gauss_shell_oracle(3, Fraction(1, 9))
    v2 = gauss_shell_oracle(3, 1)
    assert abs(v1 - v2) < 1e-9


def test_oracle_rejects_bad_input():
    with pytest.raises(DomainError):
        gauss_shell_oracle(2, 1)
    with pytest.raises(DomainError):
        gauss_shell_oracle(9, 1)
    with pytest.raises(DomainError):
        gauss_shell_oracle(3, 0)
    with pytest.raises(DomainError):
        gauss_shell_oracle(3, 1, shell_depth=0)


def test_oracle_unstabilized_raises():
    # valuation 6 needs shells past the default depth to settle
    with pytest.raises(OracleConsistencyError):
        gauss_shell_oracle(3, 3**6)


# real place ------------------------------------------------------------


def test_gamma_real_frozen():
    assert gamma(std(REAL)) == EighthRoot(1)
    assert gamma(AdditiveCharacter(REAL, -1)) == EighthRoot(7)
    assert gamma(AdditiveCharacter(REAL, Fraction(5, 3))) == EighthRoot(1)


def test_real_oracle_against_quadrature():
    # integrate e^(2 pi i a x^2) e^(-eps x^2) dx on a grid; phase error O(eps)
    eps = 0.05
    x = np.linspace(-60, 60, 2_000_001)
    for a in (1.0, -1.0, 2.0):
        f = np.exp(2j * np.pi * a * x * x - eps * x * x)
        val = np.trapezoid(f, x)
        val /= abs(val)
        expect = cmath.exp(1j * math.pi / 4 * (1 if a > 0 else -1))
        assert abs(val - expect) < 0.05, a


def test_mu_real():
    psi = std(REAL)
    assert mu(-1, psi) == EighthRoot(6)
    assert mu(1, psi) == EighthRoot(0)
    assert mu(Fraction(-9, 2), psi) == EighthRoot(6)


# gamma and mu at odd places --------------------------------------------


def test_gamma_trivial_on_units():
    for p in ODD_PRIMES:
        psi = std(Place.finite(p))
        assert gamma(psi) == EighthRoot(0)
        for u in (1, 2, -1, 5, Fraction(3, 4)):
            if Fraction(u).numerator % p and Fraction(u).denominator % p:
                assert mu(u, psi) == EighthRoot(0), (p, u)


def test_mu_frozen_values():
    assert mu(3, std(Place.finite(3))) == EighthRoot(2)
    assert mu(6, std(Place.finite(3))) == EighthRoot(6)
    assert mu(5, std(Place.finite(5))) == EighthRoot(0)
    assert mu(10, std(Place.finite(5))) == EighthRoot(4)
    assert mu(7, std(Place.finite(7))) == EighthRoot(2)
    assert mu(21, std(Place.finite(7))) == EighthRoot(6)


def test_mu_scale_p_closed_form():
    # mu(p) at the standard character: Gauss sum normalization, i.e.
    # 1 for p = 1 mod 4 and i for p = 3 mod 4
    for p in ODD_PRIMES:
        expect = EighthRoot(0) if p % 4 == 1 else EighthRoot(2)
        assert mu(p, std(Place.finite(p))) == expect


def test_mu_square_class_only():
    rng = random.Random(5)
    for p in (3, 7, 13):
        psi = std(Place.finite(p))
        for a in (2, p, 3 * p, -1):
            base = mu(a, psi)
            for _ in range(4):
                s = Fraction(rng.randint(1, 15), rng.randint(1, 15))
                assert mu(a * s * s, psi) == base


def _mu_by_twist(a, psi):
    """mu as the quotient gamma(psi_a) / gamma(psi) of two Weil indices, the
    inverse taken as the negated exponent."""
    return gamma(psi.twist(a)) * EighthRoot(-gamma(psi).exponent)


_MU_PLACES = [REAL] + [Place.finite(p) for p in (3, 5, 7, 101)]
_NONZERO = st.builds(Fraction, st.integers(-60, 60).filter(bool), st.integers(1, 60))


@given(
    place=st.sampled_from(_MU_PLACES),
    v=st.integers(-3, 3),
    u=_NONZERO,
    w=st.integers(-3, 3),
    b=_NONZERO,
)
@example(place=Place.finite(101), v=1, u=Fraction(-5, 7), w=1, b=Fraction(3, 2))
@example(place=REAL, v=-1, u=Fraction(-5, 7), w=2, b=Fraction(-1))
@settings(max_examples=300, deadline=None)
def test_mu_matches_the_twisted_gamma_quotient_hypothesis(place, v, u, w, b):
    # psi of scale p^v u and a = p^w b; at the real place p^v reads as 2^v
    p = place.p or 2
    psi = AdditiveCharacter(place, Fraction(p) ** v * u)
    a = Fraction(p) ** w * b
    assert mu(a, psi) == _mu_by_twist(a, psi)


def test_mu_of_p_squared_is_hilbert_p_p():
    for p in ODD_PRIMES:
        place = Place.finite(p)
        root = mu(p, std(place))
        assert root * root == EighthRoot.from_sign(hilbert(p, p, place))


def test_mu_minus_one_times_gamma_squared():
    for place in [REAL] + [Place.finite(p) for p in ODD_PRIMES]:
        psi = std(place)
        assert mu(-1, psi) * gamma(psi) * gamma(psi) == EighthRoot(0)
    # same identity for twisted base characters
    for scale in (2, -3, Fraction(5, 7)):
        psi = AdditiveCharacter(REAL, scale)
        assert mu(-1, psi) * gamma(psi) * gamma(psi) == EighthRoot(0)


def test_mu_multiplicativity():
    rng = random.Random(6)
    places = [REAL] + [Place.finite(p) for p in ODD_PRIMES]
    samples = [1, -1, 2, 3, 5, -6, Fraction(3, 5), Fraction(-7, 2)]
    for place in places:
        psi = std(place)
        for a in samples:
            for b in samples:
                assert mu_multiplicativity_check(a, b, psi), (a, b, str(place))
        for _ in range(10):
            a = Fraction(rng.randint(1, 30), rng.randint(1, 30)) * rng.choice([1, -1])
            b = Fraction(rng.randint(1, 30), rng.randint(1, 30)) * rng.choice([1, -1])
            assert mu_multiplicativity_check(a, b, psi)


def test_mu_multiplicativity_twisted_base():
    # the identity holds for any base character, not just the standard one
    for psi in (AdditiveCharacter(Place.finite(5), 10), AdditiveCharacter(REAL, -2)):
        for a in (2, 5, -3):
            for b in (7, -1, Fraction(1, 5)):
                assert mu_multiplicativity_check(a, b, psi)


def test_gamma_closed_form_valuation_one():
    # gamma(psi_(p u)) = (u|p) * (Gauss sum phase) for units u
    for p in (3, 5, 7, 11):
        psi = std(Place.finite(p))
        eps = EighthRoot(0) if p % 4 == 1 else EighthRoot(2)
        for u in (1, 2, 3, 4):
            if u % p == 0:
                continue
            expect = EighthRoot.from_sign(legendre(u, p)) * eps
            assert mu(p * u, psi) == expect, (p, u)


# closed form past the old oracle's resource cap ------------------------


BIG_PRIMES = (23, 29, 31, 101)


def _normalised_gauss_sum(p, u):
    t = np.arange(p)
    total = np.exp(2j * np.pi * ((u * t * t) % p) / p).sum()
    return total / abs(total)


@pytest.mark.parametrize("p", BIG_PRIMES)
def test_gamma_past_the_old_cap_against_gauss_sum(p):
    # for v = 1 the shell oracle adds up exactly sum_(t mod p) e(u t^2 / p);
    # p^3 u and u / p lie in the same square class as p u; even valuations
    # give 1
    place = Place.finite(p)
    for u in range(-p + 1, p):
        if u == 0:
            continue
        want = _normalised_gauss_sum(p, u)
        for a in (p * u, p**3 * u, Fraction(u, p)):
            got = gamma(AdditiveCharacter(place, a))
            assert abs(got.value() - want) < 1e-9, (p, a)
        for a in (u, p**2 * u, Fraction(u, p**2)):
            assert gamma(AdditiveCharacter(place, a)) == EighthRoot(0), (p, a)


@pytest.mark.parametrize("p", BIG_PRIMES)
def test_mu_multiplicativity_square_class_reps(p):
    n = next(k for k in range(2, p) if legendre(k, p) == -1)
    reps = (1, n, p, n * p)
    psi = std(Place.finite(p))
    for a in reps:
        for b in reps:
            assert mu_multiplicativity_check(a, b, psi), (p, a, b)


ODD_PRIMES_BELOW_300 = [p for p in range(3, 300) if is_prime(p)]
nonzero_ints = st.integers(-10_000, 10_000).filter(bool)
rationals = st.builds(Fraction, nonzero_ints, st.integers(1, 10_000))


@given(
    st.sampled_from(ODD_PRIMES_BELOW_300),
    rationals,
    rationals,
    rationals,
    st.integers(-3, 3),
    st.integers(-3, 3),
)
@settings(max_examples=200, deadline=None)
def test_mu_multiplicativity_hypothesis(p, scale, a, b, va, vb):
    psi = AdditiveCharacter(Place.finite(p), scale)
    assert mu_multiplicativity_check(a * Fraction(p) ** va, b * Fraction(p) ** vb, psi)


def test_gamma_real_against_quadrature():
    # the regularised integral of e^(2 pi i a x^2) over R has the phase of gamma
    eps = 0.05
    x = np.linspace(-60, 60, 2_000_001)
    for a in (1, -1, Fraction(5, 2), Fraction(-1, 3)):
        f = np.exp(2j * np.pi * float(a) * x * x - eps * x * x)
        val = np.trapezoid(f, x)
        got = gamma(AdditiveCharacter(REAL, a)).value()
        assert abs(got - val / abs(val)) < 0.05, a
