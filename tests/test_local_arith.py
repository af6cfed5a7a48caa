import functools
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplectic import local_arith
from metaplectic.errors import DomainError
from metaplectic.errors import OracleConsistencyError
from metaplectic.local_arith import (
    Place,
    hilbert,
    is_prime,
    legendre,
    prime_factors,
    reciprocity_product,
    same_square_class,
    solvability_oracle,
    square_class,
    square_class_rep,
    valuation_and_unit,
)

REAL = Place.real()


def nonzero_fractions(rng, count, height=30):
    out = []
    while len(out) < count:
        n = rng.randint(-height, height)
        d = rng.randint(1, height)
        if n != 0:
            out.append(Fraction(n, d))
    return out


# valuations ------------------------------------------------------------


def test_valuation_examples():
    assert valuation_and_unit(18, 3) == (2, Fraction(2))
    assert valuation_and_unit(Fraction(5, 9), 3) == (-2, Fraction(5))
    assert valuation_and_unit(7, 5) == (0, Fraction(7))


def test_valuation_reassembles():
    rng = random.Random(0)
    for x in nonzero_fractions(rng, 50):
        for p in (2, 3, 5, 13):
            v, u = valuation_and_unit(x, p)
            assert Fraction(p) ** v * u == x
            assert u.numerator % p != 0 and u.denominator % p != 0


def test_valuation_rejects_zero():
    with pytest.raises(DomainError):
        valuation_and_unit(0, 3)


def test_prime_factors():
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(-7) == [7]
    assert prime_factors(1) == []


# legendre symbol -------------------------------------------------------


def test_legendre_examples():
    assert legendre(2, 7) == 1
    assert legendre(2, 3) == -1
    assert legendre(-1, 5) == 1
    assert legendre(-1, 7) == -1


def test_legendre_counts_squares():
    # exactly (p-1)/2 residues and (p-1)/2 non-residues
    for p in (3, 5, 7, 11, 13):
        vals = [legendre(a, p) for a in range(1, p)]
        assert vals.count(1) == (p - 1) // 2
        assert vals.count(-1) == (p - 1) // 2


def test_legendre_rejects_non_units():
    with pytest.raises(DomainError):
        legendre(21, 7)
    with pytest.raises(DomainError):
        legendre(5, 8)


# hilbert symbol --------------------------------------------------------


def test_hilbert_frozen_values():
    assert hilbert(-1, -1, REAL) == -1
    assert hilbert(-1, 1, REAL) == 1
    assert hilbert(2, 9, Place.finite(7)) == 1
    assert hilbert(2, 3, Place.finite(3)) == -1
    assert hilbert(3, 3, Place.finite(3)) == -1
    assert hilbert(5, 5, Place.finite(5)) == 1
    assert hilbert(2, 2, Place.finite(2)) == 1
    assert hilbert(2, 3, Place.finite(2)) == -1
    assert hilbert(3, 3, Place.finite(2)) == -1
    assert hilbert(-1, -1, Place.finite(2)) == -1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_hilbert_properties_finite(p):
    place = Place.finite(p)
    rng = random.Random(p)
    xs = nonzero_fractions(rng, 12)
    for a in xs:
        assert hilbert(a, -a, place) == 1
        if a != 1:
            assert hilbert(a, 1 - a, place) == 1
        for b in xs:
            assert hilbert(a, b, place) == hilbert(b, a, place)
            for c in xs[:6]:
                assert hilbert(a * b, c, place) == hilbert(a, c, place) * hilbert(
                    b, c, place
                )


def test_hilbert_square_class_invariance():
    rng = random.Random(1)
    places = [REAL] + [Place.finite(p) for p in (2, 3, 5, 7)]
    for a in nonzero_fractions(rng, 10):
        for b in nonzero_fractions(rng, 10):
            s = Fraction(rng.randint(1, 12))
            for place in places:
                assert hilbert(a * s * s, b, place) == hilbert(a, b, place)


@given(
    num=st.integers(min_value=-40, max_value=40).filter(lambda n: n != 0),
    den=st.integers(min_value=1, max_value=40),
    num2=st.integers(min_value=-40, max_value=40).filter(lambda n: n != 0),
    den2=st.integers(min_value=1, max_value=40),
    p=st.sampled_from([2, 3, 5, 7, 11]),
)
@settings(max_examples=120, deadline=None)
def test_hilbert_symmetry_hypothesis(num, den, num2, den2, p):
    a, b = Fraction(num, den), Fraction(num2, den2)
    place = Place.finite(p)
    assert hilbert(a, b, place) == hilbert(b, a, place)


# brute-force oracle agreement ------------------------------------------

ORACLE_VALUES = [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 10, -10]
ORACLE_PLACES = [Place.finite(p) for p in (2, 3, 5, 7)] + [REAL]


@pytest.mark.parametrize("place", ORACLE_PLACES, ids=str)
def test_hilbert_matches_solvability_oracle(place):
    for a in ORACLE_VALUES:
        for b in ORACLE_VALUES:
            assert hilbert(a, b, place) == solvability_oracle(a, b, place), (
                a,
                b,
                str(place),
            )


def test_oracle_handles_fractions():
    place = Place.finite(3)
    for a, b in [(Fraction(1, 3), 3), (Fraction(2, 9), Fraction(5, 3)), (-6, Fraction(1, 2))]:
        assert solvability_oracle(a, b, place) == hilbert(a, b, place)


# reciprocity -----------------------------------------------------------


def test_reciprocity_examples():
    assert reciprocity_product(3, 5) == 1
    assert reciprocity_product(-1, -1) == 1
    assert reciprocity_product(Fraction(2, 7), Fraction(-15, 4)) == 1


def test_reciprocity_seeded_pairs():
    rng = random.Random(0)
    for a, b in zip(nonzero_fractions(rng, 200), nonzero_fractions(rng, 200)):
        assert reciprocity_product(a, b) == 1


# square classes --------------------------------------------------------


def test_same_square_class_frozen():
    assert same_square_class(2, 18, Place.finite(3)) is True
    assert same_square_class(5, 20, Place.finite(7)) is True
    assert same_square_class(1, -1, REAL) is False
    assert same_square_class(2, 3, Place.finite(5)) is True  # both non-residues
    assert same_square_class(1, 17, Place.finite(2)) is True  # 17 = 1 mod 8
    assert same_square_class(1, 5, Place.finite(2)) is False


def test_square_class_rep_is_canonical():
    rng = random.Random(2)
    places = [REAL] + [Place.finite(p) for p in (2, 3, 5, 7, 11)]
    for place in places:
        for a in nonzero_fractions(rng, 25):
            r = square_class_rep(a, place)
            assert same_square_class(a, r, place)
            for b in nonzero_fractions(rng, 5):
                same = same_square_class(a, b, place)
                assert same == (r == square_class_rep(b, place))


def test_square_class_rep_real():
    assert square_class_rep(Fraction(3, 7), REAL) == 1
    assert square_class_rep(-2, REAL) == -1


def test_odd_rep_set_has_four_classes():
    reps = {square_class_rep(a, Place.finite(7)) for a in range(1, 200)}
    assert len(reps) == 4


# one representative per square class: 2 at the real place, 8 at 2 and 4 at
# an odd p, where 2 is a nonresidue at 3 and at 5; 3 = 3 mod 4 and 5 = 1 mod 4
# cover both forms of the symbol at an odd prime
CLASS_REPS = {
    REAL: (1, -1),
    Place.finite(2): (1, 3, 5, 7, 2, 6, 10, 14),
    Place.finite(3): (1, 2, 3, 6),
    Place.finite(5): (1, 2, 5, 10),
}


@pytest.mark.parametrize("place", CLASS_REPS, ids=str)
def test_square_classes_are_the_bit_vectors(place):
    reps = CLASS_REPS[place]
    classes = {square_class(r, place) for r in reps}
    assert len(classes) == len(reps)
    rng = random.Random(4)
    assert {square_class(x, place) for x in nonzero_fractions(rng, 300)} == classes
    with pytest.raises(DomainError):
        square_class(0, place)


@pytest.mark.parametrize("place", CLASS_REPS, ids=str)
def test_hilbert_form_matches_oracle_on_every_pair_of_classes(place):
    for a in CLASS_REPS[place]:
        for b in CLASS_REPS[place]:
            assert hilbert(a, b, place) == solvability_oracle(a, b, place), (a, b)


@given(
    num=st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0),
    den=st.integers(min_value=1, max_value=10**6),
    v=st.integers(min_value=-3, max_value=3),
    p=st.sampled_from([None, 2, 3, 5, 101, 10**9 + 7]),
)
@settings(max_examples=200, deadline=None)
def test_square_class_of_the_rep_hypothesis(num, den, v, p):
    place = REAL if p is None else Place.finite(p)
    x = Fraction(num, den) * Fraction(p or 2) ** v
    assert square_class(square_class_rep(x, place), place) == square_class(x, place)


@given(
    num=st.integers(min_value=-(10**4), max_value=10**4).filter(lambda n: n != 0),
    den=st.integers(min_value=1, max_value=10**4),
    num2=st.integers(min_value=-(10**4), max_value=10**4).filter(lambda n: n != 0),
    den2=st.integers(min_value=1, max_value=10**4),
    va=st.integers(min_value=-2, max_value=2),
    vb=st.integers(min_value=-2, max_value=2),
    p=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23]),
)
@settings(max_examples=60, deadline=None)
def test_hilbert_matches_oracle_hypothesis(num, den, num2, den2, va, vb, p):
    place = Place.finite(p)
    a = Fraction(num, den) * Fraction(p) ** va
    b = Fraction(num2, den2) * Fraction(p) ** vb
    assert hilbert(a, b, place) == solvability_oracle(a, b, place)


# primality -------------------------------------------------------------


def _trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    for n in range(-3, 20_000):
        assert is_prime(n) == _trial_division_is_prime(n), n


def test_is_prime_rejects_pseudoprimes():
    carmichael = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185)
    # least strong pseudoprimes to the first k prime bases (OEIS A014233);
    # the last one fools every base up to 37, so base 41 must catch it
    strong = (
        2047,
        1373653,
        25326001,
        3215031751,
        2152302898747,
        3474749660383,
        341550071728321,
        3825123056546413051,
        318665857834031151167461,
    )
    for n in carmichael + strong:
        assert not is_prime(n), n
    assert 399165290221 * 798330580441 == strong[-1]


def test_is_prime_large_primes():
    for p in (1_000_000_000_000_037, 2**61 - 1, 2**64 - 59, 2**31 - 1):
        assert is_prime(p), p
    assert not is_prime(1_000_003 * (2**61 - 1))


def test_is_prime_bound_is_a_named_error():
    bound = 1287836182261 * 2575672364521  # strong pseudoprime to bases 2..41
    assert not is_prime(bound - 1)  # just inside the range: an answer, not an error
    for n in (bound, 10**30, 2**89 - 1):
        with pytest.raises(DomainError, match="outside the exact range"):
            is_prime(n)
    with pytest.raises(DomainError):
        Place.finite(10**30)


def test_is_prime_names_an_input_past_the_digit_limit():
    # str(10**5000) would raise ValueError while the message is built
    with pytest.raises(DomainError, match="primality of <a number with 5001 digits>"):
        is_prime(10**5000)


def test_symbols_at_a_sixteen_digit_place():
    p = 1_000_000_000_000_037
    place = Place.finite(p)
    assert hilbert(3, 5, place) == 1
    assert valuation_and_unit(Fraction(p * 6, p**3), p) == (-2, Fraction(6))


# prime factors without trial division ---------------------------------------


def _trial_division_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_prime_factors_matches_trial_division():
    for n in range(1, 20_000):
        assert prime_factors(n) == _trial_division_factors(n), n
        assert prime_factors(-n) == prime_factors(n)
    with pytest.raises(DomainError):
        prime_factors(0)


@pytest.mark.parametrize(
    "n, want",
    [
        (1_000_003 * 1_000_000_000_000_037, [1_000_003, 1_000_000_000_000_037]),
        (9_999_999_967**2, [9_999_999_967]),  # square of a 10-digit prime
        (2**40 * 43**30 * 1_000_000_000_000_037, [2, 43, 1_000_000_000_000_037]),
    ],
)
def test_prime_factors_large_inputs_are_fast(n, want):
    start = time.perf_counter()
    assert prime_factors(n) == want
    assert time.perf_counter() - start < 1.0


def test_prime_factors_beyond_the_exact_range():
    # a prime piece above the Miller-Rabin bound cannot be certified
    with pytest.raises(DomainError, match="cannot certify"):
        prime_factors(3 * (2**89 - 1))
    # a composite piece that large is still split, since compositeness is proven
    assert prime_factors(43**40) == [43]


def test_reciprocity_at_a_sixteen_digit_prime_is_fast():
    start = time.perf_counter()
    assert reciprocity_product(3, 1_000_000_000_000_037) == 1
    assert reciprocity_product(Fraction(5, 1_000_003), 1_000_000_000_000_037 * 7) == 1
    assert time.perf_counter() - start < 1.0


def test_certified_primes_are_not_tested_again(monkeypatch):
    # a Place, a model and prime_factors each certify their prime once; the
    # callers below must not run Miller-Rabin on it again
    from metaplectic.cocycle import StructuredElement, UnramifiedCharacter, global_sigma_product
    from metaplectic.weil_index import AdditiveCharacter
    from metaplectic.weil_rep import build_model, twist_intertwiner_check

    p = 1_000_000_007
    psi = AdditiveCharacter(Place.finite(p), 1)
    chi = UnramifiedCharacter(Place.finite(p), at_uniformizer=2)
    model = build_model(3, 2)

    def refuse(n):
        raise AssertionError(f"is_prime({n}) ran again")

    monkeypatch.setattr(local_arith, "is_prime", refuse)
    x = Fraction(3, p * p)
    assert psi.phase(x) == x
    assert chi.value(x) == Fraction(1, 4)
    assert reciprocity_product(Fraction(3 * 1000003, 7 * 999983), Fraction(-p, 11 * 1000033)) == 1
    torus = StructuredElement.torus
    assert global_sigma_product(torus((2, 3 * 1000003)), torus((5, -p))) == 1
    assert model.place.p == 3 and model.scale_indices(5)[1] == 5
    assert twist_intertwiner_check(2, model)


# the solvability sweep over residue tables -------------------------------------


def _reduced_residues(p):
    # what solvability_oracle passes to the sweep: p^e * unit mod p^5, e in {0, 1}
    mod = p**5
    units = [u for u in range(mod) if u % p]
    return units + sorted({p * u % mod for u in units})


def _set_sweep(p):
    """The three one-coordinate-fixed sweeps with Python sets of residues."""
    mod = p**5
    squares = {r * r % mod for r in range(mod)}

    @functools.cache
    def times_sq(a):  # {a x^2}
        return {a * s % mod for s in squares}

    @functools.cache
    def sq_minus(a):  # {z^2 - a}
        return {(s - a) % mod for s in squares}

    @functools.cache
    def one_minus(a):  # {1 - a x^2}
        return {(1 - t) % mod for t in times_sq(a)}

    def solvable(a, b):
        if not sq_minus(a).isdisjoint(times_sq(b)):  # x = 1: a + b y^2 = z^2
            return True
        if not sq_minus(b).isdisjoint(times_sq(a)):  # y = 1: a x^2 + b = z^2
            return True
        return not one_minus(a).isdisjoint(times_sq(b))  # z = 1: 1 - a x^2 = b y^2

    return solvable


@pytest.mark.parametrize("p", [2, 3])
def test_table_sweep_matches_set_sweep_on_every_reduced_pair(p):
    sweep = local_arith._mod_p5_solvable.__wrapped__
    ref = _set_sweep(p)
    res = _reduced_residues(p)
    for a in res:
        for b in res:
            assert sweep(a, b, p) == ref(a, b), (a, b)


def test_table_sweep_matches_set_sweep_at_five():
    sweep = local_arith._mod_p5_solvable.__wrapped__
    ref = _set_sweep(5)
    rng = random.Random(5)
    res = _reduced_residues(5)
    for _ in range(300):
        a, b = rng.choice(res), rng.choice(res)
        assert sweep(a, b, 5) == ref(a, b), (a, b)


def test_solvability_oracle_at_the_largest_prime_under_the_cap():
    place = Place.finite(23)
    for a, b in ((5, 23), (2, 23)):
        assert solvability_oracle(a, b, place) == hilbert(a, b, place)


def test_solvability_oracle_cap_raises_before_allocating(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # any numpy import now fails
    for p in (29, 79, 101):
        with pytest.raises(OracleConsistencyError, match="cap 10000000"):
            solvability_oracle(2, p, Place.finite(p))
