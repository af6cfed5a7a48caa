"""Toral computation tests: two-algorithm Schur agreement, modulus
exponents against a Haar conjugation-index oracle, the generating-function
identity, the zeta-series assembly, local factor algebra, Tate ratios, and
Euler products."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metaplectic import symsq
from metaplectic.errors import (
    ConvergenceDomainError,
    DomainError,
    PreconditionError,
)
from metaplectic.symsq import (
    POLE,
    RAMIFIED,
    ZERO,
    LocalFactor,
    Partition,
    QPower,
    SatakeData,
    TateFactor,
    euler_product,
    even_dominant_partitions,
    even_partition_gf,
    even_partition_identity_check,
    local_factors,
    modulus_exponent,
    partitions_at_most,
    pole_report,
    rs_factorization_check,
    schur_jt,
    schur_tableau_oracle,
    _bareiss_det,
    shintani_whittaker,
    sym_square_series,
    tate_factor_ratio,
    toral_q_values,
    toral_series,
    unramified_zeta_check,
)


# partitions -------------------------------------------------------------


def test_partition_validation():
    assert Partition((3, 1, 0, 0)).parts == (3, 1)
    assert Partition(()).size == 0
    with pytest.raises(DomainError):
        Partition((1, 2))
    with pytest.raises(DomainError):
        Partition((2, -1))
    p = Partition((4, 2))
    assert p.is_even() and not Partition((3, 2)).is_even()
    assert p.padded(4) == (4, 2, 0, 0)
    with pytest.raises(DomainError):
        p.padded(1)


def test_partition_enumeration():
    # p(5) = 7 partitions in total
    assert len(list(partitions_at_most(5, 5))) == 7
    assert sorted(partitions_at_most(4, 2)) == [(2, 2), (3, 1), (4,)]
    assert list(partitions_at_most(0, 3)) == [()]
    evens = sorted(lam.parts for lam in even_dominant_partitions(3, 2))
    assert evens == [(4, 2), (6,)]


# Satake data / local factor plumbing -------------------------------------


def test_satake_validation():
    sat = SatakeData(3, [2, Fraction(1, 2), 3], 5, chi_val=2)
    assert sat.omega_val == 3 and sat.alphas == (2, Fraction(1, 2), 3)
    with pytest.raises(DomainError):
        SatakeData(2, [1], 5)
    with pytest.raises(DomainError):
        SatakeData(2, [1, 0], 5)
    with pytest.raises(DomainError):
        SatakeData(2, [1, 1], 1)
    with pytest.raises(DomainError):
        SatakeData(2, [1, 1], 5, chi_val=0)
    ram = SatakeData(2, [1, 1], 5, chi_val=RAMIFIED)
    assert ram.chi_val == RAMIFIED
    with pytest.raises(DomainError, match="not an exact rational"):
        SatakeData(1, [complex(1, 1)], 5)


def test_local_factor_algebra():
    with pytest.raises(DomainError):
        LocalFactor([2, 1])
    f = LocalFactor.from_linear_factors([Fraction(2)])
    assert f.coeffs == (1, -2)
    geo = LocalFactor([1, -1]).inverse_series(5)
    assert [geo[k] for k in range(6)] == [1] * 6
    g = LocalFactor([1, Fraction(1, 2)])
    assert (f * g).coeffs == (1, Fraction(-3, 2), -1)
    assert LocalFactor.from_linear_factors([Fraction(2) * Fraction(1, 2)]).coeffs == (1, -1)
    assert f.evaluate(0.25 + 0j) == 0.5
    assert isinstance(f.evaluate(0.5 + 0j), complex)


def _times(f, g, degree):
    # the product of two coefficient sequences, truncated at X^degree
    out = [Fraction(0)] * (degree + 1)
    for i, a in enumerate(f[: degree + 1]):
        for j, b in enumerate(g[: degree + 1 - i]):
            out[i + j] += a * b
    return tuple(out)


def _twist(sat):
    # 1 - omega^2 X^r
    return [1] + [0] * (sat.r - 1) + [-sat.omega_val**2]


@given(st.lists(st.integers(min_value=-9, max_value=9), max_size=7))
@settings(max_examples=80, deadline=None)
def test_inverse_series_roundtrip(tail):
    f = LocalFactor([1] + tail)
    inv = f.inverse_series(7)
    assert all(type(c) is Fraction for c in inv)
    assert _times(f.coeffs, inv, 7) == (1,) + (0,) * 7
    assert LocalFactor(inv).inverse_series(7) == f.coeffs + (0,) * (8 - len(f.coeffs))
    with pytest.raises(DomainError):
        f.inverse_series(-1)


def test_qpower_algebra():
    a = QPower(Fraction(3), Fraction(1, 2), -2)
    b = QPower(Fraction(1, 3), Fraction(1, 2), 2)
    assert a * b == QPower(1, 1, 0)
    assert QPower(0, 5, 5) == QPower(0)


# Schur polynomials --------------------------------------------------------


def test_schur_frozen_values():
    x, y = Fraction(2), Fraction(3)
    assert schur_jt((), [x, y]) == 1
    assert schur_jt((2,), [x, y]) == x * x + x * y + y * y
    assert schur_jt((2, 2), [x, y]) == x * x * y * y
    assert schur_tableau_oracle((1,), [1, 1, 1]) == 3
    assert schur_tableau_oracle((1, 1), [x, y]) == x * y
    # dimension of the (3,1) representation of GL(3)
    assert schur_tableau_oracle((3, 1), [1, 1, 1]) == 15
    assert schur_jt((3, 1), [Fraction(1)] * 3) == 15


def test_schur_two_algorithms_agree():
    rng = random.Random(7)
    values = [
        [Fraction(1), Fraction(2)],
        [Fraction(2), Fraction(1, 2), Fraction(3)],
        [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(4)],
    ]
    for vals in values:
        n = len(vals)
        for total in range(0, 7):
            for lam in partitions_at_most(total, min(n, 4)):
                assert schur_jt(lam, vals) == schur_tableau_oracle(lam, vals), lam


def test_schur_symmetry_and_padding():
    vals = [Fraction(2), Fraction(5), Fraction(1, 3)]
    lam = (3, 1)
    base = schur_jt(lam, vals)
    for perm in itertools.permutations(vals):
        assert schur_jt(lam, list(perm)) == base
    assert schur_jt((3, 1, 0), vals) == base


def test_schur_domain_errors():
    with pytest.raises(DomainError):
        schur_jt((1, 2), [1, 1])
    with pytest.raises(DomainError):
        schur_jt((1, 1, 1), [1, 1])
    with pytest.raises(PreconditionError):
        schur_tableau_oracle((6, 6), [1, 2])
    with pytest.raises(PreconditionError):
        schur_tableau_oracle((1,), [1, 2, 3, 4, 5])
    # oracle with more parts than variables is an honest zero
    assert schur_tableau_oracle((1, 1, 1), [1, 2]) == 0
    assert schur_jt((1, 1), [3, 5]) == schur_tableau_oracle((1, 1), [3, 5])


# modulus exponents ---------------------------------------------------------


def _conjugation_index_oracle(blocks, lam, p):
    """Count the index of t N(O/p^m) t^{-1} inside N(O/p^m), where N is
    the unipotent radical with the given diagonal blocks and t has
    valuations lam; the modulus character value is the reciprocal index."""
    r = sum(blocks)
    block_of = []
    for b, size in enumerate(blocks):
        block_of.extend([b] * size)
    cells = [
        (i, j)
        for i in range(r)
        for j in range(r)
        if block_of[i] < block_of[j]
    ]
    m = max((lam[i] - lam[j] for i, j in cells), default=0) + 1
    mod = p**m
    total = (p**m) ** len(cells)
    image = set()
    ranges = [range(mod)] * len(cells)
    for entries in itertools.product(*ranges):
        conj = tuple(
            (x * p ** (lam[i] - lam[j])) % mod
            for x, (i, j) in zip(entries, cells)
        )
        image.add(conj)
    index = total // len(image)
    e = 0
    while index > 1:
        index //= p
        e += 1
    return e


def test_modulus_exponent_frozen():
    assert modulus_exponent("borel", (0,), 2) == 0
    assert modulus_exponent("borel", (1, 0), 2) == 1
    assert modulus_exponent("borel", (1, 0, 0), 3) == 2
    assert modulus_exponent("corank-one", (3, 1, 0), 3) == 4
    assert modulus_exponent("borel-sub", (2, 0), 2) == 0
    assert modulus_exponent("borel-sub", (2, 0, 0), 3) == 2
    assert modulus_exponent("borel-sub", (2, 2, 0), 3) == 0
    with pytest.raises(DomainError):
        modulus_exponent("pair-blocks", (1, 0, 0), 3)
    with pytest.raises(DomainError):
        modulus_exponent("mystery", (1, 0), 2)


def test_modulus_exponent_closed_forms():
    for r in (2, 3, 4):
        for lam in [(1, 0), (2, 1), (3, 1, 1), (4, 2, 2, 0)]:
            lam = lam[:r] + (0,) * max(0, r - len(lam))
            if any(x < y for x, y in zip(lam, lam[1:])):
                continue
            part = Partition(lam)
            expect_b = sum(
                x * (r + 1 - 2 * (i + 1)) for i, x in enumerate(part.padded(r))
            )
            assert modulus_exponent("borel", part, r) == expect_b
            padded = part.padded(r)
            if padded[-1] == 0:
                assert modulus_exponent("corank-one", part, r) == part.size


def test_modulus_exponent_against_conjugation_oracle():
    cases = [
        ("borel", (1,) * 2, (1, 0), 2),
        ("borel", (1,) * 2, (2, 0), 3),
        ("borel", (1,) * 3, (1, 0, 0), 2),
        ("borel", (1,) * 3, (2, 1, 0), 2),
        ("corank-one", (2, 1), (1, 1, 0), 3),
        ("pair-blocks", (2, 2), (1, 1, 0, 0), 2),
    ]
    for group, blocks, lam, p in cases:
        r = sum(blocks)
        assert modulus_exponent(group, Partition(lam), r) == _conjugation_index_oracle(
            blocks, lam, p
        ), (group, lam)


# Whittaker values -----------------------------------------------------------


def test_shintani_values():
    sat = SatakeData(2, [Fraction(2), Fraction(5)], 3)
    w = shintani_whittaker((1, 0), sat)
    assert w == QPower(7, Fraction(-1, 2))
    assert shintani_whittaker((0, 0), sat) == QPower(1)
    assert shintani_whittaker((0, 1), sat).is_zero()
    sat3 = SatakeData(3, [1, 1, 1], 5)
    assert shintani_whittaker((1, 2, 0), sat3).is_zero()
    with pytest.raises(PreconditionError):
        shintani_whittaker((2, 1), sat)  # dominant but not center-normalized
    with pytest.raises(PreconditionError):
        shintani_whittaker((1, 0, 0), sat)


def test_toral_q_values():
    sat = SatakeData(2, [Fraction(2), Fraction(3)], 5, chi_val=Fraction(9))
    qv, qpv = toral_q_values((2, 0), sat, chi_sqrt_val=3)
    assert qv == QPower(Fraction(1, 4), Fraction(-1, 2))
    assert qpv == QPower(36, 0)
    zero_q, zero_qp = toral_q_values((1, 0), sat, chi_sqrt_val=3)
    assert zero_q.is_zero() and zero_qp.is_zero()
    assert toral_q_values(Partition(()), sat, chi_sqrt_val=3) == (
        QPower(1),
        QPower(1),
    )
    with pytest.raises(PreconditionError):
        toral_q_values((2, 0), sat, chi_sqrt_val=2)
    ram = SatakeData(2, [1, 1], 5, chi_val=RAMIFIED)
    with pytest.raises(PreconditionError):
        toral_q_values((2, 0), ram)


def test_toral_square_root_flip_is_invisible():
    sat = SatakeData(3, [Fraction(2), Fraction(1, 2), Fraction(3)], 5, chi_val=4)
    for lam in [(2, 0, 0), (4, 2, 0), (2, 2, 0)]:
        plus = toral_q_values(lam, sat, chi_sqrt_val=2)
        minus = toral_q_values(lam, sat, chi_sqrt_val=-2)
        formal = toral_q_values(lam, sat)
        assert plus == minus == formal


# generating identity -----------------------------------------------------------


def test_even_partition_gf_frozen():
    sat = SatakeData(2, [1, 1], 7)
    gf = even_partition_gf(sat, 5)
    assert [gf[k] for k in range(6)] == [2 * m + 1 for m in range(6)]
    sat3 = SatakeData(3, [Fraction(2), Fraction(3), Fraction(5)], 7)
    gf3 = even_partition_gf(sat3, 2)
    assert gf3[0] == 1
    assert gf3[1] == schur_jt((2,), sat3.alphas)


def _random_exact_sat(rng, r, q=7, chi=Fraction(1)):
    alphas = []
    while len(alphas) < r:
        a = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        if rng.random() < 0.3:
            a = -a
        alphas.append(a)
    return SatakeData(r, alphas, q, chi_val=chi)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_even_partition_identity_random(r):
    rng = random.Random(100 + r)
    for _ in range(3):
        sat = _random_exact_sat(rng, r)
        assert even_partition_identity_check(sat, degree=8)


def test_identity_needs_exact_values():
    # complex Satake values are refused when the data is built, so no check
    # ever sees them
    with pytest.raises(DomainError, match="not an exact rational"):
        SatakeData(2, [complex(1), complex(1)], 7)


# local factors ------------------------------------------------------------------


def test_local_factors_shapes():
    sat = SatakeData(1, [Fraction(3)], 5)
    f = local_factors(sat)
    assert f.sym.coeffs == (1, -9)
    assert f.ext == LocalFactor.one()
    assert f.rs == f.sym
    sat3 = SatakeData(3, [2, 3, 5], 7, chi_val=Fraction(1, 2))
    f3 = local_factors(sat3)
    assert [len(f.coeffs) - 1 for f in f3] == [6, 3, 9]
    ram = SatakeData(3, [2, 3, 5], 7, chi_val=RAMIFIED)
    fr = local_factors(ram)
    assert fr.sym == fr.ext == fr.rs == LocalFactor.one()


def test_rs_factorization():
    rng = random.Random(3)
    for r in range(1, 6):
        sat = _random_exact_sat(rng, r, chi=Fraction(rng.randint(1, 3)))
        assert rs_factorization_check(sat)


# the zeta series ------------------------------------------------------------------


def test_zeta_check_basic():
    assert unramified_zeta_check(SatakeData(2, [1, 1], 7), 10)
    sat3 = SatakeData(3, [Fraction(2), Fraction(1, 2), Fraction(3)], 5, chi_val=2)
    assert unramified_zeta_check(sat3, 8)
    sat4 = SatakeData(
        4, [Fraction(2), Fraction(1, 2), Fraction(3), Fraction(1, 3)], 11,
        chi_val=Fraction(3, 2),
    )
    assert unramified_zeta_check(sat4, 6)


def test_zeta_check_square_root_flip():
    sat = SatakeData(3, [Fraction(2), Fraction(1, 2), Fraction(3)], 5, chi_val=4)
    assert unramified_zeta_check(sat, 6, chi_sqrt_val=2)
    assert unramified_zeta_check(sat, 6, chi_sqrt_val=-2)


def test_zeta_check_rejects_ramified():
    with pytest.raises(PreconditionError):
        unramified_zeta_check(SatakeData(2, [1, 1], 5, chi_val=RAMIFIED), 4)


# Tate factors ----------------------------------------------------------------------


def test_tate_factor_values():
    t = TateFactor(1, 0, 5)
    assert t.at(0) is POLE
    assert t.at(1) == Fraction(5, 4)
    assert t.at(2) == Fraction(25, 24)
    ram = TateFactor(RAMIFIED, 0, 5)
    assert ram.at(0) == 1 and ram.is_ramified()
    # a character value equal to q moves the pole to s = 1
    shifted = TateFactor(5, 0, 5)
    assert shifted.at(1) is POLE
    assert shifted.at(0) == Fraction(-1, 4)
    assert shifted.at(2) == Fraction(5, 4)
    # exact q-power detection at fractional arguments
    assert TateFactor(8, 0, 2).at(3) is POLE
    assert TateFactor(Fraction(1, 2), 0, 2).at(-1) is POLE
    assert isinstance(TateFactor(1, 0, 5).at(Fraction(1, 2)), float)
    with pytest.raises(DomainError):
        TateFactor(0, 0, 5)


def test_tate_factor_ratio_frozen():
    assert tate_factor_ratio("even", 2, 1, Fraction(1, 4), 1, 3) == Fraction(40, 27)
    assert tate_factor_ratio("even", 2, 1, 0, 1, 3) is POLE
    assert tate_factor_ratio("even", 2, 1, Fraction(-3, 4), 1, 5) is ZERO
    assert tate_factor_ratio("odd", 3, 1, Fraction(1, 3), RAMIFIED, 7) == 1
    # odd kind, trivial composite character, generic s: plain ratio
    val = tate_factor_ratio("odd", 3, 1, Fraction(1, 2), 1, 2)
    num = TateFactor(1, 0, 2).at(3 * (2 * Fraction(1, 2) + Fraction(1, 2)) - 2)
    den = TateFactor(1, 0, 2).at(3 * (2 * Fraction(1, 2) + 1 + Fraction(1, 2)))
    assert val == num / den
    with pytest.raises(DomainError):
        tate_factor_ratio("even", 3, 1, 0, 1, 5)
    with pytest.raises(DomainError):
        tate_factor_ratio("odd", 4, 1, 0, 1, 5)
    with pytest.raises(DomainError):
        tate_factor_ratio("sideways", 2, 1, 0, 1, 5)


def test_pole_report():
    rep = pole_report(2, True)
    assert rep.normalizer_poles == {Fraction(1, 4), Fraction(3, 4)}
    assert rep.l_function_poles == {Fraction(0), Fraction(1)}
    assert rep.s_to_l_arg(Fraction(3, 4)) == 1
    assert rep.s_to_l_arg(Fraction(1, 4)) == 0
    empty = pole_report(5, False)
    assert empty.normalizer_poles == frozenset()
    assert empty.l_function_poles == frozenset()
    assert empty.s_to_l_arg is None


def test_ratio_pole_location_matches_report_at_rank_two():
    # the spherical-section ratio's numerator is singular where its Tate
    # argument vanishes: r(2s + 1/2) - r + 1 = 0, i.e. s = (r-2)/(4r).
    # The report's s-variable sits a quarter higher (unnormalized vs
    # normalized induction), and the two agree exactly at rank 2.
    r = 2
    s_star = Fraction(r - 2, 4 * r)
    assert tate_factor_ratio("even", r, r // 2, s_star, 1, 5) is POLE
    assert s_star + Fraction(1, 4) in pole_report(r, True).normalizer_poles


# Euler products ---------------------------------------------------------------------


def _primes_below(n):
    sieve = [True] * n
    primes = []
    for p in range(2, n):
        if sieve[p]:
            primes.append(p)
            for m in range(2 * p, n, p):
                sieve[m] = False
    return primes


def test_euler_product_zeta_two():
    primes = _primes_below(100)
    assert len(primes) == 25
    sats = [SatakeData(1, [1], p) for p in primes]
    val = euler_product(sats, 2)
    # tail beyond 100 is bounded by sum over n >= 100 of n^-2 < 1/99
    assert abs(val - math.pi**2 / 6) < Fraction(1, 99)
    val3 = euler_product(sats, 3)
    zeta3 = sum(Fraction(1, n**3) for n in range(1, 400))
    assert abs(val3 - float(zeta3)) < 1e-3


def test_euler_product_edges():
    assert euler_product([], 2) == 1
    sat = SatakeData(2, [Fraction(2), Fraction(1, 2)], 7)
    assert isinstance(euler_product([sat], 3), complex)
    with pytest.raises(ConvergenceDomainError):
        euler_product([SatakeData(1, [1], 5)], 0)
    with pytest.raises(ConvergenceDomainError):
        euler_product([SatakeData(1, [Fraction(9)], 3)], 1)
    ram = SatakeData(1, [1], 5, chi_val=RAMIFIED)
    assert euler_product([ram], 0.2) == 1


@pytest.mark.parametrize("s", [10**400, -(10**400)], ids=["plus", "minus"])
def test_euler_product_refuses_an_s_past_the_float_range(s):
    with pytest.raises(DomainError, match=rf"^s = {s} is past the float range$"):
        euler_product([SatakeData(1, [1], 5)], s)
    # q^(-s) past the float range is refused by name too, not as an OverflowError
    with pytest.raises(DomainError, match=r"^q\^\(-s\) at q=5, s=-1000 "):
        euler_product([SatakeData(1, [1], 5)], -1000)


# exact integer kernels against independent oracles -------------------------------


def _det_fraction(rows):
    """Gaussian elimination over Q: the oracle for the Bareiss determinant."""
    n = len(rows)
    mat = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            factor = mat[r][col] * inv
            if factor == 0:
                continue
            for c in range(col, n):
                mat[r][c] -= factor * mat[col][c]
    return det


_SQUARE_INT_MATRICES = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@given(rows=_SQUARE_INT_MATRICES)
@example(rows=[[0, 1], [1, 0]])
@example(rows=[[0, 0, 1], [0, 2, 0], [3, 0, 0]])
@example(rows=[[0, 1], [0, 1]])
@settings(max_examples=200, deadline=None)
def test_bareiss_det_matches_gaussian_elimination(rows):
    assert _bareiss_det([list(r) for r in rows]) == _det_fraction(rows)


_RATIONALS = st.builds(
    Fraction,
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=1, max_value=12),
)
_NONZERO_RATIONALS = _RATIONALS.filter(lambda x: x != 0)
# values drawn from a small pool, so repeated values are common
_VALUE_TUPLES = st.lists(_RATIONALS, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=4)
)


@given(values=_VALUE_TUPLES)
@example(values=[Fraction(1), Fraction(-1)])  # every odd h_k vanishes
@example(values=[Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)])
@example(values=[Fraction(2, 3), Fraction(-2, 3), Fraction(1, 12)])
@settings(max_examples=60, deadline=None)
def test_schur_jt_matches_tableau_oracle_hypothesis(values):
    for total in range(9):
        for lam in partitions_at_most(total, len(values)):
            got = schur_jt(lam, values)
            assert type(got) is Fraction
            assert got == schur_tableau_oracle(lam, values), lam


@given(roots=st.lists(_RATIONALS, max_size=8))
@settings(max_examples=100, deadline=None)
def test_from_linear_factors_matches_fraction_product(roots):
    poly = [Fraction(1)]
    for c in roots:
        poly = [x - c * y for x, y in zip(poly + [0], [0] + poly)]
    assert LocalFactor.from_linear_factors(roots).coeffs == LocalFactor(poly).coeffs


@given(
    alphas=st.lists(_NONZERO_RATIONALS, min_size=1, max_size=5),
    degree=st.integers(min_value=0, max_value=6),
)
@example(alphas=[Fraction(1), Fraction(-1)], degree=6)
@settings(max_examples=40, deadline=None)
def test_even_partition_gf_matches_closed_form(alphas, degree):
    # prod_{i<=j} (1 - a_i a_j X)^{-1} (1 - omega^2 X^r), one geometric
    # series at a time over Q
    r = len(alphas)
    sat = SatakeData(r, alphas, 7)
    closed = (1,)
    for i in range(r):
        for j in range(i, r):
            c = alphas[i] * alphas[j]
            closed = _times(closed, [c**k for k in range(degree + 1)], degree)  # 1/(1 - cX)
    closed = _times(closed, _twist(sat), degree)
    for series in (even_partition_gf(sat, degree), sym_square_series(sat, degree)):
        assert series == closed and all(type(c) is Fraction for c in series)


@given(
    alphas=st.lists(_NONZERO_RATIONALS, min_size=1, max_size=5),
    degree=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_sym_square_series_is_the_inverse_factor_times_the_twist(alphas, degree):
    # at chi = 1 the Fraction recurrence of inverse_series meets the integer
    # h_k kernel of sym_square_series
    sat = SatakeData(len(alphas), alphas, 7)
    inverse = local_factors(sat).sym.inverse_series(degree)
    assert sym_square_series(sat, degree) == _times(inverse, _twist(sat), degree)


def test_toral_series_is_the_even_partition_sum():
    # the q-powers collapse and chi^m cancels, leaving the Schur sum
    rng = random.Random(11)
    for r, chi in [(2, Fraction(1)), (3, Fraction(3, 2)), (4, Fraction(-2))]:
        sat = _random_exact_sat(rng, r, chi=chi)
        assert toral_series(sat, 6) == even_partition_gf(sat, 6)
    sat = SatakeData(3, [Fraction(2), Fraction(1, 2), Fraction(3)], 5, chi_val=4)
    assert toral_series(sat, 5, chi_sqrt_val=-2) == even_partition_gf(sat, 5)


def test_toral_series_raises_when_exponents_fail_to_collapse(monkeypatch):
    original = symsq.modulus_exponent

    def shifted(group, partition, r):
        return original(group, partition, r) + (group == "corank-one")

    monkeypatch.setattr(symsq, "modulus_exponent", shifted)
    with pytest.raises(PreconditionError, match="fail to collapse"):
        unramified_zeta_check(SatakeData(2, [1, 1], 7), 4)


def test_negative_degree_is_named():
    sat = SatakeData(2, [1, 1], 7)
    for check in (
        unramified_zeta_check,
        even_partition_identity_check,
        even_partition_gf,
        toral_series,
        sym_square_series,
    ):
        with pytest.raises(DomainError, match="degree must be nonnegative, got -1"):
            check(sat, -1)


def test_rank_one_zeta_is_named():
    # rank 1 is outside the check; the error names the rank, not a parabolic
    sat = SatakeData(1, [Fraction(2)], 7)
    for check in (toral_series, unramified_zeta_check):
        with pytest.raises(DomainError, match=r"needs rank r >= 2, got 1"):
            check(sat, 4)
