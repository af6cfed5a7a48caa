import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metaplectic.cocycle import (
    StructuredElement,
    Torus,
    UnramifiedCharacter,
    _product,
    block_lemmas_check,
    cocycle_identity_check,
    gl2,
    global_sigma_product,
    kubota_sl2,
    sigma_eval,
    sigma_torus_even_reduced,
    sl2,
)
from metaplectic.errors import (
    DomainError,
    PreconditionError,
    UnsupportedDomainError,
)
from metaplectic.local_arith import Place, hilbert

REAL = Place.real()
W = sl2(0, 1, -1, 0)


def torus(*entries):
    return StructuredElement.torus(entries)


def t_a(a):
    return sl2(a, 0, 0, Fraction(1, 1) / Fraction(a))


def n_b(b):
    return sl2(1, b, 0, 1)


# sigma_eval ------------------------------------------------------------


def test_sigma_central_frozen():
    p3 = Place.finite(3)
    # rank 4: exponent 6 is even, so the symbol never shows
    for a, b in [(3, 3), (2, 3), (-1, -1)]:
        g = StructuredElement.central(a, 4)
        h = StructuredElement.central(b, 4)
        assert sigma_eval(g, h, p3) == 1
    assert (
        sigma_eval(StructuredElement.central(3, 2), StructuredElement.central(3, 2), p3)
        == -1
    )
    assert (
        sigma_eval(StructuredElement.central(3, 3), StructuredElement.central(3, 3), p3)
        == -1
    )


def test_sigma_torus_frozen():
    assert sigma_eval(torus(2, 3, 5), torus(7, 11, 13), Place.finite(7)) == 1
    # single nontrivial symbol: (3, 3) at 3 from the (1,2) slot
    assert sigma_eval(torus(3, 3), torus(3, 3), Place.finite(3)) == -1


def pairwise_sign(ts, hs, place):
    """prod over i < j of (t_i, h_j), one Hilbert symbol per pair: the
    oracle for the torus rule, which sums the symbol's form over prefixes."""
    s = 1
    for i, j in itertools.combinations(range(len(ts)), 2):
        s *= hilbert(ts[i], hs[j], place)
    return s


def test_sigma_torus_is_pairwise_product():
    rng = random.Random(7)
    entries = [1, 2, 3, 5, -1, 7, 6, 101, Fraction(3, 4), Fraction(-5, 202), Fraction(1, 9)]
    places = (REAL, Place.finite(2), Place.finite(3), Place.finite(5), Place.finite(101))
    for r in (3, 8, 16):
        for place in places:
            for _ in range(15):
                ts = [Fraction(rng.choice(entries)) for _ in range(r)]
                hs = [Fraction(rng.choice(entries)) for _ in range(r)]
                assert sigma_eval(torus(*ts), torus(*hs), place) == pairwise_sign(ts, hs, place)
    # the block rule: per-block torus rules times (det g_k, det h_l) over k < l
    g = [Torus((2, -3)), gl2(5, 0, 0, Fraction(1, 3)), Torus((-7,)), gl2(-1, 0, 0, 6)]
    h = [Torus((3, 101)), gl2(-2, 0, 0, 10), Torus((Fraction(5, 2),)), gl2(3, 0, 0, -3)]

    def diagonal(b):
        return b.entries if isinstance(b, Torus) else (b.rows[0][0], b.rows[1][1])

    for place in places:
        expect = pairwise_sign([b.det() for b in g], [b.det() for b in h], place)
        for gb, hb in zip(g, h):
            expect *= pairwise_sign(diagonal(gb), diagonal(hb), place)
        got = sigma_eval(
            StructuredElement.block_diagonal(g), StructuredElement.block_diagonal(h), place
        )
        assert got == expect, str(place)


def test_sigma_unipotent_rule():
    n = StructuredElement.unipotent_upper(
        [[1, 2, Fraction(1, 3)], [0, 1, -1], [0, 0, 1]]
    )
    t = torus(2, 3, 5)
    for place in (Place.finite(3), REAL):
        assert sigma_eval(n, t, place) == 1
        assert sigma_eval(t, n, place) == 1
        assert sigma_eval(n, n, place) == 1


def test_sigma_normalization():
    p = Place.finite(5)
    one3 = StructuredElement.identity(3)
    for g in (
        torus(2, 3, 5),
        StructuredElement.central(7, 3),
        StructuredElement.block_diagonal([Torus((2,)), sl2(1, 2, 0, 1)]),
    ):
        one = StructuredElement.identity(g.r)
        assert sigma_eval(g, one, p) == 1
        assert sigma_eval(one, g, p) == 1
    assert sigma_eval(one3, one3, p) == 1


def test_sigma_block_rule():
    p3 = Place.finite(3)
    g = StructuredElement.block_diagonal([Torus((3, 1)), sl2(1, 1, 0, 1)])
    h = StructuredElement.block_diagonal([Torus((3, 1)), sl2(1, -1, 0, 1)])
    # block 1: (3,1) slot product is +1 against itself except (t1,h2)=(3,1);
    # block 2 unipotent inside SL2: kubota gives +1; cross: (det, det) = (3, 1)
    assert sigma_eval(g, h, p3) == hilbert(3, 1, p3)
    g2 = StructuredElement.block_diagonal([Torus((3, 3)), sl2(1, 1, 0, 1)])
    h2 = StructuredElement.block_diagonal([Torus((3, 3)), sl2(1, -1, 0, 1)])
    # cross term is now (9, 9) = +1 but inside block 1: (3,3) at 3 is -1
    assert sigma_eval(g2, h2, p3) == -1


def test_sigma_rejects_unsupported():
    p = Place.finite(5)
    # every slot has a formula, but the partitions must agree
    g = StructuredElement.block_diagonal([sl2(0, 1, -1, 0), Torus((1,))])
    h = StructuredElement.block_diagonal([Torus((2,)), sl2(0, 1, -1, 0)])
    with pytest.raises(UnsupportedDomainError, match="block partitions differ"):
        sigma_eval(g, h, p)
    with pytest.raises(UnsupportedDomainError):
        sigma_eval(torus(2, 3), torus(2, 3, 5), p)


# kubota ----------------------------------------------------------------


def test_kubota_frozen():
    p3 = Place.finite(3)
    assert kubota_sl2(sl2(1, 0, 0, 1), sl2(1, 0, 0, 1), p3) == 1
    assert kubota_sl2(W, W, p3) == 1  # x(w^2) = -1, x(w) = -1: (1,1)
    for place in (p3, Place.finite(7), REAL):
        for a, b in [(2, 3), (3, 3), (-1, 2), (Fraction(1, 3), 3)]:
            assert kubota_sl2(t_a(a), t_a(b), place) == hilbert(a, b, place)


def test_kubota_on_gl2_blocks():
    # gh = [[3, 1], [5, 3]]: x(gh) = 5, x(g) = 1, x(h) = 1, det g = 2, so the
    # value is (5, 5/2) = (5, -2)
    g, h = gl2(1, 1, 1, 3), gl2(2, 0, 1, 1)
    expect = {Place.finite(2): -1, Place.finite(3): 1, Place.finite(5): -1, REAL: 1}
    for place, value in expect.items():
        assert kubota_sl2(g, h, place) == value == hilbert(5, -2, place)
        assert sigma_eval(
            StructuredElement.block_diagonal([g]), StructuredElement.block_diagonal([h]), place
        ) == value
    # a diagonal block against a diagonal SL2 one is the torus rule (2, 1/2)
    for place in (Place.finite(2), Place.finite(3), REAL):
        assert kubota_sl2(gl2(2, 0, 0, 1), t_a(2), place) == hilbert(2, Fraction(1, 2), place)


def test_kubota_cocycle_identity_on_generators():
    gens = [W, n_b(1), n_b(-2), t_a(2), t_a(3), t_a(Fraction(1, 2))]
    words = list(gens)
    for g, h in itertools.product(gens, repeat=2):
        words.append(g.compose(h))
    rng = random.Random(8)
    places = [Place.finite(3), Place.finite(5), REAL]
    for _ in range(250):
        g, h, k = rng.choice(words), rng.choice(words), rng.choice(words)
        place = rng.choice(places)
        lhs = kubota_sl2(g, h, place) * kubota_sl2(g.compose(h), k, place)
        rhs = kubota_sl2(g, h.compose(k), place) * kubota_sl2(h, k, place)
        assert lhs == rhs, (g, h, k, str(place))


# cocycle identity ------------------------------------------------------


def test_cocycle_identity_exhaustive_torus_rank2():
    place = Place.finite(3)
    values = [1, 2, 3, 5, -1]
    tori = [torus(a, b) for a in values for b in values]
    for g in tori:
        for h in tori:
            gh = g.compose(h)
            s_gh = sigma_eval(g, h, place)
            for k in tori:
                lhs = s_gh * sigma_eval(gh, k, place)
                rhs = sigma_eval(g, h.compose(k), place) * sigma_eval(h, k, place)
                assert lhs == rhs


def test_cocycle_identity_sampled():
    rng = random.Random(9)
    values = [1, 2, 3, 5, -1, 7, Fraction(1, 2)]
    for place in (Place.finite(5), Place.finite(7), REAL):
        for _ in range(120):
            g = torus(*[rng.choice(values) for _ in range(3)])
            h = torus(*[rng.choice(values) for _ in range(3)])
            k = torus(*[rng.choice(values) for _ in range(3)])
            assert cocycle_identity_check(g, h, k, place)


def test_cocycle_identity_with_identity_argument():
    place = Place.finite(7)
    g, one = torus(2, 3), StructuredElement.identity(2)
    assert cocycle_identity_check(g, one, g, place)
    assert cocycle_identity_check(one, g, one, place)


# even subtorus reduction -----------------------------------------------


def test_reduced_torus_frozen():
    p5 = Place.finite(5)
    t = torus(4, 1, 9, 1)
    assert sigma_torus_even_reduced(t, t, p5) == 1
    tp = torus(5, 5, 1, 1)
    assert sigma_torus_even_reduced(tp, tp, p5) == hilbert(5, 5, p5)
    assert sigma_eval(tp, tp, p5) == hilbert(5, 5, p5)


def test_reduced_torus_matches_full_sigma():
    rng = random.Random(10)
    for p in (3, 5, 7):
        place = Place.finite(p)
        reps = [Fraction(1), Fraction(2), Fraction(p), Fraction(2 * p)]
        for _ in range(40):

            def te_element():
                pairs = []
                for _ in range(2):
                    c = rng.choice(reps)
                    s = Fraction(rng.randint(1, 9))
                    pairs.extend([c * s * s, c])
                return torus(*pairs)

            t, h = te_element(), te_element()
            assert t.in_even_torus(place)
            assert sigma_torus_even_reduced(t, h, place) == sigma_eval(t, h, place)


def test_reduced_torus_real_place():
    t = torus(2, 8, -3, -27)  # ratios 1/4 and 1/9 are positive
    assert t.in_even_torus(REAL)
    h = torus(-1, -4, 5, 5)
    assert sigma_torus_even_reduced(t, h, REAL) == sigma_eval(t, h, REAL)


def test_reduced_torus_rejects_non_members():
    with pytest.raises(PreconditionError):
        sigma_torus_even_reduced(torus(2, 1, 1, 1), torus(1, 1, 1, 1), Place.finite(5))
    with pytest.raises(PreconditionError):
        sigma_torus_even_reduced(torus(2, 2, 1), torus(1, 1, 1), Place.finite(5))


# global product --------------------------------------------------------


def test_global_product_frozen():
    assert global_sigma_product(torus(2, 1), torus(1, 3)) == 1
    assert (
        global_sigma_product(
            StructuredElement.central(-1, 3), StructuredElement.central(-1, 3)
        )
        == 1
    )
    n = StructuredElement.unipotent_upper([[1, 5], [0, 1]])
    assert global_sigma_product(torus(2, 3), n) == 1
    # x(gh) = -5 and sigma at 5 is -1, though no entry of g or h has a 5
    g = StructuredElement.block_diagonal([sl2(1, -3, 1, -2)])
    h = StructuredElement.block_diagonal([sl2(1, -3, 3, -8)])
    assert sigma_eval(g, h, Place.finite(5)) == -1
    assert global_sigma_product(g, h) == 1
    # two tori on different partitions take the torus rule
    g = StructuredElement.block_diagonal([Torus((2,)), Torus((3, 5))])
    h = StructuredElement.block_diagonal([Torus((2, 3)), Torus((5,))])
    assert global_sigma_product(g, h) == 1


def test_global_product_random():
    rng = random.Random(11)
    for _ in range(60):
        ts = [Fraction(rng.randint(1, 60)) * rng.choice([1, -1]) for _ in range(2)]
        hs = [
            Fraction(rng.randint(1, 60), rng.randint(1, 30)) * rng.choice([1, -1])
            for _ in range(2)
        ]
        assert global_sigma_product(torus(*ts), torus(*hs)) == 1
    for _ in range(30):
        a = Fraction(rng.randint(1, 50)) * rng.choice([1, -1])
        b = Fraction(rng.randint(1, 50)) * rng.choice([1, -1])
        for r in (2, 3, 4, 5):
            g = StructuredElement.central(a, r)
            h = StructuredElement.central(b, r)
            assert global_sigma_product(g, h) == 1


def test_center_triviality_parity():
    # scalar cocycle is trivial for all inputs iff floor(r/2) is even
    witness_a = witness_b = 3  # (3,3) at 3 is -1
    place = Place.finite(3)
    for r in (2, 3, 4, 5, 6, 7):
        g = StructuredElement.central(witness_a, r)
        h = StructuredElement.central(witness_b, r)
        got = sigma_eval(g, h, place)
        q = r // 2
        assert got == (1 if q % 2 == 0 else -1)


# the block rule as the block cocycle on a standard Levi -------------------


def test_tau_size_one_blocks_is_torus_rule():
    place = Place.finite(3)
    m = StructuredElement.block_diagonal([Torus((2,)), Torus((3,)), Torus((5,))])
    h = StructuredElement.block_diagonal([Torus((3,)), Torus((3,)), Torus((7,))])
    assert sigma_eval(m, h, place) == sigma_eval(torus(2, 3, 5), torus(3, 3, 7), place)


def test_tau_frozen_diag_blocks():
    for p in (3, 5, 7):
        place = Place.finite(p)
        blk = Torus((Fraction(p), Fraction(1)))
        m = StructuredElement.block_diagonal([blk, blk])
        got = sigma_eval(m, m, place)
        # per-block values are (p, 1) = +1; cross term is (p, p)
        assert got == hilbert(p, p, place)


def test_tau_square_det_cross_terms_vanish():
    place = Place.finite(5)
    g = StructuredElement.block_diagonal([Torus((4, 1)), Torus((9, 1))])
    h = StructuredElement.block_diagonal([Torus((25, 1)), Torus((Fraction(1, 4), 1))])
    per_block = hilbert(4, 1, place) * hilbert(9, 1, place)
    assert sigma_eval(g, h, place) == per_block == 1


# Block-diagonal pairs on one random partition of r <= 6: each slot holds a
# Torus, a repeated-entry Torus or (in a slot of size 2) a diagonal gl2,
# chosen per side.
# The block rule on them must be the torus rule on their diagonals, since the
# cross-terms (det g_i, det h_j) expand bilinearly into the (t_k, h_l).

_PLACES = [Place.real()] + [Place.finite(p) for p in (2, 3, 5, 7)]
_RATIONALS = st.builds(
    Fraction, st.integers(-40, 40).filter(bool), st.integers(1, 12)
)


def _diagonal_payload(draw, size):
    kind = draw(st.sampled_from(["torus", "scalar", "gl2"][: 2 + (size == 2)]))
    if kind == "torus":
        return Torus(draw(st.lists(_RATIONALS, min_size=size, max_size=size)))
    if kind == "scalar":
        return Torus((draw(_RATIONALS),) * size)
    return gl2(draw(_RATIONALS), 0, 0, draw(_RATIONALS))


@st.composite
def _levi_pair(draw):
    r = draw(st.integers(1, 6))
    sizes = []
    while sum(sizes) < r:
        sizes.append(draw(st.integers(1, r - sum(sizes))))
    g, h = (
        StructuredElement.block_diagonal([_diagonal_payload(draw, k) for k in sizes])
        for _ in range(2)
    )
    return g, h


def _flattened(e):
    entries = []
    for b in e.blocks:
        if isinstance(b, Torus):
            entries.extend(b.entries)
        else:
            entries.extend([b.rows[0][0], b.rows[1][1]])
    return StructuredElement.torus(entries)


@given(pair=_levi_pair(), place=st.sampled_from(_PLACES))
@settings(max_examples=300, deadline=None)
def test_block_rule_on_diagonal_payloads_is_torus_rule_hypothesis(pair, place):
    g, h = pair
    assert sigma_eval(g, h, place) == sigma_eval(_flattened(g), _flattened(h), place)


@given(
    a=_RATIONALS,
    b=_RATIONALS,
    r=st.integers(1, 6),
    place=st.sampled_from(_PLACES),
)
@settings(max_examples=200, deadline=None)
def test_central_pair_is_torus_with_repeated_entries_hypothesis(a, b, r, place):
    got = sigma_eval(StructuredElement.central(a, r), StructuredElement.central(b, r), place)
    assert got == sigma_eval(torus(*[a] * r), torus(*[b] * r), place)
    # the closed form (a, b)^(r(r-1)/2)
    assert got == hilbert(a, b, place) ** (r * (r - 1) // 2)


# Kubota's GL2 formula on random 2x2 blocks, zero entries included, so x
# falls back to the lower-right entry. Without the det g term in the second
# slot the cocycle identity fails on a quarter of random GL2 triples, and
# the det-free (x(gh)/x(g), x(gh)/x(h)) (det g, x(h)), which agrees with the
# torus rule on diagonal pairs, on a third.

_ENTRIES = st.integers(-9, 9) | _RATIONALS


def _one_slot(block):
    return StructuredElement.block_diagonal([block])


_GL2 = (
    st.tuples(_ENTRIES, _ENTRIES, _ENTRIES, _ENTRIES)
    .filter(lambda m: m[0] * m[3] != m[1] * m[2])
    .map(lambda m: gl2(*m))
)
_SL2 = (
    st.tuples(_RATIONALS, _ENTRIES, _ENTRIES)
    .map(lambda m: sl2(m[0], m[1], m[2], (1 + m[1] * m[2]) / m[0]))
)
_LOCAL_PLACES = [Place.finite(2), Place.finite(3), Place.finite(5), REAL]


@given(g=_GL2, h=_GL2, k=_GL2, place=st.sampled_from(_LOCAL_PLACES))
@settings(max_examples=200, deadline=None)
def test_kubota_gl2_cocycle_identity_hypothesis(g, h, k, place):
    assert cocycle_identity_check(_one_slot(g), _one_slot(h), _one_slot(k), place)


@given(g=_SL2 | _GL2, h=_SL2 | _GL2, t=_RATIONALS, u=_RATIONALS)
@settings(max_examples=150, deadline=None)
def test_global_product_on_2x2_slots_hypothesis(g, h, t, u):
    # x(gh) may hold a prime that no entry of g or h has
    assert global_sigma_product(_one_slot(g), _one_slot(h)) == 1
    gt = StructuredElement.block_diagonal([g, Torus((t,))])
    hu = StructuredElement.block_diagonal([h, Torus((u,))])
    assert global_sigma_product(gt, hu) == 1


@given(
    a=_RATIONALS,
    b=_RATIONALS,
    a2=_RATIONALS,
    b2=_RATIONALS,
    m=_GL2,
    place=st.sampled_from(_PLACES),
)
@settings(max_examples=150, deadline=None)
def test_kubota_on_diagonal_and_mixed_slots_hypothesis(a, b, a2, b2, m, place):
    # on diagonal pairs Kubota's formula is the torus rule (a, b2)
    assert kubota_sl2(gl2(a, 0, 0, b), gl2(a2, 0, 0, b2), place) == hilbert(a, b2, place)
    # against any block, a Torus in a size-2 slot reads as diag(a, b)
    t, d = _one_slot(Torus((a, b))), _one_slot(gl2(a, 0, 0, b))
    assert sigma_eval(t, _one_slot(m), place) == sigma_eval(d, _one_slot(m), place)
    assert sigma_eval(_one_slot(m), t, place) == sigma_eval(_one_slot(m), d, place)


def _sum_product(a, b):
    """The 2x2 product as a sum of entry products, one Fraction operation at
    a time: the reference for the cleared-denominator integer product."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


# int entries, negative entries, and denominators past 2^64
_WIDE = st.builds(Fraction, st.integers(-(2**90), 2**90), st.integers(2**64 + 1, 2**90))
_BLOCK_ENTRY = st.integers(-9, 9) | _RATIONALS | _WIDE
_BLOCK = st.tuples(st.tuples(_BLOCK_ENTRY, _BLOCK_ENTRY), st.tuples(_BLOCK_ENTRY, _BLOCK_ENTRY))


@given(a=_BLOCK, b=_BLOCK)
@example(
    a=((Fraction(-3, 2**64 + 13), 2), (Fraction(2**64 + 13, 7), Fraction(-1, (2**64 + 13) ** 2))),
    b=((0, Fraction(5, 2**64 + 15)), (-4, Fraction(2**64 + 13, 3))),
)
@settings(max_examples=300, deadline=None)
def test_product_matches_the_sum_form_hypothesis(a, b):
    got = _product(a, b)
    assert got == _sum_product(a, b)
    assert all(type(x) is Fraction for row in got for x in row)


def test_compose_multiplies_slot_by_slot():
    p3 = Place.finite(3)
    t2, m = Torus((2, 3)), gl2(1, 1, 1, 3)
    # a size-2 torus against a 2x2 block reads as diag(2, 3)
    assert _one_slot(t2).compose(_one_slot(m)) == _one_slot(gl2(2, 2, 3, 9))
    assert cocycle_identity_check(_one_slot(t2), _one_slot(m), _one_slot(t2), p3)
    # a torus pair on one partition keeps it; on two partitions it is one torus
    t = StructuredElement.block_diagonal([t2, Torus((5, 7))])
    assert t.compose(t) == StructuredElement.block_diagonal([Torus((4, 9)), Torus((25, 49))])
    assert t.compose(torus(1, 2, 3, 4)) == torus(2, 6, 15, 28)
    k = StructuredElement.block_diagonal([m, gl2(2, 0, 1, 1)])
    assert cocycle_identity_check(t, t, k, p3)


_PARTITIONS = [(2,), (2, 2), (1, 2), (2, 1, 2), (3, 2)]


@st.composite
def _mixed_triple(draw):
    # one partition; each size-2 slot of each element a torus or a GL2 block
    sizes = draw(st.sampled_from(_PARTITIONS))

    def payload(size):
        if size == 2 and draw(st.booleans()):
            return draw(_GL2)
        return Torus(draw(st.lists(_RATIONALS, min_size=size, max_size=size)))

    return [StructuredElement.block_diagonal([payload(k) for k in sizes]) for _ in range(3)]


@given(triple=_mixed_triple(), place=st.sampled_from(_LOCAL_PLACES))
@settings(max_examples=300, deadline=None)
def test_cocycle_identity_on_mixed_torus_and_gl2_slots_hypothesis(triple, place):
    assert cocycle_identity_check(*triple, place)


def test_block_lemmas_check_rejects_a_payload_of_the_wrong_size():
    with pytest.raises(DomainError, match="payload size 1 != slot size 2"):
        block_lemmas_check(0, 1, Torus((4,)), Torus((9, 1)), Place.finite(3))


def test_block_lemmas_check_names_a_huge_determinant():
    # det 3 * 10^8000 has 8001 digits, past the interpreter's printing limit
    g = Torus((3 * 10**8000, 1))
    with pytest.raises(PreconditionError, match="<a number with 8001 digits>"):
        block_lemmas_check(0, 1, g, Torus((4, 1)), Place.finite(3))


def test_block_lemmas_check_true_cases():
    place = Place.finite(3)
    g = Torus((4, 1))
    h = Torus((9, 1))
    assert block_lemmas_check(0, 1, g, h, place) is True
    p = 3
    g2 = Torus((Fraction(p * p), Fraction(1)))
    h2 = Torus((Fraction(4 * p * p), Fraction(1)))
    assert block_lemmas_check(0, 1, g2, h2, place) is True
    # SL2 payloads have det 1, always square
    assert block_lemmas_check(1, 0, W, n_b(2), place) is True
    # three slots
    assert block_lemmas_check(0, 2, g, h, place, partition=(2, 2, 2)) is True


def test_block_lemmas_check_failure_mode():
    place = Place.finite(3)
    g = Torus((3, 1))  # det 3
    h = Torus((2, 1))  # det 2, a non-residue at 3
    assert hilbert(3, 2, place) == -1
    with pytest.raises(PreconditionError):
        block_lemmas_check(0, 1, g, h, place)
    # the refusal guards a real failure: on the embedded elements the
    # cross-term (3, 2) survives, so sigma neither commutes nor splits by block
    ei_g = StructuredElement.block_diagonal([g, Torus((1, 1))])
    ej_h = StructuredElement.block_diagonal([Torus((1, 1)), h])
    assert sigma_eval(ei_g, ej_h, place) == -1 and sigma_eval(ej_h, ei_g, place) == 1
    full = StructuredElement.block_diagonal([g, h])
    per_block = sigma_eval(torus(3, 1), torus(3, 1), place) * sigma_eval(
        torus(2, 1), torus(2, 1), place
    )
    assert sigma_eval(full, full, place) == -per_block


def test_block_lemmas_check_bad_slots():
    with pytest.raises(DomainError):
        block_lemmas_check(1, 1, Torus((4, 1)), Torus((9, 1)), Place.finite(3))


# unramified characters -------------------------------------------------


def test_unramified_character_values():
    chi = UnramifiedCharacter(Place.finite(5), at_uniformizer=Fraction(3, 2))
    assert chi.value(7) == 1
    assert chi.value(5) == Fraction(3, 2)
    assert chi.value(Fraction(2, 25)) == Fraction(4, 9)
    assert chi.value(-5) == Fraction(3, 2)  # units (including -1) are invisible
    with pytest.raises(DomainError, match="finite place"):
        UnramifiedCharacter(REAL, Fraction(1))
    with pytest.raises(DomainError):
        UnramifiedCharacter(Place.finite(5), 0)
    with pytest.raises(DomainError):
        chi.value(0)


# structured element plumbing -------------------------------------------


def test_structured_element_validation():
    with pytest.raises(DomainError):
        StructuredElement.torus(0, 1)
    with pytest.raises(DomainError):
        StructuredElement.unipotent_upper([[1, 0], [1, 1]])
    with pytest.raises(DomainError):
        StructuredElement.unipotent_upper([[2, 0], [0, 1]])
    with pytest.raises(DomainError):
        StructuredElement.central(0, 3)
    with pytest.raises(DomainError):
        sl2(2, 0, 0, 1)
    with pytest.raises(DomainError):
        gl2(1, 1, 1, 1)


def test_compose_rejects_mixed_kinds():
    n = StructuredElement.unipotent_upper([[1, 1], [0, 1]])
    with pytest.raises(UnsupportedDomainError):
        torus(2, 3).compose(n)


def test_central_broadcasts_over_torus():
    z = StructuredElement.central(2, 3)
    t = torus(1, 3, 5)
    assert z.compose(t) == torus(2, 6, 10)
    assert t.compose(z) == torus(2, 6, 10)


def test_dets_and_structure():
    g = StructuredElement.block_diagonal([Torus((2, 3)), sl2(1, 5, 0, 1), Torus((2, 2))])
    assert g.r == 6
    assert g.block_structure() == (("Torus", 2), ("MatrixBlock", 2), ("Torus", 2))


def test_central_is_the_torus_with_one_repeated_entry():
    for a, r in [(2, 3), (Fraction(-1, 3), 1), (7, 4)]:
        z = StructuredElement.central(a, r)
        assert z == torus(*[a] * r) and hash(z) == hash(torus(*[a] * r))
    # so a central block composes slot by slot with a torus block
    z = StructuredElement.central(2, 2).blocks[0]
    g = StructuredElement.block_diagonal([z, sl2(1, 5, 0, 1)])
    h = StructuredElement.block_diagonal([Torus((1, 3)), sl2(1, 1, 0, 1)])
    assert g.compose(h) == StructuredElement.block_diagonal([Torus((2, 6)), sl2(1, 6, 0, 1)])
    # a zero scalar and an empty rank are named errors, not a torus message
    with pytest.raises(DomainError, match="central scalar must be nonzero"):
        StructuredElement.central(0, 3)
    with pytest.raises(DomainError, match="scalar size must be positive"):
        StructuredElement.central(2, 0)
