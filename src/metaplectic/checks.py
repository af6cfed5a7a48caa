"""Each exact check behind `metaplectic suite` and the acceptance gate,
defined once. A check family takes its sizes or inputs as arguments and
returns a count of failures or the value of a closed identity; `SUITES`
runs the families at suite sizes, `tests/test_acceptance.py` at the
acceptance sizes.

Library code is imported inside each function, so a suite process loads
only the modules it runs. This module must not import `cli`, which runs as
`__main__` under `python -m` and would be compiled a second time.
"""

import random
from fractions import Fraction

from .errors import PreconditionError
from .local_arith import Place, least_nonresidue


# Hilbert symbols: criteria 01 and 02 ------------------------------------------

SYMBOL_GRID = (1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 10, -10)


def reciprocity_failures(rng, pairs: int, bound: int) -> int:
    """Seeded pairs of signed ratios, terms in [1, bound], whose Hilbert
    symbols over all places do not multiply to 1."""
    from .local_arith import reciprocity_product

    bad = 0
    for _ in range(pairs):
        a = Fraction(rng.randint(1, bound), rng.randint(1, bound)) * rng.choice((1, -1))
        b = Fraction(rng.randint(1, bound), rng.randint(1, bound)) * rng.choice((1, -1))
        if reciprocity_product(a, b) != 1:
            bad += 1
    return bad


def oracle_failures(place: Place) -> int:
    """Pairs of the 12x12 grid where the Hilbert symbol and the
    solvability oracle disagree."""
    from .local_arith import hilbert, solvability_oracle

    bad = 0
    for a in SYMBOL_GRID:
        for b in SYMBOL_GRID:
            if hilbert(a, b, place) != solvability_oracle(a, b, place):
                bad += 1
    return bad


# Weil indices: criteria 03 and 04 ----------------------------------------------


def mu_multiplicativity_failures(place: Place, reps) -> int:
    """Pairs of reps where mu(ab) != mu(a) mu(b) (a, b) for the standard
    character at place."""
    from .weil_index import AdditiveCharacter, mu_multiplicativity_check

    psi = AdditiveCharacter(place)
    bad = 0
    for a in reps:
        for b in reps:
            if not mu_multiplicativity_check(a, b, psi):
                bad += 1
    return bad


def gamma_class_failures(place: Place, scales, squares) -> int:
    """Pairs (a, c) where gamma(psi_a) != gamma(psi_{a c^2})."""
    from .weil_index import AdditiveCharacter, gamma

    bad = 0
    for a in scales:
        for c in squares:
            if gamma(AdditiveCharacter(place, a)) != gamma(AdditiveCharacter(place, a * c * c)):
                bad += 1
    return bad


def mu_gamma_inversion(place: Place):
    """mu(-1) gamma(psi)^2 for the standard character at place; it is 1."""
    from .weil_index import AdditiveCharacter, gamma, mu

    psi = AdditiveCharacter(place)
    return mu(-1, psi) * gamma(psi) * gamma(psi)


# the finite Weil model: criteria 05 and 06 ------------------------------------------


def torus_multiplier_failures(model) -> int:
    """Diagonal SL2 pairs whose multiplier is not the Hilbert symbol within
    1e-6. Valuation-1 entries only when the window is deep enough (N >= 2)."""
    from .cocycle import sl2
    from .local_arith import hilbert
    from .weil_rep import projective_multiplier

    place = model.place
    vals = [1, 2, -1, 4] + ([model.p, 2 * model.p] if model.N >= 2 else [])
    bad = 0
    for a in vals:
        for b in vals:
            got = projective_multiplier(
                sl2(a, 0, 0, Fraction(1, a)), sl2(b, 0, 0, Fraction(1, b)), model
            )
            if not abs(got - hilbert(a, b, place)) < 1e-6:
                bad += 1
    return bad


def multiplier_cocycle_failures(rng, mats, model, triples: int, attempts: int):
    """The 2-cocycle identity of the multiplier on seeded triples from mats.

    Draws at most `attempts` triples and stops once `triples` of them stay
    in the model's window; returns (failures, triples checked). Only a
    triple that leaves the window (PreconditionError) is skipped: any other
    error, a broken model among them, propagates.
    """
    from .weil_rep import projective_multiplier

    bad = checked = 0
    for _ in range(attempts):
        if checked == triples:
            break
        g, h, k = rng.choice(mats), rng.choice(mats), rng.choice(mats)
        try:
            lhs = projective_multiplier(g, h, model) * projective_multiplier(
                g.compose(h), k, model
            )
            rhs = projective_multiplier(g, h.compose(k), model) * projective_multiplier(
                h, k, model
            )
        except PreconditionError:
            continue
        checked += 1
        if not abs(lhs - rhs) < 1e-6:
            bad += 1
    return bad, checked


def parity_failures(model) -> int:
    """Generators whose operator does not preserve the even/odd split."""
    from .weil_rep import parity_invariance_check

    gens = [("w",), ("n", 1), ("n", 2), ("t", 2), ("t", -1), ("sign", -1)]
    bad = sum(0 if parity_invariance_check(model, g) else 1 for g in gens)
    for g in [("d", 1), ("central", 2)]:
        if not parity_invariance_check(model, g, chi_value=Fraction(1)):
            bad += 1
    return bad


def tensor_pair(model, nonres):
    """The two-block tensor criterion on a pair it accepts and a pair it
    rejects: (True, False) when it holds."""
    from .weil_rep import tensor_whittaker_check

    return (
        tensor_whittaker_check(model, (1, 2), (1, 2)),
        tensor_whittaker_check(model, (1, 1), (1, nonres)),
    )


# symmetric square: criteria 07, 08, 10, 11 and 12 -----------------------------------


def schur_failures(vals, max_total: int) -> int:
    """Partitions of size <= max_total with at most len(vals) parts where
    Jacobi-Trudi and tableau enumeration disagree."""
    from .symsq import partitions_at_most, schur_jt, schur_tableau_oracle

    bad = 0
    for total in range(max_total + 1):
        for lam in partitions_at_most(total, len(vals)):
            if schur_jt(lam, vals) != schur_tableau_oracle(lam, vals):
                bad += 1
    return bad


def identity_failures(sats, degree: int) -> int:
    """Satake data where the even-partition identity fails to X^degree."""
    from .symsq import even_partition_identity_check

    return sum(0 if even_partition_identity_check(sat, degree=degree) else 1 for sat in sats)


def zeta_failures(sats, degree: int) -> int:
    """Satake data where the toral zeta sum is not the symmetric-square
    side to X^degree."""
    from .symsq import unramified_zeta_check

    return sum(0 if unramified_zeta_check(sat, degree) else 1 for sat in sats)


def rs_failures(sats) -> int:
    """Satake data where Rankin-Selberg is not exterior times symmetric."""
    from .symsq import rs_factorization_check

    return sum(0 if rs_factorization_check(sat) else 1 for sat in sats)


def pole_summary(r: int, trivial: bool):
    """(normalizer poles, L-function poles, the L-argument at s = 3/4) of
    the rank-r pole report; the last is None when there are no poles."""
    from .symsq import pole_report

    rep = pole_report(r, trivial)
    arg = rep.s_to_l_arg(Fraction(3, 4)) if rep.s_to_l_arg else None
    return set(rep.normalizer_poles), set(rep.l_function_poles), arg


def euler_zeta2_error(bound: int) -> float:
    """|prod over primes q < bound of (1 - q^-2)^-1 - zeta(2)|: the r = 1
    Euler product at s = 2 against pi^2/6."""
    import math

    from .symsq import SatakeData, euler_product

    primes = [q for q in range(2, bound) if all(q % d for d in range(2, q))]
    val = euler_product([SatakeData(1, [1], q) for q in primes], 2)
    return abs(val - math.pi**2 / 6)


# the cover cocycle: criterion 13 -------------------------------------------------------


def sigma_normalization(r: int, place: Place):
    """sigma(1, 1) on GL_r; it is 1."""
    from .cocycle import StructuredElement, sigma_eval

    e = StructuredElement.identity(r)
    return sigma_eval(e, e, place)


def torus_cocycle_failures(entries, place: Place) -> int:
    """Triples of rank-2 tori with entries drawn from `entries`, all of
    them, that break the 2-cocycle identity."""
    from .cocycle import StructuredElement, cocycle_identity_check

    toruses = [StructuredElement.torus(a, b) for a in entries for b in entries]
    bad = 0
    for g in toruses:
        for h in toruses:
            for k in toruses:
                if not cocycle_identity_check(g, h, k, place):
                    bad += 1
    return bad


def reduced_torus_failures(rng, pairs: int, place: Place) -> int:
    """Seeded pairs in the even-square subtorus of GL_4 where the reduced
    rule and the full cocycle differ."""
    from .cocycle import StructuredElement, sigma_eval, sigma_torus_even_reduced

    reps = [Fraction(1), Fraction(2), Fraction(5), Fraction(10)]

    def even_torus():
        entries = []
        for _ in range(2):
            c = rng.choice(reps)
            s = Fraction(rng.randint(1, 9))
            entries.extend([c * s * s, c])
        return StructuredElement.torus(*entries)

    bad = 0
    for _ in range(pairs):
        t, h = even_torus(), even_torus()
        if sigma_torus_even_reduced(t, h, place) != sigma_eval(t, h, place):
            bad += 1
    return bad


def center_exponent_failures(ranks, place: Place) -> int:
    """Central pairs z(a), z(b) with a, b in {2, 3, 5}, at each rank r,
    where sigma is not (a, b)^(r(r-1)/2)."""
    from .cocycle import StructuredElement, sigma_eval
    from .local_arith import hilbert

    bad = 0
    for r in ranks:
        for a in (2, 3, 5):
            for b in (2, 3, 5):
                za = StructuredElement.central(a, r)
                zb = StructuredElement.central(b, r)
                expect = hilbert(a, b, place) ** (r * (r - 1) // 2)
                if sigma_eval(za, zb, place) != expect:
                    bad += 1
    return bad


def unipotent_sigma(place: Place):
    """sigma of two fixed upper unipotents of GL_3; it is 1."""
    from .cocycle import StructuredElement, sigma_eval

    u = StructuredElement.unipotent_upper([[1, 2, 3], [0, 1, 5], [0, 0, 1]])
    v = StructuredElement.unipotent_upper([[1, 0, 7], [0, 1, 1], [0, 0, 1]])
    return sigma_eval(u, v, place)


def global_product_failures(rng, pairs: int, bound: int) -> int:
    """Seeded pairs of rank-2 tori, integer entries in [1, bound], whose
    cocycles over all places do not multiply to 1."""
    from .cocycle import StructuredElement, global_sigma_product

    torus = StructuredElement.torus
    bad = 0
    for _ in range(pairs):
        g = torus(Fraction(rng.randint(1, bound)), Fraction(rng.randint(1, bound)))
        h = torus(Fraction(rng.randint(1, bound)), Fraction(rng.randint(1, bound)))
        if global_sigma_product(g, h) != 1:
            bad += 1
    return bad


def block_lemma_failures(cases, place: Place) -> int:
    """(i, j, g, h, partition) cases where block_lemmas_check is not True."""
    from .cocycle import block_lemmas_check

    bad = 0
    for i, j, g, h, partition in cases:
        if block_lemmas_check(i, j, g, h, place, partition=partition) is not True:
            bad += 1
    return bad


# suites ------------------------------------------------------------------------------
#
# A builder returns (id, inputs, fn) rows, fn(rng) -> (expected, got); a row
# passes when both render equal. Each builder imports its library modules
# before returning, so `suite all` compiles them before weilrep loads numpy.


def suite_cases(name: str, seed: int, p: int = 3, big_n: int = 1):
    """The rows of suite `name` as (id, inputs, fn()) cases. Each case draws
    from its own random.Random(seed), so a case run alone draws what it
    draws in the full run."""
    rows = SUITES[name](p, big_n) if name == "weilrep" else SUITES[name]()
    return [(cid, inputs, lambda fn=fn: fn(random.Random(seed))) for cid, inputs, fn in rows]


def symbols_suite():
    from .local_arith import hilbert

    def bilinear(rng):
        place = Place.finite(3)
        bad = 0
        for _ in range(50):
            a, b, c = (Fraction(rng.randint(1, 30)) for _ in range(3))
            if hilbert(a * b, c, place) != hilbert(a, c, place) * hilbert(b, c, place):
                bad += 1
        return 0, bad

    cases = [("symbols/reciprocity", "200 seeded pairs",
              lambda rng: (0, reciprocity_failures(rng, 200, 60)))]
    for v in [Place.finite(2), Place.finite(3), Place.finite(5), Place.finite(7), Place.real()]:
        cases.append((f"symbols/oracle@{v}", "144 pairs vs solvability",
                      lambda rng, v=v: (0, oracle_failures(v))))
    cases.append(("symbols/bilinearity@3", "50 triples", bilinear))
    return cases


def cocycles_suite():
    from .cocycle import Torus, sl2

    p3, p5 = Place.finite(3), Place.finite(5)
    entries = [Fraction(1), Fraction(2), Fraction(3)]
    square_det_blocks = [
        (0, 1, Torus((Fraction(4), Fraction(1))), Torus((Fraction(9), Fraction(1))), (2, 2)),
        (0, 1, sl2(0, 1, -1, 0), sl2(1, 2, 0, 1), (2, 2)),
        (0, 1, sl2(2, 0, 0, Fraction(1, 2)), Torus((Fraction(9), Fraction(4))), (2, 2)),
    ]
    return [
        ("cocycles/normalization", "identity pair, r=3",
         lambda rng: (1, sigma_normalization(3, p3))),
        ("cocycles/torus-2-cocycle", "729 exhaustive triples @3",
         lambda rng: (0, torus_cocycle_failures(entries, p3))),
        ("cocycles/reduced-torus@5", "30 even-subtorus pairs",
         lambda rng: (0, reduced_torus_failures(rng, 30, p5))),
        ("cocycles/center-exponent", "r in {2,3,4}, 9 scalar pairs",
         lambda rng: (0, center_exponent_failures((2, 3, 4), p3))),
        ("cocycles/unipotent-trivial", "two upper unipotents @5",
         lambda rng: (1, unipotent_sigma(p5))),
        ("cocycles/global-product", "25 torus pairs, all places",
         lambda rng: (0, global_product_failures(rng, 25, 20))),
        ("cocycles/block-lemmas", "square-det blocks @3",
         lambda rng: (0, block_lemma_failures(square_det_blocks, p3))),
    ]


def weil_suite():
    from .local_arith import square_class_rep
    from .weil_index import EighthRoot

    def class_reps(place):
        if place.is_real:
            return [Fraction(1), Fraction(-1)]
        p = place.p
        return sorted({square_class_rep(x, place) for x in (1, 2, 3, p, 2 * p, 3 * p)})

    def class_invariance(rng):
        bad = 0
        for p in (3, 5, 7):
            bad += gamma_class_failures(Place.finite(p), (2, 3, p), (2, 3, 5))
        return 0, bad

    cases = []
    for v in [Place.finite(p) for p in (3, 5, 7, 11, 13)] + [Place.real()]:
        cases.append((f"weil/mu-multiplicativity@{v}", "square-class rep pairs",
                      lambda rng, v=v: (0, mu_multiplicativity_failures(v, class_reps(v)))))
        cases.append((f"weil/mu(-1)gamma^2@{v}", "closed identity",
                      lambda rng, v=v: (EighthRoot(0), mu_gamma_inversion(v))))
    cases.append(("weil/gamma-square-class", "scales a vs a*c^2", class_invariance))
    return cases


def _suite_sl2(rng, p: int, big_n: int):
    """Eight seeded SL2 generators; valuation-1 torus entries only when
    big_n >= 2, as in torus_multiplier_failures."""
    from .cocycle import sl2

    deep = (p,) if big_n >= 2 else ()
    mats = []
    for _ in range(8):
        kind = rng.choice(("t", "n", "w", "b"))
        if kind == "t":
            a = rng.choice((1, 2, -1) + deep)
            mats.append(sl2(a, 0, 0, Fraction(1, a)))
        elif kind == "n":
            mats.append(sl2(1, rng.randint(-3, 3), 0, 1))
        elif kind == "w":
            mats.append(sl2(0, 1, -1, 0))
        else:
            a = rng.choice((2,) + deep)
            mats.append(sl2(a, rng.randint(0, 2), 0, Fraction(1, a)))
    return mats


def weilrep_suite(p: int = 3, big_n: int = 1):
    from .cocycle import UnramifiedCharacter
    from .weil_rep import (
        _DENSE_SIZE_CAP,
        build_model,
        central_word_check,
        check_model_size,
        twist_intertwiner_check,
        whittaker_functional_exists,
    )

    # Each multiplier check streams O(M^2) work, so past the dense cap the
    # suite would run for minutes.
    check_model_size(p, big_n, _DENSE_SIZE_CAP)
    model = build_model(p, big_n)
    nonres = least_nonresidue(p)
    chi = UnramifiedCharacter(Place.finite(p), at_uniformizer=Fraction(1))

    def cocycle_property(rng):
        # draw until 20 triples stay in the window; 99 only if the cap is hit
        bad, checked = multiplier_cocycle_failures(rng, _suite_sl2(rng, p, big_n), model, 20, 200)
        return 0, bad if checked == 20 else 99

    def central_scalar(rng):
        return 0, sum(not central_word_check(model, a, chi) for a in (1, 2, -1, 4))

    def whittaker(rng):
        expect = [True, True, False, False]
        got = [
            whittaker_functional_exists(model, 1),
            whittaker_functional_exists(model, 4),
            whittaker_functional_exists(model, nonres),
            whittaker_functional_exists(model, p),
        ]
        return expect, got

    at = f"({p},{big_n})"
    return [
        (f"weilrep/torus-multiplier@{at}", "25 diagonal pairs",
         lambda rng: (0, torus_multiplier_failures(model))),
        (f"weilrep/2-cocycle@{at}", "20 seeded SL2 triples", cocycle_property),
        (f"weilrep/parity@{at}", "all generator kinds", lambda rng: (0, parity_failures(model))),
        (f"weilrep/central-scalar@{at}", "units 1,2,-1,4", central_scalar),
        (f"weilrep/whittaker@{at}", "classes 1, 4, nonres, p", whittaker),
        (f"weilrep/tensor@{at}", "two-block pairs",
         lambda rng: ((True, False), tensor_pair(model, nonres))),
        (f"weilrep/twist@{at}", "nonresidue unit twist",
         lambda rng: (True, twist_intertwiner_check(nonres, model))),
    ]


def _random_sat(rng, r, chi=Fraction(1)):
    from .symsq import SatakeData

    alphas = []
    while len(alphas) < r:
        a = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        if rng.random() < 0.3:
            a = -a
        alphas.append(a)
    return SatakeData(r, alphas, 7, chi_val=chi)


def symsq_suite():
    from .symsq import SatakeData, even_partition_gf, tate_factor_ratio

    def gf_frozen(rng):
        sat = SatakeData(2, [1, 1], 7)
        gf = even_partition_gf(sat, 5)
        return [1, 3, 5, 7, 9, 11], [gf[k] for k in range(6)]

    def zeta(rng):
        sat3 = SatakeData(3, [Fraction(2), Fraction(1, 2), Fraction(3)], 5, chi_val=2)
        return 0, zeta_failures([SatakeData(2, [1, 1], 7)], 8) + zeta_failures([sat3], 6)

    def identity(rng):
        return 0, identity_failures([_random_sat(rng, r) for r in (2, 3) for _ in range(2)], 8)

    def rs(rng):
        return 0, rs_failures([_random_sat(rng, r, chi=Fraction(2)) for r in range(1, 5)])

    schur_vals = [Fraction(2), Fraction(1, 2), Fraction(3)]
    poles = ({Fraction(1, 4), Fraction(3, 4)}, {Fraction(0), Fraction(1)}, 1)
    return [
        ("symsq/schur-agreement", "|lambda| <= 5, 3 variables",
         lambda rng: (0, schur_failures(schur_vals, 5))),
        ("symsq/gf-coefficients", "r=2, alphas=(1,1)", gf_frozen),
        ("symsq/partition-identity", "r in {2,3}, 2 tuples each", identity),
        ("symsq/zeta-check", "r=2 trivial; r=3 chi=2", zeta),
        ("symsq/rs-factorization", "r <= 4 seeded tuples", rs),
        ("symsq/tate-ratio", "even, r=2, s=1/4, q=3",
         lambda rng: (Fraction(40, 27), tate_factor_ratio(2, Fraction(1, 4), 1, 3))),
        ("symsq/pole-report", "trivial composite character",
         lambda rng: (poles, pole_summary(2, True))),
        ("symsq/euler-zeta2", "primes < 100 at s=2",
         lambda rng: (True, euler_zeta2_error(100) < 0.011)),
    ]


SUITES = {
    "symbols": symbols_suite,
    "cocycles": cocycles_suite,
    "weil": weil_suite,
    "weilrep": weilrep_suite,
    "symsq": symsq_suite,
}
