"""Acceptance gate.

One test per acceptance criterion, in order, each printing a single
pass/fail verdict line (visible with -v as the test outcome, and via the
printed line under -s or on failure). Tolerances and time budgets are the
stated ones; budgets are asserted, not aspirational. The checks shared with
`metaplectic suite` come from `metaplectic.checks`, run here at the
acceptance sizes; the oracle comparisons only this gate makes stay below.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from metaplectic import checks
from metaplectic.checks import least_nonresidue
from metaplectic.cocycle import Torus, UnramifiedCharacter, gl2, sl2
from metaplectic.errors import PreconditionError
from metaplectic.local_arith import Place, square_class_rep
from metaplectic.symsq import (
    SatakeData,
    local_factors,
    partitions_at_most,
    toral_q_values,
    unramified_zeta_check,
)
from metaplectic.weil_index import (
    AdditiveCharacter,
    EighthRoot,
    gamma,
    gauss_shell_oracle,
    mu,
)
from metaplectic.weil_rep import (
    build_model,
    operator,
    projective_multiplier,
    tensor_whittaker_check,
    whittaker_functional_exists,
)

MODELS = [(3, 1), (3, 2), (5, 1), (7, 1)]


def _verdict(num: int, label: str, ok: bool, started=None, budget=None):
    """Print and assert the verdict; a budgeted criterion passes the
    perf_counter() reading taken when it started."""
    status = "PASS" if ok else "FAIL"
    timing = ""
    if budget is not None:
        elapsed = time.perf_counter() - started
        timing = f"  [{elapsed:.2f}s / {budget:g}s budget]"
    print(f"criterion {num:2d} [{status}] {label}{timing}")
    assert ok, f"criterion {num} failed: {label}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s"


def test_criterion_01_hilbert_reciprocity():
    started = time.perf_counter()
    ok = checks.reciprocity_failures(random.Random(1), 1000, 50) == 0
    _verdict(1, "Hilbert reciprocity on 1000 seeded pairs", ok, started, 1.0)


def test_criterion_02_hilbert_oracle_agreement():
    places = [Place.finite(p) for p in (2, 3, 5, 7)] + [Place.real()]
    started = time.perf_counter()
    ok = all(checks.oracle_failures(v) == 0 for v in places)
    _verdict(2, "symbol vs solvability oracle on the 144-pair grid", ok, started, 5.0)


def test_criterion_03_weil_index_identities():
    started = time.perf_counter()
    ok = True
    for p in (3, 5, 7, 11, 13):
        place = Place.finite(p)
        psi = AdditiveCharacter(place)
        u = least_nonresidue(p)
        reps = [Fraction(1), Fraction(u), Fraction(p), Fraction(u * p)]
        ok = ok and checks.mu_multiplicativity_failures(place, reps) == 0
        for a in reps:
            # square-class dependence plus the oracle-snap residual bound
            ok = ok and checks.gamma_class_failures(place, [a], [2]) == 0
            snapped = gamma(psi.twist(a)).value()
            raw = gauss_shell_oracle(p, a)
            ok = ok and abs(raw - snapped) < 1e-6
    real = Place.real()
    ok = ok and checks.mu_multiplicativity_failures(real, [Fraction(1), Fraction(-1)]) == 0
    ok = ok and checks.gamma_class_failures(real, [1], [3]) == 0
    _verdict(
        3,
        "Weil index multiplicativity and square-class dependence, snapped within 1e-6",
        ok,
        started,
        5.0,
    )


def test_criterion_04_mu_gamma_inversion():
    ok = True
    for p in (3, 5, 7, 11, 13):
        ok = ok and checks.mu_gamma_inversion(Place.finite(p)) == EighthRoot(0)
    ok = ok and checks.mu_gamma_inversion(Place.real()) == EighthRoot(0)
    _verdict(4, "mu(-1) gamma^2 = 1 at every supported place", ok)


def _sample_sl2(p, N, rng):
    mats = [sl2(0, 1, -1, 0)]
    for b in (0, 1, 2):
        mats.append(sl2(1, b, 0, 1))
    units = [1, 2, -1] + ([p] if N >= 2 else [])
    for a in units:
        mats.append(sl2(a, 0, 0, Fraction(1, a)))
    mats.append(sl2(2, 1, 0, Fraction(1, 2)))
    mats.append(sl2(1, 0, rng.choice((1, 2)), 1).compose(sl2(1, 1, 0, 1)))
    return mats


def test_criterion_05_finite_weil_model():
    started = time.perf_counter()
    rng = random.Random(5)
    ok = True
    triples_done = 0
    for p, N in MODELS:
        model = build_model(p, N)
        place = Place.finite(p)
        mats = _sample_sl2(p, N, rng)

        # multipliers are signs within 1e-6 on all sampled generator pairs
        for g, h in itertools.product(mats, mats):
            try:
                c = projective_multiplier(g, h, model)
            except PreconditionError:
                continue  # composite fell off the lattice window
            ok = ok and min(abs(c - 1), abs(c + 1)) < 1e-6

        # 2-cocycle identity on seeded triples (50 per model, 200 total)
        bad, done = checks.multiplier_cocycle_failures(rng, mats, model, 50, 2000)
        ok = ok and bad == 0
        triples_done += done

        # torus multipliers equal the Hilbert symbol
        ok = ok and checks.torus_multiplier_failures(model) == 0

        # central scalar matches chi(a) mu(a) within 1e-9
        chi = UnramifiedCharacter(place, at_uniformizer=Fraction(1))
        for a in (1, 2, -1, 4):
            op = operator(model, ("central", a), chi_value=chi.value(a))
            want = complex(chi.value(a)) * mu(a, model.psi).value()
            ok = ok and abs(op[0, 0] - want) < 1e-9
            ok = ok and bool(np.allclose(op, op[0, 0] * np.eye(model.size), atol=1e-9))

        # Whittaker existence matches direct square-class enumeration
        classes = set()
        for k in range(1, model.size):
            x = model.point(k)
            if x != 0:
                classes.add(square_class_rep(model.psi.scale * x * x, place))
        for a in (1, 2, 3, 4, p, 2 * p, p * p, -1):
            expect = square_class_rep(Fraction(a), place) in classes
            ok = ok and whittaker_functional_exists(model, a) == expect

        # two-block tensor criterion
        u = least_nonresidue(p)
        same, differ = checks.tensor_pair(model, u)
        ok = ok and same is True and differ is False
        ok = ok and tensor_whittaker_check(model, (1, u), (4, u * 9)) is True

    ok = ok and triples_done == 200
    _verdict(
        5,
        "finite model: sign multipliers, 200-triple cocycle, torus/central/Whittaker/tensor",
        ok,
        started,
        60.0,
    )


def test_criterion_06_parity():
    ok = True
    for p, N in MODELS:
        ok = ok and checks.parity_failures(build_model(p, N)) == 0
    _verdict(6, "all generators preserve the even/odd split within 1e-9", ok)


def test_criterion_07_schur_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(7)
    value_sets = [
        [Fraction(1), Fraction(1), Fraction(1), Fraction(1)],
        [Fraction(2), Fraction(1, 2), Fraction(3), Fraction(1, 3)],
        [Fraction(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(4)],
    ]
    ok = all(checks.schur_failures(vals, 8) == 0 for vals in value_sets)
    _verdict(
        7, "Jacobi-Trudi vs tableau enumeration, all |lambda| <= 8, r <= 4", ok, started, 10.0
    )


def _seeded_sats(rng, r, count, q=7):
    out = []
    while len(out) < count:
        alphas = [
            Fraction(rng.randint(1, 4), rng.randint(1, 4)) * rng.choice((1, 1, -1))
            for _ in range(r)
        ]
        chi = rng.choice([Fraction(1), Fraction(2), Fraction(3, 2)])
        out.append(SatakeData(r, alphas, q, chi_val=chi))
    return out


def test_criterion_08_identity_and_zeta_to_degree_ten():
    started = time.perf_counter()
    rng = random.Random(8)
    ok = True

    # pinned case: alphas (1,1), trivial chi; symmetric-square inverse is (1-X)^-3
    pinned = SatakeData(2, [1, 1], 7, chi_val=Fraction(1))
    inv = local_factors(pinned).sym.inverse_series(10)
    ok = ok and [inv[k] for k in range(4)] == [1, 3, 6, 10]
    sats = [pinned] + [sat for r in (2, 3, 4) for sat in _seeded_sats(rng, r, 5)]
    for sat in sats:
        ok = ok and checks.identity_failures([sat], 10) == 0
        ok = ok and checks.zeta_failures([sat], 10) == 0
    _verdict(
        8,
        "partition identity and zeta assembly exact to X^10, r in {2,3,4} x 5 tuples",
        ok,
        started,
        10.0,
    )


def test_criterion_09_square_root_flip_invariance():
    sat = SatakeData(3, [Fraction(2), Fraction(1, 2), Fraction(3)], 5, chi_val=4)
    ok = unramified_zeta_check(sat, 8, chi_sqrt_val=2)
    ok = ok and unramified_zeta_check(sat, 8, chi_sqrt_val=-2)
    for m in range(0, 5):
        for lam in partitions_at_most(m, 2):
            doubled = tuple(2 * x for x in lam) + (0,)
            plus = toral_q_values(doubled, sat, chi_sqrt_val=2)
            minus = toral_q_values(doubled, sat, chi_sqrt_val=-2)
            ok = ok and plus == minus  # exact QPower equality, not approx
    _verdict(9, "chi^(1/2) flip leaves the zeta pipeline bit-identical", ok)


def test_criterion_10_rs_factorization():
    started = time.perf_counter()
    rng = random.Random(10)
    ok = all(checks.rs_failures(_seeded_sats(rng, r, 10)) == 0 for r in range(1, 6))
    _verdict(10, "rs = ext * sym exactly, r <= 5, 10 seeded tuples each", ok, started, 2.0)


def test_criterion_11_pole_bookkeeping():
    poles = ({Fraction(1, 4), Fraction(3, 4)}, {Fraction(0), Fraction(1)}, 1)
    ok = checks.pole_summary(3, True) == poles
    ok = ok and checks.pole_summary(3, False) == (set(), set(), None)
    _verdict(11, "pole report reproduces {1/4, 3/4} / {0, 1} and empties", ok)


def test_criterion_12_euler_product_sanity():
    started = time.perf_counter()
    ok = checks.euler_zeta2_error(100) < 1e-2
    _verdict(12, "r=1 Euler product vs zeta(2) within the tail bound", ok, started, 1.0)


def test_criterion_13_cocycle_suite():
    started = time.perf_counter()
    rng = random.Random(13)
    p3 = Place.finite(3)
    ok = checks.sigma_normalization(3, p3) == 1
    ok = ok and checks.torus_cocycle_failures([Fraction(1), Fraction(2), Fraction(3)], p3) == 0
    p5 = Place.finite(5)
    ok = ok and checks.reduced_torus_failures(rng, 40, p5) == 0
    ok = ok and checks.center_exponent_failures((2, 3, 4, 5), p3) == 0
    ok = ok and checks.unipotent_sigma(p5) == 1
    # the global product includes the p = 2 factor
    ok = ok and checks.global_product_failures(rng, 50, 30) == 0
    square_det_blocks = [
        (0, 1, Torus((Fraction(4), Fraction(1))), Torus((Fraction(9), Fraction(1))), (2, 2)),
        (0, 1, sl2(0, 1, -1, 0), sl2(1, 2, 0, 1), (2, 2)),
        (0, 1, gl2(2, 0, 0, 2), Torus((Fraction(9), Fraction(4))), (2, 2)),
        (0, 2, Torus((Fraction(4), Fraction(1))), Torus((Fraction(9), Fraction(1))), (2, 2, 2)),
    ]
    ok = ok and checks.block_lemma_failures(square_det_blocks, p3) == 0
    _verdict(13, "cocycle suite: all seven exact families", ok, started, 10.0)
