"""Finite lattice model: Fourier exactness, generator windows, projective
multipliers against the closed cocycle formulas, parity, evaluation
functionals, twisting, and small tensor blocks."""

import cmath
import functools
import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplectic import checks, weil_rep
from metaplectic.cocycle import UnramifiedCharacter, gl2, kubota_sl2, sl2
from metaplectic.errors import (
    DomainError,
    ModelInconsistencyError,
    PreconditionError,
    UnsupportedDomainError,
)
from metaplectic.local_arith import Place, hilbert, square_class_rep, valuation_and_unit
from metaplectic.weil_index import gamma, mu
from metaplectic.weil_rep import (
    FiniteWeilModel,
    borel_sign,
    build_model,
    canonical_word,
    central_word_check,
    op_of_word,
    operator,
    parity_invariance_check,
    projective_multiplier,
    tensor_whittaker_check,
    twist_intertwiner_check,
    whittaker_functional_exists,
    word_action,
)

MODELS = [(3, 1), (3, 2), (5, 1), (7, 1)]


def models():
    return [build_model(p, N) for p, N in MODELS]


def snap_sign(c):
    for s in (1, -1):
        if abs(c - s) < 1e-6:
            return s
    raise AssertionError(f"multiplier {c} is not a sign")


# construction ---------------------------------------------------------------


def test_build_model_validation():
    with pytest.raises(UnsupportedDomainError):
        build_model(2, 1)
    with pytest.raises(UnsupportedDomainError):
        build_model(9, 1)
    with pytest.raises(DomainError):
        build_model(3, 0)
    with pytest.raises(PreconditionError):
        build_model(3, 1, scale=3)  # non-unit scale moves the lattice
    m = build_model(3, 2, scale=Fraction(2, 5))
    assert m.size == 81 and m.point(3) == Fraction(1, 3)


@pytest.mark.parametrize("big_n, m_text", [(13, "3^26"), (10**9, "3^2000000000")])
def test_build_model_refuses_a_window_past_the_cap(big_n, m_text):
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(UnsupportedDomainError, match="cap of 16384") as err:
            build_model(3, big_n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - started < 1
    assert peak < 1 << 20  # refused before anything was allocated
    assert f"M = {m_text} " in str(err.value)
    assert build_model(5, 3).size == 15625  # the largest window in use stays inside


def test_carrier_indexing():
    m = build_model(5, 1)
    assert m.point(0) == 0
    assert m.point(7) == Fraction(7, 5)
    assert m.negate_indices()[7] == 18
    assert m.scale_indices(Fraction(2))[7] == 14
    # scaling by p collapses depth: x=7/5 -> 7, index 7*5 mod 25
    assert m.scale_indices(5)[7] == 10
    with pytest.raises(PreconditionError):
        m.scale_indices(Fraction(1, 5))
    with pytest.raises(DomainError):
        m.scale_indices(0)


# Fourier --------------------------------------------------------------------
#
# F is op(w) / gamma(psi): the transform with kernel psi(2xy) and mass p^-N.


def fourier_operator(m):
    return operator(m, ("w",)) / gamma(m.psi).value()


def random_function(m, seed):
    rng = random.Random(seed)
    return np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(m.size)])


@pytest.mark.parametrize("p,N", MODELS)
def test_fourier_double_transform_is_parity_flip(p, N):
    m = build_model(p, N)
    f = random_function(m, 11)
    F = fourier_operator(m)
    assert np.max(np.abs(F @ (F @ f) - f[m.negate_indices()])) < 1e-9
    # the w letter's action on a block of columns does the same
    twice = word_action(m, [("w",), ("w",)])(f[:, None])[:, 0]
    assert np.max(np.abs(twice - gamma(m.psi).value() ** 2 * f[m.negate_indices()])) < 1e-9


@pytest.mark.parametrize("p,N", MODELS)
def test_fourier_is_unitary(p, N):
    m = build_model(p, N)
    F = fourier_operator(m)
    assert np.max(np.abs(F @ F.conj().T - np.eye(m.size))) < 1e-9


def test_integer_indicator_is_fourier_fixed_point():
    # the unit lattice is self-dual for an unramified character
    for m in models():
        f = np.zeros(m.size, dtype=np.complex128)
        f[:: m.p**m.N] = 1.0  # the p-adic integers: indices divisible by p^N
        assert np.max(np.abs(fourier_operator(m) @ f - f)) < 1e-9


def test_even_odd_split():
    m = build_model(3, 1)
    f = random_function(m, 5)
    flip = m.negate_indices()
    even, odd = (f + f[flip]) / 2, (f - f[flip]) / 2
    # only the origin is fixed by negation, so the odd part vanishes there
    assert np.count_nonzero(flip == np.arange(m.size)) == 1 and abs(odd[0]) < 1e-12
    # the generators keep the even and the odd functions apart
    for gen in [("w",), ("n", 1), ("t", 2), ("t", -1)]:
        op = operator(m, gen)
        assert np.max(np.abs((op @ even)[flip] - op @ even)) < 1e-12, gen
        assert np.max(np.abs((op @ odd)[flip] + op @ odd)) < 1e-12, gen


# generator windows ----------------------------------------------------------


def test_substitution_windows():
    shallow = build_model(3, 1)
    deep = build_model(3, 2)
    with pytest.raises(PreconditionError):
        operator(shallow, ("t", 3))
    operator(deep, ("t", 3))  # in window at depth two
    with pytest.raises(PreconditionError):
        operator(deep, ("t", 9))
    operator(deep, ("t", 9), extended=True)  # composite target
    with pytest.raises(PreconditionError):
        operator(deep, ("t", Fraction(1, 3)))  # negative valuation never ok
    with pytest.raises(PreconditionError):
        operator(shallow, ("n", 3))
    operator(deep, ("n", 9))
    with pytest.raises(PreconditionError):
        operator(deep, ("n", Fraction(1, 3)))
    chi = UnramifiedCharacter(Place.finite(3), at_uniformizer=Fraction(2))
    with pytest.raises(PreconditionError):
        operator(shallow, ("d", Fraction(1, 3)), chi_value=chi.value(Fraction(1, 3)))
    operator(deep, ("d", Fraction(1, 3)), chi_value=chi.value(Fraction(1, 3)))
    with pytest.raises(PreconditionError):
        operator(deep, ("d", 3), chi_value=chi.value(3))  # positive side is t's job


def test_generator_scalars():
    m = build_model(5, 1)
    # n(b) is diagonal with unit-modulus entries, identity at b=0
    nb = operator(m, ("n", 2))
    assert np.max(np.abs(np.abs(np.diag(nb)) - 1)) < 1e-12
    assert np.max(np.abs(operator(m, ("n", 0)) - np.eye(25))) == 0
    # t(a) for unit a is a permutation times mu(a)
    ta = operator(m, ("t", 2))
    assert abs(ta[0, 0] - mu(Fraction(2), m.psi).value()) < 1e-12
    # sign generator validation
    with pytest.raises(DomainError):
        operator(m, ("sign", 2))
    assert np.max(np.abs(operator(m, ("sign", -1)) + np.eye(25))) < 1e-12
    with pytest.raises(DomainError):
        operator(m, ("central", 2))  # needs the character value
    with pytest.raises(DomainError):
        operator(m, ("zz", 1))


# canonical words ------------------------------------------------------------


def test_canonical_word_shapes():
    assert canonical_word(sl2(2, 1, 0, Fraction(1, 2)))[0] == ("t", Fraction(2))
    w = canonical_word(sl2(1, 0, 1, 1))
    assert [g[0] for g in w] == ["n", "w", "t", "n"]
    assert w[2] == ("t", Fraction(-1))
    # square determinant peels off a d-letter
    assert canonical_word(gl2(4, 0, 0, 1)) == [("t", 4), ("n", 0), ("d", 2)]
    assert canonical_word(gl2(2, 4, 1, 4)) == [("n", 2), ("w",), ("t", -1), ("n", 1), ("d", 2)]
    with pytest.raises(UnsupportedDomainError):
        canonical_word(gl2(2, 0, 0, 1))


@pytest.mark.parametrize("p,N", MODELS)
def test_canonical_word_operator_matches_direct_generators(p, N):
    m = build_model(p, N)
    # the Bruhat word for a plain torus or unipotent element reproduces
    # the direct generator operator exactly
    for a in (2, -1):
        direct = operator(m, ("t", a))
        via_word = op_of_word(m, canonical_word(sl2(a, 0, 0, Fraction(1, a))), extended=True)
        assert np.max(np.abs(direct - via_word)) < 1e-9
    direct = operator(m, ("n", 2))
    via_word = op_of_word(m, canonical_word(sl2(1, 2, 0, 1)), extended=True)
    assert np.max(np.abs(direct - via_word)) < 1e-9


# projective multipliers ------------------------------------------------------


def test_multiplier_torus_pairs_are_hilbert_symbols():
    deep = build_model(3, 2)
    c = projective_multiplier(
        sl2(3, 0, 0, Fraction(1, 3)), sl2(3, 0, 0, Fraction(1, 3)), deep
    )
    assert snap_sign(c) == hilbert(3, 3, Place.finite(3)) == -1
    for m in models():
        c = projective_multiplier(
            sl2(2, 0, 0, Fraction(1, 2)), sl2(-1, 0, 0, -1), m
        )
        assert snap_sign(c) == hilbert(2, -1, m.place) == 1


def test_multiplier_weyl_squared():
    w = sl2(0, 1, -1, 0)
    for m in models():
        assert snap_sign(projective_multiplier(w, w, m)) == 1


def _sample_blocks(p, N):
    units = [1, 2, -1]
    mats = [sl2(a, 0, 0, Fraction(1, a)) for a in units if a != 1]
    mats += [sl2(1, b, 0, 1) for b in (1, -1)]
    mats += [sl2(0, 1, -1, 0), sl2(1, 0, 1, 1), sl2(2, 1, 1, 1)]
    if N >= 2:
        mats.append(sl2(p, 0, 0, Fraction(1, p)))
    return mats


@pytest.mark.parametrize("p,N", [(3, 2), (5, 1), (7, 1)])
def test_multiplier_agrees_with_kubota_up_to_borel_coboundary(p, N):
    m = build_model(p, N)
    place = Place.finite(p)
    mats = _sample_blocks(p, N)
    nontrivial = 0
    checked = 0
    for g, h in itertools.product(mats, mats):
        try:
            c = snap_sign(projective_multiplier(g, h, m))
        except PreconditionError:
            continue  # composite left the window; not a correctness issue
        kub = kubota_sl2(g, h, place)
        ds = (
            borel_sign(g, place)
            * borel_sign(h, place)
            * borel_sign(g.compose(h), place)
        )
        assert c == kub * ds, (g.rows, h.rows)
        checked += 1
        if c != kub:
            nontrivial += 1
    assert checked > 30
    if (p, N) == (3, 2):
        # the coboundary genuinely fires at depth two over p=3; without
        # this the agreement test would be vacuous
        assert nontrivial > 0


@pytest.mark.parametrize("p,N", [(3, 1), (5, 1)])
def test_multiplier_cocycle_identity(p, N):
    m = build_model(p, N)
    mats = _sample_blocks(p, N)
    rng = random.Random(2)
    triples = list(itertools.product(mats, mats, mats))
    rng.shuffle(triples)
    done = 0
    for g, h, k in triples:
        try:
            lhs = projective_multiplier(g, h, m) * projective_multiplier(
                g.compose(h), k, m
            )
            rhs = projective_multiplier(g, h.compose(k), m) * projective_multiplier(
                h, k, m
            )
        except PreconditionError:
            continue
        assert abs(lhs - rhs) < 1e-6
        done += 1
        if done >= 40:
            break
    assert done >= 40


def test_multiplier_with_square_determinant_blocks():
    chi = UnramifiedCharacter(Place.finite(3), at_uniformizer=Fraction(2))
    m = build_model(3, 2)
    g = gl2(2, 0, 0, 2)  # central, det 4
    h = sl2(0, 1, -1, 0)
    c = projective_multiplier(g, h, m, chi=chi)
    assert abs(abs(c) - 1) < 1e-6
    # chi-dependent letters without a character oracle fail loudly
    with pytest.raises(DomainError):
        projective_multiplier(g, h, m)


# central scalars ------------------------------------------------------------


@pytest.mark.parametrize("p,N", MODELS)
def test_central_word_matches_direct_formula(p, N):
    m = build_model(p, N)
    chi = UnramifiedCharacter(Place.finite(p), at_uniformizer=Fraction(3, 2))
    for a in (2, -1, Fraction(4, 7) if p != 7 else Fraction(4, 5)):
        assert central_word_check(m, a, chi)
    # the word needs both substitutions x -> ax and x -> x/a, so only
    # units stay on the carrier; the scalar formula itself has no window
    with pytest.raises(PreconditionError):
        central_word_check(m, p, chi)
    operator(m, ("central", p), chi_value=chi.value(p))


def test_central_scalar_value():
    m = build_model(5, 1)
    chi = UnramifiedCharacter(Place.finite(5), at_uniformizer=Fraction(2))
    op = operator(m, ("central", 2), chi_value=chi.value(2))
    expect = mu(Fraction(2), m.psi).value()
    assert np.max(np.abs(op - expect * np.eye(25))) < 1e-12


# parity ----------------------------------------------------------------------


@pytest.mark.parametrize("p,N", [(3, 1), (5, 1)])
def test_parity_invariance_of_generators(p, N):
    m = build_model(p, N)
    chi = UnramifiedCharacter(Place.finite(p), at_uniformizer=Fraction(2))
    gens = [
        ("w",),
        ("n", 1),
        ("n", 2),
        ("t", 2),
        ("t", -1),
        ("d", Fraction(1, 2)),
        ("central", 2),
        ("sign", -1),
    ]
    for gen in gens:
        cv = chi.value(gen[1]) if gen[0] in ("d", "central") else None
        assert parity_invariance_check(m, gen, chi_value=cv), gen


# evaluation functionals -------------------------------------------------------


@pytest.mark.parametrize("p,N", MODELS)
def test_whittaker_eigen_property(p, N):
    # evaluation at carrier point b composed with n(c) multiplies by
    # psi(c b^2): row b of n(c) is that one phase, on the diagonal
    m = build_model(p, N)
    cs = [1, 2, -1] + ([p] if N >= 2 else [])
    for c in cs:
        op = operator(m, ("n", c))
        for b_index in (1, 2, m.size - 1, m.size // 2):
            b = Fraction(b_index, p**N)
            expect = cmath.exp(2j * math.pi * float(m.psi.phase(c * b * b)))
            row = np.zeros(m.size, dtype=np.complex128)
            row[b_index] = expect
            assert np.max(np.abs(op[b_index] - row)) < 1e-12, (b_index, c)


def test_whittaker_functional_existence_by_square_class():
    nonresidues = {3: 2, 5: 2, 7: 3}
    for m in models():
        p = m.p
        assert whittaker_functional_exists(m, 1)
        assert whittaker_functional_exists(m, 4)
        assert whittaker_functional_exists(m, p * p)  # same class as 1
        assert not whittaker_functional_exists(m, nonresidues[p])
        assert not whittaker_functional_exists(m, p)
        assert not whittaker_functional_exists(m, nonresidues[p] * p)
    with pytest.raises(DomainError):
        whittaker_functional_exists(build_model(3, 1), 0)


def carrier_square_classes(m):
    """The square classes of scale * x^2 over every nonzero carrier point x,
    by enumeration: the oracle for the closed square-class comparison."""
    return {
        square_class_rep(m.psi.scale * m.point(k) ** 2, m.place) for k in range(1, m.size)
    }


WHITTAKER_TARGETS = [
    sign * Fraction(n, d) * q
    for sign in (1, -1)
    for n in range(1, 13)
    for d in (1, 7)
    for q in (1, 3, 5, 9, 25)
]


@pytest.mark.parametrize("p,N", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_whittaker_functional_exists_matches_carrier_enumeration(p, N):
    for scale in (1, 2, -1, Fraction(3, 7) if p != 3 else Fraction(5, 7), Fraction(-2, 11)):
        m = build_model(p, N, scale=scale)
        seen = carrier_square_classes(m)
        assert len(seen) == 1  # x^2 is a square, so only the scale's class
        for a in WHITTAKER_TARGETS:
            assert whittaker_functional_exists(m, a) == (square_class_rep(a, m.place) in seen), (
                scale,
                a,
            )


# twisting ---------------------------------------------------------------------


@pytest.mark.parametrize("p,N", MODELS)
def test_twist_intertwiner(p, N):
    m = build_model(p, N)
    nonresidues = {3: 2, 5: 2, 7: 3}
    assert twist_intertwiner_check(nonresidues[p], m)
    assert twist_intertwiner_check(4, m)  # square twist runs the intertwiner
    assert twist_intertwiner_check(-1, m)
    with pytest.raises(PreconditionError):
        twist_intertwiner_check(p, m)


def test_twist_torus_sign_fires_at_depth_two():
    # over p=3 the symbol (2, 3) is -1, so the cover sign on the torus
    # generator t(3) is exercised non-trivially at depth two
    m = build_model(3, 2)
    assert hilbert(2, 3, Place.finite(3)) == -1
    assert twist_intertwiner_check(2, m)
    # and a wrong sign convention would fail: flipping the symbol breaks it
    twisted = FiniteWeilModel(3, 2, m.psi.twist(Fraction(2)))
    lhs = -hilbert(2, 3, m.place) * operator(m, ("t", 3))
    rhs = operator(twisted, ("t", 3))
    assert np.max(np.abs(lhs - rhs)) > 0.5


# tensor blocks -----------------------------------------------------------------


def test_tensor_whittaker_square_class_criterion():
    m = build_model(3, 1)
    assert tensor_whittaker_check(m, (1, 2), (1, 2))
    assert tensor_whittaker_check(m, (1, 2), (4, 18))  # square multiples
    assert not tensor_whittaker_check(m, (1, 2), (2, 2))
    assert not tensor_whittaker_check(m, (1, 2), (1, 1))
    assert not tensor_whittaker_check(m, (1, 2), (1, 3))
    assert not tensor_whittaker_check(m, (1, 1), (1, 6))
    with pytest.raises(DomainError):
        tensor_whittaker_check(m, (1, 2), (1,))


def test_tensor_whittaker_reads_square_classes_alone(monkeypatch):
    # a block scale of negative valuation: the twisted block has no carrier
    # of its own, but the answer is a square-class comparison (1/3 ~ 3)
    m = build_model(3, 1)

    def refuse(*args):
        raise AssertionError("a block model was built")

    monkeypatch.setattr(FiniteWeilModel, "__init__", refuse)
    assert tensor_whittaker_check(m, (Fraction(1, 3),), (3,)) is True
    assert tensor_whittaker_check(m, (Fraction(1, 3),), (1,)) is False
    assert tensor_whittaker_check(m, (Fraction(1, 3), 2), (3, 2)) is True


def test_tensor_whittaker_other_models():
    for m in models()[2:]:
        u = {5: 2, 7: 3}[m.p]
        assert tensor_whittaker_check(m, (1, u), (1, u))
        assert not tensor_whittaker_check(m, (1, u), (u, u))


# word machinery ----------------------------------------------------------------


def test_op_of_word_needs_chi_for_d_letters():
    m = build_model(3, 1)
    with pytest.raises(DomainError):
        op_of_word(m, [("d", 2)])
    chi = UnramifiedCharacter(Place.finite(3), at_uniformizer=Fraction(1))
    out = op_of_word(m, [("d", 2), ("sign", -1)], chi=chi)
    assert out.shape == (9, 9)


def test_weyl_operator_value():
    # op(w) = gamma(psi) times the Fourier kernel; at an odd prime with
    # unit scale the index is 1 so op(w) is the plain transform
    m = build_model(7, 1)
    assert gamma(m.psi).value() == 1
    assert np.max(np.abs(operator(m, ("w",)) - dense_fourier(m))) < 1e-12


# dense oracle --------------------------------------------------------------------
#
# The dense construction the library used before operators became actions,
# rebuilt point by point from psi.phase and the explicit transform kernel
# psi(2xy) p^-N. Carrier points and substitution indices are computed here
# from Fractions, phases from Fraction arithmetic and products by dense
# matmul: no FFT, no vectorised indices, nothing shared with the letters.


def carrier_points(m):
    return [Fraction(k, m.p**m.N) for k in range(m.size)]


def carrier_index(m, x):
    """The carrier index of a point x of the lattice p^-N Z_p: the k with
    x = k / p^N modulo p^N Z_p."""
    y = x * m.p**m.N
    return y.numerator * pow(y.denominator, -1, m.size) % m.size


@functools.cache
def dense_fourier(m):
    pts = carrier_points(m)
    return np.array(
        [[cmath.exp(2j * math.pi * float(m.psi.phase(2 * x * y))) for y in pts] for x in pts]
    ) * m.p ** (-m.N)


def dense_operator(m, gen, chi_value=None):
    M, p = m.size, m.p
    kind = gen[0]
    if kind == "w":
        return gamma(m.psi).value() * dense_fourier(m)
    if kind == "n":
        b = Fraction(gen[1])
        return np.diag(
            [cmath.exp(2j * math.pi * float(m.psi.phase(b * x * x))) for x in carrier_points(m)]
        )
    if kind in ("t", "d"):
        a = Fraction(gen[1])
        v, _ = valuation_and_unit(a, p)
        if kind == "t":
            target, scalar = a, p ** (-v / 2) * mu(a, m.psi).value()
        else:
            target, scalar = 1 / a, complex(chi_value) * p ** (v / 2)
        out = np.zeros((M, M), dtype=np.complex128)
        for k, x in enumerate(carrier_points(m)):
            out[k, carrier_index(m, target * x)] = scalar
        return out
    if kind == "central":
        return complex(chi_value) * mu(Fraction(gen[1]), m.psi).value() * np.eye(M)
    return float(gen[1]) * np.eye(M)


def dense_word(m, word, chi=None):
    out = np.eye(m.size, dtype=np.complex128)
    for gen in word:
        cv = chi.value(gen[1]) if gen[0] in ("d", "central") else None
        out = out @ dense_operator(m, gen, cv)
    return out


ORACLE_MODELS = [(3, 1), (3, 2), (5, 1)]


def _oracle_generators(p, N):
    gens = [("w",), ("n", 1), ("n", 2), ("n", -1), ("n", Fraction(-2, 7)), ("t", 2), ("t", -1),
            ("t", Fraction(4, 7)), ("d", 2), ("d", Fraction(1, 2)), ("central", 2),
            ("central", p), ("sign", 1), ("sign", -1)]
    if N >= 2:
        gens += [("n", p), ("n", 2 * p * p), ("t", p), ("t", 2 * p), ("d", Fraction(1, p))]
    return gens


@pytest.mark.parametrize("p,N", ORACLE_MODELS)
def test_operator_matches_dense_oracle(p, N):
    m = build_model(p, N, scale=Fraction(2, 5) if (p, N) == (3, 2) else 1)
    chi = UnramifiedCharacter(Place.finite(p), at_uniformizer=Fraction(3, 2))
    for gen in _oracle_generators(p, N):
        cv = chi.value(gen[1]) if gen[0] in ("d", "central") else None
        got = operator(m, gen, chi_value=cv)
        assert np.max(np.abs(got - dense_operator(m, gen, cv))) < 1e-12, gen


@pytest.mark.parametrize("p,N", ORACLE_MODELS)
def test_words_and_fourier_match_dense_oracle(p, N):
    m = build_model(p, N)
    chi = UnramifiedCharacter(Place.finite(p), at_uniformizer=Fraction(3, 2))
    mats = _sample_blocks(p, N) + [sl2(7, 3, 2, 1), gl2(2, 0, 0, 2), gl2(2, 4, 1, 4)]
    for g in mats:
        word = canonical_word(g)
        got = op_of_word(m, word, chi=chi, extended=True)
        assert np.max(np.abs(got - dense_word(m, word, chi))) < 1e-12, word
    f = random_function(m, 3)
    got = word_action(m, [("w",)])(f[:, None])[:, 0]
    assert np.max(np.abs(got - gamma(m.psi).value() * dense_fourier(m) @ f)) < 1e-12


_cached_model = functools.cache(build_model)


def dense_multiplier(g, h, m, chi=None):
    """The multiplier as the library took it before streaming: both M x M
    sides materialised, here with a dense matmul, and c read off the largest
    entry of op(gh) anywhere."""
    op_g = op_of_word(m, canonical_word(g), chi=chi, extended=True)
    op_h = op_of_word(m, canonical_word(h), chi=chi, extended=True)
    ogh = op_of_word(m, canonical_word(g.compose(h)), chi=chi, extended=True)
    prod = op_g @ op_h
    k = np.unravel_index(np.argmax(np.abs(ogh)), ogh.shape)
    if abs(ogh[k]) < weil_rep.OP_TOL:
        raise ModelInconsistencyError("product word operator vanished")
    c = prod[k] / ogh[k]
    resid = np.max(np.abs(prod - c * ogh))
    if resid > 1e-6 * max(1.0, float(np.max(np.abs(prod)))):
        raise ModelInconsistencyError(f"operators are not proportional: residual {resid}")
    return complex(c)


def dense_parity(m, gen, chi_value=None):
    """Parity invariance on the dense operator: P op P == op."""
    op = operator(m, gen, chi_value=chi_value)
    neg = m.negate_indices()
    return bool(np.max(np.abs(op[np.ix_(neg, neg)] - op)) < weil_rep.OP_TOL)


def dense_twist(a, m):
    """The twist check on dense operators, with the library's default samples;
    every operator is built, and so validated, even after a mismatch."""
    a = Fraction(a)
    p = m.p
    if valuation_and_unit(a, p)[0] != 0:
        raise PreconditionError("non-unit twist")
    t_samples = (2, -1) + ((p,) if m.N >= 2 else ())
    b_samples = (1, 2, -1) + ((p,) if m.N >= 2 else ())
    twisted = FiniteWeilModel(p, m.N, m.psi.twist(a))
    pairs = [(operator(m, ("n", Fraction(b) * a)), operator(twisted, ("n", b))) for b in b_samples]
    pairs.append((op_of_word(m, [("w",), ("t", 1 / a)]), operator(twisted, ("w",))))
    for c in t_samples:
        sign = hilbert(a, c, m.place)
        pairs.append((sign * operator(m, ("t", c)), operator(twisted, ("t", c))))
    croot = weil_rep._sqrt_fraction(a)
    if croot is not None:
        idx = m.scale_indices(croot)
        gens = [("w",), ("n", 2), ("t", 2)] + ([("t", p)] if m.N >= 2 else [])
        for gen in gens:
            pairs.append((operator(m, gen)[np.ix_(idx, idx)], operator(twisted, gen)))
    return all(np.max(np.abs(lhs - rhs)) < weil_rep.OP_TOL for lhs, rhs in pairs)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (DomainError, ModelInconsistencyError) as exc:
        return type(exc)


def same_outcome(got, want, tol=1e-12):
    if isinstance(want, complex):
        return isinstance(got, complex) and abs(got - want) < tol
    return got == want


def corrupt_letters(monkeypatch, kind, column, only=lambda model: True):
    """Every letter of the given kind (on the models ``only`` accepts) also
    adds half of entry ``column`` to entry 0: a rank-one error confined to
    that column of the letter's matrix."""
    letter = weil_rep._letter

    def corrupted(model, gen, *args, **kwargs):
        act = letter(model, gen, *args, **kwargs)
        if gen[0] != kind or not only(model):
            return act

        def bent(X):
            out = act(X).copy()
            out[0] += 0.5 * X[column % model.size]
            return out

        return bent

    monkeypatch.setattr(weil_rep, "_letter", corrupted)


@pytest.mark.parametrize("p,N", ORACLE_MODELS)
def test_streamed_multiplier_matches_dense_oracle(p, N):
    m = build_model(p, N)
    rng = random.Random(f"multiplier:{p},{N}")
    mats = _sample_blocks(p, N)
    pairs = [(rng.choice(mats), rng.choice(mats)) for _ in range(40)]
    for _ in range(12):
        g, h, k = rng.choice(mats), rng.choice(mats), rng.choice(mats)
        pairs += [(g, h), (g.compose(h), k), (g, h.compose(k)), (h, k)]
    computed = 0
    for g, h in pairs:
        got = outcome(projective_multiplier, g, h, m)
        want = outcome(dense_multiplier, g, h, m)
        assert same_outcome(got, want), (g.rows, h.rows, got, want)
        computed += isinstance(got, complex)
    assert computed > len(pairs) // 2
    chi = UnramifiedCharacter(Place.finite(p), at_uniformizer=Fraction(3, 2))
    for g in (gl2(2, 0, 0, 2), gl2(2, 4, 1, 4)):
        for h in mats[:6]:
            got = outcome(projective_multiplier, g, h, m, chi=chi)
            assert same_outcome(got, outcome(dense_multiplier, g, h, m, chi=chi))


@pytest.mark.parametrize("p,N", ORACLE_MODELS)
def test_streamed_parity_and_twist_match_dense_oracles(p, N, monkeypatch):
    m = build_model(p, N)
    chi = UnramifiedCharacter(Place.finite(p), at_uniformizer=Fraction(3, 2))
    twists = (2, 3, -1, 4, Fraction(1, 4), Fraction(-3, 7), p)

    def compare():
        for gen in _oracle_generators(p, N):
            cv = chi.value(gen[1]) if gen[0] in ("d", "central") else None
            assert outcome(parity_invariance_check, m, gen, chi_value=cv) == outcome(
                dense_parity, m, gen, chi_value=cv
            ), gen
        for a in twists:
            assert outcome(twist_intertwiner_check, a, m) == outcome(dense_twist, a, m), a

    compare()
    # and where the answer is False: seeded corrupted columns of one letter kind
    rng = random.Random(f"corrupt:{p},{N}")
    for kind in ("w", "n", "t"):
        with monkeypatch.context() as mp:
            corrupt_letters(mp, kind, rng.randrange(1, m.size), only=lambda model: model.psi.scale == 1)
            assert not parity_invariance_check(m, (kind, 2) if kind != "w" else ("w",))
            compare()


# corruption confined to the last column block: a check that stops early, or
# reads only its first block, passes these
STREAMED = (5, 2)


def _blocks(m):
    return list(weil_rep._column_blocks(m.size))


def test_multiplier_sees_a_last_block_corruption(monkeypatch):
    m = build_model(*STREAMED)
    blocks = _blocks(m)
    assert len(blocks) > 2 and m.size - 1 in blocks[-1] and 0 in blocks[0]
    g = h = sl2(1, 1, 0, 1)
    assert snap_sign(projective_multiplier(g, h, m)) == 1
    # n(1) n(1) = n(2): the product carries the error twice, op(gh) once, and
    # the difference lives in the last column alone
    corrupt_letters(monkeypatch, "n", m.size - 1)
    with pytest.raises(ModelInconsistencyError):
        projective_multiplier(g, h, m)


def test_twist_sees_a_last_block_corruption(monkeypatch):
    m = build_model(*STREAMED)
    assert twist_intertwiner_check(2, m)
    corrupt_letters(monkeypatch, "t", m.size - 1, only=lambda model: model.psi.scale != 1)
    assert not twist_intertwiner_check(2, m)


def test_parity_sees_a_middle_block_corruption(monkeypatch):
    # P E P moves a column j to -j, and the first block mirrors into the last,
    # so the telling corruption for parity sits in a middle block
    m = build_model(*STREAMED)
    j = m.size // 2
    blocks = _blocks(m)
    middle = [i for i, cols in enumerate(blocks) if j in cols or m.size - j in cols]
    assert 0 not in middle and len(blocks) - 1 not in middle
    assert parity_invariance_check(m, ("t", 2))
    corrupt_letters(monkeypatch, "t", j)
    assert not parity_invariance_check(m, ("t", 2))


def test_central_scalar_row_sees_a_last_block_corruption(monkeypatch):
    rows = {case_id: fn for case_id, _, fn in checks.weilrep_suite(*STREAMED)}
    row = rows["weilrep/central-scalar@(5,2)"]
    assert row(random.Random(0)) == (0, 0)
    corrupt_letters(monkeypatch, "central", build_model(*STREAMED).size - 1)
    assert row(random.Random(0)) == (0, 4)


# fused stages and the three check paths ----------------------------------------
#
# A word is a list of stages with neighbouring monomials fused. Two monomial
# sides are compared in O(M) (path a); a chain monomial -> Fourier -> monomial
# with a bijective head is built in closed form from the model's roots table
# (path b); anything else streams identity blocks through the FFT (path c).

W, LOWER = sl2(0, 1, -1, 0), sl2(1, 0, 1, 1)
# at (3,2) its word is n(1) w t(-3) n(1): t(3) gathers k -> 3k, no bijection
NON_BIJECTIVE_HEAD = sl2(3, Fraction(8, 3), 3, 3)


def count_ffts(monkeypatch):
    calls = []
    real = np.fft.ifft

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counting)
    return calls


def monomial_matrix(mono):
    out = np.zeros((len(mono.index), len(mono.index)), dtype=np.complex128)
    out[np.arange(len(mono.index)), mono.index] = mono.scale
    return out


@pytest.mark.parametrize("p,N", ORACLE_MODELS)
def test_fast_paths_match_dense_oracle(p, N, monkeypatch):
    m = build_model(p, N)
    chi = UnramifiedCharacter(Place.finite(p), at_uniformizer=Fraction(3, 2))
    mats = _sample_blocks(p, N) + [gl2(2, 0, 0, 2), gl2(2, 4, 1, 4)]
    pairs = list(itertools.product(mats, mats)) + [(W, LOWER)]
    if (p, N) == (3, 2):
        pairs.append((sl2(1, 1, 0, 1), NON_BIJECTIVE_HEAD))
    ffts = count_ffts(monkeypatch)
    paths = {"a": 0, "b": 0, "c": 0}
    for g, h in pairs:
        words = [canonical_word(x) for x in (g, h, g.compose(h))]
        try:
            act_g, act_h, act_gh = (weil_rep.word_action(m, w, chi=chi, extended=True) for w in words)
        except PreconditionError:
            continue
        dense_g, dense_h, dense_gh = (dense_word(m, w, chi) for w in words)
        for side, dense in ((weil_rep._chain(act_h, act_g), dense_g @ dense_h), (act_gh, dense_gh)):
            mono = weil_rep._single_monomial(side)
            if mono is not None:
                paths["a"] += 1
                got = monomial_matrix(mono)
            else:
                ffts.clear()
                columns = weil_rep._column_source(m, side)
                got = np.hstack([columns(cols) for cols in weil_rep._column_blocks(m.size)])
                paths["b" if not ffts else "c"] += 1
            assert np.max(np.abs(got - dense)) < 1e-12, (g.rows, h.rows)
        assert same_outcome(
            outcome(projective_multiplier, g, h, m, chi=chi),
            outcome(dense_multiplier, g, h, m, chi=chi),
        ), (g.rows, h.rows)
    assert paths["a"] > 10 and paths["b"] > 10
    # two w letters in op(g) op(h), and a head t(p) before w, take path c
    for g, h in [(W, LOWER)] + ([(sl2(1, 1, 0, 1), NON_BIJECTIVE_HEAD)] if (p, N) == (3, 2) else []):
        prod = weil_rep._chain(*(weil_rep.word_action(m, canonical_word(x), extended=True) for x in (h, g)))
        ffts.clear()
        weil_rep._column_source(m, prod)(np.arange(2))
        assert ffts and weil_rep._single_monomial(prod) is None


def _mutated(act, what, row):
    """act with one entry of its last monomial's scale or index changed."""
    stages = tuple(act)
    last = stages[-1]
    scale, index = np.array(last.scale), last.index.copy()
    if what == "scale":
        scale[row] = -scale[row]
    else:
        index[row] = (index[row] + 1) % len(index)
    return weil_rep._Action(stages[:-1] + (weil_rep._Monomial(scale, index),))


@pytest.mark.parametrize("what", ["scale", "index"])
def test_fast_paths_see_a_mutated_monomial(what, monkeypatch):
    m = build_model(*STREAMED)
    row = m.size - 1
    cases = [
        # path a: two torus letters; path b: an LU pair, one Fourier stage a side
        (sl2(2, 0, 0, Fraction(1, 2)), sl2(-1, 0, 0, -1), [("t", 2), ("n", 1)]),
        (LOWER, sl2(2, 1, 0, Fraction(1, 2)), [("n", 1), ("w",), ("t", 2)]),
    ]
    for g, h, word in cases:
        act = weil_rep.word_action(m, word)
        assert weil_rep._actions_agree(m, act, weil_rep.word_action(m, word))
        assert not weil_rep._actions_agree(m, act, _mutated(act, what, row))
        projective_multiplier(g, h, m)
        real, calls = weil_rep.word_action, []

        def gh_mutated(*args, **kwargs):
            # the third word built is gh's
            calls.append(real(*args, **kwargs))
            return _mutated(calls[-1], what, row) if len(calls) == 3 else calls[-1]

        with monkeypatch.context() as mp:
            mp.setattr(weil_rep, "word_action", gh_mutated)
            with pytest.raises(ModelInconsistencyError):
                projective_multiplier(g, h, m)


def test_fast_paths_see_a_mutated_root():
    # no phase letter n(+-1) at (3,2) reads roots[3]: x^2 = +-3 mod 81 has no
    # solution, so only the closed-form Fourier columns see the change
    m = build_model(3, 2)
    act = weil_rep.word_action(m, [("n", 1), ("w",), ("t", 2)])

    def streamed(X):  # an opaque stage: path c
        return act(X)

    assert weil_rep._actions_agree(m, act, streamed)
    c = projective_multiplier(W, LOWER, m)
    m.roots[3] = -m.roots[3]
    assert not weil_rep._actions_agree(m, act, streamed)
    # op(W) op(LOWER) has two Fourier stages and streams; op(W LOWER) does not
    with pytest.raises(ModelInconsistencyError):
        projective_multiplier(W, LOWER, m)
    m.roots[3] = -m.roots[3]
    assert projective_multiplier(W, LOWER, m) == c


def test_lu_pair_runs_without_an_fft(monkeypatch):
    m = build_model(3, 2)
    lu = (LOWER, sl2(2, 1, 0, Fraction(1, 2)))
    want = [dense_multiplier(*lu, m), dense_multiplier(W, LOWER, m)]
    ffts = count_ffts(monkeypatch)
    assert abs(projective_multiplier(*lu, m) - want[0]) < 1e-12
    assert ffts == []
    assert abs(projective_multiplier(W, LOWER, m) - want[1]) < 1e-12
    assert ffts


def test_dense_materialisers_stop_at_the_cap():
    big = build_model(11, 2)  # M = 14641: a dense complex matrix would take 3.4 GB
    calls = [
        lambda: operator(big, ("w",)),
        lambda: op_of_word(big, [("n", 1), ("w",)]),
        lambda: op_of_word(big, canonical_word(sl2(1, 1, 0, 1)), extended=True),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedDomainError, match="cap"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before anything was allocated


# Runs one multiplier with a w letter, a parity check and a twist check on
# the (7,2) model (M = 2401) and prints the process's peak resident set in
# KiB. On Linux ru_maxrss also carries the resident set of the process that
# spawned this one, so the probe reads its own high-water mark, VmHWM.
MEMORY_PROBE = """\
import resource
from metaplectic.cocycle import sl2
from metaplectic.weil_rep import (
    build_model, parity_invariance_check, projective_multiplier, twist_intertwiner_check,
)
m = build_model(7, 2)
c = projective_multiplier(sl2(0, 1, -1, 0), sl2(1, 1, 0, 1), m)
assert abs(abs(c) - 1) < 1e-6, c
assert parity_invariance_check(m, ("w",))
assert twist_intertwiner_check(3, m)
try:
    with open("/proc/self/status") as status:
        peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except OSError:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak)
"""


def test_streamed_checks_stay_small_at_m2401():
    # dense M x M sides peaked near 380 MB here; streamed blocks stay near
    # the cost of importing numpy
    src = Path(weil_rep.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    peak_kib = int(proc.stdout.split()[-1])
    assert peak_kib < 150 * 1024, peak_kib


def test_multiplier_rejects_non_proportional_sides(monkeypatch):
    m = build_model(3, 1)
    g = h = sl2(1, 1, 0, 1)
    assert snap_sign(projective_multiplier(g, h, m)) == 1
    letter = weil_rep._letter

    def corrupted(model, gen, *args, **kwargs):
        act = letter(model, gen, *args, **kwargs)
        if gen[0] != "n":
            return act

        def flipped(X):
            # the phase at one carrier point comes out with the wrong sign
            out = act(X).copy()
            out[1] *= -1
            return out

        return flipped

    monkeypatch.setattr(weil_rep, "_letter", corrupted)
    # op(g) op(h) carries the flip twice, op(gh) once: one row of the
    # product disagrees with every other by a sign
    with pytest.raises(ModelInconsistencyError):
        projective_multiplier(g, h, m)


@given(
    p=st.sampled_from((3, 5, 7)),
    u=st.integers(min_value=1, max_value=60),
    w=st.integers(min_value=1, max_value=60),
    signs=st.tuples(st.booleans(), st.booleans()),
    vals=st.tuples(st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=1)),
)
@settings(max_examples=40, deadline=None)
def test_torus_multiplier_is_hilbert_symbol_hypothesis(p, u, w, signs, vals):
    # units u, w prime to p, times a uniformizer power; the depth-two model
    # is only needed (and only built) when a uniformizer is drawn
    if u % p == 0 or w % p == 0:
        return
    a = (-1 if signs[0] else 1) * u * p ** vals[0]
    b = (-1 if signs[1] else 1) * w * p ** vals[1]
    m = _cached_model(p, 2 if any(vals) else 1)
    c = projective_multiplier(sl2(a, 0, 0, Fraction(1, a)), sl2(b, 0, 0, Fraction(1, b)), m)
    assert snap_sign(c) == hilbert(a, b, m.place)
