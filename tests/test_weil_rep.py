"""Finite lattice model: Fourier exactness, generator windows, projective
multipliers against the closed cocycle formulas, parity, evaluation
functionals, twisting, and small tensor blocks."""

import cmath
import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplectic import weil_rep
from metaplectic.cocycle import UnramifiedCharacter, gl2, kubota_sl2, sl2
from metaplectic.errors import (
    DomainError,
    ModelInconsistencyError,
    PreconditionError,
    UnsupportedDomainError,
)
from metaplectic.local_arith import Place, hilbert, valuation_and_unit
from metaplectic.weil_index import gamma, mu
from metaplectic.weil_rep import (
    FiniteWeilModel,
    ModelFunction,
    borel_sign,
    build_model,
    canonical_word,
    central_word_check,
    fourier,
    op_of_word,
    operator,
    operator_for_matrix,
    parity_invariance_check,
    projective_multiplier,
    tensor_whittaker_check,
    twist_intertwiner_check,
    whittaker_eigen_check,
    whittaker_functional_exists,
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


def test_carrier_indexing():
    m = build_model(5, 1)
    assert m.point(0) == 0
    assert m.point(7) == Fraction(7, 5)
    assert m.negate_index(7) == 18
    assert m.scale_index(7, Fraction(2)) == 14
    # scaling by p collapses depth: x=7/5 -> 7, index 7*5 mod 25
    assert m.scale_index(7, 5) == 10
    with pytest.raises(PreconditionError):
        m.scale_index(7, Fraction(1, 5))


# Fourier --------------------------------------------------------------------


@pytest.mark.parametrize("p,N", MODELS)
def test_fourier_double_transform_is_parity_flip(p, N):
    m = build_model(p, N)
    rng = random.Random(11)
    f = ModelFunction.random(m, rng)
    twice = fourier(fourier(f))
    flipped = f._flip()
    assert np.max(np.abs(twice.values - flipped)) < 1e-9


@pytest.mark.parametrize("p,N", MODELS)
def test_fourier_is_unitary(p, N):
    m = build_model(p, N)
    F = m.fourier_matrix()
    assert np.max(np.abs(F @ F.conj().T - np.eye(m.size))) < 1e-9


def test_integer_indicator_is_fourier_fixed_point():
    # the unit lattice is self-dual for an unramified character
    for m in models():
        f = ModelFunction.indicator_integers(m)
        assert np.max(np.abs(fourier(f).values - f.values)) < 1e-9


def test_even_odd_split():
    m = build_model(3, 1)
    rng = random.Random(5)
    f = ModelFunction.random(m, rng)
    assert np.max(np.abs(f.even_part().values + f.odd_part().values - f.values)) < 1e-12
    # only the origin is fixed by negation, so the odd part vanishes there
    assert abs(f.odd_part().values[0]) < 1e-12
    fixed = sum(1 for k in range(m.size) if m.negate_index(k) == k)
    assert fixed == 1


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
    word = canonical_word(((Fraction(4), Fraction(0)), (Fraction(0), Fraction(1))))
    assert word[-1] == ("d", Fraction(2))
    with pytest.raises(UnsupportedDomainError):
        canonical_word(((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))))


@pytest.mark.parametrize("p,N", MODELS)
def test_canonical_word_operator_matches_direct_generators(p, N):
    m = build_model(p, N)
    # the Bruhat word for a plain torus or unipotent element reproduces
    # the direct generator operator exactly
    for a in (2, -1):
        direct = operator(m, ("t", a))
        via_word = operator_for_matrix(m, sl2(a, 0, 0, Fraction(1, a)))
        assert np.max(np.abs(direct - via_word)) < 1e-9
    direct = operator(m, ("n", 2))
    via_word = operator_for_matrix(m, sl2(1, 2, 0, 1))
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
    m = build_model(p, N)
    cs = [1, 2, -1] + ([p] if N >= 2 else [])
    for b_index in (1, 2, m.size - 1, m.size // 2):
        for c in cs:
            assert whittaker_eigen_check(m, b_index, c)


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
    assert np.max(np.abs(operator(m, ("w",)) - m.fourier_matrix())) < 1e-12


# dense oracle --------------------------------------------------------------------
#
# The dense construction the library used before operators became actions,
# rebuilt point by point from psi.phase, scale_index and the explicit
# transform kernel psi(2xy) p^-N. Phases come from Fraction arithmetic and
# products from dense matmul, with no FFT and no vectorised indices; only the
# substitution residue inside scale_index is shared with the letter actions.


@functools.cache
def dense_fourier(m):
    pts = m.points()
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
            [cmath.exp(2j * math.pi * float(m.psi.phase(b * x * x))) for x in m.points()]
        )
    if kind in ("t", "d"):
        a = Fraction(gen[1])
        v, _ = valuation_and_unit(a, p)
        if kind == "t":
            target, scalar = a, p ** (-v / 2) * mu(a, m.psi).value()
        else:
            target, scalar = 1 / a, complex(chi_value) * p ** (v / 2)
        out = np.zeros((M, M), dtype=np.complex128)
        for k in range(M):
            out[k, m.scale_index(k, target)] = scalar
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
    gens = [("w",), ("n", 1), ("n", 2), ("n", Fraction(-2, 7)), ("t", 2), ("t", -1),
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
    f = ModelFunction.random(m, random.Random(3))
    assert np.max(np.abs(fourier(f).values - dense_fourier(m) @ f.values)) < 1e-12
    assert np.max(np.abs(m.fourier_matrix() - dense_fourier(m))) < 1e-12


_cached_model = functools.cache(build_model)


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
