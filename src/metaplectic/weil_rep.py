"""A finite lattice-quotient model of the Weil representation at an odd prime.

The carrier is the quotient (p^-N integers)/(p^N integers), of size p^(2N),
with each point carrying Haar mass p^-N. Functions on it stand in for
Schwartz functions supported on the lattice p^-N Z_p and constant on cosets
of p^N Z_p; that window is self-dual, so the Fourier transform F with
kernel psi(2xy) and mass p^-N acts exactly and F^2 is exactly the parity
flip. F is defined in one place, the w letter.

Generator actions (chi is an auxiliary multiplicative character, supplied
as already-evaluated values where needed):

    w         f -> gamma(psi) * F f
    n(b)      f -> psi(b x^2) f(x)
    t(a)      f -> |a|^(1/2) mu(a) f(a x)
    d(s)      f -> chi(s) |s|^(-1/2) f(s^-1 x)   (the cover point diag(1, s^2))
    central(a)f -> chi(a) mu(a) f(x)
    sign(xi)  f -> xi f(x)

Window discipline: a substitution x -> a x is well defined on the carrier
only for v_p(a) >= 0 (negative valuations push points off the lattice, and
quadratic phases psi(b x^2) need v_p(b) >= 0 to be constant on cosets).
Direct generator applications additionally keep |v_p| small enough that the
model is a faithful truncation: v(a) <= N-1 for t, v(b) <= 2N-2 for n,
v(s) >= -(N-1) for d. Canonical words for products are allowed twice the
t-depth, since products of in-window generators land there. Violations
raise PreconditionError, never wrap around silently.

Operators are actions on blocks of columns, not stored matrices. A word is
a list of stages: every letter but w is one monomial (a gather of carrier
indices times a per-point scale), w is an inverse FFT and then a monomial,
and neighbouring monomials are fused in O(M), M = p^(2N). Two monomial
sides are compared in O(M); a chain monomial -> Fourier -> monomial with a
bijective head is built in closed form from the M-th roots of unity, O(M^2)
gathers. Only past the first Fourier stage, or behind a head that is not a
bijection, does a check run the FFT, O(M^2 log M). Columns are built in
blocks of B = max(1, 2^13 // M), under 128 KiB each up to M = 2^13, so
memory is O(M B). The dense matrix of a letter (operator) or of a word
(op_of_word) is its action applied to the whole identity, built only on
request and only up to M = 2500 carrier points (100 MB per matrix).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import (
    DomainError,
    ModelInconsistencyError,
    PreconditionError,
    UnsupportedDomainError,
    shown,
)
from .local_arith import (
    Frozen,
    Place,
    _split,
    as_fraction,
    hilbert,
    is_prime,
    same_square_class,
    valuation_and_unit,
)
from .weil_index import AdditiveCharacter, gamma, mu

OP_TOL = 1e-9

# complex entries per streamed column block: 2^13 of them take 128 KiB
_BLOCK_ENTRIES = 1 << 13

# dense M x M materialisers stop here; one complex matrix at the cap is 100 MB
_DENSE_SIZE_CAP = 2500

# build_model stops here. A multiplier check takes O(M^2) gathers in closed
# form and O(M^2 log M) time past one Fourier letter, about 9 s and 30 s at
# the largest windows in use, (11,2) and (5,3) with M = 14641 and 15625;
# past them the time grows without a use that needs it.
_MODEL_SIZE_CAP = 1 << 14


def _sqrt_fraction(x: Fraction):
    """Exact rational square root, or None."""
    if x <= 0:
        return None
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


class FiniteWeilModel(Frozen):
    """Carrier, exact phase bookkeeping, and the Fourier index for one
    (p, N, psi). The additive character must have unit scale so the kernel
    psi(2xy) is well defined pointwise on the carrier. ``roots`` holds
    exp(2 pi i r / M) for r = 0..M-1: every quadratic phase is one of them,
    and so is every Fourier kernel entry up to the factor p^-N."""

    __slots__ = ("p", "N", "psi", "size", "place", "roots", "_fourier_index")

    def __init__(self, p: int, N: int, psi: AdditiveCharacter):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "size", p ** (2 * N))
        # the character's place, which has certified p already
        object.__setattr__(self, "place", psi.place)
        k = np.arange(self.size, dtype=np.int64)
        object.__setattr__(self, "roots", np.exp(2j * np.pi * (k / self.size)))
        # psi(2 x_j x_k) = exp(2 pi i c2 j k / M) with c2 = 2 * scale mod M
        c2 = self._residue(2 * psi.scale)
        object.__setattr__(self, "_fourier_index", c2 * k % self.size)

    def point(self, k: int) -> Fraction:
        """The rational value of carrier index k: k / p^N."""
        return Fraction(k % self.size, self.p**self.N)

    def negate_indices(self) -> np.ndarray:
        """The index of -x_k, for every carrier index k."""
        return -np.arange(self.size, dtype=np.int64) % self.size

    def _residue(self, a: Fraction) -> int:
        """a mod M for a rational a with p-integral denominator."""
        return a.numerator * pow(a.denominator, -1, self.size) % self.size

    def scale_indices(self, a) -> np.ndarray:
        """The index of a * x_k, for every carrier index k; requires
        v_p(a) >= 0."""
        a = as_fraction(a)
        if a == 0:
            raise DomainError("valuation of 0 is undefined")
        v = _split(a, self.p)[0]
        if v < 0:
            raise PreconditionError(
                f"substitution by valuation {v} leaves the carrier"
            )
        return self._residue(a) * np.arange(self.size, dtype=np.int64) % self.size

    def __repr__(self):
        return f"FiniteWeilModel(p={self.p}, N={self.N}, scale={self.psi.scale})"


def check_model_size(p: int, N: int, cap: int):
    """build_model's errors for p and N, then a refusal of a model with more
    than ``cap`` carrier points M = p^(2N)."""
    if not is_prime(p) or p == 2:
        raise UnsupportedDomainError(f"need an odd prime, got {p}")
    if N < 1:
        raise DomainError("window depth must be at least 1")
    # p >= 3 gives M >= 2^(2N), so a deep window is refused before p^(2N) is formed
    if 2 * N >= cap.bit_length():
        size = f"{p}^{2 * N}"
    elif p ** (2 * N) > cap:
        size = f"{p ** (2 * N)} = {p}^{2 * N}"
    else:
        return
    raise UnsupportedDomainError(
        f"model ({p},{N}) has M = {size} carrier points, above the cap of {cap}"
    )


def build_model(p: int, N: int, scale=1) -> FiniteWeilModel:
    """Model constructor; odd prime p, window depth N >= 1, unit scale."""
    check_model_size(p, N, _MODEL_SIZE_CAP)
    scale = as_fraction(scale)
    place = Place.finite(p)
    v, _ = valuation_and_unit(scale, p)
    if v != 0:
        raise PreconditionError(
            "character scale must be a unit; twist the model, not the lattice"
        )
    return FiniteWeilModel(p, N, AdditiveCharacter(place, scale))


# generator operators -----------------------------------------------------


def _check_window(v: int, lo: int, hi: int, what: str):
    if not (lo <= v <= hi):
        raise PreconditionError(
            f"{what} valuation {v} outside window [{lo}, {hi}]"
        )


class _Monomial:
    """The stage X -> scale * X[index]: a gather of carrier rows by an index
    array times one scale per row, from a scalar or a length-M vector."""

    __slots__ = ("scale", "index")

    def __init__(self, scale, index):
        if not isinstance(scale, np.ndarray):
            scale = np.full(len(index), scale)
        self.scale, self.index = scale, index

    def __call__(self, X):
        return self.scale[:, None] * X[self.index]

    def then(self, after: "_Monomial") -> "_Monomial":
        """This stage followed by ``after``, as one stage: (s_a, i_a) o
        (s_b, i_b) = (s_a s_b[i_a], i_b[i_a])."""
        return _Monomial(after.scale * self.scale[after.index], self.index[after.index])


def _ifft(X):
    """The Fourier stage: the unscaled inverse FFT along the carrier axis."""
    return np.fft.ifft(X, axis=0)


class _Action(tuple):
    """Stages applied first to last to a block of columns X of shape (M, c).
    A stage is any callable; only _Monomial and _ifft have fast paths."""

    def __call__(self, X):
        for stage in self:
            X = stage(X)
        return X


def _chain(*actions) -> _Action:
    """The actions applied in the order given, as one action whose
    neighbouring monomial stages are fused into one."""
    stages = []
    for stage in (s for act in actions for s in (act if isinstance(act, _Action) else (act,))):
        if isinstance(stage, _Monomial) and stages and isinstance(stages[-1], _Monomial):
            stages[-1] = stages[-1].then(stage)
        else:
            stages.append(stage)
    return _Action(stages)


def _letter(model: FiniteWeilModel, gen, chi_value=None, extended: bool = False):
    """One generator as its action X -> op(gen) X on a block of columns X of
    shape (M, c): one monomial stage, or for w the Fourier stage and then one.
    Arguments and windows are those of operator()."""
    M, p, N = model.size, model.p, model.N
    k = np.arange(M, dtype=np.int64)
    kind = gen[0]
    if kind == "w":
        # the transform (F X)[k] = p^-N sum_j psi(2 x_j x_k) X[j], which is
        # p^N ifft(X)[c2 k mod M], times gamma(psi): p^N joins the one scalar
        scalar = gamma(model.psi).value() * p**N
        return _Action((_ifft, _Monomial(scalar, model._fourier_index)))
    if kind == "n":
        b = as_fraction(gen[1])
        if b == 0:
            return _Monomial(1.0, k)
        v = _split(b, p)[0]
        hi = 2 * N - 2 if not extended else 4 * N - 4
        _check_window(v, 0, max(hi, 0), "quadratic phase")
        # psi(b x_k^2) = exp(2 pi i (scale b k^2 mod M) / M) with x_k = k / p^N
        residues = model._residue(model.psi.scale * b) * (k * k % M) % M
        return _Monomial(model.roots[residues], k)
    if kind == "t":
        a = as_fraction(gen[1])
        if a == 0:
            raise DomainError("torus entry must be nonzero")
        v = _split(a, p)[0]
        hi = N - 1 if not extended else 2 * N - 2
        _check_window(v, 0, max(hi, 0), "torus substitution")
        scalar = p ** (-v / 2) * mu(a, model.psi).value()
        return _Monomial(scalar, model.scale_indices(a))
    if kind == "d":
        s = as_fraction(gen[1])
        if s == 0:
            raise DomainError("square-torus parameter must be nonzero")
        if chi_value is None:
            raise DomainError("d-generator needs the character value at s")
        v = _split(s, p)[0]
        lo = -(N - 1) if not extended else -(2 * N - 2)
        _check_window(v, min(lo, 0), 0, "inverse substitution")
        scalar = complex(chi_value) * p ** (v / 2)
        return _Monomial(scalar, model.scale_indices(1 / s))
    if kind == "central":
        a = as_fraction(gen[1])
        if chi_value is None:
            raise DomainError("central generator needs the character value at a")
        return _Monomial(complex(chi_value) * mu(a, model.psi).value(), k)
    if kind == "sign":
        xi = gen[1]
        if xi not in (1, -1):
            raise DomainError(f"cover sign must be +-1, got {shown(xi)}")
        return _Monomial(float(xi), k)
    raise DomainError(f"unknown generator {shown(gen)}")


def _check_dense(model: FiniteWeilModel):
    """Every dense materialiser calls this before it allocates anything: a
    named error above the cap in place of a multi-gigabyte allocation."""
    if model.size > _DENSE_SIZE_CAP:
        raise UnsupportedDomainError(
            f"a dense {model.size} x {model.size} operator exceeds the cap of "
            f"{_DENSE_SIZE_CAP} carrier points; the checks stream column blocks"
        )


def _identity(model: FiniteWeilModel) -> np.ndarray:
    return np.eye(model.size, dtype=np.complex128)


def _unit_columns(M: int, at) -> np.ndarray:
    """The columns of the M x M identity at the carrier indices ``at``."""
    X = np.zeros((M, len(at)), dtype=np.complex128)
    X[at, np.arange(len(at))] = 1.0
    return X


def _column_blocks(M: int):
    """Carrier indices 0..M-1 in consecutive blocks of max(1, 2^13 // M)."""
    width = max(1, _BLOCK_ENTRIES // M)
    for start in range(0, M, width):
        yield np.arange(start, min(start + width, M))


def _single_monomial(act: _Action):
    """The one monomial stage an action consists of, or None."""
    return act[0] if len(act) == 1 and isinstance(act[0], _Monomial) else None


def _monomial_residual(a: _Monomial, b: _Monomial, c=1.0) -> float:
    """max |A - c B| over all M^2 entries of two monomial matrices. Entries
    off each support are zero, so a row whose indices agree differs by
    |s_a - c s_b| and any other row by the larger of |s_a| and |c s_b|."""
    sa, sb = a.scale, c * b.scale
    diff = np.where(a.index == b.index, np.abs(sa - sb), np.maximum(np.abs(sa), np.abs(sb)))
    return float(np.max(diff))


def _column_source(model: FiniteWeilModel, act):
    """cols -> the columns ``cols`` of act's matrix, of shape (M, len(cols)).

    A chain monomial -> Fourier -> monomial whose head gathers by a
    bijection is built in closed form: a unit column c meets the head at
    k = head.index^-1[c], so the column is roots[(rows * k) mod M] times
    s_head[k] / M times s_tail, with rows the tail's gather. Anything else is
    act applied to unit columns."""
    M = model.size
    stages = (_Monomial(1.0, np.arange(M)), *act) if act and act[0] is _ifft else act
    # int32 indices: (rows * k) < M^2 <= 2^28 under the model cap
    inverse = np.full(M, -1, dtype=np.int32)
    if (len(stages) == 3 and stages[1] is _ifft
            and isinstance(stages[0], _Monomial) and isinstance(stages[2], _Monomial)):
        inverse[stages[0].index] = np.arange(M)
    if inverse.min() < 0:
        return lambda cols: act(_unit_columns(M, cols))
    head, tail = stages[0], stages[2]
    rows = tail.index.astype(np.int32)
    head_scale, tail_scale = head.scale / M, tail.scale[:, None]

    def columns(cols):
        k = inverse[cols]
        exponents = np.multiply.outer(rows, k)
        np.remainder(exponents, M, out=exponents)
        out = model.roots.take(exponents)
        out *= head_scale[k]
        out *= tail_scale
        return out

    return columns


def _actions_agree(model: FiniteWeilModel, lhs, rhs, perm=None) -> bool:
    """Whether two actions have the same matrix within OP_TOL. With a
    permutation perm of the carrier, lhs's matrix is compared after gathering
    rows and columns by perm. Two monomials are compared in O(M), anything
    else block by block on identity columns."""
    lhs, rhs = _chain(lhs), _chain(rhs)
    if perm is not None:
        # P A P^-1 with (P X)[r] = X[perm[r]] has entries A[perm[r], perm[c]]
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(model.size)
        lhs = _chain(_Monomial(1.0, inverse), lhs, _Monomial(1.0, perm))
    a, b = _single_monomial(lhs), _single_monomial(rhs)
    if a is not None and b is not None:
        return _monomial_residual(a, b) < OP_TOL
    left, right = _column_source(model, lhs), _column_source(model, rhs)
    for cols in _column_blocks(model.size):
        if np.max(np.abs(left(cols) - right(cols))) >= OP_TOL:
            return False
    return True


def operator(model: FiniteWeilModel, gen, chi_value=None, extended: bool = False) -> np.ndarray:
    """Matrix of one generator on the carrier basis: its action applied to
    the identity. Raises UnsupportedDomainError above the dense cap of
    M = 2500 carrier points.

    gen is a tuple: ("w",), ("n", b), ("t", a), ("d", s), ("central", a),
    ("sign", xi). For "d" the parameter is the square root s of the torus
    entry, since the scalar involves chi(s). chi_value is the evaluated
    character value needed by "d" and "central". extended widens the
    substitution windows to what products of in-window generators reach.
    """
    _check_dense(model)
    return _letter(model, gen, chi_value=chi_value, extended=extended)(_identity(model))


def word_action(model: FiniteWeilModel, word, chi=None, extended: bool = False):
    """The action of a generator word on a block of columns X of shape (M, c).
    Every letter is validated, left to right, before anything is applied."""
    letters = []
    for gen in word:
        cv = None
        if gen[0] in ("d", "central"):
            if chi is None:
                raise DomainError("word contains a chi-dependent letter")
            cv = chi.value(gen[1])
        letters.append(_letter(model, gen, chi_value=cv, extended=extended))
    return _chain(*reversed(letters))


def op_of_word(model: FiniteWeilModel, word, chi=None, extended: bool = False) -> np.ndarray:
    """Operator of a generator word (left factor acts last, as in function
    composition): the letters applied right to left to the identity. chi is
    a value oracle used by d/central letters. Raises UnsupportedDomainError
    above the dense cap, before the word is validated."""
    _check_dense(model)
    return word_action(model, word, chi=chi, extended=extended)(_identity(model))


# canonical words and the empirical multiplier ----------------------------


def canonical_word(mat) -> list:
    """Canonical generator word for a 2x2 matrix block: determinant one gives
    the Bruhat form (n w t n for a nonzero lower-left entry, t n otherwise);
    a square determinant s^2 peels off d(s) on the right."""
    (al, be), (ga, de) = mat.rows
    det = al * de - be * ga
    tail = []
    if det != 1:
        s = _sqrt_fraction(det)
        if s is None:
            raise UnsupportedDomainError(
                f"no canonical word: determinant {shown(det)} is not a rational square"
            )
        # peel the square factor off the second column: M = M0 * diag(1, s^2)
        be, de, tail = be / (s * s), de / (s * s), [("d", s)]
    if ga == 0:
        return [("t", al), ("n", be / al)] + tail
    return [("n", al / ga), ("w",), ("t", -ga), ("n", de / ga)] + tail


def projective_multiplier(g, h, model: FiniteWeilModel, chi=None) -> complex:
    """The scalar c with op(g) op(h) = c op(gh), for the canonical words.

    The words of g, h and gh are validated first, in that order; op(g) op(h)
    is then h's stages followed by g's, fused as one action. c is read off
    the largest entry of op(gh) among the first block of identity columns,
    and every entry of both sides is compared against it: raises
    ModelInconsistencyError if the largest residual |op(g)op(h) - c op(gh)|
    exceeds 1e-6 max(1, max |op(g)op(h)|). Two monomial sides are compared
    in O(M); otherwise both sides are built over identity column blocks,
    so memory is O(M B) for blocks of B columns and no M x M array is built.
    """
    act_g = word_action(model, canonical_word(g), chi=chi, extended=True)
    act_h = word_action(model, canonical_word(h), chi=chi, extended=True)
    act_gh = word_action(model, canonical_word(g.compose(h)), chi=chi, extended=True)
    act_prod = _chain(act_h, act_g)
    prod, ogh = _single_monomial(act_prod), _single_monomial(act_gh)
    if prod is not None and ogh is not None:
        # row r of op(gh) has its one entry in column ogh.index[r]; the first
        # block holds the rows whose column is in it, and argmax, as on a
        # block, takes the first of equal entries
        width = max(1, _BLOCK_ENTRIES // model.size)
        first = np.where(ogh.index < width, np.abs(ogh.scale), 0.0)
        r = int(np.argmax(first))
        if first[r] < OP_TOL:
            raise ModelInconsistencyError("product word operator vanished")
        c = (prod.scale[r] if prod.index[r] == ogh.index[r] else 0j) / ogh.scale[r]
        resid = _monomial_residual(prod, ogh, c)
        top = float(np.max(np.abs(prod.scale)))
    else:
        prod_columns = _column_source(model, act_prod)
        gh_columns = _column_source(model, act_gh)
        c = None
        resid = top = 0.0
        for cols in _column_blocks(model.size):
            prod, ogh = prod_columns(cols), gh_columns(cols)
            if c is None:
                k = np.unravel_index(np.argmax(np.abs(ogh)), ogh.shape)
                if abs(ogh[k]) < OP_TOL:
                    raise ModelInconsistencyError("product word operator vanished")
                c = prod[k] / ogh[k]
            resid = max(resid, float(np.max(np.abs(prod - c * ogh))))
            top = max(top, float(np.max(np.abs(prod))))
    if resid > 1e-6 * max(1.0, top):
        raise ModelInconsistencyError(
            f"operators are not proportional: residual {resid}"
        )
    return complex(c)


def borel_sign(mat, place: Place) -> int:
    """The +-1 function supported on the upper-triangular cell: for a block
    with vanishing lower-left entry, the Hilbert symbol of its upper-left
    entry against -1; elsewhere +1. Its coboundary is the exact discrepancy
    between the model multiplier and Kubota's formula (a tested contract,
    not an assumption)."""
    (al, _), (ga, _) = mat.rows
    return hilbert(al, -1, place) if ga == 0 else 1


# structural checks --------------------------------------------------------


def parity_invariance_check(model: FiniteWeilModel, gen, chi_value=None) -> bool:
    """True iff the generator's operator commutes with the parity flip,
    i.e. preserves the even/odd decomposition. Streamed over column blocks."""
    act = _letter(model, gen, chi_value=chi_value)
    # P op P for the flip permutation P is op with rows and columns negated
    return _actions_agree(model, act, act, perm=model.negate_indices())


def whittaker_functional_exists(model: FiniteWeilModel, a) -> bool:
    """Whether some evaluation functional has the quadratic eigencharacter
    of scale a: true iff a is in the square class of scale * x^2 for some
    nonzero carrier point x. Since x^2 is a square, every such class is the
    class of the model's scale, so this compares two square classes."""
    return same_square_class(a, model.psi.scale, model.place)


def central_word_check(model: FiniteWeilModel, a, chi) -> bool:
    """The word t(a) d(a) (torus then square-torus with parameter a) lands
    on the central scalar chi(a) mu(a) with multiplier exactly +1."""
    a = as_fraction(a)
    word = word_action(model, [("t", a), ("d", a)], chi=chi)
    direct = _letter(model, ("central", a), chi_value=chi.value(a))
    return _actions_agree(model, word, direct)


# twisting ------------------------------------------------------------------


def twist_intertwiner_check(a, model: FiniteWeilModel) -> bool:
    """Conjugation by diag(1, a) carries the psi-model to the psi_a-model.

    Verified at the word level, generator by generator, for unit a:
    n(b) conjugates to n(ab) with no scalar; w conjugates to the word
    w t(1/a) with no scalar; t(c) is fixed by conjugation but picks up the
    exact cover sign (a, c) from the diagonal torus cocycle. When a = c^2
    is a rational square the explicit intertwiner f(x) -> f(c x) is also
    checked against every generator. Non-unit a raises PreconditionError:
    rescaling the character by p moves the self-dual lattice, which this
    fixed-carrier model cannot represent faithfully.
    """
    a = as_fraction(a)
    p = model.p
    if a == 0:
        raise DomainError("valuation of 0 is undefined")
    if _split(a, p)[0] != 0:
        raise PreconditionError(
            "twists are supported for unit scales only on a fixed carrier"
        )
    # include the uniformizer when the window permits, so the cover sign on
    # torus generators is exercised non-trivially
    deep = (p,) if model.N >= 2 else ()
    twisted = FiniteWeilModel(p, model.N, model.psi.twist(a))
    ok = True
    # every pair is validated even after a mismatch; only comparisons stop
    # n(b) -> n(a b), exactly
    for b in (1, 2, -1) + deep:
        lhs = _letter(model, ("n", as_fraction(b) * a))
        rhs = _letter(twisted, ("n", b))
        ok = ok and _actions_agree(model, lhs, rhs)
    # w -> w t(1/a), exactly
    lhs = word_action(model, [("w",), ("t", 1 / a)])
    rhs = _letter(twisted, ("w",))
    ok = ok and _actions_agree(model, lhs, rhs)
    # t(c) -> (a, c) t(c)
    for c in (2, -1) + deep:
        c = as_fraction(c)
        sign = hilbert(a, c, model.place)
        lhs = _chain(_letter(model, ("t", c)), _Monomial(sign, np.arange(model.size)))
        rhs = _letter(twisted, ("t", c))
        ok = ok and _actions_agree(model, lhs, rhs)
    croot = _sqrt_fraction(a)
    if croot is not None:
        # explicit intertwiner T f(x) = f(c x) between the two models: T is
        # the permutation gathering rows by idx, so T op = op[idx] and
        # (op' T)[:, idx] = op'; compare op with rows and columns gathered
        idx = model.scale_indices(croot)
        gens = [("w",), ("n", 2), ("t", 2)]
        if model.N >= 2:
            gens.append(("t", p))
        for gen in gens:
            lhs = _letter(model, gen)
            rhs = _letter(twisted, gen)
            ok = ok and _actions_agree(model, lhs, rhs, perm=idx)
    return bool(ok)


# tensor models --------------------------------------------------------------


def tensor_whittaker_check(model: FiniteWeilModel, block_scales, targets) -> bool:
    """Product-evaluation functionals on a small tensor of twisted models.

    Block i is the model with its character twisted by a_i, of scale a_i s
    for the model's scale s. A product of evaluation functionals transforms
    under the block-diagonal quadratic phases by the tuple character with
    coefficients (b_1, ..., b_q) iff for every block some nonzero carrier
    point x has a_i s x^2 in the square class of b_i s. As x^2 is a square,
    that is whittaker_functional_exists on each block: one comparison of
    the square classes of b_i s and a_i s, with no block model built.
    """
    if len(block_scales) != len(targets):
        raise DomainError("need one target per block scale")
    s = model.psi.scale
    return all(
        same_square_class(as_fraction(b_i) * s, as_fraction(a_i) * s, model.place)
        for a_i, b_i in zip(block_scales, targets)
    )
