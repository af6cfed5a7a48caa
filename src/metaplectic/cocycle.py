"""Two-cocycles on the double cover of GL_r, over the structured subgroups
where closed formulas exist.

The cocycle sigma_r is a partial evaluator by design: it knows the torus
rule, the block-diagonal rule (with Kubota's GL2 formula inside every 2x2
slot) and the unipotent rule. Anything else raises UnsupportedDomainError
rather than extrapolating. On a standard parabolic Levi the block rule is
the block cocycle: per-block cocycles times Hilbert cross-terms of
determinants. A central scalar a * I is the torus with one
repeated entry, so the torus rule gives the central (a, b)^(r(r-1)/2) too.

The formulas are pure Hilbert-symbol algebra and work at every place of Q,
including 2. UnramifiedCharacter, the character chi of the twist, lives here
too: a value at the uniformizer, or a sign character at the real place.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, PreconditionError, UnsupportedDomainError, shown
from .local_arith import (
    Frozen,
    Place,
    Value,
    _hilbert_form,
    _split,
    as_fraction,
    hilbert,
    same_square_class,
    square_class,
    symbol_primes,
)

Sign = int


# block payloads --------------------------------------------------------


class Torus(Value):
    """A diagonal segment: nonzero rational entries."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        es = tuple(as_fraction(e) for e in entries)
        if not es or any(e == 0 for e in es):
            raise DomainError("torus entries must be nonzero")
        object.__setattr__(self, "entries", es)

    @property
    def size(self) -> int:
        return len(self.entries)

    def det(self) -> Fraction:
        d = Fraction(1)
        for e in self.entries:
            d *= e
        return d

    def is_identity(self) -> bool:
        return all(e == 1 for e in self.entries)

    def __repr__(self):
        return f"Torus({list(map(shown, self.entries))})"


class MatrixBlock(Value):
    """A 2x2 invertible rational block."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        m = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        if len(m) != 2 or any(len(row) != 2 for row in m):
            raise DomainError("matrix block must be 2x2")
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] == 0:
            raise DomainError("matrix block must be invertible")
        object.__setattr__(self, "rows", m)

    size = 2

    def det(self) -> Fraction:
        m = self.rows
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]

    def is_identity(self) -> bool:
        return self.rows == ((1, 0), (0, 1))

    def compose(self, other):
        if not isinstance(other, MatrixBlock):
            raise UnsupportedDomainError("matrix block composition mismatch")
        return MatrixBlock(_product(self.rows, other.rows))

    def __repr__(self):
        return f"MatrixBlock({[[shown(x) for x in r] for r in self.rows]})"


def _product(a, b) -> tuple:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def sl2(a, b, c, d) -> MatrixBlock:
    m = MatrixBlock(((a, b), (c, d)))
    if m.det() != 1:
        raise DomainError(f"unimodular block must have det 1, got {shown(m.det())}")
    return m


def gl2(a, b, c, d) -> MatrixBlock:
    return MatrixBlock(((a, b), (c, d)))


# structured elements ----------------------------------------------------


class StructuredElement(Value):
    """An element of GL_r drawn from the classes the cocycle knows.

    Either block-diagonal (an ordered tuple of Torus / MatrixBlock payloads
    whose sizes sum to r) or upper unipotent (a full matrix with unit
    diagonal). A central scalar a * I is the torus with r entries a, so each
    element has one representation. Immutable.
    """

    __slots__ = ("r", "blocks", "matrix")

    def __init__(self, blocks=None, matrix=None):
        if (blocks is None) == (matrix is None):
            raise DomainError("exactly one of blocks/matrix must be given")
        if blocks is not None:
            blocks = tuple(blocks)
            if not blocks:
                raise DomainError("empty block list")
            for b in blocks:
                if not isinstance(b, (Torus, MatrixBlock)):
                    raise DomainError(f"unknown payload {b!r}")
            r = sum(b.size for b in blocks)
        else:
            m = tuple(tuple(as_fraction(x) for x in row) for row in matrix)
            r = len(m)
            if any(len(row) != r for row in m):
                raise DomainError("matrix must be square")
            for i in range(r):
                if m[i][i] != 1:
                    raise DomainError("unipotent element needs unit diagonal")
                for j in range(i):
                    if m[i][j] != 0:
                        raise DomainError("unipotent element must be upper triangular")
            matrix = m
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "matrix", matrix)

    # constructors

    @classmethod
    def torus(cls, *entries) -> "StructuredElement":
        if len(entries) == 1 and isinstance(entries[0], (tuple, list)):
            entries = tuple(entries[0])
        return cls(blocks=(Torus(entries),))

    @classmethod
    def central(cls, a, r: int) -> "StructuredElement":
        """The scalar a * identity in GL_r, as a torus with one repeated entry."""
        if as_fraction(a) == 0:
            raise DomainError("central scalar must be nonzero")
        if r < 1:
            raise DomainError("scalar size must be positive")
        return cls.torus((a,) * r)

    @classmethod
    def block_diagonal(cls, payloads) -> "StructuredElement":
        return cls(blocks=tuple(payloads))

    @classmethod
    def unipotent_upper(cls, rows) -> "StructuredElement":
        return cls(matrix=rows)

    @classmethod
    def identity(cls, r: int) -> "StructuredElement":
        return cls.torus((Fraction(1),) * r)

    # predicates and views

    @property
    def is_unipotent(self) -> bool:
        return self.matrix is not None

    @property
    def is_torus(self) -> bool:
        return self.blocks is not None and all(
            isinstance(b, Torus) for b in self.blocks
        )

    @property
    def torus_entries(self) -> tuple:
        """Diagonal entries, for torus elements."""
        if not self.is_torus:
            raise UnsupportedDomainError("element has no diagonal form")
        return tuple(x for b in self.blocks for x in b.entries)

    def is_identity(self) -> bool:
        if self.is_unipotent:
            n = self.r
            return all(
                self.matrix[i][j] == (1 if i == j else 0)
                for i in range(n)
                for j in range(n)
            )
        return all(b.is_identity() for b in self.blocks)

    def block_structure(self) -> tuple:
        if self.blocks is None:
            return ()
        return tuple((type(b).__name__, b.size) for b in self.blocks)

    def in_even_torus(self, place: Place) -> bool:
        """Torus of even rank whose consecutive entry ratios t1/t2, t3/t4, ...
        are local squares."""
        if not self.is_torus:
            return False
        t = self.torus_entries
        if len(t) % 2:
            return False
        return all(
            same_square_class(t[k], t[k + 1], place) for k in range(0, len(t), 2)
        )

    def compose(self, other: "StructuredElement") -> "StructuredElement":
        """Product g * other, defined when both stay in one supported class:
        two unipotent elements, or two block-diagonal ones on one partition,
        multiplied slot by slot (a size-2 torus against a 2x2 block reads as
        diag(a, b)). Two tori on different partitions multiply as one torus."""
        if self.is_unipotent and other.is_unipotent:
            if self.r != other.r:
                raise UnsupportedDomainError("rank mismatch")
            n = self.r
            rows = tuple(
                tuple(
                    sum(self.matrix[i][k] * other.matrix[k][j] for k in range(n))
                    for j in range(n)
                )
                for i in range(n)
            )
            return StructuredElement(matrix=rows)
        if self.is_unipotent or other.is_unipotent:
            raise UnsupportedDomainError("mixed unipotent product not supported")
        if tuple(b.size for b in self.blocks) != tuple(b.size for b in other.blocks):
            if self.is_torus and other.is_torus and self.r == other.r:
                return StructuredElement.torus(
                    _entrywise(self.torus_entries, other.torus_entries)
                )
            raise UnsupportedDomainError(
                f"block partitions differ: {self.block_structure()} vs {other.block_structure()}"
            )
        return StructuredElement.block_diagonal(map(_slot_product, self.blocks, other.blocks))

    def __repr__(self):
        if self.is_unipotent:
            return f"StructuredElement(unipotent r={self.r})"
        return f"StructuredElement({list(self.blocks)})"


# the cocycle ------------------------------------------------------------


def _torus_rule(ts, hs, place: Place) -> Sign:
    # prod_{i<j} (t_i, h_j) with the symbol's form B, which is bilinear:
    # sum_{i<j} B(t_i, h_j) = sum_j B(t_1 + ... + t_{j-1}, h_j)
    e = before = 0
    for t, h in zip(ts, hs):
        e ^= _hilbert_form(before, square_class(h, place), place.p)
        before ^= square_class(t, place)
    return -1 if e else 1


def _entrywise(xs, ys) -> tuple:
    return tuple(x * y for x, y in zip(xs, ys))


def _rows(payload) -> tuple:
    if isinstance(payload, Torus):
        a, b = payload.entries
        return (a, 0), (0, b)
    return payload.rows


def _slot_product(p, q):
    # two payloads of one size; a size-2 Torus against a 2x2 block is diag(a, b)
    if isinstance(p, Torus) and isinstance(q, Torus):
        return Torus(_entrywise(p.entries, q.entries))
    return MatrixBlock(_product(_rows(p), _rows(q)))


def kubota_sl2(g, h, place: Place) -> Sign:
    """Kubota's 2-cocycle on GL2: (x(gh)/x(g), x(gh)/(x(h) det g)) where x is
    the lower-left entry when nonzero, else the lower-right entry. A size-2
    Torus (a, b) reads as diag(a, b).

    At det g = 1 this is Kubota's SL2 cocycle, and on diagonal pairs
    diag(a, b), diag(a', b') it is the torus rule (a, b'). The name is the
    SL2 one because the benchmark's span tracer looks the function up by it.
    """
    if isinstance(g, StructuredElement) or isinstance(h, StructuredElement):
        raise DomainError("kubota_sl2 takes 2x2 blocks, not structured elements")

    def x(m) -> Fraction:
        return m[1][0] or m[1][1]

    rg, rh = _rows(g), _rows(h)
    x_gh = x(_product(rg, rh))
    return hilbert(x_gh / x(rg), x_gh / (x(rh) * g.det()), place)


def _payload_sigma(g, h, place: Place) -> Sign:
    # g and h fill one slot, so they have one size
    if g.size == 2:
        return kubota_sl2(g, h, place)
    return _torus_rule(g.entries, h.entries, place)


def sigma_eval(g: StructuredElement, h: StructuredElement, place: Place) -> Sign:
    """The cover cocycle sigma_r(g, h) on the supported element classes.

    Rules, in dispatch order: an identity or unipotent upper-triangular
    argument on either side gives +1; torus pairs give the product of
    (t_i, h_j) over i < j, which for the central a * I and b * I is
    (a, b)^(r(r-1)/2); block-diagonal pairs on one partition give the
    per-block cocycles times (det g_i, det h_j) over block slots i < j,
    where a slot of size 2 takes Kubota's GL2 formula (a torus there reads
    as diag(a, b)) and any other slot the torus rule. Pairs of different
    ranks or partitions raise UnsupportedDomainError.
    """
    if g.r != h.r:
        raise UnsupportedDomainError("rank mismatch")
    if g.is_unipotent or h.is_unipotent or g.is_identity() or h.is_identity():
        return 1
    if g.is_torus and h.is_torus:
        return _torus_rule(g.torus_entries, h.torus_entries, place)
    # partitions must agree; payload classes may differ slot by slot
    if tuple(b.size for b in g.blocks) != tuple(b.size for b in h.blocks):
        raise UnsupportedDomainError(
            f"block partitions differ: {g.block_structure()} vs {h.block_structure()}"
        )
    s = 1
    for p, q in zip(g.blocks, h.blocks):
        s *= _payload_sigma(p, q, place)
    return s * _torus_rule([p.det() for p in g.blocks], [q.det() for q in h.blocks], place)


def sigma_torus_even_reduced(t: StructuredElement, h: StructuredElement, place: Place) -> Sign:
    """Short form of the torus cocycle on the even-square subtorus: the
    product of (t_i, h_i) over odd positions i = 1, 3, 5, ... only. Agrees
    with sigma_eval there; that agreement is a tested contract."""
    if not (t.in_even_torus(place) and h.in_even_torus(place)):
        raise PreconditionError("both arguments must lie in the even square subtorus")
    ts, hs = t.torus_entries, h.torus_entries
    s = 1
    for k in range(0, len(ts), 2):
        s *= hilbert(ts[k], hs[k], place)
    return s


def global_sigma_product(g: StructuredElement, h: StructuredElement) -> Sign:
    """Product of sigma_eval over the real place and every prime where a
    factor could be nontrivial (primes of the numerators and denominators of
    the entries and determinants of each block and of each 2x2 slot's
    product, plus 2). The product formula says +1; computed, not assumed."""
    s = sigma_eval(g, h, Place.real())
    vals = set()
    for b in (g.blocks or ()) + (h.blocks or ()):
        vals.update(b.entries if isinstance(b, Torus) else (x for row in b.rows for x in row))
        vals.add(b.det())
    for p, q in zip(g.blocks or (), h.blocks or ()):
        if p.size == q.size == 2:  # x(gh) in Kubota's formula may bring a new prime
            vals.update(x for row in _product(_rows(p), _rows(q)) for x in row)
    vals.discard(0)
    for p in symbol_primes(vals):
        s *= sigma_eval(g, h, Place._certified(p))
    return s


def cocycle_identity_check(
    g: StructuredElement, h: StructuredElement, k: StructuredElement, place: Place
) -> bool:
    """True iff sigma(g,h) sigma(gh,k) = sigma(g,hk) sigma(h,k)."""
    lhs = sigma_eval(g, h, place) * sigma_eval(g.compose(h), k, place)
    rhs = sigma_eval(g, h.compose(k), place) * sigma_eval(h, k, place)
    return lhs == rhs


def _embed(payloads: dict, partition) -> StructuredElement:
    # payloads maps a slot to its payload; every other slot is an identity
    blocks = []
    for slot, size in enumerate(partition):
        payload = payloads.get(slot) or Torus((Fraction(1),) * size)
        if payload.size != size:
            raise DomainError(f"payload size {payload.size} != slot size {size}")
        blocks.append(payload)
    return StructuredElement.block_diagonal(blocks)


def block_lemmas_check(i: int, j: int, g, h, place: Place, partition=(2, 2)) -> bool:
    """Commutation and homomorphism checks for blocks in different Levi slots.

    Embeds g at slot i and h at slot j (identities elsewhere) and verifies
    (1) sigma is symmetric on the pair of embeddings, and (2) sigma of the
    combined block-diagonal pair equals the product of per-block cocycles,
    i.e. the cross-terms vanish. Both hold exactly when the block
    determinants are local squares, so a non-square determinant raises
    PreconditionError.
    """
    if i == j or not (0 <= i < len(partition)) or not (0 <= j < len(partition)):
        raise DomainError(f"need two distinct slots, got {i}, {j}")
    for blk in (g, h):
        if not same_square_class(blk.det(), 1, place):
            raise PreconditionError(
                f"block determinant {shown(blk.det())} is not a square at {place}"
            )
    ei_g = _embed({i: g}, partition)
    ej_h = _embed({j: h}, partition)
    commutes = sigma_eval(ei_g, ej_h, place) == sigma_eval(ej_h, ei_g, place)

    full = _embed({i: g, j: h}, partition)
    blockwise = 1
    for payload in full.blocks:
        blockwise *= _payload_sigma(payload, payload, place)
    homomorphic = sigma_eval(full, full, place) == blockwise
    return commutes and homomorphic


# the character of the twist ---------------------------------------------


class UnramifiedCharacter(Frozen):
    """Multiplicative character determined by one value: at a finite place,
    its value at the uniformizer (trivial on units); at the real place, a
    sign character x -> sign(x)^e. Values are exact rationals."""

    __slots__ = ("place", "at_uniformizer", "sign_exponent")

    def __init__(self, place: Place, at_uniformizer=None, sign_exponent: int = 0):
        if place.is_finite:
            if at_uniformizer is None:
                raise DomainError("finite place needs a value at the uniformizer")
            at_uniformizer = as_fraction(at_uniformizer)
            if at_uniformizer == 0:
                raise DomainError("character value must be nonzero")
        object.__setattr__(self, "place", place)
        object.__setattr__(self, "at_uniformizer", at_uniformizer)
        object.__setattr__(self, "sign_exponent", sign_exponent % 2)

    def value(self, x) -> Fraction:
        x = as_fraction(x)
        if x == 0:
            raise DomainError("character of 0 is undefined")
        if self.place.is_real:
            return Fraction(1) if (x > 0 or self.sign_exponent == 0) else Fraction(-1)
        return self.at_uniformizer ** _split(x, self.place.p)[0]

    def __repr__(self):
        if self.place.is_real:
            return f"UnramifiedCharacter(real, sign^{self.sign_exponent})"
        return f"UnramifiedCharacter({self.place}, at_p={self.at_uniformizer})"
