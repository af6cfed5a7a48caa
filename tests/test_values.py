"""The immutable types: setattr and del raise, value types compare and hash
by their fields, and data holders keep identity equality."""

from fractions import Fraction

import pytest

from metaplectic import cocycle, symsq, weil_index, weil_rep
from metaplectic.local_arith import Frozen, Place, Value

# one factory per Frozen subclass; two calls build equal, distinct objects
FACTORIES = {
    "Place": lambda: Place.finite(7),
    "EighthRoot": lambda: weil_index.EighthRoot(3),
    "AdditiveCharacter": lambda: weil_index.AdditiveCharacter(Place.finite(5), Fraction(2, 3)),
    "Torus": lambda: cocycle.Torus((2, Fraction(-1, 3))),
    "MatrixBlock": lambda: cocycle.gl2(1, 2, 3, 7),
    "StructuredElement": lambda: cocycle.StructuredElement.torus(2, 3),
    "Partition": lambda: symsq.Partition((3, 1, 0)),
    "LocalFactor": lambda: symsq.LocalFactor([1, -2, Fraction(1, 4)]),
    "QPower": lambda: symsq.QPower(2, Fraction(1, 2), -1),
    "SatakeData": lambda: symsq.SatakeData(2, [1, Fraction(2, 3)], 7),
    "UnramifiedCharacter": lambda: cocycle.UnramifiedCharacter(Place.finite(5), 2),
    "FiniteWeilModel": lambda: weil_rep.build_model(3, 1),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_frozen_type_has_a_factory():
    types = {cls.__name__ for cls in _subclasses(Frozen)} - {"Value"}
    assert types == set(FACTORIES)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_frozen_types_refuse_set_and_del(name):
    x, y = FACTORIES[name](), FACTORIES[name]()
    assert type(x).__name__ == name and x is not y
    message = f"^{name} is immutable$"
    for field in (*type(x).__slots__, "other"):
        with pytest.raises(AttributeError, match=message):
            setattr(x, field, None)
        with pytest.raises(AttributeError, match=message):
            delattr(x, field)
    if isinstance(x, Value):
        assert x == y and not x != y and hash(x) == hash(y)
    else:
        # a data holder: a value == would compare numpy arrays or Satake tables
        assert x == x and x != y


def test_value_equality_needs_the_same_type_and_key():
    assert Place.finite(7).__eq__(7) is NotImplemented
    assert Place.finite(7) != 7 and Place.finite(7) != Place.finite(5)
    assert symsq.Partition((2,)) != cocycle.Torus((2,))
    # sl2 and gl2 build the same block, equal and hashed by its rows
    assert cocycle.sl2(1, 1, 0, 1) == cocycle.gl2(1, 1, 0, 1)
    assert hash(cocycle.sl2(1, 1, 0, 1)) == hash(cocycle.gl2(1, 1, 0, 1))
    assert symsq.QPower(2, 1) != symsq.QPower(2, 1, 1)
