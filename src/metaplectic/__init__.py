"""Exact local arithmetic for metaplectic covers.

Modules: local_arith (Hilbert symbols, square classes, exact primality),
weil_index (eighth roots of unity attached to quadratic Gauss sums),
cocycle (the double cover's 2-cocycle on structured GL_r elements),
weil_rep (a finite lattice model of the Weil representation),
symsq (Schur polynomials, toral Whittaker sums, twisted symmetric-square
local factors), and cli (suite runner and one-off computations).

The re-exported names below resolve on first access (PEP 562), so
``import metaplectic`` loads only the error classes, and numpy loads only
with ``weil_rep`` or a brute-force oracle.
"""

from importlib import import_module

from .errors import (
    ConvergenceDomainError,
    DataError,
    DomainError,
    ModelInconsistencyError,
    OracleConsistencyError,
    PreconditionError,
    UnsupportedDomainError,
)

__version__ = "0.1.0"

# re-exported name -> the submodule that defines it
_LAZY = {
    "Place": "local_arith",
    "hilbert": "local_arith",
    "square_class_rep": "local_arith",
    "AdditiveCharacter": "weil_index",
    "EighthRoot": "weil_index",
    "gamma": "weil_index",
    "mu": "weil_index",
    "StructuredElement": "cocycle",
    "UnramifiedCharacter": "cocycle",
    "sigma_eval": "cocycle",
    "build_model": "weil_rep",
    "projective_multiplier": "weil_rep",
    "SatakeData": "symsq",
    "local_factors": "symsq",
    "pole_report": "symsq",
    "unramified_zeta_check": "symsq",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


# the error classes imported above, then the lazy names
__all__ = sorted(
    [n for n, v in globals().items() if isinstance(v, type) and issubclass(v, Exception)]
    + list(_LAZY)
)
