"""Built-in catalog of structures with exact rational data.

Every entry passes algebra and structure validation; the pluricanonical
examples and the three 4-dimensional unimodular target algebras are built
exactly as in the source classification, so they double as regression
fixtures for the golden reports.
"""
from __future__ import annotations

from .algebra import LieAlgebra
from .almostabelian import AlmostAbelianParams, build_almost_abelian
from .hermitian import AlmostHermitianStructure, preset_j

__all__ = ["catalog", "catalog_entry", "CATALOG_NAMES"]

CATALOG_NAMES = ("A4_1", "A4_8", "abelian_kahler",
                 "A4_1_aa", "A3_4_plus_A1", "A3_6_plus_A1")


def _a4_1():
    alg = LieAlgebra(4, {(2, 4): {1: 1}, (3, 4): {2: 1}})
    return AlmostHermitianStructure(alg, preset_j("split", 4), name="A4_1")


def _a4_8():
    alg = LieAlgebra(4, {(2, 3): {1: 1}, (2, 4): {2: 1}, (3, 4): {3: -1}})
    return AlmostHermitianStructure(alg, preset_j("mirror", 4), name="A4_8")


def _abelian_kahler():
    return AlmostHermitianStructure(LieAlgebra(4, {}), preset_j("split", 4),
                                    name="abelian_kahler")


def _from_params(name, a, b, v):
    params = AlmostAbelianParams(2, a, b, v, ((0, 0), (0, 0)))
    _, structure = build_almost_abelian(params)
    structure.name = name
    return structure


_BUILDERS = {
    "A4_1": _a4_1,
    "A4_8": _a4_8,
    "abelian_kahler": _abelian_kahler,
    "A4_1_aa": lambda: _from_params("A4_1_aa", 0, (1, 0), (0, 1)),
    "A3_4_plus_A1": lambda: _from_params("A3_4_plus_A1", 0, (1, 0), (1, 0)),
    "A3_6_plus_A1": lambda: _from_params("A3_6_plus_A1", 0, (1, 0), (-1, 0)),
}


def catalog_entry(name: str) -> AlmostHermitianStructure:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown catalog entry {name!r}; have {CATALOG_NAMES}") from None


def catalog() -> dict:
    """Fresh structures for every named entry."""
    return {name: catalog_entry(name) for name in CATALOG_NAMES}
