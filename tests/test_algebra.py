from fractions import Fraction

import numpy as np
import pytest

from lcak.algebra import LieAlgebra, abelian_algebra, validate_lie_algebra
from lcak.errors import IndexOutOfRange

A41_BRACKETS = {(2, 4): {1: 1}, (3, 4): {2: 1}}
A48_BRACKETS = {(2, 3): {1: 1}, (2, 4): {2: 1}, (3, 4): {3: -1}}


def test_validate_a41_ok():
    report = validate_lie_algebra(A41_BRACKETS, 4)
    assert report.ok
    assert report.antisymmetry_ok
    assert report.jacobi_residual == 0


def test_validate_abelian_ok():
    assert validate_lie_algebra({}, 4).ok


def test_validate_jacobi_failure():
    # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e1: cyclic sum on (1,2,3) equals e3
    bad = {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {1: 1}}
    report = validate_lie_algebra(bad, 3)
    assert not report.ok
    assert report.jacobi_residual == 1


def test_validate_antisymmetry_of_raw_constants():
    ok = {(1, 2): {3: 1}, (2, 1): {3: -1}}
    assert validate_lie_algebra(ok, 3).antisymmetry_ok
    bad = {(1, 2): {3: 1}, (2, 1): {3: 1}}
    assert not validate_lie_algebra(bad, 3).antisymmetry_ok


def test_bad_indices_raise():
    with pytest.raises(IndexOutOfRange):
        LieAlgebra(4, {(2, 5): {1: 1}})
    with pytest.raises(IndexOutOfRange):
        LieAlgebra(4, {(1, 2): {0: 1}})
    with pytest.raises(IndexOutOfRange):
        LieAlgebra(4, {(2, 2): {1: 1}})


def test_ad_a41():
    alg = LieAlgebra(4, A41_BRACKETS)
    e4 = np.array([Fraction(0)] * 3 + [Fraction(1)], dtype=object)
    ad = alg.ad(e4)
    # ad_{e4} e2 = [e4,e2] = -e1, ad_{e4} e3 = -e2
    assert ad[0, 1] == -1 and ad[1, 2] == -1
    assert sum(1 for x in np.asarray(ad).ravel() if x != 0) == 2


def test_ad_abelian_zero():
    alg = abelian_algebra(5)
    x = np.array([Fraction(k) for k in range(1, 6)], dtype=object)
    assert all(v == 0 for v in alg.ad(x).ravel())


def test_ad_a48():
    alg = LieAlgebra(4, A48_BRACKETS)
    ad = alg.ad_basis(3)
    # e2 -> -e2, e3 -> +e3, e1 -> 0
    assert ad[1, 1] == -1 and ad[2, 2] == 1
    assert all(ad[k, 0] == 0 for k in range(4))


def test_ad_antisymmetry_property():
    alg = LieAlgebra(4, A48_BRACKETS)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = np.array([Fraction(int(v)) for v in rng.integers(-3, 4, 4)], dtype=object)
        y = np.array([Fraction(int(v)) for v in rng.integers(-3, 4, 4)], dtype=object)
        assert all(v == 0 for v in alg.ad(x) @ y + alg.ad(y) @ x)


def test_unimodular_catalog_entries():
    assert LieAlgebra(4, A41_BRACKETS).is_unimodular()[0]
    flag, traces = LieAlgebra(4, A48_BRACKETS).is_unimodular()
    assert flag and all(t == 0 for t in traces)


def test_not_unimodular_2d():
    alg = LieAlgebra(2, {(1, 2): {2: 1}})
    flag, traces = alg.is_unimodular()
    assert not flag
    assert traces[0] == 1


def test_unimodularity_invariant_under_change_of_basis():
    rng = np.random.default_rng(11)
    for entry, expected in [(A41_BRACKETS, True), ({(1, 2): {2: 1}}, False)]:
        dim = 4 if expected else 2
        alg = LieAlgebra(dim, entry)
        for _ in range(5):
            while True:
                p = np.array([[Fraction(int(v)) for v in row]
                              for row in rng.integers(-2, 3, (dim, dim))], dtype=object)
                from lcak import arith
                if arith.determinant(p, arith.Field(True)) != 0:
                    break
            moved = alg.change_basis(p)
            assert moved.is_unimodular()[0] == expected
            assert moved.validate().ok


def test_jacobi_residual_exact_zero_on_catalog():
    for br, dim in [(A41_BRACKETS, 4), (A48_BRACKETS, 4), ({}, 4)]:
        assert LieAlgebra(dim, br).jacobi_residual() == 0


def test_bracket_matches_structure_constants():
    alg = LieAlgebra(4, A48_BRACKETS)
    e2 = np.array([Fraction(k == 1) for k in range(4)], dtype=object)
    e3 = np.array([Fraction(k == 2) for k in range(4)], dtype=object)
    br = alg.bracket(e2, e3)
    assert br[0] == 1 and all(br[k] == 0 for k in (1, 2, 3))


def test_fraction_string_input():
    alg = LieAlgebra(3, {(1, 2): {3: "1/2"}})
    assert alg.exact
    assert alg.basis_bracket(0, 1)[2] == Fraction(1, 2)


def test_ad_rejects_wrong_length():
    from lcak.errors import DimensionMismatch
    alg = LieAlgebra(4, A41_BRACKETS)
    with pytest.raises(DimensionMismatch):
        alg.ad(np.array([Fraction(1), Fraction(0)], dtype=object))
    with pytest.raises(DimensionMismatch):
        alg.bracket(np.zeros(3), np.zeros(4))
