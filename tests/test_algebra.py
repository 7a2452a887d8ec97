from fractions import Fraction

import numpy as np
import pytest

from fraction_solvers import invert
from lcak import arith
from lcak.algebra import LieAlgebra, abelian_algebra
from lcak.errors import IndexOutOfRange

A41_BRACKETS = {(2, 4): {1: 1}, (3, 4): {2: 1}}
A48_BRACKETS = {(2, 3): {1: 1}, (2, 4): {2: 1}, (3, 4): {3: -1}}


def test_validate_a41_ok():
    report = LieAlgebra(4, A41_BRACKETS).validate()
    assert report.ok
    assert report.antisymmetry_ok
    assert report.jacobi_residual == 0


def test_validate_abelian_ok():
    assert LieAlgebra(4, {}).validate().ok


def test_validate_jacobi_failure():
    # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e1: cyclic sum on (1,2,3) equals e3
    bad = {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {1: 1}}
    report = LieAlgebra(3, bad).validate()
    assert not report.ok
    assert report.jacobi_residual == 1


def test_validate_antisymmetry_of_raw_constants():
    ok = {(1, 2): {3: 1}, (2, 1): {3: -1}}
    assert LieAlgebra(3, ok).validate().antisymmetry_ok
    bad = {(1, 2): {3: 1}, (2, 1): {3: 1}}
    assert not LieAlgebra(3, bad).validate().antisymmetry_ok


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


# -- the bracket rule: one tensor, whichever order a pair is listed in -----------

def _random_constants(rng, dim):
    """{(i, j): {k: Fraction}} on some pairs i < j, 1-based."""
    out = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            comps = {k: Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                     for k in range(1, dim + 1) if rng.random() < 0.4}
            if comps and rng.random() < 0.6:
                out[(i, j)] = comps
    return out


def _reference_tensor(dim, constants):
    """C[k][i][j] as nested Fraction lists, from pairs i < j."""
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), comps in constants.items():
        for k, v in comps.items():
            c[k - 1][i - 1][j - 1] += v
            c[k - 1][j - 1][i - 1] -= v
    return c


def _reversed(comps):
    return {k: -v for k, v in comps.items()}


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_a_pair_in_either_or_both_orders_gives_one_tensor(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(5):
        forward = _random_constants(rng, dim)
        reverse = {(j, i): _reversed(comps) for (i, j), comps in forward.items()}
        both = {**forward, **reverse}
        mixed = {}  # each pair in one order, the other or both
        for (i, j), comps in forward.items():
            side = rng.integers(3)
            if side != 1:
                mixed[(i, j)] = comps
            if side != 0:
                mixed[(j, i)] = _reversed(comps)
        want = _reference_tensor(dim, forward)
        for listing in (forward, reverse, both, mixed):
            alg = LieAlgebra(dim, listing)
            c = alg.structure_tensor
            assert alg.exact and alg.antisymmetry_ok and alg.validate().antisymmetry_ok
            assert np.asarray(c).tolist() == want
            assert not c.flags.writeable
            with pytest.raises(ValueError):
                c[0, 0, 1] = 1


def test_a_pair_listed_in_both_orders_counts_once():
    alg = LieAlgebra(3, {(1, 2): {3: 1}, (2, 1): {3: -1}})
    assert list(alg.basis_bracket(0, 1)) == [0, 0, 1]  # not 2 e3
    assert alg.sparse_constants() == {(1, 2, 3): 1}
    floats = LieAlgebra(3, {(1, 2): {3: 0.75}, (2, 1): {3: -0.75}})
    assert floats.antisymmetry_ok and floats.sparse_constants() == {(1, 2, 3): 0.75}


@pytest.mark.parametrize("constants", [
    {(1, 2): {3: 1}, (2, 1): {3: 1}},
    {(1, 2): {3: 1}, (2, 1): {1: 1}},
    {(1, 2): {3: 1}, (2, 1): {3: "-1/2"}},
    {(1, 2): {3: 1.0}, (2, 1): {3: -1.001}},
], ids=["same_sign", "other_target", "half", "float"])
def test_an_inconsistent_reverse_pair_fails_antisymmetry(constants):
    alg = LieAlgebra(3, constants)
    report = alg.validate()
    assert not alg.antisymmetry_ok and not report.antisymmetry_ok and not report.ok
    # the pair still counts once: c = (b_12 - b_21) / 2
    def vector(comps):
        return np.array([float(arith.parse_scalar(comps.get(k, 0))) for k in (1, 2, 3)])

    want = (vector(constants[(1, 2)]) - vector(constants[(2, 1)])) / 2
    assert np.allclose(np.asarray(alg.basis_bracket(0, 1), dtype=float), want)


def test_a_float_reverse_pair_within_tolerance_is_antisymmetric():
    alg = LieAlgebra(3, {(1, 2): {3: 1e6}, (2, 1): {3: -1e6 * (1 + 1e-12)}}, tol=1e-9)
    assert alg.antisymmetry_ok


def test_a_nonzero_self_bracket_raises_and_a_zero_one_is_ignored():
    with pytest.raises(IndexOutOfRange):
        LieAlgebra(3, {(2, 2): {1: "1/3"}})
    assert LieAlgebra(3, {(2, 2): {1: 0}}).sparse_constants() == {}


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_change_basis_matches_a_fraction_reference(dim):
    rng = np.random.default_rng(200 + dim)
    alg = LieAlgebra(dim, _random_constants(rng, dim))
    c = np.asarray(alg.structure_tensor).tolist()
    for _ in range(3):
        while True:
            p = [[Fraction(int(v)) for v in row] for row in rng.integers(-2, 3, (dim, dim))]
            if arith.determinant(np.array(p, dtype=object), arith.Field(True)) != 0:
                break
        pinv = np.asarray(invert(np.array(p, dtype=object))).tolist()
        want = [[[sum(pinv[k][m] * p[i][a] * p[j][b] * c[m][i][j]
                      for m in range(dim) for i in range(dim) for j in range(dim))
                  for b in range(dim)] for a in range(dim)] for k in range(dim)]
        moved = alg.change_basis(np.array(p, dtype=object))
        assert moved.exact and moved.antisymmetry_ok
        assert np.asarray(moved.structure_tensor).tolist() == want
        assert not moved.structure_tensor.flags.writeable


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_as_float_rounds_each_constant_like_float_of_a_fraction(dim):
    rng = np.random.default_rng(300 + dim)
    constants = _random_constants(rng, dim)
    constants[(1, 2)] = {1: Fraction(1, 3), 2: Fraction(-2, 7), 3: Fraction(10 ** 20 + 1, 3)}
    alg = LieAlgebra(dim, constants)
    floats = alg.as_float()
    assert not floats.exact and floats.tol == alg.tol
    want = [[[float(v) for v in row] for row in plane]
            for plane in np.asarray(alg.structure_tensor).tolist()]
    got = floats.structure_tensor
    assert got.dtype == float and not got.flags.writeable
    assert [x.hex() for x in got.ravel().tolist()] == \
        [x.hex() for x in np.array(want).ravel().tolist()]


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_sparse_constants_round_trip(dim, exact):
    rng = np.random.default_rng(400 + dim)
    alg = LieAlgebra(dim, _random_constants(rng, dim))
    alg = alg if exact else alg.as_float()
    sparse = alg.sparse_constants()
    assert list(sparse) == sorted(sparse) and all(i < j for i, j, _ in sparse)
    assert all(v != 0 for v in sparse.values())
    regrouped = {}
    for (i, j, k), v in sparse.items():
        regrouped.setdefault((i, j), {})[k] = v
    again = LieAlgebra(dim, regrouped, exact=exact)
    assert again.sparse_constants() == sparse
    assert np.asarray(again.structure_tensor).tolist() == \
        np.asarray(alg.structure_tensor).tolist()
