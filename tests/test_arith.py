from fractions import Fraction

import numpy as np
import pytest

from lcak.arith import Field

EXACT, FLOAT = Field(True), Field(False, 1e-9)


def test_bound_rule():
    assert EXACT.bound(1e6) == 0
    assert FLOAT.bound() == FLOAT.bound(1e-3) == 1e-9
    assert FLOAT.bound(1e3) == pytest.approx(1e-6)


def test_scalars_and_arrays_keep_the_mode():
    assert EXACT.scalar(1, 2) == Fraction(1, 2) and EXACT.scalar("-3/4") == Fraction(-3, 4)
    assert FLOAT.scalar(1, 2) == 0.5 and isinstance(FLOAT.scalar(Fraction(1, 4)), float)
    with pytest.raises(TypeError):
        EXACT.scalar(0.5)
    a = EXACT.array([[1, Fraction(1, 3)], ["2/5", 0]])
    assert a.dtype == object and all(type(v) is Fraction for v in a.flat)
    assert FLOAT.array(a).dtype == float
    assert list(EXACT.eye(2).flat) == [1, 0, 0, 1] and EXACT.zeros(2, 3).shape == (2, 3)


def test_is_zero_exact_and_relative():
    assert EXACT.is_zero([Fraction(0), 0]) and not EXACT.is_zero(Fraction(1, 10 ** 30))
    assert FLOAT.is_zero(5e-10) and not FLOAT.is_zero(5e-9)
    assert FLOAT.is_zero(5e-9, scale=10.0)


@pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e6])
def test_nondegeneracy_is_scale_free(scale):
    f = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert FLOAT.is_nondegenerate(scale * f)
    assert not FLOAT.is_nondegenerate(scale * np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_nondegeneracy_exact_and_nonfinite():
    assert not FLOAT.is_nondegenerate(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    assert EXACT.is_nondegenerate(EXACT.array([[0, Fraction(1, 10 ** 9)], [-1, 0]]))
    assert not EXACT.is_nondegenerate(EXACT.zeros(2, 2))


# -- Field.einsum ----------------------------------------------------------------

# pairwise coprime denominators near 2**40, and numerators beyond int64
DENOMINATORS = (2 ** 40, 3 ** 25, 5 ** 17, 7 ** 14, 11 ** 11, 1, 3)
SPECS = [("ij,jk->ik", (3, 4), (4, 2)),
         ("kab,ai,bj->kij", (3, 3, 3), (3, 3), (3, 3)),
         ("mij,lmk->lijk", (3, 3, 3), (3, 3, 3)),
         ("kik->i", (3, 4, 3)),
         ("i,i->", (5,), (5,))]


def _random_fractions(rng, shape):
    def entry():
        kind = rng.integers(4)
        if kind == 0:
            return Fraction(0)
        num = int(rng.integers(-9, 10))
        if kind == 1:
            num += (1 if num >= 0 else -1) * (2 ** 63 + int(rng.integers(2 ** 62)))
        return Fraction(num, DENOMINATORS[rng.integers(len(DENOMINATORS))])
    return np.array([entry() for _ in range(int(np.prod(shape)))],
                    dtype=object).reshape(shape)


@pytest.mark.parametrize("spec", SPECS, ids=[s[0] for s in SPECS])
def test_exact_einsum_equals_fraction_einsum(spec):
    rng = np.random.default_rng(len(spec[0]))
    for _ in range(3):
        operands = [_random_fractions(rng, shape) for shape in spec[1:]]
        got = EXACT.einsum(spec[0], *operands)
        want = np.einsum(spec[0], *operands)
        assert np.shape(got) == np.shape(want)
        got_flat, want_flat = np.ravel(got).tolist(), np.ravel(want).tolist()
        assert got_flat == want_flat
        assert all(type(v) is Fraction for v in got_flat)
        # the integers contracted are far beyond int64
        assert max(abs(n) for a in operands for n in EXACT.numerators(a)[0].flat) > 2 ** 100


def test_exact_einsum_takes_ints_and_keeps_fractions():
    a = np.array([[1, 2], [0, -3]], dtype=object)
    got = EXACT.einsum("ij,jk->ik", a, EXACT.array([[Fraction(1, 2), 0], [0, 1]]))
    assert got.tolist() == [[Fraction(1, 2), 2], [0, -3]]
    assert all(type(v) is Fraction for v in got.flat)
    assert EXACT.numerators(a)[1] == 1 and EXACT.numerators(EXACT.zeros(0))[1] == 1


@pytest.mark.parametrize("spec", SPECS, ids=[s[0] for s in SPECS])
def test_float_einsum_is_numpy_einsum(spec):
    rng = np.random.default_rng(7)
    operands = [rng.standard_normal(shape) for shape in spec[1:]]
    got = FLOAT.einsum(spec[0], *operands)
    want = np.einsum(spec[0], *operands)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_exact_einsum_refuses_floats():
    a = EXACT.array([[1, 2], [3, 4]])
    with pytest.raises(TypeError):
        EXACT.einsum("ij,jk->ik", a, np.array([[0.5, 0.0], [0.0, 1.0]]))
    with pytest.raises(TypeError):
        EXACT.einsum("ij,jk->ik", a, np.array([[Fraction(1), 0.5], [0, 1]], dtype=object))


def test_einsum_zero_size_operands():
    for spec, shapes, out in [("ij,jk->ik", ((2, 0), (0, 3)), (2, 3)),
                              ("ij,jk->ik", ((0, 2), (2, 3)), (0, 3))]:
        got = EXACT.einsum(spec, *(EXACT.zeros(*s) for s in shapes))
        assert got.shape == out and got.dtype == object
        assert all(type(v) is Fraction and v == 0 for v in got.flat)
        want = np.einsum(spec, *(np.zeros(s) for s in shapes))
        assert FLOAT.einsum(spec, *(np.zeros(s) for s in shapes)).tobytes() == want.tobytes()


# -- Field.matmul ------------------------------------------------------------------

CHAINS = [((3, 4), (4, 2)),
          ((3, 3), (3, 3), (3, 3)),
          ((2, 4), (4, 4), (4, 3)),
          ((4,), (4, 3)),
          ((3, 4), (4,)),
          ((4,), (4, 4), (4,)),
          ((3, 3), (2, 3, 3))]


def _chain(operands):
    out = operands[0]
    for m in operands[1:]:
        out = out @ m
    return out


@pytest.mark.parametrize("shapes", CHAINS, ids=[str(s) for s in CHAINS])
def test_exact_matmul_equals_fraction_chain(shapes):
    rng = np.random.default_rng(len(shapes) + sum(map(len, shapes)))
    for _ in range(3):
        operands = [_random_fractions(rng, shape) for shape in shapes]
        got, want = EXACT.matmul(*operands), _chain(operands)
        assert np.shape(got) == np.shape(want)
        got_flat, want_flat = np.ravel(got).tolist(), np.ravel(want).tolist()
        assert got_flat == want_flat
        assert all(type(v) is Fraction for v in got_flat)
        # the integers multiplied are far beyond int64
        assert max(abs(n) for a in operands for n in EXACT.numerators(a).num.flat) > 2 ** 100
        # cached numerators are taken as they are
        nums = [EXACT.numerators(a) for a in operands]
        assert np.ravel(EXACT.matmul(*nums)).tolist() == want_flat
        prod = EXACT.matmul_num(*nums)
        assert prod.den == np.prod([n.den for n in nums], dtype=object)
        assert np.ravel(EXACT.fractions(*prod)).tolist() == want_flat


@pytest.mark.parametrize("shapes", CHAINS, ids=[str(s) for s in CHAINS])
def test_float_matmul_is_the_chain(shapes):
    rng = np.random.default_rng(3)
    operands = [rng.standard_normal(shape) for shape in shapes]
    got, want = FLOAT.matmul(*operands), _chain(operands)
    assert type(got) is type(want) and np.asarray(got).dtype == np.asarray(want).dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    nums = [FLOAT.numerators(a) for a in operands]
    assert np.asarray(FLOAT.matmul(*nums)).tobytes() == np.asarray(want).tobytes()


def test_exact_matmul_refuses_floats():
    a = EXACT.array([[1, 2], [3, 4]])
    with pytest.raises(TypeError):
        EXACT.matmul(a, np.array([[0.5, 0.0], [0.0, 1.0]]))
    with pytest.raises(TypeError):
        EXACT.matmul(np.array([Fraction(1), 0.5], dtype=object), a)


def test_matmul_zero_size_operands():
    for shapes, out in [(((2, 0), (0, 3)), (2, 3)), (((0, 2), (2, 3)), (0, 3)),
                        (((0, 4), (4, 4), (4, 0)), (0, 0))]:
        got = EXACT.matmul(*(EXACT.zeros(*s) for s in shapes))
        assert got.shape == out and got.dtype == object
        assert all(type(v) is Fraction and v == 0 for v in got.flat)
        floats = [np.zeros(s) for s in shapes]
        assert FLOAT.matmul(*floats).tobytes() == _chain(floats).tobytes()
    assert EXACT.matmul(EXACT.zeros(0), EXACT.zeros(0)) == 0


def test_exact_numerators_in_a_float_field_are_divided():
    a = EXACT.array([[Fraction(1, 3), 2], [0, Fraction(-1, 2)]])
    got = FLOAT.matmul(EXACT.numerators(a), np.eye(2))
    assert np.allclose(np.asarray(got, dtype=float), np.asarray(a, dtype=float), rtol=1e-15)
