import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from lcak.arith import Field, QArray, as_qarray, max_abs, parse_scalar, to_float

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
    assert isinstance(a, QArray) and (a.num.tolist(), a.den) == ([[15, 5], [6, 0]], 15)
    assert all(type(v) is Fraction for v in np.asarray(a).flat)
    assert FLOAT.array(a).dtype == float and FLOAT.array(a).tolist() == [[1, 1 / 3], [0.4, 0]]
    assert EXACT.eye(2).tolist() == [[1, 0], [0, 1]] and EXACT.zeros(2, 3).shape == (2, 3)
    assert type(FLOAT.eye(2)) is np.ndarray and type(FLOAT.zeros(2)) is np.ndarray
    with pytest.raises(TypeError):
        EXACT.array([[0.5, 1]])


def test_is_zero_exact_and_relative():
    assert EXACT.is_zero([Fraction(0), 0]) and not EXACT.is_zero(Fraction(1, 10 ** 30))
    assert EXACT.is_zero(EXACT.zeros(3)) and not EXACT.is_zero(EXACT.array([0, "1/7"]))
    assert FLOAT.is_zero(5e-10) and not FLOAT.is_zero(5e-9)
    assert FLOAT.is_zero(5e-9, scale=10.0)


@pytest.mark.parametrize("raw, value", [
    ("3", 3), (" -1/4 ", Fraction(-1, 4)), ("0.25", Fraction(1, 4)), ("1e-3", Fraction(1, 1000)),
    ("1e400", 10 ** 400), ("-1E-400", Fraction(-1, 10 ** 400)), (7, 7),
    (Fraction(2, 3), Fraction(2, 3)), (0.1, Fraction(1, 10)), (2.5e-8, Fraction(1, 4 * 10 ** 7)),
    (np.float64(0.1), Fraction(1, 10)), (np.int64(-2), -2)], ids=repr)
def test_parse_scalar_reads_the_rational_as_written(raw, value):
    """A string is read as written, a float as the decimal it prints as."""
    parsed = parse_scalar(raw)
    assert type(parsed) is Fraction and parsed == value


@pytest.mark.parametrize("raw", [True, False, math.nan, math.inf, -math.inf, "nan", "inf",
                                 "0.25.1", "1/0", "", None, [1]], ids=repr)
def test_parse_scalar_refuses_what_is_not_a_rational(raw):
    with pytest.raises((ValueError, TypeError, ZeroDivisionError)):
        parse_scalar(raw)


def test_an_exact_value_reads_as_inf_past_the_float_range_and_never_as_zero():
    big, tiny = Fraction(10 ** 400), Fraction(1, 10 ** 400)
    assert (to_float(big), to_float(-big)) == (math.inf, -math.inf)
    assert (to_float(tiny), to_float(-tiny)) == (math.ulp(0.0), -math.ulp(0.0))
    assert to_float(Fraction(1, 3)) == 1 / 3 and to_float(0) == 0.0 and to_float(-0.0) == 0.0
    assert math.isnan(to_float(math.nan)) and to_float(np.float64(2.5)) == 2.5
    assert max_abs(EXACT.array(["-1e400", 1])) == math.inf
    assert max_abs(EXACT.array(["1e-400", 0])) == math.ulp(0.0)
    assert max_abs(EXACT.zeros(3)) == 0.0 and type(max_abs(EXACT.zeros(3))) is float


def test_float_max_abs_keeps_a_nan_wherever_it_sits():
    assert not FLOAT.is_zero([0.0, math.nan]) and not FLOAT.is_zero([math.nan, 0.0])
    assert math.isnan(max_abs(np.array([[1.0, 2.0], [math.nan, 0.0]])))
    assert max_abs([]) == 0.0 and max_abs(np.zeros((0, 3))) == 0.0
    assert type(max_abs([1.0, -2.5])) is float and max_abs([1.0, -2.5]) == 2.5


def test_array_stacks_qarrays_on_their_numerators(monkeypatch):
    rows = [EXACT.array(["1/2", 1]), EXACT.array(["2/3", 0]), EXACT.array([3, "-1/6"])]

    def expand(self, dtype=None, copy=None):
        raise AssertionError("a QArray was expanded to Fractions")

    monkeypatch.setattr(QArray, "__array__", expand)
    a = EXACT.array(rows)
    assert (a.num.tolist(), a.den) == ([[3, 6], [4, 0], [18, -1]], 6)
    b = EXACT.array([*a, *EXACT.eye(2)])
    assert b.shape == (5, 2) and (b[3:] == EXACT.eye(2)).all() and (b[:3] == a).all()
    assert EXACT.array([EXACT.array(["1/2", "1/2"])]).den == 2  # lowest terms


@pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e6])
def test_nondegeneracy_is_scale_free(scale):
    f = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert FLOAT.is_nondegenerate(scale * f)
    assert not FLOAT.is_nondegenerate(scale * np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_nondegeneracy_exact_and_nonfinite():
    assert not FLOAT.is_nondegenerate(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    assert EXACT.is_nondegenerate(EXACT.array([[0, Fraction(1, 10 ** 9)], [-1, 0]]))
    assert not EXACT.is_nondegenerate(EXACT.zeros(2, 2))


# -- random operands ----------------------------------------------------------------

# pairwise coprime denominators near 2**40, and numerators beyond int64
DENOMINATORS = (2 ** 40, 3 ** 25, 5 ** 17, 7 ** 14, 11 ** 11, 1, 3)


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


def _same(got, want):
    """``got`` (a QArray or a Fraction) holds exactly the Fractions of ``want``."""
    if not isinstance(want, np.ndarray):
        return type(got) is Fraction and got == want
    flat = np.ravel(np.asarray(got)).tolist()
    return (isinstance(got, QArray) and got.shape == want.shape
            and all(type(v) is Fraction for v in flat) and flat == want.ravel().tolist()
            and math.gcd(got.den, *got.num.ravel().tolist()) == 1 and got.den > 0)


# -- Field.einsum ----------------------------------------------------------------

SPECS = [("ij,jk->ik", (3, 4), (4, 2)),
         ("kab,ai,bj->kij", (3, 3, 3), (3, 3), (3, 3)),
         ("mij,lmk->lijk", (3, 3, 3), (3, 3, 3)),
         ("kik->i", (3, 4, 3)),
         ("i,i->", (5,), (5,))]


@pytest.mark.parametrize("spec", SPECS, ids=[s[0] for s in SPECS])
def test_exact_einsum_equals_fraction_einsum(spec):
    rng = np.random.default_rng(len(spec[0]))
    for _ in range(3):
        operands = [_random_fractions(rng, shape) for shape in spec[1:]]
        want = np.einsum(spec[0], *operands)
        assert _same(EXACT.einsum(spec[0], *operands), want)
        assert _same(EXACT.einsum(spec[0], *map(as_qarray, operands)), want)
        # the integers contracted are far beyond int64
        assert max(abs(n) for a in operands for n in as_qarray(a).num.flat) > 2 ** 100


def test_exact_einsum_takes_ints_and_keeps_fractions():
    a = np.array([[1, 2], [0, -3]], dtype=object)
    got = EXACT.einsum("ij,jk->ik", a, EXACT.array([[Fraction(1, 2), 0], [0, 1]]))
    assert got.tolist() == [[Fraction(1, 2), 2], [0, -3]]
    assert all(type(v) is Fraction for v in np.asarray(got).flat)
    assert EXACT.einsum("ij,jk->ik", np.eye(2, dtype=int), a).tolist() == a.tolist()
    assert as_qarray(a).den == 1 and as_qarray(EXACT.zeros(0)).den == 1


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
    floats = (np.array([[0.5, 0.0], [0.0, 1.0]]),
              np.array([[Fraction(1), 0.5], [0, 1]], dtype=object))
    for f in floats:
        with pytest.raises(TypeError):
            EXACT.einsum("ij,jk->ik", a, f)
        with pytest.raises(TypeError):
            EXACT.einsum("ij,jk->ik", f, a)


def test_einsum_zero_size_operands():
    for spec, shapes, out in [("ij,jk->ik", ((2, 0), (0, 3)), (2, 3)),
                              ("ij,jk->ik", ((0, 2), (2, 3)), (0, 3))]:
        got = EXACT.einsum(spec, *(EXACT.zeros(*s) for s in shapes))
        assert isinstance(got, QArray) and got.shape == out and got.den == 1
        assert all(type(v) is Fraction and v == 0 for v in np.asarray(got).flat)
        want = np.einsum(spec, *(np.zeros(s) for s in shapes))
        assert FLOAT.einsum(spec, *(np.zeros(s) for s in shapes)).tobytes() == want.tobytes()


# -- @ chains ------------------------------------------------------------------------

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
        want = _chain(operands)
        assert _same(_chain([EXACT.array(a) for a in operands]), want)
        # a Fraction array on either side is taken as it is
        mixed = [a if i % 2 else EXACT.array(a) for i, a in enumerate(operands)]
        assert _same(_chain(mixed), want)
        assert _same(operands[0] @ _chain([EXACT.array(a) for a in operands[1:]]),
                     operands[0] @ _chain(operands[1:]))
        # the integers multiplied are far beyond int64
        assert max(abs(n) for a in operands for n in as_qarray(a).num.flat) > 2 ** 100


@pytest.mark.parametrize("shapes", CHAINS, ids=[str(s) for s in CHAINS])
def test_float_matmul_is_the_chain(shapes):
    rng = np.random.default_rng(3)
    operands = [rng.standard_normal(shape) for shape in shapes]
    got, want = _chain([FLOAT.array(a) for a in operands]), _chain(operands)
    assert type(got) is type(want) and np.asarray(got).dtype == np.asarray(want).dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_exact_matmul_refuses_floats():
    a = EXACT.array([[1, 2], [3, 4]])
    for f in (np.array([[0.5, 0.0], [0.0, 1.0]]), np.array([Fraction(1), 0.5], dtype=object)):
        with pytest.raises(TypeError):
            a @ f
        with pytest.raises(TypeError):
            f @ a
    with pytest.raises(TypeError):
        a * 0.5
    with pytest.raises(TypeError):
        0.5 + a


def test_matmul_zero_size_operands():
    for shapes, out in [(((2, 0), (0, 3)), (2, 3)), (((0, 2), (2, 3)), (0, 3)),
                        (((0, 4), (4, 4), (4, 0)), (0, 0))]:
        got = _chain([EXACT.zeros(*s) for s in shapes])
        assert isinstance(got, QArray) and got.shape == out
        assert all(type(v) is Fraction and v == 0 for v in np.asarray(got).flat)
        floats = [np.zeros(s) for s in shapes]
        assert _chain([FLOAT.array(f) for f in floats]).tobytes() == _chain(floats).tobytes()
    assert EXACT.zeros(0) @ EXACT.zeros(0) == 0
    assert (EXACT.zeros(0, 2) + EXACT.array([[1, "1/2"]])).shape == (0, 2)


# -- elementwise arithmetic, shape, entries -------------------------------------------

@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul],
                         ids=["add", "sub", "mul"])
def test_elementwise_ops_equal_fraction_ops(op):
    rng = np.random.default_rng(11)
    for shape_a, shape_b in [((3, 4), (3, 4)), ((2, 3), (3,)), ((4,), ())]:
        a, b = _random_fractions(rng, shape_a), _random_fractions(rng, shape_b)
        qa, qb = as_qarray(a), as_qarray(b)
        want = op(a, b)
        assert _same(op(qa, qb), want)
        assert _same(op(qa, b), want) and _same(op(a, qb), want)
    a = _random_fractions(rng, (3, 3))
    for scalar in (Fraction(-7, 2 ** 40), 3, np.int64(-2), 0):
        assert _same(op(as_qarray(a), scalar), op(a, scalar))
        assert _same(op(scalar, as_qarray(a)), op(scalar, a))
    assert _same(-as_qarray(a), -a) and _same(abs(as_qarray(a)), abs(a))


def test_sums_come_back_to_lowest_terms():
    a, b = EXACT.array(["1/6", "1/3"]), EXACT.array(["-1/6", "2/3"])
    assert ((a + b).num.tolist(), (a + b).den) == ([0, 1], 1)
    assert ((a * 6).num.tolist(), (a * 6).den) == ([1, 2], 1)
    assert (QArray([2, 4], -6).num.tolist(), QArray([2, 4], -6).den) == ([-1, -2], 3)


def test_transpose_reshape_trace_keep_the_entries():
    rng = np.random.default_rng(13)
    a = _random_fractions(rng, (2, 3, 4))
    q = as_qarray(a)
    assert _same(q.transpose(2, 0, 1), a.transpose(2, 0, 1))
    assert _same(q.reshape(6, 4).T, a.reshape(6, 4).T) and _same(q.ravel(), a.ravel())
    assert _same(q.reshape(4, 6)[:, :4].trace(), a.reshape(4, 6)[:, :4].trace())
    assert _same(q.reshape(2, 2, 2, 3)[..., :2].trace(axis1=2, axis2=3),
                 a.reshape(2, 2, 2, 3)[..., :2].trace(axis1=2, axis2=3))
    assert len(q) == 2 and [v for v in q[0, 0]] == a[0, 0].tolist()
    assert [r.tolist() for r in q] == [r.tolist() for r in a]


def test_index_and_assign_with_mixed_denominators():
    rng = np.random.default_rng(17)
    a = _random_fractions(rng, (4, 5))
    q = as_qarray(a)
    for key in [(1, 2), 3, (slice(None), [0, 4]), (np.array([0, 3]), np.array([1, 1])),
                a != 0, (None, 2)]:
        assert _same(q[key], a[key]) if isinstance(a[key], np.ndarray) else q[key] == a[key]
    values = [Fraction(1, 3 ** 25), Fraction(5, 7), 2, _random_fractions(rng, (5,)),
              np.array([Fraction(1, 11), 0, Fraction(-1, 2 ** 40), 4, 1], dtype=object)]
    for key, value in zip([(0, 0), (3, 4), 2, 1, (slice(None), 2)],
                          [values[0], values[1], values[3], values[4], values[2]]):
        q[key] = value
        a[key] = value
        assert _same(q, a)
    q[:] = 0
    assert q.den == 1 and not q.num.any()


def test_read_only_arrays_refuse_assignment():
    q = EXACT.array([[1, 2], [3, "1/2"]])
    q.flags.writeable = False
    for value in (5, Fraction(1, 3)):
        with pytest.raises(ValueError):
            q[0, 0] = value
    assert q.tolist() == [[1, 2], [3, Fraction(1, 2)]]


def test_equality_and_order_are_exact():
    a = EXACT.array([Fraction(1, 3), 0, Fraction(-2, 2 ** 40)])
    b = np.array([Fraction(1, 3), Fraction(1, 10 ** 30), Fraction(-2, 2 ** 40)], dtype=object)
    assert (a == b).tolist() == [True, False, True] and (a != b).tolist() == [False, True, False]
    assert (a == as_qarray(b)).dtype == bool and (b == a).tolist() == [True, False, True]
    assert (abs(a) <= 0).tolist() == [False, True, False] and (b >= a).tolist() == [True] * 3
    assert (a == Fraction(1, 3)).tolist() == [True, False, False]


def test_printed_forms_are_those_of_the_fraction_array():
    a = np.array([[Fraction(1, 2), Fraction(0)], [Fraction(-3, 4), Fraction(5)]], dtype=object)
    q = as_qarray(a)
    assert repr(q) == repr(a) and str(q) == str(a) and q.tolist() == a.tolist()
    assert repr(q[1]) == repr(a[1]) and q[1, 0] == Fraction(-3, 4)


def test_scatter_sums_repeated_entries():
    index = np.array([0, 2, 0, 1])
    values = np.array([Fraction(1, 2), 3, Fraction(1, 3), Fraction(-1, 4)], dtype=object)
    want = np.zeros(3, dtype=object)
    np.add.at(want, index, values)
    assert _same(EXACT.scatter(3, index, values), want)
    floats = np.array([0.1, 0.2, 0.3, -0.0])
    want = np.zeros(3)
    np.add.at(want, index, floats)
    assert FLOAT.scatter(3, index, floats).tobytes() == want.tobytes()


# -- floats of exact entries are correctly rounded ---------------------------------------

def _primes(count):
    out, p = [], 2
    while len(out) < count:
        if all(p % q for q in out):
            out.append(p)
        p += 1
    return out


def test_float_and_max_abs_are_correctly_rounded():
    """Denominators near 2**40 that are powers of 30 distinct primes share one
    lcm above 2**1100, so every numerator is too; ``float(num) / den`` would
    overflow, ``num / den`` in int true division rounds as ``float(Fraction)``."""
    rng = np.random.default_rng(19)
    dens = [p ** max(1, round(40 / math.log2(p))) for p in _primes(30)]
    fracs = [Fraction(int(rng.integers(-2 ** 62, 2 ** 62)) * int(rng.integers(1, 2 ** 40)), d)
             for d in dens]
    fracs += [Fraction(1, dens[0] * 3 ** 600), Fraction(3 ** 600, dens[1])]  # tiny, huge
    a = np.array(fracs, dtype=object)
    q = as_qarray(a)
    assert min(abs(n) for n in q.num.flat) > 2 ** 1100 and q.den > 2 ** 1100
    want = [float(f) for f in fracs]
    assert np.asarray(q, dtype=float).tolist() == want and FLOAT.array(q).tolist() == want
    assert [float(q[i]) for i in range(len(fracs))] == want
    assert max_abs(q) == max(abs(w) for w in want) == max_abs(a)
    for i in range(len(fracs)):
        assert max_abs(q[i:i + 1]) == abs(want[i])
    assert max_abs(EXACT.zeros(0)) == 0.0
